//! The bounded worker pool behind the reactor, plus the per-session
//! FIFO of `script` frames.
//!
//! Every complete request frame the reactor reads is submitted here,
//! and every one is answered by the same [`handle_request`]. Frames
//! fall into two classes only by *where they wait*:
//!
//! * **Free** work — `open`, `stats`, `metrics`, `ping`, control verbs,
//!   and `script` frames on connections with no session open. Any idle
//!   worker runs them.
//! * **Session** work — `script` frames against an open session. These
//!   enter a FIFO keyed by the session entry, and at most one worker
//!   drains a given session's FIFO, one frame at a time. Writes to a
//!   session therefore apply in arrival order, and a busy session holds
//!   one worker instead of parking every worker on its lock, so the
//!   rest of the pool keeps serving other sessions.
//!
//! Concurrent reads of one session share its evaluations anyway: the
//! solver's read memo keeps one well-founded run and one rendered reply
//! per state for every reader, whichever connection asks first.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::reactor::Notifier;
use crate::registry::{SessionEntry, SessionRegistry};
use crate::server::{handle_request, Next};

/// Per-connection protocol state, shared between the reactor (which
/// owns the socket) and whichever worker executes the connection's
/// current request. Uncontended in practice: one request per connection
/// is in flight at a time.
#[derive(Default)]
pub(crate) struct ConnState {
    /// The session this connection has open, if any.
    pub entry: Option<Arc<SessionEntry>>,
    /// Running script line number (counts across `script` frames).
    pub lineno: usize,
}

/// A finished request on its way back to the reactor.
pub(crate) struct Completion {
    pub conn: u64,
    pub response: Vec<u8>,
    pub next: Next,
}

/// One request frame and the connection it came from.
struct Job {
    conn: u64,
    session: Arc<Mutex<ConnState>>,
    payload: Vec<u8>,
}

enum WorkItem {
    Free(Job),
    /// The session FIFO under this key became runnable.
    Session(usize),
}

struct Shared {
    registry: Arc<SessionRegistry>,
    notifier: Arc<Notifier>,
    /// The frame cap every response is held to.
    max_frame: u32,
    work: Mutex<VecDeque<WorkItem>>,
    available: Condvar,
    /// Pending `script` frames per session, keyed by entry identity
    /// (`Arc` pointer), not registry key: an evicted entry and its
    /// re-prepared successor are different sessions. A FIFO is present
    /// exactly while one worker drains it.
    sessions: Mutex<HashMap<usize, VecDeque<Job>>>,
    completions: Mutex<Vec<Completion>>,
    stopping: AtomicBool,
}

/// The worker pool handle owned by the reactor.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    /// Spawns `workers` threads (at least one) answering with frames of
    /// at most `max_frame` bytes.
    pub(crate) fn start(
        registry: Arc<SessionRegistry>,
        notifier: Arc<Notifier>,
        workers: usize,
        max_frame: u32,
    ) -> Dispatcher {
        let shared = Arc::new(Shared {
            registry,
            notifier,
            max_frame,
            work: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            completions: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tiebreak-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn dispatch worker")
            })
            .collect();
        Dispatcher { shared, workers }
    }

    /// Routes one request frame (reactor thread).
    pub(crate) fn submit(&self, conn: u64, session: &Arc<Mutex<ConnState>>, payload: Vec<u8>) {
        // A `script` frame on a connection with an open session is
        // session work; everything else (including invalid UTF-8, which
        // `handle_request` reports in-band) is free work.
        let script_target = std::str::from_utf8(&payload).ok().and_then(|text| {
            let verb_line = text
                .split_once('\n')
                .map_or(text, |(verb_line, _)| verb_line);
            if verb_line.split_whitespace().next() != Some("script") {
                return None;
            }
            let state = session.lock().unwrap_or_else(PoisonError::into_inner);
            state
                .entry
                .as_ref()
                .map(|entry| Arc::as_ptr(entry) as usize)
        });
        let job = Job {
            conn,
            session: Arc::clone(session),
            payload,
        };
        let Some(key) = script_target else {
            self.push_work(WorkItem::Free(job));
            return;
        };
        let idle = {
            let mut sessions = self
                .shared
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match sessions.get_mut(&key) {
                Some(queue) => {
                    queue.push_back(job);
                    false
                }
                None => {
                    sessions.insert(key, VecDeque::from([job]));
                    true
                }
            }
        };
        if idle {
            self.push_work(WorkItem::Session(key));
        }
    }

    /// Takes every completion queued since the last drain.
    pub(crate) fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(
            &mut self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Stops the pool: in-flight work finishes, queued work is dropped,
    /// workers join.
    pub(crate) fn shutdown(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    fn push_work(&self, item: WorkItem) {
        self.shared
            .work
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(item);
        self.shared.available.notify_one();
    }
}

/// Answers one frame through [`handle_request`] and queues the
/// response for the reactor.
fn run_job(shared: &Shared, job: Job) {
    let mut response = Vec::new();
    let next = {
        let mut state = job.session.lock().unwrap_or_else(PoisonError::into_inner);
        let ConnState { entry, lineno } = &mut *state;
        handle_request(
            &job.payload,
            &shared.registry,
            shared.max_frame,
            entry,
            lineno,
            &mut response,
        )
    };
    shared
        .completions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Completion {
            conn: job.conn,
            response,
            next,
        });
    shared.notifier.notify();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let item = {
            let mut work = shared.work.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(item) = work.pop_front() {
                    break item;
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                work = shared
                    .available
                    .wait(work)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match item {
            WorkItem::Free(job) => run_job(shared, job),
            WorkItem::Session(key) => drain_session_queue(shared, key),
        }
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Drains one session's FIFO, one frame at a time, until it is empty.
fn drain_session_queue(shared: &Shared, key: usize) {
    loop {
        let job = {
            let mut sessions = shared
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(queue) = sessions.get_mut(&key) else {
                return;
            };
            match queue.pop_front() {
                Some(job) if !shared.stopping.load(Ordering::SeqCst) => job,
                // Done (or shutting down, dropping what's queued). The
                // FIFO goes away; a later submit re-creates it.
                _ => {
                    sessions.remove(&key);
                    return;
                }
            }
        };
        run_job(shared, job);
    }
}
