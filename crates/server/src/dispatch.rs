//! The bounded worker pool behind the reactor, plus the per-session
//! cross-connection batching queue.
//!
//! Every complete request frame the reactor reads is submitted here.
//! Requests fall into two classes:
//!
//! * **Free** work — `open`, `stats`, `metrics`, `ping`, control verbs,
//!   and `script` frames on connections with no session open. Any
//!   worker runs them via the same `handle_request` the legacy
//!   transport uses, so the two transports cannot drift.
//! * **Session** work — `script` frames against an open session. These
//!   enter a FIFO queue keyed by the session entry; at most one worker
//!   drains a given session's queue at a time, which preserves the
//!   per-session serialization the legacy mutex gave while freeing the
//!   pool to serve other sessions concurrently.
//!
//! The batching rule: when the head of a session queue is a *read-only*
//! frame (every effective line a `?` query — see
//! [`ScriptSession::frame_is_read_only`]), the worker takes the longest
//! prefix of consecutive read-only frames as **one batch** and answers
//! them all under one acquisition of the session lock through one
//! [`ReadBatch`], a view of the solver's read memo: the state's
//! well-founded evaluation runs at most once, whichever connection or
//! batch reads first. A mutating frame at the head is taken alone — the
//! FIFO order makes it an *epoch barrier*: reads queued before it were
//! batched and answered first, reads queued after it wait for the new
//! epoch. Per-query answers are byte-identical to the sequential path
//! (the sequential path literally runs the batched formatter with a
//! batch of one).
//!
//! Batches are observable: each records the `tiebreak_batch_size`
//! histogram, bumps `tiebreak_batches_dispatched`, and opens a
//! `server/batch` span that parents the per-frame request spans.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use tiebreak_runtime::ReadBatch;

use crate::reactor::Notifier;
use crate::registry::{SessionEntry, SessionRegistry};
use crate::script::ScriptSession;
use crate::server::{cap_response, frame_reply, handle_request, Next};

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

/// One queued `script` frame against an open session.
struct ScriptJob {
    conn: u64,
    session: Arc<Mutex<ConnState>>,
    payload: Vec<u8>,
    read_only: bool,
}

/// FIFO of a session's pending script frames. `running` guarantees a
/// single worker drains it (per-session serialization).
struct SessionQueue {
    entry: Arc<SessionEntry>,
    jobs: VecDeque<ScriptJob>,
    running: bool,
}

enum WorkItem {
    Free {
        conn: u64,
        session: Arc<Mutex<ConnState>>,
        payload: Vec<u8>,
    },
    /// The session queue under this key became runnable.
    Session(usize),
}

struct Shared {
    registry: Arc<SessionRegistry>,
    notifier: Arc<Notifier>,
    /// The frame cap every response is held to ([`cap_response`]).
    max_frame: u32,
    work: Mutex<VecDeque<WorkItem>>,
    available: Condvar,
    /// Session queues keyed by entry identity (`Arc` pointer), not
    /// registry key: two entries for the same program+database (one
    /// evicted, one re-prepared) must never share a queue.
    sessions: Mutex<HashMap<usize, SessionQueue>>,
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
            let (verb_line, body) = text.split_once('\n').unwrap_or((text, ""));
            let verb = verb_line.trim_end_matches('\r').split_whitespace().next();
            if verb != Some("script") {
                return None;
            }
            let state = session.lock().unwrap_or_else(PoisonError::into_inner);
            state
                .entry
                .as_ref()
                .map(|entry| (Arc::clone(entry), ScriptSession::frame_is_read_only(body)))
        });
        match script_target {
            Some((entry, read_only)) => {
                let key = Arc::as_ptr(&entry) as usize;
                let job = ScriptJob {
                    conn,
                    session: Arc::clone(session),
                    payload,
                    read_only,
                };
                let runnable = {
                    let mut sessions = self
                        .shared
                        .sessions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    let q = sessions.entry(key).or_insert_with(|| SessionQueue {
                        entry,
                        jobs: VecDeque::new(),
                        running: false,
                    });
                    q.jobs.push_back(job);
                    if q.running {
                        false
                    } else {
                        q.running = true;
                        true
                    }
                };
                if runnable {
                    self.push_work(WorkItem::Session(key));
                }
            }
            None => self.push_work(WorkItem::Free {
                conn,
                session: Arc::clone(session),
                payload,
            }),
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

fn complete(shared: &Shared, mut completion: Completion) {
    cap_response(&mut completion.response, shared.max_frame);
    shared
        .completions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(completion);
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
            WorkItem::Free {
                conn,
                session,
                payload,
            } => {
                let mut response = Vec::new();
                let next = {
                    let mut state = session.lock().unwrap_or_else(PoisonError::into_inner);
                    let ConnState { entry, lineno } = &mut *state;
                    handle_request(&payload, &shared.registry, entry, lineno, &mut response)
                };
                complete(
                    shared,
                    Completion {
                        conn,
                        response,
                        next,
                    },
                );
            }
            WorkItem::Session(key) => drain_session_queue(shared, key),
        }
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Drains one session's queue, batch by batch, until it is empty.
fn drain_session_queue(shared: &Arc<Shared>, key: usize) {
    loop {
        let (entry, batch) = {
            let mut sessions = shared
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(q) = sessions.get_mut(&key) else {
                return;
            };
            if q.jobs.is_empty() || shared.stopping.load(Ordering::SeqCst) {
                // Done (or shutting down, dropping what's queued). The
                // queue object goes away; a later submit re-creates it.
                sessions.remove(&key);
                return;
            }
            let mut batch = Vec::new();
            if q.jobs.front().is_some_and(|j| j.read_only) {
                // The longest prefix of consecutive read-only frames
                // shares one evaluation. A mutating frame behind them
                // stays queued: it is the epoch barrier that the batch
                // drains ahead of.
                while q.jobs.front().is_some_and(|j| j.read_only) {
                    batch.push(q.jobs.pop_front().expect("checked front"));
                }
            } else {
                batch.push(q.jobs.pop_front().expect("checked non-empty"));
            }
            (Arc::clone(&q.entry), batch)
        };
        if batch[0].read_only {
            execute_read_batch(shared, &entry, batch);
        } else {
            // The barrier: one mutating frame, executed exactly like
            // the legacy transport would (same handler, same locking).
            let job = batch.into_iter().next().expect("batch of one");
            let mut response = Vec::new();
            let next = {
                let mut state = job.session.lock().unwrap_or_else(PoisonError::into_inner);
                let ConnState { entry, lineno } = &mut *state;
                handle_request(&job.payload, &shared.registry, entry, lineno, &mut response)
            };
            complete(
                shared,
                Completion {
                    conn: job.conn,
                    response,
                    next,
                },
            );
        }
    }
}

/// Answers a batch of read-only frames from the session's read memo,
/// fanning per-frame responses back to their connections.
fn execute_read_batch(shared: &Shared, entry: &Arc<SessionEntry>, jobs: Vec<ScriptJob>) {
    let m = tiebreak_trace::metrics();
    m.batches_dispatched.inc();
    m.batch_size.record(jobs.len() as u64);
    let vi = tiebreak_trace::metrics::verb_index("script");
    let batch_span = tiebreak_trace::span("server", "batch", &[("frames", jobs.len() as u64)]);
    let session = entry.lock();
    let mut batch = ReadBatch::new();
    for job in jobs {
        m.requests.inc();
        let started = std::time::Instant::now();
        let span = tiebreak_trace::span("server", tiebreak_trace::metrics::VERBS[vi], &[]);
        let body = std::str::from_utf8(&job.payload)
            .ok()
            .and_then(|text| text.split_once('\n').map(|(_, b)| b))
            .unwrap_or("");
        let mut response = Vec::new();
        {
            let mut state = job.session.lock().unwrap_or_else(PoisonError::into_inner);
            frame_reply(&mut response, |out| {
                session.process_read_frame(&mut state.lineno, body, &mut batch, out)
            });
        }
        drop(span);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        m.request_latency_us[vi].record(elapsed_us);
        complete(
            shared,
            Completion {
                conn: job.conn,
                response,
                next: Next::Continue,
            },
        );
    }
    drop(session);
    drop(batch_span);
    tiebreak_trace::flush();
}
