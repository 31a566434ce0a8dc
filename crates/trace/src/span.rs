//! The span recorder: thread-local ring buffers, sequence-stamped
//! events, RAII span guards with parent–child linkage.
//!
//! Recording is lock-free on the hot path: a thread only ever touches
//! its own ring buffer plus three global atomic counters (sequence
//! stamp, span id, thread ordinal). The sole lock is the global sink
//! mutex, taken at **phase barriers** — an explicit [`flush`] at the end
//! of a scheduler worker or a server request, or the implicit flush when
//! a thread's TLS is torn down (which covers `std::thread::scope`
//! workers). [`drain`] flushes the calling thread and takes the sink,
//! returning events sorted by sequence stamp.
//!
//! Parent linkage: each thread keeps a stack of open span ids; a new
//! span parents to the top of the stack. Work handed to another thread
//! crosses the TLS boundary with an explicit id — capture
//! [`SpanGuard::id`] and open the remote side with [`child_span`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::metrics;

/// Max key/value args carried per event, fixed so events stay `Copy`-ish
/// cheap and the ring buffer allocation is bounded.
pub const MAX_ARGS: usize = 4;

/// Per-thread ring capacity. A full ring drops the **oldest** events
/// (keeping the newest window) and counts the loss in
/// `trace_events_dropped`; flushing at phase barriers keeps rings far
/// from full in practice.
const RING_CAPACITY: usize = 1 << 16;

/// What a recorded event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A closed span: `ts_ns..ts_ns + dur_ns`.
    Span,
    /// A point event.
    Instant,
}

/// One recorded event. `id` is nonzero and unique for spans, zero for
/// instants; `parent` is zero for roots.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub kind: TraceEventKind,
    /// Subsystem category (`"ground"`, `"eval"`, `"server"`, ...).
    pub cat: &'static str,
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    /// Global sequence stamp: a total order across threads.
    pub seq: u64,
    /// Start time, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; zero for instants.
    pub dur_ns: u64,
    /// Small dense thread ordinal (not the OS thread id).
    pub tid: u64,
    args_len: u8,
    args: [(&'static str, u64); MAX_ARGS],
}

impl TraceEvent {
    /// The key/value annotations attached to this event.
    #[must_use]
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..usize::from(self.args_len)]
    }

    /// Looks up one annotation by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Global monotone counters: event sequence stamps, span ids (0 is the
/// "no parent" sentinel, so ids start at 1), and thread ordinals.
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// All timestamps are relative to this lazily-anchored epoch, so traces
/// from different threads share one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The global sink thread buffers drain into at phase barriers.
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

struct ThreadBuf {
    ring: VecDeque<TraceEvent>,
    /// Stack of open span ids on this thread — the implicit parent.
    stack: Vec<u64>,
    tid: u64,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            ring: VecDeque::new(),
            stack: Vec::new(),
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.ring.len() >= RING_CAPACITY {
            self.ring.pop_front();
            metrics().trace_events_dropped.inc();
        }
        self.ring.push_back(event);
    }

    fn flush_into_sink(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        let mut sink = SINK.lock().expect("trace sink lock");
        sink.extend(self.ring.drain(..));
    }
}

impl Drop for ThreadBuf {
    // TLS teardown is the implicit phase barrier for scoped worker
    // threads: whatever they recorded lands in the sink on exit.
    fn drop(&mut self) {
        self.flush_into_sink();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

fn clamp_args(args: &[(&'static str, u64)]) -> (u8, [(&'static str, u64); MAX_ARGS]) {
    let mut fixed = [("", 0u64); MAX_ARGS];
    let len = args.len().min(MAX_ARGS);
    fixed[..len].copy_from_slice(&args[..len]);
    (len as u8, fixed)
}

/// An RAII guard for an open span; the span event is recorded (with its
/// measured duration) when the guard drops. A disabled-mode guard is a
/// no-op with id 0.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    tid: u64,
    args_len: u8,
    args: [(&'static str, u64); MAX_ARGS],
}

impl SpanGuard {
    const fn disabled() -> Self {
        SpanGuard {
            id: 0,
            parent: 0,
            cat: "",
            name: "",
            start_ns: 0,
            tid: 0,
            args_len: 0,
            args: [("", 0); MAX_ARGS],
        }
    }

    fn start(
        cat: &'static str,
        name: &'static str,
        explicit_parent: Option<u64>,
        args: &[(&'static str, u64)],
    ) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (args_len, args) = clamp_args(args);
        let (parent, tid) = BUF.with(|b| {
            let mut b = b.borrow_mut();
            let parent = explicit_parent.unwrap_or_else(|| b.stack.last().copied().unwrap_or(0));
            b.stack.push(id);
            (parent, b.tid)
        });
        SpanGuard {
            id,
            parent,
            cat,
            name,
            start_ns: now_ns(),
            tid,
            args_len,
            args,
        }
    }

    /// The span id, for parenting work handed to another thread via
    /// [`child_span`]. Zero when tracing is disabled.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches one more key/value annotation (silently dropped past
    /// [`MAX_ARGS`], or when the guard is disabled).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        let len = usize::from(self.args_len);
        if self.id != 0 && len < MAX_ARGS {
            self.args[len] = (key, value);
            self.args_len += 1;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let event = TraceEvent {
            kind: TraceEventKind::Span,
            cat: self.cat,
            name: self.name,
            id: self.id,
            parent: self.parent,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns: self.start_ns,
            dur_ns,
            tid: self.tid,
            args_len: self.args_len,
            args: self.args,
        };
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Guards drop in LIFO order on one thread, so the top of the
            // stack is ours; tolerate out-of-order drops defensively.
            match b.stack.last() {
                Some(&top) if top == self.id => {
                    b.stack.pop();
                }
                _ => b.stack.retain(|&sid| sid != self.id),
            }
            b.push(event);
        });
    }
}

/// Opens a span parented to the innermost open span on this thread.
/// Disabled-mode cost: one relaxed atomic load and a branch.
#[inline]
pub fn span(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::start(cat, name, None, args)
}

/// Opens a span under an explicit parent id — the cross-thread edge
/// (scheduler workers parent to the evaluation span of the submitting
/// thread). `parent` 0 makes a root.
#[inline]
pub fn child_span(
    cat: &'static str,
    name: &'static str,
    parent: u64,
    args: &[(&'static str, u64)],
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::start(cat, name, Some(parent), args)
}

/// Records a point event parented to the innermost open span.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    if !crate::enabled() {
        return;
    }
    record_instant(cat, name, None, args);
}

/// Records a point event under an explicit parent id.
#[inline]
pub fn instant_under(
    cat: &'static str,
    name: &'static str,
    parent: u64,
    args: &[(&'static str, u64)],
) {
    if !crate::enabled() {
        return;
    }
    record_instant(cat, name, Some(parent), args);
}

fn record_instant(
    cat: &'static str,
    name: &'static str,
    explicit_parent: Option<u64>,
    args: &[(&'static str, u64)],
) {
    let (args_len, args) = clamp_args(args);
    let ts_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = explicit_parent.unwrap_or_else(|| b.stack.last().copied().unwrap_or(0));
        let tid = b.tid;
        b.push(TraceEvent {
            kind: TraceEventKind::Instant,
            cat,
            name,
            id: 0,
            parent,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns,
            dur_ns: 0,
            tid,
            args_len,
            args,
        });
    });
}

/// Drains this thread's ring buffer into the global sink. Call at phase
/// barriers (end of a worker closure, end of a server request). Cheap
/// when the buffer is empty.
pub fn flush() {
    BUF.with(|b| b.borrow_mut().flush_into_sink());
}

/// Flushes the calling thread, then takes every event accumulated in
/// the sink, sorted by sequence stamp. Events still sitting in *other*
/// live threads' buffers are not included — flush those threads first
/// (scheduler workers flush on exit).
#[must_use]
pub fn drain() -> Vec<TraceEvent> {
    flush();
    let mut events = std::mem::take(&mut *SINK.lock().expect("trace sink lock"));
    events.sort_by_key(|e| e.seq);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;
    use std::sync::MutexGuard;

    /// Recording is process-global, so tests serialize on this lock and
    /// start from a drained sink.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        let _ = drain();
        guard
    }

    #[test]
    fn disabled_span_is_noop() {
        let _x = exclusive();
        set_enabled(false);
        let g = span("t", "nothing", &[("k", 1)]);
        assert_eq!(g.id(), 0);
        drop(g);
        instant("t", "nope", &[]);
        set_enabled(true);
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_links_parents() {
        let _x = exclusive();
        let outer = span("t", "outer", &[]);
        let outer_id = outer.id();
        {
            let inner = span("t", "inner", &[("n", 7)]);
            assert_ne!(inner.id(), 0);
            instant("t", "tick", &[]);
        }
        drop(outer);
        let events = drain();
        assert_eq!(events.len(), 3);
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        let tick = events.iter().find(|e| e.name == "tick").expect("tick");
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        assert_eq!(inner.parent, outer_id);
        assert_eq!(tick.parent, inner.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.arg("n"), Some(7));
        // Sequence stamps are drop-ordered: inner closes before outer.
        assert!(inner.seq < outer.seq);
    }

    #[test]
    fn cross_thread_child_span_flushes_on_exit() {
        let _x = exclusive();
        let root = span("t", "root", &[]);
        let root_id = root.id();
        // A plain `spawn` + `join`, not a scoped thread: `join` returns
        // only after the thread has exited, thread-local destructors (the
        // exit flush under test) included, while a scope's join may
        // return as soon as the closure is done.
        std::thread::spawn(move || {
            let _w = child_span("t", "worker", root_id, &[]);
        })
        .join()
        .expect("worker thread");
        drop(root);
        let events = drain();
        let worker = events.iter().find(|e| e.name == "worker").expect("worker");
        let root = events.iter().find(|e| e.name == "root").expect("root");
        assert_eq!(worker.parent, root.id);
        assert_ne!(worker.tid, root.tid);
    }

    #[test]
    fn args_clamp_at_capacity() {
        let _x = exclusive();
        let mut g = span("t", "many", &[("a", 1), ("b", 2), ("c", 3), ("d", 4)]);
        g.arg("e", 5);
        drop(g);
        let events = drain();
        assert_eq!(events[0].args().len(), MAX_ARGS);
        assert_eq!(events[0].arg("e"), None);
    }
}
