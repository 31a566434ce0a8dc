//! Structured tracing and metrics for the tie-breaking Datalog engine.
//!
//! The workspace pipeline — parse → analyze → ground → close → condense →
//! component pass, wrapped by the session runtime and the serving tier —
//! is a staged dataflow, and this crate is its cross-cutting
//! observability layer. It is deliberately **zero-dependency** (the build
//! image has no registry access) and split into three pieces:
//!
//! - [`mod@span`]: a span recorder that is lock-free on the hot path.
//!   Every thread appends [`TraceEvent`]s to a **thread-local ring
//!   buffer**; buffers are drained into a global sink at phase barriers
//!   ([`flush`]) or automatically when the thread exits. Events carry a
//!   globally unique sequence stamp, a span id, and a parent id, so a
//!   drained trace reconstructs the full causal tree of a query across
//!   worker threads.
//! - [`mod@metrics`]: a fixed-allocation registry of named counters, gauges
//!   and log-linear histograms ([`Metrics`]), always on, updated only at
//!   coarse phase boundaries (per close run, per branch, per request —
//!   never per atom), snapshotted into plain data and rendered as
//!   Prometheus-style text exposition for the server's `metrics` verb.
//! - [`export`]: `chrome://tracing`-compatible Trace Event JSON
//!   ([`Trace::to_chrome_json`]), a human summary table, a
//!   well-formedness checker used by the determinism suite, and a
//!   hand-rolled validator ([`validate_trace_json`]) backing the
//!   `trace_check` CI binary.
//!
//! # Disabled-mode cost
//!
//! Tracing is off by default. [`span()`] and [`instant`] check a single
//! `AtomicU8` with a relaxed load and branch to a no-op guard when the
//! flag is clear — no thread-local touch, no clock read, no allocation.
//! `bench_trajectory` measures that cost directly (`trace_span_disabled`
//! entry) and gates the end-to-end overhead on the braided chain workload
//! at ≤ 2% against the rolling baseline.

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{validate_trace_json, Trace, TraceCheck};
pub use metrics::{metrics, Counter, Gauge, Histogram, Metrics, MetricsSnapshot};
pub use span::{
    child_span, drain, flush, instant, instant_under, span, SpanGuard, TraceEvent, TraceEventKind,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// The master switch. A single relaxed load of this atomic is the entire
/// disabled-mode cost of every instrumentation point.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Is span recording currently enabled?
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Turns span recording on or off process-wide. Metrics counters are
/// unaffected — they are always on (and always cheap, being updated only
/// at phase boundaries).
pub fn set_enabled(on: bool) {
    ENABLED.store(u8::from(on), Ordering::SeqCst);
}
