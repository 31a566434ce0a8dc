//! The metrics registry: fixed-allocation named counters, gauges and
//! log-linear histograms over atomics.
//!
//! Unlike spans, metrics are **always on**: every cell is a plain
//! `AtomicU64` updated with relaxed ordering, and every instrumentation
//! point sits at a coarse phase boundary (per close run, per evaluation, per
//! server request — never per atom), so there is no hot-loop contention
//! to gate. [`Metrics::snapshot`] captures a point-in-time copy as plain
//! data; [`MetricsSnapshot::render_prometheus`] renders the Prometheus
//! text exposition served by the server's `metrics` verb.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.set(0);
    }
}

/// Bucket count for [`Histogram`]: log-linear with 4 linear sub-buckets
/// per power of two covers the full `u64` range in 252 buckets; 256
/// keeps the array a round fixed allocation (2 KiB of atomics).
pub const HISTOGRAM_BUCKETS: usize = 256;

/// A log-linear histogram over `u64` samples (we record microseconds
/// for latencies and plain counts for widths/depths). Fixed allocation,
/// relaxed atomics, no locking.
///
/// Bucketing: values 0–3 get exact buckets; a value with most
/// significant bit `m ≥ 2` lands in one of 4 linear sub-buckets of
/// `[2^m, 2^(m+1))`, giving a worst-case relative error of 25%.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index for a sample.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value < 4 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 2)) & 0b11) as usize;
        (4 * (msb - 1) + sub).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of a bucket, for `le` labels and the
    /// summary table.
    #[must_use]
    pub fn bucket_upper(index: usize) -> u64 {
        if index < 4 {
            return index as u64;
        }
        let msb = (index / 4 + 1) as u32;
        let sub = (index % 4) as u128;
        let upper = (1u128 << msb) + (sub + 1) * (1u128 << (msb - 2)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((Self::bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count: self.count(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram: only the non-empty buckets,
/// as `(inclusive upper bound, count)` pairs in increasing bound order.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    pub buckets: Vec<(u64, u64)>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The request verbs the server tracks latency for, in wire order.
pub const VERBS: [&str; 6] = ["open", "script", "stats", "metrics", "ping", "control"];

/// Index into [`VERBS`] / the per-verb latency histograms for a wire
/// verb; `bye`/`shutdown`/unknown fold into `control`.
#[must_use]
pub fn verb_index(verb: &str) -> usize {
    VERBS
        .iter()
        .position(|v| *v == verb)
        .unwrap_or(VERBS.len() - 1)
}

/// The process-wide registry. Every field is a named instrument; the
/// whole struct is one static fixed allocation.
#[derive(Debug)]
pub struct Metrics {
    // Grounding.
    pub ground_runs: Counter,
    pub ground_instances: Counter,
    pub ground_atoms: Counter,
    // close(M₀, G).
    pub close_runs: Counter,
    pub close_events: Counter,
    pub cones_reopened: Counter,
    pub cones_patched: Counter,
    // Condensation + component pass.
    pub condense_runs: Counter,
    pub components_processed: Counter,
    // Session runtime.
    pub evaluations: Counter,
    /// Writes that advanced a session's served well-founded state over
    /// the mutation's cone instead of dropping it.
    pub wf_advances: Counter,
    pub outcome_scripts: Counter,
    /// Reads answered from a session's read memo / reads that filled it.
    pub read_memo_hits: Counter,
    pub read_memo_misses: Counter,
    // Serving tier.
    pub registry_hits: Counter,
    pub registry_misses: Counter,
    pub registry_evictions: Counter,
    pub registry_rejected: Counter,
    pub sessions_resident: Gauge,
    pub resident_atoms: Gauge,
    /// The process-global symbol interner: distinct names and the bytes
    /// of their leaked texts. The interner never frees a name.
    pub interned_symbols: Gauge,
    pub interned_bytes: Gauge,
    pub requests: Counter,
    pub request_errors: Counter,
    /// Per-verb request latency in microseconds, indexed by
    /// [`verb_index`].
    pub request_latency_us: [Histogram; VERBS.len()],
    // Reactor.
    pub conns_open: Gauge,
    pub conns_reaped: Counter,
    /// Failed accepts other than `WouldBlock`/`Interrupted` (typically
    /// the process out of file descriptors); each pauses the listener.
    pub accept_errors: Counter,
    // The recorder's own health.
    pub trace_events_dropped: Counter,
}

impl Metrics {
    const fn new() -> Self {
        Metrics {
            ground_runs: Counter::new(),
            ground_instances: Counter::new(),
            ground_atoms: Counter::new(),
            close_runs: Counter::new(),
            close_events: Counter::new(),
            cones_reopened: Counter::new(),
            cones_patched: Counter::new(),
            condense_runs: Counter::new(),
            components_processed: Counter::new(),
            evaluations: Counter::new(),
            wf_advances: Counter::new(),
            outcome_scripts: Counter::new(),
            read_memo_hits: Counter::new(),
            read_memo_misses: Counter::new(),
            registry_hits: Counter::new(),
            registry_misses: Counter::new(),
            registry_evictions: Counter::new(),
            registry_rejected: Counter::new(),
            sessions_resident: Gauge::new(),
            resident_atoms: Gauge::new(),
            interned_symbols: Gauge::new(),
            interned_bytes: Gauge::new(),
            requests: Counter::new(),
            request_errors: Counter::new(),
            request_latency_us: [const { Histogram::new() }; VERBS.len()],
            conns_open: Gauge::new(),
            conns_reaped: Counter::new(),
            accept_errors: Counter::new(),
            trace_events_dropped: Counter::new(),
        }
    }

    /// Captures every instrument as plain data.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters()
                .iter()
                .map(|(name, c)| (*name, c.get()))
                .collect(),
            gauges: self
                .gauges()
                .iter()
                .map(|(name, g)| (*name, g.get()))
                .collect(),
            histograms: self
                .histograms()
                .iter()
                .map(|(name, label, h)| (*name, *label, h.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every instrument — for benches and tests that measure
    /// deltas from a clean slate.
    pub fn reset(&self) {
        for (_, c) in self.counters() {
            c.reset();
        }
        for (_, g) in self.gauges() {
            g.reset();
        }
        for (_, _, h) in self.histograms() {
            h.reset();
        }
    }

    fn counters(&self) -> Vec<(&'static str, &Counter)> {
        vec![
            ("ground_runs", &self.ground_runs),
            ("ground_instances", &self.ground_instances),
            ("ground_atoms", &self.ground_atoms),
            ("close_runs", &self.close_runs),
            ("close_events", &self.close_events),
            ("cones_reopened", &self.cones_reopened),
            ("cones_patched", &self.cones_patched),
            ("condense_runs", &self.condense_runs),
            ("components_processed", &self.components_processed),
            ("evaluations", &self.evaluations),
            ("wf_advances", &self.wf_advances),
            ("outcome_scripts", &self.outcome_scripts),
            ("read_memo_hits", &self.read_memo_hits),
            ("read_memo_misses", &self.read_memo_misses),
            ("registry_hits", &self.registry_hits),
            ("registry_misses", &self.registry_misses),
            ("registry_evictions", &self.registry_evictions),
            ("registry_rejected", &self.registry_rejected),
            ("requests", &self.requests),
            ("request_errors", &self.request_errors),
            ("conns_reaped", &self.conns_reaped),
            ("accept_errors", &self.accept_errors),
            ("trace_events_dropped", &self.trace_events_dropped),
        ]
    }

    fn gauges(&self) -> Vec<(&'static str, &Gauge)> {
        vec![
            ("sessions_resident", &self.sessions_resident),
            ("resident_atoms", &self.resident_atoms),
            ("interned_symbols", &self.interned_symbols),
            ("interned_bytes", &self.interned_bytes),
            ("conns_open", &self.conns_open),
        ]
    }

    /// `(metric name, optional label value, histogram)` — per-verb
    /// latency histograms share one metric name with a `verb` label.
    fn histograms(&self) -> Vec<(&'static str, Option<&'static str>, &Histogram)> {
        VERBS
            .iter()
            .zip(&self.request_latency_us)
            .map(|(verb, h)| ("request_latency_us", Some(*verb), h))
            .collect()
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide metrics registry.
#[must_use]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// A point-in-time copy of the whole registry, as plain data.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub histograms: Vec<(&'static str, Option<&'static str>, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up one counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Prometheus text exposition: `# TYPE` headers, `tiebreak_`-prefixed
    /// families, counters with `_total`, histograms with cumulative
    /// `_bucket{le=...}` plus `_sum`/`_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "# TYPE tiebreak_{name}_total counter\ntiebreak_{name}_total {value}\n"
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "# TYPE tiebreak_{name} gauge\ntiebreak_{name} {value}\n"
            ));
        }
        let mut last_family = "";
        for (name, label, h) in &self.histograms {
            if *name != last_family {
                out.push_str(&format!("# TYPE tiebreak_{name} histogram\n"));
                last_family = name;
            }
            let tag = |le: &str| match label {
                Some(v) => format!("{{verb=\"{v}\",le=\"{le}\"}}"),
                None => format!("{{le=\"{le}\"}}"),
            };
            let mut cumulative = 0u64;
            for (upper, count) in &h.buckets {
                cumulative += count;
                let sel = tag(&upper.to_string());
                out.push_str(&format!("tiebreak_{name}_bucket{sel} {cumulative}\n"));
            }
            let sel = tag("+Inf");
            out.push_str(&format!("tiebreak_{name}_bucket{sel} {cumulative}\n"));
            let plain = match label {
                Some(v) => format!("{{verb=\"{v}\"}}"),
                None => String::new(),
            };
            out.push_str(&format!("tiebreak_{name}_sum{plain} {}\n", h.sum));
            out.push_str(&format!("tiebreak_{name}_count{plain} {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_range() {
        // Every value maps into exactly the bucket whose bounds hold it.
        for v in (0u64..2048).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper(i), "v={v} i={i}");
            if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                assert!(v > Histogram::bucket_upper(i - 1), "v={v} i={i}");
            }
        }
        // Bounds are strictly increasing until they saturate at u64::MAX
        // (the top few of the 256 slots are unreachable padding).
        for i in 1..HISTOGRAM_BUCKETS {
            if Histogram::bucket_upper(i) < u64::MAX {
                assert!(Histogram::bucket_upper(i) > Histogram::bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.iter().map(|(_, n)| n).sum::<u64>(), 5);
        let five = snap
            .buckets
            .iter()
            .find(|(upper, _)| *upper == Histogram::bucket_upper(Histogram::bucket_index(5)));
        assert_eq!(five.map(|(_, n)| *n), Some(2));
        assert!((snap.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn verb_index_folds_unknowns_into_control() {
        assert_eq!(verb_index("open"), 0);
        assert_eq!(verb_index("metrics"), 3);
        assert_eq!(verb_index("bye"), VERBS.len() - 1);
        assert_eq!(verb_index("nonsense"), VERBS.len() - 1);
    }

    #[test]
    fn prometheus_rendering_is_parseable_shape() {
        let m = Metrics::new();
        m.ground_instances.add(42);
        m.sessions_resident.set(3);
        m.request_latency_us[verb_index("open")].record(1500);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# TYPE tiebreak_ground_instances_total counter"));
        assert!(text.contains("tiebreak_ground_instances_total 42"));
        assert!(text.contains("tiebreak_sessions_resident 3"));
        assert!(text.contains("verb=\"open\""));
        assert!(text.contains("le=\"+Inf\""));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn snapshot_reads_registry_counters() {
        // The global registry is shared across tests; assert deltas.
        let before = metrics().snapshot().counter("close_runs");
        metrics().close_runs.add(2);
        let after = metrics().snapshot().counter("close_runs");
        assert!(after >= before + 2);
    }
}
