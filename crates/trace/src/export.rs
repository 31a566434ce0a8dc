//! Trace exposition: Chrome Trace Event JSON, a human summary table,
//! structural well-formedness checks, and a standalone JSON validator.
//!
//! The JSON export follows the Trace Event Format (the `chrome://tracing`
//! / Perfetto interchange format): an object `{"traceEvents": [...]}`
//! whose elements are complete events (`"ph":"X"`, with `dur`) and
//! instant events (`"ph":"i"`). Span/parent ids travel in `args` —
//! `args.id` and `args.parent` — which the validator uses to re-check
//! linkage from the serialized form, so the CI smoke job exercises the
//! same invariants as the in-process determinism suite. The count of
//! events the thread rings dropped while recording travels in
//! `otherData.trace_events_dropped`, so a reader of the file knows
//! whether it is complete.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::span::{TraceEvent, TraceEventKind};

/// A drained trace, ready for export or inspection.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    /// Events lost to full thread rings while these were recorded.
    pub dropped: u64,
}

impl Trace {
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Trace { events, dropped: 0 }
    }

    /// Structural invariants every drained trace must satisfy: span ids
    /// unique and allocated before their children (so parent links can
    /// never form a cycle), every parent resolving to a recorded span or
    /// the root sentinel 0, and sequence stamps unique.
    pub fn well_formed(&self) -> Result<(), String> {
        let mut ids = HashSet::new();
        let mut seqs = HashSet::new();
        for e in &self.events {
            if !seqs.insert(e.seq) {
                return Err(format!("duplicate sequence stamp {}", e.seq));
            }
            if e.kind == TraceEventKind::Span {
                if e.id == 0 {
                    return Err(format!("span {:?} has the null id", e.name));
                }
                if !ids.insert(e.id) {
                    return Err(format!("duplicate span id {}", e.id));
                }
                if e.parent >= e.id {
                    return Err(format!(
                        "span {} ({:?}) parented to later id {}",
                        e.id, e.name, e.parent
                    ));
                }
            }
        }
        for e in &self.events {
            if e.parent != 0 && !ids.contains(&e.parent) {
                return Err(format!(
                    "event {:?} references unknown parent {}",
                    e.name, e.parent
                ));
            }
        }
        Ok(())
    }

    /// Serializes to Trace Event JSON. Open the result in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ph, dur) = match e.kind {
                TraceEventKind::Span => ("X", true),
                TraceEventKind::Instant => ("i", false),
            };
            write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                json_string(e.name),
                json_string(e.cat),
                micros(e.ts_ns),
                e.tid
            )
            .expect("write to String");
            if dur {
                write!(out, ",\"dur\":{}", micros(e.dur_ns)).expect("write to String");
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            write!(
                out,
                ",\"args\":{{\"id\":{},\"parent\":{},\"seq\":{}",
                e.id, e.parent, e.seq
            )
            .expect("write to String");
            for (k, v) in e.args() {
                write!(out, ",{}:{v}", json_string(k)).expect("write to String");
            }
            out.push_str("}}");
        }
        write!(
            out,
            "],\"otherData\":{{\"trace_events_dropped\":{}}}}}",
            self.dropped
        )
        .expect("write to String");
        out
    }

    /// A fixed-width per-(category, name) aggregation, sorted by total
    /// time — the `--trace summary` table. Per row: count, total and
    /// self time, mean, p50, p99 (nearest rank) and max duration. A
    /// span's self time is its duration minus the part of it covered by
    /// its child spans; children running in parallel on other threads
    /// cover their union, not their sum.
    #[must_use]
    pub fn summary(&self) -> String {
        struct Row {
            cat: &'static str,
            name: &'static str,
            total_ns: u64,
            self_ns: u64,
            durations: Vec<u64>,
        }
        let self_ns = self.self_times();
        let mut rows: Vec<Row> = Vec::new();
        let mut row_of: HashMap<(&str, &str), usize> = HashMap::new();
        for (e, own) in self.events.iter().zip(self_ns) {
            let r = *row_of.entry((e.cat, e.name)).or_insert_with(|| {
                rows.push(Row {
                    cat: e.cat,
                    name: e.name,
                    total_ns: 0,
                    self_ns: 0,
                    durations: Vec::new(),
                });
                rows.len() - 1
            });
            let row = &mut rows[r];
            row.total_ns += e.dur_ns;
            row.self_ns += own;
            row.durations.push(e.dur_ns);
        }
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "cat", "name", "count", "total_ms", "self_ms", "mean_us", "p50_us", "p99_us", "max_us"
        );
        let us = |ns: u64| ns as f64 / 1000.0;
        for r in &mut rows {
            r.durations.sort_unstable();
            let count = r.durations.len();
            let rank = |p: usize| r.durations[(count * p).div_ceil(100).max(1) - 1];
            let _ = writeln!(
                out,
                "{:<10} {:<22} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                r.cat,
                r.name,
                count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                us(r.total_ns) / count as f64,
                us(rank(50)),
                us(rank(99)),
                us(r.durations[count - 1]),
            );
        }
        let _ = writeln!(out, "{} events total", self.events.len());
        out
    }

    /// Each event's self time, in event order: its duration minus the
    /// union of its child spans' intervals clipped to its own.
    fn self_times(&self) -> Vec<u64> {
        let index: HashMap<u64, usize> = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == TraceEventKind::Span)
            .map(|(i, e)| (e.id, i))
            .collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.events.len()];
        for e in &self.events {
            if e.kind != TraceEventKind::Span {
                continue;
            }
            if let Some(&p) = index.get(&e.parent) {
                children[p].push((e.ts_ns, e.ts_ns + e.dur_ns));
            }
        }
        self.events
            .iter()
            .zip(&mut children)
            .map(|(e, spans)| {
                let (start, end) = (e.ts_ns, e.ts_ns + e.dur_ns);
                spans.sort_unstable();
                let (mut covered, mut reach) = (0, start);
                for &(s, t) in spans.iter() {
                    let (s, t) = (s.max(reach), t.min(end));
                    if t > s {
                        covered += t - s;
                        reach = t;
                    }
                }
                e.dur_ns - covered
            })
            .collect()
    }
}

/// Nanoseconds rendered as Trace-Event microseconds with three decimal
/// places (the format's `ts`/`dur` unit).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What [`validate_trace_json`] verified about a serialized trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    pub events: usize,
    pub spans: usize,
    pub instants: usize,
    /// `otherData.trace_events_dropped`, when the file records it.
    pub dropped: Option<u64>,
}

/// Validates serialized Trace Event JSON against the schema subset this
/// crate emits: a top-level object with a `traceEvents` array (a bare
/// array is also accepted, as the format allows), every event carrying
/// `name`/`cat`/`ph`/`ts`/`pid`/`tid`, `"X"` events carrying a
/// non-negative `dur`, and `args.parent` links resolving to recorded
/// `args.id` spans. This is the checker behind the `trace_check` bin.
/// It also returns the dropped-event count of `otherData`, if present.
pub fn validate_trace_json(text: &str) -> Result<TraceCheck, String> {
    let value = Parser::new(text).parse()?;
    let mut check = TraceCheck::default();
    let events = match &value {
        Value::Array(items) => items,
        Value::Object(fields) => {
            let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if let Some(Value::Object(other)) = field("otherData") {
                check.dropped = other.iter().find_map(|(k, v)| match v {
                    Value::Number(n) if k == "trace_events_dropped" => Some(*n as u64),
                    _ => None,
                });
            }
            match field("traceEvents") {
                Some(Value::Array(items)) => items,
                Some(_) => return Err("traceEvents is not an array".into()),
                None => return Err("top-level object has no traceEvents".into()),
            }
        }
        _ => return Err("top level is neither object nor array".into()),
    };
    let mut span_ids = HashSet::new();
    let mut parents: Vec<(usize, u64)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let Value::Object(fields) = event else {
            return Err(format!("event {i} is not an object"));
        };
        let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let str_field = |k: &str| match field(k) {
            Some(Value::String(s)) => Ok(s.as_str()),
            _ => Err(format!("event {i} missing string field {k:?}")),
        };
        let num_field = |k: &str| match field(k) {
            Some(Value::Number(n)) => Ok(*n),
            _ => Err(format!("event {i} missing numeric field {k:?}")),
        };
        str_field("name")?;
        str_field("cat")?;
        num_field("ts")?;
        num_field("pid")?;
        num_field("tid")?;
        let ph = str_field("ph")?;
        match ph {
            "X" => {
                check.spans += 1;
                if num_field("dur")? < 0.0 {
                    return Err(format!("event {i} has negative dur"));
                }
            }
            "i" => check.instants += 1,
            "M" => {}
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
        if let Some(Value::Object(args)) = field("args") {
            let arg_num = |k: &str| {
                args.iter().find_map(|(n, v)| match v {
                    Value::Number(x) if n == k => Some(*x as u64),
                    _ => None,
                })
            };
            if ph == "X" {
                if let Some(id) = arg_num("id") {
                    if id == 0 || !span_ids.insert(id) {
                        return Err(format!("event {i} has invalid or duplicate span id {id}"));
                    }
                }
            }
            if let Some(parent) = arg_num("parent") {
                if parent != 0 {
                    parents.push((i, parent));
                }
            }
        }
        check.events += 1;
    }
    for (i, parent) in parents {
        if !span_ids.contains(&parent) {
            return Err(format!("event {i} references unknown parent span {parent}"));
        }
    }
    Ok(check)
}

/// The JSON values the validator needs — just enough of the grammar.
/// Booleans and nulls parse but fold into `Null`: validation never
/// inspects them.
enum Value {
    Null,
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A minimal recursive-descent JSON parser (the workspace vendors no
/// serde). Accepts exactly RFC 8259 documents over the constructs the
/// Trace Event format uses.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Null),
            Some(b'f') => self.literal("false", Value::Null),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through byte-wise; the
                    // input is a &str so it is already valid.
                    let len = match c {
                        _ if c < 0x80 => 1,
                        _ if c >= 0xf0 => 4,
                        _ if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;
    use crate::span::{child_span, drain, span};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let _ = drain();
        guard
    }

    fn sample_trace() -> Trace {
        let root = span("test", "root", &[("size", 3)]);
        let root_id = root.id();
        {
            let _child = span("test", "child", &[]);
            crate::span::instant("test", "tick", &[("pos", 1)]);
        }
        drop(child_span("test", "sibling", root_id, &[]));
        drop(root);
        Trace::from_events(drain())
    }

    #[test]
    fn roundtrip_validates() {
        let _x = exclusive();
        let trace = sample_trace();
        trace.well_formed().expect("well-formed");
        let json = trace.to_chrome_json();
        let check = validate_trace_json(&json).expect("valid JSON");
        assert_eq!(check.events, trace.events.len());
        assert_eq!(check.spans, 3);
        assert_eq!(check.instants, 1);
        assert_eq!(check.dropped, Some(0));
    }

    #[test]
    fn dropped_events_roundtrip() {
        let _x = exclusive();
        let mut trace = sample_trace();
        trace.dropped = 7;
        let json = trace.to_chrome_json();
        assert!(json.ends_with(r#""otherData":{"trace_events_dropped":7}}"#));
        let check = validate_trace_json(&json).expect("valid JSON");
        assert_eq!(check.dropped, Some(7));
        // A file without the field reads as "not recorded", not as 0.
        let bare = r#"{"traceEvents":[]}"#;
        assert_eq!(validate_trace_json(bare).unwrap().dropped, None);
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_trace_json("not json").is_err());
        assert!(validate_trace_json("{\"traceEvents\":3}").is_err());
        // Missing dur on an X event.
        let bad = r#"{"traceEvents":[{"name":"a","cat":"t","ph":"X","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_trace_json(bad).unwrap_err().contains("dur"));
        // Dangling parent reference.
        let dangling = r#"[{"name":"a","cat":"t","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,
            "args":{"id":1,"parent":99}}]"#;
        assert!(validate_trace_json(dangling)
            .unwrap_err()
            .contains("unknown parent"));
    }

    #[test]
    fn well_formed_rejects_forward_parents() {
        let _x = exclusive();
        let mut trace = sample_trace();
        // Re-point the root at a later id to simulate corruption.
        let later = trace.events.iter().map(|e| e.id).max().unwrap_or(0) + 1;
        for event in &mut trace.events {
            if event.parent == 0 {
                event.parent = later;
            }
        }
        assert!(trace.well_formed().is_err());
    }

    #[test]
    fn summary_aggregates_by_name() {
        let _x = exclusive();
        let trace = sample_trace();
        let table = trace.summary();
        assert!(table.contains("root"));
        assert!(table.contains("child"));
        assert!(table.lines().next().expect("header").contains("total_ms"));
        assert!(table.contains("events total"));
    }

    #[test]
    fn summary_reports_percentiles_and_self_time() {
        let _x = exclusive();
        let mut trace = sample_trace();
        let ms = 1_000_000;
        let mut root_id = 0;
        for e in &mut trace.events {
            // root 0–10 ms; child 1–5 ms and sibling 3–7 ms overlap, so
            // together they cover 6 ms of the root.
            let (ts, dur) = match e.name {
                "root" => (0, 10 * ms),
                "child" => (ms, 4 * ms),
                "sibling" => (3 * ms, 4 * ms),
                _ => (2 * ms, 0),
            };
            (e.ts_ns, e.dur_ns) = (ts, dur);
            if e.name == "root" {
                root_id = e.id;
            }
        }
        // Nine more roots of 1..=9 ms with no children: ten root
        // durations 1..=10 ms in all.
        let template = trace
            .events
            .iter()
            .find(|e| e.name == "root")
            .expect("root")
            .clone();
        for k in 1..10 {
            let mut extra = template.clone();
            extra.id = root_id + 100 + k;
            extra.dur_ns = k * ms;
            trace.events.push(extra);
        }
        let table = trace.summary();
        let header: Vec<&str> = table
            .lines()
            .next()
            .expect("header")
            .split_whitespace()
            .collect();
        let row = |name: &str| -> Vec<String> {
            let line = table
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(name))
                .unwrap_or_else(|| panic!("no {name} row in\n{table}"));
            line.split_whitespace().map(str::to_owned).collect()
        };
        let col = |row: &[String], name: &str| -> f64 {
            let i = header.iter().position(|h| *h == name).expect("column");
            row[i].parse().expect("number")
        };
        let root = row("root");
        assert_eq!(col(&root, "count"), 10.0);
        assert_eq!(col(&root, "total_ms"), 55.0);
        // Self: 4 ms of the first root plus the nine childless roots.
        assert_eq!(col(&root, "self_ms"), 4.0 + 45.0);
        assert_eq!(col(&root, "p50_us"), 5000.0);
        assert_eq!(col(&root, "p99_us"), 10000.0);
        assert_eq!(col(&root, "max_us"), 10000.0);
        let child = row("child");
        assert_eq!(
            col(&child, "self_ms"),
            4.0,
            "a leaf's self time is its duration"
        );
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
