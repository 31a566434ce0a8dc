//! Observability determinism suite: the span recorder must be a pure
//! observer.
//!
//! Three families of checks over the braided chain workload and the
//! serving tier:
//!
//! * **well-formedness** — a drained trace has unique sequence stamps,
//!   every span closed with a valid (earlier-allocated) parent, and a
//!   chrome://tracing export that round-trips through the vendored
//!   validator;
//! * **bit-identical results** — well-founded models, outcome sets, and
//!   [`RunStats`] are `==` with the recorder on and off;
//! * **server span tree** — one traced `open` + `? query` exchange
//!   yields `server` request spans that parent the registry open and
//!   the evaluation spans recorded further down the stack, and the
//!   `metrics` verb renders parseable Prometheus text.
//!
//! The recorder is process-global, so every test serializes on one
//! mutex and drains the sink before and after itself.

use std::sync::{Mutex, MutexGuard, PoisonError};

use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::prelude::*;
use tie_breaking_datalog::trace::{self, TraceEvent, TraceEventKind};

const CHAINS: usize = 4;
const POCKETS: usize = 2;
const LOOP: usize = 16;

/// Serializes the tests (the recorder and its sink are process-global)
/// and guarantees a clean disabled/empty state on entry and exit.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_enabled(false);
    drop(trace::drain());
    guard
}

fn braided_solver() -> Solver {
    let program = generators::braided_unfounded_chain_program(CHAINS, POCKETS, LOOP);
    Solver::new(program, Database::new()).expect("prepares")
}

#[test]
fn traces_are_well_formed() {
    let _guard = exclusive();
    trace::set_enabled(true);
    let solver = braided_solver();
    let out = solver.well_founded().expect("runs");
    assert!(out.total, "the braid is decided");
    trace::set_enabled(false);
    let events = trace::drain();
    assert!(!events.is_empty(), "the run recorded nothing");
    let built = trace::Trace::from_events(events);
    built.well_formed().unwrap_or_else(|e| panic!("{e}"));
    // The evaluation root exists.
    assert!(
        built.events.iter().any(|e| e.name == "evaluate"),
        "no evaluate span"
    );
    let check = trace::validate_trace_json(&built.to_chrome_json())
        .unwrap_or_else(|e| panic!("export invalid: {e}"));
    assert_eq!(check.events, built.events.len());
}

#[test]
fn tracing_leaves_results_bit_identical() {
    let _guard = exclusive();
    let quiet = braided_solver();
    let quiet_wf = quiet.well_founded().expect("runs");
    let quiet_outcomes = quiet.all_outcomes(false, 64).expect("enumerates");

    trace::set_enabled(true);
    let traced = braided_solver();
    let traced_wf = traced.well_founded().expect("runs");
    let traced_outcomes = traced.all_outcomes(false, 64).expect("enumerates");
    trace::set_enabled(false);
    drop(trace::drain());

    assert_eq!(quiet_wf.true_facts, traced_wf.true_facts);
    assert_eq!(quiet_wf.undefined, traced_wf.undefined);
    assert_eq!(quiet_wf.total, traced_wf.total);
    assert_eq!(quiet_wf.stats, traced_wf.stats);
    assert_eq!(quiet_outcomes.models, traced_outcomes.models);
    assert_eq!(quiet_outcomes.runs, traced_outcomes.runs);
}

#[test]
fn server_request_spans_parent_the_pipeline_and_metrics_render() {
    use tiebreak_server::{Client, Server, ServerConfig};

    let _guard = exclusive();
    trace::set_enabled(true);

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connects");
    client
        .open("win(X) :- move(X, Y), not win(Y).", "move(a, b).")
        .expect("opens");
    let reply = client.script("? win(a)\n").expect("scripts");
    assert!(reply.body.contains("win(a): true"), "{}", reply.body);
    // Tracing is on, so the reply carries the timing annotation.
    assert!(reply.body.contains("% timing: prepare="), "{}", reply.body);

    let metrics_reply = client.metrics().expect("metrics verb");
    assert!(
        metrics_reply.body.contains("tiebreak_requests_total"),
        "{}",
        metrics_reply.body
    );
    // Every non-comment line is `name{labels}? value` — the same shape
    // check the Prometheus scraper effectively performs.
    for line in metrics_reply.body.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("space-separated");
        assert!(!name.is_empty(), "{line:?}");
        assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
    }

    client.shutdown().expect("shuts down");
    handle.join().expect("joins").expect("serves");
    trace::set_enabled(false);

    let trace = trace::Trace::from_events(trace::drain());
    trace.well_formed().expect("server trace well-formed");
    let span = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::Span && e.name == name)
            .unwrap_or_else(|| panic!("no {name} span in the server trace"))
    };
    // Walks parent links from `e` and reports whether `ancestor` is on
    // the chain.
    let has_ancestor = |e: &TraceEvent, ancestor: u64| {
        let mut parent = e.parent;
        while parent != 0 {
            if parent == ancestor {
                return true;
            }
            parent = trace
                .events
                .iter()
                .find(|p| p.id == parent)
                .map_or(0, |p| p.parent);
        }
        false
    };
    let open_request = span("open");
    let registry_open = span("registry_open");
    let prepare = span("prepare");
    let script_request = span("script");
    let evaluate = span("evaluate");
    assert_eq!(
        registry_open.parent, open_request.id,
        "registry open is a child of the open request"
    );
    assert!(
        has_ancestor(prepare, registry_open.id),
        "prepare descends from the registry open"
    );
    assert!(
        has_ancestor(evaluate, script_request.id),
        "evaluation descends from the script request"
    );
    // Parsing shows where its time goes, as grounding does: clause
    // parsing (the lexer runs on demand inside it) with interning, and
    // the program build.
    let parse = span("parse_program");
    assert!(
        has_ancestor(parse, registry_open.id),
        "parsing descends from the registry open"
    );
    for name in ["clauses", "build"] {
        let child = trace
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::Span && e.cat == "parse" && e.name == name)
            .unwrap_or_else(|| panic!("no parse/{name} span in the server trace"));
        assert_eq!(
            child.parent, parse.id,
            "parse/{name} is a child of parse_program"
        );
    }
}

/// A traced `hot_reads` session (win–move over an 8 × 512 braided tie
/// chain, the benchmark instance) running `lines`: its output and the
/// drained events.
fn traced_hot_session(lines: &[&str]) -> (String, Vec<TraceEvent>) {
    use tiebreak_server::ScriptSession;

    trace::set_enabled(true);
    let solver = Solver::new(
        generators::win_move_program(),
        generators::braided_tie_chain_db(8, 512),
    )
    .expect("prepares");
    let mut session = ScriptSession::new(solver, false);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        session.process_line(i + 1, line, &mut out).expect("writes");
    }
    session.finish(&mut out).expect("writes");
    trace::set_enabled(false);
    (String::from_utf8(out).expect("utf-8"), trace::drain())
}

fn span_count(events: &[TraceEvent], cat: &str, name: &str) -> usize {
    events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Span && e.cat == cat && e.name == name)
        .count()
}

/// Every request keeps its own spans: per-component work must not fill
/// the thread ring and evict them. A retract and re-insert of one pocket
/// edge between the reads makes each of the five `? outcomes 4`
/// enumerate afresh.
#[test]
fn traced_outcome_reads_keep_their_spans() {
    let _guard = exclusive();
    let dropped_before = trace::metrics().trace_events_dropped.get();
    let (out, events) = traced_hot_session(&[
        "? outcomes 4",
        "- move(t0b3, t0a3).",
        "? outcomes 4",
        "+ move(t0b3, t0a3).",
        "? outcomes 4",
        "- move(t0b3, t0a3).",
        "? outcomes 4",
        "+ move(t0b3, t0a3).",
        "? outcomes 4",
    ]);
    assert!(!out.contains('!'), "{out}");
    assert_eq!(span_count(&events, "eval", "outcomes"), 5);
    assert_eq!(span_count(&events, "session", "apply"), 4);
    assert_eq!(
        span_count(&events, "session", "prepare"),
        1,
        "writes splice"
    );
    assert_eq!(
        trace::metrics().trace_events_dropped.get(),
        dropped_before,
        "the ring dropped events"
    );
}

/// Repeated `? outcomes 4` on one state are served from the read memo:
/// one enumeration, then four hits.
#[test]
fn repeated_outcome_reads_enumerate_once() {
    let _guard = exclusive();
    let hits_before = trace::metrics().read_memo_hits.get();
    let (out, events) = traced_hot_session(&["? outcomes 4"; 5]);
    assert_eq!(out.matches("% 4 distinct outcome(s)").count(), 5, "{out}");
    assert_eq!(span_count(&events, "eval", "outcomes"), 1);
    assert_eq!(trace::metrics().read_memo_hits.get() - hits_before, 4);
}
