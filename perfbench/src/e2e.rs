//! The end-to-end runs. A run is [`SEGMENTS`] segments, each on a fresh
//! server process: set it up (one `setup_s` sample), drive a share of
//! the workload's timed phases over one connection, read the live
//! instruments, then stop it. Pooling segments averages out per-process
//! luck such as address layout and hash seeds. Every answer is checked
//! after the last segment.
//!
//! Each phase sends one frame class and ends when its last reply is in,
//! so the server's CPU between the phase's start and end is that class's
//! cost; `cold_opens` samples it around each call instead.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use datalog_ast::GroundAtom;
use tiebreak_server::ScriptSession;

use crate::check::{canon, expected, expected_in_fresh_process, fresh, script_body};
use crate::inputs::{self, Instance, Rng, Toggle};
use crate::live::{ms, Conn, ServerProc};

/// Server processes per run that serve timed frames.
const SEGMENTS: usize = 5;
/// Set-ups per segment: all but the last are timed and stopped. The
/// same work takes 60–100 ms from one second to the next on a shared
/// host, so `setup_s` is the median of many.
const SETUPS_PER_SEGMENT: usize = 3;
/// Closed-loop pings after each segment's timed phases (`server.ping_ms`).
const PINGS: usize = 40;

/// Frame classes: point reads, the workload's main class (`? wf` on
/// hot_reads, writes on churn, opens on cold_opens), enumerations.
pub const READ: usize = 0;
pub const MAIN: usize = 1;
pub const ENUM: usize = 2;

/// Everything one end-to-end run measured.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Latency per frame, by class, in send order.
    pub latency_ms: [Vec<f64>; 3],
    /// Server CPU spent on each class's phases, in ms.
    cpu_ms: [f64; 3],
    pub late_ms: Vec<f64>,
    /// Per-segment server `VmHWM`.
    pub peak_rss_mb: Vec<f64>,
    pub ping_ms: Vec<f64>,
    /// Registry hits and opens, and batch-size histogram sum and count,
    /// over the timed phases.
    hits: f64,
    opens: f64,
    batch_sum: f64,
    batches: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failed frames, first few kept for the log.
    pub problems: Vec<String>,
    /// Why the run was abandoned, if it was.
    pub aborted: Option<String>,
}

impl E2e {
    /// Server CPU per answered frame of `class`.
    pub fn cpu_ms(&self, class: usize) -> f64 {
        self.cpu_ms[class] / self.latency_ms[class].len().max(1) as f64
    }

    /// Share of the timed server CPU spent on `class`.
    pub fn cpu_share(&self, class: usize) -> f64 {
        self.cpu_ms[class] / self.cpu_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE)
    }

    /// Server CPU per answered frame of any class.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let frames: usize = self.latency_ms.iter().map(Vec::len).sum();
        self.cpu_ms.iter().sum::<f64>() / frames.max(1) as f64
    }

    pub fn hit_ratio(&self) -> f64 {
        if self.opens > 0.0 {
            self.hits / self.opens
        } else {
            0.0
        }
    }

    pub fn batch_size(&self) -> f64 {
        self.batch_sum / self.batches.max(1.0)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Sends one open-loop phase of `class` and books its latencies,
    /// lateness and server CPU; unanswered frames count as failed.
    fn phase(
        &mut self,
        server: &ServerProc,
        conn: &mut Conn,
        frames: &[(Duration, Vec<u8>)],
        class: usize,
    ) -> Result<Vec<Vec<u8>>, String> {
        let cpu = server.cpu_ms()?;
        let phase = conn.open_loop(frames);
        self.cpu_ms[class] += server.cpu_ms()? - cpu;
        self.attempted += frames.len() as u64;
        self.late_ms.extend(&phase.late_ms);
        self.latency_ms[class].extend(&phase.latency_ms);
        if let Some(e) = phase.error {
            self.failed += (frames.len() - phase.replies.len()) as u64;
            self.aborted.get_or_insert(e);
        }
        Ok(phase.replies)
    }

    /// One closed-loop call of `class`, booked like a phase of one frame.
    fn call(
        &mut self,
        server: &ServerProc,
        conn: &mut Conn,
        payload: &[u8],
        class: usize,
    ) -> Result<Option<Vec<u8>>, String> {
        self.attempted += 1;
        let cpu = server.cpu_ms()?;
        let started = Instant::now();
        match conn.call(payload) {
            Ok(reply) => {
                self.latency_ms[class].push(ms(started.elapsed()));
                self.cpu_ms[class] += server.cpu_ms()? - cpu;
                Ok(Some(reply))
            }
            Err(e) => {
                self.failed += 1;
                self.aborted.get_or_insert(e);
                Ok(None)
            }
        }
    }
}

fn script(lines: &str) -> Vec<u8> {
    format!("script\n{lines}").into_bytes()
}

fn open_frame(instance: &Instance) -> Vec<u8> {
    let mut payload = format!("open {}\n", instance.program.len()).into_bytes();
    payload.extend_from_slice(instance.program.as_bytes());
    payload.extend_from_slice(instance.database.as_bytes());
    payload
}

/// Scripts evenly spaced at `rate` per second.
fn schedule(scripts: &[String], rate: f64) -> Vec<(Duration, Vec<u8>)> {
    scripts
        .iter()
        .enumerate()
        .map(|(i, s)| (Duration::from_secs_f64(i as f64 / rate), script(s)))
        .collect()
}

/// Registry hits and misses from the `stats` verb.
fn registry_counts(conn: &mut Conn) -> Result<(f64, f64), String> {
    let reply = String::from_utf8_lossy(&conn.call(b"stats")?).into_owned();
    let field = |name: &str| {
        reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok((field("hits="), field("misses=")))
}

/// The `tiebreak_batch_size` histogram's sum and count from `metrics`.
fn batch_counts(conn: &mut Conn) -> Result<(f64, f64), String> {
    let reply = String::from_utf8_lossy(&conn.call(b"metrics")?).into_owned();
    let value = |name: &str| {
        reply
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok((
        value("tiebreak_batch_size_sum"),
        value("tiebreak_batch_size_count"),
    ))
}

/// The server's command line after `serve --addr`: one evaluation
/// thread (see [`inputs::SERVER_THREADS`]) and, on cold_opens, the
/// session cap.
fn server_flags(max_sessions: Option<usize>) -> Vec<String> {
    let mut flags = vec!["--threads".to_owned(), inputs::SERVER_THREADS.to_string()];
    if let Some(cap) = max_sessions {
        flags.extend(["--max-sessions".to_owned(), cap.to_string()]);
    }
    flags
}

/// What a segment's set-up hands its timed phases: workload state, a
/// control connection, and the registry hits/misses before the timed
/// connection's own open.
type Ready<S> = (S, Conn, (f64, f64));

/// Runs [`SEGMENTS`] segments. `setup` is timed from process start into
/// `setup_s`; `timed` runs the segment's phases (it gets the segment
/// index) on the segment's last set-up, and the live counters around it
/// are booked afterwards. A run abandoned by `timed` ends here: the
/// server is killed without another call, since a stall is reactor-wide
/// and each call would wait out the deadline again.
fn run_segments<S>(
    out: &mut E2e,
    cfg: &Config,
    flags: &[String],
    mut setup: impl FnMut(&ServerProc) -> Result<Ready<S>, String>,
    mut timed: impl FnMut(&mut E2e, &ServerProc, S, &mut Conn, usize) -> Result<(), String>,
) -> Result<(), String> {
    for segment in 0..SEGMENTS {
        for _ in 1..SETUPS_PER_SEGMENT {
            let started = Instant::now();
            let server = ServerProc::start(cfg.bin, cfg.server_cpu, flags)?;
            drop(setup(&server)?);
            out.setup_s.push(started.elapsed().as_secs_f64());
            server.stop()?;
        }
        let started = Instant::now();
        let server = ServerProc::start(cfg.bin, cfg.server_cpu, flags)?;
        let (state, mut control, registry) = setup(&server)?;
        out.setup_s.push(started.elapsed().as_secs_f64());
        let batches = batch_counts(&mut control)?;
        timed(out, &server, state, &mut control, segment)?;
        out.peak_rss_mb.push(server.peak_rss_mb()?);
        if out.aborted.is_some() {
            break;
        }
        let (hits, misses) = registry_counts(&mut control)?;
        out.hits += hits - registry.0;
        out.opens += hits + misses - registry.0 - registry.1;
        let (sum, count) = batch_counts(&mut control)?;
        out.batch_sum += sum - batches.0;
        out.batches += count - batches.1;
        for _ in 0..PINGS {
            let started = Instant::now();
            control.call(b"ping")?;
            out.ping_ms.push(ms(started.elapsed()));
        }
        drop(control);
        server.stop()?;
    }
    Ok(())
}

/// Opens the hot session on a control connection and evaluates it once,
/// then opens it again (a registry hit) on the timed connection.
fn hot_setup(server: &ServerProc, hot: &Instance, warm: &str) -> Result<Ready<Conn>, String> {
    let mut control = Conn::connect(server.addr)?;
    let frame = open_frame(hot);
    let opened = control.call(&frame)?;
    if !opened.starts_with(b"ok opened") {
        return Err(format!("open failed: {}", String::from_utf8_lossy(&opened)));
    }
    script_body(&control.call(&script(warm))?)?;
    let registry = registry_counts(&mut control)?;
    let mut timed = Conn::connect(server.addr)?;
    let reopened = timed.call(&frame)?;
    if !reopened.starts_with(b"ok opened") {
        return Err(format!(
            "re-open failed: {}",
            String::from_utf8_lossy(&reopened)
        ));
    }
    Ok((timed, control, registry))
}

/// Point-read answers of one session, computed once per query.
struct Answers<'a> {
    session: &'a ScriptSession,
    want: HashMap<String, Vec<String>>,
}

impl<'a> Answers<'a> {
    fn new(session: &'a ScriptSession) -> Self {
        Answers {
            session,
            want: HashMap::new(),
        }
    }

    /// Checks one reply body (or why the reply failed) for `query`.
    fn check(&mut self, out: &mut E2e, query: &str, body: Result<&str, String>) {
        let session = self.session;
        let want = self
            .want
            .entry(query.to_owned())
            .or_insert_with(|| expected(session, query));
        match body {
            Ok(body) if canon(body) == *want => {}
            Ok(body) => out.fail(format!("{query:?}: got {body:?}, want {want:?}")),
            Err(e) => out.fail(format!("{query:?}: {e}")),
        }
    }
}

/// Checks every reply of a heavy read class against `want`; identical
/// replies are canonicalized once.
fn check_heavy(out: &mut E2e, want: &[String], query: &str, got: &[Vec<u8>]) {
    let mut seen: HashMap<&[u8], bool> = HashMap::new();
    for reply in got {
        let ok = *seen
            .entry(reply)
            .or_insert_with(|| script_body(reply).is_ok_and(|body| canon(body) == want));
        if !ok {
            out.fail(format!(
                "{query:?}: wrong or failed reply of {} bytes",
                reply.len()
            ));
        }
    }
}

pub struct Config<'a> {
    pub bin: &'a Path,
    /// The CPU the server is pinned to, if any.
    pub server_cpu: Option<usize>,
    pub seed: u64,
    pub seconds: f64,
}

impl Config<'_> {
    /// Whole units of `per_second` work in one segment's share of the run.
    fn per_segment(&self, per_second: f64) -> usize {
        ((self.seconds * per_second / SEGMENTS as f64).round() as usize).max(1)
    }
}

/// hot_reads blocks: each second of the run sends point reads, then
/// `? wf`, then `? outcomes K`, each class an open-loop phase of its own
/// (rate per second, share of the block), so every class is sampled
/// across the whole run and a heavy frame never queues before a light one.
const HOT_BLOCK: [(f64, f64); 3] = [(250.0, 0.4), (25.0, 0.4), (5.0, 0.2)];

/// hot_reads: point reads, `? wf` and `? outcomes K` on one prepared
/// session, in one-second blocks of three open-loop phases.
pub fn hot_reads(cfg: &Config) -> Result<E2e, String> {
    let mut out = E2e::default();
    let (hot, tag) = inputs::hot_instance(cfg.seed, 0);
    let mut rng = Rng::new(cfg.seed, 0x40);
    let warm = format!("?win({}).\n", inputs::hot_position(&mut rng, &tag));
    let model_q = "? wf\n".to_owned();
    let enum_q = format!("? outcomes {}\n", inputs::ENUM_K);
    let mut reads = Vec::new();
    let mut replies: [Vec<Vec<u8>>; 3] = Default::default();
    run_segments(
        &mut out,
        cfg,
        &server_flags(None),
        |server| hot_setup(server, &hot, &warm),
        |out, server, mut timed, _, _| {
            for _ in 0..cfg.per_segment(1.0) {
                for (class, &(rate, share)) in HOT_BLOCK.iter().enumerate() {
                    let queries: Vec<String> = (0..(rate * share).round() as usize)
                        .map(|_| match class {
                            READ => format!("?win({}).\n", inputs::hot_position(&mut rng, &tag)),
                            MAIN => model_q.clone(),
                            _ => enum_q.clone(),
                        })
                        .collect();
                    let got = out.phase(server, &mut timed, &schedule(&queries, rate), class)?;
                    replies[class].extend(got);
                    if class == READ {
                        reads.extend(queries);
                    }
                    if out.aborted.is_some() {
                        return Ok(());
                    }
                }
            }
            Ok(())
        },
    )?;

    let session = fresh(&hot)?;
    let mut answers = Answers::new(&session);
    let [read_replies, model_replies, enum_replies] = replies;
    for (query, reply) in reads.iter().zip(&read_replies) {
        answers.check(&mut out, query, script_body(reply));
    }
    check_heavy(
        &mut out,
        &expected(&session, &model_q),
        &model_q,
        &model_replies,
    );
    let want = expected_in_fresh_process(&hot, &enum_q)?;
    check_heavy(&mut out, &want, &enum_q, &enum_replies);
    Ok(out)
}

/// churn blocks: each second of the run sends a write phase of
/// retract/re-insert pairs, then a point-read phase.
const CHURN_PAIRS: usize = 6;
const CHURN_WRITE_RATE: f64 = 24.0;
const CHURN_READS: usize = 125;
const CHURN_READ_RATE: f64 = 250.0;
/// Retracts per run whose answer is checked against a fresh solver on
/// the database without that edge (every re-insert is checked).
const CHURN_CHECKED_RETRACTS: usize = 3;

/// The database of `hot` without the toggled edge.
fn without(hot: &Instance, toggle: &Toggle) -> Result<Instance, String> {
    let mut db = datalog_ast::parse_database(&hot.database).map_err(|e| e.to_string())?;
    db.remove(&GroundAtom::from_texts("move", &[&toggle.from, &toggle.to]));
    Ok(Instance {
        program: hot.program.clone(),
        database: db.to_string(),
    })
}

/// The `db N facts` field of a `? stats` reply.
fn db_facts(reply: &[u8]) -> Result<usize, String> {
    let body = script_body(reply)?;
    body.split(" | ")
        .find_map(|f| f.strip_prefix("db "))
        .and_then(|f| f.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no fact count in {body:?}"))
}

/// churn: the hot session under read-your-write writes, each toggling a
/// pocket edge, in one-second blocks of a write phase and a read phase.
/// Each write phase re-inserts every edge it retracts, so the reads and
/// the end of every segment see the starting database.
pub fn churn(cfg: &Config) -> Result<E2e, String> {
    let mut out = E2e::default();
    let (hot, tag) = inputs::hot_instance(cfg.seed, 0);
    let mut rng = Rng::new(cfg.seed, 0xC1);
    let warm = format!("?win({}).\n", inputs::hot_position(&mut rng, &tag));
    let blocks = cfg.per_segment(1.0);
    let toggles = inputs::churn_toggles(cfg.seed, &tag, CHURN_PAIRS * blocks * SEGMENTS);
    let mut reads = Vec::new();
    let mut replies: [Vec<Vec<u8>>; 2] = Default::default();
    run_segments(
        &mut out,
        cfg,
        &server_flags(None),
        |server| {
            let (timed, mut control, registry) = hot_setup(server, &hot, &warm)?;
            let facts = db_facts(&control.call(&script("? stats\n"))?)?;
            Ok(((timed, facts), control, registry))
        },
        |out, server, (mut timed, facts_before), control, segment| {
            for block in 0..blocks {
                let first = (segment * blocks + block) * CHURN_PAIRS * 2;
                let writes: Vec<String> = toggles[first..first + CHURN_PAIRS * 2]
                    .iter()
                    .map(Toggle::script)
                    .collect();
                let got = out.phase(
                    server,
                    &mut timed,
                    &schedule(&writes, CHURN_WRITE_RATE),
                    MAIN,
                )?;
                replies[MAIN].extend(got);
                if out.aborted.is_some() {
                    return Ok(());
                }
                let queries: Vec<String> = (0..CHURN_READS)
                    .map(|_| format!("?win({}).\n", inputs::hot_position(&mut rng, &tag)))
                    .collect();
                let got = out.phase(
                    server,
                    &mut timed,
                    &schedule(&queries, CHURN_READ_RATE),
                    READ,
                )?;
                replies[READ].extend(got);
                reads.extend(queries);
                if out.aborted.is_some() {
                    return Ok(());
                }
            }
            let facts_after = db_facts(&control.call(&script("? stats\n"))?)?;
            if facts_after != facts_before {
                out.fail(format!(
                    "churn left {facts_after} facts, started with {facts_before}"
                ));
            }
            Ok(())
        },
    )?;

    // Reads and re-inserts see the starting database; a seeded sample of
    // retracts is checked against a fresh solver without the edge.
    let base = fresh(&hot)?;
    let mut answers = Answers::new(&base);
    for (query, reply) in reads.iter().zip(&replies[READ]) {
        answers.check(&mut out, query, script_body(reply));
    }
    let mut sampled = Rng::new(cfg.seed, 0x5A);
    let checked: Vec<usize> = (0..CHURN_CHECKED_RETRACTS)
        .map(|_| sampled.below(replies[MAIN].len().max(2) / 2) * 2)
        .collect();
    for (k, (toggle, reply)) in toggles.iter().zip(&replies[MAIN]).enumerate() {
        let body = match script_body(reply) {
            Ok(body) if body.contains("re-prepared") => {
                Err(format!("the write re-prepared the session: {body:?}"))
            }
            // The read-your-write answer, without the epoch line.
            Ok(body) => Ok(body
                .lines()
                .filter(|l| !l.starts_with('%'))
                .collect::<String>()),
            Err(e) => Err(e),
        };
        let query = format!("?win({}).\n", toggle.to);
        let body = body.as_deref().map_err(Clone::clone);
        if !toggle.retract {
            answers.check(&mut out, &query, body);
        } else if checked.contains(&k) {
            let session = fresh(&without(&hot, toggle)?)?;
            Answers::new(&session).check(&mut out, &query, body);
        } else if let Err(e) = body {
            out.fail(format!("{query:?}: {e}"));
        }
    }
    Ok(out)
}

/// cold_opens: a fixed count of opens of distinct instances into a full
/// registry (each misses and evicts), each followed by one point read.
pub fn cold_opens(cfg: &Config) -> Result<E2e, String> {
    let mut out = E2e::default();
    let cap = inputs::COLD_CAP;
    let per_segment = cfg.per_segment(inputs::COLD_OPENS_PER_SECOND);
    let mut rng = Rng::new(cfg.seed, 0xC0);
    let plan: Vec<(Instance, String)> = (cap..cap + per_segment * SEGMENTS)
        .map(|index| {
            let (instance, tag) = inputs::cold_instance(cfg.seed, index);
            let query = format!("?{}.\n", inputs::cold_atom(&mut rng, &tag));
            (instance, query)
        })
        .collect();

    let mut got = Vec::new();
    run_segments(
        &mut out,
        cfg,
        &server_flags(Some(cap)),
        |server| {
            let mut conn = Conn::connect(server.addr)?;
            for index in 0..cap {
                let reply = conn.call(&open_frame(&inputs::cold_instance(cfg.seed, index).0))?;
                if !reply.starts_with(b"ok opened") {
                    return Err(format!(
                        "set-up open failed: {}",
                        String::from_utf8_lossy(&reply)
                    ));
                }
            }
            let mut control = Conn::connect(server.addr)?;
            let registry = registry_counts(&mut control)?;
            Ok((conn, control, registry))
        },
        |out, server, mut conn, _, segment| {
            for (instance, query) in &plan[segment * per_segment..(segment + 1) * per_segment] {
                let Some(reply) = out.call(server, &mut conn, &open_frame(instance), MAIN)? else {
                    return Ok(());
                };
                let status =
                    String::from_utf8_lossy(reply.split(|&b| b == b'\n').next().unwrap_or(b""));
                if !status.starts_with("ok opened")
                    || !status.contains("reused=false")
                    || status.contains("evicted=0")
                {
                    out.fail(format!("open did not miss and evict: {status}"));
                }
                let Some(reply) = out.call(server, &mut conn, &script(query), READ)? else {
                    return Ok(());
                };
                got.push(reply);
            }
            Ok(())
        },
    )?;

    for ((instance, query), reply) in plan.iter().zip(&got) {
        let session = fresh(instance)?;
        Answers::new(&session).check(&mut out, query, script_body(reply));
    }
    Ok(out)
}
