//! The traced run: replays a workload's seeded instances and frames
//! in-process, timing each layer's public calls in the order the server
//! makes them. One span per call (name, start, end, parent) is kept in
//! memory and written out at the end; a layer's self time is its span
//! minus its children.
//!
//! The replay runs in a fresh copy of this program (`--replay`). The
//! symbol interner is global to a process and never frees, and the
//! server interns every instance's names for the first time; a replay
//! in the process that already checked the end-to-end answers would
//! time a warm re-parse instead. For the same reason each timed open
//! and prepare gets an instance of its own.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use datalog_ast::GroundAtom;
use datalog_ground::{Closer, PartialModel, SessionGrounder, UnfoundedEngine};
use tiebreak_core::{EngineConfig, Mutation, RuntimeConfig};
use tiebreak_runtime::{ReadBatch, Solver};
use tiebreak_server::{
    script::describe_delta, write_frame, FrameDecoder, RegistryConfig, ScriptSession,
    SessionRegistry, DEFAULT_MAX_FRAME_BYTES,
};

use crate::inputs::{self, Instance, Rng};
use crate::live::ms;
use crate::percentile;

/// Repetitions of the prepare-sized steps, and frames per read class.
const PREPARES: usize = 3;
const READS: usize = 60;
const MODELS: usize = 8;
const ENUMS: usize = 3;
const WRITES: usize = 16;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, a child of the open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        self.spans[id].end = Instant::now();
        value
    }

    /// Self times in ms, keyed by (root span, span name).
    fn self_times(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += ms(span.end - span.start);
            }
        }
        let mut out: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            out.entry((self.spans[root].name, span.name))
                .or_default()
                .push(ms(span.end - span.start) - child_ms[i]);
        }
        out
    }

    /// Durations in ms of every root span named `name`.
    fn totals(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// Writes the spans as Chrome trace events.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

/// Wire round trip of one reply: frame it, then decode it.
fn wire(rec: &mut Recorder, reply: &[u8]) -> usize {
    rec.span("server.wire", |_| {
        let mut bytes = Vec::with_capacity(reply.len() + 4);
        write_frame(&mut bytes, reply).expect("writing to a Vec cannot fail");
        let mut frames = Vec::new();
        FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES)
            .feed(std::hint::black_box(&bytes), &mut frames)
            .expect("replies fit the cap");
        frames.len()
    });
    reply.len()
}

/// What the replay inputs are for one workload. Every instance is
/// distinct source text: `opens` go through the registry, `staged`
/// through the prepare pipeline stage by stage, `prepared` through
/// `Solver::with_config`; the last of `prepared` serves the frames.
struct Plan {
    /// Point-read scripts on the serving instance.
    reads: Vec<String>,
    /// Mutations replayed as write frames, with the atom each reads back.
    writes: Vec<(Mutation, GroundAtom)>,
    opens: Vec<Instance>,
    staged: Vec<Instance>,
    prepared: Vec<Instance>,
    /// Instances the registry is filled with before the opens.
    prefill: Vec<Instance>,
    cap: usize,
}

fn plan(workload: &str, seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 0x7E);
    let cold = workload == "cold_opens";
    let cap = if cold {
        inputs::COLD_CAP
    } else {
        RegistryConfig::default().max_sessions
    };
    // Cold instances 0..cap fill the registry, as in the end-to-end run.
    let first = if cold { cap } else { 0 };
    let instance = |i: usize| {
        if cold {
            inputs::cold_instance(seed, first + i)
        } else {
            inputs::hot_instance(seed, first + i)
        }
    };
    let batch = |k: usize| {
        (k * PREPARES..(k + 1) * PREPARES)
            .map(|i| instance(i).0)
            .collect()
    };
    let (_, tag) = instance(3 * PREPARES - 1);
    let (reads, writes) = if cold {
        let reads = (0..READS)
            .map(|_| format!("?{}.\n", inputs::cold_atom(&mut rng, &tag)))
            .collect();
        let fact = GroundAtom::from_texts(&inputs::cold_toggle_atom(&tag), &[]);
        let writes = (0..WRITES)
            .map(|k| {
                let m = if k % 2 == 0 {
                    Mutation::Insert(fact.clone())
                } else {
                    Mutation::Retract(fact.clone())
                };
                (m, fact.clone())
            })
            .collect();
        (reads, writes)
    } else {
        let reads = (0..READS)
            .map(|_| format!("?win({}).\n", inputs::hot_position(&mut rng, &tag)))
            .collect();
        let writes = inputs::churn_toggles(seed, &tag, WRITES / 2)
            .into_iter()
            .map(|t| {
                let edge = GroundAtom::from_texts("move", &[&t.from, &t.to]);
                let m = if t.retract {
                    Mutation::Retract(edge)
                } else {
                    Mutation::Insert(edge)
                };
                (m, GroundAtom::from_texts("win", &[&t.to]))
            })
            .collect();
        (reads, writes)
    };
    Plan {
        reads,
        writes,
        opens: batch(0),
        staged: batch(1),
        prepared: batch(2),
        prefill: if cold {
            (0..cap).map(|i| inputs::cold_instance(seed, i).0).collect()
        } else {
            Vec::new()
        },
        cap,
    }
}

fn parse(rec: &mut Recorder, inst: &Instance) -> (datalog_ast::Program, datalog_ast::Database) {
    rec.span("ast.parse", |_| {
        (
            datalog_ast::parse_program(&inst.program).expect("generated program parses"),
            datalog_ast::parse_database(&inst.database).expect("generated database parses"),
        )
    })
}

/// Per-layer metrics by name, plus the median per-frame replay total of
/// each class under its root span's name (`frame.read`, ...).
pub type Layers = BTreeMap<String, f64>;

/// [`replay`] of `workload` and `seed` in a fresh copy of this program,
/// whose interner has seen none of the instances.
pub fn replay_in_fresh_process(
    workload: &str,
    seed: u64,
    trace_out: &Path,
) -> Result<Layers, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--replay")
        .arg(workload)
        .arg(seed.to_string())
        .arg(trace_out)
        .output()
        .map_err(|e| format!("cannot start the replay: {e}"))?;
    std::io::stderr()
        .write_all(&out.stderr)
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("the replay failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad replay line {line:?}"))?;
            let value = value
                .parse()
                .map_err(|e| format!("bad replay line {line:?}: {e}"))?;
            Ok((name.to_owned(), value))
        })
        .collect()
}

/// The `--replay WORKLOAD SEED TRACE_OUT` mode: replays the workload and
/// prints one `name value` line per metric.
pub fn replay_main(args: &[String]) -> Result<(), String> {
    let [workload, seed, trace_out] = args else {
        return Err("usage: --replay WORKLOAD SEED TRACE_OUT".to_owned());
    };
    let seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
    let layers = replay(&plan(workload, seed), Path::new(trace_out))?;
    let mut out = std::io::stdout().lock();
    for (name, value) in layers {
        writeln!(out, "{name} {value}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replays `plan`, writing the spans to `trace_out`.
fn replay(plan: &Plan, trace_out: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut rec = Recorder::new();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let config =
        EngineConfig::default().with_runtime(RuntimeConfig::with_threads(inputs::SERVER_THREADS));

    // Opens through the registry, as the server's `open` verb makes them.
    let registry = SessionRegistry::new(RegistryConfig {
        engine: config,
        max_sessions: plan.cap,
        ..RegistryConfig::default()
    });
    for inst in &plan.prefill {
        registry
            .open(&inst.program, &inst.database)
            .map_err(|e| err(&e))?;
    }
    let mut evictions = 0;
    for inst in &plan.opens {
        let reply = rec.span("frame.open", |rec| -> Result<Vec<u8>, String> {
            let outcome = rec.span("server.open", |_| {
                registry.open(&inst.program, &inst.database)
            });
            let outcome = outcome.map_err(|e| err(&e))?;
            evictions += outcome.evicted;
            let reply = format!(
                "ok opened key={:016x} reused={} evicted={} atoms={} threads={}",
                outcome.entry.key(),
                outcome.reused,
                outcome.evicted,
                outcome.entry.atoms(),
                outcome.entry.lock().solver().effective_threads()
            );
            wire(rec, reply.as_bytes());
            if plan.prefill.is_empty() {
                // Only one hot session is kept resident, as on the server.
                registry.evict(outcome.entry.key());
            }
            Ok(reply.into_bytes())
        })?;
        v.insert("server.response_kb.open", reply.len() as f64 / 1024.0);
    }
    v.insert(
        "server.evictions",
        evictions as f64 / plan.opens.len() as f64,
    );

    // The prepare pipeline, stage by stage.
    for inst in &plan.staged {
        rec.span("prepare", |rec| -> Result<(), String> {
            let (program, database) = parse(rec, inst);
            let (graph, _grounder) = rec
                .span("ground.ground", |_| {
                    SessionGrounder::build(&program, &database, &config.ground)
                })
                .map_err(|e| err(&e))?;
            let closer = rec.span("ground.close", |_| -> Result<Closer<'_>, String> {
                let mut model = PartialModel::initial(&program, &database, graph.atoms());
                let mut closer = Closer::new(&graph);
                closer.bootstrap(&model);
                closer.run(&mut model).map_err(|e| format!("{e:?}"))?;
                Ok(closer)
            })?;
            let engine = rec.span("ground.condense", |_| UnfoundedEngine::build(&closer));
            v.insert("ground.atoms", graph.atom_count() as f64);
            v.insert("ground.rules", graph.rule_count() as f64);
            v.insert("ground.components", engine.component_count() as f64);
            v.insert("ground.widest_wave", engine.widest_wave() as f64);
            Ok(())
        })?;
    }
    // The same pipeline as one call, parsed outside the span as the
    // server does; the last solver serves the frames below.
    let mut solver = None;
    for inst in &plan.prepared {
        let (program, database) = parse(&mut Recorder::new(), inst);
        let prepared = rec.span("runtime.prepare", |_| {
            Solver::with_config(program, database, config)
        });
        let prepared = prepared.map_err(|e| err(&e))?;
        v.insert(
            "ground.residual_atoms",
            prepared.residual_atom_count() as f64,
        );
        solver = Some(prepared);
    }
    let mut solver = solver.ok_or("the plan prepares no instance")?;
    // Write frames: apply, the wave scheduler re-run, the reply.
    solver.well_founded_run().map_err(|e| err(&e))?;
    let (mut cone, mut rules, mut invalidated, mut rebuilds) = (vec![], vec![], vec![], 0);
    for (mutation, read) in &plan.writes {
        let reply = rec.span("frame.write", |rec| -> Result<Vec<u8>, String> {
            let delta = rec.span("runtime.apply", |_| solver.apply(vec![mutation.clone()]));
            let delta = delta.map_err(|e| err(&e))?;
            let run = rec.span("runtime.wf_rerun", |_| solver.well_founded_run());
            let run = run.map_err(|e| err(&e))?;
            cone.push(delta.cone_atoms as f64);
            rules.push(delta.new_rules as f64);
            invalidated.push(delta.branches_invalidated as f64);
            rebuilds += usize::from(delta.rebuilt);
            let value = solver
                .graph()
                .atoms()
                .id_of(read)
                .map(|id| run.model.get(id));
            let reply = match value {
                Some(value) => {
                    format!("ok errors=0\n{}\n{read}: {value}\n", describe_delta(&delta))
                }
                None => format!("ok errors=0\n{}\n{read}: false\n", describe_delta(&delta)),
            };
            wire(rec, reply.as_bytes());
            Ok(reply.into_bytes())
        })?;
        v.insert("server.response_kb.write", reply.len() as f64 / 1024.0);
    }
    v.insert("runtime.cone_atoms", percentile(&cone, 50.0));
    v.insert("runtime.new_rules", percentile(&rules, 50.0));
    v.insert(
        "runtime.branches_invalidated",
        percentile(&invalidated, 50.0),
    );
    v.insert("runtime.rebuilds", rebuilds as f64);
    v.insert("runtime.threads", solver.effective_threads() as f64);
    v.insert(
        "runtime.wave_dispatch",
        f64::from(u8::from(solver.wave_dispatch_eligible())),
    );

    // Read frames on the warm session.
    let session = ScriptSession::new(solver, false);
    session.solver().well_founded_run().map_err(|e| err(&e))?;
    let frame = |rec: &mut Recorder, batch: &mut ReadBatch, script: &str| -> Vec<u8> {
        let mut out = b"ok errors=0\n".to_vec();
        let mut lineno = 0;
        rec.span("server.format", |_| {
            session.process_read_frame(&mut lineno, script, batch, &mut out)
        })
        .expect("writing to a Vec cannot fail");
        wire(rec, &out);
        out
    };
    for script in &plan.reads {
        let reply = rec.span("frame.read", |rec| {
            let mut batch = ReadBatch::new();
            rec.span("runtime.wf_run", |_| {
                batch.run(session.solver()).map(|_| ())
            })
            .map_err(|e| err(&e))?;
            Ok::<_, String>(frame(rec, &mut batch, script))
        })?;
        v.insert("server.response_kb.read", reply.len() as f64 / 1024.0);
    }
    for _ in 0..MODELS {
        let reply = rec.span("frame.model", |rec| {
            let mut batch = ReadBatch::new();
            rec.span("runtime.wf_run", |_| {
                batch.run(session.solver()).map(|_| ())
            })
            .map_err(|e| err(&e))?;
            rec.span("runtime.decode", |_| {
                batch.model(session.solver()).map(|_| ())
            })
            .map_err(|e| err(&e))?;
            Ok::<_, String>(frame(rec, &mut batch, "? wf\n"))
        })?;
        v.insert("server.response_kb.model", reply.len() as f64 / 1024.0);
    }
    for _ in 0..ENUMS {
        let reply = rec.span("frame.enum", |rec| -> Result<Vec<u8>, String> {
            let set = rec.span("runtime.outcomes", |_| {
                session.solver().all_outcomes(false, inputs::ENUM_K)
            });
            let set = set.map_err(|e| err(&e))?;
            v.insert("runtime.outcome_models", set.models.len() as f64);
            let mut out = b"ok errors=0\n".to_vec();
            rec.span("server.format", |_| {
                tiebreak_server::script::write_outcomes(
                    &mut out,
                    &set,
                    session.solver().graph().atoms(),
                )
            })
            .expect("writing to a Vec cannot fail");
            wire(rec, &out);
            Ok(out)
        })?;
        v.insert("server.response_kb.enum", reply.len() as f64 / 1024.0);
    }

    let times = rec.self_times();
    for (metric, root, name) in [
        ("ast.parse_ms", "prepare", "ast.parse"),
        ("ground.ground_ms", "prepare", "ground.ground"),
        ("ground.close_ms", "prepare", "ground.close"),
        ("ground.condense_ms", "prepare", "ground.condense"),
        ("runtime.prepare_ms", "runtime.prepare", "runtime.prepare"),
        ("server.open_ms", "frame.open", "server.open"),
        ("runtime.apply_ms", "frame.write", "runtime.apply"),
        ("runtime.wf_rerun_ms", "frame.write", "runtime.wf_rerun"),
        ("runtime.wf_run_ms", "frame.read", "runtime.wf_run"),
        ("runtime.decode_ms", "frame.model", "runtime.decode"),
        ("runtime.outcomes_ms", "frame.enum", "runtime.outcomes"),
        ("server.format_ms", "frame.model", "server.format"),
        ("server.format_enum_ms", "frame.enum", "server.format"),
        ("server.wire_ms.read", "frame.read", "server.wire"),
        ("server.wire_ms.model", "frame.model", "server.wire"),
        ("server.wire_ms.enum", "frame.enum", "server.wire"),
        ("server.wire_ms.write", "frame.write", "server.wire"),
        ("server.wire_ms.open", "frame.open", "server.wire"),
    ] {
        if let Some(t) = times.get(&(root, name)) {
            v.insert(metric, percentile(t, 50.0));
        }
    }
    for root in [
        "frame.read",
        "frame.model",
        "frame.enum",
        "frame.write",
        "frame.open",
    ] {
        v.insert(root, percentile(&rec.totals(root), 50.0));
    }
    rec.write(trace_out)
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    Ok(v)
}
