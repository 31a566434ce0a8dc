//! `datalog` — command-line interface to the tie-breaking Datalog engine.
//!
//! ```text
//! datalog analyze  <program.dl>
//! datalog check    <program.dl> [database.dl] [--format text|json]
//! datalog run      <program.dl> [database.dl] [--semantics wf|tb|pure-tb|stratified]
//!                  [--policy root-true|root-false|random] [--seed N]
//! datalog models   <program.dl> [database.dl] [--stable] [--limit N]
//! datalog ground   <program.dl> [database.dl]
//! datalog explain  <program.dl> [database.dl] --atom "win(a)" [--semantics wf|tb]
//!                  [--policy root-true|root-false|random] [--seed N]
//! datalog outcomes <program.dl> [database.dl] [--semantics tb|pure-tb] [--limit N]
//! datalog totality <program.dl> [--nonuniform]          (propositional only)
//! datalog session  <program.dl> [database.dl] [--script FILE] [--semantics tb|pure-tb]
//! datalog serve    [--addr HOST:PORT] [--semantics tb|pure-tb]
//!                  [--max-sessions N] [--max-resident-atoms N] [--strict]
//!                  [--max-idle-secs N]
//! datalog client   <program.dl> [database.dl] --addr HOST:PORT [--script FILE]
//!                  [--concurrency N] [--repeat K]
//! datalog client   --addr HOST:PORT --stats | --metrics | --shutdown
//! ```
//!
//! `run`, `outcomes`, `session`, and `serve` accept `--trace-out FILE`
//! (write a chrome://tracing Trace Event JSON file when the command
//! finishes) and `--trace summary` (print a per-span aggregate table on
//! stderr). Either flag turns the span recorder on for the whole
//! command; without them tracing stays disabled and costs one atomic
//! load per instrumentation point. Tracing also unlocks the
//! `% timing: …` annotation on open replies and script query replies.
//!
//! `check` runs the `datalog-analyze` static pass — safety lints,
//! totality certificates, grounding cost estimates against the budget,
//! and reachability lints — without grounding or evaluating anything.
//! The exit status is non-zero exactly when an error-severity lint
//! fires (today: an exact full-mode grounding cost over budget), so CI
//! can gate on it; `--format json` emits the machine-readable report.
//!
//! `serve --strict` makes the server run the same pass on every open:
//! error lints reject the open before preparation is paid for, and the
//! open response carries a `% analysis: …` summary line.
//!
//! `session` holds **one long-lived solver** and streams a mutation
//! script against it (from `--script FILE`, or stdin): `+fact.` inserts,
//! `-fact.` retracts (consecutive mutations batch into one epoch),
//! `? wf` prints the current well-founded model, `?fact.` prints one
//! atom's truth value, `? outcomes [N]` enumerates tie outcomes, and
//! `? stats` reports the session state. Every applied batch prints a
//! `% epoch …` line describing the incremental work (cone size, delta
//! grounding, components retired and added) or the re-prepare fallback.
//! Malformed lines do **not** tear the session down: the error is
//! reported as `! line N: …`, the staged-but-unapplied batch is
//! discarded, and processing continues; the exit status reports whether
//! any line failed.
//!
//! `serve` exposes the same session machinery over TCP: a long-lived
//! process managing many prepared sessions behind an LRU keyed by
//! program + database source, so repeated opens of the same pair skip
//! the ground → close → condense preparation entirely. One poll-based
//! reactor serves every connection from a fixed set of threads; script
//! frames against one session run one at a time in arrival order, and
//! concurrent readers share each evaluation through the session's read
//! memo. `--max-idle-secs N` sets the idle-connection reaping deadline
//! (0 disables).
//! `client` drives a served session with the same script language (and
//! `--shutdown` stops the server); `--concurrency N --repeat K` turns
//! it into a load generator that opens N concurrent connections and
//! streams the script K times on each, reporting aggregate throughput.
//! See the `tiebreak-server` crate docs for the wire protocol.
//!
//! Every command that grounds accepts `--ground-mode full|relevant`:
//! `relevant` (the production default) builds the join-based relevant
//! grounding; `full` builds the paper-literal *G(Π, Δ)* — same
//! post-`close` semantics, `relevant` is far smaller on large databases.
//!
//! `run` (`wf|tb|pure-tb`), `explain` and `outcomes` evaluate on one
//! `tiebreak-runtime` session solver, the same evaluator `session` and
//! `serve` use: it grounds, closes and condenses once, walks the
//! condensation once in topological order on one thread, and forks each
//! `outcomes` tie script copy-on-write off the shared post-close state.
//! `--policy random` draws one stream, seeded by `--seed`, in that
//! order. `--threads 1` is accepted and changes nothing (the `perfbench`
//! harness passes it); any other value is rejected.
//!
//! Each command accepts only the `--semantics` values it can run (`run`:
//! `wf|tb|pure-tb|stratified`; `explain`: `wf|tb`; `outcomes`,
//! `session`, `serve`: `tb|pure-tb`) and rejects any other value.
//!
//! Programs use `head(X) :- body(X), not other(X).` syntax; database files
//! contain ground facts only.

use std::process::ExitCode;

use tiebreak_core::semantics::{RandomPolicy, TiePolicy};
use tiebreak_core::{Engine, EngineConfig, GroundMode};
use tiebreak_runtime::{reply, Solver};
use tiebreak_server::{Client, LineOutcome, RegistryConfig, ScriptSession, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  datalog analyze <program.dl>\n  datalog check <program.dl> [db.dl] [--format text|json]\n  datalog run <program.dl> [db.dl] [--semantics wf|tb|pure-tb|stratified] [--policy root-true|root-false|random] [--seed N]\n  datalog models <program.dl> [db.dl] [--stable] [--limit N]\n  datalog ground <program.dl> [db.dl]\n  datalog explain <program.dl> [db.dl] --atom \"win(a)\" [--semantics wf|tb] [--policy root-true|root-false|random] [--seed N]\n  datalog outcomes <program.dl> [db.dl] [--semantics tb|pure-tb] [--limit N]\n  datalog totality <program.dl> [--nonuniform]\n  datalog session <program.dl> [db.dl] [--script FILE] [--semantics tb|pure-tb]\n  datalog serve [--addr HOST:PORT] [--semantics tb|pure-tb] [--max-sessions N] [--max-resident-atoms N] [--strict] [--max-idle-secs N]\n  datalog client <program.dl> [db.dl] --addr HOST:PORT [--script FILE] [--concurrency N] [--repeat K]\n  datalog client --addr HOST:PORT --stats | --metrics | --shutdown\n\nGrounding commands also accept --ground-mode full|relevant (default: relevant).\nrun/outcomes/session/serve accept --trace-out FILE (chrome://tracing JSON) and\n--trace summary (aggregate span table on stderr); either enables the recorder.\nrun/explain/outcomes/session/serve evaluate on the session runtime, one thread,\none walk in topological order.\nsession scripts: '+fact.' insert, '-fact.' retract, '? wf', '?fact.',\n'? outcomes [N]', '? stats', '#' comments; reads stdin without --script.\nserve listens for client connections and keeps prepared sessions resident\nbehind an LRU; client opens (or reuses) a server-side session and streams a\nscript against it.\ncheck exits non-zero exactly when an error-severity lint fires; serve --strict\nruns the same analysis on every open and rejects error lints before preparing."
        .to_owned()
}

#[derive(Debug)]
struct Options {
    files: Vec<String>,
    semantics: String,
    policy: String,
    seed: u64,
    stable: bool,
    limit: usize,
    atom: Option<String>,
    nonuniform: bool,
    ground_mode: GroundMode,
    script: Option<String>,
    addr: Option<String>,
    max_sessions: usize,
    max_resident_atoms: u64,
    shutdown: bool,
    format: String,
    strict: bool,
    trace_out: Option<String>,
    trace_summary: bool,
    stats: bool,
    metrics: bool,
    max_idle_secs: u64,
    concurrency: usize,
    repeat: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        semantics: "tb".to_owned(),
        policy: "root-true".to_owned(),
        seed: 0,
        stable: false,
        limit: 0,
        atom: None,
        nonuniform: false,
        ground_mode: GroundMode::Relevant,
        script: None,
        addr: None,
        max_sessions: 0,
        max_resident_atoms: 0,
        shutdown: false,
        format: "text".to_owned(),
        strict: false,
        trace_out: None,
        trace_summary: false,
        stats: false,
        metrics: false,
        max_idle_secs: tiebreak_server::DEFAULT_MAX_IDLE_SECS,
        concurrency: 1,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--semantics" => {
                opts.semantics = it.next().ok_or("--semantics needs a value")?.clone();
            }
            "--policy" => {
                opts.policy = it.next().ok_or("--policy needs a value")?.clone();
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--limit" => {
                opts.limit = it
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|e| format!("bad limit: {e}"))?;
            }
            "--stable" => opts.stable = true,
            "--nonuniform" => opts.nonuniform = true,
            "--atom" => {
                opts.atom = Some(it.next().ok_or("--atom needs a value")?.clone());
            }
            "--ground-mode" => {
                opts.ground_mode = match it.next().ok_or("--ground-mode needs a value")?.as_str() {
                    "full" => GroundMode::Full,
                    "relevant" => GroundMode::Relevant,
                    other => return Err(format!("unknown ground mode {other} (full|relevant)")),
                };
            }
            // A no-op only `perfbench` passes;
            // goes with ROADMAP item 1's benchmark cleanup.
            "--threads" => match it.next().ok_or("--threads needs a value")?.as_str() {
                "1" => {}
                other => {
                    return Err(format!(
                        "bad thread count {other:?}: evaluation runs on one thread"
                    ))
                }
            },
            "--script" => {
                opts.script = Some(it.next().ok_or("--script needs a file path")?.clone());
            }
            "--addr" => {
                opts.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone());
            }
            "--max-sessions" => {
                opts.max_sessions = it
                    .next()
                    .ok_or("--max-sessions needs a value")?
                    .parse()
                    .map_err(|e| format!("bad session cap: {e}"))?;
            }
            "--max-resident-atoms" => {
                opts.max_resident_atoms = it
                    .next()
                    .ok_or("--max-resident-atoms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad resident-atom budget: {e}"))?;
            }
            "--shutdown" => opts.shutdown = true,
            "--strict" => opts.strict = true,
            "--max-idle-secs" => {
                opts.max_idle_secs = it
                    .next()
                    .ok_or("--max-idle-secs needs a value (0 disables reaping)")?
                    .parse()
                    .map_err(|e| format!("bad idle deadline: {e}"))?;
            }
            "--concurrency" => {
                let n: usize = it
                    .next()
                    .ok_or("--concurrency needs a value")?
                    .parse()
                    .map_err(|e| format!("bad concurrency: {e}"))?;
                if n == 0 {
                    return Err("bad concurrency 0: need at least one connection".to_owned());
                }
                opts.concurrency = n;
            }
            "--repeat" => {
                let n: usize = it
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|e| format!("bad repeat count: {e}"))?;
                if n == 0 {
                    return Err("bad repeat count 0: need at least one round".to_owned());
                }
                opts.repeat = n;
            }
            "--stats" => opts.stats = true,
            "--metrics" => opts.metrics = true,
            "--trace-out" => {
                opts.trace_out = Some(it.next().ok_or("--trace-out needs a file path")?.clone());
            }
            "--trace" => match it.next().ok_or("--trace needs a value (summary)")?.as_str() {
                "summary" => opts.trace_summary = true,
                other => return Err(format!("unknown trace mode {other} (summary)")),
            },
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                match value.as_str() {
                    "text" | "json" => opts.format = value.clone(),
                    other => return Err(format!("unknown format {other} (text|json)")),
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    Ok(opts)
}

fn engine_config(opts: &Options) -> EngineConfig {
    EngineConfig::default().with_ground_mode(opts.ground_mode)
}

/// Reads the program and (optional) database sources named in `opts`.
fn load_sources(opts: &Options) -> Result<(String, String), String> {
    let program_path = opts.files.first().ok_or_else(usage)?;
    let program_src = std::fs::read_to_string(program_path)
        .map_err(|e| format!("cannot read {program_path}: {e}"))?;
    let db_src = match opts.files.get(1) {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => String::new(),
    };
    Ok((program_src, db_src))
}

fn load_engine(opts: &Options) -> Result<Engine, String> {
    let (program_src, db_src) = load_sources(opts)?;
    Engine::from_sources(&program_src, &db_src)
        .map(|e| e.with_config(engine_config(opts)))
        .map_err(|e| e.to_string())
}

/// Builds the session solver every evaluating command runs on (parsing
/// the sources directly — no intermediate `Engine` to clone out of).
fn load_solver(opts: &Options) -> Result<Solver, String> {
    let (program_src, db_src) = load_sources(opts)?;
    let program = datalog_ast::parse_program(&program_src).map_err(|e| e.to_string())?;
    let database = datalog_ast::parse_database(&db_src).map_err(|e| e.to_string())?;
    Solver::with_config(program, database, engine_config(opts)).map_err(|e| e.to_string())
}

/// The tie-breaking flavours `outcomes`, `session` and `serve` run.
const TIE_BREAKING: &[&str] = &["tb", "pure-tb"];

/// Returns `--semantics` (default `tb`) if `command` can run it, and
/// otherwise an error naming the values it accepts.
fn semantics<'a>(opts: &'a Options, command: &str, accepted: &[&str]) -> Result<&'a str, String> {
    if accepted.contains(&opts.semantics.as_str()) {
        Ok(&opts.semantics)
    } else {
        Err(format!(
            "unknown semantics {} for {command} ({})",
            opts.semantics,
            accepted.join("|")
        ))
    }
}

/// `--policy` with its `--seed`: the one tie policy of a run, which
/// meets the ties in the condensation's topological order. `random`
/// draws one stream seeded by `--seed`.
enum Policy {
    /// `root-true` / `root-false`.
    RootSide(bool),
    /// `random`: one stream seeded by `--seed`.
    Random(RandomPolicy),
}

impl Policy {
    fn from_options(opts: &Options) -> Result<Self, String> {
        match opts.policy.as_str() {
            "root-true" => Ok(Policy::RootSide(true)),
            "root-false" => Ok(Policy::RootSide(false)),
            "random" => Ok(Policy::Random(RandomPolicy::seeded(opts.seed))),
            other => Err(format!(
                "unknown policy {other} (root-true|root-false|random)"
            )),
        }
    }
}

impl TiePolicy for Policy {
    fn choose_root_side_true(&mut self, view: &tiebreak_core::TieView<'_>) -> bool {
        match self {
            Policy::RootSide(root_true) => *root_true,
            Policy::Random(policy) => policy.choose_root_side_true(view),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let opts = parse_options(&args[1..])?;

    let tracing = opts.trace_out.is_some() || opts.trace_summary;
    let dropped = || tiebreak_trace::metrics().trace_events_dropped.get();
    let dropped_before = dropped();
    if tracing {
        tiebreak_trace::set_enabled(true);
    }
    let result = dispatch(command, &opts);
    if tracing {
        // Command failures still export whatever was recorded — a trace
        // of the failing run is exactly what you want to look at.
        let lost = dropped() - dropped_before;
        let mut trace = tiebreak_trace::Trace::from_events(tiebreak_trace::drain());
        trace.dropped = lost;
        let mut export_err = None;
        if let Some(path) = &opts.trace_out {
            match std::fs::write(path, trace.to_chrome_json()) {
                Ok(()) => eprintln!("% trace: {} event(s) written to {path}", trace.events.len()),
                Err(e) => export_err = Some(format!("cannot write trace to {path}: {e}")),
            }
        }
        if opts.trace_summary {
            eprintln!("{}", trace.summary());
            // A full thread ring drops its oldest events: say so, or
            // the table silently undercounts.
            if lost > 0 {
                eprintln!("% trace: {lost} event(s) dropped (thread ring full)");
            }
        }
        if let Some(e) = export_err {
            return Err(match result {
                Ok(()) => e,
                Err(first) => format!("{first}\n{e}"),
            });
        }
    }
    result
}

fn dispatch(command: &str, opts: &Options) -> Result<(), String> {
    match command {
        "analyze" => {
            let engine = load_engine(opts)?;
            let report = engine.analyze().map_err(|e| e.to_string())?;
            print!("{report}");
            Ok(())
        }
        "check" => {
            let (program_src, db_src) = load_sources(opts)?;
            let program = datalog_ast::parse_program(&program_src).map_err(|e| e.to_string())?;
            let database = match opts.files.get(1) {
                Some(_) => Some(datalog_ast::parse_database(&db_src).map_err(|e| e.to_string())?),
                None => None,
            };
            let config = datalog_analyze::AnalyzeConfig::for_ground(datalog_ground::GroundConfig {
                mode: opts.ground_mode,
                ..datalog_ground::GroundConfig::default()
            });
            let report = datalog_analyze::analyze(&program, database.as_ref(), &config);
            if opts.format == "json" {
                println!("{}", report.to_json());
            } else {
                print!("{report}");
                println!("% {}", report.summary());
            }
            if report.has_errors() {
                return Err(format!("{} error-level lint(s)", report.error_count()));
            }
            Ok(())
        }
        "run" => {
            let semantics = semantics(opts, "run", &["wf", "tb", "pure-tb", "stratified"])?;
            let mut policy = Policy::from_options(opts)?;
            if semantics == "stratified" {
                let engine = load_engine(opts)?;
                let run = engine.stratified().map_err(|e| e.to_string())?;
                for fact in run.true_atoms() {
                    println!("{fact}.");
                }
                return Ok(());
            }
            let prepare = tiebreak_trace::span("run", "prepare", &[]);
            let solver = load_solver(opts)?;
            drop(prepare);
            let run = match semantics {
                "wf" => solver.well_founded_run(),
                "pure-tb" => solver.pure_tie_breaking_run(&mut policy),
                _ => solver.well_founded_tie_breaking_run(&mut policy),
            }
            .map_err(|e| e.to_string())?;
            let mut facts = Vec::new();
            reply::write_true_facts(&mut facts, solver.graph().atoms(), &run.model, None)
                .expect("no cap");
            write_stdout(&facts)?;
            if !run.total {
                eprintln!(
                    "{}",
                    reply::partial_model_line(run.model.undefined_atoms().count())
                );
            }
            eprintln!(
                "% ties broken: {}, unfounded rounds: {}",
                run.stats.ties_broken, run.stats.unfounded_rounds
            );
            // The process exits next and its output is flushed: skip
            // the destructors, which cost several milliseconds freeing
            // a large instance's arenas that exit reclaims anyway.
            let _drop = tiebreak_trace::span("run", "drop", &[]);
            std::mem::forget((run, solver));
            Ok(())
        }
        "models" => {
            let engine = load_engine(opts)?;
            let models = if opts.stable {
                engine.stable_models().map_err(|e| e.to_string())?
            } else {
                engine.fixpoints().map_err(|e| e.to_string())?
            };
            let shown = if opts.limit == 0 {
                models.len()
            } else {
                opts.limit.min(models.len())
            };
            for (i, model) in models.iter().take(shown).enumerate() {
                println!("% model {} of {}:", i + 1, models.len());
                for fact in model {
                    println!("{fact}.");
                }
            }
            if models.is_empty() {
                println!(
                    "% no {} exist",
                    if opts.stable {
                        "stable models"
                    } else {
                        "fixpoints"
                    }
                );
            }
            Ok(())
        }
        "ground" => {
            let engine = load_engine(opts)?;
            let graph = engine.ground().map_err(|e| e.to_string())?;
            println!(
                "% {} ground atoms, {} rule nodes, {} edges",
                graph.atom_count(),
                graph.rule_count(),
                graph.edge_count()
            );
            for i in 0..graph.rule_count() {
                println!(
                    "{}",
                    graph.describe_rule(engine.program(), datalog_ground::RuleId(i as u32))
                );
            }
            Ok(())
        }
        "explain" => {
            let semantics = semantics(opts, "explain", &["wf", "tb"])?;
            let mut policy = Policy::from_options(opts)?;
            let atom_src = opts
                .atom
                .clone()
                .ok_or("explain needs --atom \"pred(c1, ...)\"")?;
            let parsed = datalog_ast::parse_program(&format!("{atom_src}."))
                .map_err(|e| format!("bad --atom: {e}"))?;
            let ground_atom = parsed
                .rules()
                .first()
                .and_then(|r| r.head.to_ground())
                .ok_or("--atom must be a single ground atom")?;
            // The solver's prepared graph carries the atom space its
            // model is indexed by; `tb` justifies the model `run` prints
            // under the same `--policy` and `--seed`.
            let solver = load_solver(opts)?;
            let run = if semantics == "tb" {
                solver.well_founded_tie_breaking_run(&mut policy)
            } else {
                solver.well_founded_run()
            }
            .map_err(|e| e.to_string())?;
            print_explanation(
                solver.graph(),
                solver.program(),
                solver.database(),
                &run.model,
                &ground_atom,
            )
        }
        "outcomes" => {
            let pure = semantics(opts, "outcomes", TIE_BREAKING)? == "pure-tb";
            let max_runs = if opts.limit == 0 { 256 } else { opts.limit };
            let solver = load_solver(opts)?;
            let set = solver
                .all_outcomes(pure, max_runs)
                .map_err(|e| e.to_string())?;
            let outcomes =
                reply::render_outcomes(solver.graph().atoms(), &set, None).expect("no cap");
            write_stdout(&outcomes)
        }
        "totality" => {
            let engine = load_engine(opts)?;
            let report = tiebreak_core::analysis::propositional_totality(
                engine.program(),
                opts.nonuniform,
                &tiebreak_core::analysis::TotalityConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            println!(
                "total ({}): {} ({} databases checked)",
                if opts.nonuniform {
                    "nonuniform"
                } else {
                    "uniform"
                },
                report.total,
                report.databases_checked
            );
            if let Some(cex) = report.counterexample {
                println!("counterexample database (no fixpoint):");
                print!("{cex}");
            }
            Ok(())
        }
        "session" => {
            let pure = semantics(opts, "session", TIE_BREAKING)? == "pure-tb";
            let solver = load_solver(opts)?;
            match &opts.script {
                Some(path) => {
                    let script = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    run_session_lines(solver, script.lines().map(|l| Ok(l.to_owned())), pure)
                }
                None => {
                    // Line-streamed so the session can be driven
                    // request/response over a pipe (or interactively):
                    // each line is processed — and its answer flushed —
                    // before the next read blocks.
                    use std::io::BufRead as _;
                    let stdin = std::io::stdin();
                    run_session_lines(
                        solver,
                        stdin
                            .lock()
                            .lines()
                            .map(|l| l.map_err(|e| format!("cannot read stdin: {e}"))),
                        pure,
                    )
                }
            }
        }
        "serve" => run_serve(opts),
        "client" => run_client(opts),
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

/// Streams mutation-script lines against one long-lived [`Solver`]
/// through the shared [`ScriptSession`] interpreter, writing through one
/// buffer and flushing it after every processed line, so a process on
/// the other end of a pipe gets each answer before the next read blocks
/// and a reply costs a few write calls, not one per fact.
///
/// A malformed line does not tear the session down: the interpreter
/// reports `! line N: …` on stdout, discards the staged batch, and
/// keeps going. The exit status still reflects whether anything failed.
fn run_session_lines(
    solver: Solver,
    lines: impl Iterator<Item = Result<String, String>>,
    pure: bool,
) -> Result<(), String> {
    use std::io::Write as _;

    let mut session = ScriptSession::new(solver, pure);
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    let stdout_err = |e: std::io::Error| format!("cannot write stdout: {e}");
    let mut errors = 0usize;
    let mut first_error: Option<usize> = None;
    for (idx, raw) in lines.enumerate() {
        let raw = raw?;
        let lineno = idx + 1;
        let outcome = session
            .process_line(lineno, &raw, &mut stdout)
            .map_err(stdout_err)?;
        if outcome == LineOutcome::Error {
            errors += 1;
            first_error.get_or_insert(lineno);
        }
        stdout.flush().map_err(stdout_err)?;
    }
    if session.finish(&mut stdout).map_err(stdout_err)? == LineOutcome::Error {
        errors += 1;
    }
    stdout.flush().map_err(stdout_err)?;
    match (errors, first_error) {
        (0, _) => Ok(()),
        (n, Some(line)) => Err(format!(
            "session completed with {n} script error(s), first at line {line}"
        )),
        (n, None) => Err(format!(
            "session completed with {n} script error(s) in the final batch"
        )),
    }
}

/// `datalog serve`: a long-lived multi-session server over the LRU
/// session registry.
fn run_serve(opts: &Options) -> Result<(), String> {
    use std::io::Write as _;

    let pure = semantics(opts, "serve", TIE_BREAKING)? == "pure-tb";
    let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:4545");
    let mut registry = RegistryConfig {
        engine: engine_config(opts),
        strict: opts.strict,
        pure,
        ..RegistryConfig::default()
    };
    if opts.max_sessions > 0 {
        registry.max_sessions = opts.max_sessions;
    }
    if opts.max_resident_atoms > 0 {
        registry.max_resident_atoms = opts.max_resident_atoms;
    }
    let server = Server::bind(
        addr,
        ServerConfig {
            registry,
            max_frame_bytes: 0,
            max_idle_secs: opts.max_idle_secs,
            workers: 0,
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "listening on {}",
        server.local_addr().map_err(|e| e.to_string())?
    );
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// `datalog client`: opens (or reuses) a server-side session and
/// streams a script against it; `--shutdown` stops the server instead.
fn run_client(opts: &Options) -> Result<(), String> {
    let addr = opts
        .addr
        .as_deref()
        .ok_or("client needs --addr HOST:PORT")?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if opts.shutdown {
        let response = client.shutdown().map_err(|e| e.to_string())?;
        println!("% {}", response.status);
        return Ok(());
    }
    if opts.stats {
        let response = client.stats().map_err(|e| e.to_string())?;
        println!("% {}", response.status);
        // Per-session breakdown (and, with a session open on this
        // connection, the thread-pool line) rides in the body.
        if !response.body.is_empty() {
            println!("{}", response.body);
        }
        let _ = client.bye();
        return Ok(());
    }
    if opts.metrics {
        let response = client.metrics().map_err(|e| e.to_string())?;
        print!("{}", response.body);
        let _ = client.bye();
        return Ok(());
    }
    let (program_src, db_src) = load_sources(opts)?;
    let script = match &opts.script {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    if opts.concurrency > 1 || opts.repeat > 1 {
        // Load-generator mode: this connection only probed the server;
        // the generator opens its own.
        let _ = client.bye();
        return run_load(opts, addr, &program_src, &db_src, &script);
    }
    let response = client
        .open(&program_src, &db_src)
        .map_err(|e| e.to_string())?;
    println!("% {}", response.status);
    // The body carries server-side annotations (e.g. the `--strict`
    // analysis summary) — show them.
    if !response.body.is_empty() {
        println!("{}", response.body);
    }
    let response = client.script(&script).map_err(|e| e.to_string())?;
    print!("{}", response.body);
    let _ = client.bye();
    let errors: usize = response
        .status
        .strip_prefix("errors=")
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if errors > 0 {
        return Err(format!("server reported {errors} script error(s)"));
    }
    Ok(())
}

/// `datalog client --concurrency N --repeat K`: a built-in load
/// generator. N connections open the same session concurrently and
/// each streams the script K times; per-script bodies are discarded
/// and one summary line reports aggregate throughput, so the bench and
/// smoke jobs can drive real concurrent connections without ad-hoc
/// shell scaffolding. Exits non-zero if any connection fails or any
/// script line errors.
fn run_load(
    opts: &Options,
    addr: &str,
    program_src: &str,
    db_src: &str,
    script: &str,
) -> Result<(), String> {
    let conns = opts.concurrency;
    let repeat = opts.repeat;
    let started = std::time::Instant::now();
    let results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || -> Result<usize, String> {
                    let mut client = Client::connect(addr)
                        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                    client
                        .open(program_src, db_src)
                        .map_err(|e| format!("open failed: {e}"))?;
                    let mut errors = 0usize;
                    for _ in 0..repeat {
                        let response = client
                            .script(script)
                            .map_err(|e| format!("script failed: {e}"))?;
                        errors += response
                            .status
                            .strip_prefix("errors=")
                            .and_then(|s| s.split_whitespace().next())
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or(0);
                    }
                    let _ = client.bye();
                    Ok(errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let wall = started.elapsed();
    let mut failures = Vec::new();
    let mut script_errors = 0usize;
    for result in results {
        match result {
            Ok(errors) => script_errors += errors,
            Err(e) => failures.push(e),
        }
    }
    let scripts = conns * repeat;
    let per_sec = if wall.as_secs_f64() > 0.0 {
        scripts as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "% load: concurrency={conns} repeat={repeat} scripts={scripts} wall_ms={:.1} \
         scripts_per_sec={per_sec:.0} script_errors={script_errors} failed_connections={}",
        wall.as_secs_f64() * 1e3,
        failures.len(),
    );
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} of {conns} connection(s) failed, first: {first}",
            failures.len()
        ));
    }
    if script_errors > 0 {
        return Err(format!("server reported {script_errors} script error(s)"));
    }
    Ok(())
}

/// Writes rendered output to stdout in one buffered write.
fn write_stdout(bytes: &[u8]) -> Result<(), String> {
    use std::io::Write as _;

    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(bytes)
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("cannot write stdout: {e}"))
}

/// Justifies and renders one atom against a computed model.
fn print_explanation(
    graph: &datalog_ground::GroundGraph,
    program: &datalog_ast::Program,
    database: &datalog_ast::Database,
    model: &datalog_ground::PartialModel,
    ground_atom: &datalog_ast::GroundAtom,
) -> Result<(), String> {
    let id = graph
        .atoms()
        .id_of(ground_atom)
        .ok_or_else(|| format!("atom {ground_atom} is not in the ground atom space"))?;
    let justification = tiebreak_core::analysis::justify(graph, database, model, id);
    println!(
        "{}",
        tiebreak_core::analysis::explain::render(graph, program, model, id, &justification)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing() {
        let args: Vec<String> = [
            "prog.dl",
            "db.dl",
            "--semantics",
            "wf",
            "--seed",
            "7",
            "--stable",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.files, vec!["prog.dl", "db.dl"]);
        assert_eq!(opts.semantics, "wf");
        assert_eq!(opts.seed, 7);
        assert!(opts.stable);
    }

    #[test]
    fn check_flags_parse() {
        let args: Vec<String> = ["prog.dl", "db.dl", "--format", "json", "--strict"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.format, "json");
        assert!(opts.strict);
    }

    #[test]
    fn bad_format_rejected() {
        let args: Vec<String> = ["--format", "yaml"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let err = parse_options(&args).unwrap_err();
        assert!(err.contains("unknown format"));
    }

    #[test]
    fn unknown_flag_rejected() {
        let args = vec!["--bogus".to_owned()];
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let args: Vec<String> = ["prog.dl", "--trace-out", "trace.json", "--trace", "summary"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert!(opts.trace_summary);
    }

    #[test]
    fn bad_trace_mode_rejected() {
        let args: Vec<String> = ["--trace", "everything"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let err = parse_options(&args).unwrap_err();
        assert!(err.contains("unknown trace mode"));
    }

    #[test]
    fn client_stats_and_metrics_flags_parse() {
        let args: Vec<String> = ["--addr", "127.0.0.1:4545", "--stats", "--metrics"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let opts = parse_options(&args).unwrap();
        assert!(opts.stats);
        assert!(opts.metrics);
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:4545"));
    }

    #[test]
    fn idle_flag_parses_and_defaults_to_the_server_constant() {
        let opts = parse_options(&[]).unwrap();
        assert_eq!(opts.max_idle_secs, tiebreak_server::DEFAULT_MAX_IDLE_SECS);
        let args: Vec<String> = ["--max-idle-secs", "45"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(parse_options(&args).unwrap().max_idle_secs, 45);
    }

    #[test]
    fn load_generator_flags_parse() {
        let args: Vec<String> = [
            "prog.dl",
            "--addr",
            "127.0.0.1:4545",
            "--concurrency",
            "32",
            "--repeat",
            "8",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.concurrency, 32);
        assert_eq!(opts.repeat, 8);
    }

    #[test]
    fn zero_concurrency_and_repeat_rejected() {
        let err = parse_options(&["--concurrency".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("at least one connection"));
        let err = parse_options(&["--repeat".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("at least one round"));
    }

    #[test]
    fn missing_command_yields_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("usage"));
    }
}
