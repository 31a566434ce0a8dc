//! Serving benchmark for `datalog serve`.
//!
//! ```text
//! perfbench --workload hot_reads|churn|cold_opens --seed N --seconds S
//!           --trace 0|1 --server PATH --trace-dir DIR [--server-cpu N]
//! ```
//!
//! Starts the server binary at PATH as its own process, drives the
//! workload over one connection, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or, after the same run, a
//! per-layer replay of the same inputs in a fresh process (`--trace 1`).
//! The last line of standard output is one JSON object. See `README.md`.

mod check;
mod e2e;
mod inputs;
mod live;
mod replay;

use std::collections::BTreeMap;
use std::path::PathBuf;

use e2e::{ENUM, MAIN, READ};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    server_cpu: Option<usize>,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).cloned().ok_or(format!("missing {name}"));
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: get("--trace")? == "1",
        server: PathBuf::from(get("--server")?),
        server_cpu: match flags.get("--server-cpu") {
            Some(cpu) => Some(cpu.parse().map_err(|e| format!("bad --server-cpu: {e}"))?),
            None => None,
        },
        trace_dir: PathBuf::from(get("--trace-dir")?),
    })
}

/// Linear-interpolated percentile, `p` in [0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Which end-to-end metric each per-layer metric should move, and where.
/// `main` is `? wf` on hot_reads, writes on churn, opens on cold_opens.
const MOVES: &[(&str, &str)] = &[
    (
        "ast.parse_ms",
        "main_cpu_ms on cold_opens; setup_s on hot_reads, churn",
    ),
    (
        "ground.ground_ms",
        "main_cpu_ms, bench.main_p90_ms on cold_opens; not read_* on hot_reads",
    ),
    ("ground.atoms", "count (ground.ground)"),
    ("ground.rules", "count (ground.ground)"),
    ("ground.close_ms", "main_cpu_ms, bench.main_* on cold_opens"),
    ("ground.residual_atoms", "count (ground.close)"),
    (
        "ground.condense_ms",
        "main_cpu_ms, bench.main_* on cold_opens",
    ),
    ("ground.components", "count (ground.condense)"),
    ("ground.widest_wave", "count (ground.condense)"),
    (
        "runtime.prepare_ms",
        "setup_s on hot_reads, churn; main_cpu_ms on cold_opens",
    ),
    (
        "runtime.wf_run_ms",
        "read_cpu_ms, bench.read_p50_ms, cpu_ms_per_op on hot_reads",
    ),
    (
        "runtime.wf_rerun_ms",
        "main_cpu_ms, bench.main_* on churn; not hot_reads",
    ),
    ("runtime.threads", "count (wf_rerun)"),
    ("runtime.wave_dispatch", "flag (wf_rerun)"),
    ("runtime.apply_ms", "main_cpu_ms, bench.main_* on churn"),
    ("runtime.cone_atoms", "count (apply)"),
    ("runtime.new_rules", "count (apply)"),
    ("runtime.branches_invalidated", "count (apply)"),
    ("runtime.rebuilds", "count (apply), must stay 0"),
    (
        "runtime.decode_ms",
        "main_cpu_ms, bench.main_p50_ms on hot_reads",
    ),
    ("runtime.outcomes_ms", "enumerations (log) on hot_reads"),
    ("runtime.outcome_models", "count (outcomes)"),
    ("server.open_ms", "main_cpu_ms, bench.main_* on cold_opens"),
    ("server.evictions", "count per open"),
    (
        "server.format_ms",
        "main_cpu_ms, bench.main_p50_ms on hot_reads",
    ),
    ("server.format_enum_ms", "enumerations (log) on hot_reads"),
    ("server.wire_ms.read", "bench.read_p50_ms everywhere"),
    ("server.wire_ms.model", "bench.main_p50_ms on hot_reads"),
    ("server.wire_ms.enum", "enumerations (log) on hot_reads"),
    ("server.wire_ms.write", "bench.main_* on churn"),
    ("server.wire_ms.open", "bench.main_* on cold_opens"),
    ("server.response_kb.read", "size guard (4 MiB cap)"),
    ("server.response_kb.model", "size guard (4 MiB cap)"),
    ("server.response_kb.enum", "size guard (4 MiB cap)"),
    ("server.response_kb.write", "size guard (4 MiB cap)"),
    ("server.response_kb.open", "size guard (4 MiB cap)"),
    ("server.ping_ms", "bench.read_p50_ms on hot_reads, churn"),
    (
        "server.batch_size",
        "1.0 everywhere (one request in flight)",
    ),
    (
        "server.hit_ratio",
        "1.0 on hot_reads, churn; 0 on cold_opens",
    ),
    (
        "bench.read_p50_ms",
        "point-read latency (end to end, not gated)",
    ),
    (
        "bench.read_p90_ms",
        "point-read latency (end to end, not gated)",
    ),
    (
        "bench.main_p50_ms",
        "main-class latency (end to end, not gated)",
    ),
    (
        "bench.main_p90_ms",
        "main-class latency (end to end, not gated)",
    ),
    (
        "bench.late_p90_ms",
        "generator lateness; large means the generator is measured",
    ),
    (
        "bench.gap_read_ms",
        "bench.read_p50_ms minus the replayed read frame",
    ),
    (
        "bench.gap_main_ms",
        "bench.main_p50_ms minus the replayed main frame",
    ),
];

fn unit(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.contains("response_kb") {
        "KiB"
    } else if name.ends_with("_ratio") || name.ends_with("batch_size") {
        "1"
    } else {
        "count"
    }
}

/// The per-layer metrics: the replay's, run in a fresh process, and the
/// live and latency figures of the end-to-end run. `main_frame` names
/// the replayed frame class of the workload's main class. Fails if any
/// metric went unmeasured.
fn per_layer(
    args: &Args,
    run: &e2e::E2e,
    main_frame: &str,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let trace_out = args
        .trace_dir
        .join(format!("{}-{}.json", args.workload, args.seed));
    let mut values = replay::replay_in_fresh_process(&args.workload, args.seed, &trace_out)?;
    println!("# per-layer (spans in {})", trace_out.display());
    let replayed = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or(format!("the replay timed no {name}"))
    };
    let (read, main) = (&run.latency_ms[READ], &run.latency_ms[MAIN]);
    let gap_read = percentile(read, 50.0) - replayed("frame.read")?;
    let gap_main = percentile(main, 50.0) - replayed(main_frame)?;
    for (name, value) in [
        ("server.ping_ms", percentile(&run.ping_ms, 50.0)),
        ("server.batch_size", run.batch_size()),
        ("server.hit_ratio", run.hit_ratio()),
        ("bench.read_p50_ms", percentile(read, 50.0)),
        ("bench.read_p90_ms", percentile(read, 90.0)),
        ("bench.main_p50_ms", percentile(main, 50.0)),
        ("bench.main_p90_ms", percentile(main, 90.0)),
        ("bench.late_p90_ms", percentile(&run.late_ms, 90.0)),
        ("bench.gap_read_ms", gap_read),
        ("bench.gap_main_ms", gap_main),
    ] {
        values.insert(name.to_owned(), value);
    }
    MOVES
        .iter()
        .map(|(name, moves)| {
            let value = *values
                .get(*name)
                .ok_or(format!("the traced run measured no {name}"))?;
            println!("#   {name:<30} {value:>12.4} {:<5} -> {moves}", unit(name));
            Ok(((*name).to_owned(), value, unit(name)))
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cfg = e2e::Config {
        bin: &args.server,
        server_cpu: args.server_cpu,
        seed: args.seed,
        seconds: args.seconds,
    };
    let run = match args.workload.as_str() {
        "hot_reads" => e2e::hot_reads(&cfg)?,
        "churn" => e2e::churn(&cfg)?,
        "cold_opens" => e2e::cold_opens(&cfg)?,
        other => return Err(format!("unknown workload {other:?}")),
    };

    let (main_class, main_frame) = match args.workload.as_str() {
        "hot_reads" => ("model reads (? wf)", "frame.model"),
        "churn" => ("read-your-write writes", "frame.write"),
        _ => ("opens", "frame.open"),
    };
    println!(
        "# workload {} seed {} ({} s); main frame class: {main_class}",
        args.workload, args.seed, args.seconds
    );
    for (name, class) in [("read", READ), ("main", MAIN), ("enum", ENUM)] {
        let v = &run.latency_ms[class];
        if !v.is_empty() {
            println!(
                "#   {name:<4} n={:<5} p50={:.3} ms p90={:.3} ms max={:.3} ms server_cpu={:.4} ms/frame",
                v.len(),
                percentile(v, 50.0),
                percentile(v, 90.0),
                percentile(v, 100.0),
                run.cpu_ms(class)
            );
        }
    }
    println!(
        "#   setup_s samples: {:?}",
        run.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    println!(
        "#   cpu_ms_per_op={:.4} ms/frame; share of timed server CPU: read {:.0}%, main {:.0}%, enum {:.0}%",
        run.cpu_ms_per_op(),
        run.cpu_share(READ) * 100.0,
        run.cpu_share(MAIN) * 100.0,
        run.cpu_share(ENUM) * 100.0
    );
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "#   attempted={} failed={} error_rate={error_rate}",
        run.attempted, run.failed
    );
    for p in &run.problems {
        println!("#   FAILED: {p}");
    }
    if let Some(why) = &run.aborted {
        println!("#   ABORTED: {why}");
    }

    // An abandoned run reports no metrics: what it measured stopped
    // at the stall.
    let metrics = if run.aborted.is_some() {
        Vec::new()
    } else if args.trace {
        per_layer(&args, &run, main_frame)?
    } else {
        vec![
            ("setup_s".to_owned(), percentile(&run.setup_s, 50.0), "s"),
            ("read_cpu_ms".to_owned(), run.cpu_ms(READ), "ms"),
            ("main_cpu_ms".to_owned(), run.cpu_ms(MAIN), "ms"),
            ("cpu_ms_per_op".to_owned(), run.cpu_ms_per_op(), "ms"),
            (
                "peak_rss_mb".to_owned(),
                percentile(&run.peak_rss_mb, 50.0),
                "MiB",
            ),
        ]
    };
    let correct = run.failed == 0 && run.aborted.is_none();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay") {
        if let Err(e) = replay::replay_main(&args[1..]) {
            eprintln!("perfbench --replay: {e}");
            std::process::exit(2);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--expect") {
        if let Err(e) = check::expect_main() {
            eprintln!("perfbench --expect: {e}");
            std::process::exit(2);
        }
        return;
    }
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
