//! End-to-end tests of the `datalog` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tiebreak-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

fn datalog(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn analyze_reports_structure() {
    let prog = write_temp("archetype.dl", "p(X) :- not q(X).\nq(X) :- not p(X).");
    let out = datalog(&["analyze", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("stratified:                     false"),
        "{text}"
    );
    assert!(
        text.contains("structurally total (Thm 2):     true"),
        "{text}"
    );
}

#[test]
fn run_well_founded_prints_facts() {
    let prog = write_temp("wm.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("wm_db.dl", "move(a, b).\nmove(b, c).");
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--semantics",
        "wf",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("win(b)."), "{text}");
    assert!(!text.contains("win(a)."), "{text}");
}

#[test]
fn run_tie_breaking_decides_the_draw() {
    let prog = write_temp("draw.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("draw_db.dl", "move(a, b).\nmove(b, a).");
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--semantics",
        "tb",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Exactly one of the two positions wins.
    let wins = text.matches("win(").count();
    assert_eq!(wins, 1, "{text}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ties broken: 1"), "{stderr}");
}

#[test]
fn threads_flag_routes_through_the_session_runtime() {
    let prog = write_temp("rt.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp(
        "rt_db.dl",
        "move(a, b).\nmove(b, a).\nmove(c, d).\nmove(d, c).\nmove(e, f).\nmove(f, g).",
    );

    // `run` prints the same bytes with and without `--threads 1`, the
    // one value the flag accepts.
    let mut outputs = Vec::new();
    for extra in [&[][..], &["--threads", "1"][..]] {
        let mut args = vec![
            "run",
            prog.to_str().unwrap(),
            db.to_str().unwrap(),
            "--semantics",
            "tb",
        ];
        args.extend_from_slice(extra);
        let out = datalog(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert_eq!(outputs[0], outputs[1], "no flag vs --threads 1");

    // `outcomes --threads 1` enumerates the 4 outcomes (2 pockets)
    // through the copy-on-write path.
    let out = datalog(&[
        "outcomes",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--threads",
        "1",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("% 4 distinct outcome(s)"), "{text}");

    // `explain --threads 1` justifies against the session's model.
    let out = datalog(&[
        "explain",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--atom",
        "win(f)",
        "--semantics",
        "wf",
        "--threads",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("win(f)"), "{text}");
}

#[test]
fn stratified_semantics_rejects_threads() {
    let prog = write_temp("strat_t.dl", "t(X, Y) :- e(X, Y).");
    let db = write_temp("strat_t_db.dl", "e(a, b).");
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--semantics",
        "stratified",
        "--threads",
        "2",
    ]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("evaluation runs on one thread"), "{text}");
}

#[test]
fn random_policy_with_threads_is_seed_reproducible() {
    let prog = write_temp("rand_t.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp(
        "rand_t_db.dl",
        "move(a, b).\nmove(b, a).\nmove(c, d).\nmove(d, c).",
    );
    let run = |extra: &[&str]| {
        let mut args = vec![
            "run",
            prog.to_str().unwrap(),
            db.to_str().unwrap(),
            "--policy",
            "random",
            "--seed",
            "7",
        ];
        args.extend_from_slice(extra);
        let out = datalog(&args);
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // One stream per run: same seed ⇒ same choices, and `--threads 1`
    // changes nothing.
    assert_eq!(run(&["--threads", "1"]), run(&["--threads", "1"]));
    assert_eq!(run(&["--threads", "1"]), run(&[]));
}

#[test]
fn bad_threads_value_is_rejected() {
    let prog = write_temp("rt_bad.dl", "p :- not q.\nq :- not p.");
    // Every value but 1 is rejected, on every command that takes it.
    for (command, value) in [
        ("run", "many"),
        ("run", "0"),
        ("outcomes", "2"),
        ("session", "8"),
    ] {
        let out = datalog(&[command, prog.to_str().unwrap(), "--threads", value]);
        assert!(!out.status.success(), "{command} --threads {value}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains(&format!("bad thread count {value:?}")),
            "{text}"
        );
        assert!(text.contains("evaluation runs on one thread"), "{text}");
    }
}

#[test]
fn session_scripts_mutate_and_query() {
    let prog = write_temp("sess.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("sess_db.dl", "move(a, b).\nmove(b, c).");
    let script = write_temp(
        "sess_script.txt",
        "# a long-lived OLTP-style session\n\
         ? win(a)\n\
         + move(c, a).\n\
         ? win(a)\n\
         ? wf\n\
         - move(b, c).\n\
         ? win(b)\n\
         ? stats\n\
         ? outcomes\n",
    );
    let out = datalog(&[
        "session",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Before the cycle closes, a loses (b wins via c); after `move(c, a)`
    // the a→b→c→a cycle is an odd loop: everything undefined.
    assert!(text.contains("win(a): false"), "{text}");
    assert!(text.contains("win(a): undefined"), "{text}");
    assert!(
        text.contains("% partial model: 3 atoms left undefined"),
        "{text}"
    );
    // Each mutation batch reports its epoch and incremental work.
    assert!(text.contains("% epoch 1: +1 -0"), "{text}");
    assert!(text.contains("% epoch 2: +0 -1"), "{text}");
    assert!(text.contains("cone"), "{text}");
    // After retracting move(b, c) the game is the chain c→a→b: b has no
    // moves and loses — the wf model is total again.
    assert!(text.contains("win(b): false"), "{text}");
    assert!(text.contains("% epoch 2 |"), "{text}");
    assert!(text.contains("% 1 distinct outcome(s)"), "{text}");
}

#[test]
fn wf_output_is_in_text_order_in_a_fresh_process() {
    // Parsing the database interns `z` before `a`; the printed model
    // must still list `p(a)` first, in both the one-shot and the session
    // front-end.
    let prog = write_temp("text_order.dl", "q(X) :- p(X).");
    let db = write_temp("text_order_db.dl", "p(z).\np(a).");
    let script = write_temp("text_order_script.txt", "? wf\n");
    let (prog, db) = (prog.to_str().unwrap(), db.to_str().unwrap());
    let run = datalog(&["run", prog, db, "--semantics", "wf"]);
    let session = datalog(&["session", prog, db, "--script", script.to_str().unwrap()]);
    for out in [run, session] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let facts: Vec<&str> = text.lines().filter(|l| l.ends_with(").")).collect();
        assert_eq!(facts, ["p(a).", "p(z).", "q(a).", "q(z)."], "{text}");
    }
}

#[test]
fn outcomes_output_is_in_text_order_in_a_fresh_process() {
    // Parsing the database interns `z` before `a`; every outcome must
    // still list its facts in text order, whichever front-end prints it.
    let prog = write_temp(
        "outcome_order.dl",
        "w(X) :- d(X), not l(X).\nl(X) :- d(X), not w(X).",
    );
    let db = write_temp("outcome_order_db.dl", "d(z).\nd(a).");
    let script = write_temp("outcome_order_script.txt", "? outcomes\n");
    let (prog, db) = (prog.to_str().unwrap(), db.to_str().unwrap());
    let outcomes = datalog(&["outcomes", prog, db]);
    let threaded = datalog(&["outcomes", prog, db, "--threads", "1"]);
    let session = datalog(&["session", prog, db, "--script", script.to_str().unwrap()]);
    for out in [outcomes, threaded, session] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let mut models: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("% outcome "))
            .map(|l| l.split_once(": ").expect("an outcome line").1)
            .collect();
        models.sort_unstable();
        assert_eq!(
            models,
            [
                "{d(a), d(z), l(a), l(z)}",
                "{d(a), d(z), l(a), w(z)}",
                "{d(a), d(z), l(z), w(a)}",
                "{d(a), d(z), w(a), w(z)}",
            ],
            "{text}"
        );
    }
}

#[test]
fn session_survives_garbage_and_keeps_serving() {
    use std::io::Write as _;
    let prog = write_temp("sess2.dl", "p :- not q.\nq :- not p.");
    let mut child = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(["session", prog.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"? outcomes 10\nnot a command\n? outcomes 10\n")
        .expect("writes");
    let out = child.wait_with_output().expect("runs");
    // The bad line is reported in place and the session keeps serving
    // the lines after it; the exit status still records the failure.
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("2 distinct outcome(s)").count(), 2, "{text}");
    assert!(text.contains("! line 2: expected '+fact.'"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("first at line 2"), "{err}");
}

#[test]
fn session_discards_staged_batch_on_malformed_line() {
    let prog = write_temp("sess3.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("sess3_db.dl", "move(a, b).");
    let script = write_temp(
        "sess3_script.txt",
        "+ move(b, a).\nthis line is garbage\n? stats\n? win(a)\n",
    );
    let out = datalog(&[
        "session",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The staged insert preceding the bad line must not be applied by
    // the later query's flush: still epoch 0, and win(a) as in the
    // unmutated game.
    assert!(text.contains("discarded 1 staged mutation(s)"), "{text}");
    assert!(text.contains("% epoch 0 |"), "{text}");
    assert!(text.contains("win(a): true"), "{text}");
}

#[test]
fn serve_and_client_round_trip_with_shutdown() {
    use std::io::{BufRead as _, BufReader};

    let prog = write_temp("srv.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("srv_db.dl", "move(a, b).\nmove(b, c).");
    let script = write_temp("srv_script.txt", "? win(b)\n+ move(c, a).\n? wf\n");

    // Port 0: the OS assigns; the server prints the bound address.
    let mut server = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut first_line = String::new();
    BufReader::new(server.stdout.take().expect("server stdout"))
        .read_line(&mut first_line)
        .expect("server announces its address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening line")
        .to_owned();

    let out = datalog(&[
        "client",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--addr",
        &addr,
        "--script",
        script.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("opened key="), "{text}");
    assert!(text.contains("reused=false"), "{text}");
    assert!(text.contains("win(b): true"), "{text}");
    assert!(text.contains("% epoch 1: +1 -0"), "{text}");

    // Same sources again: the server reuses the prepared session (and
    // its database now carries the first client's mutation).
    let script2 = write_temp("srv_script2.txt", "? stats\n");
    let out = datalog(&[
        "client",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--addr",
        &addr,
        "--script",
        script2.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reused=true"), "{text}");
    assert!(text.contains("% epoch 1 |"), "{text}");

    // Clean shutdown: the serve process exits 0.
    let out = datalog(&["client", "--addr", &addr, "--shutdown"]);
    assert!(out.status.success());
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
}

#[test]
fn models_enumerates_and_flags_stable() {
    let prog = write_temp("pq.dl", "p :- p, not q.\nq :- q, not p.");
    let all = datalog(&["models", prog.to_str().unwrap()]);
    assert!(all.status.success());
    let text = String::from_utf8_lossy(&all.stdout);
    assert!(text.contains("model 1 of 3"), "{text}");

    let stable = datalog(&["models", prog.to_str().unwrap(), "--stable"]);
    let text = String::from_utf8_lossy(&stable.stdout);
    assert!(text.contains("model 1 of 1"), "{text}");
}

#[test]
fn no_fixpoints_is_reported() {
    let prog = write_temp("odd.dl", "p :- not p.");
    let out = datalog(&["models", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no fixpoints exist"), "{text}");
}

#[test]
fn ground_lists_rule_nodes() {
    let prog = write_temp("g.dl", "p(X) :- e(X).");
    let db = write_temp("g_db.dl", "e(a).\ne(b).");
    let out = datalog(&["ground", prog.to_str().unwrap(), db.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 ground atoms, 2 rule nodes"), "{text}");
    assert!(text.contains("r0[X=a]: p(a) :- e(a)"), "{text}");
}

#[test]
fn stratified_semantics_and_errors() {
    let prog = write_temp("tc.dl", "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).");
    let db = write_temp("tc_db.dl", "e(a, b).\ne(b, c).");
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--semantics",
        "stratified",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("t(a, c)."), "{text}");

    // Unstratified program under --semantics stratified: typed error.
    let bad = write_temp("bad.dl", "p :- not p.");
    let out = datalog(&["run", bad.to_str().unwrap(), "--semantics", "stratified"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not applicable"), "{err}");
}

#[test]
fn bad_input_gives_parse_error_with_position() {
    let prog = write_temp("syntax_error.dl", "p(X) :- q(X)\nr(a).");
    let out = datalog(&["analyze", prog.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = datalog(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn explain_justifies_values() {
    let prog = write_temp("ex.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("ex_db.dl", "move(a, b).");
    let out = datalog(&[
        "explain",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--atom",
        "win(a)",
        "--semantics",
        "wf",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("win(a) is true"), "{text}");

    let out = datalog(&[
        "explain",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--atom",
        "win(b)",
        "--semantics",
        "wf",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("win(b) is false"), "{text}");
}

#[test]
fn outcomes_lists_all_orientations() {
    let prog = write_temp("outc.dl", "p :- not q.\nq :- not p.");
    let out = datalog(&["outcomes", prog.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 distinct outcome(s)"), "{text}");
    assert!(text.contains("{p}") && text.contains("{q}"), "{text}");
}

#[test]
fn totality_sweep_with_counterexample() {
    let prog = write_temp("tot.dl", "p :- not p, e.");
    let out = datalog(&["totality", prog.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total (uniform): false"), "{text}");
    assert!(text.contains("e."), "{text}");

    let total_prog = write_temp("tot2.dl", "p :- not q.\nq :- not p.");
    let out = datalog(&["totality", total_prog.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total (uniform): true"), "{text}");
}

#[test]
fn ground_mode_flag_switches_grounders() {
    let prog = write_temp("gm.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("gm_db.dl", "move(a, b).\nmove(b, c).");

    // Full (paper-literal, selected explicitly): |U|² = 9 instances.
    let out = datalog(&[
        "ground",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--ground-mode",
        "full",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("% 12 ground atoms, 9 rule nodes"), "{text}");

    // Relevant (the production default): one instance per move fact.
    let out = datalog(&["ground", prog.to_str().unwrap(), db.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("% 5 ground atoms, 2 rule nodes"), "{text}");

    // Both modes answer `run` identically.
    for mode in ["full", "relevant"] {
        let out = datalog(&[
            "run",
            prog.to_str().unwrap(),
            db.to_str().unwrap(),
            "--semantics",
            "wf",
            "--ground-mode",
            mode,
        ]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("win(b)."), "{mode}: {text}");
        assert!(!text.contains("win(a)."), "{mode}: {text}");
    }

    let out = datalog(&[
        "ground",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--ground-mode",
        "bogus",
    ]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown ground mode"), "{text}");
}

/// The `nondeterministic_choice` example's textual twin: three
/// independent draw pockets, eight outcomes.
fn nondeterministic_choice_dl() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dl/nondeterministic_choice.dl"
    )
    .to_owned()
}

#[test]
fn thread_count_cannot_change_the_bytes() {
    let prog = nondeterministic_choice_dl();
    for command in [
        &[
            "run",
            "--semantics",
            "tb",
            "--policy",
            "random",
            "--seed",
            "3",
        ][..],
        &["outcomes"][..],
        &["outcomes", "--limit", "3"][..],
    ] {
        let mut outputs = Vec::new();
        for threads in [&[][..], &["--threads", "1"][..]] {
            let mut args = vec![command[0], prog.as_str()];
            args.extend_from_slice(&command[1..]);
            args.extend_from_slice(threads);
            let out = datalog(&args);
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            outputs.push(out.stdout);
        }
        assert!(!outputs[0].is_empty(), "{command:?}");
        assert_eq!(
            outputs[0], outputs[1],
            "{command:?}: no flag vs --threads 1"
        );
    }

    // The evaluation-mode switch is gone: the flag is unknown.
    let out = datalog(&["run", prog.as_str(), "--eval-mode", "global"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag --eval-mode"), "{text}");
}

#[test]
fn semantics_values_a_command_cannot_run_are_rejected() {
    let prog = write_temp("sem.dl", "p :- not q.\nq :- not p.");
    let prog = prog.to_str().unwrap();
    for (args, accepted) in [
        (
            &["outcomes", prog, "--semantics", "bogus"][..],
            "(tb|pure-tb)",
        ),
        (&["outcomes", prog, "--semantics", "wf"][..], "(tb|pure-tb)"),
        (
            &["session", prog, "--semantics", "pure_tb"][..],
            "(tb|pure-tb)",
        ),
        (&["serve", "--semantics", "stratified"][..], "(tb|pure-tb)"),
        (
            &["explain", prog, "--atom", "p", "--semantics", "pure-tb"][..],
            "(wf|tb)",
        ),
        (
            &["run", prog, "--semantics", "tie-breaking"][..],
            "(wf|tb|pure-tb|stratified)",
        ),
    ] {
        let out = datalog(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("unknown semantics"), "{args:?}: {text}");
        assert!(text.contains(accepted), "{args:?}: {text}");
    }
}

#[test]
fn explain_justifies_the_model_run_prints_under_the_policy() {
    let prog = write_temp("explain_policy.dl", "p :- not q.\nq :- not p.");
    let prog = prog.to_str().unwrap();
    for (policy, run_prints, p_value) in [
        ("root-true", "p.", "p is true"),
        ("root-false", "q.", "p is false"),
    ] {
        let out = datalog(&["run", prog, "--policy", policy]);
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), run_prints);
        let out = datalog(&["explain", prog, "--atom", "p", "--policy", policy]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(p_value), "{policy}: {text}");
    }
}

#[test]
fn trace_out_writes_a_valid_chrome_trace() {
    let prog = write_temp("tr.dl", "win(X) :- move(X, Y), not win(Y).");
    let db = write_temp("tr_db.dl", "move(a, b).\nmove(b, c).");
    let trace_path = write_temp("tr_trace.json", "");
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("win(b)."), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("% trace:"), "{stderr}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let check = tiebreak_trace::validate_trace_json(&text).expect("exported trace validates");
    assert!(
        check.spans >= 4,
        "expected the pipeline spans, got {check:?}"
    );

    // The summary mode prints a table on stderr without disturbing the
    // fact output on stdout.
    let out = datalog(&[
        "run",
        prog.to_str().unwrap(),
        db.to_str().unwrap(),
        "--trace",
        "summary",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("win(b)."));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ground"), "{stderr}");
    assert!(!stderr.contains("dropped"), "{stderr}");
}

#[test]
fn trace_summary_says_when_the_ring_dropped_events() {
    // One span per query line: 70,000 lines overflow the 2^16-event
    // thread ring, so the summary undercounts and must say so.
    let prog = write_temp("drop.dl", "p :- not q.");
    let script = write_temp("drop_script.txt", &"? p\n".repeat(70_000));
    let out = datalog(&[
        "session",
        prog.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
        "--trace",
        "summary",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let note = stderr
        .lines()
        .find(|l| l.starts_with("% trace: ") && l.ends_with(" event(s) dropped (thread ring full)"))
        .unwrap_or_else(|| panic!("no dropped-events note in {stderr}"));
    let n: u64 = note["% trace: ".len()..]
        .split(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a count");
    assert!(n > 0, "{note}");
}

/// `datalog ground` of one `examples/dl` twin: the instance count line
/// and the rule nodes in emission order.
fn ground_example(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/dl/");
    let out = datalog(&[
        "ground",
        &format!("{dir}{name}.dl"),
        &format!("{dir}{name}_db.dl"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

#[test]
fn ground_prints_rule_nodes_in_emission_order() {
    // Emission walks each relation in its hash-set order, so this pins
    // the rule order (and with it every rule id) of the relevant
    // grounder on the two twins.
    assert_eq!(
        ground_example("win_move"),
        "% 11 ground atoms, 5 rule nodes, 15 edges\n\
         r0[X=b, Y=c]: win(b) :- move(b, c), not win(c)\n\
         r0[X=a, Y=b]: win(a) :- move(a, b), not win(b)\n\
         r0[X=p, Y=q]: win(p) :- move(p, q), not win(q)\n\
         r0[X=t, Y=p]: win(t) :- move(t, p), not win(p)\n\
         r0[X=q, Y=p]: win(q) :- move(q, p), not win(p)\n"
    );
    assert_eq!(
        ground_example("default_reasoning"),
        "% 3 ground atoms, 2 rule nodes, 6 edges\n\
         r0: flies :- bird, not grounded\n\
         r1: grounded :- bird, not flies\n"
    );
}
