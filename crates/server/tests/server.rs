//! End-to-end tests of the serving tier: many concurrent connections,
//! result fidelity against fresh single-session solvers, and hostile
//! input on the wire. The server's reactor runs on unix targets only.

#![cfg(unix)]

use std::net::TcpStream;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tiebreak_runtime::Solver;
use tiebreak_server::{
    read_frame, write_frame, Client, ClientError, LineOutcome, RegistryConfig, ScriptSession,
    Server, ServerConfig, SessionRegistry, WireError, DEFAULT_MAX_FRAME_BYTES,
};

const PROG: &str = "win(X) :- move(X, Y), not win(Y).";

/// Starts a server on an OS-assigned port; returns its address, its
/// registry (for stats assertions), and the run-loop thread handle.
fn start_server(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    Arc<SessionRegistry>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let registry = Arc::clone(server.registry());
    let handle = std::thread::spawn(move || server.run());
    (addr, registry, handle)
}

fn stop_server(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("clean run exit");
}

/// Drives the same script through a fresh single-session solver — the
/// fidelity oracle the served responses must match byte for byte.
fn fresh_solver_output(program: &str, database: &str, lines: &[&str]) -> String {
    let solver = Solver::from_sources(program, database).expect("prepare");
    let mut session = ScriptSession::new(solver, false);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let outcome = session.process_line(i + 1, line, &mut out).expect("sink");
        assert_eq!(outcome, LineOutcome::Ok, "oracle script must be clean");
    }
    assert_eq!(session.finish(&mut out).expect("sink"), LineOutcome::Ok);
    String::from_utf8(out).expect("utf8")
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let (addr, registry, handle) = start_server(ServerConfig::default());

    // Five clients churn disjoint sessions (each mutates its own
    // chain); five more share one tie-pocket session, query-only so the
    // shared state stays deterministic. Ten concurrent connections in
    // flight at once.
    let disjoint: Vec<(String, Vec<String>)> = (0..5)
        .map(|i| {
            let db = format!("move(a{i}, b{i}).\nmove(b{i}, c{i}).");
            let script = vec![
                format!("? win(a{i})"),
                format!("+ move(c{i}, a{i})."),
                "? wf".to_owned(),
                "? stats".to_owned(),
            ];
            (db, script)
        })
        .collect();
    let shared_db = "move(p, q).\nmove(q, p).";
    let shared_script = ["? outcomes 4", "? win(p)", "? stats"];

    let mut expected = Vec::new();
    for (db, script) in &disjoint {
        let lines: Vec<&str> = script.iter().map(String::as_str).collect();
        expected.push(fresh_solver_output(PROG, db, &lines));
    }
    let shared_expected = fresh_solver_output(PROG, shared_db, &shared_script);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for (i, (db, script)) in disjoint.iter().enumerate() {
            let expected = &expected[i];
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let open = client.open(PROG, db).expect("open");
                assert!(open.status.contains("reused=false"), "{}", open.status);
                let response = client.script(&script.join("\n")).expect("script");
                assert_eq!(response.status, "errors=0");
                assert_eq!(&response.body, expected, "disjoint client {i}");
                client.bye().expect("bye");
            }));
        }
        for i in 0..5 {
            let shared_expected = &shared_expected;
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.open(PROG, shared_db).expect("open");
                let response = client.script(&shared_script.join("\n")).expect("script");
                assert_eq!(response.status, "errors=0");
                assert_eq!(&response.body, shared_expected, "shared client {i}");
                client.bye().expect("bye");
            }));
        }
        for worker in workers {
            worker.join().expect("client thread");
        }
    });

    // Six distinct keys were prepared exactly once each; the other four
    // opens of the shared key were registry hits (whether they raced
    // the preparation or arrived after it).
    let stats = registry.stats();
    assert_eq!(stats.sessions, 6, "{stats:?}");
    assert_eq!(stats.misses, 6, "{stats:?}");
    assert_eq!(stats.hits, 4, "{stats:?}");

    stop_server(addr, handle);
}

#[test]
fn malformed_connection_does_not_disturb_others() {
    let (addr, _registry, handle) = start_server(ServerConfig::default());
    let db = "move(a, b).\nmove(b, c).";

    // Client B holds a healthy connection to the same session for the
    // whole test.
    let mut healthy = Client::connect(addr).expect("connect");
    healthy.open(PROG, db).expect("open");

    // Client A misbehaves at every protocol layer.
    let mut hostile = Client::connect(addr).expect("connect");
    hostile.open(PROG, db).expect("open");
    // Unknown verb: in-band error, connection stays up.
    match hostile.call(b"frobnicate") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown verb"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Bad open header.
    match hostile.call(b"open 999999\ntoo short") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("byte length"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Non-UTF-8 request frame.
    match hostile.call(&[0xff, 0xfe, 0x00, 0x80]) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Malformed script lines: reported per line, session survives, and
    // the staged-but-unapplied mutation is discarded.
    let response = hostile
        .script("+ move(c, a).\nutter garbage\n? stats")
        .expect("script");
    assert_eq!(response.status, "errors=1");
    assert!(response.body.contains("! line 2:"), "{}", response.body);
    assert!(
        response.body.contains("discarded 1 staged mutation(s)"),
        "{}",
        response.body
    );
    assert!(response.body.contains("% epoch 0 |"), "{}", response.body);

    // Oversized frame: rejected before allocation, connection closed.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        header.extend_from_slice(b"junk");
        std::io::Write::write_all(&mut raw, &header).expect("write");
        let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
            .expect("error frame")
            .expect("some frame");
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("error"), "{text}");
        assert!(text.contains("exceeds"), "{text}");
        assert!(
            read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
                .expect("clean close")
                .is_none(),
            "server must close a desynchronized connection"
        );
    }
    // Truncated frame: header promises more than the peer sends before
    // hanging up. The server just drops the connection.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        std::io::Write::write_all(&mut raw, &100u32.to_be_bytes()).expect("write");
        std::io::Write::write_all(&mut raw, b"only a little").expect("write");
        drop(raw);
    }

    // Through all of it, the healthy connection answers correctly — and
    // sees none of the hostile client's discarded mutations.
    let expected = fresh_solver_output(PROG, db, &["? win(a)", "? wf"]);
    let response = healthy.script("? win(a)\n? wf").expect("script");
    assert_eq!(response.status, "errors=0");
    assert_eq!(response.body, expected);

    stop_server(addr, handle);
}

#[test]
fn evicted_sessions_reprepare_transparently() {
    let config = ServerConfig {
        registry: RegistryConfig {
            max_sessions: 1,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, registry, handle) = start_server(config);

    let mut client = Client::connect(addr).expect("connect");
    client.open(PROG, "move(a, b).").expect("open a");
    // Opening a second key evicts the first (capacity 1)…
    let open = client.open(PROG, "move(x, y).").expect("open b");
    assert!(open.status.contains("evicted=1"), "{}", open.status);
    // …and the first key's next open transparently re-prepares.
    let open = client.open(PROG, "move(a, b).").expect("reopen a");
    assert!(open.status.contains("reused=false"), "{}", open.status);
    let response = client.script("? win(a)").expect("script");
    assert!(response.body.contains("win(a): true"), "{}", response.body);
    assert!(registry.stats().evictions >= 2, "{:?}", registry.stats());

    stop_server(addr, handle);
}

#[test]
fn fuzzed_frames_never_kill_the_server() {
    let (addr, _registry, handle) = start_server(ServerConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x5eed_f00d);

    let mut client = Client::connect(addr).expect("connect");
    for round in 0..200 {
        let len = rng.gen_range(0..96usize);
        let payload: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    // Mostly printable ASCII with newlines: exercises the
                    // verb parser, not just the UTF-8 check.
                    let c = rng.gen_range(0..64u32);
                    match c {
                        0..=2 => b'\n',
                        3 => b' ',
                        c => b' ' + (c as u8 % 94),
                    }
                } else {
                    (rng.gen::<u32>() & 0xff) as u8
                }
            })
            .collect();
        // Every well-framed request gets exactly one response — ok or
        // in-band error. Disconnections or transport errors fail.
        match client.call(&payload) {
            Ok(_) | Err(ClientError::Server(_)) => {}
            other => panic!("round {round}: server dropped the connection: {other:?}"),
        }
    }
    // The connection (and server) are still healthy.
    let pong = client.ping().expect("ping");
    assert_eq!(pong.status, "pong");

    stop_server(addr, handle);
}

#[test]
fn fuzzed_byte_streams_never_panic_the_frame_parser() {
    let mut rng = SmallRng::seed_from_u64(0xfeed_beef);
    for _ in 0..500 {
        let len = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.gen::<u32>() & 0xff) as u8).collect();
        let mut cursor = std::io::Cursor::new(bytes);
        // Drain the stream through the parser with a small cap: every
        // outcome (frames, oversized, truncation, clean EOF) is fine —
        // the property under test is "no panic, no infinite loop".
        for _ in 0..64 {
            match read_frame(&mut cursor, 64) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(WireError::Oversized { .. } | WireError::Io(_)) => break,
            }
        }
    }
    // Round-trip sanity under the same cap.
    let mut buf = Vec::new();
    write_frame(&mut buf, b"ok").expect("write");
    let mut cursor = std::io::Cursor::new(buf);
    assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"ok");
}

/// Drives `frames` through a fresh single-session solver **with the
/// server's per-frame structure** (process each line, then `finish`,
/// with a line counter that persists across frames) — the oracle for
/// per-response fidelity under concurrent load. Returns one output
/// string per frame.
fn fresh_session_frames(program: &str, database: &str, frames: &[&str]) -> Vec<String> {
    let solver = Solver::from_sources(program, database).expect("prepare");
    let mut session = ScriptSession::new(solver, false);
    let mut lineno = 0usize;
    frames
        .iter()
        .map(|frame| {
            let mut out = Vec::new();
            for line in frame.lines() {
                lineno += 1;
                let outcome = session
                    .process_line(lineno, line, &mut out)
                    .expect("vec sink");
                assert_eq!(outcome, LineOutcome::Ok, "oracle frame must be clean");
            }
            assert_eq!(session.finish(&mut out).expect("vec sink"), LineOutcome::Ok);
            String::from_utf8(out).expect("utf8")
        })
        .collect()
}

/// The fidelity suite: 32 concurrent clients hammer **one** hot
/// session. Thirty-one stream read-only frames, sharing the session's
/// read memo; one interleaves mutating frames, which advance the epoch
/// between reads. Every single response must be bit-identical to what a
/// fresh solver would say — scheduling may never be observable in the
/// bytes. Runs with 1 and 8 dispatch worker threads, so frames of the
/// one session are served both strictly in turn and from many workers.
fn concurrent_reads_and_writes_case(worker_threads: usize) {
    let config = ServerConfig {
        workers: worker_threads,
        ..ServerConfig::default()
    };
    let (addr, _registry, handle) = start_server(config);

    // A 2-cycle: win(p) and win(q) are undefined, and stay undefined
    // while the mutator toggles a disconnected edge move(x9, y9) — so
    // the readers' expected bytes are invariant across epochs.
    let db = "move(p, q).\nmove(q, p).";
    let read_frame_body = "? win(p)\n? win(q)";
    let expected_read = fresh_solver_output(PROG, db, &["? win(p)", "? win(q)"]);

    // The sole mutator's frames are deterministic too: it alone
    // advances the epoch counter, so its `% epoch N | …` lines replay
    // exactly in a fresh session.
    let mutator_frames: Vec<String> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                "+ move(x9, y9).\n? win(x9)".to_owned()
            } else {
                "- move(x9, y9).\n? win(p)".to_owned()
            }
        })
        .collect();
    let mutator_refs: Vec<&str> = mutator_frames.iter().map(String::as_str).collect();
    let expected_mutator = fresh_session_frames(PROG, db, &mutator_refs);

    const READERS: usize = 31;
    const REPEATS: usize = 8;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for reader in 0..READERS {
            let expected_read = &expected_read;
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.open(PROG, db).expect("open");
                for round in 0..REPEATS {
                    let response = client.script(read_frame_body).expect("script");
                    assert_eq!(response.status, "errors=0");
                    assert_eq!(
                        &response.body, expected_read,
                        "reader {reader} round {round} (workers={worker_threads})"
                    );
                }
                client.bye().expect("bye");
            }));
        }
        let expected_mutator = &expected_mutator;
        let mutator_refs = &mutator_refs;
        workers.push(scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.open(PROG, db).expect("open");
            for (i, frame) in mutator_refs.iter().enumerate() {
                let response = client.script(frame).expect("script");
                assert_eq!(response.status, "errors=0");
                assert_eq!(
                    &response.body, &expected_mutator[i],
                    "mutator frame {i} (workers={worker_threads})"
                );
            }
            client.bye().expect("bye");
        }));
        for worker in workers {
            worker.join().expect("client thread");
        }
    });

    stop_server(addr, handle);
}

#[test]
fn concurrent_reads_and_writes_match_a_fresh_solver_threads_1() {
    concurrent_reads_and_writes_case(1);
}

#[test]
fn concurrent_reads_and_writes_match_a_fresh_solver_threads_8() {
    concurrent_reads_and_writes_case(8);
}

/// Two closed-loop connections on one session keep the reactor's worker
/// completions interleaved with its waker drains. A completion notified
/// while the reactor drains the waker must still wake it: a lost wakeup
/// stalls both clients within a few hundred frames, so each must get
/// through 2,000 round trips before the deadline.
#[test]
fn two_closed_loop_connections_never_stall() {
    use std::sync::mpsc;
    use std::time::Duration;

    const FRAMES: usize = 2_000;
    let (addr, _registry, handle) = start_server(ServerConfig::default());
    let db = "move(a, b).\nmove(b, c).";
    let (done_tx, done_rx) = mpsc::channel();
    for conn in 0..2 {
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.open(PROG, db).expect("open");
            for frame in 0..FRAMES {
                let response = client.script("? win(a)").expect("script");
                assert_eq!(response.status, "errors=0", "conn {conn} frame {frame}");
            }
            client.bye().expect("bye");
            done_tx.send(conn).expect("report");
        });
    }
    drop(done_tx);
    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a connection failed or stalled before its last frame");
    }
    stop_server(addr, handle);
}

/// Frames split and coalesced at arbitrary TCP segment boundaries must
/// round-trip: the reactor reads whatever the kernel hands it and the
/// incremental decoder reassembles frames across reads.
#[test]
fn split_and_coalesced_frames_round_trip_over_tcp() {
    use std::io::Write as _;

    let (addr, _registry, handle) = start_server(ServerConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xc0a1e5ce);

    for round in 0..20 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Disable Nagle so each chunk really goes out as its own
        // segment instead of being re-coalesced by the client kernel.
        stream.set_nodelay(true).expect("nodelay");

        // One conversation, three frames: open, a read script, ping.
        let mut wire = Vec::new();
        let mut open = format!("open {}\n", PROG.len()).into_bytes();
        open.extend_from_slice(PROG.as_bytes());
        open.extend_from_slice(b"move(a, b).");
        write_frame(&mut wire, &open).expect("vec");
        write_frame(&mut wire, b"script\n? win(a)").expect("vec");
        write_frame(&mut wire, b"ping").expect("vec");

        // Random chunking: sometimes a byte at a time (frames split
        // mid-header and mid-payload), sometimes everything at once
        // (three frames coalesced into one segment).
        let mut sent = 0usize;
        while sent < wire.len() {
            let n = if rng.gen_bool(0.2) {
                wire.len() - sent
            } else {
                rng.gen_range(1..=7usize).min(wire.len() - sent)
            };
            stream.write_all(&wire[sent..sent + n]).expect("write");
            stream.flush().expect("flush");
            sent += n;
            if rng.gen_bool(0.3) {
                // Give the reactor a chance to observe a partial frame.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }

        let open_reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("read")
            .expect("open reply");
        assert!(
            open_reply.starts_with(b"ok opened"),
            "round {round}: {}",
            String::from_utf8_lossy(&open_reply)
        );
        let script_reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("read")
            .expect("script reply");
        let text = String::from_utf8_lossy(&script_reply);
        assert!(text.starts_with("ok errors=0"), "round {round}: {text}");
        assert!(text.contains("win(a): true"), "round {round}: {text}");
        let pong = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("read")
            .expect("pong");
        assert_eq!(&pong[..], b"ok pong", "round {round}");
    }

    stop_server(addr, handle);
}

/// `max_idle_secs` reaps connections that sit idle with no request in
/// flight; the reap is observable as a clean EOF and a counter bump,
/// and the server keeps serving new connections afterwards.
#[test]
fn idle_connections_are_reaped() {
    use std::time::Duration;

    let config = ServerConfig {
        max_idle_secs: 1,
        ..ServerConfig::default()
    };
    let (addr, _registry, handle) = start_server(config);
    let reaped_before = tiebreak_trace::metrics().conns_reaped.get();

    let mut idle = TcpStream::connect(addr).expect("connect");
    write_frame(&mut idle, b"ping").expect("write");
    let pong = read_frame(&mut idle, DEFAULT_MAX_FRAME_BYTES)
        .expect("read")
        .expect("pong");
    assert_eq!(&pong[..], b"ok pong");

    // Now go quiet. Within the deadline (plus scheduling slack) the
    // server must close the connection from its side: a clean EOF.
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let eof = read_frame(&mut idle, DEFAULT_MAX_FRAME_BYTES).expect("clean close");
    assert!(eof.is_none(), "expected EOF from the reaper, got a frame");
    assert!(
        tiebreak_trace::metrics().conns_reaped.get() > reaped_before,
        "reap counter must grow"
    );

    // The server is still healthy for new arrivals.
    let mut fresh = Client::connect(addr).expect("connect");
    assert_eq!(fresh.ping().expect("ping").status, "pong");

    stop_server(addr, handle);
}

/// Set in the environment of the child process that
/// `accept_errors_back_off_instead_of_spinning` starts from this test
/// binary: it turns `reactor_child_server` into a server.
const CHILD_SERVER_ENV: &str = "TIEBREAK_TEST_CHILD_SERVER";

/// A no-op in a normal run. In the child process started by
/// `accept_errors_back_off_instead_of_spinning`, serves on an
/// OS-assigned port, prints `listening on ADDR`, and runs until a
/// client sends `shutdown`.
#[test]
fn reactor_child_server() {
    use std::io::Write as _;

    if std::env::var_os(CHILD_SERVER_ENV).is_none() {
        return;
    }
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    println!("listening on {}", server.local_addr().expect("addr"));
    std::io::stdout().flush().expect("flush");
    server.run().expect("clean run exit");
}

/// utime + stime of process `pid` in seconds, from `/proc/<pid>/stat`
/// (in clock ticks; the kernel reports them at 100 Hz).
#[cfg(target_os = "linux")]
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name, starting at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Kills and reaps the child server if the test fails before shutting
/// it down.
#[cfg(target_os = "linux")]
struct ChildGuard(std::process::Child);

#[cfg(target_os = "linux")]
impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Out of file descriptors, a failed accept pauses the listener instead
/// of leaving the level-triggered loop spinning on it. The server runs
/// in a child process whose descriptor limit (16) only it sees; 40
/// connections exhaust it.
#[cfg(target_os = "linux")]
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    use std::io::BufRead as _;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    const WINDOW: Duration = Duration::from_secs(3);

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = ChildGuard(
        Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 16; exec \"$0\" --exact reactor_child_server --nocapture --test-threads=1")
        .arg(&exe)
        .env(CHILD_SERVER_ENV, "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
            .spawn()
            .expect("spawn child server"),
    );
    // Kept open until the child exits, so its last output has a reader.
    let mut stdout = std::io::BufReader::new(child.0.stdout.take().expect("piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).expect("child stdout") > 0,
            "child exited before listening"
        );
        // The harness prints `test reactor_child_server ... ` first.
        if let Some((_, addr)) = line.trim().split_once("listening on ") {
            break addr.to_owned();
        }
    };

    let clients: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let before = cpu_seconds(child.0.id());
    std::thread::sleep(WINDOW);
    let used = cpu_seconds(child.0.id()) - before;
    drop(clients);

    // The closed connections free the child's descriptors; the next
    // accept after the pause takes this one.
    let mut client = Client::connect(&addr).expect("connect after the flood");
    let metrics = client.metrics().expect("metrics").body;
    let accept_errors: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tiebreak_accept_errors_total "))
        .expect("accept error counter exported")
        .parse()
        .expect("counter value");
    client.shutdown().expect("shutdown");
    assert!(child.0.wait().expect("child exit").success());

    assert!(
        used < WINDOW.as_secs_f64() / 6.0,
        "server burned {used:.2}s of CPU in a {WINDOW:?} window out of descriptors"
    );
    assert!(accept_errors > 0, "accept errors must be counted");
}

/// Strict mode analyzes each open against the relevant grounding the
/// server runs. A 7-step chained join over a path needs 9^8 ≈ 43M
/// paper-literal rule instances, over every budget; its relevant
/// grounding is a handful of instances, so strict mode admits it and
/// the open carries the analysis summary.
#[test]
fn strict_mode_admits_blowups_the_relevant_grounder_runs() {
    let config = ServerConfig {
        registry: RegistryConfig {
            strict: true,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, registry, handle) = start_server(config);
    let mut client = Client::connect(addr).expect("connect");

    let blowup = "big(A, H) :- e(A, B), e(B, C), e(C, D), e(D, E), e(E, F), e(F, G), e(G, H).";
    let mut db = String::new();
    for i in 0..8 {
        db.push_str(&format!("e(c{}, c{}).\n", i, i + 1));
    }
    let resp = client.open(blowup, &db).expect("strict open admits it");
    assert!(
        resp.body.contains("% analysis: certificate=stratified"),
        "{}",
        resp.body
    );
    let stats = registry.stats();
    assert_eq!(stats.sessions, 1, "{stats:?}");
    assert_eq!(stats.rejected, 0);
    assert!(stats.resident_atoms < 100, "{stats:?}");

    // A benign stratified program on the same connection opens too.
    let resp = client
        .open("reach(X) :- edge(X).", "edge(a).")
        .expect("clean open");
    assert!(
        resp.body.contains("% analysis: certificate=stratified"),
        "{}",
        resp.body
    );

    stop_server(addr, handle);
}

/// A database fact whose arity conflicts with the program is answered
/// with an in-band error instead of taking a worker down: the same
/// connection then serves a valid open, and `shutdown` still ends the
/// server. The opens and the shutdown each run against a deadline, so a
/// wedged server fails the test instead of hanging it.
#[test]
fn conflicting_arity_open_is_answered_in_band() {
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);
    let (addr, registry, handle) = start_server(ServerConfig::default());
    let (tx, rx) = std::sync::mpsc::channel();
    let opens = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let conflicting = client.open(
            "p(X) :- e(X), not q(X).\nq(X) :- e(X), not p(X).",
            "e(a).\nq(a, b).",
        );
        let valid = client.open(PROG, "move(a, b).");
        tx.send((conflicting, valid)).expect("test thread waits");
    });
    let (conflicting, valid) = rx
        .recv_timeout(DEADLINE)
        .expect("both opens answered before the deadline");
    opens.join().expect("client thread");
    match conflicting {
        Err(ClientError::Server(msg)) => assert!(msg.contains("conflicting arities"), "{msg}"),
        other => panic!("expected an in-band arity error, got {other:?}"),
    }
    let valid = valid.expect("the connection keeps serving");
    assert!(valid.status.contains("reused=false"), "{}", valid.status);
    assert_eq!(registry.stats().sessions, 1);

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    let (tx, rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || tx.send(handle.join()).expect("test thread waits"));
    let run = rx
        .recv_timeout(DEADLINE)
        .expect("serve exits before the deadline after shutdown");
    joiner.join().expect("joiner thread");
    run.expect("join").expect("clean run exit");
}

/// A hostile client asks for replies larger than the server's frame
/// cap: one `? outcomes` over the cap, a read-only script of many
/// under-cap queries whose sum is over it, and a mutating one. Each is
/// answered with an in-band error, counted in `request_errors`, and the
/// connection keeps serving.
#[test]
fn over_cap_replies_are_answered_in_band() {
    const CAP: u32 = 2048;
    let (addr, _registry, handle) = start_server(ServerConfig {
        max_frame_bytes: CAP,
        ..ServerConfig::default()
    });
    let db = paper_constructions::generators::braided_tie_chain_db(2, 4).to_string();
    let too_large = |result: Result<_, ClientError>| match result {
        Err(ClientError::Server(msg)) => {
            assert!(msg.starts_with("reply of "), "{msg}");
            assert!(msg.ends_with("exceeds the 2048-byte frame cap"), "{msg}");
        }
        other => panic!("expected an in-band over-cap error, got {other:?}"),
    };
    let mut client = Client::connect(addr).expect("connect");
    client.open(PROG, &db).expect("open");

    // The counter is global to the test process: other tests can only
    // raise it, so the four refusals below raise it by at least four.
    let errors_before = tiebreak_trace::metrics().request_errors.get();
    too_large(client.script("? outcomes 16"));
    // The memo keeps the verdict; the repeat is refused the same way.
    too_large(client.script("? outcomes 16"));

    let wf = client.script("? wf").expect("one ? wf fits");
    assert!(wf.body.len() < CAP as usize / 2, "{}", wf.body.len());
    let many = "? wf\n".repeat(CAP as usize / wf.body.len() + 1);
    too_large(client.script(&many));
    too_large(client.script(&format!("- move(t0a0, t0b0).\n{many}")));
    let refused = tiebreak_trace::metrics().request_errors.get() - errors_before;
    assert!(refused >= 4, "request_errors rose by {refused}");

    // The connection keeps serving, and the batch applied before the
    // over-cap line stayed applied.
    let expected = fresh_solver_output(
        PROG,
        &db,
        &["- move(t0a0, t0b0).", "? win(t0a0)", "? outcomes 2"],
    );
    let expected = expected.split_once('\n').expect("epoch line").1;
    let response = client
        .script("? win(t0a0)\n? outcomes 2")
        .expect("a normal query after the refusals");
    assert_eq!(response.status, "errors=0");
    assert_eq!(response.body, expected);

    stop_server(addr, handle);
}

#[test]
fn interner_gauges_rise_with_each_instance_of_new_names() {
    let (addr, _registry, handle) = start_server(ServerConfig::default());
    let gauges = || {
        let m = tiebreak_trace::metrics();
        (m.interned_symbols.get(), m.interned_bytes.get())
    };
    let mut client = Client::connect(addr).expect("connect");
    let mut before = gauges();
    for tag in ["gauge_first", "gauge_second"] {
        // Two constants no other test interns, each a `{tag}_x` text
        // behind a 4-byte length prefix.
        let db = format!("move({tag}_a, {tag}_b).\nmove({tag}_b, {tag}_a).");
        let open = client.open(PROG, &db).expect("open");
        assert!(open.status.contains("reused=false"), "{}", open.status);
        let after = gauges();
        let text_bytes = 2 * (4 + tag.len() + 2) as u64;
        assert!(
            after.0 >= before.0 + 2,
            "{tag}: symbols {before:?} -> {after:?}"
        );
        assert!(
            after.1 >= before.1 + text_bytes,
            "{tag}: bytes {before:?} -> {after:?}"
        );
        before = after;
    }
    client.bye().expect("bye");
    stop_server(addr, handle);
}
