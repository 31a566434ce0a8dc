//! The server under test as a child process, and the load generator
//! that drives it over the wire protocol on one connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tiebreak_server::{write_frame, FrameDecoder, WireError, DEFAULT_MAX_FRAME_BYTES};

/// How long a frame may stay unanswered before the run is abandoned.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Why a run was abandoned.
pub fn stall_message(waited: Duration, index: usize) -> String {
    format!(
        "frame {index} unanswered after {:.1} s: the server stalled. A lost reactor wakeup \
         (crates/server/src/reactor.rs:332-337 clears Notifier::pending before draining the \
         waker socket) stalls exactly like this",
        waited.as_secs_f64()
    )
}

/// `datalog serve` on an OS-assigned loopback port.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server, pinned to `cpu` through `taskset` when given.
    pub fn start(bin: &Path, cpu: Option<usize>, extra: &[String]) -> Result<Self, String> {
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = cmd
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    /// CPU time of the server's threads so far, in ms, from each
    /// thread's `schedstat` (nanoseconds). Threads that exited are not
    /// counted; with one evaluation thread the server spawns none per
    /// request, so between two samples this is all of its work. Fails
    /// rather than report a reading it could not take.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let entries = std::fs::read_dir(&tasks).map_err(|e| format!("cannot read {tasks}: {e}"))?;
        let (mut ns, mut read) = (0u64, 0);
        for task in entries {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(&path) else {
                continue;
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| format!("bad {}: {stat:?}", path.display()))?;
            read += 1;
        }
        if read == 0 {
            return Err(format!("no thread of {tasks} has a readable schedstat"));
        }
        Ok(ns as f64 / 1e6)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the server to shut down and waits for it; kills it if it
    /// does not exit within a few seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr).and_then(|mut c| c.call(b"shutdown").map(|_| ()));
        let until = Instant::now() + Duration::from_secs(5);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".to_owned())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Reads frames off a socket with a deadline per frame.
struct FrameReader {
    stream: TcpStream,
    decoder: FrameDecoder,
    ready: std::collections::VecDeque<Vec<u8>>,
    buf: Vec<u8>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Result<Self, String> {
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        Ok(FrameReader {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES),
            ready: std::collections::VecDeque::new(),
            buf: vec![0; 256 << 10],
        })
    }

    /// The next frame, or an error once `expired()` says the deadline
    /// passed, the peer hung up, or the frame is over the client's cap.
    fn next(&mut self, expired: impl Fn() -> bool) -> Result<Vec<u8>, String> {
        loop {
            if let Some(frame) = self.ready.pop_front() {
                return Ok(frame);
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    let mut frames = Vec::new();
                    self.decoder
                        .feed(&self.buf[..n], &mut frames)
                        .map_err(|e| match e {
                            WireError::Oversized { len, max } => {
                                format!("reply of {len} bytes is over the {max}-byte client cap")
                            }
                            WireError::Io(e) => e.to_string(),
                        })?;
                    self.ready.extend(frames);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if expired() {
                        return Err("deadline".to_owned());
                    }
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

fn encode(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut bytes, payload).expect("writing to a Vec cannot fail");
    bytes
}

/// A blocking request/response connection (set-up, control verbs and
/// the closed loop of cold_opens).
pub struct Conn {
    writer: TcpStream,
    reader: FrameReader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = FrameReader::new(stream.try_clone().map_err(|e| e.to_string())?)?;
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// One round trip; the reply bytes. Fails past [`DEADLINE`].
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.writer
            .write_all(&encode(payload))
            .map_err(|e| format!("send: {e}"))?;
        let sent = Instant::now();
        self.reader
            .next(|| sent.elapsed() > DEADLINE)
            .map_err(|e| match e.as_str() {
                "deadline" => stall_message(sent.elapsed(), 0),
                _ => e,
            })
    }

    /// Sends `frames` on a fixed schedule (offsets from a common start)
    /// from a writer thread while a reader thread collects the replies,
    /// which arrive in order. Latency is timed from each frame's due
    /// time, so a stall also delays every frame queued behind it.
    pub fn open_loop(&mut self, frames: &[(Duration, Vec<u8>)]) -> OpenLoop {
        let encoded: Vec<Vec<u8>> = frames.iter().map(|(_, p)| encode(p)).collect();
        let start = Instant::now() + Duration::from_millis(20);
        let due: Vec<Instant> = frames.iter().map(|(at, _)| start + *at).collect();
        let killer = self.writer.try_clone();
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        std::thread::scope(|s| {
            let send = s.spawn(|| {
                let mut sent = Vec::with_capacity(encoded.len());
                for (bytes, &at) in encoded.iter().zip(&due) {
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    sent.push(Instant::now());
                    if writer.write_all(bytes).is_err() {
                        break;
                    }
                }
                sent
            });
            let mut replies = Vec::with_capacity(due.len());
            let mut error = None;
            for (i, &at) in due.iter().enumerate() {
                match reader.next(|| at.elapsed() > DEADLINE) {
                    Ok(body) => replies.push((Instant::now(), body)),
                    Err(e) => {
                        error = Some(match e.as_str() {
                            "deadline" => stall_message(at.elapsed(), i),
                            _ => e,
                        });
                        // Unblock a writer stuck on a full socket.
                        if let Ok(k) = &killer {
                            let _ = k.shutdown(Shutdown::Both);
                        }
                        break;
                    }
                }
            }
            let sent = send.join().expect("writer thread panicked");
            OpenLoop {
                latency_ms: replies
                    .iter()
                    .zip(&due)
                    .map(|((got, _), &at)| ms(got.duration_since(at)))
                    .collect(),
                late_ms: sent
                    .iter()
                    .zip(&due)
                    .map(|(sent, &at)| ms(sent.saturating_duration_since(at)))
                    .collect(),
                replies: replies.into_iter().map(|(_, body)| body).collect(),
                error,
            }
        })
    }
}

/// The outcome of one open-loop phase.
pub struct OpenLoop {
    /// Reply bytes, in send order (shorter than the schedule on error).
    pub replies: Vec<Vec<u8>>,
    pub latency_ms: Vec<f64>,
    /// How late the writer sent each frame against its due time.
    pub late_ms: Vec<f64>,
    /// Set when the phase was abandoned (stall, disconnect, over-cap).
    pub error: Option<String>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
