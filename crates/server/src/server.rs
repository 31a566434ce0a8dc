//! The multi-session TCP server.
//!
//! One [`Server`] owns a [`SessionRegistry`] and serves many concurrent
//! connections over one transport: a poll-based event loop (the
//! `reactor` module) in front of a fixed worker pool (the `dispatch`
//! module). Idle connections cost a `pollfd`, not a thread, and are
//! reaped after [`ServerConfig::max_idle_secs`] without frame activity.
//! Every request frame, from every connection, is answered by
//! `handle_request`; `script` frames against an open session wait in
//! that session's FIFO, which one worker drains one frame at a time.
//! The reactor needs raw file descriptors, so on non-unix targets
//! [`Server::run`] fails with [`io::ErrorKind::Unsupported`].
//!
//! Each request is one [wire](crate::wire) frame whose UTF-8 payload
//! starts with a verb line:
//!
//! ```text
//! open <prog_byte_len>\n<program bytes><database bytes>
//! script\n<session-script lines>
//! stats
//! metrics
//! ping
//! bye
//! shutdown
//! ```
//!
//! Every response frame starts with `ok …` or `error …`. A protocol
//! error (unknown verb, bad `open` header, admission denial, malformed
//! script lines, a reply over the frame cap) is reported in-band and
//! the connection **keeps serving** — only transport-level failures
//! (truncated or oversized frames, which desynchronize the stream)
//! close it. One misbehaving client never disturbs the others: its
//! session lives in the shared registry, but the script interpreter
//! discards failed batches and the solver rolls back failed applies, so
//! the entry other connections share stays consistent.
//!
//! `script` frames are transactional per frame: the frame's lines run
//! under the session lock and any trailing staged mutations are flushed
//! before the lock is released. Batches therefore cannot span frames —
//! necessary because the session may be shared with other connections,
//! which must never observe (or accidentally commit) another client's
//! half-staged batch.

use std::io::{self, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;

use tiebreak_runtime::ReplyTooLarge;

use crate::registry::{RegistryConfig, SessionEntry, SessionRegistry};
use crate::wire::DEFAULT_MAX_FRAME_BYTES;

/// Default idle deadline: connections with no frame activity for this
/// many seconds are reaped.
pub const DEFAULT_MAX_IDLE_SECS: u64 = 300;

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Session registry sizing and engine configuration.
    pub registry: RegistryConfig,
    /// Per-frame payload cap (0 = [`DEFAULT_MAX_FRAME_BYTES`]).
    pub max_frame_bytes: u32,
    /// Idle deadline in seconds (0 = never reap).
    pub max_idle_secs: u64,
    /// Worker pool size (0 = auto: the machine's parallelism, clamped
    /// to [2, 8]).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry: RegistryConfig::default(),
            max_frame_bytes: 0,
            max_idle_secs: DEFAULT_MAX_IDLE_SECS,
            workers: 0,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    max_frame: u32,
    max_idle_secs: u64,
    workers: usize,
}

impl Server {
    /// Binds a listener. Use port 0 to let the OS pick (tests).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let max_frame = if config.max_frame_bytes == 0 {
            DEFAULT_MAX_FRAME_BYTES
        } else {
            config.max_frame_bytes
        };
        Ok(Server {
            listener,
            registry: Arc::new(SessionRegistry::new(config.registry).with_reply_cap(max_frame)),
            max_frame,
            max_idle_secs: config.max_idle_secs,
            workers: config.workers,
        })
    }

    /// The bound address (read the OS-assigned port after `bind(…:0)`).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry backing this server (tests and stats).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Accepts and serves connections until a client sends `shutdown`.
    /// Blocks; run it on a dedicated thread if the caller needs to keep
    /// working. On shutdown every live connection is closed and every
    /// worker thread joined before this returns.
    ///
    /// # Errors
    ///
    /// Fatal event-loop failures (per-connection errors are contained),
    /// and [`io::ErrorKind::Unsupported`] on non-unix targets.
    pub fn run(self) -> io::Result<()> {
        #[cfg(unix)]
        return crate::reactor::run(self);
        #[cfg(not(unix))]
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the server's reactor needs a unix target",
        ));
    }

    /// Tears the bound server into the pieces the reactor event loop
    /// owns: `(listener, registry, max_frame, max_idle_secs, workers)`
    /// with the worker count resolved.
    #[cfg(unix)]
    pub(crate) fn into_reactor_parts(self) -> (TcpListener, Arc<SessionRegistry>, u32, u64, usize) {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .clamp(2, 8)
        } else {
            self.workers
        };
        (
            self.listener,
            self.registry,
            self.max_frame,
            self.max_idle_secs,
            workers,
        )
    }
}

/// What a request handler wants done with the connection afterwards.
/// The dispatch workers report it back to the event loop through their
/// completion queue.
pub(crate) enum Next {
    Continue,
    CloseConnection,
    ShutdownServer,
}

/// Dispatches one request frame. Writes the response into `response`,
/// held to `max_frame` bytes ([`cap_response`]); infallible from the
/// transport's point of view (in-band errors). Every request is
/// counted, latency-bucketed per verb, counted again as an error when
/// its response is one, and (when tracing is on) wrapped in a `server`
/// span that parents the prepare and evaluation spans the handlers open
/// further down the stack. Every frame the server reads is answered
/// here.
pub(crate) fn handle_request(
    payload: &[u8],
    registry: &SessionRegistry,
    max_frame: u32,
    entry: &mut Option<Arc<SessionEntry>>,
    lineno: &mut usize,
    response: &mut Vec<u8>,
) -> Next {
    let m = tiebreak_trace::metrics();
    m.requests.inc();
    let started = std::time::Instant::now();
    let Ok(text) = std::str::from_utf8(payload) else {
        let _ = write!(response, "error request frame is not valid UTF-8");
        m.request_errors.inc();
        return Next::Continue;
    };
    let (verb_line, body) = match text.split_once('\n') {
        Some((v, b)) => (v.trim_end_matches('\r'), b),
        None => (text, ""),
    };
    let verb = verb_line.split_whitespace().next().unwrap_or("");
    let vi = tiebreak_trace::metrics::verb_index(verb);
    // Span name is the canonical verb (a static string), so `bye`,
    // `shutdown`, and unknown verbs all show up as `control` requests.
    let span = tiebreak_trace::span("server", tiebreak_trace::metrics::VERBS[vi], &[]);
    let next = match verb {
        "open" => {
            handle_open(verb_line, body, registry, entry, lineno, response);
            Next::Continue
        }
        "script" => {
            handle_script(body, entry.as_deref(), lineno, response);
            Next::Continue
        }
        "stats" => {
            handle_stats(registry, response);
            Next::Continue
        }
        "metrics" => {
            // Gauges are point-in-time: refresh them from the registry
            // right before rendering so the exposition is coherent.
            let s = registry.stats();
            m.sessions_resident.set(s.sessions as u64);
            m.resident_atoms.set(s.resident_atoms);
            let _ = write!(response, "ok\n{}", m.snapshot().render_prometheus());
            Next::Continue
        }
        "ping" => {
            let _ = write!(response, "ok pong");
            Next::Continue
        }
        "bye" => {
            let _ = write!(response, "ok bye");
            Next::CloseConnection
        }
        "shutdown" => {
            let _ = write!(response, "ok shutting down");
            Next::ShutdownServer
        }
        other => {
            let _ = write!(
                response,
                "error unknown verb {other:?} (expected open, script, stats, metrics, ping, bye, \
                 or shutdown)"
            );
            Next::Continue
        }
    };
    drop(span);
    // Worker threads are long-lived: flush the thread-local ring at
    // this request boundary so a `--trace-out` drain sees every event.
    tiebreak_trace::flush();
    cap_response(response, max_frame);
    if response.starts_with(b"error") {
        m.request_errors.inc();
    }
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    m.request_latency_us[vi].record(elapsed_us);
    next
}

/// The `stats` verb: registry-wide counters and the per-session
/// breakdown.
fn handle_stats(registry: &SessionRegistry, response: &mut Vec<u8>) {
    let s = registry.stats();
    let _ = write!(
        response,
        "ok sessions={} resident_atoms={} hits={} misses={} evictions={} rejected={}",
        s.sessions, s.resident_atoms, s.hits, s.misses, s.evictions, s.rejected
    );
    for per in &s.per_session {
        let _ = write!(
            response,
            "\n% session key={:016x} epoch={} atoms={} last_used={}",
            per.key, per.epoch, per.resident_atoms, per.last_used
        );
    }
}

/// `open <prog_byte_len>\n<program><database>` — the byte length avoids
/// any in-band separator the sources themselves could contain.
fn handle_open(
    verb_line: &str,
    body: &str,
    registry: &SessionRegistry,
    entry: &mut Option<Arc<SessionEntry>>,
    lineno: &mut usize,
    response: &mut Vec<u8>,
) {
    let mut parts = verb_line.split_whitespace();
    let _verb = parts.next();
    let Some(len) = parts.next().and_then(|s| s.parse::<usize>().ok()) else {
        let _ = write!(
            response,
            "error open needs a program byte length: open <prog_byte_len>\\n<program><database>"
        );
        return;
    };
    let Some(program) = body.get(..len) else {
        let _ = write!(
            response,
            "error program byte length {len} exceeds the {} body bytes (or splits a UTF-8 \
             character)",
            body.len()
        );
        return;
    };
    let database = &body[len..];
    let opened_at = std::time::Instant::now();
    match registry.open(program, database) {
        Ok(outcome) => {
            let prepare_ms = opened_at.elapsed().as_secs_f64() * 1e3;
            let session = outcome.entry.lock();
            let _ = write!(
                response,
                "ok opened key={:016x} reused={} evicted={} atoms={}",
                outcome.entry.key(),
                outcome.reused,
                outcome.evicted,
                session.solver().footprint().atoms,
            );
            if let Some(summary) = outcome.entry.analysis_summary() {
                let _ = write!(response, "\n% analysis: {summary}");
            }
            // Timing annotations ride along only when tracing is on, so
            // the default wire format stays byte-stable.
            if tiebreak_trace::enabled() {
                let _ = write!(response, "\n% timing: prepare={prepare_ms:.3}ms");
            }
            drop(session);
            *entry = Some(outcome.entry);
            *lineno = 0;
        }
        Err(e) => {
            let _ = write!(response, "error {e}");
        }
    }
}

/// `script\n<lines>` — runs the frame's lines under the session lock,
/// flushing trailing staged mutations before releasing it.
fn handle_script(
    body: &str,
    entry: Option<&SessionEntry>,
    lineno: &mut usize,
    response: &mut Vec<u8>,
) {
    let Some(entry) = entry else {
        let _ = write!(response, "error no session open (send an open frame first)");
        return;
    };
    let mut session = entry.lock();
    frame_reply(response, |out| session.process_frame(lineno, body, out));
    entry.sync_footprint(&session);
}

/// Writes a script frame's response: `ok errors=N` and the frame's
/// output, or, when the frame failed (a reply over the cap: writes to a
/// `Vec` cannot fail otherwise), the in-band error. The frame writes
/// straight into `response` behind a provisional `ok errors=0` header,
/// so a large reply is copied once; a frame with failed lines rewrites
/// the header.
fn frame_reply(response: &mut Vec<u8>, frame: impl FnOnce(&mut Vec<u8>) -> io::Result<usize>) {
    const OK: &[u8] = b"ok errors=0\n";
    response.extend_from_slice(OK);
    match frame(response) {
        Ok(0) => {}
        Ok(errors) => {
            let out = response.split_off(OK.len());
            response.clear();
            let _ = writeln!(response, "ok errors={errors}");
            response.extend_from_slice(&out);
        }
        Err(e) => {
            response.clear();
            let _ = write!(response, "error {e}");
        }
    }
}

/// Replaces a response larger than the frame cap with the in-band
/// error, so the connection keeps serving: the script interpreter stops
/// at the cap, and this catches the `ok errors=N` header that can take
/// a reply just under it past, and any other verb's reply.
fn cap_response(response: &mut Vec<u8>, max_frame: u32) {
    let cap = max_frame as usize;
    if response.len() > cap {
        let too_large = ReplyTooLarge {
            bytes: response.len(),
            cap,
        };
        *response = format!("error {too_large}").into_bytes();
    }
}
