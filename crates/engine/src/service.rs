//! `msrs serve`: a concurrent JSONL-over-TCP front end on the
//! [`ServiceCore`] data plane.
//!
//! Wire protocol (one JSON value per line, strictly ordered per
//! connection — the N-th response line answers the N-th request line):
//!
//! * **request** — an instance line exactly as `msrs batch` reads it:
//!   `{"id":"r-1","machines":2,"classes":[[3,5],[7]]}` (`id` optional).
//! * **report** — the same report line `msrs batch` writes, e.g.
//!   `{"id":"r-1",…,"cache_hit":true,"wall_micros":12,…}`.
//! * **error** — a malformed request yields
//!   `{"error":"parse","line":N,"message":"…"}` and the session
//!   *continues* (unlike batch mode, where a corpus error is fatal:
//!   a session is a conversation, not a file).
//! * **overloaded** — admission control shed the request without decoding
//!   it: `{"error":"overloaded","max_inflight":N}`. Sent when
//!   `--max-inflight` requests are already being solved across all
//!   sessions. The slot is not consumed; the client may retry.
//! * **idle_timeout** — the session sat idle past `--idle-timeout-ms`:
//!   `{"error":"idle_timeout","idle_ms":D}` is written and the session
//!   closes instead of holding its thread forever.
//! * **session_limit** — the session served `--max-requests-per-session`
//!   requests: `{"error":"session_limit","max_requests":N}` is written
//!   and the session closes (load-balancer-friendly connection churn).
//! * **line_too_long** — a line ran past 64 MiB without its newline:
//!   `{"error":"line_too_long","max_bytes":67108864}` is written and the
//!   session closes; the rest of the line is never read.
//!
//! A peer that disconnects mid-write (`EPIPE`/connection reset) ends its
//! session cleanly — counted in `msrs_serve_disconnects_total`, never a
//! session-thread error.
//!
//! Control lines start with `#` (comments in batch corpora):
//!
//! * `#stats` — responds with one line: the full telemetry snapshot as
//!   JSON (the same document `msrs stats --json` prints).
//! * `#shutdown` — begins graceful shutdown: every session finishes the
//!   requests it has already admitted, responses are flushed, then
//!   connections close and the listeners exit. A connection accepted
//!   after shutdown began is closed unserved.
//! * anything else starting with `#` is ignored, exactly as in a corpus.
//!
//! Deadlines: a server-wide `--deadline-ms` becomes the engine's
//! per-request deadline — each admitted request gets a fresh
//! [`CancelToken`](msrs_core::CancelToken) budget. As in the rest of the
//! engine, a configured deadline bypasses the result cache (documented
//! opt-in nondeterminism), and a report whose runs include a `timed_out`
//! status counts toward `msrs_serve_deadline_hits_total`.
//!
//! The optional metrics listener (`--metrics-addr`) answers every HTTP
//! GET with the Prometheus rendering of the registry (or JSON when the
//! request path contains `json`) — the live equivalent of
//! `msrs batch --metrics-out`.
//!
//! Both listeners block in `accept()` on the crate's one acceptor (the
//! dispatch hub's, in [`crate::remote`]). Each session runs on its own
//! thread, which is reaped when the session ends, by a panic too; the
//! peer then sees EOF.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use msrs_telemetry::registry;

use crate::dispatch::{read_peer_line, MAX_LINE_BYTES};
use crate::engine::Engine;
use crate::json::Json;
use crate::remote::Acceptor;
use crate::report::{RunStatus, SolveReport};
use crate::stream::ServiceCore;

/// Configuration of one [`serve`] call.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Bound in-flight (admitted, unanswered) requests across all
    /// sessions; `0` means unlimited. Excess requests are shed with an
    /// `overloaded` line instead of queueing behind a saturated pool.
    pub max_inflight: usize,
    /// Serve the telemetry snapshot over HTTP on this address when set.
    pub metrics_addr: Option<String>,
    /// Close a session (with an `idle_timeout` error line) after this
    /// long without receiving a request; `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Close a session (with a `session_limit` error line) after it has
    /// served this many requests; `0` means unlimited.
    pub max_requests_per_session: usize,
}

/// Totals of one server lifetime, returned by [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions accepted.
    pub sessions: u64,
    /// Request lines answered with a report.
    pub requests: u64,
    /// Request lines shed by admission control.
    pub sheds: u64,
    /// Request lines answered with a parse error.
    pub errors: u64,
}

/// State shared by the listeners, every session thread, and the handle.
struct ServerShared {
    engine: Engine,
    max_inflight: usize,
    idle_timeout: Option<Duration>,
    max_requests_per_session: usize,
    shutdown: AtomicBool,
    /// Admitted-but-unanswered requests across all sessions. The
    /// admission CAS runs against this; the `serve_inflight` gauge
    /// mirrors it for snapshots.
    inflight: AtomicUsize,
    /// One clone per **open** session so shutdown can unblock readers
    /// parked in `read_line` (EOF, never a torn line). Each entry is
    /// removed when its session exits — a lingering clone would keep the
    /// socket's write half open and rob the peer of its EOF.
    sessions: Mutex<Vec<(u64, TcpStream)>>,
    /// Signalled, under `sessions`, when shutdown begins and when a
    /// session ends.
    changed: Condvar,
    sessions_total: AtomicU64,
    requests_total: AtomicU64,
    sheds_total: AtomicU64,
    errors_total: AtomicU64,
}

impl ServerShared {
    /// Acquires an in-flight slot unless the bound is reached.
    fn try_admit(&self) -> Option<InflightSlot<'_>> {
        let bound = match self.max_inflight {
            0 => usize::MAX,
            n => n,
        };
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < bound).then_some(n + 1)
            })
            .ok()?;
        registry().serve_inflight.add(1);
        Some(InflightSlot(self))
    }

    /// Flips the shutdown flag and unblocks every session reader. The
    /// write halves stay open: in-flight requests still deliver their
    /// responses before the sessions close.
    fn begin_shutdown(&self) {
        let sessions = self.sessions.lock().expect("session list lock");
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, stream) in sessions.iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.changed.notify_all();
    }
}

/// An admitted request's in-flight slot. Dropping it frees the slot, also
/// when the solve panics and unwinds the session thread.
struct InflightSlot<'a>(&'a ServerShared);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
        registry().serve_inflight.sub(1);
    }
}

/// An open session's entry in [`ServerShared::sessions`]. Dropping it
/// removes the entry, so the peer sees EOF and [`ServerHandle::wait`]
/// wakes. It drops when the session thread ends, by a panic too, or
/// when that thread cannot start.
struct Registered {
    shared: Arc<ServerShared>,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        let mut sessions = self
            .shared
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = sessions.iter().position(|(id, _)| *id == self.id) {
            // FIN first: a close with request bytes still unread sends a
            // reset, which the peer must meet after its EOF, not instead.
            let _ = sessions.swap_remove(at).1.shutdown(Shutdown::Write);
        }
        registry().serve_sessions_open.sub(1);
        self.shared.changed.notify_all();
    }
}

/// A running server: join it with [`wait`](Self::wait), stop it with
/// [`begin_shutdown`](Self::begin_shutdown) (or a `#shutdown` control
/// line from any client).
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    /// The session listener, then the metrics listener if one was asked
    /// for; dropping them stops both.
    _listeners: Vec<Acceptor>,
    local_addr: SocketAddr,
    metrics_local_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The address the JSONL listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics address, when a metrics listener was requested.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_local_addr
    }

    /// Begins graceful shutdown: stops accepting, unblocks idle session
    /// readers, lets in-flight requests complete and flush. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until shutdown has begun and every session has ended, joins
    /// the attached cache store's writer (every fresh solve a session
    /// answered is then synced), stops both listeners and returns the
    /// lifetime totals. Call after [`begin_shutdown`](Self::begin_shutdown)
    /// (or rely on a client's `#shutdown`).
    pub fn wait(self) -> ServeSummary {
        let sessions = self.shared.sessions.lock().expect("session list lock");
        let ended = self.shared.changed.wait_while(sessions, |open| {
            !self.shared.shutdown.load(Ordering::SeqCst) || !open.is_empty()
        });
        drop(ended.expect("session list lock"));
        // A session thread that just deregistered may still hold the last
        // reference to the engine, whose drop would join the writer only
        // after `wait` returned.
        self.shared.engine.close_store();
        ServeSummary {
            sessions: self.shared.sessions_total.load(Ordering::SeqCst),
            requests: self.shared.requests_total.load(Ordering::SeqCst),
            sheds: self.shared.sheds_total.load(Ordering::SeqCst),
            errors: self.shared.errors_total.load(Ordering::SeqCst),
        }
    }
}

/// Binds `addr` and starts serving JSONL sessions on `engine` (one
/// thread per connection, all sharing the engine's result cache and
/// worker pool). Returns once the listeners are bound and their threads
/// run; drive shutdown via the returned handle or a `#shutdown` control
/// line.
pub fn serve(engine: Engine, addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let metrics = config.metrics_addr.map(TcpListener::bind).transpose()?;
    let metrics_local_addr = metrics.as_ref().map(TcpListener::local_addr).transpose()?;
    let shared = Arc::new(ServerShared {
        engine,
        max_inflight: config.max_inflight,
        idle_timeout: config.idle_timeout,
        max_requests_per_session: config.max_requests_per_session,
        shutdown: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        sessions: Mutex::new(Vec::new()),
        changed: Condvar::new(),
        sessions_total: AtomicU64::new(0),
        requests_total: AtomicU64::new(0),
        sheds_total: AtomicU64::new(0),
        errors_total: AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let mut listeners = vec![Acceptor::spawn(listener, "msrs-accept", move |stream| {
        start_session(stream, &accept_shared)
    })?];
    if let Some(listener) = metrics {
        listeners.push(Acceptor::spawn(listener, "msrs-metrics", |mut stream| {
            let _ = serve_metrics_request(&mut stream);
        })?);
    }
    Ok(ServerHandle {
        shared,
        _listeners: listeners,
        local_addr,
        metrics_local_addr,
    })
}

/// Registers an accepted connection and starts its session thread. A
/// connection accepted after shutdown has begun, or one whose socket or
/// thread cannot be set up, is closed unserved.
fn start_session(stream: TcpStream, shared: &Arc<ServerShared>) {
    // Responses are small single-line writes in a request-response
    // protocol: leaving Nagle on would stall each one behind the peer's
    // delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut sessions = shared.sessions.lock().expect("session list lock");
    // Checked under the lock `begin_shutdown` holds, so no session
    // registers after its sweep and keeps a reader it cannot unblock.
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let id = shared.sessions_total.fetch_add(1, Ordering::SeqCst);
    sessions.push((id, clone));
    drop(sessions);
    registry().serve_sessions_total.inc();
    registry().serve_sessions_open.add(1);
    let session = Registered {
        shared: Arc::clone(shared),
        id,
    };
    let _ = std::thread::Builder::new()
        .name("msrs-session".into())
        .spawn(move || {
            let _ = session_loop(stream, &session.shared);
            drop(session);
        });
}

/// Writes one structured error line.
fn write_error_line(out: &mut TcpStream, kind: &str, fields: &[(&str, Json)]) -> io::Result<()> {
    let mut obj = vec![("error".to_string(), Json::Str(kind.to_string()))];
    for (k, v) in fields {
        obj.push(((*k).to_string(), v.clone()));
    }
    let mut line = Json::Obj(obj).to_string();
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Counts a served report against the deadline-hit counter when any of
/// its solver runs ran out of budget.
fn count_deadline_hit(report: &SolveReport) {
    if report
        .runs
        .iter()
        .any(|run| run.status == RunStatus::TimedOut)
    {
        registry().serve_deadline_hits_total.inc();
    }
}

/// Runs one session and absorbs peer disconnects: a client that hangs up
/// mid-conversation (`EPIPE`, connection reset) is a clean session end,
/// counted in `msrs_serve_disconnects_total` — never an error bubbling out
/// of the session thread.
fn session_loop(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    match session_conversation(stream, shared) {
        Err(e) if crate::dispatch::is_disconnect(&e) => {
            registry().serve_disconnects_total.inc();
            Ok(())
        }
        other => other,
    }
}

/// `SO_RCVTIMEO` expiry surfaces as `WouldBlock` on Unix and `TimedOut`
/// on Windows.
fn is_idle_expiry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn session_conversation(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(shared.idle_timeout)?;
    let mut reader = BufReader::new(reader_stream);
    let mut out = stream;
    let mut core = ServiceCore::new();
    core.begin(1);
    let mut line_buf = String::new();
    let mut line_no = 0usize;
    let mut served_requests = 0usize;
    loop {
        line_buf.clear();
        line_no += 1;
        match read_peer_line(&mut reader, &mut line_buf) {
            Ok(Some(0)) => break,
            Ok(Some(_)) => {}
            Ok(None) => {
                let max = Json::Num(MAX_LINE_BYTES as i128);
                write_error_line(&mut out, "line_too_long", &[("max_bytes", max)])?;
                out.flush()?;
                break;
            }
            Err(e) if is_idle_expiry(&e) => {
                registry().serve_idle_closes_total.inc();
                let idle_ms = shared
                    .idle_timeout
                    .map(|d| d.as_millis() as i128)
                    .unwrap_or(0);
                write_error_line(&mut out, "idle_timeout", &[("idle_ms", Json::Num(idle_ms))])?;
                out.flush()?;
                break;
            }
            Err(e) => return Err(e),
        }
        let line = line_buf.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(control) = line.strip_prefix('#') {
            match control.trim() {
                "stats" => {
                    let mut doc = registry().snapshot().to_json_string();
                    doc.push('\n');
                    out.write_all(doc.as_bytes())?;
                    out.flush()?;
                }
                "shutdown" => shared.begin_shutdown(),
                _ => {}
            }
            continue;
        }
        // ---- Admission control. -------------------------------------------
        let Some(slot) = shared.try_admit() else {
            shared.sheds_total.fetch_add(1, Ordering::SeqCst);
            registry().serve_sheds_total.inc();
            write_error_line(
                &mut out,
                "overloaded",
                &[("max_inflight", Json::Num(shared.max_inflight as i128))],
            )?;
            out.flush()?;
            continue;
        };
        // ---- Serve one request through the core. --------------------------
        let t0 = Instant::now();
        let result = core.admit_line(&shared.engine, line_no, line, t0);
        let admitted = result.is_ok();
        let served = match result {
            Ok(()) => core.flush_with(&shared.engine, |bytes, report| {
                count_deadline_hit(report);
                out.write_all(bytes)
            }),
            Err(e) => {
                shared.errors_total.fetch_add(1, Ordering::SeqCst);
                let (kind, line) = match &e {
                    crate::jsonl::CorpusError::Json { line, .. } => ("parse", *line),
                    crate::jsonl::CorpusError::Malformed { line, .. } => ("parse", *line),
                    crate::jsonl::CorpusError::Io { line, .. } => ("io", *line),
                };
                write_error_line(
                    &mut out,
                    kind,
                    &[
                        ("line", Json::Num(line as i128)),
                        ("message", Json::Str(e.to_string())),
                    ],
                )
            }
        };
        drop(slot);
        served?;
        if admitted {
            shared.requests_total.fetch_add(1, Ordering::SeqCst);
            served_requests += 1;
        }
        out.flush()?;
        if shared.max_requests_per_session != 0
            && served_requests >= shared.max_requests_per_session
        {
            registry().serve_limit_closes_total.inc();
            write_error_line(
                &mut out,
                "session_limit",
                &[(
                    "max_requests",
                    Json::Num(shared.max_requests_per_session as i128),
                )],
            )?;
            out.flush()?;
            break;
        }
    }
    Ok(())
}

/// A minimal HTTP/1.1 responder for the metrics listener: every GET gets
/// the Prometheus rendering (JSON when the path mentions `json`),
/// `Connection: close`.
fn serve_metrics_request(stream: &mut TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read just the request head (first line is all we route on).
    let mut head = [0u8; 1024];
    let n = stream.read(&mut head).unwrap_or(0);
    let request_line = std::str::from_utf8(&head[..n])
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let snapshot = registry().snapshot();
    let (content_type, body) = if request_line.contains("json") {
        ("application/json", snapshot.to_json_string())
    } else {
        ("text/plain; version=0.0.4", snapshot.to_prometheus())
    };
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::INJECTED_PANICS;
    use crate::portfolio::SolverKind;
    use std::io::BufRead;

    #[test]
    fn a_panicking_session_still_closes() {
        // No other test solves an 11-machine instance. With every member
        // panicking, `assemble` panics inside the session thread.
        INJECTED_PANICS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(SolverKind::all().map(|kind| (11, kind)));
        let engine = Engine::new(crate::EngineConfig {
            cache_capacity: 0,
            ..crate::EngineConfig::default()
        });
        let handle = serve(engine, "127.0.0.1:0", ServeConfig::default()).expect("server binds");
        let mut client = TcpStream::connect(handle.local_addr()).expect("client connects");
        let inst = msrs_gen::uniform(3, 11, 80, 20, 1, 30);
        let line = crate::jsonl::write_instance_line(Some("p"), &inst) + "\n";
        client.write_all(line.as_bytes()).expect("request sent");
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout set");
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).expect("EOF within 2 s");
        handle.begin_shutdown();
        handle.wait();
    }

    #[test]
    fn a_panicking_request_frees_its_admission_slot() {
        // As above, every member panics on 11 machines. With one slot in
        // all, a slot the panic kept would shed every later request.
        INJECTED_PANICS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(SolverKind::all().map(|kind| (11, kind)));
        let engine = Engine::new(crate::EngineConfig {
            cache_capacity: 0,
            ..crate::EngineConfig::default()
        });
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let handle = serve(engine, "127.0.0.1:0", config).expect("server binds");
        let mut panicking = TcpStream::connect(handle.local_addr()).expect("client A connects");
        let inst = msrs_gen::uniform(3, 11, 80, 20, 1, 30);
        let line = crate::jsonl::write_instance_line(Some("p"), &inst) + "\n";
        panicking.write_all(line.as_bytes()).expect("request sent");
        panicking
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout set");
        panicking
            .read_to_end(&mut Vec::new())
            .expect("EOF within 2 s");

        let mut plain = TcpStream::connect(handle.local_addr()).expect("client B connects");
        let inst = msrs_gen::uniform(1, 2, 6, 2, 1, 9);
        let line = crate::jsonl::write_instance_line(Some("q"), &inst) + "\n";
        plain.write_all(line.as_bytes()).expect("request sent");
        plain
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        let mut reply = String::new();
        BufReader::new(&plain)
            .read_line(&mut reply)
            .expect("reply within 5 s");
        assert!(reply.starts_with("{\"id\":\"q\","), "{reply}");
        handle.begin_shutdown();
        handle.wait();
    }
}
