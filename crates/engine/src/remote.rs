//! Worker connections for `msrs dispatch`: the coordinator's listener +
//! handshake acceptor, and the `msrs worker --connect` client loop.
//!
//! Every worker reaches the coordinator through this module: the
//! `--workers` children it spawns as well as remote workers dialing its
//! `--listen` address. The shard protocol itself is in the
//! [`mod@crate::dispatch`] module docs; this module adds the connection
//! layer:
//!
//! ## Handshake
//!
//! ```text
//! worker      → #hello {"proto":2,"config_fp":N,"reconnects":R[,"worker":W,"secret":S]}
//! coordinator → #welcome {"proto":2,"worker":<ordinal>}
//!            or #reject {"error":"handshake_rejected","reason":…,
//!                        "proto":…,"config_fp":…}   (then close)
//! ```
//!
//! The protocol version and the engine-config content fingerprint
//! ([`crate::EngineConfig::content_fingerprint`]) must both match — a
//! worker built against different engine semantics would silently
//! produce different reports, so mismatches are refused with a
//! structured error and the worker exits non-zero without retrying.
//! `reconnects` is the worker's count of *prior completed sessions*, so
//! the coordinator can tell a rejoining worker from a fresh one.
//!
//! A child of the coordinator sends `worker` (its `MSRS_WORKER_INDEX`)
//! and `secret` (the run's `MSRS_WORKER_SECRET`: environment, not argv,
//! which other local users can read) and is welcomed as that child, at
//! most once. Without `--listen` the listener is loopback-only and
//! rejects every other hello.
//!
//! ## Reconnection
//!
//! A worker whose socket drops without a `#shutdown` line assumes the
//! coordinator restarted and redials with bounded exponential backoff
//! ([`RemoteWorkerConfig::reconnect_base`], doubling up to
//! `reconnect_cap`, at most `reconnect_attempts` consecutive failures).
//! A clean `#shutdown` ends the worker without redialing. Children run
//! with `--reconnect-max 0`, so one refused redial ends a child whose
//! coordinator died.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use msrs_telemetry::registry;

use crate::dispatch::{run_worker_conn, Msg, WorkerExit};
use crate::json::Json;
use crate::Engine;

/// Version of the dispatch wire protocol spoken after the handshake.
/// Bump on any incompatible change to the `#shard`/`#done` framing.
/// Version 2 added the fleet cache plane (`#shard … cache` headers and
/// the `#cacheq`/`#cachehit`/`#cachemiss`/`#cachefill` exchange).
pub const REMOTE_PROTO_VERSION: u64 = 2;

/// Environment variable carrying the run's secret to the coordinator's
/// children.
pub(crate) const SECRET_ENV: &str = "MSRS_WORKER_SECRET";

/// How long the coordinator waits for a dialing worker's `#hello` (and a
/// worker for the coordinator's reply) before giving up on the socket.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest line the handshake will read before declaring the peer
/// non-protocol.
const MAX_HANDSHAKE_LINE: usize = 4096;

/// A bound listener remote workers can dial into, handed to
/// [`crate::dispatch::dispatch_fleet`].
pub struct RemoteHub {
    listener: TcpListener,
    local: SocketAddr,
}

impl RemoteHub {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port).
    pub fn bind(addr: &str) -> io::Result<RemoteHub> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(RemoteHub { listener, local })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

/// Whom the acceptor admits.
pub(crate) struct Admission {
    /// The coordinator's engine-config fingerprint.
    pub(crate) config_fp: u64,
    /// The secret the coordinator's children present.
    pub(crate) secret: String,
    /// Also admit workers the coordinator did not spawn (`--listen`).
    pub(crate) open: bool,
}

/// The accept loop, on its own thread until the value is dropped: each
/// connection gets a short-lived handshake thread that either forwards
/// the stream to the coordinator as [`Msg::Joined`] or refuses it with a
/// structured `#reject` line.
pub(crate) struct Acceptor {
    /// The address children dial: the bound one, with an unspecified IP
    /// replaced by loopback.
    pub(crate) addr: SocketAddr,
    pub(crate) admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    pub(crate) fn spawn(hub: RemoteHub, tx: Sender<Msg>, admission: Admission) -> Acceptor {
        let mut addr = hub.local;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let admission = Arc::new(admission);
        let shared = Arc::clone(&admission);
        let thread = std::thread::spawn(move || {
            for conn in hub.listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                match conn {
                    Ok(stream) => {
                        let (tx, admission) = (tx.clone(), Arc::clone(&shared));
                        std::thread::spawn(move || handshake_accept(stream, &tx, &admission));
                    }
                    // Back off from a resource error (EMFILE) instead of
                    // spinning on it.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Acceptor {
            addr,
            admission,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Acceptor {
    /// Sets the stop flag, wakes the blocked `accept` with one connection
    /// of its own (never handshaken), and joins the thread.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let (Ok(_), Some(thread)) = (TcpStream::connect(self.addr), self.thread.take()) {
            let _ = thread.join();
        }
    }
}

/// Refuses a dialing worker with a structured `#reject` line (counted in
/// `msrs_dispatch_handshake_rejects_total`) and closes the socket.
pub(crate) fn reject(mut stream: TcpStream, reason: &str, config_fp: u64) {
    registry().dispatch_handshake_rejects_total.inc();
    let line = Json::Obj(vec![
        ("error".into(), Json::Str("handshake_rejected".into())),
        ("reason".into(), Json::Str(reason.into())),
        ("proto".into(), Json::Num(REMOTE_PROTO_VERSION as i128)),
        ("config_fp".into(), Json::Num(config_fp as i128)),
    ]);
    let _ = stream.write_all(format!("#reject {line}\n").as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Validates one dialing worker's `#hello`. On success the stream (with
/// no buffered bytes — the handshake reads unbuffered) is forwarded to
/// the coordinator, which sends the `#welcome`.
fn handshake_accept(mut stream: TcpStream, tx: &Sender<Msg>, admission: &Admission) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let hello = read_line_raw(&mut stream, MAX_HANDSHAKE_LINE)
        .map_err(|_| "no #hello line before the handshake deadline".to_string())
        .and_then(|line| admission.admit(&line));
    match hello {
        Ok((reconnects, child)) => {
            let _ = stream.set_read_timeout(None);
            // The coordinator thread registers the worker and sends
            // #welcome; a send failure means the run already ended.
            let _ = tx.send(Msg::Joined(stream, reconnects, child));
        }
        Err(reason) => reject(stream, &reason, admission.config_fp),
    }
}

impl Admission {
    /// Checks a `#hello` line: the worker's reconnect count and, for one
    /// of the coordinator's children, its ordinal — or why it is refused.
    fn admit(&self, line: &str) -> Result<(u64, Option<u64>), String> {
        let hello = line
            .strip_prefix("#hello ")
            .and_then(|payload| Json::parse(payload).ok())
            .ok_or("first line was not a #hello")?;
        let is_child = hello.get("secret").and_then(Json::as_str) == Some(&self.secret);
        let child = hello
            .get("worker")
            .and_then(Json::as_u64)
            .filter(|_| is_child);
        if child.is_none() && !self.open {
            return Err("this coordinator admits only the workers it spawned (no --listen)".into());
        }
        let shown = |v: Option<u64>| v.map_or("?".into(), |v| v.to_string());
        let proto = hello.get("proto").and_then(Json::as_u64);
        if proto != Some(REMOTE_PROTO_VERSION) {
            return Err(format!(
                "protocol version mismatch (worker {}, coordinator {REMOTE_PROTO_VERSION})",
                shown(proto)
            ));
        }
        let fp = hello.get("config_fp").and_then(Json::as_u64);
        if fp != Some(self.config_fp) {
            return Err(format!(
                "engine config fingerprint mismatch (worker {}, coordinator {})",
                shown(fp),
                self.config_fp
            ));
        }
        let reconnects = hello.get("reconnects").and_then(Json::as_u64);
        Ok((reconnects.unwrap_or(0), child))
    }
}

/// Reads one `\n`-terminated line *without buffering past it*, so the
/// stream can be handed to another reader afterwards. Handshake lines
/// are tiny; byte-at-a-time is fine.
fn read_line_raw(stream: &mut TcpStream, max: usize) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ))
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    let text = String::from_utf8_lossy(&line).into_owned();
                    return Ok(text.trim_end_matches('\r').to_string());
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "handshake line too long",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Configuration for one `msrs worker --connect` process.
#[derive(Debug, Clone)]
pub struct RemoteWorkerConfig {
    /// Coordinator address (`HOST:PORT`).
    pub addr: String,
    /// Heartbeat period ([`crate::dispatch::DEFAULT_HEARTBEAT`]).
    pub heartbeat: Duration,
    /// This worker's engine-config content fingerprint, offered in the
    /// handshake and checked by the coordinator.
    pub config_fp: u64,
    /// First reconnect backoff; doubles per consecutive failure.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_cap: Duration,
    /// Consecutive dial/handshake failures tolerated before giving up.
    pub reconnect_attempts: u32,
    /// Threads for burst-decoding shard lines (1 = sequential).
    pub decode_threads: usize,
}

impl Default for RemoteWorkerConfig {
    fn default() -> Self {
        RemoteWorkerConfig {
            addr: String::new(),
            heartbeat: crate::dispatch::DEFAULT_HEARTBEAT,
            config_fp: 0,
            reconnect_base: Duration::from_millis(200),
            reconnect_cap: Duration::from_secs(5),
            reconnect_attempts: 8,
            decode_threads: 1,
        }
    }
}

/// Bounded exponential backoff: `base × 2^(failures-1)`, capped.
fn backoff_delay(base: Duration, cap: Duration, failures: u32) -> Duration {
    let factor = 1u32 << failures.saturating_sub(1).min(6);
    (base * factor).min(cap)
}

/// The `msrs worker --connect` loop: dial, handshake, run the shard
/// protocol until the coordinator says `#shutdown` (clean exit) or the
/// socket drops (redial with backoff — the coordinator may have
/// restarted). Returns `Err` on a handshake rejection (version or
/// config mismatch — permanent, no retry) or when the reconnect budget
/// is exhausted.
pub fn run_remote_worker(engine: &Engine, cfg: &RemoteWorkerConfig) -> io::Result<()> {
    let env_index: Option<u64> = std::env::var("MSRS_WORKER_INDEX")
        .ok()
        .and_then(|v| v.parse().ok());
    // A child of the coordinator identifies itself in every hello.
    let child = std::env::var(SECRET_ENV).ok().zip(env_index);
    let mut sessions: u64 = 0;
    let mut failures: u32 = 0;
    loop {
        match dial_and_handshake(cfg, sessions, child.as_ref()) {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Structured rejection: retrying can't help.
                return Err(e);
            }
            Err(e) => {
                failures += 1;
                if failures > cfg.reconnect_attempts {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "giving up on {} after {failures} connection attempts: {e}",
                            cfg.addr
                        ),
                    ));
                }
                let delay = backoff_delay(cfg.reconnect_base, cfg.reconnect_cap, failures);
                eprintln!(
                    "msrs worker: connect to {} failed ({e}); retrying in {} ms",
                    cfg.addr,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Ok((stream, ordinal)) => {
                failures = 0;
                let reader = io::BufReader::new(stream.try_clone()?);
                // Buffered: the worker flushes at every protocol boundary,
                // so report lines travel in a few segments, not one each.
                let exit = run_worker_conn(
                    engine,
                    reader,
                    io::BufWriter::new(stream),
                    cfg.heartbeat,
                    env_index.or(Some(ordinal)),
                    cfg.decode_threads,
                )?;
                sessions += 1;
                match exit {
                    WorkerExit::Shutdown => return Ok(()),
                    WorkerExit::Eof => {
                        // Bare EOF: assume a coordinator restart and
                        // redial after a beat.
                        std::thread::sleep(cfg.reconnect_base);
                    }
                }
            }
        }
    }
}

/// One dial + handshake round trip; returns the connected stream and
/// the ordinal the coordinator assigned in its `#welcome`. `child` is
/// the `(secret, ordinal)` pair of a coordinator's child.
fn dial_and_handshake(
    cfg: &RemoteWorkerConfig,
    sessions: u64,
    child: Option<&(String, u64)>,
) -> io::Result<(TcpStream, u64)> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    let _ = stream.set_nodelay(true);
    let identity = child.map_or(String::new(), |(secret, ordinal)| {
        format!(
            ",\"worker\":{ordinal},\"secret\":{}",
            Json::Str(secret.clone())
        )
    });
    let hello = format!(
        "#hello {{\"proto\":{REMOTE_PROTO_VERSION},\"config_fp\":{},\"reconnects\":{sessions}{identity}}}\n",
        cfg.config_fp
    );
    stream.write_all(hello.as_bytes())?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let line = read_line_raw(&mut stream, MAX_HANDSHAKE_LINE)?;
    stream.set_read_timeout(None)?;
    if let Some(payload) = line.strip_prefix("#welcome ") {
        let v = Json::parse(payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparsable #welcome: {e}"),
            )
        })?;
        if v.get("proto").and_then(Json::as_u64) != Some(REMOTE_PROTO_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "coordinator #welcome carries a different protocol version",
            ));
        }
        let ordinal = v.get("worker").and_then(Json::as_u64).unwrap_or(0);
        Ok((stream, ordinal))
    } else if let Some(payload) = line.strip_prefix("#reject ") {
        let reason = Json::parse(payload)
            .ok()
            .and_then(|v| v.get("reason").and_then(|r| r.as_str().map(String::from)))
            .unwrap_or_else(|| payload.to_string());
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("coordinator rejected handshake: {reason}"),
        ))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected handshake reply `{line}`"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc::{self, Receiver};
    use std::sync::Mutex;

    #[test]
    fn backoff_is_bounded_and_exponential() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(400));
        assert_eq!(backoff_delay(base, cap, 6), cap); // 3200 ms, capped
        assert_eq!(backoff_delay(base, cap, 40), cap); // shift stays sane
    }

    /// The reject counter is process-global: the admission tests take
    /// turns so each sees only its own rejects.
    static ADMISSION: Mutex<()> = Mutex::new(());

    const FP: u64 = 77;
    const SECRET: &str = "0123456789abcdef0123456789abcdef";

    /// An acceptor that admits only the coordinator's children.
    fn children_only() -> (Acceptor, Receiver<Msg>) {
        let hub = RemoteHub::bind("127.0.0.1:0").expect("loopback binds");
        let (tx, rx) = mpsc::channel();
        let admission = Admission {
            config_fp: FP,
            secret: SECRET.into(),
            open: false,
        };
        (Acceptor::spawn(hub, tx, admission), rx)
    }

    /// Dials the acceptor and sends `hello`.
    fn send_hello(acceptor: &Acceptor, hello: &str) -> TcpStream {
        let mut stream = TcpStream::connect(acceptor.addr).expect("dials the acceptor");
        stream
            .write_all(format!("#hello {hello}\n").as_bytes())
            .expect("hello sent");
        stream
    }

    /// The acceptor's reply line (the timeout only keeps a broken
    /// acceptor from hanging the test).
    fn reply(stream: TcpStream) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("reply read");
        line
    }

    fn rejects() -> u64 {
        registry().dispatch_handshake_rejects_total.get()
    }

    #[test]
    fn a_hello_without_the_secret_is_rejected_without_listen() {
        let _turn = ADMISSION.lock().unwrap_or_else(|e| e.into_inner());
        let (acceptor, rx) = children_only();
        let before = rejects();
        let line = reply(send_hello(
            &acceptor,
            &format!(r#"{{"proto":2,"config_fp":{FP}}}"#),
        ));
        assert!(line.starts_with("#reject "), "{line:?}");
        assert!(
            line.contains("admits only the workers it spawned"),
            "{line:?}"
        );
        assert_eq!(rejects() - before, 1);
        assert!(rx.try_recv().is_err(), "nothing reaches the coordinator");
    }

    #[test]
    fn a_hello_with_a_wrong_secret_is_rejected_without_listen() {
        let _turn = ADMISSION.lock().unwrap_or_else(|e| e.into_inner());
        let (acceptor, rx) = children_only();
        let wrong = SECRET.replace('0', "1");
        let hello = format!(r#"{{"proto":2,"config_fp":{FP},"worker":0,"secret":"{wrong}"}}"#);
        let before = rejects();
        let line = reply(send_hello(&acceptor, &hello));
        assert!(line.starts_with("#reject "), "{line:?}");
        assert_eq!(rejects() - before, 1);
        assert!(rx.try_recv().is_err(), "nothing reaches the coordinator");
    }

    #[test]
    fn a_hello_with_the_secret_is_forwarded_as_that_child() {
        let _turn = ADMISSION.lock().unwrap_or_else(|e| e.into_inner());
        let (acceptor, rx) = children_only();
        let hello = format!(r#"{{"proto":2,"config_fp":{FP},"worker":3,"secret":"{SECRET}"}}"#);
        let before = rejects();
        let _stream = send_hello(&acceptor, &hello);
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Msg::Joined(_, _, child)) => assert_eq!(child, Some(3)),
            _ => panic!("the child's stream was not forwarded"),
        }
        assert_eq!(rejects(), before);
    }
}
