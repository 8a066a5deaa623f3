//! Crash-tolerant multi-process shard execution: the `msrs dispatch`
//! coordinator and the `msrs worker` loop.
//!
//! The coordinator splits a JSONL corpus into deterministic shards (the
//! same meaningful-line boundaries `msrs batch --shard-size N` uses),
//! fans them out to a fleet of `msrs worker --connect` processes over TCP
//! ([`crate::remote`]) — its own `--workers` children and any remote
//! workers that dial its `--listen` address — and merges the report
//! streams back in shard order, so the merged output is bit-identical to
//! an uninterrupted single-process run modulo the documented
//! `wall_micros`/`cache_hit` exceptions.
//!
//! ## Wire protocol (coordinator ⇄ worker)
//!
//! Coordinator → worker:
//!
//! ```text
//! #shard <index> <attempt> <lines> [cache]   shard assignment header
//! <instance line> × lines              raw corpus lines (never `#`-prefixed)
//! #run                                 solve the shard now
//! #cachehit <fp> <payload>             cache-probe reply: stored report
//! #cachemiss <fp>                      cache-probe reply: not cached
//! #shutdown                            exit cleanly, without redialing
//! ```
//!
//! Worker → coordinator:
//!
//! ```text
//! {…report…}                           one JSONL report per admitted line
//! #hb                                  heartbeat (periodic, from a side thread)
//! #cacheq <fp>                         probe the coordinator's result cache
//! #cachefill <fp> <payload>            share a freshly solved canonical report
//! #done {"shard":…,"attempt":…,…}      shard complete; stats for the merge
//! #error {"shard":…,"attempt":…,…}     decode error after the prefix reports
//! ```
//!
//! Every worker speaks these lines after the versioned
//! `#hello`/`#welcome` handshake ([`crate::remote`]).
//!
//! ## Leases and stale attempts
//!
//! Every shard assignment is a *lease* identified by a monotonically
//! increasing per-shard attempt id: at most one attempt owns a shard's
//! commit slot at a time, and a lapsed lease — worker disconnect,
//! heartbeat silence, or shard deadline — returns the shard to the queue
//! and bumps the attempt counter. A zombie worker (a remote worker whose
//! lease was revoked but whose socket is still alive) may later deliver
//! a `#done` for the stale attempt; the coordinator discards it (counted
//! as a stale-attempt drop) and never commits it, so a shard's reports
//! reach the merged stream exactly once. A shard's buffered report lines
//! are committed only when its `#done` arrives with the matching shard
//! index, attempt id, and report count: torn, garbled, duplicated, or
//! stale output from a dying worker can never reach the merged stream.
//!
//! ## Straggler hedging
//!
//! With [`DispatchConfig::hedge_multiplier`] > 0, a shard whose attempt
//! has run longer than `max(multiplier × trailing-median shard time,
//! hedge_min)` while an idle worker exists is *hedged*: a speculative
//! duplicate attempt is launched on the idle worker and whichever
//! verified `#done` lands first commits; the loser is discarded as a
//! stale attempt (counted hedge-wasted). Safe because reports are
//! deterministic modulo `wall_micros`/`cache_hit`. Hedging is off by
//! default (`hedge_multiplier = 0`).
//!
//! ## Robustness
//!
//! Per-worker health is monitored with heartbeats plus an optional
//! per-shard wall-clock deadline; a child worker that exits, goes
//! silent, or emits garbage is killed and replaced (so is one that never
//! finishes its handshake, until `max_attempts` in a row fail the run),
//! a remote worker is disconnected or lease-revoked, and the shard is
//! retried with exponential backoff. After
//! [`DispatchConfig::max_attempts`] failures a shard is *quarantined*:
//! the run degrades gracefully, emitting one structured
//! `shard_quarantined` error record (naming the last failing worker
//! ordinal) in place of the shard's reports and continuing.
//! Completed shards are journaled to an fsync'd append-only checkpoint
//! ([`crate::checkpoint`]) keyed by corpus and configuration
//! fingerprints, so a crashed or interrupted coordinator resumes from
//! the last completed shard. A `#shutdown` line on the coordinator's
//! stdin (or [`DispatchConfig::stop_after_shards`]) drains gracefully.
//!
//! ## Fault injection (`MSRS_FAULT`)
//!
//! Workers honor a deterministic fault spec from the `MSRS_FAULT`
//! environment variable:
//! `<kind>:shard=<K>[,worker=<W>][,attempts=<N>][,ms=<T>]` with kinds
//! `crash` (exit before solving), `hang` (suppress heartbeats and
//! sleep), `garble` (emit a non-protocol line and exit), `partial` (emit
//! half a report line with no newline and exit), `disconnect` (drop the
//! connection mid-assignment; a remote worker redials), `stall` (go
//! silent for `ms` milliseconds, then finish the shard — producing a
//! zombie whose late `#done` is a stale drop), `dup-done` (emit the
//! `#done` line twice), and `slow` (sleep `ms` with heartbeats still
//! flowing — a straggler for hedge tests). The fault fires when solving
//! shard `K` while the attempt number is ≤ `N` (default 1), optionally
//! only in the worker whose ordinal (`MSRS_WORKER_INDEX`, set by the
//! coordinator) is `W`; `ms` defaults to 1000.
//!
//! One kind targets the fleet cache plane:
//! `cache-stale-fill:shard=K[,ms=T]` makes the worker solving shard `K`
//! go dark for `ms` after solving and send its `#cachefill` entries (and
//! `#done`) only once its lease has lapsed, so the coordinator must drop
//! them as stale.
//!
//! ## Fleet-shared cache plane
//!
//! When the coordinator is started with a cache store
//! ([`DispatchConfig::cache_path`]), it becomes the fleet's cache
//! authority and advertises it with a trailing `cache` token on each
//! `#shard` header. A worker first admits the shard through
//! [`ServiceCore::admit_line`], exactly as batch and serve admit lines,
//! then probes the misses: it sends one `#cacheq <fp>` per distinct
//! canonical fingerprint its local cache could not answer (none when its
//! cache is inactive), in first-occurrence order, and reads exactly one
//! `#cachehit <fp> <payload>` / `#cachemiss <fp>` reply per probe; the
//! i-th reply must name the i-th probe's fingerprint, or the exchange
//! fails as malformed. A hit is checked against the canonical instance
//! the worker probed for: the schedule must validate, and its makespan,
//! the lower bound, and the job, machine and class counts must match,
//! with the makespan within the certified horizon. The worker installs
//! each hit that passes into its local cache before the miss batch runs;
//! the batch's own cache re-probe then serves the hit instead of solving
//! it, bit-identically to a local hit. Any other payload is solved
//! locally, exactly like a miss. After solving, the worker sends a
//! `#cachefill <fp> <payload>` for every probed miss it now holds (before
//! `#done`, while its lease is live); the coordinator parses each fill
//! and records it through the store's one write path, the one the
//! engine's store writer uses too: the store serializes the report anew
//! and appends it unless it already holds the fingerprint. Fills from
//! zombie or idle workers are dropped (counted as
//! `msrs_dispatch_stale_fills_dropped_total`). The coordinator holds no
//! instances, so it cannot check a fill; a bad store entry costs a
//! probing worker a local solve, never a wrong report. It makes the
//! recorded fills durable with one `fsync` per drained event batch that
//! appended any, so every fill is on disk before the checkpoint journals
//! a later shard.
//! Payloads are [`crate::report::SolveReport::to_store_json`] lines. The
//! exchange is versioned through the remote handshake
//! ([`crate::remote::REMOTE_PROTO_VERSION`]), so pre-cache workers are
//! rejected before they can mis-parse it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msrs_core::{lower_bound, validate, Instance};
use msrs_telemetry::registry;

use crate::cachestore::CacheStore;
use crate::checkpoint::{CheckpointHeader, CheckpointLog, ShardRecord, ShardStats};
use crate::journal::{fnv1a_64_extend, FNV_OFFSET};
use crate::json::{Json, JsonError};
use crate::jsonl::{meaningful, CorpusError};
use crate::remote::{Acceptor, Admission, RemoteHub, REMOTE_PROTO_VERSION, SECRET_ENV};
use crate::report::SolveReport;
use crate::stream::{ServiceCore, StreamStats};
use crate::Engine;

/// Default worker heartbeat period.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(200);
/// Default coordinator silence deadline before a busy worker is declared
/// dead (≫ the heartbeat period).
pub const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(3000);

/// Committed attempt durations kept for the hedging median.
const MEDIAN_WINDOW: usize = 64;
/// Committed attempts required before hedging can trigger.
const HEDGE_MIN_SAMPLES: usize = 3;

/// `EPIPE`/connection-reset classification shared by the worker, remote,
/// and serve session paths: a peer that went away mid-write is a clean
/// end of conversation, not a crash.
pub(crate) fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// The longest line a remote peer may send, newline excluded (64 MiB):
/// serve sessions and the coordinator's worker readers read no further.
pub(crate) const MAX_LINE_BYTES: usize = 64 << 20;

/// [`BufRead::read_line`] for lines from a remote peer: reads at most
/// [`MAX_LINE_BYTES`] bytes and a newline. Returns the bytes read, or
/// `None` when the line runs past the bound (its rest stays unread).
pub(crate) fn read_peer_line(
    reader: &mut impl BufRead,
    buf: &mut String,
) -> io::Result<Option<usize>> {
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(buf)?;
    Ok((n <= MAX_LINE_BYTES || buf.ends_with('\n')).then_some(n))
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    Crash,
    Hang,
    Garble,
    Partial,
    Disconnect,
    Stall,
    DupDone,
    Slow,
    /// Go dark (heartbeats off) for `ms` after solving, then send the
    /// `#cachefill` entries and `#done` — by then the lease has lapsed
    /// and the fills must be dropped as stale.
    CacheStaleFill,
}

/// Parsed `MSRS_FAULT` spec; see the module docs for the grammar.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSpec {
    pub(crate) kind: FaultKind,
    shard: usize,
    worker: Option<u64>,
    attempts: u32,
    /// Duration parameter for `stall`/`slow`/`cache-stale-fill`, in
    /// milliseconds.
    pub(crate) ms: u64,
}

impl FaultSpec {
    pub(crate) fn parse(spec: &str) -> Option<FaultSpec> {
        let (kind, params) = spec.split_once(':')?;
        let kind = match kind {
            "crash" => FaultKind::Crash,
            "hang" => FaultKind::Hang,
            "garble" => FaultKind::Garble,
            "partial" => FaultKind::Partial,
            "disconnect" => FaultKind::Disconnect,
            "stall" => FaultKind::Stall,
            "dup-done" => FaultKind::DupDone,
            "slow" => FaultKind::Slow,
            "cache-stale-fill" => FaultKind::CacheStaleFill,
            _ => return None,
        };
        let mut shard = None;
        let mut worker = None;
        let mut attempts = 1u32;
        let mut ms = 1000u64;
        for kv in params.split(',') {
            let (k, v) = kv.split_once('=')?;
            match k {
                "shard" => shard = Some(v.parse().ok()?),
                "worker" => worker = Some(v.parse().ok()?),
                "attempts" => attempts = v.parse().ok()?,
                "ms" => ms = v.parse().ok()?,
                _ => return None,
            }
        }
        Some(FaultSpec {
            kind,
            shard: shard?, // every fault targets a shard
            worker,
            attempts,
            ms,
        })
    }

    pub(crate) fn from_env() -> Option<FaultSpec> {
        let spec = std::env::var("MSRS_FAULT").ok()?;
        let parsed = FaultSpec::parse(&spec);
        if parsed.is_none() {
            eprintln!("msrs: ignoring unparsable MSRS_FAULT `{spec}`");
        }
        parsed
    }

    /// Should the fault fire for this (shard, 1-based attempt) in the
    /// worker with ordinal `worker_index`?
    fn fires(&self, shard: usize, attempt: u32, worker_index: Option<u64>) -> bool {
        self.shard == shard
            && attempt <= self.attempts
            && match self.worker {
                None => true,
                Some(w) => worker_index == Some(w),
            }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Why a worker conversation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// The coordinator sent `#shutdown`: the run is over, do not redial.
    Shutdown,
    /// The transport closed (EOF / reset): a remote worker may redial —
    /// the coordinator may just have restarted.
    Eof,
}

/// Runs the worker half of the dispatch protocol until the transport
/// closes or a `#shutdown` line arrives: reads shard assignments, solves
/// them through a persistent [`ServiceCore`], and emits reports + `#done`
/// stats (or a `#error` record after a decode error's prefix reports).
///
/// A broken pipe on `output` — the coordinator died — ends the worker
/// cleanly (`Ok`), mirroring the serve sessions' disconnect handling.
/// Injected faults (`MSRS_FAULT`) mostly terminate the *process* via
/// [`std::process::exit`]; they exist for the crash-tolerance test suite
/// and CI.
///
/// `_decode_threads` is ignored: the worker decodes every line on its own
/// thread.
pub fn run_worker<R, W>(
    engine: &Engine,
    input: R,
    output: W,
    heartbeat: Duration,
    _decode_threads: usize,
) -> io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let worker_index = std::env::var("MSRS_WORKER_INDEX")
        .ok()
        .and_then(|v| v.parse().ok());
    run_worker_conn(engine, input, output, heartbeat, worker_index).map(|_| ())
}

/// One connected worker session over any `(BufRead, Write)` pair (a TCP
/// stream, or the buffers handed to [`run_worker`]). Reports how the
/// session ended so [`crate::remote::run_remote_worker`] can decide
/// whether to redial.
pub(crate) fn run_worker_conn<R, W>(
    engine: &Engine,
    input: R,
    output: W,
    heartbeat: Duration,
    worker_index: Option<u64>,
) -> io::Result<WorkerExit>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let out = Arc::new(Mutex::new(output));
    let stop = Arc::new(AtomicBool::new(false));
    let hb_enabled = Arc::new(AtomicBool::new(true));
    let hb_thread = spawn_heartbeat(
        Arc::clone(&out),
        Arc::clone(&stop),
        Arc::clone(&hb_enabled),
        heartbeat,
    );
    let result = worker_loop(engine, input, &out, &hb_enabled, worker_index);
    stop.store(true, Ordering::Relaxed);
    let _ = hb_thread.join();
    match result {
        Err(e) if is_disconnect(&e) => Ok(WorkerExit::Eof),
        other => other,
    }
}

fn spawn_heartbeat<W: Write + Send + 'static>(
    out: Arc<Mutex<W>>,
    stop: Arc<AtomicBool>,
    enabled: Arc<AtomicBool>,
    period: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        std::thread::sleep(period);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if !enabled.load(Ordering::Relaxed) {
            continue;
        }
        let mut w = out.lock().expect("worker output lock");
        // A dead connection means the coordinator is gone; stop quietly and
        // let the main loop notice on its next write or read.
        if w.write_all(b"#hb\n").and_then(|()| w.flush()).is_err() {
            return;
        }
    })
}

fn worker_loop<R: BufRead, W: Write + Send>(
    engine: &Engine,
    mut input: R,
    out: &Arc<Mutex<W>>,
    hb_enabled: &Arc<AtomicBool>,
    worker_index: Option<u64>,
) -> io::Result<WorkerExit> {
    let fault = FaultSpec::from_env();
    let mut core = ServiceCore::new();
    let mut buf = String::new();
    let mut lines: Vec<String> = Vec::new();
    loop {
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            return Ok(WorkerExit::Eof); // coordinator closed the transport
        }
        let header = buf.trim_end();
        if header == "#shutdown" {
            return Ok(WorkerExit::Shutdown);
        }
        let Some((shard, attempt, n, cache_plane)) = parse_shard_header(header) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected coordinator line `{header}`"),
            ));
        };
        lines.clear();
        for _ in 0..n {
            buf.clear();
            if input.read_line(&mut buf)? == 0 {
                return Ok(WorkerExit::Eof);
            }
            lines.push(buf.trim_end().to_string());
        }
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            return Ok(WorkerExit::Eof);
        }
        if buf.trim_end() != "#run" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shard assignment not terminated by #run",
            ));
        }
        let mut dup_done = false;
        let mut stale_fill_ms = None;
        if let Some(f) = fault.filter(|f| f.fires(shard, attempt, worker_index)) {
            match f.kind {
                FaultKind::CacheStaleFill => stale_fill_ms = Some(f.ms),
                FaultKind::DupDone => dup_done = true,
                _ => inject_fault(f, out, hb_enabled)?,
            }
        }
        let started = Instant::now();
        core.begin(lines.len().max(1));
        let mut error = None;
        for (i, line) in lines.iter().enumerate() {
            // Line numbers are shard-local 1-based ordinals; the
            // coordinator translates them back to physical corpus line
            // numbers.
            if let Err(e) = core.admit_line(engine, i + 1, line, Instant::now()) {
                error = Some(e);
                break;
            }
        }
        // When the coordinator offers the shared cache, ask it for the
        // admitted misses before solving them.
        let fills = if cache_plane && engine.cache_active() {
            match cache_exchange(engine, &mut input, out, core.pending_misses())? {
                Some(fills) => fills,
                None => return Ok(WorkerExit::Eof),
            }
        } else {
            Vec::new()
        };
        solve_shard(
            engine,
            &mut core,
            ShardJob {
                shard,
                attempt,
                worker_index,
                started,
                error,
                fills,
                dup_done,
                stale_fill_ms,
            },
            out,
            hb_enabled,
        )?;
    }
}

fn parse_shard_header(line: &str) -> Option<(usize, u32, usize, bool)> {
    let mut it = line.split_whitespace();
    if it.next()? != "#shard" {
        return None;
    }
    let shard = it.next()?.parse().ok()?;
    let attempt = it.next()?.parse().ok()?;
    let n = it.next()?.parse().ok()?;
    let cache = match it.next() {
        None => false,
        Some("cache") => true,
        Some(_) => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some((shard, attempt, n, cache))
}

/// Probes the coordinator's shared cache for `probes`, the admitted
/// shard's miss batch (its distinct canonical forms), and installs each hit
/// that [answers](answers) its probe's instance in the local cache, where
/// the miss batch's own re-probe finds it instead of solving. Returns the
/// fingerprints left to solve locally (the post-solve `#cachefill`
/// obligations), or `None` when the coordinator closed the transport
/// mid-exchange.
fn cache_exchange<R: BufRead, W: Write + Send>(
    engine: &Engine,
    input: &mut R,
    out: &Arc<Mutex<W>>,
    probes: &[(u128, Instance)],
) -> io::Result<Option<Vec<u128>>> {
    if probes.is_empty() {
        return Ok(Some(Vec::new()));
    }
    {
        let mut w = out.lock().expect("worker output lock");
        for (fp, _) in probes {
            writeln!(w, "#cacheq {fp:032x}")?;
        }
        w.flush()?;
    }
    // The coordinator answers every probe, in order, before anything
    // else travels down this transport (the worker holds the lease).
    let mut fills = Vec::new();
    let mut buf = String::new();
    for (fp, instance) in probes {
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            return Ok(None);
        }
        let line = buf.trim_end();
        let mut parts = line.splitn(3, ' ');
        let (kind, hex, payload) = (parts.next(), parts.next(), parts.next());
        let answered = hex.and_then(|hex| u128::from_str_radix(hex, 16).ok()) == Some(*fp);
        let payload = match (kind, payload) {
            (Some("#cachehit"), Some(payload)) if answered => Some(payload),
            (Some("#cachemiss"), None) if answered => None,
            _ => {
                let line = truncate(line, 80);
                let why = format!("cache reply `{line}` does not answer probe {fp:032x}");
                return Err(io::Error::new(io::ErrorKind::InvalidData, why));
            }
        };
        let hit = payload
            .and_then(|p| Json::parse(p).ok())
            .and_then(|v| SolveReport::from_store_json(&v))
            .filter(|report| answers(report, instance));
        match hit {
            Some(report) => engine.serve_cache_install(*fp, Arc::new(report)),
            // Anything unverifiable degrades to a local solve, never a
            // wrong answer.
            None => fills.push(*fp),
        }
    }
    Ok(Some(fills))
}

/// Whether a fleet cache hit answers the canonical instance it was probed
/// for: its schedule is valid for the instance, its makespan is that
/// schedule's and within its certificate, and its lower bound and its job,
/// machine and class counts are the instance's.
fn answers(report: &SolveReport, instance: &Instance) -> bool {
    validate(instance, &report.schedule).is_ok()
        && report.schedule.makespan(instance) == report.makespan
        && report.makespan <= report.certified_horizon
        && report.lower_bound == lower_bound(instance)
        && report.jobs == instance.num_jobs()
        && report.machines == instance.machines()
        && report.classes == instance.num_classes()
}

/// Applies an injected fault. `crash`/`garble`/`partial` terminate the
/// process; `hang` parks it (heartbeats off) until the coordinator's
/// health monitor kills it; `disconnect` raises a synthetic transport
/// error; `stall` and `slow` return to the solve path late. The
/// store-mutation kinds act at `CacheStore::open`, not here.
fn inject_fault<W: Write + Send>(
    f: FaultSpec,
    out: &Arc<Mutex<W>>,
    hb_enabled: &AtomicBool,
) -> io::Result<()> {
    match f.kind {
        FaultKind::Crash => std::process::exit(101),
        FaultKind::Hang => {
            hb_enabled.store(false, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        FaultKind::Garble => {
            let mut w = out.lock().expect("worker output lock");
            let _ = w.write_all(b"!!! injected garbled output !!!\n");
            let _ = w.flush();
            std::process::exit(3);
        }
        FaultKind::Partial => {
            let mut w = out.lock().expect("worker output lock");
            let _ = w.write_all(b"{\"id\":\"torn-report\",\"makespan\":");
            let _ = w.flush();
            std::process::exit(3);
        }
        FaultKind::Disconnect => Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected disconnect",
        )),
        FaultKind::Stall => {
            // Go fully silent long enough for the lease to lapse, then
            // resume: the late #done exercises the stale-attempt drop.
            hb_enabled.store(false, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(f.ms));
            hb_enabled.store(true, Ordering::Relaxed);
            Ok(())
        }
        FaultKind::Slow => {
            // Straggle with heartbeats still flowing: hedge bait.
            std::thread::sleep(Duration::from_millis(f.ms));
            Ok(())
        }
        FaultKind::DupDone | FaultKind::CacheStaleFill => Ok(()),
    }
}

/// One admitted shard as the worker finishes it: when admission started,
/// the decode error that ended it, if any, and the cache-plane
/// obligations attached to it.
struct ShardJob {
    shard: usize,
    attempt: u32,
    worker_index: Option<u64>,
    started: Instant,
    error: Option<CorpusError>,
    fills: Vec<u128>,
    dup_done: bool,
    stale_fill_ms: Option<u64>,
}

fn solve_shard<W: Write + Send>(
    engine: &Engine,
    core: &mut ServiceCore,
    job: ShardJob,
    out: &Arc<Mutex<W>>,
    hb_enabled: &Arc<AtomicBool>,
) -> io::Result<()> {
    core.flush_with(engine, |bytes, _| {
        out.lock().expect("worker output lock").write_all(bytes)
    })?;
    let outcome = core.finish(job.started, job.error);
    // Honour #cachefill obligations before #done: the lease is still
    // live here, so the coordinator attributes the fills to this
    // attempt. The stale-fill fault delays them past lease expiry with
    // heartbeats dark, proving the coordinator drops what arrives late.
    if outcome.error.is_none() && !job.fills.is_empty() {
        if let Some(ms) = job.stale_fill_ms {
            hb_enabled.store(false, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(ms));
            hb_enabled.store(true, Ordering::Relaxed);
        }
        // All fill lines go out in one write.
        let (mut lines, mut payload) = (Vec::new(), Vec::new());
        for fp in &job.fills {
            if let Some(report) = engine.serve_cached_peek(*fp) {
                report.write_store_json(&mut payload);
                write!(lines, "#cachefill {fp:032x} ")?;
                lines.extend_from_slice(&payload);
                lines.push(b'\n');
            }
        }
        let mut w = out.lock().expect("worker output lock");
        w.write_all(&lines)?;
        w.flush()?;
    }
    let tail = match &outcome.error {
        None => {
            let mut obj = vec![
                ("shard".into(), Json::Num(job.shard as i128)),
                ("attempt".into(), Json::Num(job.attempt as i128)),
            ];
            obj.extend(ShardStats::from_stream(&outcome.stats).to_json_fields());
            format!("#done {}", Json::Obj(obj))
        }
        Some(e) => format!(
            "#error {}",
            corpus_error_json(job.shard, job.attempt, job.worker_index, e)
        ),
    };
    let mut w = out.lock().expect("worker output lock");
    for _ in 0..if job.dup_done { 2 } else { 1 } {
        w.write_all(tail.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

fn corpus_error_json(shard: usize, attempt: u32, worker: Option<u64>, e: &CorpusError) -> Json {
    let (kind, line, at, reason) = match e {
        CorpusError::Json { line, error } => ("json", *line, error.at, error.reason.clone()),
        CorpusError::Malformed { line, reason } => ("malformed", *line, 0, reason.clone()),
        CorpusError::Io { line, message } => ("io", *line, 0, message.clone()),
    };
    let mut obj = vec![
        ("shard".into(), Json::Num(shard as i128)),
        ("attempt".into(), Json::Num(attempt as i128)),
    ];
    if let Some(w) = worker {
        obj.push(("worker".into(), Json::Num(w as i128)));
    }
    obj.extend([
        ("local_line".into(), Json::Num(line as i128)),
        ("kind".into(), Json::Str(kind.into())),
        ("at".into(), Json::Num(at as i128)),
        ("reason".into(), Json::Str(reason)),
    ]);
    Json::Obj(obj)
}

fn corpus_error_from_json(v: &Json, global_line: usize) -> Option<CorpusError> {
    let reason = v.get("reason")?.as_str()?.to_string();
    Some(match v.get("kind")?.as_str()? {
        "json" => CorpusError::Json {
            line: global_line,
            error: JsonError {
                at: v.get("at")?.as_usize()?,
                reason,
            },
        },
        "malformed" => CorpusError::Malformed {
            line: global_line,
            reason,
        },
        _ => CorpusError::Io {
            line: global_line,
            message: reason,
        },
    })
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Configuration of one dispatch run.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker argv: program plus arguments (typically the `msrs` binary
    /// with the `worker` subcommand and the engine flags), to which
    /// `--connect <listener> --reconnect-max 0` is appended. May be empty
    /// only when `workers == 0` (remote-only fleet).
    pub worker_cmd: Vec<String>,
    /// Child worker processes to keep running (remote workers join on top
    /// of these).
    pub workers: usize,
    /// Meaningful corpus lines per shard (identical boundaries to
    /// `msrs batch --shard-size`).
    pub shard_size: usize,
    /// Attempts per shard before it is quarantined.
    pub max_attempts: u32,
    /// Base retry backoff; doubles per failed attempt.
    pub retry_backoff: Duration,
    /// Silence deadline for a busy worker (no reports, no heartbeats).
    pub heartbeat_timeout: Duration,
    /// Optional wall-clock deadline per shard attempt.
    pub shard_timeout: Option<Duration>,
    /// Graceful stop after this many shards have been emitted (resume
    /// finishes the run) — deterministic mid-run interruption for tests.
    pub stop_after_shards: Option<usize>,
    /// Straggler hedging threshold as a multiple of the trailing median
    /// committed-attempt time; ≤ 0 disables hedging (the default).
    pub hedge_multiplier: f64,
    /// Floor for the hedging threshold, so tiny medians don't cause
    /// hedge storms.
    pub hedge_min: Duration,
    /// [`crate::EngineConfig::content_fingerprint`] of the engine
    /// configuration the workers run — the checkpoint's run key and the
    /// handshake's compatibility check (default: the default config's).
    pub config_fp: u64,
    /// Durable cache store backing the fleet-shared cache plane; `None`
    /// disables the plane (workers solve everything locally).
    pub cache_path: Option<PathBuf>,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            worker_cmd: Vec::new(),
            workers: 2,
            shard_size: crate::stream::DEFAULT_SHARD_SIZE,
            max_attempts: 3,
            retry_backoff: Duration::from_millis(50),
            heartbeat_timeout: DEFAULT_HEARTBEAT_TIMEOUT,
            shard_timeout: None,
            stop_after_shards: None,
            hedge_multiplier: 0.0,
            hedge_min: Duration::from_millis(250),
            config_fp: crate::EngineConfig::default().content_fingerprint(),
            cache_path: None,
        }
    }
}

/// A shard the coordinator quarantined after exhausting its retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// 0-based shard index.
    pub shard: usize,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// Ordinal of the last worker that failed the shard, when known.
    pub worker: Option<u64>,
    /// The last failure observed.
    pub message: String,
}

/// What a dispatch run produced.
#[derive(Debug, Default)]
pub struct DispatchOutcome {
    /// Merged run summary (instances, ratios, phase splits) across
    /// resumed + freshly completed shards.
    pub stats: StreamStats,
    /// Shards emitted to the output (resumed + fresh, incl. quarantined).
    pub shards_total: usize,
    /// Shards skipped because the checkpoint already recorded them.
    pub shards_resumed: usize,
    /// Shard attempts re-queued after worker failures.
    pub retries: u64,
    /// Worker processes spawned (initial fleet + replacements).
    pub workers_spawned: u64,
    /// Workers this coordinator did not spawn, accepted over the run.
    pub remote_workers: u64,
    /// Remote workers that reported a prior session in their handshake.
    pub reconnects: u64,
    /// Leases revoked for heartbeat silence or shard deadline.
    pub lease_expiries: u64,
    /// Speculative duplicate attempts launched.
    pub hedges_launched: u64,
    /// Hedge attempts that won their race and committed.
    pub hedges_won: u64,
    /// Hedge attempts whose twin committed first.
    pub hedges_wasted: u64,
    /// Stale-attempt `#done`/`#error` lines discarded un-committed.
    pub stale_drops: u64,
    /// `#cacheq` probes answered from the coordinator's durable store.
    pub fleet_cache_hits: u64,
    /// `#cachefill` entries dropped because the sending lease had lapsed.
    pub stale_fills_dropped: u64,
    /// Shards that exhausted their retry budget, in shard order.
    pub quarantined: Vec<QuarantinedShard>,
    /// True when the run stopped early (graceful drain) with a
    /// resumable checkpoint rather than finishing the corpus.
    pub interrupted: bool,
    /// `Some` when the corpus itself was malformed/unreadable; reports
    /// for every line before the error have been emitted.
    pub error: Option<CorpusError>,
}

/// One shard read from the corpus: trimmed meaningful lines plus their
/// physical 1-based line numbers and the raw-text fingerprint.
struct Shard {
    index: usize,
    lines: Vec<String>,
    line_nos: Vec<usize>,
    fp: u64,
}

/// Incremental corpus reader producing [`Shard`]s; memory stays
/// O(shard_size) — only in-flight shards are resident.
struct ShardSource<R> {
    reader: R,
    line_no: usize,
    next_index: usize,
    done: bool,
}

impl<R: BufRead> ShardSource<R> {
    fn new(reader: R) -> Self {
        ShardSource {
            reader,
            line_no: 0,
            next_index: 0,
            done: false,
        }
    }

    fn next_shard(&mut self, shard_size: usize) -> Result<Option<Shard>, CorpusError> {
        if self.done {
            return Ok(None);
        }
        let mut lines = Vec::new();
        let mut line_nos = Vec::new();
        let mut hash = FNV_OFFSET;
        let mut buf = String::new();
        while lines.len() < shard_size {
            buf.clear();
            self.line_no += 1;
            match self.reader.read_line(&mut buf) {
                Ok(0) => {
                    self.done = true;
                    self.line_no -= 1;
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Err(CorpusError::Io {
                        line: self.line_no,
                        message: e.to_string(),
                    });
                }
            }
            let Some(line) = meaningful(&buf) else {
                continue;
            };
            hash = fnv1a_64_extend(hash, line.as_bytes());
            hash = fnv1a_64_extend(hash, b"\n");
            lines.push(line.to_string());
            line_nos.push(self.line_no);
        }
        if lines.is_empty() {
            self.done = true;
            return Ok(None);
        }
        let shard = Shard {
            index: self.next_index,
            lines,
            line_nos,
            fp: hash,
        };
        self.next_index += 1;
        Ok(Some(shard))
    }
}

/// Events a worker's output reader thread reports to the coordinator.
pub(crate) enum Event {
    /// A complete report line (without its newline).
    Report(String),
    /// `#hb`.
    Heartbeat,
    /// `#done` with parsed stats.
    Done {
        shard: usize,
        attempt: u32,
        stats: ShardStats,
    },
    /// `#error` with the parsed corpus-error payload.
    Error(Json),
    /// `#cacheq` — a shared-cache probe for a canonical fingerprint.
    CacheQ(u128),
    /// `#cachefill` — a freshly solved report offered to the shared
    /// cache (fingerprint + still-unverified payload text).
    CacheFill(u128, String),
    /// A line that is not part of the protocol (garbled output, a torn
    /// trailing line at EOF, a line over [`MAX_LINE_BYTES`]).
    Garbage(String),
    /// The worker's output stream closed.
    Eof,
}

/// What the coordinator's event channel carries: worker protocol events
/// plus workers that completed the handshake, as their stream, their
/// reconnect count, and — for a child this coordinator spawned — its
/// ordinal.
pub(crate) enum Msg {
    Worker(u64, Event),
    Joined(TcpStream, u64, Option<u64>),
}

/// A worker's lease state as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    Idle,
    Busy,
    /// A remote worker whose lease was revoked (heartbeat silence or
    /// deadline) but whose socket is still open: anything it sends for
    /// the stale attempt is discarded, and a `#done`/`#error` returns it
    /// to `Idle`.
    Zombie,
}

/// A worker connection that passed the handshake.
struct WorkerHandle {
    ordinal: u64,
    stream: TcpStream,
    /// The process, for a child this coordinator spawned.
    child: Option<Child>,
    reader: JoinHandle<()>,
    state: WorkerState,
    last_output: Instant,
    shard_started: Instant,
}

impl WorkerHandle {
    /// Tears the worker down: kill + reap a child, shut the socket down,
    /// and join the reader thread.
    fn teardown(self) {
        if let Some(child) = self.child {
            reap(child);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.reader.join();
    }
}

/// A spawned child that has not finished its handshake yet.
struct Pending {
    ordinal: u64,
    child: Child,
    spawned: Instant,
}

fn reap(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Per-shard lease bookkeeping: the attempt counter, live attempt count,
/// and failure history. Lives in `tracks` from assignment until the
/// shard commits or quarantines.
struct ShardTrack {
    shard: Arc<Shard>,
    /// Failed attempts so far.
    failures: u32,
    /// Next attempt id to hand out (1-based, monotonic — stale attempts
    /// are recognized by comparing against this sequence).
    next_attempt: u32,
    /// Attempts currently running (2 while a hedge race is on).
    active: u32,
    /// The attempt id of the outstanding hedge, if one was launched.
    hedge_attempt: Option<u32>,
    last_failure: String,
    last_worker: Option<u64>,
}

/// A shard attempt currently leased to a worker.
struct Inflight {
    index: usize,
    attempt: u32,
    /// Buffered report bytes — committed only on a matching `#done`.
    reports: Vec<u8>,
    report_count: usize,
    started: Instant,
}

/// A shard waiting for its retry backoff to elapse.
struct Retry {
    index: usize,
    not_before: Instant,
}

/// A shard whose output is final, waiting to be emitted in order.
struct Completed {
    bytes: Vec<u8>,
    lines: usize,
    fp: u64,
    attempts: u32,
    stats: ShardStats,
    quarantined: bool,
    /// A decode error terminating the stream at this shard (the bytes
    /// hold the prefix reports before the error).
    error: Option<CorpusError>,
}

/// The coordinator's side of the fleet-shared cache plane: the durable
/// store plus an in-memory index of every payload it holds.
struct CacheAuthority {
    store: CacheStore,
    map: HashMap<u128, Arc<str>>,
}

struct Coordinator<'a> {
    cfg: &'a DispatchConfig,
    /// Admits every worker connection, children included.
    acceptor: Acceptor,
    /// The secret the children present in their `#hello`.
    secret: String,
    /// Children spawned but not yet joined.
    pending: Vec<Pending>,
    /// Children in a row that never joined.
    join_failures: u32,
    /// `Some` when a `--cache-path` store backs the fleet cache plane.
    cache: Option<CacheAuthority>,
    workers: Vec<WorkerHandle>,
    inflight: HashMap<u64, Inflight>,
    tracks: HashMap<usize, ShardTrack>,
    /// Shards whose output is final (committed, errored, or
    /// quarantined): late attempts for these are stale drops.
    committed: HashSet<usize>,
    retries: Vec<Retry>,
    completed: BTreeMap<usize, Completed>,
    /// Trailing committed-attempt durations for the hedging median.
    durations: VecDeque<Duration>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    next_ordinal: u64,
    /// The run's counters and quarantined shards.
    outcome: DispatchOutcome,
}

impl<'a> Coordinator<'a> {
    /// Starts accepting workers on `hub`; `open` also admits workers this
    /// coordinator did not spawn.
    fn new(cfg: &'a DispatchConfig, hub: RemoteHub, open: bool) -> io::Result<Self> {
        let (tx, rx) = mpsc::channel();
        let mut bytes = [0u8; 16];
        File::open("/dev/urandom")?.read_exact(&mut bytes)?;
        let secret: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let admission = Admission {
            config_fp: cfg.config_fp,
            secret: secret.clone(),
            open,
        };
        Ok(Coordinator {
            cfg,
            acceptor: hub.accept_workers(tx.clone(), admission)?,
            secret,
            pending: Vec::new(),
            join_failures: 0,
            cache: None,
            workers: Vec::new(),
            inflight: HashMap::new(),
            tracks: HashMap::new(),
            committed: HashSet::new(),
            retries: Vec::new(),
            completed: BTreeMap::new(),
            durations: VecDeque::new(),
            tx,
            rx,
            next_ordinal: 0,
            outcome: DispatchOutcome::default(),
        })
    }

    /// Keeps `cfg.workers` children alive. A child that exits, or has not
    /// finished its handshake within the heartbeat timeout, is reaped and
    /// replaced; after `max_attempts` of those in a row the run fails, as
    /// such a child never holds a lease the retry budget could count.
    fn supervise(&mut self) -> io::Result<()> {
        let timeout = self.cfg.heartbeat_timeout;
        let mut i = 0;
        while let Some(p) = self.pending.get_mut(i) {
            let failure = match p.child.try_wait()? {
                Some(status) => format!("exited ({status}) before its handshake"),
                None if p.spawned.elapsed() > timeout => {
                    format!("missed its {} ms handshake deadline", timeout.as_millis())
                }
                None => {
                    i += 1;
                    continue;
                }
            };
            let p = self.pending.swap_remove(i);
            reap(p.child);
            registry().dispatch_worker_crashes_total.inc();
            self.join_failures += 1;
            if self.join_failures >= self.cfg.max_attempts {
                return Err(io::Error::other(format!(
                    "worker {} {failure} ({} in a row never joined)",
                    p.ordinal, self.join_failures
                )));
            }
        }
        let children = self.workers.iter().filter(|w| w.child.is_some()).count();
        for _ in children + self.pending.len()..self.cfg.workers {
            let ordinal = self.next_ordinal;
            self.next_ordinal += 1;
            let child = Command::new(&self.cfg.worker_cmd[0])
                .args(&self.cfg.worker_cmd[1..])
                .args(["--connect", &self.acceptor.addr.to_string()])
                .args(["--reconnect-max", "0"])
                .env("MSRS_WORKER_INDEX", ordinal.to_string())
                .env(SECRET_ENV, &self.secret)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()?;
            registry().dispatch_workers_spawned_total.inc();
            self.outcome.workers_spawned += 1;
            self.pending.push(Pending {
                ordinal,
                child,
                spawned: Instant::now(),
            });
        }
        Ok(())
    }

    /// Admits a worker that completed the handshake: sends the
    /// `#welcome`, starts its reader thread, and parks it idle. A child
    /// joins once, under the ordinal it was spawned with.
    fn register(&mut self, mut stream: TcpStream, reconnects: u64, child: Option<u64>) {
        let (ordinal, child) = match child {
            Some(ordinal) => {
                let Some(i) = self.pending.iter().position(|p| p.ordinal == ordinal) else {
                    let reason = "this child already joined or was replaced";
                    return crate::remote::reject(stream, reason, self.cfg.config_fp);
                };
                self.join_failures = 0;
                (ordinal, Some(self.pending.swap_remove(i).child))
            }
            None => {
                self.next_ordinal += 1;
                (self.next_ordinal - 1, None)
            }
        };
        let welcome =
            format!("#welcome {{\"proto\":{REMOTE_PROTO_VERSION},\"worker\":{ordinal}}}\n");
        let read_half = stream
            .write_all(welcome.as_bytes())
            .and_then(|()| stream.try_clone());
        let Ok(read_half) = read_half else {
            // Died between handshake and registration; a child is replaced.
            if let Some(child) = child {
                reap(child);
            }
            return;
        };
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || read_worker_lines(ordinal, read_half, &tx));
        if child.is_none() {
            registry().dispatch_remote_workers_total.inc();
            self.outcome.remote_workers += 1;
            if reconnects > 0 {
                registry().dispatch_reconnects_total.inc();
                self.outcome.reconnects += 1;
            }
        }
        self.workers.push(WorkerHandle {
            ordinal,
            stream,
            child,
            reader,
            state: WorkerState::Idle,
            last_output: Instant::now(),
            shard_started: Instant::now(),
        });
    }

    /// Starts tracking a fresh shard from the source; returns its index.
    fn track(&mut self, shard: Shard) -> usize {
        let index = shard.index;
        self.tracks.insert(
            index,
            ShardTrack {
                shard: Arc::new(shard),
                failures: 0,
                next_attempt: 1,
                active: 0,
                hedge_attempt: None,
                last_failure: String::new(),
                last_worker: None,
            },
        );
        index
    }

    /// Leases the next attempt of shard `index` to the idle worker at
    /// `pos`. On a transport failure the worker is torn down and the
    /// attempt goes through the normal failure/retry path.
    fn assign(&mut self, pos: usize, index: usize) {
        let track = self.tracks.get_mut(&index).expect("assigning known shard");
        let attempt = track.next_attempt;
        track.next_attempt += 1;
        track.active += 1;
        let shard = Arc::clone(&track.shard);
        let mut payload =
            String::with_capacity(shard.lines.iter().map(|l| l.len() + 1).sum::<usize>() + 64);
        // The trailing `cache` token advertises the shared cache plane;
        // workers without a serve-mode cache simply ignore the offer.
        payload.push_str(&format!(
            "#shard {} {} {}{}\n",
            shard.index,
            attempt,
            shard.lines.len(),
            if self.cache.is_some() { " cache" } else { "" }
        ));
        for line in &shard.lines {
            payload.push_str(line);
            payload.push('\n');
        }
        payload.push_str("#run\n");
        let w = &mut self.workers[pos];
        let ordinal = w.ordinal;
        w.state = WorkerState::Busy;
        w.last_output = Instant::now();
        w.shard_started = Instant::now();
        let sent = w.stream.write_all(payload.as_bytes());
        self.inflight.insert(
            ordinal,
            Inflight {
                index,
                attempt,
                reports: Vec::new(),
                report_count: 0,
                started: Instant::now(),
            },
        );
        if let Err(e) = sent {
            self.fail_worker(ordinal, &format!("failed to send shard: {e}"));
        }
    }

    fn idle_worker(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.state == WorkerState::Idle)
    }

    /// Records a failed attempt of shard `index`. If a twin attempt is
    /// still running (hedge race), the shard stays leased; otherwise it
    /// is retried with backoff or quarantined. No-op when the shard
    /// already committed (a hedge loser dying late).
    fn fail_attempt(&mut self, index: usize, attempt: u32, ordinal: u64, reason: &str) {
        let Some(track) = self.tracks.get_mut(&index) else {
            return; // shard already committed/quarantined: nothing to redo
        };
        track.active = track.active.saturating_sub(1);
        track.failures += 1;
        track.last_failure = reason.to_string();
        track.last_worker = Some(ordinal);
        if track.hedge_attempt == Some(attempt) {
            track.hedge_attempt = None;
        }
        if track.active > 0 {
            return; // the surviving twin is the live retry
        }
        let failures = track.failures;
        if failures >= self.cfg.max_attempts {
            let track = self.tracks.remove(&index).expect("present above");
            registry().dispatch_quarantines_total.inc();
            self.outcome.quarantined.push(QuarantinedShard {
                shard: index,
                attempts: failures,
                worker: track.last_worker,
                message: track.last_failure.clone(),
            });
            let mut obj = vec![
                ("error".into(), Json::Str("shard_quarantined".into())),
                ("shard".into(), Json::Num(index as i128)),
                ("attempts".into(), Json::Num(failures as i128)),
                ("lines".into(), Json::Num(track.shard.lines.len() as i128)),
            ];
            if let Some(w) = track.last_worker {
                obj.push(("worker".into(), Json::Num(w as i128)));
            }
            obj.push(("message".into(), Json::Str(track.last_failure.clone())));
            let line = Json::Obj(obj);
            self.committed.insert(index);
            self.completed.insert(
                index,
                Completed {
                    bytes: format!("{line}\n").into_bytes(),
                    lines: track.shard.lines.len(),
                    fp: track.shard.fp,
                    attempts: failures,
                    stats: ShardStats::default(),
                    quarantined: true,
                    error: None,
                },
            );
        } else {
            registry().dispatch_retries_total.inc();
            self.outcome.retries += 1;
            // Exponential backoff, capped at 2⁶× the base.
            let factor = 1u32 << (failures - 1).min(6);
            self.retries.push(Retry {
                index,
                not_before: Instant::now() + self.cfg.retry_backoff * factor,
            });
        }
    }

    /// Removes and tears down a worker; if it held a lease, the attempt
    /// fails through [`Self::fail_attempt`].
    fn fail_worker(&mut self, ordinal: u64, reason: &str) {
        let Some(pos) = self.workers.iter().position(|w| w.ordinal == ordinal) else {
            return;
        };
        let w = self.workers.remove(pos);
        w.teardown();
        registry().dispatch_worker_crashes_total.inc();
        if let Some(entry) = self.inflight.remove(&ordinal) {
            self.fail_attempt(entry.index, entry.attempt, ordinal, reason);
        }
    }

    /// Revokes a remote worker's lease without dropping its socket: the
    /// worker becomes a zombie whose stale output is discarded, and the
    /// shard is requeued immediately.
    fn revoke_lease(&mut self, pos: usize, reason: &str) {
        let ordinal = self.workers[pos].ordinal;
        self.workers[pos].state = WorkerState::Zombie;
        if let Some(entry) = self.inflight.remove(&ordinal) {
            self.fail_attempt(entry.index, entry.attempt, ordinal, reason);
        }
    }

    fn stale_drop(&mut self) {
        registry().dispatch_stale_drops_total.inc();
        self.outcome.stale_drops += 1;
    }

    /// The next `recv_timeout` bound: the soonest health deadline or
    /// retry release, capped so shutdown flags and hedging checks happen
    /// promptly.
    fn next_deadline(&self) -> Duration {
        let mut deadline = Duration::from_millis(100);
        let now = Instant::now();
        for w in self.workers.iter().filter(|w| w.state == WorkerState::Busy) {
            let hb_left = self
                .cfg
                .heartbeat_timeout
                .saturating_sub(now.duration_since(w.last_output));
            deadline = deadline.min(hb_left);
            if let Some(limit) = self.cfg.shard_timeout {
                deadline = deadline.min(limit.saturating_sub(now.duration_since(w.shard_started)));
            }
        }
        for r in &self.retries {
            deadline = deadline.min(r.not_before.saturating_duration_since(now));
        }
        deadline.max(Duration::from_millis(1))
    }

    /// Expires the lease of any busy worker past its silence or shard
    /// deadline: child workers are killed and replaced, remote workers
    /// are zombified (their socket may still wake up).
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let late: Vec<(u64, bool, String)> = self
            .workers
            .iter()
            .filter(|w| w.state == WorkerState::Busy)
            .filter_map(|w| {
                let silent = now.duration_since(w.last_output);
                let running = now.duration_since(w.shard_started);
                let reason = if silent > self.cfg.heartbeat_timeout {
                    format!("no output for {} ms", silent.as_millis())
                } else if self.cfg.shard_timeout.is_some_and(|limit| running > limit) {
                    format!("shard deadline exceeded ({} ms)", running.as_millis())
                } else {
                    return None;
                };
                Some((w.ordinal, w.child.is_none(), reason))
            })
            .collect();
        for (ordinal, remote, reason) in late {
            registry().dispatch_lease_expiries_total.inc();
            self.outcome.lease_expiries += 1;
            if remote {
                if let Some(pos) = self.workers.iter().position(|w| w.ordinal == ordinal) {
                    self.revoke_lease(pos, &reason);
                }
            } else {
                self.fail_worker(ordinal, &reason);
            }
        }
    }

    /// Launches speculative duplicate attempts for stragglers while idle
    /// workers exist. See the module docs for the trigger condition.
    fn maybe_hedge(&mut self) {
        if self.cfg.hedge_multiplier <= 0.0 || self.durations.len() < HEDGE_MIN_SAMPLES {
            return;
        }
        let mut sorted: Vec<Duration> = self.durations.iter().copied().collect();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let threshold = median
            .mul_f64(self.cfg.hedge_multiplier)
            .max(self.cfg.hedge_min);
        loop {
            let Some(pos) = self.idle_worker() else {
                return;
            };
            let now = Instant::now();
            // The slowest eligible straggler: active solo attempt, past
            // the threshold, not already hedged.
            let candidate = self
                .inflight
                .values()
                .filter(|inf| now.duration_since(inf.started) > threshold)
                .filter(|inf| {
                    self.tracks
                        .get(&inf.index)
                        .is_some_and(|t| t.active == 1 && t.hedge_attempt.is_none())
                })
                .min_by_key(|inf| inf.started)
                .map(|inf| inf.index);
            let Some(index) = candidate else {
                return;
            };
            let track = self.tracks.get_mut(&index).expect("candidate is tracked");
            track.hedge_attempt = Some(track.next_attempt);
            registry().dispatch_hedges_total.inc();
            self.outcome.hedges_launched += 1;
            self.assign(pos, index);
        }
    }

    fn handle_msg(&mut self, msg: Msg) {
        match msg {
            Msg::Worker(ordinal, event) => self.handle_event(ordinal, event),
            Msg::Joined(stream, reconnects, child) => self.register(stream, reconnects, child),
        }
    }

    fn handle_event(&mut self, ordinal: u64, event: Event) {
        let Some(pos) = self.workers.iter().position(|w| w.ordinal == ordinal) else {
            return; // stale reader of a worker we already tore down
        };
        self.workers[pos].last_output = Instant::now();
        match event {
            Event::Heartbeat => {}
            Event::Report(line) => {
                if self.workers[pos].state == WorkerState::Zombie {
                    return; // stale attempt's reports: drop silently
                }
                match self.inflight.get_mut(&ordinal) {
                    Some(entry) => {
                        entry.reports.extend_from_slice(line.as_bytes());
                        entry.reports.push(b'\n');
                        entry.report_count += 1;
                    }
                    None => self.fail_worker(ordinal, "report line from an idle worker"),
                }
            }
            Event::Done {
                shard,
                attempt,
                stats,
            } => self.handle_done(pos, ordinal, shard, attempt, stats),
            Event::Error(payload) => self.handle_error(pos, ordinal, payload),
            Event::CacheQ(fp) => self.handle_cacheq(pos, ordinal, fp),
            Event::CacheFill(fp, payload) => self.handle_cachefill(pos, ordinal, fp, &payload),
            Event::Garbage(line) => {
                let reason = format!("garbled worker output: `{}`", truncate(&line, 120));
                self.fail_worker(ordinal, &reason);
            }
            Event::Eof => {
                self.fail_worker(ordinal, "worker exited mid-run");
            }
        }
    }

    fn handle_done(
        &mut self,
        pos: usize,
        ordinal: u64,
        shard: usize,
        attempt: u32,
        stats: ShardStats,
    ) {
        if self.workers[pos].state == WorkerState::Zombie {
            // The revoked lease's late #done: the worker is healthy
            // again, but the attempt is stale.
            self.stale_drop();
            self.workers[pos].state = WorkerState::Idle;
            return;
        }
        let Some(entry) = self.inflight.get(&ordinal) else {
            if self.committed.contains(&shard) {
                self.stale_drop(); // duplicate #done for a committed shard
            } else {
                self.fail_worker(ordinal, "#done from an idle worker");
            }
            return;
        };
        if entry.index != shard
            || entry.attempt != attempt
            || entry.report_count as u64 != stats.instances
        {
            let reason = format!(
                "shard report mismatch (#done shard {shard} attempt {attempt} × leased {}/{}, \
                 {} report(s) × {} instance(s))",
                entry.index, entry.attempt, entry.report_count, stats.instances
            );
            self.fail_worker(ordinal, &reason);
            return;
        }
        let entry = self.inflight.remove(&ordinal).expect("checked above");
        self.workers[pos].state = WorkerState::Idle;
        let Some(track) = self.tracks.remove(&shard) else {
            // The hedge twin already committed this shard.
            self.stale_drop();
            registry().dispatch_hedge_wasted_total.inc();
            self.outcome.hedges_wasted += 1;
            return;
        };
        if track.hedge_attempt == Some(attempt) {
            registry().dispatch_hedge_wins_total.inc();
            self.outcome.hedges_won += 1;
        }
        self.durations.push_back(entry.started.elapsed());
        if self.durations.len() > MEDIAN_WINDOW {
            self.durations.pop_front();
        }
        self.committed.insert(shard);
        self.completed.insert(
            shard,
            Completed {
                bytes: entry.reports,
                lines: track.shard.lines.len(),
                fp: track.shard.fp,
                attempts: attempt,
                stats,
                quarantined: false,
                error: None,
            },
        );
    }

    fn handle_error(&mut self, pos: usize, ordinal: u64, payload: Json) {
        if self.workers[pos].state == WorkerState::Zombie {
            self.stale_drop();
            self.workers[pos].state = WorkerState::Idle;
            return;
        }
        let Some(entry) = self.inflight.remove(&ordinal) else {
            let shard = payload.get("shard").and_then(Json::as_usize);
            if shard.is_some_and(|s| self.committed.contains(&s)) {
                self.stale_drop();
            } else {
                self.fail_worker(ordinal, "#error from an idle worker");
            }
            return;
        };
        self.workers[pos].state = WorkerState::Idle;
        let Some(track) = self.tracks.remove(&entry.index) else {
            self.stale_drop();
            registry().dispatch_hedge_wasted_total.inc();
            self.outcome.hedges_wasted += 1;
            return;
        };
        let local = payload
            .get("local_line")
            .and_then(Json::as_usize)
            .unwrap_or(1);
        let global = track
            .shard
            .line_nos
            .get(local.saturating_sub(1))
            .copied()
            .unwrap_or_else(|| track.shard.line_nos.last().copied().unwrap_or(0));
        let error = corpus_error_from_json(&payload, global).unwrap_or(CorpusError::Io {
            line: global,
            message: "worker reported an unparsable corpus error".into(),
        });
        self.committed.insert(entry.index);
        self.completed.insert(
            entry.index,
            Completed {
                bytes: entry.reports,
                lines: track.shard.lines.len(),
                fp: track.shard.fp,
                attempts: entry.attempt,
                stats: ShardStats::default(),
                quarantined: false,
                error: Some(error),
            },
        );
    }

    /// Answers a `#cacheq` probe. Every probe gets exactly one reply —
    /// even a zombie's, and even without a cache authority — because the
    /// probing worker blocks reading one reply line per probe; silence
    /// here would deadlock it into a lease expiry.
    fn handle_cacheq(&mut self, pos: usize, ordinal: u64, fp: u128) {
        let hit = if self.workers[pos].state == WorkerState::Zombie {
            None // stale lease: don't leak cache state to a revoked attempt
        } else {
            self.cache.as_ref().and_then(|c| c.map.get(&fp)).cloned()
        };
        let reply = match hit {
            Some(payload) => {
                registry().dispatch_fleet_cache_hits_total.inc();
                self.outcome.fleet_cache_hits += 1;
                format!("#cachehit {fp:032x} {payload}\n")
            }
            None => format!("#cachemiss {fp:032x}\n"),
        };
        if let Err(e) = self.workers[pos].stream.write_all(reply.as_bytes()) {
            self.fail_worker(ordinal, &format!("failed to answer cache probe: {e}"));
        }
    }

    /// Accepts (or drops) a `#cachefill` offer. Fills are only trusted
    /// from a live lease: a zombie or idle sender means the lease lapsed
    /// before the fill arrived, so it is dropped as stale. Accepted
    /// payloads are parsed and recorded through the store, which
    /// serializes them anew — it only ever holds bytes the coordinator
    /// produced itself.
    fn handle_cachefill(&mut self, pos: usize, ordinal: u64, fp: u128, payload: &str) {
        if self.workers[pos].state == WorkerState::Zombie || !self.inflight.contains_key(&ordinal) {
            registry().dispatch_stale_fills_dropped_total.inc();
            self.outcome.stale_fills_dropped += 1;
            return;
        }
        let Some(cache) = self.cache.as_mut() else {
            return; // no authority: a confused worker's fill is harmless
        };
        let Some(report) = Json::parse(payload)
            .ok()
            .as_ref()
            .and_then(SolveReport::from_store_json)
        else {
            return; // unverifiable payload: never persist it
        };
        match cache.store.record(fp, &report) {
            Ok(Some(stored)) => {
                cache.map.insert(fp, stored.into());
            }
            Ok(None) => {} // racing fill from a twin attempt: first one wins
            Err(e) => eprintln!("msrs: cache store append failed: {e}"),
        }
    }

    /// Any leased attempt for a still-tracked shard? (Stale leases held
    /// by zombies don't count: their shard already committed.)
    fn busy(&self) -> bool {
        self.inflight
            .values()
            .any(|inf| self.tracks.contains_key(&inf.index))
    }

    /// Tears the fleet down: `#shutdown` to every worker so none redials,
    /// then kill and reap the children and close every socket.
    fn shutdown_fleet(&mut self) {
        for w in &mut self.workers {
            let _ = w.stream.write_all(b"#shutdown\n");
        }
        for w in self.workers.drain(..) {
            w.teardown();
        }
        for p in self.pending.drain(..) {
            reap(p.child);
        }
    }
}

impl Drop for Coordinator<'_> {
    /// Every exit path, errors included, takes the fleet down with it
    /// (and the acceptor, when the fields drop).
    fn drop(&mut self) {
        self.shutdown_fleet();
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Parses one worker connection's read half into [`Event`]s. A line
/// without its newline (a worker dying mid-write, or one longer than
/// [`MAX_LINE_BYTES`]) is garbage, never a report, and the last line read.
fn read_worker_lines(ordinal: u64, input: TcpStream, tx: &Sender<Msg>) {
    let mut reader = BufReader::new(input);
    let mut buf = String::new();
    loop {
        buf.clear();
        match read_peer_line(&mut reader, &mut buf) {
            Ok(Some(0)) | Err(_) => break,
            Ok(_) => {}
        }
        let terminated = buf.ends_with('\n');
        let line = buf.trim_end_matches(['\n', '\r']);
        let event = if !terminated {
            Event::Garbage(line.to_string())
        } else if line == "#hb" {
            Event::Heartbeat
        } else if let Some(payload) = line.strip_prefix("#done ") {
            match Json::parse(payload).ok().as_ref().and_then(parse_done) {
                Some((shard, attempt, stats)) => Event::Done {
                    shard,
                    attempt,
                    stats,
                },
                None => Event::Garbage(line.to_string()),
            }
        } else if let Some(payload) = line.strip_prefix("#error ") {
            match Json::parse(payload) {
                Ok(v) => Event::Error(v),
                Err(_) => Event::Garbage(line.to_string()),
            }
        } else if let Some(fp_hex) = line.strip_prefix("#cacheq ") {
            match u128::from_str_radix(fp_hex.trim(), 16) {
                Ok(fp) => Event::CacheQ(fp),
                Err(_) => Event::Garbage(line.to_string()),
            }
        } else if let Some(rest) = line.strip_prefix("#cachefill ") {
            match rest.split_once(' ').and_then(|(fp_hex, payload)| {
                Some((u128::from_str_radix(fp_hex, 16).ok()?, payload))
            }) {
                Some((fp, payload)) => Event::CacheFill(fp, payload.to_string()),
                None => Event::Garbage(line.to_string()),
            }
        } else if line.starts_with('{') {
            Event::Report(line.to_string())
        } else {
            Event::Garbage(line.to_string())
        };
        if tx.send(Msg::Worker(ordinal, event)).is_err() {
            return; // coordinator gone
        }
        if !terminated {
            break;
        }
    }
    let _ = tx.send(Msg::Worker(ordinal, Event::Eof));
}

fn parse_done(v: &Json) -> Option<(usize, u32, ShardStats)> {
    Some((
        v.get("shard")?.as_usize()?,
        v.get("attempt")?.as_u64()? as u32,
        ShardStats::from_json(v)?,
    ))
}

/// The dispatch coordinator: shards `input`, fans the shards out to a
/// fleet of `cfg.workers` children plus any remote workers accepted on
/// `remote`, and merges their reports in shard order into the file at
/// `out_path`. The children dial `remote` too; without it the coordinator
/// listens on an ephemeral loopback port that admits only its children.
/// With `checkpoint_path`, completed shards are journaled durably and an
/// existing journal resumes the run (validating that the corpus and
/// configuration are unchanged). `shutdown` — when set by the caller,
/// e.g. from a `#shutdown` stdin line — triggers a graceful drain.
///
/// Returns `Err` only for coordinator-level I/O and setup failures, and
/// when `max_attempts` children in a row never joined; corpus decode
/// errors travel in [`DispatchOutcome::error`] exactly as in
/// [`crate::stream::JsonlServer::serve`], after the reports preceding
/// the error were written.
pub fn dispatch_fleet<R: BufRead>(
    input: R,
    out_path: &Path,
    checkpoint_path: Option<&Path>,
    cfg: &DispatchConfig,
    shutdown: Option<&AtomicBool>,
    remote: Option<RemoteHub>,
) -> io::Result<DispatchOutcome> {
    let misconfigured = if cfg.worker_cmd.is_empty() && cfg.workers > 0 {
        Some("dispatch needs a non-empty worker command (or workers = 0 with --listen)")
    } else if cfg.workers == 0 && remote.is_none() {
        Some("dispatch with zero local workers needs a remote listener")
    } else if cfg.shard_size == 0 || cfg.max_attempts == 0 {
        Some("dispatch needs shard_size ≥ 1, max_attempts ≥ 1")
    } else {
        None
    };
    if let Some(reason) = misconfigured {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, reason));
    }
    let started = Instant::now();
    let mut source = ShardSource::new(input);
    let mut merged = StreamStats {
        shard_size: cfg.shard_size,
        ..StreamStats::default()
    };
    let open = remote.is_some();
    let hub = remote.map_or_else(|| RemoteHub::bind("127.0.0.1:0"), Ok)?;
    let mut coord = Coordinator::new(cfg, hub, open)?;
    if let Some(path) = cfg.cache_path.as_deref() {
        let (store, entries, _stats) = CacheStore::open(path, cfg.config_fp)?;
        let map = entries
            .into_iter()
            .map(|e| (e.fingerprint, e.payload))
            .collect();
        coord.cache = Some(CacheAuthority { store, map });
    }
    let mut next_emit = 0usize;
    let mut emitted_bytes = 0u64;
    let mut shards_resumed = 0usize;
    let mut outcome_error: Option<CorpusError> = None;
    let mut source_done = false;

    // --- resume / journal setup -------------------------------------------
    let header = CheckpointHeader {
        config_fp: cfg.config_fp,
        shard_size: cfg.shard_size,
    };
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let mut ckpt_log = None;
    if let Some(path) = checkpoint_path {
        let (log, records) = CheckpointLog::open(path, header)?;
        for rec in &records {
            let shard = source
                .next_shard(cfg.shard_size)
                .map_err(|e| invalid(format!("re-reading corpus for resume: {e}")))?
                .ok_or_else(|| {
                    invalid(format!(
                        "{}: checkpoint records shard {} but the corpus ended",
                        path.display(),
                        rec.shard
                    ))
                })?;
            if shard.fp != rec.shard_fp || shard.lines.len() != rec.lines {
                return Err(invalid(format!(
                    "{}: corpus changed since the checkpoint (shard {} fingerprint mismatch)",
                    path.display(),
                    rec.shard
                )));
            }
            rec.stats.merge_into(&mut merged);
            if rec.quarantined {
                coord.outcome.quarantined.push(QuarantinedShard {
                    shard: rec.shard,
                    attempts: rec.attempts,
                    worker: None,
                    message: "quarantined in a previous run".into(),
                });
            } else {
                merged.shards += 1;
            }
            registry().dispatch_shards_resumed_total.inc();
        }
        shards_resumed = records.len();
        next_emit = shards_resumed;
        emitted_bytes = records.last().map_or(0, |r| r.out_bytes);
        ckpt_log = Some(log);
    }

    // --- output file ------------------------------------------------------
    let out_file = if emitted_bytes > 0 {
        let mut f = OpenOptions::new().read(true).write(true).open(out_path)?;
        let len = f.metadata()?.len();
        if len < emitted_bytes {
            return Err(invalid(format!(
                "{}: output file is shorter ({len} bytes) than the checkpoint \
                 records ({emitted_bytes} bytes)",
                out_path.display()
            )));
        }
        // Reports of shards past the last durable record are discarded.
        f.set_len(emitted_bytes)?;
        f.seek(SeekFrom::End(0))?;
        f
    } else {
        File::create(out_path)?
    };
    let mut out = BufWriter::new(out_file);

    // --- main loop --------------------------------------------------------
    let mut interrupted = false;
    if let Some(stop) = cfg.stop_after_shards {
        if next_emit >= stop {
            interrupted = true;
        }
    }
    let mut error_shard: Option<usize> = None;
    'run: loop {
        if !interrupted && shutdown.is_some_and(|s| s.load(Ordering::Relaxed)) {
            interrupted = true;
        }
        // Keep the children alive while shards remain to hand out.
        if !interrupted && error_shard.is_none() && (!source_done || !coord.retries.is_empty()) {
            coord.supervise()?;
        }
        // Assign work while there is work and an idle worker.
        while !interrupted && error_shard.is_none() {
            let now = Instant::now();
            let idle = coord.idle_worker();
            let index = match coord.retries.iter().position(|r| r.not_before <= now) {
                Some(rpos) if idle.is_some() => coord.retries.remove(rpos).index,
                Some(_) => break,
                None if source_done => break,
                None => match source.next_shard(cfg.shard_size) {
                    Ok(Some(shard)) => coord.track(shard),
                    Ok(None) => {
                        source_done = true;
                        break;
                    }
                    Err(e) => {
                        // The corpus itself is unreadable: the stream ends
                        // at the shard this read would have produced.
                        error_shard = Some(source.next_index);
                        outcome_error = Some(e);
                        source_done = true;
                        break;
                    }
                },
            };
            let Some(pos) = idle else {
                // No worker free: the probe lets an exhausted corpus end
                // the run; the one shard read ahead waits in the queue.
                coord.retries.push(Retry {
                    index,
                    not_before: now,
                });
                break;
            };
            coord.assign(pos, index);
        }
        if !interrupted && error_shard.is_none() {
            coord.maybe_hedge();
        }

        // Emit the contiguous completed prefix.
        while let Some(done) = coord.completed.remove(&next_emit) {
            out.write_all(&done.bytes)?;
            emitted_bytes += done.bytes.len() as u64;
            registry().dispatch_shards_total.inc();
            if let Some(err) = done.error {
                // Decode error: the prefix reports are written, nothing
                // after this shard may be emitted, and the shard is *not*
                // journaled (a resume retries it and fails the same way).
                outcome_error = Some(err);
                break 'run;
            }
            if !done.quarantined {
                done.stats.merge_into(&mut merged);
                merged.shards += 1;
            }
            if let Some(log) = ckpt_log.as_mut() {
                // Durability order: report bytes first, then the record
                // that vouches for them.
                out.flush()?;
                out.get_ref().sync_data()?;
                log.append(&ShardRecord {
                    shard: next_emit,
                    lines: done.lines,
                    shard_fp: done.fp,
                    out_bytes: emitted_bytes,
                    attempts: done.attempts,
                    quarantined: done.quarantined,
                    stats: done.stats,
                })?;
            }
            next_emit += 1;
            if cfg.stop_after_shards.is_some_and(|stop| next_emit >= stop) {
                interrupted = true;
            }
        }

        // Termination: nothing running, nothing queued, nothing to come.
        let busy = coord.busy();
        let retry_pending = !coord.retries.is_empty();
        if error_shard.is_some_and(|e| next_emit >= e) {
            break;
        }
        if interrupted && !busy {
            break;
        }
        if !busy && !retry_pending && source_done && coord.completed.is_empty() {
            break;
        }
        if error_shard.is_some() && !busy && !retry_pending {
            // Everything before the error shard that can complete has;
            // the error shard itself was emitted above if it exists.
            break;
        }

        // Wait for the next event or deadline.
        match coord.rx.recv_timeout(coord.next_deadline()) {
            Ok(msg) => {
                coord.handle_msg(msg);
                // Drain whatever else is already queued before looping.
                while let Ok(msg) = coord.rx.try_recv() {
                    coord.handle_msg(msg);
                }
                // One fsync for the whole batch's cache fills, before the
                // next pass journals the shards they belong to. Fills
                // arrive only here, so none is left unsynced at exit.
                if let Some(cache) = coord.cache.as_mut() {
                    if let Err(e) = cache.store.sync() {
                        eprintln!("msrs: cache store sync failed: {e}");
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => coord.enforce_deadlines(),
            Err(RecvTimeoutError::Disconnected) => unreachable!("coordinator holds a sender"),
        }
    }

    out.flush()?;
    coord.outcome.quarantined.sort_by_key(|q| q.shard);
    merged.wall_micros = started.elapsed().as_micros() as u64;
    Ok(DispatchOutcome {
        stats: merged,
        shards_total: next_emit,
        shards_resumed,
        interrupted,
        error: outcome_error,
        ..std::mem::take(&mut coord.outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_grammar() {
        let f = FaultSpec::parse("crash:shard=3").unwrap();
        assert_eq!(f.kind, FaultKind::Crash);
        assert!(f.fires(3, 1, None));
        assert!(!f.fires(3, 2, None)); // default attempts=1: retry succeeds
        assert!(!f.fires(2, 1, None));

        let f = FaultSpec::parse("hang:shard=0,worker=2,attempts=4").unwrap();
        assert_eq!(f.kind, FaultKind::Hang);
        assert!(f.fires(0, 4, Some(2)));
        assert!(!f.fires(0, 5, Some(2)));
        assert!(!f.fires(0, 1, Some(1)));
        assert!(!f.fires(0, 1, None));

        let f = FaultSpec::parse("stall:shard=1,ms=1500").unwrap();
        assert_eq!(f.kind, FaultKind::Stall);
        assert_eq!(f.ms, 1500);
        let f = FaultSpec::parse("slow:shard=2").unwrap();
        assert_eq!(f.kind, FaultKind::Slow);
        assert_eq!(f.ms, 1000); // default duration

        assert!(FaultSpec::parse("garble:shard=1").is_some());
        assert!(FaultSpec::parse("partial:shard=1").is_some());
        assert!(FaultSpec::parse("disconnect:shard=1").is_some());
        assert!(FaultSpec::parse("dup-done:shard=1").is_some());
        assert!(FaultSpec::parse("explode:shard=1").is_none());
        assert!(FaultSpec::parse("crash").is_none());
        assert!(FaultSpec::parse("crash:worker=1").is_none()); // shard required
        assert!(FaultSpec::parse("crash:shard=x").is_none());
        assert!(FaultSpec::parse("stall:shard=1,ms=x").is_none());

        // The cache-plane kind is a worker-side behavior like the rest.
        let f = FaultSpec::parse("cache-stale-fill:shard=1,ms=500").unwrap();
        assert_eq!(f.kind, FaultKind::CacheStaleFill);
        assert_eq!(f.ms, 500);
        assert!(f.fires(1, 1, None));
        assert!(FaultSpec::parse("cache-stale-fill").is_none()); // shard required

        // Store-file damage is no fault kind: tests edit the bytes.
        assert!(FaultSpec::parse("cache-torn:at=64").is_none());
        assert!(FaultSpec::parse("cache-flip:record=2").is_none());
    }

    #[test]
    fn an_over_long_worker_line_is_one_garbage_event_and_the_last() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let addr = listener.local_addr().expect("bound address");
        let worker = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).expect("worker connects");
            // One byte past the bound, then a heartbeat the reader must
            // never get to.
            let _ = out.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]);
            let _ = out.write_all(b"#hb\n");
        });
        let (input, _) = listener.accept().expect("coordinator accepts");
        let (tx, rx) = mpsc::channel();
        read_worker_lines(3, input, &tx);
        worker.join().expect("worker thread");
        let events: Vec<Msg> = rx.try_iter().collect();
        assert_eq!(events.len(), 2, "one garbage event, then EOF");
        assert!(matches!(
            &events[0],
            Msg::Worker(3, Event::Garbage(line)) if line.len() == MAX_LINE_BYTES + 1
        ));
        assert!(matches!(events[1], Msg::Worker(3, Event::Eof)));
    }

    #[test]
    fn shard_header_round_trip() {
        assert_eq!(
            parse_shard_header("#shard 7 2 128"),
            Some((7, 2, 128, false))
        );
        assert_eq!(
            parse_shard_header("#shard 7 2 128 cache"),
            Some((7, 2, 128, true))
        );
        assert_eq!(parse_shard_header("#shard 7 2"), None);
        assert_eq!(parse_shard_header("#shard 7 2 128 9"), None);
        assert_eq!(parse_shard_header("#shard 7 2 128 cache x"), None);
        assert_eq!(parse_shard_header("#run"), None);
    }

    #[test]
    fn shard_source_boundaries_match_batch_semantics() {
        let corpus = "# comment\n\
                      {\"machines\":1}\n\
                      \n\
                      {\"machines\":2}\n\
                      {\"machines\":3}\n";
        let mut src = ShardSource::new(corpus.as_bytes());
        let s0 = src.next_shard(2).unwrap().unwrap();
        assert_eq!(s0.index, 0);
        assert_eq!(s0.lines, vec!["{\"machines\":1}", "{\"machines\":2}"]);
        assert_eq!(s0.line_nos, vec![2, 4]);
        let s1 = src.next_shard(2).unwrap().unwrap();
        assert_eq!(s1.index, 1);
        assert_eq!(s1.line_nos, vec![5]);
        assert!(src.next_shard(2).unwrap().is_none());
        // Fingerprints depend only on the meaningful line text.
        let mut src2 = ShardSource::new("{\"machines\":1}\n# x\n{\"machines\":2}\n".as_bytes());
        let t0 = src2.next_shard(2).unwrap().unwrap();
        assert_eq!(t0.fp, s0.fp);
    }

    #[test]
    fn corpus_error_payload_round_trips() {
        let cases = [
            CorpusError::Json {
                line: 9,
                error: JsonError {
                    at: 4,
                    reason: "expected digit".into(),
                },
            },
            CorpusError::Malformed {
                line: 9,
                reason: "machines must be ≥ 1".into(),
            },
            CorpusError::Io {
                line: 9,
                message: "pipe broke".into(),
            },
        ];
        for e in cases {
            let json = corpus_error_json(3, 2, Some(1), &e);
            // The attribution fields ride along for the merged stream.
            assert_eq!(json.get("attempt").and_then(Json::as_usize), Some(2));
            assert_eq!(json.get("worker").and_then(Json::as_usize), Some(1));
            let back = corpus_error_from_json(&json, 9).unwrap();
            assert_eq!(format!("{back}"), format!("{e}"));
        }
        // Worker ordinal is optional (e.g. a bare `msrs worker` run).
        let json = corpus_error_json(
            3,
            1,
            None,
            &CorpusError::Malformed {
                line: 1,
                reason: "x".into(),
            },
        );
        assert!(json.get("worker").is_none());
    }
}
