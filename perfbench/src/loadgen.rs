//! Load generators for `msrs serve`: open loop at a fixed arrival rate,
//! and a closed loop (one outstanding request) for idle round trips.
//!
//! The open loop runs in one process with at most `nproc` threads: one
//! sender for every connection plus one reader per connection, with
//! `max(1, nproc − 1)` connections. Request `i` is due at
//! `start + i / rate` whether or not earlier answers arrived; its latency
//! is measured from that due time, so a stall charges every request queued
//! behind it (no coordinated omission). How late the sender itself ran
//! (`lag`) is reported so a run whose generator fell behind can be
//! discarded instead of scored.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::{obj, quantile, ratio, Obj};
use crate::Args;

/// Latency recorded for a request that failed or was never answered: it
/// misses any limit.
const FAILED_US: f64 = 1e12;
/// A reader gives up on a silent server after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// The sender sleeps until this long before a due time, then spins: a
/// plain sleep overshoots by the kernel's timer slack (~50 µs), which
/// would sit inside every latency as generator noise.
const SPIN: Duration = Duration::from_micros(60);
/// Requests per scoring window (ten samples lie beyond each window's
/// p99).
const P99_WINDOW: usize = 1000;

pub struct OpenResult {
    pub sent: u64,
    pub answered: u64,
    pub errors: u64,
    /// Per request, in request order (failures at [`FAILED_US`]).
    pub latencies_us: Vec<f64>,
    pub lags_us: Vec<f64>,
    /// First due time to last response.
    pub elapsed_s: f64,
    pub conns: usize,
    /// Response lines per connection, in order.
    pub responses: Vec<Vec<String>>,
}

pub fn connections() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.saturating_sub(1).max(1)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Sends `lines` at `rate` per second round-robin over `conns`
/// connections and waits for every answer (or a reader timeout).
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    rate: f64,
    conns: usize,
) -> std::io::Result<OpenResult> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<_>>()?;
    let n = lines.len();
    let period_ns = 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_nanos((i as f64 * period_ns) as u64);
    let mut lags_us = vec![0.0; n];
    let received: Vec<Vec<(Instant, String)>> = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let expected = (n + conns - 1 - c) / conns;
                let stream = stream.try_clone();
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(expected);
                    let Ok(stream) = stream else { return got };
                    let mut reader = BufReader::new(stream);
                    while got.len() < expected {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => got.push((Instant::now(), line.trim_end().to_string())),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut writers: Vec<&TcpStream> = streams.iter().collect();
        for (i, line) in lines.iter().enumerate() {
            let due_i = due(i);
            let now = Instant::now();
            if due_i > now + SPIN {
                std::thread::sleep(due_i - now - SPIN);
            }
            while Instant::now() < due_i {
                std::hint::spin_loop();
            }
            let sent_at = Instant::now();
            lags_us[i] = sent_at.saturating_duration_since(due_i).as_nanos() as f64 / 1e3;
            let w = &mut writers[i % conns];
            let mut bytes = Vec::with_capacity(line.len() + 1);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            if w.write_all(&bytes).is_err() {
                break;
            }
        }
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect()
    });
    let mut latencies_us = vec![FAILED_US; n];
    let mut answered = 0u64;
    let mut errors = 0u64;
    let mut last = start;
    for (c, got) in received.iter().enumerate() {
        for (j, (at, line)) in got.iter().enumerate() {
            let i = c + j * conns;
            last = last.max(*at);
            if line.starts_with("{\"error\"") {
                errors += 1;
                continue;
            }
            answered += 1;
            latencies_us[i] = at.saturating_duration_since(due(i)).as_nanos() as f64 / 1e3;
        }
    }
    Ok(OpenResult {
        sent: n as u64,
        answered,
        errors,
        latencies_us,
        lags_us,
        elapsed_s: last.saturating_duration_since(start).as_secs_f64(),
        conns,
        responses: received
            .into_iter()
            .map(|got| got.into_iter().map(|(_, l)| l).collect())
            .collect(),
    })
}

/// Round trips of `lines`, one request outstanding at a time.
pub fn closed_loop(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<f64>> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut rtts = Vec::with_capacity(lines.len());
    let mut answer = String::new();
    for line in lines {
        let t0 = Instant::now();
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        answer.clear();
        if reader.read_line(&mut answer)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(rtts)
}

/// Summary of an open-loop run against a latency limit: a request misses
/// when it failed, went unanswered, or took longer than `limit_us`.
///
/// The run is cut into windows of [`P99_WINDOW`] requests. A window in
/// which the sender itself ran later than `lag_limit_us` at p99 is
/// invalid: the machine stalled the generator, so it stalled the
/// measurement too. The scored percentiles are medians over the valid
/// windows' percentiles, so one burst moves one window, not the figure.
pub fn summarize(r: &OpenResult, limit_us: f64, lag_limit_us: f64) -> Obj {
    let n = r.latencies_us.len();
    let misses = r.latencies_us.iter().filter(|&&l| l > limit_us).count();
    // The last quarter's median: a backlog that keeps growing drives it
    // past the limit even when the run is too short to move the p99.
    let mut tail = r.latencies_us[n - n / 4..].to_vec();
    let mut all = r.latencies_us.clone();
    let mut lags = r.lags_us.clone();
    let p99 = quantile(&mut all, 0.99);
    let beyond = r.latencies_us.iter().filter(|&&l| l > p99).count();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut windows = 0u64;
    for (lat, lag) in r
        .latencies_us
        .chunks_exact(P99_WINDOW)
        .zip(r.lags_us.chunks_exact(P99_WINDOW))
    {
        windows += 1;
        if quantile(&mut lag.to_vec(), 0.99) > lag_limit_us {
            continue;
        }
        let mut lat = lat.to_vec();
        p50s.push(quantile(&mut lat, 0.5));
        p99s.push(quantile(&mut lat, 0.99));
    }
    obj()
        .u("sent", r.sent)
        .u("answered", r.answered)
        .u("errors", r.errors)
        .f("p50_us", quantile(&mut all, 0.5))
        .f("p99_us", p99)
        .u("samples_beyond_p99", beyond as u64)
        .u("windows", windows)
        .u("valid_windows", p99s.len() as u64)
        .f("window_p50_us", quantile(&mut p50s, 0.5))
        .f("window_p99_us", quantile(&mut p99s, 0.5))
        .f("tail_p50_us", quantile(&mut tail, 0.5))
        .f("lag_p50_us", quantile(&mut lags, 0.5))
        .f("lag_p99_us", quantile(&mut lags, 0.99))
        .u("limit_misses", misses as u64)
        .f("miss_frac", ratio(misses as f64, n as f64))
        .f("elapsed_s", r.elapsed_s)
        .f("answered_per_s", ratio(r.answered as f64, r.elapsed_s))
        .u("conns", r.conns as u64)
        .u("threads", r.conns as u64 + 1)
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {addr}"))
}

fn read_lines(path: &str, offset: usize, count: usize) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let lines: Vec<String> = text
        .lines()
        .skip(offset)
        .take(count)
        .map(String::from)
        .collect();
    if lines.len() < count {
        return Err(format!("{path} has fewer than {} lines", offset + count));
    }
    Ok(lines)
}

/// `loadgen`: one open-loop rate; writes what each connection sent and
/// received under `--out-prefix` so the run can be checked.
pub fn cmd_open(args: &Args) -> Result<String, String> {
    let addr = resolve(args.req("addr")?)?;
    let rate: f64 = args.num("rate", None)?;
    let seconds: f64 = args.num("seconds", None)?;
    let limit_us: f64 = args.num("limit-us", None)?;
    let lag_limit_us: f64 = args.num("lag-limit-us", None)?;
    let count = (rate * seconds).round() as usize;
    let lines = read_lines(args.req("input")?, args.num("offset", Some(0))?, count)?;
    let result = open_loop(addr, &lines, rate, connections()).map_err(|e| e.to_string())?;
    if let Some(prefix) = args.get("out-prefix") {
        for (c, responses) in result.responses.iter().enumerate() {
            let sent: Vec<&str> = lines
                .iter()
                .skip(c)
                .step_by(result.conns)
                .map(String::as_str)
                .collect();
            let write = |path: String, rows: &[&str]| {
                let mut text = rows.join("\n");
                text.push('\n');
                std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))
            };
            write(format!("{prefix}.{c}.in.jsonl"), &sent)?;
            let got: Vec<&str> = responses.iter().map(String::as_str).collect();
            write(format!("{prefix}.{c}.out.jsonl"), &got)?;
        }
    }
    Ok(summarize(&result, limit_us, lag_limit_us)
        .f("rate", rate)
        .to_string())
}

/// `closed`: closed-loop round trips over the first `--requests` lines.
pub fn cmd_closed(args: &Args) -> Result<String, String> {
    let addr = resolve(args.req("addr")?)?;
    let count: usize = args.num("requests", None)?;
    let lines = read_lines(args.req("input")?, args.num("offset", Some(0))?, count)?;
    let start = Instant::now();
    let mut rtts = closed_loop(addr, &lines).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok(obj()
        .u("requests", count as u64)
        .f("rtt_p50_us", quantile(&mut rtts, 0.5))
        .f("rtt_mean_us", ratio(rtts.iter().sum(), rtts.len() as f64))
        .f("capacity_rps", ratio(count as f64, wall))
        .to_string())
}
