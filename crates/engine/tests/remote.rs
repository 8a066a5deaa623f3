//! End-to-end tests of the remote worker fleet — `msrs dispatch
//! --listen` semantics against real `msrs worker --connect` child
//! processes over loopback TCP:
//!
//! * **bit-identity** — a remote-only fleet and a mixed local/remote
//!   fleet both merge to the same report stream as a single-process
//!   sequential batch run (modulo `wall_micros` and `cache_hit`);
//! * **handshake** — a worker whose engine configuration fingerprint
//!   differs is refused with a structured error and exits non-zero,
//!   without perturbing the run;
//! * **leases + reconnect** — an injected mid-shard disconnect requeues
//!   the shard under a fresh attempt and the worker redials with backoff;
//!   a stalled worker (heartbeat silence) has its lease revoked, and its
//!   late `#done` is discarded as a stale attempt;
//! * **hedging** — a deterministic straggler gets a speculative duplicate
//!   attempt on an idle worker and the first verified `#done` commits;
//! * **torn reports** — a remote worker dying mid-report-line is a
//!   counted retry, never a corrupt byte in the merged stream;
//! * **checkpointed resume** — an interrupted remote-only run resumes to
//!   a byte-identical output, property-tested across fleet shapes and
//!   interruption points.

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use proptest::prelude::*;

use msrs_engine::dispatch::DispatchConfig;
use msrs_engine::json::Json;
use msrs_engine::stream::JsonlServer;
use msrs_engine::telemetry::registry;
use msrs_engine::{dispatch, jsonl, Engine, EngineConfig, RemoteHub};

/// The real `msrs` binary, built by Cargo for this test run.
const MSRS_BIN: &str = env!("CARGO_BIN_EXE_msrs");

fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
}

/// A duplicate-heavy corpus with a comment and a blank line, so shard
/// boundaries run over *meaningful* lines, not physical ones.
fn corpus_text(n: u64) -> String {
    let mut text = String::from("# remote dispatch test corpus\n\n");
    for seed in 0..n {
        text.push_str(&jsonl::write_instance_line(
            Some(&format!("r-{seed}")),
            &msrs_gen::traffic(seed, 3, 4),
        ));
        text.push('\n');
    }
    text
}

/// Zeroes `wall_micros` and normalizes `cache_hit` — the two fields the
/// determinism contract excludes.
fn redact(json: &mut Json) {
    match json {
        Json::Obj(pairs) => {
            for (k, v) in pairs.iter_mut() {
                if k == "wall_micros" {
                    *v = Json::Num(0);
                } else if k == "cache_hit" {
                    *v = Json::Bool(false);
                } else {
                    redact(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(redact),
        _ => {}
    }
}

fn redacted(line: &str) -> String {
    let mut json = Json::parse(line).expect("output line parses as JSON");
    redact(&mut json);
    json.to_string()
}

/// The single-process sequential reference: `msrs batch` semantics over
/// the same corpus and shard size.
fn reference_run(text: &str, shard_size: usize) -> Vec<String> {
    let mut out = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine(1), text.as_bytes(), &mut out, shard_size)
        .expect("reference batch run");
    assert!(outcome.error.is_none());
    String::from_utf8(out)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect()
}

fn read_redacted(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .expect("output file readable")
        .lines()
        .map(redacted)
        .collect()
}

/// A scratch path unique to this process and test.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msrs-remote-test-{}-{name}", std::process::id()))
}

/// A spawned `msrs worker --connect` child, killed on drop so a test
/// failure never leaks a redialing process.
struct WorkerGuard(Child);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a remote worker dialing `addr`; `fault` becomes its
/// process-local `MSRS_FAULT`, `extra` extends the argv.
fn spawn_worker(addr: &str, fault: Option<&str>, extra: &[&str]) -> WorkerGuard {
    let mut cmd = Command::new(MSRS_BIN);
    cmd.args(["worker", "--connect", addr, "--threads", "1"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = fault {
        cmd.env("MSRS_FAULT", spec);
    }
    WorkerGuard(cmd.spawn().expect("worker child spawns"))
}

/// A fleet config: `workers` local children plus the remote listener.
/// `config_fp` matches what `msrs worker` computes from default engine
/// flags, so handshakes succeed.
fn fleet_config(workers: usize, shard_size: usize) -> DispatchConfig {
    let worker_cmd = if workers > 0 {
        vec![
            MSRS_BIN.to_string(),
            "worker".to_string(),
            "--threads".to_string(),
            "1".to_string(),
        ]
    } else {
        Vec::new()
    };
    DispatchConfig {
        worker_cmd,
        workers,
        shard_size,
        retry_backoff: Duration::from_millis(10),
        config_fp: EngineConfig::default().content_fingerprint(),
        ..DispatchConfig::default()
    }
}

fn bind_hub() -> (RemoteHub, String) {
    let hub = RemoteHub::bind("127.0.0.1:0").expect("loopback hub binds");
    let addr = hub.local_addr().to_string();
    (hub, addr)
}

#[test]
fn remote_only_fleet_matches_batch_reference() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    let _w1 = spawn_worker(&addr, None, &[]);
    let _w2 = spawn_worker(&addr, None, &[]);
    let out = tmp("remote-only.jsonl");
    let cfg = fleet_config(0, 4);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("remote-only dispatch runs");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(!outcome.interrupted);
    assert_eq!(outcome.stats.instances, 18);
    assert!(
        outcome.remote_workers >= 1,
        "a remote-only fleet cannot progress without a joined worker"
    );
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

#[test]
fn empty_corpus_with_a_remote_only_fleet_terminates_without_any_worker() {
    // No worker ever dials in: the coordinator must still discover that the
    // source is empty and return instead of waiting for a runner forever.
    let (hub, _addr) = bind_hub();
    let out = tmp("remote-empty.jsonl");
    let cfg = fleet_config(0, 4);
    let outcome = dispatch::dispatch_fleet(
        Cursor::new(String::new()),
        &out,
        None,
        &cfg,
        None,
        Some(hub),
    )
    .expect("empty remote-only dispatch runs");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.shards_total, 0);
    assert_eq!(outcome.stats.instances, 0);
    assert_eq!(outcome.remote_workers, 0);
    assert_eq!(fs::read_to_string(&out).expect("out file exists"), "");
    fs::remove_file(&out).ok();
}

#[test]
fn mixed_local_and_remote_fleet_matches_batch_reference() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    let _remote = spawn_worker(&addr, None, &[]);
    let out = tmp("mixed.jsonl");
    let cfg = fleet_config(1, 4);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("mixed fleet dispatch runs");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert_eq!(outcome.stats.instances, 18);
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// A worker built with a different engine configuration (here:
/// `--no-eptas`, which changes the content fingerprint and thus the
/// results it would produce) is refused at the handshake with a
/// structured error, exits non-zero, and the run is unperturbed.
#[test]
fn mismatched_worker_is_rejected_at_the_handshake() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    let out = tmp("reject.jsonl");
    let rejects = registry().dispatch_handshake_rejects_total.get();
    // A remote-only fleet cannot finish before a worker joins, so the
    // listener is still up whenever the mismatched worker dials.
    let run = std::thread::spawn({
        let out = out.clone();
        move || {
            dispatch::dispatch_fleet(
                Cursor::new(text),
                &out,
                None,
                &fleet_config(0, 4),
                None,
                Some(hub),
            )
        }
    });
    let rejected = Command::new(MSRS_BIN)
        .args([
            "worker",
            "--connect",
            &addr,
            "--no-eptas",
            "--reconnect-max",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("mismatched worker runs");
    assert!(
        !rejected.status.success(),
        "a rejected worker must exit non-zero, got {:?}",
        rejected.status
    );
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        stderr.contains("engine config fingerprint mismatch"),
        "rejection reason surfaces on stderr: {stderr:?}"
    );
    assert_eq!(
        registry().dispatch_handshake_rejects_total.get(),
        rejects + 1
    );
    // A matching worker then runs the whole corpus.
    let _worker = spawn_worker(&addr, None, &[]);
    let outcome = run
        .join()
        .expect("dispatch thread")
        .expect("dispatch runs despite the rejected worker");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.remote_workers, 1, "only the matching worker joined");
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// The coordinator makes cache fills durable once per drained event
/// batch, not once per fill — and the synced store still serves a second
/// run's probes.
#[test]
fn cache_fills_are_synced_per_event_batch() {
    // Canonically distinct lines: every line is one fill.
    let mut text = String::from("# fill batching corpus\n\n");
    for i in 0..64u64 {
        text.push_str(&jsonl::write_instance_line(
            Some(&format!("f-{i}")),
            &msrs_gen::uniform(1000 + i, 3, 12, 4, 1, 40),
        ));
        text.push('\n');
    }
    let reference = reference_run(&text, 8);
    let store = tmp("fill-batching.mcache");
    fs::remove_file(&store).ok();
    let mut cfg = fleet_config(0, 8);
    cfg.cache_path = Some(store.clone());

    let (hub, addr) = bind_hub();
    let _first = spawn_worker(&addr, None, &[]);
    let out = tmp("fill-batching-1.jsonl");
    let flushes = registry().cache_store_flushes_total.get();
    let first =
        dispatch::dispatch_fleet(Cursor::new(text.clone()), &out, None, &cfg, None, Some(hub))
            .expect("first run");
    let flushes = registry().cache_store_flushes_total.get() - flushes;
    assert!(first.error.is_none());
    assert_eq!(read_redacted(&out), reference);
    let fills = fs::read_to_string(&store)
        .expect("store readable")
        .lines()
        .filter(|l| l.starts_with("{\"fp\":"))
        .count();
    assert_eq!(fills, 64, "every distinct line was filled");
    assert!(
        (1..fills as u64).contains(&flushes),
        "{flushes} store flushes for {fills} fills"
    );

    let (hub, addr) = bind_hub();
    let _second = spawn_worker(&addr, None, &[]);
    let out2 = tmp("fill-batching-2.jsonl");
    let second = dispatch::dispatch_fleet(Cursor::new(text), &out2, None, &cfg, None, Some(hub))
        .expect("second run");
    assert!(second.error.is_none());
    assert_eq!(second.fleet_cache_hits, 64, "every probe hits the store");
    assert_eq!(read_redacted(&out2), reference);
    for path in [&out, &out2, &store] {
        fs::remove_file(path).ok();
    }
}

/// An injected mid-shard disconnect drops the TCP session: the lease
/// lapses, the shard is requeued under a fresh attempt, the worker
/// redials (counted as a reconnect), and the merged output is unchanged.
#[test]
fn disconnected_worker_reconnects_and_output_is_identical() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    let _worker = spawn_worker(&addr, Some("disconnect:shard=1"), &["--reconnect-ms", "50"]);
    let out = tmp("disconnect.jsonl");
    let cfg = fleet_config(0, 4);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch survives the disconnect");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.retries >= 1, "the dropped shard was requeued");
    assert!(
        outcome.reconnects >= 1,
        "the worker redialed and reported its prior session"
    );
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// A stalled worker (heartbeats suppressed mid-solve) trips the
/// heartbeat-silence deadline: the lease is revoked (zombie, counted as a
/// lease expiry), the shard requeued, and the zombie's eventual late
/// `#done` is discarded as a stale attempt — never committed twice.
#[test]
fn stalled_worker_lease_expires_and_its_late_done_is_dropped() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    let _worker = spawn_worker(
        &addr,
        Some("stall:shard=1,ms=1200"),
        &["--heartbeat-ms", "50"],
    );
    let out = tmp("stall.jsonl");
    let mut cfg = fleet_config(0, 4);
    cfg.heartbeat_timeout = Duration::from_millis(300);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch survives the stall");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.lease_expiries >= 1, "the silence revoked the lease");
    assert!(
        outcome.stale_drops >= 1,
        "the zombie's late #done was discarded, not committed"
    );
    assert!(outcome.retries >= 1, "the revoked shard was requeued");
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// A worker that emits its `#done` twice (duplicate delivery) commits
/// exactly once: the duplicate is discarded against the committed set and
/// the merged output carries no duplicate reports.
#[test]
fn duplicate_done_commits_exactly_once() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    // Shard 2 sits mid-corpus, so the coordinator keeps reading from the
    // worker and must confront the duplicate: either it drains both
    // `#done` lines back-to-back (stale drop against the committed set)
    // or the duplicate lands after the next assignment (a mismatch that
    // cleanly fails the attempt and retries — the worker redials).
    let _worker = spawn_worker(&addr, Some("dup-done:shard=2"), &["--reconnect-ms", "50"]);
    let out = tmp("dup-done.jsonl");
    let cfg = fleet_config(0, 4);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch survives the duplicate");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(
        outcome.stale_drops >= 1 || outcome.retries >= 1,
        "the duplicate #done was dropped (or at worst forced a clean retry)"
    );
    assert_eq!(
        read_redacted(&out),
        reference,
        "no duplicate report ever reaches the merged stream"
    );
    fs::remove_file(&out).ok();
}

/// A deterministic straggler (injected 2.5 s sleep on one shard) is
/// hedged: once the trailing median is established and a worker idles,
/// a speculative duplicate attempt launches and its `#done` commits.
#[test]
fn straggler_is_hedged_and_the_first_verified_done_commits() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    // Both workers carry the fault, but it fires on attempt 1 only — the
    // hedge runs as attempt 2 and is fast on either worker.
    let _w1 = spawn_worker(&addr, Some("slow:shard=4,ms=2500"), &[]);
    let _w2 = spawn_worker(&addr, Some("slow:shard=4,ms=2500"), &[]);
    let out = tmp("hedge.jsonl");
    let mut cfg = fleet_config(0, 4);
    cfg.hedge_multiplier = 2.0;
    cfg.hedge_min = Duration::from_millis(50);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch hedges the straggler");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.hedges_launched >= 1, "the straggler was hedged");
    assert!(
        outcome.hedges_won >= 1,
        "the speculative twin finished first and committed"
    );
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// A worker that solves its shard, then goes dark *before* sending its
/// cache fills (`cache-stale-fill`): heartbeat silence revokes the lease,
/// the shard is requeued, and the zombie's late fills are refused at the
/// cache authority — a revoked attempt can never write the shared store.
#[test]
fn zombie_cache_fills_are_dropped_and_never_reach_the_store() {
    // Canonically distinct lines: shard 1 must still be unfilled when it
    // probes, so its worker owes fills — the fault delays exactly those.
    let mut text = String::from("# stale fill corpus\n\n");
    for i in 0..18u64 {
        text.push_str(&jsonl::write_instance_line(
            Some(&format!("s-{i}")),
            &msrs_gen::uniform(i, 3, 12, 3, 1, 40),
        ));
        text.push('\n');
    }
    let reference = reference_run(&text, 4);
    let store = tmp("stale-fill.mcache");
    fs::remove_file(&store).ok();
    let (hub, addr) = bind_hub();
    let _worker = spawn_worker(
        &addr,
        Some("cache-stale-fill:shard=1,ms=1200"),
        &["--heartbeat-ms", "50", "--reconnect-ms", "50"],
    );
    let out = tmp("stale-fill.jsonl");
    let mut cfg = fleet_config(0, 4);
    cfg.heartbeat_timeout = Duration::from_millis(300);
    cfg.cache_path = Some(store.clone());
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch survives the stale fill");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(
        outcome.lease_expiries >= 1,
        "the dark fill window revoked the lease"
    );
    assert!(
        outcome.stale_fills_dropped >= 1,
        "the zombie's fills were refused at the cache authority"
    );
    assert!(outcome.retries >= 1, "the revoked shard was requeued");
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
    fs::remove_file(&store).ok();
}

/// A remote worker killed mid-report-line (torn write, no newline) is a
/// counted clean failure: the shard is retried on a surviving worker and
/// the torn bytes never reach the merged stream.
#[test]
fn remote_worker_dying_mid_report_line_never_tears_the_merged_stream() {
    let text = corpus_text(18);
    let reference = reference_run(&text, 4);
    let (hub, addr) = bind_hub();
    // Whichever worker draws shard 3's first attempt dies mid-line; the
    // other survives and serves the retry (the fault fires on attempt 1
    // only).
    let _w1 = spawn_worker(&addr, Some("partial:shard=3"), &[]);
    let _w2 = spawn_worker(&addr, Some("partial:shard=3"), &[]);
    let out = tmp("torn.jsonl");
    let cfg = fleet_config(0, 4);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, Some(hub))
        .expect("dispatch survives the torn report");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.retries >= 1, "the torn shard was retried");
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt a remote-only run after a random shard, then resume it
    /// with a fresh fleet: the final output file is byte-identical to
    /// the single-process reference across fleet shapes and interruption
    /// points — the checkpoint is transport-agnostic.
    #[test]
    fn interrupted_remote_dispatch_resumes_bit_identically(
        stop in 1usize..4,
        fleet in 1usize..3,
    ) {
        let text = corpus_text(18);
        let reference = reference_run(&text, 4);
        let out = tmp(&format!("resume-{stop}-{fleet}.jsonl"));
        let ckpt = tmp(&format!("resume-{stop}-{fleet}.ckpt"));
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();

        let (hub, addr) = bind_hub();
        let _first_fleet: Vec<WorkerGuard> =
            (0..fleet).map(|_| spawn_worker(&addr, None, &[])).collect();
        let mut cfg = fleet_config(0, 4);
        cfg.stop_after_shards = Some(stop);
        let first = dispatch::dispatch_fleet(
            Cursor::new(text.clone()), &out, Some(&ckpt), &cfg, None, Some(hub),
        ).expect("interrupted remote run");
        prop_assert!(first.error.is_none());
        prop_assert!(first.interrupted, "5 shards total, stopped after ≤ 3");

        let (hub2, addr2) = bind_hub();
        let _second_fleet: Vec<WorkerGuard> =
            (0..fleet).map(|_| spawn_worker(&addr2, None, &[])).collect();
        cfg.stop_after_shards = None;
        let second = dispatch::dispatch_fleet(
            Cursor::new(text), &out, Some(&ckpt), &cfg, None, Some(hub2),
        ).expect("resumed remote run");
        prop_assert!(second.error.is_none());
        prop_assert!(!second.interrupted);
        prop_assert!(second.quarantined.is_empty());
        prop_assert_eq!(second.shards_resumed, first.shards_total);
        prop_assert_eq!(second.shards_total, 5);
        prop_assert_eq!(second.stats.instances, 18);
        prop_assert_eq!(read_redacted(&out), reference);
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();
    }
}
