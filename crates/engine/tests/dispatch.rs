//! End-to-end tests of `msrs dispatch` — crash-tolerant multi-process
//! shard execution against real `msrs worker` child processes:
//!
//! * **bit-identity** — the merged report stream equals a single-process
//!   sequential batch run over the same corpus (modulo `wall_micros` and
//!   `cache_hit`) across worker counts 1, 2, 4 and engine thread counts
//!   1, 2, 8;
//! * **fault tolerance** — deterministically injected worker faults
//!   (`MSRS_FAULT`: crash, hang, garbled output, torn report line, dropped
//!   connection) are retried and the final output is still bit-identical;
//!   torn or garbled worker output never reaches the merged stream;
//! * **joining** — a worker command that never completes its handshake
//!   fails the run after `max_attempts` children in a row;
//! * **quarantine** — a shard whose worker fails on every attempt is
//!   quarantined after `max_attempts` with one structured
//!   `shard_quarantined` record in its place, and the rest of the run
//!   completes normally;
//! * **checkpointed resume** — a run interrupted after a random shard
//!   resumes from its checkpoint to a byte-identical output file and
//!   bits-exact merged statistics, also after its checkpoint lost part of
//!   the final record, and a resume against a changed corpus is rejected.

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use msrs_engine::dispatch::DispatchConfig;
use msrs_engine::json::Json;
use msrs_engine::stream::{JsonlServer, StreamStats};
use msrs_engine::{dispatch, jsonl, Engine, EngineConfig};

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
    let mut text = String::from("# dispatch test corpus\n\n");
    for seed in 0..n {
        text.push_str(&jsonl::write_instance_line(
            Some(&format!("d-{seed}")),
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
fn reference_run(text: &str, shard_size: usize) -> (Vec<String>, StreamStats) {
    let mut out = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine(1), text.as_bytes(), &mut out, shard_size)
        .expect("reference batch run");
    assert!(outcome.error.is_none());
    let lines = String::from_utf8(out)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect();
    (lines, outcome.stats)
}

fn read_lines(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .expect("output file readable")
        .lines()
        .map(str::to_string)
        .collect()
}

fn read_redacted(path: &Path) -> Vec<String> {
    read_lines(path).iter().map(|l| redacted(l)).collect()
}

/// A scratch path unique to this process and test.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msrs-dispatch-test-{}-{name}", std::process::id()))
}

/// A dispatch config running real workers; `fault` wraps the worker in
/// `env MSRS_FAULT=<spec>` so the injection stays child-process-local.
fn config(
    workers: usize,
    shard_size: usize,
    threads: usize,
    fault: Option<&str>,
) -> DispatchConfig {
    let mut worker_cmd = Vec::new();
    if let Some(spec) = fault {
        worker_cmd.push("/usr/bin/env".to_string());
        worker_cmd.push(format!("MSRS_FAULT={spec}"));
    }
    worker_cmd.extend([
        MSRS_BIN.to_string(),
        "worker".to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ]);
    DispatchConfig {
        worker_cmd,
        workers,
        shard_size,
        retry_backoff: Duration::from_millis(10),
        ..DispatchConfig::default()
    }
}

#[test]
fn dispatch_matches_batch_reference_across_workers_and_threads() {
    let text = corpus_text(18);
    let (reference, _) = reference_run(&text, 4);
    for workers in [1usize, 2, 4] {
        for threads in [1usize, 2, 8] {
            let out = tmp(&format!("plain-{workers}-{threads}.jsonl"));
            let cfg = config(workers, 4, threads, None);
            let outcome =
                dispatch::dispatch_fleet(Cursor::new(text.clone()), &out, None, &cfg, None, None)
                    .expect("dispatch runs");
            assert!(
                outcome.error.is_none(),
                "workers={workers} threads={threads}"
            );
            assert!(outcome.quarantined.is_empty());
            assert!(!outcome.interrupted);
            assert_eq!(outcome.stats.instances, 18);
            assert_eq!(outcome.shards_total, 5, "18 instances / shard_size 4");
            assert_eq!(outcome.retries, 0);
            assert_eq!(
                read_redacted(&out),
                reference,
                "workers={workers} threads={threads}"
            );
            fs::remove_file(&out).ok();
        }
    }
}

/// A worker that crashes on its first visit to shard 2 is replaced, the
/// shard is retried, and the merged output is unchanged.
#[test]
fn injected_crash_is_retried_and_output_identical() {
    let text = corpus_text(18);
    let (reference, _) = reference_run(&text, 4);
    let out = tmp("crash.jsonl");
    let cfg = config(2, 4, 2, Some("crash:shard=2"));
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, None)
        .expect("dispatch survives");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.retries >= 1, "the crash forced at least one retry");
    assert!(
        outcome.workers_spawned > 2,
        "the crashed worker was replaced"
    );
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// Garbled and torn (partial-line, no newline) worker output is detected
/// before commit: the shard is retried and the merged stream never
/// contains a corrupt byte. A child whose session drops is replaced, not
/// registered twice.
#[test]
fn garbled_and_torn_worker_output_never_reaches_the_merged_stream() {
    let text = corpus_text(18);
    let (reference, _) = reference_run(&text, 4);
    for spec in ["garble:shard=1", "partial:shard=3", "disconnect:shard=2"] {
        let out = tmp(&format!("{}.jsonl", spec.split(':').next().unwrap()));
        let cfg = config(2, 4, 1, Some(spec));
        let outcome =
            dispatch::dispatch_fleet(Cursor::new(text.clone()), &out, None, &cfg, None, None)
                .expect("dispatch survives");
        assert!(outcome.error.is_none(), "{spec}");
        assert!(outcome.quarantined.is_empty(), "{spec}");
        assert!(
            outcome.retries >= 1,
            "{spec}: the bad output forced a retry"
        );
        assert_eq!(read_redacted(&out), reference, "{spec}");
        fs::remove_file(&out).ok();
    }
}

/// A hung worker (heartbeats suppressed, solver never returns) trips the
/// heartbeat-silence deadline, is killed, and its shard is retried.
#[test]
fn hung_worker_is_detected_by_heartbeat_silence_and_retried() {
    let text = corpus_text(18);
    let (reference, _) = reference_run(&text, 4);
    let out = tmp("hang.jsonl");
    let mut cfg = config(2, 4, 1, Some("hang:shard=1"));
    cfg.heartbeat_timeout = Duration::from_millis(400);
    cfg.worker_cmd
        .extend(["--heartbeat-ms".to_string(), "50".to_string()]);
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, None)
        .expect("dispatch survives");
    assert!(outcome.error.is_none());
    assert!(outcome.quarantined.is_empty());
    assert!(outcome.retries >= 1, "the hang forced at least one retry");
    assert_eq!(read_redacted(&out), reference);
    fs::remove_file(&out).ok();
}

/// A worker command that never completes the handshake — it exits at
/// once, rejects the appended `--connect` flags, or sits silent — fails
/// the run after `max_attempts` children in a row, instead of being
/// respawned forever.
#[test]
fn a_worker_command_that_never_joins_fails_the_run() {
    for (cmd, failure) in [
        (&["/bin/false"][..], "exited"),
        (&["sleep", "30"], "exited"),
        (
            &["/bin/sh", "-c", "exec sleep 30"],
            "300 ms handshake deadline",
        ),
    ] {
        let mut cfg = config(2, 4, 1, None);
        cfg.worker_cmd = cmd.iter().map(|s| s.to_string()).collect();
        cfg.heartbeat_timeout = Duration::from_millis(300);
        let out = tmp("never-joins.jsonl");
        let started = Instant::now();
        let err =
            dispatch::dispatch_fleet(Cursor::new(corpus_text(18)), &out, None, &cfg, None, None)
                .expect_err("a fleet that never joins fails the run");
        assert!(started.elapsed() < Duration::from_secs(5), "{cmd:?}");
        assert!(err.to_string().contains(failure), "{cmd:?}: {err}");
        fs::remove_file(&out).ok();
    }
}

/// A shard that fails on *every* attempt is quarantined after
/// `max_attempts`, leaving one structured record in its output position;
/// every other shard is unaffected.
#[test]
fn poison_shard_is_quarantined_and_the_run_degrades_gracefully() {
    let text = corpus_text(18);
    let (reference, _) = reference_run(&text, 4);
    let out = tmp("quarantine.jsonl");
    // `attempts=99` keeps the fault firing long past the retry budget.
    let mut cfg = config(2, 4, 1, Some("crash:shard=1,attempts=99"));
    cfg.max_attempts = 2;
    let outcome = dispatch::dispatch_fleet(Cursor::new(text), &out, None, &cfg, None, None)
        .expect("coordinator survives");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.quarantined.len(), 1);
    assert_eq!(outcome.quarantined[0].shard, 1);
    assert_eq!(outcome.quarantined[0].attempts, 2);
    assert!(
        outcome.quarantined[0].worker.is_some(),
        "the quarantine record attributes the failing worker"
    );
    assert_eq!(outcome.shards_total, 5, "quarantined shards still count");
    assert_eq!(
        outcome.stats.instances, 14,
        "the four instances of the poisoned shard are missing"
    );

    // Shard 1 covers reports 4..8 of the reference; in its place sits one
    // structured quarantine record.
    let lines = read_lines(&out);
    assert_eq!(lines.len(), reference.len() - 4 + 1);
    let record = Json::parse(&lines[4]).expect("quarantine record parses");
    assert_eq!(
        record.get("error").and_then(Json::as_str),
        Some("shard_quarantined")
    );
    assert!(matches!(record.get("shard"), Some(Json::Num(1))));
    assert!(matches!(record.get("attempts"), Some(Json::Num(2))));
    assert!(matches!(record.get("lines"), Some(Json::Num(4))));
    assert!(
        matches!(record.get("worker"), Some(Json::Num(_))),
        "the structured record carries the failing worker's ordinal"
    );
    let got = read_redacted(&out);
    assert_eq!(&got[..4], &reference[..4], "shard 0 is untouched");
    assert_eq!(&got[5..], &reference[8..], "shards 2..5 are untouched");
    fs::remove_file(&out).ok();
}

/// The coordinator-backed cache plane: a dispatch run with a `--cache-path`
/// store persists every solved report, and a second run over the same
/// corpus answers worker probes from the shared store — with a merged
/// stream still bit-identical to the batch reference.
#[test]
fn fleet_cache_plane_serves_probes_and_output_is_identical() {
    // Duplicate-heavy: 18 lines over 6 distinct canonical forms, so the
    // second run's probes all land on durable records.
    let mut text = String::from("# cache plane corpus\n\n");
    for i in 0..18u64 {
        text.push_str(&jsonl::write_instance_line(
            Some(&format!("c-{i}")),
            &msrs_gen::uniform(i % 6, 3, 12, 3, 1, 40),
        ));
        text.push('\n');
    }
    let (reference, _) = reference_run(&text, 4);
    let store = tmp("cache-plane.mcache");
    fs::remove_file(&store).ok();
    let mut cfg = config(2, 4, 1, None);
    cfg.cache_path = Some(store.clone());

    let out = tmp("cache-plane-1.jsonl");
    let first = dispatch::dispatch_fleet(Cursor::new(text.clone()), &out, None, &cfg, None, None)
        .expect("first cache-plane run");
    assert!(first.error.is_none());
    assert!(first.quarantined.is_empty());
    assert_eq!(
        read_redacted(&out),
        reference,
        "cold store run is unperturbed"
    );

    // Second run, same store: every distinct form is already durable.
    let out2 = tmp("cache-plane-2.jsonl");
    let second = dispatch::dispatch_fleet(Cursor::new(text), &out2, None, &cfg, None, None)
        .expect("second cache-plane run");
    assert!(second.error.is_none());
    assert!(
        second.fleet_cache_hits >= 6,
        "the warm store answers at least one probe per distinct form, got {}",
        second.fleet_cache_hits
    );
    assert_eq!(
        read_redacted(&out2),
        reference,
        "cache-served reports are bit-identical to the batch reference"
    );
    fs::remove_file(&out).ok();
    fs::remove_file(&out2).ok();
    fs::remove_file(&store).ok();
}

/// Resuming against a corpus that changed since the checkpoint was
/// written is refused — silently recomputing would splice reports of two
/// different corpora into one output file.
#[test]
fn resume_rejects_a_changed_corpus() {
    let text = corpus_text(18);
    let out = tmp("reject.jsonl");
    let ckpt = tmp("reject.ckpt");
    fs::remove_file(&out).ok();
    fs::remove_file(&ckpt).ok();
    let mut cfg = config(2, 4, 1, None);
    cfg.stop_after_shards = Some(1);
    let first = dispatch::dispatch_fleet(Cursor::new(text), &out, Some(&ckpt), &cfg, None, None)
        .expect("interrupted run");
    assert!(first.interrupted);
    assert!(first.shards_total >= 1);

    let mut changed = corpus_text(18);
    changed = changed.replace("d-0", "x-0");
    cfg.stop_after_shards = None;
    let err = dispatch::dispatch_fleet(Cursor::new(changed), &out, Some(&ckpt), &cfg, None, None)
        .expect_err("changed corpus must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("corpus changed"), "{err}");
    fs::remove_file(&out).ok();
    fs::remove_file(&ckpt).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Stop the coordinator after a random shard (a graceful drain; a kill
    /// mid-append is `torn_checkpoint_tail_resumes_bit_identically`
    /// below), then resume with a random fleet: the final output file is
    /// byte-identical to an uninterrupted single-process run and the
    /// merged statistics are bits-exact.
    #[test]
    fn interrupted_dispatch_resumes_bit_identically(
        stop in 1usize..4,
        workers in 1usize..5,
        threads_sel in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_sel];
        let text = corpus_text(18);
        let (reference, ref_stats) = reference_run(&text, 4);
        let out = tmp(&format!("resume-{stop}-{workers}-{threads}.jsonl"));
        let ckpt = tmp(&format!("resume-{stop}-{workers}-{threads}.ckpt"));
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();

        // The stats yardstick is an *uninterrupted dispatch* run: its
        // ratio_sum adds per-shard subtotals, which can differ from the
        // report-by-report batch accumulation by rounding (f64 addition
        // is not associative), but must be bits-exact across fleet
        // shapes and across interruption/resume.
        let uninterrupted_out = tmp(&format!("resume-ref-{stop}-{workers}-{threads}.jsonl"));
        let plain = dispatch::dispatch_fleet(
            Cursor::new(text.clone()),
            &uninterrupted_out,
            None,
            &config(1, 4, 1, None),
            None,
            None,
        ).expect("uninterrupted run");
        fs::remove_file(&uninterrupted_out).ok();

        let mut cfg = config(workers, 4, threads, None);
        cfg.stop_after_shards = Some(stop);
        let first = dispatch::dispatch_fleet(
            Cursor::new(text.clone()), &out, Some(&ckpt), &cfg, None, None,
        ).expect("interrupted run");
        prop_assert!(first.error.is_none());
        prop_assert!(first.interrupted, "5 shards total, stopped after ≤ 3");
        prop_assert!(first.shards_total >= stop, "drain finishes in-flight shards");

        cfg.stop_after_shards = None;
        let second = dispatch::dispatch_fleet(
            Cursor::new(text), &out, Some(&ckpt), &cfg, None, None,
        ).expect("resumed run");
        prop_assert!(second.error.is_none());
        prop_assert!(!second.interrupted);
        prop_assert!(second.quarantined.is_empty());
        prop_assert_eq!(second.shards_resumed, first.shards_total);
        prop_assert_eq!(second.shards_total, 5);
        prop_assert_eq!(second.stats.instances, 18);

        // Byte-identical output, bits-exact merged statistics. (Cache
        // provenance — `fast_path_hits` — is excluded along with
        // `cache_hit`: process boundaries legitimately change it.)
        prop_assert_eq!(read_redacted(&out), reference);
        prop_assert_eq!(second.stats.proven_optimal, ref_stats.proven_optimal);
        prop_assert_eq!(
            second.stats.ratio_sum.to_bits(),
            plain.stats.ratio_sum.to_bits(),
            "checkpointed f64 accumulators merge bits-exact"
        );
        prop_assert_eq!(
            second.stats.ratio_worst.to_bits(),
            ref_stats.ratio_worst.to_bits(),
            "max is order-independent, so the batch reference agrees too"
        );
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();
    }

    /// A kill mid-append leaves the checkpoint's final record torn. Cut
    /// the journal at a random byte inside its last record, resume for a
    /// few more shards, then resume to the end: the first resume must drop
    /// the torn bytes before it appends, so the output still equals the
    /// batch reference. (One worker bounds the drain to one extra shard,
    /// so every run stops where the test says.)
    #[test]
    fn torn_checkpoint_tail_resumes_bit_identically(
        first_stop in 1usize..5,
        cut in any::<usize>(),
    ) {
        let text = corpus_text(40);
        let (reference, _) = reference_run(&text, 4);
        let out = tmp(&format!("torn-{first_stop}-{cut}.jsonl"));
        let ckpt = tmp(&format!("torn-{first_stop}-{cut}.ckpt"));
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();
        let mut cfg = config(1, 4, 1, None);
        let run = |cfg: &DispatchConfig| {
            dispatch::dispatch_fleet(Cursor::new(text.clone()), &out, Some(&ckpt), cfg, None, None)
        };

        cfg.stop_after_shards = Some(first_stop);
        let first = run(&cfg).expect("interrupted run");
        prop_assert!(first.interrupted);
        let bytes = fs::read(&ckpt).expect("checkpoint readable");
        let last = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("a header precedes the records")
            + 1;
        // Keep at least one byte of the last record; lose at least its newline.
        let len = last + 1 + cut % (bytes.len() - 1 - last);
        fs::write(&ckpt, &bytes[..len]).expect("checkpoint writable");

        cfg.stop_after_shards = Some(first.shards_total + 2);
        let second = run(&cfg).expect("resume after a torn tail");
        prop_assert!(second.interrupted);
        prop_assert_eq!(second.shards_resumed, first.shards_total - 1);

        cfg.stop_after_shards = None;
        let third = run(&cfg).expect("final resume");
        prop_assert!(third.error.is_none());
        prop_assert!(!third.interrupted);
        prop_assert_eq!(third.shards_total, 10);
        prop_assert_eq!(read_redacted(&out), reference);
        fs::remove_file(&out).ok();
        fs::remove_file(&ckpt).ok();
    }
}
