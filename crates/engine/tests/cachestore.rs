//! Robustness proofs for the two durable logs — the result-cache store and
//! the dispatch checkpoint, both journals of checksummed records:
//!
//! * **truncation sweep** — a pristine log cut at *every* byte offset
//!   loads without a panic or an error and yields exactly the records
//!   whose lines survived intact (never a corrupt one); the store counts
//!   no quarantine — a torn tail is recovery, not corruption — and a
//!   record appended after the reopen loads right after the survivors;
//! * **bit-flip sweep** — a single bit flipped at *every* byte of every
//!   record line is always detected, and no loaded record ever deviates
//!   from the one appended. In a store the open never fails, the flipped
//!   record's segment is quarantined (counted in stats *and* the
//!   process-global telemetry) and the sibling segment loads untouched;
//!   a checkpoint drops a flipped final record and refuses a flip
//!   anywhere before it with `InvalidData`;
//! * **version 1** — files in the previous format of either log are
//!   refused with `InvalidData`;
//! * **warm restart** — an engine that served a corpus through an
//!   attached store is dropped (joining the store's writer), a fresh
//!   engine warm-loads the store, and a second pass over the same corpus
//!   is served entirely from cache, bit-identical modulo `wall_micros`
//!   and `cache_hit`;
//! * **completeness** — every fresh solve reaches the store: thousands of
//!   canonically distinct lines in one miss batch, in many batches, and
//!   through `Engine::solve_batch` reload as one record per form.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use msrs_core::{Assignment, Instance, Schedule};
use msrs_engine::json::Json;
use msrs_engine::portfolio::SolverKind;
use msrs_engine::report::{RunStatus, SolverRun};
use msrs_engine::stream::JsonlServer;
use msrs_engine::{
    jsonl, CacheStore, CheckpointHeader, CheckpointLog, Engine, EngineConfig, EptasPolicy,
    ShardRecord, ShardStats, SolveReport, SolveRequest,
};

/// A scratch path unique to this process and test.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msrs-cachestore-it-{}-{name}", std::process::id()))
}

/// A small synthetic (but fully canonical) report — `to_store_json` of
/// this value round-trips bit-identically, which is all the store's
/// checksum verification relies on.
fn report(seed: u64) -> SolveReport {
    SolveReport {
        id: None,
        jobs: 2,
        machines: 1,
        classes: 1,
        lower_bound: seed,
        makespan: seed + 1,
        winner: SolverKind::FiveThirds,
        certified_horizon: seed + 2,
        certified_by: SolverKind::FiveThirds,
        proven_optimal: false,
        cache_hit: false,
        wall_micros: 3,
        runs: vec![SolverRun {
            solver: SolverKind::FiveThirds,
            status: RunStatus::Completed,
            makespan: Some(seed + 1),
            certified_horizon: Some(seed + 2),
            nodes: None,
            wall_micros: 3,
        }],
        schedule: Schedule::new(vec![
            Assignment {
                machine: 0,
                start: 0,
            },
            Assignment {
                machine: 0,
                start: seed,
            },
        ]),
    }
}

const CONFIG_FP: u64 = 0x5eed;

/// Builds a pristine two-segment store (a reopen writes a fresh segment
/// marker between the two batches) and returns its bytes plus the
/// expected `(fingerprint, payload)` list in file order.
fn pristine_store(path: &Path, first: u64, second: u64) -> (Vec<u8>, Vec<(u128, String)>) {
    let _ = fs::remove_file(path);
    let mut expected = Vec::new();
    for (start, count) in [(0u64, first), (first, second)] {
        let (mut store, _, _) = CacheStore::open(path, CONFIG_FP).expect("store opens");
        for i in start..start + count {
            let payload = report(i).to_store_json().to_string();
            store
                .append(i as u128 + 1, CONFIG_FP, &payload)
                .expect("append");
            expected.push((i as u128 + 1, payload));
        }
        store.sync().expect("sync");
    }
    let bytes = fs::read(path).expect("store readable");
    (bytes, expected)
}

const CHECKPOINT: CheckpointHeader = CheckpointHeader {
    config_fp: CONFIG_FP,
    shard_size: 8,
};

fn shard_record(shard: usize) -> ShardRecord {
    ShardRecord {
        shard,
        lines: 8,
        shard_fp: 0x9e37_79b9_7f4a_7c15 ^ shard as u64,
        out_bytes: 4_096 * (shard as u64 + 1),
        attempts: 1,
        quarantined: shard == 1,
        stats: ShardStats {
            instances: 8,
            proven_optimal: 3,
            ratio_sum_bits: 8.25f64.to_bits(),
            ratio_worst_bits: 1.5f64.to_bits(),
            solve_micros: 1_234,
            ..ShardStats::default()
        },
    }
}

/// Builds a pristine three-record checkpoint and returns its bytes plus
/// the records appended.
fn pristine_checkpoint(path: &Path) -> (Vec<u8>, Vec<ShardRecord>) {
    let mut log = CheckpointLog::create(path, CHECKPOINT).expect("checkpoint created");
    let records: Vec<ShardRecord> = (0..3).map(shard_record).collect();
    for record in &records {
        log.append(record).expect("append");
    }
    (fs::read(path).expect("checkpoint readable"), records)
}

/// The two durable logs, as inputs to the same sweeps.
#[derive(Clone, Copy, Debug)]
enum Log {
    Store,
    Checkpoint,
}

/// A pristine log: its bytes, the records appended in file order
/// (rendered comparably), and the byte spans of their lines.
struct Pristine {
    bytes: Vec<u8>,
    records: Vec<String>,
    spans: Vec<(usize, usize)>,
}

/// What opening a (damaged) copy of a log produced.
struct Loaded {
    records: Vec<String>,
    errors: u64,
    segments_quarantined: u64,
}

impl Log {
    fn ext(self) -> &'static str {
        match self {
            Log::Store => "mcache",
            Log::Checkpoint => "ckpt",
        }
    }

    /// A store of two segments (3 + 2 records), or a 3-record checkpoint.
    fn pristine(self, path: &Path) -> Pristine {
        let (bytes, records, prefix): (_, Vec<String>, &[u8]) = match self {
            Log::Store => {
                let (bytes, expected) = pristine_store(path, 3, 2);
                let records = expected
                    .iter()
                    .map(|(fp, payload)| format!("{fp:032x} {payload}"))
                    .collect();
                (bytes, records, b"{\"fp\":")
            }
            Log::Checkpoint => {
                let (bytes, expected) = pristine_checkpoint(path);
                let records = expected.iter().map(|r| format!("{r:?}")).collect();
                (bytes, records, b"{\"shard\":")
            }
        };
        let spans = record_spans(&bytes, prefix);
        assert_eq!(spans.len(), records.len());
        Pristine {
            bytes,
            records,
            spans,
        }
    }

    /// Opens the log at `path` and appends one new record after what it
    /// recovered (`kept` records); returns that record, rendered.
    fn append_after(self, path: &Path, kept: usize) -> String {
        match self {
            Log::Store => {
                let (mut store, _, _) = CacheStore::open(path, CONFIG_FP).expect("store opens");
                let payload = report(99).to_store_json().to_string();
                store.append(99, CONFIG_FP, &payload).expect("append");
                store.sync().expect("sync");
                format!("{:032x} {payload}", 99)
            }
            Log::Checkpoint => {
                let (mut log, _) = CheckpointLog::open(path, CHECKPOINT).expect("checkpoint opens");
                log.append(&shard_record(kept)).expect("append");
                format!("{:?}", shard_record(kept))
            }
        }
    }

    fn load(self, path: &Path) -> io::Result<Loaded> {
        match self {
            Log::Store => {
                let (_store, entries, stats) = CacheStore::open(path, CONFIG_FP)?;
                assert_eq!(stats.loaded, entries.len() as u64);
                let records = entries
                    .iter()
                    .map(|entry| {
                        assert_eq!(
                            entry.report.to_store_json().to_string(),
                            *entry.payload,
                            "loaded report re-serializes to the checksummed bytes"
                        );
                        format!("{:032x} {}", entry.fingerprint, entry.payload)
                    })
                    .collect();
                Ok(Loaded {
                    records,
                    errors: stats.errors,
                    segments_quarantined: stats.segments_quarantined,
                })
            }
            Log::Checkpoint => {
                let (_log, records) = CheckpointLog::open(path, CHECKPOINT)?;
                Ok(Loaded {
                    records: records.iter().map(|r| format!("{r:?}")).collect(),
                    errors: 0,
                    segments_quarantined: 0,
                })
            }
        }
    }
}

/// Byte spans (start, end-exclusive of the newline) of every line that
/// starts with `prefix` — the record lines of a log.
fn record_spans(bytes: &[u8], prefix: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for line in bytes.split(|&b| b == b'\n') {
        if line.starts_with(prefix) {
            spans.push((start, start + line.len()));
        }
        start += line.len() + 1;
    }
    spans
}

#[test]
fn loader_survives_truncation_at_every_byte_offset() {
    for log in [Log::Store, Log::Checkpoint] {
        let build = tmp(&format!("trunc-build.{}", log.ext()));
        let pristine = log.pristine(&build);
        let bytes = &pristine.bytes;
        let scratch = tmp(&format!("trunc-scratch.{}", log.ext()));
        for cut in 0..=bytes.len() {
            fs::write(&scratch, &bytes[..cut]).expect("scratch writable");
            let loaded = log.load(&scratch).unwrap_or_else(|e| {
                panic!("{log:?} truncated at byte {cut} must load, not error: {e}")
            });
            // A record survives iff its full line (newline included) fits.
            let survivors = pristine.spans.iter().filter(|(_, end)| *end < cut).count();
            assert_eq!(
                loaded.records,
                pristine.records[..survivors],
                "{log:?} truncated at byte {cut} of {}",
                bytes.len()
            );
            assert_eq!(
                (loaded.errors, loaded.segments_quarantined),
                (0, 0),
                "a torn tail at byte {cut} is recovery, never corruption"
            );
            // The reopen cut the torn bytes away: a record appended now
            // loads right after the survivors.
            let appended = log.append_after(&scratch, survivors);
            let reloaded = log.load(&scratch).expect("recovered log reloads");
            assert_eq!(
                reloaded.records.split_last(),
                Some((&appended, &pristine.records[..survivors])),
                "{log:?} truncated at byte {cut}, then appended to"
            );
        }
        fs::remove_file(&build).ok();
        fs::remove_file(&scratch).ok();
    }
}

#[test]
fn single_bit_flips_are_always_detected_and_never_served() {
    let reg = msrs_engine::telemetry::registry();
    for log in [Log::Store, Log::Checkpoint] {
        let build = tmp(&format!("flip-build.{}", log.ext()));
        let pristine = log.pristine(&build);
        let spans = &pristine.spans;
        let scratch = tmp(&format!("flip-scratch.{}", log.ext()));
        for (record, &(start, end)) in spans.iter().enumerate() {
            for pos in start..end {
                let mut flipped = pristine.bytes.clone();
                flipped[pos] ^= 0x01;
                fs::write(&scratch, &flipped).expect("scratch writable");
                let quarantined_before = reg.cache_store_segments_quarantined_total.get();
                let errors_before = reg.cache_store_load_errors_total.get();
                let loaded = log.load(&scratch);
                let at = format!("{log:?}: flip at byte {pos} (record {record})");
                match log {
                    Log::Store => {
                        let loaded =
                            loaded.unwrap_or_else(|e| panic!("{at} must load, not error: {e}"));
                        assert_eq!(loaded.errors, 1, "{at} must be detected");
                        assert_eq!(loaded.segments_quarantined, 1, "{at}");
                        // The flipped record kills its own segment (records
                        // 0..3 or 3..5); the sibling segment loads untouched
                        // and no served record deviates from the pristine
                        // bytes.
                        let sibling = if record < 3 {
                            &pristine.records[3..]
                        } else {
                            &pristine.records[..3]
                        };
                        assert_eq!(loaded.records, sibling, "{at}: only its segment is lost");
                        // The loss is visible process-wide, not just in the
                        // return value (deltas are ≥ because sibling tests
                        // share the registry).
                        assert!(
                            reg.cache_store_segments_quarantined_total.get() > quarantined_before,
                            "{at}: quarantine must reach telemetry"
                        );
                        assert!(reg.cache_store_load_errors_total.get() > errors_before);
                    }
                    // Only the final record may be dropped; a flip before it
                    // refuses the whole checkpoint.
                    Log::Checkpoint => match loaded {
                        Ok(loaded) => {
                            assert_eq!(record + 1, spans.len(), "{at} must be refused");
                            assert_eq!(loaded.records, pristine.records[..record], "{at}");
                        }
                        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{at}: {e}"),
                    },
                }
            }
        }
        fs::remove_file(&build).ok();
        fs::remove_file(&scratch).ok();
    }
}

/// Files in the version-1 format of either log (before both moved onto
/// the checksummed journal) are refused, naming the version.
#[test]
fn version_1_files_are_refused() {
    let checkpoint = tmp("v1.ckpt");
    fs::write(
        &checkpoint,
        format!(
            "{{\"checkpoint\":\"msrs-dispatch\",\"version\":1,\"config_fp\":{CONFIG_FP},\
             \"shard_size\":8}}\n"
        ),
    )
    .expect("scratch writable");
    let err = CheckpointLog::open(&checkpoint, CHECKPOINT).expect_err("v1 checkpoint");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 1"), "{err}");

    let store = tmp("v1.mcache");
    fs::write(
        &store,
        format!(
            "{{\"cache\":\"msrs-cache\",\"version\":1,\"config_fp\":{CONFIG_FP}}}\n\
             {{\"segment\":0}}\n"
        ),
    )
    .expect("scratch writable");
    let err = CacheStore::open(&store, CONFIG_FP).expect_err("v1 store");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 1"), "{err}");
    fs::remove_file(&checkpoint).ok();
    fs::remove_file(&store).ok();
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

#[test]
fn warm_restart_serves_the_second_pass_from_the_store_bit_identically() {
    let path = tmp("warm-restart.mcache");
    let _ = fs::remove_file(&path);

    // A duplicate-heavy corpus over four distinct canonical forms (ids
    // vary — ids are not part of the canonical form).
    let distinct: Vec<_> = (0..4)
        .map(|seed| msrs_gen::uniform(seed, 3, 12, 3, 1, 40))
        .collect();
    let mut corpus = String::new();
    for i in 0..12 {
        corpus.push_str(&jsonl::write_instance_line(
            Some(&format!("w-{i}")),
            &distinct[i % distinct.len()],
        ));
        corpus.push('\n');
    }
    // `EngineConfig::default()` leaves the cache disabled unless
    // `MSRS_CACHE` is set — the store rides the cache, so enable it.
    let config = EngineConfig {
        threads: 1,
        cache_capacity: 1024,
        ..EngineConfig::default()
    };

    // First life: solve everything; the store's writer persists each miss batch.
    let engine = Engine::new(config.clone());
    let load = engine
        .attach_cache_store(&path)
        .expect("fresh store attaches");
    assert_eq!(load.loaded, 0);
    let mut out1 = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine, corpus.as_bytes(), &mut out1, 4)
        .expect("first pass");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 12);
    // Restart: dropping the engine joins the store's writer, so every
    // fresh solve of the first life is durable before the second life
    // opens the file.
    drop(engine);

    let engine = Engine::new(config);
    let load = engine.attach_cache_store(&path).expect("store reloads");
    assert_eq!(
        load.loaded, 4,
        "one durable record per distinct canonical form"
    );
    assert_eq!((load.errors, load.segments_quarantined), (0, 0));
    let mut out2 = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine, corpus.as_bytes(), &mut out2, 4)
        .expect("second pass");
    assert!(outcome.error.is_none());
    assert_eq!(
        outcome.stats.fast_path_hits, 12,
        "every line of the restarted pass is served from the warm-loaded cache"
    );
    assert_eq!(outcome.stats.max_resident, 0, "no request materialized");

    let second_raw: Vec<String> = String::from_utf8(out2)
        .expect("utf8 reports")
        .lines()
        .map(str::to_string)
        .collect();
    for line in &second_raw {
        let json = Json::parse(line).expect("report parses");
        assert!(
            matches!(json.get("cache_hit"), Some(Json::Bool(true))),
            "warm-restarted reports carry cache provenance: {line}"
        );
    }
    let first: Vec<String> = String::from_utf8(out1)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect();
    let second: Vec<String> = second_raw.iter().map(|l| redacted(l)).collect();
    assert_eq!(
        first, second,
        "warm restart is bit-identical modulo wall_micros and cache_hit"
    );
    fs::remove_file(&path).ok();
}

#[test]
fn every_fresh_solve_is_stored() {
    // Canonically distinct small instances (the first class's larger job
    // differs), more than a 1,024-entry cache holds.
    const DISTINCT: usize = 2_048;
    let instances: Vec<Instance> = (0..DISTINCT as u64)
        .map(|i| Instance::from_classes(3, &[vec![i + 3, 2], vec![3], vec![1, 1]]).unwrap())
        .collect();
    let mut corpus = String::new();
    for (i, inst) in instances.iter().enumerate() {
        corpus.push_str(&jsonl::write_instance_line(Some(&format!("d-{i}")), inst));
        corpus.push('\n');
    }
    let config = EngineConfig {
        threads: 2,
        cache_capacity: 1024,
        run_baselines: false,
        eptas: EptasPolicy {
            enabled: false,
            ..EptasPolicy::default()
        },
        ..EngineConfig::default()
    };

    // Shard size 4096 puts every line in one miss batch; 256 sends eight
    // batches through the writer's one-slot hand-off; `None` is the typed
    // batch API.
    for shard_size in [Some(4096), Some(256), None] {
        let path = tmp(&format!("complete-{shard_size:?}.mcache"));
        let _ = fs::remove_file(&path);
        let engine = Engine::new(config.clone());
        engine
            .attach_cache_store(&path)
            .expect("fresh store attaches");
        match shard_size {
            Some(shard_size) => {
                let outcome = JsonlServer::new()
                    .serve(&engine, corpus.as_bytes(), &mut io::sink(), shard_size)
                    .expect("serve");
                assert!(outcome.error.is_none());
                assert_eq!(outcome.stats.instances, DISTINCT);
            }
            None => {
                let reqs: Vec<SolveRequest> =
                    instances.iter().cloned().map(SolveRequest::new).collect();
                assert_eq!(engine.solve_batch(&reqs).len(), DISTINCT);
            }
        }
        // Dropping the engine joins the writer: everything it was handed
        // is on disk.
        drop(engine);
        let (_store, entries, stats) =
            CacheStore::open(&path, config.content_fingerprint()).expect("store reopens");
        assert_eq!(
            stats.loaded, DISTINCT as u64,
            "shard size {shard_size:?}: one record per distinct form"
        );
        let forms: HashSet<u128> = entries.iter().map(|e| e.fingerprint).collect();
        assert_eq!(forms.len(), DISTINCT, "shard size {shard_size:?}");
        fs::remove_file(&path).ok();
    }
}
