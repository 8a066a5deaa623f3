//! Guarantees of the streaming sharded batch pipeline (`JsonlServer` over
//! the `ServiceCore` data plane):
//!
//! * a malformed line mid-stream surfaces the correct 1-based *physical*
//!   line number, and every report for lines before it is still emitted;
//! * a sharded run's report lines are bit-identical to an unsharded
//!   `Engine::solve_batch` over the same corpus — at threads 1, 2, and 8 —
//!   except for the `wall_micros` timings and the `cache_hit` provenance
//!   flag (sharding only changes *when* a duplicate is served from the
//!   cache versus deduplicated inside its batch);
//! * residency stays bounded by the shard, and a failing writer ends the
//!   run.

use std::io::{self, Write};

use msrs_engine::json::Json;
use msrs_engine::jsonl::{self, CorpusError};
use msrs_engine::stream::{JsonlServer, StreamOutcome};
use msrs_engine::{Engine, EngineConfig, SolveRequest};

/// A report line without timings and cache provenance, directly
/// comparable.
fn comparable(line: &str) -> String {
    let mut json = Json::parse(line).expect("report line parses");
    redact(&mut json);
    json.to_string()
}
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

fn engine(threads: usize, cache_capacity: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity,
        ..EngineConfig::default()
    })
}

/// A duplicate-heavy corpus (relabelled instances share canonical forms),
/// serialized as JSONL.
fn corpus() -> Vec<SolveRequest> {
    let mut reqs = Vec::new();
    for seed in 0..30u64 {
        let inst = msrs_gen::traffic(seed, 3, 5);
        reqs.push(SolveRequest::with_id(format!("t-{seed}"), inst));
    }
    reqs
}

fn corpus_text(reqs: &[SolveRequest]) -> String {
    jsonl::write_corpus(reqs.iter())
}

/// Serves `text` through the batch driver; returns the outcome and the
/// emitted report lines.
fn serve(engine: &Engine, text: &str, shard_size: usize) -> (StreamOutcome, Vec<String>) {
    let mut out = Vec::new();
    let outcome = JsonlServer::new()
        .serve(engine, text.as_bytes(), &mut out, shard_size)
        .expect("writing to memory never fails");
    let text = String::from_utf8(out).expect("UTF-8 report lines");
    (outcome, text.lines().map(str::to_owned).collect())
}

#[test]
fn malformed_line_mid_stream_keeps_earlier_reports_and_its_line_number() {
    let reqs = corpus();
    let mut text = String::from("# corpus header\n\n");
    for req in reqs.iter().take(5) {
        text.push_str(&jsonl::write_instance_line(
            req.id.as_deref(),
            &req.instance,
        ));
        text.push('\n');
    }
    // Physical lines so far: 1 comment + 1 blank + 5 instances = 7.
    text.push_str("{\"machines\":oops}\n");
    text.push_str(&jsonl::write_instance_line(
        Some("after"),
        &reqs[6].instance,
    ));
    text.push('\n');

    // Shard size 2: two full shards plus a partial one before the error.
    let (outcome, lines) = serve(&engine(2, 0), &text, 2);
    let emitted: Vec<String> = lines
        .iter()
        .map(|line| {
            let json = Json::parse(line).expect("report line parses");
            json.get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned()
        })
        .collect();
    assert_eq!(
        emitted,
        vec!["t-0", "t-1", "t-2", "t-3", "t-4"],
        "every line before the malformed one yields its report, in order"
    );
    assert_eq!(outcome.stats.instances, 5);
    assert_eq!(outcome.stats.shards, 3, "2 + 2 + 1 (flushed partial shard)");
    match outcome.error {
        Some(CorpusError::Json { line, .. }) => assert_eq!(line, 8, "1-based physical line"),
        other => panic!("expected a Json error, got {other:?}"),
    }
}

#[test]
fn sharded_reports_are_bit_identical_to_unsharded_across_thread_counts() {
    let text = corpus_text(&corpus());
    // The unsharded reference solves the *parsed* corpus: serialization
    // renumbers jobs class by class, so comparing against the in-memory
    // generator output would diff job labellings, not pipeline behavior.
    let reqs = jsonl::read_corpus(&text).expect("valid corpus");
    for cache_capacity in [0usize, 1024] {
        let baseline: Vec<String> = engine(1, cache_capacity)
            .solve_batch(&reqs)
            .iter()
            .map(|report| comparable(&report.to_json().to_string()))
            .collect();
        for threads in [1usize, 2, 8] {
            for shard_size in [4usize, 7, 64] {
                let (outcome, lines) = serve(&engine(threads, cache_capacity), &text, shard_size);
                let streamed: Vec<String> = lines.iter().map(|l| comparable(l)).collect();
                assert!(outcome.error.is_none());
                assert_eq!(outcome.stats.instances, reqs.len());
                assert_eq!(
                    outcome.stats.shards,
                    reqs.len().div_ceil(shard_size),
                    "threads={threads} shard_size={shard_size}"
                );
                assert!(outcome.stats.max_resident <= shard_size);
                assert_eq!(
                    streamed, baseline,
                    "threads={threads} shard_size={shard_size} cache={cache_capacity}"
                );
            }
        }
    }
}

#[test]
fn stream_memory_stays_bounded_by_the_shard() {
    // Not a real memory meter (no allocator hooks here) — asserts the
    // pipeline's own residency accounting: with the cache off every line
    // is a materialized miss, and at most one shard of them is resident
    // at once even for a much longer corpus.
    let n = 500u64;
    let reqs: Vec<SolveRequest> = (0..n)
        .map(|seed| SolveRequest::with_id(format!("t-{seed}"), msrs_gen::traffic(seed, 3, 10)))
        .collect();
    let (outcome, lines) = serve(&engine(2, 0), &corpus_text(&reqs), 32);
    assert!(outcome.error.is_none());
    assert_eq!(lines.len(), n as usize);
    assert_eq!(outcome.stats.max_resident, 32);
    assert_eq!(outcome.stats.shards, (n as usize).div_ceil(32));
}

/// A writer whose every write fails, like a full disk or a closed pipe.
struct FullSink;

impl Write for FullSink {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("sink full"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn emit_errors_abort_the_stream() {
    let reqs: Vec<SolveRequest> = (0..10u64)
        .map(|seed| SolveRequest::new(msrs_gen::uniform(seed, 2, 6, 2, 1, 9)))
        .collect();
    let result = JsonlServer::new().serve(
        &engine(1, 0),
        corpus_text(&reqs).as_bytes(),
        &mut FullSink,
        4,
    );
    assert!(result.is_err(), "downstream I/O errors propagate");
}
