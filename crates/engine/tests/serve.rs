//! The byte-level serving data plane (`JsonlServer`) against the engine's
//! typed batch API (`Engine::solve_batch`): for any corpus, the emitted
//! report lines must be bit-identical — modulo the `wall_micros` timings
//! and the `cache_hit` provenance flags — across thread counts 1/2/8,
//! cache on/off, and shard sizes, including corpora with relabelled
//! duplicates and escaped ids. Also covers the prefix-faithful error
//! semantics and the fast-path accounting of the serve loop.

use msrs_core::canonical::relabel;
use msrs_core::{ClassId, Instance, JobId};
use msrs_engine::json::Json;
use msrs_engine::stream::{JsonlServer, StreamOutcome};
use msrs_engine::{jsonl, Engine, EngineConfig, SolveRequest};
use proptest::prelude::*;

fn engine(threads: usize, cache_capacity: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity,
        ..EngineConfig::default()
    })
}

/// Zeroes every `wall_micros` and `cache_hit` in a report JSON document.
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

fn redacted_line(line: &str) -> String {
    let mut v = Json::parse(line).expect("emitted report line parses");
    redact(&mut v);
    v.to_string()
}

/// Serves `text` through the byte path into `out`.
fn serve_into(engine: &Engine, text: &str, out: &mut Vec<u8>, shard: usize) -> StreamOutcome {
    JsonlServer::new()
        .serve(engine, text.as_bytes(), out, shard)
        .expect("serve")
}

/// Serves `corpus_text` through the byte path and returns the redacted
/// report lines.
fn serve_lines(engine: &Engine, corpus_text: &str, shard: usize) -> Vec<String> {
    let mut out = Vec::new();
    let outcome = serve_into(engine, corpus_text, &mut out, shard);
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let text = String::from_utf8(out).expect("UTF-8 report lines");
    text.lines().map(redacted_line).collect()
}

/// Solves the parsed corpus in one typed `solve_batch` and returns the
/// redacted JSON serialization of every report.
fn batch_lines(engine: &Engine, corpus_text: &str) -> Vec<String> {
    let requests = jsonl::read_corpus(corpus_text).expect("valid corpus");
    engine
        .solve_batch(&requests)
        .iter()
        .map(|report| redacted_line(&report.to_json().to_string()))
        .collect()
}

/// Random corpora with planted relabelled duplicates and mixed ids
/// (missing, plain, and escape-needing).
fn arb_corpus_text() -> impl Strategy<Value = String> {
    let base = prop::collection::vec(
        (
            1usize..=4,
            prop::collection::vec(prop::collection::vec(0u64..=30, 1..=4), 1..=5),
        )
            .prop_map(|(m, classes)| Instance::from_classes(m, &classes).expect("valid")),
        1..=8,
    );
    (base, prop::collection::vec(any::<usize>(), 0..=8)).prop_map(|(base, dup_picks)| {
        let mut corpus: Vec<Instance> = base.clone();
        for pick in dup_picks {
            let inst = &base[pick % base.len()];
            let k = inst.num_classes();
            let class_perm: Vec<ClassId> = (0..k).map(|c| (c + 1) % k.max(1)).collect();
            let job_order: Vec<JobId> = (0..inst.num_jobs()).rev().collect();
            corpus.push(relabel(inst, &class_perm, &job_order));
        }
        let reqs: Vec<SolveRequest> = corpus
            .into_iter()
            .enumerate()
            .map(|(i, inst)| match i % 3 {
                0 => SolveRequest::new(inst),
                1 => SolveRequest::with_id(format!("req-{i}"), inst),
                _ => SolveRequest::with_id(format!("esc \"{i}\"\n\té✓"), inst),
            })
            .collect();
        format!("# corpus\n\n{}", jsonl::write_corpus(&reqs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serve-vs-batch bit-identity (modulo timings and `cache_hit`) at
    /// threads 1/2/8, cache on and off, across shard sizes — on *fresh*
    /// engines, so both paths see identical cold caches.
    #[test]
    fn serve_matches_solve_batch_bit_identically(
        corpus in arb_corpus_text(),
        shard in prop::sample::select(vec![1usize, 3, 64]),
    ) {
        for threads in [1usize, 2, 8] {
            for cache in [0usize, 1024] {
                let served = serve_lines(&engine(threads, cache), &corpus, shard);
                let batched = batch_lines(&engine(threads, cache), &corpus);
                prop_assert_eq!(
                    &served,
                    &batched,
                    "threads {} cache {} shard {}",
                    threads,
                    cache,
                    shard
                );
            }
        }
        // And across thread counts: the byte path itself is thread-invariant.
        let one = serve_lines(&engine(1, 1024), &corpus, shard);
        let eight = serve_lines(&engine(8, 1024), &corpus, shard);
        prop_assert_eq!(one, eight);
    }

    /// The flat-storage instance representation round-trips through the
    /// JSONL encode/decode pair bit-identically: decoding an encoded line
    /// reproduces the instance (machines, per-class flat spans, offsets)
    /// and re-encoding reproduces the exact bytes.
    #[test]
    fn jsonl_encode_decode_is_a_bit_identical_round_trip(
        m in 1usize..=5,
        classes in prop::collection::vec(prop::collection::vec(0u64..=50, 0..=5), 0..=8),
        with_id in any::<bool>(),
    ) {
        let inst = Instance::from_classes(m, &classes).expect("valid");
        let id = with_id.then(|| "id \\\"x\\\" é✓".to_string());
        let line = jsonl::write_instance_line(id.as_deref(), &inst);
        let req = jsonl::read_instance_line(1, &line).expect("round trip parses");
        prop_assert_eq!(req.instance.machines(), inst.machines());
        prop_assert_eq!(req.instance.flat_sizes(), inst.flat_sizes());
        prop_assert_eq!(req.instance.class_offsets(), inst.class_offsets());
        prop_assert_eq!(&req.instance, &inst);
        prop_assert_eq!(jsonl::write_instance_line(req.id.as_deref(), &req.instance), line);
    }
}

#[test]
fn serve_is_prefix_faithful_on_a_malformed_line() {
    let good = jsonl::write_instance_line(Some("ok-1"), &msrs_gen::uniform(1, 2, 6, 2, 1, 9));
    let good2 = jsonl::write_instance_line(Some("ok-2"), &msrs_gen::uniform(2, 2, 6, 2, 1, 9));
    let text = format!("{good}\n{good2}\nnot json\n{good}\n");
    let engine = engine(2, 1024);
    let mut out = Vec::new();
    let outcome = serve_into(&engine, &text, &mut out, 64);
    // Both reports before the malformed line were emitted…
    let emitted = String::from_utf8(out).unwrap();
    assert_eq!(emitted.lines().count(), 2);
    assert!(emitted.lines().next().unwrap().contains("\"id\":\"ok-1\""));
    assert_eq!(outcome.stats.instances, 2);
    // …and the error carries the physical line number.
    match outcome.error {
        Some(msrs_engine::jsonl::CorpusError::Json { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected Json error on line 3, got {other:?}"),
    }
}

#[test]
fn serve_fast_path_kicks_in_on_the_second_pass() {
    let reqs: Vec<SolveRequest> = (0..6)
        .map(|seed| SolveRequest::with_id(format!("t-{seed}"), msrs_gen::traffic(seed, 3, 4)))
        .collect();
    let text = jsonl::write_corpus(&reqs);
    let engine = engine(2, 1024);
    let mut first = Vec::new();
    let cold = serve_into(&engine, &text, &mut first, 4);
    assert_eq!(cold.stats.instances, 6);
    assert!(cold.stats.max_resident > 0, "cold pass materializes misses");
    let mut second = Vec::new();
    let warm = serve_into(&engine, &text, &mut second, 4);
    assert_eq!(warm.stats.instances, 6);
    assert_eq!(warm.stats.fast_path_hits, 6, "every line cache-served");
    assert_eq!(warm.stats.max_resident, 0, "no request materialized");
    // Warm output equals cold output modulo timings/cache_hit.
    let a: Vec<String> = String::from_utf8(first)
        .unwrap()
        .lines()
        .map(redacted_line)
        .collect();
    let b: Vec<String> = String::from_utf8(second)
        .unwrap()
        .lines()
        .map(redacted_line)
        .collect();
    assert_eq!(a, b);
}

#[test]
fn serve_skips_blanks_and_comments_and_reports_empty_corpora() {
    let engine = engine(1, 1024);
    let mut out = Vec::new();
    let outcome = serve_into(&engine, "# nothing\n\n \n", &mut out, 8);
    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 0);
    assert!(out.is_empty());
}
