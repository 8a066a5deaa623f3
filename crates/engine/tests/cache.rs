//! Canonical-form result cache: soundness and determinism guarantees.
//!
//! * cached and uncached reports must be **bit-identical** (every field
//!   except the `wall_micros` timings and the `cache_hit` provenance flag)
//!   across `threads = 1, 2, 8`, property-tested over random corpora that
//!   include relabelled duplicates;
//! * intra-batch dedup must fan reports out in request order with each
//!   request's own id and job numbering, and the byte-level data plane
//!   must count each request as one cache hit or miss, as the typed batch
//!   does;
//! * capacity 0 disables caching; tiny capacities evict LRU-first.

use std::sync::{Mutex, MutexGuard};

use msrs_core::canonical::relabel;
use msrs_core::{validate, ClassId, Instance, JobId};
use msrs_engine::{telemetry, Engine, EngineConfig, JsonlServer, SolveReport, SolveRequest};
use proptest::prelude::*;

/// Cache counters live in the process-global telemetry registry. This file
/// is its own test process, so a file-local mutex serializing the tests
/// makes registry *deltas* exactly the per-engine numbers the removed
/// `Engine::cache_stats` accessor used to report: within a locked section
/// the only cache activity is the test's own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counter movement across a locked section.
fn counter_delta(before: &telemetry::Snapshot, after: &telemetry::Snapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

/// Net entries added to the (cumulative, process-global) residency gauge
/// while the section's caches were alive.
fn entries_delta(before: &telemetry::Snapshot, after: &telemetry::Snapshot) -> i64 {
    after.gauge("msrs_cache_entries") - before.gauge("msrs_cache_entries")
}

fn engine(threads: usize, cache_capacity: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity,
        ..EngineConfig::default()
    })
}

/// Everything except the timings and cache provenance, in a directly
/// comparable form (the JSON covers every other field but the schedule).
fn comparable(report: &SolveReport) -> (String, Vec<(usize, u64)>) {
    let mut json = report.to_json();
    redact(&mut json);
    let schedule = report
        .schedule
        .assignments()
        .iter()
        .map(|a| (a.machine, a.start))
        .collect();
    (json.to_string(), schedule)
}

fn redact(json: &mut msrs_engine::json::Json) {
    use msrs_engine::json::Json;
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

/// Random corpora with planted relabelled duplicates: a base set of small
/// instances plus, for some of them, a copy with rotated class labels and
/// reversed job order (identical canonical form, different raw form).
fn arb_corpus() -> impl Strategy<Value = Vec<Instance>> {
    let base = prop::collection::vec(
        (
            1usize..=4,
            prop::collection::vec(prop::collection::vec(0u64..=30, 1..=4), 1..=6),
        )
            .prop_map(|(m, classes)| Instance::from_classes(m, &classes).expect("valid")),
        1..=12,
    );
    (base, prop::collection::vec(any::<usize>(), 0..=12)).prop_map(|(base, dup_picks)| {
        let mut corpus = base.clone();
        for pick in dup_picks {
            let inst = &base[pick % base.len()];
            let k = inst.num_classes();
            let class_perm: Vec<ClassId> = (0..k).map(|c| (c + 1) % k.max(1)).collect();
            let job_order: Vec<JobId> = (0..inst.num_jobs()).rev().collect();
            corpus.push(relabel(inst, &class_perm, &job_order));
        }
        corpus
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole guarantee: with the cache on (any thread count), every
    /// report — including reports served from cache or intra-batch dedup —
    /// is bit-identical to the cache-off report for the same request.
    #[test]
    fn cached_reports_are_bit_identical_to_uncached(corpus in arb_corpus()) {
        let _guard = serialized();
        let reqs: Vec<SolveRequest> = corpus
            .into_iter()
            .enumerate()
            .map(|(i, inst)| SolveRequest::with_id(format!("i{i}"), inst))
            .collect();
        let baseline: Vec<_> = engine(1, 0).solve_batch(&reqs).iter().map(comparable).collect();
        for threads in [1usize, 2, 8] {
            let before = telemetry::snapshot();
            let cached_engine = engine(threads, 1024);
            // Two passes: the first exercises misses + intra-batch dedup,
            // the second pure cache hits.
            for pass in 0..2 {
                let got: Vec<_> = cached_engine
                    .solve_batch(&reqs)
                    .iter()
                    .map(comparable)
                    .collect();
                prop_assert_eq!(
                    &got, &baseline,
                    "cache-on diverged (threads {}, pass {})", threads, pass
                );
            }
            let after = telemetry::snapshot();
            prop_assert!(
                counter_delta(&before, &after, "msrs_cache_hits_total") >= reqs.len() as u64,
                "second pass must hit"
            );
        }
    }

    /// Single-solve path: hit reports equal miss reports, and duplicates by
    /// relabelling share one cache entry.
    #[test]
    fn single_solves_hit_after_miss(corpus in arb_corpus()) {
        let _guard = serialized();
        let before = telemetry::snapshot();
        let eng = engine(1, 1024);
        for (i, inst) in corpus.iter().enumerate() {
            let req = SolveRequest::with_id(format!("s{i}"), inst.clone());
            let miss = eng.solve(&req);
            let hit = eng.solve(&req);
            prop_assert!(hit.cache_hit);
            prop_assert_eq!(comparable(&miss), comparable(&hit));
            prop_assert_eq!(validate(inst, &hit.schedule), Ok(()));
        }
        let after = telemetry::snapshot();
        let entries = entries_delta(&before, &after).max(0) as u64;
        let evictions = counter_delta(&before, &after, "msrs_cache_evictions_total");
        prop_assert!(entries + evictions <= corpus.len() as u64);
    }
}

/// 40 traffic requests; the seeds fall in buckets of 10, so the corpus
/// holds 4 distinct canonical forms.
fn dedup_corpus() -> Vec<SolveRequest> {
    (0..40u64)
        .map(|seed| SolveRequest::with_id(format!("t{seed}"), msrs_gen::traffic(seed, 3, 10)))
        .collect()
}

/// Intra-batch dedup: duplicate-heavy corpora collapse to their distinct
/// canonical forms, while reports keep request order, ids, and per-request
/// job numbering.
#[test]
fn intra_batch_dedup_fans_out_in_order() {
    let _guard = serialized();
    let before = telemetry::snapshot();
    let reqs = dedup_corpus();
    let eng = engine(2, 1024);
    let reports = eng.solve_batch(&reqs);
    let after = telemetry::snapshot();
    assert_eq!(reports.len(), reqs.len());
    assert_eq!(counter_delta(&before, &after, "msrs_cache_misses_total"), 4);
    assert_eq!(counter_delta(&before, &after, "msrs_cache_hits_total"), 36);
    assert_eq!(entries_delta(&before, &after), 4);
    for (req, report) in reqs.iter().zip(&reports) {
        assert_eq!(req.id, report.id, "fan-out must preserve request order");
        // The schedule is remapped to this request's own job numbering.
        assert_eq!(validate(&req.instance, &report.schedule), Ok(()));
        assert_eq!(report.schedule.makespan(&req.instance), report.makespan);
    }
    // All members of one bucket agree on everything but id/schedule layout.
    for chunk in reports.chunks(10) {
        for r in chunk {
            assert_eq!(r.makespan, chunk[0].makespan);
            assert_eq!(r.winner, chunk[0].winner);
            assert_eq!(r.certified_horizon, chunk[0].certified_horizon);
        }
    }
    // Exactly the first occurrence of each bucket is a fresh solve.
    let fresh: Vec<usize> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.cache_hit)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(fresh, vec![0, 10, 20, 30]);
}

/// The byte-level data plane counts each request once, as the typed batch
/// does: an in-shard duplicate is one hit, and a shard's miss batch does
/// not count its misses a second time. Shard size 64 holds the whole
/// corpus; shard size 8 splits every form across shards, so later shards
/// hit the cache.
#[test]
fn data_plane_counts_each_request_once() {
    let _guard = serialized();
    let corpus = msrs_engine::jsonl::write_corpus(&dedup_corpus());
    for shard_size in [64, 8] {
        let eng = engine(2, 1024);
        let before = telemetry::snapshot();
        let outcome = JsonlServer::new()
            .serve(&eng, corpus.as_bytes(), &mut std::io::sink(), shard_size)
            .expect("serving into a sink cannot fail");
        let after = telemetry::snapshot();
        assert!(outcome.error.is_none());
        assert_eq!(outcome.stats.instances, 40);
        let misses = counter_delta(&before, &after, "msrs_cache_misses_total");
        let hits = counter_delta(&before, &after, "msrs_cache_hits_total");
        assert_eq!((misses, hits), (4, 36), "shard size {shard_size}");
    }
}

/// Capacity 0 must behave exactly like the pre-cache engine: no hits, no
/// dedup, every solve fresh — and still identical reports.
#[test]
fn capacity_zero_disables_caching_and_dedup() {
    let _guard = serialized();
    let before = telemetry::snapshot();
    let reqs: Vec<SolveRequest> = (0..20u64)
        .map(|seed| SolveRequest::with_id(format!("t{seed}"), msrs_gen::traffic(seed, 3, 10)))
        .collect();
    let eng = engine(1, 0);
    let reports = eng.solve_batch(&reqs);
    let after = telemetry::snapshot();
    assert_eq!(counter_delta(&before, &after, "msrs_cache_hits_total"), 0);
    assert_eq!(counter_delta(&before, &after, "msrs_cache_misses_total"), 0);
    assert_eq!(entries_delta(&before, &after), 0);
    // The most recently constructed cache is this engine's: disabled.
    assert_eq!(after.gauge("msrs_cache_capacity"), 0);
    assert!(reports.iter().all(|r| !r.cache_hit));
    let twice = eng.solve_batch(&reqs);
    for (a, b) in reports.iter().zip(&twice) {
        assert_eq!(comparable(a), comparable(b));
    }
}

/// A deadline (opt-in nondeterminism) bypasses the cache even when capacity
/// is configured.
#[test]
fn deadline_bypasses_the_cache() {
    let _guard = serialized();
    let before = telemetry::snapshot();
    let eng = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 1024,
        deadline: Some(std::time::Duration::from_secs(3600)),
        ..EngineConfig::default()
    });
    let inst = msrs_gen::traffic(1, 3, 10);
    let a = eng.solve_instance(&inst);
    let b = eng.solve_instance(&inst);
    let after = telemetry::snapshot();
    assert!(!a.cache_hit && !b.cache_hit);
    assert_eq!(counter_delta(&before, &after, "msrs_cache_hits_total"), 0);
    assert_eq!(counter_delta(&before, &after, "msrs_cache_misses_total"), 0);
    assert_eq!(entries_delta(&before, &after), 0);
}

/// LRU pressure end-to-end: a capacity-2 engine serving three distinct
/// forms round-robin keeps evicting, but reports stay correct.
#[test]
fn tiny_capacity_evicts_but_stays_correct() {
    let _guard = serialized();
    let before = telemetry::snapshot();
    let eng = engine(1, 2);
    let insts: Vec<Instance> = (0..3).map(|b| msrs_gen::traffic(b * 10, 2, 10)).collect();
    let uncached = engine(1, 0);
    for round in 0..3 {
        for inst in &insts {
            let got = eng.solve_instance(inst);
            let want = uncached.solve_instance(inst);
            assert_eq!(
                comparable(&got),
                comparable(&want),
                "round {round} diverged"
            );
        }
    }
    let after = telemetry::snapshot();
    assert!(counter_delta(&before, &after, "msrs_cache_evictions_total") > 0);
    assert!(entries_delta(&before, &after) <= 2);
}
