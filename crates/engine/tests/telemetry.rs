//! End-to-end observability acceptance: a `traffic` batch pushed through
//! the serving data plane leaves a registry snapshot with nonzero stage
//! histograms for every data-plane hop and a per-(profile, member) outcome
//! row for every portfolio member that raced.
//!
//! Everything is asserted as a *delta* against a pre-run snapshot (the
//! registry is process-global and other tests in other binaries do not
//! share this process, but staying delta-based keeps the test honest if
//! more tests are ever added to this file).

use msrs_engine::stream::JsonlServer;
use msrs_engine::telemetry::{self, Stage};
use msrs_engine::{classify, jsonl, plan, Engine, EngineConfig};

#[test]
fn traffic_batch_populates_stages_and_outcome_table() {
    // Production-shaped duplicate-heavy traffic, rendered as JSONL.
    let instances: Vec<_> = (0..64).map(|seed| msrs_gen::traffic(seed, 3, 6)).collect();
    let mut corpus = String::new();
    for (i, inst) in instances.iter().enumerate() {
        corpus.push_str(&jsonl::write_instance_line(Some(&format!("t-{i}")), inst));
        corpus.push('\n');
    }

    let cfg = EngineConfig {
        threads: 2,
        cache_capacity: 1024,
        ..EngineConfig::default()
    };
    // The members the planner will race, per instance profile — collected
    // up front so the outcome-table assertion below covers *every* raced
    // (tier, member) pair, not a hand-picked sample.
    let mut raced: Vec<(usize, usize)> = Vec::new();
    for inst in &instances {
        let profile = classify(inst);
        for member in plan(&profile, &cfg).members {
            let pair = (profile.tier.index(), member.index());
            if !raced.contains(&pair) {
                raced.push(pair);
            }
        }
    }
    assert!(!raced.is_empty());

    let engine = Engine::new(cfg.clone());
    let before = telemetry::snapshot();
    let runs_before: Vec<u64> = raced
        .iter()
        .map(|&(p, m)| telemetry::registry().outcomes.runs(p, m))
        .collect();
    let mut out = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine, corpus.as_bytes(), &mut out, 16)
        .expect("serve");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 64);
    let after = telemetry::snapshot();

    // Every data-plane hop of the byte-level serve path recorded samples.
    for stage in [
        Stage::Decode,
        Stage::Canonicalize,
        Stage::CacheLookup,
        Stage::Plan,
        Stage::MemberRace,
        Stage::Serialize,
    ] {
        let delta = after.stage(stage).count - before.stage(stage).count;
        assert!(delta > 0, "stage {} recorded no samples", stage.label());
    }
    // Decode and serialize fire once per line.
    assert!(after.stage(Stage::Decode).count - before.stage(Stage::Decode).count >= 64);
    assert!(after.stage(Stage::Serialize).count - before.stage(Stage::Serialize).count >= 64);
    // Each line is canonicalized exactly once: a miss's canonical instance
    // is built from the data its fingerprint sorted.
    let canonicalized = |s: &telemetry::Snapshot| s.stage(Stage::Canonicalize).count;
    assert_eq!(canonicalized(&after) - canonicalized(&before), 64);

    // Every (tier, member) pair the planner raced has outcome rows.
    for (&(p, m), &prior) in raced.iter().zip(&runs_before) {
        let now = telemetry::registry().outcomes.runs(p, m);
        assert!(now > prior, "no outcome recorded for cell ({p}, {m})");
    }
    // And the snapshot carries them with real labels.
    assert!(
        after
            .outcomes
            .iter()
            .any(|o| o.member == "five_thirds" && o.runs > 0),
        "five_thirds races on every non-trivial instance"
    );

    // Request accounting: every line counted exactly once, fast-path lines
    // flagged as such.
    let requests = after.counter("msrs_requests_total") - before.counter("msrs_requests_total");
    assert_eq!(requests, 64, "each line counts as exactly one request");
    let fast =
        after.counter("msrs_serve_fast_path_total") - before.counter("msrs_serve_fast_path_total");
    assert_eq!(fast as usize, outcome.stats.fast_path_hits);

    // The rendered forms carry the same story.
    let json = after.to_json_string();
    assert!(json.contains("msrs_stage_member_race_nanos"));
    assert!(json.contains("\"outcomes\":[{"));
    let prom = after.to_prometheus();
    assert!(prom.contains("msrs_outcome_runs_total{profile="));

    // Without a cache every line is solved, and still canonicalized once.
    let uncached = Engine::new(EngineConfig {
        cache_capacity: 0,
        ..cfg
    });
    let outcome = JsonlServer::new()
        .serve(&uncached, corpus.as_bytes(), &mut Vec::new(), 16)
        .expect("serve");
    assert!(outcome.error.is_none());
    assert_eq!(
        canonicalized(&telemetry::snapshot()) - canonicalized(&after),
        64
    );
}
