//! Facade-level engine integration: the portfolio through `msrs::prelude`,
//! cross-checked against the individual solver crates it orchestrates.

use msrs::prelude::*;

#[test]
fn engine_beats_or_matches_every_single_solver() {
    let engine = Engine::default();
    let families: Vec<(&str, Instance)> = vec![
        ("uniform", msrs::gen::uniform(21, 4, 60, 10, 1, 50)),
        ("zipf", msrs::gen::zipf_classes(22, 3, 50, 8, 1, 40)),
        ("satellite", msrs::gen::satellite(23, 3, 9, 8)),
        ("photolitho", msrs::gen::photolithography(24, 4, 10, 6)),
        ("adversarial", msrs::gen::adversarial_merged_lpt(4, 25)),
        ("boundary", msrs::gen::boundary_stress(25, 3, 9, 60)),
        ("huge", msrs::gen::huge_heavy(26, 4, 4, 6, 48)),
    ];
    for (name, inst) in families {
        let report = engine.solve_instance(&inst);
        assert_eq!(validate(&inst, &report.schedule), Ok(()), "{name}");
        for (solver, r) in [
            ("5/3", five_thirds(&inst)),
            ("3/2", three_halves(&inst)),
            ("merged", merged_lpt(&inst)),
            ("hebrard", hebrard_greedy(&inst)),
            ("list", list_scheduler(&inst)),
        ] {
            assert!(
                report.makespan <= r.schedule.makespan(&inst),
                "{name}: engine ({}) worse than {solver}",
                report.makespan
            );
        }
        assert!(report.makespan <= report.certified_horizon, "{name}");
        assert!(
            report.certified_horizon as u128 * 2 <= 3 * report.lower_bound as u128,
            "{name}: certificate looser than 1.5T"
        );
    }
}

#[test]
fn engine_matches_exact_optimum_on_small_instances() {
    let engine = Engine::default();
    let mut proven = 0;
    for (i, inst) in msrs::gen::SmallInstances::new(2, 5, 3, 3)
        .take(80)
        .enumerate()
    {
        let report = engine.solve_instance(&inst);
        let opt = optimal(&inst, SolveLimits::default())
            .expect("tiny instance")
            .makespan;
        assert_eq!(validate(&inst, &report.schedule), Ok(()), "instance {i}");
        assert_eq!(
            report.makespan, opt,
            "instance {i}: portfolio must find OPT"
        );
        if report.proven_optimal {
            proven += 1;
        }
    }
    assert!(
        proven >= 40,
        "exact member should usually finish ({proven}/80)"
    );
}

/// A fixed seeded corpus covering every `msrs gen` family plus drawn
/// Tiny-tier (exact branch-and-bound) and Small-tier (EPTAS) instances.
fn digest_corpus() -> Vec<Instance> {
    use msrs::engine::families::FAMILIES;
    let mut corpus = Vec::new();
    for (f, family) in FAMILIES.iter().enumerate() {
        for m in [2, 3, 4, 6] {
            corpus.push((family.generate)(100 + 10 * f as u64 + m as u64, m));
        }
    }
    for seed in 0..16u64 {
        // Tiny: ≤ 9 jobs over ≤ 5 classes, more classes than machines.
        let m = 2 + (seed % 2) as usize;
        let tiny = 6 + (seed % 4) as usize;
        let classes = m + 1 + (seed / 2 % 2) as usize;
        // Small: ≤ 28 jobs on ≤ 4 machines.
        let ms = 2 + (seed % 3) as usize;
        let small = 12 + (seed * 7 % 17) as usize;
        if seed % 2 == 0 {
            corpus.push(msrs::gen::uniform(seed, m, tiny, classes, 1, 20));
            corpus.push(msrs::gen::uniform(seed, ms, small, ms + 3, 1, 60));
        } else {
            corpus.push(msrs::gen::zipf_classes(seed, m, tiny, classes, 1, 20));
            corpus.push(msrs::gen::zipf_classes(seed, ms, small, ms + 3, 1, 60));
        }
    }
    corpus
}

/// Pins the exact content of the engine's reports: any change to a
/// member's schedule, a makespan, a certificate, the winner, or an exact
/// node count moves the digest. The digest is FNV-1a over each report's
/// wire line (every `wall_micros` zeroed) followed by its schedule.
/// A change that alters report content on purpose must re-pin it and say
/// why; a performance change must leave it alone.
#[test]
fn report_digest_is_pinned() {
    use msrs::engine::{checkpoint::fnv1a_64, classify, SizeTier};
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let corpus = digest_corpus();
    let mut tiers = [0usize; 4];
    let (mut exact, mut eptas) = (0, 0);
    let mut bytes = Vec::new();
    let mut line = Vec::new();
    for inst in &corpus {
        tiers[classify(inst).tier.index()] += 1;
        let mut report = engine.solve_instance(inst);
        for run in &report.runs {
            match run.solver {
                SolverKind::Exact if run.nodes.is_some() => exact += 1,
                SolverKind::Eptas => eptas += 1,
                _ => {}
            }
        }
        report.wall_micros = 0;
        for run in &mut report.runs {
            run.wall_micros = 0;
        }
        report.write_json_line(&mut line);
        bytes.extend_from_slice(&line);
        for a in report.schedule.assignments() {
            bytes.extend_from_slice(format!(" {}:{}", a.machine, a.start).as_bytes());
        }
        bytes.push(b'\n');
    }
    assert!(tiers[SizeTier::Tiny.index()] >= 8, "tiers {tiers:?}");
    assert!(tiers[SizeTier::Small.index()] >= 8, "tiers {tiers:?}");
    assert!(tiers[SizeTier::Large.index()] >= 16, "tiers {tiers:?}");
    assert!(exact >= 8 && eptas >= 16, "exact {exact}, eptas {eptas}");
    assert_eq!(
        fnv1a_64(&bytes),
        18053556474675420763,
        "report content changed over {} reports",
        corpus.len()
    );
}

#[test]
fn jsonl_corpus_flows_through_the_engine() {
    use msrs::engine::jsonl;
    let reqs: Vec<SolveRequest> = (0..10)
        .map(|s| SolveRequest::with_id(format!("p-{s}"), msrs::gen::photolithography(s, 3, 6, 5)))
        .collect();
    let corpus = jsonl::write_corpus(&reqs);
    let parsed = jsonl::read_corpus(&corpus).expect("round trip");
    let reports = Engine::default().solve_batch(&parsed);
    assert_eq!(reports.len(), 10);
    for (req, report) in parsed.iter().zip(&reports) {
        assert_eq!(report.id, req.id);
        assert_eq!(validate(&req.instance, &report.schedule), Ok(()));
    }
}
