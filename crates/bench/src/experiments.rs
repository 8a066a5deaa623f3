//! Experiments E1–E8: each regenerates one paper artifact (see crate docs).
//! All quality claims are *asserted*, so running the harness doubles as an
//! end-to-end soundness check of the whole workspace.

use std::time::Instant;

use rayon::prelude::*;

use msrs_approx::baselines::{hebrard_greedy, list_scheduler, merged_lpt};
use msrs_approx::{five_thirds, three_halves, ApproxResult};
use msrs_core::{bounds::lower_bound, frac, render::render_gantt, validate, Instance};
use msrs_exact::{optimal, optimal_configured, BoundConfig, SolveLimits};
use msrs_flow::PlaceholderProblem;
use msrs_multires::model::MultiMakespan;
use msrs_multires::{dpll, validate_multi, Fidelity, Monotone3Sat22, Reduction};
use msrs_ptas::{eptas_augmented, eptas_fixed_m, EptasConfig};

use crate::corpus::{exact_corpus, families, ptas_corpus};
use crate::table::{fmt_ratio, Table};
use crate::Scale;

type Algo = (&'static str, fn(&Instance) -> ApproxResult);

fn algos() -> Vec<Algo> {
    vec![
        ("5/3 (Thm 2)", five_thirds),
        ("3/2 (Thm 7)", three_halves),
        ("merged-LPT", merged_lpt),
        ("hebrard", hebrard_greedy),
        ("list-LPT", list_scheduler),
    ]
}

fn checked_ratio(inst: &Instance, r: &ApproxResult) -> f64 {
    assert_eq!(
        validate(inst, &r.schedule),
        Ok(()),
        "invalid schedule in experiment"
    );
    let lb = lower_bound(inst);
    if lb == 0 {
        return 1.0;
    }
    r.schedule.makespan(inst) as f64 / lb as f64
}

/// E1 — guarantee table per workload family (Thm 2 / Thm 7): worst and mean
/// `Cmax / T` over machines and seeds; asserts the 5/3 and 3/2 caps.
pub fn e1_ratio_families(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1: Cmax/T per workload family (Thm 2 & Thm 7 guarantees)",
        &["family", "algo", "worst", "mean", "runs"],
    );
    for (family, gen) in families() {
        let configs: Vec<(u64, usize)> = (0..scale.seeds)
            .flat_map(|s| [2usize, 4, 8, 16].map(|m| (s, m)))
            .collect();
        for (name, algo) in algos() {
            let ratios: Vec<f64> = configs
                .par_iter()
                .map(move |(seed, m)| {
                    let inst = gen(seed, m);
                    let r = algo(&inst);
                    let ratio = checked_ratio(&inst, &r);
                    if name.starts_with("5/3") {
                        let cap = frac::floor_mul(5, 3, r.lower_bound).max(r.lower_bound);
                        assert!(r.schedule.makespan(&inst) <= cap, "5/3 bound violated");
                    }
                    if name.starts_with("3/2") {
                        let cap = frac::floor_mul(3, 2, r.lower_bound).max(r.lower_bound);
                        assert!(r.schedule.makespan(&inst) <= cap, "3/2 bound violated");
                    }
                    ratio
                })
                .collect();
            let worst = ratios.iter().cloned().fold(0.0, f64::max);
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            t.row(vec![
                family.into(),
                name.into(),
                fmt_ratio(worst),
                fmt_ratio(mean),
                ratios.len().to_string(),
            ]);
        }
    }
    t.note("ratios are against the combined lower bound T ≤ OPT (upper bounds on true ratios)");
    t
}

/// E2 — ratio vs m (the paper's "better than 2m/(m+1) already for 6 resp. 4
/// machines"): worst observed ratios on the adversarial + uniform families,
/// next to the three guarantee curves.
pub fn e2_ratio_vs_m(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2: worst Cmax/T vs m (crossover against 2m/(m+1))",
        &[
            "m",
            "2m/(m+1)",
            "5/3 obs",
            "3/2 obs",
            "mergedLPT obs",
            "hebrard obs",
            "list obs",
        ],
    );
    for m in 2..=12usize {
        let mut insts: Vec<Instance> = vec![msrs_gen::adversarial_merged_lpt(m, 60)];
        for seed in 0..scale.seeds {
            insts.push(msrs_gen::uniform(seed, m, 30 * m, 4 * m, 1, 60));
            insts.push(msrs_gen::zipf_classes(seed, m, 30 * m, 4 * m, 1, 60));
        }
        // Index fan-out over the borrowed corpus: no instance is cloned.
        let worst = |algo: fn(&Instance) -> ApproxResult| -> f64 {
            (0..insts.len())
                .into_par_iter()
                .map(|i| checked_ratio(&insts[i], &algo(&insts[i])))
                .fold(0.0, f64::max)
        };
        let guarantee = 2.0 * m as f64 / (m as f64 + 1.0);
        let w53 = worst(five_thirds);
        let w32 = worst(three_halves);
        assert!(w53 <= 5.0 / 3.0 + 1e-9);
        assert!(w32 <= 1.5 + 1e-9);
        t.row(vec![
            m.to_string(),
            fmt_ratio(guarantee),
            fmt_ratio(w53),
            fmt_ratio(w32),
            fmt_ratio(worst(merged_lpt)),
            fmt_ratio(worst(hebrard_greedy)),
            fmt_ratio(worst(list_scheduler)),
        ]);
    }
    t.note("guarantee crossovers: 5/3 < 2m/(m+1) for m ≥ 6; 3/2 < 2m/(m+1) for m ≥ 4");
    t.note("merged-LPT hits exactly 2m/(m+1) on the adversarial family");
    t
}

/// E3 — runtime scaling (Thm 2: O(|I|); Thm 7: O(n + m log m)): wall-clock
/// per n, with the per-job normalization that should stay ~flat.
pub fn e3_runtime_scaling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3: runtime scaling (linear-time claims of Thm 2 / Thm 7)",
        &["n", "algo", "ms", "ns/job"],
    );
    let mut n = 1000usize;
    while n <= scale.big_n {
        let inst = msrs_gen::uniform(7, 32, n, n / 10 + 1, 1, 1000);
        for (name, algo) in [
            ("5/3", five_thirds as fn(&Instance) -> ApproxResult),
            ("3/2", three_halves),
        ] {
            let start = Instant::now();
            let r = algo(&inst);
            let elapsed = start.elapsed();
            assert_eq!(validate(&inst, &r.schedule), Ok(()));
            t.row(vec![
                n.to_string(),
                name.into(),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", elapsed.as_nanos() as f64 / n as f64),
            ]);
        }
        n *= 10;
    }
    t.note("ns/job should stay roughly constant (linear-time algorithms)");
    t
}

/// E4 — empirical ratios against exact OPT on an exhaustive small corpus.
pub fn e4_exact_smallscale(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4: Cmax/OPT on small instances (exact branch-and-bound ground truth)",
        &["algo", "worst", "mean", "optimal%", "instances"],
    );
    let corpus = exact_corpus(scale.exact_cap);
    let opts: Vec<(Instance, u64)> = corpus
        .into_par_iter()
        .filter_map(|inst| {
            optimal(
                &inst,
                SolveLimits {
                    max_nodes: 3_000_000,
                },
            )
            .map(|r| (inst, r.makespan))
        })
        .collect();
    for (name, algo) in algos() {
        let ratios: Vec<f64> = (0..opts.len())
            .into_par_iter()
            .map(|i| {
                let (inst, opt) = &opts[i];
                let (inst, opt) = (inst, *opt);
                let r = algo(inst);
                assert_eq!(validate(inst, &r.schedule), Ok(()));
                let c = r.schedule.makespan(inst);
                assert!(c >= opt, "{name} beat the optimum?!");
                if name.starts_with("5/3") {
                    assert!(3 * c <= 5 * opt, "5/3 vs OPT violated");
                }
                if name.starts_with("3/2") {
                    assert!(2 * c <= 3 * opt, "3/2 vs OPT violated");
                }
                if opt == 0 {
                    1.0
                } else {
                    c as f64 / opt as f64
                }
            })
            .collect();
        let worst = ratios.iter().cloned().fold(0.0, f64::max);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let optimal_pct = 100.0 * ratios.iter().filter(|&&r| r <= 1.0 + 1e-12).count() as f64
            / ratios.len() as f64;
        t.row(vec![
            name.into(),
            fmt_ratio(worst),
            fmt_ratio(mean),
            format!("{optimal_pct:.1}"),
            ratios.len().to_string(),
        ]);
    }
    t
}

/// E5 — the approximation schemes (Thm 14): quality vs ε for both variants,
/// with machine usage for the augmentation variant.
pub fn e5_ptas(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E5: EPTAS quality vs ε (Thm 14, both variants) against exact OPT",
        &[
            "variant",
            "eps",
            "worst",
            "mean",
            "mach used/avail",
            "intact%",
        ],
    );
    let corpus: Vec<(Instance, u64)> = ptas_corpus()
        .into_par_iter()
        .map(|inst| {
            let opt = optimal(&inst, SolveLimits::default())
                .expect("small")
                .makespan;
            (inst, opt)
        })
        .collect();
    for k in [2u64, 3, 4, 6] {
        for augmented in [false, true] {
            // One EPTAS run per corpus entry, fanned out over the borrowed
            // corpus by index; per-instance results come back in corpus
            // order, so the aggregation below is deterministic.
            let runs: Vec<(f64, usize, usize, bool)> = (0..corpus.len())
                .into_par_iter()
                .map(|i| {
                    let (inst, opt) = &corpus[i];
                    let cfg = EptasConfig {
                        eps_k: k,
                        node_budget: 2_000_000,
                    };
                    let out = if augmented {
                        eptas_augmented(inst, cfg)
                    } else {
                        eptas_fixed_m(inst, cfg)
                    };
                    assert_eq!(validate(&out.instance, &out.schedule), Ok(()));
                    if !augmented {
                        assert_eq!(out.instance.machines(), inst.machines());
                    }
                    (
                        out.makespan() as f64 / *opt as f64,
                        out.schedule.machines_used(&out.instance),
                        out.instance.machines(),
                        out.guarantee_intact,
                    )
                })
                .collect();
            let mut ratios = Vec::new();
            let mut used = 0usize;
            let mut avail = 0usize;
            let mut intact = 0usize;
            for (ratio, u, a, ok) in runs {
                ratios.push(ratio);
                used += u;
                avail += a;
                intact += usize::from(ok);
            }
            let worst = ratios.iter().cloned().fold(0.0, f64::max);
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            assert!(worst <= 1.0 + 8.0 / k as f64, "EPTAS envelope violated");
            t.row(vec![
                if augmented {
                    "augmented".into()
                } else {
                    "fixed-m".to_string()
                },
                format!("1/{k}"),
                fmt_ratio(worst),
                fmt_ratio(mean),
                format!("{used}/{avail}"),
                format!("{:.0}", 100.0 * intact as f64 / corpus.len() as f64),
            ]);
        }
    }
    t.note("augmented variant may use up to ⌊(1+ε)m⌋ machines (Thm 14)");
    t
}

/// E6 — Figures 1–4: canonical instances forcing each algorithm phase, with
/// the resulting ASCII Gantt charts. Returns the rendered report.
pub fn e6_algorithm_steps(_scale: Scale) -> String {
    let mut out = String::new();
    let mut show = |title: &str, inst: &Instance, r: &ApproxResult| {
        assert_eq!(validate(inst, &r.schedule), Ok(()));
        out.push_str(&format!(
            "\n-- {title} (T={}, horizon={}, Cmax={}) --\n",
            r.lower_bound,
            r.horizon,
            r.schedule.makespan(inst)
        ));
        out.push_str(&render_gantt(inst, &r.schedule, 64));
    };

    // Figure 1: the three steps of Algorithm_5/3 — big-job classes, a large
    // class that must split, then greedy filling.
    let f1 = Instance::from_classes(2, &[vec![9, 8], vec![5, 5, 5], vec![2], vec![1, 1]]).unwrap();
    show(
        "Figure 1: Algorithm_5/3 steps (split + delay)",
        &f1,
        &five_thirds(&f1),
    );

    // Figure 2: Algorithm_no_huge Steps 2–5 (pairing mids, 4-heavy packing).
    let f2 = Instance::from_classes(
        4,
        &[vec![4, 3], vec![4, 3], vec![4, 3], vec![4, 3], vec![2, 2]],
    )
    .unwrap();
    show(
        "Figure 2: Algorithm_no_huge Step 3 (four ≥3/4-classes on three machines)",
        &f2,
        &three_halves(&f2),
    );

    // Figure 3: Step 6/7 cases — three heavy classes with big hats.
    let f3 = Instance::from_classes(3, &[vec![5, 3], vec![5, 3], vec![5, 3], vec![2, 2]]).unwrap();
    show(
        "Figure 3: Algorithm_no_huge Step 7 (three ≥3/4-classes)",
        &f3,
        &three_halves(&f3),
    );

    // Figure 4: general Algorithm_3/2 — huge machines absorbing classes
    // (Steps 4, 6, 8) and the rotation (Steps 5/10).
    let f4 =
        Instance::from_classes(4, &[vec![11], vec![11], vec![5, 4], vec![5, 4], vec![2]]).unwrap();
    show(
        "Figure 4: Algorithm_3/2 Step 8 (two huge machines + two heavy classes)",
        &f4,
        &three_halves(&f4),
    );

    let f5 = Instance::from_classes(2, &[vec![9], vec![4, 3], vec![2]]).unwrap();
    show(
        "Figure 4 (cont.): Algorithm_3/2 Step 5 rotation",
        &f5,
        &three_halves(&f5),
    );
    out
}

/// E7 — Figure 5: the class/layer placeholder flow network — sizes, flow
/// value = total demand, and the integral round trip, over random fractional
/// placements.
pub fn e7_flow_network(scale: Scale) -> Table {
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    let mut t = Table::new(
        "E7: Lemma 18 / Figure 5 placeholder flow networks",
        &[
            "classes",
            "layers",
            "demand",
            "flow=demand",
            "roundtrip ok",
            "runs",
        ],
    );
    for (classes, layers) in [(4usize, 6usize), (8, 10), (16, 16), (32, 24)] {
        let mut ok = 0usize;
        let mut runs = 0usize;
        let mut total_demand = 0u64;
        for seed in 0..scale.seeds.max(4) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 1000 + classes as u64);
            let mut lambda = vec![vec![0.0f64; layers]; classes];
            for row in lambda.iter_mut() {
                let demand = rng.random_range(0..=(layers as u64) / 2);
                let mut rem = demand as f64;
                let mut order: Vec<usize> = (0..layers).collect();
                order.shuffle(&mut rng);
                for &l in &order {
                    if rem <= 0.0 {
                        break;
                    }
                    let amt = if rem >= 1.0 { 1.0 } else { rem };
                    row[l] = amt;
                    rem -= amt;
                }
            }
            let prob = PlaceholderProblem::from_fractional(&lambda);
            total_demand += prob.total_demand();
            let asg = prob.solve().expect("Lemma 18 rounding must exist");
            if prob.check(&asg) {
                ok += 1;
            }
            runs += 1;
        }
        t.row(vec![
            classes.to_string(),
            layers.to_string(),
            (total_demand / runs as u64).to_string(),
            "yes".into(),
            format!("{ok}/{runs}"),
            runs.to_string(),
        ]);
        assert_eq!(ok, runs, "integral rounding failed");
    }
    t
}

/// E8 — Theorem 23 / Lemma 24 / Figure 6: the SAT reduction. For sampled
/// Monotone 3-SAT-(2,2) formulas: satisfiability, the constructed makespan
/// (4 iff satisfiable on the repaired gadget, 5 otherwise), the assignment
/// round trip, and the text-gadget capacity deficit (the erratum).
pub fn e8_reduction(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8: Monotone 3-SAT-(2,2) reduction (Thm 23 / Lemma 24 / Fig 6)",
        &[
            "|X|",
            "|C|",
            "machines",
            "sat%",
            "mk4 ok%",
            "mk5 ok%",
            "deficit(text)",
        ],
    );
    for nx in [3usize, 6, 9, 12, 18, 24, 30] {
        // One reduction round trip per seed, fanned out on the pool; each
        // task carries its own assertions and the per-seed facts come back
        // in seed order for deterministic aggregation.
        let per_seed: Vec<(usize, i64, usize, bool)> = (0..scale.seeds.max(4))
            .into_par_iter()
            .map(move |seed| {
                let f = Monotone3Sat22::random(seed, nx);
                let nc = f.num_clauses();
                let text = Reduction::build(f.clone(), Fidelity::Text);
                let deficit = text.capacity_deficit();
                assert!(deficit > 0, "erratum certificate must be positive");
                let red = Reduction::build(f.clone(), Fidelity::Repaired);
                let machines = red.instance.machines();
                let s5 = red.schedule_makespan5();
                assert_eq!(validate_multi(&red.instance, &s5), Ok(()));
                assert_eq!(s5.makespan_multi(&red.instance), 5);
                let satisfiable = if let Some(asg) = dpll(&f.cnf) {
                    let s4 = red.schedule_makespan4(&asg).expect("satisfying assignment");
                    assert_eq!(validate_multi(&red.instance, &s4), Ok(()));
                    assert_eq!(s4.makespan_multi(&red.instance), 4);
                    assert_eq!(red.extract_assignment(&s4), asg, "round trip failed");
                    true
                } else {
                    false
                };
                (nc, deficit, machines, satisfiable)
            })
            .collect();
        let mut sat = 0usize;
        let mut mk4 = 0usize;
        let mut mk5 = 0usize;
        let mut runs = 0usize;
        let mut deficit = 0i64;
        let mut nc = 0usize;
        let mut machines = 0usize;
        for (seed_nc, seed_deficit, seed_machines, satisfiable) in per_seed {
            nc = seed_nc;
            deficit = seed_deficit;
            machines = seed_machines;
            mk5 += 1;
            if satisfiable {
                sat += 1;
                mk4 += 1;
            }
            runs += 1;
        }
        let pct = |x: usize| format!("{:.0}", 100.0 * x as f64 / runs as f64);
        t.row(vec![
            nx.to_string(),
            nc.to_string(),
            machines.to_string(),
            pct(sat),
            pct(mk4),
            pct(mk5),
            deficit.to_string(),
        ]);
    }
    t.note("deficit(text) = load − 4·machines > 0: the printed gadget cannot reach makespan 4 (see DESIGN.md erratum)");
    t.note("mk4 is constructed on the capacity-repaired gadget for every satisfiable formula");
    t
}

/// E9 — ablations of the design choices DESIGN.md calls out:
/// (a) exact-solver pruning bounds (node counts with each bound disabled);
/// (b) the list scheduler's tie-break rule (job-id starves the adversarial
///     family, remaining-load interleaves it);
/// (c) EPTAS node-budget sensitivity (guarantee intact vs degraded).
pub fn e9_ablations(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E9: ablations (pruning bounds, tie-breaks, EPTAS budget)",
        &["ablation", "config", "metric", "value"],
    );

    // (a) Exact-solver bound ablation. Both instances have lower bound < OPT
    // so the incumbent cannot short-circuit and the search must prove
    // optimality.
    let gap_instances = [
        (
            "7 singleton jobs",
            Instance::from_classes(
                2,
                &[
                    vec![4],
                    vec![4],
                    vec![4],
                    vec![4],
                    vec![4],
                    vec![3],
                    vec![3],
                ],
            )
            .unwrap(),
        ),
        (
            "conflict mix",
            Instance::from_classes(
                2,
                &[vec![4, 4], vec![4], vec![4], vec![4], vec![3], vec![3]],
            )
            .unwrap(),
        ),
    ];
    let configs = [
        (
            "area+class+sym",
            BoundConfig {
                area: true,
                class_serialization: true,
                symmetry: true,
            },
        ),
        (
            "area+class",
            BoundConfig {
                area: true,
                class_serialization: true,
                symmetry: false,
            },
        ),
        (
            "area only",
            BoundConfig {
                area: true,
                class_serialization: false,
                symmetry: false,
            },
        ),
        (
            "class only",
            BoundConfig {
                area: false,
                class_serialization: true,
                symmetry: false,
            },
        ),
        (
            "none",
            BoundConfig {
                area: false,
                class_serialization: false,
                symmetry: false,
            },
        ),
    ];
    // The measured quantity is the node count, which is only reproducible
    // when the search runs single-threaded (parallel root branches race on
    // the shared incumbent, making pruning order timing-dependent) — pin
    // this ablation to one thread.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    for (iname, inst) in &gap_instances {
        let mut reference = None;
        for (name, cfg) in configs {
            let r = one
                .install(|| {
                    optimal_configured(
                        inst,
                        SolveLimits {
                            max_nodes: 200_000_000,
                        },
                        cfg,
                    )
                })
                .expect("within budget");
            if let Some(opt) = reference {
                assert_eq!(r.makespan, opt, "bound ablation changed the optimum");
            }
            reference = Some(r.makespan);
            t.row(vec![
                format!("exact bounds: {iname}"),
                name.into(),
                "B&B nodes".into(),
                r.nodes.to_string(),
            ]);
        }
    }

    // (b) List-scheduler tie-break ablation.
    for m in [4usize, 8] {
        let inst = msrs_gen::adversarial_merged_lpt(m, 60);
        let lb = lower_bound(&inst) as f64;
        let naive = msrs_approx::baselines::list_scheduler_naive(&inst);
        let smart = list_scheduler(&inst);
        assert_eq!(validate(&inst, &naive.schedule), Ok(()));
        t.row(vec![
            format!("tie-break m={m}"),
            "job-id (naive)".into(),
            "Cmax/T".into(),
            fmt_ratio(naive.schedule.makespan(&inst) as f64 / lb),
        ]);
        t.row(vec![
            format!("tie-break m={m}"),
            "remaining-load".into(),
            "Cmax/T".into(),
            fmt_ratio(smart.schedule.makespan(&inst) as f64 / lb),
        ]);
    }

    // (c) EPTAS node-budget sensitivity.
    let inst = crate::corpus::ptas_corpus().remove(4);
    for budget in [20_000u64, 200_000, 2_000_000] {
        let out = eptas_fixed_m(
            &inst,
            EptasConfig {
                eps_k: 4,
                node_budget: budget,
            },
        );
        assert_eq!(validate(&out.instance, &out.schedule), Ok(()));
        t.row(vec![
            "eptas budget".into(),
            format!("{budget} nodes"),
            "Cmax (intact?)".into(),
            format!("{} ({})", out.makespan(), out.guarantee_intact),
        ]);
    }
    t.note("(a) node counts: both bounds together prune orders of magnitude");
    t.note("(b) the naive tie-break starves the (m+1)-th class toward 2m/(m+1)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_smoke() {
        let t = e1_ratio_families(Scale::smoke());
        assert!(t.len() >= 7 * 5);
    }

    #[test]
    fn e2_smoke() {
        let t = e2_ratio_vs_m(Scale::smoke());
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn e3_smoke() {
        let t = e3_runtime_scaling(Scale::smoke());
        assert!(!t.is_empty());
    }

    #[test]
    fn e4_smoke() {
        let t = e4_exact_smallscale(Scale::smoke());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn e5_smoke() {
        let t = e5_ptas(Scale::smoke());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn e6_smoke() {
        let s = e6_algorithm_steps(Scale::smoke());
        assert!(s.contains("Figure 1"));
        assert!(s.contains("Figure 4"));
    }

    #[test]
    fn e7_smoke() {
        let t = e7_flow_network(Scale::smoke());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn e8_smoke() {
        let t = e8_reduction(Scale::smoke());
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn e9_smoke() {
        let t = e9_ablations(Scale::smoke());
        assert!(t.len() >= 10);
    }
}
