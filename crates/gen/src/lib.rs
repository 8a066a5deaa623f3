//! # msrs-gen — workload generators for MSRS
//!
//! Deterministic (seeded) instance families used by the test suite and the
//! experiment harness:
//!
//! * [`uniform`] — jobs with uniform sizes spread over `k` classes.
//! * [`zipf_classes`] — heavy-tailed class cardinalities (a few hot resources).
//! * [`satellite`] — the Earth-observation download scenario motivating the
//!   problem in Hebrard et al.: satellites are the shared resources, ground
//!   stations the machines, and each satellite holds a burst of downloads.
//! * [`photolithography`] — the semiconductor scenario of Janssen et al.:
//!   reticles are the shared resources, steppers the machines; bimodal
//!   (setup/exposure) processing times.
//! * [`adversarial_merged_lpt`] — the classic family on which class-merging +
//!   LPT degenerates towards its `2m/(m+1)` worst case while OPT interleaves.
//! * [`boundary_stress`] — sizes planted exactly on the `T/4, T/2, 2T/3, 3T/4`
//!   thresholds of the 5/3- and 3/2-algorithms' case analysis.
//! * [`huge_heavy`] — many classes containing a job `> (3/4)·T` to exercise
//!   the `Algorithm_3/2` general-case steps.
//! * [`traffic`] — duplicate-heavy repeated traffic: seeds quantized into
//!   buckets of identical canonical instances, relabelled per seed, for
//!   exercising the engine's canonical-form result cache and intra-batch
//!   dedup.
//! * [`SmallInstances`] — an exhaustive enumerator of tiny instances for
//!   comparisons against the exact solver.
//!
//! Every generator takes an explicit seed and uses ChaCha8, so every table in
//! EXPERIMENTS.md is bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use msrs_core::{Instance, Job, Time};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Uniform family: `n` jobs with sizes drawn from `lo..=hi`, each assigned to
/// one of `k` classes uniformly at random.
pub fn uniform(seed: u64, m: usize, n: usize, k: usize, lo: Time, hi: Time) -> Instance {
    assert!(k >= 1 && m >= 1 && lo <= hi);
    let mut r = rng(seed);
    let jobs: Vec<Job> = (0..n)
        .map(|_| Job::new(r.random_range(lo..=hi), r.random_range(0..k)))
        .collect();
    Instance::new(m, jobs).expect("valid generator parameters")
}

/// Zipf-like family: class `c` receives a number of jobs proportional to
/// `1/(c+1)` (heavy head), sizes uniform in `lo..=hi`. Models a few highly
/// contended resources plus a long tail.
pub fn zipf_classes(seed: u64, m: usize, n: usize, k: usize, lo: Time, hi: Time) -> Instance {
    assert!(k >= 1 && m >= 1 && lo <= hi);
    let mut r = rng(seed);
    let weights: Vec<f64> = (0..k).map(|c| 1.0 / (c as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let mut x = r.random::<f64>() * total;
        let mut class = k - 1;
        for (c, w) in weights.iter().enumerate() {
            if x < *w {
                class = c;
                break;
            }
            x -= w;
        }
        jobs.push(Job::new(r.random_range(lo..=hi), class));
    }
    Instance::new(m, jobs).expect("valid generator parameters")
}

/// Satellite-downlink family (Hebrard et al. motivation): `sats` satellites
/// (classes) each hold `burst` download jobs whose sizes follow a skewed
/// two-point mixture (mostly short telemetry, occasionally a long image
/// dump); `m` ground stations (machines).
pub fn satellite(seed: u64, m: usize, sats: usize, burst: usize) -> Instance {
    assert!(sats >= 1 && m >= 1 && burst >= 1);
    let mut r = rng(seed);
    let mut classes: Vec<Vec<Time>> = Vec::with_capacity(sats);
    for _ in 0..sats {
        let mut sizes = Vec::with_capacity(burst);
        for _ in 0..burst {
            let size = if r.random::<f64>() < 0.2 {
                // long image dump
                r.random_range(60..=140)
            } else {
                // short telemetry window
                r.random_range(5..=25)
            };
            sizes.push(size);
        }
        classes.push(sizes);
    }
    Instance::from_classes(m, &classes).expect("valid generator parameters")
}

/// Photolithography family (Janssen et al. motivation): `reticles` classes.
/// Each reticle runs `lots` lots on the steppers; a lot is either a fast
/// metrology step or a long exposure.
pub fn photolithography(seed: u64, m: usize, reticles: usize, lots: usize) -> Instance {
    assert!(reticles >= 1 && m >= 1 && lots >= 1);
    let mut r = rng(seed);
    let mut classes: Vec<Vec<Time>> = Vec::with_capacity(reticles);
    for _ in 0..reticles {
        let mut sizes = Vec::with_capacity(lots);
        for _ in 0..lots {
            let size = if r.random::<f64>() < 0.5 {
                r.random_range(3..=8) // metrology / alignment
            } else {
                r.random_range(20..=45) // exposure run
            };
            sizes.push(size);
        }
        classes.push(sizes);
    }
    Instance::from_classes(m, &classes).expect("valid generator parameters")
}

/// Adversarial family for class-merging baselines: `m+1` classes, each a bag
/// of `per_class` unit jobs. Any algorithm that keeps classes contiguous must
/// put two classes on one machine (makespan `≈ 2·per_class`), while an
/// interleaved optimum achieves `≈ (m+1)·per_class/m`, approaching the
/// `2m/(m+1)` gap the paper cites for the prior algorithms.
pub fn adversarial_merged_lpt(m: usize, per_class: usize) -> Instance {
    assert!(m >= 1 && per_class >= 1);
    let classes: Vec<Vec<Time>> = (0..=m).map(|_| vec![1; per_class]).collect();
    Instance::from_classes(m, &classes).expect("valid generator parameters")
}

/// Boundary-stress family: sizes planted exactly on (and one unit around) the
/// rational thresholds `T/4, T/2, 2T/3, 3T/4` of the case analyses, for a
/// nominal `t0` (use a multiple of 12 to make every threshold integral).
pub fn boundary_stress(seed: u64, m: usize, k: usize, t0: Time) -> Instance {
    assert!(m >= 1 && k >= 1 && t0 >= 12);
    let mut r = rng(seed);
    let anchors = [
        t0 / 4,
        t0 / 4 + 1,
        t0 / 2 - 1,
        t0 / 2,
        t0 / 2 + 1,
        2 * t0 / 3,
        2 * t0 / 3 + 1,
        3 * t0 / 4 - 1,
        3 * t0 / 4,
        3 * t0 / 4 + 1,
    ];
    let mut classes: Vec<Vec<Time>> = vec![Vec::new(); k];
    for (i, class) in classes.iter_mut().enumerate() {
        // Each class gets one anchored job plus filler, capped at t0 total so
        // the class bound stays at t0.
        let a = anchors[(i + r.random_range(0..anchors.len())) % anchors.len()];
        class.push(a);
        let mut rest = t0 - a;
        while rest > 0 {
            let s = r.random_range(1..=rest.min(t0 / 6).max(1));
            class.push(s);
            rest -= s;
            if r.random::<f64>() < 0.3 {
                break;
            }
        }
    }
    Instance::from_classes(m, &classes).expect("valid generator parameters")
}

/// Huge-job-heavy family: `h` classes each led by a job `> (3/4)·t0` (plus
/// light tails), and `k` filler classes of small jobs — exercises Steps 2–10
/// of `Algorithm_3/2`.
pub fn huge_heavy(seed: u64, m: usize, h: usize, k: usize, t0: Time) -> Instance {
    assert!(m >= 1 && t0 >= 8);
    let mut r = rng(seed);
    let mut classes: Vec<Vec<Time>> = Vec::with_capacity(h + k);
    for _ in 0..h {
        let huge = r.random_range((3 * t0 / 4 + 1)..=t0.saturating_sub(1).max(3 * t0 / 4 + 1));
        let mut c = vec![huge];
        let mut rest = t0 - huge;
        while rest > 0 && r.random::<f64>() < 0.7 {
            let s = r.random_range(1..=rest);
            c.push(s);
            rest -= s;
        }
        classes.push(c);
    }
    for _ in 0..k {
        let jobs = r.random_range(1..=4);
        classes.push((0..jobs).map(|_| r.random_range(1..=t0 / 4)).collect());
    }
    Instance::from_classes(m, &classes).expect("valid generator parameters")
}

/// Duplicate-heavy "traffic" family: models heavy repeated production
/// traffic, where the same workload shapes arrive over and over with
/// meaningless identifier churn. Seeds are quantized into buckets of
/// `dup_factor` — every seed in a bucket describes the *same canonical
/// instance* — and the raw instance is then relabelled per seed (class ids
/// permuted, job order shuffled), so duplicates are only detectable by
/// canonicalization, never by raw equality. A corpus of `n` consecutive
/// seeds therefore contains exactly `⌈n / dup_factor⌉` distinct canonical
/// forms (a `dup_factor = 10` corpus is 90% duplicates).
pub fn traffic(seed: u64, m: usize, dup_factor: u64) -> Instance {
    assert!(dup_factor >= 1 && m >= 1);
    let base_seed = seed - seed % dup_factor;
    let base = uniform(base_seed, m, 40 * m, 6 * m, 1, 100);
    let mut r = rng(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    // Permute class labels and job order; the canonical form is invariant.
    let mut class_perm: Vec<usize> = (0..base.num_classes()).collect();
    class_perm.shuffle(&mut r);
    let mut job_order: Vec<usize> = (0..base.num_jobs()).collect();
    job_order.shuffle(&mut r);
    let jobs: Vec<Job> = job_order
        .iter()
        .map(|&j| Job::new(base.size(j), class_perm[base.class_of(j)]))
        .collect();
    Instance::new(m, jobs).expect("relabelling preserves validity")
}

/// Parity-gap partition: `items` distinct even sizes `2·(101+i)` in
/// singleton classes on two machines. Subset sums are dense near `S/2`,
/// and whenever `S/2` is odd (e.g. `items = 21`, the canonical hard size)
/// no perfect split exists, so `OPT = T + 1` and an exact proof must sweep
/// every near-balanced prefix — with all-distinct sizes giving the
/// branch-and-bound's class-symmetry dominance no purchase. The
/// workspace's standard "hard for the exact solver" instance (cancellation
/// and deadline tests).
pub fn parity_gap_partition(items: usize) -> Instance {
    let classes: Vec<Vec<Time>> = (0..items).map(|i| vec![2 * (101 + i as Time)]).collect();
    Instance::from_classes(2, &classes).expect("valid construction")
}

/// Returns the same instance with every processing time multiplied by `k`
/// (sensitivity tool: all algorithms in this workspace are scale-equivariant
/// up to rounding of the lower bound, which the test-suite checks).
pub fn rescale(inst: &Instance, k: Time) -> Instance {
    let jobs: Vec<Job> = inst
        .jobs()
        .iter()
        .map(|j| Job::new(j.size * k, j.class))
        .collect();
    Instance::new(inst.machines(), jobs).expect("same machine count")
}

/// Returns the same jobs on a different machine count (for machine-scaling
/// sweeps like E2).
pub fn with_machines(inst: &Instance, machines: usize) -> Instance {
    Instance::new(machines, inst.jobs().to_vec()).expect("machines ≥ 1")
}

/// Disjoint union of two instances on the same machine count: classes of
/// `b` are renumbered after `a`'s.
pub fn concat(a: &Instance, b: &Instance) -> Instance {
    assert_eq!(a.machines(), b.machines(), "machine counts must match");
    let offset = a.num_classes();
    let mut jobs = a.jobs().to_vec();
    jobs.extend(b.jobs().iter().map(|j| Job::new(j.size, j.class + offset)));
    Instance::new(a.machines(), jobs).expect("machines ≥ 1")
}

/// Exhaustive enumerator over tiny instances: all multisets of up to
/// `max_jobs` jobs with sizes in `1..=max_size`, split into up to
/// `max_classes` classes, on `machines` machines. Intended for ground-truth
/// comparisons against the exact solver (E4) and for edge-case hunting.
///
/// Enumeration is canonical-form based (non-increasing sizes within a class,
/// classes in non-increasing lexicographic order) so no two yielded instances
/// are isomorphic.
pub struct SmallInstances {
    machines: usize,
    max_jobs: usize,
    max_size: Time,
    max_classes: usize,
    stack: Vec<Vec<Vec<Time>>>,
}

impl SmallInstances {
    /// Creates the enumerator.
    pub fn new(machines: usize, max_jobs: usize, max_size: Time, max_classes: usize) -> Self {
        SmallInstances {
            machines,
            max_jobs,
            max_size,
            max_classes,
            stack: vec![vec![]],
        }
    }

    fn class_candidates(&self, budget: usize, le: &[Time]) -> Vec<Vec<Time>> {
        // All non-increasing size vectors of length 1..=budget, lexicographically
        // ≤ `le` (for canonical class ordering), sizes in 1..=max_size.
        fn rec(
            max_size: Time,
            budget: usize,
            cur: &mut Vec<Time>,
            out: &mut Vec<Vec<Time>>,
            le: &[Time],
        ) {
            if !cur.is_empty() {
                if !le.is_empty() && cur.as_slice() > le {
                    return;
                }
                out.push(cur.clone());
            }
            if cur.len() == budget {
                return;
            }
            let hi = cur.last().copied().unwrap_or(max_size);
            for s in (1..=hi).rev() {
                cur.push(s);
                rec(max_size, budget, cur, out, le);
                cur.pop();
            }
        }
        let mut out = Vec::new();
        let mut cur: Vec<Time> = Vec::new();
        rec(self.max_size, budget, &mut cur, &mut out, le);
        out
    }
}

impl Iterator for SmallInstances {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        while let Some(classes) = self.stack.pop() {
            let used: usize = classes.iter().map(Vec::len).sum();
            // Children: extend with one more class (canonical: ≤ previous).
            if classes.len() < self.max_classes && used < self.max_jobs {
                let le = classes.last().cloned().unwrap_or_default();
                for cand in self.class_candidates(self.max_jobs - used, &le) {
                    let mut next = classes.clone();
                    next.push(cand);
                    self.stack.push(next);
                }
            }
            if !classes.is_empty() {
                return Some(
                    Instance::from_classes(self.machines, &classes)
                        .expect("valid enumerated instance"),
                );
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrs_core::lower_bound;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(7, 4, 50, 10, 1, 20);
        let b = uniform(7, 4, 50, 10, 1, 20);
        let c = uniform(8, 4, 50, 10, 1, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_jobs(), 50);
        assert_eq!(a.machines(), 4);
        assert!(a
            .jobs()
            .iter()
            .all(|j| (1..=20).contains(&j.size) && j.class < 10));
    }

    #[test]
    fn zipf_front_classes_are_heavier() {
        let inst = zipf_classes(3, 4, 2000, 20, 1, 5);
        let head: usize = (0..2).map(|c| inst.class_jobs(c).len()).sum();
        let tail: usize = (18..20).map(|c| inst.class_jobs(c).len()).sum();
        assert!(head > 3 * tail, "head {head} tail {tail}");
    }

    #[test]
    fn satellite_shape() {
        let inst = satellite(1, 3, 8, 12);
        assert_eq!(inst.num_classes(), 8);
        assert_eq!(inst.num_jobs(), 96);
        assert!(inst.jobs().iter().all(|j| (5..=140).contains(&j.size)));
    }

    #[test]
    fn photolithography_shape() {
        let inst = photolithography(2, 5, 10, 6);
        assert_eq!(inst.num_classes(), 10);
        assert_eq!(inst.num_jobs(), 60);
        assert!(inst.jobs().iter().all(|j| (3..=45).contains(&j.size)));
    }

    #[test]
    fn adversarial_has_m_plus_one_unit_classes() {
        let inst = adversarial_merged_lpt(4, 30);
        assert_eq!(inst.num_classes(), 5);
        assert_eq!(inst.num_jobs(), 150);
        assert!(inst.jobs().iter().all(|j| j.size == 1));
        // Lower bound is the area bound ⌈150/4⌉ = 38.
        assert_eq!(lower_bound(&inst), 38);
    }

    #[test]
    fn boundary_classes_capped_by_t0() {
        let inst = boundary_stress(9, 3, 12, 60);
        for c in 0..inst.num_classes() {
            assert!(inst.class_load(c) <= 60);
        }
    }

    #[test]
    fn huge_heavy_has_huge_leaders() {
        let inst = huge_heavy(4, 6, 5, 3, 40);
        let mut huge_classes = 0;
        for c in 0..inst.num_classes() {
            if inst.class_max_job(c) * 4 > 3 * 40 {
                huge_classes += 1;
            }
        }
        assert_eq!(huge_classes, 5);
    }

    #[test]
    fn small_instances_enumerates_canonical_forms() {
        let all: Vec<Instance> = SmallInstances::new(2, 3, 2, 2).collect();
        // No duplicates.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Single class [1] must be present; class sizes non-increasing.
        assert!(all.iter().any(|i| i.num_jobs() == 1 && i.size(0) == 1));
        assert!(!all.is_empty());
        for inst in &all {
            assert!(inst.num_jobs() <= 3);
            for c in 0..inst.num_classes() {
                let sizes: Vec<_> = inst.class_jobs(c).iter().map(|&j| inst.size(j)).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }

    #[test]
    fn rescale_multiplies_sizes_and_bound() {
        let inst = uniform(3, 2, 10, 4, 1, 9);
        let scaled = rescale(&inst, 7);
        assert_eq!(scaled.num_jobs(), inst.num_jobs());
        for j in 0..inst.num_jobs() {
            assert_eq!(scaled.size(j), 7 * inst.size(j));
            assert_eq!(scaled.class_of(j), inst.class_of(j));
        }
        // The combined bound scales exactly (all three terms are homogeneous
        // once the area term has no rounding; with rounding it can only be
        // tighter).
        assert!(lower_bound(&scaled) <= 7 * lower_bound(&inst));
        assert!(lower_bound(&scaled) >= 7 * lower_bound(&inst) - 7);
    }

    #[test]
    fn with_machines_changes_only_m() {
        let inst = uniform(3, 2, 10, 4, 1, 9);
        let wider = with_machines(&inst, 6);
        assert_eq!(wider.machines(), 6);
        assert_eq!(wider.jobs(), inst.jobs());
    }

    #[test]
    fn concat_renumbers_classes() {
        let a = Instance::from_classes(2, &[vec![3], vec![4]]).unwrap();
        let b = Instance::from_classes(2, &[vec![5, 5]]).unwrap();
        let c = concat(&a, &b);
        assert_eq!(c.num_classes(), 3);
        assert_eq!(c.num_jobs(), 4);
        assert_eq!(c.class_of(2), 2);
        assert_eq!(c.class_load(2), 10);
    }

    #[test]
    fn small_instances_count_is_stable() {
        // Regression pin: enumeration size for a fixed parameter box.
        let n = SmallInstances::new(2, 3, 2, 2).count();
        assert!(n > 10, "canonical enumeration unexpectedly small: {n}");
    }

    #[test]
    fn traffic_buckets_share_a_canonical_form_but_not_raw_form() {
        let forms: Vec<_> = (0..20u64)
            .map(|seed| traffic(seed, 4, 10).canonical_form().fingerprint())
            .collect();
        // Seeds 0..10 share one canonical form, 10..20 another.
        assert!(forms[..10].iter().all(|&f| f == forms[0]));
        assert!(forms[10..].iter().all(|&f| f == forms[10]));
        assert_ne!(forms[0], forms[10]);
        // Raw instances inside a bucket differ (relabelled per seed).
        assert_ne!(traffic(0, 4, 10), traffic(1, 4, 10));
        // Deterministic per seed.
        assert_eq!(traffic(3, 4, 10), traffic(3, 4, 10));
    }
}
