//! Baseline algorithms the paper compares against (§1, state of the art).
//!
//! * [`merged_lpt`] — Strusevich-style class merging: each class becomes one
//!   job (avoiding resource conflicts entirely), then LPT on `m` machines.
//! * [`hebrard_greedy`] — a reconstruction of the greedy insertion of Hebrard
//!   et al.: jobs are chosen by size plus the remaining load of their class
//!   and inserted at the earliest feasible time across machines.
//! * [`list_scheduler`] — resource-aware LPT list scheduling: whenever a
//!   machine is free, run the largest available job whose resource is idle.
//!
//! Both prior-work algorithms achieve a `2m/(m+1)`-flavoured worst case; the
//! E2 experiment reproduces the paper's remark that `Algorithm_5/3` and
//! `Algorithm_3/2` beat them from `m = 6` resp. `m = 4` machines on.

use msrs_core::{
    bounds::lower_bound, Assignment, ClassId, Instance, JobId, MachineId, Schedule, Time,
};

use crate::common::{trivial, ApproxResult};

/// Class-merging + LPT (Strusevich-style): schedule each class contiguously
/// on a single machine, assigning classes in non-increasing total load to the
/// least-loaded machine.
pub fn merged_lpt(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let mut classes: Vec<(Time, usize)> = inst
        .nonempty_classes()
        .map(|c| (inst.class_load(c), c))
        .collect();
    classes.sort_unstable_by(|a, b| b.cmp(a));

    let m = inst.machines();
    let mut loads: Vec<Time> = vec![0; m];
    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    for (_, c) in classes {
        let machine = (0..m).min_by_key(|&q| loads[q]).expect("m ≥ 1");
        let mut start = loads[machine];
        for &j in inst.class_jobs(c) {
            assignments[j] = Assignment { machine, start };
            start += inst.size(j);
        }
        loads[machine] = start;
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// Busy intervals per machine/class used by the insertion baselines.
#[derive(Debug, Default, Clone)]
struct Busy {
    /// Sorted, disjoint `[start, end)` intervals; no two touch.
    iv: Vec<(Time, Time)>,
}

impl Busy {
    /// Marks `[s, e)` busy. Callers only insert slots that avoid every
    /// stored interval; a slot touching a neighbour is merged into it.
    /// A fit query depends only on the union of busy time (see
    /// [`earliest_fit_merged`]), so merging changes no answer — it keeps a
    /// machine packed back to back down to one interval.
    fn insert(&mut self, s: Time, e: Time) {
        if s == e {
            return;
        }
        let pos = self.iv.partition_point(|&(a, _)| a < s);
        let joins_prev = pos > 0 && self.iv[pos - 1].1 == s;
        let joins_next = pos < self.iv.len() && self.iv[pos].0 == e;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.iv[pos - 1].1 = self.iv[pos].1;
                self.iv.remove(pos);
            }
            (true, false) => self.iv[pos - 1].1 = e,
            (false, true) => self.iv[pos].0 = s,
            (false, false) => self.iv.insert(pos, (s, e)),
        }
    }

    /// Earliest `t ≥ from` such that `[t, t+p)` avoids all intervals.
    #[cfg(test)]
    fn earliest_fit(&self, from: Time, p: Time) -> Time {
        let mut t = from;
        for &(s, e) in &self.iv {
            if t + p <= s {
                break;
            }
            if e > t {
                t = e;
            }
        }
        t
    }
}

/// Earliest `t ≥ from` such that `[t, t+p)` avoids every interval of both
/// lists, or `None` as soon as that start is known to be `≥ bound`.
/// Equivalent to concatenating, sorting, and scanning (the scan only
/// needs intervals in ascending order, and ties commute through the
/// `max`-accumulation) — but walks the two already-sorted lists with two
/// cursors instead: no allocation, no sort. This sits in the innermost
/// (job × machine) loop of [`hebrard_greedy`].
///
/// The scan keeps `t` at the earliest start not yet ruled out, so for
/// `p > 0` the answer is the earliest gap of length `p` in the *union* of
/// busy time, however that union is split into intervals; for `p = 0` it
/// is `from`. And `t` never decreases, so once it reaches `bound` the
/// answer cannot fall below it. A positive-length job cannot start at
/// `Time::MAX`, so `bound = Time::MAX` never gives up.
fn earliest_fit_merged(a: &Busy, b: &Busy, from: Time, p: Time, bound: Time) -> Option<Time> {
    let (mut i, mut j) = (0, 0);
    let mut t = from;
    loop {
        if t >= bound {
            return None;
        }
        let next = match (a.iv.get(i), b.iv.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return Some(t),
        };
        let (s, e) = next;
        if t + p <= s {
            return Some(t);
        }
        if e > t {
            t = e;
        }
    }
}

/// Hebrard-style greedy insertion: repeatedly pick the unscheduled job with
/// the largest `p_j + p(remaining jobs of its class)` and insert it at the
/// earliest feasible start over all machines (ties: lower machine index).
///
/// Each machine's fit is bounded by the best start found so far: only a
/// strictly earlier start displaces the lower-indexed machine holding it,
/// so a scan that reaches that start is abandoned without changing the
/// chosen machine.
pub fn hebrard_greedy(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let mut machine_busy = vec![Busy::default(); m];
    let mut class_busy = vec![Busy::default(); inst.num_classes()];
    let load: Vec<Time> = (0..inst.num_classes())
        .map(|c| inst.class_load(c))
        .collect();

    // Priority order: p_j + remaining class load, recomputed lazily — since
    // p_j + remaining only decreases as the class drains, a one-shot sort by
    // (class load + size, size) matches the intent closely and is O(n log n).
    let priority: Vec<(Time, Time)> = inst
        .jobs()
        .iter()
        .map(|job| (load[job.class] + job.size, job.size))
        .collect();
    let mut order: Vec<JobId> = (0..inst.num_jobs()).collect();
    order.sort_unstable_by_key(|&j| std::cmp::Reverse(priority[j]));

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    for j in order {
        let c = inst.class_of(j);
        let p = inst.size(j);
        let mut best = (Time::MAX, 0);
        for (q, busy) in machine_busy.iter().enumerate() {
            if let Some(s) = earliest_fit_merged(busy, &class_busy[c], 0, p, best.0) {
                best = (s, q);
            }
        }
        let (s, q) = best;
        assignments[j] = Assignment {
            machine: q,
            start: s,
        };
        machine_busy[q].insert(s, s + p);
        class_busy[c].insert(s, s + p);
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// Resource-aware LPT list scheduling: event-driven; whenever a machine
/// becomes idle, start the largest unscheduled job whose class is not
/// currently running; if none is available the machine idles until the next
/// class completion.
///
/// Three heaps replace the per-step scans over machines and classes, with
/// keys that reproduce the scans' tie rules exactly:
///
/// * machines keyed `(free, index)`: the first machine to free up, lowest
///   index on ties (the first minimum, as `min_by_key` picks);
/// * ready classes keyed `(largest remaining size, remaining load, class)`:
///   on ties the highest class id (the last maximum, as `max_by_key` picks);
/// * blocked classes keyed `(free time, class)`.
///
/// `now` is the least machine free time and never decreases, so a class
/// whose free time has passed stays ready until it is picked, and a class
/// leaves the blocked heap at most once per job: `O(n log(m + |C|))`
/// in all.
pub fn list_scheduler(inst: &Instance) -> ApproxResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    // Per class: its flat slot range holds its jobs sorted ascending by
    // size, drained from `top[c]` downwards (largest first).
    let mut jobs = inst.flat_job_ids().to_vec();
    let mut top = Vec::with_capacity(inst.num_classes());
    for c in 0..inst.num_classes() {
        let range = inst.class_range(c);
        jobs[range.clone()].sort_unstable_by_key(|&j| inst.size(j));
        top.push(range.end);
    }
    let mut remaining: Vec<Time> = (0..inst.num_classes())
        .map(|c| inst.class_load(c))
        .collect();

    let mut machines: BinaryHeap<Reverse<(Time, MachineId)>> =
        (0..inst.machines()).map(|q| Reverse((0, q))).collect();
    let mut ready: BinaryHeap<(Time, Time, ClassId)> = inst
        .nonempty_classes()
        .map(|c| (inst.size(jobs[top[c] - 1]), remaining[c], c))
        .collect();
    let mut blocked: BinaryHeap<Reverse<(Time, ClassId)>> = BinaryHeap::new();

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    let mut done = 0usize;
    while done < inst.num_jobs() {
        // Pick the machine that frees up first.
        let Reverse((now, q)) = machines.pop().expect("m ≥ 1");
        // Release every class whose last job has finished by `now`.
        while let Some(&Reverse((free, c))) = blocked.peek() {
            if free > now {
                break;
            }
            blocked.pop();
            ready.push((inst.size(jobs[top[c] - 1]), remaining[c], c));
        }
        // Largest available job; ties broken towards the class with the most
        // remaining load (this is what interleaves the conflict classes).
        match ready.pop() {
            Some((p, _, c)) => {
                top[c] -= 1;
                assignments[jobs[top[c]]] = Assignment {
                    machine: q,
                    start: now,
                };
                done += 1;
                remaining[c] -= p;
                machines.push(Reverse((now + p, q)));
                if top[c] > inst.class_range(c).start {
                    blocked.push(Reverse((now + p, c)));
                }
            }
            None => {
                // Idle until the earliest class completion after `now`.
                let &Reverse((next, _)) = blocked.peek().expect("some blocked class must free up");
                machines.push(Reverse((next, q)));
            }
        }
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// The *naive* list scheduler: identical to [`list_scheduler`] but breaking
/// ties by job id instead of remaining class load. Kept as an ablation (E9):
/// on the adversarial `m+1`-unit-class family the naive rule starves the
/// last class and degrades from ~1.0 to the full `2m/(m+1)` ratio — the
/// interleaving tie-break is load-bearing.
pub fn list_scheduler_naive(inst: &Instance) -> ApproxResult {
    if let Some(r) = trivial(inst) {
        return r;
    }
    let t = lower_bound(inst);
    let m = inst.machines();
    let mut machine_free: Vec<Time> = vec![0; m];
    let mut class_free: Vec<Time> = vec![0; inst.num_classes()];
    let mut queue: Vec<JobId> = (0..inst.num_jobs()).collect();
    queue.sort_unstable_by_key(|&j| std::cmp::Reverse(inst.size(j)));

    let mut assignments = vec![
        Assignment {
            machine: 0,
            start: 0
        };
        inst.num_jobs()
    ];
    let mut scheduled = vec![false; inst.num_jobs()];
    let mut done = 0usize;
    while done < inst.num_jobs() {
        let q = (0..m).min_by_key(|&q| machine_free[q]).expect("m ≥ 1");
        let now = machine_free[q];
        let pick = queue
            .iter()
            .copied()
            .find(|&j| !scheduled[j] && class_free[inst.class_of(j)] <= now);
        match pick {
            Some(j) => {
                let c = inst.class_of(j);
                let p = inst.size(j);
                assignments[j] = Assignment {
                    machine: q,
                    start: now,
                };
                scheduled[j] = true;
                done += 1;
                machine_free[q] = now + p;
                class_free[c] = class_free[c].max(now + p);
            }
            None => {
                let next = (0..inst.num_jobs())
                    .filter(|&j| !scheduled[j])
                    .map(|j| class_free[inst.class_of(j)])
                    .filter(|&f| f > now)
                    .min()
                    .expect("some blocked class must free up");
                machine_free[q] = next;
            }
        }
    }
    let schedule = Schedule::new(assignments);
    let horizon = schedule.makespan(inst);
    ApproxResult {
        schedule,
        lower_bound: t,
        horizon,
    }
}

/// The straightforward kernels the fast ones replaced, kept as the oracle
/// of the differential tests: the fast kernels must return exactly these
/// schedules.
#[cfg(test)]
mod reference {
    use super::*;

    /// Busy list without merging: one interval per inserted job.
    fn insert(iv: &mut Vec<(Time, Time)>, s: Time, e: Time) {
        if s == e {
            return;
        }
        let pos = iv.partition_point(|&(a, _)| a < s);
        iv.insert(pos, (s, e));
    }

    /// The unbounded two-cursor fit over unmerged lists.
    fn earliest_fit(a: &[(Time, Time)], b: &[(Time, Time)], p: Time) -> Time {
        let (mut i, mut j) = (0, 0);
        let mut t = 0;
        loop {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => {
                    if x <= y {
                        i += 1;
                        x
                    } else {
                        j += 1;
                        y
                    }
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => return t,
            };
            let (s, e) = next;
            if t + p <= s {
                return t;
            }
            if e > t {
                t = e;
            }
        }
    }

    /// Greedy insertion, every machine scanned to the end.
    pub(super) fn hebrard_greedy(inst: &Instance) -> ApproxResult {
        if let Some(r) = trivial(inst) {
            return r;
        }
        let t = lower_bound(inst);
        let m = inst.machines();
        let mut machine_busy = vec![Vec::new(); m];
        let mut class_busy = vec![Vec::new(); inst.num_classes()];
        let mut order: Vec<JobId> = (0..inst.num_jobs()).collect();
        order.sort_unstable_by_key(|&j| {
            let c = inst.class_of(j);
            std::cmp::Reverse((inst.class_load(c) + inst.size(j), inst.size(j)))
        });
        let mut assignments = vec![
            Assignment {
                machine: 0,
                start: 0
            };
            inst.num_jobs()
        ];
        for j in order {
            let c = inst.class_of(j);
            let p = inst.size(j);
            let mut best: Option<(Time, usize)> = None;
            for (q, busy) in machine_busy.iter().enumerate() {
                let s = earliest_fit(busy, &class_busy[c], p);
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, q));
                }
            }
            let (s, q) = best.expect("m ≥ 1");
            assignments[j] = Assignment {
                machine: q,
                start: s,
            };
            insert(&mut machine_busy[q], s, s + p);
            insert(&mut class_busy[c], s, s + p);
        }
        let schedule = Schedule::new(assignments);
        let horizon = schedule.makespan(inst);
        ApproxResult {
            schedule,
            lower_bound: t,
            horizon,
        }
    }

    /// List scheduling by linear scans over machines and classes.
    pub(super) fn list_scheduler(inst: &Instance) -> ApproxResult {
        if let Some(r) = trivial(inst) {
            return r;
        }
        let t = lower_bound(inst);
        let m = inst.machines();
        let mut machine_free: Vec<Time> = vec![0; m];
        let mut class_free: Vec<Time> = vec![0; inst.num_classes()];
        let mut per_class: Vec<Vec<JobId>> = (0..inst.num_classes())
            .map(|c| {
                let mut v = inst.class_jobs(c).to_vec();
                v.sort_unstable_by_key(|&j| inst.size(j));
                v
            })
            .collect();
        let mut remaining: Vec<Time> = (0..inst.num_classes())
            .map(|c| inst.class_load(c))
            .collect();
        let mut assignments = vec![
            Assignment {
                machine: 0,
                start: 0
            };
            inst.num_jobs()
        ];
        let mut done = 0usize;
        while done < inst.num_jobs() {
            let q = (0..m).min_by_key(|&q| machine_free[q]).expect("m ≥ 1");
            let now = machine_free[q];
            let pick = (0..inst.num_classes())
                .filter(|&c| class_free[c] <= now && !per_class[c].is_empty())
                .max_by_key(|&c| {
                    (
                        inst.size(*per_class[c].last().expect("non-empty")),
                        remaining[c],
                    )
                });
            match pick {
                Some(c) => {
                    let j = per_class[c].pop().expect("non-empty checked");
                    let p = inst.size(j);
                    assignments[j] = Assignment {
                        machine: q,
                        start: now,
                    };
                    done += 1;
                    remaining[c] -= p;
                    machine_free[q] = now + p;
                    class_free[c] = class_free[c].max(now + p);
                }
                None => {
                    let next = (0..inst.num_classes())
                        .filter(|&c| !per_class[c].is_empty())
                        .map(|c| class_free[c])
                        .filter(|&f| f > now)
                        .min()
                        .expect("some blocked class must free up");
                    machine_free[q] = next;
                }
            }
        }
        let schedule = Schedule::new(assignments);
        let horizon = schedule.makespan(inst);
        ApproxResult {
            schedule,
            lower_bound: t,
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrs_core::validate;
    use proptest::prelude::*;

    /// Asserts the fast kernels return exactly what the reference kernels
    /// return on `inst`.
    fn assert_matches_reference(inst: &Instance, what: &str) {
        for (name, fast, slow) in [
            (
                "hebrard_greedy",
                hebrard_greedy(inst),
                reference::hebrard_greedy(inst),
            ),
            (
                "list_scheduler",
                list_scheduler(inst),
                reference::list_scheduler(inst),
            ),
        ] {
            assert_eq!(fast.schedule, slow.schedule, "{name} on {what}");
            assert_eq!(
                (fast.lower_bound, fast.horizon),
                (slow.lower_bound, slow.horizon),
                "{name} on {what}"
            );
        }
    }

    /// Every `msrs gen` family, drawn with the shapes the CLI uses.
    fn gen_families(seed: u64, m: usize) -> [(&'static str, Instance); 8] {
        [
            ("uniform", msrs_gen::uniform(seed, m, 40 * m, 6 * m, 1, 100)),
            (
                "zipf",
                msrs_gen::zipf_classes(seed, m, 40 * m, 6 * m, 1, 100),
            ),
            ("satellite", msrs_gen::satellite(seed, m, 3 * m, 10)),
            ("photolitho", msrs_gen::photolithography(seed, m, 3 * m, 8)),
            (
                "adversarial",
                msrs_gen::adversarial_merged_lpt(m, 40 + (seed % 41) as usize),
            ),
            ("boundary", msrs_gen::boundary_stress(seed, m, 3 * m, 120)),
            ("huge", msrs_gen::huge_heavy(seed, m, m, 2 * m, 96)),
            ("traffic", msrs_gen::traffic(seed, m, 10)),
        ]
    }

    #[test]
    fn fast_kernels_match_the_reference_on_every_family() {
        for m in 2..=6 {
            for seed in 0..6 {
                for (family, inst) in gen_families(seed, m) {
                    assert_matches_reference(&inst, &format!("{family} seed {seed} m {m}"));
                }
            }
        }
    }

    #[test]
    fn fast_kernels_match_the_reference_with_zero_sizes_and_ties() {
        // Sizes 0..=3 over few classes: zero-size jobs everywhere and most
        // priorities, fits and free times tied.
        for seed in 0..150 {
            let m = 2 + (seed % 5) as usize;
            let n = 4 + (seed * 13 % 60) as usize;
            let k = m + 1 + (seed % 7) as usize;
            let hi = 1 + seed % 3;
            let uniform = msrs_gen::uniform(seed, m, n, k, 0, hi);
            assert_matches_reference(&uniform, &format!("uniform seed {seed}"));
            let zipf = msrs_gen::zipf_classes(seed, m, n, k, 0, hi);
            assert_matches_reference(&zipf, &format!("zipf seed {seed}"));
        }
    }

    proptest! {
        /// Arbitrary class structures, empty classes and zero-size jobs
        /// included.
        #[test]
        fn fast_kernels_match_the_reference_on_arbitrary_instances(
            m in 1usize..=6,
            classes in prop::collection::vec(prop::collection::vec(0u64..=5, 0..=7), 1..=12),
        ) {
            let inst = Instance::from_classes(m, &classes).expect("valid instance");
            assert_matches_reference(&inst, &format!("{classes:?} m {m}"));
        }
    }

    fn check_all(inst: &Instance) -> [ApproxResult; 3] {
        let rs = [merged_lpt(inst), hebrard_greedy(inst), list_scheduler(inst)];
        for r in &rs {
            assert_eq!(validate(inst, &r.schedule), Ok(()), "invalid schedule");
        }
        rs
    }

    #[test]
    fn merged_lpt_keeps_classes_contiguous() {
        let inst = Instance::from_classes(2, &[vec![4, 3], vec![5], vec![2, 2]]).unwrap();
        let r = merged_lpt(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        // Each class on a single machine.
        for c in 0..inst.num_classes() {
            let machines: Vec<_> = inst
                .class_jobs(c)
                .iter()
                .map(|&j| r.schedule.assignment(j).machine)
                .collect();
            assert!(machines.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn all_baselines_valid_on_shapes() {
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (2, vec![vec![10], vec![9, 1], vec![8, 2], vec![1, 1, 1]]),
            (
                3,
                vec![vec![7, 7], vec![14], vec![13, 1], vec![6, 6], vec![2; 10]],
            ),
            (
                4,
                vec![vec![3; 9], vec![5, 5, 5], vec![20], vec![11, 9], vec![1]],
            ),
            (2, vec![vec![1], vec![1], vec![1]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            check_all(&inst);
        }
    }

    #[test]
    fn adversarial_family_hits_two_m_over_m_plus_one() {
        // m+1 unit classes of load L on m machines: merged LPT stacks two
        // classes (makespan 2L) while OPT interleaves to (m+1)L/m — the exact
        // 2m/(m+1) gap the paper cites for the prior algorithms (1.6 at m=4).
        let inst = msrs_gen::adversarial_merged_lpt(4, 40);
        let [lpt, _heb, list] = check_all(&inst);
        let lb = lower_bound(&inst) as f64;
        let ratio = lpt.makespan(&inst) as f64 / lb;
        assert!(
            (1.58..=1.62).contains(&ratio),
            "merged LPT ratio {ratio} ≠ 2m/(m+1)"
        );
        assert!(
            list.makespan(&inst) as f64 / lb <= 1.2,
            "list scheduling interleaves unit jobs"
        );
    }

    #[test]
    fn list_scheduler_idles_for_class_conflicts() {
        // Two machines, one class of two long jobs: they must serialize.
        let inst = Instance::from_classes(2, &[vec![5, 5], vec![1]]).unwrap();
        let r = list_scheduler(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        assert_eq!(r.makespan(&inst), 10);
    }

    #[test]
    fn hebrard_greedy_fills_gaps() {
        let inst = Instance::from_classes(2, &[vec![6, 6], vec![3, 3], vec![2]]).unwrap();
        let r = hebrard_greedy(&inst);
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        // Lower bound: ⌈20/2⌉ = 10; class 0 serializes to 12.
        assert!(r.makespan(&inst) <= 15);
    }

    #[test]
    fn naive_list_scheduler_starves_on_adversarial_family() {
        // The ablation story: job-id tie-breaking leaves the last class to
        // run serially, realizing 2m/(m+1), while the remaining-load rule
        // interleaves to ~1.0.
        let inst = msrs_gen::adversarial_merged_lpt(4, 40);
        let naive = list_scheduler_naive(&inst);
        let smart = list_scheduler(&inst);
        assert_eq!(validate(&inst, &naive.schedule), Ok(()));
        let lb = lower_bound(&inst) as f64;
        let naive_ratio = naive.makespan(&inst) as f64 / lb;
        let smart_ratio = smart.makespan(&inst) as f64 / lb;
        assert!(naive_ratio >= 1.55, "naive should starve: {naive_ratio}");
        assert!(smart_ratio <= 1.1, "smart should interleave: {smart_ratio}");
    }

    #[test]
    fn busy_earliest_fit() {
        let mut b = Busy::default();
        b.insert(2, 5);
        b.insert(8, 10);
        assert_eq!(b.earliest_fit(0, 2), 0);
        assert_eq!(b.earliest_fit(0, 3), 5);
        assert_eq!(b.earliest_fit(3, 2), 5);
        assert_eq!(b.earliest_fit(0, 4), 10);
        assert_eq!(b.earliest_fit(11, 7), 11);
        // Touching slots merge into their neighbours.
        b.insert(10, 12);
        assert_eq!(b.iv, vec![(2, 5), (8, 12)]);
        b.insert(1, 2);
        b.insert(5, 8);
        assert_eq!(b.iv, vec![(1, 12)]);
        b.insert(14, 15);
        assert_eq!(b.iv, vec![(1, 12), (14, 15)]);
    }

    #[test]
    fn merged_fit_matches_the_sort_based_reference() {
        // Pseudo-random interval pairs: the two-cursor merge walk must
        // agree with "concatenate, sort, scan" everywhere (including
        // touching/duplicate intervals and equal starts).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u64| -> u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..500 {
            let mut a = Busy::default();
            let mut b = Busy::default();
            let mut cur = 0;
            for _ in 0..next(6) {
                let s = cur + next(4);
                let e = s + 1 + next(5);
                a.insert(s, e);
                cur = e + next(3);
            }
            cur = 0;
            for _ in 0..next(6) {
                let s = cur + next(4);
                let e = s + 1 + next(5);
                b.insert(s, e);
                cur = e + next(3);
            }
            let mut iv = a.iv.clone();
            iv.extend_from_slice(&b.iv);
            iv.sort_unstable();
            let reference = Busy { iv };
            for p in 1..6 {
                for from in 0..4 {
                    let want = reference.earliest_fit(from, p);
                    assert_eq!(
                        earliest_fit_merged(&a, &b, from, p, Time::MAX),
                        Some(want),
                        "a={:?} b={:?} from={from} p={p}",
                        a.iv,
                        b.iv
                    );
                    // A bound only ever withholds answers at or past it.
                    for bound in 0..want + 2 {
                        assert_eq!(
                            earliest_fit_merged(&a, &b, from, p, bound),
                            (want < bound).then_some(want),
                            "a={:?} b={:?} from={from} p={p} bound={bound}",
                            a.iv,
                            b.iv
                        );
                    }
                }
            }
        }
    }
}
