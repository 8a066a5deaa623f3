//! Exact validation of schedules against the MSRS feasibility definition.
//!
//! A schedule `(σ, t)` is *valid* iff
//!
//! 1. no two jobs on the same machine overlap in time, and
//! 2. no two jobs of the same class overlap in time (on any machines).
//!
//! Two jobs `[s₁, s₁+p₁)` and `[s₂, s₂+p₂)` overlap iff `s₁ < s₂+p₂` and
//! `s₂ < s₁+p₁`; zero-length jobs occupy an empty interval and therefore never
//! overlap anything, matching the paper's `p_j ∈ ℕ≥0` convention.

use std::fmt;

use crate::instance::{ClassId, Instance, JobId, MachineId, Time};
use crate::schedule::Schedule;

/// The ways a schedule can be infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The schedule does not assign exactly one slot per job.
    WrongJobCount {
        /// Jobs in the instance.
        expected: usize,
        /// Assignments in the schedule.
        actual: usize,
    },
    /// A job was placed on a machine id `>= m`.
    MachineOutOfRange {
        /// The offending job.
        job: JobId,
        /// The machine it was placed on.
        machine: MachineId,
        /// Number of machines in the instance.
        machines: usize,
    },
    /// Two jobs overlap on the same machine.
    MachineOverlap {
        /// Machine on which the overlap occurs.
        machine: MachineId,
        /// First involved job.
        job_a: JobId,
        /// Second involved job.
        job_b: JobId,
    },
    /// Two jobs of the same class run concurrently.
    ClassConflict {
        /// The class (shared resource) involved.
        class: ClassId,
        /// First involved job.
        job_a: JobId,
        /// Second involved job.
        job_b: JobId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongJobCount { expected, actual } => {
                write!(f, "schedule has {actual} assignments for {expected} jobs")
            }
            ValidationError::MachineOutOfRange {
                job,
                machine,
                machines,
            } => {
                write!(
                    f,
                    "job {job} assigned to machine {machine} (only {machines} machines)"
                )
            }
            ValidationError::MachineOverlap {
                machine,
                job_a,
                job_b,
            } => {
                write!(f, "jobs {job_a} and {job_b} overlap on machine {machine}")
            }
            ValidationError::ClassConflict {
                class,
                job_a,
                job_b,
            } => {
                write!(
                    f,
                    "jobs {job_a} and {job_b} of class {class} run concurrently"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that `schedule` is a valid MSRS schedule for `inst`.
///
/// Runs in `O(n log n)`: each machine's and each class's positive-size
/// jobs are sorted by `(start, job)` and swept for overlapping neighbours.
/// The first error is the first overlap in machine order, then in class
/// order, each group read in `(start, job)` order.
pub fn validate(inst: &Instance, schedule: &Schedule) -> Result<(), ValidationError> {
    if schedule.len() != inst.num_jobs() {
        return Err(ValidationError::WrongJobCount {
            expected: inst.num_jobs(),
            actual: schedule.len(),
        });
    }
    let assignments = schedule.assignments();
    for (j, a) in assignments.iter().enumerate() {
        if a.machine >= inst.machines() {
            return Err(ValidationError::MachineOutOfRange {
                job: j,
                machine: a.machine,
                machines: inst.machines(),
            });
        }
    }

    // Machine-exclusivity: counting-sort the positive-size jobs into
    // per-machine buckets, in machine order, then sort each bucket's
    // `(start, job)` pairs. Job ids are distinct, so every pair order is
    // total and the buckets read in turn are the one sort by
    // `(machine, start, job)`: the first overlap found is the same.
    let positive = || (0..assignments.len()).filter(|&j| inst.size(j) > 0);
    let (count, used) = positive().fold((0, 0), |(count, used), j| {
        (count + 1, usize::max(used, assignments[j].machine + 1))
    });
    // A schedule whose jobs sit on few machines with huge ids buckets by
    // rank among the used ids, so buckets never outnumber jobs.
    let ranks: Option<Vec<MachineId>> = (used > count).then(|| {
        let mut ids: Vec<MachineId> = positive().map(|j| assignments[j].machine).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    });
    let bucket_of = |machine: MachineId| match &ranks {
        Some(ids) => ids
            .binary_search(&machine)
            .expect("every used id is ranked"),
        None => machine,
    };
    let buckets = ranks.as_ref().map_or(used, Vec::len);
    // `ends[b]` counts bucket `b`'s jobs, then holds its start, then —
    // advanced past each job placed — its end.
    let mut ends = vec![0usize; buckets];
    for j in positive() {
        ends[bucket_of(assignments[j].machine)] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        (*end, start) = (start, start + *end);
    }
    let mut pairs: Vec<(Time, JobId)> = vec![(0, 0); count];
    for j in positive() {
        let end = &mut ends[bucket_of(assignments[j].machine)];
        pairs[*end] = (assignments[j].start, j);
        *end += 1;
    }
    let mut start = 0;
    for &end in &ends {
        if let Some((a, b)) = first_overlap(inst, &mut pairs[start..end]) {
            return Err(ValidationError::MachineOverlap {
                machine: assignments[a].machine,
                job_a: a,
                job_b: b,
            });
        }
        start = end;
    }

    // Resource-exclusivity: the instance's flat storage already groups jobs
    // by class, so the same buffer takes one class's pairs at a time.
    for class in 0..inst.num_classes() {
        pairs.clear();
        pairs.extend(
            inst.class_jobs(class)
                .iter()
                .zip(inst.class_sizes(class))
                .filter(|&(_, &p)| p > 0)
                .map(|(&j, _)| (assignments[j].start, j)),
        );
        if let Some((a, b)) = first_overlap(inst, &mut pairs) {
            return Err(ValidationError::ClassConflict {
                class,
                job_a: a,
                job_b: b,
            });
        }
    }
    Ok(())
}

/// Sorts one group's `(start, job)` pairs and returns the first
/// neighbouring jobs that overlap in time.
fn first_overlap(inst: &Instance, group: &mut [(Time, JobId)]) -> Option<(JobId, JobId)> {
    group.sort_unstable();
    group
        .windows(2)
        .find(|w| w[0].0 + inst.size(w[0].1) > w[1].0)
        .map(|w| (w[0].1, w[1].1))
}

/// The single-sort validator the bucketed one replaced, kept as the oracle
/// of the differential tests: [`validate`] must return exactly its result,
/// down to which job pair an error names.
#[cfg(test)]
fn validate_reference(inst: &Instance, schedule: &Schedule) -> Result<(), ValidationError> {
    if schedule.len() != inst.num_jobs() {
        return Err(ValidationError::WrongJobCount {
            expected: inst.num_jobs(),
            actual: schedule.len(),
        });
    }
    for (j, a) in schedule.assignments().iter().enumerate() {
        if a.machine >= inst.machines() {
            return Err(ValidationError::MachineOutOfRange {
                job: j,
                machine: a.machine,
                machines: inst.machines(),
            });
        }
    }
    let mut by_machine: Vec<JobId> = (0..schedule.len()).filter(|&j| inst.size(j) > 0).collect();
    by_machine.sort_unstable_by_key(|&j| {
        (
            schedule.assignment(j).machine,
            schedule.assignment(j).start,
            j,
        )
    });
    for w in by_machine.windows(2) {
        let (a, b) = (w[0], w[1]);
        let machine = schedule.assignment(a).machine;
        if machine != schedule.assignment(b).machine {
            continue;
        }
        if schedule.completion(inst, a) > schedule.assignment(b).start {
            return Err(ValidationError::MachineOverlap {
                machine,
                job_a: a,
                job_b: b,
            });
        }
    }
    let mut jobs: Vec<JobId> = Vec::new();
    for class in 0..inst.num_classes() {
        jobs.clear();
        jobs.extend(
            inst.class_jobs(class)
                .iter()
                .copied()
                .filter(|&j| inst.size(j) > 0),
        );
        jobs.sort_unstable_by_key(|&j| (schedule.assignment(j).start, j));
        for w in jobs.windows(2) {
            let (a, b) = (w[0], w[1]);
            if schedule.completion(inst, a) > schedule.assignment(b).start {
                return Err(ValidationError::ClassConflict {
                    class,
                    job_a: a,
                    job_b: b,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Job};
    use crate::schedule::{Assignment, Schedule};

    /// xorshift64: a seeded stream for the differential corpus.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A random instance: sizes from `0..=hi` (zero-size jobs and ties
    /// throughout), classes drawn uniformly or with a heavy head.
    fn random_instance(rng: &mut Rng, m: usize) -> Instance {
        let n = rng.below(40) as usize;
        let k = 1 + rng.below(10);
        let hi = [1, 3, 20][rng.below(3) as usize];
        let zipf = rng.below(2) == 0;
        let jobs = (0..n)
            .map(|_| {
                let class = if zipf {
                    let head = 1 + rng.below(k);
                    rng.below(head)
                } else {
                    rng.below(k)
                };
                Job::new(rng.below(hi + 1), class as usize)
            })
            .collect();
        Instance::new(m, jobs).unwrap()
    }

    /// A valid schedule: jobs in id order, each on the first machine to
    /// free up, no earlier than its class frees up.
    fn greedy_schedule(inst: &Instance) -> Vec<Assignment> {
        let mut machine_free = vec![0; inst.machines()];
        let mut class_free = vec![0; inst.num_classes()];
        (0..inst.num_jobs())
            .map(|j| {
                let machine = (0..inst.machines())
                    .min_by_key(|&q| machine_free[q])
                    .unwrap();
                let c = inst.class_of(j);
                let start = machine_free[machine].max(class_free[c]);
                machine_free[machine] = start + inst.size(j);
                class_free[c] = start + inst.size(j);
                Assignment { machine, start }
            })
            .collect()
    }

    /// Asserts [`validate`] agrees with the reference; returns the result.
    fn assert_matches_reference(
        inst: &Instance,
        assignments: Vec<Assignment>,
    ) -> Result<(), ValidationError> {
        let s = Schedule::new(assignments);
        let got = validate(inst, &s);
        assert_eq!(got, validate_reference(inst, &s), "{inst:?} {s:?}");
        got
    }

    /// Breaks a valid schedule of a nonempty instance: shifted starts,
    /// moved jobs, collisions with any job or with a job of the same class
    /// on the last machine, and the occasional out-of-range machine or
    /// missing job.
    fn mutate(rng: &mut Rng, inst: &Instance, mut broken: Vec<Assignment>) -> Vec<Assignment> {
        let m = inst.machines();
        for _ in 0..1 + rng.below(4) {
            let n = broken.len() as u64;
            let (i, j) = (rng.below(n) as usize, rng.below(n) as usize);
            let mates = inst.class_jobs(inst.class_of(j));
            let mate = mates[rng.below(mates.len() as u64) as usize];
            match rng.below(9) {
                0..=2 => broken[j].start = broken[j].start.saturating_sub(rng.below(4)),
                3 | 4 => broken[j].machine = rng.below(m as u64) as usize,
                5 => broken[j] = broken[i],
                6 => broken[j].machine = m + rng.below(2) as usize,
                7 if mate < broken.len() => {
                    broken[j] = Assignment {
                        machine: m - 1,
                        start: broken[mate].start,
                    }
                }
                _ => {
                    broken.pop();
                }
            }
            if broken.is_empty() {
                break;
            }
        }
        broken
    }

    /// Tallies outcomes: valid, overlap, conflict, out of range, count.
    fn tally(seen: &mut [usize; 5], result: Result<(), ValidationError>) {
        seen[match result {
            Ok(()) => 0,
            Err(ValidationError::MachineOverlap { .. }) => 1,
            Err(ValidationError::ClassConflict { .. }) => 2,
            Err(ValidationError::MachineOutOfRange { .. }) => 3,
            Err(ValidationError::WrongJobCount { .. }) => 4,
        }] += 1;
    }

    #[test]
    fn bucketed_validate_matches_the_reference() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut seen = [0usize; 5];
        for case in 0..3000 {
            let m = 2 + case % 5;
            let inst = random_instance(&mut rng, m);
            let valid = greedy_schedule(&inst);
            assert_eq!(assert_matches_reference(&inst, valid.clone()), Ok(()));
            if inst.num_jobs() > 0 {
                let broken = mutate(&mut rng, &inst, valid);
                tally(&mut seen, assert_matches_reference(&inst, broken));
            }
        }
        assert!(seen.iter().all(|&n| n >= 50), "outcomes {seen:?}");
    }

    #[test]
    fn bucketed_validate_matches_the_reference_on_gen_families() {
        use msrs_approx::baselines::{hebrard_greedy, list_scheduler, merged_lpt};
        use msrs_approx::{five_thirds, three_halves};
        // The generator and the approximations link their own build of
        // this crate, so instances and schedules cross over by value.
        let mut rng = Rng(0x3c6e_f372_fe94_f82b);
        let mut seen = [0usize; 5];
        for m in 2..=6 {
            for seed in 0..3 {
                // Every `msrs gen` family, drawn with the shapes the CLI uses.
                for family in [
                    msrs_gen::uniform(seed, m, 40 * m, 6 * m, 1, 100),
                    msrs_gen::zipf_classes(seed, m, 40 * m, 6 * m, 1, 100),
                    msrs_gen::satellite(seed, m, 3 * m, 10),
                    msrs_gen::photolithography(seed, m, 3 * m, 8),
                    msrs_gen::adversarial_merged_lpt(m, 40 + (seed % 41) as usize),
                    msrs_gen::boundary_stress(seed, m, 3 * m, 120),
                    msrs_gen::huge_heavy(seed, m, m, 2 * m, 96),
                    msrs_gen::traffic(seed, m, 10),
                ] {
                    // One spare machine, idle in every valid schedule: a
                    // job moved there keeps its machine free but may still
                    // collide with its class.
                    let jobs = family.jobs().iter().map(|j| Job::new(j.size, j.class));
                    let inst = Instance::new(m + 1, jobs.collect()).unwrap();
                    for algorithm in [
                        five_thirds,
                        three_halves,
                        hebrard_greedy,
                        list_scheduler,
                        merged_lpt,
                    ] {
                        let valid: Vec<Assignment> = algorithm(&family)
                            .schedule
                            .assignments()
                            .iter()
                            .map(|a| Assignment {
                                machine: a.machine,
                                start: a.start,
                            })
                            .collect();
                        assert_eq!(assert_matches_reference(&inst, valid.clone()), Ok(()));
                        let broken = mutate(&mut rng, &inst, valid);
                        tally(&mut seen, assert_matches_reference(&inst, broken));
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n >= 10), "outcomes {seen:?}");
    }

    #[test]
    fn sparse_machine_ids_match_the_reference() {
        // Few jobs spread over machine ids far beyond the job count: the
        // buckets come from ranks of the used ids.
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let ids = [0, 7, 1 << 20, (1 << 40) - 1];
        for _ in 0..500 {
            let four = random_instance(&mut rng, 4);
            let inst = Instance::new(1 << 40, four.jobs().to_vec()).unwrap();
            // The four-machine greedy schedule moved onto the sparse ids.
            let valid = greedy_schedule(&four)
                .into_iter()
                .map(|a| Assignment {
                    machine: ids[a.machine],
                    start: a.start,
                })
                .collect();
            assert_eq!(assert_matches_reference(&inst, valid), Ok(()));
            let random = (0..inst.num_jobs())
                .map(|_| Assignment {
                    machine: ids[rng.below(4) as usize],
                    start: rng.below(30),
                })
                .collect();
            let _ = assert_matches_reference(&inst, random);
        }
    }

    fn inst() -> Instance {
        // class 0: jobs 0 (p=3), 1 (p=2); class 1: job 2 (p=4)
        Instance::from_classes(2, &[vec![3, 2], vec![4]]).unwrap()
    }

    fn asg(machine: usize, start: u64) -> Assignment {
        Assignment { machine, start }
    }

    #[test]
    fn accepts_valid_schedule() {
        let s = Schedule::new(vec![asg(0, 0), asg(1, 3), asg(1, 5)]);
        assert_eq!(validate(&inst(), &s), Ok(()));
    }

    #[test]
    fn rejects_machine_overlap() {
        let s = Schedule::new(vec![asg(0, 0), asg(0, 2), asg(1, 0)]);
        assert_eq!(
            validate(&inst(), &s),
            Err(ValidationError::MachineOverlap {
                machine: 0,
                job_a: 0,
                job_b: 1
            })
        );
    }

    #[test]
    fn rejects_class_conflict_across_machines() {
        // Jobs 0 and 1 share class 0 but run concurrently on two machines.
        let s = Schedule::new(vec![asg(0, 0), asg(1, 1), asg(1, 4)]);
        assert_eq!(
            validate(&inst(), &s),
            Err(ValidationError::ClassConflict {
                class: 0,
                job_a: 0,
                job_b: 1
            })
        );
    }

    #[test]
    fn back_to_back_is_legal() {
        // Job 1 starts exactly when job 0 completes — both on one machine and
        // in the same class.
        let s = Schedule::new(vec![asg(0, 0), asg(0, 3), asg(1, 0)]);
        assert_eq!(validate(&inst(), &s), Ok(()));
    }

    #[test]
    fn rejects_out_of_range_machine() {
        let s = Schedule::new(vec![asg(0, 0), asg(5, 3), asg(1, 0)]);
        assert!(matches!(
            validate(&inst(), &s),
            Err(ValidationError::MachineOutOfRange {
                job: 1,
                machine: 5,
                ..
            })
        ));
    }

    #[test]
    fn rejects_wrong_job_count() {
        let s = Schedule::new(vec![asg(0, 0)]);
        assert!(matches!(
            validate(&inst(), &s),
            Err(ValidationError::WrongJobCount { .. })
        ));
    }

    #[test]
    fn zero_size_jobs_never_conflict() {
        let inst = Instance::from_classes(1, &[vec![0, 0, 5]]).unwrap();
        // All three jobs of the same class at time 0 on machine 0; only the
        // size-5 job actually occupies time.
        let s = Schedule::new(vec![asg(0, 0), asg(0, 0), asg(0, 0)]);
        assert_eq!(validate(&inst, &s), Ok(()));
    }
}
