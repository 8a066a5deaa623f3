//! Problem instances: jobs, processing times, classes (shared resources).
//!
//! ## Flat storage
//!
//! An [`Instance`] keeps its class structure in *flat, structure-of-arrays
//! form*: one contiguous `job_sizes` buffer holding every job's processing
//! time grouped by class, a parallel `flat_jobs` buffer holding the external
//! [`JobId`] occupying each slot, and a `class_offsets` table mapping class
//! `c` to the half-open slot range `class_offsets[c]..class_offsets[c + 1]`.
//! Per-class queries ([`Instance::class_jobs`], [`Instance::class_sizes`],
//! [`Instance::class_load`], …) are contiguous slice reads — no per-class
//! heap allocations exist anywhere in the representation, and construction
//! performs a fixed number of allocations regardless of the class count.
//! The `jobs` array is retained alongside for O(1) per-job lookups by
//! external id ([`Instance::size`], [`Instance::class_of`]).

use std::fmt;
use std::ops::Range;

/// Integral time unit. Processing times, start times and makespans are `u64`;
/// products against rational thresholds are computed in `u128` (see
/// [`crate::frac`]), and [`Instance`] construction rejects inputs whose
/// *total* load exceeds `u64::MAX`, so load sums never overflow downstream.
pub type Time = u64;

/// Index of a job (position in [`Instance::jobs`]).
pub type JobId = usize;

/// Index of a class, i.e. of the shared resource the class corresponds to.
pub type ClassId = usize;

/// Index of a machine, `0..m`.
pub type MachineId = usize;

/// A single job: a processing time and the class (shared resource) it needs.
///
/// The paper allows `p_j ∈ ℕ≥0`; zero-size jobs are legal and occupy the empty
/// interval `[t, t)`, which never conflicts with anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Processing time `p_j`.
    pub size: Time,
    /// Class / shared resource required by this job.
    pub class: ClassId,
}

impl Job {
    /// Creates a job with processing time `size` in class `class`.
    pub fn new(size: Time, class: ClassId) -> Self {
        Job { size, class }
    }
}

/// Errors raised when constructing an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// The machine count was zero.
    NoMachines,
    /// A job referenced a class id `>= num_classes`.
    ClassOutOfRange {
        /// The offending job.
        job: JobId,
        /// Its class id.
        class: ClassId,
        /// Number of classes declared.
        num_classes: usize,
    },
    /// The total processing time `p(J)` exceeds `u64::MAX`. Rejected at
    /// construction so that every load sum downstream (area bound, class
    /// loads, remaining-load accounting) provably fits in [`Time`].
    LoadOverflow,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoMachines => write!(f, "instance must have at least one machine"),
            InstanceError::ClassOutOfRange {
                job,
                class,
                num_classes,
            } => write!(
                f,
                "job {job} references class {class}, but only {num_classes} classes exist"
            ),
            InstanceError::LoadOverflow => {
                write!(f, "total processing time overflows u64")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Construction invariant: `p(J) = Σ p_j` must fit in [`Time`], so every
/// downstream load sum (area bound, class loads, branch-and-bound
/// remaining-load accounting) is overflow-free by construction.
fn check_total_load(jobs: &[Job]) -> Result<(), InstanceError> {
    jobs.iter()
        .try_fold(0 as Time, |acc, j| acc.checked_add(j.size))
        .map(|_| ())
        .ok_or(InstanceError::LoadOverflow)
}

/// As [`check_total_load`], over a bare size slice.
fn check_total_sizes(sizes: &[Time]) -> Result<(), InstanceError> {
    sizes
        .iter()
        .try_fold(0 as Time, |acc, &p| acc.checked_add(p))
        .map(|_| ())
        .ok_or(InstanceError::LoadOverflow)
}

/// An MSRS instance: `m` identical machines and a set of jobs partitioned into
/// classes. Each class corresponds to exactly one shared resource; no two jobs
/// of the same class may run concurrently in a valid schedule.
///
/// Jobs that need no resource are modelled — exactly as the paper notes — by
/// private singleton classes.
///
/// Internally the class structure is flat (see the [module docs](self)):
/// `job_sizes`/`flat_jobs` are contiguous buffers grouped by class and
/// `class_offsets` delimits each class's slot range, so class queries are
/// slice reads and construction costs O(1) allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    machines: usize,
    jobs: Vec<Job>,
    /// Processing times grouped by class: class `c` occupies
    /// `job_sizes[class_offsets[c]..class_offsets[c + 1]]`.
    job_sizes: Vec<Time>,
    /// `flat_jobs[slot]` = the external [`JobId`] whose size sits at `slot`.
    /// Within a class, slots are in ascending job-id order.
    flat_jobs: Vec<JobId>,
    /// `num_classes + 1` offsets into the flat buffers.
    class_offsets: Vec<usize>,
}

/// Builds the flat (grouped-by-class) buffers from a job list in two passes:
/// a counting pass filling `class_offsets` and a scatter pass placing each
/// job. Within a class, jobs land in ascending id order.
fn build_flat(jobs: &[Job], num_classes: usize) -> (Vec<Time>, Vec<JobId>, Vec<usize>) {
    let mut class_offsets = vec![0usize; num_classes + 1];
    for job in jobs {
        class_offsets[job.class + 1] += 1;
    }
    for c in 0..num_classes {
        class_offsets[c + 1] += class_offsets[c];
    }
    let mut cursor = class_offsets.clone();
    let mut job_sizes = vec![0 as Time; jobs.len()];
    let mut flat_jobs = vec![0 as JobId; jobs.len()];
    for (id, job) in jobs.iter().enumerate() {
        let slot = cursor[job.class];
        cursor[job.class] += 1;
        job_sizes[slot] = job.size;
        flat_jobs[slot] = id;
    }
    (job_sizes, flat_jobs, class_offsets)
}

impl Instance {
    /// Builds an instance from raw jobs. The number of classes is inferred as
    /// `max class id + 1` (all ids below that are legal, even if unused).
    pub fn new(machines: usize, jobs: Vec<Job>) -> Result<Self, InstanceError> {
        if machines == 0 {
            return Err(InstanceError::NoMachines);
        }
        check_total_load(&jobs)?;
        let num_classes = jobs.iter().map(|j| j.class + 1).max().unwrap_or(0);
        let (job_sizes, flat_jobs, class_offsets) = build_flat(&jobs, num_classes);
        Ok(Instance {
            machines,
            jobs,
            job_sizes,
            flat_jobs,
            class_offsets,
        })
    }

    /// Builds an instance from per-class job size lists: `class_sizes[c]` are
    /// the processing times of the jobs of class `c`. Job ids are assigned in
    /// iteration order.
    pub fn from_classes(machines: usize, class_sizes: &[Vec<Time>]) -> Result<Self, InstanceError> {
        if machines == 0 {
            return Err(InstanceError::NoMachines);
        }
        let n = class_sizes.iter().map(Vec::len).sum();
        let mut job_sizes: Vec<Time> = Vec::with_capacity(n);
        let mut class_offsets = Vec::with_capacity(class_sizes.len() + 1);
        class_offsets.push(0);
        for sizes in class_sizes {
            job_sizes.extend_from_slice(sizes);
            class_offsets.push(job_sizes.len());
        }
        check_total_sizes(&job_sizes)?;
        // Jobs are assigned ids class by class, so external ids coincide
        // with flat slots.
        let mut jobs = Vec::with_capacity(n);
        for (c, sizes) in class_sizes.iter().enumerate() {
            for &s in sizes {
                jobs.push(Job::new(s, c));
            }
        }
        Ok(Instance {
            machines,
            jobs,
            job_sizes,
            flat_jobs: (0..n).collect(),
            class_offsets,
        })
    }

    /// Builds an instance directly from flat storage: `job_sizes` grouped by
    /// class and `class_offsets` delimiting each class (`class_offsets[0] ==
    /// 0`, monotone, last element `== job_sizes.len()`). Job ids are the flat
    /// slots. This is the allocation-lean construction path used by the
    /// canonical rebuild and the engine's streaming decoder — it allocates
    /// only the `jobs` array beyond the two buffers it takes ownership of.
    ///
    /// # Panics
    /// If the offsets are not a valid monotone partition of `job_sizes`.
    pub fn from_flat(
        machines: usize,
        job_sizes: Vec<Time>,
        class_offsets: Vec<usize>,
    ) -> Result<Self, InstanceError> {
        assert!(
            !class_offsets.is_empty()
                && class_offsets[0] == 0
                && *class_offsets.last().expect("non-empty") == job_sizes.len()
                && class_offsets.windows(2).all(|w| w[0] <= w[1]),
            "class_offsets must be a monotone partition of job_sizes"
        );
        if machines == 0 {
            return Err(InstanceError::NoMachines);
        }
        check_total_sizes(&job_sizes)?;
        let mut jobs = Vec::with_capacity(job_sizes.len());
        for c in 0..class_offsets.len() - 1 {
            for &s in &job_sizes[class_offsets[c]..class_offsets[c + 1]] {
                jobs.push(Job::new(s, c));
            }
        }
        let n = job_sizes.len();
        Ok(Instance {
            machines,
            jobs,
            job_sizes,
            flat_jobs: (0..n).collect(),
            class_offsets,
        })
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of declared classes (including empty ones).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.class_offsets.len() - 1
    }

    /// Number of classes that actually contain at least one job.
    pub fn num_nonempty_classes(&self) -> usize {
        self.class_offsets
            .windows(2)
            .filter(|w| w[0] < w[1])
            .count()
    }

    /// All jobs, indexed by [`JobId`].
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Processing time of job `j`.
    #[inline]
    pub fn size(&self, j: JobId) -> Time {
        self.jobs[j].size
    }

    /// Class of job `j`.
    #[inline]
    pub fn class_of(&self, j: JobId) -> ClassId {
        self.jobs[j].class
    }

    /// The flat slot range of class `c` (see [`Instance::flat_sizes`]).
    #[inline]
    pub fn class_range(&self, c: ClassId) -> Range<usize> {
        self.class_offsets[c]..self.class_offsets[c + 1]
    }

    /// Jobs of class `c` — a contiguous slice of the flat job table, in
    /// ascending job-id order.
    #[inline]
    pub fn class_jobs(&self, c: ClassId) -> &[JobId] {
        &self.flat_jobs[self.class_range(c)]
    }

    /// Processing times of the jobs of class `c` — a contiguous slice of
    /// [`Instance::flat_sizes`], parallel to [`Instance::class_jobs`].
    #[inline]
    pub fn class_sizes(&self, c: ClassId) -> &[Time] {
        &self.job_sizes[self.class_range(c)]
    }

    /// The whole flat size buffer: every job's processing time, grouped by
    /// class (class `c` occupies [`Instance::class_range`]`(c)`).
    #[inline]
    pub fn flat_sizes(&self) -> &[Time] {
        &self.job_sizes
    }

    /// The external job id occupying each flat slot, parallel to
    /// [`Instance::flat_sizes`].
    #[inline]
    pub fn flat_job_ids(&self) -> &[JobId] {
        &self.flat_jobs
    }

    /// The `num_classes + 1` offsets delimiting each class in the flat
    /// buffers.
    #[inline]
    pub fn class_offsets(&self) -> &[usize] {
        &self.class_offsets
    }

    /// Total processing time `p(c)` of class `c`.
    pub fn class_load(&self, c: ClassId) -> Time {
        self.class_sizes(c).iter().sum()
    }

    /// Largest job size within class `c` (0 for an empty class).
    pub fn class_max_job(&self, c: ClassId) -> Time {
        self.class_sizes(c).iter().copied().max().unwrap_or(0)
    }

    /// Total processing time `p(J)` over all jobs.
    pub fn total_load(&self) -> Time {
        self.job_sizes.iter().sum()
    }

    /// Iterator over non-empty class ids.
    pub fn nonempty_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.num_classes()).filter(|&c| self.class_offsets[c] < self.class_offsets[c + 1])
    }

    /// The `k`-th largest processing time over all jobs (`k` is 1-based);
    /// `None` if `k > n`. Used for the `p_(m) + p_(m+1)` lower bound.
    pub fn kth_largest_size(&self, k: usize) -> Option<Time> {
        if k == 0 || k > self.jobs.len() {
            return None;
        }
        let mut sizes: Vec<Time> = self.job_sizes.clone();
        // Select the k-th largest = (k-1)-th in descending order.
        let (_, kth, _) = sizes.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        Some(*kth)
    }
}

/// A reusable flat-instance accumulator: the engine's streaming decoder
/// parses each corpus line into one of these (class by class, size by size)
/// so that steady-state decoding performs **zero heap allocations** — the
/// buffers are retained across [`InstanceBuilder::reset`] calls and only the
/// optional [`InstanceBuilder::build`] materializes an owned [`Instance`].
#[derive(Debug, Default)]
pub struct InstanceBuilder {
    machines: usize,
    sizes: Vec<Time>,
    offsets: Vec<usize>,
}

impl InstanceBuilder {
    /// A fresh builder (no buffers reserved yet).
    pub fn new() -> Self {
        InstanceBuilder::default()
    }

    /// Clears the accumulated classes and sets the machine count, retaining
    /// buffer capacity.
    pub fn reset(&mut self, machines: usize) {
        self.machines = machines;
        self.sizes.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Opens a new (initially empty) class.
    pub fn begin_class(&mut self) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.push(self.sizes.len());
    }

    /// Appends a job of processing time `size` to the currently open class.
    ///
    /// # Panics
    /// If no class was opened via [`InstanceBuilder::begin_class`].
    pub fn push_size(&mut self, size: Time) {
        assert!(self.offsets.len() > 1, "push_size before begin_class");
        self.sizes.push(size);
        *self.offsets.last_mut().expect("non-empty") = self.sizes.len();
    }

    /// Appends one class whose sizes `fill` pushes straight onto the flat
    /// size buffer, and returns what `fill` returned. When `fill` returns
    /// `false`, the buffer is cut back to where it was and no class is
    /// added.
    pub fn push_class_with(&mut self, fill: impl FnOnce(&mut Vec<Time>) -> bool) -> bool {
        let start = self.sizes.len();
        if !fill(&mut self.sizes) {
            self.sizes.truncate(start);
            return false;
        }
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.push(self.sizes.len());
        true
    }

    /// The configured machine count.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Sets the machine count without touching the accumulated classes
    /// (decoders learn `machines` and `classes` in whatever order the line
    /// spells them).
    pub fn set_machines(&mut self, machines: usize) {
        self.machines = machines;
    }

    /// Number of classes accumulated so far.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of jobs accumulated so far.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.sizes.len()
    }

    /// The accumulated flat size buffer (grouped by class).
    #[inline]
    pub fn sizes(&self) -> &[Time] {
        &self.sizes
    }

    /// The accumulated class offsets (`num_classes + 1` entries once at
    /// least one class was opened; `[0]` for an empty instance).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        if self.offsets.is_empty() {
            // An all-default builder: present the canonical empty partition.
            &EMPTY_OFFSETS
        } else {
            &self.offsets
        }
    }

    /// Checks the accumulated data against the [`Instance`] construction
    /// invariants (machine count, total-load overflow) *without* allocating.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if self.machines == 0 {
            return Err(InstanceError::NoMachines);
        }
        check_total_sizes(&self.sizes)
    }

    /// Materializes an owned [`Instance`] from the accumulated data
    /// (allocates fresh buffers, leaving the builder intact for the next
    /// line).
    pub fn build(&self) -> Result<Instance, InstanceError> {
        Instance::from_flat(self.machines, self.sizes.clone(), self.offsets().to_vec())
    }
}

/// The offsets of an instance with zero classes.
static EMPTY_OFFSETS: [usize; 1] = [0];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        Instance::from_classes(3, &[vec![5, 3], vec![7], vec![2, 2, 2]]).unwrap()
    }

    #[test]
    fn from_classes_assigns_ids_in_order() {
        let inst = sample();
        assert_eq!(inst.num_jobs(), 6);
        assert_eq!(inst.class_of(0), 0);
        assert_eq!(inst.class_of(2), 1);
        assert_eq!(inst.class_of(5), 2);
        assert_eq!(inst.size(2), 7);
    }

    #[test]
    fn class_accessors() {
        let inst = sample();
        assert_eq!(inst.class_load(0), 8);
        assert_eq!(inst.class_load(2), 6);
        assert_eq!(inst.class_max_job(0), 5);
        assert_eq!(inst.class_max_job(2), 2);
        assert_eq!(inst.total_load(), 21);
        assert_eq!(inst.num_nonempty_classes(), 3);
    }

    #[test]
    fn new_infers_classes_from_ids() {
        let inst = Instance::new(2, vec![Job::new(4, 2), Job::new(1, 0), Job::new(2, 2)]).unwrap();
        assert_eq!(inst.num_classes(), 3);
        assert_eq!(inst.class_jobs(2), &[0, 2]);
        assert!(inst.class_jobs(1).is_empty());
        assert_eq!(inst.num_nonempty_classes(), 2);
    }

    #[test]
    fn flat_storage_is_grouped_by_class() {
        // Interleaved construction: flat buffers regroup by class, keeping
        // ascending job ids within each class.
        let inst = Instance::new(
            2,
            vec![
                Job::new(4, 2),
                Job::new(1, 0),
                Job::new(2, 2),
                Job::new(9, 1),
            ],
        )
        .unwrap();
        assert_eq!(inst.flat_sizes(), &[1, 9, 4, 2]);
        assert_eq!(inst.flat_job_ids(), &[1, 3, 0, 2]);
        assert_eq!(inst.class_offsets(), &[0, 1, 2, 4]);
        assert_eq!(inst.class_sizes(2), &[4, 2]);
        assert_eq!(inst.class_jobs(2), &[0, 2]);
        // Parallel slices: class_sizes[i] is the size of class_jobs[i].
        for c in 0..inst.num_classes() {
            for (slot, (&j, &p)) in inst
                .class_jobs(c)
                .iter()
                .zip(inst.class_sizes(c))
                .enumerate()
            {
                assert_eq!(inst.size(j), p, "class {c} slot {slot}");
                assert_eq!(inst.class_of(j), c);
            }
        }
    }

    #[test]
    fn from_flat_round_trips() {
        let inst = sample();
        let again = Instance::from_flat(
            inst.machines(),
            inst.flat_sizes().to_vec(),
            inst.class_offsets().to_vec(),
        )
        .unwrap();
        assert_eq!(again, inst);
        assert_eq!(
            Instance::from_flat(0, vec![1], vec![0, 1]).unwrap_err(),
            InstanceError::NoMachines
        );
        assert_eq!(
            Instance::from_flat(1, vec![u64::MAX, 1], vec![0, 1, 2]).unwrap_err(),
            InstanceError::LoadOverflow
        );
    }

    #[test]
    #[should_panic(expected = "monotone partition")]
    fn from_flat_rejects_bad_offsets() {
        let _ = Instance::from_flat(1, vec![1, 2], vec![0, 1]);
    }

    #[test]
    fn builder_accumulates_and_builds() {
        let mut b = InstanceBuilder::new();
        assert_eq!(b.offsets(), &[0]);
        b.reset(3);
        b.begin_class();
        b.push_size(5);
        b.push_size(3);
        b.begin_class();
        b.push_size(7);
        b.begin_class();
        for _ in 0..3 {
            b.push_size(2);
        }
        assert_eq!(b.num_classes(), 3);
        assert_eq!(b.num_jobs(), 6);
        assert_eq!(b.sizes(), &[5, 3, 7, 2, 2, 2]);
        assert_eq!(b.offsets(), &[0, 2, 3, 6]);
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.build().unwrap(), sample());
        // Reset retains nothing logically but everything physically.
        b.reset(1);
        assert_eq!(b.num_classes(), 0);
        assert_eq!(b.num_jobs(), 0);
        assert_eq!(b.build().unwrap(), Instance::new(1, vec![]).unwrap());
    }

    #[test]
    fn builder_checks_invariants() {
        let mut b = InstanceBuilder::new();
        b.reset(0);
        assert_eq!(b.validate(), Err(InstanceError::NoMachines));
        b.reset(1);
        b.begin_class();
        b.push_size(u64::MAX);
        b.begin_class();
        b.push_size(1);
        assert_eq!(b.validate(), Err(InstanceError::LoadOverflow));
        assert_eq!(b.build().unwrap_err(), InstanceError::LoadOverflow);
    }

    #[test]
    fn zero_machines_rejected() {
        assert_eq!(
            Instance::new(0, vec![]).unwrap_err(),
            InstanceError::NoMachines
        );
        assert_eq!(
            Instance::from_classes(0, &[vec![1]]).unwrap_err(),
            InstanceError::NoMachines
        );
    }

    #[test]
    fn kth_largest() {
        let inst = sample(); // sizes 5,3,7,2,2,2
        assert_eq!(inst.kth_largest_size(1), Some(7));
        assert_eq!(inst.kth_largest_size(2), Some(5));
        assert_eq!(inst.kth_largest_size(3), Some(3));
        assert_eq!(inst.kth_largest_size(6), Some(2));
        assert_eq!(inst.kth_largest_size(7), None);
        assert_eq!(inst.kth_largest_size(0), None);
    }

    #[test]
    fn total_load_at_u64_max_is_accepted() {
        // Two jobs summing to exactly u64::MAX: legal, and the accessors
        // stay overflow-free.
        let a = u64::MAX / 2;
        let b = u64::MAX - a;
        let inst = Instance::from_classes(1, &[vec![a], vec![b]]).unwrap();
        assert_eq!(inst.total_load(), u64::MAX);
        assert_eq!(inst.kth_largest_size(1), Some(b));
    }

    #[test]
    fn total_load_overflow_is_rejected() {
        let big = u64::MAX / 2 + 1;
        assert_eq!(
            Instance::from_classes(2, &[vec![big], vec![big]]).unwrap_err(),
            InstanceError::LoadOverflow
        );
        assert_eq!(
            Instance::new(4, vec![Job::new(u64::MAX, 0), Job::new(1, 1)]).unwrap_err(),
            InstanceError::LoadOverflow
        );
        assert!(InstanceError::LoadOverflow.to_string().contains("overflow"));
    }

    #[test]
    fn empty_instance_is_legal() {
        let inst = Instance::new(1, vec![]).unwrap();
        assert_eq!(inst.num_jobs(), 0);
        assert_eq!(inst.total_load(), 0);
        assert_eq!(inst.num_classes(), 0);
        assert_eq!(inst.flat_sizes(), &[] as &[Time]);
        assert_eq!(inst.class_offsets(), &[0]);
    }
}
