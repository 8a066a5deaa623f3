//! Canonical forms and stable fingerprints of instances.
//!
//! An MSRS instance is fully described by its machine count plus the
//! *multiset of class job-size multisets*: machine identities carry no
//! information (machines are identical), class ids are interchangeable
//! labels, and the order of jobs within a class — or of jobs in the input —
//! is irrelevant. Two instances that differ only in such labelling solve to
//! the same optimal makespan, and any schedule for one maps to a schedule
//! for the other by relabelling.
//!
//! [`CanonicalForm`] materializes that quotient: it rebuilds the instance
//! with empty classes dropped, the jobs of each class sorted by
//! non-increasing size, and the classes themselves sorted by their size
//! vectors — together with the job permutation needed to map schedules back.
//! A stable 128-bit [fingerprint](CanonicalForm::fingerprint) over the
//! canonical description keys result caches: equal canonical forms hash
//! identically on every platform and run.
//!
//! ## Allocation discipline
//!
//! Canonicalization runs on every engine request (hit or miss), so it works
//! over the instance's *flat* storage ([`Instance::flat_sizes`]): class
//! spans are sorted **in place** inside a reusable [`CanonicalScratch`], the
//! fingerprint streams over the sorted flat buffer, and the canonical
//! instance is rebuilt through [`Instance::from_flat`] — no per-class
//! vectors exist anywhere on the path. [`flat_fingerprint`] computes the
//! fingerprint alone from raw flat data (no [`Instance`] required at all),
//! with zero allocations once the scratch is warm; it is the cache-probe
//! primitive of the engine's streaming data plane. On a cache miss,
//! [`flat_canonical_instance`] rebuilds the canonical instance from the
//! data that call left sorted in the scratch, so a request is sorted once.

use crate::instance::{ClassId, Instance, JobId, Time};
use crate::schedule::Schedule;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Streaming FNV-1a-style mix over whole `u64` words — stable across
/// platforms and runs (unlike `std::hash`, whose output is unspecified
/// between releases). One xor + one 128-bit multiply per word, instead of
/// the byte-at-a-time schedule: fingerprinting is on the per-request serving
/// path, where hashing `n` job sizes at 8 multiplies per size dominated the
/// whole canonicalization.
#[derive(Debug, Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV_OFFSET)
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word as u128;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
        // Fold the high half back down so consecutive words interact with
        // the full 128-bit state, not only the low lane the next xor hits.
        self.0 ^= self.0 >> 97;
    }
}

/// Reusable buffers for canonicalization: the flat `(size, job)` table being
/// sorted and the per-class span list. Warm scratch makes repeated
/// canonicalization (and [`flat_fingerprint`]) allocation-free.
#[derive(Debug, Default)]
pub struct CanonicalScratch {
    /// Flat `(size, external job id)` pairs, grouped by class and sorted
    /// descending within each span.
    pairs: Vec<(Time, JobId)>,
    /// Sizes-only variant used by [`flat_fingerprint`] (no job ids known).
    sizes: Vec<Time>,
    /// Non-empty class spans as `(start, end)` flat ranges, sorted into
    /// canonical class order.
    spans: Vec<(usize, usize)>,
}

impl CanonicalScratch {
    /// A fresh scratch (no buffers reserved yet).
    pub fn new() -> Self {
        CanonicalScratch::default()
    }
}

/// Descending-lexicographic comparison of two spans of `(size, job)` pairs
/// by their sizes, ties broken by span start (= original class order), so
/// the permutation is total and deterministic under `sort_unstable`.
/// [`flat_fingerprint`] orders its sizes-only spans the same way.
fn span_cmp(pairs: &[(Time, JobId)], a: (usize, usize), b: (usize, usize)) -> std::cmp::Ordering {
    let sizes = |(start, end): (usize, usize)| pairs[start..end].iter().map(|&(p, _)| p);
    sizes(b).cmp(sizes(a)).then(a.0.cmp(&b.0))
}

/// Rebuilds the canonical instance from sorted spans: one class per span,
/// in span order, with the span's sizes in buffer order.
fn instance_of_spans<T: Copy>(
    machines: usize,
    spans: &[(usize, usize)],
    buf: &[T],
    key: impl Fn(T) -> Time,
) -> Instance {
    let mut job_sizes = Vec::with_capacity(buf.len());
    let mut class_offsets = Vec::with_capacity(spans.len() + 1);
    class_offsets.push(0);
    for &(start, end) in spans {
        job_sizes.extend(buf[start..end].iter().map(|&x| key(x)));
        class_offsets.push(job_sizes.len());
    }
    Instance::from_flat(machines, job_sizes, class_offsets)
        .expect("canonicalization preserves validity")
}

/// Hashes the canonical description: machines, class count, then per class
/// its length followed by its (descending) sizes.
fn hash_spans<T: Copy>(
    machines: usize,
    spans: &[(usize, usize)],
    buf: &[T],
    key: impl Fn(T) -> Time,
) -> u128 {
    let mut h = Fnv128::new();
    h.write_u64(machines as u64);
    h.write_u64(spans.len() as u64);
    for &(start, end) in spans {
        h.write_u64((end - start) as u64);
        for &x in &buf[start..end] {
            h.write_u64(key(x));
        }
    }
    h.0
}

/// The stable 128-bit fingerprint of the canonical form of raw flat class
/// data (`sizes` grouped by class, `offsets` delimiting the classes exactly
/// as [`Instance::class_offsets`] does), without materializing an
/// [`Instance`] or a [`CanonicalForm`]. Produces the same value as
/// `Instance::canonical_form().fingerprint()` on the same data; with a warm
/// `scratch` the computation performs no heap allocations.
pub fn flat_fingerprint(
    machines: usize,
    sizes: &[Time],
    offsets: &[usize],
    scratch: &mut CanonicalScratch,
) -> u128 {
    scratch.sizes.clear();
    scratch.sizes.extend_from_slice(sizes);
    scratch.spans.clear();
    for w in 0..offsets.len().saturating_sub(1) {
        let (start, end) = (offsets[w], offsets[w + 1]);
        if start < end {
            scratch.sizes[start..end].sort_unstable_by(|a, b| b.cmp(a));
            scratch.spans.push((start, end));
        }
    }
    // The order of `span_cmp`, spelled as a slice comparison: slices
    // compare lexicographically, in a tighter loop than mapped iterators.
    let buf = &scratch.sizes;
    scratch
        .spans
        .sort_unstable_by(|&a, &b| buf[b.0..b.1].cmp(&buf[a.0..a.1]).then(a.0.cmp(&b.0)));
    hash_spans(machines, &scratch.spans, buf, |x| x)
}

/// The canonical instance of the flat data that the last
/// [`flat_fingerprint`] call on `scratch` hashed, on `machines` machines:
/// equal to `CanonicalForm::of(inst).instance()` for the instance `inst`
/// that data describes. Reads the sizes that call left sorted in
/// `scratch`, so nothing is sorted twice.
pub fn flat_canonical_instance(machines: usize, scratch: &CanonicalScratch) -> Instance {
    instance_of_spans(machines, &scratch.spans, &scratch.sizes, |x| x)
}

/// The canonical form of an [`Instance`]: an order- and label-insensitive
/// rebuild plus the job permutation linking it to the original.
///
/// Two instances have equal canonical instances (and equal fingerprints)
/// iff they have the same machine count and the same multiset of class
/// job-size multisets — the exact invariant under which results transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    instance: Instance,
    /// `to_canonical[j]` = the canonical job id of original job `j`.
    to_canonical: Vec<JobId>,
    fingerprint: u128,
}

impl CanonicalForm {
    /// Canonicalizes `inst`. Cost: `O(n log n)` for the two sorts, performed
    /// in place over a copy of the instance's flat storage (this runs on
    /// every engine request, hit or miss). See
    /// [`CanonicalForm::of_with`] for the scratch-reusing variant.
    pub fn of(inst: &Instance) -> Self {
        Self::of_with(inst, &mut CanonicalScratch::new())
    }

    /// As [`CanonicalForm::of`], sorting inside the caller's scratch
    /// buffers; with warm scratch, only the returned form's own storage is
    /// allocated.
    pub fn of_with(inst: &Instance, scratch: &mut CanonicalScratch) -> Self {
        // Flat (size, job) pairs, grouped by class; each non-empty span is
        // sorted descending by size (ties by ascending original id, so the
        // permutation is deterministic).
        scratch.pairs.clear();
        scratch.pairs.extend(
            inst.flat_sizes()
                .iter()
                .copied()
                .zip(inst.flat_job_ids().iter().copied()),
        );
        scratch.spans.clear();
        let offsets = inst.class_offsets();
        for c in 0..inst.num_classes() {
            let (start, end) = (offsets[c], offsets[c + 1]);
            if start < end {
                scratch.pairs[start..end]
                    .sort_unstable_by(|&(pa, ja), &(pb, jb)| pb.cmp(&pa).then(ja.cmp(&jb)));
                scratch.spans.push((start, end));
            }
        }
        // Classes sorted by their size vectors (descending
        // lexicographically; ties between identical multisets keep the
        // original class order — harmless for the canonical instance, and
        // it makes the job permutation deterministic).
        let pairs = &scratch.pairs;
        scratch
            .spans
            .sort_unstable_by(|&a, &b| span_cmp(pairs, a, b));

        let fingerprint = hash_spans(inst.machines(), &scratch.spans, pairs, |(p, _)| p);

        let mut to_canonical = vec![0 as JobId; inst.num_jobs()];
        let canonical_order = scratch.spans.iter().flat_map(|&(s, e)| &pairs[s..e]);
        for (next, &(_, j)) in canonical_order.enumerate() {
            to_canonical[j] = next;
        }
        let instance = instance_of_spans(inst.machines(), &scratch.spans, pairs, |(p, _)| p);
        CanonicalForm {
            instance,
            to_canonical,
            fingerprint,
        }
    }

    /// The canonical instance (empty classes dropped, jobs sorted within
    /// classes, classes sorted by size vector).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The stable 128-bit fingerprint of the canonical description. Equal
    /// for two instances iff their canonical instances are equal (up to the
    /// astronomically unlikely 2⁻¹²⁸ hash collision a cache keyed on the
    /// fingerprint accepts).
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// The canonical job id of original job `j`.
    pub fn canonical_job(&self, j: JobId) -> JobId {
        self.to_canonical[j]
    }

    /// Maps a schedule *for the canonical instance* back to a schedule for
    /// the original instance: original job `j` inherits the assignment of
    /// its canonical counterpart (same size, label-equivalent class), so
    /// validity and makespan carry over exactly.
    pub fn schedule_to_original(&self, canonical: &Schedule) -> Schedule {
        Schedule::new(
            self.to_canonical
                .iter()
                .map(|&cj| canonical.assignment(cj))
                .collect(),
        )
    }
}

impl Instance {
    /// The canonical form of this instance (see [`CanonicalForm`]).
    pub fn canonical_form(&self) -> CanonicalForm {
        CanonicalForm::of(self)
    }
}

/// Permutes the class labels and job order of `inst` — the canonical form
/// must be invariant under exactly these relabellings. Test/benchmark
/// helper: `class_perm[c]` is the new label of class `c` (must be a
/// permutation of `0..num_classes`), and jobs are emitted in `job_order`.
pub fn relabel(inst: &Instance, class_perm: &[ClassId], job_order: &[JobId]) -> Instance {
    assert_eq!(class_perm.len(), inst.num_classes());
    assert_eq!(job_order.len(), inst.num_jobs());
    let jobs = job_order
        .iter()
        .map(|&j| crate::instance::Job::new(inst.size(j), class_perm[inst.class_of(j)]))
        .collect();
    Instance::new(inst.machines(), jobs).expect("relabelling preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use crate::Assignment;

    fn sample() -> Instance {
        Instance::from_classes(3, &[vec![5, 3], vec![7], vec![2, 2, 2]]).unwrap()
    }

    #[test]
    fn canonical_form_is_a_fixpoint() {
        let form = sample().canonical_form();
        let again = form.instance().canonical_form();
        assert_eq!(form.instance(), again.instance());
        assert_eq!(form.fingerprint(), again.fingerprint());
        // Identity permutation on an already-canonical instance.
        for j in 0..form.instance().num_jobs() {
            assert_eq!(again.canonical_job(j), j);
        }
    }

    #[test]
    fn classes_sorted_and_jobs_descending() {
        let form = sample().canonical_form();
        let canon = form.instance();
        // Classes sorted by descending size vector: [7], [5,3], [2,2,2].
        let sizes: Vec<Vec<Time>> = (0..canon.num_classes())
            .map(|c| canon.class_sizes(c).to_vec())
            .collect();
        assert_eq!(sizes, vec![vec![7], vec![5, 3], vec![2, 2, 2]]);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let mut scratch = CanonicalScratch::new();
        for seed in 0..8u64 {
            let k = 1 + (seed as usize % 4);
            let classes: Vec<Vec<Time>> = (0..k)
                .map(|c| {
                    (0..=(seed as usize + c) % 4)
                        .map(|i| (seed + i as u64) % 9)
                        .collect()
                })
                .collect();
            let inst = Instance::from_classes(2 + (seed as usize % 3), &classes).unwrap();
            let cold = CanonicalForm::of(&inst);
            let warm = CanonicalForm::of_with(&inst, &mut scratch);
            assert_eq!(cold, warm, "seed {seed}");
        }
    }

    #[test]
    fn flat_fingerprint_matches_canonical_form() {
        let mut scratch = CanonicalScratch::new();
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (3, vec![vec![5, 3], vec![7], vec![2, 2, 2]]),
            (2, vec![vec![], vec![4, 4], vec![1]]),
            (1, vec![]),
            (2, vec![vec![0, 3], vec![3, 0]]),
            (4, vec![vec![9], vec![9], vec![1, 2, 3]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            let via_form = inst.canonical_form().fingerprint();
            let via_flat =
                flat_fingerprint(m, inst.flat_sizes(), inst.class_offsets(), &mut scratch);
            assert_eq!(via_form, via_flat, "m={m} classes={classes:?}");
        }
    }

    #[test]
    fn flat_canonical_instance_matches_canonical_form() {
        let mut scratch = CanonicalScratch::new();
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (3, vec![vec![5, 3], vec![7], vec![2, 2, 2]]),
            (2, vec![vec![], vec![4, 4], vec![1]]),
            (1, vec![]),
            (2, vec![vec![0, 3], vec![3, 0]]),
            (4, vec![vec![9], vec![9], vec![1, 2, 3]]),
            (2, vec![vec![1, 2], vec![], vec![2, 1], vec![3]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            let form = inst.canonical_form();
            let fp = flat_fingerprint(m, inst.flat_sizes(), inst.class_offsets(), &mut scratch);
            assert_eq!(fp, form.fingerprint(), "m={m} classes={classes:?}");
            let flat = flat_canonical_instance(m, &scratch);
            assert_eq!(&flat, form.instance(), "m={m} classes={classes:?}");
            assert_eq!(flat.canonical_form().fingerprint(), fp);
        }
        // A relabelled input lands on the same instance.
        let base = sample();
        let shuffled = relabel(&base, &[2, 0, 1], &[5, 4, 3, 2, 1, 0]);
        let fp = flat_fingerprint(
            3,
            shuffled.flat_sizes(),
            shuffled.class_offsets(),
            &mut scratch,
        );
        assert_eq!(fp, base.canonical_form().fingerprint());
        assert_eq!(
            &flat_canonical_instance(3, &scratch),
            base.canonical_form().instance()
        );
    }

    #[test]
    fn invariant_under_relabelling() {
        let inst = sample();
        let base = inst.canonical_form();
        // Rotate class labels and reverse job order.
        let k = inst.num_classes();
        let class_perm: Vec<ClassId> = (0..k).map(|c| (c + 1) % k).collect();
        let job_order: Vec<JobId> = (0..inst.num_jobs()).rev().collect();
        let shuffled = relabel(&inst, &class_perm, &job_order);
        assert_ne!(
            shuffled, inst,
            "relabelling must actually change the raw form"
        );
        let form = shuffled.canonical_form();
        assert_eq!(form.instance(), base.instance());
        assert_eq!(form.fingerprint(), base.fingerprint());
    }

    #[test]
    fn distinct_structures_get_distinct_fingerprints() {
        let a = Instance::from_classes(2, &[vec![4, 3], vec![5]]).unwrap();
        // Same size multiset overall, different class partition.
        let b = Instance::from_classes(2, &[vec![4], vec![3, 5]]).unwrap();
        // Same classes, different machine count.
        let c = Instance::from_classes(3, &[vec![4, 3], vec![5]]).unwrap();
        let fa = a.canonical_form().fingerprint();
        assert_ne!(fa, b.canonical_form().fingerprint());
        assert_ne!(fa, c.canonical_form().fingerprint());
    }

    #[test]
    fn empty_classes_are_dropped() {
        let a = Instance::new(2, vec![crate::Job::new(4, 0), crate::Job::new(3, 2)]).unwrap();
        let b = Instance::from_classes(2, &[vec![4], vec![3]]).unwrap();
        assert_eq!(
            a.canonical_form().fingerprint(),
            b.canonical_form().fingerprint()
        );
        assert_eq!(a.canonical_form().instance(), b.canonical_form().instance());
    }

    #[test]
    fn schedule_round_trip_preserves_validity_and_makespan() {
        let inst = sample();
        let form = inst.canonical_form();
        // Serial schedule on the canonical instance: machine j % m, stacked
        // by prefix sums per machine — build something simple but valid:
        // everything sequential on machine 0.
        let canon = form.instance();
        let mut t = 0;
        let assignments: Vec<Assignment> = (0..canon.num_jobs())
            .map(|j| {
                let a = Assignment {
                    machine: 0,
                    start: t,
                };
                t += canon.size(j);
                a
            })
            .collect();
        let canon_sched = Schedule::new(assignments);
        assert_eq!(validate(canon, &canon_sched), Ok(()));
        let orig_sched = form.schedule_to_original(&canon_sched);
        assert_eq!(validate(&inst, &orig_sched), Ok(()));
        assert_eq!(orig_sched.makespan(&inst), canon_sched.makespan(canon));
    }

    /// Cache stores, dispatch checkpoints and the fleet cache key on these
    /// values, so both fingerprint paths must keep producing them.
    #[test]
    fn instance_fingerprints_are_pinned() {
        // Line `hot-0` of perfbench's seed-1 traffic_hot corpus: 24
        // classes, 160 jobs, 4 machines.
        const HOT_0: &str = "61 94 65 65 91 99 79 77;10 70;30 84 68 88 40;49 68 14 23;\
            52 78 89 70 86;74 89 42 97 73 35;18 77 76 36 41 85;38 2 41 42 85 67 1 41 54;\
            47 19 99 22 79 7 84;36 16 37 15 100 9 13;36 78 66 54 41 68 9;2 1 81 70 14 63 15;\
            51 18 92 57;65 97 39 97 97 64 54;63 76 5 40 65 75 60 27 48 59 17 33;75 28 25 67 31;\
            52 93 33 30 95 38 59 39;63 10 27 58 51 13;98 35 94 60 26 16 16 2 74 96 23;\
            28 96 86 16 20 56 27;99 69 20 86 16 85 27;46 10 40 74 24 24;5 63 93 31 95;\
            88 74 22 46 19 66 9 91 78";
        let hot: Vec<Vec<Time>> = HOT_0
            .split(';')
            .map(|c| c.split(' ').map(|p| p.parse().unwrap()).collect())
            .collect();
        let cases: [(&str, usize, Vec<Vec<Time>>, u128); 7] = [
            (
                "equal first sizes",
                2,
                vec![vec![5, 3], vec![1, 5]],
                0xfb9e4e34_04bf700b_74ae0122_269a33a8,
            ),
            (
                "a prefix class",
                2,
                vec![vec![5], vec![3, 5]],
                0xf9feb805_394f7082_116fe45f_31de4301,
            ),
            (
                "identical classes",
                3,
                vec![vec![4, 2], vec![2, 4]],
                0x70695500_9ebf7015_980aa69c_77d00f64,
            ),
            (
                "an empty class",
                2,
                vec![vec![], vec![3, 1]],
                0x2e9c07b7_7983d94f_174f7855_0d782500,
            ),
            (
                "a zero-size job",
                2,
                vec![vec![0], vec![2, 0]],
                0xf92fb54c_374f7082_116fe42b_cebe8501,
            ),
            (
                "u64::MAX on one machine",
                1,
                vec![vec![u64::MAX]],
                0x878dfb99_6a75726f_4841939e_3e6b3c71,
            ),
            (
                "traffic_hot hot-0",
                4,
                hot,
                0x5d3350fc_74796fcc_cfef0d1b_678068db,
            ),
        ];
        let mut scratch = CanonicalScratch::new();
        for (what, m, classes, pin) in cases {
            let inst = Instance::from_classes(m, &classes).unwrap();
            let flat = flat_fingerprint(m, inst.flat_sizes(), inst.class_offsets(), &mut scratch);
            assert_eq!(flat, pin, "flat_fingerprint, {what}");
            assert_eq!(inst.canonical_form().fingerprint(), pin, "form, {what}");
        }
    }

    #[test]
    fn zero_size_jobs_participate_in_the_form() {
        let a = Instance::from_classes(2, &[vec![4, 0], vec![3]]).unwrap();
        let b = Instance::from_classes(2, &[vec![4], vec![3]]).unwrap();
        assert_ne!(
            a.canonical_form().fingerprint(),
            b.canonical_form().fingerprint(),
            "a zero-size job is still a job (it appears in reports)"
        );
    }
}
