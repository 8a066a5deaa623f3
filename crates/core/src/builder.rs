//! Block-based schedule construction.
//!
//! The 5/3- and 3/2-approximation algorithms of the paper place whole classes
//! (or class *parts*, cf. Lemmas 5, 10, 11) as consecutive blocks that are
//! either **bottom-aligned** ("starts at 0", stacked upwards) or
//! **top-aligned** ("ends at 3/2", stacked downwards from a horizon `H`).
//! [`ScheduleBuilder`] models a machine as exactly these two stacks and turns
//! the arrangement into per-job integral start times on
//! [`ScheduleBuilder::finalize`].
//!
//! The builder *checks* the geometric invariants the proofs rely on: pushing a
//! block that would make the bottom stack collide with the top stack panics
//! immediately (an algorithm bug, not a user error), and `finalize` reports
//! any unplaced or duplicated jobs.

use std::fmt;

use crate::instance::{ClassId, Instance, JobId, MachineId, Time};
use crate::schedule::{Assignment, Schedule};

/// A consecutive run of jobs of a single class, placed as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The class all jobs of this block belong to.
    pub class: ClassId,
    /// The jobs, scheduled consecutively in this order.
    pub jobs: Vec<JobId>,
    /// Total processing time of the block.
    pub len: Time,
}

impl Block {
    /// Builds a block from a set of jobs of `inst`.
    ///
    /// # Panics
    /// If `jobs` is empty or the jobs span more than one class.
    pub fn from_jobs(inst: &Instance, jobs: Vec<JobId>) -> Self {
        assert!(!jobs.is_empty(), "a block needs at least one job");
        let class = inst.class_of(jobs[0]);
        let mut len: Time = 0;
        for &j in &jobs {
            assert_eq!(inst.class_of(j), class, "block jobs must share a class");
            len += inst.size(j);
        }
        Block { class, jobs, len }
    }

    /// Builds a block holding the entire class `c`.
    pub fn whole_class(inst: &Instance, c: ClassId) -> Self {
        Self::from_jobs(inst, inst.class_jobs(c).to_vec())
    }
}

/// A block with its resolved start time on a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedBlock<'b> {
    /// The block.
    pub block: &'b Block,
    /// Resolved start time.
    pub start: Time,
}

#[derive(Debug, Clone, Default)]
struct MachineSlot {
    bottom: Vec<Block>,
    /// Top-aligned stack; `top[0]` ends at the horizon, `top[i+1]` ends where
    /// `top[i]` starts.
    top: Vec<Block>,
    bottom_len: Time,
    top_len: Time,
}

/// Errors reported by [`ScheduleBuilder::finalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Some jobs were never placed.
    UnplacedJobs {
        /// Number of missing jobs.
        count: usize,
        /// A sample of missing job ids (at most 8).
        sample: Vec<JobId>,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnplacedJobs { count, sample } => {
                write!(f, "{count} jobs were never placed (e.g. {sample:?})")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental schedule builder over bottom-/top-aligned block stacks.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'a> {
    inst: &'a Instance,
    horizon: Time,
    machines: Vec<MachineSlot>,
    placed: Vec<bool>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Creates a builder for `inst` with completion horizon `horizon` (e.g.
    /// `⌊(5/3)T⌋` for `Algorithm_5/3`). Top-aligned blocks end at `horizon`.
    pub fn new(inst: &'a Instance, horizon: Time) -> Self {
        ScheduleBuilder {
            inst,
            horizon,
            machines: vec![MachineSlot::default(); inst.machines()],
            placed: vec![false; inst.num_jobs()],
        }
    }

    /// The completion horizon.
    #[inline]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The instance being scheduled.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Total load currently on `machine`.
    #[inline]
    pub fn load(&self, machine: MachineId) -> Time {
        self.machines[machine].bottom_len + self.machines[machine].top_len
    }

    /// End of the bottom stack (first free time from below).
    #[inline]
    pub fn bottom_end(&self, machine: MachineId) -> Time {
        self.machines[machine].bottom_len
    }

    /// Start of the top stack (first occupied time from above); equals the
    /// horizon while the top stack is empty.
    #[inline]
    pub fn top_start(&self, machine: MachineId) -> Time {
        self.horizon - self.machines[machine].top_len
    }

    /// Free contiguous time between the two stacks.
    #[inline]
    pub fn gap(&self, machine: MachineId) -> Time {
        self.top_start(machine) - self.bottom_end(machine)
    }

    fn mark_placed(&mut self, block: &Block) {
        for &j in &block.jobs {
            assert!(!self.placed[j], "invariant violation: job {j} placed twice");
            self.placed[j] = true;
        }
    }

    fn check_fits(&self, machine: MachineId, len: Time) {
        let slot = &self.machines[machine];
        assert!(
            slot.bottom_len + slot.top_len + len <= self.horizon,
            "invariant violation: machine {machine} would exceed horizon {} \
             (bottom {}, top {}, new block {len})",
            self.horizon,
            slot.bottom_len,
            slot.top_len
        );
    }

    /// Appends `block` on top of the bottom stack of `machine` (it starts at
    /// the current [`Self::bottom_end`]).
    ///
    /// # Panics
    /// If a job of the block was already placed or the stacks would collide.
    pub fn push_bottom(&mut self, machine: MachineId, block: Block) {
        self.check_fits(machine, block.len);
        self.mark_placed(&block);
        let slot = &mut self.machines[machine];
        slot.bottom_len += block.len;
        slot.bottom.push(block);
    }

    /// Inserts `block` at the very bottom of `machine`, delaying all existing
    /// bottom blocks by `block.len` (the "delay the first job" move of
    /// `Algorithm_5/3`, Step 2).
    ///
    /// # Panics
    /// As [`Self::push_bottom`].
    pub fn push_bottom_front(&mut self, machine: MachineId, block: Block) {
        self.check_fits(machine, block.len);
        self.mark_placed(&block);
        let slot = &mut self.machines[machine];
        slot.bottom_len += block.len;
        slot.bottom.insert(0, block);
    }

    /// Hangs `block` below the current top stack of `machine`; it ends at the
    /// current [`Self::top_start`] (so the first top-pushed block ends exactly
    /// at the horizon).
    ///
    /// # Panics
    /// As [`Self::push_bottom`].
    pub fn push_top(&mut self, machine: MachineId, block: Block) {
        self.check_fits(machine, block.len);
        self.mark_placed(&block);
        let slot = &mut self.machines[machine];
        slot.top_len += block.len;
        slot.top.push(block);
    }

    /// Converts the entire bottom stack of `machine` into a top-aligned stack
    /// preserving job order, so its last block ends at the horizon ("shift all
    /// jobs up", `Algorithm_3/2` Steps 4 and 8).
    ///
    /// # Panics
    /// If the machine already has top-aligned blocks.
    pub fn raise_to_top(&mut self, machine: MachineId) {
        let slot = &mut self.machines[machine];
        assert!(
            slot.top.is_empty(),
            "invariant violation: raise_to_top with a non-empty top stack"
        );
        // Bottom order [b1, b2, …, bk] becomes top order [bk, …, b2, b1]
        // (top[0] ends at the horizon).
        slot.top = slot.bottom.drain(..).rev().collect();
        slot.top_len = slot.bottom_len;
        slot.bottom_len = 0;
    }

    /// Moves the bottom block at `idx` of `machine` to the front of the
    /// bottom stack (it will start at time 0). Part of the *rotation*
    /// argument of `Algorithm_3/2`, Steps 5 and 10.
    pub fn rotate_bottom_block_to_front(&mut self, machine: MachineId, idx: usize) {
        let slot = &mut self.machines[machine];
        let block = slot.bottom.remove(idx);
        slot.bottom.insert(0, block);
    }

    /// Moves the bottom block at `idx` of `machine` onto the top stack (it
    /// will end at the current top start). The other half of the rotation.
    pub fn rotate_bottom_block_to_top(&mut self, machine: MachineId, idx: usize) {
        let slot = &mut self.machines[machine];
        let block = slot.bottom.remove(idx);
        slot.bottom_len -= block.len;
        slot.top_len += block.len;
        slot.top.push(block);
    }

    /// Index (within the bottom stack of `machine`) of the block whose first
    /// job is `job`, if any. Used to locate a block for rotation.
    pub fn find_bottom_block(&self, machine: MachineId, job: JobId) -> Option<usize> {
        self.machines[machine]
            .bottom
            .iter()
            .position(|b| b.jobs.first() == Some(&job))
    }

    /// All blocks of `machine` with resolved start times, bottom stack first
    /// (ascending), then top stack (descending start).
    pub fn blocks(&self, machine: MachineId) -> Vec<PlacedBlock<'_>> {
        let slot = &self.machines[machine];
        let mut out = Vec::with_capacity(slot.bottom.len() + slot.top.len());
        let mut cur: Time = 0;
        for b in &slot.bottom {
            out.push(PlacedBlock {
                block: b,
                start: cur,
            });
            cur += b.len;
        }
        let mut cur = self.horizon;
        for b in &slot.top {
            cur -= b.len;
            out.push(PlacedBlock {
                block: b,
                start: cur,
            });
        }
        out
    }

    /// Resolved time interval `[start, end)` currently occupied by the jobs
    /// of class `c` on any machine, if the class has been placed contiguously
    /// on a single machine. Used by the rotation logic to find where the
    /// subroutine placed the counterpart `c''`.
    pub fn class_interval(&self, c: ClassId) -> Option<(Time, Time)> {
        let mut found: Option<(Time, Time)> = None;
        for m in 0..self.machines.len() {
            for pb in self.blocks(m) {
                if pb.block.class == c {
                    let iv = (pb.start, pb.start + pb.block.len);
                    found = match found {
                        None => Some(iv),
                        // Merge adjacent blocks of the same class on the same
                        // machine (they are consecutive by construction).
                        Some((s, e)) if iv.0 == e => Some((s, iv.1)),
                        Some((s, e)) if iv.1 == s => Some((iv.0, e)),
                        Some(_) => return None, // split across machines
                    };
                }
            }
        }
        found
    }

    /// Locates the block whose *first* job is `j` and returns
    /// `(machine, start, end)` with resolved times. Job ids are unique across
    /// blocks, so this identifies a block unambiguously. Used by the rotation
    /// argument of `Algorithm_3/2` (Steps 5 and 10) to find where the
    /// subroutine placed the counterpart part of a split class.
    pub fn find_block_by_first_job(&self, j: JobId) -> Option<(MachineId, Time, Time)> {
        for m in 0..self.machines.len() {
            for pb in self.blocks(m) {
                if pb.block.jobs.first() == Some(&j) {
                    return Some((m, pb.start, pb.start + pb.block.len));
                }
            }
        }
        None
    }

    /// Resolves all blocks into a [`Schedule`].
    pub fn finalize(self) -> Result<Schedule, BuildError> {
        let missing: Vec<JobId> = self
            .placed
            .iter()
            .enumerate()
            .filter(|(_, &p)| !p)
            .map(|(j, _)| j)
            .collect();
        if !missing.is_empty() {
            return Err(BuildError::UnplacedJobs {
                count: missing.len(),
                sample: missing.into_iter().take(8).collect(),
            });
        }
        let mut assignments = vec![
            Assignment {
                machine: 0,
                start: 0
            };
            self.inst.num_jobs()
        ];
        for (machine, slot) in self.machines.iter().enumerate() {
            let mut cur: Time = 0;
            for b in &slot.bottom {
                for &j in &b.jobs {
                    assignments[j] = Assignment {
                        machine,
                        start: cur,
                    };
                    cur += self.inst.size(j);
                }
            }
            let mut cur = self.horizon;
            for b in &slot.top {
                cur -= b.len;
                let mut t = cur;
                for &j in &b.jobs {
                    assignments[j] = Assignment { machine, start: t };
                    t += self.inst.size(j);
                }
            }
        }
        Ok(Schedule::new(assignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    fn inst() -> Instance {
        // class 0: sizes 3,2 — class 1: 4 — class 2: 1,1
        Instance::from_classes(2, &[vec![3, 2], vec![4], vec![1, 1]]).unwrap()
    }

    #[test]
    fn bottom_and_top_stacks_resolve() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 10);
        b.push_bottom(0, Block::from_jobs(&inst, vec![0, 1])); // class 0 at [0,5)
        b.push_top(0, Block::from_jobs(&inst, vec![2])); // class 1 at [6,10)
        b.push_bottom(1, Block::from_jobs(&inst, vec![3, 4])); // class 2 at [0,2)
        assert_eq!(b.bottom_end(0), 5);
        assert_eq!(b.top_start(0), 6);
        assert_eq!(b.gap(0), 1);
        let s = b.finalize().unwrap();
        assert_eq!(s.assignment(0).start, 0);
        assert_eq!(s.assignment(1).start, 3);
        assert_eq!(s.assignment(2).start, 6);
        assert_eq!(s.assignment(3).start, 0);
        assert_eq!(s.assignment(4).start, 1);
        assert_eq!(validate(&inst, &s), Ok(()));
    }

    #[test]
    fn push_bottom_front_delays_existing_blocks() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_bottom(0, Block::from_jobs(&inst, vec![2])); // class 1, len 4
        b.push_bottom_front(0, Block::from_jobs(&inst, vec![3, 4])); // class 2, len 2
        b.push_bottom(1, Block::from_jobs(&inst, vec![0, 1]));
        let s = b.finalize().unwrap();
        assert_eq!(s.assignment(3).start, 0);
        assert_eq!(s.assignment(2).start, 2); // delayed behind the front block
    }

    #[test]
    fn top_stack_grows_downwards() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_top(0, Block::from_jobs(&inst, vec![2])); // ends at 12 → [8,12)
        b.push_top(0, Block::from_jobs(&inst, vec![0])); // ends at 8 → [5,8)
        assert_eq!(b.top_start(0), 5);
        b.push_bottom(1, Block::from_jobs(&inst, vec![1]));
        b.push_bottom(1, Block::from_jobs(&inst, vec![3, 4]));
        let s = b.finalize().unwrap();
        assert_eq!(s.assignment(2).start, 8);
        assert_eq!(s.assignment(0).start, 5);
    }

    #[test]
    fn raise_to_top_preserves_order() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_bottom(0, Block::from_jobs(&inst, vec![0])); // len 3
        b.push_bottom(0, Block::from_jobs(&inst, vec![2])); // len 4
        b.raise_to_top(0);
        assert_eq!(b.bottom_end(0), 0);
        assert_eq!(b.top_start(0), 5);
        b.push_bottom(1, Block::from_jobs(&inst, vec![1]));
        b.push_bottom(1, Block::from_jobs(&inst, vec![3, 4]));
        let s = b.finalize().unwrap();
        assert_eq!(s.assignment(0).start, 5); // [5,8)
        assert_eq!(s.assignment(2).start, 8); // [8,12): order preserved
    }

    #[test]
    fn rotation_moves_blocks() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_bottom(0, Block::from_jobs(&inst, vec![2])); // class 1, len 4
        b.push_bottom(0, Block::from_jobs(&inst, vec![1])); // class 0, len 2
        let idx = b.find_bottom_block(0, 1).unwrap();
        b.rotate_bottom_block_to_top(0, idx);
        b.push_bottom(1, Block::from_jobs(&inst, vec![0]));
        b.push_bottom(1, Block::from_jobs(&inst, vec![3, 4]));
        let s = b.finalize().unwrap();
        assert_eq!(s.assignment(2).start, 0);
        assert_eq!(s.assignment(1).start, 10); // ends at horizon
    }

    #[test]
    fn class_interval_merges_contiguous_blocks() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_bottom(0, Block::from_jobs(&inst, vec![0]));
        b.push_bottom(0, Block::from_jobs(&inst, vec![1]));
        assert_eq!(b.class_interval(0), Some((0, 5)));
        assert_eq!(b.class_interval(1), None);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_placement_panics() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 12);
        b.push_bottom(0, Block::from_jobs(&inst, vec![0]));
        b.push_bottom(1, Block::from_jobs(&inst, vec![0]));
    }

    #[test]
    #[should_panic(expected = "exceed horizon")]
    fn stack_collision_panics() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst, 6);
        b.push_bottom(0, Block::from_jobs(&inst, vec![0, 1])); // len 5
        b.push_top(0, Block::from_jobs(&inst, vec![2])); // len 4 > gap
    }

    #[test]
    fn finalize_reports_unplaced() {
        let inst = inst();
        let b = ScheduleBuilder::new(&inst, 6);
        match b.finalize() {
            Err(BuildError::UnplacedJobs { count, .. }) => assert_eq!(count, 5),
            other => panic!("expected UnplacedJobs, got {other:?}"),
        }
    }
}
