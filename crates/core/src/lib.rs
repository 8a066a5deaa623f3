//! # msrs-core — model and invariants for many-shared-resource scheduling
//!
//! This crate defines the problem model of **MSRS** (*many shared resources
//! scheduling*, `P | res·111 | Cmax`) as introduced by Hebrard et al. and
//! studied by Deppert, Jansen, Maack, Pukrop and Rau (2023): `n` jobs with
//! integral processing times must be scheduled on `m` identical parallel
//! machines; the jobs are partitioned into *classes*, each class corresponding
//! to one shared resource, and no two jobs of the same class may be processed
//! concurrently. The objective is to minimize the makespan.
//!
//! Provided here:
//!
//! * [`Instance`] / [`Job`] — the problem input, with class bookkeeping.
//! * [`Schedule`] — an explicit assignment of every job to a machine and an
//!   integral start time.
//! * [`validate()`](validate::validate) — an exact validator for the two overlap conditions of the
//!   problem definition (machine-exclusivity and resource-exclusivity).
//! * [`bounds`] — the lower bounds of the paper's Note 1 and Theorem 2:
//!   `T = max{⌈p(J)/m⌉, max_c p(c), p_(m) + p_(m+1)}`.
//! * [`frac`] — exact rational threshold comparisons (`p > (a/b)·T` without
//!   floating point), the backbone of the scaled case analysis in the 5/3-
//!   and 3/2-approximation algorithms.
//! * [`builder`] — a block-based schedule builder supporting the bottom- and
//!   top-aligned stack placements used throughout the paper's figures.
//! * [`render`] — an ASCII Gantt renderer in the visual style of the paper's
//!   Figures 1–4.
//!
//! All arithmetic is integral (`u64` times, `u128` intermediates); schedules
//! produced by the algorithm crates are *proved* valid by re-checking them
//! with [`validate::validate`] in tests rather than trusted by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod builder;
pub mod cancel;
pub mod canonical;
pub mod frac;
pub mod instance;
pub mod io;
pub mod render;
pub mod schedule;
pub mod stats;
pub mod validate;

pub use bounds::{lower_bound, LowerBounds};
pub use builder::{Block, ScheduleBuilder};
pub use cancel::CancelToken;
pub use canonical::{flat_canonical_instance, flat_fingerprint, CanonicalForm, CanonicalScratch};
pub use instance::{
    ClassId, Instance, InstanceBuilder, InstanceError, Job, JobId, MachineId, Time,
};
pub use schedule::{Assignment, Schedule};
pub use stats::{schedule_stats, ScheduleStats};
pub use validate::{validate, ValidationError};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::bounds::{lower_bound, LowerBounds};
    pub use crate::builder::{Block, ScheduleBuilder};
    pub use crate::instance::{ClassId, Instance, Job, JobId, MachineId, Time};
    pub use crate::schedule::{Assignment, Schedule};
    pub use crate::validate::{validate, ValidationError};
}
