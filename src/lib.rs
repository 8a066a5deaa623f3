//! # msrs — Scheduling with Many Shared Resources
//!
//! A production-quality Rust implementation of
//! *"Scheduling with Many Shared Resources"* (Deppert, Jansen, Maack, Pukrop
//! & Rau, IPDPS/IPPS 2023; arXiv:2210.01523): makespan minimization on
//! identical machines where every job holds exactly one shared resource and
//! jobs of the same resource class may never run concurrently.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — problem model, schedules, exact validation, lower bounds,
//!   block-based schedule builder, ASCII Gantt rendering;
//! * [`gen`] — seeded workload generators (uniform/Zipf/satellite-downlink/
//!   photolithography/adversarial/boundary families, exhaustive enumerator);
//! * [`approx`] — the paper's 5/3- and 3/2-approximations plus the
//!   `2m/(m+1)`-style prior-work baselines;
//! * [`exact`] — an exact branch-and-bound solver for small instances;
//! * [`flow`] — Dinic max-flow and the Lemma 18 placeholder network (Fig 5);
//! * [`nfold`] — generalized N-fold integer programming machinery (§4.2);
//! * [`ptas`] — the EPTAS of Theorem 14, constant-`m` and
//!   resource-augmentation variants;
//! * [`multires`] — the multi-resource extension, DPLL SAT substrate, and
//!   the Theorem 23 inapproximability reduction;
//! * [`engine`] — the solver-portfolio orchestrator: instance
//!   classification, portfolio and parallel batch execution with
//!   deterministic reports, certified best-of selection, JSON-lines corpus
//!   I/O, and the `msrs` CLI (`gen` / `solve` / `batch` / `bench`).
//!
//! ## Quickstart
//!
//! ```
//! use msrs::prelude::*;
//!
//! // 2 machines; three resource classes with their job processing times.
//! let inst = Instance::from_classes(2, &[vec![4, 3], vec![5, 2], vec![6]]).unwrap();
//! let result = three_halves(&inst);
//! assert!(validate(&inst, &result.schedule).is_ok());
//! assert!(result.schedule.makespan(&inst) as f64 <= 1.5 * result.lower_bound as f64);
//! ```
//!
//! Or let the engine pick and race the right solvers:
//!
//! ```
//! use msrs::prelude::*;
//!
//! let inst = Instance::from_classes(2, &[vec![4, 3], vec![5, 2], vec![6]]).unwrap();
//! let report = Engine::default().solve_instance(&inst);
//! assert!(validate(&inst, &report.schedule).is_ok());
//! assert!(report.makespan <= report.certified_horizon);
//! assert!(report.proven_optimal); // tiny instance: the exact member finished
//! ```
//!
//! See README.md for the architecture overview, DESIGN.md for the full
//! system inventory and per-experiment index, and EXPERIMENTS.md for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use msrs_approx as approx;
pub use msrs_core as core;
pub use msrs_engine as engine;
pub use msrs_exact as exact;
pub use msrs_flow as flow;
pub use msrs_gen as gen;
pub use msrs_multires as multires;
pub use msrs_nfold as nfold;
pub use msrs_ptas as ptas;

/// The most common items in one import.
pub mod prelude {
    pub use msrs_approx::baselines::{hebrard_greedy, list_scheduler, merged_lpt};
    pub use msrs_approx::{five_thirds, three_halves, ApproxResult};
    pub use msrs_core::bounds::{lower_bound, lower_bounds, LowerBounds};
    pub use msrs_core::render::render_gantt;
    pub use msrs_core::{validate, Instance, Job, Schedule, Time};
    pub use msrs_engine::{Engine, EngineConfig, SolveReport, SolveRequest, SolverKind};
    pub use msrs_exact::{optimal, SolveLimits};
    pub use msrs_ptas::{eptas_augmented, eptas_fixed_m, EptasConfig};
}
