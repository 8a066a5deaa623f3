//! # msrs-engine — solver-portfolio orchestration for MSRS
//!
//! The algorithm crates of this workspace implement the solver zoo of
//! *Scheduling with Many Shared Resources* (Deppert et al., 2023); this crate
//! is the layer that *serves* them:
//!
//! * [`profile`] — classifies an [`Instance`](msrs_core::Instance) (size,
//!   machine count, class structure, huge-job presence) into an
//!   [`InstanceProfile`];
//! * [`portfolio`] — plans a solver portfolio for a profile:
//!   [`SolverKind::FiveThirds`] as an instant incumbent,
//!   [`SolverKind::ThreeHalves`] for a certified 1.5·T horizon, the exact
//!   branch-and-bound and the EPTAS raced under configurable node budgets on
//!   instances where they are viable, and the prior-work baselines
//!   (Hebrard-style greedy, list scheduling, class-merging LPT) as cheap
//!   quality/latency trade-off probes;
//! * [`engine`] — the [`Engine`]: runs each solve's portfolio members one
//!   after another and whole *batches* in parallel on worker threads,
//!   deterministically for a fixed configuration, with optional wall-clock
//!   deadline cancellation, and selects the best schedule *certified* by
//!   re-validation through [`msrs_core::validate()`];
//! * [`report`] — the typed [`SolveRequest`] / [`SolveReport`] API (solver
//!   used, makespan, lower bound, certified horizon/ratio, wall time, one
//!   [`SolverRun`] per portfolio member), suitable for a service frontend;
//! * [`json`] + [`jsonl`] — dependency-free JSON emission/parsing and the
//!   JSON-lines instance/report corpus format used by the `msrs` CLI;
//! * [`families`] — the named generator families (re-using `msrs-gen`) the
//!   CLI's `gen` and `bench` subcommands draw from;
//! * [`telemetry`] (re-export of `msrs-telemetry`) — the process-global
//!   metrics registry every layer above records into: counters, gauges,
//!   stage-latency histograms for each data-plane hop, and the
//!   per-(profile, member) outcome table fed by every solve. Recording
//!   never allocates; [`telemetry::snapshot()`] materializes a point-in-time
//!   view for reporting.
//!
//! ## Determinism
//!
//! Every solver in the portfolio is deterministic, and batch parallelism —
//! running on the workspace's work-distributing `rayon` backend — only
//! fans *instances* out across pool workers: each instance's report is
//! computed sequentially by a single worker with a fixed configuration, and
//! collection is order-preserving, so every report field except the
//! `wall_micros` timings is bit-identical regardless of thread count. The
//! only opt-in source of result nondeterminism is a wall-clock deadline
//! ([`EngineConfig::deadline`]), enforced *cooperatively inside* the
//! unbounded members (exact branch-and-bound, EPTAS) via a shared
//! [`CancelToken`](msrs_core::CancelToken), which may cut off slow members
//! on a loaded machine.
//!
//! ## Example
//!
//! ```
//! use msrs_engine::{Engine, EngineConfig, SolveRequest};
//!
//! let inst = msrs_gen::uniform(7, 4, 60, 10, 1, 50);
//! let engine = Engine::new(EngineConfig::default());
//! let report = engine.solve(&SolveRequest::new(inst.clone()));
//! assert!(msrs_core::validate(&inst, &report.schedule).is_ok());
//! assert!(report.makespan <= report.certified_horizon);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cachestore;
pub mod checkpoint;
pub mod dispatch;
pub mod engine;
pub mod families;
mod journal;
pub mod json;
pub mod jsonl;
pub mod portfolio;
pub mod profile;
pub mod remote;
pub mod report;
pub mod service;
pub mod stream;

pub use msrs_telemetry as telemetry;

pub use cache::{CacheKey, ReportCache};
pub use cachestore::{CacheLoadStats, CacheStore, CacheStoreEntry};
pub use checkpoint::{CheckpointHeader, CheckpointLog, ShardRecord, ShardStats};
pub use dispatch::{dispatch_fleet, run_worker, DispatchConfig, DispatchOutcome, QuarantinedShard};
pub use engine::{Engine, EngineConfig, EptasPolicy, ExactPolicy, DEFAULT_CACHE_CAPACITY};
pub use families::{family, family_names, FamilySpec};
pub use jsonl::LineDecoder;
pub use portfolio::{plan, Portfolio, SolverKind};
pub use profile::{classify, InstanceProfile, SizeTier};
pub use remote::{run_remote_worker, RemoteHub, RemoteWorkerConfig, REMOTE_PROTO_VERSION};
pub use report::{RunStatus, SolveReport, SolveRequest, SolverRun};
pub use stream::{JsonlServer, ServiceCore, StreamOutcome, StreamStats, DEFAULT_SHARD_SIZE};
