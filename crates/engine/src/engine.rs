//! The engine: portfolio/batch execution with certified selection.
//!
//! All parallelism runs on the workspace's `rayon` backend (the chunked
//! shared-queue scheduler in `vendor/rayon`): a miss batch fans its
//! distinct canonical instances out across the calling thread and helper
//! threads scoped to that one call, and each solve runs its portfolio
//! members one after another, in canonical order, on the thread that took
//! it. A member that panics is caught and reported as an `invalid` run;
//! the other members still answer. Deadlines are enforced
//! *cooperatively*: a [`CancelToken`] derived from
//! [`EngineConfig::deadline`] is threaded into every member, and the
//! unbounded solvers (exact branch-and-bound, EPTAS) poll it inside their
//! search loops — so the deadline bounds each member's runtime, not merely
//! when the engine stops waiting.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rayon::prelude::*;

use msrs_core::{validate, CancelToken, CanonicalForm, Instance, Schedule, Time};
use msrs_exact::{SolveLimits, SolveOutcome};
use msrs_ptas::EptasConfig;
use msrs_telemetry::{registry, OutcomeStatus, Stage};

use crate::cache::{CacheKey, ReportCache};
use crate::cachestore::{CacheLoadStats, CacheStore, StoreWriter};
use crate::journal::{fnv1a_64_extend, FNV_OFFSET};
use crate::portfolio::{plan, SolverKind};
use crate::profile::{classify, InstanceProfile, SizeTier};
use crate::report::{RunStatus, SolveReport, SolveRequest, SolverRun};

/// Outcome-table row labels: [`SizeTier`]s in [`SizeTier::index`] order.
const TIER_LABELS: [&str; 4] = ["trivial", "tiny", "small", "large"];
/// Outcome-table column labels: [`SolverKind`]s in [`SolverKind::index`]
/// order.
const MEMBER_LABELS: [&str; 7] = [
    "five_thirds",
    "three_halves",
    "hebrard_greedy",
    "list_scheduler",
    "merged_lpt",
    "exact",
    "eptas",
];

/// When the exact branch-and-bound is planned and how hard it tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactPolicy {
    /// Plan the exact solver only when `n ≤ max_jobs`.
    pub max_jobs: usize,
    /// … and the non-empty class count is `≤ max_classes`.
    pub max_classes: usize,
    /// Node budget; exhaustion yields [`RunStatus::Exhausted`].
    pub max_nodes: u64,
}

impl Default for ExactPolicy {
    fn default() -> Self {
        // Tied to the classifier's Tiny tier so `InstanceProfile.tier` and
        // the planned portfolio agree by construction.
        ExactPolicy {
            max_jobs: crate::profile::TINY_MAX_JOBS,
            max_classes: crate::profile::TINY_MAX_CLASSES,
            max_nodes: 3_000_000,
        }
    }
}

/// When the EPTAS is planned and with which parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptasPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Plan the EPTAS only when `n ≤ max_jobs`.
    pub max_jobs: usize,
    /// … and `m ≤ max_machines` (the engine uses the fixed-`m` variant so
    /// the schedule stays valid for the *original* machine count).
    pub max_machines: usize,
    /// `ε = 1/eps_k`.
    pub eps_k: u64,
    /// Node budget per layered decision.
    pub node_budget: u64,
}

impl Default for EptasPolicy {
    fn default() -> Self {
        // Tied to the classifier's Small tier (see ExactPolicy).
        EptasPolicy {
            enabled: true,
            max_jobs: crate::profile::SMALL_MAX_JOBS,
            max_machines: crate::profile::SMALL_MAX_MACHINES,
            eps_k: 3,
            node_budget: 300_000,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Threads that solve the instances of a batch in parallel: the caller
    /// plus helpers started for each parallel operation (the members of
    /// one solve always run one after another); `0` = the backend default
    /// (`MSRS_THREADS` or available parallelism).
    pub threads: usize,
    /// Optional wall-clock deadline per instance, enforced *inside* the
    /// unbounded members: the exact branch-and-bound and the EPTAS poll a
    /// shared [`CancelToken`] and unwind cooperatively, reporting
    /// [`RunStatus::TimedOut`] with their true (overshoot-free) wall time.
    /// The always-terminating members (the `O(|I|)` approximations and
    /// baselines) run to completion, so a report always carries a valid
    /// certified schedule and the total overshoot is bounded by one
    /// linear-time pass plus the cancellation-check granularity. **Opt-in
    /// nondeterminism** — leave `None` for bit-reproducible runs.
    pub deadline: Option<Duration>,
    /// Include the prior-work baselines in portfolios.
    pub run_baselines: bool,
    /// Capacity of the canonical-form result cache (reports); `0` disables
    /// caching *and* intra-batch dedup. The default comes from the
    /// `MSRS_CACHE` environment variable (`off`/`0` or unset → disabled,
    /// `on` → 1024, any number → that capacity), so a CI matrix can run
    /// the whole test suite cache-enabled without code changes. Cached
    /// reports are bit-identical to fresh ones except `cache_hit` and the
    /// `wall_micros` timings; with a [`deadline`](Self::deadline)
    /// configured (opt-in nondeterminism) the cache is bypassed entirely.
    pub cache_capacity: usize,
    /// Exact-solver policy.
    pub exact: ExactPolicy,
    /// EPTAS policy.
    pub eptas: EptasPolicy,
}

/// Default cache capacity when `MSRS_CACHE=on` and for the `msrs` CLI.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

fn cache_capacity_from_env() -> usize {
    match std::env::var("MSRS_CACHE") {
        Ok(v) if v.eq_ignore_ascii_case("off") => 0,
        // Any other set value means "cache wanted": a number is taken as
        // the capacity, everything else (`on`, but also typos like `true`)
        // falls back to the default capacity rather than silently
        // disabling the cache a CI matrix meant to enable.
        Ok(v) => v.parse().unwrap_or(DEFAULT_CACHE_CAPACITY),
        Err(_) => 0,
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            deadline: None,
            run_baselines: true,
            cache_capacity: cache_capacity_from_env(),
            exact: ExactPolicy::default(),
            eptas: EptasPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// The pool handle this configuration's parallel work runs on.
    fn pool(&self) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("pool handles are always constructible")
    }

    /// The cancellation token for one solve starting at `started`. A
    /// deadline too large to represent as an `Instant` (e.g.
    /// `--deadline-ms u64::MAX`) can never fire, so it degrades to no
    /// deadline instead of panicking on `Instant` overflow.
    fn cancel_token(&self, started: Instant) -> Option<CancelToken> {
        self.deadline
            .and_then(|d| started.checked_add(d))
            .map(CancelToken::with_deadline)
    }

    /// A stable fingerprint over every configuration field that can change
    /// *report content* (as opposed to timings): the solver policies and
    /// baseline participation. Thread count and cache capacity are
    /// deliberately excluded — reports are bit-identical across both — so
    /// cache entries stay valid across those knobs. Part of the
    /// [`CacheKey`].
    pub fn content_fingerprint(&self) -> u64 {
        // FNV-1a over the fields' little-endian words; stable across
        // platforms and runs, unlike `std::hash`.
        [
            self.run_baselines as u64,
            self.exact.max_jobs as u64,
            self.exact.max_classes as u64,
            self.exact.max_nodes,
            self.eptas.enabled as u64,
            self.eptas.max_jobs as u64,
            self.eptas.max_machines as u64,
            self.eptas.eps_k,
            self.eptas.node_budget,
        ]
        .iter()
        .fold(FNV_OFFSET, |h, word| {
            fnv1a_64_extend(h, &word.to_le_bytes())
        })
    }
}

/// The portfolio orchestrator. Construction is cheap; apart from the
/// result cache and the attached store (shared by clones, internally
/// synchronized) the engine is stateless between calls and `Sync`, so one
/// instance can serve many threads.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    cache: Arc<ReportCache>,
    /// The writer of the attached store; the last clone to drop joins it.
    store: Arc<Mutex<StoreWriter>>,
    /// [`EngineConfig::content_fingerprint`], precomputed once — the serve
    /// path builds one cache key per corpus line.
    config_fp: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

/// Where a request's report comes from, as decided when it is admitted.
pub(crate) enum Source {
    /// A cache hit: the shared canonical report.
    Cached(Arc<SolveReport>),
    /// Entry `index` of the miss batch handed to
    /// [`Engine::solve_canonical_batch`]; `dup` marks a later request for
    /// the same canonical form, answered as a cache hit.
    Miss { index: usize, dup: bool },
}

impl Source {
    /// The canonical report and whether it answers as a cache hit, given
    /// the miss batch's answers `solved`.
    pub(crate) fn resolve<'a>(
        &'a self,
        solved: &'a [(Arc<SolveReport>, bool)],
    ) -> (&'a Arc<SolveReport>, bool) {
        match self {
            Source::Cached(report) => (report, true),
            Source::Miss { index, dup } => {
                let (report, fresh) = &solved[*index];
                (report, *dup || !fresh)
            }
        }
    }
}

/// Everything a finished member hands back.
struct MemberOutcome {
    status: RunStatus,
    schedule: Option<Schedule>,
    makespan: Option<Time>,
    certified_horizon: Option<Time>,
    nodes: Option<u64>,
    wall_micros: u64,
}

impl MemberOutcome {
    /// A run that left no schedule: unstarted, panicked, out of budget, or
    /// invalid.
    fn without_schedule(status: RunStatus, nodes: Option<u64>) -> Self {
        MemberOutcome {
            status,
            schedule: None,
            makespan: None,
            certified_horizon: None,
            nodes,
            wall_micros: 0,
        }
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        // Label the telemetry outcome table once per process (first engine
        // wins; the labels are the same for every engine).
        msrs_telemetry::set_outcome_labels(&TIER_LABELS, &MEMBER_LABELS);
        let cache = Arc::new(ReportCache::new(cfg.cache_capacity));
        let config_fp = cfg.content_fingerprint();
        Engine {
            cfg,
            cache,
            store: Arc::default(),
            config_fp,
        }
    }

    /// Whether requests are served through the result cache: the cache has
    /// capacity and no deadline is configured (deadline results are
    /// wall-clock-dependent, so memoizing them would be unsound). When
    /// false, every request is solved: no dedup, no probe, no insert.
    pub(crate) fn cache_active(&self) -> bool {
        self.cache.enabled() && self.cfg.deadline.is_none()
    }

    /// The cache key of a canonical fingerprint under this configuration.
    fn key(&self, fingerprint: u128) -> CacheKey {
        CacheKey {
            instance: fingerprint,
            config: self.config_fp,
        }
    }

    /// Cache probe of the byte-level serve path: the canonical report for a
    /// decoded line, by fingerprint alone. Must only be called when
    /// [`cache_active`](Self::cache_active) is true.
    pub(crate) fn serve_cached(&self, fingerprint: u128) -> Option<Arc<SolveReport>> {
        self.cache.get(&self.key(fingerprint))
    }

    /// Accounts an in-shard duplicate the serve path answered at the byte
    /// level — the same event the typed batch counts via its dedup fan-out.
    pub(crate) fn count_serve_dedup_hit(&self) {
        self.cache.count_dedup_hit();
    }

    /// Metric-neutral cache probe by fingerprint: no hit/miss counters,
    /// no recency refresh. The fleet cache exchange uses this to decide
    /// what to ask the coordinator for without perturbing cache stats.
    pub(crate) fn serve_cached_peek(&self, fingerprint: u128) -> Option<Arc<SolveReport>> {
        self.cache.peek(&self.key(fingerprint))
    }

    /// Installs a canonical report fetched from the coordinator's shared
    /// cache under `fingerprint`, so subsequent lines serve it from the
    /// local fast path.
    pub(crate) fn serve_cache_install(&self, fingerprint: u128, report: Arc<SolveReport>) {
        self.cache.insert(self.key(fingerprint), report);
    }

    /// Attaches the durable cache store at `path` (`--cache-path`): loads
    /// every compatible record into the in-memory cache (warm restart),
    /// then starts the store's writer, which persists each miss batch's
    /// fresh solves. Returns the load statistics. Refuses a store written
    /// under a different engine-config fingerprint, and (before opening
    /// it) an inactive cache, which would never use the store.
    pub fn attach_cache_store(&self, path: &Path) -> io::Result<CacheLoadStats> {
        if !self.cache_active() {
            let why = "a cache store needs an active result cache (capacity above 0, no deadline)";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let (store, entries, stats) = CacheStore::open(path, self.config_fp)?;
        for entry in entries {
            self.cache.insert(self.key(entry.fingerprint), entry.report);
        }
        *self.store.lock() = StoreWriter::spawn(store);
        Ok(stats)
    }

    /// Detaches the attached store from every clone and joins its writer
    /// once it has synced each batch handed to it. `msrs serve` calls this
    /// after its last session ended, so no fresh solve it answered is left
    /// unsynced when the process exits; `msrs batch` calls it before its
    /// metrics snapshot, so the snapshot counts every flush.
    pub fn close_store(&self) {
        let writer = std::mem::take(&mut *self.store.lock());
        drop(writer);
    }

    /// Solves one request: a batch of one (see
    /// [`solve_batch`](Self::solve_batch)), so both give the same report.
    pub fn solve(&self, req: &SolveRequest) -> SolveReport {
        let mut reports = self.solve_batch(std::slice::from_ref(req));
        reports.pop().expect("one report per request")
    }

    /// Convenience: solve a bare instance.
    pub fn solve_instance(&self, inst: &Instance) -> SolveReport {
        self.solve(&SolveRequest::new(inst.clone()))
    }

    /// Solves a batch on the pool, one canonical instance per task.
    /// Reports come back in request order, and — with no deadline
    /// configured — every field except the `wall_micros` timings and
    /// `cache_hit` is identical regardless of thread count *and* of cache
    /// configuration: the pool's chunk boundaries depend only on the batch
    /// length, work distribution only decides *which worker* computes a
    /// report (each report is computed sequentially by a single worker),
    /// collection is order-preserving, and cached reports are replays of
    /// the same deterministic canonical solve.
    ///
    /// Every solve runs on the *canonical form* of the instance (sorted
    /// class multisets — order- and ID-insensitive) and the schedule is
    /// mapped back to the request's job ids, so relabelled duplicates
    /// receive identical reports and result caching is sound by
    /// construction. With the cache active the batch is additionally
    /// *deduplicated by canonical form*: each distinct uncached form is
    /// solved once (in first-occurrence order) and the report fanned out
    /// to every duplicate request, so a duplicate-heavy corpus collapses
    /// to its distinct-instance count.
    ///
    /// This is the typed reference the byte-level data plane
    /// ([`crate::stream::ServiceCore`]) is tested against: both hand their
    /// distinct canonical instances to the same engine call.
    pub fn solve_batch(&self, reqs: &[SolveRequest]) -> Vec<SolveReport> {
        let active = self.cache_active();
        let forms: Vec<CanonicalForm> = reqs
            .iter()
            .map(|req| {
                let _span = Stage::Canonicalize.span();
                CanonicalForm::of(&req.instance)
            })
            .collect();
        // Decided sequentially, so the hit/miss counters are deterministic
        // for a fixed engine + corpus.
        let mut sources: Vec<Source> = Vec::with_capacity(reqs.len());
        let mut misses: Vec<(u128, Instance)> = Vec::new();
        let mut first_of: HashMap<u128, usize> = HashMap::new();
        for form in &forms {
            let fp = form.fingerprint();
            if active {
                if let Some(&index) = first_of.get(&fp) {
                    self.cache.count_dedup_hit();
                    sources.push(Source::Miss { index, dup: true });
                    continue;
                }
                if let Some(report) = self.cache.get(&self.key(fp)) {
                    sources.push(Source::Cached(report));
                    continue;
                }
                first_of.insert(fp, misses.len());
            }
            let index = misses.len();
            sources.push(Source::Miss { index, dup: false });
            misses.push((fp, form.instance().clone()));
        }
        let solved = self.solve_canonical_batch(misses);
        reqs.iter()
            .zip(&forms)
            .zip(&sources)
            .map(|((req, form), source)| {
                // Hits report their fan-out (serving) cost, not the batch
                // duration; fresh reports keep their solve time.
                let served = Instant::now();
                let (report, cache_hit) = source.resolve(&solved);
                finalize((**report).clone(), form, req, cache_hit, served)
            })
            .collect()
    }

    /// The one miss path: answers a batch of canonical instances keyed by
    /// their fingerprints, returning each one's canonical report and
    /// whether it was solved here. With the cache active the entries must
    /// be distinct; each is re-probed with the metric-neutral
    /// [`ReportCache::peek`] (the caller already counted its probe, and a
    /// concurrent caller may have solved it since), the rest are solved in
    /// one parallel operation, and the fresh reports are inserted in batch
    /// order, then handed to the attached store's writer as one batch. With
    /// the cache inactive every entry is solved and nothing is inserted or
    /// stored.
    pub(crate) fn solve_canonical_batch(
        &self,
        forms: Vec<(u128, Instance)>,
    ) -> Vec<(Arc<SolveReport>, bool)> {
        let active = self.cache_active();
        let known: Vec<Option<Arc<SolveReport>>> = forms
            .iter()
            .map(|(fp, _)| active.then(|| self.cache.peek(&self.key(*fp))).flatten())
            .collect();
        let todo: Vec<usize> = (0..forms.len()).filter(|&i| known[i].is_none()).collect();
        let solved: Vec<SolveReport> = self.cfg.pool().install(|| {
            // Every task runs with nested parallelism pinned to one thread
            // (on the sequential path too), so a report — including
            // branch-and-bound node counts — is bit-identical at any
            // ambient thread count.
            todo.into_par_iter()
                .map(|i| solve_canonical(&self.cfg, &forms[i].1))
                .collect()
        });
        let mut solved = solved.into_iter();
        let mut fresh = Vec::new();
        let answers = known
            .into_iter()
            .zip(forms.iter())
            .map(|(known, (fp, _))| match known {
                Some(report) => (report, false),
                None => {
                    let report = Arc::new(solved.next().expect("one report per solve"));
                    if active {
                        self.cache.insert(self.key(*fp), Arc::clone(&report));
                        fresh.push((*fp, Arc::clone(&report)));
                    }
                    (report, true)
                }
            })
            .collect();
        if !fresh.is_empty() {
            self.store.lock().write(fresh);
        }
        answers
    }
}

/// Solves a canonical instance under `cfg`, producing the canonical
/// report (no id, canonical job numbering). This is the one member loop:
/// every planned member runs in canonical order on the calling thread.
fn solve_canonical(cfg: &EngineConfig, inst: &Instance) -> SolveReport {
    let (profile, portfolio) = {
        let _span = Stage::Plan.span();
        let profile = classify(inst);
        let portfolio = plan(&profile, cfg);
        (profile, portfolio)
    };
    let _span = Stage::MemberRace.span();
    let started = Instant::now();
    let cancel = cfg.cancel_token(started);
    let mut outcomes: Vec<(SolverKind, MemberOutcome)> = Vec::new();
    for (idx, &kind) in portfolio.members.iter().enumerate() {
        // Honour the deadline between members; the first member is always
        // run so the report carries a schedule. Members that *do* start
        // additionally poll the token inside their own search loops.
        if idx > 0 && cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            let unstarted = MemberOutcome::without_schedule(RunStatus::TimedOut, None);
            outcomes.push((kind, unstarted));
            continue;
        }
        // The exact member is warm-started from the best heuristic
        // schedule found so far (the members before it in canonical
        // order), seeding its incumbent without recomputing heuristics.
        let warm = if kind == SolverKind::Exact {
            best_completed_schedule(&outcomes)
        } else {
            None
        };
        // A panic is a bug in that one solver: it is reported as an
        // `Invalid` run, and the other members still answer.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_solver(kind, inst, cfg, cancel.as_ref(), warm.as_ref())
        }))
        .unwrap_or_else(|payload| {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solver panicked".into());
            let panicked = RunStatus::Invalid(format!("panic: {reason}"));
            MemberOutcome::without_schedule(panicked, None)
        });
        outcomes.push((kind, outcome));
    }
    assemble(&profile, outcomes, started)
}

/// The best (least-makespan) schedule among completed members so far — the
/// warm-start incumbent for the exact solver. Ties keep the earliest
/// member, so the choice is deterministic.
fn best_completed_schedule(outcomes: &[(SolverKind, MemberOutcome)]) -> Option<Schedule> {
    let mut best: Option<(Time, &Schedule)> = None;
    for (_, outcome) in outcomes {
        if outcome.status != RunStatus::Completed {
            continue;
        }
        let (Some(makespan), Some(schedule)) = (outcome.makespan, outcome.schedule.as_ref()) else {
            continue;
        };
        if best.is_none_or(|(b, _)| makespan < b) {
            best = Some((makespan, schedule));
        }
    }
    best.map(|(_, s)| s.clone())
}

/// Turns a canonical report into the caller-facing one: echoes the request
/// id, maps the schedule back to the request's job numbering, stamps the
/// cache provenance, and reports the true serving time.
fn finalize(
    mut canonical: SolveReport,
    form: &CanonicalForm,
    req: &SolveRequest,
    cache_hit: bool,
    started: Instant,
) -> SolveReport {
    registry().requests_total.inc();
    canonical.id = req.id.clone();
    canonical.schedule = form.schedule_to_original(&canonical.schedule);
    canonical.cache_hit = cache_hit;
    if cache_hit {
        canonical.wall_micros = started.elapsed().as_micros() as u64;
    }
    canonical
}

/// A member's raw answer: schedule + optional certified horizon, or a
/// terminal status (budget exhaustion).
type RawAnswer = Result<(Schedule, Option<Time>), RunStatus>;

/// Test-only fault injection: [`run_solver`] panics on these (machine
/// count, member) pairs. A static, not a thread-local: batch members run
/// on pool threads.
#[cfg(test)]
pub(crate) static INJECTED_PANICS: std::sync::Mutex<Vec<(usize, SolverKind)>> =
    std::sync::Mutex::new(Vec::new());

/// Runs one portfolio member, re-validating its output (defense in depth —
/// the engine never trusts a schedule it did not check). The unbounded
/// members (exact, EPTAS) poll `cancel` inside their search loops;
/// `wall_micros` always reports the member's true elapsed time, so timed-out
/// members show overshoot-free runtimes close to the configured deadline.
fn run_solver(
    kind: SolverKind,
    inst: &Instance,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    warm: Option<&Schedule>,
) -> MemberOutcome {
    #[cfg(test)]
    if INJECTED_PANICS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .contains(&(inst.machines(), kind))
    {
        panic!("injected {} panic", kind.name());
    }
    let started = Instant::now();
    let (result, nodes): (RawAnswer, Option<u64>) = match kind {
        SolverKind::FiveThirds => {
            let r = msrs_approx::five_thirds(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::ThreeHalves => {
            let r = msrs_approx::three_halves(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::HebrardGreedy => {
            let r = msrs_approx::baselines::hebrard_greedy(inst);
            (Ok((r.schedule, None)), None)
        }
        SolverKind::ListScheduler => {
            let r = msrs_approx::baselines::list_scheduler(inst);
            (Ok((r.schedule, None)), None)
        }
        SolverKind::MergedLpt => {
            let r = msrs_approx::baselines::merged_lpt(inst);
            (Ok((r.schedule, None)), None)
        }
        SolverKind::Exact => {
            let limits = SolveLimits {
                max_nodes: cfg.exact.max_nodes,
            };
            // Warm-start from the portfolio's best heuristic schedule when
            // one is available — the search seeds its incumbent from it
            // instead of recomputing the built-in heuristics.
            let outcome = match warm {
                Some(schedule) => msrs_exact::solve_warm(inst, limits, cancel, schedule),
                None => msrs_exact::solve(inst, limits, cancel),
            };
            match outcome {
                // A completed exact run proves its makespan optimal, so
                // the makespan itself is the tightest possible horizon.
                SolveOutcome::Optimal(res) => {
                    (Ok((res.schedule, Some(res.makespan))), Some(res.nodes))
                }
                SolveOutcome::Exhausted { nodes } => (Err(RunStatus::Exhausted), Some(nodes)),
                SolveOutcome::Cancelled { nodes } => (Err(RunStatus::TimedOut), Some(nodes)),
            }
        }
        SolverKind::Eptas => {
            let eptas_cfg = EptasConfig {
                eps_k: cfg.eptas.eps_k,
                node_budget: cfg.eptas.node_budget,
            };
            let out = match cancel {
                Some(token) => msrs_ptas::eptas_fixed_m_cancellable(inst, eptas_cfg, token),
                None => Some(msrs_ptas::eptas_fixed_m(inst, eptas_cfg)),
            };
            match out {
                // The engine treats the EPTAS as a high-quality heuristic
                // probe: its (1+O(ε)) bound is relative to OPT with an
                // implementation-dependent constant, so no T-relative
                // horizon is certified here.
                Some(out) => (Ok((out.schedule, None)), None),
                None => (Err(RunStatus::TimedOut), None),
            }
        }
    };
    let outcome = match result {
        Err(status) => MemberOutcome::without_schedule(status, nodes),
        Ok((schedule, certified_horizon)) => match validate(inst, &schedule) {
            Ok(()) => {
                let makespan = schedule.makespan(inst);
                MemberOutcome {
                    status: RunStatus::Completed,
                    schedule: Some(schedule),
                    makespan: Some(makespan),
                    certified_horizon,
                    nodes,
                    wall_micros: 0,
                }
            }
            Err(e) => MemberOutcome::without_schedule(RunStatus::Invalid(e.to_string()), nodes),
        },
    };
    MemberOutcome {
        wall_micros: started.elapsed().as_micros() as u64,
        ..outcome
    }
}

/// Records every member run of one fresh canonical solve into the global
/// per-(profile, member) outcome table.
fn record_outcomes(tier: SizeTier, outcomes: &[(SolverKind, MemberOutcome)], winner: SolverKind) {
    for (kind, outcome) in outcomes {
        let status = match outcome.status {
            RunStatus::Completed => OutcomeStatus::Completed,
            RunStatus::TimedOut => OutcomeStatus::TimedOut,
            RunStatus::Exhausted => OutcomeStatus::Exhausted,
            RunStatus::Invalid(_) => OutcomeStatus::Invalid,
        };
        registry().outcomes.record(
            tier.index(),
            kind.index(),
            status,
            *kind == winner && outcome.status == RunStatus::Completed,
            outcome.nodes.unwrap_or(0),
            outcome.wall_micros,
        );
    }
}

/// Best-of selection and assembly of the canonical report (id and schedule
/// numbering are canonical; [`finalize`] maps them to the request).
fn assemble(
    profile: &InstanceProfile,
    outcomes: Vec<(SolverKind, MemberOutcome)>,
    started: Instant,
) -> SolveReport {
    // Winner: least makespan among completed members; ties keep the earliest
    // (canonical) member, making selection deterministic.
    let mut winner: Option<(SolverKind, Time)> = None;
    // Certificate: tightest a-priori horizon among completed certifying runs.
    let mut certificate: Option<(SolverKind, Time)> = None;
    let mut proven_optimal = false;
    for (kind, outcome) in &outcomes {
        if outcome.status != RunStatus::Completed {
            continue;
        }
        let makespan = outcome.makespan.expect("completed runs carry a makespan");
        if winner.is_none_or(|(_, best)| makespan < best) {
            winner = Some((*kind, makespan));
        }
        if let Some(h) = outcome.certified_horizon {
            if certificate.is_none_or(|(_, best)| h < best) {
                certificate = Some((*kind, h));
            }
        }
        if *kind == SolverKind::Exact {
            proven_optimal = true;
        }
    }
    // Both expectations hold whenever the certifying 5/3 member completed
    // (it always participates, is total, and carries a horizon); if it did
    // not, name every member's terminal status instead of a bare unwrap.
    let member_states = || -> String {
        outcomes
            .iter()
            .map(|(k, o)| format!("{}={}", k.name(), o.status.label()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (winner_kind, makespan) = winner.unwrap_or_else(|| {
        panic!(
            "no portfolio member produced a valid schedule ({})",
            member_states()
        )
    });
    let (certified_by, certified_horizon) = certificate
        .unwrap_or_else(|| panic!("no certifying member completed ({})", member_states()));
    // Feed the telemetry outcome table: one row per member of this fresh
    // canonical solve (cache hits replay a stored report without re-running
    // members, so they add nothing here — the table counts actual runs).
    record_outcomes(profile.tier, &outcomes, winner_kind);
    // Meeting the lower bound is an optimality proof in its own right
    // (T ≤ OPT ≤ makespan = T), independent of the exact member.
    let proven_optimal = proven_optimal || makespan == profile.lower_bound;
    let schedule = outcomes
        .iter()
        .find(|(kind, o)| *kind == winner_kind && o.status == RunStatus::Completed)
        .and_then(|(_, o)| o.schedule.clone())
        .expect("winner carries its schedule");
    let runs = outcomes
        .into_iter()
        .map(|(solver, o)| SolverRun {
            solver,
            status: o.status,
            makespan: o.makespan,
            certified_horizon: o.certified_horizon,
            nodes: o.nodes,
            wall_micros: o.wall_micros,
        })
        .collect();
    SolveReport {
        id: None,
        jobs: profile.jobs,
        machines: profile.machines,
        classes: profile.classes,
        lower_bound: profile.lower_bound,
        makespan,
        winner: winner_kind,
        certified_horizon,
        certified_by,
        proven_optimal,
        cache_hit: false,
        wall_micros: started.elapsed().as_micros() as u64,
        runs,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_match_enum_names() {
        for tier in SizeTier::ALL {
            assert_eq!(TIER_LABELS[tier.index()], tier.name());
        }
        for (i, kind) in SolverKind::all().iter().enumerate() {
            assert_eq!(MEMBER_LABELS[i], kind.name());
        }
    }

    /// The fingerprint keys cache stores, checkpoints and worker
    /// handshakes on disk and on the wire, so its value must never drift.
    #[test]
    fn content_fingerprint_is_pinned() {
        assert_eq!(
            EngineConfig::default().content_fingerprint(),
            11655608760495232640
        );
        let custom = EngineConfig {
            run_baselines: false,
            exact: ExactPolicy {
                max_nodes: 5_000,
                ..ExactPolicy::default()
            },
            eptas: EptasPolicy {
                enabled: false,
                eps_k: 3,
                ..EptasPolicy::default()
            },
            ..EngineConfig::default()
        };
        assert_eq!(custom.content_fingerprint(), 8364590082839757282);
    }

    #[test]
    fn solve_produces_a_certified_valid_schedule() {
        let inst = msrs_gen::uniform(11, 4, 60, 10, 1, 50);
        let engine = Engine::default();
        let report = engine.solve(&SolveRequest::with_id("u-11", inst.clone()));
        assert_eq!(validate(&inst, &report.schedule), Ok(()));
        assert_eq!(report.schedule.makespan(&inst), report.makespan);
        assert!(report.makespan <= report.certified_horizon);
        // The 3/2 algorithm always participates on non-trivial instances, so
        // the certificate is at most ⌊1.5·T⌋.
        assert!(report.certified_horizon as u128 * 2 <= 3 * report.lower_bound as u128);
        assert_eq!(report.id.as_deref(), Some("u-11"));
    }

    #[test]
    fn tiny_instances_are_proven_optimal() {
        let inst = Instance::from_classes(2, &[vec![4, 3], vec![5], vec![2, 2]]).unwrap();
        let report = Engine::default().solve_instance(&inst);
        assert!(report.proven_optimal);
        assert_eq!(
            report.certified_horizon, report.makespan,
            "exact horizon is OPT"
        );
        assert!(report.runs.iter().any(|r| r.solver == SolverKind::Exact
            && r.status == RunStatus::Completed
            && r.nodes.is_some()));
    }

    /// A report's JSON with every wall time zeroed.
    fn untimed(mut report: SolveReport) -> String {
        report.wall_micros = 0;
        report.runs.iter_mut().for_each(|run| run.wall_micros = 0);
        report.to_json().to_string()
    }

    #[test]
    fn a_panicking_member_is_an_invalid_run() {
        // No other test solves a 13-machine instance.
        let panicky = msrs_gen::uniform(5, 13, 120, 30, 1, 50);
        INJECTED_PANICS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((13, SolverKind::HebrardGreedy));
        let plain = |seed| msrs_gen::uniform(seed, 3, 30, 8, 1, 40);
        let reqs = [plain(1), panicky.clone(), plain(2)].map(SolveRequest::new);
        let cfg = EngineConfig {
            threads: 2,
            cache_capacity: 0,
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg.clone());
        let reports = engine.solve_batch(&reqs);
        assert_eq!(reports.len(), 3);
        for report in [reports[1].clone(), engine.solve(&reqs[1])] {
            let run = report
                .runs
                .iter()
                .find(|r| r.solver == SolverKind::HebrardGreedy)
                .expect("hebrard_greedy planned");
            assert!(
                matches!(&run.status, RunStatus::Invalid(why) if why.starts_with("panic:")),
                "{:?}",
                run.status
            );
            assert_eq!(validate(&panicky, &report.schedule), Ok(()));
            assert!(report.makespan <= report.certified_horizon);
        }
        for i in [0, 2] {
            let fresh = Engine::new(cfg.clone()).solve(&reqs[i]);
            assert_eq!(untimed(reports[i].clone()), untimed(fresh));
        }
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let reqs: Vec<SolveRequest> = (0..24)
            .map(|seed| {
                SolveRequest::with_id(
                    format!("u-{seed}"),
                    msrs_gen::uniform(seed, 3, 30, 8, 1, 40),
                )
            })
            .collect();
        let one = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        })
        .solve_batch(&reqs);
        let many = Engine::new(EngineConfig {
            threads: 8,
            ..EngineConfig::default()
        })
        .solve_batch(&reqs);
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.winner, b.winner);
            assert_eq!(a.certified_horizon, b.certified_horizon);
            assert_eq!(a.schedule, b.schedule);
        }
    }

    /// Parity-gap partition (see [`msrs_gen::parity_gap_partition`]):
    /// OPT = T + 1, the exact proof must sweep beyond 10⁸ nodes — minutes
    /// of work, with no class symmetry to exploit.
    fn hard_exact_instance() -> Instance {
        msrs_gen::parity_gap_partition(21)
    }

    #[test]
    fn deadline_bounds_the_exact_member_runtime() {
        let deadline = Duration::from_millis(50);
        let engine = Engine::new(EngineConfig {
            deadline: Some(deadline),
            exact: ExactPolicy {
                max_jobs: 32,
                max_classes: 32,
                max_nodes: u64::MAX,
            },
            ..EngineConfig::default()
        });
        let inst = hard_exact_instance();
        let started = Instant::now();
        let report = engine.solve_instance(&inst);
        let elapsed = started.elapsed();
        // Without in-run cancellation the exact member would run for
        // seconds (its node budget is unbounded); with it, the whole
        // portfolio lands within deadline + scheduling slack. The slack is
        // generous for loaded CI machines — the regression this guards
        // against is a multi-second overshoot.
        assert!(
            elapsed < Duration::from_secs(3),
            "deadline overshoot: {elapsed:?}"
        );
        let exact = report
            .runs
            .iter()
            .find(|r| r.solver == SolverKind::Exact)
            .expect("exact member planned");
        assert_eq!(exact.status, RunStatus::TimedOut);
        // Overshoot-free wall time: the member's own clock stopped near the
        // deadline, far below what the full proof needs.
        assert!(
            exact.wall_micros < 3_000_000,
            "timed-out member reports {} µs",
            exact.wall_micros
        );
        // A certified schedule is still delivered by the approximations.
        assert_eq!(validate(&inst, &report.schedule), Ok(()));
        assert!(report.makespan <= report.certified_horizon);
        assert!(!report.proven_optimal);
    }

    #[test]
    fn deadline_always_returns_a_schedule() {
        let engine = Engine::new(EngineConfig {
            deadline: Some(Duration::ZERO),
            ..EngineConfig::default()
        });
        let inst = msrs_gen::uniform(5, 4, 80, 12, 1, 60);
        let report = engine.solve_instance(&inst);
        assert_eq!(validate(&inst, &report.schedule), Ok(()));
        assert!(report.makespan <= report.certified_horizon);
    }

    #[test]
    fn absurdly_large_deadline_neither_panics_nor_times_out() {
        // `Instant + Duration::from_millis(u64::MAX)` would overflow; such
        // a deadline can never fire and must degrade to "no deadline".
        let engine = Engine::new(EngineConfig {
            deadline: Some(Duration::from_millis(u64::MAX)),
            ..EngineConfig::default()
        });
        let inst = msrs_gen::uniform(5, 4, 30, 8, 1, 40);
        let report = engine.solve_instance(&inst);
        assert_eq!(validate(&inst, &report.schedule), Ok(()));
        assert!(report.runs.iter().all(|r| r.status != RunStatus::TimedOut));
    }

    #[test]
    fn trivial_instance_short_circuits() {
        let inst = Instance::from_classes(4, &[vec![7], vec![3, 3]]).unwrap();
        let report = Engine::default().solve_instance(&inst);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.winner, SolverKind::FiveThirds);
        assert_eq!(report.makespan, 7, "one machine per class is optimal");
    }
}
