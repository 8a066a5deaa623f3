//! # msrs-exact — exact branch-and-bound solver for small MSRS instances
//!
//! Ground truth for the empirical approximation-ratio experiments (E4): an
//! event-driven branch-and-bound over *semi-active* schedules.
//!
//! ## Completeness
//!
//! Any feasible schedule can be left-shifted (each job moved to the maximum
//! of its machine predecessor's and class predecessor's completion) without
//! increasing the makespan; in the fixpoint every start time is 0 or the
//! completion time of another job. The search therefore branches
//! chronologically over *events* (time 0 and job completions): at each event
//! it picks every subset of available classes (class not currently running)
//! of size at most the number of idle machines, every distinct remaining job
//! size per chosen class, and also the "start nothing, wait" branch — which
//! exactly enumerates all semi-active schedules.
//!
//! ## Bounding, symmetry, and parallelism
//!
//! Nodes are pruned against the incumbent via two lower bounds (area bound
//! over remaining + running load; per-class serialization bound) and a
//! class-symmetry dominance rule: two idle classes with identical remaining
//! size multisets are interchangeable, so only the lowest-labelled one is
//! branched on ([`BoundConfig::symmetry`]; E9 ablates all three). The
//! incumbent is seeded with the best of `Algorithm_3/2`, `Algorithm_5/3` and
//! the baselines — or a caller-provided schedule via [`solve_warm`] — stored
//! in an atomic (guide: *Rust Atomics and Locks*) and shared across
//! rayon-parallelized root branches, which borrow the instance, the
//! token and the shared search state for the one parallel operation.
//!
//! ## The allocation-free hot loop
//!
//! The search mutates a single `Node` per task and *undoes* each branch on
//! backtrack instead of cloning child nodes; candidate lists live in
//! per-depth scratch buffers that are reused across siblings. After warmup
//! the node loop performs no heap allocation. Node accounting against the
//! shared budget is batched: each task *reserves* up to
//! [`CHECK_MASK`]` + 1` node slots from the shared `AtomicU64` at a time,
//! spends them locally, and returns unused slots on exit — one atomic RMW
//! and one [`CancelToken`] poll per `CHECK_MASK + 1` nodes instead of
//! per-node traffic, with the final counter still equal to the exact number
//! of explored nodes.
//!
//! ## Cancellation
//!
//! [`solve`] / [`solve_configured`] accept a [`CancelToken`]; tasks poll it
//! when replenishing their node reservation (every at most
//! [`CHECK_MASK`]` + 1` nodes) and unwind cooperatively, so a wall-clock
//! deadline bounds the search's runtime (status [`SolveOutcome::Cancelled`])
//! instead of letting a large node budget blow past it. [`optimal`] keeps
//! the budget-only interface.
//!
//! ## Determinism
//!
//! The proven *makespan* is deterministic regardless of thread count. With
//! more than one ambient pool thread, however, the root branches race on
//! the shared incumbent, so the explored-`nodes` count, tie-broken optimal
//! *schedules*, and Optimal-vs-Exhausted outcomes near the node budget can
//! vary run to run. Callers needing bit-reproducible results (the engine's
//! report paths, the E9 node-count ablation) pin the solve to one thread
//! via `rayon::ThreadPoolBuilder::new().num_threads(1).build()?.install(…)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use rayon::prelude::*;

use msrs_core::cancel::{CancelToken, CHECK_MASK};
use msrs_core::{
    bounds::lower_bound, validate, Assignment, ClassId, Instance, MachineId, Schedule, Time,
};

/// Resource limits for the exact search.
#[derive(Debug, Clone, Copy)]
pub struct SolveLimits {
    /// Maximum number of search nodes before giving up.
    pub max_nodes: u64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            max_nodes: 20_000_000,
        }
    }
}

/// Terminal state of a cancellable exact solve (see [`solve`]).
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// The search completed: makespan proven optimal.
    Optimal(ExactResult),
    /// The node budget ran out before a proof.
    Exhausted {
        /// Nodes explored before giving up.
        nodes: u64,
    },
    /// The [`CancelToken`] fired (deadline or explicit cancellation) before
    /// a proof; the search unwound cooperatively within
    /// [`CHECK_MASK`]` + 1` nodes of the trigger.
    Cancelled {
        /// Nodes explored before cancellation.
        nodes: u64,
    },
}

/// Which pruning devices cut the search — ablation knob for the E9
/// experiment (all enabled by default; disabling one shows how much work
/// that device saves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundConfig {
    /// The area bound `t + ⌈(remaining + running residual)/m⌉`.
    pub area: bool,
    /// The per-class serialization bound `class_end + class_remaining`.
    pub class_serialization: bool,
    /// Class-symmetry dominance: at any node, two idle classes with
    /// identical remaining size multisets are interchangeable (swapping
    /// their labels is a state isomorphism), so candidates of the
    /// higher-labelled class are skipped. Sound for the proven makespan;
    /// collapses the factorial blowup of instances with many identical
    /// classes.
    pub symmetry: bool,
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig {
            area: true,
            class_serialization: true,
            symmetry: true,
        }
    }
}

/// Outcome of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The optimal makespan.
    pub makespan: Time,
    /// An optimal schedule witnessing it.
    pub schedule: Schedule,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
}

/// State the root-branch tasks of one solve share by reference. It lives on
/// the solve's stack and borrows the caller's cancellation token.
struct Shared<'a> {
    m: usize,
    bounds: BoundConfig,
    best: AtomicU64,
    best_schedule: Mutex<Schedule>,
    nodes: AtomicU64,
    max_nodes: u64,
    overflowed: AtomicBool,
    cancel: Option<&'a CancelToken>,
    cancelled: AtomicBool,
}

/// One job still to schedule: `(size, original job id)`.
type Pending = (Time, usize);

#[derive(Clone)]
struct Node {
    /// Current event time.
    t: Time,
    /// Running jobs: `(class, end, machine)`, unordered (every consumer is
    /// order-insensitive, which is what lets undo re-push entries freely).
    running: Vec<(ClassId, Time, MachineId)>,
    /// Remaining jobs per class (sorted descending by size).
    remaining: Vec<Vec<Pending>>,
    /// Total remaining load.
    remaining_load: Time,
    /// Idle machines, sorted *descending* so the smallest id is an O(1)
    /// `pop()` in the hot loop.
    idle: Vec<MachineId>,
    /// Partial assignment (original job ids).
    partial: Vec<Option<Assignment>>,
    /// Canonical ordering: at the current event, only classes `≥ min_class`
    /// may start (start-sets at one time are enumerated in class order, so no
    /// set is explored twice).
    min_class: ClassId,
}

/// Everything needed to reverse one [`Node::apply_start`].
struct StartUndo {
    c: ClassId,
    i: usize,
    p: Time,
    job: usize,
    machine: MachineId,
    old_min_class: ClassId,
}

/// Everything needed to reverse one [`Node::apply_advance`]; the suspended
/// running entries themselves live on the shared `resumed` scratch stack.
struct AdvanceUndo {
    old_t: Time,
    old_min_class: ClassId,
    completed: usize,
}

impl Node {
    fn is_done(&self) -> bool {
        self.remaining_load_count() == 0
    }

    fn remaining_load_count(&self) -> usize {
        self.remaining.iter().map(Vec::len).sum()
    }

    fn makespan_now(&self) -> Time {
        self.running
            .iter()
            .map(|&(_, e, _)| e)
            .max()
            .unwrap_or(self.t)
    }

    /// Lower bound on any completion of this node.
    fn bound(&self, m: usize, cfg: BoundConfig) -> Time {
        let mut lb = self.makespan_now();
        // Area bound: remaining load plus running residuals over m machines.
        if cfg.area {
            let residual: Time = self
                .running
                .iter()
                .map(|&(_, e, _)| e.saturating_sub(self.t))
                .sum();
            lb = lb.max(self.t + (self.remaining_load + residual).div_ceil(m as Time));
        }
        if !cfg.class_serialization {
            return lb;
        }
        // Class serialization bound.
        for (c, jobs) in self.remaining.iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let class_end = self
                .running
                .iter()
                .filter(|&&(rc, _, _)| rc == c)
                .map(|&(_, e, _)| e)
                .max()
                .unwrap_or(self.t)
                .max(self.t);
            let load: Time = jobs.iter().map(|&(p, _)| p).sum();
            lb = lb.max(class_end + load);
        }
        lb
    }

    fn class_running(&self, c: ClassId) -> bool {
        self.running.iter().any(|&(rc, _, _)| rc == c)
    }

    /// Starts candidate `(c, i)` now: consumes the smallest idle machine and
    /// the `i`-th remaining job of class `c`. Reversed by [`Node::undo_start`].
    fn apply_start(&mut self, c: ClassId, i: usize) -> StartUndo {
        let machine = self.idle.pop().expect("caller checked an idle machine");
        let (p, job) = self.remaining[c].remove(i);
        self.remaining_load -= p;
        self.partial[job] = Some(Assignment {
            machine,
            start: self.t,
        });
        self.running.push((c, self.t + p, machine));
        let old_min_class = self.min_class;
        self.min_class = c + 1;
        StartUndo {
            c,
            i,
            p,
            job,
            machine,
            old_min_class,
        }
    }

    fn undo_start(&mut self, u: StartUndo) {
        self.min_class = u.old_min_class;
        // The entry may no longer be last: a child's advance/undo cycle
        // restores `running` as a multiset, not in order. The machine id
        // identifies it uniquely (one running job per machine).
        let pos = self
            .running
            .iter()
            .position(|&(_, _, m)| m == u.machine)
            .expect("started job is still running at undo");
        self.running.swap_remove(pos);
        self.partial[u.job] = None;
        self.remaining_load += u.p;
        self.remaining[u.c].insert(u.i, (u.p, u.job));
        self.idle.push(u.machine);
    }

    /// Advances to the next completion event, parking the completed running
    /// entries on `resumed` for the undo. Returns `None` if no job is
    /// running (a dead end when work remains).
    fn apply_advance(
        &mut self,
        resumed: &mut Vec<(ClassId, Time, MachineId)>,
    ) -> Option<AdvanceUndo> {
        let next = self.running.iter().map(|&(_, e, _)| e).min()?;
        let old_t = self.t;
        self.t = next;
        let mut completed = 0usize;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].1 <= next {
                let entry = self.running.swap_remove(i);
                self.idle.push(entry.2);
                resumed.push(entry);
                completed += 1;
            } else {
                i += 1;
            }
        }
        // Descending, so the smallest idle machine stays an O(1) pop.
        self.idle.sort_unstable_by(|a, b| b.cmp(a));
        let old_min_class = self.min_class;
        self.min_class = 0;
        Some(AdvanceUndo {
            old_t,
            old_min_class,
            completed,
        })
    }

    fn undo_advance(&mut self, u: AdvanceUndo, resumed: &mut Vec<(ClassId, Time, MachineId)>) {
        self.min_class = u.old_min_class;
        self.t = u.old_t;
        for _ in 0..u.completed {
            let entry = resumed.pop().expect("undo stack balanced");
            let pos = self
                .idle
                .iter()
                .position(|&m| m == entry.2)
                .expect("machine was idled by the advance");
            // Removing the re-busied machines from the sorted union restores
            // the previous (still sorted) idle list.
            self.idle.remove(pos);
            self.running.push(entry);
        }
    }
}

/// Candidate starts at the current event, written into the caller's scratch
/// buffer: one (class, index-of-distinct-size) choice per class, skipping
/// classes dominated by an identical lower-labelled idle class when
/// `cfg.symmetry` is on.
fn candidate_starts_into(
    node: &Node,
    best: Time,
    cfg: BoundConfig,
    out: &mut Vec<(ClassId, usize)>,
) {
    out.clear();
    'classes: for (c, jobs) in node.remaining.iter().enumerate().skip(node.min_class) {
        if jobs.is_empty() {
            continue;
        }
        if node.class_running(c) {
            continue; // class busy
        }
        if cfg.symmetry {
            // Dominance: an idle class c' < c with the identical remaining
            // multiset makes every c-branch isomorphic (swap the labels of
            // c and c') to a branch already enumerated for c'.
            for (c2, jobs2) in node.remaining.iter().enumerate().take(c) {
                if jobs2.len() == jobs.len()
                    && !jobs2.is_empty()
                    && jobs2
                        .iter()
                        .map(|&(p, _)| p)
                        .eq(jobs.iter().map(|&(p, _)| p))
                    && !node.class_running(c2)
                {
                    continue 'classes;
                }
            }
        }
        let mut last_size = None;
        for (i, &(p, _)) in jobs.iter().enumerate() {
            if last_size == Some(p) {
                continue; // identical jobs are interchangeable
            }
            last_size = Some(p);
            if node.t + p < best {
                out.push((c, i));
            }
        }
    }
}

/// One root-branch task: a mutable [`Node`] with undo stacks, per-depth
/// candidate scratch buffers, and a locally batched slice of the shared
/// node budget.
struct Search<'b> {
    sh: &'b Shared<'b>,
    node: Node,
    /// Per-depth candidate buffers, reused across sibling subtrees.
    cands: Vec<Vec<(ClassId, usize)>>,
    /// Scratch stack of running entries suspended by in-flight advances.
    resumed: Vec<(ClassId, Time, MachineId)>,
    /// Node slots reserved from `sh.nodes` but not yet spent.
    reserved: u64,
    /// Terminal flag (budget exhausted or cancelled) — unwinds the task.
    stop: bool,
}

impl<'b> Search<'b> {
    fn new(sh: &'b Shared<'b>, node: Node) -> Self {
        Search {
            sh,
            node,
            cands: Vec::new(),
            resumed: Vec::new(),
            reserved: 0,
            stop: false,
        }
    }

    /// Spends one node slot, replenishing the local reservation from the
    /// shared counter (and polling cancellation) every `CHECK_MASK + 1`
    /// nodes at most. Returns `false` when the task must unwind.
    fn take_node(&mut self) -> bool {
        if self.stop {
            return false;
        }
        if self.reserved == 0 && !self.replenish() {
            self.stop = true;
            return false;
        }
        self.reserved -= 1;
        true
    }

    /// Reserves up to `CHECK_MASK + 1` node slots. The one place the task
    /// touches shared state: one atomic RMW plus one cancellation poll per
    /// batch.
    fn replenish(&mut self) -> bool {
        if self.sh.overflowed.load(Ordering::Relaxed) || self.sh.cancelled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(token) = self.sh.cancel.as_ref() {
            if token.is_cancelled() {
                self.sh.cancelled.store(true, Ordering::Relaxed);
                return false;
            }
        }
        let chunk = CHECK_MASK + 1;
        let base = self.sh.nodes.fetch_add(chunk, Ordering::Relaxed);
        if base >= self.sh.max_nodes {
            self.sh.nodes.fetch_sub(chunk, Ordering::Relaxed);
            self.sh.overflowed.store(true, Ordering::Relaxed);
            return false;
        }
        let usable = chunk.min(self.sh.max_nodes - base);
        if usable < chunk {
            // Give back the slice beyond the budget so the counter stays an
            // exact explored-node count.
            self.sh.nodes.fetch_sub(chunk - usable, Ordering::Relaxed);
        }
        self.reserved = usable;
        true
    }

    /// Returns unspent reservation to the shared counter (task exit).
    fn finish(&mut self) {
        if self.reserved > 0 {
            self.sh.nodes.fetch_sub(self.reserved, Ordering::Relaxed);
            self.reserved = 0;
        }
    }

    fn record_incumbent(&self) {
        let cmax = self.node.makespan_now();
        if cmax < self.sh.best.fetch_min(cmax, Ordering::Relaxed) {
            let assignments: Vec<Assignment> = self
                .node
                .partial
                .iter()
                .map(|a| a.expect("done node has all jobs placed"))
                .collect();
            let mut guard = self.sh.best_schedule.lock();
            // Re-check under the lock (another thread may have won the race).
            if cmax <= self.sh.best.load(Ordering::Relaxed) {
                *guard = Schedule::new(assignments);
            }
        }
    }

    fn dfs(&mut self, depth: usize) {
        if !self.take_node() {
            return;
        }
        let best = self.sh.best.load(Ordering::Relaxed);
        if self.node.bound(self.sh.m, self.sh.bounds) >= best {
            return;
        }
        if self.node.is_done() {
            self.record_incumbent();
            return;
        }

        if self.cands.len() <= depth {
            self.cands.push(Vec::new());
        }
        let mut cands = std::mem::take(&mut self.cands[depth]);
        candidate_starts_into(&self.node, best, self.sh.bounds, &mut cands);
        // Branch 1..k: start one candidate now (the recursion re-enters this
        // function at the same time t with the machine consumed, which
        // composes to all subsets of candidates).
        if !self.node.idle.is_empty() {
            for &(c, i) in &cands {
                let undo = self.node.apply_start(c, i);
                self.dfs(depth + 1);
                self.node.undo_start(undo);
                if self.stop {
                    break;
                }
            }
        }
        // Branch 0: start nothing (more) at this event; wait for the next
        // completion.
        if !self.stop {
            if let Some(undo) = self.node.apply_advance(&mut self.resumed) {
                self.dfs(depth + 1);
                self.node.undo_advance(undo, &mut self.resumed);
            }
        }
        // Return the candidate buffer for reuse by the next sibling.
        self.cands[depth] = cands;
    }
}

fn initial_incumbent(inst: &Instance) -> (Time, Schedule) {
    let mut best: Option<(Time, Schedule)> = None;
    for r in [
        msrs_approx::three_halves(inst),
        msrs_approx::five_thirds(inst),
        msrs_approx::baselines::merged_lpt(inst),
        msrs_approx::baselines::hebrard_greedy(inst),
        msrs_approx::baselines::list_scheduler(inst),
    ] {
        debug_assert_eq!(validate(inst, &r.schedule), Ok(()));
        let c = r.schedule.makespan(inst);
        if best.as_ref().is_none_or(|(b, _)| c < *b) {
            best = Some((c, r.schedule));
        }
    }
    best.expect("at least one heuristic result")
}

/// Computes the optimal makespan and an optimal schedule, or `None` if the
/// node budget is exhausted first.
pub fn optimal(inst: &Instance, limits: SolveLimits) -> Option<ExactResult> {
    optimal_configured(inst, limits, BoundConfig::default())
}

/// As [`optimal`], with explicit pruning-bound configuration (E9 ablation).
pub fn optimal_configured(
    inst: &Instance,
    limits: SolveLimits,
    bounds: BoundConfig,
) -> Option<ExactResult> {
    match solve_configured(inst, limits, bounds, None) {
        SolveOutcome::Optimal(res) => Some(res),
        SolveOutcome::Exhausted { .. } | SolveOutcome::Cancelled { .. } => None,
    }
}

/// Cancellable exact solve with default pruning bounds: as [`optimal`], but
/// the search additionally polls `cancel` (when given) every
/// [`CHECK_MASK`]` + 1` nodes, so a wall-clock deadline bounds the runtime
/// of the solve itself rather than only being observed by the caller after
/// the fact.
pub fn solve(inst: &Instance, limits: SolveLimits, cancel: Option<&CancelToken>) -> SolveOutcome {
    solve_configured(inst, limits, BoundConfig::default(), cancel)
}

/// As [`solve`], with explicit pruning-bound configuration.
pub fn solve_configured(
    inst: &Instance,
    limits: SolveLimits,
    bounds: BoundConfig,
    cancel: Option<&CancelToken>,
) -> SolveOutcome {
    let incumbent = if inst.num_jobs() == 0 {
        (0, Schedule::new(vec![]))
    } else {
        initial_incumbent(inst)
    };
    solve_seeded(inst, limits, bounds, cancel, incumbent)
}

/// Warm-started exact solve: seeds the branch-and-bound incumbent from a
/// caller-provided schedule (e.g. the best heuristic schedule of a solver
/// portfolio, or a previous solve of a perturbed instance) instead of
/// recomputing the built-in heuristic incumbents. The tighter the seed, the
/// more of the tree the incumbent prunes — and when the seed already meets
/// the instance lower bound the search returns immediately with 0 nodes.
///
/// `incumbent` must be a valid schedule for `inst` (checked via
/// `debug_assert`; an invalid incumbent would make the "optimal" result
/// unsound).
pub fn solve_warm(
    inst: &Instance,
    limits: SolveLimits,
    cancel: Option<&CancelToken>,
    incumbent: &Schedule,
) -> SolveOutcome {
    solve_warm_configured(inst, limits, BoundConfig::default(), cancel, incumbent)
}

/// As [`solve_warm`], with explicit pruning-bound configuration.
pub fn solve_warm_configured(
    inst: &Instance,
    limits: SolveLimits,
    bounds: BoundConfig,
    cancel: Option<&CancelToken>,
    incumbent: &Schedule,
) -> SolveOutcome {
    debug_assert_eq!(validate(inst, incumbent), Ok(()));
    let ub = incumbent.makespan(inst);
    solve_seeded(inst, limits, bounds, cancel, (ub, incumbent.clone()))
}

fn solve_seeded(
    inst: &Instance,
    limits: SolveLimits,
    bounds: BoundConfig,
    cancel: Option<&CancelToken>,
    (ub, ub_schedule): (Time, Schedule),
) -> SolveOutcome {
    if inst.num_jobs() == 0 {
        return SolveOutcome::Optimal(ExactResult {
            makespan: 0,
            schedule: Schedule::new(vec![]),
            nodes: 0,
        });
    }
    let lb = lower_bound(inst);
    if ub == lb {
        return SolveOutcome::Optimal(ExactResult {
            makespan: ub,
            schedule: ub_schedule,
            nodes: 0,
        });
    }

    let m = inst.machines();
    // Seed the search state straight from the instance's flat storage: each
    // class is a contiguous (sizes, job ids) slice pair, so the per-class
    // pending lists are filled by one zip per span instead of a scatter
    // over the whole job table.
    let mut remaining: Vec<Vec<Pending>> = Vec::with_capacity(inst.num_classes());
    let mut partial: Vec<Option<Assignment>> = vec![None; inst.num_jobs()];
    for c in 0..inst.num_classes() {
        let mut pending: Vec<Pending> = inst
            .class_sizes(c)
            .iter()
            .copied()
            .zip(inst.class_jobs(c).iter().copied())
            .filter(|&(p, _)| p > 0)
            .collect();
        pending.sort_unstable_by(|a, b| b.cmp(a));
        remaining.push(pending);
    }
    for (j, job) in inst.jobs().iter().enumerate() {
        if job.size == 0 {
            // Zero-size jobs never conflict; pin them at (machine 0, time 0).
            partial[j] = Some(Assignment {
                machine: 0,
                start: 0,
            });
        }
    }
    let remaining_load: Time = inst.total_load();

    let root = Node {
        t: 0,
        running: Vec::new(),
        remaining,
        remaining_load,
        idle: (0..m).rev().collect(),
        partial,
        min_class: 0,
    };
    let sh = Shared {
        m,
        bounds,
        best: AtomicU64::new(ub),
        best_schedule: Mutex::new(ub_schedule),
        nodes: AtomicU64::new(0),
        max_nodes: limits.max_nodes,
        overflowed: AtomicBool::new(false),
        cancel,
        cancelled: AtomicBool::new(false),
    };

    // Root branching: each first job choice is its own subtree. With more
    // than one ambient thread the branches fan out as parallel tasks
    // borrowing the state and the root node; single-threaded — the
    // engine always pins report-path solves to one thread — the branches
    // run through ONE mutable `Search` with the same apply/undo discipline
    // as the inner loop, so the root fan-out allocates no per-branch node
    // clones. Both paths explore the same nodes in the same order at one
    // thread, so node counts are unchanged.
    let best_now = sh.best.load(Ordering::Relaxed);
    let mut cands = Vec::new();
    candidate_starts_into(&root, best_now, bounds, &mut cands);
    if rayon::current_num_threads() <= 1 {
        let mut search = Search::new(&sh, root);
        for (c, i) in cands {
            let undo = search.node.apply_start(c, i);
            search.dfs(0);
            search.node.undo_start(undo);
            if search.stop {
                break;
            }
        }
        search.finish();
    } else {
        cands.into_par_iter().for_each(|(c, i)| {
            let mut search = Search::new(&sh, root.clone());
            search.node.apply_start(c, i);
            search.dfs(0);
            search.finish();
        });
    }

    let nodes = sh.nodes.load(Ordering::Relaxed);
    if sh.cancelled.load(Ordering::Relaxed) {
        return SolveOutcome::Cancelled { nodes };
    }
    if sh.overflowed.load(Ordering::Relaxed) {
        return SolveOutcome::Exhausted { nodes };
    }
    let makespan = sh.best.load(Ordering::Relaxed);
    let schedule = sh.best_schedule.into_inner();
    debug_assert_eq!(validate(inst, &schedule), Ok(()));
    debug_assert_eq!(schedule.makespan(inst), makespan);
    SolveOutcome::Optimal(ExactResult {
        makespan,
        schedule,
        nodes,
    })
}

/// Convenience wrapper with default limits; panics on budget exhaustion
/// (meant for small instances in tests and experiments).
pub fn optimal_makespan(inst: &Instance) -> Time {
    optimal(inst, SolveLimits::default())
        .expect("node budget exhausted — instance too large for exact solve")
        .makespan
}

/// Decision variant: is there a valid schedule with makespan at most `cap`?
/// Returns the witness schedule if so, `Ok(None)` if provably not, and
/// `Err(())` on node-budget exhaustion. Used by the PTAS cross-validation
/// and handy as a standalone oracle.
#[allow(clippy::result_unit_err)]
pub fn feasible_within(
    inst: &Instance,
    cap: Time,
    limits: SolveLimits,
) -> Result<Option<Schedule>, ()> {
    // Quick accepts: any heuristic witness within the cap.
    for r in [
        msrs_approx::three_halves(inst),
        msrs_approx::five_thirds(inst),
    ] {
        if r.schedule.makespan(inst) <= cap {
            return Ok(Some(r.schedule));
        }
    }
    match optimal(inst, limits) {
        Some(res) if res.makespan <= cap => Ok(Some(res.schedule)),
        Some(_) => Ok(None),
        None => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(m: usize, classes: &[Vec<Time>]) -> Time {
        let inst = Instance::from_classes(m, classes).unwrap();
        let r = optimal(&inst, SolveLimits::default()).expect("within budget");
        assert_eq!(validate(&inst, &r.schedule), Ok(()));
        assert_eq!(r.schedule.makespan(&inst), r.makespan);
        assert!(r.makespan >= lower_bound(&inst));
        r.makespan
    }

    #[test]
    fn single_machine_sums() {
        assert_eq!(opt(1, &[vec![3, 4], vec![5]]), 12);
    }

    #[test]
    fn partition_like() {
        // P2||Cmax on singleton classes: {3,3,2,2,2} → OPT 6.
        assert_eq!(opt(2, &[vec![3], vec![3], vec![2], vec![2], vec![2]]), 6);
    }

    #[test]
    fn class_serialization_forces_makespan() {
        // One class of three 4s on 3 machines must serialize: OPT 12.
        assert_eq!(opt(3, &[vec![4, 4, 4]]), 12);
    }

    #[test]
    fn interleaving_beats_merging() {
        // 3 classes of two unit jobs on 2 machines: OPT = 3 (interleave).
        assert_eq!(opt(2, &[vec![1, 1], vec![1, 1], vec![1, 1]]), 3);
    }

    #[test]
    fn deliberate_idling_needed() {
        // m=2, classes {3,3} and {3}: OPT 6; greedy that starts both 3s of
        // class 0 sequentially plus the other job still achieves 6 — check
        // exactness on a case where the area bound (5) is unreachable.
        assert_eq!(opt(2, &[vec![3, 3], vec![3]]), 6);
    }

    #[test]
    fn idling_strictly_helps() {
        // m=2: class A = {2,2}, class B = {2}, class C = {1,1}:
        // loads: A=4 serial, total 7 → area ⌈7/2⌉=4, class bound 4.
        // Feasible in 4: A on m0 [0,2),[2,4); B on m1 [0,2); C [2,3),[3,4)?
        // C jobs conflict: [2,3) and [3,4) on m1 sequential ✓ → OPT 4.
        assert_eq!(opt(2, &[vec![2, 2], vec![2], vec![1, 1]]), 4);
    }

    #[test]
    fn zero_sizes_ignored() {
        assert_eq!(opt(2, &[vec![0, 3], vec![3, 0]]), 3);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(2, vec![]).unwrap();
        assert_eq!(optimal(&inst, SolveLimits::default()).unwrap().makespan, 0);
    }

    #[test]
    fn feasibility_decision_agrees_with_optimum() {
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        let opt = optimal_makespan(&inst); // 10
        let yes = feasible_within(&inst, opt, SolveLimits::default()).unwrap();
        assert!(yes.is_some());
        let s = yes.unwrap();
        assert_eq!(validate(&inst, &s), Ok(()));
        assert!(s.makespan(&inst) <= opt);
        let no = feasible_within(&inst, opt - 1, SolveLimits::default()).unwrap();
        assert!(no.is_none());
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // Sizes 4,4,4,3,3 on two machines: lower bound 9 but OPT = 10, so
        // the incumbent cannot short-circuit and the search must run.
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        assert_eq!(opt(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]), 10);
        assert!(optimal(&inst, SolveLimits { max_nodes: 3 }).is_none());
    }

    /// Parity-gap partition (see [`msrs_gen::parity_gap_partition`]):
    /// OPT = T + 1 with a beyond-10⁸-node proof — minutes of work even for
    /// the allocation-free loop, and the all-distinct sizes give symmetry
    /// dominance no purchase.
    fn hard_distinct_instance() -> Instance {
        msrs_gen::parity_gap_partition(21)
    }

    #[test]
    fn cancellation_stops_a_long_search_quickly() {
        use std::time::{Duration, Instant};
        let inst = hard_distinct_instance();
        let token = CancelToken::after(Duration::from_millis(25));
        let started = Instant::now();
        let out = solve(
            &inst,
            SolveLimits {
                max_nodes: u64::MAX,
            },
            Some(&token),
        );
        let elapsed = started.elapsed();
        let SolveOutcome::Cancelled { nodes } = out else {
            panic!("expected cancellation, got {out:?} after {elapsed:?}");
        };
        assert!(nodes > 0);
        // Generous slack for loaded CI machines; the point is "milliseconds,
        // not the seconds the full proof needs".
        assert!(elapsed < Duration::from_secs(2), "overshoot: {elapsed:?}");
    }

    #[test]
    fn pre_cancelled_token_stops_at_the_first_check() {
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        let token = CancelToken::new();
        token.cancel();
        match solve(&inst, SolveLimits::default(), Some(&token)) {
            SolveOutcome::Cancelled { nodes } => assert!(nodes <= CHECK_MASK + 2),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn no_token_behaves_like_optimal() {
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        match solve(&inst, SolveLimits::default(), None) {
            SolveOutcome::Optimal(res) => assert_eq!(res.makespan, 10),
            other => panic!("expected optimal, got {other:?}"),
        }
        match solve(&inst, SolveLimits { max_nodes: 3 }, None) {
            SolveOutcome::Exhausted { nodes } => assert!(nodes >= 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn matches_brute_force_intuition_on_conflict_example() {
        // m=2; class {5,5} + class {5} + class {5}: area 10, per-class 10…
        // OPT: class0 serial [0,10) on m0; others on m1 [0,5),[5,10) → 10.
        assert_eq!(opt(2, &[vec![5, 5], vec![5], vec![5]]), 10);
    }

    #[test]
    fn symmetry_dominance_preserves_the_optimum() {
        // Families with many identical classes: the symmetric and
        // non-symmetric searches must prove the same makespan, with the
        // symmetric one exploring no more nodes.
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (2, vec![vec![4]; 7]),
            (2, vec![vec![3, 1]; 4]),
            (3, vec![vec![5], vec![5], vec![5], vec![2, 2], vec![2, 2]]),
            (2, vec![vec![4], vec![4], vec![4], vec![3], vec![3]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            let limits = SolveLimits {
                max_nodes: 50_000_000,
            };
            let with = optimal_configured(&inst, limits, BoundConfig::default()).expect("budget");
            let without = optimal_configured(
                &inst,
                limits,
                BoundConfig {
                    symmetry: false,
                    ..BoundConfig::default()
                },
            )
            .expect("budget");
            assert_eq!(with.makespan, without.makespan, "m={m}");
            assert_eq!(validate(&inst, &with.schedule), Ok(()));
            assert!(
                with.nodes <= without.nodes,
                "symmetry dominance explored more nodes ({} > {})",
                with.nodes,
                without.nodes
            );
        }
    }

    #[test]
    fn warm_start_with_optimal_incumbent_proves_in_zero_or_few_nodes() {
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        let cold = optimal(&inst, SolveLimits::default()).expect("budget");
        // Re-solve warm from the proven-optimal schedule: the incumbent
        // equals OPT, so the search only needs to certify (no improvement
        // possible ⇒ strictly fewer nodes than the cold run).
        let warm = match solve_warm(&inst, SolveLimits::default(), None, &cold.schedule) {
            SolveOutcome::Optimal(res) => res,
            other => panic!("expected optimal, got {other:?}"),
        };
        assert_eq!(warm.makespan, cold.makespan);
        assert_eq!(validate(&inst, &warm.schedule), Ok(()));
        assert!(
            warm.nodes <= cold.nodes,
            "warm start explored more nodes ({} > {})",
            warm.nodes,
            cold.nodes
        );
    }

    #[test]
    fn warm_start_from_a_heuristic_schedule_matches_cold_makespan() {
        for seed in 0..4u64 {
            let inst = msrs_gen::uniform(seed, 2, 7, 4, 1, 9);
            let heuristic = msrs_approx::three_halves(&inst).schedule;
            let warm = match solve_warm(&inst, SolveLimits::default(), None, &heuristic) {
                SolveOutcome::Optimal(res) => res,
                other => panic!("expected optimal, got {other:?}"),
            };
            let cold = optimal(&inst, SolveLimits::default()).expect("budget");
            assert_eq!(warm.makespan, cold.makespan, "seed {seed}");
        }
    }

    #[test]
    fn node_counter_is_exact_after_batched_accounting() {
        // The batched reservation must not leak: two identical 1-thread
        // runs report identical node counts, and a completed search's
        // count is the number of explored nodes (not a multiple of the
        // reservation chunk).
        let inst =
            Instance::from_classes(2, &[vec![4], vec![4], vec![4], vec![3], vec![3]]).unwrap();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        let a = one
            .install(|| optimal(&inst, SolveLimits::default()))
            .expect("budget");
        let b = one
            .install(|| optimal(&inst, SolveLimits::default()))
            .expect("budget");
        assert_eq!(a.nodes, b.nodes);
        assert!(a.nodes > 0);
    }

    #[test]
    fn approximations_respect_exact_bounds_small_sweep() {
        // For a small family: OPT/T ≥ 1 and algorithm ratios vs OPT within
        // their guarantees.
        let shapes: Vec<(usize, Vec<Vec<Time>>)> = vec![
            (2, vec![vec![4, 3], vec![5], vec![2, 2]]),
            (2, vec![vec![6, 5], vec![4, 4], vec![4, 4]]),
            (3, vec![vec![7, 7], vec![6, 6], vec![5, 5], vec![1]]),
            (2, vec![vec![9, 8], vec![5, 5, 5], vec![2]]),
        ];
        for (m, classes) in shapes {
            let inst = Instance::from_classes(m, &classes).unwrap();
            let o = optimal_makespan(&inst);
            let r53 = msrs_approx::five_thirds(&inst);
            let r32 = msrs_approx::three_halves(&inst);
            assert!(r53.lower_bound <= o, "T53 must lower-bound OPT");
            assert!(r32.lower_bound <= o, "T32 must lower-bound OPT");
            assert!(3 * r53.makespan(&inst) <= 5 * o, "5/3 vs OPT violated");
            assert!(2 * r32.makespan(&inst) <= 3 * o, "3/2 vs OPT violated");
        }
    }
}
