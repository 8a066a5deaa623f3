//! # msrs-telemetry — process-global, allocation-free metrics for MSRS
//!
//! The observability spine of the workspace: one const-initialized, static
//! [`Registry`] of atomic counters, gauges, log2-bucketed latency
//! [`Histogram`]s, per-hop data-plane [`Stage`] spans, and a
//! per-(profile, member) solver [`OutcomeTable`].
//!
//! ## Design contract
//!
//! * **Recording never allocates.** Every record path is a handful of relaxed
//!   atomic operations (plus `Instant::now()` for spans), so the serving data
//!   plane stays on the workspace's zero-allocation CI gate with telemetry
//!   enabled.
//! * **Snapshotting allocates.** [`snapshot()`] walks the registry into an
//!   owned [`Snapshot`] that can be rendered as JSON or Prometheus text
//!   exposition format. Take snapshots at batch boundaries, not per request.
//! * **std-only, `forbid(unsafe_code)`, no dependencies.** The crate sits at
//!   the bottom of the workspace graph so `msrs-core`, the vendored `rayon`
//!   pool, and `msrs-engine` can all record into the same registry.
//!
//! All cross-thread consistency is *per metric*: counters are exact (each
//! recorded event is counted exactly once), but a snapshot taken while other
//! threads record concurrently may observe metric A before and metric B after
//! a given event. Quiesce recording first when exact cross-metric agreement
//! matters (the CLI snapshots after the batch completes).
//!
//! ## Histograms without floats
//!
//! [`Histogram`] pre-allocates 65 buckets: bucket 0 counts zero-valued
//! samples and bucket `i ≥ 1` counts samples in `[2^(i-1), 2^i - 1]`.
//! Quantiles are derived in pure integer arithmetic — the reported
//! p50/p90/p99 is the *upper bound* of the first bucket whose cumulative
//! count reaches the rank, so quantiles are conservative (never
//! under-reported) and cost nothing to maintain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of histogram buckets: one zero bucket plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maximum number of distinct profile rows an [`OutcomeTable`] can hold.
pub const MAX_OUTCOME_PROFILES: usize = 8;

/// Maximum number of distinct portfolio-member columns an [`OutcomeTable`]
/// can hold.
pub const MAX_OUTCOME_MEMBERS: usize = 8;

/// A monotonically increasing event counter.
///
/// Recording is a single relaxed `fetch_add`; reads are racy-but-exact in
/// the sense that every `add` is eventually visible exactly once.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero (const, so counters can live in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (cache residency, live workers, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero (const, so gauges can live in statics).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Increase the gauge by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease the gauge by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram with exact count/sum/max side channels.
///
/// See the crate docs for the bucket layout; quantiles come from
/// [`HistogramSnapshot`], computed over a captured bucket array so one
/// snapshot is internally consistent.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (const, so histograms can live in statics).
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a sample: 0 for 0, else `bit_length(value)`
    /// (so bucket `i` covers `[2^(i-1), 2^i - 1]`, bucket 64 covers
    /// `[2^63, u64::MAX]`).
    #[inline]
    pub const fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive `(low, high)` sample range of bucket `index`.
    pub const fn bucket_bounds(index: usize) -> (u64, u64) {
        if index == 0 {
            (0, 0)
        } else if index >= 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (index - 1), (1u64 << index) - 1)
        }
    }

    /// Record one sample. Allocation-free: four relaxed atomic RMW ops.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps on overflow; µs/ns totals fit comfortably).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Capture an owned, internally consistent snapshot (allocates).
    pub fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot::from_buckets(name, buckets, self.sum(), self.max())
    }
}

/// Owned view of a [`Histogram`] with integer quantiles derived from the
/// captured buckets (count is the bucket sum, so quantiles, count, and
/// buckets always agree within one snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (unit is part of the name, e.g. `…_nanos`).
    pub name: &'static str,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Conservative median (upper bound of the p50 bucket).
    pub p50: u64,
    /// Conservative 90th percentile.
    pub p90: u64,
    /// Conservative 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(low, high, count)`, in increasing order.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    fn from_buckets(name: &'static str, raw: [u64; HISTOGRAM_BUCKETS], sum: u64, max: u64) -> Self {
        let count: u64 = raw.iter().sum();
        let quantile = |num: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Smallest rank that covers `num`% of the samples, then the
            // upper bound of the first bucket whose cumulative count
            // reaches that rank. Pure integer arithmetic.
            let target = (u128::from(count) * u128::from(num)).div_ceil(100);
            let mut cumulative = 0u128;
            for (i, &n) in raw.iter().enumerate() {
                cumulative += u128::from(n);
                if cumulative >= target {
                    return Histogram::bucket_bounds(i).1;
                }
            }
            Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1
        };
        let buckets = raw
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Histogram::bucket_bounds(i);
                (lo, hi, n)
            })
            .collect();
        HistogramSnapshot {
            name,
            count,
            sum,
            max,
            p50: quantile(50),
            p90: quantile(90),
            p99: quantile(99),
            buckets,
        }
    }
}

/// One hop of the serving data plane, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// JSONL line → typed instance.
    Decode,
    /// Instance → canonical form + fingerprint.
    Canonicalize,
    /// Canonical-form cache probe.
    CacheLookup,
    /// Instance classification + portfolio planning.
    Plan,
    /// Running the planned portfolio members.
    MemberRace,
    /// Report → output bytes.
    Serialize,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::Canonicalize,
        Stage::CacheLookup,
        Stage::Plan,
        Stage::MemberRace,
        Stage::Serialize,
    ];

    /// Registry/Prometheus metric name for this stage's histogram.
    pub const fn metric_name(self) -> &'static str {
        match self {
            Stage::Decode => "msrs_stage_decode_nanos",
            Stage::Canonicalize => "msrs_stage_canonicalize_nanos",
            Stage::CacheLookup => "msrs_stage_cache_lookup_nanos",
            Stage::Plan => "msrs_stage_plan_nanos",
            Stage::MemberRace => "msrs_stage_member_race_nanos",
            Stage::Serialize => "msrs_stage_serialize_nanos",
        }
    }

    /// Short human label (`decode`, `plan`, …).
    pub const fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Canonicalize => "canonicalize",
            Stage::CacheLookup => "cache_lookup",
            Stage::Plan => "plan",
            Stage::MemberRace => "member_race",
            Stage::Serialize => "serialize",
        }
    }

    /// Start a drop-recording span against the global registry.
    ///
    /// The guard records elapsed wall time in nanoseconds into this stage's
    /// histogram when dropped; creating and dropping it never allocates.
    #[inline]
    pub fn span(self) -> StageSpan {
        StageSpan {
            stage: self,
            start: Instant::now(),
        }
    }

    /// Record an already-measured duration (in nanoseconds) for this stage
    /// into the global registry.
    #[inline]
    pub fn record_nanos(self, nanos: u64) {
        registry().stage(self).record(nanos);
    }
}

/// Drop guard returned by [`Stage::span`]: times a scope and records it.
#[derive(Debug)]
pub struct StageSpan {
    stage: Stage,
    start: Instant,
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage.record_nanos(nanos);
    }
}

/// Terminal status of one portfolio-member run, as seen by the outcome
/// table (mirrors the engine's `RunStatus` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// Ran to completion and produced a certified schedule.
    Completed,
    /// Hit its deadline before completing.
    TimedOut,
    /// Exhausted its node/iteration budget.
    Exhausted,
    /// Produced an invalid schedule (rejected by validation).
    Invalid,
}

/// One cell of the outcome table: cumulative stats for a
/// (profile, member) pair.
#[derive(Debug)]
pub struct OutcomeCell {
    runs: Counter,
    wins: Counter,
    completed: Counter,
    timed_out: Counter,
    exhausted: Counter,
    invalid: Counter,
    nodes_total: Counter,
    wall_micros: Histogram,
}

impl OutcomeCell {
    const fn new() -> Self {
        OutcomeCell {
            runs: Counter::new(),
            wins: Counter::new(),
            completed: Counter::new(),
            timed_out: Counter::new(),
            exhausted: Counter::new(),
            invalid: Counter::new(),
            nodes_total: Counter::new(),
            wall_micros: Histogram::new(),
        }
    }
}

/// Preallocated per-(profile, member) feedback store: every fresh member
/// run recorded by the engine lands in exactly one cell. This is the
/// feedback signal the adaptive-portfolio roadmap item consumes.
///
/// Axis labels are attached once via [`set_outcome_labels`]; unlabeled
/// indices render as `p<i>` / `m<i>`.
#[derive(Debug)]
pub struct OutcomeTable {
    cells: [[OutcomeCell; MAX_OUTCOME_MEMBERS]; MAX_OUTCOME_PROFILES],
}

impl Default for OutcomeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl OutcomeTable {
    /// A fresh, empty table (const, so tables can live in statics).
    pub const fn new() -> Self {
        OutcomeTable {
            cells: [const { [const { OutcomeCell::new() }; MAX_OUTCOME_MEMBERS] };
                MAX_OUTCOME_PROFILES],
        }
    }

    /// Record one member run. Out-of-range indices clamp to the last
    /// row/column rather than panicking (recording must never fail).
    #[inline]
    pub fn record(
        &self,
        profile: usize,
        member: usize,
        status: OutcomeStatus,
        won: bool,
        nodes: u64,
        wall_micros: u64,
    ) {
        let cell =
            &self.cells[profile.min(MAX_OUTCOME_PROFILES - 1)][member.min(MAX_OUTCOME_MEMBERS - 1)];
        cell.runs.inc();
        if won {
            cell.wins.inc();
        }
        match status {
            OutcomeStatus::Completed => cell.completed.inc(),
            OutcomeStatus::TimedOut => cell.timed_out.inc(),
            OutcomeStatus::Exhausted => cell.exhausted.inc(),
            OutcomeStatus::Invalid => cell.invalid.inc(),
        }
        cell.nodes_total.add(nodes);
        cell.wall_micros.record(wall_micros);
    }

    /// Total runs recorded in cell `(profile, member)`.
    pub fn runs(&self, profile: usize, member: usize) -> u64 {
        self.cells[profile.min(MAX_OUTCOME_PROFILES - 1)][member.min(MAX_OUTCOME_MEMBERS - 1)]
            .runs
            .get()
    }

    fn snapshot(&self) -> Vec<OutcomeSnapshot> {
        let (profiles, members) = outcome_labels();
        let mut rows = Vec::new();
        for (p, row) in self.cells.iter().enumerate() {
            for (m, cell) in row.iter().enumerate() {
                if cell.runs.get() == 0 {
                    continue;
                }
                rows.push(OutcomeSnapshot {
                    profile: label_or_default(profiles, p, DEFAULT_PROFILE_LABELS),
                    member: label_or_default(members, m, DEFAULT_MEMBER_LABELS),
                    runs: cell.runs.get(),
                    wins: cell.wins.get(),
                    completed: cell.completed.get(),
                    timed_out: cell.timed_out.get(),
                    exhausted: cell.exhausted.get(),
                    invalid: cell.invalid.get(),
                    nodes_total: cell.nodes_total.get(),
                    wall: cell.wall_micros.snapshot("wall_micros"),
                });
            }
        }
        rows
    }
}

const DEFAULT_PROFILE_LABELS: [&str; MAX_OUTCOME_PROFILES] =
    ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];
const DEFAULT_MEMBER_LABELS: [&str; MAX_OUTCOME_MEMBERS] =
    ["m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"];

fn label_or_default(
    labels: Option<&'static [&'static str]>,
    index: usize,
    defaults: [&'static str; 8],
) -> &'static str {
    labels
        .and_then(|l| l.get(index).copied())
        .unwrap_or(defaults[index.min(7)])
}

static OUTCOME_LABELS: OnceLock<(&'static [&'static str], &'static [&'static str])> =
    OnceLock::new();

/// Attach human-readable axis labels to the outcome table (first caller
/// wins; later calls are ignored). The engine calls this with its size-tier
/// and portfolio-member names at construction.
pub fn set_outcome_labels(profiles: &'static [&'static str], members: &'static [&'static str]) {
    let _ = OUTCOME_LABELS.set((profiles, members));
}

fn outcome_labels() -> (
    Option<&'static [&'static str]>,
    Option<&'static [&'static str]>,
) {
    match OUTCOME_LABELS.get() {
        Some((p, m)) => (Some(p), Some(m)),
        None => (None, None),
    }
}

/// Helper threads one parallel operation can start: the vendored `rayon`
/// splits an operation into at most 64 chunks, and the caller runs one.
pub const POOL_HELPER_SLOTS: usize = 63;

/// The process-global metrics registry.
///
/// All fields are public atomic handles: recording sites hold
/// `&'static Counter` / `&'static Histogram` references and pay only the
/// atomic op. A non-static `Registry::new()` works too (used by tests that
/// need isolation from the global instance).
#[derive(Debug)]
pub struct Registry {
    /// Reports finalized for a caller (typed API) plus fast-path lines
    /// served straight from cache by the JSONL server.
    pub requests_total: Counter,
    /// JSONL-server lines answered without a fresh solve (cache hit or
    /// intra-shard duplicate).
    pub serve_fast_path_total: Counter,
    /// Deadline latches: `CancelToken`s whose wall-clock deadline fired
    /// (counted once per token, not per poll).
    pub deadline_hits_total: Counter,
    /// Canonical-form cache hits (including intra-batch dedup hits).
    pub cache_hits_total: Counter,
    /// Canonical-form cache misses.
    pub cache_misses_total: Counter,
    /// LRU evictions.
    pub cache_evictions_total: Counter,
    /// Fresh entries inserted into the cache.
    pub cache_inserts_total: Counter,
    /// Retired: always reads 0. Parallel operations run on scoped
    /// threads that never park. Kept registered because the benchmark's
    /// per-layer figures still read it.
    pub pool_parks_total: Counter,
    /// Parallel operations that ran on more than one thread.
    pub pool_ops_total: Counter,
    /// Helper threads started by parallel operations.
    pub pool_helper_jobs_total: Counter,
    /// Work chunks run by the calling thread of a parallel operation.
    pub pool_caller_chunks_total: Counter,
    /// Work chunks run by helper threads, by helper slot: entry `k` counts
    /// the chunks every operation's `k`-th helper ran. Exported as the
    /// snapshot's `pool_worker_chunks`.
    pub pool_helper_chunks: [Counter; POOL_HELPER_SLOTS],
    /// TCP sessions accepted by `msrs serve` (counted at accept).
    pub serve_sessions_total: Counter,
    /// Requests shed by serve admission control (`overloaded` lines
    /// emitted because the in-flight bound was reached).
    pub serve_sheds_total: Counter,
    /// Served requests whose report carried at least one `timed_out`
    /// solver run — the per-request deadline fired while serving.
    pub serve_deadline_hits_total: Counter,
    /// Serve sessions closed because the peer went idle past the
    /// configured `--idle-timeout-ms`.
    pub serve_idle_closes_total: Counter,
    /// Serve sessions closed after reaching `--max-requests-per-session`.
    pub serve_limit_closes_total: Counter,
    /// Serve sessions whose peer disconnected mid-write (`EPIPE` /
    /// connection reset), ended cleanly instead of erroring.
    pub serve_disconnects_total: Counter,
    /// Worker child processes spawned by `msrs dispatch` (including
    /// replacements after crashes).
    pub dispatch_workers_spawned_total: Counter,
    /// Worker failures observed by the dispatch coordinator: process
    /// exit/EOF mid-shard, garbled output, missed heartbeats, a
    /// per-shard deadline overrun, or a child that never joined.
    pub dispatch_worker_crashes_total: Counter,
    /// Shard attempts re-queued after a worker failure (each retry after
    /// the first attempt counts once).
    pub dispatch_retries_total: Counter,
    /// Shards quarantined after exhausting their retry budget; the run
    /// degrades to a structured per-shard error record instead of
    /// aborting.
    pub dispatch_quarantines_total: Counter,
    /// Shards whose reports were merged and journaled by the dispatch
    /// coordinator (includes quarantined shards).
    pub dispatch_shards_total: Counter,
    /// Shards skipped on startup because a checkpoint journal already
    /// recorded them as complete.
    pub dispatch_shards_resumed_total: Counter,
    /// Workers the dispatch coordinator did not spawn, admitted after a
    /// successful handshake (reconnects count again).
    pub dispatch_remote_workers_total: Counter,
    /// Worker handshakes refused (protocol version or engine
    /// configuration fingerprint mismatch, or — without `--listen` — a
    /// dialer that is not one of the coordinator's children).
    pub dispatch_handshake_rejects_total: Counter,
    /// Remote workers that dialed back in after losing their connection
    /// (the worker reports its reconnect in the handshake).
    pub dispatch_reconnects_total: Counter,
    /// Shard leases revoked because the owning attempt went silent past
    /// the heartbeat timeout or overran its per-shard deadline.
    pub dispatch_lease_expiries_total: Counter,
    /// Speculative duplicate shard attempts launched against stragglers.
    pub dispatch_hedges_total: Counter,
    /// Hedged shards where the speculative attempt committed first.
    pub dispatch_hedge_wins_total: Counter,
    /// Completed shard attempts discarded because their twin committed
    /// first (the losing half of a hedge, either direction).
    pub dispatch_hedge_wasted_total: Counter,
    /// `#done`/`#error` lines dropped because their lease had lapsed or
    /// their shard was already committed (zombie workers, duplicate
    /// `#done`s) — never merged into the output.
    pub dispatch_stale_drops_total: Counter,
    /// Cache records loaded from a durable cache store on warm restart.
    pub cache_store_loads_total: Counter,
    /// Cache store records rejected on load (checksum mismatch, torn or
    /// unparsable line) — the damage that triggered a segment quarantine.
    pub cache_store_load_errors_total: Counter,
    /// Cache store segments quarantined on load because a record inside
    /// them failed verification; loading continued past them.
    pub cache_store_segments_quarantined_total: Counter,
    /// Cache store `fsync`s that made appended records durable: one per
    /// miss batch that added records through the engine's store writer,
    /// and one per dispatch event batch that recorded fills.
    pub cache_store_flushes_total: Counter,
    /// Retired: always reads 0. The store's writer takes every fresh
    /// solve now, so no insert is dropped. Kept registered because the
    /// benchmark's trace mode still reads it.
    pub cache_store_queue_drops_total: Counter,
    /// `#cacheq` probes the dispatch coordinator answered from its
    /// fleet-shared cache with a `#cachehit` payload.
    pub dispatch_fleet_cache_hits_total: Counter,
    /// `#cachefill` entries the coordinator discarded because the sending
    /// worker's lease had lapsed (zombie) or it held no assignment.
    pub dispatch_stale_fills_dropped_total: Counter,
    /// Live entries resident in the canonical-form cache.
    pub cache_entries: Gauge,
    /// Configured capacity of the most recently constructed cache.
    pub cache_capacity: Gauge,
    /// Serve sessions currently open (accepted, not yet closed).
    pub serve_sessions_open: Gauge,
    /// Requests currently being served (admitted, response not yet
    /// written) across all serve sessions.
    pub serve_inflight: Gauge,
    /// Per-hop data-plane latency histograms, indexed by [`Stage`].
    pub stages: [Histogram; 6],
    /// The per-(profile, member) solver feedback store.
    pub outcomes: OutcomeTable,
}

impl Registry {
    /// A fresh, empty registry (const, so the global lives in a static).
    pub const fn new() -> Self {
        Registry {
            requests_total: Counter::new(),
            serve_fast_path_total: Counter::new(),
            deadline_hits_total: Counter::new(),
            cache_hits_total: Counter::new(),
            cache_misses_total: Counter::new(),
            cache_evictions_total: Counter::new(),
            cache_inserts_total: Counter::new(),
            pool_parks_total: Counter::new(),
            pool_ops_total: Counter::new(),
            pool_helper_jobs_total: Counter::new(),
            pool_caller_chunks_total: Counter::new(),
            pool_helper_chunks: [const { Counter::new() }; POOL_HELPER_SLOTS],
            serve_sessions_total: Counter::new(),
            serve_sheds_total: Counter::new(),
            serve_deadline_hits_total: Counter::new(),
            serve_idle_closes_total: Counter::new(),
            serve_limit_closes_total: Counter::new(),
            serve_disconnects_total: Counter::new(),
            dispatch_workers_spawned_total: Counter::new(),
            dispatch_worker_crashes_total: Counter::new(),
            dispatch_retries_total: Counter::new(),
            dispatch_quarantines_total: Counter::new(),
            dispatch_shards_total: Counter::new(),
            dispatch_shards_resumed_total: Counter::new(),
            dispatch_remote_workers_total: Counter::new(),
            dispatch_handshake_rejects_total: Counter::new(),
            dispatch_reconnects_total: Counter::new(),
            dispatch_lease_expiries_total: Counter::new(),
            dispatch_hedges_total: Counter::new(),
            dispatch_hedge_wins_total: Counter::new(),
            dispatch_hedge_wasted_total: Counter::new(),
            dispatch_stale_drops_total: Counter::new(),
            cache_store_loads_total: Counter::new(),
            cache_store_load_errors_total: Counter::new(),
            cache_store_segments_quarantined_total: Counter::new(),
            cache_store_flushes_total: Counter::new(),
            cache_store_queue_drops_total: Counter::new(),
            dispatch_fleet_cache_hits_total: Counter::new(),
            dispatch_stale_fills_dropped_total: Counter::new(),
            cache_entries: Gauge::new(),
            cache_capacity: Gauge::new(),
            serve_sessions_open: Gauge::new(),
            serve_inflight: Gauge::new(),
            stages: [const { Histogram::new() }; 6],
            outcomes: OutcomeTable::new(),
        }
    }

    /// The histogram backing `stage`.
    #[inline]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    fn counters(&self) -> [(&'static str, &Counter); 38] {
        [
            ("msrs_requests_total", &self.requests_total),
            ("msrs_serve_fast_path_total", &self.serve_fast_path_total),
            ("msrs_deadline_hits_total", &self.deadline_hits_total),
            ("msrs_cache_hits_total", &self.cache_hits_total),
            ("msrs_cache_misses_total", &self.cache_misses_total),
            ("msrs_cache_evictions_total", &self.cache_evictions_total),
            ("msrs_cache_inserts_total", &self.cache_inserts_total),
            ("msrs_pool_parks_total", &self.pool_parks_total),
            ("msrs_pool_ops_total", &self.pool_ops_total),
            ("msrs_pool_helper_jobs_total", &self.pool_helper_jobs_total),
            (
                "msrs_pool_caller_chunks_total",
                &self.pool_caller_chunks_total,
            ),
            ("msrs_serve_sessions_total", &self.serve_sessions_total),
            ("msrs_serve_sheds_total", &self.serve_sheds_total),
            (
                "msrs_serve_deadline_hits_total",
                &self.serve_deadline_hits_total,
            ),
            (
                "msrs_serve_idle_closes_total",
                &self.serve_idle_closes_total,
            ),
            (
                "msrs_serve_limit_closes_total",
                &self.serve_limit_closes_total,
            ),
            (
                "msrs_serve_disconnects_total",
                &self.serve_disconnects_total,
            ),
            (
                "msrs_dispatch_workers_spawned_total",
                &self.dispatch_workers_spawned_total,
            ),
            (
                "msrs_dispatch_worker_crashes_total",
                &self.dispatch_worker_crashes_total,
            ),
            ("msrs_dispatch_retries_total", &self.dispatch_retries_total),
            (
                "msrs_dispatch_quarantines_total",
                &self.dispatch_quarantines_total,
            ),
            ("msrs_dispatch_shards_total", &self.dispatch_shards_total),
            (
                "msrs_dispatch_shards_resumed_total",
                &self.dispatch_shards_resumed_total,
            ),
            (
                "msrs_dispatch_remote_workers_total",
                &self.dispatch_remote_workers_total,
            ),
            (
                "msrs_dispatch_handshake_rejects_total",
                &self.dispatch_handshake_rejects_total,
            ),
            (
                "msrs_dispatch_reconnects_total",
                &self.dispatch_reconnects_total,
            ),
            (
                "msrs_dispatch_lease_expiries_total",
                &self.dispatch_lease_expiries_total,
            ),
            ("msrs_dispatch_hedges_total", &self.dispatch_hedges_total),
            (
                "msrs_dispatch_hedge_wins_total",
                &self.dispatch_hedge_wins_total,
            ),
            (
                "msrs_dispatch_hedge_wasted_total",
                &self.dispatch_hedge_wasted_total,
            ),
            (
                "msrs_dispatch_stale_drops_total",
                &self.dispatch_stale_drops_total,
            ),
            (
                "msrs_cache_store_loads_total",
                &self.cache_store_loads_total,
            ),
            (
                "msrs_cache_store_load_errors_total",
                &self.cache_store_load_errors_total,
            ),
            (
                "msrs_cache_store_segments_quarantined_total",
                &self.cache_store_segments_quarantined_total,
            ),
            (
                "msrs_cache_store_flushes_total",
                &self.cache_store_flushes_total,
            ),
            (
                "msrs_cache_store_queue_drops_total",
                &self.cache_store_queue_drops_total,
            ),
            (
                "msrs_dispatch_fleet_cache_hits_total",
                &self.dispatch_fleet_cache_hits_total,
            ),
            (
                "msrs_dispatch_stale_fills_dropped_total",
                &self.dispatch_stale_fills_dropped_total,
            ),
        ]
    }

    fn gauges(&self) -> [(&'static str, &Gauge); 4] {
        [
            ("msrs_cache_entries", &self.cache_entries),
            ("msrs_cache_capacity", &self.cache_capacity),
            ("msrs_serve_sessions_open", &self.serve_sessions_open),
            ("msrs_serve_inflight", &self.serve_inflight),
        ]
    }

    /// Capture an owned snapshot of this registry (allocates).
    ///
    /// Ordering is deterministic (catalog order); all-zero outcome cells
    /// are skipped.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters()
                .iter()
                .map(|(name, c)| (*name, c.get()))
                .collect(),
            gauges: self
                .gauges()
                .iter()
                .map(|(name, g)| (*name, g.get()))
                .collect(),
            stages: Stage::ALL
                .iter()
                .map(|s| self.stage(*s).snapshot(s.metric_name()))
                .collect(),
            outcomes: self.outcomes.snapshot(),
            pool_worker_chunks: self.pool_helper_chunks.iter().map(Counter::get).collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-global registry every MSRS crate records into.
#[inline]
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// Snapshot the process-global registry (allocates; see
/// [`Registry::snapshot`]).
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Cumulative stats for one (profile, member) outcome cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeSnapshot {
    /// Instance-profile row label (e.g. `tiny`).
    pub profile: &'static str,
    /// Portfolio-member column label (e.g. `exact`).
    pub member: &'static str,
    /// Member runs recorded.
    pub runs: u64,
    /// Runs whose schedule won the race.
    pub wins: u64,
    /// Runs that completed.
    pub completed: u64,
    /// Runs cut off by a deadline.
    pub timed_out: u64,
    /// Runs that exhausted their node/iteration budget.
    pub exhausted: u64,
    /// Runs rejected by validation.
    pub invalid: u64,
    /// Total search nodes / iterations spent.
    pub nodes_total: u64,
    /// Wall-time distribution in microseconds.
    pub wall: HistogramSnapshot,
}

/// An owned, renderable snapshot of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters in catalog order.
    pub counters: Vec<(&'static str, u64)>,
    /// All gauges in catalog order.
    pub gauges: Vec<(&'static str, i64)>,
    /// Stage histograms in pipeline order.
    pub stages: Vec<HistogramSnapshot>,
    /// Non-empty outcome cells in (profile, member) order.
    pub outcomes: Vec<OutcomeSnapshot>,
    /// Cumulative chunk counts per helper slot (entry `k`: chunks run by
    /// the `k`-th helper of every parallel operation), all
    /// [`POOL_HELPER_SLOTS`] of them.
    pub pool_worker_chunks: Vec<u64>,
}

impl Snapshot {
    /// Value of a counter by catalog name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge by catalog name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Stage histogram by stage (always present).
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Render as a single-line JSON document.
    ///
    /// Deterministic: identical registry contents yield identical strings.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"telemetry\":\"msrs\",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"stages\":[");
        for (i, h) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_histogram_json(&mut out, h);
        }
        out.push_str("],\"outcomes\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_json_key(&mut out, "profile");
            out.push('"');
            out.push_str(o.profile);
            out.push_str("\",");
            push_json_key(&mut out, "member");
            out.push('"');
            out.push_str(o.member);
            out.push_str("\",");
            for (key, v) in [
                ("runs", o.runs),
                ("wins", o.wins),
                ("completed", o.completed),
                ("timed_out", o.timed_out),
                ("exhausted", o.exhausted),
                ("invalid", o.invalid),
                ("nodes_total", o.nodes_total),
            ] {
                push_json_key(&mut out, key);
                out.push_str(&v.to_string());
                out.push(',');
            }
            push_json_key(&mut out, "wall");
            push_histogram_json(&mut out, &o.wall);
            out.push('}');
        }
        out.push_str("],\"pool_worker_chunks\":[");
        for (i, v) in self.pool_worker_chunks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push_str("]}");
        out
    }

    /// Render in Prometheus text exposition format.
    ///
    /// Counters and gauges keep their catalog names; stage histograms emit
    /// cumulative `_bucket{le="…"}` series plus `_sum`/`_count`; the
    /// outcome table emits labeled counters
    /// (`msrs_outcome_runs_total{profile="…",member="…"}` et al.) and a
    /// `msrs_outcome_wall_micros` summary with conservative quantiles.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for (name, v) in &self.counters {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" counter\n");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" gauge\n");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for h in &self.stages {
            out.push_str("# TYPE ");
            out.push_str(h.name);
            out.push_str(" histogram\n");
            let mut cumulative = 0u64;
            for (_, hi, n) in &h.buckets {
                cumulative += n;
                out.push_str(h.name);
                out.push_str("_bucket{le=\"");
                out.push_str(&hi.to_string());
                out.push_str("\"} ");
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            out.push_str(h.name);
            out.push_str("_bucket{le=\"+Inf\"} ");
            out.push_str(&h.count.to_string());
            out.push('\n');
            out.push_str(h.name);
            out.push_str("_sum ");
            out.push_str(&h.sum.to_string());
            out.push('\n');
            out.push_str(h.name);
            out.push_str("_count ");
            out.push_str(&h.count.to_string());
            out.push('\n');
        }
        for o in &self.outcomes {
            let labels = format!("{{profile=\"{}\",member=\"{}\"}}", o.profile, o.member);
            for (metric, v) in [
                ("msrs_outcome_runs_total", o.runs),
                ("msrs_outcome_wins_total", o.wins),
                ("msrs_outcome_completed_total", o.completed),
                ("msrs_outcome_timed_out_total", o.timed_out),
                ("msrs_outcome_exhausted_total", o.exhausted),
                ("msrs_outcome_invalid_total", o.invalid),
                ("msrs_outcome_nodes_total", o.nodes_total),
            ] {
                out.push_str(metric);
                out.push_str(&labels);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            for (q, v) in [
                ("0.5", o.wall.p50),
                ("0.9", o.wall.p90),
                ("0.99", o.wall.p99),
            ] {
                out.push_str("msrs_outcome_wall_micros{profile=\"");
                out.push_str(o.profile);
                out.push_str("\",member=\"");
                out.push_str(o.member);
                out.push_str("\",quantile=\"");
                out.push_str(q);
                out.push_str("\"} ");
                out.push_str(&v.to_string());
                out.push('\n');
            }
            out.push_str("msrs_outcome_wall_micros_sum");
            out.push_str(&labels);
            out.push(' ');
            out.push_str(&o.wall.sum.to_string());
            out.push('\n');
            out.push_str("msrs_outcome_wall_micros_count");
            out.push_str(&labels);
            out.push(' ');
            out.push_str(&o.wall.count.to_string());
            out.push('\n');
        }
        for (i, v) in self.pool_worker_chunks.iter().enumerate() {
            out.push_str("msrs_pool_worker_chunks_total{helper=\"");
            out.push_str(&i.to_string());
            out.push_str("\"} ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

fn push_json_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn push_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    push_json_key(out, "name");
    out.push('"');
    out.push_str(h.name);
    out.push_str("\",");
    for (key, v) in [
        ("count", h.count),
        ("sum", h.sum),
        ("max", h.max),
        ("p50", h.p50),
        ("p90", h.p90),
        ("p99", h.p99),
    ] {
        push_json_key(out, key);
        out.push_str(&v.to_string());
        out.push(',');
    }
    push_json_key(out, "buckets");
    out.push('[');
    for (i, (lo, hi, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&lo.to_string());
        out.push(',');
        out.push_str(&hi.to_string());
        out.push(',');
        out.push_str(&n.to_string());
        out.push(']');
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        // Every power of two opens a new bucket; its predecessor closes one.
        for bit in 1..64u32 {
            let p = 1u64 << bit;
            assert_eq!(Histogram::bucket_index(p), bit as usize + 1);
            assert_eq!(Histogram::bucket_index(p - 1), bit as usize);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        // Buckets tile the whole u64 range with no gaps or overlaps.
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} low bound");
            assert!(hi >= lo);
            // Each bound maps back into its own bucket.
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if i < HISTOGRAM_BUCKETS - 1 {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = Histogram::new();
        // 100 samples of 10 (bucket [8,15]) and 1 of 1000 (bucket [512,1023]).
        for _ in 0..100 {
            h.record(10);
        }
        h.record(1000);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 101);
        assert_eq!(snap.sum, 2000);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.p50, 15);
        assert_eq!(snap.p90, 15);
        assert_eq!(snap.p99, 15);
        // All samples in one bucket → p99 is that bucket's ceiling.
        assert_eq!(snap.buckets, vec![(8, 15, 100), (512, 1023, 1)]);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot("t");
        assert_eq!((snap.count, snap.sum, snap.max), (0, 0, 0));
        assert_eq!((snap.p50, snap.p90, snap.p99), (0, 0, 0));
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn outcome_table_clamps_and_accumulates() {
        let t = OutcomeTable::new();
        t.record(0, 1, OutcomeStatus::Completed, true, 5, 100);
        t.record(0, 1, OutcomeStatus::TimedOut, false, 7, 200);
        t.record(99, 99, OutcomeStatus::Invalid, false, 0, 1);
        assert_eq!(t.runs(0, 1), 2);
        assert_eq!(t.runs(MAX_OUTCOME_PROFILES - 1, MAX_OUTCOME_MEMBERS - 1), 1);
        let rows = t.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].runs, 2);
        assert_eq!(rows[0].wins, 1);
        assert_eq!(rows[0].completed, 1);
        assert_eq!(rows[0].timed_out, 1);
        assert_eq!(rows[0].nodes_total, 12);
        assert_eq!(rows[0].wall.count, 2);
    }

    #[test]
    fn gauge_goes_up_and_down() {
        let g = Gauge::new();
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), -2);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let r = Registry::new();
        r.cache_hits_total.add(3);
        r.cache_entries.set(2);
        let s = r.snapshot();
        assert_eq!(s.counter("msrs_cache_hits_total"), 3);
        assert_eq!(s.gauge("msrs_cache_entries"), 2);
        assert_eq!(s.counter("no_such_counter"), 0);
        assert_eq!(s.pool_worker_chunks, vec![0; POOL_HELPER_SLOTS]);
    }

    #[test]
    fn json_and_prometheus_render_nonempty() {
        let r = Registry::new();
        r.requests_total.add(2);
        r.stage(Stage::Decode).record(1500);
        r.outcomes
            .record(1, 0, OutcomeStatus::Completed, true, 9, 42);
        let s = r.snapshot();
        let json = s.to_json_string();
        assert!(json.starts_with("{\"telemetry\":\"msrs\""));
        assert!(json.contains("\"msrs_requests_total\":2"));
        assert!(json.contains("msrs_stage_decode_nanos"));
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE msrs_requests_total counter\nmsrs_requests_total 2\n"));
        assert!(prom.contains("msrs_stage_decode_nanos_bucket{le=\"+Inf\"} 1\n"));
        assert!(prom.contains("msrs_outcome_runs_total{"));
    }
}
