//! Sharded LRU memoization of solve reports, keyed by canonical forms.
//!
//! The paper observes that an MSRS instance is fully described by its
//! multiset of class job-size multisets plus the machine count — IDs and
//! order carry no information. [`msrs_core::CanonicalForm`] materializes
//! that quotient with a stable 128-bit fingerprint, which makes result
//! caching sound: two requests with equal fingerprints (solved under the
//! same [config fingerprint](crate::EngineConfig::content_fingerprint))
//! receive the *same canonical report*, each remapped to its own job ids.
//!
//! The cache stores canonical reports (no request id, canonical schedule)
//! behind a small fixed number of independently locked shards; each shard
//! evicts its least-recently-used entry when over its share of the
//! capacity. Small caches (≤ [`SHARD_THRESHOLD`] entries) use a single
//! shard, so their eviction order is exact global LRU; larger caches trade
//! that for lock spread, making eviction per-shard LRU (an approximation
//! of global LRU).
//!
//! Every hit, miss and eviction is counted once, in the process-global
//! `msrs_telemetry` registry (`msrs_cache_*` counters, `msrs_cache_entries`
//! residency gauge), so one telemetry snapshot covers every cache in the
//! process. Lookups additionally record a `cache_lookup` stage span. None
//! of this allocates.
//!
//! The cache is memory only: the engine's miss path hands fresh solves to
//! the store's writer ([`crate::cachestore`]), so neither a hit nor an
//! insert here touches the store.

use std::collections::HashMap;
use std::sync::Arc;

use msrs_telemetry::{registry, Stage};
use parking_lot::Mutex;

use crate::report::SolveReport;

/// Caches at most this many entries stay single-sharded (exact LRU).
pub const SHARD_THRESHOLD: usize = 64;
/// Shard count for caches above [`SHARD_THRESHOLD`].
const SHARDS: usize = 8;

/// Cache key: the canonical-instance fingerprint plus the fingerprint of
/// the report-content-relevant engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`msrs_core::CanonicalForm::fingerprint`] of the instance.
    pub instance: u128,
    /// [`crate::EngineConfig::content_fingerprint`] of the solving config.
    pub config: u64,
}

struct Entry {
    /// Last-touch stamp from the shard's logical clock.
    stamp: u64,
    report: Arc<SolveReport>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// A sharded LRU cache of canonical [`SolveReport`]s.
pub struct ReportCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget.
    shard_capacity: usize,
    capacity: usize,
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.resident())
            .finish()
    }
}

impl ReportCache {
    /// A cache holding `capacity` reports; `capacity == 0` disables
    /// caching entirely ([`get`](Self::get) always misses without counting,
    /// [`insert`](Self::insert) is a no-op). Sharded caches (capacity
    /// above [`SHARD_THRESHOLD`]) round the per-shard budget up, so they
    /// may hold up to `SHARDS - 1` entries more than `capacity`.
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity <= SHARD_THRESHOLD {
            1
        } else {
            SHARDS
        };
        // The capacity gauge reflects the most recently constructed cache
        // (one engine per process in the CLI, where this matters).
        registry().cache_capacity.set(capacity as i64);
        ReportCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(shard_count).max(1),
            capacity,
        }
    }

    /// Whether this cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mix = (key.instance as u64) ^ ((key.instance >> 64) as u64) ^ key.config;
        &self.shards[(mix as usize) % self.shards.len()]
    }

    /// Looks `key` up, refreshing its recency and counting a hit or miss.
    /// Hits hand back a shared `Arc` of the stored canonical report — no
    /// report clone happens inside the cache, so a hit costs one refcount
    /// bump (the streaming serve path serializes straight from the `Arc`).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<SolveReport>> {
        if !self.enabled() {
            return None;
        }
        let _span = Stage::CacheLookup.span();
        let mut shard = self.shard(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = clock;
                let report = entry.report.clone();
                drop(shard);
                registry().cache_hits_total.inc();
                Some(report)
            }
            None => {
                drop(shard);
                registry().cache_misses_total.inc();
                None
            }
        }
    }

    /// Looks `key` up *without* counting a hit/miss or refreshing its
    /// recency — for side-channel consumers (the fleet cache exchange)
    /// that must not perturb the cache metrics or eviction order.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<Arc<SolveReport>> {
        if !self.enabled() {
            return None;
        }
        self.shard(key)
            .lock()
            .map
            .get(key)
            .map(|e| e.report.clone())
    }

    /// Records a hit that was answered without consulting the map (the
    /// intra-batch dedup fan-out path, which shares one solve across
    /// duplicate requests exactly like a cache hit would).
    pub fn count_dedup_hit(&self) {
        registry().cache_hits_total.inc();
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least-recently
    /// used entry when over budget.
    pub fn insert(&self, key: CacheKey, report: Arc<SolveReport>) {
        if !self.enabled() {
            return;
        }
        let mut shard = self.shard(&key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        let fresh = shard.map.insert(key, Entry { stamp, report }).is_none();
        let mut evicted = 0u64;
        while shard.map.len() > self.shard_capacity {
            let oldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("over-budget shard is non-empty");
            shard.map.remove(&oldest);
            evicted += 1;
        }
        drop(shard);
        let reg = registry();
        reg.cache_inserts_total.inc();
        if fresh {
            reg.cache_entries.add(1);
        }
        if evicted > 0 {
            reg.cache_evictions_total.add(evicted);
            reg.cache_entries.sub(evicted as i64);
        }
    }

    /// Entries currently resident, across all shards.
    fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

impl Drop for ReportCache {
    fn drop(&mut self) {
        // Return this cache's residency to the global gauge so it tracks
        // live entries across engines coming and going.
        let resident = self.resident();
        if resident > 0 {
            registry().cache_entries.sub(resident as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::SolverKind;
    use msrs_core::Schedule;

    fn key(i: u128) -> CacheKey {
        CacheKey {
            instance: i,
            config: 7,
        }
    }

    fn report(makespan: u64) -> Arc<SolveReport> {
        Arc::new(SolveReport {
            id: None,
            jobs: 1,
            machines: 1,
            classes: 1,
            lower_bound: makespan,
            makespan,
            winner: SolverKind::FiveThirds,
            certified_horizon: makespan,
            certified_by: SolverKind::FiveThirds,
            proven_optimal: true,
            cache_hit: false,
            wall_micros: 0,
            runs: vec![],
            schedule: Schedule::new(vec![]),
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ReportCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), report(10));
        assert_eq!(cache.get(&key(1)).unwrap().makespan, 10);
        assert!(cache
            .get(&CacheKey {
                instance: 1,
                config: 8
            })
            .is_none());
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn capacity_zero_disables() {
        let cache = ReportCache::new(0);
        assert!(!cache.enabled());
        cache.insert(key(1), report(10));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn lru_eviction_order_is_exact_for_small_caches() {
        let cache = ReportCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(2), report(2));
        // Touch 1 so 2 becomes the least recently used.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), report(3));
        assert_eq!(cache.resident(), 2);
        assert!(cache.get(&key(2)).is_none(), "LRU entry 2 evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn large_caches_shard_but_respect_total_budget() {
        let cache = ReportCache::new(SHARD_THRESHOLD + 16);
        for i in 0..1000u128 {
            cache.insert(key(i), report(i as u64));
        }
        assert!(cache.resident() <= SHARD_THRESHOLD + 16 + SHARDS);
        assert!(cache.get(&key(0)).is_none(), "the oldest entry was evicted");
        assert_eq!(cache.get(&key(999)).unwrap().makespan, 999);
    }

    #[test]
    fn reinserting_refreshes_instead_of_duplicating() {
        let cache = ReportCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(1), report(9));
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.get(&key(1)).unwrap().makespan, 9);
    }
}
