//! Satellite coverage: concurrent recording is lossless (totals exact from
//! 1, 2, and 8 threads, property-tested) and snapshots are deterministic
//! modulo timing fields.
//!
//! All tests run against *local* `Registry`/`Histogram` instances so they
//! cannot race recordings other test binaries make into the global
//! registry.

use msrs_telemetry::{Histogram, OutcomeStatus, Registry, Stage};
use proptest::prelude::*;
use std::sync::Arc;

/// Record `values` into `h` from `threads` OS threads (round-robin
/// partition), then join.
fn record_from_threads(h: &Arc<Histogram>, values: &[u64], threads: usize) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let h = Arc::clone(h);
            let mine: Vec<u64> = values.iter().copied().skip(t).step_by(threads).collect();
            std::thread::spawn(move || {
                for v in mine {
                    h.record(v);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread panicked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Count, sum, max, and every bucket total are exact regardless of how
    /// many threads recorded concurrently.
    #[test]
    fn concurrent_histogram_totals_are_exact(
        values in prop::collection::vec(any::<u64>(), 1..200)
    ) {
        let expected_sum: u64 = values.iter().fold(0u64, |a, v| a.wrapping_add(*v));
        let expected_max = values.iter().copied().max().unwrap_or(0);
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 8] {
            let h = Arc::new(Histogram::new());
            record_from_threads(&h, &values, threads);
            prop_assert_eq!(h.count(), values.len() as u64, "threads {}", threads);
            prop_assert_eq!(h.sum(), expected_sum, "threads {}", threads);
            prop_assert_eq!(h.max(), expected_max, "threads {}", threads);
            snapshots.push(h.snapshot("t"));
        }
        // Same multiset of samples → identical snapshot (quantiles and
        // buckets included) no matter the thread interleaving.
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert_eq!(&snapshots[0], &snapshots[2]);
    }

    /// Concurrent counter increments across a whole registry are lossless.
    #[test]
    fn concurrent_counter_totals_are_exact(per_thread in 1u64..500) {
        for threads in [1usize, 2, 8] {
            let r = Arc::new(Registry::new());
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let r = Arc::clone(&r);
                    let n = per_thread;
                    std::thread::spawn(move || {
                        for _ in 0..n {
                            r.requests_total.inc();
                            r.cache_entries.add(1);
                            r.outcomes.record(
                                1, 2, OutcomeStatus::Completed, true, 3, 10,
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("recorder thread panicked");
            }
            let want = per_thread * threads as u64;
            prop_assert_eq!(r.requests_total.get(), want);
            prop_assert_eq!(r.cache_entries.get(), want as i64);
            prop_assert_eq!(r.outcomes.runs(1, 2), want);
        }
    }
}

/// Two registries fed identical content render byte-identical JSON and
/// Prometheus documents: every field a snapshot carries is a function of
/// what was recorded, never of when.
#[test]
fn snapshots_are_deterministic_modulo_timing() {
    let build = || {
        let r = Registry::new();
        r.requests_total.add(7);
        r.cache_hits_total.add(3);
        r.cache_entries.set(4);
        r.serve_sessions_open.set(2);
        for v in [0u64, 1, 900, 900, 16_384, u64::MAX] {
            r.stage(Stage::Decode).record(v);
            r.stage(Stage::MemberRace).record(v / 2);
        }
        r.outcomes
            .record(0, 0, OutcomeStatus::Completed, true, 11, 120);
        r.outcomes
            .record(0, 0, OutcomeStatus::Exhausted, false, 400, 9_000);
        r.outcomes
            .record(3, 6, OutcomeStatus::TimedOut, false, 0, 50_000);
        r.snapshot()
    };
    let (a, b) = (build(), build());
    assert_eq!(a, b);
    assert_eq!(a.to_json_string(), b.to_json_string());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    // And the rendering is stable across calls on one snapshot.
    assert_eq!(a.to_json_string(), a.to_json_string());
}
