//! Proof that the warmed serving data plane is allocation-free: a counting
//! `#[global_allocator]` wrapper (test binary only) asserts **zero heap
//! allocations** across a full cache-hit-only pass of the streaming serve
//! loop — decode, canonical fingerprint, cache probe, and report
//! serialization all run out of reused buffers. Telemetry recording is live
//! throughout (it cannot be disabled), and the test reads the registry's
//! stage counters around the measured window to prove the instruments were
//! actually firing while the allocation count stayed at zero.
//!
//! This file deliberately contains a single test: the allocator counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, alloc_zeroed, realloc) passed through to
/// the system allocator.
struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    fn count(&self) -> u64 {
        self.allocations.load(Ordering::SeqCst)
    }
}

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator {
    allocations: AtomicU64::new(0),
};

#[test]
fn warmed_cache_hit_serve_loop_performs_zero_allocations() {
    use msrs_engine::stream::JsonlServer;
    use msrs_engine::{jsonl, CacheStore, Engine, EngineConfig, SolveRequest};

    // A duplicate-heavy production-shaped corpus: every line is one of
    // four distinct canonical forms (ids vary — ids are not part of the
    // canonical form), so after one pass every line is a cache hit.
    let distinct: Vec<_> = (0..4)
        .map(|seed| msrs_gen::uniform(seed, 3, 12, 3, 1, 40))
        .collect();
    let mut corpus = String::new();
    for i in 0..256 {
        let req = SolveRequest::with_id(format!("req-{i}"), distinct[i % distinct.len()].clone());
        corpus.push_str(&jsonl::write_instance_line(
            req.id.as_deref(),
            &req.instance,
        ));
        corpus.push('\n');
    }

    let config = EngineConfig {
        threads: 1,
        cache_capacity: 1024,
        deadline: None,
        ..EngineConfig::default()
    };
    let engine = Engine::new(config.clone());

    // Durable persistence must never touch the fast path: attach a cache
    // store so the warm pass's fresh solves go to the store's background
    // writer, then prove the measured hit-only pass still allocates
    // nothing.
    let store_path = std::env::temp_dir().join(format!(
        "msrs-alloc-free-store-{}.mcache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);
    let load = engine
        .attach_cache_store(&store_path)
        .expect("cache store attaches");
    assert_eq!(load.loaded, 0, "fresh store starts empty");

    let mut server = JsonlServer::new();
    let mut sink = std::io::sink();

    // Warm-up: the first pass fills the result cache (all lines are
    // misses → materialized, solved, inserted); the second pass runs the
    // hit path once so every reusable buffer (decoder, canonical scratch,
    // slot table, id arena, report buffer) reaches its steady-state
    // capacity.
    for pass in 0..2 {
        let outcome = server
            .serve(&engine, corpus.as_bytes(), &mut sink, 64)
            .expect("serve");
        assert!(outcome.error.is_none());
        assert_eq!(outcome.stats.instances, 256, "pass {pass}");
    }

    // Let the store's writer append the warm pass's fresh solves (one
    // record per distinct canonical form) before opening the measured
    // window: the writer is asynchronous, and its work — serializing and
    // appending — allocates, but on its own thread; waiting here keeps
    // even that off the window. Appends hit the file unbuffered, so four
    // visible records mean the only remaining writer work is an fsync
    // (allocation-free) before it waits for the next batch.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let records = std::fs::read_to_string(&store_path)
            .map(|t| t.lines().filter(|l| l.starts_with("{\"fp\":")).count())
            .unwrap_or(0);
        if records >= distinct.len() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the writer never persisted the warm pass's solves ({records}/{})",
            distinct.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Telemetry counters read *outside* the measured window (registry reads
    // are allocation-free anyway, but keeping them outside makes the window
    // exactly one serve pass).
    let reg = msrs_engine::telemetry::registry();
    let decode_before = reg.stage(msrs_engine::telemetry::Stage::Decode).count();
    let lookup_before = reg
        .stage(msrs_engine::telemetry::Stage::CacheLookup)
        .count();
    let fast_path_before = reg.serve_fast_path_total.get();

    // Measured pass: 256 instances end to end, zero allocations — with
    // telemetry recording enabled (it always is).
    let before = ALLOCATOR.count();
    let outcome = server
        .serve(&engine, corpus.as_bytes(), &mut sink, 64)
        .expect("serve");
    let allocations = ALLOCATOR.count() - before;

    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 256);
    assert_eq!(
        outcome.stats.fast_path_hits, 256,
        "the measured pass must be served from cache alone"
    );
    assert_eq!(outcome.stats.max_resident, 0, "no request materialized");
    assert_eq!(
        allocations, 0,
        "warmed cache-hit serve loop allocated {allocations} times for 256 instances"
    );
    // The zero-allocation window really did record telemetry: one decode
    // span and one cache probe per line, one fast-path count per line.
    let decode_delta = reg.stage(msrs_engine::telemetry::Stage::Decode).count() - decode_before;
    let lookup_delta = reg
        .stage(msrs_engine::telemetry::Stage::CacheLookup)
        .count()
        - lookup_before;
    assert_eq!(decode_delta, 256, "decode stage recorded per line");
    assert_eq!(lookup_delta, 256, "cache probe recorded per line");
    assert_eq!(reg.serve_fast_path_total.get() - fast_path_before, 256);

    // The store behind that zero-allocation window is real: dropping the
    // engine joins the writer, and a fresh load returns exactly one
    // verified record per distinct canonical form.
    drop(server);
    drop(engine);
    let (_store, entries, stats) =
        CacheStore::open(&store_path, config.content_fingerprint()).expect("store reopens");
    assert_eq!(stats.loaded, distinct.len() as u64);
    assert_eq!((stats.errors, stats.segments_quarantined), (0, 0));
    assert_eq!(entries.len(), distinct.len());
    let _ = std::fs::remove_file(&store_path);
}
