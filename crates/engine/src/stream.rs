//! Streaming sharded batch pipeline: solve arbitrarily large JSONL corpora
//! in O(shard) memory.
//!
//! The module is layered around one transport-agnostic data plane:
//!
//! * [`ServiceCore`] — the reusable **service core**: admit a decoded line
//!   (fingerprint in place via [`msrs_core::flat_fingerprint`], probe the
//!   engine's result cache, dedup within the shard), solve the misses, and
//!   serialize every report **straight from the `Arc`'d canonical report**
//!   into a reusable byte buffer. A miss holds only its canonical instance,
//!   rebuilt by [`msrs_core::flat_canonical_instance`] from the data the
//!   fingerprint sorted, so each line is canonicalized once; the shard's
//!   distinct canonical instances are solved through one engine call. A
//!   hit builds nothing: no `Instance`, no `SolveRequest`, no report clone,
//!   zero heap allocations per instance once the buffers are warm. The
//!   batch driver below, the TCP front end in [`crate::service`] and the
//!   dispatch workers all run on it, so there is exactly one data plane.
//! * [`JsonlServer`] — the thin *batch driver*: JSONL in, JSONL out,
//!   decoding each line on the reader thread and feeding `ServiceCore`
//!   shard by shard.
//!
//! Every line enters the data plane through [`ServiceCore::admit_line`]:
//! the batch driver, the serve sessions and the dispatch workers all admit
//! it there. A dispatch worker admits its whole shard, then probes the
//! coordinator's fleet cache for the misses that are left.
//!
//! Error semantics are *prefix-faithful*: when a malformed line is hit
//! mid-stream, everything successfully parsed before it — including a
//! partial final shard — is solved and emitted, and the error (with its
//! 1-based physical line number) is surfaced in [`StreamOutcome::error`]
//! afterwards.
//!
//! Determinism: a sharded run's reports are bit-identical to an unsharded
//! [`Engine::solve_batch`] over the same corpus — at any thread count —
//! except for the `wall_micros` timings and `cache_hit` provenance flags
//! (sharding changes *when* a duplicate is served from the cache versus
//! deduplicated within its batch, never what the report says about the
//! schedule). Covered by `tests/stream.rs`, `tests/serve.rs`, and
//! `tests/service.rs`.

use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use msrs_core::{CanonicalScratch, Instance};
use msrs_telemetry::{registry, Stage};

use crate::engine::{Engine, Source};
use crate::jsonl::{meaningful, CorpusError, LineDecoder};
use crate::report::SolveReport;

/// Default shard size for streamed batches: large enough to keep every
/// helper thread busy and let intra-shard dedup bite, small enough that a
/// shard of requests plus reports stays a bounded, cache-friendly working
/// set regardless of corpus length.
pub const DEFAULT_SHARD_SIZE: usize = 4096;

/// Merged summary statistics of one streamed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Requests solved (and reports emitted).
    pub instances: usize,
    /// Shards dispatched to the engine.
    pub shards: usize,
    /// Configured shard size.
    pub shard_size: usize,
    /// Largest number of canonical instances held at once (≤
    /// `shard_size`) — the memory high-water mark of the pipeline, in
    /// instances. Only cache *misses* hold one (one per distinct form while
    /// the cache is active), so a fully cache-served stream reads 0.
    pub max_resident: usize,
    /// Reports with a proven-optimal schedule.
    pub proven_optimal: usize,
    /// Requests served directly from the result cache or an in-shard
    /// duplicate, without building an instance.
    pub fast_path_hits: usize,
    /// Sum of per-report `makespan / lower_bound` ratios (mean =
    /// `ratio_sum / instances`).
    pub ratio_sum: f64,
    /// Worst per-report ratio (1.0 when no instances were solved).
    pub ratio_worst: f64,
    /// Wall time of the whole stream, µs.
    pub wall_micros: u64,
    /// Time spent reading and decoding input (JSONL parse), µs.
    pub parse_micros: u64,
    /// Time spent fingerprinting/canonicalizing decoded lines and probing
    /// the result cache, µs.
    pub canon_micros: u64,
    /// Time spent inside the solver batches, µs.
    pub solve_micros: u64,
    /// Time spent serializing and writing reports, µs.
    pub serialize_micros: u64,
}

impl Default for StreamStats {
    fn default() -> Self {
        StreamStats {
            instances: 0,
            shards: 0,
            shard_size: DEFAULT_SHARD_SIZE,
            max_resident: 0,
            proven_optimal: 0,
            fast_path_hits: 0,
            ratio_sum: 0.0,
            ratio_worst: 1.0,
            wall_micros: 0,
            parse_micros: 0,
            canon_micros: 0,
            solve_micros: 0,
            serialize_micros: 0,
        }
    }
}

impl StreamStats {
    /// Mean `makespan / lower_bound` ratio (1.0 when nothing was solved).
    pub fn ratio_mean(&self) -> f64 {
        if self.instances == 0 {
            1.0
        } else {
            self.ratio_sum / self.instances as f64
        }
    }

    fn record_report(&mut self, report: &SolveReport) {
        self.instances += 1;
        if report.proven_optimal {
            self.proven_optimal += 1;
        }
        let ratio = report.ratio_vs_bound();
        self.ratio_sum += ratio;
        self.ratio_worst = self.ratio_worst.max(ratio);
    }
}

/// What a streamed run produced: the merged stats, plus the corpus error
/// that cut the stream short, if any. Reports for every line before the
/// error have already been emitted when the error is surfaced.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Merged summary counters.
    pub stats: StreamStats,
    /// `Some` when the stream terminated on a malformed/unreadable line.
    pub error: Option<CorpusError>,
}

/// Saturating nanosecond view of a duration, for stage-histogram recording
/// (a span would need to exceed ~584 years to clip).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counts one request answered on the byte-level fast path (cache hit or
/// in-shard duplicate). The miss batch is counted when its solve lands, so
/// the two sites together count every request exactly once.
fn count_fast_path() {
    let reg = registry();
    reg.requests_total.inc();
    reg.serve_fast_path_total.inc();
}

/// Duration accumulators for the data-plane time split (converted to µs
/// once at the end, so sub-µs per-line slices are not truncated away).
#[derive(Default)]
struct Phases {
    parse: Duration,
    canon: Duration,
    solve: Duration,
    serialize: Duration,
}

impl Phases {
    fn write_into(&self, stats: &mut StreamStats) {
        stats.parse_micros = self.parse.as_micros() as u64;
        stats.canon_micros = self.canon.as_micros() as u64;
        stats.solve_micros = self.solve.as_micros() as u64;
        stats.serialize_micros = self.serialize.as_micros() as u64;
    }
}

/// One admitted line of the pending shard: where its report comes from,
/// its id span in the core's id arena, and its serving time.
struct Slot {
    source: Source,
    id: Option<(usize, usize)>,
    /// Serving time (decode + fingerprint + probe), stamped at admission:
    /// the `wall_micros` of a line answered as a cache hit, as
    /// [`Engine::solve_batch`] stamps its hits (probe + fan-out, never the
    /// rest of the batch).
    serve_micros: u64,
}

/// The transport-agnostic service core of the byte-level data plane:
/// decoder, canonical scratch, shard slot table, id arena, the miss batch
/// of `(fingerprint, canonical instance)` pairs, and the report byte
/// buffer, plus the stats/phase accumulators of the run in progress.
///
/// A transport drives it with three calls:
///
/// 1. [`begin`](Self::begin) once per run (resets stats and shard state);
/// 2. [`admit_line`](Self::admit_line) per meaningful input line — decode,
///    fingerprint, cache/dedup probe, and on a miss the canonical
///    instance, classified into the pending shard;
/// 3. [`flush_with`](Self::flush_with) whenever the pending shard should be
///    solved and emitted (reports come back in admission order).
///
/// [`finish`](Self::finish) closes the run and returns the merged
/// [`StreamOutcome`]. One warm core serves an all-cache-hit corpus with
/// zero heap allocations per instance (asserted by `tests/alloc_free.rs`).
#[derive(Default)]
pub struct ServiceCore {
    decoder: LineDecoder,
    scratch: CanonicalScratch,
    slots: Vec<Slot>,
    ids: String,
    /// The miss batch: one `(fingerprint, canonical instance)` per distinct
    /// form, or per line while the engine's cache is inactive.
    misses: Vec<(u128, Instance)>,
    /// Canonical fingerprint → miss index of its first occurrence in the
    /// current shard (duplicate-heavy traffic collapses here before any
    /// instance is built).
    shard_forms: std::collections::HashMap<u128, usize>,
    report_buf: Vec<u8>,
    stats: StreamStats,
    phases: Phases,
}

impl ServiceCore {
    /// A fresh core (buffers grow on first use, then persist).
    pub fn new() -> Self {
        ServiceCore::default()
    }

    /// Starts a new run: resets the stats/phase accumulators and drops any
    /// unflushed shard state. Buffer capacity is retained.
    pub fn begin(&mut self, shard_size: usize) {
        self.stats = StreamStats {
            shard_size: shard_size.max(1),
            ..StreamStats::default()
        };
        self.phases = Phases::default();
        self.slots.clear();
        self.ids.clear();
        self.misses.clear();
        self.shard_forms.clear();
    }

    /// Number of admitted lines waiting in the pending shard.
    pub fn pending(&self) -> usize {
        self.slots.len()
    }

    /// Attributes `spent` input-side time (reading, skipping blanks) to the
    /// parse phase, keeping the phase split an honest partition of the
    /// driver's wall time.
    pub fn note_parse(&mut self, spent: Duration) {
        self.phases.parse += spent;
    }

    /// Admits one meaningful (non-blank, non-comment, trimmed) line:
    /// decodes it into the retained buffers, fingerprints the flat data in
    /// place, probes the in-shard dedup table and the result cache, and
    /// classifies the line into the pending shard. `started` is the
    /// transport's per-line start instant — it anchors both the
    /// decode-stage span and a hit's `wall_micros` serving-time stamp.
    ///
    /// With an inactive cache (disabled, or a configured deadline) every
    /// line is a miss: it skips dedup and probe, exactly as the typed
    /// pipeline behaves. On a decode error the pending shard is untouched
    /// and the core remains usable — batch transports treat the error as
    /// fatal (prefix-faithful), session transports report it and continue.
    pub fn admit_line(
        &mut self,
        engine: &Engine,
        line_no: usize,
        line: &str,
        started: Instant,
    ) -> Result<(), CorpusError> {
        let decoded =
            decode_fingerprint(&mut self.decoder, &mut self.scratch, line_no, line, started);
        let (fingerprint, decoded_at) = match decoded {
            Ok(done) => done,
            Err(e) => {
                self.phases.parse += started.elapsed();
                return Err(e);
            }
        };
        // The parse slice ends where decoding did, so the
        // fingerprint/canonicalize/probe work is attributed to its own
        // phase, not folded into parse — the phase sums then track wall
        // time hop by hop.
        self.phases.parse += decoded_at - started;
        let id = self.decoder.id_str().map(|id| {
            let start = self.ids.len();
            self.ids.push_str(id);
            (start, self.ids.len())
        });
        let source = self.classify(engine, fingerprint);
        self.slots.push(Slot {
            source,
            id,
            serve_micros: started.elapsed().as_micros() as u64,
        });
        self.phases.canon += decoded_at.elapsed();
        Ok(())
    }

    /// Probes in-shard dedup table → cache → miss for the line just
    /// decoded; only a miss builds its canonical instance. The dedup table
    /// comes first, so a line counts one cache event: a hit for an
    /// in-shard duplicate, else the probe's own hit or miss.
    fn classify(&mut self, engine: &Engine, fp: u128) -> Source {
        if engine.cache_active() {
            if let Some(&index) = self.shard_forms.get(&fp) {
                engine.count_serve_dedup_hit();
                self.stats.fast_path_hits += 1;
                count_fast_path();
                return Source::Miss { index, dup: true };
            }
            // `serve_cached` times the probe as a `cache_lookup` stage span
            // inside the cache itself.
            if let Some(report) = engine.serve_cached(fp) {
                self.stats.fast_path_hits += 1;
                count_fast_path();
                return Source::Cached(report);
            }
            self.shard_forms.insert(fp, self.misses.len());
        }
        let machines = self.decoder.builder().machines();
        let instance = msrs_core::flat_canonical_instance(machines, &self.scratch);
        self.misses.push((fp, instance));
        Source::Miss {
            index: self.misses.len() - 1,
            dup: false,
        }
    }

    /// The pending shard's miss batch: `(fingerprint, canonical instance)`
    /// pairs in first-occurrence order, one per distinct form while the
    /// engine's cache is active.
    pub(crate) fn pending_misses(&self) -> &[(u128, Instance)] {
        &self.misses
    }

    /// Solves the pending shard's misses and emits every admitted line's
    /// report in admission order, then clears the shard. `emit` receives
    /// the serialized report line (including the trailing newline) and the
    /// canonical report it was rendered from; its error aborts the flush
    /// (typically downstream I/O). A no-op when nothing is pending.
    pub fn flush_with<F>(&mut self, engine: &Engine, mut emit: F) -> io::Result<()>
    where
        F: FnMut(&[u8], &SolveReport) -> io::Result<()>,
    {
        if self.slots.is_empty() {
            return Ok(());
        }
        self.stats.max_resident = self.stats.max_resident.max(self.misses.len());
        let solved = if self.misses.is_empty() {
            Vec::new()
        } else {
            let t1 = Instant::now();
            let solved = engine.solve_canonical_batch(std::mem::take(&mut self.misses));
            registry().requests_total.add(solved.len() as u64);
            self.phases.solve += t1.elapsed();
            solved
        };
        self.stats.shards += 1;
        for slot in &self.slots {
            let t2 = Instant::now();
            let (report, cache_hit) = slot.source.resolve(&solved);
            let wall_micros = if cache_hit {
                slot.serve_micros
            } else {
                report.wall_micros
            };
            let id = slot.id.map(|(start, end)| &self.ids[start..end]);
            report.write_json_line_as(id, cache_hit, wall_micros, &mut self.report_buf);
            self.stats.record_report(report);
            self.report_buf.push(b'\n');
            emit(&self.report_buf, report)?;
            let serialized = t2.elapsed();
            self.phases.serialize += serialized;
            Stage::Serialize.record_nanos(nanos(serialized));
        }
        self.slots.clear();
        self.ids.clear();
        self.shard_forms.clear();
        Ok(())
    }

    /// Closes the run started by [`begin`](Self::begin): folds the phase
    /// accumulators into the stats, stamps the wall time against `started`,
    /// and returns the merged outcome. The core is ready for the next
    /// `begin`.
    pub fn finish(&mut self, started: Instant, error: Option<CorpusError>) -> StreamOutcome {
        self.phases.write_into(&mut self.stats);
        self.stats.wall_micros = started.elapsed().as_micros() as u64;
        StreamOutcome {
            stats: self.stats,
            error,
        }
    }
}

/// The one decode step of the data plane: decodes `line` into `decoder`
/// and fingerprints the flat data in place via
/// [`msrs_core::flat_fingerprint`], leaving it sorted in `scratch`.
/// Records the `decode` stage span from `started` and the `canonicalize`
/// span of the fingerprint. Returns the fingerprint and the instant
/// decoding finished, which ends the caller's parse phase.
fn decode_fingerprint(
    decoder: &mut LineDecoder,
    scratch: &mut CanonicalScratch,
    line_no: usize,
    line: &str,
    started: Instant,
) -> Result<(u128, Instant), CorpusError> {
    decoder.decode(line_no, line)?;
    let decoded_at = Instant::now();
    Stage::Decode.record_nanos(nanos(decoded_at - started));
    let builder = decoder.builder();
    let fp = msrs_core::flat_fingerprint(
        builder.machines(),
        builder.sizes(),
        builder.offsets(),
        scratch,
    );
    Stage::Canonicalize.record_nanos(nanos(decoded_at.elapsed()));
    Ok((fp, decoded_at))
}

/// The JSONL **batch driver** over [`ServiceCore`]: reads a corpus from a
/// `BufRead`, feeds the core shard by shard, and writes one report line per
/// instance (corpus order) to a `Write`. Lines are decoded inline on the
/// reader thread — the allocation-free steady state asserted by
/// `tests/alloc_free.rs`.
#[derive(Default)]
pub struct JsonlServer {
    core: ServiceCore,
    line_buf: String,
}

impl JsonlServer {
    /// A fresh server (buffers grow on first use, then persist).
    pub fn new() -> Self {
        JsonlServer::default()
    }

    /// Serves a JSONL corpus end to end: decode each line, serve cache hits
    /// straight from the canonical report, batch-solve the misses shard by
    /// shard, and write one report line per instance (corpus order) to
    /// `out`.
    ///
    /// `Err` is returned only for output failures; corpus-level parse
    /// errors end the stream early and come back in
    /// [`StreamOutcome::error`] after all prior reports were written.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        engine: &Engine,
        mut input: R,
        out: &mut W,
        shard_size: usize,
    ) -> io::Result<StreamOutcome> {
        let shard_size = shard_size.max(1);
        let started = Instant::now();
        self.core.begin(shard_size);
        let mut error: Option<CorpusError> = None;
        let mut line_no = 0usize;
        let mut eof = false;
        while !eof && error.is_none() {
            // ---- Decode one shard. ----------------------------------------
            while self.core.pending() < shard_size {
                let t0 = Instant::now();
                self.line_buf.clear();
                line_no += 1;
                match input.read_line(&mut self.line_buf) {
                    Ok(0) => {
                        eof = true;
                        self.core.note_parse(t0.elapsed());
                        break;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        error = Some(CorpusError::Io {
                            line: line_no,
                            message: e.to_string(),
                        });
                        self.core.note_parse(t0.elapsed());
                        break;
                    }
                }
                let Some(line) = meaningful(&self.line_buf) else {
                    self.core.note_parse(t0.elapsed());
                    continue;
                };
                if let Err(e) = self.core.admit_line(engine, line_no, line, t0) {
                    error = Some(e);
                    break;
                }
            }
            // ---- Solve the misses and emit in corpus order. ---------------
            self.core
                .flush_with(engine, |bytes, _| out.write_all(bytes))?;
        }
        Ok(self.core.finish(started, error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::Cursor;

    /// Serves `text` and returns the outcome plus the emitted lines.
    fn serve(engine: &Engine, text: &str, shard_size: usize) -> (StreamOutcome, Vec<String>) {
        let mut out = Vec::new();
        let outcome = JsonlServer::new()
            .serve(engine, Cursor::new(text), &mut out, shard_size)
            .unwrap();
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        (outcome, lines)
    }

    #[test]
    fn serve_skips_blanks_and_comments_with_physical_line_numbers() {
        let text = "# header\n\n{\"machines\":2,\"classes\":[[3]]}\n\n# mid\n\
                    {\"machines\":1,\"classes\":[[1,2]]}\n\nnot json\n";
        let (outcome, lines) = serve(&Engine::new(EngineConfig::default()), text, 8);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"jobs\":1,\"machines\":2,"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"jobs\":2,\"machines\":1,"),
            "{}",
            lines[1]
        );
        match outcome.error {
            Some(CorpusError::Json { line, .. }) => assert_eq!(line, 8),
            other => panic!("expected Json error, got {other:?}"),
        }
    }

    #[test]
    fn serve_counts_shards_and_bounds_residency() {
        let text: String = (0..10)
            .map(|seed| {
                let inst = msrs_gen::uniform(seed, 2, 8, 3, 1, 9);
                crate::jsonl::write_instance_line(Some(&format!("u-{seed}")), &inst) + "\n"
            })
            .collect();
        // No cache: every line is a miss, held as a canonical instance.
        let engine = Engine::new(EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let (outcome, lines) = serve(&engine, &text, 4);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.stats.instances, 10);
        assert_eq!(outcome.stats.shards, 3, "10 instances in shards of 4");
        assert_eq!(outcome.stats.max_resident, 4);
        assert_eq!(lines.len(), 10);
        assert!(lines[0].starts_with("{\"id\":\"u-0\","));
        assert!(lines[9].starts_with("{\"id\":\"u-9\","));
        assert!(outcome.stats.ratio_worst >= 1.0);
        assert!(outcome.stats.ratio_mean() >= 1.0);
        // The data-plane split is populated and bounded by the total wall.
        assert!(outcome.stats.solve_micros <= outcome.stats.wall_micros);
        assert!(
            outcome.stats.solve_micros > 0,
            "solving takes measurable time"
        );
    }

    #[test]
    fn serve_splits_canonicalize_time_out_of_parse() {
        // Duplicate-heavy corpus: every line after the first is served at
        // the byte level, so the fingerprint/probe work is exercised often
        // enough to register in the µs-resolution phase counters.
        let line = "{\"machines\":2,\"classes\":[[5,3],[7],[2,2,2]]}\n";
        let corpus = line.repeat(512);
        let cfg = EngineConfig {
            cache_capacity: 64,
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg);
        let mut out = Vec::new();
        let outcome = JsonlServer::new()
            .serve(&engine, Cursor::new(corpus), &mut out, 128)
            .unwrap();
        assert!(outcome.error.is_none());
        assert_eq!(outcome.stats.instances, 512);
        assert!(outcome.stats.fast_path_hits >= 511);
        assert!(
            outcome.stats.canon_micros > 0,
            "cache-active serving fingerprints every line; 512 probes take \
             at least a microsecond in total"
        );
        // The phase accumulators partition the loop body, so their sum
        // never exceeds the wall clock of the whole stream.
        let sum = outcome.stats.parse_micros
            + outcome.stats.canon_micros
            + outcome.stats.solve_micros
            + outcome.stats.serialize_micros;
        assert!(
            sum <= outcome.stats.wall_micros,
            "phase sum {sum} vs wall {}",
            outcome.stats.wall_micros
        );
    }

    #[test]
    fn zero_shard_size_is_clamped_to_one() {
        let inst = msrs_gen::uniform(1, 2, 6, 2, 1, 9);
        let text = crate::jsonl::write_instance_line(None, &inst) + "\n";
        let (outcome, _) = serve(&Engine::new(EngineConfig::default()), &text, 0);
        assert_eq!(outcome.stats.instances, 1);
        assert_eq!(outcome.stats.shard_size, 1);
    }
}
