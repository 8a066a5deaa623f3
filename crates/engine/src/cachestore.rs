//! Durable, crash-safe persistence for the result cache.
//!
//! A cache store is an append-only journal (the format it shares with the
//! dispatch checkpoint) of `(canonical fingerprint, config fingerprint,
//! serialized report)` records. Its header carries the engine's
//! content-relevant configuration fingerprint: a store written under one
//! configuration, or in another format version, is refused with
//! `InvalidData`, because the reports it holds could be wrong answers.
//!
//! ```text
//! {"journal":"cache store","version":2,"config_fp":…}          header
//! {"fp":"<32-hex>","config":…,"report":{…},"sum":"<16-hex>"}   record × 64
//! {"segment":0,"sum":"<16-hex>"}                               segment marker
//! …
//! ```
//!
//! `sum` is an FNV-1a checksum over the record's bytes, checked before the
//! record is parsed. The report is the [`SolveReport::to_store_json`]
//! serialization, and a loaded entry's payload is those checksummed bytes
//! themselves.
//!
//! Durability and recovery:
//!
//! * One method, `record`, writes reports: for an [`Engine`]'s writer
//!   thread (its miss batches) and the dispatch coordinator (its fleet's
//!   fills). [`CacheStore::sync`] makes a batch durable with one `fsync`;
//!   a record the store synced survives a `kill -9`.
//! * A crash mid-append tears at most the final line. The loader drops it
//!   silently (the entry is re-solved and re-appended later) and the
//!   reopen truncates it away.
//! * A corrupt *complete* record — checksum mismatch, unparsable report,
//!   foreign config — quarantines its whole segment: the segment's records
//!   are discarded, `msrs_cache_store_segments_quarantined_total` and a log
//!   line record the loss, and loading continues at the next segment
//!   marker. Corruption costs at most [`SEGMENT_RECORDS`] entries, never
//!   the store and never a wrong answer.
//! * Reopening an existing store appends a fresh segment marker, so new
//!   appends are never swallowed by a quarantined trailing segment.
//!
//! The recovery paths are exercised by truncating and flipping the bytes
//! of a real store file, at every offset, in `tests/cachestore.rs`.
//!
//! [`Engine`]: crate::Engine

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use msrs_telemetry::registry;

use crate::journal::{Header, Journal};
use crate::json::Json;
use crate::report::SolveReport;

/// Records per segment — the quarantine blast radius of one corrupt
/// record.
pub const SEGMENT_RECORDS: usize = 64;

/// One entry loaded from a store: the canonical fingerprint, the parsed
/// report, and the exact payload bytes it was stored with (what the
/// dispatch cache authority serves to `#cacheq` probes without
/// re-serializing).
#[derive(Debug, Clone)]
pub struct CacheStoreEntry {
    /// [`msrs_core::CanonicalForm::fingerprint`] of the instance.
    pub fingerprint: u128,
    /// The verified canonical report.
    pub report: Arc<SolveReport>,
    /// The report's canonical store serialization (checksummed bytes).
    pub payload: Arc<str>,
}

/// What loading a store found; mirrored into the process-global
/// telemetry (`msrs_cache_store_{loads,load_errors,segments_quarantined}
/// _total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoadStats {
    /// Records that verified and loaded.
    pub loaded: u64,
    /// Complete records that failed verification (checksum mismatch,
    /// unparsable, foreign config).
    pub errors: u64,
    /// Segments discarded because they held a corrupt record.
    pub segments_quarantined: u64,
}

/// The append side of a cache store. Obtained from [`CacheStore::open`],
/// which also replays the existing contents.
#[derive(Debug)]
pub struct CacheStore {
    journal: Journal,
    config_fp: u64,
    /// Fingerprints of the loaded records and of each one appended since.
    held: HashSet<u128>,
    /// Whether a record was appended since the last `fsync`.
    unsynced: bool,
    /// The buffer `record` serializes into, reused across calls.
    payload: String,
    /// Records appended into the current segment.
    in_segment: usize,
    /// Id of the next segment marker to write.
    next_segment: u64,
}

/// The record for `fp` under `config_fp`, before the journal adds its
/// checksum.
fn record(fp: u128, config_fp: u64, payload: &str) -> String {
    format!("{{\"fp\":\"{fp:032x}\",\"config\":{config_fp},\"report\":{payload}}}")
}

/// Parses one checksum-verified record under `config_fp`. `None` means
/// the record is foreign or its report does not parse — never a panic.
fn parse_record(record: &str, config_fp: u64) -> Option<CacheStoreEntry> {
    let (hex, rest) = record.strip_prefix("{\"fp\":\"")?.split_at_checked(32)?;
    let (config, payload) = rest
        .strip_prefix("\",\"config\":")?
        .split_once(",\"report\":")?;
    let payload = payload.strip_suffix('}')?;
    if config.parse::<u64>().ok()? != config_fp {
        return None;
    }
    let report = SolveReport::from_store_json(&Json::parse(payload).ok()?)?;
    Some(CacheStoreEntry {
        fingerprint: u128::from_str_radix(hex, 16).ok()?,
        report: Arc::new(report),
        payload: payload.into(),
    })
}

impl CacheStore {
    /// Opens (or creates) the store at `path` for the engine
    /// configuration fingerprinted by `config_fp`, replaying and
    /// verifying its contents: every verified entry is returned, the
    /// load outcome is mirrored into telemetry, a torn tail is truncated
    /// away, and the store is left positioned for appending. Fails with
    /// `InvalidData` when the file exists but is not a cache store of
    /// this version or belongs to a different configuration.
    pub fn open(
        path: &Path,
        config_fp: u64,
    ) -> io::Result<(CacheStore, Vec<CacheStoreEntry>, CacheLoadStats)> {
        let mut entries = Vec::new();
        let mut stats = CacheLoadStats::default();
        // Records verified so far in the current segment; committed at the
        // next segment marker (or the end), discarded wholesale if the
        // segment turns out to hold a corrupt record.
        let mut segment: Vec<CacheStoreEntry> = Vec::new();
        let mut quarantined = false;
        let mut next_segment = 0u64;
        let mut line_no = 1;
        let header = Header {
            kind: "cache store",
            config_fp,
            shard_size: None,
        };
        let (journal, created) = Journal::open(path, &header, |record| {
            line_no += 1;
            let marker = record
                .and_then(|r| r.strip_prefix("{\"segment\":")?.strip_suffix('}'))
                .and_then(|id| id.parse::<u64>().ok());
            if let Some(id) = marker {
                entries.append(&mut segment);
                quarantined = false;
                next_segment = next_segment.max(id + 1);
                return Ok(true);
            }
            match record.and_then(|r| parse_record(r, config_fp)) {
                Some(entry) if !quarantined => segment.push(entry),
                Some(_) => {} // rest of a quarantined segment
                None => {
                    stats.errors += 1;
                    if !quarantined {
                        quarantined = true;
                        stats.segments_quarantined += 1;
                        segment.clear();
                        eprintln!(
                            "msrs cachestore: corrupt record at line {line_no} of {} — \
                             quarantining its segment",
                            path.display()
                        );
                    }
                    return Ok(false);
                }
            }
            Ok(true)
        })?;
        if !quarantined {
            entries.append(&mut segment);
        }
        stats.loaded = entries.len() as u64;
        let reg = registry();
        reg.cache_store_loads_total.add(stats.loaded);
        reg.cache_store_load_errors_total.add(stats.errors);
        reg.cache_store_segments_quarantined_total
            .add(stats.segments_quarantined);
        let mut store = CacheStore {
            journal,
            config_fp,
            held: entries.iter().map(|e| e.fingerprint).collect(),
            unsynced: false,
            payload: String::new(),
            in_segment: 0,
            next_segment,
        };
        if !created {
            // A fresh segment marker isolates new appends from whatever
            // the trailing loaded segment held (possibly quarantined
            // records). A new file needs no marker: its header becomes
            // durable with the first synced batch.
            store.write_marker()?;
            store.journal.sync()?;
        }
        Ok((store, entries, stats))
    }

    fn write_marker(&mut self) -> io::Result<()> {
        self.journal
            .append(&format!("{{\"segment\":{}}}", self.next_segment))?;
        self.next_segment += 1;
        self.in_segment = 0;
        Ok(())
    }

    /// Appends one record (call [`sync`](Self::sync) to make a batch
    /// durable). `payload` must be the report's
    /// [`SolveReport::to_store_json`] serialization.
    pub fn append(&mut self, fp: u128, config_fp: u64, payload: &str) -> io::Result<()> {
        self.journal.append(&record(fp, config_fp, payload))?;
        self.held.insert(fp);
        self.unsynced = true;
        self.in_segment += 1;
        if self.in_segment >= SEGMENT_RECORDS {
            self.write_marker()?;
        }
        Ok(())
    }

    /// Appends `report` under `fp` unless the store already holds `fp`,
    /// and returns the payload it appended: the report's store
    /// serialization. The one write path of the engine's writer and the
    /// dispatch coordinator.
    pub(crate) fn record(&mut self, fp: u128, report: &SolveReport) -> io::Result<Option<&str>> {
        if self.held.contains(&fp) {
            return Ok(None);
        }
        let mut bytes = std::mem::take(&mut self.payload).into_bytes();
        report.write_store_json(&mut bytes);
        let payload = String::from_utf8(bytes).expect("JSON output is UTF-8");
        self.append(fp, self.config_fp, &payload)?;
        self.payload = payload;
        Ok(Some(&self.payload))
    }

    /// Makes every appended record durable: one `fsync`, counted as one
    /// `msrs_cache_store_flushes_total` batch, or none when nothing was
    /// appended since the last one.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced {
            self.journal.sync()?;
            self.unsynced = false;
            registry().cache_store_flushes_total.inc();
        }
        Ok(())
    }
}

/// One miss batch's fresh solves: canonical fingerprints and reports.
type Batch = Vec<(u128, Arc<SolveReport>)>;

/// A [`CacheStore`] on its own thread, fed whole miss batches over a
/// one-slot channel, so nothing is dropped and at most one batch waits.
/// The thread records each batch and syncs it once. Dropping the writer
/// joins it after the last batch. The default writer has no store.
#[derive(Debug, Default)]
pub(crate) struct StoreWriter(Option<(SyncSender<Batch>, JoinHandle<()>)>);

impl StoreWriter {
    pub(crate) fn spawn(mut store: CacheStore) -> StoreWriter {
        let (batches, rx) = sync_channel::<Batch>(1);
        let thread = std::thread::spawn(move || {
            for batch in rx {
                for (fp, report) in &batch {
                    if let Err(e) = store.record(*fp, report) {
                        eprintln!("msrs: cache store append failed: {e}");
                    }
                }
                if let Err(e) = store.sync() {
                    eprintln!("msrs: cache store sync failed: {e}");
                }
            }
        });
        StoreWriter(Some((batches, thread)))
    }

    /// Hands `batch` to the writer thread, waiting while a batch is queued
    /// (a no-op without a store).
    pub(crate) fn write(&self, batch: Batch) {
        if let Some((batches, _)) = &self.0 {
            let _ = batches.send(batch); // fails only if the thread panicked
        }
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        if let Some((batches, thread)) = self.0.take() {
            drop(batches); // ends the thread's loop after the last batch
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::SolverKind;
    use crate::report::{RunStatus, SolverRun};
    use msrs_core::{Assignment, Schedule};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msrs-cachestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn report(seed: u64) -> SolveReport {
        SolveReport {
            id: None,
            jobs: 2,
            machines: 1,
            classes: 1,
            lower_bound: seed,
            makespan: seed + 1,
            winner: SolverKind::FiveThirds,
            certified_horizon: seed + 2,
            certified_by: SolverKind::FiveThirds,
            proven_optimal: false,
            cache_hit: false,
            wall_micros: 3,
            runs: vec![SolverRun {
                solver: SolverKind::FiveThirds,
                status: RunStatus::Completed,
                makespan: Some(seed + 1),
                certified_horizon: Some(seed + 2),
                nodes: None,
                wall_micros: 3,
            }],
            schedule: Schedule::new(vec![
                Assignment {
                    machine: 0,
                    start: 0,
                },
                Assignment {
                    machine: 0,
                    start: seed,
                },
            ]),
        }
    }

    fn fill(path: &Path, config_fp: u64, n: u64) {
        let (mut store, entries, _) = CacheStore::open(path, config_fp).unwrap();
        assert!(entries.is_empty());
        for i in 0..n {
            let payload = report(i).to_store_json().to_string();
            store.append(i as u128 + 1, config_fp, &payload).unwrap();
        }
        store.sync().unwrap();
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp("round_trip.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 3);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(stats.loaded, 3);
        assert_eq!((stats.errors, stats.segments_quarantined), (0, 0));
        assert_eq!(entries.len(), 3);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.fingerprint, i as u128 + 1);
            assert_eq!(e.report.makespan, i as u64 + 1);
            assert_eq!(*e.payload, report(i as u64).to_store_json().to_string());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_config_and_foreign_files() {
        let path = tmp("foreign.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 1);
        let err = CacheStore::open(&path, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different engine configuration"));
        std::fs::write(&path, "{\"makespan\":3}\n").unwrap();
        assert!(CacheStore::open(&path, 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 2);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"fp\":\"00000000").unwrap();
        drop(f);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(stats.errors, 0, "a torn tail is not corruption");
        // The reopen truncated the tail: a fresh load sees a clean file.
        let (_store2, entries2, stats2) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(entries2.len(), 2);
        assert_eq!(stats2.errors, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_quarantines_only_its_segment() {
        let path = tmp("quarantine.mcache");
        let _ = std::fs::remove_file(&path);
        // Two segments: records 0..SEGMENT_RECORDS and a second batch.
        fill(&path, 7, SEGMENT_RECORDS as u64 + 4);
        // Corrupt one record in the first segment.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let victim = lines
            .iter()
            .position(|l| l.starts_with("{\"fp\":"))
            .unwrap();
        lines[victim] = lines[victim].replace("\"sum\":", "\"sum\":9");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(stats.segments_quarantined, 1);
        assert_eq!(stats.errors, 1);
        // The second segment survived untouched.
        assert_eq!(entries.len(), 4);
        assert!(entries
            .iter()
            .all(|e| e.fingerprint > SEGMENT_RECORDS as u128));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_missing_files_start_fresh() {
        let path = tmp("fresh.mcache");
        let _ = std::fs::remove_file(&path);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats, CacheLoadStats::default());
        drop(_store);
        std::fs::write(&path, "").unwrap();
        let (_store, entries, _) = CacheStore::open(&path, 7).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
