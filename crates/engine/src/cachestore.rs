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
//! {"fp":"<32-hex>","config":…,"report":{…},"sum":"<16-hex>"}   record
//! …
//! ```
//!
//! `sum` is an FNV-1a checksum over the record's bytes, checked before the
//! record is parsed. The report is the bytes
//! [`SolveReport::write_store_json`] writes, and the loader accepts only
//! those bytes: it reads them with [`SolveReport::read_store_json`]. A
//! loaded entry's payload is those checksummed bytes themselves.
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
//! * A corrupt *complete* record — checksum mismatch, a report in any
//!   other layout, foreign config — is dropped alone: it is counted in
//!   [`CacheLoadStats::errors`] and `msrs_cache_store_load_errors_total`,
//!   a log line names it, and every other record still loads. Corruption
//!   costs the damaged entries, never the store and never a wrong answer.
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
use crate::report::SolveReport;

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
/// telemetry (`msrs_cache_store_{loads,load_errors}_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoadStats {
    /// Records that verified and loaded.
    pub loaded: u64,
    /// Complete records that failed verification (checksum mismatch,
    /// unparsable, foreign config) and were dropped.
    pub errors: u64,
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
}

/// The record for `fp` under `config_fp`, before the journal adds its
/// checksum.
fn record(fp: u128, config_fp: u64, payload: &str) -> String {
    format!("{{\"fp\":\"{fp:032x}\",\"config\":{config_fp},\"report\":{payload}}}")
}

/// Parses one checksum-verified record under `config_fp`. `None` means
/// the record is foreign or its report is not `write_store_json`'s bytes
/// — never a panic.
fn parse_record(record: &str, config_fp: u64) -> Option<CacheStoreEntry> {
    let (hex, rest) = record.strip_prefix("{\"fp\":\"")?.split_at_checked(32)?;
    let (config, payload) = rest
        .strip_prefix("\",\"config\":")?
        .split_once(",\"report\":")?;
    let payload = payload.strip_suffix('}')?;
    if config.parse::<u64>().ok()? != config_fp {
        return None;
    }
    let report = SolveReport::read_store_json(payload)?;
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
        let mut line_no = 1;
        let header = Header {
            kind: "cache store",
            config_fp,
            shard_size: None,
        };
        let journal = Journal::open(path, &header, |record| {
            line_no += 1;
            // Earlier writers of this format version put `{"segment":N}`
            // marker lines between records; they hold no report.
            if record.is_some_and(|r| r.starts_with("{\"segment\":")) {
                return Ok(true);
            }
            let Some(entry) = record.and_then(|r| parse_record(r, config_fp)) else {
                stats.errors += 1;
                eprintln!(
                    "msrs cachestore: dropping corrupt record at line {line_no} of {}",
                    path.display()
                );
                return Ok(false);
            };
            entries.push(entry);
            Ok(true)
        })?;
        stats.loaded = entries.len() as u64;
        let reg = registry();
        reg.cache_store_loads_total.add(stats.loaded);
        reg.cache_store_load_errors_total.add(stats.errors);
        let store = CacheStore {
            journal,
            config_fp,
            held: entries.iter().map(|e| e.fingerprint).collect(),
            unsynced: false,
            payload: String::new(),
        };
        Ok((store, entries, stats))
    }

    /// Appends one record (call [`sync`](Self::sync) to make a batch
    /// durable). `payload` must be the report's
    /// [`SolveReport::write_store_json`] serialization, as
    /// `to_store_json().to_string()` also writes it.
    pub fn append(&mut self, fp: u128, config_fp: u64, payload: &str) -> io::Result<()> {
        self.journal.append(&record(fp, config_fp, payload))?;
        self.held.insert(fp);
        self.unsynced = true;
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
        assert_eq!((stats.loaded, stats.errors), (3, 0));
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
    fn corrupt_record_costs_only_itself() {
        let path = tmp("corrupt.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 100);
        // Corrupt the checksum of the record of fingerprint 41 (line 1 is
        // the header).
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 101, "header and 100 records, nothing else");
        lines[41] = lines[41].replace("\"sum\":", "\"sum\":9");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let (mut store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!((stats.loaded, stats.errors), (99, 1));
        assert!(entries.iter().all(|e| e.fingerprint != 41));
        // The store does not hold the lost fingerprint: recording it again
        // appends it, and the next open serves it. The corrupt line stays
        // in the file and is counted again.
        assert!(store.record(41, &report(40)).unwrap().is_some());
        store.sync().unwrap();
        drop(store);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!((stats.loaded, stats.errors), (100, 1));
        let entry = entries.iter().find(|e| e.fingerprint == 41).unwrap();
        assert_eq!(*entry.payload, report(40).to_store_json().to_string());
        std::fs::remove_file(&path).unwrap();
    }

    /// A record whose checksum holds but whose report is valid JSON in
    /// another layout than the writer's (two keys swapped) costs exactly
    /// that record.
    #[test]
    fn a_foreign_report_layout_costs_only_its_record() {
        let path = tmp("layout.mcache");
        let _ = std::fs::remove_file(&path);
        let header = Header {
            kind: "cache store",
            config_fp: 7,
            shard_size: None,
        };
        let mut journal = Journal::create(&path, &header).unwrap();
        for i in 0..10u64 {
            let mut payload = report(i).to_store_json().to_string();
            if i == 4 {
                let swapped =
                    payload.replacen("\"jobs\":2,\"machines\":1", "\"machines\":1,\"jobs\":2", 1);
                assert_ne!(swapped, payload);
                assert!(crate::json::Json::parse(&swapped).is_ok());
                payload = swapped;
            }
            journal.append(&record(i as u128 + 1, 7, &payload)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!((stats.loaded, stats.errors), (9, 1));
        let fps: Vec<u128> = entries.iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps, [1, 2, 3, 4, 6, 7, 8, 9, 10]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Earlier writers of format version 2 put a `{"segment":N}` marker
    /// line after every 64 records and at every reopen. Such a store loads
    /// in full, and appending to it writes no marker.
    #[test]
    fn loads_stores_with_marker_lines() {
        let path = tmp("markers.mcache");
        let _ = std::fs::remove_file(&path);
        let header = Header {
            kind: "cache store",
            config_fp: 7,
            shard_size: None,
        };
        let mut journal = Journal::create(&path, &header).unwrap();
        for i in 0..130u64 {
            let payload = report(i).to_store_json().to_string();
            journal.append(&record(i as u128 + 1, 7, &payload)).unwrap();
            if i % 64 == 63 {
                journal
                    .append(&format!("{{\"segment\":{}}}", i / 64))
                    .unwrap();
            }
        }
        journal.append("{\"segment\":2}").unwrap();
        journal.sync().unwrap();
        drop(journal);
        let markers = |path: &Path| {
            let text = std::fs::read_to_string(path).unwrap();
            text.lines().filter(|l| !l.starts_with("{\"fp\":")).count() - 1
        };
        assert_eq!(markers(&path), 3);

        let (mut store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!((stats.loaded, stats.errors), (130, 0));
        assert!(entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.fingerprint == i as u128 + 1));
        let payload = report(130).to_store_json().to_string();
        store.append(131, 7, &payload).unwrap();
        store.sync().unwrap();
        drop(store);
        assert_eq!(markers(&path), 3, "a reopen and an append write no marker");
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!((stats.loaded, stats.errors), (131, 0));
        assert_eq!(entries.last().unwrap().fingerprint, 131);
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
