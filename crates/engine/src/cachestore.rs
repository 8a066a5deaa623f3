//! Durable, crash-safe persistence for the result cache.
//!
//! A cache store is an append-only JSONL segment log holding
//! `(canonical fingerprint, config fingerprint, serialized report)`
//! records, keyed — like the dispatch checkpoint journal — by the
//! engine's content-relevant configuration fingerprint: a store written
//! under one configuration refuses to load under another, because the
//! reports it holds would be wrong answers there.
//!
//! ## File format
//!
//! ```text
//! {"cache":"msrs-cache","version":1,"config_fp":…}      header
//! {"fp":"<32-hex>","config":…,"sum":…,"report":{…}}     record × N
//! {"segment":0}                                          segment marker
//! {"fp":…}                                               record × N
//! {"segment":1}
//! …
//! ```
//!
//! Every record carries an FNV-1a checksum over its key *and* payload
//! (`fp:config:report-json`), and the embedded report is the
//! [`SolveReport::to_store_json`] canonical serialization — parsing a
//! record and re-serializing its report reproduces the checksummed bytes
//! exactly, which is how the loader verifies integrity without storing
//! the payload twice.
//!
//! ## Durability and recovery semantics
//!
//! * Appends are buffered by the caller ([`ReportCache`]'s background
//!   flusher batches them) and made durable by [`CacheStore::sync`];
//!   a record the store synced survives a `kill -9`.
//! * A crash mid-append can tear at most the final line; the loader
//!   drops an unterminated tail silently (the entry is simply re-solved
//!   and re-appended later) and reopening truncates it away.
//! * A corrupt *complete* record — checksum mismatch, invalid UTF-8 or
//!   JSON, unknown solver name — quarantines its whole segment: the
//!   segment's buffered records are discarded, a structured telemetry
//!   counter (`msrs_cache_store_segments_quarantined_total`) and a log
//!   line record the loss, and loading continues at the next segment
//!   marker. Corruption can therefore cost at most one segment
//!   ([`SEGMENT_RECORDS`] entries), never the store and never a wrong
//!   answer.
//! * A parseable header with the wrong magic, version, or configuration
//!   fingerprint refuses the file outright (`InvalidData`) — silent
//!   cross-configuration reuse would serve reports the current engine
//!   could not have produced.
//!
//! Reopening for append truncates the torn tail (if any) and writes a
//! fresh segment marker, so new appends can never be swallowed by a
//! quarantined trailing segment.
//!
//! The deterministic fault kinds `cache-torn:at=N` and
//! `cache-flip:record=K` (see the [`mod@crate::dispatch`] module docs) mutate
//! the file inside [`CacheStore::open`] *before* loading, so tests and CI
//! can exercise these recovery paths byte-deterministically.
//!
//! [`ReportCache`]: crate::cache::ReportCache

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use msrs_telemetry::registry;

use crate::checkpoint::{fnv1a_64, fnv1a_64_extend};
use crate::dispatch::{CacheFault, FaultSpec};
use crate::json::Json;
use crate::report::SolveReport;

/// Magic string identifying a cache store.
pub const CACHE_STORE_MAGIC: &str = "msrs-cache";
/// Store format version; bumped on incompatible record changes.
pub const CACHE_STORE_VERSION: u64 = 1;
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
    file: File,
    /// Records appended into the current segment.
    in_segment: usize,
    /// Id of the next segment marker to write.
    next_segment: u64,
}

/// FNV-1a over the record's key and payload: the canonical fingerprint
/// (hex), the config fingerprint (decimal), and the report's store
/// serialization, colon-separated. The short key is formatted on the
/// stack and the payload hashed in place, never copied.
fn record_checksum(fp: u128, config_fp: u64, payload: &str) -> u64 {
    // 32 hex digits, at most 20 decimal digits, two colons.
    let mut key = [0u8; 54];
    let mut cursor = io::Cursor::new(&mut key[..]);
    write!(cursor, "{fp:032x}:{config_fp}:").expect("the key fits its buffer");
    let len = cursor.position() as usize;
    fnv1a_64_extend(fnv1a_64(&key[..len]), payload.as_bytes())
}

fn header_line(config_fp: u64) -> String {
    Json::Obj(vec![
        ("cache".into(), Json::Str(CACHE_STORE_MAGIC.into())),
        ("version".into(), Json::Num(CACHE_STORE_VERSION as i128)),
        ("config_fp".into(), Json::Num(config_fp as i128)),
    ])
    .to_string()
}

/// Serializes one record line for `fp` under `config_fp`. `payload` must
/// be a [`SolveReport::to_store_json`] serialization (the loader verifies
/// by re-serializing).
pub fn record_line(fp: u128, config_fp: u64, payload: &str) -> String {
    let sum = record_checksum(fp, config_fp, payload);
    format!("{{\"fp\":\"{fp:032x}\",\"config\":{config_fp},\"sum\":{sum},\"report\":{payload}}}")
}

/// Parses and verifies one complete record line under `config_fp`.
/// `None` means the record is corrupt or foreign — never a panic.
fn parse_record(line: &str, config_fp: u64) -> Option<(u128, Arc<str>, Arc<SolveReport>)> {
    let v = Json::parse(line).ok()?;
    let fp = u128::from_str_radix(v.get("fp")?.as_str()?, 16).ok()?;
    let config = v.get("config")?.as_u64()?;
    if config != config_fp {
        return None;
    }
    let sum = v.get("sum")?.as_u64()?;
    let report_json = v.get("report")?;
    // The store serialization is canonical: re-serializing the parsed
    // tree reproduces the exact bytes the checksum covered, so any bit
    // that changed the content changes the recomputed sum.
    let payload = report_json.to_string();
    if record_checksum(fp, config, &payload) != sum {
        return None;
    }
    let report = SolveReport::from_store_json(report_json)?;
    Some((fp, payload.into(), Arc::new(report)))
}

/// Applies a `cache-torn` / `cache-flip` fault from `MSRS_FAULT` to the
/// file at `path` (no-op when absent, the spec names another kind, or
/// the file does not exist). Truncation cuts the file to `at` bytes; a
/// flip inverts one bit in the middle of the `record`-th record line.
fn apply_env_fault(path: &Path) -> io::Result<()> {
    let Some(fault) = FaultSpec::from_env().and_then(|f| f.cache_fault()) else {
        return Ok(());
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    match fault {
        CacheFault::Torn { at } => {
            let at = (at as usize).min(bytes.len());
            eprintln!(
                "msrs cachestore: injected torn tail at byte {at} of {}",
                path.display()
            );
            std::fs::write(path, &bytes[..at])
        }
        CacheFault::Flip { record } => {
            let mut bytes = bytes;
            let mut start = 0usize;
            let mut seen = 0u64;
            for line in bytes.split(|&b| b == b'\n') {
                if line.starts_with(b"{\"fp\":") {
                    if seen == record {
                        let mid = start + line.len() / 2;
                        bytes[mid] ^= 0x01;
                        eprintln!(
                            "msrs cachestore: injected bit flip in record {record} (byte {mid}) \
                             of {}",
                            path.display()
                        );
                        return std::fs::write(path, &bytes);
                    }
                    seen += 1;
                }
                start += line.len() + 1;
            }
            Ok(()) // fewer records than requested: nothing to flip
        }
    }
}

impl CacheStore {
    /// Opens (or creates) the store at `path` for the engine
    /// configuration fingerprinted by `config_fp`, replaying and
    /// verifying its contents: every verified entry is returned, the
    /// load outcome is mirrored into telemetry, a torn tail is truncated
    /// away, and the store is left positioned for appending. Fails with
    /// `InvalidData` when the file exists but is not a cache store or
    /// belongs to a different configuration.
    pub fn open(
        path: &Path,
        config_fp: u64,
    ) -> io::Result<(CacheStore, Vec<CacheStoreEntry>, CacheLoadStats)> {
        apply_env_fault(path)?;
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let mut entries = Vec::new();
        let mut stats = CacheLoadStats::default();
        // Byte offset just past the last fully terminated line: what a
        // reopen may keep. Everything after it is a torn tail.
        let mut good_len = 0u64;
        let mut next_segment = 0u64;
        let mut have_header = false;
        match File::open(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(file) => {
                let mut reader = BufReader::new(file);
                let mut buf: Vec<u8> = Vec::new();
                // Records verified so far in the current segment; committed
                // at the next segment marker (or EOF), discarded wholesale
                // if the segment turns out to hold a corrupt record.
                let mut segment: Vec<CacheStoreEntry> = Vec::new();
                let mut quarantined = false;
                loop {
                    buf.clear();
                    if reader.read_until(b'\n', &mut buf)? == 0 {
                        break;
                    }
                    if !buf.ends_with(b"\n") {
                        // Torn tail from an interrupted append: drop the
                        // partial line, keep everything before it.
                        break;
                    }
                    let line_len = buf.len() as u64;
                    let line = std::str::from_utf8(&buf[..buf.len() - 1]).ok();
                    if !have_header {
                        let Some(line) = line else {
                            return Err(invalid(format!(
                                "{}: not a cache store (binary header)",
                                path.display()
                            )));
                        };
                        let header = Json::parse(line)
                            .ok()
                            .filter(|v| {
                                v.get("cache").and_then(Json::as_str) == Some(CACHE_STORE_MAGIC)
                            })
                            .ok_or_else(|| {
                                invalid(format!("{}: not a cache store", path.display()))
                            })?;
                        if header.get("version").and_then(Json::as_u64) != Some(CACHE_STORE_VERSION)
                        {
                            return Err(invalid(format!(
                                "{}: unsupported cache store version",
                                path.display()
                            )));
                        }
                        let file_fp = header.get("config_fp").and_then(Json::as_u64);
                        if file_fp != Some(config_fp) {
                            return Err(invalid(format!(
                                "{}: cache store belongs to a different engine configuration \
                                 (config_fp {:#x} recorded, {config_fp:#x} requested)",
                                path.display(),
                                file_fp.unwrap_or(0),
                            )));
                        }
                        have_header = true;
                        good_len += line_len;
                        continue;
                    }
                    good_len += line_len;
                    if let Some(marker) = line
                        .and_then(|l| Json::parse(l).ok())
                        .as_ref()
                        .and_then(|v| v.get("segment"))
                        .and_then(Json::as_u64)
                    {
                        // Segment boundary: commit the survivors, reset the
                        // quarantine state.
                        entries.append(&mut segment);
                        quarantined = false;
                        next_segment = next_segment.max(marker + 1);
                        continue;
                    }
                    match line.and_then(|l| parse_record(l, config_fp)) {
                        Some((fingerprint, payload, report)) if !quarantined => {
                            segment.push(CacheStoreEntry {
                                fingerprint,
                                report,
                                payload,
                            });
                        }
                        Some(_) => {} // rest of a quarantined segment
                        None => {
                            stats.errors += 1;
                            if !quarantined {
                                quarantined = true;
                                stats.segments_quarantined += 1;
                                segment.clear();
                                eprintln!(
                                    "msrs cachestore: corrupt record at byte {} of {} — \
                                     quarantining its segment",
                                    good_len - line_len,
                                    path.display()
                                );
                            }
                        }
                    }
                }
                if !quarantined {
                    entries.append(&mut segment);
                }
            }
        }
        stats.loaded = entries.len() as u64;
        let reg = registry();
        reg.cache_store_loads_total.add(stats.loaded);
        reg.cache_store_load_errors_total.add(stats.errors);
        reg.cache_store_segments_quarantined_total
            .add(stats.segments_quarantined);
        let mut store = if have_header {
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            // Truncate the torn tail (and any unterminated garbage after
            // the last good line) before appending.
            file.set_len(good_len)?;
            let mut file = file;
            file.seek(SeekFrom::End(0))?;
            CacheStore {
                file,
                in_segment: 0,
                next_segment,
            }
        } else {
            // Missing, empty, or header-torn file: start fresh.
            let mut file = File::create(path)?;
            writeln!(file, "{}", header_line(config_fp))?;
            CacheStore {
                file,
                in_segment: 0,
                next_segment: 0,
            }
        };
        // A fresh segment marker isolates new appends from whatever the
        // trailing loaded segment held (possibly quarantined records).
        store.write_marker()?;
        store.file.sync_data()?;
        Ok((store, entries, stats))
    }

    fn write_marker(&mut self) -> io::Result<()> {
        writeln!(self.file, "{{\"segment\":{}}}", self.next_segment)?;
        self.next_segment += 1;
        self.in_segment = 0;
        Ok(())
    }

    /// Appends one record (buffered — call [`sync`](Self::sync) to make
    /// a batch durable). `payload` must be the report's
    /// [`SolveReport::to_store_json`] serialization.
    pub fn append(&mut self, fp: u128, config_fp: u64, payload: &str) -> io::Result<()> {
        writeln!(self.file, "{}", record_line(fp, config_fp, payload))?;
        self.in_segment += 1;
        if self.in_segment >= SEGMENT_RECORDS {
            self.write_marker()?;
        }
        Ok(())
    }

    /// Makes every appended record durable (one `fsync`, counted as one
    /// `msrs_cache_store_flushes_total` batch).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        registry().cache_store_flushes_total.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::SolverKind;
    use crate::report::{RunStatus, SolverRun};
    use msrs_core::{Assignment, Schedule};
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
    fn checksum_hashes_the_joined_key_and_payload() {
        for (fp, config) in [(0, 0), (1, 7), (u128::MAX, u64::MAX)] {
            for payload in ["", "{\"jobs\":1}", "é✓"] {
                assert_eq!(
                    record_checksum(fp, config, payload),
                    fnv1a_64(format!("{fp:032x}:{config}:{payload}").as_bytes())
                );
            }
        }
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
