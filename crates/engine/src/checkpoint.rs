//! Append-only checkpoint journal for `msrs dispatch`.
//!
//! The dispatch coordinator journals one record per *emitted* shard, so a
//! crashed or interrupted run resumes from the last completed shard and
//! still produces a report stream bit-identical to an uninterrupted run.
//! The file is an append-only journal (the format it shares with the
//! cache store): a header keyed by the engine's content fingerprint and
//! the shard size, then one checksummed record per shard in shard order.
//! Each append is `fsync`'d, after the *output* file was synced, so a
//! record always describes report bytes that are really on disk.
//!
//! Corruption policy: a crash mid-append leaves at most a torn final line,
//! and a bad final record is treated the same way — [`CheckpointLog::open`]
//! drops and truncates it, and its shard is simply redone. A bad record
//! *before* the final one means the file was damaged by something other
//! than an interrupted append, and opening fails instead of guessing.
//!
//! Numbers are integers (the crate's JSON layer is integer-exact); the two
//! floating-point stats fields travel as IEEE-754 bit patterns, so merging
//! checkpointed stats into a resumed run's summary is bits-exact.

use std::io;
use std::path::Path;

use crate::journal::{Header, Journal};
use crate::json::Json;
use crate::stream::StreamStats;

pub use crate::journal::fnv1a_64;

/// The journal header: what run this checkpoint belongs to. A resume
/// refuses to reuse a journal whose configuration fingerprint or shard
/// size differs — either would change shard boundaries or report content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// [`crate::EngineConfig::content_fingerprint`] of the dispatching
    /// engine configuration.
    pub config_fp: u64,
    /// Shard size the corpus is split with.
    pub shard_size: usize,
}

impl CheckpointHeader {
    fn journal(self) -> Header {
        Header {
            kind: "checkpoint",
            config_fp: self.config_fp,
            shard_size: Some(self.shard_size),
        }
    }
}

/// Per-shard summary stats as they travel on the worker wire protocol and
/// in checkpoint records. Mirrors the summing fields of [`StreamStats`];
/// the two `f64` ratio fields are carried as bit patterns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Reports emitted for the shard.
    pub instances: u64,
    /// Reports with a proven-optimal schedule.
    pub proven_optimal: u64,
    /// Lines served from the worker's result cache or in-shard dedup.
    pub fast_path_hits: u64,
    /// Materialized-request high-water mark inside the worker.
    pub max_resident: u64,
    /// `StreamStats::ratio_sum` as IEEE-754 bits.
    pub ratio_sum_bits: u64,
    /// `StreamStats::ratio_worst` as IEEE-754 bits.
    pub ratio_worst_bits: u64,
    /// Input parse/decode time, µs.
    pub parse_micros: u64,
    /// Canonicalize + cache-probe time, µs.
    pub canon_micros: u64,
    /// Solver time, µs.
    pub solve_micros: u64,
    /// Report serialization time, µs.
    pub serialize_micros: u64,
}

impl ShardStats {
    /// Captures the summing fields of a finished per-shard stream run.
    pub fn from_stream(stats: &StreamStats) -> Self {
        ShardStats {
            instances: stats.instances as u64,
            proven_optimal: stats.proven_optimal as u64,
            fast_path_hits: stats.fast_path_hits as u64,
            max_resident: stats.max_resident as u64,
            ratio_sum_bits: stats.ratio_sum.to_bits(),
            ratio_worst_bits: stats.ratio_worst.to_bits(),
            parse_micros: stats.parse_micros,
            canon_micros: stats.canon_micros,
            solve_micros: stats.solve_micros,
            serialize_micros: stats.serialize_micros,
        }
    }

    /// Adds this shard's contribution into a merged run summary.
    /// (`shards` itself is counted by the caller, which also owns the
    /// wall-clock split.)
    pub fn merge_into(&self, total: &mut StreamStats) {
        total.instances += self.instances as usize;
        total.proven_optimal += self.proven_optimal as usize;
        total.fast_path_hits += self.fast_path_hits as usize;
        total.max_resident = total.max_resident.max(self.max_resident as usize);
        total.ratio_sum += f64::from_bits(self.ratio_sum_bits);
        total.ratio_worst = total.ratio_worst.max(f64::from_bits(self.ratio_worst_bits));
        total.parse_micros += self.parse_micros;
        total.canon_micros += self.canon_micros;
        total.solve_micros += self.solve_micros;
        total.serialize_micros += self.serialize_micros;
    }

    /// The stats fields as JSON object members (spliced into wire `#done`
    /// payloads and checkpoint records).
    pub fn to_json_fields(&self) -> Vec<(String, Json)> {
        let n = |v: u64| Json::Num(v as i128);
        vec![
            ("instances".into(), n(self.instances)),
            ("proven_optimal".into(), n(self.proven_optimal)),
            ("fast_path_hits".into(), n(self.fast_path_hits)),
            ("max_resident".into(), n(self.max_resident)),
            ("ratio_sum_bits".into(), n(self.ratio_sum_bits)),
            ("ratio_worst_bits".into(), n(self.ratio_worst_bits)),
            ("parse_micros".into(), n(self.parse_micros)),
            ("canon_micros".into(), n(self.canon_micros)),
            ("solve_micros".into(), n(self.solve_micros)),
            ("serialize_micros".into(), n(self.serialize_micros)),
        ]
    }

    /// Reads the stats fields back out of a JSON object.
    pub fn from_json(v: &Json) -> Option<Self> {
        let f = |key: &str| v.get(key)?.as_u64();
        Some(ShardStats {
            instances: f("instances")?,
            proven_optimal: f("proven_optimal")?,
            fast_path_hits: f("fast_path_hits")?,
            max_resident: f("max_resident")?,
            ratio_sum_bits: f("ratio_sum_bits")?,
            ratio_worst_bits: f("ratio_worst_bits")?,
            parse_micros: f("parse_micros")?,
            canon_micros: f("canon_micros")?,
            solve_micros: f("solve_micros")?,
            serialize_micros: f("serialize_micros")?,
        })
    }
}

/// One durable shard-completion record. Records are appended in shard
/// order (the coordinator only journals the contiguous completed prefix),
/// so `out_bytes` of the last record is the exact length of the output
/// file a resume may trust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// 0-based shard index.
    pub shard: usize,
    /// Meaningful corpus lines in the shard.
    pub lines: usize,
    /// FNV-1a fingerprint of the shard's raw line text (each line plus a
    /// `\n`), for detecting a changed corpus on resume.
    pub shard_fp: u64,
    /// Output-file length in bytes after this shard's reports.
    pub out_bytes: u64,
    /// Attempts it took to complete the shard (1 = first try).
    pub attempts: u32,
    /// True when the shard exhausted its retry budget and a structured
    /// error record was emitted in place of its reports.
    pub quarantined: bool,
    /// The shard's summary stats (zeroed for quarantined shards).
    pub stats: ShardStats,
}

impl ShardRecord {
    fn to_line(self) -> String {
        let mut obj = vec![
            ("shard".into(), Json::Num(self.shard as i128)),
            ("lines".into(), Json::Num(self.lines as i128)),
            ("shard_fp".into(), Json::Num(self.shard_fp as i128)),
            ("out_bytes".into(), Json::Num(self.out_bytes as i128)),
            ("attempts".into(), Json::Num(self.attempts as i128)),
            ("quarantined".into(), Json::Bool(self.quarantined)),
        ];
        obj.extend(self.stats.to_json_fields());
        Json::Obj(obj).to_string()
    }

    fn parse(line: &str) -> Option<Self> {
        let v = &Json::parse(line).ok()?;
        Some(ShardRecord {
            shard: v.get("shard")?.as_usize()?,
            lines: v.get("lines")?.as_usize()?,
            shard_fp: v.get("shard_fp")?.as_u64()?,
            out_bytes: v.get("out_bytes")?.as_u64()?,
            attempts: v.get("attempts")?.as_u64()? as u32,
            quarantined: matches!(v.get("quarantined")?, Json::Bool(true)),
            stats: ShardStats::from_json(v)?,
        })
    }
}

/// The append side of the journal. Every [`append`](Self::append) is one
/// write plus `sync_data`, so a record that `append` returned `Ok` for
/// survives a process crash.
#[derive(Debug)]
pub struct CheckpointLog {
    journal: Journal,
}

impl CheckpointLog {
    /// Starts a fresh journal at `path` (truncating any previous one) and
    /// writes the header, which becomes durable with the first
    /// [`append`](Self::append).
    pub fn create(path: &Path, header: CheckpointHeader) -> io::Result<Self> {
        let journal = Journal::create(path, &header.journal())?;
        Ok(CheckpointLog { journal })
    }

    /// Opens the journal at `path` for the run `header` describes: creates
    /// it when there is none, or reads back the shard records of an
    /// earlier run (`records[i].shard == i`) and positions the log after
    /// the last of them. Fails with `InvalidData` when the header belongs
    /// to another kind, version, configuration or shard size, or when a
    /// record before the final one is corrupt or out of order.
    pub fn open(path: &Path, header: CheckpointHeader) -> io::Result<(Self, Vec<ShardRecord>)> {
        let mut records: Vec<ShardRecord> = Vec::new();
        let mut bad_line = None;
        let (journal, _) = Journal::open(path, &header.journal(), |line| {
            if let Some(at) = bad_line {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: corrupt record at line {at}", path.display()),
                ));
            }
            match line.and_then(ShardRecord::parse) {
                Some(rec) if rec.shard == records.len() => records.push(rec),
                // Line 1 is the header. Only the final record may be bad.
                _ => bad_line = Some(records.len() + 2),
            }
            Ok(bad_line.is_none())
        })?;
        Ok((CheckpointLog { journal }, records))
    }

    /// Durably appends one shard-completion record.
    pub fn append(&mut self, record: &ShardRecord) -> io::Result<()> {
        self.journal.append(&record.to_line())?;
        self.journal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            config_fp: 0xDEADBEEF,
            shard_size: 8,
        }
    }

    fn record(shard: usize) -> ShardRecord {
        ShardRecord {
            shard,
            lines: 8,
            shard_fp: 42 + shard as u64,
            out_bytes: 100 * (shard as u64 + 1),
            attempts: 1,
            quarantined: false,
            stats: ShardStats {
                instances: 8,
                ratio_sum_bits: 8.25f64.to_bits(),
                ratio_worst_bits: 1.5f64.to_bits(),
                ..ShardStats::default()
            },
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("msrs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn open(path: &Path) -> io::Result<Vec<ShardRecord>> {
        CheckpointLog::open(path, header()).map(|(_, records)| records)
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp("round_trip.ckpt");
        let mut log = CheckpointLog::create(&path, header()).unwrap();
        log.append(&record(0)).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        assert_eq!(open(&path).unwrap(), vec![record(0), record(1)]);
        let other = CheckpointHeader {
            shard_size: 4,
            ..header()
        };
        let err = CheckpointLog::open(&path, other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_fresh_run_and_torn_tail_is_truncated_before_appending() {
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert!(records.is_empty());
        log.append(&record(0)).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        // A crash mid-append: the final record lost its last bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let (mut log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0)]);
        // The resumed run's appends follow the last whole record.
        log.append(&record(1)).unwrap();
        log.append(&record(2)).unwrap();
        drop(log);
        assert_eq!(open(&path).unwrap(), vec![record(0), record(1), record(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_foreign_files_and_mid_file_corruption() {
        let path = tmp("foreign.ckpt");
        std::fs::write(&path, "{\"makespan\":3}\n").unwrap();
        assert_eq!(open(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);

        let mut log = CheckpointLog::create(&path, header()).unwrap();
        log.append(&record(0)).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        // A bad final record is dropped…
        lines[2] = "not json";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        assert_eq!(open(&path).unwrap(), vec![record(0)]);
        // …but corruption before a later record is a hard error.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "not json");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("corrupt record at line 2"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_stats_merge_is_bits_exact() {
        let mut stats = StreamStats {
            ratio_sum: 1.1,
            ..StreamStats::default()
        };
        let shard = ShardStats {
            instances: 3,
            ratio_sum_bits: 2.2f64.to_bits(),
            ratio_worst_bits: 1.75f64.to_bits(),
            ..ShardStats::default()
        };
        shard.merge_into(&mut stats);
        assert_eq!(stats.instances, 3);
        assert_eq!(stats.ratio_sum.to_bits(), (1.1f64 + 2.2f64).to_bits());
        assert_eq!(stats.ratio_worst.to_bits(), 1.75f64.to_bits());
    }
}
