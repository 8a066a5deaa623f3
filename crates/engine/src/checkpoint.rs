//! Append-only checkpoint journal for `msrs dispatch`.
//!
//! The dispatch coordinator journals one record per *emitted* shard so a
//! crashed or interrupted run can resume from the last completed shard and
//! still produce a report stream bit-identical to an uninterrupted run.
//! The journal is JSONL: a header line keyed by the engine's
//! content-relevant configuration fingerprint and the shard size, followed
//! by shard-completion records in emission (= shard) order. Every append
//! is flushed and `fsync`'d before the coordinator considers the shard
//! durable, and the *output* file is synced first — so a record in the
//! journal always describes bytes that are really on disk.
//!
//! Durability contract for the tail: a crash mid-append can leave at most
//! one torn final line, which [`load`] detects and discards (the shard it
//! described is simply redone). A torn or unparsable line *before* the
//! tail means the file was corrupted by something other than an
//! interrupted append, and loading fails loudly instead of guessing.
//!
//! All numbers in the journal are integers (the crate's JSON layer is
//! integer-exact by design); the two floating-point stats fields travel as
//! IEEE-754 bit patterns, so merging checkpointed stats into a resumed
//! run's summary is bits-exact.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::json::Json;
use crate::stream::StreamStats;

/// Magic string identifying a dispatch checkpoint journal.
pub const CHECKPOINT_MAGIC: &str = "msrs-dispatch";
/// Journal format version; bumped on incompatible record changes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// 64-bit FNV-1a over a byte slice — the same stable, platform-independent
/// hash the engine uses for its configuration fingerprint. Used to
/// fingerprint each shard's raw line text so a resume detects a corpus
/// that changed underneath the journal.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(0xcbf29ce484222325, bytes)
}

/// Continues an FNV-1a hash over more bytes: hashing `a` and then
/// extending by `b` equals [`fnv1a_64`] of `a` followed by `b`.
pub(crate) fn fnv1a_64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

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
    fn to_line(self) -> String {
        Json::Obj(vec![
            ("checkpoint".into(), Json::Str(CHECKPOINT_MAGIC.into())),
            ("version".into(), Json::Num(CHECKPOINT_VERSION as i128)),
            ("config_fp".into(), Json::Num(self.config_fp as i128)),
            ("shard_size".into(), Json::Num(self.shard_size as i128)),
        ])
        .to_string()
    }

    fn from_json(v: &Json) -> Option<Self> {
        if v.get("checkpoint")?.as_str()? != CHECKPOINT_MAGIC
            || v.get("version")?.as_u64()? != CHECKPOINT_VERSION
        {
            return None;
        }
        Some(CheckpointHeader {
            config_fp: v.get("config_fp")?.as_u64()?,
            shard_size: v.get("shard_size")?.as_usize()?,
        })
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

    fn from_json(v: &Json) -> Option<Self> {
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

/// The append side of the journal. Owns the file handle; every
/// [`append`](Self::append) is write + flush + `sync_data`, so a record
/// that `append` returned `Ok` for survives a process crash.
#[derive(Debug)]
pub struct CheckpointLog {
    file: File,
}

impl CheckpointLog {
    /// Starts a fresh journal at `path` (truncating any previous one) and
    /// durably writes the header.
    pub fn create(path: &Path, header: CheckpointHeader) -> io::Result<Self> {
        let mut file = File::create(path)?;
        writeln!(file, "{}", header.to_line())?;
        file.sync_data()?;
        Ok(CheckpointLog { file })
    }

    /// Reopens an existing journal for appending (resume path). The caller
    /// has already validated the header via [`load`].
    pub fn open_append(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointLog { file })
    }

    /// Durably appends one shard-completion record.
    pub fn append(&mut self, record: &ShardRecord) -> io::Result<()> {
        writeln!(self.file, "{}", record.to_line())?;
        self.file.sync_data()
    }
}

/// A journal read back for resume: the validated header plus the
/// contiguous shard records it holds.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The run key the journal was created with.
    pub header: CheckpointHeader,
    /// Shard records in shard order (`records[i].shard == i`).
    pub records: Vec<ShardRecord>,
}

impl LoadedCheckpoint {
    /// Output-file length the records vouch for (0 with no records).
    pub fn out_bytes(&self) -> u64 {
        self.records.last().map(|r| r.out_bytes).unwrap_or(0)
    }
}

/// Reads a journal back. Returns `Ok(None)` when `path` does not exist
/// (fresh run); `Err` when the file exists but is not a valid journal —
/// wrong magic/version, records out of order, or corruption anywhere but
/// the tail. A torn final line (interrupted append) is silently dropped.
pub fn load(path: &Path) -> io::Result<Option<LoadedCheckpoint>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let mut lines = Vec::new();
    let mut reader = BufReader::new(file);
    let mut buf = String::new();
    let mut terminated = true;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        terminated = buf.ends_with('\n');
        lines.push(buf.trim_end_matches('\n').to_string());
    }
    // An interrupted append can only tear the tail; drop it.
    if !terminated {
        lines.pop();
    }
    let Some(header_line) = lines.first() else {
        return Ok(None); // empty file: treat as no checkpoint
    };
    let header = Json::parse(header_line)
        .ok()
        .as_ref()
        .and_then(CheckpointHeader::from_json)
        .ok_or_else(|| {
            invalid(format!(
                "{}: not a dispatch checkpoint journal",
                path.display()
            ))
        })?;
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        let is_tail = i + 1 == lines.len();
        let parsed = Json::parse(line)
            .ok()
            .as_ref()
            .and_then(ShardRecord::from_json);
        match parsed {
            Some(rec) => {
                if rec.shard != records.len() {
                    return Err(invalid(format!(
                        "{}: record {} out of order (shard {}, expected {})",
                        path.display(),
                        i,
                        rec.shard,
                        records.len()
                    )));
                }
                records.push(rec);
            }
            // A terminated-but-unparsable tail line still means the file
            // ends mid-story (e.g. a torn write that happened to land on
            // `\n`); redoing one shard is always safe.
            None if is_tail => break,
            None => {
                return Err(invalid(format!(
                    "{}: corrupt record at line {}",
                    path.display(),
                    i + 1
                )));
            }
        }
    }
    Ok(Some(LoadedCheckpoint { header, records }))
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

    #[test]
    fn round_trips_header_and_records() {
        let dir = std::env::temp_dir().join(format!("msrs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.ckpt");
        let mut log = CheckpointLog::create(&path, header()).unwrap();
        log.append(&record(0)).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.records, vec![record(0), record(1)]);
        assert_eq!(loaded.out_bytes(), 200);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_fresh_run_and_torn_tail_is_dropped() {
        let dir = std::env::temp_dir().join(format!("msrs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load(&dir.join("nope.ckpt")).unwrap().is_none());

        let path = dir.join("torn.ckpt");
        let mut log = CheckpointLog::create(&path, header()).unwrap();
        log.append(&record(0)).unwrap();
        drop(log);
        // Simulate a crash mid-append: a record line without its newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"shard\":1,\"lin").unwrap();
        drop(f);
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_foreign_files_and_mid_file_corruption() {
        let dir = std::env::temp_dir().join(format!("msrs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        std::fs::write(&path, "{\"makespan\":3}\n").unwrap();
        assert!(load(&path).is_err());

        let path2 = dir.join("corrupt.ckpt");
        let mut log = CheckpointLog::create(&path2, header()).unwrap();
        log.append(&record(0)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path2).unwrap();
        std::fs::write(
            &path2,
            format!("{}garbage\n{}", &text[..text.len() - 1], ""),
        )
        .unwrap();
        // ("garbage" glued into the record line, then nothing) — the
        // tail record is unparsable and dropped, not an error…
        assert_eq!(load(&path2).unwrap().unwrap().records.len(), 0);
        // …but corruption *before* a valid record is a hard error.
        let mut log = CheckpointLog::create(&path2, header()).unwrap();
        log.append(&record(0)).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path2).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "not json";
        std::fs::write(&path2, format!("{}\n", lines.join("\n"))).unwrap();
        assert!(load(&path2).is_err());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
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
