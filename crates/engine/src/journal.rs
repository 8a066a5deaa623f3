//! The one append-only log under the dispatch checkpoint and the cache
//! store: a header line, then one JSON record per line.
//!
//! The header names the journal's kind, the format [`VERSION`], the
//! engine's content fingerprint and, for a checkpoint, the shard size; a
//! file whose header differs from the caller's is refused (`InvalidData`).
//! Each record is stored with one extra, final member,
//! `{…,"sum":"<16 hex digits>"}`: the FNV-1a hash of the record as the
//! caller wrote it, i.e. the line without that member. The reader checks it
//! before handing the record on, so callers only ever parse bytes they
//! wrote.
//!
//! An append is one `write` of the whole line, so a crash leaves at most a
//! partial final line. The reader never reports such a torn tail, and a
//! reopen truncates the file to the end of the last record the caller
//! kept. What a bad *complete* record means is the caller's policy.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::json::Json;

/// Format version of every journal; a file with another version is
/// refused.
const VERSION: u64 = 2;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// What the journal splices in before a record's closing brace, ahead of
/// the 16 lowercase hex digits of its checksum and `"}`.
const SUM_MEMBER: &[u8] = b",\"sum\":\"";
const SUM_MEMBER_LEN: usize = SUM_MEMBER.len() + 16 + 2;

/// 64-bit FNV-1a over a byte slice: stable across platforms and runs. It
/// checksums journal records, fingerprints dispatch shards and the engine
/// configuration.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes: extending the hash of `a` by
/// `b` equals [`fnv1a_64`] of `a` followed by `b`.
pub(crate) fn fnv1a_64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Whose journal a file is: what its header records, and what a reopen
/// must find there.
pub(crate) struct Header {
    /// `"checkpoint"` or `"cache store"`.
    pub kind: &'static str,
    /// [`crate::EngineConfig::content_fingerprint`] of the writer.
    pub config_fp: u64,
    /// The dispatch shard size (checkpoints only).
    pub shard_size: Option<usize>,
}

impl Header {
    fn line(&self) -> String {
        let mut line = format!(
            "{{\"journal\":\"{}\",\"version\":{VERSION},\"config_fp\":{}",
            self.kind, self.config_fp
        );
        if let Some(size) = self.shard_size {
            line.push_str(&format!(",\"shard_size\":{size}"));
        }
        line + "}\n"
    }

    /// Refuses a header line (without its newline) that is not exactly
    /// this header, naming what differs.
    fn check(&self, line: &[u8], path: &Path) -> io::Result<()> {
        let want = self.line();
        let want = want.trim_end();
        if line == want.as_bytes() {
            return Ok(());
        }
        let v = std::str::from_utf8(line)
            .ok()
            .and_then(|l| Json::parse(l).ok())
            .unwrap_or(Json::Null);
        let kind = self.kind;
        let why = match v.get("version").and_then(Json::as_u64) {
            Some(version) if version != VERSION => {
                format!("{kind} format version {version} is not supported (expected {VERSION})")
            }
            Some(_) if v.get("journal").and_then(Json::as_str) == Some(kind) => format!(
                "{kind} belongs to a different engine configuration or run \
                 (header {} recorded, {want} requested)",
                String::from_utf8_lossy(line)
            ),
            _ => format!("not a {kind} journal"),
        };
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        ))
    }
}

/// The append side of an open journal.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    /// The line being written or read, reused across calls.
    line: Vec<u8>,
}

impl Journal {
    /// Starts a fresh journal at `path`, replacing any file there, and
    /// writes its header. The header is not synced here: the first
    /// [`sync`](Self::sync) after an append makes it durable with the
    /// records, and a crash before then leaves an empty file or a torn
    /// header, which [`open`](Self::open) creates afresh.
    pub(crate) fn create(path: &Path, header: &Header) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        file.write_all(header.line().as_bytes())?;
        Ok(Journal {
            file,
            line: Vec::new(),
        })
    }

    /// Opens the journal at `path` for appending, or
    /// [`create`](Self::create)s it when the file is missing, empty, or
    /// holds only a torn header.
    ///
    /// Every complete record line goes to `visit` in file order: the
    /// record as appended when its checksum holds, `None` when it does
    /// not. `visit` answers whether it keeps the record, or fails the
    /// open. The file is then truncated to the end of the last kept
    /// record, so appends continue from there.
    pub(crate) fn open(
        path: &Path,
        header: &Header,
        mut visit: impl FnMut(Option<&str>) -> io::Result<bool>,
    ) -> io::Result<Journal> {
        let file = match OpenOptions::new().read(true).append(true).open(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Journal::create(path, header),
            opened => opened?,
        };
        let mut reader = BufReader::new(&file);
        let mut line = Vec::new();
        let mut end = read_line(&mut reader, &mut line)? as u64;
        if end == 0 {
            return Journal::create(path, header);
        }
        header.check(&line, path)?;
        let mut kept = end;
        loop {
            let len = read_line(&mut reader, &mut line)?;
            if len == 0 {
                break;
            }
            end += len as u64;
            if visit(unseal(&mut line))? {
                kept = end;
            }
        }
        drop(reader);
        file.set_len(kept)?;
        Ok(Journal { file, line })
    }

    /// Appends `record`, a JSON object, with its checksum: one `write` of
    /// the whole line.
    pub(crate) fn append(&mut self, record: &str) -> io::Result<()> {
        self.line.clear();
        seal(record, &mut self.line);
        self.file.write_all(&self.line)
    }

    /// Makes every appended record durable (one `fsync`).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Writes the journal line for `record` into `line`: the record with its
/// `sum` member, and the newline.
fn seal(record: &str, line: &mut Vec<u8>) {
    let body = record
        .strip_suffix('}')
        .expect("a journal record is a JSON object");
    line.extend_from_slice(body.as_bytes());
    line.extend_from_slice(SUM_MEMBER);
    line.extend_from_slice(&hex(fnv1a_64(record.as_bytes())));
    line.extend_from_slice(b"\"}\n");
}

/// Checks a record line's `sum` and, when it holds, turns the line back
/// into the record as appended.
fn unseal(line: &mut Vec<u8>) -> Option<&str> {
    let at = line.len().checked_sub(SUM_MEMBER_LEN)?;
    let (body, member) = line.split_at(at);
    let digits = member.strip_prefix(SUM_MEMBER)?.strip_suffix(b"\"}")?;
    if digits != hex(fnv1a_64_extend(fnv1a_64(body), b"}")) {
        return None;
    }
    line.truncate(at);
    line.push(b'}');
    std::str::from_utf8(line).ok()
}

/// The 16 lowercase hex digits of `sum`.
fn hex(sum: u64) -> [u8; 16] {
    std::array::from_fn(|i| b"0123456789abcdef"[(sum >> (60 - 4 * i)) as usize & 0xf])
}

/// Reads the next line into `buf` without its newline and returns its
/// length with the newline; 0 at the end of the file or at a torn tail.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    let len = reader.read_until(b'\n', buf)?;
    Ok(if buf.pop() == Some(b'\n') { len } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            kind: "checkpoint",
            config_fp: 7,
            shard_size: Some(8),
        }
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a_64(b""), FNV_OFFSET);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"),
            fnv1a_64(b"foobar")
        );
    }

    #[test]
    fn sealed_records_unseal_to_themselves_and_flips_fail() {
        for record in ["{}", "{\"a\":1}", "{\"s\":\"é✓\",\"o\":{\"x\":[1,2]}}"] {
            let mut line = Vec::new();
            seal(record, &mut line);
            assert_eq!(line.pop(), Some(b'\n'));
            let sealed = line.clone();
            assert_eq!(unseal(&mut line), Some(record));
            for pos in 0..sealed.len() {
                for bit in 0..8 {
                    let mut flipped = sealed.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_eq!(unseal(&mut flipped), None, "{record} byte {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn headers_are_refused_by_kind_version_configuration_and_shard_size() {
        let path = Path::new("x.journal");
        let refusal = |line: &[u8]| {
            let err = header().check(line, path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        let line = header().line();
        let line = line.trim_end();
        assert!(header().check(line.as_bytes(), path).is_ok());
        assert!(refusal(b"{\"makespan\":3}").contains("not a checkpoint journal"));
        assert!(refusal(b"\xff\xfe").contains("not a checkpoint journal"));
        let other_kind = line.replace("checkpoint", "cache store");
        assert!(refusal(other_kind.as_bytes()).contains("not a checkpoint journal"));
        let v1 = line.replace("\"version\":2", "\"version\":1");
        assert!(refusal(v1.as_bytes()).contains("checkpoint format version 1"));
        let other_config = line.replace(":7,", ":9,");
        assert!(refusal(other_config.as_bytes()).contains("different engine configuration"));
        let other_shards = line.replace(":8}", ":4}");
        assert!(refusal(other_shards.as_bytes()).contains("\"shard_size\":4} recorded"));
    }
}
