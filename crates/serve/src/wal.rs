//! The append-only write-ahead log of a durable session.
//!
//! Every accepted `ingest` batch is serialized as one record and made
//! durable (`write` + `fsync`) *before* the in-memory dataset or index
//! mutates, so an acknowledged batch survives any crash — including
//! `kill -9` mid-stream. The on-disk shape after the sniffable
//! `remedy-wal v1` magic line:
//!
//! ```text
//! record  := len:u32 digest:u128 payload[len]
//! payload := seq:u64 count:u32 edit...
//! edit    := 0:u8 src:u64            (duplicate)
//!          | 1:u8 row:u64            (flip)
//!          | 2:u8 count:u32 row:u64… (remove)
//! ```
//!
//! `digest` is the FNV-1a/128 hash of the payload (the same
//! [`content_digest`] every binary artifact header uses), and `seq` is
//! the session epoch the batch produced, so replay can skip records a
//! newer snapshot already covers.
//!
//! **Torn-tail rule.** A crash can tear at most the tail of the log:
//! a record that fails its length or digest check ends the readable
//! prefix, [`replay`] reports the prefix and the byte offset it is
//! valid to, and [`WalWriter::open`] truncates the file there before
//! appending again. Random damage anywhere therefore yields either a
//! clean prefix recovery or (for a destroyed magic line) a typed
//! corrupt-artifact error — never a silently wrong record. The
//! `serve.wal.append` / `serve.wal.fsync` fail-point sites let tests
//! inject faults at both durability steps; a failed append rolls the
//! file back to its pre-record length so disk and memory never
//! disagree about whether a batch happened.

use remedy_dataset::format::{content_digest, Bytes, DecodeError, Magic};
use remedy_dataset::RowEdit;
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::{failpoint, PipelineError};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic line of a WAL segment file.
pub const WAL: Magic = Magic::new("remedy-wal", 1);

/// Per-record framing ahead of the payload: `len:u32 digest:u128`.
const RECORD_HEADER: usize = 4 + 16;

/// Sanity ceiling on one record's payload (a batch of row edits is
/// tiny; anything near this is damage, not data).
const MAX_PAYLOAD: u32 = 1 << 28;

/// One durable edit batch: the session epoch it produced and its edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Session epoch after this batch applied (1-based, contiguous).
    pub seq: u64,
    /// The batch, in application order.
    pub edits: Vec<RowEdit>,
}

/// What [`replay`] found in a segment file.
#[derive(Debug)]
pub struct Replay {
    /// Every record in the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic line included).
    pub valid_len: u64,
    /// Bytes past the valid prefix (a torn tail or damage), zero for a
    /// clean file.
    pub torn_bytes: u64,
}

/// Serializes one record (framing included).
pub fn encode_record(seq: u64, edits: &[RowEdit]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + edits.len() * 9);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(edits.len() as u32).to_le_bytes());
    for edit in edits {
        match edit {
            RowEdit::Duplicate { src } => {
                payload.push(0);
                payload.extend_from_slice(&(*src as u64).to_le_bytes());
            }
            RowEdit::FlipLabel { row } => {
                payload.push(1);
                payload.extend_from_slice(&(*row as u64).to_le_bytes());
            }
            RowEdit::Remove { rows } => {
                payload.push(2);
                payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for &row in rows {
                    payload.extend_from_slice(&(row as u64).to_le_bytes());
                }
            }
        }
    }
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&content_digest(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a payload whose digest already checked out. A payload that
/// fails here was *written* wrong, not damaged in place, so the error
/// is corrupt-artifact rather than a torn tail.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Bytes::new(payload, "payload");
    let seq = r.u64()?;
    // the smallest edit is a remove of no rows: tag and count
    let count = r.count("edits", 1 + 4)?;
    let mut edits = Vec::with_capacity(count);
    for _ in 0..count {
        edits.push(match r.u8()? {
            0 => RowEdit::Duplicate {
                src: r.u64()? as usize,
            },
            1 => RowEdit::FlipLabel {
                row: r.u64()? as usize,
            },
            2 => {
                let n = r.count("removed rows", 8)?;
                let rows = (0..n)
                    .map(|_| r.u64().map(|row| row as usize))
                    .collect::<Result<Vec<usize>, _>>()?;
                RowEdit::Remove { rows }
            }
            other => return Err(r.error(format!("edit tag {other} is not duplicate|flip|remove"))),
        });
    }
    r.end()?;
    Ok(WalRecord { seq, edits })
}

/// The payload of the next record frame, or `None` where the valid
/// prefix ends: a frame torn mid-header or mid-payload, a damaged length
/// field, or a payload that fails its digest.
fn frame<'a>(r: &mut Bytes<'a>) -> Option<&'a [u8]> {
    let len = r.u32().ok().filter(|&len| len <= MAX_PAYLOAD)?;
    let digest = r.u128().ok()?;
    let payload = r.take(len as usize).ok()?;
    (content_digest(payload) == digest).then_some(payload)
}

/// Reads a segment file and returns its valid record prefix.
///
/// A missing or foreign magic line is a corrupt-artifact error; any
/// record that fails its frame or digest check ends the prefix (the
/// torn-tail rule). Sequence-number gaps are *not* judged here — the
/// recovery layer validates contiguity against the snapshot it pairs
/// the log with.
pub fn replay(path: &Path) -> Result<Replay, PipelineError> {
    let bytes = std::fs::read(path)
        .map_err(|e| PipelineError::transient(format!("{}: {e}", path.display())))?;
    replay_bytes(&bytes).map_err(|e| e.map_message(|m| format!("{}: {m}", path.display())))
}

/// [`replay`] over an in-memory buffer (the unit the damage property
/// tests drive directly).
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, PipelineError> {
    let mut r = Bytes::open(bytes, WAL)
        .map_err(|e| PipelineError::corrupt(format!("not a WAL segment: {e}")))?;
    let mut records = Vec::new();
    let mut valid_len = r.offset();
    while let Some(payload) = frame(&mut r) {
        let record = decode_payload(payload)
            .map_err(|e| PipelineError::corrupt(format!("WAL record at byte {valid_len}: {e}")))?;
        records.push(record);
        valid_len = r.offset();
    }
    Ok(Replay {
        records,
        valid_len: valid_len as u64,
        torn_bytes: (bytes.len() - valid_len) as u64,
    })
}

/// The append half of a segment: owns the open file and the length of
/// its durable prefix, so a failed append can roll back cleanly.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
}

impl WalWriter {
    /// Creates a fresh segment (truncating any previous file at `path`)
    /// and makes the magic line durable.
    pub fn create(path: &Path) -> Result<WalWriter, PipelineError> {
        let io = |e: std::io::Error| {
            PipelineError::transient(format!("create WAL {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io)?;
        let magic = format!("{}\n", WAL.line());
        file.write_all(magic.as_bytes()).map_err(io)?;
        file.sync_data().map_err(io)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: magic.len() as u64,
        })
    }

    /// Opens an existing segment for appending, truncating it to
    /// `valid_len` (the replayed prefix) so a torn tail can never be
    /// extended into a frankenstein record.
    pub fn open(path: &Path, valid_len: u64) -> Result<WalWriter, PipelineError> {
        let io = |e: std::io::Error| {
            PipelineError::transient(format!("open WAL {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new().write(true).open(path).map_err(io)?;
        file.set_len(valid_len).map_err(io)?;
        file.sync_data().map_err(io)?;
        file.seek(SeekFrom::Start(valid_len)).map_err(io)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len,
        })
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and makes it durable. On any failure —
    /// injected at the `serve.wal.append` / `serve.wal.fsync` sites or
    /// real — the file is rolled back to its previous length and the
    /// error returns as transient: the batch did not happen, on disk or
    /// in memory, and the client may retry it.
    pub fn append(
        &mut self,
        seq: u64,
        edits: &[RowEdit],
        obs: &ObsScope,
    ) -> Result<(), PipelineError> {
        let result = self.try_append(seq, edits, obs);
        if result.is_err() {
            // best-effort rollback; if even set_len fails the digest
            // check still fences the half-record at replay time
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
        }
        result
    }

    fn try_append(
        &mut self,
        seq: u64,
        edits: &[RowEdit],
        obs: &ObsScope,
    ) -> Result<(), PipelineError> {
        let io = |e: std::io::Error| {
            PipelineError::transient(format!("append WAL {}: {e}", self.path.display()))
        };
        failpoint::check("serve.wal", "append")?;
        let record = encode_record(seq, edits);
        self.file.write_all(&record).map_err(io)?;
        failpoint::check("serve.wal", "fsync")?;
        let timer = obs.timer();
        self.file.sync_data().map_err(io)?;
        obs.observe_since("wal_fsync_us", timer);
        obs.add("wal.append", 1);
        obs.add("wal.fsync", 1);
        self.len += record.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(i: u64) -> Vec<RowEdit> {
        vec![
            RowEdit::Duplicate { src: i as usize },
            RowEdit::FlipLabel { row: 0 },
            RowEdit::Remove {
                rows: vec![1, 2 + i as usize],
            },
        ]
    }

    #[test]
    fn records_round_trip_through_a_segment() {
        let dir = std::env::temp_dir().join("remedy_wal_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0.log");
        let mut writer = WalWriter::create(&path).unwrap();
        let obs = ObsScope::disabled();
        for seq in 1..=5u64 {
            writer.append(seq, &batch(seq), &obs).unwrap();
        }
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(replayed.records.len(), 5);
        for (i, record) in replayed.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.edits, batch(record.seq));
        }
    }

    #[test]
    fn torn_tail_is_truncated_to_the_valid_prefix() {
        let dir = std::env::temp_dir().join("remedy_wal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0.log");
        let mut writer = WalWriter::create(&path).unwrap();
        let obs = ObsScope::disabled();
        writer.append(1, &batch(1), &obs).unwrap();
        writer.append(2, &batch(2), &obs).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // a crash mid-write leaves half a record
        std::fs::write(&path, &clean[..clean.len() - 7]).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1, "second record is torn");
        assert!(replayed.torn_bytes > 0);
        // reopening truncates; a fresh append then replays cleanly
        let mut writer = WalWriter::open(&path, replayed.valid_len).unwrap();
        writer.append(2, &batch(9), &obs).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].edits, batch(9));
    }

    #[test]
    fn foreign_files_are_typed_corrupt() {
        let err = replay_bytes(b"not a wal at all\nxxxx").unwrap_err();
        assert_eq!(err.kind(), remedy_pipeline::ErrorKind::CorruptArtifact);
        let err = replay_bytes(b"remedy-wal v9\n").unwrap_err();
        assert!(err.message().contains("v1"), "{err}");
    }
}
