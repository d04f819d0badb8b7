//! Durable session state: columnar snapshots layered under the WAL,
//! and crash recovery that stitches the two back into a live session.
//!
//! With `--data-dir` every named session owns one directory:
//!
//! ```text
//! <data-dir>/<session>/
//!   snapshot-<epoch>.bin   columnar checkpoint (dataset::store body)
//!   wal-<epoch>.log        edit batches accepted after that checkpoint
//! ```
//!
//! A snapshot file is a `remedy-snapshot v1` magic line, a fixed meta
//! block (`epoch:u64 edits:u64 batches:u64 digest:u128`), and then the
//! exact bytes `dataset::store::to_binary` produces. The body's
//! packed-key sidecar is written but never read back: the body digest is
//! no MAC, so recovery decodes the columns and packs the session's
//! `RegionIndex` keys from them.
//! Snapshots are written to a `.tmp` sibling, fsync'd, and renamed into
//! place; only after the rename lands is a fresh WAL segment created
//! and the older generation deleted, so at every instant the directory
//! holds at least one snapshot whose WAL continuation is intact.
//!
//! **Recovery invariant.** Opening the newest snapshot that decodes and
//! replaying every WAL record with `seq > snapshot.epoch` (in order,
//! contiguously) onto its rows, then building the index over them,
//! yields a session byte-identical — same `remedy-ibs v1` `identify`
//! text, same epoch/edit/batch counters — to one that never crashed. A
//! sequence gap, an undecodable snapshot with no older fallback, or a
//! foreign file is a typed corrupt-artifact error; a torn WAL tail is
//! truncated and counted, never mis-applied.

use crate::session::{replay_batch, Session};
use crate::wal::{self, WalWriter};
use remedy_dataset::format::{content_digest, Bytes, DecodeError, Magic};
use remedy_dataset::{store, Dataset, RowEdit};
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::{failpoint, PipelineError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic line of a snapshot file.
pub const SNAPSHOT: Magic = Magic::new("remedy-snapshot", 1);

/// Fixed meta block after the magic line: `epoch edits batches digest`.
const META_LEN: usize = 8 + 8 + 8 + 16;

/// When a durable session checkpoints and when it sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurablePolicy {
    /// Snapshot once this many edit batches accumulate past the last
    /// checkpoint (each intervening batch still fsyncs to the WAL).
    pub snapshot_every: u64,
    /// Hard bound on the un-checkpointed WAL backlog: when snapshots
    /// keep failing and the backlog reaches this, `ingest` sheds with a
    /// transient `overloaded` error instead of growing the log forever.
    pub wal_backlog: u64,
}

impl Default for DurablePolicy {
    fn default() -> DurablePolicy {
        DurablePolicy {
            snapshot_every: 64,
            wal_backlog: 1024,
        }
    }
}

/// Where durable sessions live and how they checkpoint.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// The `--data-dir` root; each session owns `<root>/<name>/`.
    pub root: PathBuf,
    /// Checkpoint/backlog policy shared by every session.
    pub policy: DurablePolicy,
}

/// Whether a session name can own a directory under the data dir.
/// Enforced only in durable mode; in-memory sessions keep accepting
/// arbitrary names.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The durable half of one session: its directory, the open WAL
/// segment, and the epoch of the newest durable snapshot.
#[derive(Debug)]
pub struct Durable {
    dir: PathBuf,
    wal: WalWriter,
    snapshot_epoch: u64,
    policy: DurablePolicy,
}

impl Durable {
    /// Creates (or wipes and re-creates) the session directory, writes
    /// the initial snapshot at `session.epoch`, and opens a fresh WAL
    /// segment. Called by `load` in durable mode.
    pub fn create(
        config: &DurableConfig,
        name: &str,
        session: &Session,
        obs: &ObsScope,
    ) -> Result<Durable, PipelineError> {
        if !valid_session_name(name) {
            return Err(PipelineError::invalid_plan(format!(
                "session name `{name}` cannot own a data directory \
                 (use 1-64 characters from [A-Za-z0-9._-])"
            )));
        }
        let dir = config.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| PipelineError::transient(format!("create {}: {e}", dir.display())))?;
        let epoch = session.epoch;
        write_snapshot(
            &dir,
            &session.data,
            epoch,
            session.edits,
            session.batches,
            obs,
        )?;
        let wal = WalWriter::create(&wal_path(&dir, epoch))?;
        cleanup(&dir, epoch);
        Ok(Durable {
            dir,
            wal,
            snapshot_epoch: epoch,
            policy: config.policy,
        })
    }

    /// The checkpoint/backlog policy.
    pub fn policy(&self) -> &DurablePolicy {
        &self.policy
    }

    /// Epoch of the newest durable snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// Edit batches sitting in the WAL past the last checkpoint.
    pub fn backlog(&self, epoch: u64) -> u64 {
        epoch.saturating_sub(self.snapshot_epoch)
    }

    /// Appends one batch to the WAL and makes it durable (see
    /// [`WalWriter::append`] for the rollback-on-failure contract).
    pub fn append(
        &mut self,
        seq: u64,
        edits: &[RowEdit],
        obs: &ObsScope,
    ) -> Result<(), PipelineError> {
        self.wal.append(seq, edits, obs)
    }

    /// Checkpoints the session at `epoch`: snapshot to tmp, fsync,
    /// rename, then rotate to a fresh WAL segment and delete the older
    /// generation. On failure the previous snapshot + WAL pair is still
    /// intact and recovery-complete.
    pub fn snapshot(
        &mut self,
        data: &Dataset,
        epoch: u64,
        edits: u64,
        batches: u64,
        obs: &ObsScope,
    ) -> Result<(), PipelineError> {
        write_snapshot(&self.dir, data, epoch, edits, batches, obs)?;
        self.wal = WalWriter::create(&wal_path(&self.dir, epoch))?;
        self.snapshot_epoch = epoch;
        cleanup(&self.dir, epoch);
        Ok(())
    }
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:020}.bin"))
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch:020}.log"))
}

/// Writes `snapshot-<epoch>.bin` through a tmp file + atomic rename,
/// with the `serve.snapshot.write` / `serve.snapshot.rename` fail-point
/// sites at the two durability steps.
fn write_snapshot(
    dir: &Path,
    data: &Dataset,
    epoch: u64,
    edits: u64,
    batches: u64,
    obs: &ObsScope,
) -> Result<(), PipelineError> {
    let tmp = dir.join(format!("snapshot-{epoch:020}.tmp"));
    let result = (|| {
        let io = |e: std::io::Error| {
            PipelineError::transient(format!("snapshot {}: {e}", tmp.display()))
        };
        failpoint::check("serve.snapshot", "write")?;
        let body = store::to_binary(data);
        let mut out = Vec::with_capacity(SNAPSHOT.line().len() + 1 + META_LEN + body.len());
        out.extend_from_slice(SNAPSHOT.line().as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&edits.to_le_bytes());
        out.extend_from_slice(&batches.to_le_bytes());
        out.extend_from_slice(&content_digest(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(&out).map_err(io)?;
        file.sync_data().map_err(io)?;
        drop(file);
        failpoint::check("serve.snapshot", "rename")?;
        std::fs::rename(&tmp, snapshot_path(dir, epoch)).map_err(io)?;
        // the rename must survive a crash of the *directory*, too
        let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        obs.add("snapshot.write", 1);
        obs.add("snapshot.bytes", out.len() as u64);
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Decodes one snapshot file into `(data, epoch, edits, batches)`. The
/// body's packed-key sidecar is not widened: the session packs its keys
/// from the decoded columns.
fn read_snapshot(path: &Path) -> Result<(Dataset, u64, u64, u64), PipelineError> {
    let bytes = std::fs::read(path)
        .map_err(|e| PipelineError::transient(format!("{}: {e}", path.display())))?;
    let corrupt = |detail: String| PipelineError::corrupt(format!("{}: {detail}", path.display()));
    let mut r =
        Bytes::open(&bytes, SNAPSHOT).map_err(|e| corrupt(format!("not a snapshot: {e}")))?;
    r.section("meta");
    let mut meta = || Ok::<_, DecodeError>((r.u64()?, r.u64()?, r.u64()?, r.u128()?));
    let (epoch, edits, batches, digest) = meta().map_err(|e| corrupt(e.to_string()))?;
    let body = &bytes[r.offset()..];
    if content_digest(body) != digest {
        return Err(corrupt("body digest mismatch".to_string()));
    }
    let stored = store::from_bytes_unpacked(body).map_err(|e| corrupt(e.to_string()))?;
    Ok((stored.data, epoch, edits, batches))
}

/// Files named `<prefix><decimal-epoch><suffix>` in `dir`, sorted by
/// epoch ascending.
fn numbered(dir: &Path, prefix: &str, suffix: &str) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()?;
            Some((epoch, entry.path()))
        })
        .collect();
    found.sort_unstable();
    found
}

/// Deletes leftover tmp files and every snapshot/WAL generation older
/// than `keep`. Best-effort: cleanup failures never fail a request.
fn cleanup(dir: &Path, keep: u64) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    for (epoch, path) in numbered(dir, "snapshot-", ".bin") {
        if epoch < keep {
            let _ = std::fs::remove_file(path);
        }
    }
    for (epoch, path) in numbered(dir, "wal-", ".log") {
        if epoch < keep {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What [`recover_session`] reports alongside the session.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryStats {
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Bytes of torn WAL tail truncated.
    pub truncated_bytes: u64,
    /// Snapshot files that failed to decode (older fallback used).
    pub snapshots_skipped: u64,
}

/// Rebuilds one session from its directory: newest valid snapshot,
/// then the WAL tail replayed onto its rows through the validation live
/// `ingest` runs, then one index build over the replayed rows (cheaper
/// than building over the snapshot and maintaining it through every
/// edit, and the same counts). Returns the live session (durable handle
/// attached, tail truncated, stale generations cleaned).
pub fn recover_session(
    config: &DurableConfig,
    name: &str,
) -> Result<(Session, RecoveryStats), PipelineError> {
    let dir = config.root.join(name);
    let mut stats = RecoveryStats::default();

    // newest snapshot that decodes wins; damaged ones fall back
    let mut snapshots = numbered(&dir, "snapshot-", ".bin");
    snapshots.reverse();
    if snapshots.is_empty() {
        return Err(PipelineError::corrupt(format!(
            "{}: no snapshot files",
            dir.display()
        )));
    }
    let mut opened = None;
    let mut first_err = None;
    for (_, path) in &snapshots {
        match read_snapshot(path) {
            Ok(decoded) => {
                opened = Some(decoded);
                break;
            }
            Err(e) => {
                stats.snapshots_skipped += 1;
                first_err.get_or_insert(e);
            }
        }
    }
    let Some((mut data, snap_epoch, mut edits, mut batches)) = opened else {
        return Err(first_err.expect("at least one snapshot failed"));
    };
    let mut epoch = snap_epoch;

    // replay the WAL tail: skip records the snapshot covers, demand
    // contiguity past it — a gap means a lost generation, and applying
    // around it would silently serve a wrong index
    let segments = numbered(&dir, "wal-", ".log");
    let mut writer = None;
    let last = segments.len().checked_sub(1);
    for (i, (seg_epoch, path)) in segments.iter().enumerate() {
        let replayed = wal::replay(path)?;
        stats.truncated_bytes += replayed.torn_bytes;
        for record in replayed.records {
            if record.seq <= snap_epoch {
                continue;
            }
            if record.seq != epoch + 1 {
                return Err(PipelineError::corrupt(format!(
                    "{}: WAL sequence gap (have epoch {epoch}, next record is {})",
                    path.display(),
                    record.seq
                )));
            }
            replay_batch(&mut data, &record.edits).map_err(|e| {
                PipelineError::corrupt(format!(
                    "{}: record {} does not apply: {}",
                    path.display(),
                    record.seq,
                    e.message()
                ))
            })?;
            stats.replayed += 1;
            epoch = record.seq;
            edits += record.edits.len() as u64;
            batches += 1;
        }
        if Some(i) == last && *seg_epoch >= snap_epoch {
            writer = Some(WalWriter::open(path, replayed.valid_len)?);
        }
    }
    let mut session = Session::try_open(data)?;
    session.epoch = epoch;
    session.edits = edits;
    session.batches = batches;
    // no usable segment (crash between snapshot rename and segment
    // creation): finish the interrupted rotation now
    let wal = match writer {
        Some(w) => w,
        None => WalWriter::create(&wal_path(&dir, snap_epoch))?,
    };
    session.durable = Some(Durable {
        dir: dir.clone(),
        wal,
        snapshot_epoch: snap_epoch,
        policy: config.policy,
    });
    cleanup(&dir, snap_epoch);
    Ok((session, stats))
}

/// Recovers every session directory under the data-dir root. A session
/// that fails to recover is reported (counter + stderr) and left on
/// disk untouched — one damaged session must not keep the daemon from
/// serving the healthy ones — but is *not* served, so damage is never
/// silent: loading that name again replaces it explicitly.
pub fn recover_all(config: &DurableConfig, obs: &ObsScope) -> Vec<(String, Session)> {
    let Ok(entries) = std::fs::read_dir(&config.root) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| valid_session_name(name))
        .collect();
    names.sort_unstable();
    let mut recovered = Vec::new();
    for name in names {
        match recover_session(config, &name) {
            Ok((session, stats)) => {
                obs.add("recover.sessions", 1);
                obs.add("recover.records", stats.replayed);
                obs.add("recover.truncated_bytes", stats.truncated_bytes);
                obs.add("recover.snapshots_skipped", stats.snapshots_skipped);
                recovered.push((name, session));
            }
            Err(e) => {
                obs.add("recover.corrupt", 1);
                eprintln!("remedy-serve: session `{name}` not recovered: {e}");
            }
        }
    }
    recovered
}
