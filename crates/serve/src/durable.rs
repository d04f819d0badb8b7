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
//! **Recovery invariant.** Opening the newest snapshot that verifies and
//! decodes and replaying every WAL record with `seq > snapshot.epoch`
//! (in order, contiguously) onto its rows, then building the index over
//! them, yields a session byte-identical — same `remedy-ibs v1`
//! `identify` text, same epoch/edit/batch counters — to one that never
//! crashed. A sequence gap, an unverifiable or undecodable snapshot with
//! no older fallback, or a foreign file is a typed corrupt-artifact
//! error; a torn WAL tail is truncated and counted, never mis-applied.
//!
//! **Order of work.** Recovery reads the WAL segments first: they are
//! small, and the duplicates in the tail past a snapshot size the spare
//! row capacity its body decodes with, so the replay never reallocates a
//! column. A scoped thread then checks the body digest while the calling
//! thread decodes, replays and builds the index. The check joins before
//! the session is returned; a mismatch discards everything decoded from
//! that body and outranks any error it raised, so nothing from an
//! unverified body is ever served.

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

/// One snapshot file, read and split but not yet verified: its meta
/// counters, its pinned body digest, and the bytes the body spans.
struct SnapshotFile {
    bytes: Vec<u8>,
    body_at: usize,
    epoch: u64,
    edits: u64,
    batches: u64,
    digest: u128,
}

impl SnapshotFile {
    /// Reads a snapshot file and parses its magic line and meta block.
    /// The body digest is not checked here: [`recover_from`] checks it
    /// beside the decode.
    fn read(path: &Path) -> Result<SnapshotFile, PipelineError> {
        let bytes = std::fs::read(path)
            .map_err(|e| PipelineError::transient(format!("{}: {e}", path.display())))?;
        let corrupt =
            |detail: String| PipelineError::corrupt(format!("{}: {detail}", path.display()));
        let mut r =
            Bytes::open(&bytes, SNAPSHOT).map_err(|e| corrupt(format!("not a snapshot: {e}")))?;
        r.section("meta");
        let mut meta = || Ok::<_, DecodeError>((r.u64()?, r.u64()?, r.u64()?, r.u128()?));
        let (epoch, edits, batches, digest) = meta().map_err(|e| corrupt(e.to_string()))?;
        let body_at = r.offset();
        Ok(SnapshotFile {
            bytes,
            body_at,
            epoch,
            edits,
            batches,
            digest,
        })
    }

    fn body(&self) -> &[u8] {
        &self.bytes[self.body_at..]
    }
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
    /// Snapshot files that failed to read, verify or decode (older
    /// fallback used).
    pub snapshots_skipped: u64,
}

/// Rebuilds one session from its directory (see the module doc for the
/// order of work). Returns the live session (durable handle attached,
/// tail truncated, stale generations cleaned).
pub fn recover_session(
    config: &DurableConfig,
    name: &str,
) -> Result<(Session, RecoveryStats), PipelineError> {
    recover_session_with(config, name, &ObsScope::disabled())
}

/// [`recover_session`] under a `recover` span of `obs`, whose children
/// are `read`, `verify`, `decode`, `replay` and `index`.
pub fn recover_session_with(
    config: &DurableConfig,
    name: &str,
    obs: &ObsScope,
) -> Result<(Session, RecoveryStats), PipelineError> {
    let span = obs.span("recover");
    let obs = span.child_scope(obs.label());
    let dir = config.root.join(name);
    let mut stats = RecoveryStats::default();

    let mut snapshots = numbered(&dir, "snapshot-", ".bin");
    snapshots.reverse();
    if snapshots.is_empty() {
        return Err(PipelineError::corrupt(format!(
            "{}: no snapshot files",
            dir.display()
        )));
    }
    // the WAL first: it is small, and the duplicates it will replay size
    // the spare room the snapshot decodes with
    let logs = {
        let _read = obs.span("read");
        numbered(&dir, "wal-", ".log")
            .into_iter()
            .map(|(epoch, path)| Ok((epoch, wal::replay(&path)?, path)))
            .collect::<Result<Vec<_>, PipelineError>>()?
    };
    stats.truncated_bytes = logs.iter().map(|(_, log, _)| log.torn_bytes).sum();

    // newest snapshot that verifies and decodes wins; damaged ones fall
    // back to the next older generation
    let mut first_err = None;
    let mut recovered = None;
    for (_, path) in &snapshots {
        match recover_from(path, &logs, &obs) {
            Ok(done) => {
                recovered = Some(done);
                break;
            }
            Err(Refused::Snapshot(e)) => {
                stats.snapshots_skipped += 1;
                first_err.get_or_insert(e);
            }
            Err(Refused::Tail(e)) => return Err(e),
        }
    }
    let Some((mut session, snap_epoch)) = recovered else {
        return Err(first_err.expect("at least one snapshot failed"));
    };
    stats.replayed = session.epoch - snap_epoch;

    // the newest segment stays the append target, its torn tail cut off;
    // no usable segment (crash between snapshot rename and segment
    // creation) finishes the interrupted rotation now
    let wal = match logs.last() {
        Some((seg_epoch, log, path)) if *seg_epoch >= snap_epoch => {
            WalWriter::open(path, log.valid_len)?
        }
        _ => WalWriter::create(&wal_path(&dir, snap_epoch))?,
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

/// Why [`recover_from`] could not open a session from one snapshot.
enum Refused {
    /// The snapshot is unreadable, fails its digest or does not decode:
    /// recovery falls back to the next older one.
    Snapshot(PipelineError),
    /// The snapshot verified, but its WAL continuation has a gap or does
    /// not apply, or its rows open no session: recovery fails.
    Tail(PipelineError),
}

/// Opens a session from one snapshot and the WAL records past its epoch.
/// A scoped thread checks the body digest while this thread decodes the
/// body (with spare rows for every duplicate the tail replays), replays
/// the tail through the validation live `ingest` runs, and builds the
/// index once over the replayed rows. Nothing is returned before the
/// digest check joins, and a mismatch outranks any error of the other
/// three steps. Returns the session with its counters set and the
/// snapshot's epoch.
fn recover_from(
    path: &Path,
    logs: &[(u64, wal::Replay, PathBuf)],
    obs: &ObsScope,
) -> Result<(Session, u64), Refused> {
    let file = {
        let _read = obs.span("read");
        SnapshotFile::read(path).map_err(Refused::Snapshot)?
    };
    let corrupt = |detail: String| PipelineError::corrupt(format!("{}: {detail}", path.display()));
    let tail = || {
        logs.iter()
            .flat_map(|(_, log, path)| log.records.iter().map(move |record| (record, path)))
            .filter(|(record, _)| record.seq > file.epoch)
    };
    let duplicates = tail()
        .flat_map(|(record, _)| &record.edits)
        .filter(|edit| matches!(edit, RowEdit::Duplicate { .. }))
        .count();
    // as much room as push-by-push growth would end with, so neither the
    // replay nor the first ingest after it copies a column
    let spare_rows = match duplicates {
        0 => 0,
        n => n.max(store::binary_rows(file.body()).unwrap_or(0)),
    };

    let (verified, opened) = std::thread::scope(|s| {
        let verifier = s.spawn(|| {
            let _verify = obs.span("verify");
            content_digest(file.body()) == file.digest
        });
        let opened = (|| {
            let mut data = {
                let _decode = obs.span("decode");
                store::from_bytes_unpacked(file.body(), spare_rows)
                    .map_err(|e| Refused::Snapshot(corrupt(e.to_string())))?
                    .data
            };
            let (mut epoch, mut edits, mut batches) = (file.epoch, file.edits, file.batches);
            {
                // skip records the snapshot covers, demand contiguity
                // past it: a gap means a lost generation, and applying
                // around it would silently serve a wrong index
                let _replay = obs.span("replay");
                for (record, path) in tail() {
                    let at = |detail: String| {
                        Refused::Tail(PipelineError::corrupt(format!(
                            "{}: {detail}",
                            path.display()
                        )))
                    };
                    if record.seq != epoch + 1 {
                        return Err(at(format!(
                            "WAL sequence gap (have epoch {epoch}, next record is {})",
                            record.seq
                        )));
                    }
                    replay_batch(&mut data, &record.edits).map_err(|e| {
                        at(format!(
                            "record {} does not apply: {}",
                            record.seq,
                            e.message()
                        ))
                    })?;
                    epoch = record.seq;
                    edits += record.edits.len() as u64;
                    batches += 1;
                }
            }
            let mut session = {
                let _index = obs.span("index");
                Session::try_open(data).map_err(Refused::Tail)?
            };
            session.epoch = epoch;
            session.edits = edits;
            session.batches = batches;
            Ok(session)
        })();
        let verified = verifier
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (verified, opened)
    });
    if !verified {
        return Err(Refused::Snapshot(corrupt("body digest mismatch".into())));
    }
    Ok((opened?, file.epoch))
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
        match recover_session_with(config, &name, obs) {
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
