//! Resident sessions: a named dataset plus its maintained region index.

use crate::durable::Durable;
use remedy_core::RegionIndex;
use remedy_dataset::{Dataset, RowEdit, Stored};
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::PipelineError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One named resident dataset and the [`RegionIndex`] kept equal to it.
///
/// The index is built once when the session opens and then maintained by
/// delta batches: every accepted ingest edit is mirrored into it in the
/// same order it mutates the dataset, so an `identify` answered from the
/// resident index is byte-identical to a cold rebuild over the current
/// rows.
pub struct Session {
    /// The live dataset.
    pub data: Dataset,
    /// Delta-maintained counts over `data` (batched; flushed after each
    /// accepted ingest batch).
    pub index: RegionIndex,
    /// Total row edits accepted over the session's lifetime.
    pub edits: u64,
    /// Total ingest batches accepted.
    pub batches: u64,
    /// Monotonic mutation counter: bumps once per accepted edit batch
    /// and once per applied remedy. Echoed in every mutating response
    /// and in `stats`, so a client whose mutation timed out can tell
    /// whether it landed; in durable mode it is also the WAL sequence
    /// number and the snapshot generation.
    pub epoch: u64,
    /// Durable half (WAL + snapshots), present in `--data-dir` mode.
    pub durable: Option<Durable>,
}

impl Session {
    /// Builds the index and switches it to batched delta maintenance.
    /// Panics on protected columns no index kind can carry; servers
    /// should prefer [`Session::try_open`].
    pub fn open(data: Dataset) -> Session {
        Session::try_open(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Session::open`]: picks the index kind automatically —
    /// dense within the dense arity ceiling, leaf-only sparse for wider
    /// protected sets (which then serve only `pruned` identify requests).
    pub fn try_open(data: Dataset) -> Result<Session, PipelineError> {
        let mut index = RegionIndex::try_build_auto(&data)
            .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
        index.begin_deltas();
        Ok(Session {
            data,
            index,
            edits: 0,
            batches: 0,
            epoch: 0,
            durable: None,
        })
    }

    /// Opens from a persisted [`Stored`] artifact. When the artifact
    /// carries a packed-key sidecar matching the index layout (binary
    /// columnar files always do, within packing limits), the initial
    /// counting pass reuses it and skips re-packing every row; a missing
    /// or foreign sidecar falls back to a regular [`Session::try_open`]
    /// build, so the result is identical either way.
    pub fn try_open_stored(stored: Stored) -> Result<Session, PipelineError> {
        let Stored { data, packed, .. } = stored;
        if let Some(packed) = packed {
            if let Ok(mut index) = RegionIndex::try_build_from_packed(&data, packed) {
                index.begin_deltas();
                return Ok(Session {
                    data,
                    index,
                    edits: 0,
                    batches: 0,
                    epoch: 0,
                    durable: None,
                });
            }
        }
        Session::try_open(data)
    }

    /// [`Session::ingest_with`] without observability (tests, tools).
    pub fn ingest(&mut self, edits: &[RowEdit]) -> Result<(), PipelineError> {
        self.ingest_with(edits, &ObsScope::disabled())
    }

    /// Applies one edit batch atomically: the whole batch is validated
    /// against simulated row counts first, so a batch naming a removed
    /// or never-existing row is rejected with `invalid-plan` before the
    /// dataset or the index mutates at all.
    ///
    /// In durable mode the batch is WAL-appended and fsync'd *before*
    /// any in-memory state changes — a batch is either durable and
    /// applied, or refused with no trace. Two more durable outcomes are
    /// possible first: if the un-checkpointed backlog has hit the
    /// `wal_backlog` bound and an emergency checkpoint fails, the batch
    /// is shed with a transient `overloaded` error; and once applied,
    /// every `snapshot_every` batches a checkpoint is attempted (its
    /// failure is counted, not surfaced — the batch is already durable
    /// in the WAL).
    pub fn ingest_with(&mut self, edits: &[RowEdit], obs: &ObsScope) -> Result<(), PipelineError> {
        validate_batch(self.data.len(), edits)?;
        let seq = self.epoch + 1;
        if let Some(durable) = self.durable.as_mut() {
            let backlog = durable.backlog(self.epoch);
            if backlog >= durable.policy().wal_backlog {
                if let Err(e) =
                    durable.snapshot(&self.data, self.epoch, self.edits, self.batches, obs)
                {
                    obs.add("shed.backlog", 1);
                    return Err(PipelineError::transient(format!(
                        "overloaded: WAL backlog at bound ({backlog} un-checkpointed \
                         batches) and checkpoint failed: {}",
                        e.message()
                    )));
                }
            }
            durable.append(seq, edits, obs)?;
        }
        self.apply_validated(edits)?;
        if let Some(durable) = self.durable.as_mut() {
            if durable.backlog(self.epoch) >= durable.policy().snapshot_every
                && durable
                    .snapshot(&self.data, self.epoch, self.edits, self.batches, obs)
                    .is_err()
            {
                // the batch is already WAL-durable; a failed periodic
                // checkpoint only grows the backlog
                obs.add("snapshot.err", 1);
            }
        }
        Ok(())
    }

    /// Replays one already-durable batch during recovery: same
    /// validate-then-apply path as live ingest, minus the WAL append.
    pub(crate) fn replay_batch(&mut self, edits: &[RowEdit]) -> Result<(), PipelineError> {
        validate_batch(self.data.len(), edits)?;
        self.apply_validated(edits)
    }

    fn apply_validated(&mut self, edits: &[RowEdit]) -> Result<(), PipelineError> {
        for edit in edits {
            // validated above; the typed path is belt and braces so a
            // validator bug can never desync dataset and index
            self.data
                .try_apply_edit(edit)
                .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
            self.index.apply_edit(edit);
        }
        self.index.flush_deltas();
        self.edits += edits.len() as u64;
        self.batches += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Replaces the dataset wholesale (a remedy with `"apply":true`).
    /// The new index is built — and in durable mode the new dataset is
    /// checkpointed — *before* any field is assigned, so a failure at
    /// any step leaves the session, in memory and on disk, unchanged.
    pub fn try_replace(&mut self, data: Dataset, obs: &ObsScope) -> Result<(), PipelineError> {
        let mut index = RegionIndex::try_build_auto(&data)
            .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
        index.begin_deltas();
        let epoch = self.epoch + 1;
        if let Some(durable) = self.durable.as_mut() {
            durable.snapshot(&data, epoch, self.edits, self.batches, obs)?;
        }
        self.index = index;
        self.data = data;
        self.epoch = epoch;
        Ok(())
    }

    /// Infallible [`Session::try_replace`] for in-memory sessions. The
    /// schema is unchanged by a remedy, so the index build cannot fail
    /// after a successful [`Session::try_open`]; panics if it somehow
    /// does (or if a durable checkpoint fails — servers should prefer
    /// [`Session::try_replace`]).
    pub fn replace(&mut self, data: Dataset) {
        self.try_replace(data, &ObsScope::disabled())
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Rejects any edit whose row index is out of range at the point it
/// would apply, walking the batch against a simulated row count.
fn validate_batch(start_len: usize, edits: &[RowEdit]) -> Result<(), PipelineError> {
    let mut len = start_len;
    for (i, edit) in edits.iter().enumerate() {
        let oob = |row: usize, len: usize| {
            PipelineError::invalid_plan(format!(
                "edits[{i}]: row {row} is out of range (dataset has {len} rows)"
            ))
        };
        match edit {
            RowEdit::Duplicate { src } => {
                if *src >= len {
                    return Err(oob(*src, len));
                }
                len += 1;
            }
            RowEdit::FlipLabel { row } => {
                if *row >= len {
                    return Err(oob(*row, len));
                }
            }
            RowEdit::Remove { rows } => {
                let mut distinct = rows.clone();
                distinct.sort_unstable();
                distinct.dedup();
                for &row in &distinct {
                    if row >= len {
                        return Err(oob(row, len));
                    }
                }
                len -= distinct.len();
            }
        }
    }
    Ok(())
}

/// One row of `stats` output: a session's name, size, and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    pub name: String,
    pub rows: usize,
    pub edits: u64,
    pub batches: u64,
    pub epoch: u64,
    /// Whether the session has a WAL + snapshot directory behind it.
    pub durable: bool,
}

/// The server's table of named sessions. Each session sits behind its
/// own mutex, so a slow request (a big identify) blocks only its own
/// session; the registry lock is held just long enough to clone an
/// `Arc`.
#[derive(Default)]
pub struct Registry {
    sessions: Mutex<BTreeMap<String, Arc<Mutex<Session>>>>,
}

impl Registry {
    /// Installs the named session, replacing any previous one.
    pub fn insert(&self, name: &str, session: Session) {
        lock_recover(&self.sessions).insert(name.to_string(), Arc::new(Mutex::new(session)));
    }

    /// The named session, or `invalid-plan` if it was never loaded.
    pub fn get(&self, name: &str) -> Result<Arc<Mutex<Session>>, PipelineError> {
        lock_recover(&self.sessions)
            .get(name)
            .cloned()
            .ok_or_else(|| {
                PipelineError::invalid_plan(format!("unknown session `{name}` (load it first)"))
            })
    }

    /// Per-session [`SessionSummary`] rows, for `stats`.
    pub fn summaries(&self) -> Vec<SessionSummary> {
        let sessions: Vec<(String, Arc<Mutex<Session>>)> = lock_recover(&self.sessions)
            .iter()
            .map(|(name, session)| (name.clone(), Arc::clone(session)))
            .collect();
        sessions
            .into_iter()
            .map(|(name, session)| {
                let s = lock_session(&session);
                SessionSummary {
                    name,
                    rows: s.data.len(),
                    edits: s.edits,
                    batches: s.batches,
                    epoch: s.epoch,
                    durable: s.durable.is_some(),
                }
            })
            .collect()
    }
}

/// Locks a session, recovering from poisoning.
///
/// A request that panics is caught at the request boundary, which
/// poisons any session mutex it held. Recovery is sound here because
/// every mutating operation validates its whole input before touching
/// state ([`Session::ingest`]) or prepares its replacement fully before
/// assigning ([`Session::try_replace`]) — so a poisoned session is
/// observationally intact, and refusing to serve it would turn one
/// contained panic into a permanently wedged session.
pub fn lock_session(session: &Arc<Mutex<Session>>) -> MutexGuard<'_, Session> {
    session.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_core::{identify, try_identify_in_index_with, Algorithm, BiasedRegion, IbsParams};
    use remedy_dataset::synth;

    fn live_ibs(index: &RegionIndex, params: &IbsParams) -> Vec<BiasedRegion> {
        try_identify_in_index_with(index, params, Algorithm::Optimized, &ObsScope::disabled())
            .unwrap()
    }

    #[test]
    fn ingest_maintains_index_and_counts() {
        let data = synth::compas_n(400, 7);
        let mut session = Session::open(data.clone());
        session
            .ingest(&[
                RowEdit::Duplicate { src: 3 },
                RowEdit::FlipLabel { row: 10 },
                RowEdit::Remove {
                    rows: vec![0, 0, 5],
                },
            ])
            .unwrap();
        assert_eq!(session.data.len(), 399);
        assert_eq!(session.index.len(), 399);
        assert_eq!((session.edits, session.batches), (3, 1));
        assert_eq!(session.epoch, 1, "one accepted batch bumps the epoch once");
        let params = IbsParams::default();
        let live = live_ibs(&session.index, &params);
        let cold = identify(&session.data, &params, Algorithm::Optimized);
        assert_eq!(live, cold);
    }

    #[test]
    fn stored_artifact_session_matches_fresh_build_and_stays_live() {
        let data = synth::compas_n(300, 5);
        let stored =
            remedy_dataset::store::from_binary(&remedy_dataset::store::to_binary(&data)).unwrap();
        assert!(stored.packed.is_some(), "compas packs within dense limits");
        let mut from_artifact = Session::try_open_stored(stored).unwrap();
        let fresh = Session::open(data);
        let params = IbsParams::default();
        assert_eq!(
            live_ibs(&from_artifact.index, &params),
            live_ibs(&fresh.index, &params),
        );
        // the packed-key fast path must leave the index fully live
        from_artifact
            .ingest(&[RowEdit::FlipLabel { row: 1 }, RowEdit::Duplicate { src: 2 }])
            .unwrap();
        from_artifact.index.flush_deltas();
        let live = live_ibs(&from_artifact.index, &params);
        let cold = identify(&from_artifact.data, &params, Algorithm::Optimized);
        assert_eq!(live, cold);
    }

    #[test]
    fn bad_batch_is_rejected_before_any_mutation() {
        let data = synth::compas_n(100, 7);
        let mut session = Session::open(data.clone());
        // the first edit is valid, the second is not: nothing may apply
        let err = session
            .ingest(&[
                RowEdit::FlipLabel { row: 0 },
                RowEdit::Duplicate { src: 100 },
            ])
            .unwrap_err();
        assert_eq!(err.kind(), remedy_pipeline::ErrorKind::InvalidPlan);
        assert!(err.message().starts_with("edits[1]:"), "{err}");
        assert_eq!(session.data, data);
        assert_eq!((session.edits, session.batches), (0, 0));
        assert_eq!(session.epoch, 0, "rejected batches leave the epoch alone");
        // removes shrink the simulated count: a duplicate of a row that
        // no longer exists after the remove is rejected too
        let remove_then_touch = [
            RowEdit::Remove {
                rows: (0..100).collect(),
            },
            RowEdit::FlipLabel { row: 0 },
        ];
        assert!(session.ingest(&remove_then_touch).is_err());
    }

    #[test]
    fn registry_replaces_and_reports() {
        let registry = Registry::default();
        assert!(registry.get("a").is_err());
        registry.insert("a", Session::open(synth::compas_n(50, 1)));
        registry.insert("b", Session::open(synth::compas_n(80, 1)));
        registry.insert("a", Session::open(synth::compas_n(60, 1)));
        let summary = registry.summaries();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "a");
        assert_eq!(summary[0].rows, 60, "reload replaces the session");
        assert_eq!(summary[1].rows, 80);
        assert!(
            !summary[0].durable,
            "in-memory sessions report durable=false"
        );
    }
}
