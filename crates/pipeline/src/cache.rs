//! Content-addressed artifact cache.
//!
//! Every stage's inputs — upstream artifact hashes plus its own parameters
//! — are folded into a 128-bit [`StableHasher`] key. The key names a
//! directory under the cache root holding the stage's output (`artifact`),
//! its FNV-1a/128 content hash (`hash`), and a one-line human-readable
//! description (`meta`). A stage whose key directory exists is a cache hit
//! and is not re-executed; because keys chain through upstream hashes,
//! changing one knob invalidates exactly the stages downstream of it.
//!
//! Writes go through a temp dir + rename so concurrent branches that
//! race on the same key (e.g. two branches with identical remedy
//! parameters) both land a complete artifact. Each `store` call stages
//! into its own uniquely-named temp dir — naming it by `(stage, key,
//! pid)` alone let two threads of one process share a temp dir, and the
//! winner's rename yanked it out from under the loser mid-write. A store
//! whose entry already holds an artifact writes nothing: the key names
//! the inputs, so the entry's bytes are the ones it would write.
//!
//! ## Integrity and fault tolerance
//!
//! Every replay re-hashes the artifact and compares it against the
//! stored `hash` file. A stage that already holds its artifact with a
//! verified digest does not replay it: [`ArtifactCache::confirm`]
//! compares that digest with the `hash` file instead. A mismatch (bit
//! rot, a torn write, a truncated entry) moves the entry into
//! `quarantine/` under the cache root —
//! preserved for post-mortems, never replayed, never garbage-collected —
//! bumps the `corrupt.*` counters, and reports a miss so the stage is
//! transparently recomputed. Transient I/O in the store and replay paths
//! is retried under the cache's [`RetryPolicy`]; replay errors that
//! survive the retries degrade to a miss (recompute) rather than failing
//! the run, while store errors propagate to the owning stage.

use crate::error::PipelineError;
use crate::failpoint;
use crate::retry::RetryPolicy;
use remedy_core::hash::{stable_hash, StableHasher};
use remedy_obs::Scope as ObsScope;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Name of the artifact payload inside a cache entry.
const ARTIFACT_FILE: &str = "artifact";
/// Name of the artifact's stored FNV-1a/128 content hash (32 hex digits),
/// verified on every replay.
const HASH_FILE: &str = "hash";
/// Name of the human-readable description inside a cache entry.
const META_FILE: &str = "meta";
/// Name of the last-replayed marker inside a cache entry; its mtime is
/// refreshed on every cache hit so GC can evict least-recently-used
/// entries first.
const USED_FILE: &str = "used";
/// Directory under the cache root where corrupt entries are preserved.
/// Never replayed, never swept by [`ArtifactCache::gc`].
pub const QUARANTINE_DIR: &str = "quarantine";
/// Directory under the cache root holding per-run manifests registered
/// by sharded runs ([`ArtifactCache::pin_run`]). Not cache entries:
/// excluded from [`ArtifactCache::len`], and a `status: "running"`
/// manifest here *pins* every `{stage}-{key}` entry it records against
/// garbage collection, so a concurrent sharded run never loses a shard
/// artifact mid-flight.
pub const RUNS_DIR: &str = "runs";

/// A 128-bit cache key, printed as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// Finalizes a hasher into a key.
    pub fn from_hasher(h: &StableHasher) -> Self {
        CacheKey(h.finish())
    }

    /// The hex form used in directory names and manifests.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Process-wide sequence making every staged temp dir name unique, even
/// for same-key stores racing across threads.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// An on-disk artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
    obs: ObsScope,
    retry: RetryPolicy,
}

impl ArtifactCache {
    /// Opens (and creates if needed) a cache at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactCache, PipelineError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| PipelineError::fatal(format!("cannot create cache dir: {e}")))?;
        Ok(ArtifactCache {
            root,
            obs: ObsScope::disabled(),
            retry: RetryPolicy::none(),
        })
    }

    /// Attaches an observability scope recording `hits`, `misses`,
    /// `store_existing`, `store_races`, `corrupt.*`, and `retry.*` across
    /// every user of this cache handle.
    pub fn with_obs(mut self, obs: ObsScope) -> ArtifactCache {
        self.obs = obs;
        self
    }

    /// Sets the retry policy applied to transient I/O in the store and
    /// replay paths.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ArtifactCache {
        self.retry = retry;
        self
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The retry policy applied to transient I/O (shared by the shard
    /// worker supervisor).
    pub(crate) fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The quarantine directory (corrupt entries land here).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    fn entry_dir(&self, stage: &str, key: CacheKey) -> PathBuf {
        self.root.join(format!("{stage}-{}", key.hex()))
    }

    /// Returns the cached artifact text for `(stage, key)`, if present
    /// and intact, with the FNV-1a/128 content digest it was verified
    /// against — the artifact's hash, so callers never hash it again.
    ///
    /// A hit refreshes the entry's `used` marker so [`ArtifactCache::gc`]
    /// can order evictions by last replay rather than creation time. An
    /// entry whose content hash no longer matches is quarantined and
    /// reported as a miss; replay I/O errors that survive the retry
    /// policy also degrade to a miss so the stage recomputes.
    pub fn lookup(&self, stage: &str, key: CacheKey) -> Option<(String, u128)> {
        let (bytes, digest) = self.lookup_bytes(stage, key)?;
        match String::from_utf8(bytes) {
            Ok(text) => Some((text, digest)),
            Err(_) => {
                // a binary artifact replayed through the text API: treat
                // as a miss, the caller's stage recomputes
                self.obs.add("replay.not_text", 1);
                None
            }
        }
    }

    /// [`ArtifactCache::lookup`] for binary artifacts (shard datasets in
    /// `remedy-columnar v1` form); same hit/verify/quarantine semantics,
    /// including the touch-on-hit `used` marker GC orders evictions by.
    pub fn lookup_bytes(&self, stage: &str, key: CacheKey) -> Option<(Vec<u8>, u128)> {
        let dir = self.entry_dir(stage, key);
        let read = self.retry.run("cache.replay", &self.obs, || {
            failpoint::check("stage.replay", stage)?;
            match std::fs::read(dir.join(ARTIFACT_FILE)) {
                Ok(bytes) => Ok(Some(bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(PipelineError::from(e)),
            }
        });
        let found = match read {
            Ok(Some(bytes)) => self
                .verify(&dir, stage, &bytes)
                .map(|digest| (bytes, digest)),
            Ok(None) => None,
            Err(_) => {
                // a broken replay is a miss, not a failed run
                self.obs.add("replay.errors", 1);
                None
            }
        };
        self.touch_and_count(&dir, found.is_some());
        found
    }

    /// Whether the entry for `(stage, key)` holds the artifact of
    /// `len` bytes whose content digest is `digest`, for a caller that
    /// already holds that artifact with a digest it has verified: the
    /// entry's `hash` file is compared with `digest` and the artifact's
    /// size with `len`, and the artifact itself is neither read nor
    /// re-hashed.
    ///
    /// Counts a hit or a miss like [`ArtifactCache::lookup`], and a hit
    /// refreshes the `used` marker. An entry whose `hash` file is
    /// missing, unreadable or names another digest, or whose artifact is
    /// missing or of another size, is quarantined as corrupt, so the
    /// store that follows the miss lands.
    pub fn confirm(&self, stage: &str, key: CacheKey, digest: u128, len: usize) -> bool {
        let dir = self.entry_dir(stage, key);
        let hit = dir.exists() && {
            let stored = std::fs::read_to_string(dir.join(HASH_FILE));
            let size = std::fs::metadata(dir.join(ARTIFACT_FILE)).map(|m| m.len());
            let intact = stored.is_ok_and(|s| s.trim() == format!("{digest:032x}"))
                && size.is_ok_and(|size| size == len as u64);
            if !intact {
                self.obs.add("corrupt.detected", 1);
                self.quarantine(&dir, stage);
            }
            intact
        };
        self.touch_and_count(&dir, hit);
        hit
    }

    /// Refreshes a hit entry's `used` marker and counts the hit or miss.
    fn touch_and_count(&self, dir: &Path, hit: bool) {
        if hit {
            // best-effort: a read-only cache still serves hits
            let _ = std::fs::write(dir.join(USED_FILE), b"");
        }
        self.obs.add(if hit { "hits" } else { "misses" }, 1);
    }

    /// Re-checks an entry's stored content hash and returns it; on
    /// mismatch (or a missing/unreadable hash file) quarantines the
    /// entry and returns `None`.
    fn verify(&self, dir: &Path, stage: &str, bytes: &[u8]) -> Option<u128> {
        let stored = std::fs::read_to_string(dir.join(HASH_FILE));
        let actual = stable_hash(bytes);
        if stored.is_ok_and(|s| s.trim() == format!("{actual:032x}")) {
            return Some(actual);
        }
        self.obs.add("corrupt.detected", 1);
        self.quarantine(dir, stage);
        None
    }

    /// Moves a corrupt entry into `quarantine/` (falling back to deletion
    /// if the move fails): either way it will never be replayed again.
    fn quarantine(&self, dir: &Path, stage: &str) {
        let qdir = self.quarantine_dir();
        let _ = std::fs::create_dir_all(&qdir);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| stage.to_string());
        match std::fs::rename(dir, qdir.join(format!("{name}-{seq}"))) {
            Ok(()) => self.obs.add("corrupt.quarantined", 1),
            Err(_) => {
                let _ = std::fs::remove_dir_all(dir);
                self.obs.add("corrupt.dropped", 1);
            }
        }
    }

    /// Stores an artifact with a one-line description; atomic per entry,
    /// and a no-op when the entry already holds an artifact. Transient
    /// I/O failures are retried under the cache's policy.
    /// Returns the artifact's FNV-1a/128 content digest, computed once
    /// for the entry's `hash` file and the caller.
    pub fn store(
        &self,
        stage: &str,
        key: CacheKey,
        artifact: &str,
        description: &str,
    ) -> Result<u128, PipelineError> {
        self.store_bytes(stage, key, artifact.as_bytes(), description)
    }

    /// [`ArtifactCache::store`] for binary artifacts; same atomicity,
    /// retry, and race semantics.
    pub fn store_bytes(
        &self,
        stage: &str,
        key: CacheKey,
        artifact: &[u8],
        description: &str,
    ) -> Result<u128, PipelineError> {
        let digest = stable_hash(artifact);
        self.store_with_digest(stage, key, artifact, digest, description)?;
        Ok(digest)
    }

    /// [`ArtifactCache::store_bytes`] for a caller that already holds the
    /// artifact's FNV-1a/128 content digest (it verified or computed it),
    /// so the artifact is not hashed again. The digest lands in the
    /// entry's `hash` file, which every later replay checks.
    pub fn store_with_digest(
        &self,
        stage: &str,
        key: CacheKey,
        artifact: &[u8],
        digest: u128,
        description: &str,
    ) -> Result<(), PipelineError> {
        debug_assert_eq!(digest, stable_hash(artifact), "digest of another artifact");
        self.store_streamed(stage, key, description, |out| {
            out.write_all(artifact)?;
            Ok(digest)
        })
        .map(drop)
    }

    /// [`ArtifactCache::store`] for an artifact `write` streams out piece
    /// by piece, returning its FNV-1a/128 content digest, so no one holds
    /// the whole artifact. When the entry already holds an artifact,
    /// `write` streams into a sink for the digest alone. Under the retry
    /// policy `write` may run more than once. Returns the digest.
    pub fn store_streamed(
        &self,
        stage: &str,
        key: CacheKey,
        description: &str,
        write: impl Fn(&mut dyn Write) -> std::io::Result<u128>,
    ) -> Result<u128, PipelineError> {
        self.retry.run("cache.store", &self.obs, || {
            failpoint::check("stage.store", stage)?;
            self.store_once(stage, key, &write, description)
        })
    }

    /// Writes one entry unless it already holds an artifact: the key
    /// names the inputs, so that artifact is the one this store would
    /// write, and staging a copy only to fail the rename wastes a write.
    /// Such a store counts `store_existing`; a concurrent writer that
    /// lands between the check and the rename counts `store_races`.
    fn store_once(
        &self,
        stage: &str,
        key: CacheKey,
        write: &dyn Fn(&mut dyn Write) -> std::io::Result<u128>,
        description: &str,
    ) -> Result<u128, PipelineError> {
        let dir = self.entry_dir(stage, key);
        if dir.join(ARTIFACT_FILE).exists() {
            self.obs.add("store_existing", 1);
            return Ok(write(&mut std::io::sink())?);
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!(
            ".tmp-{stage}-{}-{}-{seq}",
            key.hex(),
            std::process::id()
        ));
        let staged = (|| -> std::io::Result<u128> {
            std::fs::create_dir_all(&tmp)?;
            let digest = write(&mut std::fs::File::create(tmp.join(ARTIFACT_FILE))?)?;
            std::fs::write(tmp.join(HASH_FILE), format!("{digest:032x}\n"))?;
            std::fs::write(tmp.join(META_FILE), format!("{description}\n"))?;
            Ok(digest)
        })();
        let digest = match staged {
            Ok(digest) => digest,
            Err(e) => {
                // don't leave a half-written temp dir behind
                let _ = std::fs::remove_dir_all(&tmp);
                return Err(PipelineError::from(e)
                    .map_message(|m| format!("cannot stage cache entry: {m}")));
            }
        };
        match std::fs::rename(&tmp, &dir) {
            Ok(()) => Ok(digest),
            Err(_) if dir.join(ARTIFACT_FILE).exists() => {
                // a concurrent writer won the race; its artifact is
                // identical by construction (same key = same inputs)
                self.obs.add("store_races", 1);
                let _ = std::fs::remove_dir_all(&tmp);
                Ok(digest)
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&tmp);
                Err(PipelineError::from(e)
                    .map_message(|m| format!("cannot store cache entry: {m}")))
            }
        }
    }

    /// Number of entries currently in the cache (for tests and stats);
    /// staging dirs, the quarantine, and run manifests are not entries.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        !name.starts_with(".tmp-") && name != QUARANTINE_DIR && name != RUNS_DIR
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// The directory holding run manifests registered by sharded runs.
    pub fn runs_dir(&self) -> PathBuf {
        self.root.join(RUNS_DIR)
    }

    /// Registers (or re-registers) a run's manifest under the cache's
    /// `runs/` directory. While the manifest's status is
    /// [`RunStatus::Running`](crate::manifest::RunStatus::Running), every
    /// `{stage}-{key}` entry it records is pinned against
    /// [`ArtifactCache::gc`]; re-registering with a terminal status
    /// releases the pins. `run_id` must be filesystem-safe (the engine
    /// uses the run's identify-key hex).
    pub fn pin_run(
        &self,
        run_id: &str,
        manifest: &crate::manifest::RunManifest,
    ) -> Result<(), PipelineError> {
        let dir = self.runs_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PipelineError::fatal(format!("cannot create runs dir: {e}")))?;
        manifest
            .write_path(dir.join(format!("{run_id}.json")))
            .map_err(|e| PipelineError::from(e).map_message(|m| format!("cannot pin run: {m}")))
    }

    /// Entry names (`{stage}-{key}`) pinned by `status: "running"`
    /// manifests under `runs/`. Unreadable or corrupt manifests pin
    /// nothing (a garbage file must not shield the whole cache).
    fn pinned_entries(&self) -> std::collections::HashSet<String> {
        let mut pinned = std::collections::HashSet::new();
        let Ok(entries) = std::fs::read_dir(self.runs_dir()) else {
            return pinned;
        };
        for entry in entries.filter_map(Result::ok) {
            let Ok(manifest) = crate::manifest::RunManifest::from_path(entry.path()) else {
                continue;
            };
            if manifest.status != crate::manifest::RunStatus::Running {
                continue;
            }
            for rec in &manifest.stages {
                pinned.insert(format!("{}-{}", rec.stage, rec.key));
            }
        }
        pinned
    }

    /// Whether the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of quarantined entries.
    pub fn quarantined(&self) -> usize {
        std::fs::read_dir(self.quarantine_dir())
            .map(|entries| entries.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    /// Sweeps the cache according to `policy`; see [`ArtifactCache::gc_at`].
    pub fn gc(&self, policy: &GcPolicy) -> Result<GcStats, PipelineError> {
        self.gc_at(policy, SystemTime::now())
    }

    /// Sweeps the cache according to `policy`, treating `sweep_start` as
    /// the moment the sweep began.
    ///
    /// Three passes, all best-effort per entry:
    ///
    /// 1. orphaned `.tmp-*` staging dirs (crashed or interrupted stores)
    ///    are always deleted;
    /// 2. entries whose last use is older than `max_age` are deleted;
    /// 3. if the surviving entries still exceed `max_bytes`, the
    ///    least-recently-replayed ones are deleted oldest-first until the
    ///    budget holds.
    ///
    /// "Last use" is the newest of the entry's `used` marker (touched on
    /// every [`ArtifactCache::lookup`] hit) and its artifact file, so an
    /// entry that was stored but never replayed still has a timestamp.
    ///
    /// Three classes of entry are never touched: anything inside
    /// `quarantine/`; any entry used *after* `sweep_start` (the marker is
    /// re-read immediately before deletion) — so a concurrent run
    /// replaying an artifact cannot have it swept out from under it; and
    /// any entry recorded by a `status: "running"` manifest under `runs/`
    /// ([`ArtifactCache::pin_run`]) — so a sharded run's shard and count
    /// artifacts survive until the run finalizes its manifest. Counters
    /// (`gc.entries_removed`, `gc.bytes_removed`, …) land on the cache's
    /// observability scope.
    pub fn gc_at(
        &self,
        policy: &GcPolicy,
        sweep_start: SystemTime,
    ) -> Result<GcStats, PipelineError> {
        let mut stats = GcStats::default();
        // (dir, last_used, bytes, pinned) for every live entry
        let mut live: Vec<(PathBuf, SystemTime, u64, bool)> = Vec::new();
        let pinned = self.pinned_entries();

        // deletes an entry unless its `used` marker moved past the sweep
        // start since it was scanned (a concurrent replay claimed it)
        let remove_unless_in_flight = |path: &Path| -> bool {
            if entry_last_used(path) > sweep_start {
                return false;
            }
            std::fs::remove_dir_all(path).is_ok()
        };

        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| PipelineError::fatal(format!("cannot read cache dir: {e}")))?;
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !path.is_dir() || name == QUARANTINE_DIR || name == RUNS_DIR {
                continue;
            }
            if name.starts_with(".tmp-") {
                if std::fs::remove_dir_all(&path).is_ok() {
                    stats.tmp_dirs_removed += 1;
                }
                continue;
            }
            stats.entries_scanned += 1;
            if pinned.contains(name.as_ref()) {
                // a running sharded run still needs this artifact
                stats.entries_pinned += 1;
                let (used, bytes) = (entry_last_used(&path), dir_bytes(&path));
                live.push((path, used, bytes, true));
                continue;
            }
            let bytes = dir_bytes(&path);
            let last_used = entry_last_used(&path);
            if last_used > sweep_start {
                // in flight: a replay touched it after the sweep began
                stats.entries_in_flight += 1;
                live.push((path, last_used, bytes, false));
                continue;
            }
            let expired = match (policy.max_age, sweep_start.duration_since(last_used)) {
                (Some(max_age), Ok(age)) => age > max_age,
                _ => false,
            };
            if expired && remove_unless_in_flight(&path) {
                stats.entries_removed += 1;
                stats.bytes_removed += bytes;
                continue;
            }
            live.push((path, last_used, bytes, false));
        }

        // size sweep: evict least-recently-used first until under budget
        // (pinned entries count toward the total but are never evicted)
        if let Some(max_bytes) = policy.max_bytes {
            let mut total: u64 = live.iter().map(|(_, _, b, _)| b).sum();
            live.sort_by_key(|&(_, used, _, _)| used);
            let mut idx = 0;
            while total > max_bytes && idx < live.len() {
                let (path, used, bytes, is_pinned) = &live[idx];
                if !is_pinned && *used <= sweep_start && remove_unless_in_flight(path) {
                    stats.entries_removed += 1;
                    stats.bytes_removed += bytes;
                    total -= bytes;
                    live[idx].2 = 0; // mark evicted for the live tally
                }
                idx += 1;
            }
            live.retain(|(_, _, b, _)| *b > 0);
        }

        stats.live_entries = live.len() as u64;
        stats.live_bytes = live.iter().map(|(_, _, b, _)| b).sum();
        self.obs.add_many(&[
            ("gc.entries_scanned", stats.entries_scanned),
            ("gc.entries_removed", stats.entries_removed),
            ("gc.entries_in_flight", stats.entries_in_flight),
            ("gc.entries_pinned", stats.entries_pinned),
            ("gc.bytes_removed", stats.bytes_removed),
            ("gc.tmp_dirs_removed", stats.tmp_dirs_removed),
        ]);
        Ok(stats)
    }
}

/// Limits for [`ArtifactCache::gc`]; a `None` bound disables that sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcPolicy {
    /// Byte budget for the cache after the sweep; least-recently-replayed
    /// entries are evicted until the live set fits.
    pub max_bytes: Option<u64>,
    /// Entries whose last use is older than this are evicted regardless
    /// of the byte budget.
    pub max_age: Option<Duration>,
}

/// What one [`ArtifactCache::gc`] sweep scanned and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Cache entries examined (excluding `.tmp-*` staging dirs and the
    /// quarantine).
    pub entries_scanned: u64,
    /// Cache entries deleted by the age or size sweep.
    pub entries_removed: u64,
    /// Entries protected from the sweep because a concurrent run replayed
    /// them after the sweep started.
    pub entries_in_flight: u64,
    /// Entries protected because a `status: "running"` manifest under
    /// `runs/` records them ([`ArtifactCache::pin_run`]).
    pub entries_pinned: u64,
    /// Bytes reclaimed from deleted entries.
    pub bytes_removed: u64,
    /// Orphaned `.tmp-*` staging dirs deleted.
    pub tmp_dirs_removed: u64,
    /// Entries surviving the sweep.
    pub live_entries: u64,
    /// Total bytes of the surviving entries.
    pub live_bytes: u64,
}

/// Total size of the files directly inside an entry dir.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The newest of the `used` marker's and the artifact's mtimes; epoch if
/// neither is readable (such an entry sorts oldest and is evicted first).
fn entry_last_used(dir: &Path) -> SystemTime {
    [USED_FILE, ARTIFACT_FILE]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .filter_map(|m| m.modified().ok())
        .max()
        .unwrap_or(SystemTime::UNIX_EPOCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("remedy_cache_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    /// The text a lookup replays, without its digest.
    fn text(cache: &ArtifactCache, stage: &str, key: CacheKey) -> Option<String> {
        cache.lookup(stage, key).map(|(text, _)| text)
    }

    #[test]
    fn store_then_lookup() {
        let cache = temp_cache("roundtrip");
        let key = CacheKey(0xABCD);
        assert_eq!(cache.lookup("load", key), None);
        let stored = cache.store("load", key, "payload", "test entry").unwrap();
        assert_eq!(stored, stable_hash(b"payload"));
        // a hit hands back the digest it verified: the one stored
        assert_eq!(cache.lookup("load", key), Some(("payload".into(), stored)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_stages_do_not_collide() {
        let cache = temp_cache("stages");
        let key = CacheKey(1);
        cache.store("load", key, "a", "").unwrap();
        assert_eq!(cache.lookup("identify", key), None);
    }

    #[test]
    fn double_store_is_idempotent() {
        let cache = temp_cache("idempotent");
        let key = CacheKey(2);
        cache.store("train", key, "x", "").unwrap();
        cache.store("train", key, "x", "").unwrap();
        assert_eq!(text(&cache, "train", key).as_deref(), Some("x"));
        assert_eq!(cache.len(), 1);
    }

    /// Corrupting an artifact must quarantine the entry (preserved for
    /// inspection), count it, and report a miss so the stage recomputes.
    #[test]
    fn corrupt_artifact_is_quarantined_and_missed() {
        let rec = remedy_obs::Recorder::enabled();
        let cache = temp_cache("corrupt").with_obs(rec.scope("cache"));
        let key = CacheKey(0xBAD);
        cache.store("identify", key, "intact artifact", "").unwrap();

        // flip one byte of the stored artifact
        let path = cache.entry_dir("identify", key).join(ARTIFACT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(cache.lookup("identify", key), None, "corrupt entry served");
        assert_eq!(cache.len(), 0, "corrupt entry still counted as live");
        assert_eq!(cache.quarantined(), 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache", "corrupt.detected"), Some(1));
        assert_eq!(snap.counter("cache", "corrupt.quarantined"), Some(1));
        assert_eq!(snap.counter("cache", "misses"), Some(1));

        // a fresh store of the same key works and replays cleanly
        cache.store("identify", key, "intact artifact", "").unwrap();
        assert_eq!(
            text(&cache, "identify", key).as_deref(),
            Some("intact artifact")
        );
    }

    /// A truncated entry (missing `hash` file — e.g. written by a crashed
    /// process or an older cache layout) is treated as corrupt.
    #[test]
    fn missing_hash_file_is_corrupt() {
        let cache = temp_cache("nohash");
        let key = CacheKey(5);
        cache.store("train", key, "x", "").unwrap();
        std::fs::remove_file(cache.entry_dir("train", key).join(HASH_FILE)).unwrap();
        assert_eq!(cache.lookup("train", key), None);
        assert_eq!(cache.quarantined(), 1);
    }

    /// How many `.tmp-` staging dirs are left under the cache root.
    fn stale_tmp_dirs(cache: &ArtifactCache) -> usize {
        std::fs::read_dir(cache.root())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count()
    }

    /// Regression (same-process store race): temp dirs used to be named by
    /// `(stage, key, pid)` only, so threads of one process racing on one
    /// key shared a staging dir — the winner's rename yanked it mid-write
    /// and the loser's `fs::write` failed with a spurious `PipelineError`.
    /// Every store must now succeed, leaving one complete entry and no
    /// stale temp dirs.
    #[test]
    fn concurrent_same_key_stores_all_succeed() {
        let cache = temp_cache("race");
        let key = CacheKey(0xFEED);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = &cache;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        for _ in 0..50 {
                            cache.store("identify", key, "artifact-body", "desc")?;
                        }
                        Ok::<(), PipelineError>(())
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        assert_eq!(
            text(&cache, "identify", key).as_deref(),
            Some("artifact-body")
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(stale_tmp_dirs(&cache), 0, "staging dirs were leaked");
    }

    #[test]
    fn gc_with_zero_budget_removes_everything() {
        let cache = temp_cache("gc_zero");
        cache.store("load", CacheKey(1), "aaaa", "").unwrap();
        cache.store("train", CacheKey(2), "bbbb", "").unwrap();
        let stats = cache
            .gc(&GcPolicy {
                max_bytes: Some(0),
                max_age: None,
            })
            .unwrap();
        assert_eq!(stats.entries_scanned, 2);
        assert_eq!(stats.entries_removed, 2);
        assert!(stats.bytes_removed > 0);
        assert_eq!(stats.live_entries, 0);
        assert_eq!(stats.live_bytes, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn gc_sweeps_orphaned_tmp_dirs_even_with_no_policy() {
        let cache = temp_cache("gc_tmp");
        cache.store("load", CacheKey(1), "x", "").unwrap();
        std::fs::create_dir_all(cache.root().join(".tmp-load-dead-1234-0")).unwrap();
        let stats = cache.gc(&GcPolicy::default()).unwrap();
        assert_eq!(stats.tmp_dirs_removed, 1);
        assert_eq!(stats.entries_removed, 0);
        assert_eq!(stats.live_entries, 1);
        assert_eq!(text(&cache, "load", CacheKey(1)).as_deref(), Some("x"));
    }

    #[test]
    fn gc_evicts_least_recently_replayed_first() {
        let cache = temp_cache("gc_lru");
        cache.store("load", CacheKey(1), "old entry", "").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store("load", CacheKey(2), "new entry", "").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // replaying the *older* entry must protect it from the sweep
        assert!(cache.lookup("load", CacheKey(1)).is_some());
        let total = dir_bytes(&cache.entry_dir("load", CacheKey(1)))
            + dir_bytes(&cache.entry_dir("load", CacheKey(2)));
        let stats = cache
            .gc(&GcPolicy {
                max_bytes: Some(total - 1), // force exactly one eviction
                max_age: None,
            })
            .unwrap();
        assert_eq!(stats.entries_removed, 1);
        assert!(cache.lookup("load", CacheKey(1)).is_some());
        assert!(cache.lookup("load", CacheKey(2)).is_none());
    }

    #[test]
    fn gc_age_sweep_expires_stale_entries() {
        let cache = temp_cache("gc_age");
        cache.store("load", CacheKey(1), "x", "").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let stats = cache
            .gc(&GcPolicy {
                max_bytes: None,
                max_age: Some(std::time::Duration::from_millis(1)),
            })
            .unwrap();
        assert_eq!(stats.entries_removed, 1);
        assert!(cache.is_empty());
    }

    /// Regression (gc vs. in-flight runs): an entry whose `used` marker is
    /// newer than the sweep start is being replayed by a concurrent run
    /// right now — both the age sweep and the byte-budget sweep must skip
    /// it, no matter how aggressive the policy.
    #[test]
    fn gc_skips_entries_replayed_after_sweep_start() {
        let cache = temp_cache("gc_inflight");
        cache
            .store("load", CacheKey(1), "replaying right now", "")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sweep_start = SystemTime::now() - Duration::from_secs(3600);
        // the lookup (concurrent run) touches `used` *after* sweep_start
        assert!(cache.lookup("load", CacheKey(1)).is_some());
        let stats = cache
            .gc_at(
                &GcPolicy {
                    max_bytes: Some(0),
                    max_age: Some(Duration::from_nanos(1)),
                },
                sweep_start,
            )
            .unwrap();
        assert_eq!(stats.entries_removed, 0, "swept an in-flight entry");
        assert_eq!(stats.entries_in_flight, 1);
        assert_eq!(stats.live_entries, 1);
        assert!(cache.lookup("load", CacheKey(1)).is_some());
    }

    /// Quarantined entries are evidence, not cache: gc never touches them.
    #[test]
    fn gc_never_touches_the_quarantine() {
        let cache = temp_cache("gc_quarantine");
        let key = CacheKey(9);
        cache.store("audit", key, "soon corrupt", "").unwrap();
        std::fs::write(cache.entry_dir("audit", key).join(ARTIFACT_FILE), "flip").unwrap();
        assert_eq!(cache.lookup("audit", key), None);
        assert_eq!(cache.quarantined(), 1);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let stats = cache
            .gc(&GcPolicy {
                max_bytes: Some(0),
                max_age: Some(Duration::from_nanos(1)),
            })
            .unwrap();
        assert_eq!(stats.entries_scanned, 0, "quarantine was scanned");
        assert_eq!(cache.quarantined(), 1, "quarantine was swept");
    }

    #[test]
    fn gc_reports_counters_on_the_obs_scope() {
        let rec = remedy_obs::Recorder::enabled();
        let cache = temp_cache("gc_obs").with_obs(rec.scope("cache"));
        cache.store("load", CacheKey(1), "x", "").unwrap();
        std::fs::create_dir_all(cache.root().join(".tmp-load-dead-1-0")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        cache
            .gc(&GcPolicy {
                max_bytes: Some(0),
                max_age: None,
            })
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache", "gc.entries_scanned"), Some(1));
        assert_eq!(snap.counter("cache", "gc.entries_removed"), Some(1));
        assert_eq!(snap.counter("cache", "gc.tmp_dirs_removed"), Some(1));
        assert!(snap.counter("cache", "gc.bytes_removed").unwrap() > 0);
    }

    #[test]
    fn bytes_roundtrip_handles_non_utf8() {
        let cache = temp_cache("bytes");
        let key = CacheKey(0xB17E5);
        let payload: Vec<u8> = (0..=255u8).collect();
        assert_eq!(cache.lookup_bytes("shard", key), None);
        cache
            .store_bytes("shard", key, &payload, "binary shard")
            .unwrap();
        assert_eq!(
            cache
                .lookup_bytes("shard", key)
                .map(|(bytes, _)| bytes)
                .as_deref(),
            Some(&payload[..])
        );
        // the text API must not serve a non-UTF-8 artifact
        assert_eq!(cache.lookup("shard", key), None);
        // ...and corruption is still caught through the bytes path
        let path = cache.entry_dir("shard", key).join(ARTIFACT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup_bytes("shard", key), None);
        assert_eq!(cache.quarantined(), 1);
    }

    /// Builds a manifest whose stage list records exactly `entries`.
    fn running_manifest(
        status: crate::manifest::RunStatus,
        entries: &[(&'static str, CacheKey)],
    ) -> crate::manifest::RunManifest {
        crate::manifest::RunManifest {
            dataset: "synth".into(),
            seed: 7,
            threads: 1,
            status,
            total_ms: 0.0,
            stages: entries
                .iter()
                .map(|&(stage, key)| crate::manifest::StageRecord {
                    stage,
                    branch: None,
                    key: key.hex(),
                    artifact_hash: "00".into(),
                    cache_hit: false,
                    skipped: false,
                    wall_ms: 0.0,
                    counters: Vec::new(),
                })
                .collect(),
            branches: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Shard artifacts recorded by a `status: "running"` manifest must
    /// survive even a zero-budget sweep; finalizing the manifest (status
    /// `Ok`) releases the pin.
    #[test]
    fn gc_never_collects_entries_pinned_by_a_running_manifest() {
        use crate::manifest::RunStatus;
        let rec = remedy_obs::Recorder::enabled();
        let cache = temp_cache("gc_pinned").with_obs(rec.scope("cache"));
        let pinned_key = CacheKey(1);
        cache
            .store_bytes("shard", pinned_key, b"shard rows", "")
            .unwrap();
        cache.store("load", CacheKey(2), "unpinned", "").unwrap();
        cache
            .pin_run(
                "runid",
                &running_manifest(RunStatus::Running, &[("shard", pinned_key)]),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: Some(Duration::from_nanos(1)),
        };
        let stats = cache.gc(&policy).unwrap();
        assert_eq!(stats.entries_pinned, 1);
        assert_eq!(stats.entries_removed, 1, "unpinned entry should go");
        assert!(cache.lookup_bytes("shard", pinned_key).is_some());
        assert_eq!(
            rec.snapshot().counter("cache", "gc.entries_pinned"),
            Some(1)
        );
        // the runs dir itself is neither an entry nor sweepable
        assert_eq!(cache.len(), 1);

        // finalize: rewrite the manifest with a terminal status
        cache
            .pin_run(
                "runid",
                &running_manifest(RunStatus::Ok, &[("shard", pinned_key)]),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let stats = cache.gc(&policy).unwrap();
        assert_eq!(stats.entries_pinned, 0);
        assert_eq!(stats.entries_removed, 1);
        assert!(cache.lookup_bytes("shard", pinned_key).is_none());
    }

    /// A garbage file in `runs/` pins nothing and breaks nothing.
    #[test]
    fn gc_ignores_corrupt_run_manifests() {
        let cache = temp_cache("gc_badrun");
        cache.store("load", CacheKey(1), "x", "").unwrap();
        std::fs::create_dir_all(cache.runs_dir()).unwrap();
        std::fs::write(cache.runs_dir().join("junk.json"), "not json").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let stats = cache
            .gc(&GcPolicy {
                max_bytes: Some(0),
                max_age: None,
            })
            .unwrap();
        assert_eq!(stats.entries_pinned, 0);
        assert_eq!(stats.entries_removed, 1);
    }

    #[test]
    fn obs_scope_counts_hits_misses_and_existing_stores() {
        let rec = remedy_obs::Recorder::enabled();
        let cache = temp_cache("obs").with_obs(rec.scope("cache"));
        let key = CacheKey(3);
        assert!(cache.lookup("load", key).is_none());
        cache.store("load", key, "x", "").unwrap();
        assert!(cache.lookup("load", key).is_some());
        // the entry already exists: nothing is staged, so no rename races
        cache.store("load", key, "x", "").unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache", "misses"), Some(1));
        assert_eq!(snap.counter("cache", "hits"), Some(1));
        assert_eq!(snap.counter("cache", "store_existing"), Some(1));
        assert_eq!(snap.counter("cache", "store_races"), None);
    }

    /// `confirm` answers from the `hash` file and the artifact's size: a
    /// hit for the stored digest, a plain miss for an absent entry, and a
    /// quarantined miss for an entry whose `hash` file or artifact size
    /// disagrees; the store that follows lands.
    #[test]
    fn confirm_checks_the_hash_file_and_quarantines_a_mismatch() {
        let rec = remedy_obs::Recorder::enabled();
        let cache = temp_cache("confirm").with_obs(rec.scope("cache"));
        let (key, held) = (CacheKey(0xC0), "held artifact");
        let digest = stable_hash(held.as_bytes());
        assert!(!cache.confirm("load", key, digest, held.len()));
        assert_eq!(cache.quarantined(), 0, "an absent entry is not corrupt");
        cache.store("load", key, held, "").unwrap();
        assert!(cache.confirm("load", key, digest, held.len()));
        // the artifact is not read: damage that keeps its size goes
        // unseen here (a replay's re-hash catches it)
        let artifact = cache.entry_dir("load", key).join(ARTIFACT_FILE);
        std::fs::write(&artifact, "HELD ARTIFACT").unwrap();
        assert!(cache.confirm("load", key, digest, held.len()));

        // a `hash` file naming another digest
        let hash = cache.entry_dir("load", key).join(HASH_FILE);
        std::fs::write(&hash, format!("{:032x}\n", digest ^ 1)).unwrap();
        assert!(!cache.confirm("load", key, digest, held.len()));
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.len(), 0);
        cache.store("load", key, held, "").unwrap();
        assert!(cache.confirm("load", key, digest, held.len()));

        // a truncated artifact
        std::fs::write(cache.entry_dir("load", key).join(ARTIFACT_FILE), "held").unwrap();
        assert!(!cache.confirm("load", key, digest, held.len()));
        assert_eq!(cache.quarantined(), 2);
        cache.store("load", key, held, "").unwrap();
        assert_eq!(text(&cache, "load", key).as_deref(), Some(held));

        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache", "corrupt.detected"), Some(2));
        assert_eq!(snap.counter("cache", "corrupt.quarantined"), Some(2));
        assert_eq!(snap.counter("cache", "hits"), Some(4));
        assert_eq!(snap.counter("cache", "misses"), Some(3));
    }
}
