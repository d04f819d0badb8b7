//! Sharded, multi-process execution of the counting half of identify.
//!
//! `sharded_identify_stage` replaces the single-process identify prefix
//! when a plan runs with `shards > 1`:
//!
//! ```text
//! partition ──► shard s0 ──► worker s0 ──► count s0 ─┐
//!          ├──► shard s1 ──► worker s1 ──► count s1 ─┼─► merge ─► identify
//!          └──► …                                    ┘
//! ```
//!
//! The training split is partitioned **stratified by packed protected
//! key** ([`remedy_dataset::store::partition_stratified`]): every region
//! key spreads near-evenly over the shards, so per-shard leaf maps are
//! balanced and no worker degenerates into the straggler. Each shard is
//! written to the artifact cache as a `remedy-columnar v1` artifact —
//! packed-key sidecar included, so workers skip the re-packing pass —
//! under the `shard` stage; each worker scans its shard into a
//! [`ShardCounts`] leaf accumulator and stores it as a `remedy-counts v1`
//! artifact under the `count` stage. The parent merges the per-shard
//! accumulators ([`ShardCounts::merge`]) and runs identification over
//! the merged lattice.
//!
//! ## Exactness
//!
//! Leaf counts are plain row sums, so merging per-shard accumulators is
//! exact under *any* row partition — stratification only balances work.
//! Workers emit **unpruned** leaves; support pruning is applied once,
//! globally, when the merged accumulator is lowered into a
//! [`SparseHierarchy`](remedy_core::SparseHierarchy) — pruning inside a
//! shard would drop regions whose global support clears the threshold.
//! Because `remedy-counts v1` sorts leaves by key, identification sorts
//! its output regions, and the identify cache key is a function of the
//! discretized artifact + split + IBS parameters only (never of `shards`
//! or thread counts), a sharded run stores a byte-identical `remedy-ibs
//! v1` artifact under the identical cache key as a single-process run.
//!
//! ## Workers and fault tolerance
//!
//! Workers run either as `remedy pipeline-worker` subprocesses
//! ([`WorkerMode::Subprocess`]) or as in-process threads
//! ([`WorkerMode::InProcess`]); both paths share [`worker_body`], which
//! is idempotent — it exits immediately if its count artifact is already
//! cached, which is also what makes `--resume` free: completed shards
//! replay from the content-addressed cache. A subprocess signals a
//! permanent failure with exit code 2 ([`WORKER_EXIT_FATAL`]); any other
//! non-zero exit — including being killed — is classified
//! [`ErrorKind::Transient`](crate::ErrorKind) and retried
//! deterministically under the run's [`RetryPolicy`](crate::RetryPolicy),
//! re-running just that shard. While shards are in flight the parent
//! pins their cache entries via a `status: "running"` manifest
//! ([`ArtifactCache::pin_run`]) so a concurrent `cache gc` cannot sweep
//! them.
//!
//! ## Threads
//!
//! With `--shards N --threads T`, each worker scans with
//! `max(1, T / N)` threads ([`worker_threads`]) so the shard fleet never
//! oversubscribes the machine; the final merged identification runs in
//! the parent with the full `T`.

use crate::cache::{ArtifactCache, CacheKey};
use crate::error::PipelineError;
use crate::failpoint;
use crate::manifest::{RunManifest, RunStatus, StageRecord};
use crate::plan::Plan;
use crate::stages::{identify_key, run_stage, write_split, StageOutput};
use remedy_core::hash::{stable_hash, StableHasher};
use remedy_core::{persist as ibs_persist, try_identify_counts_with, Algorithm, ShardCounts};
use remedy_dataset::{store, Dataset};
use remedy_obs::Span;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Exit code a `pipeline-worker` subprocess uses for permanent failures
/// (corrupt shard artifact, invalid layout): the parent must not retry.
/// Any other non-zero exit — a panic, a kill, a transient I/O error —
/// is retried.
pub const WORKER_EXIT_FATAL: i32 = 2;

/// How shard count workers execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMode {
    /// Spawn `<exe> pipeline-worker …` subprocesses; `None` resolves the
    /// current executable. Crash isolation: a worker death (any signal)
    /// is a transient, retryable fault in the parent.
    Subprocess(Option<PathBuf>),
    /// Run [`worker_body`] on an in-process thread. The default for
    /// library users and tests (where `current_exe` is the test harness,
    /// not the CLI).
    InProcess,
}

/// Per-worker scan threads under `--shards N --threads T`: `max(1, T/N)`,
/// with `T = 0` meaning all cores — so the fleet as a whole never
/// oversubscribes the machine.
pub fn worker_threads(threads: usize, shards: usize) -> usize {
    let total = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    (total / shards.max(1)).max(1)
}

/// The cache key of shard `index` of `shards`: a function of the
/// discretized artifact, the split, and the shard geometry — thread
/// counts never participate.
pub(crate) fn shard_key(
    plan: &Plan,
    discretized_hash: &str,
    shards: usize,
    index: usize,
) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str("shard");
    h.write_str(discretized_hash);
    write_split(&mut h, plan);
    h.write_u64(shards as u64);
    h.write_u64(index as u64);
    CacheKey::from_hasher(&h)
}

/// The cache key of a worker's count artifact: chained through the shard
/// artifact's content hash, so a changed shard invalidates exactly its
/// own counts.
pub(crate) fn count_key(shard_artifact_hash: &str) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str("count");
    h.write_str(shard_artifact_hash);
    CacheKey::from_hasher(&h)
}

/// One worker's job, shared verbatim by the `pipeline-worker` CLI
/// subcommand and [`WorkerMode::InProcess`] threads: replay the shard
/// artifact, scan it into a [`ShardCounts`] accumulator (reusing the
/// persisted packed-key sidecar when the artifact carries one), and
/// store the accumulator as a `remedy-counts v1` artifact.
///
/// Idempotent: if the count artifact is already cached (a prior attempt
/// finished, or the run is resuming) the worker exits immediately unless
/// `force` is set.
pub fn worker_body(
    cache: &ArtifactCache,
    shard: CacheKey,
    count: CacheKey,
    threads: usize,
    force: bool,
) -> Result<(), PipelineError> {
    if !force && cache.lookup("count", count).is_some() {
        return Ok(());
    }
    let bytes = cache.lookup_bytes("shard", shard).ok_or_else(|| {
        PipelineError::corrupt(format!("shard artifact {} missing from cache", shard.hex()))
    })?;
    let stored = store::from_bytes(&bytes)
        .map_err(|e| PipelineError::corrupt(format!("cannot decode shard artifact: {e}")))?;
    let counts = match &stored.packed {
        Some(packed) => ShardCounts::scan_packed(&stored.data, packed, threads),
        None => ShardCounts::scan(&stored.data, threads),
    }
    .map_err(|e| PipelineError::fatal(format!("cannot scan shard: {e}")))?;
    cache.store(
        "count",
        count,
        &ibs_persist::counts_to_text(&counts),
        &format!("count rows={}", stored.data.len()),
    )
}

/// What one shard contributed: its two manifest records plus the parsed
/// accumulator.
struct ShardRun {
    records: [StageRecord; 2],
    counts: ShardCounts,
}

/// Runs the sharded identify prefix; returns the identify [`StageOutput`]
/// (byte-identical, same cache key, as the single-process
/// [`identify_stage`](crate::stages::identify_stage)) plus the `shard` /
/// `count` stage records in shard order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharded_identify_stage(
    plan: &Plan,
    discretized: &StageOutput,
    train_set: &Dataset,
    shards: usize,
    threads: usize,
    worker: &WorkerMode,
    force: bool,
    cache: &ArtifactCache,
    run_span: &Span,
) -> Result<(StageOutput, Vec<StageRecord>), PipelineError> {
    let ikey = identify_key(plan, &discretized.artifact_hash);
    // whole-prefix replay: with the identify artifact cached there is
    // nothing to shard — the single-stage path serves the hit
    if !force {
        let obs = run_span.child_scope("identify");
        let start = Instant::now();
        if let Some(text) = cache.lookup("identify", ikey) {
            obs.add("cache_hits", 1);
            let out = crate::stages::finish("identify", None, ikey, true, text, start, &obs);
            return Ok((out, Vec::new()));
        }
    }

    // partition + serialize: keys (and the pin manifest) need every
    // shard's content hash before any worker starts
    let parts = store::partition_stratified(train_set, shards);
    let wthreads = worker_threads(threads, shards);
    struct Prepared {
        index: usize,
        bytes: Vec<u8>,
        skey: CacheKey,
        shard_hash: String,
        ckey: CacheKey,
    }
    let prepared: Vec<Prepared> = parts
        .iter()
        .enumerate()
        .map(|(index, part)| {
            let bytes = store::to_binary(part);
            let shard_hash = format!("{:032x}", stable_hash(&bytes));
            let skey = shard_key(plan, &discretized.artifact_hash, shards, index);
            Prepared {
                index,
                ckey: count_key(&shard_hash),
                skey,
                shard_hash,
                bytes,
            }
        })
        .collect();

    // pin every shard/count entry against gc for the life of the run
    let pin_manifest = |status: RunStatus| RunManifest {
        dataset: plan.source.clone(),
        seed: plan.seed,
        threads,
        status,
        total_ms: 0.0,
        stages: prepared
            .iter()
            .flat_map(|p| {
                let record = |stage: &'static str, key: &CacheKey| StageRecord {
                    stage,
                    branch: Some(format!("s{}", p.index)),
                    key: key.hex(),
                    artifact_hash: p.shard_hash.clone(),
                    cache_hit: false,
                    skipped: false,
                    wall_ms: 0.0,
                    counters: Vec::new(),
                };
                [record("shard", &p.skey), record("count", &p.ckey)]
            })
            .collect(),
        branches: Vec::new(),
        failures: Vec::new(),
    };
    let run_id = ikey.hex();
    cache.pin_run(&run_id, &pin_manifest(RunStatus::Running))?;

    // fan the workers out: every shard gets its own supervisor thread,
    // and each worker failure is contained (and retried) per shard
    let results: Mutex<Vec<(usize, Result<ShardRun, PipelineError>)>> =
        Mutex::new(Vec::with_capacity(shards));
    std::thread::scope(|scope| {
        for p in &prepared {
            scope.spawn(|| {
                let result = run_shard(p.index, &p.bytes, p.skey, &p.shard_hash, p.ckey, {
                    ShardContext {
                        cache,
                        worker,
                        wthreads,
                        force,
                        run_span,
                    }
                });
                results.lock().unwrap().push((p.index, result));
            });
        }
    });
    let mut runs = results.into_inner().unwrap();
    runs.sort_by_key(|(index, _)| *index);

    // a failed shard fails the run (shards are the shared prefix); the
    // pin is released either way so gc never leaks
    let collected: Result<Vec<ShardRun>, PipelineError> =
        runs.into_iter().map(|(_, r)| r).collect();
    let shard_runs = match collected {
        Ok(shard_runs) => shard_runs,
        Err(e) => {
            let _ = cache.pin_run(&run_id, &pin_manifest(RunStatus::Failed));
            return Err(e);
        }
    };

    // merge in shard order (associative + commutative, but a fixed order
    // keeps any float-free invariant trivially reproducible)
    let mut records: Vec<StageRecord> = Vec::with_capacity(shards * 2);
    let mut merged: Option<ShardCounts> = None;
    for run in shard_runs {
        let [shard_rec, count_rec] = run.records;
        records.push(shard_rec);
        records.push(count_rec);
        match merged.as_mut() {
            None => merged = Some(run.counts),
            Some(acc) => acc
                .merge(&run.counts)
                .map_err(|e| PipelineError::corrupt(e.to_string()).in_stage("count"))?,
        }
    }
    let merged = merged.expect("shards >= 1");

    // identify over the merged lattice: same key, same description, and
    // byte-identical text as the single-process stage
    let params = plan.ibs.clone();
    let obs = run_span.child_scope("identify");
    let inner_obs = obs.clone();
    let identify = run_stage(
        cache,
        "identify",
        None,
        ikey,
        force,
        &format!("identify tau={} k={}", params.tau_c, params.min_size),
        &obs,
        move || {
            let regions =
                try_identify_counts_with(merged, &params, Algorithm::Optimized, &inner_obs)
                    .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
            Ok(ibs_persist::regions_to_text(&regions))
        },
    );
    // the run is done (or failed): release the gc pins either way
    let final_status = if identify.is_ok() {
        RunStatus::Ok
    } else {
        RunStatus::Failed
    };
    let _ = cache.pin_run(&run_id, &pin_manifest(final_status));
    Ok((identify?, records))
}

/// Everything a per-shard supervisor thread needs.
struct ShardContext<'a> {
    cache: &'a ArtifactCache,
    worker: &'a WorkerMode,
    wthreads: usize,
    force: bool,
    run_span: &'a Span,
}

/// Stores one shard artifact, supervises its worker (with per-shard
/// retry of transient deaths), and replays + parses the count artifact.
fn run_shard(
    index: usize,
    bytes: &[u8],
    skey: CacheKey,
    shard_hash: &str,
    ckey: CacheKey,
    ctx: ShardContext<'_>,
) -> Result<ShardRun, PipelineError> {
    let branch = format!("s{index}");
    let obs = ctx.run_span.child_scope(&format!("{branch}/shard"));
    let start = Instant::now();
    let shard_hit = !ctx.force && ctx.cache.lookup_bytes("shard", skey).is_some();
    if !shard_hit {
        ctx.cache
            .store_bytes(
                "shard",
                skey,
                bytes,
                &format!("shard {index} ({} bytes)", bytes.len()),
            )
            .map_err(|e| e.in_stage("shard").in_branch(&branch))?;
    }
    obs.add(
        if shard_hit {
            "cache_hits"
        } else {
            "cache_misses"
        },
        1,
    );
    let record =
        |stage: &'static str, key: CacheKey, hit, hash: &str, t0: Instant, counters| StageRecord {
            stage,
            branch: Some(branch.clone()),
            key: key.hex(),
            artifact_hash: hash.to_string(),
            cache_hit: hit,
            skipped: false,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            counters,
        };
    let shard_record = record("shard", skey, shard_hit, shard_hash, start, obs.counters());

    let obs = ctx.run_span.child_scope(&format!("{branch}/count"));
    let start = Instant::now();
    let count_hit = !ctx.force && ctx.cache.lookup("count", ckey).is_some();
    if !count_hit {
        let retry = ctx.cache.retry();
        retry
            .run(&format!("shard.worker.{branch}"), &obs, || {
                run_worker_once(&branch, skey, ckey, &ctx)
            })
            .map_err(|e| e.in_stage("count").in_branch(&branch))?;
    }
    obs.add(
        if count_hit {
            "cache_hits"
        } else {
            "cache_misses"
        },
        1,
    );
    let text = ctx.cache.lookup("count", ckey).ok_or_else(|| {
        PipelineError::corrupt(format!("worker {branch} stored no count artifact"))
            .in_stage("count")
            .in_branch(&branch)
    })?;
    let counts = ibs_persist::counts_from_text(&text).map_err(|e| {
        PipelineError::corrupt(format!("bad count artifact from worker {branch}: {e}"))
            .in_stage("count")
            .in_branch(&branch)
    })?;
    let count_hash = format!("{:032x}", stable_hash(text.as_bytes()));
    let count_record = record("count", ckey, count_hit, &count_hash, start, obs.counters());
    Ok(ShardRun {
        records: [shard_record, count_record],
        counts,
    })
}

/// One worker attempt. The `shard.worker.s<i>` failpoint is checked in
/// the *parent* per attempt — in subprocess mode an armed fault spawns
/// the child and then kills it, exercising the real
/// death-by-exit-status path (a worker-side failpoint would re-fire on
/// every respawn, since each subprocess re-reads `REMEDY_FAILPOINTS`).
fn run_worker_once(
    branch: &str,
    skey: CacheKey,
    ckey: CacheKey,
    ctx: &ShardContext<'_>,
) -> Result<(), PipelineError> {
    match ctx.worker {
        WorkerMode::InProcess => {
            failpoint::check("shard.worker", branch)?;
            worker_body(ctx.cache, skey, ckey, ctx.wthreads, ctx.force)
        }
        WorkerMode::Subprocess(exe) => {
            let kill_after_spawn = failpoint::check("shard.worker", branch).is_err();
            let exe = match exe {
                Some(path) => path.clone(),
                None => std::env::current_exe().map_err(|e| {
                    PipelineError::fatal(format!("cannot resolve worker executable: {e}"))
                })?,
            };
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("pipeline-worker")
                .arg("--cache")
                .arg(ctx.cache.root())
                .arg("--shard-key")
                .arg(skey.hex())
                .arg("--count-key")
                .arg(ckey.hex())
                .arg("--threads")
                .arg(ctx.wthreads.to_string());
            if ctx.force {
                cmd.arg("--force");
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| PipelineError::fatal(format!("cannot spawn worker {branch}: {e}")))?;
            if kill_after_spawn {
                let _ = child.kill();
            }
            let status = child.wait().map_err(|e| {
                PipelineError::transient(format!("cannot reap worker {branch}: {e}"))
            })?;
            match status.code() {
                Some(0) => Ok(()),
                Some(WORKER_EXIT_FATAL) => Err(PipelineError::fatal(format!(
                    "worker {branch} failed permanently (exit {WORKER_EXIT_FATAL})"
                ))),
                Some(code) => Err(PipelineError::transient(format!(
                    "worker {branch} died (exit {code})"
                ))),
                None => Err(PipelineError::transient(format!(
                    "worker {branch} killed by signal"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_never_oversubscribe() {
        assert_eq!(worker_threads(8, 4), 2);
        assert_eq!(worker_threads(8, 8), 1);
        assert_eq!(worker_threads(2, 8), 1, "floor is one thread");
        assert_eq!(worker_threads(9, 4), 2, "integer division");
        assert!(worker_threads(0, 2) >= 1, "0 = all cores, split evenly");
    }

    #[test]
    fn shard_keys_are_a_function_of_geometry_not_threads() {
        let plan =
            Plan::parse("dataset compas\nrows 500\nbranch base technique=none model=dt\n").unwrap();
        let a = shard_key(&plan, "abc", 4, 0);
        assert_eq!(a, shard_key(&plan, "abc", 4, 0));
        assert_ne!(a, shard_key(&plan, "abc", 4, 1), "index participates");
        assert_ne!(a, shard_key(&plan, "abc", 2, 0), "shard count participates");
        assert_ne!(a, shard_key(&plan, "xyz", 4, 0), "upstream hash chains");
    }
}
