//! The orchestrator: runs a plan's stage DAG with caching and branch
//! parallelism.
//!
//! The DAG has a linear shared prefix and an independent fan-out:
//!
//! ```text
//! Load ──► Discretize ──► Identify ──► branch 1: [Remedy] ─► Train ─► Audit
//!                                  ├──► branch 2: [Remedy] ─► Train ─► Audit
//!                                  └──► ...
//! ```
//!
//! Branches share the identify artifact and fan out over scoped worker
//! threads (a claim-by-atomic-counter queue). Each branch runs its own
//! remedy → train → audit chain sequentially; results are stitched back
//! into plan order so manifests are deterministic regardless of thread
//! interleaving.
//!
//! ## Failure containment
//!
//! A failing (or panicking) branch does not abort the run: the worker
//! catches the failure at the branch boundary, sibling branches keep
//! going, and the branch shows up under `failures` in the manifest with
//! its [`ErrorKind`](crate::ErrorKind) — the run's status becomes
//! `partial` (or `failed` if no branch survived). Only shared-prefix
//! errors, which leave nothing to salvage, abort the run.
//!
//! When [`PipelineOptions::manifest_out`] is set, the manifest is
//! re-written atomically after the shared prefix and after every branch
//! with `status: "running"` — so a killed run always leaves a readable
//! snapshot, and `--resume` (which replays completed stages from the
//! content-addressed cache) can pick up from it.

use crate::cache::ArtifactCache;
use crate::error::{panic_message, PipelineError};
use crate::manifest::{BranchFailure, BranchOutcome, RunManifest, RunStatus, StageRecord};
use crate::plan::{BranchSpec, Plan};
use crate::retry::RetryPolicy;
use crate::shard::{sharded_identify_stage, WorkerMode};
use crate::stages::{
    audit_stage, discretize_stage, identify_stage, load_stage, remedy_stage, skipped_remedy_record,
    split_dataset, train_stage, StageOutput,
};
use remedy_core::hash::stable_hash;
use remedy_dataset::persist as data_persist;
use remedy_dataset::Dataset;
use remedy_fairness::MetricsSummary;
use remedy_obs::{Recorder, Scope as ObsScope, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Knobs that affect *how* a run executes, never *what* it computes —
/// none of these participate in cache keys.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Cache root directory.
    pub cache_dir: std::path::PathBuf,
    /// Worker threads for branch fan-out and shard scans; 0 = all
    /// cores.
    pub threads: usize,
    /// Recompute every stage even when a cached artifact exists (fresh
    /// artifacts still overwrite the cache).
    pub force: bool,
    /// When set, stream a JSONL trace of spans / counters / histograms to
    /// this path (and aggregate counters into the manifest). `None` keeps
    /// the recorder disabled — hot paths stay within benchmark noise.
    pub trace: Option<std::path::PathBuf>,
    /// Retry policy for transient I/O in the cache store/replay paths.
    pub retry: RetryPolicy,
    /// When set, the manifest is flushed here incrementally (atomic
    /// rewrite after the shared prefix and after every branch), so a
    /// killed run leaves a well-formed `status: "running"` snapshot.
    pub manifest_out: Option<std::path::PathBuf>,
    /// A prior run's manifest to resume from: it is validated against
    /// the plan (same dataset and seed) before any work starts, then
    /// completed stages replay from the cache and only unfinished ones
    /// re-execute.
    pub resume: Option<std::path::PathBuf>,
    /// Shards for the identify prefix: `> 1` partitions the training
    /// split stratified by protected key and fans the counting scan out
    /// over shard workers ([`crate::shard`]); `0` or `1` runs the
    /// single-process stage. Not part of any cache key — a sharded run
    /// produces byte-identical artifacts under identical keys.
    pub shards: usize,
    /// How shard workers execute when `shards > 1`. Each worker scans
    /// with `max(1, threads / shards)` threads so `--shards N --threads
    /// T` never oversubscribes.
    pub worker: WorkerMode,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            cache_dir: ".remedy-cache".into(),
            threads: 0,
            force: false,
            trace: None,
            retry: RetryPolicy::none(),
            manifest_out: None,
            resume: None,
            shards: 1,
            worker: WorkerMode::InProcess,
        }
    }
}

/// Everything one branch produces: its stage records in DAG order plus
/// the audit outcome.
struct BranchRun {
    records: Vec<StageRecord>,
    outcome: BranchOutcome,
}

/// Runs a plan end to end; returns the manifest describing what happened.
///
/// Branch-level failures do not produce an `Err`: they are reported in
/// the manifest's `failures` with `status` `partial` or `failed`. Only
/// errors that stop the whole run (unreadable plan inputs, shared-prefix
/// failures, an invalid resume manifest) surface as `Err`.
pub fn run(plan: &Plan, opts: &PipelineOptions) -> Result<RunManifest, PipelineError> {
    let recorder = match &opts.trace {
        Some(path) => Recorder::to_path(path).map_err(|e| {
            PipelineError::fatal(format!("cannot open trace {}: {e}", path.display()))
        })?,
        None => Recorder::disabled(),
    };
    let result = run_with(plan, opts, &recorder);
    // emit the counter/histogram summary events and flush the JSONL sink
    recorder.finish();
    result
}

/// [`run`] against an explicit recorder (tests pass an in-memory one).
pub fn run_with(
    plan: &Plan,
    opts: &PipelineOptions,
    recorder: &Recorder,
) -> Result<RunManifest, PipelineError> {
    let started = Instant::now();
    let run_span = recorder.scope("pipeline").span("run");
    if let Some(prior) = &opts.resume {
        resume_preflight(plan, prior, &run_span.child_scope("resume"))?;
    }
    let cache = ArtifactCache::open(opts.cache_dir.clone())?
        .with_obs(run_span.child_scope("cache"))
        .with_retry(opts.retry);

    // shared prefix: load → discretize → identify
    let load = load_stage(plan, &cache, opts.force, &run_span.child_scope("load"))?;
    let discretized = discretize_stage(
        plan,
        &load,
        &cache,
        opts.force,
        &run_span.child_scope("discretize"),
    )?;
    let data = data_persist::dataset_from_text(&discretized.text)?;
    let (train_set, test_set) = split_dataset(plan, &data)?;
    let (identify, shard_records) = if opts.shards > 1 {
        // a killed sharded run should still leave a resumable snapshot,
        // even before the identify record exists (best-effort)
        if let Some(path) = &opts.manifest_out {
            let _ = RunManifest {
                dataset: plan.source.clone(),
                seed: plan.seed,
                threads: opts.threads,
                status: RunStatus::Running,
                total_ms: started.elapsed().as_secs_f64() * 1e3,
                stages: vec![load.record.clone(), discretized.record.clone()],
                branches: Vec::new(),
                failures: Vec::new(),
            }
            .write_path(path);
        }
        sharded_identify_stage(
            plan,
            &discretized,
            &train_set,
            opts.shards,
            opts.threads,
            &opts.worker,
            opts.force,
            &cache,
            &run_span,
        )?
    } else {
        let identify = identify_stage(
            plan,
            &discretized,
            &train_set,
            &cache,
            opts.force,
            &run_span.child_scope("identify"),
        )?;
        (identify, Vec::new())
    };

    // the unremedied training split doubles as the remedy "artifact" of
    // technique=none branches; serialize it once for all of them
    let train_split_text = data_persist::dataset_to_text(&train_set);
    let train_split_hash = format!("{:032x}", stable_hash(train_split_text.as_bytes()));

    // assembles a manifest from whatever branch results exist so far;
    // also the kill-safe snapshot written between branches
    let manifest_obs = run_span.child_scope("manifest");
    let assemble = |runs: &[(usize, Result<BranchRun, PipelineError>)], status: RunStatus| {
        let mut ordered: Vec<&(usize, Result<BranchRun, PipelineError>)> = runs.iter().collect();
        ordered.sort_by_key(|(idx, _)| *idx);
        let mut stages = vec![load.record.clone(), discretized.record.clone()];
        stages.extend(shard_records.iter().cloned());
        stages.push(identify.record.clone());
        let mut branches = Vec::new();
        let mut failures = Vec::new();
        for (idx, result) in ordered {
            match result {
                Ok(run) => {
                    stages.extend(run.records.iter().cloned());
                    branches.push(run.outcome.clone());
                }
                Err(e) => failures.push(BranchFailure {
                    name: plan.branches[*idx].name.clone(),
                    kind: e.kind(),
                    error: e.to_string(),
                }),
            }
        }
        RunManifest {
            dataset: plan.source.clone(),
            seed: plan.seed,
            threads: opts.threads,
            status,
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            stages,
            branches,
            failures,
        }
    };
    let flush_snapshot = |runs: &[(usize, Result<BranchRun, PipelineError>)]| {
        let Some(path) = &opts.manifest_out else {
            return;
        };
        // best-effort: a failed snapshot never fails the run, the final
        // write will surface persistent problems
        match assemble(runs, RunStatus::Running).write_path(path) {
            Ok(()) => manifest_obs.add("flushes", 1),
            Err(_) => manifest_obs.add("flush_errors", 1),
        }
    };
    flush_snapshot(&[]);

    // branch fan-out
    let n_workers = effective_workers(opts.threads, plan.branches.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<BranchRun, PipelineError>)>> =
        Mutex::new(Vec::with_capacity(plan.branches.len()));
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(branch) = plan.branches.get(idx) else {
                    break;
                };
                // the branch boundary is the containment line: a panic
                // (or error) here fails this branch, not the run
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_branch(
                        plan,
                        branch,
                        &discretized,
                        &identify,
                        &train_set,
                        &test_set,
                        &train_split_text,
                        &train_split_hash,
                        &cache,
                        opts.force,
                        &run_span,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Err(PipelineError::stage_panic(panic_message(payload.as_ref())))
                })
                .map_err(|e| e.in_branch(&branch.name));
                let guard = &mut *results.lock().unwrap();
                guard.push((idx, result));
                flush_snapshot(guard);
            });
        }
    });

    let runs = results.into_inner().unwrap();
    let failed = runs.iter().filter(|(_, r)| r.is_err()).count();
    let status = match (failed, runs.len() - failed) {
        (0, _) => RunStatus::Ok,
        (_, 0) => RunStatus::Failed,
        _ => RunStatus::Partial,
    };
    let manifest = assemble(&runs, status);
    if let Some(path) = &opts.manifest_out {
        manifest.write_path(path).map_err(|e| {
            PipelineError::fatal(format!("cannot write manifest {}: {e}", path.display()))
        })?;
    }
    Ok(manifest)
}

/// Validates a prior run's manifest before resuming: it must parse (a
/// damaged manifest is a [`CorruptArtifact`](crate::ErrorKind) error, not
/// a panic) and describe the same dataset and seed as the plan being run.
/// Resume then *is* the normal run — completed stages replay from the
/// content-addressed cache, unfinished ones execute.
fn resume_preflight(
    plan: &Plan,
    prior: &std::path::Path,
    obs: &ObsScope,
) -> Result<(), PipelineError> {
    let manifest = RunManifest::from_path(prior)?;
    if manifest.dataset != plan.source || manifest.seed != plan.seed {
        return Err(PipelineError::invalid_plan(format!(
            "cannot resume {}: it records dataset `{}` seed {}, but the plan runs dataset `{}` seed {}",
            prior.display(),
            manifest.dataset,
            manifest.seed,
            plan.source,
            plan.seed
        )));
    }
    obs.add_many(&[
        ("prior_stages", manifest.stages.len() as u64),
        ("prior_branches", manifest.branches.len() as u64),
        (
            "prior_incomplete",
            u64::from(manifest.status != RunStatus::Ok),
        ),
    ]);
    Ok(())
}

/// Worker count: bounded by the branch count, `0` means all cores.
fn effective_workers(threads: usize, branches: usize) -> usize {
    let cap = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    cap.clamp(1, branches.max(1))
}

#[allow(clippy::too_many_arguments)]
fn run_branch(
    plan: &Plan,
    branch: &BranchSpec,
    discretized: &StageOutput,
    identify: &StageOutput,
    train_set: &Dataset,
    test_set: &Dataset,
    train_split_text: &str,
    train_split_hash: &str,
    cache: &ArtifactCache,
    force: bool,
    run_span: &Span,
) -> Result<BranchRun, PipelineError> {
    let mut records = Vec::with_capacity(3);
    // scope labels are branch-qualified so concurrent branches with the
    // same stage kind never merge their counters
    let stage_scope = |stage: &str| run_span.child_scope(&format!("{}/{stage}", branch.name));

    // remedy (or pass the unremedied split through)
    let (train_input, train_input_hash) = match branch.technique {
        Some(_) => {
            let params = plan.remedy_params(branch)?;
            let remedied = remedy_stage(
                plan,
                &branch.name,
                &params,
                discretized,
                identify,
                train_set,
                cache,
                force,
                &stage_scope("remedy"),
            )?;
            let hash = remedied.artifact_hash.clone();
            records.push(remedied.record.clone());
            (remedied.text, hash)
        }
        None => {
            records.push(skipped_remedy_record(&branch.name, train_split_hash));
            (train_split_text.to_string(), train_split_hash.to_string())
        }
    };

    // train
    let model = train_stage(
        plan,
        &branch.name,
        branch.model,
        &train_input,
        &train_input_hash,
        cache,
        force,
        &stage_scope("train"),
    )?;
    records.push(model.record.clone());

    // audit
    let audit = audit_stage(
        plan,
        &branch.name,
        &model,
        discretized,
        test_set,
        cache,
        force,
        &stage_scope("audit"),
    )?;
    records.push(audit.record.clone());
    let metrics = MetricsSummary::from_text(&audit.text)
        .map_err(|e| PipelineError::corrupt(format!("bad metrics artifact: {e}")))?;

    Ok(BranchRun {
        records,
        outcome: BranchOutcome {
            name: branch.name.clone(),
            technique: branch
                .technique
                .map(|t| t.label().to_string())
                .unwrap_or_else(|| "none".to_string()),
            model: branch.model.token().to_string(),
            metrics,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_sane() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(1, 8), 1);
        assert!(effective_workers(0, 3) >= 1);
        assert_eq!(effective_workers(2, 0), 1);
    }
}
