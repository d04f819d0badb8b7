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
//! threads. Each branch runs its own remedy → train → audit chain
//! sequentially; results are stitched back into plan order so manifests
//! are deterministic regardless of thread interleaving.
//!
//! ## Claim order
//!
//! Workers claim branches through one atomic counter over a fixed claim
//! order: every branch with a remedy stage, then every `technique=none`
//! branch, each group in plan order. A remedy branch runs the same train
//! → audit chain as a `none` branch plus a remedy, so the number of
//! stages it computes is the one cost known before anything runs, and
//! claiming the longer branches first (longest-processing-time-first list
//! scheduling) keeps a worker from starting the longest branch last and
//! running it alone. The order decides only which worker runs a branch
//! and when: keys, artifacts and the manifest are the same at any thread
//! count. The `engine` histogram `fanout_idle_us` records, per worker,
//! how long the fan-out went on after the worker found nothing left to
//! claim.
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
    split_id, train_stage, LazySplit, StageOutput, TrainInput,
};
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
    /// Recompute every stage even when a cached artifact exists. A fresh
    /// artifact is stored only where no entry holds one: an existing
    /// entry is kept as it is, since its key names the same inputs.
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
    let (mut load, loaded) = load_stage(plan, &cache, opts.force, &run_span.child_scope("load"))?;
    let (mut discretized, carried) = discretize_stage(
        plan,
        &mut load,
        loaded,
        &cache,
        opts.force,
        &run_span.child_scope("discretize"),
    )?;
    // the engine's own codec work between stages gets spans under one
    // `engine` scope, so a trace accounts for the whole run. The split is
    // made when the first stage misses; the discretized artifact is
    // parsed for it only when no stage handed on the dataset it was
    // written from. Past this point the prefix artifacts are read by
    // hash only
    drop(std::mem::take(&mut load.text));
    let text = std::mem::take(&mut discretized.text);
    let split = LazySplit::new(plan, carried, text, run_span.child_scope("engine"));
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
            &split,
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
            &split,
            &cache,
            opts.force,
            &run_span.child_scope("identify"),
        )?;
        (identify, Vec::new())
    };

    // the unremedied training split doubles as the remedy "artifact" of
    // technique=none branches, identified by what determines it
    let train_split_id = split_id(plan, &discretized.artifact_hash);

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

    // branch fan-out, remedy branches claimed first (see "Claim order")
    let mut claim_order: Vec<usize> = (0..plan.branches.len()).collect();
    claim_order.sort_by_key(|&idx| plan.branches[idx].technique.is_none());
    let n_workers = effective_workers(opts.threads, plan.branches.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<BranchRun, PipelineError>)>> =
        Mutex::new(Vec::with_capacity(plan.branches.len()));
    let engine_obs = run_span.child_scope("engine");
    let worker = || {
        while let Some(&idx) = claim_order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let branch = &plan.branches[idx];
            // the branch boundary is the containment line: a panic (or
            // error) here fails this branch, not the run
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_branch(
                    plan,
                    branch,
                    &discretized,
                    &identify,
                    &split,
                    &train_split_id,
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
        }
        engine_obs.timer()
    };
    std::thread::scope(|scope| {
        // the calling thread is one of the workers: under glibc each
        // spawned thread takes a malloc arena of its own, and an arena
        // keeps its high-water pages resident after the thread exits
        let spawned: Vec<_> = (1..n_workers).map(|_| scope.spawn(worker)).collect();
        let own = worker();
        // a worker idles from when it finds no branch left to claim until
        // the last worker finishes
        let finished: Vec<Instant> = spawned
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .chain([own])
            .flatten()
            .collect();
        if let Some(&end) = finished.iter().max() {
            for &done in &finished {
                engine_obs.observe("fanout_idle_us", (end - done).as_micros() as u64);
            }
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
    split: &LazySplit,
    train_split_id: &str,
    cache: &ArtifactCache,
    force: bool,
    run_span: &Span,
) -> Result<BranchRun, PipelineError> {
    let mut records = Vec::with_capacity(3);
    // scope labels are branch-qualified so concurrent branches with the
    // same stage kind never merge their counters
    let stage_scope = |stage: &str| run_span.child_scope(&format!("{}/{stage}", branch.name));

    // remedy (or pass the unremedied split through); training fits on
    // the dataset in memory unless the remedy was replayed from the cache
    let (remedied, remedied_data);
    let (train_input, train_input_hash) = match branch.technique {
        Some(_) => {
            let params = plan.remedy_params(branch)?;
            (remedied, remedied_data) = remedy_stage(
                plan,
                &branch.name,
                &params,
                discretized,
                identify,
                split,
                cache,
                force,
                &stage_scope("remedy"),
            )?;
            records.push(remedied.record.clone());
            let input = match &remedied_data {
                Some(data) => TrainInput::Data(data),
                None => TrainInput::Text(&remedied.text),
            };
            (input, remedied.artifact_hash.as_str())
        }
        None => {
            records.push(skipped_remedy_record(&branch.name, train_split_id));
            (TrainInput::Split(split), train_split_id)
        }
    };

    // train
    let model = train_stage(
        plan,
        &branch.name,
        branch.model,
        train_input,
        train_input_hash,
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
        split,
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
