//! Deterministic fault-injection tests (compiled only with the
//! `failpoints` feature): transient cache I/O errors are retried to
//! success, a panicking stage is contained to its branch with siblings
//! finishing green, and a killed run resumes from the cache with
//! byte-identical metrics.

#![cfg(feature = "failpoints")]

use remedy_dataset::{store, synth, Format};
use remedy_obs::Recorder;
use remedy_pipeline::failpoint::{self, Action};
use remedy_pipeline::{
    run_with, ErrorKind, PipelineOptions, Plan, RetryPolicy, RunManifest, RunStatus,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const PLAN: &str = "\
dataset compas
rows 600
seed 9
split 0.7
tau 0.1
min-size 30
branch base technique=none model=dt
branch ps technique=ps model=dt
";

/// The failpoint registry is process-global, so tests that arm faults
/// must not run concurrently: each takes this lock and starts from a
/// disarmed registry.
fn arm_faults() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    failpoint::clear();
    guard
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_fault_injection_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &std::path::Path) -> PipelineOptions {
    PipelineOptions {
        cache_dir: dir.join("cache"),
        threads: 1,
        ..PipelineOptions::default()
    }
}

/// Two injected transient store failures with three retries budgeted:
/// the run succeeds, and the retry counters record the recoveries.
#[test]
fn transient_store_errors_are_retried_to_success() {
    let _guard = arm_faults();
    let dir = fresh_dir("retry");
    let plan = Plan::parse(PLAN).unwrap();
    let mut options = opts(&dir);
    options.retry = RetryPolicy::new(3, 1, plan.seed);

    failpoint::set("stage.store", Action::Err, 2);
    let recorder = Recorder::enabled();
    let manifest = run_with(&plan, &options, &recorder).unwrap();
    failpoint::clear();

    assert_eq!(manifest.status, RunStatus::Ok);
    assert_eq!(manifest.branches.len(), 2);
    assert!(manifest.failures.is_empty());
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cache", "retry.attempts"), Some(2));
    assert_eq!(snap.counter("cache", "retry.exhausted"), None);
}

/// With no retry budget, the same transient fault aborts the shared
/// prefix — and the error keeps its transient kind so callers can tell
/// a flaky disk from a broken plan.
#[test]
fn transient_store_error_without_retries_fails_the_run() {
    let _guard = arm_faults();
    let dir = fresh_dir("no_retry");
    let plan = Plan::parse(PLAN).unwrap();

    failpoint::set("stage.store.load", Action::Err, 1);
    let err = run_with(&plan, &opts(&dir), &Recorder::disabled()).unwrap_err();
    failpoint::clear();

    assert_eq!(err.kind(), ErrorKind::Transient);
    assert_eq!(err.stage(), Some("load"));
    assert!(err.to_string().contains("injected transient fault"));
}

/// A panic inside one branch's remedy stage yields a `partial` manifest:
/// the sibling branch finishes green, the victim is reported under
/// `failures` with a `stage-panic` kind, and the flushed manifest on
/// disk says the same thing.
#[test]
fn panicking_branch_yields_partial_manifest_with_green_siblings() {
    let _guard = arm_faults();
    let dir = fresh_dir("panic");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let mut options = opts(&dir);
    options.manifest_out = Some(manifest_path.clone());

    // only the ps branch executes a remedy stage (technique=none skips
    // it), so the victim is deterministic even across thread schedules
    failpoint::set("stage.run.remedy", Action::Panic, 1);
    let manifest = run_with(&plan, &options, &Recorder::disabled()).unwrap();
    failpoint::clear();

    assert_eq!(manifest.status, RunStatus::Partial);
    assert_eq!(manifest.branches.len(), 1);
    assert_eq!(manifest.branches[0].name, "base");
    assert_eq!(manifest.failures.len(), 1);
    let failure = &manifest.failures[0];
    assert_eq!(failure.name, "ps");
    assert_eq!(failure.kind, ErrorKind::StagePanic);
    assert!(failure.error.contains("injected panic"), "{failure:?}");
    assert!(failure.error.contains("branch ps"), "{failure:?}");

    // the on-disk snapshot agrees with the in-memory result
    let on_disk = RunManifest::from_path(&manifest_path).unwrap();
    assert_eq!(on_disk.status, RunStatus::Partial);
    assert_eq!(on_disk.branches, manifest.branches);
    assert_eq!(on_disk.failures, manifest.failures);
}

/// The kill-safe loop: a run dies mid-way (one branch panics after the
/// survivors were cached), then `resume` replays the completed stages
/// from the cache and re-executes only the unfinished branch — ending
/// with byte-identical metrics for the branches that had finished.
#[test]
fn killed_run_resumes_from_cache_with_identical_metrics() {
    let _guard = arm_faults();
    let dir = fresh_dir("resume");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let mut options = opts(&dir);
    options.manifest_out = Some(manifest_path.clone());

    failpoint::set("stage.run.remedy", Action::Panic, 1);
    let first = run_with(&plan, &options, &Recorder::disabled()).unwrap();
    failpoint::clear();
    assert_eq!(first.status, RunStatus::Partial);

    // resume from the partial manifest, faults disarmed
    options.resume = Some(manifest_path.clone());
    let recorder = Recorder::enabled();
    let second = run_with(&plan, &options, &recorder).unwrap();

    assert_eq!(second.status, RunStatus::Ok);
    assert_eq!(second.branches.len(), 2);
    assert!(second.failures.is_empty());
    // the branch that completed before the "kill" replays from cache,
    // bit-for-bit
    assert_eq!(first.branch("base"), second.branch("base"));
    for stage in ["load", "discretize", "identify"] {
        assert!(
            second.stage(stage, None).unwrap().cache_hit,
            "shared stage {stage} should replay from cache on resume"
        );
    }
    for stage in ["train", "audit"] {
        assert!(second.stage(stage, Some("base")).unwrap().cache_hit);
    }
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("resume", "prior_branches"), Some(1));
    assert_eq!(snap.counter("resume", "prior_incomplete"), Some(1));

    // the final manifest on disk is the complete one
    let on_disk = RunManifest::from_path(&manifest_path).unwrap();
    assert_eq!(on_disk.status, RunStatus::Ok);
    assert_eq!(on_disk.branches, second.branches);
}

/// A warm run over a binary source holds its load and discretize outputs
/// (the decoded canonical text and the digest its header pins) before
/// either stage runs, so it confirms both cache entries from their `hash`
/// files and replays neither: with both stages' replay sites armed to
/// fail, both stages still report hits and neither fault fires.
#[test]
fn warm_binary_source_run_replays_no_prefix_artifact() {
    let _guard = arm_faults();
    let dir = fresh_dir("known_prefix");
    let source = dir.join("adult.bin");
    store::save(&synth::adult_n(800, 3), &source, Format::Binary).unwrap();
    let plan = Plan::parse(&format!(
        "dataset {}\nformat binary\nseed 3\ntau 0.1\nmin-size 30\n\
         branch base technique=none model=dt\n\
         branch ps technique=ps model=dt\n",
        source.display()
    ))
    .unwrap();
    run_with(&plan, &opts(&dir), &Recorder::disabled()).unwrap();

    failpoint::set("stage.replay.load", Action::Err, 1);
    failpoint::set("stage.replay.discretize", Action::Err, 1);
    let recorder = Recorder::enabled();
    let warm = run_with(&plan, &opts(&dir), &recorder).unwrap();
    let unfired = ["load", "discretize"].map(|stage| failpoint::check("stage.replay", stage));
    failpoint::clear();

    assert!(
        unfired.iter().all(Result::is_err),
        "a prefix artifact was replayed"
    );
    for stage in ["load", "discretize"] {
        assert!(warm.stage(stage, None).unwrap().cache_hit, "{stage} missed");
    }
    assert!(warm.stages.iter().all(|s| s.cache_hit || s.skipped));
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cache", "replay.errors"), None);
    assert_eq!(snap.counter("cache", "misses"), None);
}
