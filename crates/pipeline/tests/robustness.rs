//! Always-on robustness tests (no fault-injection feature needed):
//! corrupted cache artifacts are quarantined and transparently
//! recomputed, damaged resume manifests surface structured errors
//! instead of panics, and resume replays a finished run from the cache.

use remedy_dataset::{persist, synth};
use remedy_obs::Recorder;
use remedy_pipeline::{run, run_with, ErrorKind, PipelineOptions, Plan, RunManifest, RunStatus};
use std::path::PathBuf;

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

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_robustness_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &std::path::Path) -> PipelineOptions {
    PipelineOptions {
        cache_dir: dir.join("cache"),
        threads: 2,
        ..PipelineOptions::default()
    }
}

/// The first cached entry of a stage.
fn entry_of(cache_dir: &std::path::Path, stage_prefix: &str) -> PathBuf {
    std::fs::read_dir(cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{stage_prefix}-"))
        })
        .unwrap_or_else(|| panic!("no cached {stage_prefix} entry"))
        .path()
}

/// Flips one byte in a cached stage artifact.
fn corrupt_one_artifact(cache_dir: &std::path::Path, stage_prefix: &str) -> PathBuf {
    let artifact = entry_of(cache_dir, stage_prefix).join("artifact");
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&artifact, bytes).unwrap();
    artifact
}

/// A bit-flipped cache entry never reaches a consumer: the replay
/// detects the hash mismatch, quarantines the entry, recomputes the
/// stage, and the run's results are unchanged.
#[test]
fn corrupt_cached_artifact_is_quarantined_and_recomputed() {
    let dir = fresh_dir("bitflip");
    let plan = Plan::parse(PLAN).unwrap();
    let options = opts(&dir);
    let first = run(&plan, &options).unwrap();
    assert_eq!(first.status, RunStatus::Ok);

    corrupt_one_artifact(&options.cache_dir, "identify");

    let recorder = Recorder::enabled();
    let second = run_with(&plan, &options, &recorder).unwrap();
    assert_eq!(second.status, RunStatus::Ok);
    assert_eq!(
        first.branches, second.branches,
        "corruption changed results"
    );
    assert!(
        !second.stage("identify", None).unwrap().cache_hit,
        "corrupt identify entry must be recomputed, not replayed"
    );
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cache", "corrupt.detected"), Some(1));
    assert_eq!(snap.counter("cache", "corrupt.quarantined"), Some(1));

    // the damaged entry sits in quarantine/ for post-mortems
    let quarantine = options.cache_dir.join("quarantine");
    assert!(quarantine.is_dir());
    assert_eq!(std::fs::read_dir(&quarantine).unwrap().count(), 1);

    // the recomputed entry was re-stored: a third run replays everything
    let third = run(&plan, &options).unwrap();
    assert!(third.stage("identify", None).unwrap().cache_hit);
}

/// A file source's load is confirmed from its entry's `hash` file, not
/// replayed. When that file was edited, the run quarantines the entry,
/// stores the load afresh under the same key, and its results are
/// unchanged; the run after it hits again.
#[test]
fn edited_load_hash_file_is_quarantined_and_rewritten() {
    let dir = fresh_dir("load_hash");
    let source = dir.join("compas.remedy");
    persist::save_dataset(&synth::compas_n(600, 9), &source).unwrap();
    let plan = Plan::parse(&format!(
        "dataset {}\nseed 9\ntau 0.1\nmin-size 30\nlabel recid\nprotected age,race,sex\n\
         branch base technique=none model=dt\n\
         branch ps technique=ps model=dt\n",
        source.display()
    ))
    .unwrap();
    let options = opts(&dir);
    let first = run(&plan, &options).unwrap();
    let hash_file = entry_of(&options.cache_dir, "load").join("hash");
    let intact = std::fs::read_to_string(&hash_file).unwrap();
    std::fs::write(&hash_file, format!("{}\n", "0".repeat(32))).unwrap();

    let recorder = Recorder::enabled();
    let second = run_with(&plan, &options, &recorder).unwrap();
    let (load, prior) = (
        second.stage("load", None).unwrap(),
        first.stage("load", None).unwrap(),
    );
    assert!(!load.cache_hit, "an edited hash file was confirmed");
    assert_eq!(
        (&load.key, &load.artifact_hash),
        (&prior.key, &prior.artifact_hash)
    );
    assert!(second.stage("discretize", None).unwrap().cache_hit);
    assert_eq!(first.branches, second.branches);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cache", "corrupt.detected"), Some(1));
    assert_eq!(snap.counter("cache", "corrupt.quarantined"), Some(1));
    assert_eq!(
        std::fs::read_dir(options.cache_dir.join("quarantine"))
            .unwrap()
            .count(),
        1
    );
    assert_eq!(std::fs::read_to_string(&hash_file).unwrap(), intact);

    let third = run(&plan, &options).unwrap();
    assert!(third.stages.iter().all(|s| s.cache_hit || s.skipped));
}

/// Resuming from a file that is not a manifest — garbage, truncation,
/// or plain missing — is a structured, single-line error, never a panic.
#[test]
fn damaged_resume_manifests_error_instead_of_panicking() {
    let dir = fresh_dir("damaged_resume");
    let plan = Plan::parse(PLAN).unwrap();

    // a complete run gives us a real manifest to damage
    let manifest_path = dir.join("run.json");
    let mut options = opts(&dir);
    options.manifest_out = Some(manifest_path.clone());
    run(&plan, &options).unwrap();
    let full = std::fs::read_to_string(&manifest_path).unwrap();

    let mut resume_opts = opts(&dir);
    for (name, content) in [
        ("garbage", "not json at all".to_string()),
        ("truncated", full[..full.len() / 2].to_string()),
        ("wrong_shape", "[1, 2, 3]".to_string()),
        ("empty", String::new()),
    ] {
        let damaged = dir.join(format!("{name}.json"));
        std::fs::write(&damaged, &content).unwrap();
        resume_opts.resume = Some(damaged.clone());
        let err = run(&plan, &resume_opts).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::CorruptArtifact, "{name}: {err}");
        let message = err.to_string();
        assert!(!message.contains('\n'), "{name}: multi-line error");
        assert!(
            message.contains(damaged.to_str().unwrap()),
            "{name}: error must name the file: {message}"
        );
    }

    // a missing manifest is fatal (nothing to salvage), also structured
    resume_opts.resume = Some(dir.join("does-not-exist.json"));
    let err = run(&plan, &resume_opts).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Fatal);
}

/// A resume manifest from a different experiment (other dataset or
/// seed) is rejected up front as an invalid plan, before any work runs.
#[test]
fn resume_rejects_mismatched_dataset_or_seed() {
    let dir = fresh_dir("mismatch");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let mut options = opts(&dir);
    options.manifest_out = Some(manifest_path.clone());
    run(&plan, &options).unwrap();

    let mut other = plan.clone();
    other.seed = 10;
    options.resume = Some(manifest_path);
    let err = run(&other, &options).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidPlan);
    assert!(err.to_string().contains("seed 9"), "{err}");
    assert!(err.to_string().contains("seed 10"), "{err}");
}

/// The happy resume path: a finished run resumes into a pure replay —
/// every stage hits the cache and the metrics are byte-identical.
#[test]
fn resume_of_a_finished_run_is_a_pure_replay() {
    let dir = fresh_dir("replay");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest_path = dir.join("run.json");
    let mut options = opts(&dir);
    options.manifest_out = Some(manifest_path.clone());
    let first = run(&plan, &options).unwrap();

    options.resume = Some(manifest_path.clone());
    let recorder = Recorder::enabled();
    let second = run_with(&plan, &options, &recorder).unwrap();
    assert_eq!(second.status, RunStatus::Ok);
    for stage in &second.stages {
        assert_eq!(
            stage.cache_hit, !stage.skipped,
            "resume recomputed {stage:?}"
        );
    }
    assert_eq!(first.branches, second.branches);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("resume", "prior_branches"), Some(2));
    assert_eq!(snap.counter("resume", "prior_stages"), Some(9));

    // the manifest on disk is the resumed run's, atomic write left no
    // temp files behind
    let on_disk = RunManifest::from_path(&manifest_path).unwrap();
    assert_eq!(on_disk.branches, second.branches);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
}
