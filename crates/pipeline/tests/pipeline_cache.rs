//! Integration tests for the pipeline DAG: cache hit/miss semantics
//! across re-runs, metric parity with the equivalent hand-rolled
//! computation, determinism of artifacts, and injectivity of the
//! cache-key hashing.

use remedy_classifiers::{accuracy, DecisionTree, DecisionTreeParams, Model, ModelKind};
use remedy_core::{IbsParams, Neighborhood, RemedyParams, Scope, Technique};
use remedy_dataset::split::train_test_split;
use remedy_dataset::synth;
use remedy_fairness::{fairness_index, FairnessIndexParams, Statistic};
use remedy_pipeline::cache::CacheKey;
use remedy_pipeline::stages::{train_stage, TrainInput};
use remedy_pipeline::{run, run_with, ArtifactCache, PipelineOptions, Plan};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

const PLAN: &str = "\
dataset compas
rows 1000
seed 9
split 0.7
tau 0.1
min-size 30
branch base technique=none model=dt
branch ps technique=ps model=dt
";

fn fresh_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remedy_pipeline_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache: &std::path::Path) -> PipelineOptions {
    PipelineOptions {
        cache_dir: cache.to_path_buf(),
        threads: 2,
        ..PipelineOptions::default()
    }
}

/// The load-bearing acceptance test: a cold run misses everywhere, an
/// identical re-run hits everywhere, and changing only τ_c re-executes
/// exactly the stages downstream of identification.
#[test]
fn rerun_with_changed_tau_reexecutes_only_downstream() {
    let cache = fresh_cache("tau");
    let plan = Plan::parse(PLAN).unwrap();

    // cold run: every executed stage is a miss
    let first = run(&plan, &opts(&cache)).unwrap();
    for stage in &first.stages {
        assert!(!stage.cache_hit, "cold run hit cache: {stage:?}");
    }
    assert!(first.stage("remedy", Some("base")).unwrap().skipped);
    assert!(!first.stage("remedy", Some("ps")).unwrap().skipped);

    // identical re-run: every non-skipped stage is a hit, results equal
    let second = run(&plan, &opts(&cache)).unwrap();
    for stage in &second.stages {
        assert_eq!(
            stage.cache_hit, !stage.skipped,
            "warm re-run should hit: {stage:?}"
        );
    }
    assert_eq!(first.branches, second.branches);
    for (a, b) in first.stages.iter().zip(&second.stages) {
        assert_eq!(a.artifact_hash, b.artifact_hash);
        assert_eq!(a.key, b.key);
    }

    // change only tau: the shared Load/Discretize prefix replays from
    // cache, identification and the ps branch recompute; the technique=none
    // branch is untouched by tau so its train/audit stay cached
    let mut changed = plan.clone();
    changed.ibs.tau_c = 0.2;
    let third = run(&changed, &opts(&cache)).unwrap();
    assert!(third.stage("load", None).unwrap().cache_hit);
    assert!(third.stage("discretize", None).unwrap().cache_hit);
    assert!(!third.stage("identify", None).unwrap().cache_hit);
    assert!(!third.stage("remedy", Some("ps")).unwrap().cache_hit);
    assert!(!third.stage("train", Some("ps")).unwrap().cache_hit);
    assert!(!third.stage("audit", Some("ps")).unwrap().cache_hit);
    assert!(third.stage("train", Some("base")).unwrap().cache_hit);
    assert!(third.stage("audit", Some("base")).unwrap().cache_hit);
    // the unaffected branch's outcome is bit-identical
    assert_eq!(first.branch("base"), third.branch("base"));
}

/// Pipeline metrics must equal the same computation done by hand with the
/// individual building blocks (the CLI-subcommand equivalent).
#[test]
fn metrics_match_manual_computation() {
    let cache = fresh_cache("parity");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest = run(&plan, &opts(&cache)).unwrap();

    // hand-rolled equivalent of the ps branch
    let data = synth::compas_n(1000, 9);
    let (train_set, test_set) = train_test_split(&data, 0.7, 9).unwrap();
    let remedied = remedy_core::remedy(
        &train_set,
        &RemedyParams::builder()
            .technique(Technique::PreferentialSampling)
            .tau_c(0.1)
            .min_size(30)
            .seed(9)
            .build()
            .unwrap(),
    )
    .dataset;
    let model = DecisionTree::fit(&remedied, &DecisionTreeParams::default());
    let predictions = model.predict(&test_set);
    let expected_acc = accuracy(&predictions, test_set.labels());
    let expected_fi = fairness_index(
        &test_set,
        &predictions,
        Statistic::Fpr,
        &FairnessIndexParams {
            min_support: 0.1,
            alpha: 0.05,
        },
    )
    .unwrap();

    let ps = manifest.branch("ps").unwrap();
    assert_eq!(ps.metrics.accuracy, expected_acc);
    assert_eq!(ps.metrics.fairness_index, expected_fi);
    assert_eq!(ps.metrics.test_rows as usize, test_set.len());

    // and the baseline branch trains on the unremedied split
    let base_model = DecisionTree::fit(&train_set, &DecisionTreeParams::default());
    let base_preds = base_model.predict(&test_set);
    assert_eq!(
        manifest.branch("base").unwrap().metrics.accuracy,
        accuracy(&base_preds, test_set.labels())
    );
}

/// The remedy artifact the pipeline persists is the remedied split
/// `remedy_over_with` computes for the same params, and that remedy's
/// output (dataset text and update records) matches a golden digest
/// recorded when a per-node rescan implementation shipped beside the
/// index-backed one and both produced it — so `.remedy-cache` entries
/// written by either code path replay unchanged.
#[test]
fn remedy_cache_artifact_matches_golden_remedy() {
    let cache = fresh_cache("golden_remedy");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest = run(&plan, &opts(&cache)).unwrap();

    let rec = manifest.stage("remedy", Some("ps")).unwrap();
    assert!(!rec.skipped);
    let artifact =
        std::fs::read_to_string(cache.join(format!("remedy-{}", rec.key)).join("artifact"))
            .unwrap();

    // the in-process remedy of the same split and params
    let data = synth::compas_n(1000, 9);
    let (train_set, _) = train_test_split(&data, 0.7, 9).unwrap();
    let protected = train_set.schema().protected_indices();
    let outcome = remedy_core::remedy_over_with(
        &train_set,
        &protected,
        &RemedyParams::builder()
            .technique(Technique::PreferentialSampling)
            .tau_c(0.1)
            .min_size(30)
            .seed(9)
            .build()
            .unwrap(),
        &remedy_obs::Scope::disabled(),
    )
    .unwrap();
    let text = remedy_dataset::persist::dataset_to_text(&outcome.dataset);
    assert_eq!(artifact, text, "pipeline remedy artifact diverges");
    assert_eq!(
        remedy_core::stable_hash(format!("{text}\n{:?}", outcome.updates).as_bytes()),
        0x1aaa2aa2f7194d6fbd47f3863184d34b,
        "remedy output drifted from its golden digest"
    );

    // a warm re-run replays that artifact from cache
    let second = run(&plan, &opts(&cache)).unwrap();
    let warm = second.stage("remedy", Some("ps")).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.key, rec.key);
    assert_eq!(warm.artifact_hash, rec.artifact_hash);
}

/// Training fits on the dataset the engine holds when it has one, and
/// on the parsed training text when the remedy was replayed from the
/// cache. Both give the same key and the same model bytes, for every
/// model kind, on the unremedied split and on a remedied one.
#[test]
fn training_from_memory_matches_training_from_text() {
    let plan = Plan::parse(PLAN).unwrap();
    let data = synth::compas_n(1000, 9);
    let (train_set, _) = train_test_split(&data, 0.7, 9).unwrap();
    let protected = train_set.schema().protected_indices();
    let off = remedy_obs::Scope::disabled();
    let params = plan.remedy_params(&plan.branches[1]).unwrap();
    let remedied = remedy_core::remedy_over_with(&train_set, &protected, &params, &off)
        .unwrap()
        .dataset;
    let cache = ArtifactCache::open(fresh_cache("train_from_memory")).unwrap();
    for (branch, input) in [("base", &train_set), ("ps", &remedied)] {
        let text = remedy_dataset::persist::dataset_to_text(input);
        let hash = format!("{:032x}", remedy_core::stable_hash(text.as_bytes()));
        for kind in ModelKind::ALL {
            let train =
                |input| train_stage(&plan, branch, kind, input, &hash, &cache, true, &off).unwrap();
            let (memory, parsed) = (
                train(TrainInput::Data(input)),
                train(TrainInput::Text(&text)),
            );
            assert_eq!(memory.record.key, parsed.record.key);
            assert_eq!(memory.text, parsed.text, "{branch} {kind}");
        }
    }
}

/// A `model=nn` branch fits the neural network on the cold run, and the
/// warm run replays its train and audit stages from the cache: the same
/// keys, the same artifacts and the same metrics.
#[test]
fn nn_branch_trains_cold_and_replays_warm() {
    let dir = fresh_cache("nn_branch");
    let plan = Plan::parse(
        "dataset compas\nrows 600\nseed 9\nbranch base technique=none model=nn\n\
         branch ps technique=ps model=nn\n",
    )
    .unwrap();
    let cold = run(&plan, &opts(&dir)).unwrap();
    let warm = run(&plan, &opts(&dir)).unwrap();
    let cache = ArtifactCache::open(&dir).unwrap();
    for branch in ["base", "ps"] {
        for stage in ["train", "audit"] {
            let c = cold.stage(stage, Some(branch)).unwrap();
            let w = warm.stage(stage, Some(branch)).unwrap();
            assert!(!c.cache_hit && w.cache_hit, "{branch} {stage}");
            assert_eq!(c.key, w.key, "{branch} {stage}");
            assert_eq!(c.artifact_hash, w.artifact_hash, "{branch} {stage}");
        }
        let train = cold.stage("train", Some(branch)).unwrap();
        let key = CacheKey(u128::from_str_radix(&train.key, 16).unwrap());
        let (text, _) = cache.lookup("train", key).unwrap();
        let model = remedy_classifiers::persist::from_text(&text).unwrap();
        assert_eq!(model.kind(), ModelKind::NeuralNetwork, "{branch}");
    }
    assert_eq!(cold.branches, warm.branches);
    assert!(cold.branches.iter().all(|b| b.model == "nn"));
}

/// Forced recomputation into a second cache produces byte-identical
/// artifacts: the whole DAG is deterministic from the plan alone.
#[test]
fn forced_reruns_are_byte_identical() {
    let plan = Plan::parse(PLAN).unwrap();
    let cache_a = fresh_cache("det_a");
    let cache_b = fresh_cache("det_b");
    let a = run(&plan, &opts(&cache_a)).unwrap();
    let mut forced = opts(&cache_b);
    forced.force = true;
    forced.threads = 1; // thread count must not leak into artifacts
    let b = run(&plan, &forced).unwrap();
    assert_eq!(a.stages.len(), b.stages.len());
    for (x, y) in a.stages.iter().zip(&b.stages) {
        assert_eq!(x.stage, y.stage);
        assert_eq!(x.artifact_hash, y.artifact_hash, "stage {}", x.stage);
    }
    assert_eq!(a.branches, b.branches);
}

/// The worker count changes only who runs a branch and when: cold runs
/// of one plan at 1, 2 and 4 threads give the same branches and the same
/// stage keys and artifact hashes, in plan order.
#[test]
fn thread_count_changes_no_key_or_artifact() {
    let plan = Plan::parse(
        "dataset compas\nrows 1000\nseed 9\nsplit 0.7\ntau 0.1\nmin-size 30\n\
         branch base technique=none model=dt\n\
         branch ps technique=ps model=dt\n\
         branch us technique=us model=nb\n\
         branch massage technique=massage model=dt\n",
    )
    .unwrap();
    let runs: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let mut options = opts(&fresh_cache(&format!("threads_{threads}")));
            options.threads = threads;
            run(&plan, &options).unwrap()
        })
        .collect();
    let outputs = |m: &remedy_pipeline::RunManifest| -> Vec<_> {
        m.stages
            .iter()
            .map(|s| {
                (
                    s.stage,
                    s.branch.clone(),
                    s.key.clone(),
                    s.artifact_hash.clone(),
                    s.cache_hit,
                    s.skipped,
                )
            })
            .collect()
    };
    for other in &runs[1..] {
        assert_eq!(
            outputs(other),
            outputs(&runs[0]),
            "{} threads",
            other.threads
        );
        assert_eq!(
            other.branches, runs[0].branches,
            "{} threads",
            other.threads
        );
    }
}

/// Every file under a cache root, with its bytes and mtime.
fn cache_files(root: &Path) -> BTreeMap<PathBuf, (Vec<u8>, SystemTime)> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let modified = entry.metadata().unwrap().modified().unwrap();
                files.insert(path.clone(), (std::fs::read(&path).unwrap(), modified));
            }
        }
    }
    files
}

/// A forced run over a primed cache recomputes every stage and writes
/// nothing: each entry already holds its artifact (same key, same
/// inputs), so every file keeps its bytes and its mtime, and no `.tmp-*`
/// staging dir is left behind. The binary source covers the stages whose
/// output the run holds before they run (load, discretize).
#[test]
fn forced_run_over_a_primed_cache_writes_nothing() {
    let cache = fresh_cache("force_primed");
    let src = std::env::temp_dir().join("remedy_pipeline_force_primed_src");
    let _ = std::fs::remove_dir_all(&src);
    std::fs::create_dir_all(&src).unwrap();
    let source = src.join("adult.bin");
    let data = synth::adult_n(800, 5);
    remedy_dataset::store::save(&data, &source, remedy_dataset::Format::Binary).unwrap();
    let plan = Plan::parse(&format!(
        "dataset {}\nformat binary\nseed 5\ntau 0.1\nmin-size 30\n\
         branch base technique=none model=dt\n\
         branch ps technique=ps model=dt\n\
         branch us technique=us model=dt\n",
        source.display()
    ))
    .unwrap();
    let primed = run(&plan, &opts(&cache)).unwrap();
    let before = cache_files(&cache);
    std::thread::sleep(std::time::Duration::from_millis(20));

    let mut forced = opts(&cache);
    forced.force = true;
    let recorder = remedy_obs::Recorder::enabled();
    let rerun = run_with(&plan, &forced, &recorder).unwrap();
    assert!(rerun.stages.iter().all(|s| !s.cache_hit), "force replayed");
    assert_eq!(primed.branches, rerun.branches);
    // every store found its entry holding an artifact and staged nothing
    let stored = rerun.stages.iter().filter(|s| !s.skipped).count() as u64;
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("cache", "store_existing"), Some(stored));
    assert_eq!(snap.counter("cache", "store_races"), None);
    let after = cache_files(&cache);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>()
    );
    for (path, file) in &before {
        assert!(after[path] == *file, "{} was rewritten", path.display());
    }
    let staged = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(staged, 0, "staging dirs were left behind");
}

/// The Fig. 8 ablation shape: one plan fans out a baseline, a Unit-T
/// remedy, and an OrderedRadius-T remedy branch. The ordered branch
/// must get its own remedy cache key (different artifact allowed), and a
/// warm re-run must replay every stage — including the ordered remedy —
/// from cache.
#[test]
fn unit_vs_ordered_radius_ablation_fans_out_and_replays() {
    let cache = fresh_cache("ablation");
    let plan = Plan::parse(
        "dataset compas\n\
         rows 1000\n\
         seed 9\n\
         split 0.7\n\
         tau 0.1\n\
         min-size 30\n\
         branch base technique=none model=dt\n\
         branch unit-ps technique=ps model=dt\n\
         branch ordered-ps technique=ps model=dt neighborhood=1.5\n",
    )
    .unwrap();

    let first = run(&plan, &opts(&cache)).unwrap();
    for stage in &first.stages {
        assert!(!stage.cache_hit, "cold run hit cache: {stage:?}");
    }
    let unit = first.stage("remedy", Some("unit-ps")).unwrap();
    let ordered = first.stage("remedy", Some("ordered-ps")).unwrap();
    assert!(!unit.skipped && !ordered.skipped);
    assert_ne!(
        unit.key, ordered.key,
        "branch neighborhood override must change the remedy cache key"
    );
    assert!(first.branch("base").is_some());
    assert!(first.branch("unit-ps").is_some());
    assert!(first.branch("ordered-ps").is_some());

    // warm re-run: everything (including the ordered remedy) replays
    let second = run(&plan, &opts(&cache)).unwrap();
    for stage in &second.stages {
        assert_eq!(
            stage.cache_hit, !stage.skipped,
            "warm ablation re-run should hit: {stage:?}"
        );
    }
    assert_eq!(first.branches, second.branches);
}

/// Converting a plan's file source from exact text to binary columnar
/// must not invalidate a single cache entry: the binary decoder
/// reconstructs the canonical text byte-for-byte (checked against the
/// digest pinned in the columnar header), so the load key — and every
/// key downstream of it — is unchanged and a warm re-run replays
/// everywhere.
#[test]
fn converting_the_source_to_binary_replays_the_text_cache() {
    let cache = fresh_cache("convert");
    let dir = std::env::temp_dir().join("remedy_pipeline_convert_src");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("data.remedy");
    let data = synth::compas_n(600, 9);
    remedy_dataset::persist::save_dataset(&data, &source).unwrap();
    let plan = Plan::parse(&format!(
        "dataset {}\nseed 9\nsplit 0.7\ntau 0.1\nmin-size 30\n\
         label recid\nprotected age,race,sex\n\
         branch ps technique=ps model=dt\n",
        source.display()
    ))
    .unwrap();

    let cold = run(&plan, &opts(&cache)).unwrap();
    for stage in &cold.stages {
        assert!(!stage.cache_hit, "cold run hit cache: {stage:?}");
    }

    // convert the source file in place: text → binary columnar
    remedy_dataset::store::save(&data, &source, remedy_dataset::Format::Binary).unwrap();
    assert_eq!(
        remedy_dataset::store::sniff(&std::fs::read(&source).unwrap()),
        Some(remedy_dataset::Format::Binary)
    );

    let warm = run(&plan, &opts(&cache)).unwrap();
    for stage in &warm.stages {
        assert!(
            stage.cache_hit || stage.skipped,
            "binary source missed a text-populated cache entry: {stage:?}"
        );
    }
    assert_eq!(cold.branches, warm.branches);
    for (a, b) in cold.stages.iter().zip(&warm.stages) {
        assert_eq!(a.key, b.key, "stage {} key drifted", a.stage);
        assert_eq!(a.artifact_hash, b.artifact_hash);
    }

    // and pinning `format binary` in the plan still replays (the format
    // key itself is not hashed; the reconstructed artifact is)
    let mut pinned = plan.clone();
    pinned.format = remedy_pipeline::SourceFormat::Binary;
    let third = run(&pinned, &opts(&cache)).unwrap();
    for stage in &third.stages {
        assert!(stage.cache_hit || stage.skipped, "{stage:?}");
    }
}

/// The manifest serializes and reports what ran.
#[test]
fn manifest_json_written() {
    let cache = fresh_cache("json");
    let plan = Plan::parse(PLAN).unwrap();
    let manifest = run(&plan, &opts(&cache)).unwrap();
    let path = cache.join("run.json");
    manifest.write_path(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"cache_hit\": false"));
    assert!(json.contains("\"branch\": \"ps\""));
    assert!(json.contains("\"fairness_index\": "));
}

/// Property: cache-key hashing is injective over a grid of distinct
/// `IbsParams` (and stays injective when embedded in `RemedyParams`).
/// A collision would silently serve one parameterization's artifacts for
/// another's, so this is the cache's core soundness property.
#[test]
fn stable_hash_injective_over_param_grid() {
    let taus = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0];
    let sizes = [1u64, 2, 10, 30, 50, 100];
    let neighborhoods = [
        Neighborhood::Unit,
        Neighborhood::Full,
        Neighborhood::OrderedRadius(0.5),
        Neighborhood::OrderedRadius(1.0),
        Neighborhood::OrderedRadius(2.0),
    ];
    let scopes = [Scope::Lattice, Scope::Leaf, Scope::Top];
    let mut seen = HashSet::new();
    let mut count = 0usize;
    for &tau_c in &taus {
        for &min_size in &sizes {
            for &neighborhood in &neighborhoods {
                for &scope in &scopes {
                    let params = IbsParams::builder()
                        .tau_c(tau_c)
                        .min_size(min_size)
                        .neighborhood(neighborhood)
                        .scope(scope)
                        .build()
                        .unwrap();
                    assert!(seen.insert(params.stable_hash()), "collision at {params:?}");
                    count += 1;
                }
            }
        }
    }
    assert_eq!(seen.len(), count);

    // RemedyParams add technique and seed on top; every combination over a
    // smaller grid must still be distinct, and distinct from plain
    // IbsParams digests (domain separation via the leading tag)
    for &tau_c in &taus[..3] {
        for technique in Technique::ALL {
            for seed in [0u64, 1, 0x5EED] {
                let params = RemedyParams::builder()
                    .technique(technique)
                    .tau_c(tau_c)
                    .seed(seed)
                    .build()
                    .unwrap();
                assert!(seen.insert(params.stable_hash()), "collision at {params:?}");
            }
        }
    }

    // equal params hash equally (the other half of "stands in for the
    // parameters themselves")
    assert_eq!(
        IbsParams::default().stable_hash(),
        IbsParams::default().stable_hash()
    );
}
