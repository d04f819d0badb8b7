//! `pipeline_adult`: the paper's technique-comparison workflow end to end.
//!
//! One plan over a binary `adult_n` source fans out to four branches
//! (`none`, `ps`, `us`, `massage`, all `model=dt`) with two engine
//! threads. The timed loop cycles through three kinds of run: cold with
//! `force`, cold with `--shards 2` through real `remedy pipeline-worker`
//! subprocesses, and a warm replay of the whole DAG from the cache.
//! Remedy and training dominate cold runs; the text codec and cache
//! hashing dominate warm runs; sharding differs only in its fan-out.

use crate::trace::{self, Tracer};
use crate::{
    counter_delta, dir_bytes, ms_since, peak_rss_mb, probe, reset_peak_rss, stats, Config, Outcome,
    Tally, Timed,
};
use remedy_core::hash::stable_hash;
use remedy_dataset::persist as data_persist;
use remedy_dataset::{store, synth, Format};
use remedy_pipeline::stages::split_dataset;
use remedy_pipeline::{
    run, run_with, BranchOutcome, PipelineError, PipelineOptions, Plan, RunManifest, RunStatus,
    WorkerMode,
};
use std::path::Path;
use std::time::Instant;

const KINDS: [&str; 3] = ["cold", "sharded", "warm"];
/// Oversampling (`dp`) is left out: how many rows it duplicates swings
/// with the seed by a factor of five, and its run time with it, which
/// would make runs on different seeds incomparable.
const TECHNIQUES: [&str; 4] = ["none", "ps", "us", "massage"];
const THREADS: usize = 2;
const SHARDS: usize = 2;
/// Repetitions of each timed codec, hash and partition call.
const PROBE_REPS: usize = 5;

/// What every run must reproduce: the priming run's branch metrics and
/// identify artifact.
struct Reference {
    branches: Vec<BranchOutcome>,
    identify_hash: String,
}

fn plan_text(source: &Path, seed: u64) -> String {
    let mut text = format!("dataset {}\nformat binary\nseed {seed}\n", source.display());
    for t in TECHNIQUES {
        text.push_str(&format!("branch {t} technique={t} model=dt\n"));
    }
    text
}

fn options(cfg: &Config, cache_dir: &Path, kind: &str) -> PipelineOptions {
    let base = PipelineOptions {
        cache_dir: cache_dir.to_path_buf(),
        threads: THREADS,
        ..PipelineOptions::default()
    };
    match kind {
        "cold" => PipelineOptions {
            force: true,
            ..base
        },
        "sharded" => PipelineOptions {
            force: true,
            shards: SHARDS,
            worker: WorkerMode::Subprocess(Some(cfg.worker_exe.clone())),
            ..base
        },
        _ => base,
    }
}

/// The kinds of run this configuration cycles through.
fn kinds(cfg: &Config) -> Vec<&'static str> {
    KINDS
        .into_iter()
        .filter(|&k| k != "sharded" || cfg.sharded_runs)
        .collect()
}

fn verify(
    kind: &str,
    result: &Result<RunManifest, PipelineError>,
    reference: &Reference,
) -> Result<(), String> {
    let manifest = result
        .as_ref()
        .map_err(|e| format!("{kind} run failed: {e}"))?;
    if manifest.status != RunStatus::Ok {
        return Err(format!("{kind} run ended {}", manifest.status));
    }
    if manifest.branches != reference.branches {
        return Err(format!(
            "{kind} run: branch metrics differ from the priming run"
        ));
    }
    let identify = manifest
        .stage("identify", None)
        .ok_or_else(|| format!("{kind} run has no identify record"))?;
    if identify.artifact_hash != reference.identify_hash {
        return Err(format!("{kind} run: identify artifact hash differs"));
    }
    if kind == "warm" {
        if let Some(s) = manifest.stages.iter().find(|s| !s.skipped && !s.cache_hit) {
            return Err(format!("warm run recomputed stage {}", s.stage));
        }
    }
    Ok(())
}

pub fn run_adult(cfg: &Config) -> Result<Outcome, String> {
    if cfg.sharded_runs && !cfg.worker_exe.is_file() {
        return Err(format!(
            "shard worker executable {} is missing (build remedy-cli)",
            cfg.worker_exe.display()
        ));
    }
    let kinds = kinds(cfg);
    let source = cfg.work_dir.join("adult.bin");
    let data = synth::adult_n(cfg.sizes.pipeline_rows, cfg.seed);
    store::save(&data, &source, Format::Binary).map_err(|e| e.to_string())?;
    let plan = Plan::parse(&plan_text(&source, cfg.seed)).map_err(|e| e.to_string())?;

    // set-up: open a fresh cache and prime it with one cold run
    let mut timed = Timed {
        principal: kinds.iter().map(|k| k.to_string()).collect(),
        ..Timed::default()
    };
    let mut reference = None;
    let mut cache_dir = cfg.work_dir.clone();
    for i in 0..cfg.sizes.setups {
        cache_dir = cfg.work_dir.join(format!("cache{i}"));
        let t = Instant::now();
        let manifest = run(&plan, &options(cfg, &cache_dir, "cold")).map_err(|e| e.to_string())?;
        timed.setup_s.push(t.elapsed().as_secs_f64());
        if reference.is_none() {
            let identify_hash = manifest
                .stage("identify", None)
                .ok_or("priming run has no identify record")?
                .artifact_hash
                .clone();
            reference = Some(Reference {
                branches: manifest.branches,
                identify_hash,
            });
        }
    }
    let mut reference = reference.ok_or("no set-up ran")?;
    if cfg.corrupt_reference {
        reference.identify_hash.insert(0, '!');
    }
    let opts: Vec<PipelineOptions> = kinds.iter().map(|k| options(cfg, &cache_dir, k)).collect();

    let mut tally = Tally::default();
    reset_peak_rss()?;
    let start = Instant::now();
    let mut i = 0;
    // at least one run of every kind, however short the phase
    while i < kinds.len() || start.elapsed() < cfg.deadline() {
        let k = i % kinds.len();
        i += 1;
        let t = Instant::now();
        let result = run(&plan, &opts[k]);
        timed.push(kinds[k], ms_since(t));
        tally.check(verify(kinds[k], &result, &reference));
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.peak_rss_mb = peak_rss_mb()?;

    let layers = if cfg.trace {
        traced(
            cfg, &kinds, &plan, &opts, &reference, &data, &cache_dir, &timed, &mut tally,
        )?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        tally,
        timed,
        layers,
    })
}

#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    kinds: &[&'static str],
    plan: &Plan,
    opts: &[PipelineOptions],
    reference: &Reference,
    data: &remedy_dataset::Dataset,
    cache_dir: &Path,
    timed: &Timed,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let tracer = Tracer::new();
    let rec = &tracer.recorder;
    let mut layers: Vec<(String, f64)> = Vec::new();
    // one traced run of each kind
    let mut traced_ms = vec![0f64; kinds.len()];
    let (mut lookups, mut hits) = (0u64, 0u64);
    let mut rows = [0u64; 3];
    let (mut count_ms, mut retries) = (0f64, 0u64);
    for (k, kind) in kinds.iter().enumerate() {
        let before = rec.snapshot();
        let t = Instant::now();
        let result = run_with(plan, &opts[k], rec);
        traced_ms[k] = ms_since(t);
        tally.check(verify(kind, &result, reference));
        let after = rec.snapshot();
        match *kind {
            "cold" => {
                for (slot, name) in ["rows_duplicated", "rows_removed", "rows_flipped"]
                    .iter()
                    .enumerate()
                {
                    rows[slot] = counter_delta(&before, &after, |scope, n| {
                        scope.ends_with("/remedy") && n == *name
                    });
                }
            }
            "warm" => {
                hits = counter_delta(&before, &after, |s, n| s == "cache" && n == "hits");
                lookups = counter_delta(&before, &after, |s, n| {
                    s == "cache" && (n == "hits" || n == "misses")
                });
            }
            _ => {
                if let Ok(manifest) = &result {
                    let counts = manifest.stages.iter().filter(|s| s.stage == "count");
                    for record in counts {
                        count_ms = count_ms.max(record.wall_ms);
                        retries += record
                            .counters
                            .iter()
                            .filter(|(n, _)| n == "retry.attempts")
                            .map(|(_, v)| v)
                            .sum::<u64>();
                    }
                }
            }
        }
    }
    let bytes_stored = dir_bytes(cache_dir);

    // codec, hash and partition layers, timed on the benchmark input
    let (mut encode, mut decode, mut hash, mut partition) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (train, _) = split_dataset(plan, data).map_err(|e| e.to_string())?;
    for _ in 0..PROBE_REPS {
        let root = rec.scope("pipeline_adult").span("probe");
        let text = probe(&root, "dataset", "text_encode", &mut encode, || {
            data_persist::dataset_to_text(data)
        });
        let decoded = probe(&root, "dataset", "text_decode", &mut decode, || {
            data_persist::dataset_from_text(&text)
        })
        .map_err(|e| e.to_string())?;
        let digest = probe(&root, "core", "stable_hash", &mut hash, || {
            stable_hash(text.as_bytes())
        });
        let bytes = probe(&root, "shard", "partition", &mut partition, || {
            let parts = store::partition_stratified(&train, SHARDS);
            parts
                .iter()
                .map(|p| store::to_binary(p).len())
                .sum::<usize>()
        });
        std::hint::black_box((decoded.len(), digest, bytes));
    }

    let spans = tracer
        .finish(&cfg.trace_path())
        .map_err(|e| format!("cannot write trace: {e}"))?;
    let runs = trace::roots(&spans, "pipeline", "run");
    if runs.len() != kinds.len() {
        return Err(format!(
            "trace holds {} pipeline runs, expected {}",
            runs.len(),
            kinds.len()
        ));
    }
    let (mut covered, mut budget) = (0u64, 0.0);
    let mut self_ms = vec![0f64; kinds.len()];
    let mut stage_ms = [0f64; 6];
    const STAGES: [&str; 6] = ["load", "discretize", "identify", "remedy", "train", "audit"];
    for (k, run_span) in runs.iter().enumerate() {
        covered += trace::covered_us(&spans, run_span);
        budget += timed.median(kinds[k]) * 1e3;
        self_ms[k] = trace::ms(trace::self_us(&spans, run_span));
        if kinds[k] == "cold" {
            for child in trace::children(&spans, run_span.id) {
                if let Some(s) = STAGES.iter().position(|&name| name == child.name) {
                    stage_ms[s] += trace::ms(child.dur_us);
                }
            }
        }
    }
    for (k, kind) in kinds.iter().enumerate() {
        layers.push((format!("pipeline.{kind}_run_ms"), timed.median(kind)));
        layers.push((format!("pipeline.self_ms.{kind}"), self_ms[k]));
    }
    for (s, stage) in STAGES.iter().enumerate() {
        layers.push((format!("pipeline.{stage}_ms"), stage_ms[s]));
    }
    let ratios: Vec<f64> = kinds
        .iter()
        .enumerate()
        .map(|(k, kind)| traced_ms[k] / timed.median(kind))
        .collect();
    layers.extend([
        (
            "obs_overhead_pct".to_string(),
            (stats::geomean(&ratios) - 1.0) * 100.0,
        ),
        ("coverage".to_string(), covered as f64 / budget),
        ("dataset.text_encode_ms".to_string(), stats::median(&encode)),
        ("dataset.text_decode_ms".to_string(), stats::median(&decode)),
        ("core.stable_hash_ms".to_string(), stats::median(&hash)),
        ("cache.lookups".to_string(), lookups as f64),
        (
            "cache.hit_ratio".to_string(),
            hits as f64 / lookups.max(1) as f64,
        ),
        ("cache.bytes_stored".to_string(), bytes_stored as f64),
        ("shard.partition_ms".to_string(), stats::median(&partition)),
        ("remedy.rows_duplicated".to_string(), rows[0] as f64),
        ("remedy.rows_removed".to_string(), rows[1] as f64),
        ("remedy.rows_flipped".to_string(), rows[2] as f64),
    ]);
    if kinds.contains(&"sharded") {
        layers.extend([
            ("shard.count_ms".to_string(), count_ms),
            ("shard.retries".to_string(), retries as f64),
        ]);
    }
    Ok(layers)
}
