//! The six typed stages and the shared cached-execution wrapper.
//!
//! Each stage function derives its [`CacheKey`] from the stage inputs —
//! upstream artifact hashes plus its own parameters — then either replays
//! the cached artifact or computes, stores, and returns a fresh one.
//! Artifacts are the exact text formats of the member crates
//! (`remedy-dataset v1`, `remedy-ibs v1`, `remedy-model v1`,
//! `remedy-metrics v1`), so a cache hit is byte-identical to a re-run.
//!
//! Worker-thread counts are deliberately *excluded* from every key: they
//! change wall time, never results.

use crate::cache::{ArtifactCache, CacheKey};
use crate::error::{panic_message, PipelineError};
use crate::failpoint;
use crate::manifest::StageRecord;
use crate::plan::{ModelFamily, Plan, SourceFormat};
use remedy_classifiers::persist as model_persist;
use remedy_classifiers::{
    accuracy, DecisionTree, DecisionTreeParams, LogisticRegression, LogisticRegressionParams,
    Model, NaiveBayes, RandomForest, RandomForestParams,
};
use remedy_core::hash::{stable_hash, StableHasher};
use remedy_core::{persist as ibs_persist, try_identify_over_with, Algorithm, RemedyParams};
use remedy_dataset::csv::{LoadOptions, RawTable};
use remedy_dataset::persist as data_persist;
use remedy_dataset::split::train_test_split;
use remedy_dataset::{format as data_format, store, synth, Dataset, Format};
use remedy_fairness::{fairness_index, Explorer, FairnessIndexParams, MetricsSummary};
use remedy_obs::Scope as ObsScope;
use std::time::Instant;

/// Magic header of exact dataset artifacts (used to recognize pass-through
/// inputs in the discretize stage).
const DATASET_MAGIC: &str = "remedy-dataset v1";

/// Artifact text plus its manifest record.
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// The artifact's text payload.
    pub text: String,
    /// Hex stable hash of `text` (chained into downstream keys).
    pub artifact_hash: String,
    /// Manifest entry for this execution.
    pub record: StageRecord,
}

/// Executes one stage through the cache: replay on hit, compute + store on
/// miss, record either way. The stage runs under one span in `obs`, gets
/// `cache_hits`/`cache_misses` counters, and its record carries every
/// counter recorded under the stage's scope (including what the compute
/// closure itself recorded).
///
/// The compute closure runs under `catch_unwind`: a panicking stage
/// surfaces as a [`StagePanic`](crate::ErrorKind) error attributed to the
/// stage, which the engine contains at the branch boundary. Every error
/// leaving this function carries the stage name.
#[allow(clippy::too_many_arguments)]
pub fn run_stage(
    cache: &ArtifactCache,
    stage: &'static str,
    branch: Option<&str>,
    key: CacheKey,
    force: bool,
    description: &str,
    obs: &ObsScope,
    compute: impl FnOnce() -> Result<String, PipelineError>,
) -> Result<StageOutput, PipelineError> {
    let _span = obs.span(stage);
    let start = Instant::now();
    if !force {
        if let Some(text) = cache.lookup(stage, key) {
            obs.add("cache_hits", 1);
            return Ok(finish(stage, branch, key, true, text, start, obs));
        }
    }
    obs.add("cache_misses", 1);
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        failpoint::check("stage.run", stage)?;
        compute()
    }));
    let text = match computed {
        Ok(result) => result.map_err(|e| e.in_stage(stage))?,
        Err(payload) => {
            obs.add("panics", 1);
            return Err(PipelineError::stage_panic(panic_message(payload.as_ref())).in_stage(stage));
        }
    };
    cache
        .store(stage, key, &text, description)
        .map_err(|e| e.in_stage(stage))?;
    Ok(finish(stage, branch, key, false, text, start, obs))
}

pub(crate) fn finish(
    stage: &'static str,
    branch: Option<&str>,
    key: CacheKey,
    cache_hit: bool,
    text: String,
    start: Instant,
    obs: &ObsScope,
) -> StageOutput {
    let artifact_hash = format!("{:032x}", stable_hash(text.as_bytes()));
    StageOutput {
        record: StageRecord {
            stage,
            branch: branch.map(String::from),
            key: key.hex(),
            artifact_hash: artifact_hash.clone(),
            cache_hit,
            skipped: false,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            counters: obs.counters(),
        },
        artifact_hash,
        text,
    }
}

/// Whether the plan's source is a built-in synthetic generator.
fn is_builtin(source: &str) -> bool {
    matches!(source, "adult" | "compas" | "law")
}

/// Load: raw bytes into the pipeline.
///
/// Built-in sources generate their synthetic dataset (keyed by name, row
/// count, and seed) and emit it as an exact dataset artifact. File sources
/// emit text, keyed by its *content* hash so editing the file invalidates
/// everything downstream while renaming it does not. A binary columnar
/// source (`format binary`, or autodetected by magic) is decoded and
/// re-emitted as its canonical text form — byte-identical to the text
/// file it was converted from — so the stage key, the artifact, and every
/// downstream cache entry are exactly those of the original text run.
pub fn load_stage(
    plan: &Plan,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("load");
    if is_builtin(&plan.source) {
        h.write_str(&plan.source);
        h.write_u64(plan.rows as u64);
        h.write_u64(plan.seed);
        let key = CacheKey::from_hasher(&h);
        let (source, rows, seed) = (plan.source.clone(), plan.rows, plan.seed);
        run_stage(
            cache,
            "load",
            None,
            key,
            force,
            &format!("load {source} rows={rows} seed={seed}"),
            obs,
            move || {
                let data = match (source.as_str(), rows) {
                    ("adult", 0) => synth::adult(seed),
                    ("adult", n) => synth::adult_n(n, seed),
                    ("compas", 0) => synth::compas(seed),
                    ("compas", n) => synth::compas_n(n, seed),
                    ("law", 0) => synth::law_school(seed),
                    ("law", n) => synth::law_school_n(n, seed),
                    _ => unreachable!("is_builtin checked"),
                };
                Ok(data_persist::dataset_to_text(&data))
            },
        )
    } else {
        let bytes = std::fs::read(&plan.source)
            .map_err(|e| PipelineError::fatal(format!("cannot read {}: {e}", plan.source)))?;
        let is_columnar = store::sniff(&bytes) == Some(Format::Binary);
        if plan.format == SourceFormat::Binary && !is_columnar {
            return Err(PipelineError::fatal(format!(
                "{} is not a remedy-columnar artifact (plan says `format binary`)",
                plan.source
            )));
        }
        let text = if is_columnar && plan.format != SourceFormat::Text {
            let stored = store::from_bytes_unpacked(&bytes)
                .map_err(|e| PipelineError::fatal(format!("cannot decode {}: {e}", plan.source)))?;
            let text = data_persist::dataset_to_text(&stored.data);
            // the header pins the canonical text's digest; a mismatch
            // means the reconstruction would not replay text-keyed caches
            if data_format::content_digest(text.as_bytes()) != stored.digest {
                return Err(PipelineError::fatal(format!(
                    "{}: canonical-text digest mismatch in the columnar header",
                    plan.source
                )));
            }
            text
        } else {
            String::from_utf8(bytes)
                .map_err(|_| PipelineError::fatal(format!("{} is not UTF-8 text", plan.source)))?
        };
        h.write_str("csv");
        h.write(text.as_bytes());
        let key = CacheKey::from_hasher(&h);
        run_stage(
            cache,
            "load",
            None,
            key,
            force,
            &format!("load {}", plan.source),
            obs,
            move || Ok(text),
        )
    }
}

/// Discretize: normalize the loaded bytes into an exact dataset artifact.
///
/// CSV inputs get their label/protected columns resolved and continuous
/// columns quantile-bucketized; already-exact inputs (built-in sources)
/// pass through unchanged. Either way the output is the canonical
/// categorical dataset every downstream stage consumes.
pub fn discretize_stage(
    plan: &Plan,
    load: &StageOutput,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("discretize");
    h.write_str(&load.artifact_hash);
    h.write_str(plan.label.as_deref().unwrap_or(""));
    for p in &plan.protected {
        h.write_str(p);
    }
    h.write_str(plan.positive.as_deref().unwrap_or(""));
    h.write_u64(plan.bins as u64);
    let key = CacheKey::from_hasher(&h);
    let input = load.text.clone();
    let (label, protected, positive, bins) = (
        plan.label.clone(),
        plan.protected.clone(),
        plan.positive.clone(),
        plan.bins,
    );
    run_stage(
        cache,
        "discretize",
        None,
        key,
        force,
        &format!("discretize bins={bins}"),
        obs,
        move || {
            if input.starts_with(DATASET_MAGIC) {
                return Ok(input);
            }
            let label =
                label.ok_or_else(|| PipelineError::invalid_plan("CSV source needs a label"))?;
            let table = RawTable::parse_str(&input).map_err(PipelineError::from)?;
            let mut opts = LoadOptions::new(label);
            opts.protected = protected;
            opts.positive_value = positive;
            opts.numeric_bins = bins;
            let data = table.to_dataset(&opts).map_err(PipelineError::from)?;
            Ok(data_persist::dataset_to_text(&data))
        },
    )
}

/// Computes the train/test split every consuming stage agrees on.
pub fn split_dataset(plan: &Plan, data: &Dataset) -> Result<(Dataset, Dataset), PipelineError> {
    train_test_split(data, plan.split, plan.seed).map_err(PipelineError::from)
}

/// Folds the split definition into a stage key.
pub(crate) fn write_split(h: &mut StableHasher, plan: &Plan) {
    h.write_f64(plan.split);
    h.write_u64(plan.seed);
}

/// The identify stage's cache key: a function of the discretized
/// artifact, the split, and the IBS parameters — *not* of sharding or
/// thread counts, so a sharded run stores its (byte-identical) artifact
/// under the same key as a single-process run.
pub(crate) fn identify_key(plan: &Plan, discretized_hash: &str) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str("identify");
    h.write_str(discretized_hash);
    write_split(&mut h, plan);
    plan.ibs.stable_hash_into(&mut h);
    CacheKey::from_hasher(&h)
}

/// Identify: the IBS of the training split, shared by every branch.
///
/// `threads` fans region scoring out over scoped worker threads; it is
/// not part of the key because it cannot change the result.
#[allow(clippy::too_many_arguments)]
pub fn identify_stage(
    plan: &Plan,
    discretized: &StageOutput,
    train_set: &Dataset,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let key = identify_key(plan, &discretized.artifact_hash);
    let params = plan.ibs.clone();
    let inner_obs = obs.clone();
    run_stage(
        cache,
        "identify",
        None,
        key,
        force,
        &format!("identify tau={} k={}", params.tau_c, params.min_size),
        obs,
        move || {
            // the NeighborModel dispatches OrderedRadius to enumeration
            // internally, so Optimized is always the right entry point
            let protected = train_set.schema().protected_indices();
            let regions = try_identify_over_with(
                train_set,
                &protected,
                &params,
                Algorithm::Optimized,
                &inner_obs,
            )
            .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
            Ok(ibs_persist::regions_to_text(&regions))
        },
    )
}

/// Remedy: rewrite the training split so biased regions match their
/// neighborhood. One execution per branch with a technique.
#[allow(clippy::too_many_arguments)]
pub fn remedy_stage(
    plan: &Plan,
    branch: &str,
    params: &RemedyParams,
    discretized: &StageOutput,
    identify: &StageOutput,
    train_set: &Dataset,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("remedy");
    h.write_str(&discretized.artifact_hash);
    // the identify artifact is a deterministic function of the same
    // inputs, so chaining its hash documents the DAG edge at no cost in
    // spurious misses
    h.write_str(&identify.artifact_hash);
    write_split(&mut h, plan);
    params.stable_hash_into(&mut h);
    let key = CacheKey::from_hasher(&h);
    let params = params.clone();
    let inner_obs = obs.clone();
    run_stage(
        cache,
        "remedy",
        Some(branch),
        key,
        force,
        &format!("remedy {} tau={}", params.technique, params.tau_c),
        obs,
        move || {
            let outcome = remedy_core::remedy_with(train_set, &params, &inner_obs);
            Ok(data_persist::dataset_to_text(&outcome.dataset))
        },
    )
}

/// A record for a `technique=none` branch: the remedy stage is skipped
/// and the training input is the unremedied split.
pub fn skipped_remedy_record(branch: &str, train_split_hash: &str) -> StageRecord {
    StageRecord {
        stage: "remedy",
        branch: Some(branch.to_string()),
        key: "-".into(),
        artifact_hash: train_split_hash.to_string(),
        cache_hit: false,
        skipped: true,
        wall_ms: 0.0,
        counters: Vec::new(),
    }
}

/// Train: fit the branch's model family on its training input.
#[allow(clippy::too_many_arguments)]
pub fn train_stage(
    plan: &Plan,
    branch: &str,
    family: ModelFamily,
    train_input: &str,
    train_input_hash: &str,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("train");
    h.write_str(train_input_hash);
    h.write_str(family.token());
    h.write_u64(plan.seed);
    let key = CacheKey::from_hasher(&h);
    let seed = plan.seed;
    run_stage(
        cache,
        "train",
        Some(branch),
        key,
        force,
        &format!("train {} seed={seed}", family.token()),
        obs,
        move || {
            let data = data_persist::dataset_from_text(train_input)?;
            Ok(match family {
                ModelFamily::DecisionTree => model_persist::tree_to_text(&DecisionTree::fit(
                    &data,
                    &DecisionTreeParams::default(),
                )),
                ModelFamily::RandomForest => model_persist::forest_to_text(&RandomForest::fit(
                    &data,
                    &RandomForestParams::default(),
                    seed,
                )),
                ModelFamily::LogisticRegression => model_persist::logistic_to_text(
                    &LogisticRegression::fit(&data, &LogisticRegressionParams::default()),
                ),
                ModelFamily::NaiveBayes => {
                    model_persist::naive_bayes_to_text(&NaiveBayes::fit(&data))
                }
            })
        },
    )
}

/// Audit: metrics of the branch's model on the held-out test split.
#[allow(clippy::too_many_arguments)]
pub fn audit_stage(
    plan: &Plan,
    branch: &str,
    model: &StageOutput,
    discretized: &StageOutput,
    test_set: &Dataset,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("audit");
    h.write_str(&model.artifact_hash);
    h.write_str(&discretized.artifact_hash);
    write_split(&mut h, plan);
    h.write_str(plan.stat.name());
    h.write_f64(plan.tau_d);
    h.write_f64(plan.min_support);
    let key = CacheKey::from_hasher(&h);
    let model_text = model.text.clone();
    let (stat, tau_d, min_support) = (plan.stat, plan.tau_d, plan.min_support);
    run_stage(
        cache,
        "audit",
        Some(branch),
        key,
        force,
        &format!("audit {} tau_d={tau_d}", stat.name()),
        obs,
        move || {
            let model = model_persist::from_text(&model_text)
                .map_err(|e| PipelineError::corrupt(format!("cannot load model artifact: {e}")))?;
            let predictions = model.predict(test_set);
            let acc = accuracy(&predictions, test_set.labels());
            let fi = fairness_index(
                test_set,
                &predictions,
                stat,
                &FairnessIndexParams {
                    min_support,
                    alpha: 0.05,
                },
            );
            let explorer = Explorer {
                min_support,
                ..Explorer::default()
            };
            let unfair = explorer.unfair_subgroups(test_set, &predictions, stat, tau_d);
            Ok(MetricsSummary {
                statistic: stat,
                accuracy: acc,
                fairness_index: fi,
                unfair_subgroups: unfair.len() as u64,
                test_rows: test_set.len() as u64,
            }
            .to_text())
        },
    )
}
