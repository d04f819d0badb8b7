//! The six typed stages and the shared cached-execution wrapper.
//!
//! Each stage function derives its [`CacheKey`] from the stage inputs —
//! upstream artifact hashes plus its own parameters — then either replays
//! the cached artifact or computes, stores, and returns a fresh one. A
//! stage whose output the run already holds with a verified digest (a
//! file source's load, a discretize passthrough) runs through
//! [`run_known_stage`] instead, which confirms the cache entry by its
//! `hash` file and never reads the artifact back.
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
use crate::plan::{ModelKind, Plan, SourceFormat};
use remedy_classifiers::persist as model_persist;
use remedy_classifiers::{accuracy, Model};
use remedy_core::hash::{stable_hash, StableHasher};
use remedy_core::{persist as ibs_persist, try_identify_over_with, Algorithm, RemedyParams};
use remedy_dataset::csv::{LoadOptions, RawTable};
use remedy_dataset::persist as data_persist;
use remedy_dataset::split::train_test_split;
use remedy_dataset::{store, synth, Dataset, Format};
use remedy_fairness::{index_of, FairnessIndexParams, MetricsSummary};
use remedy_obs::Scope as ObsScope;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Artifact text plus its manifest record.
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// The artifact's text payload; empty for a computed remedy, whose
    /// dataset [`remedy_stage`] returns instead.
    pub text: String,
    /// Hex stable hash of the artifact (chained into downstream keys).
    pub artifact_hash: String,
    /// The same FNV-1a/128 content digest as a number.
    pub digest: u128,
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
    run_stage_with(cache, stage, branch, key, force, obs, compute, |text| {
        let digest = cache.store(stage, key, &text, description)?;
        Ok((text, digest))
    })
}

/// [`run_stage`] with the store step apart: on a miss `compute` runs
/// under the `stage.run` fail point and `catch_unwind`, then `store`
/// writes its result to the cache and returns the text the output keeps
/// with the artifact's digest.
#[allow(clippy::too_many_arguments)]
fn run_stage_with<T>(
    cache: &ArtifactCache,
    stage: &'static str,
    branch: Option<&str>,
    key: CacheKey,
    force: bool,
    obs: &ObsScope,
    compute: impl FnOnce() -> Result<T, PipelineError>,
    store: impl FnOnce(T) -> Result<(String, u128), PipelineError>,
) -> Result<StageOutput, PipelineError> {
    let _span = obs.span(stage);
    let start = Instant::now();
    if !force {
        if let Some(artifact) = cache.lookup(stage, key) {
            obs.add("cache_hits", 1);
            return Ok(finish(stage, branch, key, true, artifact, start, obs));
        }
    }
    obs.add("cache_misses", 1);
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        failpoint::check("stage.run", stage)?;
        compute()
    }));
    let result = match computed {
        Ok(result) => result.map_err(|e| e.in_stage(stage))?,
        Err(payload) => {
            obs.add("panics", 1);
            return Err(PipelineError::stage_panic(panic_message(payload.as_ref())).in_stage(stage));
        }
    };
    let artifact = store(result).map_err(|e| e.in_stage(stage))?;
    Ok(finish(stage, branch, key, false, artifact, start, obs))
}

/// [`run_stage`] for a stage whose output the run already holds: `text`
/// with the content digest the caller verified or computed. A hit is
/// [`ArtifactCache::confirm`], which compares the entry's `hash` file
/// with `digest` and reads no artifact bytes; a miss stores `text` under
/// `digest` without hashing it again. Records, spans and the
/// `cache_hits`/`cache_misses` counters are those of [`run_stage`].
/// Nothing is computed, so there is no `stage.run` fail point.
#[allow(clippy::too_many_arguments)]
pub fn run_known_stage(
    cache: &ArtifactCache,
    stage: &'static str,
    key: CacheKey,
    force: bool,
    description: &str,
    obs: &ObsScope,
    text: String,
    digest: u128,
) -> Result<StageOutput, PipelineError> {
    let _span = obs.span(stage);
    let start = Instant::now();
    let hit = !force && cache.confirm(stage, key, digest, text.len());
    obs.add(if hit { "cache_hits" } else { "cache_misses" }, 1);
    if !hit {
        cache
            .store_with_digest(stage, key, text.as_bytes(), digest, description)
            .map_err(|e| e.in_stage(stage))?;
    }
    Ok(finish(stage, None, key, hit, (text, digest), start, obs))
}

/// Builds a stage's output from its artifact text and the content
/// digest the cache verified (hit) or stored (miss) it under.
pub(crate) fn finish(
    stage: &'static str,
    branch: Option<&str>,
    key: CacheKey,
    cache_hit: bool,
    (text, digest): (String, u128),
    start: Instant,
    obs: &ObsScope,
) -> StageOutput {
    let artifact_hash = format!("{digest:032x}");
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
        digest,
        text,
    }
}

/// Load: raw bytes into the pipeline.
///
/// Built-in sources generate their synthetic dataset (keyed by name, row
/// count, and seed) and emit it as an exact dataset artifact. File sources
/// emit text, keyed by its *content* digest so editing the file
/// invalidates everything downstream while renaming it does not. A binary
/// columnar source (`format binary`, or autodetected by magic) is decoded
/// and re-emitted as its canonical text form — byte-identical to the text
/// file it was converted from, whose digest its header pins — so the
/// stage key, the artifact, and every downstream cache entry are exactly
/// those of the original text run.
///
/// A file source's text and digest are in hand before the stage runs,
/// so it is a [`run_known_stage`]: a warm run confirms the entry and
/// reads no artifact back.
///
/// The dataset the stage holds comes back beside its artifact, so the
/// engine need not parse that text again: the one a built-in source
/// generated on a miss (the artifact was written from it), or the one a
/// binary source decodes to, whose canonical text is the artifact.
pub fn load_stage(
    plan: &Plan,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<(StageOutput, Option<Dataset>), PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("load");
    if plan.builtin_source() {
        h.write_str(&plan.source);
        h.write_u64(plan.rows as u64);
        h.write_u64(plan.seed);
        let key = CacheKey::from_hasher(&h);
        let (source, rows, seed) = (plan.source.as_str(), plan.rows, plan.seed);
        let mut generated = None;
        let output = run_stage(
            cache,
            "load",
            None,
            key,
            force,
            &format!("load {source} rows={rows} seed={seed}"),
            obs,
            || {
                let data = synth::builtin(source, rows, seed, synth::WIDE_DEFAULT_ARITY)
                    .ok()
                    .flatten()
                    .expect("builtin_source checked");
                let text = data_persist::dataset_to_text(&data);
                generated = Some(data);
                Ok(text)
            },
        )?;
        Ok((output, generated))
    } else {
        // reading, decoding and keying the source run before the stage
        // span opens, so they get a span of their own
        let source_span = obs.span("source");
        let bytes = std::fs::read(&plan.source)
            .map_err(|e| PipelineError::fatal(format!("cannot read {}: {e}", plan.source)))?;
        let is_columnar = store::sniff(&bytes) == Some(Format::Binary);
        if plan.format == SourceFormat::Binary && !is_columnar {
            return Err(PipelineError::fatal(format!(
                "{} is not a remedy-columnar artifact (plan says `format binary`)",
                plan.source
            )));
        }
        // the key is the content digest: the one the binary header pins
        // and the decoder has just checked, or one pass over the text
        let (text, digest, decoded) = if is_columnar && plan.format != SourceFormat::Text {
            let canonical = store::binary_to_text(&bytes)
                .map_err(|e| PipelineError::fatal(format!("cannot decode {}: {e}", plan.source)))?;
            drop(bytes);
            (canonical.text, canonical.digest, Some(canonical.data))
        } else {
            let text = String::from_utf8(bytes)
                .map_err(|_| PipelineError::fatal(format!("{} is not UTF-8 text", plan.source)))?;
            let digest = stable_hash(text.as_bytes());
            (text, digest, None)
        };
        h.write_str("file");
        h.write(&digest.to_le_bytes());
        let key = CacheKey::from_hasher(&h);
        drop(source_span);
        let description = format!("load {}", plan.source);
        let output = run_known_stage(cache, "load", key, force, &description, obs, text, digest)?;
        Ok((output, decoded))
    }
}

/// Discretize: normalize the loaded bytes into an exact dataset artifact.
///
/// CSV inputs get their label/protected columns resolved and continuous
/// columns quantile-bucketized; already-exact inputs (built-in sources)
/// pass through unchanged. Either way the output is the canonical
/// categorical dataset every downstream stage consumes.
///
/// A passthrough's output is the load artifact, whose digest the run
/// already holds, so it is a [`run_known_stage`]: the load text moves
/// into this stage's output (leaving `load.text` empty) and a warm run
/// confirms the entry without reading it back.
///
/// `loaded` is the dataset [`load_stage`] handed on. It is forwarded when
/// the stage passes its input through; a CSV computed on a miss comes
/// back as the dataset it was discretized to.
pub fn discretize_stage(
    plan: &Plan,
    load: &mut StageOutput,
    loaded: Option<Dataset>,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<(StageOutput, Option<Dataset>), PipelineError> {
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
    let description = format!("discretize bins={}", plan.bins);
    if data_persist::DATASET.sniff(load.text.as_bytes()) {
        let text = std::mem::take(&mut load.text);
        let output = run_known_stage(
            cache,
            "discretize",
            key,
            force,
            &description,
            obs,
            text,
            load.digest,
        )?;
        return Ok((output, loaded));
    }
    let input = &load.text;
    let (label, protected, positive, bins) = (
        plan.label.clone(),
        plan.protected.clone(),
        plan.positive.clone(),
        plan.bins,
    );
    let mut computed = None;
    let output = run_stage(
        cache,
        "discretize",
        None,
        key,
        force,
        &description,
        obs,
        || {
            let label =
                label.ok_or_else(|| PipelineError::invalid_plan("CSV source needs a label"))?;
            let table = RawTable::parse_str(input).map_err(PipelineError::from)?;
            let mut opts = LoadOptions::new(label);
            opts.protected = protected;
            opts.positive_value = positive;
            opts.numeric_bins = bins;
            let data = table.to_dataset(&opts).map_err(PipelineError::from)?;
            let text = data_persist::dataset_to_text(&data);
            computed = Some(data);
            Ok(text)
        },
    )?;
    Ok((output, computed))
}

/// Computes the train/test split every consuming stage agrees on.
pub fn split_dataset(plan: &Plan, data: &Dataset) -> Result<(Dataset, Dataset), PipelineError> {
    train_test_split(data, plan.split, plan.seed).map_err(PipelineError::from)
}

/// The train/test split of the discretized dataset, made the first time
/// a stage misses and needs rows. A fully warm run replays every stage
/// from the cache, so it never splits, and for a source no stage handed
/// the dataset on (a text file, a warm prefix) it never parses the
/// discretized artifact either. Branch workers share one split:
/// whichever asks first makes it, under `decode` and `split` spans of
/// the scope it was given.
pub struct LazySplit {
    fraction: f64,
    seed: u64,
    /// The dataset a prefix stage handed on, or else the discretized
    /// artifact's text; taken when the split is made.
    source: Mutex<Option<Result<Dataset, String>>>,
    split: OnceLock<Result<(Dataset, Dataset), PipelineError>>,
    obs: ObsScope,
}

impl LazySplit {
    /// A split of `carried`, the dataset a prefix stage handed on, or
    /// when there is none of the discretized artifact `text`, under the
    /// plan's fraction and seed.
    pub(crate) fn new(
        plan: &Plan,
        carried: Option<Dataset>,
        text: String,
        obs: ObsScope,
    ) -> LazySplit {
        LazySplit {
            fraction: plan.split,
            seed: plan.seed,
            source: Mutex::new(Some(carried.ok_or(text))),
            split: OnceLock::new(),
            obs,
        }
    }

    /// The training rows.
    pub fn train(&self) -> Result<&Dataset, PipelineError> {
        self.get().map(|(train, _)| train)
    }

    /// The held-out test rows.
    pub fn test(&self) -> Result<&Dataset, PipelineError> {
        self.get().map(|(_, test)| test)
    }

    fn get(&self) -> Result<&(Dataset, Dataset), PipelineError> {
        let made = self.split.get_or_init(|| {
            let source = self.source.lock().unwrap_or_else(|e| e.into_inner()).take();
            let data = match source {
                Some(Ok(data)) => data,
                Some(Err(text)) => {
                    let _span = self.obs.span("decode");
                    data_persist::dataset_from_text(&text)?
                }
                // a panic while the split was being made took the source
                None => return Err(PipelineError::fatal("the split's source was lost")),
            };
            let _span = self.obs.span("split");
            train_test_split(&data, self.fraction, self.seed).map_err(PipelineError::from)
        });
        made.as_ref().map_err(Clone::clone)
    }
}

/// Folds the split definition into a stage key.
pub(crate) fn write_split(h: &mut StableHasher, plan: &Plan) {
    h.write_f64(plan.split);
    h.write_u64(plan.seed);
}

/// The hex identity of the training split, derived from what determines
/// it: `H("split", discretized hash, split, seed)`. `technique=none`
/// branches train on the split, and this identity stands for its
/// content in their train keys, the way the identify, remedy and audit
/// keys fold the split in, so no run hashes the split's text.
pub(crate) fn split_id(plan: &Plan, discretized_hash: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str("split");
    h.write_str(discretized_hash);
    write_split(&mut h, plan);
    CacheKey::from_hasher(&h).hex()
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
    split: &LazySplit,
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
            let train_set = split.train()?;
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
/// neighborhood. One execution per branch with a technique. When the
/// remedy is computed rather than replayed, the remedied dataset comes
/// back in place of its artifact text (the output's `text` is empty), so
/// training need not parse the text again.
#[allow(clippy::too_many_arguments)]
pub fn remedy_stage(
    plan: &Plan,
    branch: &str,
    params: &RemedyParams,
    discretized: &StageOutput,
    identify: &StageOutput,
    split: &LazySplit,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<(StageOutput, Option<Dataset>), PipelineError> {
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
    let description = format!("remedy {} tau={}", params.technique, params.tau_c);
    let mut remedied = None;
    let output = run_stage_with(
        cache,
        "remedy",
        Some(branch),
        key,
        force,
        obs,
        || {
            // identify has already run on this split, so a protected set
            // the remedy cannot carry is a failure, not a plan rejection
            let train_set = split.train()?;
            let protected = train_set.schema().protected_indices();
            remedy_core::remedy_over_with(train_set, &protected, params, obs)
                .map(|outcome| outcome.dataset)
                .map_err(|e| PipelineError::fatal(e.to_string()))
        },
        |data| {
            // the artifact streams from the dataset into the cache, so
            // its text is never held whole; training uses the dataset
            let digest = cache.store_streamed("remedy", key, &description, |out| {
                data_persist::write_text(&data, out)
            })?;
            remedied = Some(data);
            Ok((String::new(), digest))
        },
    )?;
    Ok((output, remedied))
}

/// A record for a `technique=none` branch: the remedy stage is skipped
/// and the training input is the unremedied split, whose derived
/// identity (see `split_id`) the record carries as its artifact hash.
pub fn skipped_remedy_record(branch: &str, train_split_id: &str) -> StageRecord {
    StageRecord {
        stage: "remedy",
        branch: Some(branch.to_string()),
        key: "-".into(),
        artifact_hash: train_split_id.to_string(),
        cache_hit: false,
        skipped: true,
        wall_ms: 0.0,
        counters: Vec::new(),
    }
}

/// What a branch trains on: the dataset in memory (a remedy the branch
/// computed), the artifact text a remedy cache hit replayed, or the
/// unremedied training split.
#[derive(Clone, Copy)]
pub enum TrainInput<'a> {
    /// The dataset itself.
    Data(&'a Dataset),
    /// Its canonical text, parsed only if the model must be fitted.
    Text(&'a str),
    /// The training split, made only if the model must be fitted.
    Split(&'a LazySplit),
}

/// Train: fit the branch's model on its training input. The key
/// depends on the input's hash alone (a remedy artifact's content digest,
/// or the split's derived identity), so the model is the same whichever
/// form the input arrives in.
#[allow(clippy::too_many_arguments)]
pub fn train_stage(
    plan: &Plan,
    branch: &str,
    kind: ModelKind,
    train_input: TrainInput<'_>,
    train_input_hash: &str,
    cache: &ArtifactCache,
    force: bool,
    obs: &ObsScope,
) -> Result<StageOutput, PipelineError> {
    let mut h = StableHasher::new();
    h.write_str("train");
    h.write_str(train_input_hash);
    h.write_str(kind.token());
    h.write_u64(plan.seed);
    let key = CacheKey::from_hasher(&h);
    let seed = plan.seed;
    run_stage(
        cache,
        "train",
        Some(branch),
        key,
        force,
        &format!("train {} seed={seed}", kind.token()),
        obs,
        move || match train_input {
            TrainInput::Data(data) => Ok(kind.fit(data, seed).to_text()),
            TrainInput::Text(text) => {
                let data = data_persist::dataset_from_text(text)?;
                Ok(kind.fit(&data, seed).to_text())
            }
            TrainInput::Split(split) => Ok(kind.fit(split.train()?, seed).to_text()),
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
    split: &LazySplit,
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
            let test_set = split.test()?;
            model
                .check_schema(test_set.schema())
                .map_err(|e| PipelineError::corrupt(format!("model artifact: {e}")))?;
            let predictions = model.predict(test_set);
            let acc = accuracy(&predictions, test_set.labels());
            // the index and the unfair list share one explorer, so one
            // exploration serves both
            let explorer = FairnessIndexParams {
                min_support,
                alpha: 0.05,
            }
            .explorer();
            let reports = explorer
                .explore(test_set, &predictions, stat)
                .map_err(|e| PipelineError::invalid_plan(e.to_string()))?;
            Ok(MetricsSummary {
                statistic: stat,
                accuracy: acc,
                fairness_index: index_of(&reports),
                unfair_subgroups: reports.iter().filter(|r| r.is_unfair(tau_d)).count() as u64,
                test_rows: test_set.len() as u64,
            }
            .to_text())
        },
    )
}
