//! Subcommand implementations for the `remedy` CLI.

use crate::args::{Args, CliError};
use remedy_classifiers::persist;
use remedy_classifiers::{
    accuracy, train, LogisticRegression, LogisticRegressionParams, ModelKind, NaiveBayes,
    RandomForest, RandomForestParams,
};
use remedy_classifiers::{DecisionTree, DecisionTreeParams};
use remedy_core::hypothesis::{validate_on_columns, IbsMark};
use remedy_core::{
    remedy as remedy_data, try_identify_over_with, Algorithm, Enumeration, IbsParams, Neighborhood,
    RemedyParams, Scope, Technique,
};
use remedy_dataset::csv::{self, LoadOptions, RawTable};
use remedy_dataset::persist as data_persist;
use remedy_dataset::split::train_test_split;
use remedy_dataset::{store, synth, Dataset, Format};
use remedy_fairness::{
    audit, fairness_index, AuditConfig, Explorer, FairnessIndexParams, Statistic,
};

/// Top-level usage text.
pub const USAGE: &str = "\
remedy — data-driven mitigation of intersectional subgroup unfairness

USAGE:
    remedy <COMMAND> [OPTIONS]

COMMANDS:
    identify   find the Implicit Biased Set of a dataset
    remedy     rewrite a dataset so biased regions match their neighborhood
    audit      train a model and report unfair subgroups
    convert    re-encode a dataset (CSV / exact text / binary columnar)
    pipeline   run a declarative plan as a cached, parallel stage DAG
    pipeline-worker  (internal) scan one dataset shard into mergeable counts
    serve      run a resident fairness service over TCP (line-JSON protocol)
    client     send request lines to a running serve daemon
    cache      manage the pipeline artifact cache (gc)
    report     write a full Markdown fairness audit
    train      train a model (optionally on remedied data) and save it
    describe   profile a dataset (value frequencies, label associations)
    hypothesis validate Hypothesis 1: unfair subgroups vs the IBS (Fig. 3)
    validate   k-fold cross-validation of a model family
    generate   write one of the built-in synthetic datasets to CSV
    help       show this message

Run `remedy <COMMAND> --help` for per-command options.
";

/// Runs a subcommand; returns the process exit code.
pub fn run(command: &str, raw: Vec<String>) -> Result<(), CliError> {
    match command {
        "identify" => cmd_identify(raw),
        "remedy" => cmd_remedy(raw),
        "audit" => cmd_audit(raw),
        "convert" => cmd_convert(raw),
        "pipeline" => cmd_pipeline(raw),
        "pipeline-worker" => cmd_pipeline_worker(raw),
        "serve" => cmd_serve(raw),
        "client" => cmd_client(raw),
        "cache" => cmd_cache(raw),
        "report" => cmd_report(raw),
        "train" => cmd_train(raw),
        "describe" => cmd_describe(raw),
        "hypothesis" => cmd_hypothesis(raw),
        "validate" => cmd_validate(raw),
        "generate" => cmd_generate(raw),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

const DATA_OPTS: [&str; 8] = [
    "label",
    "protected",
    "positive",
    "bins",
    "arity",
    "rows",
    "format",
    "help",
];

/// Loads a dataset from a file path or a built-in generator name, honoring
/// the subcommand's `--format` flag.
fn load_input(args: &Args) -> Result<Dataset, CliError> {
    load_input_as(args, args.get("format").unwrap_or("auto"))
}

/// Loads a dataset with an explicit input-format policy: `auto` sniffs
/// dataset artifacts (binary columnar or exact text) by magic and falls
/// back to CSV; `binary`/`text`/`csv` demand that encoding.
fn load_input_as(args: &Args, format: &str) -> Result<Dataset, CliError> {
    let source = args.positional(0).ok_or_else(|| {
        CliError("expected a dataset path or dataset name (adult|compas|law|wide)".into())
    })?;
    match source {
        "adult" => return Ok(synth::adult(42)),
        "compas" => return Ok(synth::compas(42)),
        "law" => return Ok(synth::law_school(42)),
        // wide protected sets for enumeration-scalability runs; past 16
        // attributes only the support-pruned mode can serve these
        "wide" => {
            let rows = args.get_parsed("rows", 10_000usize)?;
            let arity = args.get_parsed("arity", 20usize)?;
            if !(1..=32).contains(&arity) {
                return Err(CliError("--arity must be in 1..=32".into()));
            }
            return Ok(synth::wide_n(rows, arity, 42));
        }
        _ => {}
    }
    let bytes =
        std::fs::read(source).map_err(|e| CliError(format!("cannot read {source}: {e}")))?;
    let sniffed = store::sniff(&bytes);
    match format {
        "auto" if sniffed.is_some() => {
            return store::from_bytes_unpacked(&bytes)
                .map(|stored| stored.data)
                .map_err(|e| CliError(format!("{source}: {e}")))
        }
        "auto" | "csv" => {} // fall through to the CSV reader
        "binary" => {
            if sniffed != Some(Format::Binary) {
                return Err(CliError(format!(
                    "{source} is not a remedy-columnar artifact (--format binary)"
                )));
            }
            return store::from_bytes_unpacked(&bytes)
                .map(|stored| stored.data)
                .map_err(|e| CliError(format!("{source}: {e}")));
        }
        "text" => {
            if sniffed != Some(Format::Text) {
                return Err(CliError(format!(
                    "{source} is not a remedy-dataset text artifact (--format text)"
                )));
            }
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| CliError(format!("{source} is not UTF-8 text")))?;
            return data_persist::dataset_from_text(text)
                .map_err(|e| CliError(format!("{source}: {e}")));
        }
        other => {
            return Err(CliError(format!(
                "--format: `{other}` is not auto|text|binary|csv"
            )))
        }
    }
    let label = args.require("label")?;
    let protected = args.get_list("protected");
    if protected.is_empty() {
        return Err(CliError("CSV input needs --protected attr1,attr2,…".into()));
    }
    let text =
        String::from_utf8(bytes).map_err(|_| CliError(format!("{source} is not UTF-8 text")))?;
    let table = RawTable::parse_str(&text).map_err(|e| CliError(e.to_string()))?;
    let mut opts = LoadOptions::new(label);
    opts.protected = protected;
    opts.positive_value = args.get("positive").map(String::from);
    opts.numeric_bins = args.get_parsed("bins", 4usize)?;
    table.to_dataset(&opts).map_err(|e| CliError(e.to_string()))
}

fn ibs_params(args: &Args) -> Result<IbsParams, CliError> {
    IbsParams::builder()
        .tau_c(args.get_parsed("tau", 0.1)?)
        .min_size(args.get_parsed("min-size", 30u64)?)
        .neighborhood(parse_neighborhood(args)?)
        .scope(parse_scope(args)?)
        .enumeration(parse_enumeration(args))
        .build()
        .map_err(|e| CliError(e.to_string()))
}

/// `--pruned` selects the support-pruned lattice enumeration.
fn parse_enumeration(args: &Args) -> Enumeration {
    if args.flag("pruned") {
        Enumeration::Pruned
    } else {
        Enumeration::Dense
    }
}

/// `--model dt|rf|lg|nn` (default `dt`).
fn parse_model(args: &Args) -> Result<ModelKind, CliError> {
    match args.get("model").unwrap_or("dt") {
        "dt" => Ok(ModelKind::DecisionTree),
        "rf" => Ok(ModelKind::RandomForest),
        "lg" => Ok(ModelKind::LogisticRegression),
        "nn" => Ok(ModelKind::NeuralNetwork),
        other => Err(CliError(format!("--model: unknown `{other}`"))),
    }
}

/// The recorder `--trace <path>` streams to, or `otherwise()` without
/// the option.
fn trace_recorder(
    args: &Args,
    otherwise: fn() -> remedy_obs::Recorder,
) -> Result<remedy_obs::Recorder, CliError> {
    match args.get("trace") {
        Some(path) => remedy_obs::Recorder::to_path(path)
            .map_err(|e| CliError(format!("cannot open trace {path}: {e}"))),
        None => Ok(otherwise()),
    }
}

fn parse_neighborhood(args: &Args) -> Result<Neighborhood, CliError> {
    match args.get("neighborhood").unwrap_or("unit") {
        "unit" | "1" => Ok(Neighborhood::Unit),
        "full" => Ok(Neighborhood::Full),
        other => other
            .parse::<f64>()
            .map(Neighborhood::OrderedRadius)
            .map_err(|_| {
                CliError(format!(
                    "--neighborhood: `{other}` is not unit|full|<radius>"
                ))
            }),
    }
}

fn parse_scope(args: &Args) -> Result<Scope, CliError> {
    match args.get("scope").unwrap_or("lattice") {
        "lattice" => Ok(Scope::Lattice),
        "leaf" => Ok(Scope::Leaf),
        "top" => Ok(Scope::Top),
        other => Err(CliError(format!(
            "--scope: `{other}` is not lattice|leaf|top"
        ))),
    }
}

fn parse_technique(args: &Args) -> Result<Technique, CliError> {
    match args.get("technique").unwrap_or("ps") {
        "ps" | "preferential" => Ok(Technique::PreferentialSampling),
        "us" | "undersample" => Ok(Technique::Undersampling),
        "dp" | "oversample" => Ok(Technique::Oversampling),
        "massage" | "massaging" => Ok(Technique::Massaging),
        other => Err(CliError(format!(
            "--technique: `{other}` is not ps|us|dp|massage"
        ))),
    }
}

fn cmd_identify(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy identify <csv|adult|compas|law|wide> [--label Y --protected a,b] \
             [--tau 0.1] [--min-size 30] [--neighborhood unit|full|<radius>] \
             [--scope lattice|leaf|top] [--pruned] [--top 20] [--trace trace.jsonl]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend([
        "tau",
        "min-size",
        "neighborhood",
        "scope",
        "pruned",
        "top",
        "trace",
    ]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let params = ibs_params(&args)?;
    let recorder = trace_recorder(&args, remedy_obs::Recorder::disabled)?;
    let obs = recorder.scope("identify");
    let protected = data.schema().protected_indices();
    let ibs = try_identify_over_with(&data, &protected, &params, Algorithm::Optimized, &obs)
        .map_err(|e| CliError(e.to_string()))?;
    recorder.finish();
    let top = args.get_parsed("top", 20usize)?;
    println!(
        "{} biased regions (τ_c = {}, k = {}, {}, scope {})",
        ibs.len(),
        params.tau_c,
        params.min_size,
        params.neighborhood.name(),
        params.scope
    );
    let mut by_gap = ibs;
    by_gap.sort_by(|a, b| b.gap().partial_cmp(&a.gap()).unwrap());
    for region in by_gap.iter().take(top) {
        println!(
            "  {}  |r|={} ratio_r={:.3} ratio_rn={:.3}",
            region.pattern.display(data.schema()),
            region.counts.total(),
            region.ratio,
            region.neighbor_ratio
        );
    }
    Ok(())
}

fn cmd_remedy(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy remedy <csv|adult|compas|law> --out fixed.csv \
             [--label Y --protected a,b] [--technique ps|us|dp|massage] \
             [--tau 0.1] [--min-size 30] [--neighborhood unit|full|<radius>] \
             [--scope lattice|leaf|top] [--pruned] [--seed 42]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend([
        "tau",
        "min-size",
        "neighborhood",
        "scope",
        "pruned",
        "technique",
        "seed",
        "out",
    ]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let out_path = args.require("out")?.to_string();
    let params = RemedyParams::builder()
        .technique(parse_technique(&args)?)
        .tau_c(args.get_parsed("tau", 0.1)?)
        .min_size(args.get_parsed("min-size", 30u64)?)
        .neighborhood(parse_neighborhood(&args)?)
        .scope(parse_scope(&args)?)
        .seed(args.get_parsed("seed", 42u64)?)
        .enumeration(parse_enumeration(&args))
        .build()
        .map_err(|e| CliError(e.to_string()))?;
    let outcome = remedy_data(&data, &params);
    csv::write_path(&outcome.dataset, &out_path).map_err(|e| CliError(e.to_string()))?;
    println!(
        "remedied {} regions with {}; {} → {} rows; wrote {}",
        outcome.updates.len(),
        params.technique,
        data.len(),
        outcome.dataset.len(),
        out_path
    );
    Ok(())
}

fn cmd_audit(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy audit <csv|adult|compas|law> [--label Y --protected a,b] \
             [--model dt|rf|lg|nn] [--stat fpr|fnr|acc|sel] [--tau-d 0.1] \
             [--min-support 0.05] [--seed 42] [--remedied] "
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend([
        "model",
        "stat",
        "tau-d",
        "min-support",
        "seed",
        "remedied",
        "technique",
        "tau",
    ]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let (mut train_set, test_set) =
        train_test_split(&data, 0.7, seed).map_err(|e| CliError(e.to_string()))?;
    if args.flag("remedied") {
        let params = RemedyParams::builder()
            .technique(parse_technique(&args)?)
            .tau_c(args.get_parsed("tau", 0.1)?)
            .seed(seed)
            .build()
            .map_err(|e| CliError(e.to_string()))?;
        train_set = remedy_data(&train_set, &params).dataset;
    }
    let model_kind = parse_model(&args)?;
    let stat = match args.get("stat").unwrap_or("fpr") {
        "fpr" => Statistic::Fpr,
        "fnr" => Statistic::Fnr,
        "acc" => Statistic::Accuracy,
        "sel" => Statistic::SelectionRate,
        other => return Err(CliError(format!("--stat: unknown `{other}`"))),
    };
    let model = train(model_kind, &train_set, seed);
    let predictions = model.predict(&test_set);
    let acc = accuracy(&predictions, test_set.labels());
    let fi = fairness_index(
        &test_set,
        &predictions,
        stat,
        &FairnessIndexParams::default(),
    );
    println!("model {model_kind}: accuracy {acc:.3}, fairness index ({stat}) {fi:.3}\n");
    let explorer = Explorer {
        min_support: args.get_parsed("min-support", 0.05)?,
        min_size: 30,
        alpha: 0.05,
        max_level: None,
        columns: None,
    };
    let tau_d = args.get_parsed("tau-d", 0.1)?;
    let unfair = explorer.unfair_subgroups(&test_set, &predictions, stat, tau_d);
    println!(
        "{} unfair subgroups (Δγ > {tau_d}, significant):",
        unfair.len()
    );
    for report in unfair.iter().take(20) {
        println!(
            "  {}  Δ{}={:.3} γ_g={:.3} support={:.2}",
            report.pattern.display(test_set.schema()),
            stat,
            report.divergence,
            report.gamma,
            report.support
        );
    }
    Ok(())
}

fn cmd_convert(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy convert <in> <out> [--format text|binary|csv] \
             [--label Y --protected a,b] [--positive v] [--bins 4]\n\n\
             Re-encodes a dataset. The input format is sniffed by magic:\n\
             remedy-columnar binary, remedy-dataset exact text, else CSV\n\
             (CSV needs --label/--protected). The default output format is\n\
             binary — the zero-copy columnar store with precomputed region\n\
             keys. text↔binary conversion is lossless and byte-exact."
        );
        return Ok(());
    }
    args.check_known(&DATA_OPTS)?;
    // the input encoding is always sniffed here; `--format` names the
    // *output* encoding for this subcommand
    let data = load_input_as(&args, "auto")?;
    let out = args
        .positional(1)
        .ok_or_else(|| CliError("convert needs an output path".into()))?;
    let format = args.get("format").unwrap_or("binary");
    match format {
        "csv" => csv::write_path(&data, out).map_err(|e| CliError(e.to_string()))?,
        _ => {
            let fmt = Format::parse(format)
                .ok_or_else(|| CliError(format!("--format: `{format}` is not text|binary|csv")))?;
            store::save(&data, out, fmt).map_err(|e| CliError(e.to_string()))?;
        }
    }
    println!(
        "wrote {} rows × {} attributes to {out} as {format}",
        data.len(),
        data.schema().len()
    );
    Ok(())
}

fn cmd_pipeline(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy pipeline <plan-file> [--cache .remedy-cache] [--threads N] \
             [--shards N] [--out run.json] [--trace trace.jsonl] [--force] \
             [--retries N] [--retry-base-ms MS] [--resume run.json]\n\n\
             --retries/--retry-base-ms retry transient cache I/O with seeded,\n\
             jittered exponential backoff. --resume validates a prior run's\n\
             manifest and replays its completed stages from the cache,\n\
             re-executing only unfinished ones. With --out, the manifest is\n\
             flushed incrementally so a killed run can always be resumed.\n\n\
             --shards N partitions the training split stratified by protected\n\
             key and fans the counting scan out over N `remedy pipeline-worker`\n\
             subprocesses, merging their counts before identification — results\n\
             and cache digests are byte-identical to --shards 1. With\n\
             --threads T each worker scans with max(1, T / N) threads, so\n\
             --shards and --threads never oversubscribe the machine; worker\n\
             deaths are retried per shard under --retries.\n\n\
             Plan files are line-oriented `key value` pairs plus one line per\n\
             branch, e.g.:\n\n    \
             dataset compas\n    \
             rows 2000\n    \
             seed 42\n    \
             tau 0.1\n    \
             branch base technique=none model=dt\n    \
             branch ps technique=ps model=dt"
        );
        return Ok(());
    }
    args.check_known(&[
        "cache",
        "threads",
        "shards",
        "worker-exec",
        "out",
        "trace",
        "force",
        "retries",
        "retry-base-ms",
        "resume",
        "help",
    ])?;
    let plan_path = args.positional(0).unwrap();
    let plan = remedy_pipeline::Plan::from_path(plan_path).map_err(|e| CliError(e.to_string()))?;
    let shards = args.get_parsed("shards", 1usize)?;
    if shards == 0 || shards > 256 {
        return Err(CliError(format!(
            "--shards must be between 1 and 256, got {shards}"
        )));
    }
    let options = remedy_pipeline::PipelineOptions {
        cache_dir: args.get("cache").unwrap_or(".remedy-cache").into(),
        threads: args.get_parsed("threads", 0usize)?,
        force: args.flag("force"),
        trace: args.get("trace").map(Into::into),
        // the plan's master seed also seeds the backoff jitter, so two
        // runs of one plan sleep the same deterministic schedule
        retry: remedy_pipeline::RetryPolicy::new(
            args.get_parsed("retries", 0u32)?,
            args.get_parsed("retry-base-ms", 50u64)?,
            plan.seed,
        ),
        manifest_out: args.get("out").map(Into::into),
        resume: args.get("resume").map(Into::into),
        shards,
        // shard workers re-invoke this same binary as `pipeline-worker`;
        // --worker-exec overrides the executable (used by tests and when
        // the parent is not the installed `remedy` binary)
        worker: remedy_pipeline::WorkerMode::Subprocess(args.get("worker-exec").map(Into::into)),
    };
    let manifest = remedy_pipeline::run(&plan, &options).map_err(|e| CliError(e.to_string()))?;
    for stage in &manifest.stages {
        let status = if stage.skipped {
            "skipped"
        } else if stage.cache_hit {
            "cached"
        } else {
            "computed"
        };
        let branch = stage
            .branch
            .as_deref()
            .map(|b| format!("{b}/"))
            .unwrap_or_default();
        println!(
            "{status:>8}  {branch}{} ({:.2} ms)",
            stage.stage, stage.wall_ms
        );
    }
    println!();
    for branch in &manifest.branches {
        println!(
            "{}: {} + {} → accuracy {:.3}, fairness index ({}) {:.3}, \
             {} unfair subgroups",
            branch.name,
            branch.technique,
            branch.model,
            branch.metrics.accuracy,
            branch.metrics.statistic.name(),
            branch.metrics.fairness_index,
            branch.metrics.unfair_subgroups
        );
    }
    for failure in &manifest.failures {
        println!(
            "{}: FAILED [{}] {}",
            failure.name,
            failure.kind.name(),
            failure.error
        );
    }
    if let Some(out) = args.get("out") {
        // the engine already flushed the manifest there incrementally and
        // wrote the final one atomically
        println!("\nwrote manifest to {out}");
    }
    if manifest.status != remedy_pipeline::RunStatus::Ok {
        return Err(CliError(format!(
            "run status `{}`: {} of {} branches failed",
            manifest.status.name(),
            manifest.failures.len(),
            manifest.failures.len() + manifest.branches.len()
        )));
    }
    Ok(())
}

/// Internal entry point spawned by `remedy pipeline --shards N`: scan one
/// cached dataset shard into a mergeable-counts artifact.
///
/// Exit codes form the supervision protocol: 0 means the count artifact is
/// in the cache, [`remedy_pipeline::WORKER_EXIT_FATAL`] (2) means the input
/// is unusable and the parent must not retry, and any other death (exit 1,
/// kill, signal) is treated as transient and retried under the parent's
/// retry policy.
fn cmd_pipeline_worker(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") {
        println!(
            "remedy pipeline-worker --cache DIR --shard-key HEX --count-key HEX \
             [--threads N] [--force]\n\n\
             Internal subcommand spawned by `remedy pipeline --shards N`.\n\
             Reads the shard artifact at --shard-key from the cache, scans it\n\
             into protected-subgroup counts with --threads threads, and stores\n\
             the result under --count-key. Exits 0 on success, 2 on a fatal\n\
             (non-retryable) error; anything else is retried by the parent."
        );
        return Ok(());
    }
    args.check_known(&[
        "cache",
        "shard-key",
        "count-key",
        "threads",
        "force",
        "help",
    ])?;
    let parse_key = |name: &str| -> Result<remedy_pipeline::CacheKey, CliError> {
        let hex = args.require(name)?;
        u128::from_str_radix(hex, 16)
            .map(remedy_pipeline::CacheKey)
            .map_err(|e| CliError(format!("--{name} `{hex}` is not a 128-bit hex key: {e}")))
    };
    let run = || -> Result<(), remedy_pipeline::PipelineError> {
        let shard = parse_key("shard-key")
            .map_err(|e| remedy_pipeline::PipelineError::invalid_plan(e.0))?;
        let count = parse_key("count-key")
            .map_err(|e| remedy_pipeline::PipelineError::invalid_plan(e.0))?;
        let threads = args
            .get_parsed("threads", 1usize)
            .map_err(|e| remedy_pipeline::PipelineError::invalid_plan(e.0))?;
        let dir = args
            .require("cache")
            .map_err(|e| remedy_pipeline::PipelineError::invalid_plan(e.0))?;
        let cache = remedy_pipeline::ArtifactCache::open(dir)?;
        remedy_pipeline::worker_body(&cache, shard, count, threads, args.flag("force"))
    };
    match run() {
        Ok(()) => Ok(()),
        // transient → plain error (exit 1): the parent retries the shard
        Err(e) if e.kind() == remedy_pipeline::ErrorKind::Transient => Err(CliError(e.to_string())),
        // everything else is a protocol/input error retrying cannot fix
        Err(e) => {
            eprintln!("pipeline-worker: {e}");
            std::process::exit(remedy_pipeline::WORKER_EXIT_FATAL);
        }
    }
}

fn cmd_serve(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") {
        println!(
            "remedy serve [--addr 127.0.0.1:7878] [--deadline-ms 0] \
             [--data-dir DIR] [--snapshot-every 64] [--wal-backlog 1024] \
             [--max-conns 0] [--drain-ms 2000] [--trace trace.jsonl]\n\n\
             Long-lived daemon holding named datasets with maintained region\n\
             indexes in memory, answering line-delimited JSON over TCP (ops:\n\
             load|ingest|identify|audit|remedy|stats|shutdown). Port 0 picks\n\
             an ephemeral port; the bound address is printed on startup.\n\
             Drive it with `remedy client`.\n\n\
             With --data-dir, sessions are durable: every accepted edit batch\n\
             is fsync'd to a per-session WAL before it is acknowledged, the\n\
             dataset is checkpointed as a columnar snapshot every\n\
             --snapshot-every batches, and on restart every session under the\n\
             directory is recovered (snapshot + WAL replay) before the daemon\n\
             accepts. --max-conns and --wal-backlog shed load with a typed\n\
             transient `overloaded` error instead of stalling."
        );
        return Ok(());
    }
    args.check_known(&[
        "addr",
        "deadline-ms",
        "data-dir",
        "snapshot-every",
        "wal-backlog",
        "max-conns",
        "drain-ms",
        "trace",
        "help",
    ])?;
    let recorder = trace_recorder(&args, remedy_obs::Recorder::enabled)?;
    let defaults = remedy_serve::ServeOptions::default();
    let options = remedy_serve::ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        deadline_ms: args.get_parsed("deadline-ms", 0u64)?,
        data_dir: args.get("data-dir").map(std::path::PathBuf::from),
        snapshot_every: args.get_parsed("snapshot-every", defaults.snapshot_every)?,
        wal_backlog: args.get_parsed("wal-backlog", defaults.wal_backlog)?,
        max_conns: args.get_parsed("max-conns", defaults.max_conns)?,
        drain_ms: args.get_parsed("drain-ms", defaults.drain_ms)?,
        recorder: recorder.clone(),
    };
    let server =
        remedy_serve::Server::bind(options).map_err(|e| CliError(format!("cannot bind: {e}")))?;
    println!("remedy-serve listening on {}", server.local_addr());
    // stdout is block-buffered when piped; scripts wait for this line
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let result = server.run();
    recorder.finish();
    result.map_err(|e| CliError(e.to_string()))
}

fn cmd_client(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy client <addr> <request-json> [<request-json> …]\n\n\
             Sends each request line to a running `remedy serve` over one\n\
             connection and prints one response line per request. Exits\n\
             nonzero if any response reports an error."
        );
        return Ok(());
    }
    args.check_known(&["help"])?;
    let addr = args.positional(0).unwrap();
    // a freshly exec'd daemon may not be accepting yet: retry the
    // connect with the pipeline's bounded deterministic backoff
    let policy = remedy_pipeline::RetryPolicy::new(5, 20, 42);
    let mut client = remedy_serve::Client::connect_with_retry(addr, &policy)
        .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    let mut failed = 0usize;
    for i in 1..args.positional_count() {
        let request = args.positional(i).unwrap();
        let response = client
            .request_line(request)
            .map_err(|e| CliError(e.to_string()))?;
        println!("{response}");
        if !response.starts_with("{\"ok\":true") {
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(CliError(format!("{failed} request(s) failed")));
    }
    Ok(())
}

/// Parses a human byte size: a plain number, or one with a `k`/`m`/`g`
/// suffix (powers of 1024).
fn parse_bytes(text: &str) -> Result<u64, CliError> {
    let lower = text.to_ascii_lowercase();
    let (digits, multiplier) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) if lower.ends_with('k') => (d, 1024u64),
        Some(d) if lower.ends_with('m') => (d, 1024 * 1024),
        Some(d) => (d, 1024 * 1024 * 1024),
        None => (lower.as_str(), 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .map(|n| n * multiplier)
        .map_err(|_| {
            CliError(format!(
                "--max-bytes: `{text}` is not a byte size (e.g. 500m)"
            ))
        })
}

fn cmd_cache(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    let action = args.positional(0);
    if args.flag("help") || action.is_none() {
        println!(
            "remedy cache gc [--cache .remedy-cache] [--max-bytes 500m] \
             [--max-age-secs 604800] [--trace trace.jsonl]\n\n\
             Deletes orphaned staging dirs, entries unused for longer than\n\
             --max-age-secs, and (oldest-replay first) enough entries to fit\n\
             the --max-bytes budget."
        );
        return Ok(());
    }
    if action != Some("gc") {
        return Err(CliError(format!(
            "cache: unknown action `{}` (expected `gc`)",
            action.unwrap()
        )));
    }
    args.check_known(&["cache", "max-bytes", "max-age-secs", "trace", "help"])?;
    let recorder = trace_recorder(&args, remedy_obs::Recorder::disabled)?;
    let cache = remedy_pipeline::ArtifactCache::open(args.get("cache").unwrap_or(".remedy-cache"))
        .map_err(|e| CliError(e.to_string()))?
        .with_obs(recorder.scope("cache"));
    let policy = remedy_pipeline::GcPolicy {
        max_bytes: args.get("max-bytes").map(parse_bytes).transpose()?,
        max_age: args
            .get("max-age-secs")
            .map(|s| {
                s.parse::<u64>()
                    .map(std::time::Duration::from_secs)
                    .map_err(|_| CliError(format!("--max-age-secs: `{s}` is not a number")))
            })
            .transpose()?,
    };
    let stats = cache.gc(&policy).map_err(|e| CliError(e.to_string()))?;
    recorder.finish();
    println!(
        "swept {}: removed {} of {} entries ({} bytes) and {} staging dirs; \
         {} entries ({} bytes) live",
        cache.root().display(),
        stats.entries_removed,
        stats.entries_scanned,
        stats.bytes_removed,
        stats.tmp_dirs_removed,
        stats.live_entries,
        stats.live_bytes
    );
    Ok(())
}

fn cmd_report(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy report <csv|adult|compas|law> [--label Y --protected a,b] \
             [--model dt|rf|lg|nn] [--tau-d 0.1] [--min-support 0.05] \
             [--top 10] [--seed 42] [--out report.md]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend(["model", "tau-d", "min-support", "top", "seed", "out"]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let (train_set, test_set) =
        train_test_split(&data, 0.7, seed).map_err(|e| CliError(e.to_string()))?;
    let model_kind = parse_model(&args)?;
    let model = train(model_kind, &train_set, seed);
    let predictions = model.predict(&test_set);
    let config = AuditConfig {
        tau_d: args.get_parsed("tau-d", 0.1)?,
        min_support: args.get_parsed("min-support", 0.05)?,
        top_k: args.get_parsed("top", 10usize)?,
        ..AuditConfig::default()
    };
    let report = audit(&test_set, &predictions, &config);
    match args.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, report.to_string()).map_err(|e| CliError(e.to_string()))?;
            println!("wrote audit to {path}");
        }
        _ => print!("{report}"),
    }
    Ok(())
}

fn cmd_train(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy train <csv|adult|compas|law> --out model.txt \
             [--label Y --protected a,b] [--model dt|rf|lg|nb] [--remedied] \
             [--technique ps|us|dp|massage] [--tau 0.1] [--seed 42]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend(["model", "out", "remedied", "technique", "tau", "seed"]);
    args.check_known(&known)?;
    let mut data = load_input(&args)?;
    let seed = args.get_parsed("seed", 42u64)?;
    if args.flag("remedied") {
        let params = RemedyParams::builder()
            .technique(parse_technique(&args)?)
            .tau_c(args.get_parsed("tau", 0.1)?)
            .seed(seed)
            .build()
            .map_err(|e| CliError(e.to_string()))?;
        data = remedy_data(&data, &params).dataset;
    }
    let out = args.require("out")?;
    let text = match args.get("model").unwrap_or("dt") {
        "dt" => persist::tree_to_text(&DecisionTree::fit(&data, &DecisionTreeParams::default())),
        "rf" => persist::forest_to_text(&RandomForest::fit(
            &data,
            &RandomForestParams::default(),
            seed,
        )),
        "lg" => persist::logistic_to_text(&LogisticRegression::fit(
            &data,
            &LogisticRegressionParams::default(),
        )),
        "nb" => persist::naive_bayes_to_text(&NaiveBayes::fit(&data)),
        other => {
            return Err(CliError(format!(
                "--model: `{other}` is not dt|rf|lg|nb (MLP is seed-reproducible, retrain instead)"
            )))
        }
    };
    persist::save_to_path(&text, out).map_err(|e| CliError(e.to_string()))?;
    println!("trained on {} rows; saved model to {out}", data.len());
    Ok(())
}

fn cmd_describe(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!("remedy describe <csv|adult|compas|law> [--label Y --protected a,b]");
        return Ok(());
    }
    args.check_known(&DATA_OPTS)?;
    let data = load_input(&args)?;
    print!("{}", remedy_dataset::profile(&data));
    Ok(())
}

fn cmd_hypothesis(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy hypothesis <csv|adult|compas|law> [--label Y --protected a,b] \
             [--model dt|rf|lg|nn] [--stat fpr|fnr] [--tau 0.1] [--tau-d 0.1] \
             [--all-attrs] [--seed 42]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend(["model", "stat", "tau", "tau-d", "all-attrs", "seed"]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let (train_set, test_set) =
        train_test_split(&data, 0.7, seed).map_err(|e| CliError(e.to_string()))?;
    let columns: Vec<usize> = if args.flag("all-attrs") {
        (0..data.schema().len()).collect()
    } else {
        data.schema().protected_indices()
    };
    let kind = parse_model(&args)?;
    let stat = match args.get("stat").unwrap_or("fpr") {
        "fpr" => Statistic::Fpr,
        "fnr" => Statistic::Fnr,
        other => return Err(CliError(format!("--stat: `{other}` is not fpr|fnr"))),
    };
    let params = IbsParams::builder()
        .tau_c(args.get_parsed("tau", 0.1)?)
        .build()
        .map_err(|e| CliError(e.to_string()))?;
    let model = train(kind, &train_set, seed);
    let predictions = model.predict(&test_set);
    let validation = validate_on_columns(
        &train_set,
        &test_set,
        &predictions,
        stat,
        &params,
        args.get_parsed("tau-d", 0.1)?,
        &columns,
    );
    println!(
        "{}/{} unfair subgroups (γ = {stat}, model {kind}) are explained by the IBS",
        validation.explained(),
        validation.total()
    );
    for s in validation.subgroups.iter().take(15) {
        let mark = match s.mark {
            IbsMark::InIbs => "in IBS",
            IbsMark::DominatesIbs => "dominates IBS",
            IbsMark::Unexplained => "UNEXPLAINED",
        };
        println!(
            "  {}  Δγ={:.3}  {}",
            s.report.pattern.display(test_set.schema()),
            s.report.divergence,
            mark
        );
    }
    Ok(())
}

fn cmd_validate(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy validate <csv|adult|compas|law> [--label Y --protected a,b] \
             [--model dt|rf|lg|nn] [--folds 5] [--seed 42]"
        );
        return Ok(());
    }
    let mut known = DATA_OPTS.to_vec();
    known.extend(["model", "folds", "seed"]);
    args.check_known(&known)?;
    let data = load_input(&args)?;
    let kind = parse_model(&args)?;
    let folds = args.get_parsed("folds", 5usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let result = remedy_classifiers::cross_validate(&data, kind, folds, seed);
    println!(
        "{kind} {folds}-fold accuracy: {:.3} ± {:.3}",
        result.mean(),
        result.std_dev()
    );
    for (i, acc) in result.fold_accuracy.iter().enumerate() {
        println!("  fold {i}: {acc:.3}");
    }
    Ok(())
}

fn cmd_generate(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if args.flag("help") || args.positional_count() == 0 {
        println!(
            "remedy generate <adult|compas|law|wide> --out data.csv [--rows N] \
             [--arity 20] [--seed 42] [--format csv|text|binary]"
        );
        return Ok(());
    }
    args.check_known(&["out", "rows", "arity", "seed", "format", "help"])?;
    let name = args.positional(0).unwrap();
    let seed = args.get_parsed("seed", 42u64)?;
    let rows = args.get_parsed("rows", 0usize)?;
    let data = match (name, rows) {
        ("adult", 0) => synth::adult(seed),
        ("adult", n) => synth::adult_n(n, seed),
        ("compas", 0) => synth::compas(seed),
        ("compas", n) => synth::compas_n(n, seed),
        ("law", 0) => synth::law_school(seed),
        ("law", n) => synth::law_school_n(n, seed),
        ("wide", n) => {
            let arity = args.get_parsed("arity", 20usize)?;
            if !(1..=32).contains(&arity) {
                return Err(CliError("--arity must be in 1..=32".into()));
            }
            synth::wide_n(if n == 0 { 10_000 } else { n }, arity, seed)
        }
        _ => return Err(CliError(format!("unknown dataset `{name}`"))),
    };
    let out_path = args.require("out")?;
    let format = args.get("format").unwrap_or("csv");
    match format {
        "csv" => csv::write_path(&data, out_path).map_err(|e| CliError(e.to_string()))?,
        _ => {
            let fmt = Format::parse(format)
                .ok_or_else(|| CliError(format!("--format: `{format}` is not csv|text|binary")))?;
            store::save(&data, out_path, fmt).map_err(|e| CliError(e.to_string()))?;
        }
    }
    println!("wrote {} rows to {out_path} as {format}", data.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parsers_accept_aliases() {
        assert_eq!(
            parse_technique(&args(&["--technique", "massage"])).unwrap(),
            Technique::Massaging
        );
        assert_eq!(
            parse_scope(&args(&["--scope", "leaf"])).unwrap(),
            Scope::Leaf
        );
        assert_eq!(
            parse_neighborhood(&args(&["--neighborhood", "full"])).unwrap(),
            Neighborhood::Full
        );
        assert_eq!(
            parse_neighborhood(&args(&["--neighborhood", "1.5"])).unwrap(),
            Neighborhood::OrderedRadius(1.5)
        );
    }

    #[test]
    fn parsers_reject_garbage() {
        assert!(parse_technique(&args(&["--technique", "x"])).is_err());
        assert!(parse_scope(&args(&["--scope", "x"])).is_err());
        assert!(parse_neighborhood(&args(&["--neighborhood", "x"])).is_err());
    }

    #[test]
    fn builtin_datasets_load() {
        let a = args(&["compas"]);
        let d = load_input(&a).unwrap();
        assert_eq!(d.len(), 6_172);
        // CSV path without --label errors cleanly
        let bad = args(&["file.csv"]);
        assert!(load_input(&bad).is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = run("frobnicate", vec![]).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn generate_and_identify_roundtrip() {
        let dir = std::env::temp_dir().join("remedy_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("tiny.csv");
        run(
            "generate",
            vec![
                "compas".into(),
                "--out".into(),
                out.to_string_lossy().into_owned(),
                "--rows".into(),
                "500".into(),
            ],
        )
        .unwrap();
        assert!(out.exists());
        run(
            "identify",
            vec![
                out.to_string_lossy().into_owned(),
                "--label".into(),
                "recid".into(),
                "--protected".into(),
                "age,race,sex".into(),
            ],
        )
        .unwrap();
    }

    #[test]
    fn convert_roundtrips_all_encodings() {
        let dir = std::env::temp_dir().join("remedy_cli_convert");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = synth::compas_n(400, 11);
        let text_path = dir.join("data.txt");
        data_persist::save_dataset(&data, &text_path).unwrap();

        // text → binary (the default output format)
        let bin_path = dir.join("data.bin");
        run(
            "convert",
            vec![
                text_path.to_string_lossy().into_owned(),
                bin_path.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        let loaded = Dataset::open(&bin_path).unwrap();
        assert_eq!(
            data_persist::dataset_to_text(&loaded),
            data_persist::dataset_to_text(&data)
        );

        // dataset artifacts are sniffed by every load-bearing subcommand:
        // identify runs off the binary file with no --label/--protected
        run("identify", vec![bin_path.to_string_lossy().into_owned()]).unwrap();

        // binary → text reproduces the original file byte-for-byte
        let back_path = dir.join("back.txt");
        run(
            "convert",
            vec![
                bin_path.to_string_lossy().into_owned(),
                back_path.to_string_lossy().into_owned(),
                "--format".into(),
                "text".into(),
            ],
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&text_path).unwrap(),
            std::fs::read(&back_path).unwrap()
        );

        // binary → csv → binary (CSV re-ingest needs the schema flags)
        let csv_path = dir.join("data.csv");
        run(
            "convert",
            vec![
                bin_path.to_string_lossy().into_owned(),
                csv_path.to_string_lossy().into_owned(),
                "--format".into(),
                "csv".into(),
            ],
        )
        .unwrap();
        run(
            "convert",
            vec![
                csv_path.to_string_lossy().into_owned(),
                dir.join("from_csv.bin").to_string_lossy().into_owned(),
                "--label".into(),
                "recid".into(),
                "--protected".into(),
                "age,race,sex".into(),
            ],
        )
        .unwrap();

        // a missing output path is a clean error
        assert!(run("convert", vec![text_path.to_string_lossy().into_owned()]).is_err());
    }

    #[test]
    fn generate_writes_binary_artifacts() {
        let dir = std::env::temp_dir().join("remedy_cli_generate_bin");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("wide.bin");
        run(
            "generate",
            vec![
                "wide".into(),
                "--rows".into(),
                "500".into(),
                "--arity".into(),
                "18".into(),
                "--format".into(),
                "binary".into(),
                "--out".into(),
                out.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        let data = Dataset::open(&out).unwrap();
        assert_eq!(data.len(), 500);
        assert_eq!(data.schema().protected_indices().len(), 18);
        // past the dense ceiling, identify needs --pruned even from a file
        let path = out.to_string_lossy().into_owned();
        assert!(run("identify", vec![path.clone()]).is_err());
        run("identify", vec![path, "--pruned".into()]).unwrap();
    }

    #[test]
    fn format_flag_polices_input_encoding() {
        let dir = std::env::temp_dir().join("remedy_cli_format");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("data.txt");
        data_persist::save_dataset(&synth::compas_n(200, 3), &text_path).unwrap();
        let p = text_path.to_string_lossy().into_owned();
        assert!(load_input(&args(&[&p, "--format", "text"])).is_ok());
        let err = load_input(&args(&[&p, "--format", "binary"])).unwrap_err();
        assert!(
            err.0.contains("not a remedy-columnar artifact"),
            "{}",
            err.0
        );
        let err = load_input(&args(&[&p, "--format", "zz"])).unwrap_err();
        assert!(err.0.contains("auto|text|binary|csv"), "{}", err.0);
    }

    #[test]
    fn identify_rejects_threads() {
        let err = run(
            "identify",
            vec!["compas".into(), "--threads".into(), "2".into()],
        )
        .unwrap_err();
        assert!(err.0.contains("unknown option --threads"), "{}", err.0);
    }

    #[test]
    fn pipeline_runs_plan_and_writes_manifest() {
        let dir = std::env::temp_dir().join("remedy_cli_pipeline");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(
            &plan,
            "dataset compas\nrows 800\nseed 7\n\
             branch base technique=none model=dt\nbranch ps technique=ps model=dt\n",
        )
        .unwrap();
        let manifest = dir.join("run.json");
        let argv = vec![
            plan.to_string_lossy().into_owned(),
            "--cache".into(),
            dir.join("cache").to_string_lossy().into_owned(),
            "--out".into(),
            manifest.to_string_lossy().into_owned(),
        ];
        run("pipeline", argv.clone()).unwrap();
        let json = std::fs::read_to_string(&manifest).unwrap();
        assert!(json.contains("\"cache_hit\": false"));
        // second run replays from cache
        run("pipeline", argv).unwrap();
        let json = std::fs::read_to_string(&manifest).unwrap();
        assert!(json.contains("\"cache_hit\": true"));
        // a broken plan is a clean error, not a panic
        assert!(run(
            "pipeline",
            vec![plan.join("nope").to_string_lossy().into_owned()]
        )
        .is_err());
    }

    #[test]
    fn cache_gc_sweeps_a_pipeline_cache() {
        let dir = std::env::temp_dir().join("remedy_cli_cache_gc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(
            &plan,
            "dataset compas\nrows 600\nseed 7\nbranch base technique=none model=dt\n",
        )
        .unwrap();
        let cache = dir.join("cache");
        run(
            "pipeline",
            vec![
                plan.to_string_lossy().into_owned(),
                "--cache".into(),
                cache.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        assert!(std::fs::read_dir(&cache).unwrap().count() > 0);
        run(
            "cache",
            vec![
                "gc".into(),
                "--cache".into(),
                cache.to_string_lossy().into_owned(),
                "--max-bytes".into(),
                "0".into(),
            ],
        )
        .unwrap();
        let remaining = std::fs::read_dir(&cache)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .count();
        assert_eq!(remaining, 0, "gc --max-bytes 0 must empty the cache");
        // bad action and bad sizes are clean errors
        assert!(run("cache", vec!["prune".into()]).is_err());
        assert!(parse_bytes("12x").is_err());
        assert_eq!(parse_bytes("2k").unwrap(), 2048);
        assert_eq!(parse_bytes("3m").unwrap(), 3 * 1024 * 1024);
        assert_eq!(parse_bytes("1g").unwrap(), 1024 * 1024 * 1024);
        assert_eq!(parse_bytes("77").unwrap(), 77);
    }

    #[test]
    fn serve_and_client_round_trip() {
        let server = remedy_serve::Server::bind(remedy_serve::ServeOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        run(
            "client",
            vec![
                addr.clone(),
                "{\"op\":\"load\",\"session\":\"a\",\"source\":\"compas\",\"rows\":300}".into(),
                "{\"op\":\"ingest\",\"session\":\"a\",\"edits\":[{\"kind\":\"flip\",\"row\":0}]}"
                    .into(),
                "{\"op\":\"identify\",\"session\":\"a\"}".into(),
            ],
        )
        .unwrap();
        // a failing request makes the client exit nonzero
        let err = run(
            "client",
            vec![
                addr.clone(),
                "{\"op\":\"identify\",\"session\":\"nope\"}".into(),
            ],
        )
        .unwrap_err();
        assert!(err.0.contains("request(s) failed"), "{}", err.0);
        run("client", vec![addr.clone(), "{\"op\":\"shutdown\"}".into()]).unwrap();
        handle.join().unwrap().unwrap();
        // with the daemon gone, connecting is a clean error
        assert!(run("client", vec![addr, "{\"op\":\"stats\"}".into()]).is_err());
    }

    #[test]
    fn report_writes_markdown() {
        let dir = std::env::temp_dir().join("remedy_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("audit.md");
        run(
            "report",
            vec![
                "compas".into(),
                "--out".into(),
                out.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("# Subgroup fairness audit"));
    }

    #[test]
    fn train_saves_loadable_model() {
        let dir = std::env::temp_dir().join("remedy_cli_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("model.txt");
        run(
            "train",
            vec![
                "compas".into(),
                "--model".into(),
                "nb".into(),
                "--out".into(),
                out.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        let model = persist::load_from_path(&out).unwrap();
        assert_eq!(model.kind(), "naive-bayes");
    }

    #[test]
    fn hypothesis_runs() {
        run("hypothesis", vec!["compas".into()]).unwrap();
        assert!(run(
            "hypothesis",
            vec!["compas".into(), "--stat".into(), "acc".into()]
        )
        .is_err());
    }

    #[test]
    fn describe_and_validate_run() {
        run("describe", vec!["compas".into()]).unwrap();
        run(
            "validate",
            vec!["compas".into(), "--folds".into(), "3".into()],
        )
        .unwrap();
        assert!(run(
            "validate",
            vec!["compas".into(), "--model".into(), "zz".into()]
        )
        .is_err());
    }

    #[test]
    fn remedy_writes_output() {
        let dir = std::env::temp_dir().join("remedy_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fixed.csv");
        run(
            "remedy",
            vec![
                "compas".into(),
                "--out".into(),
                out.to_string_lossy().into_owned(),
                "--technique".into(),
                "us".into(),
            ],
        )
        .unwrap();
        assert!(out.exists());
    }
}
