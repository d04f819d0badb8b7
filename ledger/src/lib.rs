//! # remedy-ledger
//!
//! The performance ledger: four closed-loop workloads over the remedy
//! workspace's user paths, each timed end to end with tracing off and
//! then broken into layers by a separate traced phase.
//!
//! | workload | what one operation is |
//! |---|---|
//! | [`pipeline`] `pipeline_adult` | one `remedy_pipeline::run` (cold, sharded or warm) |
//! | [`lattice`] `lattice_sweep` | one `remedy identify` job: open, identify, render |
//! | [`serve`] `serve_mixed` | one request over TCP from one of two connections |
//! | [`serve`] `serve_restart` | bind with recovery, connect, first identify |
//!
//! Every workload reports the same end-to-end metrics ([`E2E_METRICS`])
//! and fills its rows of one per-layer catalogue
//! ([`per_layer_catalogue`]); rows a workload does not exercise read 0.
//! Inputs come only from the seed; every operation is verified and
//! counted in `failed` when its output is wrong. `BENCHMARK.md` next to
//! this crate describes the workloads, the metrics and the trace format.

pub mod lattice;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use remedy_obs::{Snapshot, Span};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline_adult",
    "lattice_sweep",
    "serve_mixed",
    "serve_restart",
];

/// The end-to-end metrics every workload reports, with their units.
/// Throughput is per-layer: in a closed loop it is the caller count over
/// the mean latency, and it swings with the machine as much as latency.
pub const E2E_METRICS: [(&str, &str); 3] = [
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The five `lattice_sweep` jobs.
pub const LATTICE_JOBS: [&str; 5] = ["adult_p4", "adult_p6", "adult_p8", "wide_p12", "wide_p20"];

/// Input sizes and phase lengths. [`Sizes::full`] is the benchmark;
/// tests run [`Sizes::tiny`].
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rows of the `pipeline_adult` source.
    pub pipeline_rows: usize,
    /// Rows of the adult input of `lattice_sweep`.
    pub lattice_adult_rows: usize,
    /// Rows of the two wide inputs of `lattice_sweep`.
    pub lattice_wide_rows: usize,
    /// Rows of the `serve_mixed` session.
    pub serve_rows: usize,
    /// Rows of the `serve_restart` session.
    pub restart_rows: usize,
    /// WAL batches `serve_restart` replays on every restart.
    pub restart_batches: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed load before `serve_mixed` measures.
    pub serve_warmup: Duration,
    /// Traced phase (after one traced pipeline cycle): lattice passes,
    /// serve requests, restarts.
    pub trace_lattice_passes: usize,
    pub trace_serve_ops: usize,
    pub trace_restarts: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            pipeline_rows: 50_000,
            lattice_adult_rows: 45_222,
            lattice_wide_rows: 20_000,
            serve_rows: 200_000,
            restart_rows: 1_000_000,
            restart_batches: 64,
            setups: 5,
            serve_warmup: Duration::from_secs(3),
            trace_lattice_passes: 20,
            trace_serve_ops: 500,
            trace_restarts: 10,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            pipeline_rows: 3_000,
            lattice_adult_rows: 3_000,
            lattice_wide_rows: 2_000,
            serve_rows: 4_000,
            restart_rows: 5_000,
            restart_batches: 8,
            setups: 2,
            serve_warmup: Duration::from_millis(100),
            trace_lattice_passes: 2,
            trace_serve_ops: 40,
            trace_restarts: 2,
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for generated inputs, caches and data dirs;
    /// emptied before and after the run.
    pub work_dir: PathBuf,
    /// Where `<workload>.trace.jsonl` goes.
    pub out_dir: PathBuf,
    pub sizes: Sizes,
    /// The `remedy` executable sharded pipeline runs spawn as
    /// `pipeline-worker` subprocesses; a missing one is a set-up error.
    pub worker_exe: PathBuf,
    /// Include sharded runs in `pipeline_adult`. The benchmark always
    /// does; tests leave them out when no `remedy` executable is built.
    pub sharded_runs: bool,
    /// Corrupt every reference output, so every verified operation
    /// fails (tests use it to prove verification is live).
    pub corrupt_reference: bool,
}

impl Config {
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.trace.jsonl", self.workload))
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload's timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency samples in milliseconds, per operation kind.
    pub kinds: Vec<(String, Vec<f64>)>,
    /// The kinds whose interdecile means `latency_ms` takes the geometric
    /// mean of.
    pub principal: Vec<String>,
    /// Operations completed in the timed phase, of every kind.
    pub completed: u64,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// One duration per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the ledger process during the timed phase,
    /// MiB: [`peak_rss_mb`] read at its end, after [`reset_peak_rss`] at
    /// its start.
    pub peak_rss_mb: f64,
}

impl Timed {
    pub fn samples(&self, kind: &str) -> &[f64] {
        self.kinds
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn push(&mut self, kind: &str, ms: f64) {
        match self.kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, v)) => v.push(ms),
            None => self.kinds.push((kind.to_string(), vec![ms])),
        }
        self.completed += 1;
    }

    /// Median latency of one kind, ms.
    pub fn median(&self, kind: &str) -> f64 {
        stats::median(self.samples(kind))
    }

    /// Geometric mean over the principal kinds of their interdecile
    /// means ([`stats::interdecile_mean`]).
    pub fn latency_ms(&self) -> f64 {
        let centres: Vec<f64> = self
            .principal
            .iter()
            .map(|k| stats::interdecile_mean(self.samples(k)))
            .collect();
        stats::geomean(&centres)
    }
}

/// Verification tally.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one verified operation; prints the first few failures.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("ledger: verification failed: {why}");
            }
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub timed: Timed,
    /// Per-layer values by catalogue name (traced runs only).
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    /// The end-to-end metrics, in [`E2E_METRICS`] order.
    pub fn e2e(&self) -> Vec<Metric> {
        let values = [
            self.timed.latency_ms(),
            stats::median(&self.timed.setup_s),
            self.timed.peak_rss_mb,
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    }

    /// Every catalogue row, 0 where the workload measured nothing.
    pub fn per_layer(&self) -> Vec<Metric> {
        per_layer_catalogue()
            .into_iter()
            .map(|(name, unit, _)| Metric {
                value: self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v),
                name,
                unit,
            })
            .collect()
    }
}

/// One per-layer metric: name, unit, and which direction is better.
pub type LayerDef = (&'static str, &'static str, &'static str);

/// Per-layer metrics every workload fills.
const COMMON_LAYERS: [LayerDef; 4] = [
    ("timed_ops", "count", "higher"),
    ("throughput_ops_s", "1/s", "higher"),
    ("obs_overhead_pct", "%", "lower"),
    ("coverage", "ratio", "higher"),
];

const PIPELINE_LAYERS: [LayerDef; 24] = [
    ("pipeline.cold_run_ms", "ms", "lower"),
    ("pipeline.sharded_run_ms", "ms", "lower"),
    ("pipeline.warm_run_ms", "ms", "lower"),
    ("pipeline.load_ms", "ms", "lower"),
    ("pipeline.discretize_ms", "ms", "lower"),
    ("pipeline.identify_ms", "ms", "lower"),
    ("pipeline.remedy_ms", "ms", "lower"),
    ("pipeline.train_ms", "ms", "lower"),
    ("pipeline.audit_ms", "ms", "lower"),
    ("pipeline.self_ms.cold", "ms", "lower"),
    ("pipeline.self_ms.sharded", "ms", "lower"),
    ("pipeline.self_ms.warm", "ms", "lower"),
    ("dataset.text_encode_ms", "ms", "lower"),
    ("dataset.text_decode_ms", "ms", "lower"),
    ("core.stable_hash_ms", "ms", "lower"),
    ("cache.lookups", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_stored", "bytes", "lower"),
    ("shard.partition_ms", "ms", "lower"),
    ("shard.count_ms", "ms", "lower"),
    ("shard.retries", "count", "lower"),
    ("remedy.rows_duplicated", "count", "lower"),
    ("remedy.rows_removed", "count", "lower"),
    ("remedy.rows_flipped", "count", "lower"),
];

/// Per-job lattice layers, reported as `lattice.<job>.<name>`.
const LATTICE_LAYERS: [LayerDef; 7] = [
    ("open_ms", "ms", "lower"),
    ("enumerate_ms", "ms", "lower"),
    ("score_ms", "ms", "lower"),
    ("render_ms", "ms", "lower"),
    ("e2e_ms", "ms", "lower"),
    ("regions", "count", "lower"),
    ("neighbor_lookups", "count", "lower"),
];

const SERVE_LAYERS: [LayerDef; 21] = [
    ("serve.identify_p50_ms", "ms", "lower"),
    ("serve.identify_tail_ms", "ms", "lower"),
    ("serve.identify_tail_pct", "%", "higher"),
    ("serve.ingest_p50_ms", "ms", "lower"),
    ("serve.ingest_tail_ms", "ms", "lower"),
    ("serve.ingest_tail_pct", "%", "higher"),
    ("serve.remedy_p50_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.identify_service_ms", "ms", "lower"),
    ("serve.ingest_service_ms", "ms", "lower"),
    ("serve.remedy_service_ms", "ms", "lower"),
    ("serve.client_parse_ms", "ms", "lower"),
    ("serve.delta_nodes", "count", "lower"),
    ("serve.lock_wait_ms.identify", "ms", "lower"),
    ("serve.lock_wait_ms.ingest", "ms", "lower"),
    ("serve.wal_append_ms", "ms", "lower"),
    ("serve.wal_fsync_us.p50", "us", "lower"),
    ("serve.wal_fsync_us.p90", "us", "lower"),
    ("serve.snapshot_ms", "ms", "lower"),
    ("serve.snapshots", "count", "lower"),
    ("serve.shed", "count", "lower"),
];

const RESTART_LAYERS: [LayerDef; 6] = [
    ("restart.snapshot_decode_ms", "ms", "lower"),
    ("restart.index_build_ms", "ms", "lower"),
    ("restart.wal_replay_ms", "ms", "lower"),
    ("restart.recover_ms", "ms", "lower"),
    ("restart.first_identify_ms", "ms", "lower"),
    ("restart.snapshot_mb", "MB", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let fixed = COMMON_LAYERS
        .iter()
        .chain(&PIPELINE_LAYERS)
        .map(|&(n, u, b)| (n.to_string(), u, b));
    let lattice = LATTICE_JOBS.iter().flat_map(|job| {
        LATTICE_LAYERS
            .iter()
            .map(move |&(n, u, b)| (format!("lattice.{job}.{n}"), u, b))
    });
    let serve = SERVE_LAYERS
        .iter()
        .chain(&RESTART_LAYERS)
        .map(|&(n, u, b)| (n.to_string(), u, b));
    fixed.chain(lattice).chain(serve).collect()
}

/// Runs one workload end to end: timed phase, then (with `trace`) the
/// traced phase. The work directory is emptied before and after.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let outcome = match cfg.workload.as_str() {
        "pipeline_adult" => pipeline::run_adult(cfg),
        "lattice_sweep" => lattice::run_sweep(cfg),
        "serve_mixed" => serve::run_mixed(cfg),
        "serve_restart" => serve::run_restart(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut outcome = outcome?;
    if cfg.trace {
        let timed = &outcome.timed;
        outcome.layers.extend([
            ("timed_ops".to_string(), timed.completed as f64),
            (
                "throughput_ops_s".to_string(),
                timed.completed as f64 / timed.elapsed_s,
            ),
        ]);
    }
    Ok(outcome)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident set. Called just before a timed phase, so memory that inputs,
/// references and set-up touched and then freed is not counted in
/// `peak_rss_mb`; what they still hold is.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB: since the
/// last [`reset_peak_rss`], or since the process started.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Calls one layer under a span named `scope/name` nested in `root`,
/// appending its wall time in milliseconds to `out`.
pub fn probe<T>(
    root: &Span,
    scope: &str,
    name: &str,
    out: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let _span = root.child_scope(scope).span(name);
    let t = Instant::now();
    let value = f();
    out.push(ms_since(t));
    value
}

/// How much the counters matching `pick(scope, name)` grew between two
/// snapshots of one recorder.
pub fn counter_delta(
    before: &Snapshot,
    after: &Snapshot,
    pick: impl Fn(&str, &str) -> bool,
) -> u64 {
    let sum = |snap: &Snapshot| -> u64 {
        snap.counters
            .iter()
            .filter(|(scope, name, _)| pick(scope, name))
            .map(|(_, _, v)| v)
            .sum()
    };
    sum(after) - sum(before)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
