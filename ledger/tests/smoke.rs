//! Every workload on tiny inputs: it completes, verifies every operation,
//! and reports exactly the metrics `BENCHMARK.json` lists; with its
//! references corrupted, verification fails.
//!
//! Sharded pipeline runs spawn a real `remedy pipeline-worker`. The
//! `remedy` executable is not a dependency of this package, so it is
//! looked for next to this test's profile directory and in the
//! workspace's `target`; without one, `pipeline_adult` runs without its
//! sharded kind and the test says so on standard error.

use remedy_ledger::report::{self, Benchmark};
use remedy_ledger::{
    per_layer_catalogue, run_workload, Config, Outcome, Sizes, E2E_METRICS, WORKLOADS,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Per-layer rows only sharded pipeline runs measure.
const SHARDED_LAYERS: [&str; 4] = [
    "pipeline.sharded_run_ms",
    "pipeline.self_ms.sharded",
    "shard.count_ms",
    "shard.retries",
];

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    report::parse_benchmark(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// A built `remedy` executable, if there is one.
fn remedy_exe() -> Option<PathBuf> {
    // this test runs as <target>/<profile>/deps/<name>
    let exe = std::env::current_exe().ok()?;
    let profile = exe.parent()?.parent()?.to_path_buf();
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target");
    [profile, workspace.join("release"), workspace.join("debug")]
        .into_iter()
        .map(|dir| dir.join("remedy"))
        .find(|path| path.is_file())
}

fn tiny(workload: &str, trace: bool, corrupt: bool) -> Config {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}-{}",
        u8::from(trace),
        u8::from(corrupt)
    ));
    let worker = remedy_exe();
    if worker.is_none() && workload == "pipeline_adult" {
        eprintln!("smoke: no `remedy` executable built; skipping sharded pipeline runs");
    }
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.3,
        trace,
        work_dir: root.join("work"),
        out_dir: root.join("out"),
        sizes: Sizes::tiny(),
        sharded_runs: worker.is_some(),
        worker_exe: worker.unwrap_or_default(),
        corrupt_reference: corrupt,
    }
}

fn run(cfg: &Config) -> Outcome {
    run_workload(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload))
}

#[test]
fn benchmark_file_lists_the_ledgers_metrics() {
    let bench = benchmark();
    assert_eq!(bench.workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let expected: Vec<(String, String)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, expected);
    let catalogue: Vec<(String, String, String)> = per_layer_catalogue()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(bench.per_layer, catalogue);
}

#[test]
fn every_workload_reports_every_metric_and_verifies() {
    let bench = benchmark();
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        let cfg = tiny(workload, true, false);
        let outcome = run(&cfg);
        assert_eq!(outcome.tally.failed, 0, "{workload} failed verification");
        assert!(outcome.tally.attempted > 0, "{workload} attempted nothing");
        let e2e = outcome.e2e();
        let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = bench.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, listed, "{workload}");
        for m in &e2e {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {} = {}",
                m.name,
                m.value
            );
        }
        let per_layer = outcome.per_layer();
        let printed: Vec<&str> = per_layer.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = bench.per_layer.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(printed, listed, "{workload}");
        assert!(per_layer.iter().all(|m| m.value.is_finite()), "{workload}");
        for (name, _) in &outcome.layers {
            assert!(
                listed.contains(&name.as_str()),
                "{workload} measured unlisted {name}"
            );
            measured.insert(name.clone());
        }
        assert!(cfg.trace_path().is_file(), "{workload} wrote no trace");
        assert!(!cfg.work_dir.exists(), "{workload} left its work directory");
    }
    let sharded = remedy_exe().is_some();
    let missed: Vec<&String> = bench
        .per_layer
        .iter()
        .map(|(n, _, _)| n)
        .filter(|n| !measured.contains(*n))
        .filter(|n| sharded || !SHARDED_LAYERS.contains(&n.as_str()))
        .collect();
    assert!(missed.is_empty(), "no workload measures {missed:?}");
}

#[test]
fn corrupted_references_fail_verification() {
    for workload in WORKLOADS {
        let outcome = run(&tiny(workload, false, true));
        assert!(
            outcome.tally.failed > 0,
            "{workload}: a corrupted reference went unnoticed"
        );
    }
}
