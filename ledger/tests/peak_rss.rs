//! `peak_rss_mb` covers a workload's timed phase only: memory the process
//! touched and freed before it, as generating inputs and references does,
//! is not counted. A file of its own, so no other test shares the process.

use remedy_ledger::{peak_rss_mb, run_workload, Config, Sizes};
use std::path::PathBuf;

#[test]
fn peak_rss_excludes_memory_freed_before_the_timed_phase() {
    const BALLAST_MB: usize = 128;
    let mut ballast = vec![0u8; BALLAST_MB << 20];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);
    drop(ballast);
    assert!(peak_rss_mb().unwrap() >= BALLAST_MB as f64);

    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("peak-rss");
    let cfg = Config {
        workload: "lattice_sweep".to_string(),
        seed: 7,
        seconds: 0.3,
        trace: false,
        work_dir: root.join("work"),
        out_dir: root.join("out"),
        sizes: Sizes::tiny(),
        worker_exe: PathBuf::new(),
        sharded_runs: false,
        corrupt_reference: false,
    };
    let outcome = run_workload(&cfg).unwrap();
    let peak = outcome
        .e2e()
        .into_iter()
        .find(|m| m.name == "peak_rss_mb")
        .unwrap()
        .value;
    assert!(
        peak > 0.0 && peak < (BALLAST_MB / 2) as f64,
        "peak_rss_mb = {peak} MiB"
    );
}
