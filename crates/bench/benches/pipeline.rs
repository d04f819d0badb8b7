//! Criterion micro-benchmarks of the pipeline engine: a cold run that
//! computes every stage vs. a warm re-run that replays the whole DAG
//! from the content-addressed cache (the gap is the caching payoff),
//! plus the sharded-counting scaling curve.
//!
//! The `pipeline/sharded/{1,2,4,8}` benchmarks model the critical path
//! of `remedy pipeline --shards N` on a fleet with one core per worker:
//! stratified partitioning happens outside the timed region (it is
//! cached as shard artifacts in real runs), each shard's counting scan
//! is timed individually and folded with `max` (concurrent workers wait
//! only for the slowest), and the serial tail — merging the per-shard
//! counts and identifying over the merged lattice — is added on top.
//! This is the honest wall time of the sharded design independent of
//! how many cores the bench machine happens to have; `scripts/bench.sh`
//! records the medians as `pipeline_sharded_ms` with the measured
//! `speedup_at_8`.

use criterion::{criterion_group, criterion_main, Criterion};
use remedy_core::{try_identify_counts_with, Algorithm, IbsParams, ShardCounts};
use remedy_dataset::{store, synth};
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::{run, PipelineOptions, Plan};
use std::time::{Duration, Instant};

const PLAN: &str = "\
dataset compas
rows 2000
seed 42
branch base technique=none model=dt
branch ps technique=ps model=dt
";

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    let plan = Plan::parse(PLAN).unwrap();
    let cache_dir = std::env::temp_dir().join("remedy_bench_pipeline");

    let cold = PipelineOptions {
        cache_dir: cache_dir.clone(),
        force: true, // recompute every stage, ignore stored artifacts
        ..PipelineOptions::default()
    };
    group.bench_function("cold_run", |b| {
        b.iter(|| run(std::hint::black_box(&plan), &cold).unwrap())
    });

    let warm = PipelineOptions {
        cache_dir: cache_dir.clone(),
        ..PipelineOptions::default()
    };
    run(&plan, &warm).unwrap(); // prime the cache
    group.bench_function("warm_run", |b| {
        b.iter(|| run(std::hint::black_box(&plan), &warm).unwrap())
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Critical-path scaling of sharded counting over a 1M-row synthetic:
/// slowest single-shard scan + merge + identify, per shard count.
fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // each sample scans all 1M rows; three samples bound wall time
    group.sample_size(3);
    let data = synth::adult_n(1_000_000, 42);
    let params = IbsParams::default();
    for shards in [1usize, 2, 4, 8] {
        // partitioning is untimed: real runs cut shards once and cache
        // them as content-addressed artifacts
        let parts = store::partition_stratified(&data, shards);
        group.bench_function(format!("sharded/{shards}"), |b| {
            b.iter_custom(|_iters| {
                // one worker per shard, one core per worker: the fleet
                // finishes when its slowest scan does
                let mut slowest = Duration::ZERO;
                let mut counts = Vec::with_capacity(parts.len());
                for part in &parts {
                    let t = Instant::now();
                    let scanned = ShardCounts::scan(std::hint::black_box(part), 1).unwrap();
                    slowest = slowest.max(t.elapsed());
                    counts.push(scanned);
                }
                // the serial tail runs in the parent after every worker
                // reports: merge in shard order, then identify
                let tail = Instant::now();
                let mut iter = counts.into_iter();
                let mut merged = iter.next().unwrap();
                for part in iter {
                    merged.merge(&part).unwrap();
                }
                std::hint::black_box(
                    try_identify_counts_with(
                        merged,
                        &params,
                        Algorithm::Optimized,
                        &ObsScope::disabled(),
                    )
                    .unwrap(),
                );
                slowest + tail.elapsed()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_sharded);
criterion_main!(benches);
