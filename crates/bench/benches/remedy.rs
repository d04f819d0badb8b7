//! Criterion micro-benchmarks of the dataset remedy (the Fig 9b kernel):
//! one benchmark per pre-processing technique, the scope ablation, and the
//! incremental-vs-scan counting comparison on a larger lattice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use remedy_core::{remedy, remedy_over_scan, remedy_over_with, RemedyParams, Scope, Technique};
use remedy_dataset::synth;
use remedy_obs::Scope as ObsScope;

fn bench_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("remedy_technique");
    group.sample_size(10);
    let data = synth::compas(42);
    for technique in Technique::ALL {
        let params = RemedyParams::builder()
            .technique(technique)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(technique.label()),
            &params,
            |b, params| b.iter(|| remedy(std::hint::black_box(&data), params)),
        );
    }
    group.finish();
}

fn bench_scopes(c: &mut Criterion) {
    let mut group = c.benchmark_group("remedy_scope");
    group.sample_size(10);
    let data = synth::compas(42);
    for scope in [Scope::Lattice, Scope::Leaf, Scope::Top] {
        let params = RemedyParams::builder().scope(scope).build().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(scope.name()),
            &params,
            |b, params| b.iter(|| remedy(std::hint::black_box(&data), params)),
        );
    }
    group.finish();
}

/// The counting-engine kernel: remedy over a 5-attribute lattice
/// (31 nodes) on the synthetic Adult scalability slice, incremental
/// [`RegionIndex`](remedy_core::RegionIndex) path vs the per-node scan
/// baseline it replaced. Undersampling keeps the ranker out of the
/// measurement so the counting seam dominates.
fn bench_remedy_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("remedy_large");
    group.sample_size(10);
    let data = synth::adult_n(20_000, 1);
    let cols: Vec<usize> = synth::ADULT_SCALABILITY_PROTECTED[..5]
        .iter()
        .map(|n| data.schema().require(n).unwrap())
        .collect();
    let params = RemedyParams::builder()
        .technique(Technique::Undersampling)
        .build()
        .unwrap();
    group.bench_function("incremental", |b| {
        b.iter(|| {
            remedy_over_with(
                std::hint::black_box(&data),
                &cols,
                &params,
                &ObsScope::disabled(),
            )
        })
    });
    group.bench_function("scan", |b| {
        b.iter(|| remedy_over_scan(std::hint::black_box(&data), &cols, &params))
    });
    group.finish();
}

criterion_group!(benches, bench_techniques, bench_scopes, bench_remedy_large);
criterion_main!(benches);
