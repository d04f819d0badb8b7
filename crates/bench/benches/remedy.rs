//! Criterion micro-benchmarks of the dataset remedy (the Fig 9b kernel):
//! one benchmark per pre-processing technique, the scope ablation, the
//! index-backed remedy on a larger lattice, and the remedies the
//! pipeline and serve workloads run on the synthetic Adult data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use remedy_core::{remedy, remedy_over_with, RemedyParams, Scope, Technique};
use remedy_dataset::synth;
use remedy_obs::Scope as ObsScope;
use remedy_pipeline::stages::split_dataset;
use remedy_pipeline::Plan;

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
/// (31 nodes) on the synthetic Adult scalability slice, served by the
/// delta-maintained [`RegionIndex`](remedy_core::RegionIndex).
/// Undersampling keeps the ranker out of the measurement so counting
/// dominates.
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
    group.finish();
}

/// The remedy stage of a four-technique pipeline run: each technique on
/// the 35 000-row training split of `adult_n(50 000, 2)`, under the
/// params a plan with default knobs gives its branch.
fn bench_remedy_adult(c: &mut Criterion) {
    let mut group = c.benchmark_group("remedy_adult");
    group.sample_size(10);
    let plan = Plan::parse(
        "dataset adult\nrows 50000\nseed 2\n\
         branch ps technique=ps model=dt\n\
         branch us technique=us model=dt\n\
         branch dp technique=dp model=dt\n\
         branch massage technique=massage model=dt\n",
    )
    .unwrap();
    let data = synth::adult_n(50_000, 2);
    let (train, _) = split_dataset(&plan, &data).unwrap();
    let protected = train.schema().protected_indices();
    for branch in &plan.branches {
        let params = plan.remedy_params(branch).unwrap();
        group.bench_function(branch.name.as_str(), |b| {
            b.iter(|| {
                remedy_over_with(
                    std::hint::black_box(&train),
                    &protected,
                    &params,
                    &ObsScope::disabled(),
                )
            })
        });
    }
    group.finish();
}

/// The serve remedy: undersampling, default params, over a 200 000-row
/// Adult session.
fn bench_remedy_adult_200k(c: &mut Criterion) {
    let mut group = c.benchmark_group("remedy_adult_200k");
    group.sample_size(10);
    let data = synth::adult_n(200_000, 2);
    let protected = data.schema().protected_indices();
    let params = RemedyParams::builder()
        .technique(Technique::Undersampling)
        .build()
        .unwrap();
    group.bench_function("us", |b| {
        b.iter(|| {
            remedy_over_with(
                std::hint::black_box(&data),
                &protected,
                &params,
                &ObsScope::disabled(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_techniques,
    bench_scopes,
    bench_remedy_large,
    bench_remedy_adult,
    bench_remedy_adult_200k
);
criterion_main!(benches);
