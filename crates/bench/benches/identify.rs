//! Criterion micro-benchmarks of IBS identification (the Fig 9a kernel):
//! hierarchy construction (dense and support-pruned) and the naïve vs.
//! optimized neighbor computation, per dataset and per |X|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use remedy_core::{
    identify_in_with, try_identify_over, Algorithm, Enumeration, Hierarchy, IbsParams,
    SparseHierarchy,
};
use remedy_dataset::synth::{self, ADULT_SCALABILITY_PROTECTED};
use remedy_obs::Scope as ObsScope;

fn bench_hierarchy_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_build");
    let compas = synth::compas(42);
    group.bench_function("compas_|X|=3", |b| {
        b.iter(|| Hierarchy::try_build(std::hint::black_box(&compas)).unwrap())
    });
    let adult = synth::adult_n(10_000, 42);
    // the pruned builds prune at identify's default k, as a pruned
    // identify does
    let support = IbsParams::default().min_size;
    for k in [4usize, 6, 8] {
        let cols: Vec<usize> = ADULT_SCALABILITY_PROTECTED[..k]
            .iter()
            .map(|n| adult.schema().require(n).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("adult10k", k), &cols, |b, cols| {
            b.iter(|| Hierarchy::try_build_over(std::hint::black_box(&adult), cols).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("adult10k_pruned", k), &cols, |b, cols| {
            b.iter(|| {
                SparseHierarchy::try_build_over(std::hint::black_box(&adult), cols, support)
                    .unwrap()
            })
        });
    }
    // 20 000 rows is where level-3 candidates appear on the wide fixture
    // (level-2 cells hold ~20 rows, a few pass k) and are all rejected
    for p in [12usize, 20] {
        let wide = synth::wide_n(20_000, p, 42);
        let cols = wide.schema().protected_indices();
        group.bench_with_input(BenchmarkId::new("wide20k_pruned", p), &cols, |b, cols| {
            b.iter(|| {
                SparseHierarchy::try_build_over(std::hint::black_box(&wide), cols, support).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_identification(c: &mut Criterion) {
    let mut group = c.benchmark_group("identify");
    let adult = synth::adult_n(10_000, 42);
    let params = IbsParams::default();
    let off = ObsScope::disabled();
    for k in [4usize, 6, 8] {
        let cols: Vec<usize> = ADULT_SCALABILITY_PROTECTED[..k]
            .iter()
            .map(|n| adult.schema().require(n).unwrap())
            .collect();
        let hierarchy = Hierarchy::try_build_over(&adult, &cols).unwrap();
        group.bench_with_input(BenchmarkId::new("naive", k), &hierarchy, |b, h| {
            b.iter(|| identify_in_with(std::hint::black_box(h), &params, Algorithm::Naive, &off))
        });
        group.bench_with_input(BenchmarkId::new("optimized", k), &hierarchy, |b, h| {
            b.iter(|| {
                identify_in_with(std::hint::black_box(h), &params, Algorithm::Optimized, &off)
            })
        });
    }
    group.finish();
}

/// The support-pruned enumeration across the lattice wall: end-to-end
/// identify (counting included, since pruning fuses the two) over 10k
/// rows of uniform cardinality-32 protected attributes, and over 20k at
/// p = 12 and 20. Dense refuses everything past p = 16 and already needs
/// 2^p − 1 nodes below it; pruned stays sub-second through p = 24.
fn bench_pruned_identification(c: &mut Criterion) {
    let mut group = c.benchmark_group("identify");
    let mut params = IbsParams::default();
    params.enumeration = Enumeration::Pruned;
    for p in [4usize, 8, 12, 16, 24] {
        let data = synth::wide_n(10_000, p, 42);
        let protected = data.schema().protected_indices();
        group.bench_with_input(BenchmarkId::new("pruned", p), &data, |b, data| {
            b.iter(|| {
                try_identify_over(
                    std::hint::black_box(data),
                    &protected,
                    &params,
                    Algorithm::Optimized,
                )
                .unwrap()
            })
        });
    }
    // at 20 000 rows a few level-2 cells pass k, so level-3 candidates
    // appear and are rejected on their parents' hot lists
    for p in [12usize, 20] {
        let data = synth::wide_n(20_000, p, 42);
        let protected = data.schema().protected_indices();
        group.bench_with_input(BenchmarkId::new("pruned_20k", p), &data, |b, data| {
            b.iter(|| {
                try_identify_over(
                    std::hint::black_box(data),
                    &protected,
                    &params,
                    Algorithm::Optimized,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hierarchy_build,
    bench_identification,
    bench_pruned_identification
);
criterion_main!(benches);
