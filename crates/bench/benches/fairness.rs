//! Criterion micro-benchmarks of the fairness substrate: the subgroup
//! explorer sweep and the fairness-index computation that every
//! trade-off experiment calls in its inner loop.

use criterion::{criterion_group, criterion_main, Criterion};
use remedy_classifiers::{Model, ModelKind};
use remedy_dataset::synth;
use remedy_fairness::{fairness_index, Explorer, FairnessIndexParams, Statistic};

fn bench_explorer(c: &mut Criterion) {
    let data = synth::compas(42);
    let model = ModelKind::DecisionTree.fit(&data, 42);
    let predictions = model.predict(&data);
    let explorer = Explorer::default();
    c.bench_function("explorer_compas_fpr", |b| {
        b.iter(|| {
            explorer.explore(
                std::hint::black_box(&data),
                std::hint::black_box(&predictions),
                Statistic::Fpr,
            )
        })
    });

    let adult = synth::adult_n(10_000, 42);
    let model = ModelKind::DecisionTree.fit(&adult, 42);
    let preds_adult = model.predict(&adult);
    c.bench_function("explorer_adult10k_fpr", |b| {
        b.iter(|| {
            explorer.explore(
                std::hint::black_box(&adult),
                std::hint::black_box(&preds_adult),
                Statistic::Fpr,
            )
        })
    });
}

fn bench_fairness_index(c: &mut Criterion) {
    let data = synth::compas(42);
    let model = ModelKind::DecisionTree.fit(&data, 42);
    let predictions = model.predict(&data);
    let params = FairnessIndexParams::default();
    c.bench_function("fairness_index_compas", |b| {
        b.iter(|| {
            fairness_index(
                std::hint::black_box(&data),
                std::hint::black_box(&predictions),
                Statistic::Fpr,
                &params,
            )
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_explorer, bench_fairness_index);
criterion_main!(benches);
