//! Criterion micro-benchmarks of the classifier substrate: training each
//! downstream model on the COMPAS stand-in (the inner loop of every
//! trade-off experiment), the pipeline's train stage on Adult, and
//! single-row prediction latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use remedy_classifiers::{DecisionTree, DecisionTreeParams, Model, ModelKind, NaiveBayes};
use remedy_dataset::synth;
use remedy_pipeline::stages::split_dataset;
use remedy_pipeline::Plan;

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_compas");
    group.sample_size(10);
    let data = synth::compas_n(3_000, 42);
    for kind in ModelKind::DOWNSTREAM {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &k| {
            b.iter(|| k.fit(std::hint::black_box(&data), 42))
        });
    }
    group.bench_function("NB_ranker", |b| {
        b.iter(|| NaiveBayes::fit(std::hint::black_box(&data)))
    });
    group.finish();
}

/// The train stage of a pipeline branch on the 35 000-row training split
/// of `adult_n(50 000, 2)`: the decision tree a `model=dt` branch fits,
/// the random forest (bootstrap rows and feature masks through the same
/// tree fit), and the two code-indexed fits, logistic regression and the
/// MLP.
fn bench_training_adult(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_adult");
    group.sample_size(15);
    let plan =
        Plan::parse("dataset adult\nrows 50000\nseed 2\nbranch base technique=none model=dt\n")
            .unwrap();
    let data = synth::adult_n(50_000, 2);
    let (train, _) = split_dataset(&plan, &data).unwrap();
    group.bench_function("dt", |b| {
        b.iter(|| DecisionTree::fit(std::hint::black_box(&train), &DecisionTreeParams::default()))
    });
    for kind in [
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        ModelKind::NeuralNetwork,
    ] {
        group.bench_function(kind.token(), |b| {
            b.iter(|| kind.fit(std::hint::black_box(&train), 2))
        });
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let data = synth::compas_n(3_000, 42);
    let mut group = c.benchmark_group("predict_row");
    let row = data.row(0);
    for kind in ModelKind::DOWNSTREAM {
        let model = kind.fit(&data, 42);
        group.bench_with_input(BenchmarkId::from_parameter(kind), &row, |b, row| {
            b.iter(|| model.predict_proba_row(std::hint::black_box(row)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_training,
    bench_training_adult,
    bench_prediction
);
criterion_main!(benches);
