//! Quickstart: identify Implicit Biased Sets in a dataset and remedy them.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! Walks the full pipeline on the ProPublica/COMPAS stand-in:
//! 1. load data and split 70/30,
//! 2. identify the IBS (Algorithm 1),
//! 3. remedy the training set with preferential sampling (Algorithm 2),
//! 4. train a decision tree before/after and compare subgroup fairness.

use remedy::classifiers::{accuracy, Model, ModelKind};
use remedy::core::{identify, remedy as remedy_data, Algorithm, IbsParams, RemedyParams};
use remedy::dataset::split::train_test_split;
use remedy::dataset::synth;
use remedy::fairness::{fairness_index, FairnessIndexParams, Statistic};

fn main() {
    // 1. data: 6,172 defendants, protected attributes {age, race, sex}
    let data = synth::compas(42);
    let (train_set, test_set) = train_test_split(&data, 0.7, 42).unwrap();
    println!(
        "ProPublica stand-in: {} train / {} test rows, |X| = {}",
        train_set.len(),
        test_set.len(),
        train_set.schema().protected_len()
    );

    // 2. identify biased regions: |ratio_r − ratio_rn| > τ_c, |r| > 30
    let params = IbsParams::default(); // τ_c = 0.1, T = 1, k = 30
    let ibs = identify(&train_set, &params, Algorithm::Optimized);
    println!(
        "\nIBS: {} biased regions. The five largest gaps:",
        ibs.len()
    );
    let mut by_gap = ibs.clone();
    by_gap.sort_by(|a, b| b.gap().partial_cmp(&a.gap()).unwrap());
    for region in by_gap.iter().take(5) {
        println!(
            "  {}  ratio_r = {:.2}, ratio_rn = {:.2}",
            region.pattern.display(train_set.schema()),
            region.ratio,
            region.neighbor_ratio
        );
    }

    // 3. remedy the training data (preferential sampling)
    let outcome = remedy_data(&train_set, &RemedyParams::default());
    println!(
        "\nRemedy updated {} regions ({} → {} rows)",
        outcome.updates.len(),
        train_set.len(),
        outcome.dataset.len()
    );

    // 4. train a decision tree before and after; compare subgroup fairness
    let fi = FairnessIndexParams::default();
    let before = ModelKind::DecisionTree.fit(&train_set, 42);
    let after = ModelKind::DecisionTree.fit(&outcome.dataset, 42);
    let preds_before = before.predict(&test_set);
    let preds_after = after.predict(&test_set);
    println!("\n                      before    after");
    println!(
        "fairness index (FPR)  {:.3}     {:.3}",
        fairness_index(&test_set, &preds_before, Statistic::Fpr, &fi).unwrap(),
        fairness_index(&test_set, &preds_after, Statistic::Fpr, &fi).unwrap(),
    );
    println!(
        "fairness index (FNR)  {:.3}     {:.3}",
        fairness_index(&test_set, &preds_before, Statistic::Fnr, &fi).unwrap(),
        fairness_index(&test_set, &preds_after, Statistic::Fnr, &fi).unwrap(),
    );
    println!(
        "accuracy              {:.3}     {:.3}",
        accuracy(&preds_before, test_set.labels()),
        accuracy(&preds_after, test_set.labels()),
    );
}
