//! §VI Discussion — two supplementary experiments beyond the paper's
//! figures.
//!
//! ```text
//! cargo run -p remedy-bench --bin discussion --release
//! ```
//!
//! 1. **Statistical parity** (§VI "Fairness metrics"): the paper argues the
//!    remedy also mitigates statistical parity (selection-rate) disparities.
//!    We report the fairness index under `γ = selection rate` before/after
//!    remedy on the COMPAS stand-in.
//! 2. **Cost-sensitive limitation** (§VI "Limitations"): the
//!    representation-bias ↔ unfairness correlation is claimed for
//!    accuracy-optimized classifiers; a cost-sensitive classifier
//!    (cost-proportionate weighting, Zadrozny et al.) may not benefit as
//!    much. We train decision trees at several false-negative cost ratios
//!    and report the remedy's relative FPR-index improvement, which shrinks
//!    as costs drift away from uniform.
//! 3. **Iterated remedy** (§VI "Limitations"): one remedy pass cannot zero
//!    every gap because region adjustments interact; iterating
//!    identify → remedy shrinks the residual IBS round by round.

use remedy_bench::datasets::{load, DatasetSpec};
use remedy_bench::eval::paper_split;
use remedy_bench::table::{f3, TsvWriter};
use remedy_classifiers::{
    accuracy, cost_proportionate, CostMatrix, DecisionTree, DecisionTreeParams, Model,
};
use remedy_core::{remedy, remedy_iterative, IterativeParams, RemedyParams};
use remedy_dataset::Dataset;
use remedy_fairness::{fairness_index, FairnessIndexParams, Statistic};

fn main() {
    statistical_parity();
    println!();
    cost_sensitive_limitation();
    println!();
    iterated_remedy();
}

fn dt(data: &Dataset) -> DecisionTree {
    DecisionTree::fit(data, &DecisionTreeParams::default())
}

fn statistical_parity() {
    let seed = 42;
    let mut table = TsvWriter::new(
        "discussion_statparity",
        &[
            "dataset",
            "FI(selection rate) orig",
            "FI(selection rate) remedied",
            "accuracy delta",
        ],
    );
    for spec in [DatasetSpec::Compas, DatasetSpec::LawSchool] {
        let data = load(spec, seed);
        let (train_set, test_set) = paper_split(&data, seed);
        let fi = FairnessIndexParams::default();

        let base = dt(&train_set);
        let base_preds = base.predict(&test_set);
        let base_fi =
            fairness_index(&test_set, &base_preds, Statistic::SelectionRate, &fi).unwrap();
        let base_acc = accuracy(&base_preds, test_set.labels());

        let remedied = remedy(
            &train_set,
            &RemedyParams::builder()
                .tau_c(spec.default_tau_c())
                .build()
                .unwrap(),
        )
        .dataset;
        let model = dt(&remedied);
        let preds = model.predict(&test_set);
        let after_fi = fairness_index(&test_set, &preds, Statistic::SelectionRate, &fi).unwrap();
        let after_acc = accuracy(&preds, test_set.labels());

        table.row(&[
            spec.name().to_string(),
            f3(base_fi),
            f3(after_fi),
            f3(after_acc - base_acc),
        ]);
    }
    table.finish();
}

fn cost_sensitive_limitation() {
    let seed = 42;
    let data = load(DatasetSpec::Compas, seed);
    let (train_set, test_set) = paper_split(&data, seed);
    let remedied = remedy(&train_set, &RemedyParams::default()).dataset;
    let fi = FairnessIndexParams::default();

    let mut table = TsvWriter::new(
        "discussion_cost_sensitive",
        &[
            "FN:FP cost ratio",
            "FI(FPR) orig",
            "FI(FPR) remedied",
            "relative improvement",
        ],
    );
    for ratio in [1.0, 2.0, 4.0, 8.0] {
        let cost = CostMatrix::favor_recall(ratio);
        let base = dt(&cost_proportionate(&train_set, cost));
        let fixed = dt(&cost_proportionate(&remedied, cost));
        let fi_base =
            fairness_index(&test_set, &base.predict(&test_set), Statistic::Fpr, &fi).unwrap();
        let fi_fixed =
            fairness_index(&test_set, &fixed.predict(&test_set), Statistic::Fpr, &fi).unwrap();
        let improvement = if fi_base > 0.0 {
            1.0 - fi_fixed / fi_base
        } else {
            0.0
        };
        table.row(&[
            format!("{ratio}:1"),
            f3(fi_base),
            f3(fi_fixed),
            format!("{:.0}%", improvement * 100.0),
        ]);
    }
    table.finish();
    println!(
        "\n(the paper's §VI limitation: the remedy's leverage weakens as the\n\
         classifier optimizes misclassification cost instead of accuracy)"
    );
}

fn iterated_remedy() {
    let seed = 42;
    let data = load(DatasetSpec::Compas, seed);
    let (train_set, test_set) = paper_split(&data, seed);
    let fi = FairnessIndexParams::default();
    let mut table = TsvWriter::new(
        "discussion_iterated_remedy",
        &["rounds", "residual IBS", "FI(FPR)", "accuracy"],
    );
    // round 0 baseline
    let base = dt(&train_set);
    let base_preds = base.predict(&test_set);
    let outcome0 = remedy_iterative(
        &train_set,
        &IterativeParams {
            max_rounds: 0,
            ..IterativeParams::default()
        },
    );
    table.row(&[
        "0".into(),
        outcome0.ibs_trace[0].to_string(),
        f3(fairness_index(&test_set, &base_preds, Statistic::Fpr, &fi).unwrap()),
        f3(accuracy(&base_preds, test_set.labels())),
    ]);
    for rounds in [1usize, 2, 4] {
        let outcome = remedy_iterative(
            &train_set,
            &IterativeParams {
                max_rounds: rounds,
                ..IterativeParams::default()
            },
        );
        let model = dt(&outcome.dataset);
        let preds = model.predict(&test_set);
        table.row(&[
            outcome.rounds().to_string(),
            outcome.ibs_trace.last().unwrap().to_string(),
            f3(fairness_index(&test_set, &preds, Statistic::Fpr, &fi).unwrap()),
            f3(accuracy(&preds, test_set.labels())),
        ]);
    }
    table.finish();
}
