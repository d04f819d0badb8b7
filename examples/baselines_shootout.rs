//! Compare Remedy against the five mitigation baselines on one dataset.
//!
//! ```text
//! cargo run --example baselines_shootout --release [-- <adult|compas|law>]
//! ```
//!
//! A smaller-scale version of Table III: each method mitigates the
//! training data (or, for GerryFair, trains fairly in-processing), a
//! logistic-regression model is fit, and the test set is scored on
//! GerryFair's fairness-violation metric plus accuracy.

use remedy::baselines::{
    coverage_augment, fair_smote, fairbalance_weights, reweight, CoverageParams, FairSmoteParams,
    GerryFair,
};
use remedy::classifiers::{accuracy, LogisticRegression, LogisticRegressionParams, Model};
use remedy::core::{remedy as remedy_data, RemedyParams};
use remedy::dataset::split::train_test_split;
use remedy::dataset::synth;
use remedy::fairness::{fairness_violation, Statistic};

fn main() {
    let data = match std::env::args().nth(1).as_deref() {
        Some("adult") => synth::adult_n(10_000, 3),
        Some("law") => synth::law_school(3),
        _ => synth::compas(3),
    };
    let (train_set, test_set) = train_test_split(&data, 0.7, 3).unwrap();
    println!(
        "{} train / {} test rows, |X| = {}\n",
        train_set.len(),
        test_set.len(),
        train_set.schema().protected_len()
    );
    println!(
        "{:<14} {:>18} {:>10}",
        "method", "fairness violation", "accuracy"
    );

    let lg = |d: &remedy::dataset::Dataset| {
        LogisticRegression::fit(d, &LogisticRegressionParams::default())
    };
    let score = |name: &str, model: &dyn Model| {
        let predictions = model.predict(&test_set);
        println!(
            "{:<14} {:>18.4} {:>10.3}",
            name,
            fairness_violation(&test_set, &predictions, Statistic::Fpr, 30).unwrap(),
            accuracy(&predictions, test_set.labels())
        );
    };

    score("Original", &lg(&train_set));
    score(
        "Remedy",
        &lg(&remedy_data(&train_set, &RemedyParams::default()).dataset),
    );
    score(
        "Coverage",
        &lg(&coverage_augment(&train_set, &CoverageParams::default()).0),
    );
    score("Reweighting", &lg(&reweight(&train_set)));
    score("FairBalance", &lg(&fairbalance_weights(&train_set)));
    score(
        "Fair-SMOTE",
        &lg(&fair_smote(
            &train_set,
            &FairSmoteParams {
                candidate_cap: 256,
                ..FairSmoteParams::default()
            },
        )),
    );
    score("GerryFair", &GerryFair::default().fit(&train_set));
}
