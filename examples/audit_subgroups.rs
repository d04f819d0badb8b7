//! Audit a trained classifier for intersectional subgroup unfairness.
//!
//! ```text
//! cargo run --example audit_subgroups --release [-- <adult|compas|law>]
//! ```
//!
//! Reproduces the paper's validation workflow (§V-B1): train a model,
//! enumerate every intersectional subgroup of the protected attributes
//! with the DivExplorer-style explorer, and cross-reference the unfair
//! ones against the Implicit Biased Set found in the training data — the
//! connection at the heart of Hypothesis 1.

use remedy::classifiers::{Model, ModelKind};
use remedy::core::{identify, Algorithm, IbsParams};
use remedy::dataset::split::train_test_split;
use remedy::dataset::synth;
use remedy::fairness::{Explorer, Statistic};

fn main() {
    let data = match std::env::args().nth(1).as_deref() {
        Some("adult") => synth::adult(7),
        Some("law") => synth::law_school(7),
        _ => synth::compas(7),
    };
    let (train_set, test_set) = train_test_split(&data, 0.7, 7).unwrap();

    // the model under audit
    let model = ModelKind::RandomForest.fit(&train_set, 7);
    let predictions = model.predict(&test_set);

    // every significant unfair subgroup (support ≥ 5%, Welch-t, τ_d = 0.1)
    let explorer = Explorer {
        min_support: 0.05,
        min_size: 30,
        alpha: 0.05,
        columns: None,
    };
    let unfair = explorer
        .unfair_subgroups(&test_set, &predictions, Statistic::Fpr, 0.1)
        .unwrap();

    // the IBS of the training data
    let ibs = identify(&train_set, &IbsParams::default(), Algorithm::Optimized);

    println!(
        "{} unfair subgroups (γ = FPR), {} biased regions in training data\n",
        unfair.len(),
        ibs.len()
    );
    println!(
        "{:<52} {:>10} {:>8}  IBS?",
        "subgroup", "divergence", "FPR_g"
    );
    for report in unfair.iter().take(15) {
        let in_ibs = ibs.iter().any(|r| r.pattern == report.pattern);
        let dominates = ibs.iter().any(|r| report.pattern.dominates(&r.pattern));
        let mark = if in_ibs {
            "in IBS"
        } else if dominates {
            "dominates IBS"
        } else {
            "-"
        };
        println!(
            "{:<52} {:>10.3} {:>8.3}  {}",
            report.pattern.display(test_set.schema()).to_string(),
            report.divergence,
            report.gamma,
            mark
        );
    }
    if unfair.len() > 15 {
        println!("… and {} more", unfair.len() - 15);
    }
}
