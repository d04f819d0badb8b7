//! Figure 3 — validation: unfair subgroups vs. IBS membership.
//!
//! ```text
//! cargo run -p remedy-bench --bin fig3 --release [-- <fpr|fnr>]
//! ```
//!
//! Trains all four classifiers on the ProPublica stand-in, lists every
//! significant unfair subgroup in the test predictions, and marks whether
//! the corresponding region is **in IBS** (the paper's grey marking) or
//! **dominates** significant biased regions (blue). The paper's claim
//! (Hypothesis 1): nearly every unfair subgroup carries one of the two
//! marks, and the sign of the imbalance gap predicts the direction of
//! unfairness (`ratio_r > ratio_rn` regions have elevated FPR and vice
//! versa for FNR).

use remedy_bench::datasets::{load, DatasetSpec};
use remedy_bench::eval::paper_split;
use remedy_bench::table::{f3, TsvWriter};
use remedy_classifiers::{train, ModelKind};
use remedy_core::hypothesis::{validate_on_columns, IbsMark};
use remedy_core::{Algorithm, IbsParams};
use remedy_fairness::{ConfusionCounts, Statistic};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stat = if args.iter().any(|a| a == "fnr") {
        Statistic::Fnr
    } else {
        Statistic::Fpr
    };
    let seed = 42;
    let data = load(DatasetSpec::Compas, seed);
    let (train_set, test_set) = paper_split(&data, seed);
    // "all" analyses the full attribute space (the paper's Figure 1
    // hierarchy spans {Age, #prior, Race}, beyond Table II's protected set)
    let columns: Vec<usize> = if args.iter().any(|a| a == "all") {
        (0..train_set.schema().len()).collect()
    } else {
        train_set.schema().protected_indices()
    };

    // IBS on the training data: τ_c = 0.1, T = 1 (§V-B1)
    let params = IbsParams::builder()
        .tau_c(0.1)
        .min_size(30)
        .build()
        .unwrap();
    let ibs = remedy_core::try_identify_over(&train_set, &columns, &params, Algorithm::Optimized)
        .expect("protected columns fit the dense lattice");
    println!(
        "IBS on training data: {} biased regions (τ_c = {}, T = 1)\n",
        ibs.len(),
        params.tau_c
    );

    let scope_tag = if columns.len() == train_set.schema().len() {
        "_all_attrs"
    } else {
        ""
    };
    let mut table = TsvWriter::new(
        &format!("fig3_{}{}", stat.name().to_lowercase(), scope_tag),
        &[
            "model",
            "unfair subgroup",
            "divergence",
            "gamma_g",
            "in IBS",
            "dominates IBS",
            "region gap sign",
        ],
    );
    let tau_d = 0.1;
    let mut marked = 0usize;
    let mut total = 0usize;
    let mut sign_agreements = Vec::new();
    for kind in ModelKind::ALL {
        let model = train(kind, &train_set, seed);
        let predictions = model.predict(&test_set);
        let validation = validate_on_columns(
            &train_set,
            &test_set,
            &predictions,
            stat,
            &params,
            tau_d,
            &columns,
        );
        let overall = ConfusionCounts::from_predictions(&predictions, test_set.labels());
        let gamma_d = remedy_fairness::statistic_of(&overall, stat);
        if let Some(agreement) = validation.sign_agreement(gamma_d) {
            sign_agreements.push(agreement);
        }
        for s in &validation.subgroups {
            total += 1;
            if s.mark != IbsMark::Unexplained {
                marked += 1;
            }
            table.row(&[
                kind.abbrev().to_string(),
                s.report.pattern.display(test_set.schema()).to_string(),
                f3(s.report.divergence),
                f3(s.report.gamma),
                match s.mark {
                    IbsMark::InIbs => "yes (grey)",
                    _ => "no",
                }
                .to_string(),
                match s.mark {
                    IbsMark::DominatesIbs => "yes (blue)",
                    IbsMark::InIbs if s.excess_positives.is_some() => "—",
                    _ => "no",
                }
                .to_string(),
                match s.excess_positives {
                    Some(true) => "ratio_r > ratio_rn",
                    Some(false) => "ratio_r < ratio_rn",
                    None => "-",
                }
                .to_string(),
            ]);
        }
    }
    table.finish();
    println!("\n{marked}/{total} unfair subgroups are in IBS or dominate IBS regions (γ = {stat})");
    if !sign_agreements.is_empty() {
        let mean = sign_agreements.iter().sum::<f64>() / sign_agreements.len() as f64;
        println!(
            "gap-sign ↔ unfairness-direction agreement: {:.0}%",
            mean * 100.0
        );
    }
}
