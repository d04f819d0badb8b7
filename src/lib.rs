//! # remedy
//!
//! Facade crate for the `remedy` workspace — a from-scratch Rust
//! implementation of *"Mitigating Subgroup Unfairness in Machine Learning
//! Classifiers: A Data-Driven Approach"* (Lin, Gupta & Jagadish, ICDE
//! 2024).
//!
//! Each member crate is re-exported under a short alias:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dataset`] | `remedy-dataset` | schema, columnar data, patterns, CSV, splits, synthetic generators |
//! | [`classifiers`] | `remedy-classifiers` | DT / RF / LG / NN / NB / kNN, grid search, CV, costing, persistence |
//! | [`fairness`] | `remedy-fairness` | divergence, subgroup explorer, fairness index, violations, audits |
//! | [`core`] | `remedy-core` | the paper's method: hierarchy, IBS identification, dataset remedy |
//! | [`baselines`] | `remedy-baselines` | Coverage, Reweighting, FairBalance, Fair-SMOTE, GerryFair |
//! | [`pipeline`] | `remedy-pipeline` | end-to-end runs as a cached, parallel DAG of typed stages |
//!
//! The [`prelude`] pulls in the types most programs need:
//!
//! (The `remedy` *function* is exported as [`apply_remedy`] in the
//! prelude so a glob import cannot shadow the crate name.)
//!
//! ```
//! use remedy::prelude::*;
//!
//! let data = remedy::dataset::synth::compas_n(1_000, 42);
//! let ibs = identify(&data, &IbsParams::default(), Algorithm::Optimized);
//! let fixed = apply_remedy(&data, &RemedyParams::default()).dataset;
//! assert!(fixed.len() > 0 || ibs.is_empty());
//! ```
//!
//! [`apply_remedy`]: remedy_core::remedy::remedy

pub use remedy_baselines as baselines;
pub use remedy_classifiers as classifiers;
pub use remedy_core as core;
pub use remedy_dataset as dataset;
pub use remedy_fairness as fairness;
pub use remedy_pipeline as pipeline;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use remedy_classifiers::{accuracy, Model, ModelKind};
    pub use remedy_core::remedy as apply_remedy;
    pub use remedy_core::{
        identify, Algorithm, IbsParams, Neighborhood, RemedyParams, Scope, Technique,
    };
    pub use remedy_dataset::{Attribute, Dataset, Pattern, Schema};
    pub use remedy_fairness::{
        fairness_index, fairness_violation, Explorer, FairnessIndexParams, Statistic,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_pipeline() {
        let data = remedy_dataset::synth::compas_n(800, 1);
        let ibs = identify(&data, &IbsParams::default(), Algorithm::Optimized);
        let outcome = apply_remedy(&data, &RemedyParams::default());
        let model = ModelKind::DecisionTree.fit(&outcome.dataset, 1);
        let preds = model.predict(&data);
        let fi = fairness_index(
            &data,
            &preds,
            Statistic::Fpr,
            &FairnessIndexParams::default(),
        )
        .unwrap();
        assert!(fi >= 0.0);
        let _ = ibs;
    }
}
