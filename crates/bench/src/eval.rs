//! The train → remedy → retrain → evaluate pipeline shared by the
//! experiment binaries.

use remedy_classifiers::{accuracy, ModelKind};
use remedy_core::{remedy, RemedyParams};
use remedy_dataset::split::train_test_split;
use remedy_dataset::Dataset;
use remedy_fairness::{fairness_index, FairnessIndexParams, Statistic};

/// Evaluation of one trained model on a test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Fairness index under γ = FPR.
    pub fi_fpr: f64,
    /// Fairness index under γ = FNR.
    pub fi_fnr: f64,
    /// Test accuracy.
    pub accuracy: f64,
}

/// Configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Downstream classifier.
    pub model: ModelKind,
    /// Remedy parameters; `None` runs the unremedied baseline ("Original").
    pub remedy: Option<RemedyParams>,
    /// Training seed (forwarded to stochastic trainers).
    pub seed: u64,
}

/// Trains on (optionally remedied) training data and evaluates on the test
/// set. As in the paper, the test set is never remedied.
pub fn run_pipeline(
    train_set: &Dataset,
    test_set: &Dataset,
    config: &PipelineConfig,
) -> Evaluation {
    let effective_train = match &config.remedy {
        Some(params) => remedy(train_set, params).dataset,
        None => train_set.clone(),
    };
    let model = config.model.fit(&effective_train, config.seed);
    evaluate(&model, test_set)
}

/// Evaluates a trained model: fairness indexes under both statistics plus
/// accuracy.
pub fn evaluate(model: &dyn remedy_classifiers::Model, test_set: &Dataset) -> Evaluation {
    let predictions = model.predict(test_set);
    let fi = FairnessIndexParams::default();
    Evaluation {
        fi_fpr: fairness_index(test_set, &predictions, Statistic::Fpr, &fi).unwrap(),
        fi_fnr: fairness_index(test_set, &predictions, Statistic::Fnr, &fi).unwrap(),
        accuracy: accuracy(&predictions, test_set.labels()),
    }
}

/// The paper's 70/30 split.
pub fn paper_split(data: &Dataset, seed: u64) -> (Dataset, Dataset) {
    train_test_split(data, 0.7, seed).expect("non-empty dataset")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load_n, DatasetSpec};
    use remedy_core::Technique;

    #[test]
    fn remedy_improves_fairness_index_on_compas() {
        let data = load_n(DatasetSpec::Compas, 4_000, 7);
        let (train_set, test_set) = paper_split(&data, 7);
        let base = run_pipeline(
            &train_set,
            &test_set,
            &PipelineConfig {
                model: ModelKind::DecisionTree,
                remedy: None,
                seed: 7,
            },
        );
        let remedied = run_pipeline(
            &train_set,
            &test_set,
            &PipelineConfig {
                model: ModelKind::DecisionTree,
                remedy: Some(
                    RemedyParams::builder()
                        .technique(Technique::PreferentialSampling)
                        .tau_c(0.1)
                        .build()
                        .unwrap(),
                ),
                seed: 7,
            },
        );
        assert!(
            remedied.fi_fpr < base.fi_fpr,
            "FPR fairness index should improve: {} → {}",
            base.fi_fpr,
            remedied.fi_fpr
        );
        assert!(
            base.accuracy - remedied.accuracy < 0.1,
            "accuracy drop should stay below 0.1: {} → {}",
            base.accuracy,
            remedied.accuracy
        );
    }

    /// §VI's iterated remedy, on the `discussion` bin's own input: every
    /// round shrinks the COMPAS IBS, and it is empty within three rounds.
    #[test]
    fn iterated_remedy_empties_compas_ibs() {
        let data = crate::datasets::load(DatasetSpec::Compas, 42);
        let (train_set, _) = paper_split(&data, 42);
        let outcome = remedy_core::remedy_iterative(&train_set, &Default::default());
        let trace = &outcome.ibs_trace;
        assert!(trace.windows(2).all(|w| w[1] < w[0]), "{trace:?}");
        assert_eq!(trace.last(), Some(&0), "{trace:?}");
        assert!(outcome.rounds() <= 3, "{trace:?}");
    }

    #[test]
    fn evaluation_fields_are_sane() {
        let data = load_n(DatasetSpec::Compas, 1_500, 3);
        let (train_set, test_set) = paper_split(&data, 3);
        let eval = run_pipeline(
            &train_set,
            &test_set,
            &PipelineConfig {
                model: ModelKind::DecisionTree,
                remedy: None,
                seed: 3,
            },
        );
        assert!((0.0..=1.0).contains(&eval.accuracy));
        assert!(eval.fi_fpr >= 0.0 && eval.fi_fnr >= 0.0);
        assert!(eval.accuracy > 0.5, "DT should beat chance");
    }
}
