//! The common [`Model`] trait and the [`ModelKind`] training dispatcher.

use crate::forest::{RandomForest, RandomForestParams};
use crate::linear::{LogisticRegression, LogisticRegressionParams};
use crate::mlp::{NeuralNetwork, NeuralNetworkParams};
use crate::naive_bayes::NaiveBayes;
use crate::persist::SavedModel;
use crate::tree::{DecisionTree, DecisionTreeParams};
use remedy_dataset::vocab::{self, Tokens};
use remedy_dataset::Dataset;

/// A trained binary classifier over rows of category codes.
pub trait Model: Send + Sync {
    /// Probability that the row belongs to the positive class.
    fn predict_proba_row(&self, codes: &[u32]) -> f64;

    /// Hard 0/1 prediction (threshold 0.5).
    fn predict_row(&self, codes: &[u32]) -> u8 {
        u8::from(self.predict_proba_row(codes) >= 0.5)
    }

    /// Hard predictions (threshold 0.5) for every row of a dataset.
    fn predict(&self, data: &Dataset) -> Vec<u8> {
        let probs = self.predict_proba(data).into_iter();
        probs.map(|p| u8::from(p >= 0.5)).collect()
    }

    /// Positive-class probabilities for every row of a dataset.
    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        let mut buf = Vec::with_capacity(data.schema().len());
        (0..data.len())
            .map(|i| {
                data.row_into(i, &mut buf);
                self.predict_proba_row(&buf)
            })
            .collect()
    }
}

/// Every model this crate trains, saves and replays: the paper's four
/// downstream models (§V-A) and the naive-Bayes ranker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// CART decision tree (`DT`).
    #[default]
    DecisionTree,
    /// Random forest (`RF`).
    RandomForest,
    /// Logistic regression (`LG`).
    LogisticRegression,
    /// Single-hidden-layer neural network (`NN`).
    NeuralNetwork,
    /// Categorical naive Bayes (`NB`).
    NaiveBayes,
}

/// The accepted spelling of each model kind.
const MODEL_KIND_TOKENS: &Tokens<ModelKind> = &[
    (ModelKind::DecisionTree, &["dt"]),
    (ModelKind::RandomForest, &["rf"]),
    (ModelKind::LogisticRegression, &["lg"]),
    (ModelKind::NeuralNetwork, &["nn"]),
    (ModelKind::NaiveBayes, &["nb"]),
];

impl ModelKind {
    /// The four downstream models the paper evaluates every remedy on
    /// (§V-A, Figs. 4–6), in its order.
    pub const DOWNSTREAM: [ModelKind; 4] = [
        ModelKind::DecisionTree,
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        ModelKind::NeuralNetwork,
    ];

    /// Every kind, in token-table order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::DecisionTree,
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        ModelKind::NeuralNetwork,
        ModelKind::NaiveBayes,
    ];

    /// The kind's token (`dt`, `rf`, `lg`, `nn`, `nb`): the table lists
    /// the kinds in declaration order.
    pub fn token(self) -> &'static str {
        MODEL_KIND_TOKENS[self as usize].1[0]
    }

    /// Fits a model of this kind with default hyper-parameters.
    ///
    /// `seed` drives every stochastic component (bootstraps, initial
    /// weights, mini-batch order), making training fully reproducible.
    pub fn fit(self, data: &Dataset, seed: u64) -> SavedModel {
        match self {
            ModelKind::DecisionTree => {
                SavedModel::DecisionTree(DecisionTree::fit(data, &DecisionTreeParams::default()))
            }
            ModelKind::RandomForest => SavedModel::RandomForest(RandomForest::fit(
                data,
                &RandomForestParams::default(),
                seed,
            )),
            ModelKind::LogisticRegression => SavedModel::LogisticRegression(
                LogisticRegression::fit(data, &LogisticRegressionParams::default()),
            ),
            ModelKind::NeuralNetwork => SavedModel::NeuralNetwork(NeuralNetwork::fit(
                data,
                &NeuralNetworkParams::default(),
                seed,
            )),
            ModelKind::NaiveBayes => SavedModel::NaiveBayes(NaiveBayes::fit(data)),
        }
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;
    fn from_str(s: &str) -> Result<ModelKind, String> {
        vocab::parse(MODEL_KIND_TOKENS, s)
    }
}

/// The paper's abbreviation: the token in capitals (DT/RF/LG/NN, and NB).
impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.token().to_ascii_uppercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    #[test]
    fn model_kind_tokens_parse_and_reject() {
        let err = "x".parse::<ModelKind>().unwrap_err();
        assert_eq!(err, "`x` is not dt|rf|lg|nn|nb");
        for (kind, spellings) in MODEL_KIND_TOKENS {
            assert!(err.contains(spellings[0]));
            assert_eq!(kind.token(), spellings[0]);
            for spelling in *spellings {
                assert_eq!(spelling.parse::<ModelKind>().unwrap(), *kind);
            }
        }
        let table: Vec<ModelKind> = MODEL_KIND_TOKENS.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(table, ModelKind::ALL);
        assert_eq!(ModelKind::default(), ModelKind::DecisionTree);
    }

    /// A dataset where label == (a == x): trivially separable.
    fn separable(n: usize) -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["x", "y"]).protected(),
                Attribute::from_strs("b", &["p", "q", "r"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..n {
            let a = (i % 2) as u32;
            let b = (i % 3) as u32;
            d.push_row(&[a, b], u8::from(a == 0)).unwrap();
        }
        d
    }

    #[test]
    fn all_kinds_learn_separable_data() {
        let d = separable(300);
        for kind in ModelKind::ALL {
            let model = kind.fit(&d, 42);
            let preds = model.predict(&d);
            let acc = preds.iter().zip(d.labels()).filter(|(p, y)| p == y).count() as f64
                / d.len() as f64;
            assert!(acc > 0.95, "{kind} only reached accuracy {acc}");
        }
    }

    #[test]
    fn abbreviations_match_paper() {
        let shown: Vec<String> = ModelKind::ALL.iter().map(ModelKind::to_string).collect();
        assert_eq!(shown, ["DT", "RF", "LG", "NN", "NB"]);
    }

    #[test]
    fn proba_and_hard_predictions_agree() {
        let d = separable(100);
        let model = ModelKind::LogisticRegression.fit(&d, 1);
        let probs = model.predict_proba(&d);
        let preds = model.predict(&d);
        for (p, y) in probs.iter().zip(preds.iter()) {
            assert_eq!(u8::from(*p >= 0.5), *y);
        }
    }
}
