//! Hyper-parameter grid search with a held-out validation split.
//!
//! The paper tunes each downstream classifier by grid search; this module
//! mirrors that with compact per-family grids. The winning configuration is
//! retrained on the full training set.

use crate::forest::{RandomForest, RandomForestParams};
use crate::linear::{LogisticRegression, LogisticRegressionParams};
use crate::metrics::accuracy;
use crate::mlp::{NeuralNetwork, NeuralNetworkParams};
use crate::model::{Model, ModelKind};
use crate::naive_bayes::NaiveBayes;
use crate::persist::SavedModel;
use crate::tree::{DecisionTree, DecisionTreeParams};
use remedy_dataset::split::train_test_split;
use remedy_dataset::Dataset;

/// Grid-search driver for one model kind.
#[derive(Debug, Clone)]
pub struct GridSearch {
    kind: ModelKind,
    /// Fraction of data used for training inside the search (rest validates).
    pub train_fraction: f64,
    /// Seed for splits and stochastic trainers.
    pub seed: u64,
}

/// Outcome of a grid search.
pub struct GridSearchResult {
    /// Model retrained on the full dataset with the winning configuration.
    pub model: SavedModel,
    /// Validation accuracy of the winning configuration.
    pub validation_accuracy: f64,
    /// Human-readable description of the winning configuration.
    pub config: String,
}

impl GridSearch {
    /// Creates a search for a model kind.
    pub fn new(kind: ModelKind) -> Self {
        GridSearch {
            kind,
            train_fraction: 0.8,
            seed: 0x6A1D,
        }
    }

    /// Runs the search and retrains the winner on all of `data`.
    pub fn run(&self, data: &Dataset) -> GridSearchResult {
        match self.kind {
            ModelKind::DecisionTree => {
                let grid = [4usize, 8, 12, 16]
                    .into_iter()
                    .map(|depth| DecisionTreeParams {
                        max_depth: depth,
                        ..DecisionTreeParams::default()
                    });
                self.pick(
                    data,
                    grid,
                    |d, p, _| SavedModel::DecisionTree(DecisionTree::fit(d, p)),
                    |p| format!("DT max_depth={}", p.max_depth),
                )
            }
            ModelKind::RandomForest => {
                let grid =
                    [(20usize, 10usize), (30, 14), (50, 14)]
                        .into_iter()
                        .map(|(n_trees, depth)| RandomForestParams {
                            n_trees,
                            tree: DecisionTreeParams {
                                max_depth: depth,
                                ..DecisionTreeParams::default()
                            },
                            ..RandomForestParams::default()
                        });
                self.pick(
                    data,
                    grid,
                    |d, p, seed| SavedModel::RandomForest(RandomForest::fit(d, p, seed)),
                    |p| format!("RF n_trees={} depth={}", p.n_trees, p.tree.max_depth),
                )
            }
            ModelKind::LogisticRegression => {
                let grid = [0.3, 0.7, 1.2]
                    .into_iter()
                    .map(|lr| LogisticRegressionParams {
                        learning_rate: lr,
                        ..LogisticRegressionParams::default()
                    });
                self.pick(
                    data,
                    grid,
                    |d, p, _| SavedModel::LogisticRegression(LogisticRegression::fit(d, p)),
                    |p| format!("LG lr={}", p.learning_rate),
                )
            }
            ModelKind::NeuralNetwork => {
                let grid = [8usize, 16, 32]
                    .into_iter()
                    .map(|hidden| NeuralNetworkParams {
                        hidden,
                        ..NeuralNetworkParams::default()
                    });
                self.pick(
                    data,
                    grid,
                    |d, p, seed| SavedModel::NeuralNetwork(NeuralNetwork::fit(d, p, seed)),
                    |p| format!("NN hidden={}", p.hidden),
                )
            }
            // naive Bayes has no hyper-parameter to search
            ModelKind::NaiveBayes => self.pick(
                data,
                std::iter::once(()),
                |d, _, _| SavedModel::NaiveBayes(NaiveBayes::fit(d)),
                |_| "NB".to_string(),
            ),
        }
    }

    fn pick<P: Clone>(
        &self,
        full: &Dataset,
        grid: impl Iterator<Item = P>,
        fit: impl Fn(&Dataset, &P, u64) -> SavedModel,
        describe: impl Fn(&P) -> String,
    ) -> GridSearchResult {
        let (train, val) =
            train_test_split(full, self.train_fraction, self.seed).expect("valid split");
        let mut best: Option<(f64, P)> = None;
        for params in grid {
            let model = fit(&train, &params, self.seed);
            let acc = accuracy(&model.predict(&val), val.labels());
            if best.as_ref().is_none_or(|(b, _)| acc > *b) {
                best = Some((acc, params));
            }
        }
        let (validation_accuracy, params) = best.expect("non-empty grid");
        GridSearchResult {
            model: fit(full, &params, self.seed),
            validation_accuracy,
            config: describe(&params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn data(n: usize) -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1", "2"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..n {
            let a = (i % 2) as u32;
            let b = (i % 3) as u32;
            d.push_row(&[a, b], u8::from(a == 1 && b != 0)).unwrap();
        }
        d
    }

    #[test]
    fn search_finds_accurate_configuration() {
        let d = data(300);
        for kind in ModelKind::ALL {
            let result = GridSearch::new(kind).run(&d);
            assert!(
                result.validation_accuracy > 0.9,
                "{kind}: {}",
                result.validation_accuracy
            );
            assert!(!result.config.is_empty());
            let acc = accuracy(&result.model.predict(&d), d.labels());
            assert!(acc > 0.9, "{kind} full-data accuracy {acc}");
        }
    }

    #[test]
    fn search_is_deterministic() {
        let d = data(200);
        let r1 = GridSearch::new(ModelKind::DecisionTree).run(&d);
        let r2 = GridSearch::new(ModelKind::DecisionTree).run(&d);
        assert_eq!(r1.config, r2.config);
        assert_eq!(r1.validation_accuracy, r2.validation_accuracy);
    }
}
