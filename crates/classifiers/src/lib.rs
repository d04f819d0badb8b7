//! # remedy-classifiers
//!
//! Weight-aware machine-learning classifiers over categorical datasets,
//! built from scratch for the `remedy` reproduction.
//!
//! The paper evaluates its pre-processing method on four downstream models —
//! decision tree, random forest, logistic regression, and neural network —
//! and uses a Naïve Bayes *ranker* inside the preferential-sampling and
//! data-massaging remedies. Fair-SMOTE additionally needs a k-nearest-
//! neighbor search. All of these live here:
//!
//! * [`tree::DecisionTree`] — CART with weighted Gini impurity and
//!   categorical one-vs-rest splits.
//! * [`forest::RandomForest`] — bagging + feature subsampling, trained in
//!   parallel with scoped threads.
//! * [`linear::LogisticRegression`] — one-hot features, weighted
//!   cross-entropy, L2-regularized batch gradient descent.
//! * [`mlp::NeuralNetwork`] — single-hidden-layer perceptron with ReLU,
//!   weighted cross-entropy, seeded mini-batch SGD.
//! * [`naive_bayes::NaiveBayes`] — categorical NB with Laplace smoothing
//!   (the borderline-instance ranker).
//! * [`knn`] — brute-force k-nearest neighbors over category codes.
//! * [`grid::GridSearch`] — small hyper-parameter sweeps with a validation
//!   split, mirroring the paper's "grid search for optimal hyperparameters".
//! * [`cost`] — cost-proportionate example weighting (Zadrozny et al.,
//!   the paper's §VI cost-sensitive-classifier discussion).
//!
//! [`ModelKind`] names every model above but kNN (`dt|rf|lg|nn|nb`):
//! [`ModelKind::fit`] trains one with default hyper-parameters into a
//! [`SavedModel`], which predicts and writes the `remedy-model v1` text
//! that [`persist::from_text`] reads back.
//!
//! Every trainer honours per-instance weights from
//! [`Dataset::weights`](remedy_dataset::Dataset::weights), which the
//! reweighting baselines rely on.

pub mod cost;
pub mod forest;
pub mod grid;
pub mod kfold;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod naive_bayes;
mod onehot;
pub mod persist;
pub mod tree;

pub use cost::{cost_proportionate, CostMatrix};
pub use forest::{RandomForest, RandomForestParams};
pub use grid::GridSearch;
pub use kfold::{cross_validate, CvResult};
pub use linear::{LogisticRegression, LogisticRegressionParams};
pub use metrics::accuracy;
pub use mlp::{NeuralNetwork, NeuralNetworkParams};
pub use model::{Model, ModelKind};
pub use naive_bayes::NaiveBayes;
pub use persist::{load_from_path, SavedModel};
pub use tree::{DecisionTree, DecisionTreeParams};
