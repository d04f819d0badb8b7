//! K-fold cross-validation for model assessment.
//!
//! The paper tunes via a single validation split; k-fold CV is the
//! standard companion utility for reporting stable accuracy estimates on
//! the small evaluation datasets (COMPAS and Law School are a few thousand
//! rows).

use crate::metrics::accuracy;
use crate::model::{Model, ModelKind};
use remedy_dataset::split::SplitRng;
use remedy_dataset::Dataset;

/// Summary of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Per-fold test accuracy.
    pub fold_accuracy: Vec<f64>,
}

impl CvResult {
    /// Mean accuracy across folds.
    pub fn mean(&self) -> f64 {
        if self.fold_accuracy.is_empty() {
            return 0.0;
        }
        self.fold_accuracy.iter().sum::<f64>() / self.fold_accuracy.len() as f64
    }

    /// Unbiased standard deviation across folds.
    pub fn std_dev(&self) -> f64 {
        let n = self.fold_accuracy.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .fold_accuracy
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// Splits `0..n` into `k` contiguous folds of a shuffled permutation.
pub fn fold_indices(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(n >= k, "need at least one row per fold");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitRng::new(seed);
    rng.shuffle(&mut order);
    let mut folds: Vec<Vec<usize>> = vec![Vec::with_capacity(n / k + 1); k];
    for (i, row) in order.into_iter().enumerate() {
        folds[i % k].push(row);
    }
    folds
}

/// Runs k-fold cross-validation of a model kind with default
/// hyper-parameters.
pub fn cross_validate(data: &Dataset, kind: ModelKind, k: usize, seed: u64) -> CvResult {
    let folds = fold_indices(data.len(), k, seed);
    let mut fold_accuracy = Vec::with_capacity(k);
    for test_fold in &folds {
        let mut train_rows: Vec<usize> = Vec::with_capacity(data.len() - test_fold.len());
        for fold in &folds {
            if !std::ptr::eq(fold, test_fold) {
                train_rows.extend_from_slice(fold);
            }
        }
        let train_set = data.subset(&train_rows);
        let test_set = data.subset(test_fold);
        let model = kind.fit(&train_set, seed);
        fold_accuracy.push(accuracy(&model.predict(&test_set), test_set.labels()));
    }
    CvResult { fold_accuracy }
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
            d.push_row(&[a, (i % 3) as u32], u8::from(a == 1)).unwrap();
        }
        d
    }

    #[test]
    fn folds_partition_rows() {
        let folds = fold_indices(103, 5, 7);
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // balanced within one
        for f in &folds {
            assert!((20..=21).contains(&f.len()));
        }
    }

    #[test]
    fn cv_on_separable_data_scores_high() {
        let d = data(200);
        let result = cross_validate(&d, ModelKind::DecisionTree, 5, 3);
        assert_eq!(result.fold_accuracy.len(), 5);
        assert!(result.mean() > 0.95, "mean {}", result.mean());
        assert!(result.std_dev() < 0.1);
    }

    #[test]
    fn cv_is_deterministic() {
        let d = data(120);
        let r1 = cross_validate(&d, ModelKind::DecisionTree, 4, 9);
        let r2 = cross_validate(&d, ModelKind::DecisionTree, 4, 9);
        assert_eq!(r1, r2);
    }

    #[test]
    fn degenerate_results() {
        let empty = CvResult {
            fold_accuracy: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
        let single = CvResult {
            fold_accuracy: vec![0.8],
        };
        assert_eq!(single.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_rejected() {
        let _ = fold_indices(10, 1, 0);
    }
}
