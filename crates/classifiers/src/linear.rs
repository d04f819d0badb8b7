//! Logistic regression over one-hot features.
//!
//! Weighted cross-entropy loss with L2 regularization, minimized by
//! full-batch gradient descent with a fixed schedule. Deterministic: weights
//! start at zero, so no seed is needed.
//!
//! Fitting and scoring walk each row's set features alone (see
//! `onehot.rs`).

use crate::model::Model;
use crate::onehot;
use remedy_dataset::Dataset;

/// Hyper-parameters for [`LogisticRegression::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionParams {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength (applied to weights, not the bias).
    pub l2: f64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            learning_rate: 0.7,
            epochs: 250,
            l2: 1e-4,
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Start of each attribute's indicator block in the weight vector.
    pub(crate) offsets: Vec<usize>,
    pub(crate) weights: Vec<f64>,
    pub(crate) bias: f64,
}

impl LogisticRegression {
    /// Learns coefficients from a (possibly weighted) dataset.
    ///
    /// Each epoch sums a row's set features in attribute order, which is
    /// the order of the dense dot product, and the unset ones would only
    /// add zeros. Weights and bias are therefore bit-identical to a fit
    /// over the dense one-hot matrix.
    pub fn fit(data: &Dataset, params: &LogisticRegressionParams) -> Self {
        let (offsets, n_features) = onehot::offsets(data.schema());
        let mut weights = vec![0.0_f64; n_features];
        let mut bias = 0.0_f64;
        let n_attrs = offsets.len();
        let set = onehot::set_features(data, &offsets);
        let total_weight: f64 = data.weights().iter().sum();
        let norm = if total_weight > 0.0 {
            total_weight
        } else {
            1.0
        };

        let mut grad = vec![0.0_f64; n_features];
        for _ in 0..params.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_bias = 0.0;
            for i in 0..data.len() {
                let row = &set[i * n_attrs..(i + 1) * n_attrs];
                let z = row.iter().map(|&f| weights[f]).sum::<f64>() + bias;
                let p = sigmoid(z);
                let err = (p - f64::from(data.label(i))) * data.weight(i);
                for &f in row {
                    grad[f] += err;
                }
                grad_bias += err;
            }
            let lr = params.learning_rate;
            for (w, g) in weights.iter_mut().zip(grad.iter()) {
                *w -= lr * (*g / norm + params.l2 * *w);
            }
            bias -= lr * grad_bias / norm;
        }
        LogisticRegression {
            offsets,
            weights,
            bias,
        }
    }

    /// The learned coefficients (one-hot layout).
    pub fn coefficients(&self) -> &[f64] {
        &self.weights
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f64 {
        self.bias
    }
}

impl Model for LogisticRegression {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        // one-hot sparsity: exactly one active indicator per attribute
        let mut z = self.bias;
        for (col, &code) in codes.iter().enumerate() {
            z += self.weights[self.offsets[col] + code as usize];
        }
        sigmoid(z)
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{synth, Attribute, Schema};

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The fit over the dense one-hot matrix that `fit` replaced, kept
    /// as the reference its weights and bias must match bit for bit.
    fn dense_fit(data: &Dataset, params: &LogisticRegressionParams) -> (Vec<f64>, f64) {
        let (x, n_features) = onehot::dense(data);
        let mut weights = vec![0.0_f64; n_features];
        let mut bias = 0.0_f64;
        let total_weight: f64 = data.weights().iter().sum();
        let norm = if total_weight > 0.0 {
            total_weight
        } else {
            1.0
        };
        let mut grad = vec![0.0_f64; weights.len()];
        for _ in 0..params.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_bias = 0.0;
            for i in 0..data.len() {
                let row = &x[i * n_features..(i + 1) * n_features];
                let p = sigmoid(dot(&weights, row) + bias);
                let err = (p - f64::from(data.label(i))) * data.weight(i);
                for (g, &xi) in grad.iter_mut().zip(row) {
                    *g += err * xi;
                }
                grad_bias += err;
            }
            let lr = params.learning_rate;
            for (w, g) in weights.iter_mut().zip(grad.iter()) {
                *w -= lr * (*g / norm + params.l2 * *w);
            }
            bias -= lr * grad_bias / norm;
        }
        (weights, bias)
    }

    #[test]
    fn sparse_fit_is_bit_identical_to_the_dense_reference() {
        let mut weighted = synth::compas_n(500, 3);
        for row in (0..weighted.len()).step_by(3) {
            weighted.set_weight(row, 0.25 + row as f64 / 7.0);
        }
        let params = LogisticRegressionParams::default();
        for (name, data) in [
            ("adult_n", synth::adult_n(1_200, 7)),
            ("compas_n", synth::compas_n(1_000, 11)),
            ("weighted compas_n", weighted),
        ] {
            let model = LogisticRegression::fit(&data, &params);
            let (weights, bias) = dense_fit(&data, &params);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(model.coefficients()), bits(&weights), "{name} weights");
            assert_eq!(model.intercept().to_bits(), bias.to_bits(), "{name} bias");
        }
    }

    fn linear_data(n: usize) -> Dataset {
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
            d.push_row(&[a, b], u8::from(a == 1)).unwrap();
        }
        d
    }

    #[test]
    fn learns_linearly_separable() {
        let d = linear_data(300);
        let m = LogisticRegression::fit(&d, &LogisticRegressionParams::default());
        let acc = m
            .predict(&d)
            .iter()
            .zip(d.labels())
            .filter(|(p, y)| p == y)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.99, "LR accuracy {acc}");
    }

    #[test]
    fn sparse_and_dense_scoring_agree() {
        let d = linear_data(90);
        let m = LogisticRegression::fit(&d, &LogisticRegressionParams::default());
        let (x, n_features) = onehot::dense(&d);
        for (i, row) in x.chunks(n_features).enumerate() {
            let dense = sigmoid(dot(m.coefficients(), row) + m.intercept());
            let sparse = m.predict_proba_row(&d.row(i));
            assert!((dense - sparse).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_dataset_predicts_half() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
        let d = Dataset::new(schema);
        let m = LogisticRegression::fit(&d, &LogisticRegressionParams::default());
        assert!((m.predict_proba_row(&[0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_bias_decision() {
        // identical features; weighted positives dominate
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
        let mut d = Dataset::new(schema);
        for _ in 0..20 {
            d.push_row_weighted(&[0], 1, 4.0).unwrap();
            d.push_row_weighted(&[0], 0, 1.0).unwrap();
        }
        let m = LogisticRegression::fit(&d, &LogisticRegressionParams::default());
        let p = m.predict_proba_row(&[0]);
        assert!(p > 0.7, "weighted positive fraction should pull p up: {p}");
    }

    #[test]
    fn l2_shrinks_coefficients() {
        let d = linear_data(120);
        let loose = LogisticRegression::fit(
            &d,
            &LogisticRegressionParams {
                l2: 0.0,
                ..LogisticRegressionParams::default()
            },
        );
        let tight = LogisticRegression::fit(
            &d,
            &LogisticRegressionParams {
                l2: 1.0,
                ..LogisticRegressionParams::default()
            },
        );
        let norm = |w: &[f64]| w.iter().map(|x| x * x).sum::<f64>();
        assert!(norm(tight.coefficients()) < norm(loose.coefficients()));
    }
}
