//! Single-hidden-layer neural network (multi-layer perceptron).
//!
//! One-hot inputs → ReLU hidden layer → sigmoid output, trained with
//! seeded mini-batch SGD on weighted binary cross-entropy. Fitting and
//! scoring walk each row's set features alone (see `onehot.rs`).

use crate::model::Model;
use crate::onehot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_dataset::Dataset;

/// Hyper-parameters for [`NeuralNetwork::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNetworkParams {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for NeuralNetworkParams {
    fn default() -> Self {
        NeuralNetworkParams {
            hidden: 16,
            epochs: 40,
            batch_size: 64,
            learning_rate: 0.15,
            l2: 1e-4,
        }
    }
}

/// A trained MLP.
#[derive(Debug, Clone)]
pub struct NeuralNetwork {
    /// Start of each attribute's indicator block in a row of `w1`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) n_features: usize,
    /// `hidden × n_features`, row-major by hidden unit.
    pub(crate) w1: Vec<f64>,
    pub(crate) b1: Vec<f64>,
    pub(crate) w2: Vec<f64>,
    pub(crate) b2: f64,
    pub(crate) hidden: usize,
}

impl NeuralNetwork {
    /// Learns network weights from a (possibly weighted) dataset.
    ///
    /// The forward pass and the first layer's gradient walk each row's
    /// set features in ascending order, which is the order of the dense
    /// products, and the unset ones would only add zeros. The weights are
    /// therefore bit-identical to a fit over the dense one-hot matrix.
    pub fn fit(data: &Dataset, params: &NeuralNetworkParams, seed: u64) -> Self {
        let (offsets, n_features) = onehot::offsets(data.schema());
        let hidden = params.hidden.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / n_features.max(1) as f64).sqrt();
        let mut net = NeuralNetwork {
            offsets,
            n_features,
            w1: (0..hidden * n_features)
                .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
                .collect(),
            b1: vec![0.0; hidden],
            w2: (0..hidden)
                .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
                .collect(),
            b2: 0.0,
            hidden,
        };
        let n_attrs = net.offsets.len();
        let set = onehot::set_features(data, &net.offsets);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut h = vec![0.0_f64; hidden];
        let mut delta_h = vec![0.0_f64; hidden];
        let mut g_w1 = vec![0.0_f64; hidden * n_features];
        let mut g_b1 = vec![0.0_f64; hidden];
        let mut g_w2 = vec![0.0_f64; hidden];
        for _ in 0..params.epochs {
            // Fisher–Yates shuffle with the training RNG
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(params.batch_size.max(1)) {
                let mut batch_weight = 0.0;
                // accumulate gradients over the batch
                g_w1.fill(0.0);
                g_b1.fill(0.0);
                g_w2.fill(0.0);
                let mut g_b2 = 0.0_f64;
                for &i in batch {
                    let row = &set[i * n_attrs..(i + 1) * n_attrs];
                    let w = data.weight(i);
                    batch_weight += w;
                    // forward
                    for (k, hk) in h.iter_mut().enumerate() {
                        *hk = net.hidden_unit(k, row.iter().copied());
                    }
                    let z2 = net.b2 + net.w2.iter().zip(h.iter()).map(|(a, b)| a * b).sum::<f64>();
                    let p = sigmoid(z2);
                    let err = (p - f64::from(data.label(i))) * w;
                    // backward
                    g_b2 += err;
                    for k in 0..hidden {
                        g_w2[k] += err * h[k];
                        delta_h[k] = if h[k] > 0.0 { err * net.w2[k] } else { 0.0 };
                    }
                    for k in 0..hidden {
                        if delta_h[k] == 0.0 {
                            continue;
                        }
                        let grow = &mut g_w1[k * n_features..(k + 1) * n_features];
                        for &f in row {
                            grow[f] += delta_h[k];
                        }
                        g_b1[k] += delta_h[k];
                    }
                }
                if batch_weight <= 0.0 {
                    continue;
                }
                let lr = params.learning_rate / batch_weight;
                let weights = net.w1.iter_mut().zip(&g_w1);
                for (wi, gi) in weights.chain(net.w2.iter_mut().zip(&g_w2)) {
                    *wi -= lr * gi + params.learning_rate * params.l2 * *wi;
                }
                for (bi, gi) in net.b1.iter_mut().zip(&g_b1) {
                    *bi -= lr * gi;
                }
                net.b2 -= lr * g_b2;
            }
        }
        net
    }

    /// Hidden unit `k`'s ReLU activation on a row's set features.
    fn hidden_unit(&self, k: usize, set: impl Iterator<Item = usize>) -> f64 {
        let wrow = &self.w1[k * self.n_features..(k + 1) * self.n_features];
        set.fold(self.b1[k], |z, f| z + wrow[f]).max(0.0)
    }
}

impl Model for NeuralNetwork {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        let set = || {
            codes
                .iter()
                .zip(&self.offsets)
                .map(|(&c, &o)| o + c as usize)
        };
        let mut z2 = self.b2;
        for k in 0..self.hidden {
            z2 += self.w2[k] * self.hidden_unit(k, set());
        }
        sigmoid(z2)
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

    /// The fit over the dense one-hot matrix that `fit` replaced, kept
    /// as the reference its parameters must match bit for bit.
    fn dense_fit(data: &Dataset, params: &NeuralNetworkParams, seed: u64) -> NeuralNetwork {
        let (x, n_features) = onehot::dense(data);
        let hidden = params.hidden.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / n_features.max(1) as f64).sqrt();
        let mut net = NeuralNetwork {
            offsets: onehot::offsets(data.schema()).0,
            n_features,
            w1: (0..hidden * n_features)
                .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
                .collect(),
            b1: vec![0.0; hidden],
            w2: (0..hidden)
                .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
                .collect(),
            b2: 0.0,
            hidden,
        };
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut h = vec![0.0_f64; hidden];
        let mut delta_h = vec![0.0_f64; hidden];
        for _ in 0..params.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(params.batch_size.max(1)) {
                let mut batch_weight = 0.0;
                let mut g_w1 = vec![0.0_f64; hidden * n_features];
                let mut g_b1 = vec![0.0_f64; hidden];
                let mut g_w2 = vec![0.0_f64; hidden];
                let mut g_b2 = 0.0_f64;
                for &i in batch {
                    let row = &x[i * n_features..(i + 1) * n_features];
                    let w = data.weight(i);
                    batch_weight += w;
                    for (k, hk) in h.iter_mut().enumerate() {
                        let mut z = net.b1[k];
                        let wrow = &net.w1[k * n_features..(k + 1) * n_features];
                        for (&wi, &xi) in wrow.iter().zip(row) {
                            z += wi * xi;
                        }
                        *hk = z.max(0.0);
                    }
                    let z2 = net.b2 + net.w2.iter().zip(h.iter()).map(|(a, b)| a * b).sum::<f64>();
                    let err = (sigmoid(z2) - f64::from(data.label(i))) * w;
                    g_b2 += err;
                    for k in 0..hidden {
                        g_w2[k] += err * h[k];
                        delta_h[k] = if h[k] > 0.0 { err * net.w2[k] } else { 0.0 };
                    }
                    for k in 0..hidden {
                        if delta_h[k] == 0.0 {
                            continue;
                        }
                        let grow = &mut g_w1[k * n_features..(k + 1) * n_features];
                        for (g, &xi) in grow.iter_mut().zip(row) {
                            *g += delta_h[k] * xi;
                        }
                        g_b1[k] += delta_h[k];
                    }
                }
                if batch_weight <= 0.0 {
                    continue;
                }
                let lr = params.learning_rate / batch_weight;
                for (wi, gi) in net.w1.iter_mut().zip(g_w1.iter()) {
                    *wi -= lr * gi + params.learning_rate * params.l2 * *wi;
                }
                for (bi, gi) in net.b1.iter_mut().zip(g_b1.iter()) {
                    *bi -= lr * gi;
                }
                for (wi, gi) in net.w2.iter_mut().zip(g_w2.iter()) {
                    *wi -= lr * gi + params.learning_rate * params.l2 * *wi;
                }
                net.b2 -= lr * g_b2;
            }
        }
        net
    }

    #[test]
    fn sparse_fit_is_bit_identical_to_the_dense_reference() {
        let mut weighted = synth::compas_n(400, 3);
        for row in (0..weighted.len()).step_by(3) {
            weighted.set_weight(row, 0.25 + row as f64 / 7.0);
        }
        let params = NeuralNetworkParams {
            epochs: 8,
            ..NeuralNetworkParams::default()
        };
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, data) in [
            ("adult_n", synth::adult_n(800, 7)),
            ("compas_n", synth::compas_n(600, 11)),
            ("weighted compas_n", weighted),
        ] {
            for seed in [1, 42] {
                let (got, want) = (
                    NeuralNetwork::fit(&data, &params, seed),
                    dense_fit(&data, &params, seed),
                );
                assert_eq!(bits(&got.w1), bits(&want.w1), "{name} seed {seed} w1");
                assert_eq!(bits(&got.b1), bits(&want.b1), "{name} seed {seed} b1");
                assert_eq!(bits(&got.w2), bits(&want.w2), "{name} seed {seed} w2");
                assert_eq!(got.b2.to_bits(), want.b2.to_bits(), "{name} seed {seed} b2");
            }
        }
    }

    fn xor_data(n: usize) -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..n {
            let a = (i % 2) as u32;
            let b = ((i / 2) % 2) as u32;
            d.push_row(&[a, b], u8::from(a != b)).unwrap();
        }
        d
    }

    #[test]
    fn learns_xor() {
        let d = xor_data(400);
        let p = NeuralNetworkParams {
            epochs: 150,
            ..NeuralNetworkParams::default()
        };
        let m = NeuralNetwork::fit(&d, &p, 3);
        assert_eq!(m.predict_row(&[0, 0]), 0);
        assert_eq!(m.predict_row(&[0, 1]), 1);
        assert_eq!(m.predict_row(&[1, 0]), 1);
        assert_eq!(m.predict_row(&[1, 1]), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = xor_data(100);
        let p = NeuralNetworkParams::default();
        let m1 = NeuralNetwork::fit(&d, &p, 11);
        let m2 = NeuralNetwork::fit(&d, &p, 11);
        assert_eq!(m1.predict_proba(&d), m2.predict_proba(&d));
    }

    #[test]
    fn empty_dataset_is_safe() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
        let d = Dataset::new(schema);
        let m = NeuralNetwork::fit(&d, &NeuralNetworkParams::default(), 1);
        let p = m.predict_proba_row(&[0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn probabilities_bounded() {
        let d = xor_data(60);
        let m = NeuralNetwork::fit(&d, &NeuralNetworkParams::default(), 5);
        for p in m.predict_proba(&d) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
