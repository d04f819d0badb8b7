//! Random forest: bagging over CART trees with feature subsampling.
//!
//! Bootstrap samples are drawn with probability proportional to instance
//! weights, so weighted datasets behave like replicated ones in expectation.
//! Trees are trained in parallel with scoped threads.

use crate::model::Model;
use crate::tree::{DecisionTree, DecisionTreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_dataset::Dataset;

/// Hyper-parameters for [`RandomForest::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Parameters of each member tree.
    pub tree: DecisionTreeParams,
    /// Number of features each tree may use; `0` means `ceil(sqrt(|A|))`.
    pub max_features: usize,
    /// Number of worker threads; `0` means one per available core.
    pub n_threads: usize,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 30,
            tree: DecisionTreeParams {
                max_depth: 14,
                ..DecisionTreeParams::default()
            },
            max_features: 0,
            n_threads: 0,
        }
    }
}

/// A trained random forest (averaged tree probabilities).
#[derive(Debug)]
pub struct RandomForest {
    pub(crate) trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Learns a forest from a (possibly weighted) dataset.
    pub fn fit(data: &Dataset, params: &RandomForestParams, seed: u64) -> Self {
        if data.is_empty() || params.n_trees == 0 {
            return RandomForest { trees: Vec::new() };
        }
        let bootstrap = Bootstrap::new(data, params, seed);
        let n_threads = if params.n_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            params.n_threads
        }
        .min(params.n_trees)
        .max(1);

        let mut trees: Vec<Option<DecisionTree>> = (0..params.n_trees).map(|_| None).collect();
        let chunk = params.n_trees.div_ceil(n_threads);
        std::thread::scope(|scope| {
            for (t, slot_chunk) in trees.chunks_mut(chunk).enumerate() {
                let bootstrap = &bootstrap;
                scope.spawn(move || {
                    for (j, slot) in slot_chunk.iter_mut().enumerate() {
                        let (rows, mask) = bootstrap.sample(t * chunk + j);
                        *slot = Some(DecisionTree::fit_on_rows(
                            data,
                            &params.tree,
                            rows,
                            Some(&mask),
                        ));
                    }
                });
            }
        });
        RandomForest {
            trees: trees
                .into_iter()
                .map(|t| t.expect("tree trained"))
                .collect(),
        }
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Draws each member tree's training sample: a weighted bootstrap of
/// `|D|` rows and a random feature subset, both from a per-tree RNG, so
/// a tree's sample depends on its index alone, not on the thread that
/// fits it.
struct Bootstrap {
    /// Cumulative instance weights, for weighted row draws.
    cum: Vec<f64>,
    total_weight: f64,
    n_attrs: usize,
    max_features: usize,
    seed: u64,
}

impl Bootstrap {
    fn new(data: &Dataset, params: &RandomForestParams, seed: u64) -> Self {
        let n_attrs = data.schema().len();
        let max_features = if params.max_features == 0 {
            (n_attrs as f64).sqrt().ceil() as usize
        } else {
            params.max_features.min(n_attrs)
        }
        .max(1);
        let mut cum = Vec::with_capacity(data.len());
        let mut acc = 0.0;
        for i in 0..data.len() {
            acc += data.weight(i).max(0.0);
            cum.push(acc);
        }
        Bootstrap {
            cum,
            total_weight: acc,
            n_attrs,
            max_features,
            seed,
        }
    }

    /// Tree `tree_idx`'s bootstrap rows (with duplicates) and feature mask.
    fn sample(&self, tree_idx: usize) -> (Vec<u32>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (0x5EED_0000 + tree_idx as u64));
        let rows: Vec<u32> = (0..self.cum.len())
            .map(|_| {
                let u: f64 = rng.gen::<f64>() * self.total_weight;
                self.cum.partition_point(|&c| c <= u) as u32
            })
            .collect();
        let mut mask = vec![false; self.n_attrs];
        let mut chosen = 0usize;
        while chosen < self.max_features {
            let f = rng.gen_range(0..self.n_attrs);
            if !mask[f] {
                mask[f] = true;
                chosen += 1;
            }
        }
        (rows, mask)
    }
}

impl Model for RandomForest {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba_row(codes)).sum();
        sum / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SavedModel;
    use remedy_dataset::{Attribute, Schema};

    fn noisy_data(n: usize) -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1", "2"]),
                Attribute::from_strs("noise", &["0", "1", "2", "3"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..n {
            let a: u32 = rng.gen_range(0..2);
            let b: u32 = rng.gen_range(0..3);
            let noise: u32 = rng.gen_range(0..4);
            let y = u8::from(a == 1 || b == 2);
            d.push_row(&[a, b, noise], y).unwrap();
        }
        d
    }

    #[test]
    fn learns_disjunction() {
        let d = noisy_data(600);
        let f = RandomForest::fit(&d, &RandomForestParams::default(), 7);
        assert_eq!(f.n_trees(), 30);
        let preds = f.predict(&d);
        let acc =
            preds.iter().zip(d.labels()).filter(|(p, y)| p == y).count() as f64 / d.len() as f64;
        assert!(acc > 0.95, "forest accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let d = noisy_data(200);
        let p = RandomForestParams {
            n_trees: 8,
            n_threads: 2,
            ..RandomForestParams::default()
        };
        let f1 = RandomForest::fit(&d, &p, 99);
        let f2 = RandomForest::fit(&d, &p, 99);
        assert_eq!(f1.predict_proba(&d), f2.predict_proba(&d));
    }

    #[test]
    fn empty_forest_predicts_negative() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
        let d = Dataset::new(schema);
        let f = RandomForest::fit(&d, &RandomForestParams::default(), 1);
        assert_eq!(f.predict_row(&[0]), 0);
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let d = noisy_data(200);
        let base = RandomForestParams {
            n_trees: 6,
            ..RandomForestParams::default()
        };
        let p1 = RandomForestParams {
            n_threads: 1,
            ..base.clone()
        };
        let p4 = RandomForestParams {
            n_threads: 4,
            ..base
        };
        let f1 = RandomForest::fit(&d, &p1, 5);
        let f4 = RandomForest::fit(&d, &p4, 5);
        assert_eq!(f1.predict_proba(&d), f4.predict_proba(&d));
    }

    /// Every member tree equals one grown by the reference split search
    /// on the same bootstrap rows (duplicates included) and feature mask.
    #[test]
    fn forest_matches_reference_trees() {
        let mut d = noisy_data(400);
        for r in (0..d.len()).step_by(3) {
            d.set_weight(r, 0.3 + r as f64 / 7.0);
        }
        let p = RandomForestParams {
            n_trees: 5,
            max_features: 2,
            n_threads: 2,
            ..RandomForestParams::default()
        };
        let bootstrap = Bootstrap::new(&d, &p, 17);
        let trees = (0..p.n_trees)
            .map(|t| {
                let (rows, mask) = bootstrap.sample(t);
                crate::tree::reference::fit_on_rows(&d, &p.tree, rows, Some(&mask))
            })
            .collect();
        assert_eq!(
            SavedModel::RandomForest(RandomForest::fit(&d, &p, 17)).to_text(),
            SavedModel::RandomForest(RandomForest { trees }).to_text()
        );
    }
}
