//! CART decision tree with weighted Gini impurity.
//!
//! Splits are categorical one-vs-rest tests `attr == value`, evaluated over
//! every (attribute, value) pair. Instance weights flow through impurity
//! computation and leaf estimates, so reweighting baselines work unchanged.

use crate::model::Model;
use remedy_dataset::Dataset;

/// Hyper-parameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum total instance weight required to split a node.
    pub min_split_weight: f64,
    /// Minimum weighted Gini decrease required to accept a split.
    pub min_gain: f64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 12,
            min_split_weight: 4.0,
            min_gain: 0.0,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Weighted positive fraction at this leaf.
        p_pos: f64,
    },
    Split {
        attribute: usize,
        value: u32,
        /// Child when `row[attribute] == value`.
        eq: usize,
        /// Child otherwise.
        ne: usize,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
}

impl DecisionTree {
    /// Learns a tree from a (possibly weighted) dataset.
    pub fn fit(data: &Dataset, params: &DecisionTreeParams) -> Self {
        let rows: Vec<u32> = (0..data.len() as u32).collect();
        let mut tree = DecisionTree { nodes: Vec::new() };
        if data.is_empty() {
            tree.nodes.push(Node::Leaf { p_pos: 0.0 });
            return tree;
        }
        tree.build(data, params, rows, 0);
        tree
    }

    /// Fits on a row subset (used by the random forest's bootstrap samples;
    /// `rows` may contain duplicates).
    pub(crate) fn fit_on_rows(
        data: &Dataset,
        params: &DecisionTreeParams,
        rows: Vec<u32>,
        feature_mask: Option<&[bool]>,
    ) -> Self {
        let mut tree = DecisionTree { nodes: Vec::new() };
        if rows.is_empty() {
            tree.nodes.push(Node::Leaf { p_pos: 0.0 });
            return tree;
        }
        tree.build_masked(data, params, rows, 0, feature_mask);
        tree
    }

    fn build(
        &mut self,
        data: &Dataset,
        params: &DecisionTreeParams,
        rows: Vec<u32>,
        depth: usize,
    ) -> usize {
        self.build_masked(data, params, rows, depth, None)
    }

    fn build_masked(
        &mut self,
        data: &Dataset,
        params: &DecisionTreeParams,
        rows: Vec<u32>,
        depth: usize,
        feature_mask: Option<&[bool]>,
    ) -> usize {
        let (w_pos, w_neg) = class_weights(data, &rows);
        let total = w_pos + w_neg;
        let p_pos = if total > 0.0 { w_pos / total } else { 0.0 };
        let gini_here = gini(w_pos, w_neg);

        let stop = depth >= params.max_depth
            || total < params.min_split_weight
            || w_pos == 0.0
            || w_neg == 0.0;
        if !stop {
            if let Some((attr, value, gain)) =
                best_split(data, &rows, gini_here, w_pos, w_neg, feature_mask)
            {
                if gain >= params.min_gain {
                    let (eq_rows, ne_rows): (Vec<u32>, Vec<u32>) = rows
                        .iter()
                        .partition(|&&r| data.value(r as usize, attr) == value);
                    if !eq_rows.is_empty() && !ne_rows.is_empty() {
                        let idx = self.nodes.len();
                        self.nodes.push(Node::Leaf { p_pos }); // placeholder
                        let eq = self.build_masked(data, params, eq_rows, depth + 1, feature_mask);
                        let ne = self.build_masked(data, params, ne_rows, depth + 1, feature_mask);
                        self.nodes[idx] = Node::Split {
                            attribute: attr,
                            value,
                            eq,
                            ne,
                        };
                        return idx;
                    }
                }
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { p_pos });
        idx
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 0,
            Node::Split { eq, ne, .. } => 1 + self.depth_of(*eq).max(self.depth_of(*ne)),
        }
    }
}

impl Model for DecisionTree {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { p_pos } => return *p_pos,
                Node::Split {
                    attribute,
                    value,
                    eq,
                    ne,
                } => {
                    idx = if codes[*attribute] == *value {
                        *eq
                    } else {
                        *ne
                    };
                }
            }
        }
    }
}

fn class_weights(data: &Dataset, rows: &[u32]) -> (f64, f64) {
    let mut pos = 0.0;
    let mut neg = 0.0;
    for &r in rows {
        let r = r as usize;
        if data.label(r) == 1 {
            pos += data.weight(r);
        } else {
            neg += data.weight(r);
        }
    }
    (pos, neg)
}

/// Weighted binary Gini impurity.
fn gini(w_pos: f64, w_neg: f64) -> f64 {
    let total = w_pos + w_neg;
    if total <= 0.0 {
        return 0.0;
    }
    let p = w_pos / total;
    2.0 * p * (1.0 - p)
}

/// Finds the `(attribute, value)` one-vs-rest split with maximal weighted
/// Gini decrease. Returns `None` when no split separates the rows.
/// `w_pos_total` / `w_neg_total` are the caller's class weights for `rows`
/// — `build_masked` already tallied them for its own stop criteria.
fn best_split(
    data: &Dataset,
    rows: &[u32],
    gini_parent: f64,
    w_pos_total: f64,
    w_neg_total: f64,
    feature_mask: Option<&[bool]>,
) -> Option<(usize, u32, f64)> {
    let schema = data.schema();
    let total_weight = w_pos_total + w_neg_total;
    let mut best: Option<(usize, u32, f64)> = None;
    // per-value weighted class tallies, reused across attributes
    let mut pos_by_value: Vec<f64> = Vec::new();
    let mut neg_by_value: Vec<f64> = Vec::new();

    for attr in 0..schema.len() {
        if let Some(mask) = feature_mask {
            if !mask[attr] {
                continue;
            }
        }
        let card = schema.attribute(attr).cardinality();
        pos_by_value.clear();
        neg_by_value.clear();
        pos_by_value.resize(card, 0.0);
        neg_by_value.resize(card, 0.0);
        let col = data.column(attr);
        for &r in rows {
            let r = r as usize;
            let v = col[r] as usize;
            if data.label(r) == 1 {
                pos_by_value[v] += data.weight(r);
            } else {
                neg_by_value[v] += data.weight(r);
            }
        }
        for v in 0..card {
            let p_eq = pos_by_value[v];
            let n_eq = neg_by_value[v];
            let w_eq = p_eq + n_eq;
            if w_eq <= 0.0 || w_eq >= total_weight {
                continue;
            }
            let p_ne = w_pos_total - p_eq;
            let n_ne = w_neg_total - n_eq;
            let w_ne = p_ne + n_ne;
            let child = (w_eq * gini(p_eq, n_eq) + w_ne * gini(p_ne, n_ne)) / total_weight;
            let gain = gini_parent - child;
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((attr, v as u32, gain));
            }
        }
    }
    // zero-gain splits are allowed (subject to `min_gain`): on symmetric
    // interactions such as XOR the first split has zero marginal gain but
    // enables informative children, exactly as in scikit-learn's CART
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn xor_data() -> Dataset {
        // label = a XOR b: needs depth-2 interactions
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for _ in 0..10 {
            d.push_row(&[0, 0], 0).unwrap();
            d.push_row(&[0, 1], 1).unwrap();
            d.push_row(&[1, 0], 1).unwrap();
            d.push_row(&[1, 1], 0).unwrap();
        }
        d
    }

    #[test]
    fn learns_xor() {
        let d = xor_data();
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        assert_eq!(tree.predict_row(&[0, 0]), 0);
        assert_eq!(tree.predict_row(&[0, 1]), 1);
        assert_eq!(tree.predict_row(&[1, 0]), 1);
        assert_eq!(tree.predict_row(&[1, 1]), 0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let d = xor_data();
        let tree = DecisionTree::fit(
            &d,
            &DecisionTreeParams {
                max_depth: 1,
                ..DecisionTreeParams::default()
            },
        );
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn pure_node_stops_early() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0", "1"])], "y").into_shared();
        let mut d = Dataset::new(schema);
        for _ in 0..20 {
            d.push_row(&[0], 1).unwrap();
            d.push_row(&[1], 1).unwrap();
        }
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_row(&[0]), 1);
    }

    #[test]
    fn empty_dataset_yields_negative_leaf() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0", "1"])], "y").into_shared();
        let d = Dataset::new(schema);
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        assert_eq!(tree.predict_row(&[0]), 0);
    }

    #[test]
    fn weights_shift_the_decision() {
        // equal counts of (0 → y=1) and (0 → y=0); upweighting the positives
        // must flip the leaf to positive
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0"])], "y").into_shared();
        let mut d = Dataset::new(schema);
        for _ in 0..10 {
            d.push_row_weighted(&[0], 1, 3.0).unwrap();
            d.push_row_weighted(&[0], 0, 1.0).unwrap();
        }
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        assert_eq!(tree.predict_row(&[0]), 1);
        let p = tree.predict_proba_row(&[0]);
        assert!((p - 0.75).abs() < 1e-9, "weighted fraction, got {p}");
    }

    #[test]
    fn weighting_equals_replication() {
        // a weight-w instance must act exactly like w copies
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1", "2"]),
            ],
            "y",
        )
        .into_shared();
        let mut weighted = Dataset::new(schema.clone());
        let mut replicated = Dataset::new(schema);
        let rows: [(&[u32; 2], u8, usize); 4] = [
            (&[0, 0], 1, 3),
            (&[0, 1], 0, 2),
            (&[1, 2], 1, 1),
            (&[1, 0], 0, 4),
        ];
        for (codes, y, w) in rows {
            weighted
                .push_row_weighted(codes.as_slice(), y, w as f64)
                .unwrap();
            for _ in 0..w {
                replicated.push_row(codes.as_slice(), y).unwrap();
            }
        }
        let p = DecisionTreeParams::default();
        let t1 = DecisionTree::fit(&weighted, &p);
        let t2 = DecisionTree::fit(&replicated, &p);
        for a in 0..2u32 {
            for b in 0..3u32 {
                assert!(
                    (t1.predict_proba_row(&[a, b]) - t2.predict_proba_row(&[a, b])).abs() < 1e-9
                );
            }
        }
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(0.0, 0.0), 0.0);
        assert_eq!(gini(5.0, 0.0), 0.0);
        assert!((gini(1.0, 1.0) - 0.5).abs() < 1e-12);
    }
}
