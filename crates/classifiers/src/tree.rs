//! CART decision tree with weighted Gini impurity.
//!
//! Splits are categorical one-vs-rest tests `attr == value`, evaluated over
//! every (attribute, value) pair. Instance weights flow through impurity
//! computation and leaf estimates, so reweighting baselines work unchanged.

use crate::model::Model;
use remedy_dataset::Dataset;
use std::ops::Range;

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
        Self::fit_on_rows(data, params, (0..data.len() as u32).collect(), None)
    }

    /// Fits on a row subset (used by the random forest's bootstrap samples;
    /// `rows` may contain duplicates).
    pub(crate) fn fit_on_rows(
        data: &Dataset,
        params: &DecisionTreeParams,
        mut rows: Vec<u32>,
        feature_mask: Option<&[bool]>,
    ) -> Self {
        let mut tree = DecisionTree { nodes: Vec::new() };
        if rows.is_empty() {
            tree.nodes.push(Node::Leaf { p_pos: 0.0 });
            return tree;
        }
        let mut scratch = NodeScratch::new(data, feature_mask);
        tree.build(data, params, &mut rows, 0, &mut scratch);
        tree
    }

    /// Grows the subtree over `rows`, which it leaves partitioned: each
    /// split moves its `eq` rows to the front and its `ne` rows behind
    /// them, both halves in their previous order.
    fn build(
        &mut self,
        data: &Dataset,
        params: &DecisionTreeParams,
        rows: &mut [u32],
        depth: usize,
        scratch: &mut NodeScratch,
    ) -> usize {
        scratch.gather(data, rows);
        let (w_pos, w_neg) = scratch.class_weights();
        let total = w_pos + w_neg;
        let p_pos = if total > 0.0 { w_pos / total } else { 0.0 };
        let gini_here = gini(w_pos, w_neg);

        let stop = depth >= params.max_depth
            || total < params.min_split_weight
            || w_pos == 0.0
            || w_neg == 0.0;
        if !stop {
            if let Some((attr, value, gain)) = best_split(rows, gini_here, w_pos, w_neg, scratch) {
                if gain >= params.min_gain {
                    let n_eq = scratch.partition(rows, data.column(attr), value);
                    if n_eq > 0 && n_eq < rows.len() {
                        let idx = self.nodes.len();
                        self.nodes.push(Node::Leaf { p_pos }); // placeholder
                        let (eq_rows, ne_rows) = rows.split_at_mut(n_eq);
                        let eq = self.build(data, params, eq_rows, depth + 1, scratch);
                        let ne = self.build(data, params, ne_rows, depth + 1, scratch);
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

/// Buffers one fit reuses across its nodes. A node gathers its rows'
/// classes and weights once, in row order, so the split search in
/// [`best_split`] reads them sequentially instead of looking each row up
/// again per attribute; every tally adds in the same order as a direct
/// scan, so every sum is bit-identical to it.
struct NodeScratch<'a> {
    /// Class index of each of the node's rows: 0 when its label is 1
    /// (positive), 1 otherwise.
    class: Vec<u8>,
    /// Weight of each of the node's rows.
    weight: Vec<f64>,
    /// The attributes the fit may split on, in schema order: index,
    /// column, and the range of `tally` its values take.
    attrs: Vec<(usize, &'a [u32], Range<usize>)>,
    /// Per-value `[positive, negative]` weight of every attribute in
    /// `attrs`, one attribute after another.
    tally: Vec<[f64; 2]>,
    /// The `ne` rows of a split while its `eq` rows move to the front.
    spill: Vec<u32>,
}

impl<'a> NodeScratch<'a> {
    fn new(data: &'a Dataset, feature_mask: Option<&[bool]>) -> Self {
        let schema = data.schema();
        let mut attrs = Vec::new();
        let mut values = 0;
        for attr in 0..schema.len() {
            if feature_mask.is_none_or(|mask| mask[attr]) {
                let card = schema.attribute(attr).cardinality();
                attrs.push((attr, data.column(attr), values..values + card));
                values += card;
            }
        }
        NodeScratch {
            class: Vec::new(),
            weight: Vec::new(),
            attrs,
            tally: vec![[0.0; 2]; values],
            spill: Vec::new(),
        }
    }

    fn gather(&mut self, data: &Dataset, rows: &[u32]) {
        let (labels, weights) = (data.labels(), data.weights());
        self.class.clear();
        self.weight.clear();
        for &r in rows {
            let r = r as usize;
            self.class.push(u8::from(labels[r] != 1));
            self.weight.push(weights[r]);
        }
    }

    /// Positive and negative weight of the gathered rows.
    fn class_weights(&self) -> (f64, f64) {
        let mut sums = [0.0; 2];
        for (&c, &w) in self.class.iter().zip(&self.weight) {
            sums[c as usize] += w;
        }
        (sums[0], sums[1])
    }

    /// Reorders `rows` stably so the rows whose `col` code is `value`
    /// come first; returns how many they are.
    fn partition(&mut self, rows: &mut [u32], col: &[u32], value: u32) -> usize {
        self.spill.clear();
        let mut n_eq = 0;
        for i in 0..rows.len() {
            let r = rows[i];
            if col[r as usize] == value {
                rows[n_eq] = r;
                n_eq += 1;
            } else {
                self.spill.push(r);
            }
        }
        rows[n_eq..].copy_from_slice(&self.spill);
        n_eq
    }
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
/// `w_pos_total` / `w_neg_total` are the caller's class weights for `rows`,
/// whose classes and weights `scratch` holds — `build` already gathered
/// and tallied them for its own stop criteria. One pass over the rows
/// tallies every attribute.
fn best_split(
    rows: &[u32],
    gini_parent: f64,
    w_pos_total: f64,
    w_neg_total: f64,
    scratch: &mut NodeScratch,
) -> Option<(usize, u32, f64)> {
    let total_weight = w_pos_total + w_neg_total;
    let mut best: Option<(usize, u32, f64)> = None;
    let NodeScratch {
        class,
        weight,
        attrs,
        tally,
        ..
    } = scratch;

    tally.fill([0.0; 2]);
    for ((&r, &c), &w) in rows.iter().zip(class.iter()).zip(weight.iter()) {
        for (_, col, values) in attrs.iter() {
            tally[values.start + col[r as usize] as usize][c as usize] += w;
        }
    }
    for (attr, _, values) in attrs.iter() {
        for (v, &[p_eq, n_eq]) in tally[values.clone()].iter().enumerate() {
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
                best = Some((*attr, v as u32, gain));
            }
        }
    }
    // zero-gain splits are allowed (subject to `min_gain`): on symmetric
    // interactions such as XOR the first split has zero marginal gain but
    // enables informative children, exactly as in scikit-learn's CART
    best
}

/// The split search before [`NodeScratch`]: every attribute scan looks
/// each row's label and weight up again. Kept as the reference the
/// gathered scan must reproduce node for node.
#[cfg(test)]
pub(crate) mod reference {
    use super::{gini, DecisionTree, DecisionTreeParams, Node};
    use remedy_dataset::Dataset;

    /// [`DecisionTree::fit_on_rows`] through the reference split search.
    pub(crate) fn fit_on_rows(
        data: &Dataset,
        params: &DecisionTreeParams,
        rows: Vec<u32>,
        feature_mask: Option<&[bool]>,
    ) -> DecisionTree {
        let mut tree = DecisionTree { nodes: Vec::new() };
        if rows.is_empty() {
            tree.nodes.push(Node::Leaf { p_pos: 0.0 });
            return tree;
        }
        build(&mut tree, data, params, rows, 0, feature_mask);
        tree
    }

    fn build(
        tree: &mut DecisionTree,
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
                        let idx = tree.nodes.len();
                        tree.nodes.push(Node::Leaf { p_pos });
                        let eq = build(tree, data, params, eq_rows, depth + 1, feature_mask);
                        let ne = build(tree, data, params, ne_rows, depth + 1, feature_mask);
                        tree.nodes[idx] = Node::Split {
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
        let idx = tree.nodes.len();
        tree.nodes.push(Node::Leaf { p_pos });
        idx
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
        best
    }
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

    /// Reweighted copy of `data`: weights cycle through fractions, a
    /// zero, a large value and a subnormal, so tallies round.
    fn reweighted(data: &Dataset) -> Dataset {
        const WEIGHTS: [f64; 7] = [0.25, 1.0 / 3.0, 2.7, 0.0, 1e6, 0.1, f64::MIN_POSITIVE / 4.0];
        let mut d = data.clone();
        for r in 0..d.len() {
            d.set_weight(r, WEIGHTS[r % WEIGHTS.len()]);
        }
        d
    }

    fn param_grid() -> Vec<DecisionTreeParams> {
        vec![
            DecisionTreeParams::default(),
            DecisionTreeParams {
                max_depth: 3,
                ..DecisionTreeParams::default()
            },
            DecisionTreeParams {
                max_depth: 30,
                min_split_weight: 0.0,
                min_gain: 1e-4,
            },
        ]
    }

    fn assert_same_tree(got: &DecisionTree, want: &DecisionTree, what: &str) {
        use crate::SavedModel;
        assert_eq!(
            SavedModel::DecisionTree(got.clone()).to_text(),
            SavedModel::DecisionTree(want.clone()).to_text(),
            "{what}"
        );
    }

    #[test]
    fn gathered_split_search_matches_the_reference() {
        let compas = remedy_dataset::synth::compas_n(3_000, 4);
        let adult = remedy_dataset::synth::adult_n(2_000, 2);
        for (name, data) in [
            ("compas", compas.clone()),
            ("compas reweighted", reweighted(&compas)),
            ("adult", adult.clone()),
            ("adult reweighted", reweighted(&adult)),
        ] {
            for params in param_grid() {
                let all = (0..data.len() as u32).collect();
                let want = reference::fit_on_rows(&data, &params, all, None);
                let got = DecisionTree::fit(&data, &params);
                assert!(got.node_count() > 1, "{name}: {params:?} grew no tree");
                assert_same_tree(&got, &want, &format!("{name}, {params:?}"));
            }
        }
    }

    #[test]
    fn gathered_split_search_matches_on_bootstrap_rows_with_masks() {
        let data = reweighted(&remedy_dataset::synth::adult_n(1_500, 9));
        let n_attrs = data.schema().len();
        let params = DecisionTreeParams::default();
        for case in 0..6u32 {
            // duplicated rows in a scrambled order, as a bootstrap draws
            let rows: Vec<u32> = (0..data.len() as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(case) >> 3) % 1_500)
                .collect();
            let mask: Vec<bool> = (0..n_attrs)
                .map(|a| !(a as u32 + case).is_multiple_of(3))
                .collect();
            let want = reference::fit_on_rows(&data, &params, rows.clone(), Some(&mask));
            let got = DecisionTree::fit_on_rows(&data, &params, rows, Some(&mask));
            assert_same_tree(&got, &want, &format!("case {case}"));
        }
    }

    #[test]
    fn gathered_split_search_matches_on_pure_and_empty_nodes() {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1", "2"]),
                Attribute::from_strs("b", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let params = DecisionTreeParams::default();
        let empty = Dataset::new(schema.clone());
        assert_same_tree(
            &DecisionTree::fit(&empty, &params),
            &reference::fit_on_rows(&empty, &params, Vec::new(), None),
            "empty dataset",
        );
        for label in [0, 1] {
            let mut pure = Dataset::new(schema.clone());
            for i in 0..12u32 {
                pure.push_row_weighted(&[i % 3, i % 2], label, 0.5 + f64::from(i))
                    .unwrap();
            }
            let all: Vec<u32> = (0..12).collect();
            let got = DecisionTree::fit(&pure, &params);
            assert_eq!(got.node_count(), 1, "pure label {label} split");
            assert_same_tree(
                &got,
                &reference::fit_on_rows(&pure, &params, all, None),
                &format!("pure label {label}"),
            );
            assert_same_tree(
                &DecisionTree::fit_on_rows(&pure, &params, Vec::new(), None),
                &reference::fit_on_rows(&pure, &params, Vec::new(), None),
                "no rows",
            );
        }
        // XOR labels make the root split a zero-gain one, and value 2 of
        // `a` never occurs, so every node tallies an empty value
        let mut xor = Dataset::new(schema);
        for i in 0..40u32 {
            let (a, b) = (i % 2, (i / 2) % 2);
            xor.push_row(&[a, b], u8::from(a != b)).unwrap();
        }
        let all = (0..xor.len() as u32).collect();
        let got = DecisionTree::fit(&xor, &params);
        assert!(got.depth() >= 2);
        assert_same_tree(
            &got,
            &reference::fit_on_rows(&xor, &params, all, None),
            "xor",
        );
    }
}
