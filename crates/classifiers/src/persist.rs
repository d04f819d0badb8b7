//! Saving and loading trained models in a versioned line-oriented text
//! format.
//!
//! A remedied dataset is usually produced once and the retrained model
//! deployed; persistence lets the CLI and downstream services reload the
//! exact model without retraining. The format is deliberately simple —
//! UTF-8 text, one record per line — so files are diffable and auditable:
//!
//! ```text
//! remedy-model v1
//! kind decision-tree
//! nodes 5
//! split 0 1 1 2
//! leaf 0.25
//! …
//! ```
//!
//! Every [`ModelKind`] has a form: decision tree, random forest, logistic
//! regression, neural network and naive Bayes.

use crate::forest::RandomForest;
use crate::linear::LogisticRegression;
use crate::mlp::NeuralNetwork;
use crate::model::{Model, ModelKind};
use crate::naive_bayes::NaiveBayes;
use crate::onehot;
use crate::tree::{DecisionTree, Node};
use remedy_dataset::format::{DecodeError, Fields, Lines, Magic};
use remedy_dataset::Schema;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: Magic = Magic::new("remedy-model", 1);

/// Errors from loading a model file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The text is not a well-formed model.
    Decode(DecodeError),
    /// A well-formed model reads an attribute or a code the rows it is
    /// to score cannot supply.
    Schema(String),
    /// I/O failure.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Decode(e) => write!(f, "malformed model file: {e}"),
            PersistError::Schema(msg) => write!(f, "model does not fit the rows: {msg}"),
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A fitted model of any [`ModelKind`], as [`ModelKind::fit`] returns it
/// and [`from_text`] reads it back.
#[derive(Debug)]
pub enum SavedModel {
    /// A CART decision tree.
    DecisionTree(DecisionTree),
    /// A random forest.
    RandomForest(RandomForest),
    /// A logistic-regression model.
    LogisticRegression(LogisticRegression),
    /// A single-hidden-layer neural network.
    NeuralNetwork(NeuralNetwork),
    /// A categorical naive Bayes model.
    NaiveBayes(NaiveBayes),
}

impl Model for SavedModel {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        match self {
            SavedModel::DecisionTree(m) => m.predict_proba_row(codes),
            SavedModel::RandomForest(m) => m.predict_proba_row(codes),
            SavedModel::LogisticRegression(m) => m.predict_proba_row(codes),
            SavedModel::NeuralNetwork(m) => m.predict_proba_row(codes),
            SavedModel::NaiveBayes(m) => m.predict_proba_row(codes),
        }
    }
}

impl SavedModel {
    /// The kind of model this is.
    pub fn kind(&self) -> ModelKind {
        match self {
            SavedModel::DecisionTree(_) => ModelKind::DecisionTree,
            SavedModel::RandomForest(_) => ModelKind::RandomForest,
            SavedModel::LogisticRegression(_) => ModelKind::LogisticRegression,
            SavedModel::NeuralNetwork(_) => ModelKind::NeuralNetwork,
            SavedModel::NaiveBayes(_) => ModelKind::NaiveBayes,
        }
    }

    /// Checks that the model reads only what rows of `schema` supply: a
    /// tree splits on attributes the rows have, and a weighted model has
    /// one block (or table) per attribute with a weight for every code.
    /// A model text records no input layout, so [`from_text`] cannot
    /// tell; a decoded model is checked against the rows it will score
    /// before it scores them, and a mismatch is an error, not a panic.
    pub fn check_schema(&self, schema: &Schema) -> Result<(), PersistError> {
        let cards: Vec<usize> = schema
            .attributes()
            .iter()
            .map(|a| a.cardinality())
            .collect();
        let checked = match self {
            SavedModel::DecisionTree(tree) => check_tree(tree, cards.len()),
            SavedModel::RandomForest(forest) => forest
                .trees
                .iter()
                .try_for_each(|tree| check_tree(tree, cards.len())),
            SavedModel::LogisticRegression(m) => check_blocks(&m.offsets, m.weights.len(), &cards),
            SavedModel::NeuralNetwork(m) => check_blocks(&m.offsets, m.n_features, &cards),
            SavedModel::NaiveBayes(m) => m.log_cond.iter().try_for_each(|tables| {
                let widths: Vec<usize> = tables.iter().map(Vec::len).collect();
                check_widths(&widths, &cards)
            }),
        };
        checked.map_err(PersistError::Schema)
    }

    /// Serializes the model; [`from_text`] reads it back exactly.
    pub fn to_text(&self) -> String {
        let mut out = format!("{}\nkind {}\n", MAGIC.line(), kind_name(self.kind()));
        match self {
            SavedModel::DecisionTree(tree) => write_tree(tree, &mut out),
            SavedModel::RandomForest(forest) => {
                let _ = writeln!(out, "trees {}", forest.trees.len());
                for tree in &forest.trees {
                    write_tree(tree, &mut out);
                }
            }
            SavedModel::LogisticRegression(m) => {
                let _ = writeln!(out, "bias {}", m.bias);
                let _ = writeln!(out, "offsets {}", join(&m.offsets));
                let _ = writeln!(out, "weights {}", join(&m.weights));
            }
            SavedModel::NeuralNetwork(m) => {
                let _ = writeln!(out, "hidden {}", m.hidden);
                let _ = writeln!(out, "offsets {}", join(&m.offsets));
                let _ = writeln!(out, "w1 {}", join(&m.w1));
                let _ = writeln!(out, "b1 {}", join(&m.b1));
                let _ = writeln!(out, "w2 {}", join(&m.w2));
                let _ = writeln!(out, "b2 {}", m.b2);
            }
            SavedModel::NaiveBayes(m) => {
                let _ = writeln!(out, "prior {} {}", m.log_prior[0], m.log_prior[1]);
                for (class, conds) in m.log_cond.iter().enumerate() {
                    let _ = writeln!(out, "class {class} attrs {}", conds.len());
                    for values in conds {
                        let _ = writeln!(out, "attr {}", join(values));
                    }
                }
            }
        }
        out
    }
}

/// The name a model file's `kind` line gives each kind.
fn kind_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::DecisionTree => "decision-tree",
        ModelKind::RandomForest => "random-forest",
        ModelKind::LogisticRegression => "logistic-regression",
        ModelKind::NeuralNetwork => "neural-network",
        ModelKind::NaiveBayes => "naive-bayes",
    }
}

fn write_tree(tree: &DecisionTree, out: &mut String) {
    let _ = writeln!(out, "nodes {}", tree.nodes.len());
    for node in &tree.nodes {
        let _ = match node {
            Node::Leaf { p_pos } => writeln!(out, "leaf {p_pos}"),
            Node::Split {
                attribute,
                value,
                eq,
                ne,
            } => writeln!(out, "split {attribute} {value} {eq} {ne}"),
        };
    }
}

/// A tree may split only on the `n_attrs` attributes the rows have.
fn check_tree(tree: &DecisionTree, n_attrs: usize) -> Result<(), String> {
    for node in &tree.nodes {
        if let Node::Split { attribute, .. } = node {
            if *attribute >= n_attrs {
                return Err(format!(
                    "a split reads attribute {attribute} of rows with {n_attrs}"
                ));
            }
        }
    }
    Ok(())
}

/// One-hot blocks at `offsets` over `n_features` weights must number
/// one per attribute and each hold a weight for every code.
fn check_blocks(offsets: &[usize], n_features: usize, cards: &[usize]) -> Result<(), String> {
    let ends = offsets.iter().skip(1).chain(std::iter::once(&n_features));
    let widths: Vec<usize> = offsets.iter().zip(ends).map(|(a, b)| b - a).collect();
    check_widths(&widths, cards)
}

/// Per-attribute value slots must number one per attribute, each at
/// least the attribute's cardinality.
fn check_widths(widths: &[usize], cards: &[usize]) -> Result<(), String> {
    if widths.len() != cards.len() {
        return Err(format!(
            "{} attribute blocks for rows with {} attributes",
            widths.len(),
            cards.len()
        ));
    }
    match widths.iter().zip(cards).position(|(w, c)| w < c) {
        Some(a) => Err(format!(
            "attribute {a} has {} weights for {} codes",
            widths[a], cards[a]
        )),
        None => Ok(()),
    }
}

/// Space-separated values, as [`Fields::list`] reads them back.
fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Deserializes any model from its text form. A layout whose parts do
/// not fit together is rejected here, so prediction never indexes past
/// the weights.
pub fn from_text(text: &str) -> Result<SavedModel, DecodeError> {
    let mut lines = Lines::open(text, MAGIC)?;
    let name = lines.value("kind", Fields::field)?;
    let Some(kind) = ModelKind::ALL.into_iter().find(|&k| kind_name(k) == name) else {
        return Err(lines.error(format!("unknown kind `{name}`")));
    };
    Ok(match kind {
        ModelKind::DecisionTree => SavedModel::DecisionTree(read_tree(&mut lines)?),
        ModelKind::RandomForest => {
            let trees = (0..lines.count("trees")?).map(|_| read_tree(&mut lines));
            let trees = trees.collect::<Result<_, _>>()?;
            SavedModel::RandomForest(RandomForest { trees })
        }
        ModelKind::LogisticRegression => {
            let bias = lines.value("bias", Fields::parse)?;
            let offsets: Vec<usize> = lines.tagged("offsets")?.list("offset")?;
            let weights: Vec<f64> = lines.tagged("weights")?.list("weight")?;
            onehot::check_offsets(&offsets, weights.len()).map_err(|e| lines.error(e))?;
            SavedModel::LogisticRegression(LogisticRegression {
                offsets,
                weights,
                bias,
            })
        }
        ModelKind::NeuralNetwork => SavedModel::NeuralNetwork(read_network(&mut lines)?),
        ModelKind::NaiveBayes => {
            let log_prior = lines.value("prior", |f, what| Ok([f.parse(what)?, f.parse(what)?]))?;
            let mut log_cond: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
            for (class, conds) in log_cond.iter_mut().enumerate() {
                let mut header = lines.tagged("class")?;
                let (c, attrs) = (header.parse::<usize>("class")?, header.field("attrs")?);
                if (c, attrs) != (class, "attrs") {
                    return Err(header.error(format!("expected `class {class} attrs <n>`")));
                }
                let n = header.records("attrs", 1)?;
                for _ in 0..n {
                    conds.push(lines.tagged("attr")?.list("attr value")?);
                }
            }
            SavedModel::NaiveBayes(NaiveBayes {
                log_prior,
                log_cond,
            })
        }
    })
}

/// Reads an MLP's record. `w1` must hold `hidden` rows of equal width,
/// `b1` and `w2` one value per hidden unit, and the offsets must lay out
/// a row of `w1`.
fn read_network(lines: &mut Lines<'_>) -> Result<NeuralNetwork, DecodeError> {
    let hidden: usize = lines.value("hidden", Fields::parse)?;
    let offsets: Vec<usize> = lines.tagged("offsets")?.list("offset")?;
    let w1: Vec<f64> = lines.tagged("w1")?.list("weight")?;
    let b1: Vec<f64> = lines.tagged("b1")?.list("bias")?;
    let w2: Vec<f64> = lines.tagged("w2")?.list("weight")?;
    let b2 = lines.value("b2", Fields::parse)?;
    if hidden == 0 || !w1.len().is_multiple_of(hidden) || b1.len() != hidden || w2.len() != hidden {
        return Err(lines.error(format!(
            "{} w1, {} b1 and {} w2 weights do not fit {hidden} hidden units",
            w1.len(),
            b1.len(),
            w2.len()
        )));
    }
    let n_features = w1.len() / hidden;
    onehot::check_offsets(&offsets, n_features).map_err(|e| lines.error(e))?;
    Ok(NeuralNetwork {
        offsets,
        n_features,
        w1,
        b1,
        w2,
        b2,
        hidden,
    })
}

/// Reads one `nodes <n>` block. A split's children must come after it
/// and inside the block, as the trainer writes them, so prediction
/// always walks forward and stops at a leaf.
fn read_tree(lines: &mut Lines<'_>) -> Result<DecisionTree, DecodeError> {
    let n = lines.count("nodes")?;
    if n == 0 {
        return Err(lines.error("empty tree"));
    }
    let mut nodes = Vec::with_capacity(n);
    for idx in 0..n {
        let mut fields = lines.record("node")?;
        nodes.push(match fields.field("node")? {
            "leaf" => Node::Leaf {
                p_pos: fields.parse("leaf probability")?,
            },
            "split" => {
                let (attribute, value) = (fields.parse("attribute")?, fields.parse("value")?);
                let (eq, ne) = (fields.parse("eq child")?, fields.parse("ne child")?);
                if !(idx < eq && eq < n && idx < ne && ne < n) {
                    return Err(fields.error(format!(
                        "children {eq}, {ne} of node {idx} are not after it among {n} nodes"
                    )));
                }
                Node::Split {
                    attribute,
                    value,
                    eq,
                    ne,
                }
            }
            other => return Err(fields.error(format!("unknown node `{other}`"))),
        });
        fields.end()?;
    }
    Ok(DecisionTree { nodes })
}

/// Writes a serialized model to a file.
pub fn save_to_path(text: &str, path: impl AsRef<Path>) -> Result<(), PersistError> {
    std::fs::write(path, text).map_err(|e| PersistError::Io(e.to_string()))
}

/// Loads any model from a file.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<SavedModel, PersistError> {
    let text = std::fs::read_to_string(path).map_err(|e| PersistError::Io(e.to_string()))?;
    from_text(&text).map_err(PersistError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeParams;
    use remedy_dataset::{synth, Attribute, Dataset, Schema};

    fn data() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]),
                Attribute::from_strs("b", &["0", "1", "2"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..120 {
            let a = (i % 2) as u32;
            let b = (i % 3) as u32;
            d.push_row(&[a, b], u8::from(a == 1 || b == 2)).unwrap();
        }
        d
    }

    fn assert_same_predictions(a: &dyn Model, b: &dyn Model, d: &Dataset) {
        for i in 0..d.len() {
            let row = d.row(i);
            assert!(
                (a.predict_proba_row(&row) - b.predict_proba_row(&row)).abs() < 1e-12,
                "prediction mismatch at row {i}"
            );
        }
    }

    /// A model that decodes but reads past what the rows supply fails the
    /// schema check with a typed error instead of panicking when scored:
    /// a split on an attribute the rows lack, a one-hot block narrower
    /// than its attribute's cardinality, a layout for another attribute
    /// count, and naive-Bayes tables too short for the codes.
    #[test]
    fn models_that_read_past_the_rows_fail_the_schema_check() {
        let d = data(); // attributes of 2 and 3 codes
        for text in [
            "remedy-model v1\nkind decision-tree\nnodes 3\nsplit 7 0 1 2\nleaf 0\nleaf 1\n",
            "remedy-model v1\nkind random-forest\ntrees 1\nnodes 3\nsplit 2 0 1 2\nleaf 0\nleaf 1\n",
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0 2\nweights 1 2 3\n",
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0\nweights 1 2 3 4 5\n",
            "remedy-model v1\nkind neural-network\nhidden 1\noffsets 0 1\nw1 1 2 3 4 5\nb1 0\nw2 1\nb2 0\n",
            "remedy-model v1\nkind naive-bayes\nprior 0 0\nclass 0 attrs 2\nattr 0 0\nattr 0 0\n\
             class 1 attrs 2\nattr 0 0\nattr 0 0 0\n",
        ] {
            let model = from_text(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            match model.check_schema(d.schema()) {
                Err(PersistError::Schema(msg)) => assert!(!msg.is_empty()),
                other => panic!("{text:?} passed as {other:?}"),
            }
        }
        // the same layouts sized to the rows pass, and score them
        for text in [
            "remedy-model v1\nkind decision-tree\nnodes 3\nsplit 1 0 1 2\nleaf 0\nleaf 1\n",
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0 2\nweights 1 2 3 4 5\n",
        ] {
            let model = from_text(text).unwrap();
            assert_eq!(model.check_schema(d.schema()), Ok(()));
            assert_eq!(model.predict(&d).len(), d.len());
        }
    }

    /// Every kind's text reads back to a model that predicts bit for bit
    /// what the fitted one does, and writes the same text again.
    #[test]
    fn every_kind_round_trips_bit_identically() {
        let mut d = synth::compas_n(400, 5);
        for row in (0..d.len()).step_by(4) {
            d.set_weight(row, 0.5 + row as f64 / 11.0);
        }
        for kind in ModelKind::ALL {
            let fitted = kind.fit(&d, 7);
            let text = fitted.to_text();
            let loaded = from_text(&text).unwrap();
            assert_eq!(loaded.kind(), kind);
            assert_eq!(loaded.to_text(), text, "{kind}");
            assert_eq!(loaded.check_schema(d.schema()), Ok(()), "{kind}");
            for i in 0..d.len() {
                let row = d.row(i);
                assert_eq!(
                    fitted.predict_proba_row(&row).to_bits(),
                    loaded.predict_proba_row(&row).to_bits(),
                    "{kind} row {i}"
                );
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let d = data();
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        let path = std::env::temp_dir().join("remedy_model_test.txt");
        let saved = SavedModel::DecisionTree(tree);
        save_to_path(&saved.to_text(), &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_same_predictions(&saved, &loaded, &d);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            from_text("junk"),
            Err(DecodeError::WrongFamily { .. })
        ));
        assert!(matches!(
            from_text("remedy-model v1\nkind alien\n"),
            Err(DecodeError::Malformed { .. })
        ));
        assert!(matches!(
            from_text("remedy-model v1\nkind decision-tree\nnodes 2\nleaf 0.5\n"),
            Err(DecodeError::Malformed { .. }) // truncated
        ));
        assert!(matches!(
            from_text("remedy-model v1\nkind decision-tree\nnodes 1\nblorp\n"),
            Err(DecodeError::Malformed { .. })
        ));
        assert!(load_from_path("/nonexistent/path.model").is_err());
    }

    /// The node count is untrusted: a huge one must yield a typed error,
    /// not a "capacity overflow" panic from pre-allocating it.
    #[test]
    fn huge_node_count_is_a_typed_error() {
        let text = format!("remedy-model v1\nkind decision-tree\nnodes {}\n", u64::MAX);
        assert!(matches!(
            from_text(&text),
            Err(DecodeError::Malformed { .. })
        ));
    }

    /// A split must point forward, inside the node list: a child past
    /// the end indexed out of bounds at prediction time, and a split
    /// that is its own child looped forever.
    #[test]
    fn split_children_must_follow_their_parent() {
        for split in ["split 0 0 5 5", "split 0 0 0 0"] {
            let text = format!("remedy-model v1\nkind decision-tree\nnodes 1\n{split}\n");
            match from_text(&text) {
                Err(DecodeError::Malformed { line: 4, .. }) => {}
                other => panic!("{split}: {other:?}"),
            }
        }
        // a forest's trees are checked the same way
        let text = "remedy-model v1\nkind random-forest\ntrees 1\nnodes 2\nsplit 0 0 1 0\nleaf 1\n";
        assert!(matches!(
            from_text(text),
            Err(DecodeError::Malformed { line: 5, .. })
        ));
    }

    /// Offsets that do not lay out the weights decoded before, and then
    /// indexed past them when the model predicted.
    #[test]
    fn logistic_offsets_must_lay_out_the_weights() {
        for (offsets, weights) in [("0 1", "1"), ("0 5", "1 2"), ("1 2", "1 2 3"), ("0 0", "1")] {
            let text = format!(
                "remedy-model v1\nkind logistic-regression\nbias 0\noffsets {offsets}\nweights {weights}\n"
            );
            match from_text(&text) {
                Err(DecodeError::Malformed { line: 5, .. }) => {}
                other => panic!("offsets {offsets} over weights {weights}: {other:?}"),
            }
        }
    }

    /// The MLP's record must fit together: `w1` rows of equal width, one
    /// `b1` and `w2` value per hidden unit, and offsets inside a row.
    #[test]
    fn network_layout_must_fit_together() {
        let text = |hidden: &str, offsets: &str, w1: &str, b1: &str, w2: &str| {
            format!(
                "remedy-model v1\nkind neural-network\nhidden {hidden}\noffsets {offsets}\n\
                 w1 {w1}\nb1 {b1}\nw2 {w2}\nb2 0.5\n"
            )
        };
        let ok = from_text(&text("2", "0 1", "1 2 3 4", "0 0", "1 -1")).unwrap();
        assert_eq!(ok.kind(), ModelKind::NeuralNetwork);
        assert!((0.0..=1.0).contains(&ok.predict_proba_row(&[0, 0])));
        for bad in [
            text("0", "0", "", "", ""),                 // no hidden units
            text("2", "0 1", "1 2 3", "0 0", "1 -1"),   // w1 not hidden × features
            text("2", "0 1", "1 2 3 4", "0", "1 -1"),   // b1 too short
            text("2", "0 1", "1 2 3 4", "0 0", "1"),    // w2 too short
            text("2", "0 2", "1 2 3 4", "0 0", "1 -1"), // block past a row
            text("2", "1", "1 2 3 4", "0 0", "1 -1"),   // not from 0
            text(&u64::MAX.to_string(), "0", "1", "0", "1"),
        ] {
            assert!(
                matches!(from_text(&bad), Err(DecodeError::Malformed { .. })),
                "{bad}"
            );
        }
    }
}
