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
//! Supported model families: decision tree, random forest, logistic
//! regression, naive Bayes. (The MLP's dense weight matrices are better
//! served by retraining from the recorded seed, which is fully
//! deterministic.)

use crate::forest::{RandomForest, RandomForestParams};
use crate::linear::{LogisticRegression, LogisticRegressionParams};
use crate::model::Model;
use crate::naive_bayes::NaiveBayes;
use crate::tree::{DecisionTree, DecisionTreeParams, Node};
use remedy_dataset::format::{DecodeError, Fields, Lines, Magic};
use remedy_dataset::vocab::{self, Tokens};
use remedy_dataset::Dataset;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: Magic = Magic::new("remedy-model", 1);

/// Errors from loading a model file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The text is not a well-formed model.
    Decode(DecodeError),
    /// I/O failure.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Decode(e) => write!(f, "malformed model file: {e}"),
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A model loaded from disk.
#[derive(Debug)]
pub enum SavedModel {
    /// A CART decision tree.
    DecisionTree(DecisionTree),
    /// A random forest.
    RandomForest(RandomForest),
    /// A logistic-regression model.
    LogisticRegression(LogisticRegression),
    /// A categorical naive Bayes model.
    NaiveBayes(NaiveBayes),
}

impl Model for SavedModel {
    fn predict_proba_row(&self, codes: &[u32]) -> f64 {
        match self {
            SavedModel::DecisionTree(m) => m.predict_proba_row(codes),
            SavedModel::RandomForest(m) => m.predict_proba_row(codes),
            SavedModel::LogisticRegression(m) => m.predict_proba_row(codes),
            SavedModel::NaiveBayes(m) => m.predict_proba_row(codes),
        }
    }
}

impl SavedModel {
    /// The stored family name.
    pub fn kind(&self) -> &'static str {
        match self {
            SavedModel::DecisionTree(_) => "decision-tree",
            SavedModel::RandomForest(_) => "random-forest",
            SavedModel::LogisticRegression(_) => "logistic-regression",
            SavedModel::NaiveBayes(_) => "naive-bayes",
        }
    }
}

/// The model families that can be trained *and* saved in this format:
/// every [`ModelKind`](crate::ModelKind) but the MLP, which is
/// seed-reproducible, so retraining is its persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelFamily {
    /// CART decision tree.
    #[default]
    DecisionTree,
    /// Random forest.
    RandomForest,
    /// Logistic regression.
    LogisticRegression,
    /// Categorical naive Bayes.
    NaiveBayes,
}

/// The accepted spelling of each persistable family.
const MODEL_FAMILY_TOKENS: &Tokens<ModelFamily> = &[
    (ModelFamily::DecisionTree, &["dt"]),
    (ModelFamily::RandomForest, &["rf"]),
    (ModelFamily::LogisticRegression, &["lg"]),
    (ModelFamily::NaiveBayes, &["nb"]),
];

impl std::str::FromStr for ModelFamily {
    type Err = String;
    fn from_str(s: &str) -> Result<ModelFamily, String> {
        vocab::parse(MODEL_FAMILY_TOKENS, s)
    }
}

impl ModelFamily {
    /// The family's token (`dt`, `rf`, `lg`, `nb`).
    pub fn token(self) -> &'static str {
        let (_, spellings) = MODEL_FAMILY_TOKENS
            .iter()
            .find(|(f, _)| *f == self)
            .expect("every family has a token");
        spellings[0]
    }

    /// Fits the family with default hyper-parameters (`seed` drives the
    /// forest's bootstraps) and serializes the fitted model.
    pub fn fit_to_text(self, data: &Dataset, seed: u64) -> String {
        match self {
            ModelFamily::DecisionTree => {
                tree_to_text(&DecisionTree::fit(data, &DecisionTreeParams::default()))
            }
            ModelFamily::RandomForest => forest_to_text(&RandomForest::fit(
                data,
                &RandomForestParams::default(),
                seed,
            )),
            ModelFamily::LogisticRegression => logistic_to_text(&LogisticRegression::fit(
                data,
                &LogisticRegressionParams::default(),
            )),
            ModelFamily::NaiveBayes => naive_bayes_to_text(&NaiveBayes::fit(data)),
        }
    }
}

/// Serializes a decision tree.
pub fn tree_to_text(tree: &DecisionTree) -> String {
    let mut out = format!("{}\nkind decision-tree\n", MAGIC.line());
    write_tree_body(tree, &mut out);
    out
}

fn write_tree_body(tree: &DecisionTree, out: &mut String) {
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

/// Serializes a random forest.
pub fn forest_to_text(forest: &RandomForest) -> String {
    let mut out = format!(
        "{}\nkind random-forest\ntrees {}\n",
        MAGIC.line(),
        forest.trees.len()
    );
    for tree in &forest.trees {
        write_tree_body(tree, &mut out);
    }
    out
}

/// Serializes a logistic-regression model.
pub fn logistic_to_text(model: &LogisticRegression) -> String {
    let mut out = format!("{}\nkind logistic-regression\n", MAGIC.line());
    let _ = writeln!(out, "bias {}", model.bias);
    let _ = writeln!(out, "offsets {}", join(&model.offsets));
    let _ = writeln!(out, "weights {}", join(&model.weights));
    out
}

/// Serializes a naive-Bayes model.
pub fn naive_bayes_to_text(model: &NaiveBayes) -> String {
    let mut out = format!("{}\nkind naive-bayes\n", MAGIC.line());
    let _ = writeln!(out, "prior {} {}", model.log_prior[0], model.log_prior[1]);
    for (class, conds) in model.log_cond.iter().enumerate() {
        let _ = writeln!(out, "class {class} attrs {}", conds.len());
        for values in conds {
            let _ = writeln!(out, "attr {}", join(values));
        }
    }
    out
}

/// Space-separated values, as [`Fields::list`] reads them back.
fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Deserializes any supported model from its text form.
pub fn from_text(text: &str) -> Result<SavedModel, DecodeError> {
    let mut lines = Lines::open(text, MAGIC)?;
    Ok(match lines.value("kind", Fields::field)? {
        "decision-tree" => SavedModel::DecisionTree(read_tree(&mut lines)?),
        "random-forest" => {
            let trees = (0..lines.count("trees")?).map(|_| read_tree(&mut lines));
            let trees = trees.collect::<Result<_, _>>()?;
            SavedModel::RandomForest(RandomForest { trees })
        }
        "logistic-regression" => SavedModel::LogisticRegression(LogisticRegression {
            bias: lines.value("bias", Fields::parse)?,
            offsets: lines.tagged("offsets")?.list("offset")?,
            weights: lines.tagged("weights")?.list("weight")?,
        }),
        "naive-bayes" => {
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
        other => return Err(lines.error(format!("unknown kind `{other}`"))),
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

/// Loads any supported model from a file.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<SavedModel, PersistError> {
    let text = std::fs::read_to_string(path).map_err(|e| PersistError::Io(e.to_string()))?;
    from_text(&text).map_err(PersistError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

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

    #[test]
    fn model_family_tokens_parse_and_fit() {
        let err = "nn".parse::<ModelFamily>().unwrap_err();
        assert_eq!(err, "`nn` is not dt|rf|lg|nb");
        for (family, spellings) in MODEL_FAMILY_TOKENS {
            assert!(err.contains(spellings[0]));
            assert_eq!(spellings[0].parse::<ModelFamily>().unwrap(), *family);
            assert_eq!(family.token(), spellings[0]);
        }
        assert_eq!(ModelFamily::default(), ModelFamily::DecisionTree);
        let d = data();
        let loaded = from_text(&ModelFamily::NaiveBayes.fit_to_text(&d, 7)).unwrap();
        assert_eq!(loaded.kind(), "naive-bayes");
    }

    #[test]
    fn tree_roundtrip() {
        let d = data();
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        let loaded = from_text(&tree_to_text(&tree)).unwrap();
        assert_eq!(loaded.kind(), "decision-tree");
        assert_same_predictions(&tree, &loaded, &d);
    }

    #[test]
    fn forest_roundtrip() {
        let d = data();
        let forest = RandomForest::fit(
            &d,
            &RandomForestParams {
                n_trees: 5,
                ..RandomForestParams::default()
            },
            3,
        );
        let loaded = from_text(&forest_to_text(&forest)).unwrap();
        assert_eq!(loaded.kind(), "random-forest");
        assert_same_predictions(&forest, &loaded, &d);
    }

    #[test]
    fn logistic_roundtrip() {
        let d = data();
        let model = LogisticRegression::fit(&d, &LogisticRegressionParams::default());
        let loaded = from_text(&logistic_to_text(&model)).unwrap();
        assert_eq!(loaded.kind(), "logistic-regression");
        assert_same_predictions(&model, &loaded, &d);
    }

    #[test]
    fn naive_bayes_roundtrip() {
        let d = data();
        let model = NaiveBayes::fit(&d);
        let loaded = from_text(&naive_bayes_to_text(&model)).unwrap();
        assert_eq!(loaded.kind(), "naive-bayes");
        assert_same_predictions(&model, &loaded, &d);
    }

    #[test]
    fn file_roundtrip() {
        let d = data();
        let tree = DecisionTree::fit(&d, &DecisionTreeParams::default());
        let path = std::env::temp_dir().join("remedy_model_test.txt");
        save_to_path(&tree_to_text(&tree), &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_same_predictions(&tree, &loaded, &d);
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
}
