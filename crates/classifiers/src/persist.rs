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

use crate::forest::RandomForest;
use crate::linear::LogisticRegression;
use crate::model::Model;
use crate::naive_bayes::NaiveBayes;
use crate::tree::{DecisionTree, Node};
use remedy_dataset::format::Magic;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: Magic = Magic::new("remedy-model", 1);

/// Errors from loading a model file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Missing or wrong magic header.
    BadHeader,
    /// Structurally invalid body.
    Malformed(String),
    /// I/O failure.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "not a remedy-model v1 file"),
            PersistError::Malformed(msg) => write!(f, "malformed model file: {msg}"),
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

/// Serializes a decision tree.
pub fn tree_to_text(tree: &DecisionTree) -> String {
    let mut out = format!("{}\nkind decision-tree\n", MAGIC.line());
    write_tree_body(tree, &mut out);
    out
}

fn write_tree_body(tree: &DecisionTree, out: &mut String) {
    let _ = writeln!(out, "nodes {}", tree.nodes.len());
    for node in &tree.nodes {
        out.push_str(&node.to_line());
        out.push('\n');
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
    let _ = writeln!(
        out,
        "offsets {}",
        model
            .offsets
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "weights {}",
        model
            .weights
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    out
}

/// Serializes a naive-Bayes model.
pub fn naive_bayes_to_text(model: &NaiveBayes) -> String {
    let mut out = format!("{}\nkind naive-bayes\n", MAGIC.line());
    let _ = writeln!(out, "prior {} {}", model.log_prior[0], model.log_prior[1]);
    for (class, conds) in model.log_cond.iter().enumerate() {
        let _ = writeln!(out, "class {class} attrs {}", conds.len());
        for values in conds {
            let _ = writeln!(
                out,
                "attr {}",
                values
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
    out
}

/// Deserializes any supported model from its text form.
pub fn from_text(text: &str) -> Result<SavedModel, PersistError> {
    let mut lines = text.lines();
    MAGIC
        .expect(lines.next())
        .map_err(|_| PersistError::BadHeader)?;
    let kind_line = lines
        .next()
        .ok_or_else(|| PersistError::Malformed("missing kind".into()))?;
    let kind = kind_line
        .strip_prefix("kind ")
        .ok_or_else(|| PersistError::Malformed("missing kind".into()))?;
    match kind {
        "decision-tree" => Ok(SavedModel::DecisionTree(read_tree(&mut lines)?)),
        "random-forest" => {
            let header = lines
                .next()
                .ok_or_else(|| PersistError::Malformed("missing trees count".into()))?;
            let n: usize = header
                .strip_prefix("trees ")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| PersistError::Malformed("bad trees header".into()))?;
            let trees = (0..n)
                .map(|_| read_tree(&mut lines))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SavedModel::RandomForest(RandomForest { trees }))
        }
        "logistic-regression" => {
            let bias = parse_prefixed(&mut lines, "bias ")?
                .parse()
                .map_err(|_| PersistError::Malformed("bad bias".into()))?;
            let offsets = parse_prefixed(&mut lines, "offsets ")?
                .split_whitespace()
                .map(|t| t.parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| PersistError::Malformed("bad offsets".into()))?;
            let weights = parse_prefixed(&mut lines, "weights ")?
                .split_whitespace()
                .map(|t| t.parse::<f64>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| PersistError::Malformed("bad weights".into()))?;
            Ok(SavedModel::LogisticRegression(LogisticRegression {
                offsets,
                weights,
                bias,
            }))
        }
        "naive-bayes" => {
            let prior_line = parse_prefixed(&mut lines, "prior ")?;
            let mut parts = prior_line.split_whitespace();
            let p0: f64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| PersistError::Malformed("bad prior".into()))?;
            let p1: f64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| PersistError::Malformed("bad prior".into()))?;
            let mut log_cond: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
            for class_conds in log_cond.iter_mut() {
                let header = lines
                    .next()
                    .ok_or_else(|| PersistError::Malformed("missing class".into()))?;
                let n_attrs: usize = header
                    .rsplit(' ')
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| PersistError::Malformed("bad class header".into()))?;
                for _ in 0..n_attrs {
                    let values = parse_prefixed(&mut lines, "attr ")?
                        .split_whitespace()
                        .map(|t| t.parse::<f64>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| PersistError::Malformed("bad attr values".into()))?;
                    class_conds.push(values);
                }
            }
            Ok(SavedModel::NaiveBayes(NaiveBayes {
                log_prior: [p0, p1],
                log_cond,
            }))
        }
        other => Err(PersistError::Malformed(format!("unknown kind `{other}`"))),
    }
}

fn parse_prefixed<'a>(
    lines: &mut std::str::Lines<'a>,
    prefix: &str,
) -> Result<&'a str, PersistError> {
    lines
        .next()
        .and_then(|l| l.strip_prefix(prefix))
        .ok_or_else(|| PersistError::Malformed(format!("expected `{prefix}…` line")))
}

fn read_tree(lines: &mut std::str::Lines<'_>) -> Result<DecisionTree, PersistError> {
    let header = lines
        .next()
        .ok_or_else(|| PersistError::Malformed("missing nodes header".into()))?;
    let n: usize = header
        .strip_prefix("nodes ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| PersistError::Malformed("bad nodes header".into()))?;
    // the header count is untrusted and no input length is at hand here:
    // grow with the nodes actually read instead of reserving `n`
    let mut nodes = Vec::new();
    for _ in 0..n {
        let line = lines
            .next()
            .ok_or_else(|| PersistError::Malformed("truncated node list".into()))?;
        nodes.push(
            Node::from_line(line)
                .ok_or_else(|| PersistError::Malformed(format!("bad node `{line}`")))?,
        );
    }
    if nodes.is_empty() {
        return Err(PersistError::Malformed("empty tree".into()));
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
    from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::linear::LogisticRegressionParams;
    use crate::tree::DecisionTreeParams;
    use remedy_dataset::{Attribute, Dataset, Schema};

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
        assert_eq!(from_text("junk").unwrap_err(), PersistError::BadHeader);
        assert!(matches!(
            from_text("remedy-model v1\nkind alien\n"),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            from_text("remedy-model v1\nkind decision-tree\nnodes 2\nleaf 0.5\n"),
            Err(PersistError::Malformed(_)) // truncated
        ));
        assert!(matches!(
            from_text("remedy-model v1\nkind decision-tree\nnodes 1\nblorp\n"),
            Err(PersistError::Malformed(_))
        ));
        assert!(load_from_path("/nonexistent/path.model").is_err());
    }

    /// The node count is untrusted: a huge one must yield a typed error,
    /// not a "capacity overflow" panic from pre-allocating it.
    #[test]
    fn huge_node_count_is_a_typed_error() {
        let text = format!("remedy-model v1\nkind decision-tree\nnodes {}\n", u64::MAX);
        assert!(matches!(from_text(&text), Err(PersistError::Malformed(_))));
    }
}
