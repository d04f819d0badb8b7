//! Exact text (de)serialization of datasets.
//!
//! The CSV writer is lossy for caching purposes: codes are renumbered by
//! first appearance on reload, weights are dropped, and protected/ordered
//! flags live outside the file. Pipeline artifacts need a byte-exact round
//! trip — same schema, same codes, same weights — so this module defines a
//! dedicated line-oriented format in the style of the model files:
//!
//! ```text
//! remedy-dataset v1
//! label <name>
//! attr <p|-><o|-> <name> <value> <value> ...
//! rows <n>
//! <code> <code> ... <label> <weight:bits>
//! ```
//!
//! Names and domain values are percent-encoded (space, `%`, control
//! characters, and non-ASCII bytes), weights are stored as
//! `f64::to_bits` hex. The binary columnar sibling of this format lives
//! in [`crate::store`]; this one stays the canonical, diffable form the
//! pipeline hashes.

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::format::{self, Magic};
use crate::schema::{Attribute, Schema};
use std::path::Path;

/// Magic of the exact text format.
pub const DATASET: Magic = Magic::new("remedy-dataset", 1);

/// Percent-encodes whitespace, `%`, control characters, and non-ASCII
/// bytes (see [`format::escape`] for why the last group matters).
fn esc(s: &str) -> String {
    format::escape(s)
}

/// Reverses [`esc`].
fn unesc(s: &str) -> Result<String, DatasetError> {
    format::unescape(s).map_err(|e| DatasetError::Invalid(e.to_string()))
}

/// Serializes a dataset exactly: schema, codes, labels, and weights all
/// survive a round trip through [`dataset_from_text`] unchanged.
pub fn dataset_to_text(data: &Dataset) -> String {
    let schema = data.schema();
    let mut out = format!("{}\nlabel {}\n", DATASET.line(), esc(schema.label_name()));
    for attr in schema.attributes() {
        out.push_str("attr ");
        out.push(if attr.is_protected() { 'p' } else { '-' });
        out.push(if attr.is_ordered() { 'o' } else { '-' });
        out.push(' ');
        out.push_str(&esc(attr.name()));
        for value in attr.domain() {
            out.push(' ');
            out.push_str(&esc(value));
        }
        out.push('\n');
    }
    out.push_str(&format!("rows {}\n", data.len()));
    let cols = schema.len();
    for row in 0..data.len() {
        for col in 0..cols {
            out.push_str(&format!("{} ", data.value(row, col)));
        }
        out.push_str(&format!(
            "{} {:016x}\n",
            data.label(row),
            data.weight(row).to_bits()
        ));
    }
    out
}

/// Parses a dataset written by [`dataset_to_text`].
pub fn dataset_from_text(text: &str) -> Result<Dataset, DatasetError> {
    let mut lines = text.lines();
    DATASET
        .expect(lines.next())
        .map_err(|e| DatasetError::Invalid(e.to_string()))?;
    let label_line = lines
        .next()
        .ok_or_else(|| DatasetError::Invalid("missing label line".into()))?;
    let label_name = unesc(
        label_line
            .strip_prefix("label ")
            .ok_or_else(|| DatasetError::Invalid(format!("bad label line `{label_line}`")))?,
    )?;
    let mut attributes = Vec::new();
    let mut row_count = None;
    for line in lines.by_ref() {
        if let Some(rest) = line.strip_prefix("attr ") {
            let mut fields = rest.split(' ');
            let flags = fields
                .next()
                .ok_or_else(|| DatasetError::Invalid("missing attr flags".into()))?;
            let name = unesc(
                fields
                    .next()
                    .ok_or_else(|| DatasetError::Invalid("missing attr name".into()))?,
            )?;
            let domain: Vec<String> = fields.map(unesc).collect::<Result<_, _>>()?;
            let mut attr = Attribute::new(name, domain);
            if flags.contains('p') {
                attr = attr.protected();
            }
            if flags.contains('o') {
                attr = attr.ordered();
            }
            attributes.push(attr);
        } else if let Some(n) = line.strip_prefix("rows ") {
            row_count = Some(
                n.parse::<usize>()
                    .map_err(|_| DatasetError::Invalid(format!("bad row count `{n}`")))?,
            );
            break;
        } else {
            return Err(DatasetError::Invalid(format!("unexpected line `{line}`")));
        }
    }
    let row_count = row_count.ok_or_else(|| DatasetError::Invalid("missing rows line".into()))?;
    let cols = attributes.len();
    let schema = Schema::new(attributes, label_name).into_shared();
    // a hostile rows line cannot reserve more rows than the input has
    // bytes; a short body is reported below
    let mut data = Dataset::with_capacity(schema, row_count.min(text.len()));
    let mut codes = Vec::with_capacity(cols);
    for line in lines.take(row_count) {
        let mut fields = line.split(' ');
        codes.clear();
        for _ in 0..cols {
            let cell = fields
                .next()
                .ok_or_else(|| DatasetError::Invalid(format!("short row `{line}`")))?;
            codes.push(
                cell.parse::<u32>()
                    .map_err(|_| DatasetError::Invalid(format!("bad code `{cell}`")))?,
            );
        }
        let label = fields
            .next()
            .and_then(|v| v.parse::<u8>().ok())
            .ok_or_else(|| DatasetError::Invalid(format!("bad row label in `{line}`")))?;
        let weight = fields
            .next()
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .map(f64::from_bits)
            .ok_or_else(|| DatasetError::Invalid(format!("bad row weight in `{line}`")))?;
        data.push_row_weighted(&codes, label, weight)?;
    }
    if data.len() != row_count {
        return Err(DatasetError::Invalid(format!(
            "expected {row_count} rows, found {}",
            data.len()
        )));
    }
    Ok(data)
}

/// Writes a dataset artifact to disk.
pub fn save_dataset(data: &Dataset, path: impl AsRef<Path>) -> Result<(), DatasetError> {
    std::fs::write(path, dataset_to_text(data)).map_err(|e| DatasetError::Io(e.to_string()))
}

/// Loads a dataset artifact from disk.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, DatasetError> {
    let text = std::fs::read_to_string(path).map_err(|e| DatasetError::Io(e.to_string()))?;
    dataset_from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("age group", &["18-25", "26-45", "46+"])
                    .protected()
                    .ordered(),
                Attribute::from_strs("sex", &["F", "M"]).protected(),
                Attribute::from_strs("note", &["100% sure", "un sure"]),
            ],
            "recid label",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        d.push_row_weighted(&[0, 1, 0], 1, 1.0).unwrap();
        d.push_row_weighted(&[2, 0, 1], 0, 0.25).unwrap();
        d.push_row_weighted(&[1, 1, 1], 1, 3.5).unwrap();
        d
    }

    #[test]
    fn roundtrip_is_exact() {
        let d = fixture();
        let text = dataset_to_text(&d);
        let back = dataset_from_text(&text).unwrap();
        assert_eq!(back.schema(), d.schema());
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.weights(), d.weights());
        for row in 0..d.len() {
            assert_eq!(back.row(row), d.row(row));
        }
        // and the re-serialization is byte-identical
        assert_eq!(dataset_to_text(&back), text);
    }

    #[test]
    fn escaping_survives_hostile_names() {
        assert_eq!(unesc(&esc("a b%c\td\n")).unwrap(), "a b%c\td\n");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn non_ascii_names_survive_a_save_load_cycle() {
        // regression: esc used to push bytes >= 0x80 through `char`,
        // which re-encoded them as two UTF-8 bytes each — a second
        // encoding pass the byte-level unesc cannot undo.
        let schema = Schema::new(
            vec![
                Attribute::from_strs("âge", &["≤25", "26–45", "46+"]).protected(),
                Attribute::from_strs("città", &["São Paulo", "Zürich", "東京"]),
            ],
            "étiquette",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        d.push_row(&[0, 2], 1).unwrap();
        d.push_row(&[2, 0], 0).unwrap();
        let text = dataset_to_text(&d);
        assert!(text.is_ascii(), "escaped artifact must be pure ASCII");
        let back = dataset_from_text(&text).unwrap();
        assert_eq!(back.schema(), d.schema());
        assert_eq!(back.schema().attribute(0).name(), "âge");
        assert_eq!(back.schema().attribute(1).domain()[2], "東京");
        assert_eq!(dataset_to_text(&back), text);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(dataset_from_text("not a dataset").is_err());
        assert!(dataset_from_text("remedy-dataset v1\nlabel y\n").is_err());
        let truncated = "remedy-dataset v1\nlabel y\nattr p- a 0 1\nrows 2\n0 1 0000000000000000\n";
        assert!(dataset_from_text(truncated).is_err());
    }

    /// The row count is untrusted: a huge one must yield a typed error,
    /// not a "capacity overflow" panic from pre-allocating it.
    #[test]
    fn huge_row_count_is_a_typed_error() {
        let text = format!(
            "remedy-dataset v1\nlabel y\nattr p- a 0 1\nrows {}\n",
            u64::MAX
        );
        assert!(matches!(
            dataset_from_text(&text),
            Err(DatasetError::Invalid(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("remedy_dataset_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.txt");
        let d = fixture();
        save_dataset(&d, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.labels(), d.labels());
    }
}
