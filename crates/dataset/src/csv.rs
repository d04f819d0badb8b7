//! Dependency-free CSV reading and writing.
//!
//! Supports RFC-4180-style quoting (`"a,b"`, doubled quotes) plus schema
//! inference: columns whose every non-empty value parses as a number are
//! treated as continuous and discretized into quantile buckets (ordered
//! attributes); everything else becomes a categorical attribute whose domain
//! is collected in order of first appearance.
//!
//! This is how users plug the *real* Adult / COMPAS / Law School CSVs into
//! the pipeline when they have them; the repository's experiments otherwise
//! run on the generators in [`crate::synth`].

use crate::dataset::Dataset;
use crate::discretize::{quantile_cutpoints, Discretizer};
use crate::error::DatasetError;
use crate::schema::{Attribute, Schema};
use std::path::Path;

/// A parsed CSV: header row plus string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawTable {
    /// Column names from the header row.
    pub headers: Vec<String>,
    /// Data rows; every row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

/// Quantile buckets per continuous column unless a caller asks otherwise.
pub const DEFAULT_BINS: usize = 4;

/// Options controlling [`RawTable::to_dataset`].
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Name of the binary label column.
    pub label: String,
    /// Value of the label column treated as positive. When `None`, `1`,
    /// `true`, `yes` (case-insensitive) are positive.
    pub positive_value: Option<String>,
    /// Number of quantile buckets for continuous columns.
    pub numeric_bins: usize,
    /// Attribute names to mark as protected.
    pub protected: Vec<String>,
    /// Rows with empty cells are dropped when `true` (the paper removes
    /// missing values in its standard pre-processing).
    pub drop_missing: bool,
}

impl LoadOptions {
    /// Sensible defaults: 4 quantile bins, drop rows with missing values.
    pub fn new(label: impl Into<String>) -> Self {
        LoadOptions {
            label: label.into(),
            positive_value: None,
            numeric_bins: DEFAULT_BINS,
            protected: Vec::new(),
            drop_missing: true,
        }
    }

    /// Sets the protected attribute names.
    #[must_use]
    pub fn protected(mut self, names: &[&str]) -> Self {
        self.protected = names.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// Parses CSV text into rows of string cells.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>, DatasetError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    cell.push(c);
                }
                _ => cell.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !cell.is_empty() {
                        return Err(DatasetError::Csv {
                            line,
                            message: "quote inside unquoted cell".into(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                _ => cell.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DatasetError::Csv {
            line,
            message: "unterminated quoted cell".into(),
        });
    }
    if any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    // drop completely blank trailing lines
    rows.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    Ok(rows)
}

impl std::str::FromStr for RawTable {
    type Err = DatasetError;

    fn from_str(text: &str) -> Result<Self, DatasetError> {
        RawTable::parse_str(text)
    }
}

impl RawTable {
    /// Parses a CSV string with a header row.
    pub fn parse_str(text: &str) -> Result<Self, DatasetError> {
        let mut rows = parse(text)?;
        if rows.is_empty() {
            return Err(DatasetError::Csv {
                line: 1,
                message: "missing header row".into(),
            });
        }
        let headers = rows.remove(0);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != headers.len() {
                return Err(DatasetError::Csv {
                    line: i + 2,
                    message: format!("expected {} cells, found {}", headers.len(), r.len()),
                });
            }
        }
        Ok(RawTable { headers, rows })
    }

    /// Converts the raw table into a categorical [`Dataset`].
    pub fn to_dataset(&self, opts: &LoadOptions) -> Result<Dataset, DatasetError> {
        let label_col = self
            .headers
            .iter()
            .position(|h| h == &opts.label)
            .ok_or_else(|| DatasetError::UnknownAttribute(opts.label.clone()))?;

        let keep: Vec<usize> = if opts.drop_missing {
            (0..self.rows.len())
                .filter(|&r| self.rows[r].iter().all(|c| !c.trim().is_empty()))
                .collect()
        } else {
            (0..self.rows.len()).collect()
        };

        let mut attrs: Vec<Attribute> = Vec::new();
        let mut encoders: Vec<ColumnEncoder> = Vec::new();
        for (col, name) in self.headers.iter().enumerate() {
            if col == label_col {
                continue;
            }
            let values: Vec<&str> = keep.iter().map(|&r| self.rows[r][col].trim()).collect();
            let numeric: Option<Vec<f64>> = values
                .iter()
                .map(|v| v.parse::<f64>().ok())
                .collect::<Option<Vec<f64>>>();
            let (attr, enc) = match numeric {
                Some(nums) if !nums.is_empty() => {
                    let cuts = quantile_cutpoints(&nums, opts.numeric_bins);
                    let disc = Discretizer::from_cutpoints(cuts);
                    let domain = disc.bucket_labels();
                    let attr = Attribute::new(name.clone(), domain).ordered();
                    (attr, ColumnEncoder::Numeric(disc))
                }
                _ => {
                    let mut domain: Vec<String> = Vec::new();
                    for v in &values {
                        if !domain.iter().any(|d| d == v) {
                            domain.push((*v).to_string());
                        }
                    }
                    let attr = Attribute::new(name.clone(), domain);
                    (attr, ColumnEncoder::Categorical)
                }
            };
            let attr = if opts.protected.iter().any(|p| p == name) {
                attr.protected()
            } else {
                attr
            };
            attrs.push(attr);
            encoders.push(enc);
        }

        let schema = Schema::new(attrs, opts.label.clone()).into_shared();
        let mut data = Dataset::with_capacity(schema.clone(), keep.len());
        let mut codes = vec![0u32; schema.len()];
        for &r in &keep {
            let mut out_col = 0;
            for (col, cell) in self.rows[r].iter().enumerate() {
                if col == label_col {
                    continue;
                }
                let cell = cell.trim();
                codes[out_col] = match &encoders[out_col] {
                    ColumnEncoder::Numeric(disc) => {
                        let v: f64 = cell.parse().map_err(|_| DatasetError::UnknownValue {
                            attribute: schema.attribute(out_col).name().to_string(),
                            value: cell.to_string(),
                        })?;
                        disc.bucket(v) as u32
                    }
                    ColumnEncoder::Categorical => schema
                        .attribute(out_col)
                        .code_of(cell)
                        .ok_or_else(|| DatasetError::UnknownValue {
                            attribute: schema.attribute(out_col).name().to_string(),
                            value: cell.to_string(),
                        })?,
                };
                out_col += 1;
            }
            let raw_label = self.rows[r][label_col].trim();
            let label = match &opts.positive_value {
                Some(pv) => u8::from(raw_label == pv),
                None => {
                    let lower = raw_label.to_ascii_lowercase();
                    u8::from(lower == "1" || lower == "true" || lower == "yes")
                }
            };
            data.push_row(&codes, label)?;
        }
        Ok(data)
    }
}

enum ColumnEncoder {
    Numeric(Discretizer),
    Categorical,
}

/// Serializes a dataset back to CSV text (decoded category names).
pub fn to_csv(data: &Dataset) -> String {
    let schema = data.schema();
    let mut out = String::new();
    for attr in schema.attributes() {
        push_cell(&mut out, attr.name());
        out.push(',');
    }
    out.push_str(schema.label_name());
    out.push('\n');
    for row in 0..data.len() {
        for col in 0..schema.len() {
            let value = schema
                .attribute(col)
                .value_of(data.value(row, col))
                .unwrap_or("?");
            push_cell(&mut out, value);
            out.push(',');
        }
        out.push(if data.label(row) == 1 { '1' } else { '0' });
        out.push('\n');
    }
    out
}

/// Writes a dataset to a CSV file.
pub fn write_path(data: &Dataset, path: impl AsRef<Path>) -> Result<(), DatasetError> {
    std::fs::write(path, to_csv(data))?;
    Ok(())
}

fn push_cell(out: &mut String, cell: &str) {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv() {
        let rows = parse("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn parses_quotes_and_escapes() {
        let rows = parse("\"a,x\",\"say \"\"hi\"\"\"\nv,w\n").unwrap();
        assert_eq!(rows[0], vec!["a,x", "say \"hi\""]);
        assert_eq!(rows[1], vec!["v", "w"]);
    }

    #[test]
    fn quoted_newline_stays_in_cell() {
        let rows = parse("\"line1\nline2\",b\n").unwrap();
        assert_eq!(rows[0][0], "line1\nline2");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("ab\"c,d\n").is_err());
        assert!(parse("\"open,b\n").is_err());
        assert!(RawTable::parse_str("a,b\n1\n").is_err());
        assert!(RawTable::parse_str("").is_err());
    }

    #[test]
    fn handles_missing_trailing_newline_and_crlf() {
        let rows = parse("a,b\r\n1,2").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn to_dataset_infers_categorical_and_numeric() {
        let csv = "race,age,label\nwhite,23,1\nblack,37,0\nwhite,52,0\nblack,29,1\n";
        let table = RawTable::parse_str(csv).unwrap();
        let opts = LoadOptions::new("label").protected(&["race"]);
        let data = table.to_dataset(&opts).unwrap();
        assert_eq!(data.len(), 4);
        let schema = data.schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.attribute(0).name(), "race");
        assert!(!schema.attribute(0).is_ordered());
        assert!(schema.attribute(0).is_protected());
        assert!(schema.attribute(1).is_ordered()); // numeric, bucketized
        assert_eq!(data.label(0), 1);
        assert_eq!(data.label(1), 0);
    }

    #[test]
    fn to_dataset_drops_missing_rows() {
        let csv = "a,label\nx,1\n ,0\ny,0\n";
        let table = RawTable::parse_str(csv).unwrap();
        let data = table.to_dataset(&LoadOptions::new("label")).unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn to_dataset_custom_positive_value() {
        let csv = "a,label\nx,>50K\ny,<=50K\n";
        let table = RawTable::parse_str(csv).unwrap();
        let mut opts = LoadOptions::new("label");
        opts.positive_value = Some(">50K".into());
        let data = table.to_dataset(&opts).unwrap();
        assert_eq!(data.labels(), &[1, 0]);
    }

    #[test]
    fn unknown_label_column_errors() {
        let table = RawTable::parse_str("a,b\n1,2\n").unwrap();
        assert!(table.to_dataset(&LoadOptions::new("ghost")).is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let csv = "race,label\nwh\"i,1\nother,0\n";
        // build via quoting: the value contains a quote → writer must escape
        let table = RawTable::parse_str("race,label\nplain,1\nother,0\n").unwrap();
        let data = table.to_dataset(&LoadOptions::new("label")).unwrap();
        let text = to_csv(&data);
        let reparsed = RawTable::parse_str(&text).unwrap();
        let data2 = reparsed.to_dataset(&LoadOptions::new("label")).unwrap();
        assert_eq!(data.labels(), data2.labels());
        assert_eq!(data.len(), data2.len());
        let _ = csv; // documentation only
    }
}
