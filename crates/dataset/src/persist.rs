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
use crate::format::{escape as esc, unescape as unesc, ContentHasher, Fields, Lines, Magic};
use crate::schema::{Attribute, Schema};
use std::fmt::Write as _;
use std::path::Path;

/// Magic of the exact text format.
pub const DATASET: Magic = Magic::new("remedy-dataset", 1);

/// Serializes a dataset exactly: schema, codes, labels, and weights all
/// survive a round trip through [`dataset_from_text`] unchanged.
pub fn dataset_to_text(data: &Dataset) -> String {
    let header = text_header(data);
    let mut out = Vec::with_capacity(header.len() + data.len() * row_len_bound(data));
    out.extend_from_slice(header.as_bytes());
    write_rows(data, &mut out, |_| {});
    String::from_utf8(out).expect("the canonical text is ASCII")
}

/// Streams the bytes [`dataset_to_text`] returns into `out` and returns
/// their [`content_digest`](crate::format::content_digest), without
/// building them: the rows pass through a fixed-size chunk, which is
/// hashed and written each time it fills.
pub fn write_text(data: &Dataset, out: &mut dyn std::io::Write) -> std::io::Result<u128> {
    let mut hasher = ContentHasher::new();
    let header = text_header(data);
    hasher.write(header.as_bytes());
    out.write_all(header.as_bytes())?;
    let mut chunk = Vec::with_capacity(TEXT_CHUNK + row_len_bound(data));
    let mut written = Ok(());
    write_rows(data, &mut chunk, |chunk| {
        if chunk.len() >= TEXT_CHUNK {
            hasher.write(chunk);
            if written.is_ok() {
                written = out.write_all(chunk);
            }
            chunk.clear();
        }
    });
    written?;
    hasher.write(&chunk);
    out.write_all(&chunk)?;
    Ok(hasher.finish())
}

/// [`content_digest`](crate::format::content_digest) of the bytes
/// [`dataset_to_text`] writes, without building them.
pub(crate) fn text_digest(data: &Dataset) -> u128 {
    write_text(data, &mut std::io::sink()).expect("a sink takes every byte")
}

/// Bytes [`write_text`] buffers before hashing and writing them.
const TEXT_CHUNK: usize = 1 << 16;

/// The canonical text up to and including the `rows` line.
fn text_header(data: &Dataset) -> String {
    let schema = data.schema();
    let mut out = format!("{}\nlabel {}\n", DATASET.line(), esc(schema.label_name()));
    for attr in schema.attributes() {
        let p = if attr.is_protected() { 'p' } else { '-' };
        let o = if attr.is_ordered() { 'o' } else { '-' };
        let _ = write!(out, "attr {p}{o} {}", esc(attr.name()));
        for value in attr.domain() {
            let _ = write!(out, " {}", esc(value));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "rows {}", data.len());
    out
}

/// The one row writer of the canonical text: appends every row to `out`
/// digit by digit, with no formatting machinery or temporaries, and
/// calls `drain` after each row so a caller can consume the bytes as
/// they come.
fn write_rows(data: &Dataset, out: &mut Vec<u8>, mut drain: impl FnMut(&mut Vec<u8>)) {
    let columns: Vec<&[u32]> = (0..data.schema().len())
        .map(|col| data.column(col))
        .collect();
    for (row, (&label, weight)) in data.labels().iter().zip(data.weights()).enumerate() {
        for column in &columns {
            put_decimal(out, column[row]);
            out.push(b' ');
        }
        put_decimal(out, u32::from(label));
        out.push(b' ');
        put_hex16(out, weight.to_bits());
        out.push(b'\n');
        drain(out);
    }
}

/// The longest row [`write_rows`] can write: every code at its
/// column's widest, a one-digit label, 16 weight digits, separators.
fn row_len_bound(data: &Dataset) -> usize {
    let codes: usize = data
        .schema()
        .attributes()
        .iter()
        .map(|a| decimal_len(a.cardinality().saturating_sub(1) as u32) + 1)
        .sum();
    codes + 1 + 1 + 16 + 1
}

/// Number of decimal digits of `v`.
fn decimal_len(v: u32) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `v` in decimal.
fn put_decimal(out: &mut Vec<u8>, v: u32) {
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    let mut rest = v;
    while rest > 0 {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends `bits` as 16 lowercase hex digits.
fn put_hex16(out: &mut Vec<u8>, bits: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[(bits >> (60 - 4 * i) & 0xf) as usize];
    }
    out.extend_from_slice(&digits);
}

/// Parses a dataset written by [`dataset_to_text`].
pub fn dataset_from_text(text: &str) -> Result<Dataset, DatasetError> {
    let mut lines = Lines::open(text, DATASET)?;
    let label_name = lines.value("label", Fields::escaped)?;
    let mut attributes = Vec::new();
    let row_count = loop {
        let mut fields = lines.record("rows")?;
        match fields.field("record")? {
            "attr" => {
                let flags = fields.field("attr flags")?;
                let name = fields.escaped("attr name")?;
                let domain = fields.remaining().map(unesc).collect::<Result<_, _>>();
                let domain = domain.map_err(|e| fields.error(e.to_string()))?;
                let mut attr = Attribute::new(name, domain);
                if flags.contains('p') {
                    attr = attr.protected();
                }
                if flags.contains('o') {
                    attr = attr.ordered();
                }
                attributes.push(attr);
            }
            // a row is its codes, label and weight, each at least one
            // byte plus a separator
            "rows" => break fields.records("rows", 2 * (attributes.len() + 2))?,
            other => return Err(fields.error(format!("unexpected record `{other}`")).into()),
        }
    };
    let cols = attributes.len();
    let schema = Schema::new(attributes, label_name).into_shared();
    let mut data = Dataset::with_capacity(schema, row_count);
    let mut codes = Vec::with_capacity(cols);
    for _ in 0..row_count {
        let mut fields = lines.record("row")?;
        codes.clear();
        for _ in 0..cols {
            codes.push(fields.parse::<u32>("code")?);
        }
        let label = fields.parse::<u8>("label")?;
        let weight = fields.bits("weight")?;
        fields.end()?;
        data.push_row_weighted(&codes, label, weight)
            .map_err(|e| fields.error(e.to_string()))?;
    }
    Ok(data)
}

/// Writes a dataset artifact to disk.
pub fn save_dataset(data: &Dataset, path: impl AsRef<Path>) -> Result<(), DatasetError> {
    std::fs::write(path, dataset_to_text(data)).map_err(|e| DatasetError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::content_digest;

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

    /// A `format!`-based reference writer: the byte layout the
    /// digit-by-digit writer must reproduce exactly.
    fn reference_text(data: &Dataset) -> String {
        let mut out = text_header(data);
        for row in 0..data.len() {
            for col in 0..data.schema().len() {
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

    /// Codes at every digit-count boundary up to a column past 65 536
    /// categories, both labels, and weights whose bits stress the hex
    /// writer: a quarter, negative zero, a subnormal, a NaN payload.
    fn edge_fixture() -> Dataset {
        let wide: Vec<String> = (0..100_001).map(|v| format!("v{v}")).collect();
        let schema = Schema::new(
            vec![
                Attribute::from_strs("small", &["a", "b"]).protected(),
                Attribute::new("wide", wide).protected().ordered(),
            ],
            "y",
        )
        .into_shared();
        let weights = [
            1.0,
            0.25,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::MAX,
        ];
        let codes = [0, 9, 10, 99, 100, 65_535, 65_536, 99_999, 100_000];
        let mut d = Dataset::new(schema);
        for (i, &code) in codes.iter().enumerate() {
            let weight = weights[i % weights.len()];
            d.push_row_weighted(&[(i % 2) as u32, code], (i % 2) as u8, weight)
                .unwrap();
        }
        d
    }

    #[test]
    fn writer_is_byte_identical_to_the_format_reference() {
        let d = edge_fixture();
        let text = dataset_to_text(&d);
        assert_eq!(text, reference_text(&d));
        assert!(text.contains("\n0 100000 0 "), "widest code written");
        assert!(text.contains(" 8000000000000000\n"), "negative zero");
        assert!(text.contains(" 7ff80000deadbeef\n"), "NaN payload");
        assert_eq!(text_digest(&d), content_digest(text.as_bytes()));
        // the bound sizes the buffer for the widest row
        assert!(text.len() <= text_header(&d).len() + d.len() * row_len_bound(&d));

        for d in [
            fixture(),
            Dataset::new(fixture().schema().clone().into_shared()),
        ] {
            let text = dataset_to_text(&d);
            assert_eq!(text, reference_text(&d));
            assert_eq!(text_digest(&d), content_digest(text.as_bytes()));
        }
    }

    /// A digest over more rows than one chunk holds matches the text's.
    #[test]
    fn text_digest_streams_past_one_chunk() {
        let d = crate::synth::compas_n(5_000, 3);
        let text = dataset_to_text(&d);
        assert!(text.len() > 2 * TEXT_CHUNK);
        assert_eq!(text, reference_text(&d));
        assert_eq!(text_digest(&d), content_digest(text.as_bytes()));
        // streamed to a writer, the same bytes arrive
        let mut streamed = Vec::new();
        let digest = write_text(&d, &mut streamed).unwrap();
        assert_eq!(streamed, text.as_bytes());
        assert_eq!(digest, content_digest(text.as_bytes()));
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
            Err(DatasetError::Decode(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("remedy_dataset_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.txt");
        let d = fixture();
        save_dataset(&d, &path).unwrap();
        let back = dataset_from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.labels(), d.labels());
    }
}
