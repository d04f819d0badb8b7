//! Unified dataset persistence: one open/save surface over the exact
//! text format and a binary columnar format (`remedy-columnar v1`).
//!
//! The text form ([`crate::persist`]) stays the canonical, diffable
//! representation — pipeline artifact hashes are computed over its
//! bytes. But parsing it re-tokenizes every cell, and downstream index
//! builds re-pack every row into `u128` region keys; on a 10M-row
//! dataset a cold open costs seconds. The binary form stores the same
//! information column-major with fixed-width fields, so loading is one
//! sequential read plus fixed-stride decoding. It also carries a
//! packed-key column (the sidecar), which no production path reads:
//! the sidecar is a copy of the protected columns that nothing checks
//! against them, so every index is packed from the decoded columns and
//! [`from_bytes_unpacked`] skips widening it. [`from_bytes`] still
//! widens it into [`Stored::packed`] for callers that measure that cost.
//! [`from_bytes_unpacked`] can also leave spare row capacity in every
//! column, so a caller about to append rows (crash recovery replaying a
//! WAL tail of duplicates) never reallocates them.
//!
//! Layout after the sniffable `remedy-columnar v1\n` magic line (all
//! integers little-endian):
//!
//! ```text
//! header   flags:u32 rows:u64 attrs:u32 digest:u128
//! schema   label(str)  then per attribute:
//!          flags:u8 (bit0 protected, bit1 ordered) name(str)
//!          domain_len:u32 value(str)...
//! columns  per attribute: rows × code, stored at the narrowest
//!          little-endian width the cardinality admits
//!          (≤256 → 1 byte, ≤65536 → 2, else 4)
//! labels   rows × label:u8
//! weights  rows × f64::to_bits:u64 — omitted entirely when header
//!          flag bit1 is set (every weight is exactly 1.0)
//! packed   (iff header flag bit0) cols:u32, per column:
//!          index:u32 width:u32, then rows × key, each key stored
//!          as the minimal ⌈Σwidths/8⌉ little-endian bytes
//! ```
//!
//! where `str` is `len:u32` followed by that many UTF-8 bytes. `digest`
//! is the FNV-1a/128 hash of the canonical text serialization — the
//! exact bytes [`crate::persist::dataset_to_text`] would produce — so
//! [`binary_to_text`] can prove its reconstruction byte-identical to the
//! original text file, which keeps text-keyed caches replaying. The
//! decoder reads through [`Bytes`], so every length is checked against
//! the bytes left and every failure is a [`DecodeError::Corrupt`] naming
//! the section and byte offset.

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::format::{content_digest, Bytes, DecodeError, Magic};
use crate::persist;
use crate::schema::{Attribute, Schema};
use std::path::Path;

/// Magic of the binary columnar format.
pub const COLUMNAR: Magic = Magic::new("remedy-columnar", 1);

/// Header flag bit: a packed-key section follows the weight column.
const FLAG_PACKED: u32 = 1;

/// Header flag bit: every weight is exactly 1.0 and the weight column
/// is omitted — the overwhelmingly common case, and 8 bytes per row.
const FLAG_UNIT_WEIGHTS: u32 = 2;

/// Narrowest byte width that holds codes below `cardinality`.
fn code_width(cardinality: usize) -> usize {
    if cardinality <= 1 << 8 {
        1
    } else if cardinality <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Bytes per stored packed key: the minimal count covering the layout.
fn key_width(widths: &[u32]) -> usize {
    (widths.iter().sum::<u32>() as usize).div_ceil(8)
}

/// Packed-key layout ceilings, mirroring the core crate's
/// `MAX_PROTECTED` / `MAX_PROTECTED_SPARSE` / `MAX_CARDINALITY`; the
/// width rule itself is [`key_layout`], which core's `KeyCodec` runs too.
const PACKED_DENSE_MAX: usize = 16;
const PACKED_MAX: usize = 32;
const PACKED_CARD_MAX: u32 = 255;

/// On-disk representation of a dataset artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Canonical line-oriented text (`remedy-dataset v1`).
    Text,
    /// Binary columnar (`remedy-columnar v1`).
    Binary,
}

impl Format {
    /// Parses a CLI/plan spelling.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "binary" | "bin" | "columnar" => Some(Format::Binary),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Binary => "binary",
        }
    }
}

/// The persisted packed-key sidecar: one `u128` region key per row,
/// plus the bit layout they were packed under. Nothing checks the keys
/// against the columns they claim to pack, so no index is built from
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKeys {
    /// Protected column indices in schema order (ascending).
    pub cols: Vec<u32>,
    /// Bit width of each column's key slot, in `cols` order.
    pub widths: Vec<u32>,
    /// One packed key per row.
    pub keys: Vec<u128>,
}

/// A decoded dataset artifact.
#[derive(Debug, Clone)]
pub struct Stored {
    /// The dataset itself.
    pub data: Dataset,
    /// The persisted packed-key column, when the artifact carries one
    /// (binary artifacts whose protected set fits the key layout) and
    /// it was decoded by [`from_bytes`].
    pub packed: Option<PackedKeys>,
}

/// Packs the protected columns of a dataset into per-row `u128` keys
/// under [`key_layout`], the core crate's leaf-key layout. Returns `None`
/// when no layout exists (no protected columns, arity past 32, a
/// cardinality past 255, or more than 128 total bits) — the artifact is
/// then written without a packed section.
pub fn pack_protected(data: &Dataset) -> Option<PackedKeys> {
    let schema = data.schema();
    let cols = schema.protected_indices();
    if cols.is_empty() || cols.len() > PACKED_MAX {
        return None;
    }
    let cards: Vec<u32> = cols
        .iter()
        .map(|&c| schema.attribute(c).cardinality() as u32)
        .collect();
    if cards.iter().any(|&c| c > PACKED_CARD_MAX) {
        return None;
    }
    let (widths, offsets) = key_layout(&cards).ok()?;
    let mut keys = vec![0u128; data.len()];
    let col_slices: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    pack_rows(&col_slices, &offsets, 0, &mut keys);
    Some(PackedKeys {
        cols: cols.iter().map(|&c| c as u32).collect(),
        widths,
        keys,
    })
}

/// The one packed-key layout rule, shared by the sidecar writer above and
/// the core crate's leaf keys: one 8-bit slot per column up to 16
/// columns, minimal `⌈log2(cardinality)⌉` widths (at least 1 bit) beyond.
/// Returns per-column `(widths, offsets)`, or the total bit count when it
/// passes 128.
pub fn key_layout(cards: &[u32]) -> Result<(Vec<u32>, Vec<u32>), u32> {
    let widths: Vec<u32> = if cards.len() <= PACKED_DENSE_MAX {
        vec![8; cards.len()]
    } else {
        cards
            .iter()
            .map(|&c| (32 - c.saturating_sub(1).leading_zeros()).max(1))
            .collect()
    };
    let mut offsets = Vec::with_capacity(widths.len());
    let mut total = 0u32;
    for &w in &widths {
        offsets.push(total);
        total += w;
    }
    if total > 128 {
        return Err(total);
    }
    Ok((widths, offsets))
}

/// Packs the codes of rows `start..start + out.len()` into `out`, one
/// `u128` key per row with column `j`'s code shifted to `offsets[j]`. This
/// is the one key-packing loop of the workspace: the sidecar writer above
/// and the core crate's parallel leaf-key packing both run it.
pub fn pack_rows(cols: &[&[u32]], offsets: &[u32], start: usize, out: &mut [u128]) {
    for (i, key) in out.iter_mut().enumerate() {
        let row = start + i;
        *key = cols.iter().zip(offsets).fold(0u128, |key, (col, &shift)| {
            key | u128::from(col[row]) << shift
        });
    }
}

/// Per-row shard assignment, stratified by protected-attribute packed
/// key: rows sharing a leaf region key are dealt round-robin across the
/// shards, so every shard sees every region in proportion (±1 row).
/// Correctness of sharded counting never depends on this — counts are
/// row sums, exact under any partition — stratification only balances
/// per-shard work and keeps per-shard region maps near `1/shards` of
/// the global one. Datasets whose protected set admits no key layout
/// (see [`pack_protected`]) fall back to one whole-dataset stratum,
/// i.e. plain round-robin.
pub fn shard_assignments(data: &Dataset, shards: usize) -> Vec<usize> {
    debug_assert!(shards > 0);
    match pack_protected(data) {
        Some(packed) => {
            let mut next: std::collections::HashMap<u128, usize> = std::collections::HashMap::new();
            packed
                .keys
                .iter()
                .map(|&key| {
                    let slot = next.entry(key).or_insert(0);
                    let s = *slot;
                    *slot = (s + 1) % shards;
                    s
                })
                .collect()
        }
        None => (0..data.len()).map(|row| row % shards).collect(),
    }
}

/// Splits a dataset into `shards` stratified pieces (see
/// [`shard_assignments`]); within each shard, rows keep their relative
/// order. Concatenating the shards in order is a row permutation of
/// the input, so merged shard counts equal whole-dataset counts.
pub fn partition_stratified(data: &Dataset, shards: usize) -> Vec<Dataset> {
    let assignment = shard_assignments(data, shards.max(1));
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); shards.max(1)];
    for (row, &s) in assignment.iter().enumerate() {
        rows[s].push(row);
    }
    rows.iter().map(|r| data.subset(r)).collect()
}

/// Serializes a dataset to the binary columnar form, packed keys
/// included whenever the protected set admits a key layout.
pub fn to_binary(data: &Dataset) -> Vec<u8> {
    let schema = data.schema();
    let rows = data.len();
    let packed = pack_protected(data);
    let digest = persist::text_digest(data);

    let unit_bits = 1.0f64.to_bits();
    let unit_weights = data.weights().iter().all(|w| w.to_bits() == unit_bits);

    let mut out = Vec::with_capacity(64 + rows * (4 * schema.len() + 9 + 16));
    out.extend_from_slice(COLUMNAR.line().as_bytes());
    out.push(b'\n');
    // header
    let mut flags: u32 = if packed.is_some() { FLAG_PACKED } else { 0 };
    if unit_weights {
        flags |= FLAG_UNIT_WEIGHTS;
    }
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    // schema
    put_str(&mut out, schema.label_name());
    for attr in schema.attributes() {
        let mut aflags = 0u8;
        if attr.is_protected() {
            aflags |= 1;
        }
        if attr.is_ordered() {
            aflags |= 2;
        }
        out.push(aflags);
        put_str(&mut out, attr.name());
        out.extend_from_slice(&(attr.domain().len() as u32).to_le_bytes());
        for value in attr.domain() {
            put_str(&mut out, value);
        }
    }
    // columns, each at the narrowest width its cardinality admits
    for col in 0..schema.len() {
        match code_width(schema.attribute(col).cardinality()) {
            1 => out.extend(data.column(col).iter().map(|&c| c as u8)),
            2 => {
                for &code in data.column(col) {
                    out.extend_from_slice(&(code as u16).to_le_bytes());
                }
            }
            _ => {
                for &code in data.column(col) {
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
        }
    }
    // labels
    out.extend_from_slice(data.labels());
    // weights (elided when all 1.0 — the header flag says so)
    if !unit_weights {
        for &w in data.weights() {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    // packed keys, truncated to the layout's byte width
    if let Some(p) = &packed {
        out.extend_from_slice(&(p.cols.len() as u32).to_le_bytes());
        for (&col, &width) in p.cols.iter().zip(&p.widths) {
            out.extend_from_slice(&col.to_le_bytes());
            out.extend_from_slice(&width.to_le_bytes());
        }
        let kw = key_width(&p.widths);
        for &key in &p.keys {
            out.extend_from_slice(&key.to_le_bytes()[..kw]);
        }
    }
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Widens `KW`-byte little-endian keys to `u128`. The const width lets
/// the per-row copy compile to a fixed-size load instead of a
/// variable-length `memcpy` — the difference between ~3ms and ~15ms on
/// a million rows.
fn widen_keys<const KW: usize>(raw: &[u8]) -> Vec<u128> {
    raw.chunks_exact(KW)
        .map(|c| {
            let mut b = [0u8; 16];
            b[..KW].copy_from_slice(c);
            u128::from_le_bytes(b)
        })
        .collect()
}

/// Dispatches the key decode to the const-width specialization for the
/// layout's byte count (`1..=16`, guaranteed by the width checks).
fn widen_keys_dispatch(raw: &[u8], kw: usize) -> Vec<u128> {
    match kw {
        1 => widen_keys::<1>(raw),
        2 => widen_keys::<2>(raw),
        3 => widen_keys::<3>(raw),
        4 => widen_keys::<4>(raw),
        5 => widen_keys::<5>(raw),
        6 => widen_keys::<6>(raw),
        7 => widen_keys::<7>(raw),
        8 => widen_keys::<8>(raw),
        9 => widen_keys::<9>(raw),
        10 => widen_keys::<10>(raw),
        11 => widen_keys::<11>(raw),
        12 => widen_keys::<12>(raw),
        13 => widen_keys::<13>(raw),
        14 => widen_keys::<14>(raw),
        15 => widen_keys::<15>(raw),
        _ => widen_keys::<16>(raw),
    }
}

/// Decodes a binary columnar artifact (magic line included).
pub fn from_binary(bytes: &[u8]) -> Result<Stored, DatasetError> {
    Ok(decode_binary(bytes, true, 0)?.0)
}

/// The row count a binary columnar header declares, capped as the
/// decoder caps it (every row needs at least its label byte), or `None`
/// when `bytes` is not a binary artifact. Sizes the spare room a caller
/// asks [`from_bytes_unpacked`] for before anything is decoded.
pub fn binary_rows(bytes: &[u8]) -> Option<usize> {
    let mut r = Bytes::open(bytes, COLUMNAR).ok()?;
    r.u32().ok()?;
    let rows = r.u64().ok()?;
    r.fits("rows", rows, 1).ok()
}

/// Collects `items` into a vector with room for `spare` more, so pushes
/// up to that many never reallocate. The spare pages are never written.
fn with_room<T>(items: impl ExactSizeIterator<Item = T>, spare: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() + spare);
    out.extend(items);
    out
}

/// Smallest schema record of one attribute: flags, name length, domain
/// length.
const ATTRIBUTE_MIN_BYTES: usize = 1 + 4 + 4;

/// Decoder body, returning the header's canonical-text digest too;
/// `with_keys: false` still walks and validates the packed section
/// (lengths, layout, trailer) but skips widening the per-row keys to
/// `u128` — 16MB of writes on a million rows that a caller wanting only
/// the dataset never uses. Every column, `labels` and `weights` get
/// capacity for `spare_rows` rows past the decoded ones.
fn decode_binary(
    bytes: &[u8],
    with_keys: bool,
    spare_rows: usize,
) -> Result<(Stored, u128), DecodeError> {
    let mut r = Bytes::open(bytes, COLUMNAR)?;
    let flags = r.u32()?;
    if flags & !(FLAG_PACKED | FLAG_UNIT_WEIGHTS) != 0 {
        return Err(r.error(format!("unknown header flags {flags:#x}")));
    }
    let rows = r.u64()?;
    let attrs = r.count("attributes", ATTRIBUTE_MIN_BYTES)?;
    let digest = r.u128()?;
    // every row needs at least its label byte
    let rows = r.fits("rows", rows, 1)?;

    r.section("schema");
    let label_name = r.str()?;
    let mut attributes = Vec::with_capacity(attrs);
    for _ in 0..attrs {
        let aflags = r.u8()?;
        if aflags & !3 != 0 {
            return Err(r.error(format!("unknown attribute flags {aflags:#x}")));
        }
        let name = r.str()?;
        let domain_len = r.count("domain values", 4)?;
        let domain = (0..domain_len)
            .map(|_| r.str().map(String::from))
            .collect::<Result<Vec<_>, _>>()?;
        let mut attr = Attribute::new(name, domain);
        if aflags & 1 != 0 {
            attr = attr.protected();
        }
        if aflags & 2 != 0 {
            attr = attr.ordered();
        }
        attributes.push(attr);
    }
    let schema = Schema::new(attributes, label_name).into_shared();

    r.section("columns");
    let mut columns = Vec::with_capacity(attrs);
    for col in 0..attrs {
        let card = schema.attribute(col).cardinality();
        let width = code_width(card);
        let raw = r.take(rows.saturating_mul(width))?;
        // one vectorizable max pass over the raw bytes replaces a
        // per-cell range check, then a bulk widen to u32
        let (top, codes): (u32, Vec<u32>) = match width {
            1 => (
                raw.iter().copied().max().unwrap_or(0).into(),
                with_room(raw.iter().map(|&b| u32::from(b)), spare_rows),
            ),
            2 => {
                let codes = with_room(
                    raw.chunks_exact(2)
                        .map(|c| u32::from(u16::from_le_bytes([c[0], c[1]]))),
                    spare_rows,
                );
                (codes.iter().copied().max().unwrap_or(0), codes)
            }
            _ => {
                let codes = with_room(
                    raw.chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
                    spare_rows,
                );
                (codes.iter().copied().max().unwrap_or(0), codes)
            }
        };
        if top as usize >= card {
            return Err(r.error(format!(
                "code {top} out of range for `{}` (cardinality {card})",
                schema.attribute(col).name()
            )));
        }
        columns.push(codes);
    }

    r.section("labels");
    let mut labels = Vec::with_capacity(rows + spare_rows);
    labels.extend_from_slice(r.take(rows)?);
    if let Some(bad) = labels.iter().copied().max().filter(|&m| m > 1) {
        return Err(r.error(format!("label {bad} is not binary")));
    }

    r.section("weights");
    let weights = if flags & FLAG_UNIT_WEIGHTS != 0 {
        let mut unit = Vec::with_capacity(rows + spare_rows);
        unit.resize(rows, 1.0);
        unit
    } else {
        with_room(
            r.take(rows.saturating_mul(8))?
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))),
            spare_rows,
        )
    };

    let packed = if flags & FLAG_PACKED != 0 {
        r.section("packed");
        let p = r.count("packed columns", 8)?;
        if p == 0 || p > PACKED_MAX {
            return Err(r.error(format!("{p} packed columns outside 1..={PACKED_MAX}")));
        }
        let mut cols = Vec::with_capacity(p);
        let mut widths = Vec::with_capacity(p);
        for _ in 0..p {
            let col = r.u32()?;
            if col as usize >= attrs {
                return Err(r.error(format!("packed column {col} outside the schema")));
            }
            cols.push(col);
            let width = r.u32()?;
            if !(1..=32).contains(&width) {
                return Err(r.error(format!("packed width {width} outside 1..=32")));
            }
            widths.push(width);
        }
        if widths.iter().sum::<u32>() > 128 {
            return Err(r.error("packed widths sum past 128 bits"));
        }
        let kw = key_width(&widths);
        let raw = r.take(rows.saturating_mul(kw))?;
        with_keys.then(|| PackedKeys {
            cols,
            widths,
            keys: widen_keys_dispatch(raw, kw),
        })
    } else {
        None
    };
    r.section("trailer");
    r.end()?;

    let data = Dataset::from_parts(schema, columns, labels, weights);
    Ok((Stored { data, packed }, digest))
}

/// Writes a dataset artifact in the requested format.
pub fn save(data: &Dataset, path: impl AsRef<Path>, format: Format) -> Result<(), DatasetError> {
    match format {
        Format::Text => persist::save_dataset(data, path),
        Format::Binary => {
            std::fs::write(path, to_binary(data)).map_err(|e| DatasetError::Io(e.to_string()))
        }
    }
}

/// Sniffs the format of a raw artifact buffer.
pub fn sniff(bytes: &[u8]) -> Option<Format> {
    if COLUMNAR.sniff(bytes) {
        Some(Format::Binary)
    } else if crate::persist::DATASET.sniff(bytes) {
        Some(Format::Text)
    } else {
        None
    }
}

/// Decodes a dataset artifact from raw bytes, autodetecting the format.
/// Text artifacts decode with `packed: None` (keys are cheap to rebuild
/// in memory).
pub fn from_bytes(bytes: &[u8]) -> Result<Stored, DatasetError> {
    match sniff(bytes) {
        Some(Format::Binary) => from_binary(bytes),
        _ => {
            let text = std::str::from_utf8(bytes).map_err(|_| DecodeError::Corrupt {
                section: "header",
                offset: 0,
                message: "neither a remedy-columnar artifact nor UTF-8 text".into(),
            })?;
            Ok(Stored {
                data: persist::dataset_from_text(text)?,
                packed: None,
            })
        }
    }
}

/// Like [`from_bytes`], but skips materializing the packed-key sidecar
/// (still fully validated) — for callers that only need the dataset. A
/// binary artifact decodes with capacity for `spare_rows` more rows in
/// every column, `labels` and `weights` (see [`binary_rows`]); a text
/// artifact decodes exactly sized.
pub fn from_bytes_unpacked(bytes: &[u8], spare_rows: usize) -> Result<Stored, DatasetError> {
    match sniff(bytes) {
        Some(Format::Binary) => Ok(decode_binary(bytes, false, spare_rows)?.0),
        _ => from_bytes(bytes),
    }
}

/// A binary columnar artifact decoded to its dataset and canonical text.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The decoded dataset.
    pub data: Dataset,
    /// `data`'s canonical text, byte-identical to the text file the
    /// artifact was converted from.
    pub text: String,
    /// The content digest of `text`: the one the header pins, which
    /// `text` was checked against.
    pub digest: u128,
}

/// Decodes a binary columnar artifact to its canonical text form and
/// checks that text against the digest the header pins, so the result
/// is byte-identical to the text file the artifact was converted from.
/// The decoded dataset comes back beside it, so a caller that needs both
/// parses nothing.
pub fn binary_to_text(bytes: &[u8]) -> Result<Canonical, DatasetError> {
    let (stored, digest) = decode_binary(bytes, false, 0)?;
    let text = persist::dataset_to_text(&stored.data);
    if content_digest(text.as_bytes()) != digest {
        return Err(DecodeError::Corrupt {
            section: "header",
            // the digest follows the magic line, flags, rows and attrs
            offset: COLUMNAR.line().len() + 1 + 4 + 8 + 4,
            message: "canonical-text digest mismatch".into(),
        }
        .into());
    }
    Ok(Canonical {
        data: stored.data,
        text,
        digest,
    })
}

/// Opens a dataset artifact from disk — exact text or binary columnar,
/// autodetected by magic line; [`save`] is its inverse. Sources that may
/// also be built-in names or CSV go through [`crate::source::open`].
pub fn open(path: impl AsRef<Path>) -> Result<Dataset, DatasetError> {
    let bytes = std::fs::read(path).map_err(|e| DatasetError::Io(e.to_string()))?;
    Ok(from_bytes_unpacked(&bytes, 0)?.data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn fixture() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("âge", &["18-25", "26-45", "46+"])
                    .protected()
                    .ordered(),
                Attribute::from_strs("sex", &["F", "M"]).protected(),
                Attribute::from_strs("note", &["100% sûr", "pas sûr"]),
            ],
            "étiquette",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        d.push_row_weighted(&[0, 1, 0], 1, 1.0).unwrap();
        d.push_row_weighted(&[2, 0, 1], 0, 0.25).unwrap();
        d.push_row_weighted(&[1, 1, 1], 1, 3.5).unwrap();
        d
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let d = fixture();
        let bytes = to_binary(&d);
        let stored = from_binary(&bytes).unwrap();
        assert_eq!(stored.data, d);
        let canonical = binary_to_text(&bytes).unwrap();
        assert_eq!(canonical.text, persist::dataset_to_text(&d));
        assert_eq!(canonical.data, d);
        assert_eq!(canonical.digest, content_digest(canonical.text.as_bytes()));
        let packed = stored.packed.expect("two protected columns pack");
        assert_eq!(packed.cols, vec![0, 1]);
        assert_eq!(packed.widths, vec![8, 8]);
        assert_eq!(packed.keys, vec![0x0100, 0x0002, 0x0101]);
    }

    #[test]
    fn spare_rows_decode_equals_the_plain_decode() {
        let weighted = fixture();
        let unit = synth::adult_n(500, 3);
        for d in [&weighted, &unit] {
            let bytes = to_binary(d);
            assert_eq!(binary_rows(&bytes), Some(d.len()));
            let plain = from_binary(&bytes).unwrap().data;
            for spare in [0, 1, 1000] {
                let mut roomy = from_bytes_unpacked(&bytes, spare).unwrap().data;
                assert_eq!(roomy, plain, "spare {spare}");
                // the room is appendable: a duplicate lands as on the plain decode
                let mut grown = plain.clone();
                grown.duplicate_row(1);
                roomy.duplicate_row(1);
                assert_eq!(roomy, grown, "spare {spare}");
            }
        }
        assert_eq!(binary_rows(b"remedy-dataset v1\n"), None);
    }

    /// The header digest is streamed, never read back from a text
    /// buffer: it must still be the digest of the canonical text.
    #[test]
    fn header_digest_is_the_canonical_text_digest() {
        // the digest sits after the magic line and flags, rows, attrs
        let at = COLUMNAR.line().len() + 1 + 4 + 8 + 4;
        for d in [
            fixture(),
            synth::adult_n(3_000, 7),
            Dataset::new(fixture().schema_arc()),
        ] {
            let bytes = to_binary(&d);
            let digest = u128::from_le_bytes(bytes[at..at + 16].try_into().unwrap());
            let text = persist::dataset_to_text(&d);
            assert_eq!(digest, content_digest(text.as_bytes()));
        }
    }

    #[test]
    fn pack_protected_matches_dense_layout() {
        let d = synth::compas_n(200, 3);
        let p = pack_protected(&d).unwrap();
        let cols: Vec<usize> = p.cols.iter().map(|&c| c as usize).collect();
        assert_eq!(cols, d.schema().protected_indices());
        assert!(p.widths.iter().all(|&w| w == 8));
        for (row, &key) in p.keys.iter().enumerate() {
            for (slot, &col) in cols.iter().enumerate() {
                let code = ((key >> (8 * slot)) & 0xff) as u32;
                assert_eq!(code, d.value(row, col));
            }
        }
    }

    #[test]
    fn pack_protected_uses_minimal_widths_past_dense_ceiling() {
        let d = synth::wide_n(64, 20, 9);
        let p = pack_protected(&d).unwrap();
        assert_eq!(p.cols.len(), 20);
        assert!(p.widths.iter().all(|&w| w < 8), "minimal widths expected");
    }

    #[test]
    fn pack_protected_refuses_impossible_layouts() {
        let schema = Schema::new(vec![Attribute::from_strs("a", &["0", "1"])], "y").into_shared();
        let d = Dataset::new(schema);
        assert!(pack_protected(&d).is_none(), "no protected columns");
    }

    #[test]
    fn sniff_distinguishes_formats() {
        let d = fixture();
        assert_eq!(sniff(&to_binary(&d)), Some(Format::Binary));
        assert_eq!(
            sniff(persist::dataset_to_text(&d).as_bytes()),
            Some(Format::Text)
        );
        assert_eq!(sniff(b"a,b,c\n1,2,3\n"), None);
    }

    #[test]
    fn format_parses_spellings() {
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("binary"), Some(Format::Binary));
        assert_eq!(Format::parse("columnar"), Some(Format::Binary));
        assert_eq!(Format::parse("csv"), None);
        assert_eq!(Format::Binary.name(), "binary");
    }

    #[test]
    fn open_autodetects_both_formats() {
        let dir = std::env::temp_dir().join("remedy_store_open_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = fixture();
        for (format, name) in [(Format::Text, "d.txt"), (Format::Binary, "d.bin")] {
            let path = dir.join(name);
            save(&d, &path, format).unwrap();
            assert_eq!(open(&path).unwrap(), d, "{name}");
        }
        let keys = |name| from_bytes(&std::fs::read(dir.join(name)).unwrap()).unwrap();
        assert!(keys("d.bin").packed.is_some());
        assert!(keys("d.txt").packed.is_none());
    }

    #[test]
    fn rejects_foreign_and_garbage_input() {
        assert!(matches!(
            from_bytes(b"\x00\x01\xff garbage"),
            Err(DatasetError::Decode(DecodeError::Corrupt { .. }))
        ));
        let err = from_binary(b"remedy-columnar v2\nrest").unwrap_err();
        assert!(err.to_string().contains("v1"), "{err}");
    }

    #[test]
    fn truncation_is_detected_per_section() {
        let d = fixture();
        let bytes = to_binary(&d);
        // walking the prefix lengths hits every section boundary
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..bytes.len() {
            match from_binary(&bytes[..len]) {
                Err(DatasetError::Decode(DecodeError::Corrupt { section, .. })) => {
                    seen.insert(section);
                }
                Err(other) => panic!("unexpected error {other:?} at prefix {len}"),
                Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
            }
        }
        for section in ["header", "schema", "columns", "labels", "weights", "packed"] {
            assert!(
                seen.contains(section),
                "no truncation hit `{section}`: {seen:?}"
            );
        }
    }

    #[test]
    fn corrupted_bodies_yield_typed_errors() {
        let d = fixture();
        let base = to_binary(&d);
        // trailing garbage
        let mut noisy = base.clone();
        noisy.extend_from_slice(b"xx");
        assert!(matches!(
            from_binary(&noisy),
            Err(DatasetError::Decode(DecodeError::Corrupt {
                section: "trailer",
                ..
            }))
        ));
        // an out-of-range code in the first column
        let mut bad = base.clone();
        // header is 32 bytes; schema follows — find the columns offset by
        // reading the good file's schema and corrupting the first code cell
        let schema_len = {
            let mut r = Bytes::open(&base, COLUMNAR).unwrap();
            r.take(32).unwrap();
            r.str().unwrap();
            for _ in 0..d.schema().len() {
                r.u8().unwrap();
                r.str().unwrap();
                for _ in 0..r.u32().unwrap() {
                    r.str().unwrap();
                }
            }
            r.offset()
        };
        bad[schema_len..schema_len + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            from_binary(&bad),
            Err(DatasetError::Decode(DecodeError::Corrupt {
                section: "columns",
                ..
            }))
        ));
    }

    #[test]
    fn partition_is_a_row_permutation() {
        let d = synth::compas_n(997, 5);
        for shards in [1usize, 2, 3, 8] {
            let parts = partition_stratified(&d, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), d.len());
            // every row of the input appears exactly once across shards
            let mut seen: Vec<(Vec<u32>, u8, u64)> = parts
                .iter()
                .flat_map(|p| (0..p.len()).map(|r| (p.row(r), p.label(r), p.weight(r).to_bits())))
                .collect();
            let mut want: Vec<(Vec<u32>, u8, u64)> = (0..d.len())
                .map(|r| (d.row(r), d.label(r), d.weight(r).to_bits()))
                .collect();
            seen.sort();
            want.sort();
            assert_eq!(seen, want, "{shards} shards");
        }
    }

    #[test]
    fn partition_stratifies_every_region_key() {
        let d = synth::compas_n(2_400, 9);
        let packed = pack_protected(&d).unwrap();
        let shards = 4;
        let assignment = shard_assignments(&d, shards);
        // per (key, shard) population: every shard holds ⌊n/4⌋ or ⌈n/4⌉
        // rows of every leaf region
        let mut per_key: std::collections::HashMap<u128, Vec<usize>> =
            std::collections::HashMap::new();
        for (row, &s) in assignment.iter().enumerate() {
            per_key
                .entry(packed.keys[row])
                .or_insert_with(|| vec![0; shards])[s] += 1;
        }
        for (key, spread) in per_key {
            let total: usize = spread.iter().sum();
            for (s, &n) in spread.iter().enumerate() {
                assert!(
                    n == total / shards || n == total.div_ceil(shards),
                    "key {key:x} shard {s}: {n} of {total}"
                );
            }
        }
    }

    #[test]
    fn partition_falls_back_without_key_layout() {
        // a 300-category protected column admits no packed layout
        let wide: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let domain: Vec<&str> = wide.iter().map(String::as_str).collect();
        let schema =
            Schema::new(vec![Attribute::from_strs("zip", &domain).protected()], "y").into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..10u32 {
            d.push_row(&[i % 300], u8::from(i % 2 == 0)).unwrap();
        }
        assert!(pack_protected(&d).is_none());
        let parts = partition_stratified(&d, 3);
        assert_eq!(
            parts.iter().map(Dataset::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
    }
}
