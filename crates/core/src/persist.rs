//! Text (de)serialization of identification results.
//!
//! The pipeline caches each stage's output on disk; identification
//! produces a `Vec<BiasedRegion>`, stored in the same line-oriented
//! versioned style as `remedy-classifiers::persist` model files:
//!
//! ```text
//! remedy-ibs v1
//! regions <n>
//! region <mask> <key:hex> <pos> <neg> <ratio:bits> <nratio:bits> [col:val ...]
//! ```
//!
//! Floats are stored as `f64::to_bits` hex so a round trip is exact —
//! a cache hit must reproduce the original run bit for bit.

use crate::counting::ShardCounts;
use crate::error::MAX_PROTECTED_SPARSE;
use crate::identify::BiasedRegion;
use crate::score::Counts;
use remedy_dataset::format::Magic;
use remedy_dataset::Pattern;

const MAGIC: Magic = Magic::new("remedy-ibs", 1);

/// Errors from reading an IBS artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbsPersistError {
    /// Missing or wrong magic header.
    BadHeader,
    /// Structurally invalid body.
    Malformed(String),
}

impl std::fmt::Display for IbsPersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IbsPersistError::BadHeader => write!(f, "not a {} file", MAGIC.line()),
            IbsPersistError::Malformed(msg) => write!(f, "malformed IBS file: {msg}"),
        }
    }
}

impl std::error::Error for IbsPersistError {}

/// Serializes identification output.
pub fn regions_to_text(regions: &[BiasedRegion]) -> String {
    let mut out = format!("{}\nregions {}\n", MAGIC.line(), regions.len());
    for r in regions {
        out.push_str(&format!(
            "region {} {:x} {} {} {:016x} {:016x}",
            r.mask,
            r.key,
            r.counts.pos,
            r.counts.neg,
            r.ratio.to_bits(),
            r.neighbor_ratio.to_bits()
        ));
        for (col, val) in r.pattern.terms() {
            out.push_str(&format!(" {col}:{val}"));
        }
        out.push('\n');
    }
    out
}

/// Parses identification output written by [`regions_to_text`].
pub fn regions_from_text(text: &str) -> Result<Vec<BiasedRegion>, IbsPersistError> {
    let mut lines = text.lines();
    MAGIC
        .expect(lines.next())
        .map_err(|_| IbsPersistError::BadHeader)?;
    let count_line = lines
        .next()
        .ok_or_else(|| IbsPersistError::Malformed("missing regions count".into()))?;
    let count: usize = count_line
        .strip_prefix("regions ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| IbsPersistError::Malformed(format!("bad count line `{count_line}`")))?;
    // a hostile count line cannot reserve more slots than the input has
    // bytes; a short body is reported below
    let mut regions = Vec::with_capacity(count.min(text.len()));
    for line in lines.take(count) {
        let mut fields = line.split_whitespace();
        if fields.next() != Some("region") {
            return Err(IbsPersistError::Malformed(format!("bad line `{line}`")));
        }
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| IbsPersistError::Malformed(format!("missing {what}")))
        };
        let mask: u32 = parse(next("mask")?, "mask")?;
        let key = u128::from_str_radix(next("key")?, 16)
            .map_err(|_| IbsPersistError::Malformed("bad key".into()))?;
        let pos: u64 = parse(next("pos")?, "pos")?;
        let neg: u64 = parse(next("neg")?, "neg")?;
        let ratio = f64::from_bits(
            u64::from_str_radix(next("ratio")?, 16)
                .map_err(|_| IbsPersistError::Malformed("bad ratio".into()))?,
        );
        let neighbor_ratio = f64::from_bits(
            u64::from_str_radix(next("nratio")?, 16)
                .map_err(|_| IbsPersistError::Malformed("bad nratio".into()))?,
        );
        let mut pattern = Pattern::empty();
        for term in fields {
            let (col, val) = term
                .split_once(':')
                .ok_or_else(|| IbsPersistError::Malformed(format!("bad term `{term}`")))?;
            pattern.set(parse(col, "term column")?, parse(val, "term value")?);
        }
        regions.push(BiasedRegion {
            pattern,
            mask,
            key,
            counts: Counts::new(pos, neg),
            ratio,
            neighbor_ratio,
        });
    }
    if regions.len() != count {
        return Err(IbsPersistError::Malformed(format!(
            "expected {count} regions, found {}",
            regions.len()
        )));
    }
    Ok(regions)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, IbsPersistError> {
    s.parse()
        .map_err(|_| IbsPersistError::Malformed(format!("bad {what} `{s}`")))
}

const COUNTS_MAGIC: Magic = Magic::new("remedy-counts", 1);

/// Serializes a shard's leaf-count accumulator — the artifact a
/// pipeline worker hands back for merging:
///
/// ```text
/// remedy-counts v1
/// protected <p>
/// col <index> <cardinality> <ordered 0|1>   (×p)
/// totals <pos> <neg>
/// leaves <n>
/// leaf <key:hex> <pos> <neg>                (×n, ascending by key)
/// ```
///
/// Leaves are written sorted by key so the text — and therefore its
/// content-address in the pipeline cache — is deterministic across
/// thread counts and retries.
pub fn counts_to_text(counts: &ShardCounts) -> String {
    let mut out = format!(
        "{}\nprotected {}\n",
        COUNTS_MAGIC.line(),
        counts.protected().len()
    );
    for (j, &col) in counts.protected().iter().enumerate() {
        out.push_str(&format!(
            "col {col} {} {}\n",
            counts.cards()[j],
            u8::from(counts.ordered()[j])
        ));
    }
    let totals = counts.totals();
    out.push_str(&format!("totals {} {}\n", totals.pos, totals.neg));
    let mut leaves: Vec<(u128, Counts)> = counts.leaves().iter().map(|(&k, &c)| (k, c)).collect();
    leaves.sort_unstable_by_key(|&(k, _)| k);
    out.push_str(&format!("leaves {}\n", leaves.len()));
    for (key, c) in leaves {
        out.push_str(&format!("leaf {key:x} {} {}\n", c.pos, c.neg));
    }
    out
}

/// Parses a shard accumulator written by [`counts_to_text`].
pub fn counts_from_text(text: &str) -> Result<ShardCounts, IbsPersistError> {
    let malformed = |msg: String| IbsPersistError::Malformed(msg);
    let mut lines = text.lines();
    COUNTS_MAGIC
        .expect(lines.next())
        .map_err(|_| IbsPersistError::BadHeader)?;
    let p: usize = field(lines.next(), "protected")?;
    if p > MAX_PROTECTED_SPARSE {
        return Err(malformed(format!(
            "{p} protected columns, at most {MAX_PROTECTED_SPARSE} supported"
        )));
    }
    let mut protected = Vec::with_capacity(p);
    let mut cards = Vec::with_capacity(p);
    let mut ordered = Vec::with_capacity(p);
    for _ in 0..p {
        let line = lines
            .next()
            .ok_or_else(|| malformed("missing col".into()))?;
        let mut fields = line.split_whitespace();
        if fields.next() != Some("col") {
            return Err(malformed(format!("bad col line `{line}`")));
        }
        protected.push(parse(fields.next().unwrap_or(""), "col index")?);
        cards.push(parse(fields.next().unwrap_or(""), "col cardinality")?);
        let o: u8 = parse(fields.next().unwrap_or(""), "col ordered")?;
        ordered.push(o != 0);
    }
    let totals_line = lines
        .next()
        .ok_or_else(|| malformed("missing totals".into()))?;
    let mut fields = totals_line.split_whitespace();
    if fields.next() != Some("totals") {
        return Err(malformed(format!("bad totals line `{totals_line}`")));
    }
    let totals = Counts::new(
        parse(fields.next().unwrap_or(""), "totals pos")?,
        parse(fields.next().unwrap_or(""), "totals neg")?,
    );
    let n: usize = field(lines.next(), "leaves")?;
    let mut leaves = crate::hash::FastMap::default();
    leaves.reserve(n.min(text.len()));
    for line in lines.take(n) {
        let mut fields = line.split_whitespace();
        if fields.next() != Some("leaf") {
            return Err(malformed(format!("bad leaf line `{line}`")));
        }
        let key = u128::from_str_radix(fields.next().unwrap_or(""), 16)
            .map_err(|_| malformed("bad leaf key".into()))?;
        let c = Counts::new(
            parse(fields.next().unwrap_or(""), "leaf pos")?,
            parse(fields.next().unwrap_or(""), "leaf neg")?,
        );
        if leaves.insert(key, c).is_some() {
            return Err(malformed(format!("duplicate leaf key {key:x}")));
        }
    }
    if leaves.len() != n {
        return Err(malformed(format!(
            "expected {n} leaves, found {}",
            leaves.len()
        )));
    }
    let sum: u64 = leaves.values().map(|c| c.total()).sum();
    if sum != totals.total() {
        return Err(malformed(format!(
            "leaf counts sum to {sum}, totals say {}",
            totals.total()
        )));
    }
    ShardCounts::from_parts(protected, cards, ordered, leaves, totals)
        .map_err(|e| malformed(e.to_string()))
}

/// Parses a `<name> <number>` header line.
fn field<T: std::str::FromStr>(line: Option<&str>, name: &str) -> Result<T, IbsPersistError> {
    let line = line.ok_or_else(|| IbsPersistError::Malformed(format!("missing {name}")))?;
    line.strip_prefix(name)
        .map(str::trim)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| IbsPersistError::Malformed(format!("bad {name} line `{line}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, Algorithm, IbsParams};
    use remedy_dataset::synth;

    #[test]
    fn roundtrip_is_exact() {
        let data = synth::compas_n(1_500, 7);
        let regions = identify(&data, &IbsParams::default(), Algorithm::Optimized);
        assert!(!regions.is_empty(), "fixture should find biased regions");
        let text = regions_to_text(&regions);
        let back = regions_from_text(&text).unwrap();
        assert_eq!(regions, back);
        // serialization itself is deterministic
        assert_eq!(text, regions_to_text(&back));
    }

    #[test]
    fn counts_roundtrip_is_exact_and_sorted() {
        let data = synth::compas_n(1_200, 11);
        let counts = ShardCounts::scan(&data, 0).unwrap();
        let text = counts_to_text(&counts);
        let back = counts_from_text(&text).unwrap();
        assert_eq!(counts, back);
        // deterministic serialization regardless of map iteration order
        assert_eq!(text, counts_to_text(&back));
    }

    #[test]
    fn counts_rejects_garbage() {
        assert_eq!(
            counts_from_text("nope").unwrap_err(),
            IbsPersistError::BadHeader
        );
        for text in [
            "remedy-counts v1\nprotected 1\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 1 0\nleaves 1\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 2 0\nleaves 1\nleaf 0 1 0\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 2 0\nleaves 2\nleaf 0 1 0\nleaf 0 1 0\n",
        ] {
            assert!(
                matches!(
                    counts_from_text(text).unwrap_err(),
                    IbsPersistError::Malformed(_)
                ),
                "{text:?}"
            );
        }
    }

    /// Header counts are untrusted: a huge one must yield a typed error,
    /// not a "capacity overflow" panic from pre-allocating it.
    #[test]
    fn huge_header_counts_are_typed_errors() {
        let huge = u64::MAX;
        for text in [
            format!("remedy-counts v1\nprotected {huge}\n"),
            format!("remedy-counts v1\nprotected {}\n", MAX_PROTECTED_SPARSE + 1),
            format!("remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 0 0\nleaves {huge}\n"),
        ] {
            assert!(
                matches!(counts_from_text(&text), Err(IbsPersistError::Malformed(_))),
                "{text:?}"
            );
        }
        let text = format!("remedy-ibs v1\nregions {huge}\n");
        assert!(matches!(
            regions_from_text(&text),
            Err(IbsPersistError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            regions_from_text("nope").unwrap_err(),
            IbsPersistError::BadHeader
        );
        let err = regions_from_text("remedy-ibs v1\nregions 1\n").unwrap_err();
        assert!(matches!(err, IbsPersistError::Malformed(_)));
        let err = regions_from_text("remedy-ibs v1\nregions 1\nregion x\n").unwrap_err();
        assert!(matches!(err, IbsPersistError::Malformed(_)));
    }
}
