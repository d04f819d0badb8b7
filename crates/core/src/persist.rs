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
use crate::sparse::KeyCodec;
use remedy_dataset::format::{DecodeError, Lines, Magic};
use remedy_dataset::Pattern;
use std::fmt::{self, Write};

const MAGIC: Magic = Magic::new("remedy-ibs", 1);

/// Serializes identification output, formatting every field straight
/// into one buffer.
pub fn regions_to_text(regions: &[BiasedRegion]) -> String {
    let mut out = String::new();
    // writing into a String cannot fail
    let _ = write_regions(&mut out, regions);
    out
}

fn write_regions(out: &mut String, regions: &[BiasedRegion]) -> fmt::Result {
    writeln!(out, "{}\nregions {}", MAGIC.line(), regions.len())?;
    for r in regions {
        write!(
            out,
            "region {} {:x} {} {} {:016x} {:016x}",
            r.mask,
            r.key,
            r.counts.pos,
            r.counts.neg,
            r.ratio.to_bits(),
            r.neighbor_ratio.to_bits()
        )?;
        for (col, val) in r.pattern.terms() {
            write!(out, " {col}:{val}")?;
        }
        out.push('\n');
    }
    Ok(())
}

/// Parses identification output written by [`regions_to_text`].
pub fn regions_from_text(text: &str) -> Result<Vec<BiasedRegion>, DecodeError> {
    let mut lines = Lines::open(text, MAGIC)?;
    let count = lines.count("regions")?;
    let mut regions = Vec::with_capacity(count);
    for _ in 0..count {
        let mut fields = lines.tagged("region")?;
        let mask = fields.parse("mask")?;
        let key = fields.hex("key")?;
        let counts = Counts::new(fields.parse("pos")?, fields.parse("neg")?);
        let ratio = fields.bits("ratio")?;
        let neighbor_ratio = fields.bits("nratio")?;
        let mut pattern = Pattern::empty();
        for term in fields.remaining() {
            let (col, val) = term
                .split_once(':')
                .and_then(|(col, val)| Some((col.parse().ok()?, val.parse().ok()?)))
                .ok_or_else(|| fields.error(format!("bad term `{term}`")))?;
            pattern.set(col, val);
        }
        regions.push(BiasedRegion {
            pattern,
            mask,
            key,
            counts,
            ratio,
            neighbor_ratio,
        });
    }
    Ok(regions)
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
pub fn counts_from_text(text: &str) -> Result<ShardCounts, DecodeError> {
    let mut lines = Lines::open(text, COUNTS_MAGIC)?;
    let p = lines.count("protected")?;
    if p > MAX_PROTECTED_SPARSE {
        return Err(lines.error(format!(
            "{p} protected columns, at most {MAX_PROTECTED_SPARSE} supported"
        )));
    }
    let mut protected = Vec::with_capacity(p);
    let mut cards = Vec::with_capacity(p);
    let mut ordered = Vec::with_capacity(p);
    for _ in 0..p {
        let mut fields = lines.tagged("col")?;
        protected.push(fields.parse("col index")?);
        cards.push(fields.parse("col cardinality")?);
        ordered.push(fields.parse::<u8>("col ordered")? != 0);
        fields.end()?;
    }
    let mut fields = lines.tagged("totals")?;
    let totals = Counts::new(fields.parse("totals pos")?, fields.parse("totals neg")?);
    fields.end()?;
    let codec = KeyCodec::for_cards(&cards).map_err(|e| lines.error(e.to_string()))?;
    let bits: u32 = codec.widths().iter().sum();
    let n = lines.count("leaves")?;
    let mut leaves = crate::hash::FastMap::default();
    leaves.reserve(n);
    let mut sum = 0u64;
    for _ in 0..n {
        let mut fields = lines.tagged("leaf")?;
        let key = fields.hex("leaf key")?;
        let c = Counts::new(fields.parse("leaf pos")?, fields.parse("leaf neg")?);
        fields.end()?;
        // a leaf exists only where some row does; the pruned builder
        // relies on it (an empty leaf would overwrite a region's count)
        if c.pos == 0 && c.neg == 0 {
            return Err(fields.error(format!("leaf {key:x} holds no rows")));
        }
        let Some(next) = c.pos.checked_add(c.neg).and_then(|t| t.checked_add(sum)) else {
            return Err(fields.error("leaf counts overflow u64"));
        };
        sum = next;
        // every slot must hold a code below its column's cardinality,
        // with no bits set past the last slot
        let stray = key.checked_shr(bits).unwrap_or(0) != 0
            || (0..p).any(|j| codec.extract(key, j) >= cards[j]);
        if stray {
            return Err(fields.error(format!("leaf key {key:x} is outside the column layout")));
        }
        if leaves.insert(key, c).is_some() {
            return Err(fields.error(format!("duplicate leaf key {key:x}")));
        }
    }
    if Some(sum) != totals.pos.checked_add(totals.neg) {
        let (pos, neg) = (totals.pos, totals.neg);
        return Err(lines.error(format!(
            "leaf counts sum to {sum}, totals say {pos} + {neg}"
        )));
    }
    let counts = ShardCounts::from_parts(codec, protected, cards, ordered, leaves, totals);
    Ok(counts)
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
        assert!(matches!(
            counts_from_text("nope").unwrap_err(),
            DecodeError::WrongFamily { .. }
        ));
        for text in [
            "remedy-counts v1\nprotected 1\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 1 0\nleaves 1\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 2 0\nleaves 1\nleaf 0 1 0\n",
            "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 2 0\nleaves 2\nleaf 0 1 0\nleaf 0 1 0\n",
        ] {
            assert!(
                matches!(
                    counts_from_text(text).unwrap_err(),
                    DecodeError::Malformed { .. }
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
                matches!(counts_from_text(&text), Err(DecodeError::Malformed { .. })),
                "{text:?}"
            );
        }
        let text = format!("remedy-ibs v1\nregions {huge}\n");
        assert!(matches!(
            regions_from_text(&text),
            Err(DecodeError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            regions_from_text("nope").unwrap_err(),
            DecodeError::WrongFamily { .. }
        ));
        let err = regions_from_text("remedy-ibs v1\nregions 1\n").unwrap_err();
        assert!(matches!(err, DecodeError::Malformed { .. }));
        let err = regions_from_text("remedy-ibs v1\nregions 1\nregion x\n").unwrap_err();
        assert!(matches!(err, DecodeError::Malformed { .. }));
    }

    /// Leaf totals are summed with checked arithmetic: a leaf holding
    /// `u64::MAX` rows used to overflow the sum (a panic in debug builds,
    /// a silently accepted artifact in release ones).
    #[test]
    fn overflowing_leaf_counts_are_typed_errors() {
        let max = u64::MAX;
        for text in [
            format!("remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 1 0\nleaves 2\nleaf 0 {max} 0\nleaf 1 2 0\n"),
            format!("remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 1 0\nleaves 1\nleaf 0 {max} 1\n"),
            format!("remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals {max} 1\nleaves 0\n"),
        ] {
            assert!(
                matches!(counts_from_text(&text), Err(DecodeError::Malformed { .. })),
                "{text:?}"
            );
        }
    }

    /// A leaf key is checked against the column layout: a slot holding a
    /// code past its column's cardinality, or bits past the last slot,
    /// used to decode and then index out of bounds in a pruned identify.
    #[test]
    fn leaf_keys_outside_the_layout_are_typed_errors() {
        for (cols, key) in [
            ("col 0 3 0\n", "3"),
            ("col 0 2 0\n", "100"),
            ("col 0 3 0\ncol 1 2 0\n", "ff"),
        ] {
            let p = cols.lines().count();
            let text = format!(
                "remedy-counts v1\nprotected {p}\n{cols}totals 2 0\nleaves 1\nleaf {key} 2 0\n"
            );
            assert!(
                matches!(counts_from_text(&text), Err(DecodeError::Malformed { .. })),
                "{text:?}"
            );
        }
        let ok = "remedy-counts v1\nprotected 1\ncol 0 3 0\ntotals 2 0\nleaves 1\nleaf 2 2 0\n";
        assert!(counts_from_text(ok).is_ok());
    }

    /// A leaf holding no rows is rejected: the pruned builder's flat
    /// accumulator marks an untouched cell by a zero total, so an empty
    /// leaf sharing a region with real ones used to overwrite that
    /// region's counts with zeros.
    #[test]
    fn empty_leaves_are_typed_errors() {
        let text = "remedy-counts v1\nprotected 2\ncol 0 2 0\ncol 1 2 0\ntotals 40 2\n\
                    leaves 2\nleaf 0 0 0\nleaf 100 40 2\n";
        match counts_from_text(text) {
            Err(DecodeError::Malformed { message, .. }) => {
                assert!(message.contains("holds no rows"), "{message}")
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
}
