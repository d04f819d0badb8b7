//! An independent oracle for the paper's definitions (§II), written
//! straight from the text and checked against every identify source and
//! the remedy's post-conditions.
//!
//! The oracle counts every region with a plain `HashMap` over
//! `Dataset::value`/`label`, finds a region's neighbors by Euclidean
//! distance ≤ T among the other regions over the same attributes
//! (ordered attributes contribute their code gap, the rest 0/1), and
//! applies the `|r| > k` and `|ratio_r − ratio_rn| > τ_c` gates with the
//! `-1` sentinel rules. It shares no counting, lattice, key-packing or
//! neighbor code with the crate, so a bug the sibling implementations
//! have in common still fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_core::{
    remedy_over_with, try_identify_counts_with, try_identify_in_index_with, try_identify_over_with,
    Algorithm, BiasedRegion, Enumeration, IbsParams, Neighborhood, RegionIndex, RemedyParams,
    Scope, ShardCounts, Technique,
};
use remedy_dataset::{Attribute, Dataset, Pattern, RowEdit, Schema};
use remedy_obs::Scope as ObsScope;
use std::collections::{BTreeMap, HashMap};

const TAU_C: f64 = 0.25;
const MIN_SIZE: u64 = 8;
const NEIGHBORHOODS: [Neighborhood; 3] = [
    Neighborhood::Unit,
    Neighborhood::Full,
    Neighborhood::OrderedRadius(1.5),
];
const SCOPES: [Scope; 3] = [Scope::Lattice, Scope::Leaf, Scope::Top];

/// A region: its `(column, code)` terms in column order.
type Region = Vec<(usize, u32)>;

/// Definition 3: `|r⁺| / |r⁻|`, or the `-1` sentinel without negatives.
fn imbalance(pos: u64, neg: u64) -> f64 {
    if neg == 0 {
        -1.0
    } else {
        pos as f64 / neg as f64
    }
}

/// `(pos, neg)` of every region over every non-empty subset of the
/// protected columns.
fn region_counts(d: &Dataset, protected: &[usize]) -> HashMap<Region, (u64, u64)> {
    let mut counts: HashMap<Region, (u64, u64)> = HashMap::new();
    for row in 0..d.len() {
        for subset in 1..(1u32 << protected.len()) {
            let region: Region = (0..protected.len())
                .filter(|j| subset & (1 << j) != 0)
                .map(|j| (protected[j], d.value(row, protected[j])))
                .collect();
            let entry = counts.entry(region).or_default();
            if d.label(row) == 1 {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    counts
}

/// Definition 4's distance between two regions over the same columns.
fn distance(a: &Region, b: &Region, d: &Dataset, use_order: bool) -> f64 {
    let squares: f64 = a
        .iter()
        .zip(b)
        .map(|(&(col, x), &(_, y))| {
            let gap = if use_order && d.schema().attribute(col).is_ordered() {
                (f64::from(x) - f64::from(y)).abs()
            } else {
                f64::from(u8::from(x != y))
            };
            gap * gap
        })
        .sum();
    squares.sqrt()
}

/// Definition 5 over every region in scope: pattern → (counts, ratio_r
/// bits, ratio_rn bits).
fn oracle(
    d: &Dataset,
    scope: Scope,
    neighborhood: Neighborhood,
) -> BTreeMap<Pattern, ((u64, u64), u64, u64)> {
    let protected = d.schema().protected_indices();
    let p = protected.len();
    let (radius, use_order) = match neighborhood {
        Neighborhood::Unit => (1.0, false),
        Neighborhood::Full => (f64::INFINITY, false),
        Neighborhood::OrderedRadius(t) => (t, true),
    };
    let counts = region_counts(d, &protected);
    let mut out = BTreeMap::new();
    for (region, &(pos, neg)) in &counts {
        let level = region.len();
        let in_scope = match scope {
            Scope::Lattice => true,
            Scope::Leaf => level == p,
            Scope::Top => level == 1,
        };
        if !in_scope || pos + neg <= MIN_SIZE {
            continue;
        }
        let same_columns = |other: &Region| {
            other.len() == level && other.iter().zip(region).all(|(a, b)| a.0 == b.0)
        };
        let (mut npos, mut nneg) = (0, 0);
        for (other, &(op, on)) in &counts {
            if other != region
                && same_columns(other)
                && distance(region, other, d, use_order) <= radius
            {
                npos += op;
                nneg += on;
            }
        }
        let (ratio, neighbor) = (imbalance(pos, neg), imbalance(npos, nneg));
        let biased = match (ratio >= 0.0, neighbor >= 0.0) {
            (true, true) => (ratio - neighbor).abs() > TAU_C,
            (false, false) => false,
            _ => true,
        };
        if biased {
            let pattern = Pattern::from_terms(region.iter().copied());
            out.insert(pattern, ((pos, neg), ratio.to_bits(), neighbor.to_bits()));
        }
    }
    out
}

fn as_map(regions: &[BiasedRegion]) -> BTreeMap<Pattern, ((u64, u64), u64, u64)> {
    let map: BTreeMap<_, _> = regions
        .iter()
        .map(|r| {
            let counts = (r.counts.pos, r.counts.neg);
            let bits = (r.ratio.to_bits(), r.neighbor_ratio.to_bits());
            (r.pattern.clone(), (counts, bits.0, bits.1))
        })
        .collect();
    assert_eq!(map.len(), regions.len(), "a region was reported twice");
    map
}

/// `p` protected columns (3 × 2 × 4-ordered × 2 categories) plus one
/// unprotected column. Rows with `a = 0 ∧ b = 1` are all positive and
/// rows with `a = 2 ∧ o = 3` all negative, so both sentinel sides occur
/// in regions above `k`; the rest lean positive with `o`.
fn fixture(seed: u64, rows: usize, p: usize) -> Dataset {
    let mut attrs = vec![
        Attribute::from_strs("a", &["0", "1", "2"]).protected(),
        Attribute::from_strs("b", &["0", "1"]).protected(),
        Attribute::from_strs("o", &["0", "1", "2", "3"])
            .protected()
            .ordered(),
        Attribute::from_strs("c", &["0", "1"]).protected(),
    ];
    attrs.truncate(p);
    attrs.push(Attribute::from_strs("f", &["0", "1", "2"]));
    let cards: Vec<u32> = [3, 2, 4, 2][..p].iter().copied().chain([3]).collect();
    let mut d = Dataset::new(Schema::new(attrs, "y").into_shared());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        let codes: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
        let label = match (codes[0], codes[1], codes[2]) {
            (0, 1, _) => 1,
            (2, _, 3) => 0,
            (_, _, o) => u8::from(rng.gen_bool(0.2 + 0.2 * f64::from(o))),
        };
        d.push_row(&codes, label).unwrap();
    }
    let counts = region_counts(&d, &d.schema().protected_indices());
    let sizable = |c: &&(u64, u64)| c.0 + c.1 > MIN_SIZE;
    assert!(
        counts.values().filter(sizable).any(|c| c.0 == 0),
        "no zero-positive region"
    );
    assert!(
        counts.values().filter(sizable).any(|c| c.1 == 0),
        "no zero-negative region"
    );
    d
}

fn fixtures() -> Vec<Dataset> {
    (0..4)
        .map(|s| fixture(s, [300, 200][s as usize % 2], 3 + s as usize % 2))
        .collect()
}

fn random_edit(rng: &mut StdRng, len: usize) -> RowEdit {
    match rng.gen_range(0..3u32) {
        0 => RowEdit::Duplicate {
            src: rng.gen_range(0..len),
        },
        1 => RowEdit::FlipLabel {
            row: rng.gen_range(0..len),
        },
        _ => {
            let mut rows: Vec<usize> = (0..3).map(|_| rng.gen_range(0..len)).collect();
            rows.sort_unstable();
            rows.dedup();
            RowEdit::Remove { rows }
        }
    }
}

#[test]
fn every_identify_source_agrees_with_the_oracle() {
    let off = ObsScope::disabled();
    for (seed, data) in fixtures().into_iter().enumerate() {
        let protected = data.schema().protected_indices();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        // a seeded partition into 2–3 shards, merged as workers would be
        let shards = 2 + seed % 2;
        let mut parts = vec![Vec::new(); shards];
        for row in 0..data.len() {
            parts[rng.gen_range(0..shards)].push(row);
        }
        let mut merged = ShardCounts::scan_over(&data.subset(&parts[0]), &protected, 1).unwrap();
        for part in &parts[1..] {
            merged
                .merge(&ShardCounts::scan_over(&data.subset(part), &protected, 1).unwrap())
                .unwrap();
        }
        // a maintained index after seeded random edits
        let mut edited = data.clone();
        let mut index = RegionIndex::try_build_over(&edited, &protected).unwrap();
        index.begin_deltas();
        for _ in 0..40 {
            let edit = random_edit(&mut rng, edited.len());
            index.apply_edit(&edit);
            edited.apply_edit(&edit);
        }
        index.flush_deltas();

        for neighborhood in NEIGHBORHOODS {
            for scope in SCOPES {
                let expected = oracle(&data, scope, neighborhood);
                let expected_edited = oracle(&edited, scope, neighborhood);
                // the sentinel rules are exercised: a one-class region is
                // flagged beside a mixed neighborhood
                let one_sided = |(_, r, n): &((u64, u64), u64, u64)| {
                    (f64::from_bits(*r) < 0.0) != (f64::from_bits(*n) < 0.0)
                };
                if scope == Scope::Lattice {
                    assert!(expected.values().any(one_sided), "{seed}/{neighborhood:?}");
                }
                for enumeration in [Enumeration::Dense, Enumeration::Pruned] {
                    let params = IbsParams::builder()
                        .tau_c(TAU_C)
                        .min_size(MIN_SIZE)
                        .neighborhood(neighborhood)
                        .scope(scope)
                        .enumeration(enumeration)
                        .build()
                        .unwrap();
                    for algorithm in [Algorithm::Naive, Algorithm::Optimized] {
                        let case = format!(
                            "{seed}/{neighborhood:?}/{scope:?}/{enumeration:?}/{algorithm:?}"
                        );
                        let over =
                            try_identify_over_with(&data, &protected, &params, algorithm, &off);
                        assert_eq!(as_map(&over.unwrap()), expected, "over {case}");
                        let counts =
                            try_identify_counts_with(merged.clone(), &params, algorithm, &off);
                        assert_eq!(as_map(&counts.unwrap()), expected, "counts {case}");
                        let live = try_identify_in_index_with(&index, &params, algorithm, &off);
                        assert_eq!(as_map(&live.unwrap()), expected_edited, "index {case}");
                    }
                }
            }
        }
    }
}

/// Under `Scope::Leaf` the remedy scores one node on the input, so every
/// update must carry the oracle's pattern and scores, and its deltas must
/// be exactly how that region's counts moved.
#[test]
fn leaf_remedy_updates_match_the_oracle() {
    for (seed, data) in fixtures().into_iter().enumerate() {
        let protected = data.schema().protected_indices();
        let before = region_counts(&data, &protected);
        for neighborhood in NEIGHBORHOODS {
            let expected = oracle(&data, Scope::Leaf, neighborhood);
            for technique in Technique::ALL {
                let params = RemedyParams::builder()
                    .technique(technique)
                    .tau_c(TAU_C)
                    .min_size(MIN_SIZE)
                    .neighborhood(neighborhood)
                    .scope(Scope::Leaf)
                    .seed(seed as u64)
                    .build()
                    .unwrap();
                let outcome =
                    remedy_over_with(&data, &protected, &params, &ObsScope::disabled()).unwrap();
                let after = region_counts(&outcome.dataset, &protected);
                let case = format!("{seed}/{neighborhood:?}/{technique}");
                assert!(!outcome.updates.is_empty(), "{case}: nothing remedied");
                for u in &outcome.updates {
                    let (_, ratio, target) = expected
                        .get(&u.pattern)
                        .unwrap_or_else(|| panic!("{case}: {:?} is not biased", u.pattern));
                    assert_eq!(u.ratio_before.to_bits(), *ratio, "{case}");
                    assert_eq!(u.target_ratio.to_bits(), *target, "{case}");
                    let region: Region = u.pattern.terms().collect();
                    let (pos, neg) = before[&region];
                    let moved = after.get(&region).copied().unwrap_or_default();
                    let want = (
                        (pos as i64 + u.pos_delta) as u64,
                        (neg as i64 + u.neg_delta) as u64,
                    );
                    assert_eq!(moved, want, "{case}: {region:?}");
                }
            }
        }
    }
}
