//! Implicit Biased Set identification (§III, Algorithm 1).
//!
//! Both algorithms traverse the hierarchy bottom-up and flag regions whose
//! imbalance score differs from their neighborhood's by more than `τ_c`:
//!
//! * **Naïve** (§III-A): for each region, enumerates every neighbor —
//!   `(c−1)·d` sibling regions under the default `T = 1` — and sums their
//!   counts.
//! * **Optimized** (§III-B, Algorithm 1): computes the neighborhood's counts
//!   from the `d` *dominating regions* `R_d` one level up, correcting the
//!   `|R_d|`-fold over-count of the region itself:
//!   `ratio_rn = (Σ|r_k⁺| − |R_d|·|r⁺|) / (Σ|r_k⁻| − |R_d|·|r⁻|)`.
//!
//! Identification is exponential in `|X|` (Theorem 1: no polynomial-time
//! solution exists), but the optimized algorithm cuts per-region neighbor
//! work from `(c−1)·d·T` to `d·T`, which §V-B5 (and our Fig 9a bench)
//! shows is a substantial constant-factor win.

use crate::counting::{RegionIndex, ShardCounts};
use crate::error::CoreError;
use crate::hierarchy::{Hierarchy, Node};
use crate::neighbor_model::{NeighborModel, NeighborTally};
use crate::neighborhood::Neighborhood;
use crate::params::{IbsParamsBuilder, ParamError};
use crate::scope::Scope;
use crate::score::{is_defined, Counts};
use crate::sparse::SparseHierarchy;
use remedy_dataset::{Dataset, Pattern};
use remedy_obs::Scope as ObsScope;

/// Which identification algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Per-region neighbor enumeration (§III-A).
    Naive,
    /// Dominating-region count reuse (§III-B, Algorithm 1).
    Optimized,
}

/// How the region lattice is enumerated during identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Enumeration {
    /// Materialize every lattice node (the paper's method); limited to
    /// [`crate::hierarchy::MAX_PROTECTED`] protected attributes.
    #[default]
    Dense,
    /// Support-pruned lazy enumeration (Fairpriori-style): only nodes
    /// with a region above `min_size` are ever counted. Byte-identical
    /// results, and the only mode available past 16 attributes.
    Pruned,
}

/// Parameters of IBS identification (Problem 1).
///
/// `#[non_exhaustive]`: downstream crates construct this through
/// [`IbsParams::default`] or the validated [`IbsParams::builder`]; the
/// fields stay `pub` for reading and targeted mutation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct IbsParams {
    /// Imbalance threshold `τ_c` (Definition 5).
    pub tau_c: f64,
    /// Minimum region size `k`; the paper uses the central-limit
    /// rule-of-thumb `k = 30`.
    pub min_size: u64,
    /// Neighboring-region specification (Definition 4).
    pub neighborhood: Neighborhood,
    /// Hierarchy levels to examine.
    pub scope: Scope,
    /// Lattice enumeration strategy (dense by default).
    pub enumeration: Enumeration,
}

impl Default for IbsParams {
    fn default() -> Self {
        IbsParams {
            tau_c: 0.1,
            min_size: 30,
            neighborhood: Neighborhood::Unit,
            scope: Scope::Lattice,
            enumeration: Enumeration::Dense,
        }
    }
}

impl IbsParams {
    /// A validated builder starting from [`IbsParams::default`].
    pub fn builder() -> IbsParamsBuilder {
        IbsParamsBuilder::default()
    }

    /// Checks the parameter domain (see [`crate::params`]); called by the
    /// builder and by consumers that mutate fields in place.
    pub fn validate(&self) -> Result<(), ParamError> {
        crate::params::validate_common(self.tau_c, self.min_size, self.neighborhood)
    }

    /// Feeds every field into `h` with an unambiguous encoding (floats by
    /// bit pattern, enums by discriminant tag). Two parameter sets produce
    /// the same digest iff they are equal, which is what lets pipeline
    /// cache keys stand in for the parameters themselves.
    pub fn stable_hash_into(&self, h: &mut crate::hash::StableHasher) {
        h.write_str("ibs-params");
        h.write_f64(self.tau_c);
        h.write_u64(self.min_size);
        match self.neighborhood {
            Neighborhood::Unit => h.write_str("unit"),
            Neighborhood::Full => h.write_str("full"),
            Neighborhood::OrderedRadius(t) => {
                h.write_str("radius");
                h.write_f64(t);
            }
        }
        h.write_str(self.scope.name());
        // appended only for the non-default mode, so every digest minted
        // before the enumeration field existed still matches its dense
        // parameters (pruned ≡ dense output makes sharing them sound
        // regardless, but dense cache keys must stay replayable verbatim)
        if self.enumeration == Enumeration::Pruned {
            h.write_str("enumeration-pruned");
        }
    }

    /// Stable 128-bit digest of the parameters (see [`stable_hash_into`]).
    ///
    /// [`stable_hash_into`]: IbsParams::stable_hash_into
    pub fn stable_hash(&self) -> u128 {
        let mut h = crate::hash::StableHasher::new();
        self.stable_hash_into(&mut h);
        h.finish()
    }
}

/// A region found to be in the Implicit Biased Set.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedRegion {
    /// The region's pattern over the dataset's columns.
    pub pattern: Pattern,
    /// Node bitmask within the hierarchy.
    pub mask: u32,
    /// Packed value key within the node.
    pub key: u128,
    /// Class counts of the region.
    pub counts: Counts,
    /// `ratio_r`.
    pub ratio: f64,
    /// `ratio_rn` of its neighboring region.
    pub neighbor_ratio: f64,
}

impl BiasedRegion {
    /// Hierarchy level (`d`) of the region.
    pub fn level(&self) -> usize {
        self.pattern.level()
    }

    /// The gap `|ratio_r − ratio_rn|` that exceeded `τ_c`, for regions
    /// where both scores are defined. A [`one_sided`] region has no
    /// arithmetic gap (one score is the undefined sentinel); `f64::MAX`
    /// is returned so such regions sort ahead of every finite gap without
    /// leaking infinities into serialized output.
    ///
    /// [`one_sided`]: BiasedRegion::one_sided
    pub fn gap(&self) -> f64 {
        if self.one_sided() {
            f64::MAX
        } else {
            (self.ratio - self.neighbor_ratio).abs()
        }
    }

    /// Whether exactly one of the two imbalance scores is the undefined
    /// `-1` sentinel (a zero-negative region or neighborhood).
    pub fn one_sided(&self) -> bool {
        is_defined(self.ratio) != is_defined(self.neighbor_ratio)
    }
}

/// Identifies the IBS of a dataset over its schema-declared protected
/// attributes, honoring `params.enumeration`. Panics on protected sets
/// the enumeration cannot carry; see [`try_identify_over`].
pub fn identify(data: &Dataset, params: &IbsParams, algorithm: Algorithm) -> Vec<BiasedRegion> {
    let protected = data.schema().protected_indices();
    try_identify_over(data, &protected, params, algorithm).unwrap_or_else(|e| panic!("{e}"))
}

/// Identifies the IBS over an explicit protected-column set (the
/// scalability experiments grow `|X|` beyond the schema's default),
/// rejecting sets the requested enumeration cannot carry with a typed
/// error.
pub fn try_identify_over(
    data: &Dataset,
    protected: &[usize],
    params: &IbsParams,
    algorithm: Algorithm,
) -> Result<Vec<BiasedRegion>, CoreError> {
    try_identify_over_with(data, protected, params, algorithm, &ObsScope::disabled())
}

/// [`try_identify_over`] with observability, dispatching on
/// `params.enumeration`: the pruned mode builds a [`SparseHierarchy`] at
/// `support = min_size` — the exact threshold below which the dense scan
/// ignores regions anyway, so results are byte-identical.
pub fn try_identify_over_with(
    data: &Dataset,
    protected: &[usize],
    params: &IbsParams,
    algorithm: Algorithm,
    obs: &ObsScope,
) -> Result<Vec<BiasedRegion>, CoreError> {
    match params.enumeration {
        Enumeration::Dense => {
            let hierarchy = Hierarchy::try_build_over(data, protected)?;
            Ok(identify_in_with(&hierarchy, params, algorithm, obs))
        }
        Enumeration::Pruned => {
            let sparse = SparseHierarchy::try_build_over(data, protected, params.min_size)?;
            Ok(identify_in_sparse_with(&sparse, params, algorithm, obs))
        }
    }
}

/// Identifies the IBS over the merged counts of a sharded scan, honoring
/// `params.enumeration`: the dense lattice or the support-pruned one is
/// assembled from the accumulated leaves, so the result is byte-identical
/// to [`try_identify_over_with`] on the concatenated shards.
pub fn try_identify_counts_with(
    counts: ShardCounts,
    params: &IbsParams,
    algorithm: Algorithm,
    obs: &ObsScope,
) -> Result<Vec<BiasedRegion>, CoreError> {
    match params.enumeration {
        Enumeration::Dense => {
            let hierarchy = counts.into_hierarchy()?;
            Ok(identify_in_with(&hierarchy, params, algorithm, obs))
        }
        Enumeration::Pruned => {
            let sparse = counts.into_sparse(params.min_size)?;
            Ok(identify_in_sparse_with(&sparse, params, algorithm, obs))
        }
    }
}

/// Identifies biased regions in a maintained [`RegionIndex`], honoring
/// `params.enumeration`. A dense index serves the dense scan directly
/// (its hierarchy always equals a fresh build over the current rows) and
/// the pruned scan by enumerating from its leaf node; a sparse index
/// serves only the pruned scan — asking it for a dense one is
/// [`CoreError::DenseUnavailable`].
pub fn try_identify_in_index_with(
    index: &RegionIndex,
    params: &IbsParams,
    algorithm: Algorithm,
    obs: &ObsScope,
) -> Result<Vec<BiasedRegion>, CoreError> {
    match params.enumeration {
        Enumeration::Dense => {
            if index.is_sparse() {
                return Err(CoreError::DenseUnavailable {
                    arity: index.arity(),
                });
            }
            Ok(identify_in_with(index.hierarchy(), params, algorithm, obs))
        }
        Enumeration::Pruned => {
            let sparse = index.sparse_hierarchy(params.min_size)?;
            Ok(identify_in_sparse_with(&sparse, params, algorithm, obs))
        }
    }
}

/// Identifies the IBS over a prebuilt support-pruned hierarchy.
///
/// The hierarchy must have been pruned at `support ≤ min_size`;
/// otherwise nodes the dense scan would score could be missing. Records
/// the same counters and per-level timing histograms as the dense scan
/// ([`identify_in_with`]).
pub fn identify_in_sparse_with(
    sparse: &SparseHierarchy,
    params: &IbsParams,
    algorithm: Algorithm,
    obs: &ObsScope,
) -> Vec<BiasedRegion> {
    assert!(
        sparse.support() <= params.min_size,
        "hierarchy pruned at support {} cannot serve identify at min_size {}",
        sparse.support(),
        params.min_size
    );
    let _span = obs.span("identify_in_sparse");
    let mut result = Vec::new();
    let masks = scoped_masks(sparse.nodes(), sparse.arity(), params);
    scan_levels(&masks, obs, |mask, tally| {
        let node = sparse.node(mask).expect("enumerated mask");
        let model = NeighborModel::for_sparse(sparse, node, params.neighborhood, algorithm);
        scan_regions(
            mask,
            &node.regions,
            &model,
            params,
            tally,
            &mut result,
            |key| sparse.pattern_of(mask, key),
        );
    });
    sort_regions(&mut result);
    result
}

/// Identifies the IBS over a prebuilt dense hierarchy. (A prebuilt
/// hierarchy is already enumerated, so `params.enumeration` plays no role
/// here.) Records regions scanned / skipped by `min_size` / flagged,
/// neighbor lookups, and a per-level timing histogram into `obs`.
/// Counters are tallied in locals and flushed per level, so a disabled
/// scope keeps the hot loop within benchmark noise.
pub fn identify_in_with(
    hierarchy: &Hierarchy,
    params: &IbsParams,
    algorithm: Algorithm,
    obs: &ObsScope,
) -> Vec<BiasedRegion> {
    let _span = obs.span("identify_in");
    let mut result = Vec::new();
    let masks = scoped_masks(hierarchy.nodes(), hierarchy.arity(), params);
    scan_levels(&masks, obs, |mask, tally| {
        let node = hierarchy.node(mask);
        // one model per node: sibling projections / totals / distance
        // table are built once, then every region queries through it
        let model = NeighborModel::for_node(hierarchy, node, params.neighborhood, algorithm);
        scan_regions(
            mask,
            &node.regions,
            &model,
            params,
            tally,
            &mut result,
            |key| hierarchy.pattern_of(mask, key),
        );
    });
    sort_regions(&mut result);
    result
}

/// Masks of the nodes the params' scope covers, bottom-up: leaf level
/// first.
fn scoped_masks(nodes: &[Node], total_levels: usize, params: &IbsParams) -> Vec<u32> {
    let mut masks: Vec<u32> = nodes
        .iter()
        .map(|n| n.mask)
        .filter(|&m| params.scope.includes(m.count_ones() as usize, total_levels))
        .collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    masks
}

/// Runs `scan_node` over level-sorted `masks`, one [`ScanTally`] and one
/// `level{d}_us` timing per level.
fn scan_levels(masks: &[u32], obs: &ObsScope, mut scan_node: impl FnMut(u32, &mut ScanTally)) {
    let mut i = 0;
    while i < masks.len() {
        let level = masks[i].count_ones();
        let timer = obs.timer();
        let mut tally = ScanTally::default();
        while i < masks.len() && masks[i].count_ones() == level {
            scan_node(masks[i], &mut tally);
            i += 1;
        }
        tally.flush(obs);
        if timer.is_some() {
            obs.observe_since(&format!("level{level}_us"), timer);
        }
    }
}

/// Canonical result order: bottom-up by level, then by pattern.
fn sort_regions(result: &mut [BiasedRegion]) {
    result.sort_by(|a, b| {
        b.level()
            .cmp(&a.level())
            .then_with(|| a.pattern.cmp(&b.pattern))
    });
}

/// Per-level counter tallies, flushed to an [`ObsScope`] in one batch so
/// the hot region loop touches no locks (overhead contract of
/// `remedy-obs`).
#[derive(Default)]
struct ScanTally {
    scanned: u64,
    skipped_min_size: u64,
    flagged: u64,
    neighbors: NeighborTally,
}

impl ScanTally {
    fn flush(&self, obs: &ObsScope) {
        obs.add_many(&[
            ("regions_scanned", self.scanned),
            ("regions_skipped_min_size", self.skipped_min_size),
            ("regions_flagged", self.flagged),
            ("neighbor_lookups", self.neighbors.lookups),
            ("neighbor_underflow", self.neighbors.underflows),
        ]);
    }
}

/// The per-region scoring loop, shared verbatim by the dense and
/// support-pruned scans so Definition 5 cannot drift between them. Only
/// the pattern decoder differs (dense keys vs. the sparse codec).
fn scan_regions(
    mask: u32,
    regions: &crate::hash::FastMap<u128, Counts>,
    model: &NeighborModel<'_>,
    params: &IbsParams,
    tally: &mut ScanTally,
    result: &mut Vec<BiasedRegion>,
    pattern_of: impl Fn(u128) -> Pattern,
) {
    for (&key, &counts) in regions {
        if counts.total() <= params.min_size {
            tally.skipped_min_size += 1;
            continue;
        }
        tally.scanned += 1;
        let neighbor = model.neighbor_counts(key, counts, &mut tally.neighbors);
        let ratio = counts.imbalance();
        let neighbor_ratio = neighbor.imbalance();
        if is_biased(ratio, neighbor_ratio, params.tau_c) {
            tally.flagged += 1;
            result.push(BiasedRegion {
                pattern: pattern_of(key),
                mask,
                key,
                counts,
                ratio,
                neighbor_ratio,
            });
        }
    }
}

/// Check of Definition 5 given both imbalance scores, with explicit
/// semantics for the `-1` undefined sentinel:
///
/// * both defined — the usual `|ratio_r − ratio_rn| > τ_c`;
/// * both undefined — not biased (region and neighborhood are equally
///   one-class, there is no gap to speak of);
/// * exactly one undefined — biased: a zero-negative region beside a
///   mixed neighborhood (or vice versa) is the most extreme imbalance
///   there is, regardless of `τ_c`.
///
/// The previous behavior fed the sentinel into the arithmetic gap, so a
/// one-sided region was *missed* whenever `τ_c ≥ |ratio + 1|` and the
/// both-undefined case hinged on a spurious `|−1 − (−1)| = 0`.
pub fn is_biased(ratio_r: f64, ratio_rn: f64, tau_c: f64) -> bool {
    match (is_defined(ratio_r), is_defined(ratio_rn)) {
        (true, true) => (ratio_r - ratio_rn).abs() > tau_c,
        (false, false) => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    /// A 3×3 grid over two protected attributes; the (1,1) cell is heavily
    /// positive, everything else is balanced.
    fn planted() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1", "2"]).protected(),
                Attribute::from_strs("b", &["0", "1", "2"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..3u32 {
            for b in 0..3u32 {
                let (pos, neg) = if a == 1 && b == 1 { (80, 20) } else { (50, 50) };
                for _ in 0..pos {
                    d.push_row(&[a, b], 1).unwrap();
                }
                for _ in 0..neg {
                    d.push_row(&[a, b], 0).unwrap();
                }
            }
        }
        d
    }

    #[test]
    fn finds_planted_region() {
        let d = planted();
        let params = IbsParams::default();
        for alg in [Algorithm::Naive, Algorithm::Optimized] {
            let ibs = identify(&d, &params, alg);
            let leaf: Vec<_> = ibs.iter().filter(|r| r.level() == 2).collect();
            assert!(
                leaf.iter()
                    .any(|r| r.pattern.get(0) == Some(1) && r.pattern.get(1) == Some(1)),
                "{alg:?} missed the planted region: {leaf:?}"
            );
            // the planted cell: ratio 4.0; neighbors (unit) are 4 balanced
            // cells → ratio 1.0
            let planted_region = leaf
                .iter()
                .find(|r| r.pattern.get(0) == Some(1) && r.pattern.get(1) == Some(1))
                .unwrap();
            assert!((planted_region.ratio - 4.0).abs() < 1e-12);
            assert!((planted_region.neighbor_ratio - 1.0).abs() < 1e-12);
            assert!((planted_region.gap() - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn naive_equals_optimized_unit() {
        let d = planted();
        let params = IbsParams {
            tau_c: 0.05,
            min_size: 10,
            ..IbsParams::default()
        };
        let naive = identify(&d, &params, Algorithm::Naive);
        let optimized = identify(&d, &params, Algorithm::Optimized);
        assert_eq!(naive, optimized);
    }

    #[test]
    fn naive_equals_optimized_full() {
        let d = planted();
        let params = IbsParams {
            tau_c: 0.05,
            min_size: 10,
            neighborhood: Neighborhood::Full,
            ..IbsParams::default()
        };
        let naive = identify(&d, &params, Algorithm::Naive);
        let optimized = identify(&d, &params, Algorithm::Optimized);
        assert_eq!(naive, optimized);
    }

    #[test]
    fn min_size_excludes_small_regions() {
        let d = planted();
        let params = IbsParams {
            min_size: 10_000,
            ..IbsParams::default()
        };
        assert!(identify(&d, &params, Algorithm::Optimized).is_empty());
    }

    #[test]
    fn scope_restricts_levels() {
        let d = planted();
        let params = IbsParams {
            tau_c: 0.05,
            min_size: 10,
            scope: Scope::Top,
            ..IbsParams::default()
        };
        let ibs = identify(&d, &params, Algorithm::Optimized);
        assert!(ibs.iter().all(|r| r.level() == 1));
        let params = IbsParams {
            tau_c: 0.05,
            min_size: 10,
            scope: Scope::Leaf,
            ..IbsParams::default()
        };
        let ibs = identify(&d, &params, Algorithm::Optimized);
        assert!(ibs.iter().all(|r| r.level() == 2));
    }

    #[test]
    fn results_ordered_bottom_up() {
        let d = planted();
        let params = IbsParams {
            tau_c: 0.01,
            min_size: 10,
            ..IbsParams::default()
        };
        let ibs = identify(&d, &params, Algorithm::Optimized);
        let levels: Vec<usize> = ibs.iter().map(|r| r.level()).collect();
        let mut sorted = levels.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(levels, sorted);
    }

    #[test]
    fn full_neighborhood_is_complement() {
        let d = planted();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b11);
        let (mask, key) = h
            .pack(&Pattern::from_terms([(0usize, 1u32), (1usize, 1u32)]))
            .unwrap();
        assert_eq!(mask, 0b11);
        let own = h.counts(mask, key);
        let params = IbsParams {
            neighborhood: Neighborhood::Full,
            ..IbsParams::default()
        };
        let n = NeighborModel::for_node(&h, node, params.neighborhood, Algorithm::Optimized)
            .neighbor_counts(key, own, &mut NeighborTally::default());
        assert_eq!(n.total(), d.len() as u64 - own.total());
    }

    #[test]
    fn ordered_radius_widens_neighborhood() {
        // one ordered protected attribute with 5 values; region at code 0
        let schema = Schema::new(
            vec![Attribute::from_strs("o", &["0", "1", "2", "3", "4"])
                .protected()
                .ordered()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for code in 0..5u32 {
            for i in 0..40 {
                d.push_row(&[code], u8::from(i % 2 == 0)).unwrap();
            }
        }
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(1);
        let own = h.counts(1, 0);
        let r1 = IbsParams {
            neighborhood: Neighborhood::OrderedRadius(1.0),
            ..IbsParams::default()
        };
        let r2 = IbsParams {
            neighborhood: Neighborhood::OrderedRadius(2.0),
            ..IbsParams::default()
        };
        let neighbors = |params: &IbsParams| {
            NeighborModel::for_node(&h, node, params.neighborhood, Algorithm::Naive)
                .neighbor_counts(0, own, &mut NeighborTally::default())
        };
        let (n1, n2) = (neighbors(&r1), neighbors(&r2));
        assert_eq!(n1.total(), 40); // only code 1
        assert_eq!(n2.total(), 80); // codes 1 and 2
    }

    #[test]
    fn is_biased_matches_definition() {
        assert!(is_biased(2.2, 0.64, 0.3));
        assert!(!is_biased(0.7, 0.64, 0.3));
        // one-sided sentinel is biased regardless of τ_c — the old
        // arithmetic compare (|−1 − 0.5| = 1.5 ≤ 2.0) missed this
        assert!(is_biased(-1.0, 0.5, 0.3));
        assert!(is_biased(-1.0, 0.5, 2.0));
        assert!(is_biased(0.5, -1.0, 2.0));
        // both undefined: no gap, never biased
        assert!(!is_biased(-1.0, -1.0, 0.3));
        assert!(!is_biased(-1.0, -1.0, 0.0));
    }

    /// A 3×3 grid where the (1,1) cell has *no* negative instances, so its
    /// imbalance score is the `-1` sentinel.
    fn planted_zero_negative() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1", "2"]).protected(),
                Attribute::from_strs("b", &["0", "1", "2"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..3u32 {
            for b in 0..3u32 {
                let (pos, neg) = if a == 1 && b == 1 { (60, 0) } else { (50, 50) };
                for _ in 0..pos {
                    d.push_row(&[a, b], 1).unwrap();
                }
                for _ in 0..neg {
                    d.push_row(&[a, b], 0).unwrap();
                }
            }
        }
        d
    }

    /// Regression (sentinel-ratio bug): the zero-negative cell's sentinel
    /// score used to flow into `|ratio − neighbor| > τ_c`, so with
    /// `τ_c = 2.5` the gap `|−1 − 1| = 2` fell under the threshold and the
    /// most extreme region in the dataset was silently dropped. All three
    /// drivers must now flag it.
    #[test]
    fn one_sided_sentinel_region_is_flagged() {
        let d = planted_zero_negative();
        let h = Hierarchy::try_build(&d).unwrap();
        let params = IbsParams {
            tau_c: 2.5,
            ..IbsParams::default()
        };
        for alg in [Algorithm::Naive, Algorithm::Optimized] {
            let ibs = identify_in_with(&h, &params, alg, &ObsScope::disabled());
            let planted = ibs
                .iter()
                .find(|r| r.pattern.get(0) == Some(1) && r.pattern.get(1) == Some(1))
                .unwrap_or_else(|| panic!("{alg:?} missed the zero-negative region"));
            assert!(planted.one_sided());
            assert_eq!(planted.ratio, -1.0);
            assert_eq!(planted.gap(), f64::MAX);
        }
    }

    /// Regression (sentinel-ratio bug, flip side): a dataset with no
    /// negative instances anywhere makes every score undefined; that is
    /// "no gap", not bias, under every driver and neighborhood.
    #[test]
    fn all_undefined_scores_flag_nothing() {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..2u32 {
            for b in 0..2u32 {
                for _ in 0..40 {
                    d.push_row(&[a, b], 1).unwrap();
                }
            }
        }
        let h = Hierarchy::try_build(&d).unwrap();
        for neighborhood in [Neighborhood::Unit, Neighborhood::Full] {
            let params = IbsParams {
                tau_c: 0.0,
                min_size: 10,
                neighborhood,
                ..IbsParams::default()
            };
            for alg in [Algorithm::Naive, Algorithm::Optimized] {
                assert!(
                    identify_in_with(&h, &params, alg, &ObsScope::disabled()).is_empty(),
                    "{alg:?}/{neighborhood:?}"
                );
            }
        }
    }

    #[test]
    fn obs_counters_track_the_scan() {
        let d = planted();
        let h = Hierarchy::try_build(&d).unwrap();
        let params = IbsParams {
            min_size: 10,
            ..IbsParams::default()
        };
        let rec = remedy_obs::Recorder::enabled();
        let ibs = identify_in_with(&h, &params, Algorithm::Optimized, &rec.scope("identify"));
        let snap = rec.snapshot();
        // 9 leaf regions + 3 + 3 level-1 regions
        assert_eq!(snap.counter("identify", "regions_scanned"), Some(15));
        assert_eq!(
            snap.counter("identify", "regions_flagged"),
            Some(ibs.len() as u64)
        );
        // optimized-unit: d lookups per region = 9·2 + 6·1
        assert_eq!(snap.counter("identify", "neighbor_lookups"), Some(24));
        assert_eq!(snap.counter("identify", "neighbor_underflow"), None);
        // per-level timing histograms exist for levels 1..=2
        for level in 1..3 {
            assert!(snap
                .histogram("identify", &format!("level{level}_us"))
                .is_some());
        }
    }

    #[test]
    fn min_size_skips_are_counted() {
        let d = planted();
        let h = Hierarchy::try_build(&d).unwrap();
        let params = IbsParams {
            min_size: 10_000,
            ..IbsParams::default()
        };
        let rec = remedy_obs::Recorder::enabled();
        identify_in_with(&h, &params, Algorithm::Optimized, &rec.scope("identify"));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("identify", "regions_scanned"), None);
        assert_eq!(
            snap.counter("identify", "regions_skipped_min_size"),
            Some(15)
        );
    }

    #[test]
    fn pattern_imbalance_direct() {
        let d = planted();
        let p = Pattern::from_terms([(0usize, 1u32), (1usize, 1u32)]);
        let (pos, neg) = d.class_counts(&p);
        assert!((crate::score::imbalance(pos as u64, neg as u64) - 4.0).abs() < 1e-12);
    }

    /// The tentpole parity invariant in miniature: support-pruned
    /// identification returns *byte-identical* results to the dense scan
    /// for every algorithm × neighborhood combination, because pruning at
    /// `support = min_size` removes exactly the regions the dense scan
    /// skips, and surviving nodes keep complete region maps.
    #[test]
    fn pruned_identify_equals_dense() {
        for d in [planted(), planted_zero_negative()] {
            for (tau_c, min_size) in [(0.05, 10), (0.3, 30), (0.01, 95)] {
                for neighborhood in [
                    Neighborhood::Unit,
                    Neighborhood::Full,
                    Neighborhood::OrderedRadius(1.0),
                ] {
                    for alg in [Algorithm::Naive, Algorithm::Optimized] {
                        let dense = IbsParams {
                            tau_c,
                            min_size,
                            neighborhood,
                            ..IbsParams::default()
                        };
                        let pruned = IbsParams {
                            enumeration: Enumeration::Pruned,
                            ..dense.clone()
                        };
                        assert_eq!(
                            identify(&d, &dense, alg),
                            identify(&d, &pruned, alg),
                            "{alg:?}/{neighborhood:?} τ={tau_c} k={min_size}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_identify_respects_scope() {
        let d = planted();
        for scope in [Scope::Top, Scope::Leaf] {
            let dense = IbsParams {
                tau_c: 0.05,
                min_size: 10,
                scope,
                ..IbsParams::default()
            };
            let pruned = IbsParams {
                enumeration: Enumeration::Pruned,
                ..dense.clone()
            };
            assert_eq!(
                identify(&d, &dense, Algorithm::Optimized),
                identify(&d, &pruned, Algorithm::Optimized),
            );
        }
    }

    /// Both index kinds serve the pruned scan; only the dense index
    /// serves the dense scan.
    #[test]
    fn pruned_identify_through_both_index_kinds() {
        let d = planted();
        let dense_params = IbsParams {
            tau_c: 0.05,
            min_size: 10,
            ..IbsParams::default()
        };
        let pruned_params = IbsParams {
            enumeration: Enumeration::Pruned,
            ..dense_params.clone()
        };
        let want = identify(&d, &dense_params, Algorithm::Optimized);
        let dense_idx = RegionIndex::try_build(&d).unwrap();
        let sparse_idx = RegionIndex::try_build_sparse(&d).unwrap();
        let in_index = |index: &RegionIndex, params: &IbsParams| {
            try_identify_in_index_with(index, params, Algorithm::Optimized, &ObsScope::disabled())
        };
        for params in [&dense_params, &pruned_params] {
            assert_eq!(in_index(&dense_idx, params).unwrap(), want);
        }
        assert_eq!(in_index(&sparse_idx, &pruned_params).unwrap(), want);
        assert_eq!(
            in_index(&sparse_idx, &dense_params),
            Err(CoreError::DenseUnavailable { arity: 2 })
        );
    }

    #[test]
    #[should_panic(expected = "cannot serve identify at min_size")]
    fn undersupported_sparse_hierarchy_is_rejected() {
        let d = planted();
        let sparse = SparseHierarchy::try_build(&d, 100).unwrap();
        identify_in_sparse_with(
            &sparse,
            &IbsParams::default(),
            Algorithm::Optimized,
            &ObsScope::disabled(),
        );
    }

    #[test]
    fn pruned_obs_counters_match_dense() {
        let d = planted();
        let params = IbsParams {
            min_size: 10,
            enumeration: Enumeration::Pruned,
            ..IbsParams::default()
        };
        let sparse = SparseHierarchy::try_build(&d, params.min_size).unwrap();
        let rec = remedy_obs::Recorder::enabled();
        identify_in_sparse_with(
            &sparse,
            &params,
            Algorithm::Optimized,
            &rec.scope("identify"),
        );
        let snap = rec.snapshot();
        // same tallies as the dense scan over the same data (see
        // `obs_counters_track_the_scan`): every region survives k = 10
        assert_eq!(snap.counter("identify", "regions_scanned"), Some(15));
        assert_eq!(snap.counter("identify", "neighbor_lookups"), Some(24));
        for level in 1..3 {
            assert!(snap
                .histogram("identify", &format!("level{level}_us"))
                .is_some());
        }
    }
}
