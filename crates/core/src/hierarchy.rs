//! The hierarchy of intersectional regions (§III, Figure 1).
//!
//! Nodes group all patterns sharing the same set of deterministic protected
//! attributes; levels equal the number of deterministic elements. Each
//! node's regions are stored as packed value keys (8 bits per attribute)
//! with their class counts, aggregated in a single pass over the data and
//! projected node-to-node down the lattice.

use crate::hash::FastMap;
use crate::score::Counts;
use remedy_dataset::{Dataset, Pattern};

/// Maximum number of protected attributes a hierarchy supports (keys pack
/// 8 bits per attribute into a `u128`).
pub const MAX_PROTECTED: usize = 16;

/// One node of the hierarchy: all regions over a fixed set of deterministic
/// protected attributes.
#[derive(Debug, Clone)]
pub struct Node {
    /// Bitmask over the protected-attribute positions (bit `j` set means
    /// `protected[j]` is deterministic in this node's patterns).
    pub mask: u32,
    /// Sorted positions (into the protected list) of deterministic
    /// attributes.
    pub attrs: Vec<usize>,
    /// Region value-key → class counts.
    pub regions: FastMap<u128, Counts>,
}

impl Node {
    /// The node's level (number of deterministic attributes).
    pub fn level(&self) -> usize {
        self.attrs.len()
    }
}

/// The full lattice of regions over a dataset's protected attributes.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Dataset column indices of the protected attributes.
    protected: Vec<usize>,
    /// Cardinalities of the protected attributes.
    cards: Vec<u32>,
    /// Whether each protected attribute's domain carries a natural order
    /// (drives the refined distance of `Neighborhood::OrderedRadius`).
    ordered: Vec<bool>,
    /// Nodes indexed by `mask - 1` for `mask ∈ [1, 2^p)`.
    nodes: Vec<Node>,
    /// Level-0 counts: the entire dataset.
    totals: Counts,
}

impl Hierarchy {
    /// Builds the hierarchy with per-region class counts over the
    /// schema-declared protected columns (see
    /// [`Hierarchy::try_build_over`]).
    ///
    /// One pass aggregates the leaf cells; every other node is projected
    /// from a previously-computed superset node, so each region's counts
    /// are touched once per lattice edge rather than once per row.
    pub fn try_build(data: &Dataset) -> Result<Self, crate::error::CoreError> {
        let protected = data.schema().protected_indices();
        Hierarchy::try_build_over(data, &protected)
    }

    /// Builds the hierarchy over an explicit set of protected columns
    /// (the scalability experiments extend the protected set), rejecting
    /// sets the packed-key representation cannot carry — more than
    /// [`MAX_PROTECTED`] columns or any column with over 255 categories —
    /// with a typed error even in release builds.
    ///
    /// The leaf cells come from one parallel pass through the shared
    /// counting seam ([`crate::counting`]): keys are packed once into a
    /// `u128` column and per-worker tallies are merged in chunk order, so
    /// the result is bit-identical to a single-threaded scan.
    pub fn try_build_over(
        data: &Dataset,
        protected: &[usize],
    ) -> Result<Self, crate::error::CoreError> {
        let p = protected.len();
        crate::error::validate_columns(data, protected, MAX_PROTECTED)?;
        let cards: Vec<u32> = protected
            .iter()
            .map(|&a| data.schema().attribute(a).cardinality() as u32)
            .collect();
        let ordered: Vec<bool> = protected
            .iter()
            .map(|&a| data.schema().attribute(a).is_ordered())
            .collect();

        let mut keys = vec![0u128; data.len()];
        let codec = crate::sparse::KeyCodec::bytes(p);
        crate::counting::pack_keys(data, protected, &codec, &mut keys);
        let scan = crate::counting::leaf_scan(&keys, data.labels(), false);
        Ok(Hierarchy::from_leaf(
            protected.to_vec(),
            cards,
            ordered,
            scan.counts,
            scan.totals,
        ))
    }

    /// Assembles the lattice from precomputed leaf counts: every
    /// non-leaf node is projected from the superset node with one extra
    /// attribute, touching each region once per lattice edge rather than
    /// once per row. Shared by [`Hierarchy::try_build_over`] and
    /// [`crate::counting::RegionIndex`].
    pub(crate) fn from_leaf(
        protected: Vec<usize>,
        cards: Vec<u32>,
        ordered: Vec<bool>,
        leaf: FastMap<u128, Counts>,
        totals: Counts,
    ) -> Self {
        let p = protected.len();
        let full_mask = crate::counting::full_mask_of(p);
        let mut nodes: Vec<Node> = (1..=full_mask)
            .map(|mask| Node {
                mask,
                attrs: (0..p).filter(|j| mask & (1 << j) != 0).collect(),
                regions: FastMap::default(),
            })
            .collect();
        nodes[(full_mask - 1) as usize].regions = leaf;

        // project each node from the superset node with one extra attribute
        // (the lowest missing bit), walking masks in decreasing popcount
        let mut order: Vec<u32> = (1..full_mask).collect();
        order.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        for mask in order {
            let missing = (!mask & full_mask).trailing_zeros();
            let parent_mask = mask | (1 << missing);
            // position of the dropped attribute within the parent's key
            let drop_pos = (parent_mask & ((1 << missing) - 1)).count_ones() as usize;
            let parent_regions = std::mem::take(&mut nodes[(parent_mask - 1) as usize].regions);
            {
                let node = &mut nodes[(mask - 1) as usize];
                node.regions.reserve(parent_regions.len() / 2);
                for (&key, &counts) in &parent_regions {
                    let child_key = drop_byte(key, drop_pos);
                    node.regions.entry(child_key).or_default().add(counts);
                }
            }
            nodes[(parent_mask - 1) as usize].regions = parent_regions;
        }

        Hierarchy {
            protected,
            cards,
            ordered,
            nodes,
            totals,
        }
    }

    /// Node-wise merge of another shard's lattice into this one:
    /// every node's region counts and the level-0 totals are summed.
    /// Exact under any row partition (counts are row sums), provided
    /// both lattices cover the same protected layout — disagreements
    /// fail with [`CoreError`](crate::error::CoreError)`::MergeMismatch`.
    pub fn merge_from(&mut self, other: &Hierarchy) -> Result<(), crate::error::CoreError> {
        crate::counting::check_merge_layout(
            (&self.protected, &self.cards, &self.ordered),
            (&other.protected, &other.cards, &other.ordered),
        )?;
        for (node, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            debug_assert_eq!(node.mask, theirs.mask);
            for (&key, &counts) in &theirs.regions {
                node.regions.entry(key).or_default().add(counts);
            }
        }
        self.totals.add(other.totals);
        Ok(())
    }

    /// Number of protected attributes (`|X|`).
    pub fn arity(&self) -> usize {
        self.protected.len()
    }

    /// Dataset column indices of the protected attributes.
    pub fn protected(&self) -> &[usize] {
        &self.protected
    }

    /// Cardinality of protected attribute at position `j`.
    pub fn cardinality(&self, j: usize) -> u32 {
        self.cards[j]
    }

    /// Whether protected attribute at position `j` has an ordered domain.
    pub fn is_ordered(&self, j: usize) -> bool {
        self.ordered[j]
    }

    /// Whole-dataset class counts (level 0).
    pub fn totals(&self) -> Counts {
        self.totals
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node for a deterministic-attribute bitmask.
    pub fn node(&self, mask: u32) -> &Node {
        &self.nodes[(mask - 1) as usize]
    }

    /// Mutable node access for the delta maintenance of
    /// [`crate::counting::RegionIndex`].
    pub(crate) fn node_mut(&mut self, mask: u32) -> &mut Node {
        &mut self.nodes[(mask - 1) as usize]
    }

    /// Mutable level-0 totals, same consumer as [`Hierarchy::node_mut`].
    pub(crate) fn totals_mut(&mut self) -> &mut Counts {
        &mut self.totals
    }

    /// Counts of a region, or zero counts if the region is empty.
    pub fn counts(&self, mask: u32, key: u128) -> Counts {
        if mask == 0 {
            return self.totals;
        }
        self.node(mask)
            .regions
            .get(&key)
            .copied()
            .unwrap_or_default()
    }

    /// Total number of non-empty regions across all nodes.
    pub fn region_count(&self) -> usize {
        self.nodes.iter().map(|n| n.regions.len()).sum()
    }

    /// Reconstructs the [`Pattern`] of a region from its node mask and
    /// packed value key.
    pub fn pattern_of(&self, mask: u32, key: u128) -> Pattern {
        let mut pattern = Pattern::empty();
        let node = self.node(mask);
        for (i, &j) in node.attrs.iter().enumerate() {
            let code = ((key >> (8 * i)) & 0xFF) as u32;
            pattern.set(self.protected[j], code);
        }
        pattern
    }

    /// Packs a pattern (over this hierarchy's protected attributes) into
    /// `(mask, key)` form. Returns `None` when the pattern mentions a
    /// column outside the protected set.
    pub fn pack(&self, pattern: &Pattern) -> Option<(u32, u128)> {
        let mut mask = 0u32;
        let mut codes: Vec<(usize, u32)> = Vec::with_capacity(pattern.level());
        for (col, code) in pattern.terms() {
            let j = self.protected.iter().position(|&a| a == col)?;
            mask |= 1 << j;
            codes.push((j, code));
        }
        codes.sort_by_key(|&(j, _)| j);
        let mut key = 0u128;
        for (i, &(_, code)) in codes.iter().enumerate() {
            key |= u128::from(code) << (8 * i);
        }
        Some((mask, key))
    }
}

/// Removes the byte at `pos` from a packed key, shifting higher bytes down.
#[inline]
pub(crate) fn drop_byte(key: u128, pos: usize) -> u128 {
    let low_mask: u128 = (1u128 << (8 * pos)) - 1;
    let low = key & low_mask;
    let high = (key >> (8 * (pos + 1))) << (8 * pos);
    low | high
}

/// Replaces the byte at `pos` of a packed key with `value`.
#[inline]
pub(crate) fn set_byte(key: u128, pos: usize, value: u32) -> u128 {
    let cleared = key & !(0xFFu128 << (8 * pos));
    cleared | (u128::from(value) << (8 * pos))
}

/// Extracts the byte at `pos` of a packed key.
#[inline]
pub(crate) fn get_byte(key: u128, pos: usize) -> u32 {
    ((key >> (8 * pos)) & 0xFF) as u32
}

/// Aggregates per-region counts for a single attribute set over the
/// *current* dataset. Delegates to the shared counting seam
/// ([`crate::counting`]), which owns the crate's one key-packing loop.
pub fn node_counts(
    data: &Dataset,
    protected: &[usize],
    attr_positions: &[usize],
) -> FastMap<u128, Counts> {
    let cols: Vec<usize> = attr_positions.iter().map(|&j| protected[j]).collect();
    crate::counting::node_counts(data, &cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn data() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1", "2"]).protected(),
                Attribute::from_strs("f", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        // deterministic grid with varying labels
        for a in 0..2u32 {
            for b in 0..3u32 {
                for i in 0..(4 + a + b) {
                    let y = u8::from((a + b + i) % 2 == 0);
                    d.push_row(&[a, b, i % 2], y).unwrap();
                }
            }
        }
        d
    }

    #[test]
    fn node_structure() {
        let d = data();
        let h = Hierarchy::try_build(&d).unwrap();
        assert_eq!(h.arity(), 2);
        assert_eq!(h.nodes().len(), 3); // {a}, {b}, {a,b}
        assert_eq!(h.node(0b01).attrs, vec![0]);
        assert_eq!(h.node(0b10).attrs, vec![1]);
        assert_eq!(h.node(0b11).attrs, vec![0, 1]);
        assert_eq!(h.node(0b11).level(), 2);
    }

    #[test]
    fn counts_match_direct_filtering() {
        let d = data();
        let h = Hierarchy::try_build(&d).unwrap();
        for mask in 1u32..4 {
            let node = h.node(mask);
            for (&key, &counts) in &node.regions {
                let pattern = h.pattern_of(mask, key);
                let (pos, neg) = d.class_counts(&pattern);
                assert_eq!(counts.pos, pos as u64, "{}", pattern.display(d.schema()));
                assert_eq!(counts.neg, neg as u64);
            }
        }
        let (pos, neg) = d.class_counts(&Pattern::empty());
        assert_eq!(h.totals(), Counts::new(pos as u64, neg as u64));
    }

    #[test]
    fn projection_preserves_totals() {
        let d = data();
        let h = Hierarchy::try_build(&d).unwrap();
        for mask in 1u32..4 {
            let sum: u64 = h.node(mask).regions.values().map(|c| c.total()).sum();
            assert_eq!(sum, d.len() as u64, "node {mask} must partition D");
        }
    }

    #[test]
    fn pack_and_pattern_roundtrip() {
        let d = data();
        let h = Hierarchy::try_build(&d).unwrap();
        let p = Pattern::from_terms([(0usize, 1u32), (1usize, 2u32)]);
        let (mask, key) = h.pack(&p).unwrap();
        assert_eq!(mask, 0b11);
        assert_eq!(h.pattern_of(mask, key), p);
        // non-protected column cannot be packed
        let q = Pattern::from_terms([(2usize, 0u32)]);
        assert!(h.pack(&q).is_none());
    }

    #[test]
    fn byte_helpers() {
        let key: u128 = 0x03_02_01; // bytes [1, 2, 3]
        assert_eq!(get_byte(key, 0), 1);
        assert_eq!(get_byte(key, 1), 2);
        assert_eq!(get_byte(key, 2), 3);
        assert_eq!(drop_byte(key, 1), 0x03_01);
        assert_eq!(drop_byte(key, 0), 0x03_02);
        assert_eq!(set_byte(key, 1, 9), 0x03_09_01);
    }

    #[test]
    fn node_counts_matches_hierarchy() {
        let d = data();
        let h = Hierarchy::try_build(&d).unwrap();
        let protected = d.schema().protected_indices();
        let counts = node_counts(&d, &protected, &[0, 1]);
        assert_eq!(counts.len(), h.node(0b11).regions.len());
        for (key, c) in counts {
            assert_eq!(c, h.counts(0b11, key));
        }
    }

    #[test]
    fn build_over_custom_protected_set() {
        let d = data();
        // treat only column b (index 1) as protected
        let h = Hierarchy::try_build_over(&d, &[1]).unwrap();
        assert_eq!(h.arity(), 1);
        assert_eq!(h.nodes().len(), 1);
        assert_eq!(h.node(1).regions.len(), 3);
    }
}
