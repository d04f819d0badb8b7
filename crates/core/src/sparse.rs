//! Support-pruned region enumeration: the lattice without the wall.
//!
//! The dense [`Hierarchy`](crate::Hierarchy) materializes all `2^p − 1`
//! lattice nodes, which caps the protected arity at
//! [`crate::hierarchy::MAX_PROTECTED`] and costs
//! exponential time well before that. [`SparseHierarchy`] instead
//! enumerates the lattice level by level, Apriori-style (Fairpriori's
//! observation): a node is *frequent* iff at least one of its regions has
//! more than `support` rows, and because refining a region can only
//! shrink it, the frequent-node set is downward closed — every mask below
//! a frequent mask is frequent. Candidates at level `L+1` therefore come
//! only from frequent level-`L` masks extended by a higher-numbered
//! attribute, kept when all their level-`L` sub-masks are frequent, and
//! everything above an infrequent mask is skipped without ever being
//! counted.
//!
//! **Parity invariant.** When `support` equals the identify pass's
//! `min_size`, the skipped nodes are exactly those whose regions the
//! dense scan would all reject as too small, and every surviving node
//! carries its *complete* region map (aggregated over all leaves, not
//! just the frequent cells). Identify over a [`SparseHierarchy`] is
//! therefore byte-identical to the dense scan for every neighborhood
//! mode — including the naive ones that sum infrequent sibling regions.
//!
//! Wide rows (`p > 16`) no longer fit 8 bits per attribute in a `u128`
//! full-row key, so full keys use a `KeyCodec` with minimal per-column
//! bit widths. Canonical *node* region keys stay 8-bit-per-slot
//! (identical to the dense representation — this is what makes the parity
//! byte-exact), which caps surviving nodes at 16 attributes; a frequent
//! node deeper than that is reported as [`CoreError::NodeTooDeep`].

use crate::counting::{leaf_scan, pack_keys};
use crate::error::{validate_columns, CoreError, MAX_PROTECTED_SPARSE};
use crate::hash::FastMap;
use crate::hierarchy::{Node, MAX_PROTECTED};
use crate::score::Counts;
use remedy_dataset::{Dataset, Pattern};

/// Per-column bit layout of packed full-row keys.
///
/// Dense paths always use one byte per column ([`KeyCodec::bytes`]), and
/// so does the sparse enumeration whenever `p ≤ 16` — full-row keys are
/// then bit-identical between the two enumerations, which lets a dense
/// leaf map seed a sparse build directly. Past 16 columns the codec
/// switches to minimal widths (`⌈log2(cardinality)⌉`, at least 1 bit) and
/// fails with [`CoreError::KeyWidthOverflow`] if the total passes 128.
#[derive(Debug, Clone)]
pub(crate) struct KeyCodec {
    offsets: Vec<u32>,
    widths: Vec<u32>,
}

impl KeyCodec {
    /// Fixed 8-bit slots: the dense layout, also used for canonical node
    /// region keys.
    pub(crate) fn bytes(p: usize) -> KeyCodec {
        KeyCodec {
            offsets: (0..p as u32).map(|j| 8 * j).collect(),
            widths: vec![8; p],
        }
    }

    /// Minimal widths for the given cardinalities; stays on the 8-bit
    /// layout while it fits so keys match the dense representation.
    pub(crate) fn for_cards(cards: &[u32]) -> Result<KeyCodec, CoreError> {
        if cards.len() <= MAX_PROTECTED {
            return Ok(KeyCodec::bytes(cards.len()));
        }
        let widths: Vec<u32> = cards
            .iter()
            .map(|&c| (32 - c.saturating_sub(1).leading_zeros()).max(1))
            .collect();
        let mut offsets = Vec::with_capacity(widths.len());
        let mut total = 0u32;
        for &w in &widths {
            offsets.push(total);
            total += w;
        }
        if total > 128 {
            return Err(CoreError::KeyWidthOverflow { bits: total });
        }
        Ok(KeyCodec { offsets, widths })
    }

    /// Columns in the layout.
    pub(crate) fn arity(&self) -> usize {
        self.widths.len()
    }

    /// Per-column slot widths — what a persisted packed-key layout is
    /// validated against before its keys are trusted.
    pub(crate) fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Bit offset of column slot `j` (the packing loop's shift amount).
    #[inline]
    pub(crate) fn offset(&self, j: usize) -> u32 {
        self.offsets[j]
    }

    /// Category code of column slot `j` in a packed full-row key.
    #[inline]
    pub(crate) fn extract(&self, key: u128, j: usize) -> u32 {
        ((key >> self.offsets[j]) & ((1u128 << self.widths[j]) - 1)) as u32
    }

    /// Canonical node region key (8 bits per set attribute, compacted
    /// low-to-high) of a full-row key — the sparse counterpart of
    /// `project_key`, and identical to it on the 8-bit layout.
    pub(crate) fn project(&self, full: u128, mask: u32) -> u128 {
        debug_assert!(mask.count_ones() as usize <= MAX_PROTECTED);
        let mut key = 0u128;
        let mut slot = 0u32;
        let mut m = mask;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            key |= u128::from(self.extract(full, j)) << (8 * slot);
            slot += 1;
            m &= m - 1;
        }
        key
    }
}

/// Leaf cells in struct-of-arrays form: per-attribute code columns plus
/// the cell's label counts, so candidate counting touches only the
/// attributes in the candidate mask.
struct LeafCols {
    codes: Vec<Vec<u8>>,
    counts: Vec<Counts>,
}

/// Candidate region maps whose cell space is at most this big are
/// accumulated in a flat array indexed by mixed-radix code instead of a
/// hash map — a large constant-factor win on the counting hot loop.
const DENSE_ACC_LIMIT: usize = 1 << 16;

/// The support-pruned lattice: only frequent nodes, each with its
/// complete region map.
///
/// Accessors mirror [`Hierarchy`](crate::Hierarchy), except that
/// [`node`](SparseHierarchy::node) returns an `Option` — absence means
/// "every region of that node has at most `support` rows", which is
/// exactly the set of nodes an identify pass at `min_size ≥ support` can
/// skip.
#[derive(Debug, Clone)]
pub struct SparseHierarchy {
    protected: Vec<usize>,
    cards: Vec<u32>,
    ordered: Vec<bool>,
    totals: Counts,
    support: u64,
    nodes: Vec<Node>,
    by_mask: FastMap<u32, usize>,
}

impl SparseHierarchy {
    /// Builds over the schema's protected columns with the given support
    /// threshold.
    pub fn try_build(data: &Dataset, support: u64) -> Result<SparseHierarchy, CoreError> {
        let protected = data.schema().protected_indices();
        SparseHierarchy::try_build_over(data, &protected, support)
    }

    /// Builds over an explicit protected set (up to
    /// [`MAX_PROTECTED_SPARSE`] columns).
    pub fn try_build_over(
        data: &Dataset,
        protected: &[usize],
        support: u64,
    ) -> Result<SparseHierarchy, CoreError> {
        validate_columns(data, protected, MAX_PROTECTED_SPARSE)?;
        let cards: Vec<u32> = protected
            .iter()
            .map(|&j| data.schema().attribute(j).cardinality() as u32)
            .collect();
        let ordered: Vec<bool> = protected
            .iter()
            .map(|&j| data.schema().attribute(j).is_ordered())
            .collect();
        let codec = KeyCodec::for_cards(&cards)?;
        let mut keys = vec![0u128; data.len()];
        pack_keys(data, protected, &codec, &mut keys);
        let scan = leaf_scan(&keys, data.labels(), false);
        SparseHierarchy::from_leaves(
            protected.to_vec(),
            cards,
            ordered,
            &codec,
            scan.counts.iter().map(|(&k, &c)| (k, c)),
            scan.totals,
            support,
        )
    }

    /// Level-wise Apriori enumeration over an already-aggregated leaf
    /// map. `leaves` may arrive in any order: counting is pure summation,
    /// and surviving region maps are unordered.
    pub(crate) fn from_leaves(
        protected: Vec<usize>,
        cards: Vec<u32>,
        ordered: Vec<bool>,
        codec: &KeyCodec,
        leaves: impl Iterator<Item = (u128, Counts)>,
        totals: Counts,
        support: u64,
    ) -> Result<SparseHierarchy, CoreError> {
        let p = protected.len();
        debug_assert_eq!(codec.arity(), p);
        let mut cols = LeafCols {
            codes: vec![Vec::new(); p],
            counts: Vec::new(),
        };
        for (key, counts) in leaves {
            for (j, col) in cols.codes.iter_mut().enumerate() {
                col.push(codec.extract(key, j) as u8);
            }
            cols.counts.push(counts);
        }

        let mut nodes: Vec<Node> = Vec::new();
        let mut candidates: Vec<u32> = (0..p as u32).map(|j| 1u32 << j).collect();
        // scratch for the flat-array counting path, reused (and re-zeroed
        // via the touched list) across candidates
        let mut scratch: Vec<Counts> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut level = 1usize;
        while !candidates.is_empty() {
            if level > MAX_PROTECTED {
                return Err(CoreError::NodeTooDeep { level });
            }
            let mut frequent: Vec<u32> = Vec::new();
            for &mask in &candidates {
                let node = count_node(mask, p, &cols, &cards, &mut scratch, &mut touched);
                if node.regions.values().any(|c| c.total() > support) {
                    frequent.push(mask);
                    nodes.push(node);
                }
            }
            candidates = next_candidates(&frequent, p);
            level += 1;
        }

        let by_mask = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.mask, i))
            .collect();
        Ok(SparseHierarchy {
            protected,
            cards,
            ordered,
            totals,
            support,
            nodes,
            by_mask,
        })
    }

    /// Per-level candidate-map merge of another shard's pruned lattice:
    /// the surviving node sets are unioned (kept in level-then-mask
    /// enumeration order), matching nodes sum their region maps, and
    /// totals add. Both sides must share the protected layout *and*
    /// support threshold ([`CoreError::MergeMismatch`] otherwise).
    ///
    /// Exactness caveat: at `support = 0` the merge equals a
    /// whole-dataset build, but at a positive support it is only a
    /// *lower bound* — a region frequent globally can sit below the
    /// threshold in every shard, so its node survives in neither input.
    /// Exact sharded pruning therefore merges **unpruned** leaf counts
    /// first ([`crate::counting::ShardCounts`]) and prunes once,
    /// globally.
    pub fn merge_from(&mut self, other: &SparseHierarchy) -> Result<(), CoreError> {
        crate::counting::check_merge_layout(
            (&self.protected, &self.cards, &self.ordered),
            (&other.protected, &other.cards, &other.ordered),
        )?;
        if self.support != other.support {
            return Err(CoreError::MergeMismatch {
                detail: format!("support {} != {}", self.support, other.support),
            });
        }
        for theirs in &other.nodes {
            match self.by_mask.get(&theirs.mask) {
                Some(&i) => {
                    let node = &mut self.nodes[i];
                    for (&key, &counts) in &theirs.regions {
                        node.regions.entry(key).or_default().add(counts);
                    }
                }
                None => self.nodes.push(theirs.clone()),
            }
        }
        self.nodes
            .sort_by_key(|node| (node.mask.count_ones(), node.mask));
        self.by_mask = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.mask, i))
            .collect();
        self.totals.add(other.totals);
        Ok(())
    }

    /// Number of protected attributes (may exceed the dense limit).
    pub fn arity(&self) -> usize {
        self.protected.len()
    }

    /// Schema column indices of the protected attributes.
    pub fn protected(&self) -> &[usize] {
        &self.protected
    }

    /// Cardinality of the `j`-th protected attribute.
    pub fn cardinality(&self, j: usize) -> u32 {
        self.cards[j]
    }

    /// Whether the `j`-th protected attribute is ordered.
    pub fn is_ordered(&self, j: usize) -> bool {
        self.ordered[j]
    }

    /// Dataset-wide label counts.
    pub fn totals(&self) -> Counts {
        self.totals
    }

    /// The support threshold the enumeration was pruned at.
    pub fn support(&self) -> u64 {
        self.support
    }

    /// Surviving nodes, in level-then-mask enumeration order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node for `mask`, or `None` when pruning dropped it (all of its
    /// regions hold at most `support` rows).
    pub fn node(&self, mask: u32) -> Option<&Node> {
        self.by_mask.get(&mask).map(|&i| &self.nodes[i])
    }

    /// Total regions across surviving nodes.
    pub fn region_count(&self) -> usize {
        self.nodes.iter().map(|n| n.regions.len()).sum()
    }

    /// Reconstructs the human-readable pattern of a region, exactly as
    /// the dense [`Hierarchy::pattern_of`](crate::Hierarchy::pattern_of)
    /// would.
    ///
    /// # Panics
    ///
    /// If `mask` was pruned away.
    pub fn pattern_of(&self, mask: u32, key: u128) -> Pattern {
        let node = self
            .node(mask)
            .unwrap_or_else(|| panic!("pattern_of: node {mask:#x} was pruned"));
        let mut pattern = Pattern::empty();
        for (i, &j) in node.attrs.iter().enumerate() {
            let code = ((key >> (8 * i)) & 0xFF) as u32;
            pattern.set(self.protected[j], code);
        }
        pattern
    }
}

/// Counts one candidate node's complete region map from the leaf
/// columns. Small cell spaces go through a flat mixed-radix array
/// (`scratch`/`touched`), larger ones through a hash map.
fn count_node(
    mask: u32,
    p: usize,
    cols: &LeafCols,
    cards: &[u32],
    scratch: &mut Vec<Counts>,
    touched: &mut Vec<usize>,
) -> Node {
    let attrs: Vec<usize> = (0..p).filter(|j| mask >> j & 1 == 1).collect();
    let dims: Vec<usize> = attrs.iter().map(|&j| cards[j] as usize).collect();
    let cells = dims.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d).filter(|&x| x <= DENSE_ACC_LIMIT)
    });
    let mut regions: FastMap<u128, Counts> = FastMap::default();
    match cells {
        Some(cells) => {
            if scratch.len() < cells {
                scratch.resize(cells, Counts::default());
            }
            touched.clear();
            for (i, &counts) in cols.counts.iter().enumerate() {
                let mut idx = 0usize;
                for (&j, &d) in attrs.iter().zip(&dims) {
                    idx = idx * d + cols.codes[j][i] as usize;
                }
                // leaf cells are never empty, so a zero total marks an
                // untouched scratch slot
                if scratch[idx].total() == 0 {
                    touched.push(idx);
                }
                scratch[idx].add(counts);
            }
            regions.reserve(touched.len());
            for &idx in touched.iter() {
                let mut rem = idx;
                let mut key = 0u128;
                for (slot, &d) in dims.iter().enumerate().rev() {
                    key |= ((rem % d) as u128) << (8 * slot);
                    rem /= d;
                }
                regions.insert(key, scratch[idx]);
                scratch[idx] = Counts::default();
            }
        }
        None => {
            for (i, &counts) in cols.counts.iter().enumerate() {
                let mut key = 0u128;
                for (slot, &j) in attrs.iter().enumerate() {
                    key |= u128::from(cols.codes[j][i]) << (8 * slot);
                }
                regions.entry(key).or_default().add(counts);
            }
        }
    }
    Node {
        mask,
        attrs,
        regions,
    }
}

/// Apriori candidate generation: each frequent mask extended by one
/// attribute above its highest set bit, kept only if every one-removed
/// sub-mask is frequent. `frequent` must be sorted ascending (it is — the
/// per-level scan preserves candidate order).
fn next_candidates(frequent: &[u32], p: usize) -> Vec<u32> {
    debug_assert!(frequent.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::new();
    for &m in frequent {
        let top = 31 - m.leading_zeros();
        for b in (top + 1)..p as u32 {
            let cand = m | (1u32 << b);
            let mut rest = cand;
            let mut closed = true;
            while rest != 0 {
                let i = rest.trailing_zeros();
                rest &= rest - 1;
                let sub = cand & !(1u32 << i);
                if sub != m && frequent.binary_search(&sub).is_err() {
                    closed = false;
                    break;
                }
            }
            if closed {
                out.push(cand);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;
    use remedy_dataset::synth;

    fn assert_node_parity(data: &Dataset, support: u64) {
        let dense = Hierarchy::try_build(data).unwrap();
        let sparse = SparseHierarchy::try_build(data, support).unwrap();
        for node in dense.nodes() {
            let frequent = node.regions.values().any(|c| c.total() > support);
            match sparse.node(node.mask) {
                Some(sn) => {
                    assert!(frequent, "infrequent node {:#x} survived", node.mask);
                    assert_eq!(sn.attrs, node.attrs);
                    assert_eq!(sn.regions, node.regions, "node {:#x}", node.mask);
                }
                None => assert!(!frequent, "frequent node {:#x} pruned", node.mask),
            }
        }
        assert_eq!(sparse.totals(), dense.totals());
        let survivors = dense
            .nodes()
            .iter()
            .filter(|n| n.regions.values().any(|c| c.total() > support))
            .count();
        assert_eq!(sparse.nodes().len(), survivors);
    }

    #[test]
    fn sparse_nodes_match_dense_on_study_data() {
        for support in [0, 5, 30, 200] {
            assert_node_parity(&synth::compas_n(1_500, 11), support);
        }
        assert_node_parity(&synth::adult_n(1_200, 3), 30);
        assert_node_parity(&synth::law_school_n(1_000, 5), 12);
    }

    #[test]
    fn everything_pruned_at_huge_support() {
        let data = synth::compas_n(300, 1);
        let sparse = SparseHierarchy::try_build(&data, u64::MAX).unwrap();
        assert_eq!(sparse.nodes().len(), 0);
        assert!(sparse.node(1).is_none());
    }

    #[test]
    fn empty_dataset_builds_empty_lattice() {
        let data = synth::compas_n(1, 1);
        let empty = Dataset::new(data.schema_arc());
        let sparse = SparseHierarchy::try_build(&empty, 0).unwrap();
        assert_eq!(sparse.nodes().len(), 0);
        assert_eq!(sparse.totals().total(), 0);
    }

    #[test]
    fn codec_roundtrips_wide_layouts() {
        // 20 columns of mixed cardinality forces the minimal-width layout
        let cards: Vec<u32> = (0..20).map(|j| 2 + (j % 7) * 9).collect();
        let codec = KeyCodec::for_cards(&cards).unwrap();
        assert_eq!(codec.arity(), 20);
        let mut key = 0u128;
        let codes: Vec<u32> = cards.iter().map(|&c| c - 1).collect();
        for (j, &code) in codes.iter().enumerate() {
            key |= u128::from(code) << codec.offset(j);
        }
        for (j, &code) in codes.iter().enumerate() {
            assert_eq!(codec.extract(key, j), code);
        }
        // projection compacts to 8-bit slots in mask bit order
        let mask = (1 << 3) | (1 << 11) | (1 << 19);
        let projected = codec.project(key, mask);
        assert_eq!(projected & 0xFF, u128::from(codes[3]));
        assert_eq!((projected >> 8) & 0xFF, u128::from(codes[11]));
        assert_eq!((projected >> 16) & 0xFF, u128::from(codes[19]));
    }

    #[test]
    fn codec_matches_dense_layout_at_small_arity() {
        let codec = KeyCodec::for_cards(&[200, 3, 7]).unwrap();
        for j in 0..3 {
            assert_eq!(codec.offset(j), 8 * j as u32);
        }
    }

    #[test]
    fn codec_rejects_overflowing_widths() {
        // 26 columns of cardinality 32 need 5 bits each = 130 > 128
        let cards = vec![32u32; 26];
        match KeyCodec::for_cards(&cards) {
            Err(CoreError::KeyWidthOverflow { bits: 130 }) => {}
            other => panic!("expected KeyWidthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn candidate_generation_is_downward_closed() {
        // level-1 masks expand to all pairs
        assert_eq!(
            next_candidates(&[0b001, 0b010, 0b100], 3),
            vec![0b011, 0b101, 0b110]
        );
        // {ab, ac} frequent but bc not: abc must be rejected
        assert_eq!(next_candidates(&[0b011, 0b101], 3), Vec::<u32>::new());
        // all pairs frequent: abc is generated exactly once
        assert_eq!(next_candidates(&[0b011, 0b101, 0b110], 3), vec![0b111]);
    }
}
