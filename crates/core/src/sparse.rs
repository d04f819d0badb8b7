//! The region lattice type, and its support-pruned builder.
//!
//! [`SparseHierarchy`] is the one lattice type: the nodes an enumeration
//! kept, each with its complete region map, plus the protected layout and
//! the support the nodes were pruned at. Two builders produce it and
//! nothing else differs between them. The dense
//! [`Hierarchy`](crate::Hierarchy) projects every one of the `2^p − 1`
//! nodes top-down from the leaves (support 0, `p ≤`
//! [`crate::hierarchy::MAX_PROTECTED`]). The builder here enumerates the
//! lattice level by level, Apriori-style (Fairpriori's observation): a
//! node is *frequent* iff at least one of its regions has more than
//! `support` rows, and because refining a region can only shrink it, the
//! frequent-node set is downward closed — every mask below a frequent
//! mask is frequent. Candidates at level `L+1` therefore come only from
//! frequent level-`L` masks extended by a higher-numbered attribute, kept
//! when all their level-`L` sub-masks are frequent, and everything above
//! an infrequent mask is skipped without ever being counted.
//!
//! **Hot-list gate.** A kept node whose frequent regions hold few rows
//! also keeps its *hot list*: the leaves in those regions. A candidate is
//! first counted over the hot list of its parent, the mask
//! `next_candidates` extended (the candidate minus its highest
//! attribute). Each candidate region lies inside one parent region, so a
//! region above `support` lies wholly on that list, and this one short
//! pass decides frequency exactly: an infrequent candidate is rejected
//! without a full pass or a region map. A frequent one adds the leaves
//! off the list and so still gets its complete map in one pass over all
//! leaves. Where frequent regions hold most rows, as on the study
//! datasets, nodes keep no list and every candidate takes the full pass.
//!
//! **Parity invariant.** When `support` equals the identify pass's
//! `min_size`, the skipped nodes are exactly those whose regions the
//! dense scan would all reject as too small, and every surviving node
//! carries its *complete* region map (aggregated over all leaves, not
//! just the frequent cells). Identify over a pruned lattice is
//! therefore byte-identical to the dense scan for every neighborhood
//! mode — including the naive ones that sum infrequent sibling regions.
//!
//! Wide rows (`p > 16`) no longer fit 8 bits per attribute in a `u128`
//! full-row key, so full keys use a `KeyCodec` with minimal per-column
//! bit widths. Canonical *node* region keys stay 8-bit-per-slot
//! (identical to the dense representation — this is what makes the parity
//! byte-exact), which caps surviving nodes at 16 attributes; a frequent
//! node deeper than that is reported as [`CoreError::NodeTooDeep`].

use crate::counting::{ShardCounts, Tally};
use crate::error::CoreError;
use crate::hash::FastMap;
use crate::hierarchy::{Node, MAX_PROTECTED};
use crate::score::Counts;
use remedy_dataset::store::key_layout;
use remedy_dataset::{Dataset, Pattern};
use remedy_obs::Scope as ObsScope;

/// Per-column bit layout of packed full-row keys.
///
/// Every leaf key is packed with [`KeyCodec::for_cards`]: one byte per
/// column while `p ≤ 16` — the dense region-key layout, so one leaf map
/// seeds both enumerations — and past 16 columns
/// minimal widths (`⌈log2(cardinality)⌉`, at least 1 bit), failing with
/// [`CoreError::KeyWidthOverflow`] if the total passes 128.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyCodec {
    offsets: Vec<u32>,
    widths: Vec<u32>,
}

impl KeyCodec {
    /// The dataset crate's [`key_layout`] for the given cardinalities:
    /// 8-bit slots up to 16 columns, so keys match the dense
    /// representation, minimal widths beyond.
    pub(crate) fn for_cards(cards: &[u32]) -> Result<KeyCodec, CoreError> {
        let (widths, offsets) =
            key_layout(cards).map_err(|bits| CoreError::KeyWidthOverflow { bits })?;
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

    /// Per-column bit offsets (the packing loop's shift amounts).
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Category code of column slot `j` in a packed full-row key.
    #[inline]
    pub(crate) fn extract(&self, key: u128, j: usize) -> u32 {
        ((key >> self.offsets[j]) & ((1u128 << self.widths[j]) - 1)) as u32
    }

    /// Canonical node region key (8 bits per set attribute, compacted
    /// low-to-high) of a full-row key — on the 8-bit layout, the bytes
    /// of the mask's set bits gathered in order.
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
/// the cell's tally, so candidate counting touches only the attributes in
/// the candidate mask.
struct LeafCols<C> {
    codes: Vec<Vec<u8>>,
    counts: Vec<C>,
}

/// Candidate region maps whose cell space is at most this big are
/// accumulated in a flat array indexed by mixed-radix code instead of a
/// hash map — a large constant-factor win on the counting hot loop.
const DENSE_ACC_LIMIT: usize = 1 << 16;

/// A node keeps a hot list only when its frequent regions hold at most
/// `1 / HOT_LIST_SHARE` as many rows as there are leaves. Every leaf
/// holds at least one row, so the list then covers at most that share of
/// the leaves, short enough that gating a child on it costs little
/// beside the full pass it may save.
const HOT_LIST_SHARE: u64 = 4;

/// A node's hot list: the ascending indices of the leaves in its regions
/// above `support`.
type HotList = Vec<u32>;

/// The lattice of regions over a set of protected attributes: the nodes
/// its builder kept, each with its complete region map of `C` tallies
/// (label [`Counts`] unless built from [`ShardCounts::scan_classes`]).
///
/// A lattice pruned at `support` may lack nodes, so
/// [`node`](SparseHierarchy::node) returns an `Option` — absence means
/// "every region of that node has at most `support` rows", which is
/// exactly the set of nodes an identify pass at `min_size ≥ support` can
/// skip. The dense [`Hierarchy`](crate::Hierarchy) wraps one that holds
/// every node.
#[derive(Debug, Clone)]
pub struct SparseHierarchy<C = Counts> {
    protected: Vec<usize>,
    cards: Vec<u32>,
    ordered: Vec<bool>,
    totals: C,
    support: u64,
    nodes: Vec<Node<C>>,
    /// Node mask → position in `nodes`.
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
    /// [`MAX_PROTECTED_SPARSE`](crate::MAX_PROTECTED_SPARSE) columns).
    pub fn try_build_over(
        data: &Dataset,
        protected: &[usize],
        support: u64,
    ) -> Result<SparseHierarchy, CoreError> {
        ShardCounts::scan_over(data, protected, 0)?.to_sparse(support)
    }
}

impl<C: Tally> SparseHierarchy<C> {
    /// Level-wise Apriori enumeration over an already-aggregated leaf
    /// map, recording its work counters (`candidates`,
    /// `candidates_gated`, `leaf_visits`) into `obs` once. `leaves` may
    /// arrive in any order: counting is pure summation, and surviving
    /// region maps are unordered. Every leaf must hold at least one row
    /// (see [`count_candidate`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_leaves(
        protected: Vec<usize>,
        cards: Vec<u32>,
        ordered: Vec<bool>,
        codec: &KeyCodec,
        leaves: impl Iterator<Item = (u128, C)>,
        totals: C,
        support: u64,
        obs: &ObsScope,
    ) -> Result<SparseHierarchy<C>, CoreError> {
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

        let mut acc = CellAcc::default();
        let mut tally = BuildTally::default();
        let mut nodes: Vec<Node<C>> = Vec::new();
        // the previous level's kept masks (ascending) and their hot lists
        let mut parents: Vec<u32> = Vec::new();
        let mut parent_hot: Vec<Option<HotList>> = Vec::new();
        let mut candidates: Vec<u32> = (0..p as u32).map(|j| 1u32 << j).collect();
        let mut level = 1usize;
        while !candidates.is_empty() {
            if level > MAX_PROTECTED {
                return Err(CoreError::NodeTooDeep { level });
            }
            tally.candidates += candidates.len() as u64;
            let mut frequent: Vec<u32> = Vec::new();
            let mut hot: Vec<Option<HotList>> = Vec::new();
            for &mask in &candidates {
                // the parent is the mask `next_candidates` extended: the
                // candidate minus its highest attribute (at level 1, the
                // whole dataset, which keeps no list)
                let gate = if level == 1 {
                    None
                } else {
                    let parent = mask & !(1 << (31 - mask.leading_zeros()));
                    let i = parents
                        .binary_search(&parent)
                        .expect("every candidate extends a kept mask");
                    parent_hot[i].as_deref()
                };
                let cells = Cells::new(mask, &cards);
                let counted = count_candidate(&cells, &cols, gate, support, &mut acc, &mut tally);
                if let Some((regions, list)) = counted {
                    frequent.push(mask);
                    hot.push(list);
                    nodes.push(Node {
                        mask,
                        attrs: cells.attrs,
                        regions,
                    });
                }
            }
            candidates = next_candidates(&frequent, p);
            parents = frequent;
            parent_hot = hot;
            level += 1;
        }
        tally.flush(obs);

        Ok(SparseHierarchy::new(
            protected, cards, ordered, totals, support, nodes,
        ))
    }

    /// Wraps the nodes a builder kept, indexing them by mask.
    pub(crate) fn new(
        protected: Vec<usize>,
        cards: Vec<u32>,
        ordered: Vec<bool>,
        totals: C,
        support: u64,
        nodes: Vec<Node<C>>,
    ) -> SparseHierarchy<C> {
        let by_mask = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.mask, i))
            .collect();
        SparseHierarchy {
            protected,
            cards,
            ordered,
            totals,
            support,
            nodes,
            by_mask,
        }
    }

    /// Number of protected attributes (`|X|`; past the dense limit only
    /// when pruned).
    pub fn arity(&self) -> usize {
        self.protected.len()
    }

    /// Dataset column indices of the protected attributes.
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

    /// Dataset-wide tally (level 0).
    pub fn totals(&self) -> C {
        self.totals
    }

    /// The support threshold the enumeration was pruned at (0 when
    /// dense).
    pub fn support(&self) -> u64 {
        self.support
    }

    /// The nodes the builder kept: every mask in ascending order when
    /// dense, the frequent ones in level-then-mask order when pruned.
    pub fn nodes(&self) -> &[Node<C>] {
        &self.nodes
    }

    /// The node for `mask`, or `None` when pruning dropped it (all of its
    /// regions hold at most `support` rows).
    pub fn node(&self, mask: u32) -> Option<&Node<C>> {
        self.by_mask.get(&mask).map(|&i| &self.nodes[i])
    }

    /// Total regions across the lattice's nodes.
    pub fn region_count(&self) -> usize {
        self.nodes.iter().map(|n| n.regions.len()).sum()
    }

    /// Reconstructs the [`Pattern`] of a region from its node mask and
    /// packed value key.
    pub fn pattern_of(&self, mask: u32, key: u128) -> Pattern {
        crate::hierarchy::pattern_of(&self.protected, mask, key)
    }
}

/// Work counters of one level-wise build, flushed to an [`ObsScope`]
/// once at its end.
#[derive(Default)]
struct BuildTally {
    /// Candidate masks generated, level 1 included.
    candidates: u64,
    /// Candidates rejected on their parent's hot list alone.
    gated: u64,
    /// Leaves read by every counting and hot-list pass.
    leaf_visits: u64,
}

impl BuildTally {
    fn flush(&self, obs: &ObsScope) {
        obs.add_many(&[
            ("candidates", self.candidates),
            ("candidates_gated", self.gated),
            ("leaf_visits", self.leaf_visits),
        ]);
    }
}

/// One candidate's cells: its attributes, their cardinalities, and its
/// cell count when small enough for the flat accumulator.
struct Cells {
    attrs: Vec<usize>,
    dims: Vec<usize>,
    /// `Some(cells)` at most [`DENSE_ACC_LIMIT`], else `None` (hash map).
    flat: Option<usize>,
}

impl Cells {
    fn new(mask: u32, cards: &[u32]) -> Cells {
        let attrs: Vec<usize> = (0..cards.len()).filter(|j| mask >> j & 1 == 1).collect();
        let dims: Vec<usize> = attrs.iter().map(|&j| cards[j] as usize).collect();
        let flat = dims.iter().try_fold(1usize, |acc, &d| {
            acc.checked_mul(d).filter(|&x| x <= DENSE_ACC_LIMIT)
        });
        Cells { attrs, dims, flat }
    }

    /// Mixed-radix flat index of leaf `i`'s cell.
    #[inline]
    fn index<C>(&self, cols: &LeafCols<C>, i: usize) -> usize {
        let mut idx = 0usize;
        for (&j, &d) in self.attrs.iter().zip(&self.dims) {
            idx = idx * d + cols.codes[j][i] as usize;
        }
        idx
    }

    /// Canonical region key (8 bits per attribute) of leaf `i`'s cell.
    #[inline]
    fn key<C>(&self, cols: &LeafCols<C>, i: usize) -> u128 {
        let mut key = 0u128;
        for (slot, &j) in self.attrs.iter().enumerate() {
            key |= u128::from(cols.codes[j][i]) << (8 * slot);
        }
        key
    }

    /// Canonical region key of flat index `idx`.
    fn key_of_index(&self, idx: usize) -> u128 {
        let mut rem = idx;
        let mut key = 0u128;
        for (slot, &d) in self.dims.iter().enumerate().rev() {
            key |= ((rem % d) as u128) << (8 * slot);
            rem /= d;
        }
        key
    }
}

/// One candidate's cell tallies, reused across candidates: a flat array
/// re-zeroed through its touched list when the cell space is small, a
/// hash map otherwise.
#[derive(Default)]
struct CellAcc<C> {
    scratch: Vec<C>,
    touched: Vec<usize>,
    map: FastMap<u128, C>,
}

impl<C: Tally> CellAcc<C> {
    /// Adds the tallies of the given leaves to their cells.
    fn add(&mut self, cells: &Cells, cols: &LeafCols<C>, leaves: impl Iterator<Item = usize>) {
        match cells.flat {
            Some(len) => {
                if self.scratch.len() < len {
                    self.scratch.resize(len, C::default());
                }
                for i in leaves {
                    let idx = cells.index(cols, i);
                    // every leaf holds at least one row, so a zero total
                    // marks an untouched slot
                    if self.scratch[idx].total() == 0 {
                        self.touched.push(idx);
                    }
                    self.scratch[idx].add(cols.counts[i]);
                }
            }
            None => {
                for i in leaves {
                    self.map
                        .entry(cells.key(cols, i))
                        .or_default()
                        .add(cols.counts[i]);
                }
            }
        }
    }

    /// Rows tallied so far in leaf `i`'s cell.
    fn total_at(&self, cells: &Cells, cols: &LeafCols<C>, i: usize) -> u64 {
        match cells.flat {
            Some(_) => self.scratch[cells.index(cols, i)].total(),
            None => self.map.get(&cells.key(cols, i)).map_or(0, C::total),
        }
    }

    /// Rows in the cells holding more than `support` rows: zero exactly
    /// when no cell does.
    fn rows_above(&self, cells: &Cells, support: u64) -> u64 {
        let above = |c: &C| Some(c.total()).filter(|&t| t > support);
        match cells.flat {
            Some(_) => self
                .touched
                .iter()
                .filter_map(|&idx| above(&self.scratch[idx]))
                .sum(),
            None => self.map.values().filter_map(above).sum(),
        }
    }

    /// Drops every tally.
    fn reset(&mut self) {
        for idx in self.touched.drain(..) {
            self.scratch[idx] = C::default();
        }
        self.map.clear();
    }

    /// Moves the tallies out as a region map, leaving the accumulator
    /// empty.
    fn take(&mut self, cells: &Cells) -> FastMap<u128, C> {
        match cells.flat {
            Some(_) => {
                let mut regions = FastMap::default();
                regions.reserve(self.touched.len());
                for idx in self.touched.drain(..) {
                    regions.insert(
                        cells.key_of_index(idx),
                        std::mem::take(&mut self.scratch[idx]),
                    );
                }
                regions
            }
            None => std::mem::take(&mut self.map),
        }
    }
}

/// Counts one candidate node: `None` when no region holds more than
/// `support` rows, else its complete region map and its hot list (the
/// leaves in those regions, ascending), or no list when it would not be
/// short (see [`HOT_LIST_SHARE`]).
///
/// `gate` is the hot list of the candidate's parent. A candidate region
/// lies inside one parent region, so a region above `support` lies
/// wholly inside the parent's hot leaves: counting the candidate over
/// them alone decides its frequency exactly, and rejects an infrequent
/// candidate after one pass over a short list, building no map. A
/// frequent one then adds the remaining leaves, one full pass in all;
/// its own hot regions are complete after the first pass, so its hot
/// list is drawn from the parent's.
///
/// Relies on every leaf holding at least one row: the flat accumulator
/// marks an untouched cell by a zero total, and the hot-list bound counts
/// one row per leaf.
fn count_candidate<C: Tally>(
    cells: &Cells,
    cols: &LeafCols<C>,
    gate: Option<&[u32]>,
    support: u64,
    acc: &mut CellAcc<C>,
    tally: &mut BuildTally,
) -> Option<(FastMap<u128, C>, Option<HotList>)> {
    let n = cols.counts.len();
    let hot = match gate {
        Some(list) => {
            acc.add(cells, cols, list.iter().map(|&i| i as usize));
            tally.leaf_visits += list.len() as u64;
            if acc.rows_above(cells, support) == 0 {
                acc.reset();
                tally.gated += 1;
                return None;
            }
            let hot: HotList = list
                .iter()
                .copied()
                .filter(|&i| acc.total_at(cells, cols, i as usize) > support)
                .collect();
            acc.add(cells, cols, complement(list, n));
            tally.leaf_visits += n as u64;
            Some(hot)
        }
        None => {
            acc.add(cells, cols, 0..n);
            tally.leaf_visits += n as u64;
            let hot_rows = acc.rows_above(cells, support);
            if hot_rows == 0 {
                acc.reset();
                return None;
            }
            (hot_rows.saturating_mul(HOT_LIST_SHARE) <= n as u64).then(|| {
                tally.leaf_visits += n as u64;
                (0..n)
                    .filter(|&i| acc.total_at(cells, cols, i) > support)
                    .map(|i| i as u32)
                    .collect()
            })
        }
    };
    Some((acc.take(cells), hot))
}

/// The leaves `0..n` missing from the ascending `list`.
fn complement(list: &[u32], n: usize) -> impl Iterator<Item = usize> + '_ {
    let mut skip = list.iter().map(|&i| i as usize).peekable();
    (0..n).filter(move |&i| skip.next_if_eq(&i).is_none())
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

    /// The hot-list gate on the hash-map path: four protected columns of
    /// 48 categories put every level-3 cell space (48³) past the flat
    /// limit. At support 5 level-2 cells hold ~2 rows, so every level-2
    /// node keeps a short list, and one planted level-3 cell is frequent:
    /// three candidates are rejected on their parents' lists, the planted
    /// one completes its map past its parent's, and every node matches
    /// the dense lattice.
    #[test]
    fn hot_list_gate_on_the_hash_path_matches_dense() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use remedy_dataset::{Attribute, Schema};
        let values: Vec<String> = (0..48).map(|v| v.to_string()).collect();
        let values: Vec<&str> = values.iter().map(String::as_str).collect();
        let attrs = (0..4)
            .map(|j| Attribute::from_strs(&format!("h{j}"), &values).protected())
            .collect();
        let mut data = Dataset::new(Schema::new(attrs, "y").into_shared());
        let mut rng = StdRng::seed_from_u64(48);
        for i in 0..5_000u32 {
            let codes: Vec<u32> = (0..4).map(|_| rng.gen_range(0..48)).collect();
            data.push_row(&codes, u8::from(i % 3 == 0)).unwrap();
        }
        for i in 0..8u32 {
            data.push_row(&[1, 2, 3, i * 5], u8::from(i % 2 == 0))
                .unwrap();
        }
        let support = 5;
        assert!(Cells::new(0b0111, &[48; 4]).flat.is_none());
        assert_node_parity(&data, support);

        let rec = remedy_obs::Recorder::enabled();
        let counts = ShardCounts::scan(&data, 0).unwrap();
        let sparse = counts.to_sparse_with(support, &rec.scope("t")).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("t", "candidates"), Some(4 + 6 + 4));
        assert_eq!(snap.counter("t", "candidates_gated"), Some(3));
        assert!(sparse.node(0b0111).is_some(), "planted level-3 node pruned");
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
            key |= u128::from(code) << codec.offsets()[j];
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
            assert_eq!(codec.offsets()[j], 8 * j as u32);
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
