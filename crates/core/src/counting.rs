//! The shared region-counting engine.
//!
//! Every consumer of per-region class counts — hierarchy construction,
//! identification, and the remedy's per-node re-identification — used to
//! run its own O(n·p) scan over the dataset, repacking each row's
//! protected values into a `u128` key every time. This module is the one
//! counting seam (mirroring the [`NeighborModel`] seam on the neighbor
//! side): [`ShardCounts`] validates the protected layout, packs every row
//! **once** into an SoA key column, and tallies the *leaf* counts in a
//! single parallel pass.
//! Every lattice is assembled from those leaves — the dense
//! [`Hierarchy`] by node-to-node projection, the support-pruned
//! [`SparseHierarchy`] by level-wise enumeration — and a [`RegionIndex`]
//! keeps them correct as the remedy or a serve session edits the dataset,
//! each append, removal, or label flip an O(1) leaf delta instead of a
//! fresh scan.
//!
//! Determinism contract: everything here is bit-identical to the
//! single-threaded scans it replaces, regardless of thread count. Keys
//! are written position-wise, per-worker tallies are merged in chunk
//! order (so row buckets stay in ascending row order), counts are exact
//! `u64` sums (reassociation-safe), and count entries that reach
//! `(0, 0)` are evicted so a maintained map always equals a from-scratch
//! rebuild.
//!
//! Row/slot correspondence: the dataset only ever appends at the end and
//! removes rows preserving relative order, so the index can keep an
//! append-only *slot* space (one slot per row ever seen) plus a Fenwick
//! tree over the alive bits. `rank` maps a slot to its current row index
//! and `select` maps a row index back to its slot, both in O(log n).
//!
//! [`NeighborModel`]: crate::neighbor_model::NeighborModel

use crate::error::{check_dense_arity, CoreError, MAX_CARDINALITY, MAX_PROTECTED_SPARSE};
use crate::hash::FastMap;
use crate::hierarchy::{Hierarchy, MAX_PROTECTED};
use crate::score::Counts;
use crate::sparse::{KeyCodec, SparseHierarchy};
use remedy_dataset::store::pack_rows;
use remedy_dataset::{Dataset, PackedKeys, RowEdit};
use remedy_obs::Scope as ObsScope;

/// Bitmask with the low `p` bits set — the full-lattice node mask. Total
/// for the whole supported range `1..=32`, where the idiomatic
/// `(1u32 << p) - 1` overflows the shift at `p = 32`.
pub(crate) fn full_mask_of(p: usize) -> u32 {
    debug_assert!((1..=32).contains(&p));
    u32::MAX >> (32 - p)
}

/// Smallest per-worker chunk worth spawning a thread for; below this the
/// scan runs single-threaded (identical results either way).
const MIN_CHUNK: usize = 8 * 1024;

/// `[start, end)` row ranges splitting `n` rows across at most
/// `threads` workers (`0` means "all available cores"), each at least
/// [`MIN_CHUNK`] long. Sharded execution hands each worker a thread
/// budget of `max(1, threads / shards)` through this cap so
/// `--shards N --threads T` never oversubscribes the machine. The
/// chunk count never changes results — per-worker tallies are merged
/// in chunk order, so every cap is bit-identical.
fn chunk_bounds_capped(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let avail = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let threads = if threads == 0 {
        avail
    } else {
        threads.min(avail)
    };
    let chunks = threads.min(n.div_ceil(MIN_CHUNK)).max(1);
    let per = n.div_ceil(chunks).max(1);
    (0..chunks)
        .map(|c| (c * per, ((c + 1) * per).min(n)))
        .filter(|&(a, b)| a < b)
        .collect()
}

/// A per-leaf payload: the leaf scan tallies one class byte per row into
/// it, and every lattice sums it across leaves. Identify counts labels
/// into [`Counts`]; the fairness audit counts prediction/label pairs into
/// confusion counts.
pub trait Tally: Copy + Default + Send {
    /// Counts one row of class `class`.
    fn add_class(&mut self, class: u8);
    /// Adds another tally.
    fn add(&mut self, other: Self);
    /// Rows tallied.
    fn total(&self) -> u64;
}

/// Class byte = the row's label: `1` positive, anything else negative.
impl Tally for Counts {
    #[inline]
    fn add_class(&mut self, class: u8) {
        if class == 1 {
            self.pos += 1;
        } else {
            self.neg += 1;
        }
    }

    #[inline]
    fn add(&mut self, other: Counts) {
        Counts::add(self, other);
    }

    #[inline]
    fn total(&self) -> u64 {
        Counts::total(self)
    }
}

/// Packs each row's values over `cols` into a `u128` key at the codec's
/// per-column bit offsets, position-wise, under a worker-thread cap
/// (`0` = all cores), with the dataset crate's one packing loop
/// ([`pack_rows`]) per chunk. Every caller validates the layout with
/// [`ShardCounts::layout`] first, so the layout can never silently
/// truncate a code in release builds.
fn pack_keys(data: &Dataset, cols: &[usize], codec: &KeyCodec, threads: usize) -> Vec<u128> {
    debug_assert_eq!(cols.len(), codec.arity());
    let mut out = vec![0u128; data.len()];
    let col_slices: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    let bounds = chunk_bounds_capped(out.len(), threads);
    if bounds.len() <= 1 {
        pack_rows(&col_slices, codec.offsets(), 0, &mut out);
        return out;
    }
    std::thread::scope(|scope| {
        let mut rest = &mut out[..];
        for &(a, b) in &bounds {
            let (chunk, tail) = rest.split_at_mut(b - a);
            rest = tail;
            let cols = &col_slices;
            scope.spawn(move || pack_rows(cols, codec.offsets(), a, chunk));
        }
    });
    out
}

/// Result of one parallel leaf pass over a packed key column.
struct LeafScan<T> {
    /// Full key → tally.
    counts: FastMap<u128, T>,
    /// Full key → ascending slot list (empty unless requested).
    buckets: FastMap<u128, Vec<u32>>,
    /// Whole-dataset tally.
    totals: T,
}

/// Tallies each row's class byte into its leaf (and optionally keeps row
/// buckets) from the packed key column in one pass under a worker-thread
/// cap (`0` = all cores); per-worker maps are merged in chunk order, so
/// bucket slot lists come out ascending.
fn leaf_scan<T: Tally>(
    keys: &[u128],
    classes: &[u8],
    with_buckets: bool,
    threads: usize,
) -> LeafScan<T> {
    debug_assert_eq!(keys.len(), classes.len());
    let bounds = chunk_bounds_capped(keys.len(), threads);
    let mut parts: Vec<LeafScan<T>> = if bounds.len() <= 1 {
        vec![scan_chunk(keys, classes, 0, keys.len(), with_buckets)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(a, b)| scope.spawn(move || scan_chunk(keys, classes, a, b, with_buckets)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("leaf-scan worker"))
                .collect()
        })
    };
    let mut out = parts.remove(0);
    for part in parts {
        out.totals.add(part.totals);
        for (key, c) in part.counts {
            out.counts.entry(key).or_default().add(c);
        }
        for (key, slots) in part.buckets {
            out.buckets
                .entry(key)
                .or_default()
                .extend_from_slice(&slots);
        }
    }
    out
}

fn scan_chunk<T: Tally>(
    keys: &[u128],
    classes: &[u8],
    a: usize,
    b: usize,
    with_buckets: bool,
) -> LeafScan<T> {
    let mut counts: FastMap<u128, T> = FastMap::default();
    let mut buckets: FastMap<u128, Vec<u32>> = FastMap::default();
    let mut totals = T::default();
    for i in a..b {
        let key = keys[i];
        counts.entry(key).or_default().add_class(classes[i]);
        totals.add_class(classes[i]);
        if with_buckets {
            buckets.entry(key).or_default().push(i as u32);
        }
    }
    LeafScan {
        counts,
        buckets,
        totals,
    }
}

impl<C: Tally> ShardCounts<C> {
    /// Scans a shard over an explicit column set, tallying one class
    /// byte per row (`classes[i]` for row `i`) into `C` with at most
    /// `threads` worker threads (`0` = all cores) — the scan every leaf
    /// count is built by, for any payload. Fails on the layouts
    /// [`scan_over`](ShardCounts::scan_over) rejects, or with
    /// [`CoreError::RowCountMismatch`] unless `classes` has one byte per
    /// row.
    pub fn scan_classes(
        data: &Dataset,
        columns: &[usize],
        classes: &[u8],
        threads: usize,
    ) -> Result<ShardCounts<C>, CoreError> {
        let codec = ShardCounts::layout(data, columns)?;
        if classes.len() != data.len() {
            return Err(CoreError::RowCountMismatch {
                rows: data.len(),
                values: classes.len(),
            });
        }
        let keys = pack_keys(data, columns, &codec, threads);
        Ok(ShardCounts::from_keys(data, columns, codec, &keys, classes, false, threads).0)
    }

    fn from_keys(
        data: &Dataset,
        protected: &[usize],
        codec: KeyCodec,
        keys: &[u128],
        classes: &[u8],
        with_buckets: bool,
        threads: usize,
    ) -> (ShardCounts<C>, FastMap<u128, Vec<u32>>) {
        let scan = leaf_scan(keys, classes, with_buckets, threads);
        let counts = ShardCounts {
            protected: protected.to_vec(),
            cards: cards_of(data, protected),
            ordered: protected
                .iter()
                .map(|&a| data.schema().attribute(a).is_ordered())
                .collect(),
            codec,
            leaves: scan.counts,
            totals: scan.totals,
        };
        (counts, scan.buckets)
    }

    /// Runs the level-wise support-pruned enumeration over the
    /// accumulated leaves — identical to
    /// [`SparseHierarchy::try_build_over`] on the concatenated shards,
    /// because pruning sees the globally merged counts.
    pub fn to_sparse(&self, support: u64) -> Result<SparseHierarchy<C>, CoreError> {
        self.to_sparse_with(support, &ObsScope::disabled())
    }

    /// [`to_sparse`](ShardCounts::to_sparse), recording the
    /// enumeration's `candidates`, `candidates_gated` and `leaf_visits`
    /// counters into `obs`.
    pub(crate) fn to_sparse_with(
        &self,
        support: u64,
        obs: &ObsScope,
    ) -> Result<SparseHierarchy<C>, CoreError> {
        SparseHierarchy::from_leaves(
            self.protected.clone(),
            self.cards.clone(),
            self.ordered.clone(),
            &self.codec,
            self.leaves.iter().map(|(&k, &c)| (k, c)),
            self.totals,
            support,
            obs,
        )
    }
}

/// Mergeable leaf-level region counts over one dataset shard — the seam
/// sharded pipeline execution sums per-worker results through, and the
/// counts a [`RegionIndex`] maintains.
///
/// Region counts are row sums, so accumulators merge *exactly*: merging
/// the `ShardCounts` of any row partition of a dataset yields the same
/// leaf map — and therefore the same dense [`Hierarchy`] or
/// support-pruned [`SparseHierarchy`] — as one whole-dataset scan.
/// Exactness holds under **any** partition; stratifying shards by packed
/// key only balances per-shard work, it is not needed for correctness.
///
/// Shards carry **unpruned** leaf counts. Support pruning happens once,
/// globally, when
/// [`try_identify_counts_with`](crate::identify::try_identify_counts_with)
/// identifies over the merged counts: pruning per shard would be
/// unsound, since a region frequent over the whole dataset can sit below
/// the support threshold in every individual shard.
///
/// `C` is the per-leaf payload: label [`Counts`] unless scanned with
/// [`scan_classes`](ShardCounts::scan_classes).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCounts<C = Counts> {
    protected: Vec<usize>,
    cards: Vec<u32>,
    ordered: Vec<bool>,
    /// Bit layout of the leaf keys: 8-bit slots up to [`MAX_PROTECTED`]
    /// columns, minimal widths beyond.
    codec: KeyCodec,
    leaves: FastMap<u128, C>,
    totals: C,
}

impl ShardCounts {
    /// Scans a shard over its schema-declared protected columns with at
    /// most `threads` worker threads (`0` = all cores).
    pub fn scan(data: &Dataset, threads: usize) -> Result<ShardCounts, CoreError> {
        let protected = data.schema().protected_indices();
        ShardCounts::scan_over(data, &protected, threads)
    }

    /// Scans a shard over an explicit protected-column set: a non-empty
    /// set of at most [`MAX_PROTECTED_SPARSE`] columns, each with at most
    /// [`MAX_CARDINALITY`] categories.
    pub fn scan_over(
        data: &Dataset,
        protected: &[usize],
        threads: usize,
    ) -> Result<ShardCounts, CoreError> {
        ShardCounts::scan_classes(data, protected, data.labels(), threads)
    }

    /// The one validation of a leaf layout: a non-empty protected set of
    /// at most [`MAX_PROTECTED_SPARSE`] columns, each with at most
    /// [`MAX_CARDINALITY`] categories, and the [`KeyCodec`] its keys pack
    /// with. It runs in release builds too, so no layout reaches the
    /// packing loop that would wrap a code into a colliding key.
    pub(crate) fn layout(data: &Dataset, protected: &[usize]) -> Result<KeyCodec, CoreError> {
        if protected.is_empty() {
            return Err(CoreError::NoProtected);
        }
        if protected.len() > MAX_PROTECTED_SPARSE {
            return Err(CoreError::TooManyProtected {
                got: protected.len(),
                max: MAX_PROTECTED_SPARSE,
            });
        }
        for &col in protected {
            let attr = data.schema().attribute(col);
            if attr.cardinality() > MAX_CARDINALITY {
                return Err(CoreError::CardinalityOverflow {
                    column: attr.name().to_string(),
                    cardinality: attr.cardinality(),
                });
            }
        }
        KeyCodec::for_cards(&cards_of(data, protected))
    }

    /// Reassembles an accumulator from persisted parts (see
    /// [`crate::persist::counts_from_text`], which checks every leaf key
    /// against `codec`).
    pub(crate) fn from_parts(
        codec: KeyCodec,
        protected: Vec<usize>,
        cards: Vec<u32>,
        ordered: Vec<bool>,
        leaves: FastMap<u128, Counts>,
        totals: Counts,
    ) -> ShardCounts {
        ShardCounts {
            codec,
            protected,
            cards,
            ordered,
            leaves,
            totals,
        }
    }

    /// Folds another shard's counts into this one. Merging is pure
    /// summation — associative and commutative — but only meaningful
    /// between shards of the same dataset, so disagreeing protected
    /// layouts are rejected with [`CoreError::MergeMismatch`].
    pub fn merge(&mut self, other: &ShardCounts) -> Result<(), CoreError> {
        let ours = (&self.protected, &self.cards, &self.ordered);
        let theirs = (&other.protected, &other.cards, &other.ordered);
        if ours != theirs {
            return Err(CoreError::MergeMismatch {
                detail: format!(
                    "protected layout {:?}/{:?}/{:?} != {:?}/{:?}/{:?}",
                    ours.0, ours.1, ours.2, theirs.0, theirs.1, theirs.2
                ),
            });
        }
        for (&key, &c) in &other.leaves {
            self.leaves.entry(key).or_default().add(c);
        }
        self.totals.add(other.totals);
        Ok(())
    }

    /// Applies one leaf's net count delta, evicting the entry when it
    /// reaches `(0, 0)` so maintained counts equal a from-scratch scan.
    fn add_delta(&mut self, key: u128, dpos: i64, dneg: i64) {
        let entry = self.leaves.entry(key).or_default();
        entry.pos = (entry.pos as i64 + dpos) as u64;
        entry.neg = (entry.neg as i64 + dneg) as u64;
        if entry.pos == 0 && entry.neg == 0 {
            self.leaves.remove(&key);
        }
        self.totals.pos = (self.totals.pos as i64 + dpos) as u64;
        self.totals.neg = (self.totals.neg as i64 + dneg) as u64;
    }

    /// Assembles the dense lattice from the accumulated leaves —
    /// identical to [`Hierarchy::try_build_over`] on the concatenated
    /// shards. Fails with [`CoreError::TooManyProtected`] past
    /// [`MAX_PROTECTED`] attributes.
    pub(crate) fn into_hierarchy(self) -> Result<Hierarchy, CoreError> {
        check_dense_arity(self.protected.len())?;
        // ≤ MAX_PROTECTED attributes always pack on the 8-bit layout,
        // so the accumulated leaf keys are exactly the dense keys.
        Ok(Hierarchy::from_leaf(
            self.protected,
            self.cards,
            self.ordered,
            self.leaves,
            self.totals,
        ))
    }

    /// The complete region map of one lattice node, projected from the
    /// leaves — O(distinct leaves). Canonical 8-bit region keys, so
    /// `mask` must span at most [`MAX_PROTECTED`] attributes.
    pub(crate) fn project(&self, mask: u32) -> FastMap<u128, Counts> {
        let mut out: FastMap<u128, Counts> = FastMap::default();
        for (&full, &c) in &self.leaves {
            out.entry(self.codec.project(full, mask))
                .or_default()
                .add(c);
        }
        out
    }

    /// Schema column indices of the protected attributes.
    pub fn protected(&self) -> &[usize] {
        &self.protected
    }

    /// Shard-wide label counts.
    pub fn totals(&self) -> Counts {
        self.totals
    }

    /// Number of distinct leaf regions seen so far.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether no rows have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Leaf key → class counts, as accumulated (persisted sorted by key
    /// so artifacts are deterministic).
    pub(crate) fn leaves(&self) -> &FastMap<u128, Counts> {
        &self.leaves
    }

    /// Per-attribute cardinalities / ordered flags (for persistence).
    pub(crate) fn cards(&self) -> &[u32] {
        &self.cards
    }

    pub(crate) fn ordered(&self) -> &[bool] {
        &self.ordered
    }
}

fn cards_of(data: &Dataset, protected: &[usize]) -> Vec<u32> {
    protected
        .iter()
        .map(|&a| data.schema().attribute(a).cardinality() as u32)
        .collect()
}

/// Fenwick tree over per-slot alive bits: `prefix`/`rank` translate a
/// slot to its current row index, `select` a row index back to its slot,
/// and `push` appends a new slot — all in O(log n).
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based; `tree[i]` sums the alive bits of slots `(i−lowbit(i), i]`.
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over `n` slots, all alive.
    fn ones(n: usize) -> Fenwick {
        let mut tree = vec![0u32; n + 1];
        for (i, t) in tree.iter_mut().enumerate().skip(1) {
            *t = (i & i.wrapping_neg()) as u32; // all-ones range sums
        }
        Fenwick { tree }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Number of alive slots in `[0, slot]` (0-based).
    fn prefix(&self, slot: usize) -> u32 {
        let mut i = slot + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` to the alive bit of `slot`.
    fn add(&mut self, slot: usize, delta: i32) {
        let n = self.len();
        let mut i = slot + 1;
        while i <= n {
            self.tree[i] = (i64::from(self.tree[i]) + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Appends one slot with the given alive bit.
    fn push(&mut self, alive: bool) {
        let i = self.tree.len(); // the new slot's 1-based index
        let lowbit = i & i.wrapping_neg();
        let mut value = u32::from(alive);
        let mut j = i - 1;
        while j > i - lowbit {
            value += self.tree[j];
            j &= j - 1;
        }
        self.tree.push(value);
    }

    /// Current row index of an alive slot.
    fn rank(&self, slot: usize) -> usize {
        debug_assert!(self.prefix(slot) > 0);
        (self.prefix(slot) - 1) as usize
    }

    /// Slot of the row currently at index `row` (binary descent).
    ///
    /// # Panics
    ///
    /// On an empty tree — there is no slot to select, and the
    /// power-of-two descent seed below would shift by `usize::BITS`.
    /// (Unreachable through [`RegionIndex`]: an index with zero slots
    /// has no rows to translate, and `gather_rows` on one answers from
    /// its empty buckets without ranking.)
    fn select(&self, row: usize) -> usize {
        let n = self.len();
        assert!(n > 0, "Fenwick::select on an empty tree");
        let mut pos = 0usize; // 1-based cursor over fully-skipped prefixes
        let mut rem = (row + 1) as u32;
        let mut pw = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while pw > 0 {
            if pos + pw <= n && self.tree[pos + pw] < rem {
                pos += pw;
                rem -= self.tree[pos];
            }
            pw >>= 1;
        }
        pos // 0-based slot
    }
}

/// Running totals of the index's work, flushed to an [`ObsScope`] in one
/// batch (`counting.delta.*` / `counting.rebuild.*` counters). The
/// acceptance check for the incremental path is
/// `counting.rebuild.scans ≤ 1` while `counting.delta.nodes_served`
/// covers the lattice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingTally {
    /// Rows appended through [`RegionIndex::apply_append`].
    pub appends: u64,
    /// Rows removed through [`RegionIndex::apply_remove`].
    pub removes: u64,
    /// Labels flipped through [`RegionIndex::apply_flip`].
    pub flips: u64,
    /// Leaf-count updates performed by delta maintenance.
    pub node_updates: u64,
    /// Node count maps served from the index instead of a dataset scan.
    pub nodes_served: u64,
    /// Full-dataset counting passes (1 for the initial build).
    pub rebuild_scans: u64,
    /// Rows visited by those passes.
    pub rebuild_rows: u64,
}

impl CountingTally {
    /// Emits every non-zero field as a `counting.*` counter and resets.
    pub fn flush(&mut self, obs: &ObsScope) {
        obs.add_many(&[
            ("counting.delta.appends", self.appends),
            ("counting.delta.removes", self.removes),
            ("counting.delta.flips", self.flips),
            ("counting.delta.node_updates", self.node_updates),
            ("counting.delta.nodes_served", self.nodes_served),
            ("counting.rebuild.scans", self.rebuild_scans),
            ("counting.rebuild.rows", self.rebuild_rows),
        ]);
        *self = CountingTally::default();
    }
}

/// The current rows of several regions of one node, as
/// [`RegionIndex::gather_rows`] writes them: one flat buffer with
/// per-region offsets, reused from node to node so a node's gather
/// allocates nothing once the buffer has grown.
///
/// A region's rows are the whole buckets of the leaves it covers, one
/// after another, and each bucket lists its rows in ascending order. The
/// gather records where each of those ascending runs ends, so
/// [`NodeRows::sorted_region_mut`] orders a region by merging its runs.
#[derive(Debug, Clone, Default)]
pub struct NodeRows {
    rows: Vec<usize>,
    /// Region `i`'s rows are `rows[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Region `i`'s ascending runs end at the positions in `rows` listed
    /// in `run_ends[run_offsets[i]..run_offsets[i + 1]]`, ascending.
    run_ends: Vec<usize>,
    run_offsets: Vec<usize>,
    /// The region each leaf bucket feeds, in bucket-map order.
    leaf_regions: Vec<Option<usize>>,
}

impl NodeRows {
    /// Number of regions gathered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether no region was gathered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows gathered over all regions.
    pub fn total_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows of region `i`.
    pub fn region(&self, i: usize) -> &[usize] {
        &self.rows[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The rows of region `i`, to reorder in place.
    pub fn region_mut(&mut self, i: usize) -> &mut [usize] {
        &mut self.rows[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The rows of region `i` in ascending order, to reorder in place.
    /// They are put in order by merging the region's ascending runs
    /// pairwise through `buf`, a merge buffer the caller reuses: O(m log
    /// k) for m rows in k runs, where sorting would be O(m log m).
    pub fn sorted_region_mut(&mut self, i: usize, buf: &mut Vec<usize>) -> &mut [usize] {
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        let ends = &mut self.run_ends[self.run_offsets[i]..self.run_offsets[i + 1]];
        merge_runs(&mut self.rows[start..end], start, ends, buf);
        &mut self.rows[start..end]
    }
}

/// Turns per-region sizes into per-region starts in place; returns the
/// total.
fn sizes_to_starts(sizes: &mut [usize]) -> usize {
    let mut start = 0;
    for slot in sizes {
        let size = *slot;
        *slot = start;
        start += size;
    }
    start
}

/// Sorts `rows`, the concatenation of ascending runs that end at `ends`
/// (ascending positions, offset by `base`, the last one `base +
/// rows.len()`), by merging neighbouring runs pairwise until one is
/// left; `buf` is the merge buffer. `ends` is rewritten to describe the
/// one sorted run, so sorting again costs nothing.
fn merge_runs(rows: &mut [usize], base: usize, ends: &mut [usize], buf: &mut Vec<usize>) {
    // drop empty runs, turning the ends into positions in `rows`
    let mut runs = 0;
    for j in 0..ends.len() {
        let end = ends[j] - base;
        if end > if runs == 0 { 0 } else { ends[runs - 1] } {
            ends[runs] = end;
            runs += 1;
        }
    }
    if runs > 1 {
        buf.clear();
        buf.resize(rows.len(), 0);
        let (mut src, mut dst) = (&mut *rows, buf.as_mut_slice());
        let mut sorted_in_buf = false;
        while runs > 1 {
            let (mut start, mut merged) = (0, 0);
            for pair in (0..runs).step_by(2) {
                let mid = ends[pair];
                let end = if pair + 1 < runs { ends[pair + 1] } else { mid };
                merge_into(&src[start..mid], &src[mid..end], &mut dst[start..end]);
                ends[merged] = end;
                (start, merged) = (end, merged + 1);
            }
            runs = merged;
            std::mem::swap(&mut src, &mut dst);
            sorted_in_buf = !sorted_in_buf;
        }
        if sorted_in_buf {
            dst.copy_from_slice(src);
        }
    }
    ends.fill(base + rows.len());
}

/// Merges two ascending slices into `out`, whose length is theirs.
fn merge_into(a: &[usize], b: &[usize], out: &mut [usize]) {
    let (mut i, mut j) = (0, 0);
    for slot in out {
        if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Delta-maintained leaf counts over a mutating dataset.
///
/// Built once in a parallel pass, the index keeps the [`ShardCounts`]
/// of the *current* rows — O(1) per row edit and O(distinct leaves)
/// memory, at any arity up to [`MAX_PROTECTED_SPARSE`]. Every lattice is
/// assembled from them on demand ([`counts`]): a dense identify projects
/// a copy of the leaves through [`Hierarchy`], a pruned one enumerates
/// from them directly. The index also answers [`gather_rows`] — the
/// current row indices of a node's regions — from per-leaf slot buckets
/// plus the Fenwick rank translation, without touching the dataset.
///
/// The index does not hold the dataset; callers mirror every mutation
/// through [`apply_edit`] (or the typed `apply_*` methods) in the same
/// order they apply it to the [`Dataset`].
///
/// [`counts`]: RegionIndex::counts
/// [`gather_rows`]: RegionIndex::gather_rows
/// [`apply_edit`]: RegionIndex::apply_edit
#[derive(Debug, Clone)]
pub struct RegionIndex {
    /// Leaf counts of the current rows; `(0, 0)` entries evicted.
    counts: ShardCounts,
    /// Per-slot packed full keys (append-only; slots are never reused).
    keys: Vec<u128>,
    /// Per-slot labels, kept current under flips.
    labels: Vec<u8>,
    /// Per-slot alive bits; removals clear, never shrink.
    alive: Vec<bool>,
    /// Full key → ascending alive slots (the leaf row buckets).
    buckets: FastMap<u128, Vec<u32>>,
    fenwick: Fenwick,
    live: usize,
    tally: CountingTally,
    /// Net per-key count deltas awaiting [`flush_deltas`]; always empty
    /// in eager mode.
    ///
    /// [`flush_deltas`]: RegionIndex::flush_deltas
    pending: FastMap<u128, (i64, i64)>,
    batching: bool,
}

impl RegionIndex {
    /// Builds an index over the schema-declared protected columns.
    pub fn try_build(data: &Dataset) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        RegionIndex::try_build_over(data, &protected)
    }

    /// Builds an index over an explicit protected-column set (up to
    /// [`MAX_PROTECTED_SPARSE`] columns): one parallel packing pass and
    /// one parallel leaf tally that also keeps the ascending row buckets
    /// of every leaf.
    pub fn try_build_over(data: &Dataset, protected: &[usize]) -> Result<RegionIndex, CoreError> {
        let codec = ShardCounts::layout(data, protected)?;
        let keys = pack_keys(data, protected, &codec, 0);
        let labels = data.labels();
        let (counts, buckets) =
            ShardCounts::from_keys(data, protected, codec, &keys, labels, true, 0);
        let n = keys.len();
        Ok(RegionIndex {
            counts,
            keys,
            labels: labels.to_vec(),
            alive: vec![true; n],
            buckets,
            fenwick: Fenwick::ones(n),
            live: n,
            tally: CountingTally {
                rebuild_scans: 1,
                rebuild_rows: n as u64,
                ..CountingTally::default()
            },
            pending: FastMap::default(),
            batching: false,
        })
    }

    /// Builds an index for a binary artifact decoded with its packed-key
    /// sidecar (`store::from_bytes`). The sidecar is ignored and the keys
    /// are packed from the decoded columns, exactly as
    /// [`RegionIndex::try_build`] packs them: nothing ties the persisted
    /// keys to the columns, and a wrong key would count a row in a region
    /// it is not in.
    pub fn try_build_from_packed(
        data: &Dataset,
        _packed: PackedKeys,
    ) -> Result<RegionIndex, CoreError> {
        RegionIndex::try_build(data)
    }

    /// Number of protected attributes the index is keyed over.
    pub fn arity(&self) -> usize {
        self.counts.protected().len()
    }

    /// The maintained leaf counts; always equal to [`ShardCounts::scan`]
    /// over the current dataset — provided any batched deltas have been
    /// flushed (see [`begin_deltas`]).
    ///
    /// [`begin_deltas`]: RegionIndex::begin_deltas
    pub fn counts(&self) -> &ShardCounts {
        debug_assert!(
            self.pending.is_empty(),
            "flush_deltas() before reading batched counts"
        );
        &self.counts
    }

    /// Switches the index into batched-delta mode: subsequent edits
    /// accumulate a net `(Δpos, Δneg)` per full key, and
    /// [`flush_deltas`] applies the sums grouped — one leaf update per
    /// distinct edited key for an arbitrarily long edit run. Buckets,
    /// alive bits, and the rank structure stay eagerly maintained, so
    /// [`gather_rows`] is always current; only the leaf counts (and
    /// totals) lag until the next flush.
    ///
    /// [`flush_deltas`]: RegionIndex::flush_deltas
    /// [`gather_rows`]: RegionIndex::gather_rows
    pub fn begin_deltas(&mut self) {
        self.batching = true;
    }

    /// Applies every pending per-key delta to the leaf counts. Keys whose
    /// edits cancelled out are skipped; the final counts are identical to
    /// eager per-edit maintenance (count updates commute, and `(0, 0)`
    /// entries are evicted on every path).
    pub fn flush_deltas(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (key, (dpos, dneg)) in pending {
            if dpos != 0 || dneg != 0 {
                self.update_leaf(key, dpos, dneg);
            }
        }
    }

    /// Routes one row's count delta: straight to the leaf counts in eager
    /// mode, into the pending accumulator in batched mode.
    fn record_delta(&mut self, key: u128, dpos: i64, dneg: i64) {
        if self.batching {
            let entry = self.pending.entry(key).or_default();
            entry.0 += dpos;
            entry.1 += dneg;
        } else {
            self.update_leaf(key, dpos, dneg);
        }
    }

    fn update_leaf(&mut self, key: u128, dpos: i64, dneg: i64) {
        self.counts.add_delta(key, dpos, dneg);
        self.tally.node_updates += 1;
    }

    /// Current number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether every row has been removed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Work tallies accumulated since the last [`flush_obs`].
    ///
    /// [`flush_obs`]: RegionIndex::flush_obs
    pub fn tally(&self) -> CountingTally {
        self.tally
    }

    /// Flushes (and resets) the work tallies into `obs`.
    pub fn flush_obs(&mut self, obs: &ObsScope) {
        self.tally.flush(obs);
    }

    /// Records that one node's count map was served from the index in
    /// place of a full-dataset scan.
    pub fn note_node_served(&mut self) {
        self.tally.nodes_served += 1;
    }

    /// Gathers the current row indices of the regions `keys` of node
    /// `mask` into `out`, region `i`'s rows in [`NodeRows::region`]`(i)`.
    /// `keys` must be sorted and distinct (canonical 8-bit region keys).
    ///
    /// One pass over the leaf buckets serves every region of the node:
    /// a leaf's whole bucket lands in the region its key projects onto
    /// (the full-lattice node looks each bucket up directly). Cost is
    /// O(L·(p + log B) + m·log n) for L distinct leaf keys, B regions and
    /// m gathered rows — paid once per node that has biased regions. A
    /// region's rows come back as one ascending run per leaf bucket, in
    /// no order across runs; callers that need row order take
    /// [`NodeRows::sorted_region_mut`], which merges the runs.
    pub fn gather_rows(&self, mask: u32, keys: &[u128], out: &mut NodeRows) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
        out.rows.clear();
        out.offsets.clear();
        out.offsets.resize(keys.len() + 1, 0);
        out.run_ends.clear();
        out.run_offsets.clear();
        out.run_offsets.resize(keys.len() + 1, 0);
        if keys.is_empty() {
            return;
        }
        // past MAX_PROTECTED the leaf keys use minimal widths, not the
        // canonical 8-bit region keys, so only narrow masks are served
        let leaf_is_canonical = self.arity() <= MAX_PROTECTED;
        if mask == full_mask_of(self.arity()) && leaf_is_canonical {
            for (i, key) in keys.iter().enumerate() {
                if let Some(bucket) = self.buckets.get(key) {
                    out.rows.extend(bucket.iter().map(|&s| s as usize));
                    out.run_ends.push(out.rows.len());
                }
                out.offsets[i + 1] = out.rows.len();
                out.run_offsets[i + 1] = out.run_ends.len();
            }
        } else {
            assert!(
                mask.count_ones() as usize <= MAX_PROTECTED,
                "{}",
                CoreError::NodeTooDeep {
                    level: mask.count_ones() as usize
                }
            );
            // sizes (and run counts) into offsets[i + 1] (and
            // run_offsets[i + 1]), then each turned into region i's
            // start; writing advances it to region i's end, which is
            // region i + 1's start. The first pass notes each leaf's
            // region, and the second walks the unchanged map in the same
            // order
            out.leaf_regions.clear();
            for (&full, bucket) in &self.buckets {
                let region = keys.binary_search(&self.counts.codec.project(full, mask));
                if let Ok(i) = region {
                    out.offsets[i + 1] += bucket.len();
                    out.run_offsets[i + 1] += 1;
                }
                out.leaf_regions.push(region.ok());
            }
            let rows = sizes_to_starts(&mut out.offsets[1..]);
            let runs = sizes_to_starts(&mut out.run_offsets[1..]);
            out.rows.resize(rows, 0);
            out.run_ends.resize(runs, 0);
            for (bucket, &region) in self.buckets.values().zip(&out.leaf_regions) {
                if let Some(i) = region {
                    let at = out.offsets[i + 1];
                    let dst = &mut out.rows[at..at + bucket.len()];
                    for (d, &s) in dst.iter_mut().zip(bucket) {
                        *d = s as usize;
                    }
                    out.offsets[i + 1] += bucket.len();
                    out.run_ends[out.run_offsets[i + 1]] = out.offsets[i + 1];
                    out.run_offsets[i + 1] += 1;
                }
            }
        }
        if !self.compact() {
            for row in &mut out.rows {
                *row = self.fenwick.rank(*row);
            }
        }
    }

    /// Whether no slot has ever died — then slot and row index coincide
    /// and both Fenwick translations short-circuit. Stays true under any
    /// run of appends and flips (the massaging and oversampling
    /// remedies never leave this state).
    fn compact(&self) -> bool {
        self.live == self.keys.len()
    }

    /// Slot of the row currently at `row`.
    fn slot_of(&self, row: usize) -> usize {
        if self.compact() {
            row
        } else {
            self.fenwick.select(row)
        }
    }

    /// Mirrors one dataset edit into the index.
    pub fn apply_edit(&mut self, edit: &RowEdit) {
        match edit {
            RowEdit::Duplicate { src } => self.apply_append(*src),
            RowEdit::FlipLabel { row } => self.apply_flip(*row),
            RowEdit::Remove { rows } => self.apply_remove(rows),
        }
    }

    /// A copy of row `src` was appended at the end of the dataset.
    pub fn apply_append(&mut self, src: usize) {
        let slot = self.slot_of(src);
        debug_assert!(self.alive[slot]);
        let key = self.keys[slot];
        let label = self.labels[slot];
        let new_slot = self.keys.len();
        self.keys.push(key);
        self.labels.push(label);
        self.alive.push(true);
        self.fenwick.push(true);
        self.buckets.entry(key).or_default().push(new_slot as u32);
        let (dpos, dneg) = if label == 1 { (1, 0) } else { (0, 1) };
        self.record_delta(key, dpos, dneg);
        self.live += 1;
        self.tally.appends += 1;
    }

    /// The label of row `row` was flipped.
    pub fn apply_flip(&mut self, row: usize) {
        let slot = self.slot_of(row);
        debug_assert!(self.alive[slot]);
        self.labels[slot] ^= 1;
        let (dpos, dneg) = if self.labels[slot] == 1 {
            (1, -1)
        } else {
            (-1, 1)
        };
        self.record_delta(self.keys[slot], dpos, dneg);
        self.tally.flips += 1;
    }

    /// The rows at the given current indices were removed (need not be
    /// sorted; duplicates are ignored, matching `Dataset::remove_rows`).
    pub fn apply_remove(&mut self, rows: &[usize]) {
        // translate every row to its slot before any alive bit moves
        let mut slots: Vec<usize> = rows.iter().map(|&r| self.slot_of(r)).collect();
        slots.sort_unstable();
        slots.dedup();
        for &slot in &slots {
            debug_assert!(self.alive[slot]);
            self.alive[slot] = false;
            self.fenwick.add(slot, -1);
            let (dpos, dneg) = if self.labels[slot] == 1 {
                (-1, 0)
            } else {
                (0, -1)
            };
            self.record_delta(self.keys[slot], dpos, dneg);
            self.live -= 1;
            self.tally.removes += 1;
        }
        // one pass over each bucket that lost slots, rather than one
        // shift of a bucket's tail per removed slot
        let mut touched: Vec<u128> = slots.iter().map(|&slot| self.keys[slot]).collect();
        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            let bucket = self.buckets.get_mut(&key).expect("bucket of a live slot");
            let alive = &self.alive;
            bucket.retain(|&slot| alive[slot as usize]);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{
        try_identify_in_index_with, try_identify_over_with, Algorithm, Enumeration, IbsParams,
    };
    use remedy_dataset::{Attribute, Schema};

    fn fixture() -> Dataset {
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
        for a in 0..2u32 {
            for b in 0..3u32 {
                for i in 0..(5 + a + 2 * b) {
                    d.push_row(&[a, b, i % 2], u8::from((a + b + i) % 2 == 0))
                        .unwrap();
                }
            }
        }
        d
    }

    /// Two hierarchies are equal as count structures.
    fn assert_hierarchy_eq(a: &Hierarchy, b: &Hierarchy) {
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.nodes().len(), b.nodes().len());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.mask, nb.mask);
            assert_eq!(na.regions.len(), nb.regions.len(), "node {:#b}", na.mask);
            for (key, c) in &na.regions {
                assert_eq!(Some(c), nb.regions.get(key), "node {:#b}", na.mask);
            }
        }
    }

    /// The dense lattice assembled from an index's maintained leaves.
    fn lattice_of(index: &RegionIndex) -> Hierarchy {
        index.counts().clone().into_hierarchy().unwrap()
    }

    #[test]
    fn packed_sidecar_matches_pack_keys_exactly() {
        // the dataset store's pack_protected must reproduce this crate's
        // packing bit-for-bit, dense layout and minimal-width layout both
        for data in [
            remedy_dataset::synth::compas_n(400, 11),
            remedy_dataset::synth::wide_n(200, 20, 5),
        ] {
            let packed = remedy_dataset::store::pack_protected(&data).expect("layout exists");
            let protected = data.schema().protected_indices();
            let codec = ShardCounts::layout(&data, &protected).unwrap();
            assert_eq!(codec.widths(), packed.widths, "width rule drifted");
            let keys = pack_keys(&data, &protected, &codec, 0);
            assert_eq!(keys, packed.keys, "packed keys drifted");
        }
    }

    #[test]
    fn build_from_packed_matches_regular_build() {
        for data in [
            remedy_dataset::synth::compas_n(600, 3),
            remedy_dataset::synth::wide_n(300, 20, 7),
        ] {
            let packed = remedy_dataset::store::pack_protected(&data).unwrap();
            let from_packed = RegionIndex::try_build_from_packed(&data, packed).unwrap();
            let regular = RegionIndex::try_build(&data).unwrap();
            assert_eq!(from_packed.keys, regular.keys);
            assert_eq!(from_packed.labels, regular.labels);
            assert_eq!(from_packed.counts(), regular.counts());
        }
    }

    #[test]
    fn build_from_packed_stays_editable() {
        let data = fixture();
        let packed = remedy_dataset::store::pack_protected(&data).unwrap();
        let mut live = RegionIndex::try_build_from_packed(&data, packed).unwrap();
        let mut edited = data.clone();
        for edit in [
            RowEdit::Duplicate { src: 3 },
            RowEdit::FlipLabel { row: 0 },
            RowEdit::Remove { rows: vec![5, 1] },
        ] {
            live.apply_edit(&edit);
            edited.apply_edit(&edit);
        }
        assert_eq!(live.counts(), &ShardCounts::scan(&edited, 0).unwrap());
    }

    #[test]
    fn build_from_packed_ignores_the_sidecar() {
        let data = fixture();
        let regular = RegionIndex::try_build(&data).unwrap();
        let good = remedy_dataset::store::pack_protected(&data).unwrap();
        let mut short = good.clone();
        short.keys.pop();
        let mut foreign_cols = good.clone();
        foreign_cols.cols = vec![0];
        let mut foreign_widths = good.clone();
        foreign_widths.widths = vec![4, 4];
        let mut wrong_keys = good.clone();
        wrong_keys.keys[0] = u128::MAX;
        for packed in [short, foreign_cols, foreign_widths, wrong_keys] {
            let built = RegionIndex::try_build_from_packed(&data, packed).unwrap();
            assert_eq!(built.keys, regular.keys);
            assert_eq!(built.counts(), regular.counts());
        }
    }

    #[test]
    fn fenwick_rank_select_roundtrip() {
        let mut f = Fenwick::ones(10);
        // kill slots 2, 5, 9 → alive: 0 1 3 4 6 7 8
        for s in [2, 5, 9] {
            f.add(s, -1);
        }
        let alive = [0usize, 1, 3, 4, 6, 7, 8];
        for (row, &slot) in alive.iter().enumerate() {
            assert_eq!(f.rank(slot), row);
            assert_eq!(f.select(row), slot);
        }
        // appended slots continue the sequence
        f.push(true);
        assert_eq!(f.select(7), 10);
        assert_eq!(f.rank(10), 7);
    }

    #[test]
    fn fenwick_push_matches_rebuild() {
        let mut grown = Fenwick::ones(3);
        for _ in 0..9 {
            grown.push(true);
        }
        let fresh = Fenwick::ones(12);
        for slot in 0..12 {
            assert_eq!(grown.prefix(slot), fresh.prefix(slot), "slot {slot}");
        }
    }

    #[test]
    fn build_matches_hierarchy_build() {
        let d = fixture();
        let index = RegionIndex::try_build(&d).unwrap();
        assert_eq!(index.counts(), &ShardCounts::scan(&d, 0).unwrap());
        assert_hierarchy_eq(&lattice_of(&index), &Hierarchy::try_build(&d).unwrap());
        assert_eq!(index.len(), d.len());
        let t = index.tally();
        assert_eq!(t.rebuild_scans, 1);
        assert_eq!(t.rebuild_rows, d.len() as u64);
    }

    /// Each region's gathered rows, sorted: the gather promises the set
    /// of current rows, not their order.
    fn gather_sorted(index: &RegionIndex, mask: u32, keys: &[u128]) -> Vec<Vec<usize>> {
        let mut out = NodeRows::default();
        index.gather_rows(mask, keys, &mut out);
        assert_eq!(out.len(), keys.len());
        let regions: Vec<Vec<usize>> = (0..out.len())
            .map(|i| {
                let mut rows = out.region(i).to_vec();
                rows.sort_unstable();
                rows
            })
            .collect();
        assert_eq!(
            regions.iter().map(Vec::len).sum::<usize>(),
            out.total_rows()
        );
        regions
    }

    /// Every region of every node, gathered one node at a time, equals
    /// pattern matching on the dataset — on a compact index, and again
    /// after removals, when every gathered slot is translated through
    /// the Fenwick rank.
    #[test]
    fn node_gather_matches_pattern_matching() {
        let mut d = fixture();
        let mut index = RegionIndex::try_build(&d).unwrap();
        for edit in [None, Some(vec![7, 2, 30]), Some(vec![0, 1])] {
            if let Some(rows) = edit {
                let edit = RowEdit::Remove { rows };
                index.apply_edit(&edit);
                d.apply_edit(&edit);
                assert!(!index.compact(), "removals must leave gaps in the slots");
            }
            let h = lattice_of(&index);
            for node in h.nodes() {
                let mut keys: Vec<u128> = node.regions.keys().copied().collect();
                keys.sort_unstable();
                // the whole node, then every other region of it
                let odd: Vec<u128> = keys.iter().copied().step_by(2).collect();
                for keys in [keys, odd] {
                    for (key, rows) in keys.iter().zip(gather_sorted(&index, node.mask, &keys)) {
                        let pattern = h.pattern_of(node.mask, *key);
                        assert_eq!(
                            rows,
                            d.indices_matching(&pattern),
                            "{}",
                            pattern.display(d.schema())
                        );
                    }
                }
            }
        }
    }

    /// Merging a region's gathered runs orders it exactly as
    /// `sort_unstable` does: on seeded runs of random lengths (empty runs
    /// and repeated values included), and on every region of every node
    /// of an index edited by seeded duplications, flips and removals.
    #[test]
    fn merged_runs_equal_sort_unstable() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut buf = Vec::new();
        for _ in 0..500 {
            let base = rng.gen_range(0..5);
            let (mut rows, mut ends) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(0..9usize) {
                let mut run: Vec<usize> = (0..rng.gen_range(0..12usize))
                    .map(|_| rng.gen_range(0..40))
                    .collect();
                run.sort_unstable();
                rows.extend(run);
                ends.push(base + rows.len());
            }
            let mut expected = rows.clone();
            expected.sort_unstable();
            merge_runs(&mut rows, base, &mut ends, &mut buf);
            assert_eq!(rows, expected);
            // the ends now describe one run: a second merge changes nothing
            merge_runs(&mut rows, base, &mut ends, &mut buf);
            assert_eq!(rows, expected);
        }

        let mut d = remedy_dataset::synth::compas_n(600, 3);
        let mut index = RegionIndex::try_build(&d).unwrap();
        let mut out = NodeRows::default();
        let mut merged = 0;
        for round in 0..4 {
            if round > 0 {
                let len = d.len();
                let edits = [
                    RowEdit::Duplicate {
                        src: rng.gen_range(0..len),
                    },
                    RowEdit::FlipLabel {
                        row: rng.gen_range(0..len),
                    },
                    RowEdit::Remove {
                        rows: (0..20).map(|_| rng.gen_range(0..len)).collect(),
                    },
                ];
                for edit in edits {
                    index.apply_edit(&edit);
                    d.apply_edit(&edit);
                }
            }
            let h = lattice_of(&index);
            for node in h.nodes() {
                let mut keys: Vec<u128> = node.regions.keys().copied().collect();
                keys.sort_unstable();
                index.gather_rows(node.mask, &keys, &mut out);
                for i in 0..out.len() {
                    let mut expected = out.region(i).to_vec();
                    expected.sort_unstable();
                    merged += usize::from(expected != out.region(i));
                    assert_eq!(out.sorted_region_mut(i, &mut buf), &expected[..]);
                }
            }
        }
        assert!(merged > 0, "no gathered region held more than one run");
    }

    /// Reusing one buffer across nodes leaves nothing of the previous
    /// node behind.
    #[test]
    fn node_gather_reuses_its_buffer() {
        let d = fixture();
        let index = RegionIndex::try_build(&d).unwrap();
        let full = full_mask_of(index.arity());
        let mut out = NodeRows::default();
        let mut all: Vec<u128> = index.counts().leaves().keys().copied().collect();
        all.sort_unstable();
        index.gather_rows(full, &all, &mut out);
        assert_eq!(out.total_rows(), d.len());
        index.gather_rows(0b01, &[1], &mut out);
        assert_eq!(out.len(), 1);
        let mut rows = out.region(0).to_vec();
        rows.sort_unstable();
        assert_eq!(
            rows,
            d.indices_matching(&remedy_dataset::Pattern::from_terms([(0usize, 1u32)]))
        );
        index.gather_rows(full, &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(out.total_rows(), 0);
    }

    /// Applies one edit to both sides and asserts the maintained index
    /// equals an independent rebuild of the edited rows: leaf counts
    /// against [`ShardCounts::scan_over`], and every node's row bucket
    /// against pattern matching on the dataset itself.
    fn apply_and_check(d: &mut Dataset, index: &mut RegionIndex, edit: RowEdit) {
        index.apply_edit(&edit);
        d.apply_edit(&edit);
        let protected = d.schema().protected_indices();
        let fresh = ShardCounts::scan_over(d, &protected, 0).unwrap();
        assert_eq!(index.counts(), &fresh, "counts after {edit:?}");
        assert_eq!(index.len(), d.len());
        let p = protected.len();
        // every node of a narrow lattice; the level-1 and level-2 nodes
        // of a wide one, whose full lattice has 2^p − 1 nodes
        let masks: Vec<u32> = (1..=full_mask_of(p))
            .filter(|m| p <= 4 || m.count_ones() <= 2)
            .collect();
        for mask in masks {
            for &key in fresh.project(mask).keys() {
                let mut pattern = remedy_dataset::Pattern::empty();
                let attrs = (0..p).filter(|j| mask >> j & 1 == 1);
                for (slot, j) in attrs.enumerate() {
                    pattern.set(protected[j], ((key >> (8 * slot)) & 0xFF) as u32);
                }
                assert_eq!(
                    gather_sorted(index, mask, &[key]).remove(0),
                    d.indices_matching(&pattern),
                    "node {mask:#b} after {edit:?}",
                );
            }
        }
    }

    #[test]
    fn edits_track_a_rebuild() {
        // p = 2 on the 8-bit layout, p = 18 on the minimal-width one
        for mut d in [fixture(), remedy_dataset::synth::wide_n(120, 18, 3)] {
            let mut index = RegionIndex::try_build(&d).unwrap();
            apply_and_check(&mut d, &mut index, RowEdit::Duplicate { src: 3 });
            apply_and_check(&mut d, &mut index, RowEdit::FlipLabel { row: 0 });
            apply_and_check(
                &mut d,
                &mut index,
                RowEdit::Remove {
                    rows: vec![7, 2, 2],
                },
            );
            // duplicate the row appended by the first edit
            let dup = RowEdit::Duplicate { src: d.len() - 1 };
            apply_and_check(&mut d, &mut index, dup);
            apply_and_check(&mut d, &mut index, RowEdit::FlipLabel { row: 5 });
            apply_and_check(&mut d, &mut index, RowEdit::Remove { rows: vec![0] });
        }
    }

    #[test]
    fn emptied_region_is_evicted() {
        let d = fixture();
        let mut index = RegionIndex::try_build(&d).unwrap();
        // remove every row of one leaf region
        let full = full_mask_of(index.arity());
        let &key = index.counts().leaves().keys().min().unwrap();
        let rows = gather_sorted(&index, full, &[key]).remove(0);
        index.apply_remove(&rows);
        assert!(!index.counts().leaves().contains_key(&key));
        assert!(gather_sorted(&index, full, &[key])[0].is_empty());
    }

    #[test]
    fn tally_flush_emits_and_resets() {
        let d = fixture();
        let mut index = RegionIndex::try_build(&d).unwrap();
        index.apply_append(0);
        index.apply_flip(1);
        index.note_node_served();
        let rec = remedy_obs::Recorder::enabled();
        index.flush_obs(&rec.scope("counting"));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("counting", "counting.delta.appends"), Some(1));
        assert_eq!(snap.counter("counting", "counting.delta.flips"), Some(1));
        assert_eq!(
            snap.counter("counting", "counting.delta.nodes_served"),
            Some(1)
        );
        assert_eq!(snap.counter("counting", "counting.rebuild.scans"), Some(1));
        assert_eq!(index.tally(), CountingTally::default());
    }

    #[test]
    fn pack_keys_is_thread_count_independent() {
        // force the parallel path by exceeding MIN_CHUNK
        let schema = Schema::new(
            vec![Attribute::from_strs("a", &["0", "1", "2", "3"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..(3 * MIN_CHUNK as u32) {
            d.push_row(&[i % 4], u8::from(i % 3 == 0)).unwrap();
        }
        let keys = pack_keys(&d, &[0], &KeyCodec::for_cards(&[4]).unwrap(), 0);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(k, u128::from(d.value(i, 0)));
        }
        let scan = leaf_scan::<Counts>(&keys, d.labels(), true, 0);
        assert_eq!(scan.totals.total(), d.len() as u64);
        for (key, bucket) in &scan.buckets {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn fenwick_select_panics_on_empty_tree() {
        Fenwick::ones(0).select(0);
    }

    #[test]
    fn fenwick_grows_from_empty() {
        let mut f = Fenwick::ones(0);
        assert_eq!(f.len(), 0);
        f.push(true);
        f.push(true);
        assert_eq!(f.select(1), 1);
        assert_eq!(f.rank(1), 1);
    }

    #[test]
    fn empty_dataset_index_answers_empty() {
        let schema = fixture().schema_arc();
        let empty = Dataset::new(schema);
        let index = RegionIndex::try_build(&empty).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        for mask in 1..=full_mask_of(index.arity()) {
            assert!(
                gather_sorted(&index, mask, &[0])[0].is_empty(),
                "mask {mask:#b}"
            );
        }
        assert_eq!(index.counts().totals(), Counts::default());
    }

    #[test]
    fn fully_drained_index_answers_empty() {
        let d = fixture();
        let mut index = RegionIndex::try_build(&d).unwrap();
        let full = full_mask_of(index.arity());
        let mut keys: Vec<u128> = index.counts().leaves().keys().copied().collect();
        keys.sort_unstable();
        index.apply_remove(&(0..d.len()).collect::<Vec<_>>());
        assert!(index.is_empty());
        for rows in gather_sorted(&index, full, &keys) {
            assert!(rows.is_empty());
        }
        assert!(index.counts().is_empty());
    }

    /// Identify through a maintained index equals identify over the
    /// edited rows under both enumerations — on the 8-bit layout, and
    /// on the minimal-width one at p = 18, where the dense enumeration
    /// refuses both ways alike.
    #[test]
    fn index_identify_tracks_both_enumerations_through_edits() {
        let edits = [
            RowEdit::Duplicate { src: 3 },
            RowEdit::FlipLabel { row: 0 },
            RowEdit::Remove { rows: vec![7, 2] },
            RowEdit::Duplicate { src: 0 },
        ];
        for (mut d, min_size) in [
            (fixture(), 4),
            (remedy_dataset::synth::wide_n(600, 18, 9), 10),
        ] {
            let mut index = RegionIndex::try_build(&d).unwrap();
            index.begin_deltas();
            for edit in &edits {
                index.apply_edit(edit);
                d.apply_edit(edit);
                index.flush_deltas();
                let protected = d.schema().protected_indices();
                for enumeration in [Enumeration::Dense, Enumeration::Pruned] {
                    let params = IbsParams {
                        tau_c: 0.05,
                        min_size,
                        enumeration,
                        ..IbsParams::default()
                    };
                    let obs = &ObsScope::disabled();
                    assert_eq!(
                        try_identify_in_index_with(&index, &params, Algorithm::Optimized, obs),
                        try_identify_over_with(&d, &protected, &params, Algorithm::Optimized, obs),
                        "{enumeration:?} at p = {} after {edit:?}",
                        protected.len()
                    );
                }
            }
        }
    }

    #[test]
    fn release_mode_guards_reject_bad_columns() {
        // 17 protected columns: the index keeps their leaves, the dense
        // lattice refuses them
        let attrs: Vec<Attribute> = (0..17)
            .map(|i| Attribute::from_strs(&format!("a{i}"), &["0", "1"]).protected())
            .collect();
        let mut d = Dataset::new(Schema::new(attrs, "y").into_shared());
        d.push_row(&[0; 17], 1).unwrap();
        let index = RegionIndex::try_build(&d).unwrap();
        for refused in [
            Hierarchy::try_build(&d).map(|_| ()),
            index.counts().clone().into_hierarchy().map(|_| ()),
        ] {
            match refused {
                Err(CoreError::TooManyProtected { got: 17, max }) => {
                    assert_eq!(max, MAX_PROTECTED);
                }
                other => panic!("expected TooManyProtected, got {other:?}"),
            }
        }

        // a 300-category protected column: every leaf layout refuses
        let wide_domain: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let domain: Vec<&str> = wide_domain.iter().map(String::as_str).collect();
        let schema =
            Schema::new(vec![Attribute::from_strs("zip", &domain).protected()], "y").into_shared();
        let mut d = Dataset::new(schema);
        d.push_row(&[299], 0).unwrap();
        for built in [
            RegionIndex::try_build(&d).map(|_| ()),
            ShardCounts::scan(&d, 0).map(|_| ()),
        ] {
            match built {
                Err(CoreError::CardinalityOverflow {
                    column,
                    cardinality: 300,
                }) => assert_eq!(column, "zip"),
                other => panic!("expected CardinalityOverflow, got {other:?}"),
            }
        }
    }

    /// Splits `d` into `n` round-robin shards.
    fn round_robin(d: &Dataset, n: usize) -> Vec<Dataset> {
        (0..n)
            .map(|s| {
                let rows: Vec<usize> = (s..d.len()).step_by(n).collect();
                d.subset(&rows)
            })
            .collect()
    }

    #[test]
    fn shard_counts_merge_matches_whole_scan() {
        let d = fixture();
        let whole = ShardCounts::scan(&d, 1).unwrap();
        for shards in 1..=4 {
            let pieces = round_robin(&d, shards);
            let mut parts = pieces.iter().map(|s| ShardCounts::scan(s, 1).unwrap());
            let mut merged = parts.next().unwrap();
            for part in parts {
                merged.merge(&part).unwrap();
            }
            assert_eq!(merged, whole, "{shards} shards");
            let sparse = merged.to_sparse(2).unwrap();
            let dense = merged.into_hierarchy().unwrap();
            assert_hierarchy_eq(&dense, &Hierarchy::try_build(&d).unwrap());
            let direct = crate::sparse::SparseHierarchy::try_build(&d, 2).unwrap();
            assert_eq!(sparse.nodes().len(), direct.nodes().len());
        }
    }

    #[test]
    fn shard_merge_rejects_foreign_layouts() {
        let d = fixture();
        let mut a = ShardCounts::scan(&d, 1).unwrap();
        let b = ShardCounts::scan_over(&d, &[0], 1).unwrap();
        assert!(matches!(a.merge(&b), Err(CoreError::MergeMismatch { .. })));
    }

    #[test]
    fn capped_scans_are_bit_identical() {
        let d = fixture();
        let reference = ShardCounts::scan(&d, 1).unwrap();
        for threads in [0usize, 2, 7] {
            assert_eq!(ShardCounts::scan(&d, threads).unwrap(), reference);
        }
    }
}
