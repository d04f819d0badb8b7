//! The shared region-counting engine.
//!
//! Every consumer of per-region class counts — hierarchy construction,
//! identification, and the remedy's per-node re-identification — used to
//! run its own O(n·p) scan over the dataset, repacking each row's
//! protected values into a `u128` key every time. This module is the one
//! counting seam (mirroring the [`NeighborModel`] seam on the neighbor
//! side): [`ShardCounts`] validates the protected layout, then packs
//! every row's key **once**, a block at a time, and tallies the *leaf*
//! counts in the same parallel pass.
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
//! append-only *slot* space (one slot per row ever seen) whose live
//! slots, in ascending order, are the current rows in order. The remedy
//! edits slots directly; a row-indexed edit finds its slot through a
//! Fenwick tree over the alive bits (`select`, O(log n)).
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
/// per-column bit offsets, position-wise: the reference the block-wise
/// packing in [`number_leaves`] and the dataset store's packed sidecar
/// are checked against.
#[cfg(test)]
fn pack_keys(data: &Dataset, cols: &[usize], codec: &KeyCodec) -> Vec<u128> {
    debug_assert_eq!(cols.len(), codec.arity());
    let mut out = vec![0u128; data.len()];
    let col_slices: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    pack_rows(&col_slices, codec.offsets(), 0, &mut out);
    out
}

/// Every leaf of a dataset over some columns, with its tally.
struct Leaves<T> {
    /// Per leaf, in order of first appearance: its key and its tally.
    keys: Vec<u128>,
    tallies: Vec<T>,
    /// Per row, its leaf.
    leaf_of: Vec<u32>,
}

/// Numbers the leaves of `data` over the columns `cols` and tallies each
/// row's class byte (`classes[i]` for row `i`) into its leaf, under a
/// worker-thread cap (`0` = all cores) — the one scan every leaf count
/// and every [`RegionIndex`] is built by. Each worker packs its chunk's
/// keys a block at a time (so no key column is ever held) and numbers
/// the rows with one hash lookup a row, writing the numbers in place;
/// the chunks' numberings are merged in chunk order, so the result is
/// the same under any cap.
fn number_leaves<T: Tally>(
    data: &Dataset,
    cols: &[usize],
    codec: &KeyCodec,
    classes: &[u8],
    threads: usize,
) -> Leaves<T> {
    debug_assert_eq!(cols.len(), codec.arity());
    debug_assert_eq!(classes.len(), data.len());
    let col_slices: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    let mut leaf_of = vec![0u32; data.len()];
    let bounds = chunk_bounds_capped(data.len(), threads);
    let number = |start: usize, chunk: &mut [u32]| {
        number_chunk(
            &col_slices,
            codec.offsets(),
            &classes[start..],
            start,
            chunk,
        )
    };
    let mut parts: Vec<(Vec<u128>, Vec<T>)> = if bounds.len() <= 1 {
        vec![number(0, &mut leaf_of)]
    } else {
        std::thread::scope(|scope| {
            let mut rest = &mut leaf_of[..];
            let mut handles = Vec::with_capacity(bounds.len());
            for &(a, b) in &bounds {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(b - a);
                rest = tail;
                handles.push(scope.spawn(move || number(a, chunk)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("leaf-numbering worker"))
                .collect()
        })
    };
    let (mut keys, mut tallies) = parts.remove(0);
    let mut ids: FastMap<u128, u32> = keys.iter().zip(0..).map(|(&k, id)| (k, id)).collect();
    for ((part_keys, part_tallies), &(a, b)) in parts.into_iter().zip(bounds.iter().skip(1)) {
        // the chunk's leaf numbers, renumbered into the merged ones
        let renumber: Vec<u32> = part_keys
            .into_iter()
            .zip(part_tallies)
            .map(|(key, t)| {
                let id = *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    tallies.push(T::default());
                    (keys.len() - 1) as u32
                });
                tallies[id as usize].add(t);
                id
            })
            .collect();
        for id in &mut leaf_of[a..b] {
            *id = renumber[*id as usize];
        }
    }
    Leaves {
        keys,
        tallies,
        leaf_of,
    }
}

/// Numbers the leaves of the rows from `start` on, one per entry of
/// `leaf_of`, in order of first appearance: packs their keys over `cols`
/// at the codec's `offsets` a block at a time and writes each row's
/// number into `leaf_of`. `classes` starts at row `start`. Returns the
/// chunk's leaf keys and tallies by number.
fn number_chunk<T: Tally>(
    cols: &[&[u32]],
    offsets: &[u32],
    classes: &[u8],
    start: usize,
    leaf_of: &mut [u32],
) -> (Vec<u128>, Vec<T>) {
    const BLOCK: usize = 1024;
    let mut block = [0u128; BLOCK];
    let mut ids: FastMap<u128, u32> = FastMap::default();
    let (mut keys, mut tallies) = (Vec::new(), Vec::<T>::new());
    for (b, ids_out) in leaf_of.chunks_mut(BLOCK).enumerate() {
        let block_keys = &mut block[..ids_out.len()];
        pack_rows(cols, offsets, start + b * BLOCK, block_keys);
        let classes = &classes[b * BLOCK..];
        for ((&key, &class), id) in block_keys.iter().zip(classes).zip(ids_out) {
            *id = *ids.entry(key).or_insert_with(|| {
                keys.push(key);
                tallies.push(T::default());
                (keys.len() - 1) as u32
            });
            tallies[*id as usize].add_class(class);
        }
    }
    (keys, tallies)
}

/// Each leaf's rows split by class, `[negatives, positives]`, ascending:
/// one pass in row order files every row into lists sized exactly from
/// the leaf counts, so none reallocates.
fn class_lists(leaves: &Leaves<Counts>, labels: &[u8]) -> Vec<[Vec<u32>; 2]> {
    let mut rows: Vec<[Vec<u32>; 2]> = leaves
        .tallies
        .iter()
        .map(|c| {
            [
                Vec::with_capacity(c.neg as usize),
                Vec::with_capacity(c.pos as usize),
            ]
        })
        .collect();
    for (row, (&id, &label)) in leaves.leaf_of.iter().zip(labels).enumerate() {
        rows[id as usize][class_of(label)].push(row as u32);
    }
    rows
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
        let leaves = number_leaves(data, columns, &codec, classes, threads);
        Ok(ShardCounts::assemble(data, columns, codec, &leaves))
    }

    /// The counts of numbered leaves. The leaf map is filled in leaf
    /// order, the order a one-thread row scan first meets the keys in.
    fn assemble(
        data: &Dataset,
        protected: &[usize],
        codec: KeyCodec,
        leaves: &Leaves<C>,
    ) -> ShardCounts<C> {
        let mut totals = C::default();
        let mut map = FastMap::default();
        for (&key, &t) in leaves.keys.iter().zip(&leaves.tallies) {
            map.insert(key, t);
            totals.add(t);
        }
        ShardCounts {
            protected: protected.to_vec(),
            cards: cards_of(data, protected),
            ordered: protected
                .iter()
                .map(|&a| data.schema().attribute(a).is_ordered())
                .collect(),
            codec,
            leaves: map,
            totals,
        }
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

/// Fenwick tree over per-slot alive bits: `prefix` counts the alive
/// slots up to a slot, `select` finds the slot of a current row index,
/// and `push` appends a new slot — all in O(log n). Only row-indexed
/// edits translate through it; the remedy works in slot space and never
/// does.
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based; `tree[i]` sums the alive bits of slots `(i−lowbit(i), i]`.
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over the given alive bits, in O(n).
    fn from_alive(alive: &[bool]) -> Fenwick {
        let n = alive.len();
        let mut tree = vec![0u32; n + 1];
        for i in 1..=n {
            tree[i] += u32::from(alive[i - 1]);
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Number of alive slots in `[0, slot]` (0-based).
    #[cfg(test)]
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

    /// Slot of the row currently at index `row` (binary descent).
    ///
    /// # Panics
    ///
    /// On an empty tree — there is no slot to select, and the
    /// power-of-two descent seed below would shift by `usize::BITS`.
    /// (Unreachable through [`RegionIndex`]: an index with zero slots
    /// has no rows to translate.)
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
    /// Slots appended ([`RegionIndex::duplicate_slot`], or a row
    /// duplicated through [`RegionIndex::apply_edit`]).
    pub appends: u64,
    /// Slots removed.
    pub removes: u64,
    /// Labels flipped.
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

/// The class list a label belongs to: `1` for a positive, `0` for
/// anything else, as [`Counts`] tallies it.
fn class_of(label: u8) -> usize {
    usize::from(label == 1)
}

/// One lattice node as [`RegionIndex::node_counts`] and
/// [`RegionIndex::gather`] see it: which region each leaf falls in, and
/// the live slots of some of those regions, split by class. The buffers
/// are reused from node to node, so a node allocates nothing once they
/// have grown.
///
/// A region's class list is the same class's lists of the leaves it
/// covers, one after another, and each leaf keeps its lists ascending.
/// The gather records where each of those ascending runs ends, so
/// [`NodeSlots::sorted_class_mut`] orders a list by merging its runs.
#[derive(Debug, Clone, Default)]
pub struct NodeSlots {
    /// The node's region keys, each with its region number.
    ids: FastMap<u128, u32>,
    /// Per leaf, its region number, or `u32::MAX` for an empty leaf.
    leaf_region: Vec<u32>,
    /// Per region number, the gathered region it is, or `u32::MAX`.
    gathered: Vec<u32>,
    slots: Vec<u32>,
    /// List `2i + c` (region `i`, class `c`) is
    /// `slots[offsets[2i + c]..offsets[2i + c + 1]]`.
    offsets: Vec<usize>,
    /// List `j`'s ascending runs end at the positions in `slots` listed
    /// in `run_ends[run_offsets[j]..run_offsets[j + 1]]`, ascending.
    run_ends: Vec<usize>,
    run_offsets: Vec<usize>,
    /// `(leaf, gathered region)` of every leaf that feeds a gathered
    /// list.
    hits: Vec<(u32, u32)>,
}

impl NodeSlots {
    /// Number of regions gathered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1) / 2
    }

    /// Whether no region was gathered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots gathered over all regions and classes.
    pub fn total_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slots of region `i` whose label is of class `class` (`1`
    /// positive, `0` negative); empty unless the gather asked for it.
    pub fn class(&self, i: usize, class: usize) -> &[u32] {
        let j = 2 * i + class;
        &self.slots[self.offsets[j]..self.offsets[j + 1]]
    }

    /// [`class`](NodeSlots::class), to reorder in place.
    pub fn class_mut(&mut self, i: usize, class: usize) -> &mut [u32] {
        let j = 2 * i + class;
        &mut self.slots[self.offsets[j]..self.offsets[j + 1]]
    }

    /// [`class`](NodeSlots::class) in ascending order — the order of the
    /// rows the slots stand for — to reorder in place, through `buf`, a
    /// buffer the caller reuses. A list of m slots in k runs is put in
    /// order by merging its runs pairwise, O(m log k); sorting would be
    /// O(m log m).
    pub fn sorted_class_mut(&mut self, i: usize, class: usize, buf: &mut Vec<u32>) -> &mut [u32] {
        let j = 2 * i + class;
        let (start, end) = (self.offsets[j], self.offsets[j + 1]);
        let ends = &mut self.run_ends[self.run_offsets[j]..self.run_offsets[j + 1]];
        let list = &mut self.slots[start..end];
        merge_runs(list, start, ends, buf);
        list
    }
}

/// Turns per-list sizes into per-list starts in place; returns the
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
fn merge_runs(rows: &mut [u32], base: usize, ends: &mut [usize], buf: &mut Vec<u32>) {
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
fn merge_into(a: &[u32], b: &[u32], out: &mut [u32]) {
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

/// Merges ascending `extra` into ascending `list` in place, from the
/// back.
fn merge_in(list: &mut Vec<u32>, extra: &[u32]) {
    let (mut a, mut b) = (list.len(), extra.len());
    list.resize(a + b, 0);
    while b > 0 {
        if a > 0 && list[a - 1] > extra[b - 1] {
            list[a + b - 1] = list[a - 1];
            a -= 1;
        } else {
            list[a + b - 1] = extra[b - 1];
            b -= 1;
        }
    }
}

/// One leaf of a [`RegionIndex`]: its key, its live slots split by
/// class, and its edits since the last flush.
#[derive(Debug, Clone, Default)]
struct Leaf {
    key: u128,
    /// Ascending slots by class, `[negatives, positives]`. Until the
    /// leaf is settled a list may still hold slots that died or changed
    /// class.
    slots: [Vec<u32>; 2],
    /// Net `(Δpos, Δneg)` not yet in the leaf counts.
    delta: (i64, i64),
    /// Listed in [`RegionIndex::dirty`].
    dirty: bool,
    /// Per class, whether a slot of the list died or changed class since
    /// the leaf was last settled; listed in [`RegionIndex::unsettled`]
    /// while either is set.
    stale: [bool; 2],
}

impl Leaf {
    /// Puts stale lists right: drops dead slots and moves each slot whose
    /// label changed class to its class's list, keeping both ascending.
    /// `moved` is a buffer the caller reuses.
    fn settle(&mut self, labels: &[u8], alive: &[bool], moved: &mut [Vec<u32>; 2]) {
        let stale = std::mem::take(&mut self.stale);
        for (class, list) in self.slots.iter_mut().enumerate() {
            if !stale[class] {
                continue;
            }
            // branch-free: every slot is written to both outputs, and
            // each output advances only past the slots it keeps
            let out = &mut moved[1 - class];
            let (mut kept, mut left) = (0, out.len());
            out.resize(left + list.len(), 0);
            for i in 0..list.len() {
                let slot = list[i];
                let live = alive[slot as usize];
                let same = class_of(labels[slot as usize]) == class;
                list[kept] = slot;
                out[left] = slot;
                kept += usize::from(live & same);
                left += usize::from(live & !same);
            }
            list.truncate(kept);
            out.truncate(left);
        }
        for (list, extra) in self.slots.iter_mut().zip(moved.iter_mut()) {
            merge_in(list, extra);
            extra.clear();
        }
    }
}

/// Delta-maintained leaf counts and leaf slot lists over a mutating
/// dataset.
///
/// Built once in a parallel pass, the index keeps the [`ShardCounts`]
/// of the *current* rows — O(1) per row edit and O(distinct leaves)
/// memory, at any arity up to [`MAX_PROTECTED_SPARSE`]. Every lattice is
/// assembled from them on demand ([`counts`]): a dense identify projects
/// a copy of the leaves through [`Hierarchy`], a pruned one enumerates
/// from them directly.
///
/// Rows live in an append-only *slot* space: one slot per row ever
/// seen, never reused. The dataset only ever appends at the end and
/// removes rows preserving relative order, so the live slots in
/// ascending order are exactly the current rows in order. Each leaf
/// keeps its live slots in two ascending lists, one per class, and
/// [`gather`] answers a node's regions from them without touching the
/// dataset. The slot edits ([`duplicate_slot`], [`flip_slot`],
/// [`remove_slot`]) are O(1): a flip or removal only marks its leaf's
/// list stale, and the stale lists are put right when [`node_counts`]
/// next reads them, so a session that only edits and identifies never
/// pays for them. Row-indexed edits ([`apply_edit`])
/// translate each row to its slot through a Fenwick tree over the alive
/// bits, built the first time a row is translated after a removal, and
/// then make the same slot edits.
///
/// The index does not hold the dataset; callers mirror every mutation
/// in the same order they apply it to the [`Dataset`].
///
/// [`counts`]: RegionIndex::counts
/// [`gather`]: RegionIndex::gather
/// [`node_counts`]: RegionIndex::node_counts
/// [`duplicate_slot`]: RegionIndex::duplicate_slot
/// [`flip_slot`]: RegionIndex::flip_slot
/// [`remove_slot`]: RegionIndex::remove_slot
/// [`apply_edit`]: RegionIndex::apply_edit
#[derive(Debug, Clone)]
pub struct RegionIndex {
    /// Leaf counts of the current rows; `(0, 0)` entries evicted.
    counts: ShardCounts,
    /// Every leaf seen at build; a leaf emptied by removals stays, with
    /// empty lists.
    leaves: Vec<Leaf>,
    /// Per-slot leaf (an index into `leaves`).
    leaf_of: Vec<u32>,
    /// Per-slot labels, kept current under flips.
    labels: Vec<u8>,
    /// Per-slot alive bits; removals clear, never shrink.
    alive: Vec<bool>,
    /// Leaves with count edits since the last flush, in first-edit order.
    dirty: Vec<u32>,
    /// Leaves with a stale slot list, in first-stale order.
    unsettled: Vec<u32>,
    /// Alive-bit Fenwick tree for row translation; `None` until a row is
    /// translated while some slot is dead.
    fenwick: Option<Fenwick>,
    live: usize,
    tally: CountingTally,
    batching: bool,
}

impl RegionIndex {
    /// Builds an index over the schema-declared protected columns.
    pub fn try_build(data: &Dataset) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        RegionIndex::try_build_over(data, &protected)
    }

    /// Builds an index over an explicit protected-column set (up to
    /// [`MAX_PROTECTED_SPARSE`] columns): one parallel pass that packs
    /// the keys, numbers the leaves and counts their labels, then one
    /// pass that files each row into its leaf's ascending per-class slot
    /// list.
    pub fn try_build_over(data: &Dataset, protected: &[usize]) -> Result<RegionIndex, CoreError> {
        let codec = ShardCounts::layout(data, protected)?;
        let labels = data.labels();
        let n = labels.len();
        let numbered = number_leaves(data, protected, &codec, labels, 0);
        let lists = class_lists(&numbered, labels);
        let counts = ShardCounts::assemble(data, protected, codec, &numbered);
        let leaves = numbered
            .keys
            .into_iter()
            .zip(lists)
            .map(|(key, slots)| Leaf {
                key,
                slots,
                ..Leaf::default()
            })
            .collect();
        Ok(RegionIndex {
            counts,
            leaves,
            leaf_of: numbered.leaf_of,
            labels: labels.to_vec(),
            alive: vec![true; n],
            dirty: Vec::new(),
            unsettled: Vec::new(),
            fenwick: None,
            live: n,
            tally: CountingTally {
                rebuild_scans: 1,
                rebuild_rows: n as u64,
                ..CountingTally::default()
            },
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
            self.dirty.is_empty(),
            "flush_deltas() before reading batched counts"
        );
        &self.counts
    }

    /// Switches the index into batched mode: subsequent edits accumulate
    /// a net `(Δpos, Δneg)` per leaf, and [`flush_deltas`] applies the
    /// sums grouped — one leaf update per distinct edited leaf for an
    /// arbitrarily long edit run. Labels, alive bits and appended slots
    /// stay eagerly maintained; only the leaf counts (and totals) wait
    /// for the flush.
    ///
    /// [`flush_deltas`]: RegionIndex::flush_deltas
    pub fn begin_deltas(&mut self) {
        self.batching = true;
    }

    /// Applies every pending per-leaf delta to the leaf counts. Leaves
    /// whose edits cancelled out get no count update; the final counts
    /// are identical to eager per-edit maintenance (count updates
    /// commute, and `(0, 0)` entries are evicted on every path).
    pub fn flush_deltas(&mut self) {
        for id in self.dirty.drain(..) {
            let leaf = &mut self.leaves[id as usize];
            leaf.dirty = false;
            let (key, (dpos, dneg)) = (leaf.key, std::mem::take(&mut leaf.delta));
            if dpos != 0 || dneg != 0 {
                self.counts.add_delta(key, dpos, dneg);
                self.tally.node_updates += 1;
            }
        }
    }

    /// Puts every stale slot list right (see [`Leaf::settle`]).
    fn settle_lists(&mut self) {
        let mut moved = [Vec::new(), Vec::new()];
        for id in self.unsettled.drain(..) {
            self.leaves[id as usize].settle(&self.labels, &self.alive, &mut moved);
        }
    }

    /// Adds one slot edit's count delta to its leaf, marking the list of
    /// class `stale` (if any) as holding a slot that died or left it; in
    /// eager mode the edit is flushed at once.
    fn record(&mut self, slot: usize, delta: (i64, i64), stale: Option<usize>) {
        let id = self.leaf_of[slot];
        let leaf = &mut self.leaves[id as usize];
        leaf.delta.0 += delta.0;
        leaf.delta.1 += delta.1;
        if let Some(class) = stale {
            if leaf.stale == [false; 2] {
                self.unsettled.push(id);
            }
            leaf.stale[class] = true;
        }
        if !leaf.dirty {
            leaf.dirty = true;
            self.dirty.push(id);
        }
        if !self.batching {
            self.flush_deltas();
        }
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

    /// The complete region map of node `mask` over the current rows,
    /// projected from the leaves — O(distinct leaves), after settling the
    /// lists edited since the last read — noting in `node` which region
    /// each leaf falls in for a [`gather`] that follows. Canonical 8-bit
    /// region keys, so `mask` must span at most [`MAX_PROTECTED`]
    /// attributes. Pending edits must be flushed first.
    ///
    /// [`gather`]: RegionIndex::gather
    pub fn node_counts(&mut self, mask: u32, node: &mut NodeSlots) -> FastMap<u128, Counts> {
        debug_assert!(self.dirty.is_empty(), "flush_deltas() before counting");
        self.settle_lists();
        // a region key spans at most MAX_PROTECTED 8-bit codes
        assert!(
            mask.count_ones() as usize <= MAX_PROTECTED,
            "{}",
            CoreError::NodeTooDeep {
                level: mask.count_ones() as usize
            }
        );
        node.ids.clear();
        node.leaf_region.clear();
        let mut counts: Vec<Counts> = Vec::new();
        for leaf in &self.leaves {
            let [neg, pos] = [leaf.slots[0].len() as u64, leaf.slots[1].len() as u64];
            if neg + pos == 0 {
                node.leaf_region.push(u32::MAX);
                continue;
            }
            let key = self.counts.codec.project(leaf.key, mask);
            let next = node.ids.len() as u32;
            let region = *node.ids.entry(key).or_insert(next);
            if region == next {
                counts.push(Counts::default());
            }
            counts[region as usize].add(Counts { pos, neg });
            node.leaf_region.push(region);
        }
        node.ids
            .iter()
            .map(|(&key, &region)| (key, counts[region as usize]))
            .collect()
    }

    /// Gathers the live slots of some regions of the node last counted
    /// into `out` by [`node_counts`]: for `regions[i] = (key, classes)`,
    /// the slots of class `c` in [`NodeSlots::class`]`(i, c)` when
    /// `classes[c]` is set (`1` positive, `0` negative). Keys must be
    /// distinct; a key the node does not have gathers nothing. No edit may
    /// come between the count and the gather but appends.
    ///
    /// One pass over the leaves' noted regions serves every region of the
    /// node: a leaf's lists land in its region. Cost is O(L + B + m) for L
    /// leaves, B regions and m gathered slots — paid once per node that
    /// has biased regions. A list comes back as one ascending run per
    /// leaf, in no order across runs; callers that need row order take
    /// [`NodeSlots::sorted_class_mut`], which merges the runs.
    ///
    /// [`node_counts`]: RegionIndex::node_counts
    pub fn gather(&self, regions: &[(u128, [bool; 2])], out: &mut NodeSlots) {
        debug_assert!(self.dirty.is_empty(), "flush_deltas() before gathering");
        debug_assert!(self.unsettled.is_empty(), "node_counts() before gathering");
        debug_assert_eq!(
            out.leaf_region.len(),
            self.leaves.len(),
            "node_counts() first"
        );
        let lists = 2 * regions.len();
        out.slots.clear();
        out.offsets.clear();
        out.offsets.resize(lists + 1, 0);
        out.run_ends.clear();
        out.run_offsets.clear();
        out.run_offsets.resize(lists + 1, 0);
        out.hits.clear();
        if regions.is_empty() {
            return;
        }
        out.gathered.clear();
        out.gathered.resize(out.ids.len(), u32::MAX);
        for (i, (key, _)) in regions.iter().enumerate() {
            if let Some(&region) = out.ids.get(key) {
                out.gathered[region as usize] = i as u32;
            }
        }
        // sizes (and run counts) into offsets[j + 1] (and
        // run_offsets[j + 1]), then each turned into list j's start;
        // writing advances it to list j's end, which is list j + 1's
        // start
        for (id, &region) in out.leaf_region.iter().enumerate() {
            let Some(&i) = out.gathered.get(region as usize) else {
                continue; // an empty leaf
            };
            if i == u32::MAX {
                continue;
            }
            let mut hit = false;
            for (class, list) in self.leaves[id].slots.iter().enumerate() {
                if regions[i as usize].1[class] && !list.is_empty() {
                    out.offsets[2 * i as usize + class + 1] += list.len();
                    out.run_offsets[2 * i as usize + class + 1] += 1;
                    hit = true;
                }
            }
            if hit {
                out.hits.push((id as u32, i));
            }
        }
        let slots = sizes_to_starts(&mut out.offsets[1..]);
        let runs = sizes_to_starts(&mut out.run_offsets[1..]);
        out.slots.resize(slots, 0);
        out.run_ends.resize(runs, 0);
        for &(id, i) in &out.hits {
            let (leaf, i) = (&self.leaves[id as usize], i as usize);
            for (class, list) in leaf.slots.iter().enumerate() {
                if regions[i].1[class] && !list.is_empty() {
                    let j = 2 * i + class;
                    let at = out.offsets[j + 1];
                    out.slots[at..at + list.len()].copy_from_slice(list);
                    out.offsets[j + 1] += list.len();
                    out.run_ends[out.run_offsets[j + 1]] = out.offsets[j + 1];
                    out.run_offsets[j + 1] += 1;
                }
            }
        }
    }

    /// The live slots in ascending order — the current rows, in order —
    /// each with its current label.
    pub fn live_slots(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.alive
            .iter()
            .zip(&self.labels)
            .enumerate()
            .filter(|(_, (&alive, _))| alive)
            .map(|(slot, (_, &label))| (slot, label))
    }

    /// Appends a copy of live slot `src` as a new slot — the row
    /// duplicated to the end of the dataset — and returns it.
    pub fn duplicate_slot(&mut self, src: usize) -> usize {
        debug_assert!(self.alive[src]);
        let (id, label) = (self.leaf_of[src], self.labels[src]);
        let slot = self.leaf_of.len();
        self.leaf_of.push(id);
        self.labels.push(label);
        self.alive.push(true);
        if let Some(fenwick) = &mut self.fenwick {
            fenwick.push(true);
        }
        // the new slot is the largest, so the list stays ascending
        let slot32 = u32::try_from(slot).expect("slot numbers fit u32");
        self.leaves[id as usize].slots[class_of(label)].push(slot32);
        self.live += 1;
        self.tally.appends += 1;
        self.record(slot, if label == 1 { (1, 0) } else { (0, 1) }, None);
        slot
    }

    /// Flips the label of live slot `slot`.
    pub fn flip_slot(&mut self, slot: usize) {
        debug_assert!(self.alive[slot]);
        let old = class_of(self.labels[slot]);
        self.labels[slot] ^= 1;
        self.tally.flips += 1;
        let delta = if old == 0 { (1, -1) } else { (-1, 1) };
        self.record(slot, delta, Some(old));
    }

    /// Removes live slot `slot`.
    pub fn remove_slot(&mut self, slot: usize) {
        debug_assert!(self.alive[slot]);
        self.alive[slot] = false;
        if let Some(fenwick) = &mut self.fenwick {
            fenwick.add(slot, -1);
        }
        self.live -= 1;
        self.tally.removes += 1;
        let class = class_of(self.labels[slot]);
        let delta = if class == 1 { (-1, 0) } else { (0, -1) };
        self.record(slot, delta, Some(class));
    }

    /// Whether no slot has ever died — then slot and row index coincide
    /// and row translation is the identity. Stays true under any run of
    /// appends and flips.
    fn compact(&self) -> bool {
        self.live == self.leaf_of.len()
    }

    /// Slot of the row currently at `row`.
    fn slot_of(&mut self, row: usize) -> usize {
        if self.compact() {
            return row;
        }
        let alive = &self.alive;
        self.fenwick
            .get_or_insert_with(|| Fenwick::from_alive(alive))
            .select(row)
    }

    /// Mirrors one row-indexed dataset edit into the index.
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
        self.duplicate_slot(slot);
    }

    /// The label of row `row` was flipped.
    pub fn apply_flip(&mut self, row: usize) {
        let slot = self.slot_of(row);
        self.flip_slot(slot);
    }

    /// The rows at the given current indices were removed (need not be
    /// sorted; duplicates are ignored, matching `Dataset::remove_rows`).
    pub fn apply_remove(&mut self, rows: &[usize]) {
        // translate every row to its slot before any alive bit moves
        let mut slots: Vec<usize> = rows.iter().map(|&row| self.slot_of(row)).collect();
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            self.remove_slot(slot);
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

    /// Each slot's packed leaf key.
    fn slot_keys(index: &RegionIndex) -> Vec<u128> {
        let leaves = &index.leaves;
        index
            .leaf_of
            .iter()
            .map(|&id| leaves[id as usize].key)
            .collect()
    }

    /// The current row index of live slot `slot`, counted from the alive
    /// bits directly rather than through the Fenwick tree.
    fn row_of(index: &RegionIndex, slot: usize) -> usize {
        assert!(index.alive[slot], "slot {slot} is dead");
        index.alive[..slot].iter().filter(|&&alive| alive).count()
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
            let keys = pack_keys(&data, &protected, &codec);
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
            assert_eq!(slot_keys(&from_packed), slot_keys(&regular));
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
            assert_eq!(slot_keys(&built), slot_keys(&regular));
            assert_eq!(built.counts(), regular.counts());
        }
    }

    #[test]
    fn fenwick_rank_select_roundtrip() {
        let mut f = Fenwick::from_alive(&[true; 10]);
        // kill slots 2, 5, 9 → alive: 0 1 3 4 6 7 8
        for s in [2, 5, 9] {
            f.add(s, -1);
        }
        let alive = [0usize, 1, 3, 4, 6, 7, 8];
        for (row, &slot) in alive.iter().enumerate() {
            assert_eq!(f.prefix(slot) as usize, row + 1);
            assert_eq!(f.select(row), slot);
        }
        // appended slots continue the sequence
        f.push(true);
        assert_eq!(f.select(7), 10);
        assert_eq!(f.prefix(10), 8);
        // a tree built from the same alive bits answers the same
        let bits: Vec<bool> = (0..11).map(|s| ![2, 5, 9].contains(&s)).collect();
        let built = Fenwick::from_alive(&bits);
        for slot in 0..11 {
            assert_eq!(built.prefix(slot), f.prefix(slot), "slot {slot}");
        }
    }

    #[test]
    fn fenwick_push_matches_rebuild() {
        let mut grown = Fenwick::from_alive(&[true; 3]);
        for _ in 0..9 {
            grown.push(true);
        }
        let fresh = Fenwick::from_alive(&[true; 12]);
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

    /// Each region's current rows, sorted, from a gather of both classes:
    /// every gathered slot is live and of the class it was gathered as.
    fn gather_sorted(index: &mut RegionIndex, mask: u32, keys: &[u128]) -> Vec<Vec<usize>> {
        let mut out = NodeSlots::default();
        let regions: Vec<(u128, [bool; 2])> = keys.iter().map(|&k| (k, [true; 2])).collect();
        index.node_counts(mask, &mut out);
        index.gather(&regions, &mut out);
        assert_eq!(out.len(), keys.len());
        let regions: Vec<Vec<usize>> = (0..out.len())
            .map(|i| {
                let mut rows = Vec::new();
                for class in 0..2 {
                    for &slot in out.class(i, class) {
                        assert_eq!(class_of(index.labels[slot as usize]), class);
                        rows.push(row_of(index, slot as usize));
                    }
                }
                rows.sort_unstable();
                rows
            })
            .collect();
        assert_eq!(
            regions.iter().map(Vec::len).sum::<usize>(),
            out.total_slots()
        );
        regions
    }

    /// Every region of every node, gathered one node at a time, equals
    /// pattern matching on the dataset — on a compact index, and again
    /// after removals, when slots and rows no longer coincide.
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
                    for (key, rows) in keys.iter().zip(gather_sorted(&mut index, node.mask, &keys))
                    {
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
                let mut run: Vec<u32> = (0..rng.gen_range(0..12usize))
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
        let mut out = NodeSlots::default();
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
                let regions: Vec<(u128, [bool; 2])> =
                    keys.iter().map(|&k| (k, [true; 2])).collect();
                index.node_counts(node.mask, &mut out);
                index.gather(&regions, &mut out);
                for i in 0..out.len() {
                    for class in 0..2 {
                        let mut expected = out.class(i, class).to_vec();
                        expected.sort_unstable();
                        merged += usize::from(expected != out.class(i, class));
                        assert_eq!(out.sorted_class_mut(i, class, &mut buf), &expected[..]);
                    }
                }
            }
        }
        assert!(merged > 0, "no gathered region held more than one run");
    }

    /// Reusing one buffer across nodes leaves nothing of the previous
    /// node behind, and a gather writes only the classes it is asked
    /// for.
    #[test]
    fn node_gather_reuses_its_buffer() {
        let d = fixture();
        let mut index = RegionIndex::try_build(&d).unwrap();
        let full = full_mask_of(index.arity());
        let mut out = NodeSlots::default();
        let mut all: Vec<(u128, [bool; 2])> = index
            .counts()
            .leaves()
            .keys()
            .map(|&k| (k, [true; 2]))
            .collect();
        all.sort_unstable_by_key(|r| r.0);
        index.node_counts(full, &mut out);
        index.gather(&all, &mut out);
        assert_eq!(out.total_slots(), d.len());
        let pattern = remedy_dataset::Pattern::from_terms([(0usize, 1u32)]);
        index.node_counts(0b01, &mut out);
        for class in 0..2 {
            let mut reads = [false; 2];
            reads[class] = true;
            index.gather(&[(1, reads)], &mut out);
            assert_eq!(out.len(), 1);
            assert!(out.class(0, 1 - class).is_empty());
            let mut rows: Vec<usize> = out.class(0, class).iter().map(|&s| s as usize).collect();
            rows.sort_unstable();
            let expected: Vec<usize> = d
                .indices_matching(&pattern)
                .into_iter()
                .filter(|&row| class_of(d.label(row)) == class)
                .collect();
            assert_eq!(rows, expected);
            assert_eq!(out.total_slots(), expected.len());
        }
        index.gather(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(out.total_slots(), 0);
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
        let h = (p <= MAX_PROTECTED).then(|| lattice_of(index));
        let mut node = NodeSlots::default();
        for mask in masks {
            // the node's counts, projected from the leaves' slot lists,
            // equal the lattice assembled from the maintained counts
            let counts = index.node_counts(mask, &mut node);
            if let Some(h) = &h {
                let expected = &h.nodes().iter().find(|n| n.mask == mask).unwrap().regions;
                assert_eq!(
                    counts.len(),
                    expected.len(),
                    "node {mask:#b} after {edit:?}"
                );
                for (key, c) in &counts {
                    assert_eq!(expected.get(key), Some(c), "node {mask:#b} after {edit:?}");
                }
            }
            for &key in counts.keys() {
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
        let rows = gather_sorted(&mut index, full, &[key]).remove(0);
        index.apply_remove(&rows);
        assert!(!index.counts().leaves().contains_key(&key));
        assert!(gather_sorted(&mut index, full, &[key])[0].is_empty());
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
        let codec = KeyCodec::for_cards(&[4]).unwrap();
        let keys = pack_keys(&d, &[0], &codec);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(k, u128::from(d.value(i, 0)));
        }
        let leaves = number_leaves::<Counts>(&d, &[0], &codec, d.labels(), 0);
        let serial = number_leaves::<Counts>(&d, &[0], &codec, d.labels(), 1);
        // the same numbering under any cap, each row numbered by its key
        assert_eq!(leaves.keys, serial.keys);
        assert_eq!(leaves.tallies, serial.tallies);
        assert_eq!(leaves.leaf_of, serial.leaf_of);
        assert_eq!(leaves.leaf_of.len(), d.len());
        let total: u64 = leaves.tallies.iter().map(|c| c.total()).sum();
        assert_eq!(total, d.len() as u64);
        let lists = class_lists(&leaves, d.labels());
        for (id, (key, rows)) in leaves.keys.iter().zip(&lists).enumerate() {
            let sizes = [rows[0].len() as u64, rows[1].len() as u64];
            assert_eq!(sizes, [leaves.tallies[id].neg, leaves.tallies[id].pos]);
            for (class, rows) in rows.iter().enumerate() {
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "key {key}");
                for &row in rows {
                    assert_eq!(class_of(d.label(row as usize)), class);
                    assert_eq!(keys[row as usize], *key);
                    assert_eq!(leaves.leaf_of[row as usize] as usize, id);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn fenwick_select_panics_on_empty_tree() {
        Fenwick::from_alive(&[]).select(0);
    }

    #[test]
    fn fenwick_grows_from_empty() {
        let mut f = Fenwick::from_alive(&[]);
        assert_eq!(f.len(), 0);
        f.push(true);
        f.push(true);
        assert_eq!(f.select(1), 1);
        assert_eq!(f.prefix(1), 2);
    }

    #[test]
    fn empty_dataset_index_answers_empty() {
        let schema = fixture().schema_arc();
        let empty = Dataset::new(schema);
        let mut index = RegionIndex::try_build(&empty).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        for mask in 1..=full_mask_of(index.arity()) {
            assert!(
                gather_sorted(&mut index, mask, &[0])[0].is_empty(),
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
        for rows in gather_sorted(&mut index, full, &keys) {
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
