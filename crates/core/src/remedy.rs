//! Dataset remedy (§IV, Algorithm 2).
//!
//! For every biased region the remedy moves the imbalance score to the
//! neighboring region's (`ratio_rn`) by updating `p_r` positive and `n_r`
//! negative instances per Equation (1), using one of four pre-processing
//! techniques (§IV-A):
//!
//! * **Oversampling** — duplicate uniformly-chosen minority-class instances.
//! * **Undersampling** — remove uniformly-chosen majority-class instances.
//! * **Preferential sampling** — duplicate and remove *borderline*
//!   instances, ranked by a Naïve Bayes posterior (Kamiran & Calders).
//! * **Data massaging** — flip the labels of borderline majority instances.
//!
//! Identification is re-run per hierarchy node on the *current* dataset,
//! because fixing one node's regions shifts the scores of regions above and
//! below it (the paper's Algorithm 2 does the same). Regions within one
//! node are disjoint, so a node's remedies are computed from a consistent
//! snapshot.

use crate::counting::{NodeSlots, RegionIndex};
use crate::error::{check_dense_arity, CoreError};
use crate::hash::FastMap;
use crate::hierarchy::pattern_of;
use crate::identify::{is_biased, IbsParams};
use crate::neighbor_model::{NeighborModel, NeighborTally};
use crate::neighborhood::Neighborhood;
use crate::params::{ParamError, RemedyParamsBuilder};
use crate::scope::Scope;
use crate::score::Counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_classifiers::{Model, NaiveBayes};
use remedy_dataset::vocab::{self, Tokens};
use remedy_dataset::{Dataset, Pattern, Schema};
use remedy_obs::Scope as ObsScope;

/// The pre-processing technique applied to each biased region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Technique {
    /// Duplicate minority instances (paper's *DP*).
    Oversampling,
    /// Remove majority instances (*US*).
    Undersampling,
    /// Duplicate and remove borderline instances (*PS*; the paper's best).
    #[default]
    PreferentialSampling,
    /// Flip labels of borderline majority instances (*Massaging*).
    Massaging,
}

impl Technique {
    /// All four techniques in the paper's comparison order.
    pub const ALL: [Technique; 4] = [
        Technique::PreferentialSampling,
        Technique::Undersampling,
        Technique::Oversampling,
        Technique::Massaging,
    ];

    /// Figure label used in the paper (§V-B2).
    pub fn label(self) -> &'static str {
        match self {
            Technique::Oversampling => "DP",
            Technique::Undersampling => "US",
            Technique::PreferentialSampling => "PS",
            Technique::Massaging => "Massaging",
        }
    }

    /// Whether this technique needs the borderline-instance ranker.
    pub fn needs_ranker(self) -> bool {
        matches!(self, Technique::PreferentialSampling | Technique::Massaging)
    }
}

/// The accepted spellings of each technique: the paper's abbreviation,
/// then the technique's name.
const TECHNIQUE_TOKENS: &Tokens<Technique> = &[
    (Technique::PreferentialSampling, &["ps", "preferential"]),
    (Technique::Undersampling, &["us", "undersample"]),
    (Technique::Oversampling, &["dp", "oversample"]),
    (Technique::Massaging, &["massage", "massaging"]),
];

impl std::str::FromStr for Technique {
    type Err = String;
    fn from_str(s: &str) -> Result<Technique, String> {
        vocab::parse(TECHNIQUE_TOKENS, s)
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of the remedy pipeline (Problem 2).
///
/// `#[non_exhaustive]`: downstream crates construct this through
/// [`RemedyParams::default`] or the validated [`RemedyParams::builder`];
/// the fields stay `pub` for reading and targeted mutation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RemedyParams {
    /// Pre-processing technique.
    pub technique: Technique,
    /// Imbalance threshold `τ_c`.
    pub tau_c: f64,
    /// Minimum region size `k`.
    pub min_size: u64,
    /// Neighboring-region specification.
    pub neighborhood: Neighborhood,
    /// Hierarchy levels to remedy.
    pub scope: Scope,
    /// Seed for uniform sampling choices.
    pub seed: u64,
}

impl Default for RemedyParams {
    fn default() -> Self {
        RemedyParams {
            technique: Technique::default(),
            tau_c: 0.1,
            min_size: 30,
            neighborhood: Neighborhood::Unit,
            scope: Scope::Lattice,
            seed: 0x5EED,
        }
    }
}

impl RemedyParams {
    /// A validated builder starting from [`RemedyParams::default`].
    pub fn builder() -> RemedyParamsBuilder {
        RemedyParamsBuilder::default()
    }

    /// Checks the parameter domain (see [`crate::params`]); called by the
    /// builder and by consumers that mutate fields in place.
    pub fn validate(&self) -> Result<(), ParamError> {
        crate::params::validate_common(self.tau_c, self.min_size, self.neighborhood)
    }

    /// The identification parameters the remedy's per-node re-identify
    /// runs under — the shared fields, verbatim, over the dense
    /// enumeration (both enumerations answer identically). Auditing the
    /// remedied dataset with these params asks exactly the question the
    /// remedy answered.
    pub fn ibs_params(&self) -> IbsParams {
        IbsParams {
            tau_c: self.tau_c,
            min_size: self.min_size,
            neighborhood: self.neighborhood,
            scope: self.scope,
            ..IbsParams::default()
        }
    }

    /// Feeds every field into `h` with an unambiguous encoding, mirroring
    /// [`IbsParams::stable_hash_into`](crate::identify::IbsParams::stable_hash_into).
    pub fn stable_hash_into(&self, h: &mut crate::hash::StableHasher) {
        h.write_str("remedy-params");
        h.write_str(self.technique.label());
        self.ibs_params().stable_hash_into(h);
        h.write_u64(self.seed);
    }

    /// Stable 128-bit digest of the parameters, suitable as (part of) a
    /// content-addressed cache key.
    pub fn stable_hash(&self) -> u128 {
        let mut h = crate::hash::StableHasher::new();
        self.stable_hash_into(&mut h);
        h.finish()
    }
}

/// Record of one region's remedy.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionUpdate {
    /// The remedied region.
    pub pattern: Pattern,
    /// `ratio_r` before the update.
    pub ratio_before: f64,
    /// The target `ratio_rn`.
    pub target_ratio: f64,
    /// Net change in positive instances (duplicates − removals ± flips).
    pub pos_delta: i64,
    /// Net change in negative instances.
    pub neg_delta: i64,
    /// Labels flipped (massaging only).
    pub flipped: u64,
}

/// Result of running the remedy pipeline.
#[derive(Debug, Clone)]
pub struct RemedyOutcome {
    /// The remedied dataset.
    pub dataset: Dataset,
    /// Every region update applied, in processing order (bottom-up).
    pub updates: Vec<RegionUpdate>,
}

/// Remedies a dataset over its schema-declared protected attributes.
///
/// # Panics
///
/// On a protected set the remedy cannot carry; see [`remedy_over_with`].
pub fn remedy(data: &Dataset, params: &RemedyParams) -> RemedyOutcome {
    remedy_with(data, params, &ObsScope::disabled())
}

/// [`remedy`] with observability (see [`remedy_over_with`]).
///
/// # Panics
///
/// On a protected set the remedy cannot carry; see [`remedy_over_with`].
pub fn remedy_with(data: &Dataset, params: &RemedyParams, obs: &ObsScope) -> RemedyOutcome {
    let protected = data.schema().protected_indices();
    remedy_over_with(data, &protected, params, obs).unwrap_or_else(|e| panic!("{e}"))
}

/// Remedies a dataset over an explicit protected-column set, with
/// observability: per-node count and gather timings (`node_counts_us`
/// and `gather_us` histograms), `counting.delta.*` /
/// `counting.rebuild.*` counters from the [`RegionIndex`], plus
/// `regions_updated`, `rows_duplicated`, `rows_removed`, `rows_flipped`,
/// `rows_gathered` and `posteriors` counters, batched into one flush per
/// hierarchy node.
///
/// Every per-row cost is paid once. One parallel counting pass builds
/// the index, and every later node's counts are projected from leaf
/// counts *maintained* under the remedy's own edits — an O(1) leaf delta
/// per edit and O(distinct leaves) per node instead of O(n·p) per node.
/// The ranker scores each input row once (PS and massaging only). The
/// remedy works in the index's slot space: a node's biased regions are
/// gathered as slots, split by class, from the leaves' slot lists in
/// one pass; edits name slots, so nothing is translated or compacted
/// between nodes; and the remedied dataset is built once, at the end,
/// from the live slots' origins and labels.
///
/// The remedy walks every lattice node, so past
/// [`crate::hierarchy::MAX_PROTECTED`] attributes it fails with
/// [`CoreError::TooManyProtected`]; a column past
/// [`crate::MAX_CARDINALITY`] categories fails with
/// [`CoreError::CardinalityOverflow`].
pub fn remedy_over_with(
    data: &Dataset,
    protected: &[usize],
    params: &RemedyParams,
    obs: &ObsScope,
) -> Result<RemedyOutcome, CoreError> {
    let _span = obs.span("remedy_over");
    // the remedy walks every lattice node, so it carries the dense arity
    // ceiling on top of the leaf layout the index checks
    check_dense_arity(protected.len())?;
    let build_timer = obs.timer();
    let mut index = RegionIndex::try_build_over(data, protected)?;
    obs.observe_since("index_build_us", build_timer);
    // a node's worth of edits collapses into one grouped flush at the
    // next node's count read
    index.begin_deltas();
    index.flush_obs(obs); // counting.rebuild.* of the build pass
    let mut engine = IndexEngine::new(data, index, params.technique);
    let updates = remedy_driver(&mut engine, data.schema(), protected, params, obs);
    Ok(RemedyOutcome {
        dataset: engine.into_dataset(data),
        updates,
    })
}

/// The rows being remedied, as the [`RegionIndex`]'s slots plus what
/// each slot copies: counts and region slots come from the maintained
/// index, and every edit is an O(1) slot edit on it.
struct IndexEngine {
    index: RegionIndex,
    /// The input row each slot copies; append-only, like the slots.
    origin: Vec<u32>,
    /// The ranker's [`borderline_key`] of each slot (a duplicate's is its
    /// source's). Empty when the technique ranks nothing.
    scores: Vec<u64>,
    /// Posteriors computed and not yet flushed to the `posteriors`
    /// counter.
    posteriors: u64,
}

impl IndexEngine {
    /// A slot per input row, scored once by a Naïve Bayes ranker fitted
    /// on the input when the technique needs one.
    fn new(data: &Dataset, index: RegionIndex, technique: Technique) -> IndexEngine {
        let scores: Vec<u64> = if technique.needs_ranker() {
            let ranker = NaiveBayes::fit(data);
            let mut buf = Vec::new();
            (0..data.len())
                .map(|row| {
                    data.row_into(row, &mut buf);
                    borderline_key(ranker.predict_proba_row(&buf))
                })
                .collect()
        } else {
            Vec::new()
        };
        IndexEngine {
            index,
            origin: (0..data.len() as u32).collect(),
            posteriors: scores.len() as u64,
            scores,
        }
    }

    /// The complete region map of one node over the current rows; notes
    /// in `node` which region each leaf falls in, for the node's gather.
    fn node_counts(
        &mut self,
        mask: u32,
        node: &mut NodeSlots,
        obs: &ObsScope,
    ) -> FastMap<u128, Counts> {
        let timer = obs.timer();
        self.index.flush_deltas();
        let counts = self.index.node_counts(mask, node);
        obs.observe_since("node_counts_us", timer);
        self.index.note_node_served();
        counts
    }

    /// Appends a copy of `slot`.
    fn duplicate(&mut self, slot: u32) {
        let src = slot as usize;
        self.index.duplicate_slot(src);
        self.origin.push(self.origin[src]);
        if !self.scores.is_empty() {
            self.scores.push(self.scores[src]);
        }
    }

    /// The remedied dataset: the live slots' origin rows, in slot order,
    /// with their current labels.
    fn into_dataset(self, data: &Dataset) -> Dataset {
        let (rows, labels): (Vec<usize>, Vec<u8>) = self
            .index
            .live_slots()
            .map(|(slot, label)| (self.origin[slot] as usize, label))
            .unzip();
        let mut out = data.subset(&rows);
        for (row, (&src, &label)) in rows.iter().zip(&labels).enumerate() {
            if label != data.label(src) {
                out.flip_label(row);
            }
        }
        out
    }
}

/// Buffers one remedy reuses across regions and nodes, so the per-region
/// work allocates nothing once they have grown.
#[derive(Default)]
struct Scratch {
    /// The current node's acting regions' slots, gathered in one pass
    /// over the index.
    slots: NodeSlots,
    /// `(order key, slot)` pairs of one ranking.
    order: Vec<u128>,
    /// The buffer a list's gathered runs are merged through.
    merge: Vec<u32>,
}

/// Algorithm 2's node loop. Masks are walked bottom-up (decreasing
/// popcount, then numeric order). Regions within a node are disjoint and
/// slots are never renumbered, so one gather at the start of a node
/// serves all of its regions while their edits apply at once.
fn remedy_driver(
    engine: &mut IndexEngine,
    schema: &Schema,
    protected: &[usize],
    params: &RemedyParams,
    obs: &ObsScope,
) -> Vec<RegionUpdate> {
    let p = protected.len();
    // which protected columns are ordered, by protected position — the
    // ordered-radius metric needs per-slot flags for every node
    let ordered_protected: Vec<bool> = protected
        .iter()
        .map(|&col| schema.attribute(col).is_ordered())
        .collect();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut updates = Vec::new();
    let mut scratch = Scratch::default();
    // the current node's acting regions, ascending by key, each with the
    // classes its action reads; and their actions, in the same order
    let mut regions: Vec<(u128, [bool; 2])> = Vec::new();
    let mut actions: Vec<Action> = Vec::new();

    let full_mask: u32 = crate::counting::full_mask_of(p);
    let mut masks: Vec<u32> = (1..=full_mask).collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), *m));

    for mask in masks {
        let attrs: Vec<usize> = (0..p).filter(|j| mask & (1 << j) != 0).collect();
        if !params.scope.includes(attrs.len(), p) {
            continue;
        }
        let ordered: Vec<bool> = attrs.iter().map(|&j| ordered_protected[j]).collect();
        // identification on the *current* rows, restricted to this node
        let counts = engine.node_counts(mask, &mut scratch.slots, obs);
        let model = NeighborModel::for_snapshot(&counts, &ordered, params.neighborhood);
        let (biased, neighbor_tally) = biased_from_model(&counts, &model, params);
        regions.clear();
        actions.clear();
        for (key, own, target) in biased {
            if let Some(action) = plan(params.technique, own, target) {
                regions.push((key, action.reads()));
                actions.push(action);
                updates.push(action.update(pattern_of(protected, mask, key), own, target));
            }
        }
        let gather_timer = obs.timer();
        engine.index.gather(&regions, &mut scratch.slots);
        obs.observe_since("gather_us", gather_timer);
        for (i, &action) in actions.iter().enumerate() {
            execute(engine, action, i, &mut rng, &mut scratch);
        }
        let edits = engine.index.tally();
        obs.add_many(&[
            ("regions_updated", actions.len() as u64),
            ("rows_duplicated", edits.appends),
            ("rows_removed", edits.removes),
            ("rows_flipped", edits.flips),
            ("rows_gathered", scratch.slots.total_slots() as u64),
            ("posteriors", std::mem::take(&mut engine.posteriors)),
            ("neighbor_lookups", neighbor_tally.lookups),
            ("neighbor_underflow", neighbor_tally.underflows),
        ]);
        engine.index.flush_obs(obs);
    }
    updates
}

/// Biased regions of one node's count map: `(key, counts, ratio_rn)`,
/// sorted by key for deterministic processing, plus the neighbor-lookup
/// tally. All three neighborhoods — Unit, Full, and the ordered-radius
/// ball — dispatch through the same [`NeighborModel`] seam the
/// identification drivers use, so remedy targets agree with what a
/// re-identify under the same params reports.
fn biased_from_model(
    counts: &FastMap<u128, Counts>,
    model: &NeighborModel,
    params: &RemedyParams,
) -> (Vec<(u128, Counts, f64)>, NeighborTally) {
    let mut tally = NeighborTally::default();
    let mut out = Vec::new();
    for (&key, &own) in counts {
        if own.total() <= params.min_size {
            continue;
        }
        let neighbor = model.neighbor_counts(key, own, &mut tally);
        let ratio = own.imbalance();
        let target = neighbor.imbalance();
        // sentinel-aware Definition 5 — mirrors identify::is_biased, so a
        // zero-negative region beside a mixed neighborhood is remedied even
        // when τ_c exceeds the fake arithmetic gap |ratio + 1|
        if is_biased(ratio, target, params.tau_c) {
            out.push((key, own, target));
        }
    }
    // deterministic processing order
    out.sort_by_key(|&(key, _, _)| key);
    (out, tally)
}

/// What a technique does to one biased region. Classes are `1` for
/// positives and `0` for negatives.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Duplicate `count` rows of `class`, drawn uniformly with
    /// replacement (oversampling).
    Duplicate { class: usize, count: usize },
    /// Remove `count` distinct rows of `class`, drawn uniformly
    /// (undersampling).
    Remove { class: usize, count: usize },
    /// Remove the `k` most borderline rows of the `majority` class and
    /// duplicate the `k` most borderline of the other, cycling through a
    /// shorter list (preferential sampling).
    Swap { majority: usize, k: usize },
    /// Flip the labels of the `k` most borderline rows of the `majority`
    /// class (massaging).
    Flip { majority: usize, k: usize },
}

impl Action {
    /// The classes whose slots the action reads, indexed by class.
    fn reads(self) -> [bool; 2] {
        let mut reads = [false; 2];
        match self {
            Action::Duplicate { class, count } | Action::Remove { class, count } => {
                reads[class] = count > 0;
            }
            Action::Swap { k, .. } => reads = [k > 0; 2],
            Action::Flip { majority, k } => reads[majority] = k > 0,
        }
        reads
    }

    /// The record of applying the action to a region with counts `own`.
    fn update(self, pattern: Pattern, own: Counts, target: f64) -> RegionUpdate {
        // net change per class, and flips
        let mut delta = [0i64; 2];
        let mut flipped = 0;
        match self {
            Action::Duplicate { class, count } => delta[class] = count as i64,
            Action::Remove { class, count } => delta[class] = -(count as i64),
            Action::Swap { majority, k } | Action::Flip { majority, k } => {
                delta[majority] = -(k as i64);
                delta[1 - majority] = k as i64;
                if matches!(self, Action::Flip { .. }) {
                    flipped = k as u64;
                }
            }
        }
        RegionUpdate {
            pattern,
            ratio_before: own.imbalance(),
            target_ratio: target,
            pos_delta: delta[1],
            neg_delta: delta[0],
            flipped,
        }
    }
}

/// What `technique` does to a biased region with counts `own` whose
/// neighborhood's ratio is `target`, decided from the counts alone.
/// `None` when the target is unreachable (sentinel target, or no
/// instances of the class the technique must duplicate).
fn plan(technique: Technique, own: Counts, target: f64) -> Option<Action> {
    if target < 0.0 {
        return None; // neighboring region has no negatives: ratio undefined
    }
    let p = own.pos as f64;
    let n = own.neg as f64;
    let ratio = own.imbalance();
    // sentinel own-ratio (no negatives) behaves as +∞
    let too_positive = ratio < 0.0 || ratio > target;
    let size = |class: usize| (if class == 1 { own.pos } else { own.neg }) as usize;

    Some(match (technique, too_positive) {
        (Technique::Oversampling, true) => {
            // |r⁺| / (|r⁻| + n_r) = ratio_rn
            if target <= 0.0 || own.neg == 0 {
                return None;
            }
            let count = ((p / target).round() - n).max(0.0) as usize;
            Action::Duplicate { class: 0, count }
        }
        (Technique::Oversampling, false) => {
            // (|r⁺| + p_r) / |r⁻| = ratio_rn
            if own.pos == 0 {
                return None;
            }
            let count = ((target * n).round() - p).max(0.0) as usize;
            Action::Duplicate { class: 1, count }
        }
        (Technique::Undersampling, true) => {
            // (|r⁺| + p_r) / |r⁻| = ratio_rn with p_r < 0
            if own.neg == 0 {
                return None; // cannot reach a finite ratio by removals alone
            }
            let remove = (p - (target * n).round()).max(0.0) as usize;
            Action::Remove {
                class: 1,
                count: remove.min(size(1)),
            }
        }
        (Technique::Undersampling, false) => {
            // |r⁺| / (|r⁻| + n_r) = ratio_rn with n_r < 0
            if target <= 0.0 {
                return None;
            }
            let remove = (n - (p / target).round()).max(0.0) as usize;
            Action::Remove {
                class: 0,
                count: remove.min(size(0)),
            }
        }
        (Technique::PreferentialSampling | Technique::Massaging, too_positive) => {
            // preferential sampling moves k rows each way,
            // (|r⁺| + p_r) / (|r⁻| + n_r) = ratio_rn with |p_r| = |n_r| = k;
            // massaging flips k majority labels,
            // (|r⁺| − k) / (|r⁻| + k) = ratio_rn
            let k = (((p - target * n).abs()) / (1.0 + target)).round() as usize;
            if k == 0 {
                return None;
            }
            let majority = usize::from(too_positive);
            let k = k.min(size(majority));
            if technique == Technique::Massaging {
                Action::Flip { majority, k }
            } else if size(1 - majority) == 0 {
                return None; // no minority row to duplicate
            } else {
                Action::Swap { majority, k }
            }
        }
    })
}

/// Applies one planned action to the node's `i`-th gathered region.
fn execute(
    engine: &mut IndexEngine,
    action: Action,
    i: usize,
    rng: &mut StdRng,
    scratch: &mut Scratch,
) {
    let Scratch {
        slots,
        order,
        merge,
    } = scratch;
    match action {
        // uniform draws pick by position, so they need row order; a
        // ranking sorts by its own total order instead
        Action::Duplicate { class, count } => {
            let rows = slots.sorted_class_mut(i, class, merge);
            debug_assert!(!rows.is_empty() || count == 0);
            for _ in 0..count {
                engine.duplicate(rows[rng.gen_range(0..rows.len())]);
            }
        }
        Action::Remove { class, count } => {
            let rows = slots.sorted_class_mut(i, class, merge);
            // partial Fisher–Yates to pick `count` victims
            for j in 0..count {
                let pick = j + rng.gen_range(0..(rows.len() - j));
                rows.swap(j, pick);
                engine.index.remove_slot(rows[j] as usize);
            }
        }
        Action::Swap { majority, k } => {
            let minority = 1 - majority;
            let score = |slot: u32| engine.scores[slot as usize];
            rank_borderline(slots.class_mut(i, majority), score, majority == 1, k, order);
            rank_borderline(slots.class_mut(i, minority), score, minority == 1, k, order);
            for slot in cycled(slots.class(i, minority), k) {
                engine.duplicate(slot);
            }
            for &slot in &slots.class(i, majority)[..k] {
                engine.index.remove_slot(slot as usize);
            }
        }
        Action::Flip { majority, k } => {
            let score = |slot: u32| engine.scores[slot as usize];
            rank_borderline(slots.class_mut(i, majority), score, majority == 1, k, order);
            for &slot in &slots.class(i, majority)[..k] {
                engine.index.flip_slot(slot as usize);
            }
        }
    }
}

/// The first `count` entries of a ranked list, cycling when the list is
/// shorter than `count`.
fn cycled(ranked: &[u32], count: usize) -> impl Iterator<Item = u32> + '_ {
    debug_assert!(!ranked.is_empty() || count == 0);
    ranked.iter().copied().cycle().take(count)
}

/// The ranker's order key for a posterior `P(y=1|x)`: unsigned integer
/// order on keys is `partial_cmp` order on posteriors (`-0.0` and `0.0`
/// share a key), so ranking sorts plain integers.
///
/// # Panics
///
/// On a NaN posterior, which has no place in the ranking.
fn borderline_key(posterior: f64) -> u64 {
    assert!(!posterior.is_nan(), "the ranker's posterior is NaN");
    let bits = if posterior == 0.0 {
        0
    } else {
        posterior.to_bits()
    };
    // the IEEE-754 total-order trick: flip every bit of a negative,
    // only the sign bit of a non-negative
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Moves the `count` most borderline slots to the front of `slots`, in
/// order: positives by ascending posterior `P(y=1|x)`, negatives by
/// descending posterior, ties by ascending slot (which is row order).
/// Past `count` the slots keep no order; a `count` of at least
/// `slots.len()` ranks them all.
///
/// `score` gives a slot's [`borderline_key`]. `order` is a reused buffer
/// of `(key, slot)` pairs, each packed into one integer, so the ranking
/// is a selection and one unstable sort of the selected prefix, with no
/// allocation.
fn rank_borderline(
    slots: &mut [u32],
    score: impl Fn(u32) -> u64,
    positives: bool,
    count: usize,
    order: &mut Vec<u128>,
) {
    let invert = if positives { 0 } else { u64::MAX };
    order.clear();
    order.extend(
        slots
            .iter()
            .map(|&slot| (u128::from(score(slot) ^ invert) << 64) | u128::from(slot)),
    );
    let count = count.min(order.len());
    if count < order.len() {
        order.select_nth_unstable(count);
    }
    order[..count].sort_unstable();
    for (slot, &entry) in slots.iter_mut().zip(order.iter()) {
        *slot = entry as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, Algorithm, IbsParams};
    use remedy_dataset::{Attribute, Schema};

    #[test]
    fn technique_tokens_parse_and_reject() {
        for (alias, technique) in [
            ("preferential", Technique::PreferentialSampling),
            ("undersample", Technique::Undersampling),
            ("oversample", Technique::Oversampling),
            ("massaging", Technique::Massaging),
        ] {
            assert_eq!(alias.parse::<Technique>().unwrap(), technique);
        }
        let err = "x".parse::<Technique>().unwrap_err();
        assert_eq!(err, "`x` is not ps|us|dp|massage");
        for (technique, spellings) in TECHNIQUE_TOKENS {
            assert!(err.contains(spellings[0]));
            for spelling in *spellings {
                assert_eq!(spelling.parse::<Technique>().unwrap(), *technique);
            }
        }
        assert_eq!(Technique::default(), Technique::PreferentialSampling);
    }

    /// Example 8's shape at 1/7 scale: a region with 126 positives and 57
    /// negatives (ratio ≈ 2.21) surrounded by regions at ratio ≈ 0.64.
    fn example_like() -> (Dataset, Pattern) {
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
                let (pos, neg) = if a == 1 && b == 1 {
                    (126, 57)
                } else {
                    (39, 61)
                };
                for i in 0..pos.max(neg) {
                    if i < pos {
                        d.push_row(&[a, b], 1).unwrap();
                    }
                    if i < neg {
                        d.push_row(&[a, b], 0).unwrap();
                    }
                }
            }
        }
        (d, Pattern::from_terms([(0usize, 1u32), (1usize, 1u32)]))
    }

    fn region_ratio(d: &Dataset, p: &Pattern) -> f64 {
        let (pos, neg) = d.class_counts(p);
        crate::score::imbalance(pos as u64, neg as u64)
    }

    #[test]
    fn all_techniques_move_ratio_toward_target() {
        let (d, region) = example_like();
        let before = region_ratio(&d, &region);
        assert!(before > 2.0);
        for technique in Technique::ALL {
            let params = RemedyParams {
                technique,
                tau_c: 0.3,
                min_size: 30,
                ..RemedyParams::default()
            };
            let outcome = remedy(&d, &params);
            let after = region_ratio(&outcome.dataset, &region);
            assert!(
                after < before * 0.6,
                "{technique} left ratio at {after} (before {before})"
            );
            assert!(!outcome.updates.is_empty(), "{technique} made no updates");
        }
    }

    #[test]
    fn oversampling_only_adds_rows() {
        let (d, _) = example_like();
        let params = RemedyParams {
            technique: Technique::Oversampling,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        assert!(outcome.dataset.len() >= d.len());
        for u in &outcome.updates {
            assert!(u.pos_delta >= 0 && u.neg_delta >= 0, "{u:?}");
            assert_eq!(u.flipped, 0);
        }
    }

    #[test]
    fn undersampling_only_removes_rows() {
        let (d, _) = example_like();
        let params = RemedyParams {
            technique: Technique::Undersampling,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        assert!(outcome.dataset.len() <= d.len());
        for u in &outcome.updates {
            assert!(u.pos_delta <= 0 && u.neg_delta <= 0, "{u:?}");
        }
    }

    #[test]
    fn massaging_preserves_dataset_size() {
        let (d, _) = example_like();
        let params = RemedyParams {
            technique: Technique::Massaging,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        assert_eq!(outcome.dataset.len(), d.len());
        assert!(outcome.updates.iter().any(|u| u.flipped > 0));
    }

    #[test]
    fn preferential_sampling_balances_additions_and_removals() {
        let (d, _) = example_like();
        let params = RemedyParams {
            technique: Technique::PreferentialSampling,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        for u in &outcome.updates {
            assert_eq!(u.pos_delta.abs(), u.neg_delta.abs(), "{u:?}");
        }
    }

    #[test]
    fn remedy_reduces_ibs() {
        let (d, _) = example_like();
        let ibs_params = IbsParams {
            tau_c: 0.3,
            min_size: 30,
            ..IbsParams::default()
        };
        let before = identify(&d, &ibs_params, Algorithm::Optimized).len();
        let params = RemedyParams {
            technique: Technique::PreferentialSampling,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        let after = identify(&outcome.dataset, &ibs_params, Algorithm::Optimized).len();
        assert!(
            after < before || before == 0,
            "IBS count should shrink: {before} → {after}"
        );
    }

    #[test]
    fn remedy_is_deterministic() {
        let (d, _) = example_like();
        let params = RemedyParams::default();
        let o1 = remedy(&d, &params);
        let o2 = remedy(&d, &params);
        assert_eq!(o1.dataset, o2.dataset);
        assert_eq!(o1.updates, o2.updates);
    }

    #[test]
    fn unbiased_dataset_is_untouched() {
        let schema = Schema::new(
            vec![Attribute::from_strs("a", &["0", "1"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..2u32 {
            for i in 0..100 {
                d.push_row(&[a], u8::from(i % 2 == 0)).unwrap();
            }
        }
        let outcome = remedy(&d, &RemedyParams::default());
        assert_eq!(outcome.dataset, d);
        assert!(outcome.updates.is_empty());
    }

    #[test]
    fn scope_leaf_only_touches_leaf_regions() {
        let (d, _) = example_like();
        let params = RemedyParams {
            scope: Scope::Leaf,
            tau_c: 0.3,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        assert!(outcome.updates.iter().all(|u| u.pattern.level() == 2));
    }

    /// Example 8 verbatim: region with 882 positives / 397 negatives and a
    /// neighboring-region ratio of 0.64. The computed update magnitudes
    /// must match the paper's (paper rounds slightly differently off its
    /// unrounded 0.6387 target; we assert within ±4 instances).
    #[test]
    fn example_8_update_magnitudes() {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut fill = |a: u32, b: u32, pos: usize, neg: usize| {
            for _ in 0..pos {
                d.push_row(&[a, b], 1).unwrap();
            }
            for _ in 0..neg {
                d.push_row(&[a, b], 0).unwrap();
            }
        };
        // the Example 4/8 region
        fill(0, 0, 882, 397);
        // its two unit-distance neighbors, jointly at ratio 0.64
        fill(0, 1, 640, 1000);
        fill(1, 0, 640, 1000);
        // the far corner (not a neighbor of (0,0))
        fill(1, 1, 640, 1000);
        let region = Pattern::from_terms([(0usize, 0u32), (1usize, 0u32)]);

        let update_for = |technique| {
            let params = RemedyParams {
                technique,
                tau_c: 0.3,
                scope: Scope::Leaf,
                ..RemedyParams::default()
            };
            remedy(&d, &params)
                .updates
                .into_iter()
                .find(|u| u.pattern == region)
                .expect("example region must be remedied")
        };

        // paper: oversampling adds 984 negatives (our rounding: 981)
        let u = update_for(Technique::Oversampling);
        assert!((u.neg_delta - 984).abs() <= 4, "oversampling: {u:?}");
        assert_eq!(u.pos_delta, 0);

        // paper: undersampling removes 629 positives (ours: 628)
        let u = update_for(Technique::Undersampling);
        assert!((-u.pos_delta - 629).abs() <= 4, "undersampling: {u:?}");
        assert_eq!(u.neg_delta, 0);

        // paper: preferential sampling swaps 384 (ours: 383)
        let u = update_for(Technique::PreferentialSampling);
        assert!((-u.pos_delta - 384).abs() <= 4, "ps: {u:?}");
        assert_eq!(u.pos_delta, -u.neg_delta);

        // paper: massaging flips 384 labels
        let u = update_for(Technique::Massaging);
        assert!((u.flipped as i64 - 384).abs() <= 4, "massaging: {u:?}");
    }

    /// Regression (sentinel-ratio bug, remedy side): a region with *no*
    /// negatives has the undefined score, the most extreme imbalance
    /// possible. The old arithmetic compare `|−1 − target| > τ_c` skipped
    /// it whenever `τ_c ≥ |target + 1|`; it must be remedied regardless.
    #[test]
    fn zero_negative_region_is_remedied() {
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
        let region = Pattern::from_terms([(0usize, 1u32), (1usize, 1u32)]);
        assert_eq!(region_ratio(&d, &region), -1.0);
        // τ_c = 2.5 swallows the fake gap |−1 − 1| = 2 that the old code
        // computed for the leaf region
        let params = RemedyParams {
            technique: Technique::Massaging,
            tau_c: 2.5,
            scope: Scope::Leaf,
            ..RemedyParams::default()
        };
        let outcome = remedy(&d, &params);
        assert!(
            outcome.updates.iter().any(|u| u.pattern == region),
            "zero-negative region was skipped: {:?}",
            outcome.updates
        );
        let after = region_ratio(&outcome.dataset, &region);
        assert!(after >= 0.0, "ratio still undefined after remedy: {after}");
        // no update ever targets the undefined sentinel
        assert!(outcome.updates.iter().all(|u| u.target_ratio >= 0.0));
    }

    #[test]
    fn obs_counters_track_row_mutations() {
        let (d, _) = example_like();
        for technique in Technique::ALL {
            let params = RemedyParams {
                technique,
                tau_c: 0.3,
                ..RemedyParams::default()
            };
            let rec = remedy_obs::Recorder::enabled();
            let outcome = remedy_with(&d, &params, &rec.scope("remedy"));
            // the recorder must not perturb the result
            assert_eq!(outcome.dataset, remedy(&d, &params).dataset, "{technique}");
            let snap = rec.snapshot();
            let counter = |name| snap.counter("remedy", name).unwrap_or(0);
            assert_eq!(counter("regions_updated"), outcome.updates.len() as u64);
            let dup: i64 = outcome
                .updates
                .iter()
                .map(|u| (u.pos_delta.max(0) + u.neg_delta.max(0)) - u.flipped as i64)
                .sum();
            let removed: i64 = outcome
                .updates
                .iter()
                .map(|u| ((-u.pos_delta).max(0) + (-u.neg_delta).max(0)) - u.flipped as i64)
                .sum();
            let flipped: u64 = outcome.updates.iter().map(|u| u.flipped).sum();
            assert_eq!(counter("rows_duplicated"), dup as u64, "{technique}");
            assert_eq!(counter("rows_removed"), removed as u64, "{technique}");
            assert_eq!(counter("rows_flipped"), flipped, "{technique}");
            // the ranker scores every input row exactly once
            let scored = if technique.needs_ranker() { d.len() } else { 0 };
            assert_eq!(counter("posteriors"), scored as u64, "{technique}");
            assert!(counter("rows_gathered") > 0, "{technique}");
            // p = 2 ⇒ 3 lattice nodes, each counted and gathered once
            for histogram in ["node_counts_us", "gather_us"] {
                assert_eq!(
                    snap.histogram("remedy", histogram).unwrap().count,
                    3,
                    "{technique} {histogram}"
                );
            }
            assert!(
                snap.histogram("remedy", "index_build_us").unwrap().count == 1,
                "{technique}"
            );
            // exactly one full counting pass — the index build; every node
            // after that is served from maintained counts
            assert_eq!(counter("counting.rebuild.scans"), 1, "{technique}");
            assert_eq!(counter("counting.rebuild.rows"), d.len() as u64);
            // p = 2 ⇒ 3 lattice nodes, all in Scope::Lattice
            assert_eq!(counter("counting.delta.nodes_served"), 3, "{technique}");
            let edits = counter("counting.delta.appends")
                + counter("counting.delta.removes")
                + counter("counting.delta.flips");
            assert!(edits > 0, "{technique} produced no delta updates");
        }
    }

    /// The ranking sort as it was before posteriors became integer keys,
    /// kept as the reference: `partial_cmp` on the posterior (descending
    /// for negatives), ties by ascending row.
    fn reference_rank(posteriors: &[f64], rows: &[u32], positives: bool) -> Vec<u32> {
        let mut scored: Vec<(f64, u32)> =
            rows.iter().map(|&i| (posteriors[i as usize], i)).collect();
        if positives {
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        } else {
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        }
        scored.into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn ranking_matches_the_partial_cmp_reference() {
        let subnormal = f64::from_bits(1);
        let posteriors = [
            0.5, 0.0, -0.0, 1.0, subnormal, 0.5, 0.25, -0.0, 1.0, 0.0, subnormal, 1e-300, 0.5,
        ];
        let keys: Vec<u64> = posteriors.iter().map(|&p| borderline_key(p)).collect();
        let mut order = Vec::new();
        // every row in a scrambled order, and a sub-list with ties
        let all: Vec<u32> = (0..posteriors.len() as u32).rev().collect();
        let some = vec![7, 2, 9, 1, 4, 10, 12, 0];
        for rows in [all, some] {
            let len = rows.len();
            for positives in [true, false] {
                let reference = reference_rank(&posteriors, &rows, positives);
                // removals and flips take a prefix of at most the list;
                // PS duplications cycle past its end
                for k in [0, 1, len / 2, len, len + 3] {
                    let mut ranked = rows.clone();
                    rank_borderline(
                        &mut ranked,
                        |slot| keys[slot as usize],
                        positives,
                        k,
                        &mut order,
                    );
                    let at = k.min(len);
                    assert_eq!(ranked[..at], reference[..at], "k = {k}, {positives}");
                    if k >= len {
                        assert_eq!(
                            cycled(&ranked, k).collect::<Vec<_>>(),
                            reference
                                .iter()
                                .copied()
                                .cycle()
                                .take(k)
                                .collect::<Vec<_>>(),
                            "k = {k}, {positives}"
                        );
                    }
                    // the rows past the ranked prefix are the rest, unranked
                    let mut all = ranked.clone();
                    all.sort_unstable();
                    let mut expected = rows.clone();
                    expected.sort_unstable();
                    assert_eq!(all, expected);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "posterior is NaN")]
    fn nan_posterior_fails_loudly() {
        borderline_key(f64::NAN);
    }

    /// Golden outputs: a 128-bit digest of the remedied dataset's text and
    /// the update records, per technique, on both fixtures. The digests
    /// were recorded when a per-node rescan implementation still shipped
    /// beside the index-backed one, and both produced them; any drift in
    /// the index engine, the driver, the techniques or the neighbor model
    /// changes them.
    #[test]
    fn remedy_outputs_match_golden_digests() {
        let digest = |o: &RemedyOutcome| {
            let text = remedy_dataset::persist::dataset_to_text(&o.dataset);
            crate::hash::stable_hash(format!("{text}\n{:?}", o.updates).as_bytes())
        };
        let (d, _) = example_like();
        for (technique, golden) in Technique::ALL.into_iter().zip([
            0xa3d102e9d0af95f4ee77bb3bbd81dc77_u128,
            0x0179fcdbc15cfb919aa131dfde4fa4aa,
            0xe2f97d8dcb8427d89e2e9ec1b9b5db0f,
            0x6a024c9d482130f8a5cf266935911975,
        ]) {
            let params = RemedyParams {
                technique,
                tau_c: 0.3,
                ..RemedyParams::default()
            };
            assert_eq!(digest(&remedy(&d, &params)), golden, "{technique}");
        }
        let d = ordered_planted();
        for (technique, golden) in Technique::ALL.into_iter().zip([
            0xb060f84820806b26c3dfee5791cccd77_u128,
            0x5fc3ceeabf580992e3731ba726e33aea,
            0x8917c015d94ea1ba2f5302161f4919dc,
            0xfdf2aafa8c7080fdcc4a9ffcda867dd5,
        ]) {
            let params = RemedyParams {
                technique,
                tau_c: 2.0,
                neighborhood: Neighborhood::OrderedRadius(1.0),
                ..RemedyParams::default()
            };
            assert_eq!(digest(&remedy(&d, &params)), golden, "ordered {technique}");
        }
    }

    /// One ordered protected attribute with five buckets; bucket 2 is
    /// heavily positive (ratio 9.0), the rest balanced. With `τ_c = 2`
    /// only the planted bucket starts biased under the radius-1 ball: its
    /// neighborhood (buckets 1 and 3) sits at ratio 1.0, while the
    /// balanced buckets' gaps stay under the threshold.
    fn ordered_planted() -> Dataset {
        let schema = Schema::new(
            vec![Attribute::from_strs("age", &["0", "1", "2", "3", "4"])
                .protected()
                .ordered()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for age in 0..5u32 {
            let (pos, neg) = if age == 2 { (90, 10) } else { (50, 50) };
            for _ in 0..pos {
                d.push_row(&[age], 1).unwrap();
            }
            for _ in 0..neg {
                d.push_row(&[age], 0).unwrap();
            }
        }
        d
    }

    /// The ordered-radius neighborhood used to `unimplemented!` on the
    /// remedy side; it now runs through the same [`NeighborModel`] seam as
    /// identification and must shrink the ordered-metric IBS.
    #[test]
    fn ordered_radius_remedy_shrinks_ordered_ibs() {
        let d = ordered_planted();
        let ibs_params = IbsParams::builder()
            .tau_c(2.0)
            .neighborhood(Neighborhood::OrderedRadius(1.0))
            .build()
            .unwrap();
        let before = identify(&d, &ibs_params, Algorithm::Optimized).len();
        assert!(before > 0, "fixture must start biased");
        for technique in Technique::ALL {
            let params = RemedyParams {
                technique,
                tau_c: 2.0,
                neighborhood: Neighborhood::OrderedRadius(1.0),
                ..RemedyParams::default()
            };
            let outcome = remedy(&d, &params);
            assert!(!outcome.updates.is_empty(), "{technique} made no updates");
            assert!(outcome.updates.iter().all(|u| u.target_ratio >= 0.0));
            let after = identify(&outcome.dataset, &ibs_params, Algorithm::Optimized).len();
            assert!(
                after < before,
                "{technique}: ordered IBS should shrink, {before} → {after}"
            );
        }
    }

    #[test]
    fn remedy_obs_counts_neighbor_lookups() {
        let d = ordered_planted();
        let params = RemedyParams {
            tau_c: 2.0,
            neighborhood: Neighborhood::OrderedRadius(1.0),
            ..RemedyParams::default()
        };
        let rec = remedy_obs::Recorder::enabled();
        remedy_with(&d, &params, &rec.scope("remedy"));
        let snap = rec.snapshot();
        assert!(snap.counter("remedy", "neighbor_lookups").unwrap_or(0) > 0);
        assert_eq!(snap.counter("remedy", "neighbor_underflow"), None);
    }

    #[test]
    fn technique_labels_match_figures() {
        assert_eq!(Technique::Oversampling.label(), "DP");
        assert_eq!(Technique::Undersampling.to_string(), "US");
        assert_eq!(Technique::PreferentialSampling.label(), "PS");
        assert_eq!(Technique::Massaging.label(), "Massaging");
    }
}
