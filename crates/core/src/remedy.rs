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

use crate::counting::RegionIndex;
use crate::hash::FastMap;
use crate::hierarchy::get_byte;
use crate::identify::{is_biased, Algorithm, Enumeration, IbsParams};
use crate::neighbor_model::{NeighborModel, NeighborTally};
use crate::neighborhood::Neighborhood;
use crate::params::{ParamError, RemedyParamsBuilder};
use crate::scope::Scope;
use crate::score::Counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy_classifiers::{Model, NaiveBayes};
use remedy_dataset::{Dataset, Pattern};
use remedy_obs::Scope as ObsScope;

/// The pre-processing technique applied to each biased region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Duplicate minority instances (paper's *DP*).
    Oversampling,
    /// Remove majority instances (*US*).
    Undersampling,
    /// Duplicate and remove borderline instances (*PS*; the paper's best).
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
    /// Counting-engine enumeration strategy (dense by default). The
    /// pruned mode serves per-node counts from a leaf-only sparse
    /// [`RegionIndex`], projecting each node lazily instead of
    /// maintaining every lattice node under the remedy's edits.
    pub enumeration: Enumeration,
}

impl Default for RemedyParams {
    fn default() -> Self {
        RemedyParams {
            technique: Technique::PreferentialSampling,
            tau_c: 0.1,
            min_size: 30,
            neighborhood: Neighborhood::Unit,
            scope: Scope::Lattice,
            seed: 0x5EED,
            enumeration: Enumeration::Dense,
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
    /// runs under — the shared fields, verbatim. Auditing the remedied
    /// dataset with these params asks exactly the question the remedy
    /// answered.
    pub fn ibs_params(&self) -> IbsParams {
        IbsParams {
            tau_c: self.tau_c,
            min_size: self.min_size,
            neighborhood: self.neighborhood,
            scope: self.scope,
            enumeration: self.enumeration,
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
pub fn remedy(data: &Dataset, params: &RemedyParams) -> RemedyOutcome {
    remedy_with(data, params, &ObsScope::disabled())
}

/// [`remedy`] with observability (see [`remedy_over_with`]).
pub fn remedy_with(data: &Dataset, params: &RemedyParams, obs: &ObsScope) -> RemedyOutcome {
    let protected = data.schema().protected_indices();
    remedy_over_with(data, &protected, params, obs)
}

/// Remedies a dataset over an explicit protected-column set, with
/// observability: per-node count timings (`node_counts_us` histogram),
/// `counting.delta.*` / `counting.rebuild.*` counters from the
/// [`RegionIndex`], plus `regions_updated`,
/// `rows_duplicated`, `rows_removed`, and `rows_flipped` counters,
/// batched into one flush per hierarchy node.
///
/// This is the incremental path: one parallel counting pass builds the
/// index, and every subsequent node's counts are *maintained* under the
/// remedy's own edits rather than re-scanned — O(nodes touched) per edit
/// instead of O(n·p) per node. The output is bit-identical to
/// [`remedy_over_scan`].
pub fn remedy_over_with(
    data: &Dataset,
    protected: &[usize],
    params: &RemedyParams,
    obs: &ObsScope,
) -> RemedyOutcome {
    let _span = obs.span("remedy_over");
    // the remedy walks every lattice node regardless of enumeration mode
    // (a support-pruned frontier frozen at build time would go stale under
    // the remedy's own edits), so both modes carry the dense arity ceiling
    crate::error::validate_columns(data, protected, crate::hierarchy::MAX_PROTECTED)
        .unwrap_or_else(|e| panic!("{e}"));
    let ranker = params
        .technique
        .needs_ranker()
        .then(|| NaiveBayes::fit(data));
    let build_timer = obs.timer();
    let mut index = match params.enumeration {
        Enumeration::Dense => RegionIndex::try_build_over(data, protected),
        // leaf-only index: O(1) nodes touched per edit instead of O(2^p),
        // each node's complete count map projected lazily at read time
        Enumeration::Pruned => RegionIndex::try_build_sparse_over(data, protected),
    }
    .unwrap_or_else(|e| panic!("{e}"));
    obs.observe_since("index_build_us", build_timer);
    // a node's worth of edits collapses into one grouped flush at the
    // next node's count read
    index.begin_deltas();
    let mut engine = IndexEngine {
        d: data.clone(),
        index,
    };
    engine.index.flush_obs(obs); // counting.rebuild.* of the build pass
    let updates = remedy_driver(&mut engine, protected, params, ranker.as_ref(), obs);
    RemedyOutcome {
        dataset: engine.d,
        updates,
    }
}

/// The reference scan implementation: re-counts the current dataset with
/// a full O(n·p) pass per hierarchy node, exactly as the remedy worked
/// before the incremental [`RegionIndex`]. Kept public as the
/// differential-testing and benchmarking baseline; its output is
/// bit-identical to [`remedy_over_with`].
pub fn remedy_over_scan(
    data: &Dataset,
    protected: &[usize],
    params: &RemedyParams,
) -> RemedyOutcome {
    crate::error::validate_columns(data, protected, crate::hierarchy::MAX_PROTECTED)
        .unwrap_or_else(|e| panic!("{e}"));
    let ranker = params
        .technique
        .needs_ranker()
        .then(|| NaiveBayes::fit(data));
    let mut engine = ScanEngine {
        d: data.clone(),
        protected,
        rows_by_key: FastMap::default(),
    };
    let obs = &ObsScope::disabled();
    let updates = remedy_driver(&mut engine, protected, params, ranker.as_ref(), obs);
    RemedyOutcome {
        dataset: engine.d,
        updates,
    }
}

/// The counting seam of the remedy loop: where a node's per-region
/// counts, biased-region list, and row buckets come from, and how row
/// edits propagate. Two implementations — [`ScanEngine`] re-scans the
/// dataset per node (the paper's literal Algorithm 2), [`IndexEngine`]
/// serves everything from the delta-maintained [`RegionIndex`]. The
/// driver is generic over this trait, so both paths share the technique
/// arithmetic, RNG stream, and processing order verbatim — which is what
/// makes them bit-identical.
trait CountEngine {
    /// The current dataset (reads only; writes go through the edit hooks).
    fn dataset(&self) -> &Dataset;

    /// Biased regions `(key, counts, ratio_rn)` of one node over the
    /// current dataset, sorted by key, plus the neighbor-lookup tally.
    fn biased_in_node(
        &mut self,
        mask: u32,
        attrs: &[usize],
        ordered: &[bool],
        params: &RemedyParams,
        obs: &ObsScope,
    ) -> (Vec<(u128, Counts, f64)>, NeighborTally);

    /// Ascending current row indices of one region of the node last
    /// passed to [`biased_in_node`](CountEngine::biased_in_node).
    fn region_rows(&mut self, mask: u32, key: u128) -> Vec<usize>;

    /// Appends a copy of `row` at the end of the dataset.
    fn duplicate_row(&mut self, row: usize);

    /// Flips the label of `row`.
    fn flip_label(&mut self, row: usize);

    /// Removes the given rows (a node's batched pending removals).
    fn remove_rows(&mut self, rows: &[usize]);

    /// Flushes any per-node counting telemetry.
    fn flush_node_obs(&mut self, obs: &ObsScope);
}

/// Scan-path engine: a fresh O(n·p) snapshot per node.
struct ScanEngine<'a> {
    d: Dataset,
    protected: &'a [usize],
    /// Row buckets of the node currently being processed.
    rows_by_key: FastMap<u128, Vec<usize>>,
}

impl CountEngine for ScanEngine<'_> {
    fn dataset(&self) -> &Dataset {
        &self.d
    }

    fn biased_in_node(
        &mut self,
        _mask: u32,
        attrs: &[usize],
        ordered: &[bool],
        params: &RemedyParams,
        _obs: &ObsScope,
    ) -> (Vec<(u128, Counts, f64)>, NeighborTally) {
        // identification on the *current* dataset, restricted to this node;
        // one pass yields both counts and the row bucket of every region
        let cols: Vec<usize> = attrs.iter().map(|&j| self.protected[j]).collect();
        let (counts, rows) = crate::counting::node_snapshot(&self.d, &cols);
        self.rows_by_key = rows;
        let model = NeighborModel::for_snapshot(&counts, ordered, params.neighborhood);
        biased_from_model(&counts, &model, params)
    }

    fn region_rows(&mut self, _mask: u32, key: u128) -> Vec<usize> {
        self.rows_by_key.get(&key).cloned().unwrap_or_default()
    }

    fn duplicate_row(&mut self, row: usize) {
        self.d.duplicate_row(row);
    }

    fn flip_label(&mut self, row: usize) {
        self.d.flip_label(row);
    }

    fn remove_rows(&mut self, rows: &[usize]) {
        self.d.remove_rows(rows);
    }

    fn flush_node_obs(&mut self, _obs: &ObsScope) {}
}

/// Incremental engine: counts come from the maintained [`RegionIndex`]
/// and every edit is mirrored into it as a delta update — O(nodes) per
/// edit against a dense index, O(1) against a leaf-only sparse one.
struct IndexEngine {
    d: Dataset,
    index: RegionIndex,
}

impl CountEngine for IndexEngine {
    fn dataset(&self) -> &Dataset {
        &self.d
    }

    fn biased_in_node(
        &mut self,
        mask: u32,
        _attrs: &[usize],
        ordered: &[bool],
        params: &RemedyParams,
        obs: &ObsScope,
    ) -> (Vec<(u128, Counts, f64)>, NeighborTally) {
        let timer = obs.timer();
        self.index.flush_deltas();
        let out = if self.index.is_sparse() {
            // leaf-only index: project this node's complete count map from
            // the maintained leaves, then score it exactly like the scan
            // path does — for_snapshot and for_node are proven equivalent
            // by `index_and_scan_paths_agree`
            let counts = self.index.project_node(mask);
            let model = NeighborModel::for_snapshot(&counts, ordered, params.neighborhood);
            biased_from_model(&counts, &model, params)
        } else {
            let hierarchy = self.index.hierarchy();
            let node = hierarchy.node(mask);
            // the maintained hierarchy equals a fresh build of the current
            // dataset, so for_node with the optimized algorithm answers the
            // same counts for_snapshot derives from a scan — with the
            // dominating projections borrowed instead of recomputed
            let model =
                NeighborModel::for_node(hierarchy, node, params.neighborhood, Algorithm::Optimized);
            biased_from_model(&node.regions, &model, params)
        };
        obs.observe_since("node_counts_us", timer);
        self.index.note_node_served();
        out
    }

    fn region_rows(&mut self, mask: u32, key: u128) -> Vec<usize> {
        self.index.region_rows(mask, key)
    }

    fn duplicate_row(&mut self, row: usize) {
        self.index.apply_append(row);
        self.d.duplicate_row(row);
    }

    fn flip_label(&mut self, row: usize) {
        self.index.apply_flip(row);
        self.d.flip_label(row);
    }

    fn remove_rows(&mut self, rows: &[usize]) {
        self.index.apply_remove(rows);
        self.d.remove_rows(rows);
    }

    fn flush_node_obs(&mut self, obs: &ObsScope) {
        self.index.flush_obs(obs);
    }
}

/// Algorithm 2's node loop, generic over the counting seam. Masks are
/// walked bottom-up (decreasing popcount, then numeric order); regions
/// within a node are disjoint, so duplications (appended at the end) and
/// label flips are applied immediately while removals are batched per
/// node to keep row indices valid.
fn remedy_driver<E: CountEngine>(
    engine: &mut E,
    protected: &[usize],
    params: &RemedyParams,
    ranker: Option<&NaiveBayes>,
    obs: &ObsScope,
) -> Vec<RegionUpdate> {
    let p = protected.len();
    // which protected columns are ordered, by protected position — the
    // ordered-radius metric needs per-slot flags for every node
    let ordered_protected: Vec<bool> = protected
        .iter()
        .map(|&col| engine.dataset().schema().attribute(col).is_ordered())
        .collect();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut updates = Vec::new();

    let full_mask: u32 = crate::counting::full_mask_of(p);
    let mut masks: Vec<u32> = (1..=full_mask).collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), *m));

    for mask in masks {
        let attrs: Vec<usize> = (0..p).filter(|j| mask & (1 << j) != 0).collect();
        if !params.scope.includes(attrs.len(), p) {
            continue;
        }
        let ordered: Vec<bool> = attrs.iter().map(|&j| ordered_protected[j]).collect();
        let (biased, neighbor_tally) = engine.biased_in_node(mask, &attrs, &ordered, params, obs);
        let mut pending_removals: Vec<usize> = Vec::new();
        let len_before = engine.dataset().len();
        let updates_before = updates.len();
        let mut flipped = 0u64;
        for (key, own, target) in biased {
            let pattern = pattern_of(protected, &attrs, key);
            let rows = engine.region_rows(mask, key);
            if let Some(update) = apply_technique(
                engine,
                &pattern,
                &rows,
                own,
                target,
                params.technique,
                ranker,
                &mut rng,
                &mut pending_removals,
            ) {
                flipped += update.flipped;
                updates.push(update);
            }
        }
        obs.add_many(&[
            ("regions_updated", (updates.len() - updates_before) as u64),
            (
                "rows_duplicated",
                (engine.dataset().len() - len_before) as u64,
            ),
            ("rows_removed", pending_removals.len() as u64),
            ("rows_flipped", flipped),
            ("neighbor_lookups", neighbor_tally.lookups),
            ("neighbor_underflow", neighbor_tally.underflows),
        ]);
        if !pending_removals.is_empty() {
            engine.remove_rows(&pending_removals);
        }
        engine.flush_node_obs(obs);
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

fn pattern_of(protected: &[usize], attrs: &[usize], key: u128) -> Pattern {
    let mut pattern = Pattern::empty();
    for (slot, &j) in attrs.iter().enumerate() {
        pattern.set(protected[j], get_byte(key, slot));
    }
    pattern
}

/// Applies one technique to one region. Returns `None` when the target is
/// unreachable (sentinel target, or no instances of the class the technique
/// must duplicate).
#[allow(clippy::too_many_arguments)]
fn apply_technique<E: CountEngine>(
    engine: &mut E,
    pattern: &Pattern,
    region_rows: &[usize],
    own: Counts,
    target: f64,
    technique: Technique,
    ranker: Option<&NaiveBayes>,
    rng: &mut StdRng,
    pending_removals: &mut Vec<usize>,
) -> Option<RegionUpdate> {
    if target < 0.0 {
        return None; // neighboring region has no negatives: ratio undefined
    }
    let p = own.pos as f64;
    let n = own.neg as f64;
    let ratio = own.imbalance();
    // sentinel own-ratio (no negatives) behaves as +∞
    let too_positive = ratio < 0.0 || ratio > target;

    let mut pos_rows: Vec<usize> = region_rows
        .iter()
        .copied()
        .filter(|&i| engine.dataset().label(i) == 1)
        .collect();
    let mut neg_rows: Vec<usize> = region_rows
        .iter()
        .copied()
        .filter(|&i| engine.dataset().label(i) == 0)
        .collect();

    let mut update = RegionUpdate {
        pattern: pattern.clone(),
        ratio_before: ratio,
        target_ratio: target,
        pos_delta: 0,
        neg_delta: 0,
        flipped: 0,
    };

    match (technique, too_positive) {
        (Technique::Oversampling, true) => {
            // |r⁺| / (|r⁻| + n_r) = ratio_rn
            if target <= 0.0 || neg_rows.is_empty() {
                return None;
            }
            let n_add = ((p / target).round() - n).max(0.0) as usize;
            duplicate_uniform(engine, &neg_rows, n_add, rng);
            update.neg_delta = n_add as i64;
        }
        (Technique::Oversampling, false) => {
            // (|r⁺| + p_r) / |r⁻| = ratio_rn
            if pos_rows.is_empty() {
                return None;
            }
            let p_add = ((target * n).round() - p).max(0.0) as usize;
            duplicate_uniform(engine, &pos_rows, p_add, rng);
            update.pos_delta = p_add as i64;
        }
        (Technique::Undersampling, true) => {
            // (|r⁺| + p_r) / |r⁻| = ratio_rn with p_r < 0
            if own.neg == 0 {
                return None; // cannot reach a finite ratio by removals alone
            }
            let remove = (p - (target * n).round()).max(0.0) as usize;
            let removed = remove_uniform(&mut pos_rows, remove, rng, pending_removals);
            update.pos_delta = -(removed as i64);
        }
        (Technique::Undersampling, false) => {
            // |r⁺| / (|r⁻| + n_r) = ratio_rn with n_r < 0
            if target <= 0.0 {
                return None;
            }
            let remove = (n - (p / target).round()).max(0.0) as usize;
            let removed = remove_uniform(&mut neg_rows, remove, rng, pending_removals);
            update.neg_delta = -(removed as i64);
        }
        (Technique::PreferentialSampling, too_positive) => {
            // (|r⁺| + p_r) / (|r⁻| + n_r) = ratio_rn with |p_r| = |n_r| = k
            let ranker = ranker.expect("PS requires a ranker");
            let k = (((p - target * n).abs()) / (1.0 + target)).round() as usize;
            if k == 0 {
                return None;
            }
            if too_positive {
                if neg_rows.is_empty() {
                    return None;
                }
                // remove k borderline positives, duplicate k borderline
                // negatives
                let k = k.min(pos_rows.len());
                rank_borderline(engine.dataset(), ranker, &mut pos_rows, true);
                rank_borderline(engine.dataset(), ranker, &mut neg_rows, false);
                duplicate_cycled(engine, &neg_rows, k);
                pending_removals.extend_from_slice(&pos_rows[..k]);
                update.pos_delta = -(k as i64);
                update.neg_delta = k as i64;
            } else {
                if pos_rows.is_empty() {
                    return None;
                }
                let k = k.min(neg_rows.len());
                rank_borderline(engine.dataset(), ranker, &mut pos_rows, true);
                rank_borderline(engine.dataset(), ranker, &mut neg_rows, false);
                duplicate_cycled(engine, &pos_rows, k);
                pending_removals.extend_from_slice(&neg_rows[..k]);
                update.pos_delta = k as i64;
                update.neg_delta = -(k as i64);
            }
        }
        (Technique::Massaging, too_positive) => {
            // flip k borderline majority labels:
            // (|r⁺| − k) / (|r⁻| + k) = ratio_rn
            let ranker = ranker.expect("massaging requires a ranker");
            let k = (((p - target * n).abs()) / (1.0 + target)).round() as usize;
            if k == 0 {
                return None;
            }
            if too_positive {
                let k = k.min(pos_rows.len());
                rank_borderline(engine.dataset(), ranker, &mut pos_rows, true);
                for &row in &pos_rows[..k] {
                    engine.flip_label(row);
                }
                update.pos_delta = -(k as i64);
                update.neg_delta = k as i64;
                update.flipped = k as u64;
            } else {
                let k = k.min(neg_rows.len());
                rank_borderline(engine.dataset(), ranker, &mut neg_rows, false);
                for &row in &neg_rows[..k] {
                    engine.flip_label(row);
                }
                update.pos_delta = k as i64;
                update.neg_delta = -(k as i64);
                update.flipped = k as u64;
            }
        }
    }
    Some(update)
}

/// Duplicates `count` rows sampled uniformly (with replacement).
fn duplicate_uniform<E: CountEngine>(
    engine: &mut E,
    rows: &[usize],
    count: usize,
    rng: &mut StdRng,
) {
    debug_assert!(!rows.is_empty() || count == 0);
    for _ in 0..count {
        let row = rows[rng.gen_range(0..rows.len())];
        engine.duplicate_row(row);
    }
}

/// Duplicates the first `count` entries of a ranked list, cycling when the
/// list is shorter than `count`.
fn duplicate_cycled<E: CountEngine>(engine: &mut E, ranked: &[usize], count: usize) {
    debug_assert!(!ranked.is_empty() || count == 0);
    for i in 0..count {
        engine.duplicate_row(ranked[i % ranked.len()]);
    }
}

/// Picks `count` rows uniformly from `rows` and schedules them for
/// removal; returns how many were scheduled.
fn remove_uniform(
    rows: &mut [usize],
    count: usize,
    rng: &mut StdRng,
    pending_removals: &mut Vec<usize>,
) -> usize {
    let count = count.min(rows.len());
    // partial Fisher–Yates to pick `count` victims
    for i in 0..count {
        let j = i + rng.gen_range(0..(rows.len() - i));
        rows.swap(i, j);
    }
    pending_removals.extend_from_slice(&rows[..count]);
    count
}

/// Sorts rows so the most borderline instances come first: positives by
/// ascending posterior `P(y=1|x)`, negatives by descending posterior.
fn rank_borderline(d: &Dataset, ranker: &NaiveBayes, rows: &mut [usize], positives: bool) {
    let mut buf = Vec::new();
    let mut scored: Vec<(f64, usize)> = rows
        .iter()
        .map(|&i| {
            d.row_into(i, &mut buf);
            (ranker.predict_proba_row(&buf), i)
        })
        .collect();
    if positives {
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    } else {
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    }
    for (slot, (_, i)) in scored.into_iter().enumerate() {
        rows[slot] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, Algorithm, IbsParams};
    use remedy_dataset::{Attribute, Schema};

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
            assert!(
                snap.histogram("remedy", "node_counts_us").unwrap().count >= 1,
                "{technique}"
            );
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

    /// The incremental [`RegionIndex`] path and the per-node scan baseline
    /// must agree to the byte: same remedied rows in the same order, same
    /// update records — for every technique and for the ordered-radius
    /// neighborhood.
    #[test]
    fn index_and_scan_paths_agree() {
        let (d, _) = example_like();
        for technique in Technique::ALL {
            let params = RemedyParams {
                technique,
                tau_c: 0.3,
                ..RemedyParams::default()
            };
            let protected = d.schema().protected_indices();
            let fast = remedy_over_with(&d, &protected, &params, &ObsScope::disabled());
            let scan = remedy_over_scan(&d, &protected, &params);
            assert_eq!(fast.dataset, scan.dataset, "{technique}");
            assert_eq!(fast.updates, scan.updates, "{technique}");
        }
        let d = ordered_planted();
        for technique in Technique::ALL {
            let params = RemedyParams {
                technique,
                tau_c: 2.0,
                neighborhood: Neighborhood::OrderedRadius(1.0),
                ..RemedyParams::default()
            };
            let protected = d.schema().protected_indices();
            let fast = remedy_over_with(&d, &protected, &params, &ObsScope::disabled());
            let scan = remedy_over_scan(&d, &protected, &params);
            assert_eq!(fast.dataset, scan.dataset, "ordered {technique}");
            assert_eq!(fast.updates, scan.updates, "ordered {technique}");
        }
    }

    /// The pruned counting engine (leaf-only sparse index, lazy per-node
    /// projection) must remedy to the byte like the dense one: same RNG
    /// stream, same processing order, same rows.
    #[test]
    fn pruned_engine_matches_dense() {
        let (d, _) = example_like();
        let protected = d.schema().protected_indices();
        for technique in Technique::ALL {
            let dense = RemedyParams {
                technique,
                tau_c: 0.3,
                ..RemedyParams::default()
            };
            let pruned = RemedyParams {
                enumeration: Enumeration::Pruned,
                ..dense.clone()
            };
            let a = remedy_over_with(&d, &protected, &dense, &ObsScope::disabled());
            let b = remedy_over_with(&d, &protected, &pruned, &ObsScope::disabled());
            assert_eq!(a.dataset, b.dataset, "{technique}");
            assert_eq!(a.updates, b.updates, "{technique}");
        }
        let d = ordered_planted();
        let protected = d.schema().protected_indices();
        let dense = RemedyParams {
            tau_c: 2.0,
            neighborhood: Neighborhood::OrderedRadius(1.0),
            ..RemedyParams::default()
        };
        let pruned = RemedyParams {
            enumeration: Enumeration::Pruned,
            ..dense.clone()
        };
        let a = remedy_over_with(&d, &protected, &dense, &ObsScope::disabled());
        let b = remedy_over_with(&d, &protected, &pruned, &ObsScope::disabled());
        assert_eq!(a.dataset, b.dataset, "ordered");
        assert_eq!(a.updates, b.updates, "ordered");
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
