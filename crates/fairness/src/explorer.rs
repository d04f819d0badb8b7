//! DivExplorer-style enumeration of intersectional subgroups.
//!
//! The paper uses DivExplorer [Pastor et al., SIGMOD'21] to list unfair
//! subgroups: every conjunctive pattern over the protected attributes whose
//! statistic diverges from the dataset's. One aggregation tallies each
//! row's prediction/label pair through identification's key packing, leaf
//! scan and support-pruned lattice; subgroup size is anti-monotone, so
//! pruning below a row floor is exact. An [`Explorer`] then scores each
//! subgroup with its divergence and a Welch-t significance test against
//! its complement. One aggregation, at the lowest floor, serves every
//! statistic and every explorer of an audit.

use crate::confusion::ConfusionCounts;
use crate::measure::{divergence, statistic_of, Statistic};
use crate::stats::{welch_t_test, Sample};
use remedy_core::{CoreError, ShardCounts, Tally, MAX_CARDINALITY};
use remedy_dataset::{Attribute, Dataset, Pattern, Schema};

/// Configuration for subgroup exploration.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Minimum subgroup support as a fraction of the dataset (DivExplorer's
    /// frequent-pattern threshold).
    pub min_support: f64,
    /// Minimum absolute subgroup size.
    pub min_size: usize,
    /// Two-sided significance level for the Welch t-test.
    pub alpha: f64,
    /// Columns spanning the subgroup space; `None` uses the schema's
    /// protected attributes. The paper's examples also mine over
    /// non-protected attributes (Example 2's `#prior`), which this
    /// enables: `columns: Some((0..schema.len()).collect())` explores all
    /// attributes, as DivExplorer does.
    pub columns: Option<Vec<usize>>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            min_support: 0.01,
            min_size: 1,
            alpha: 0.05,
            columns: None,
        }
    }
}

/// One subgroup's scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgroupReport {
    /// The subgroup's pattern (over protected attributes).
    pub pattern: Pattern,
    /// Number of instances matching the pattern.
    pub size: usize,
    /// `size / |D|`.
    pub support: f64,
    /// The statistic `γ_g` inside the subgroup.
    pub gamma: f64,
    /// `Δγ_g = |γ_g − γ_d|`.
    pub divergence: f64,
    /// Two-sided p-value of the subgroup-vs-complement Welch t-test.
    pub p_value: f64,
    /// Whether `p_value < alpha`.
    pub significant: bool,
    /// Confusion counts within the subgroup.
    pub counts: ConfusionCounts,
}

impl SubgroupReport {
    /// Whether the subgroup is *unfair* at threshold `τ_d`: divergence
    /// above the threshold and statistically significant.
    pub fn is_unfair(&self, tau_d: f64) -> bool {
        self.divergence > tau_d && self.significant
    }
}

/// The class byte core's leaf scan tallies into [`ConfusionCounts`]:
/// `prediction · 2 + label`.
impl Tally for ConfusionCounts {
    #[inline]
    fn add_class(&mut self, class: u8) {
        ConfusionCounts::add(self, class >> 1, class & 1);
    }

    #[inline]
    fn add(&mut self, other: ConfusionCounts) {
        *self = self.merge(&other);
    }

    #[inline]
    fn total(&self) -> u64 {
        ConfusionCounts::total(self) as u64
    }
}

/// Confusion counts of every subgroup with at least a floor of rows, plus
/// the whole dataset's — one leaf scan and one support-pruned lattice.
#[derive(Debug, Clone)]
pub(crate) struct SubgroupCounts {
    groups: Vec<(Pattern, ConfusionCounts)>,
    /// Whole-dataset confusion counts.
    pub(crate) overall: ConfusionCounts,
}

/// Codes per value band of a column past [`MAX_CARDINALITY`] categories;
/// the band's recoding gives every value outside it the code `BAND`.
const BAND: usize = MAX_CARDINALITY - 1;

impl SubgroupCounts {
    /// Aggregates once for every explorer in `explorers`: over their
    /// shared columns, at the lowest row floor any of them reports. Fails
    /// as [`Explorer::explore`] does.
    ///
    /// A column past [`MAX_CARDINALITY`] categories is aggregated in value
    /// bands: only its values with at least the floor of rows can appear
    /// in a reported subgroup, and the lattice runs once per combination
    /// of bands of [`BAND`] such values, with every other value recoded to
    /// one sentinel code whose subgroups are dropped.
    ///
    /// # Panics
    ///
    /// If `explorers` is empty or disagrees on `columns`, or on a
    /// prediction other than 0 or 1.
    pub(crate) fn build(
        data: &Dataset,
        predictions: &[u8],
        explorers: &[&Explorer],
    ) -> Result<SubgroupCounts, CoreError> {
        let columns = &explorers[0].columns;
        assert!(explorers.iter().all(|e| &e.columns == columns));
        let columns = columns
            .clone()
            .unwrap_or_else(|| data.schema().protected_indices());
        // the smallest size an explorer can report, less one so float
        // rounding never prunes a subgroup its exact support test keeps
        let floor = explorers
            .iter()
            .map(|e| {
                let by_support = (e.min_support * data.len() as f64).ceil() as usize;
                e.min_size.max(by_support.saturating_sub(1))
            })
            .min()
            .expect("at least one explorer");
        if predictions.len() != data.len() {
            return Err(CoreError::RowCountMismatch {
                rows: data.len(),
                values: predictions.len(),
            });
        }
        let classes: Vec<u8> = predictions
            .iter()
            .zip(data.labels())
            .map(|(&p, &y)| {
                assert!(p <= 1 && y <= 1, "non-binary prediction or label");
                p << 1 | y
            })
            .collect();
        // per column past MAX_CARDINALITY, the values a reported subgroup
        // can hold: those with at least `floor` rows
        let wide: Vec<(usize, Vec<u32>)> = columns
            .iter()
            .filter(|&&c| data.schema().attribute(c).cardinality() > MAX_CARDINALITY)
            .map(|&c| {
                let mut rows = vec![0usize; data.schema().attribute(c).cardinality()];
                data.column(c).iter().for_each(|&v| rows[v as usize] += 1);
                (
                    c,
                    (0..rows.len() as u32)
                        .filter(|&v| rows[v as usize] >= floor.max(1))
                        .collect(),
                )
            })
            .collect();
        let n_bands = |values: &Vec<u32>| values.len().div_ceil(BAND).max(1);
        let mut counts = SubgroupCounts {
            groups: Vec::new(),
            overall: ConfusionCounts::default(),
        };
        for run in 0..wide.iter().map(|(_, values)| n_bands(values)).product() {
            // this run's band of each wide column; only the first band's
            // run keeps the subgroups that leave the column free
            let mut rest = run;
            let bands: Vec<(usize, &[u32], bool)> = wide
                .iter()
                .map(|(c, values)| {
                    let b = rest % n_bands(values);
                    rest /= n_bands(values);
                    (*c, values.chunks(BAND).nth(b).unwrap_or(&[]), b == 0)
                })
                .collect();
            let recoded = (!bands.is_empty()).then(|| recode(data, &bands));
            let data = recoded.as_ref().unwrap_or(data);
            // one scan thread: audits score small test sets, often on the
            // pipeline's branch threads, and spawning scan workers per
            // audit raised the pipeline benchmark's peak RSS by ~20%
            let leaves = ShardCounts::<ConfusionCounts>::scan_classes(data, &columns, &classes, 1)?;
            // a node survives when one of its regions has more than
            // `support` rows, i.e. at least `floor`
            let lattice = leaves.to_sparse(floor.saturating_sub(1) as u64)?;
            counts.overall = lattice.totals();
            for node in lattice.nodes() {
                for (&key, &tally) in &node.regions {
                    let mut pattern = lattice.pattern_of(node.mask, key);
                    let kept = bands.iter().all(|&(c, band, first)| match pattern.get(c) {
                        Some(code) => band
                            .get(code as usize)
                            .map(|&v| pattern.set(c, v))
                            .is_some(),
                        None => first,
                    });
                    if kept && tally.total() >= floor {
                        counts.groups.push((pattern, tally));
                    }
                }
            }
        }
        Ok(counts)
    }
}

/// A copy of `data` whose banded columns hold each value's position in
/// its band, and [`BAND`] for every value outside it.
fn recode(data: &Dataset, bands: &[(usize, &[u32], bool)]) -> Dataset {
    let mut attributes = data.schema().attributes().to_vec();
    let mut maps = Vec::new();
    for &(c, band, _) in bands {
        let domain = (0..=BAND).map(|code| code.to_string()).collect();
        attributes[c] = Attribute::new(attributes[c].name(), domain);
        let mut map = vec![BAND as u32; data.schema().attribute(c).cardinality()];
        for (code, &v) in band.iter().enumerate() {
            map[v as usize] = code as u32;
        }
        maps.push((c, map));
    }
    let schema = Schema::new(attributes, data.schema().label_name()).into_shared();
    let mut out = Dataset::with_capacity(schema, data.len());
    let mut row = Vec::new();
    for i in 0..data.len() {
        data.row_into(i, &mut row);
        for (c, map) in &maps {
            row[*c] = map[row[*c] as usize];
        }
        out.push_row(&row, data.label(i))
            .expect("recoded codes fit the recoded domain");
    }
    out
}

impl Explorer {
    /// Scores the aggregated subgroups that pass this explorer's size and
    /// support filters, sorted by descending divergence (DivExplorer's
    /// ranking), ties by pattern. `counts` must have been built for this
    /// explorer, alone or with others.
    pub(crate) fn score(&self, counts: &SubgroupCounts, stat: Statistic) -> Vec<SubgroupReport> {
        let overall = counts.overall;
        let n = overall.total();
        let gamma_d = statistic_of(&overall, stat);
        let mut reports: Vec<SubgroupReport> = counts
            .groups
            .iter()
            .filter_map(|(pattern, counts)| {
                let size = counts.total();
                let support = size as f64 / n as f64;
                if size < self.min_size || support < self.min_support {
                    return None;
                }
                let gamma_g = statistic_of(counts, stat);
                let (inside, outside) = bernoulli_samples(counts, &overall, stat);
                let p_value = welch_t_test(inside, outside).p_value;
                Some(SubgroupReport {
                    pattern: pattern.clone(),
                    size,
                    support,
                    gamma: gamma_g,
                    divergence: divergence(gamma_g, gamma_d),
                    p_value,
                    significant: p_value < self.alpha,
                    counts: *counts,
                })
            })
            .collect();
        reports.sort_by(|a, b| {
            b.divergence
                .partial_cmp(&a.divergence)
                .unwrap()
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
        reports
    }

    /// Scores every intersectional subgroup of the explorer's columns.
    /// Fails with [`CoreError::RowCountMismatch`] unless there is one
    /// prediction per row, and with the layout errors of core's leaf scan
    /// — no columns, more than 32, keys past 128 bits, or a frequent
    /// subgroup deeper than 16 attributes.
    pub fn explore(
        &self,
        data: &Dataset,
        predictions: &[u8],
        stat: Statistic,
    ) -> Result<Vec<SubgroupReport>, CoreError> {
        let counts = SubgroupCounts::build(data, predictions, &[self])?;
        Ok(self.score(&counts, stat))
    }

    /// The subgroups that are *unfair* at threshold `τ_d` (see
    /// [`SubgroupReport::is_unfair`]).
    pub fn unfair_subgroups(
        &self,
        data: &Dataset,
        predictions: &[u8],
        stat: Statistic,
        tau_d: f64,
    ) -> Result<Vec<SubgroupReport>, CoreError> {
        let mut reports = self.explore(data, predictions, stat)?;
        reports.retain(|r| r.is_unfair(tau_d));
        Ok(reports)
    }
}

/// Bernoulli samples (subgroup vs complement) underlying each statistic's
/// significance test.
fn bernoulli_samples(
    sub: &ConfusionCounts,
    overall: &ConfusionCounts,
    stat: Statistic,
) -> (Sample, Sample) {
    let (succ_in, n_in, succ_all, n_all) = match stat {
        Statistic::Fpr => (
            sub.fp as f64,
            sub.negatives() as f64,
            overall.fp as f64,
            overall.negatives() as f64,
        ),
        Statistic::Fnr => (
            sub.fn_ as f64,
            sub.positives() as f64,
            overall.fn_ as f64,
            overall.positives() as f64,
        ),
        Statistic::Accuracy => (
            (sub.tp + sub.tn) as f64,
            sub.total() as f64,
            (overall.tp + overall.tn) as f64,
            overall.total() as f64,
        ),
        Statistic::SelectionRate => (
            (sub.tp + sub.fp) as f64,
            sub.total() as f64,
            (overall.tp + overall.fp) as f64,
            overall.total() as f64,
        ),
    };
    let inside = Sample::bernoulli(succ_in, n_in);
    let outside = Sample::bernoulli(succ_all - succ_in, n_all - n_in);
    (inside, outside)
}

#[cfg(test)]
mod reference {
    //! The explorer as it was before it ran on core's counting engine:
    //! every leaf cell expanded into all `2^|X|` generalizations, filtered
    //! by support afterwards. Kept as the independent oracle the pruned
    //! aggregation is checked against.
    use super::*;
    use std::collections::HashMap;

    /// Confusion counts of every pattern over `columns`, including the
    /// empty pattern.
    pub fn aggregate_patterns(
        data: &Dataset,
        predictions: &[u8],
        columns: &[usize],
    ) -> HashMap<Pattern, ConfusionCounts> {
        let mut cells: HashMap<Vec<u32>, ConfusionCounts> = HashMap::new();
        for (i, &prediction) in predictions.iter().enumerate() {
            let key: Vec<u32> = columns.iter().map(|&a| data.value(i, a)).collect();
            cells.entry(key).or_default().add(prediction, data.label(i));
        }
        let mut out: HashMap<Pattern, ConfusionCounts> = HashMap::new();
        for (cell, counts) in &cells {
            for mask in 0u32..(1u32 << columns.len()) {
                let mut pattern = Pattern::empty();
                for (j, &attr) in columns.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        pattern.set(attr, cell[j]);
                    }
                }
                let entry = out.entry(pattern).or_default();
                *entry = entry.merge(counts);
            }
        }
        out
    }

    /// The pre-substrate `Explorer::explore` over an aggregated map.
    pub fn explore(
        explorer: &Explorer,
        patterns: &HashMap<Pattern, ConfusionCounts>,
        stat: Statistic,
    ) -> Vec<SubgroupReport> {
        let overall = patterns[&Pattern::empty()];
        let gamma_d = statistic_of(&overall, stat);
        let n = overall.total();
        let mut reports = Vec::new();
        for (pattern, &counts) in patterns {
            let size = counts.total();
            let support = size as f64 / n as f64;
            if pattern.is_empty() || size < explorer.min_size || support < explorer.min_support {
                continue;
            }
            let gamma_g = statistic_of(&counts, stat);
            let (inside, outside) = bernoulli_samples(&counts, &overall, stat);
            let test = welch_t_test(inside, outside);
            reports.push(SubgroupReport {
                pattern: pattern.clone(),
                size,
                support,
                gamma: gamma_g,
                divergence: divergence(gamma_g, gamma_d),
                p_value: test.p_value,
                significant: test.p_value < explorer.alpha,
                counts,
            });
        }
        reports.sort_by(|a, b| {
            b.divergence
                .partial_cmp(&a.divergence)
                .unwrap()
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_classifiers::{Model, ModelKind};
    use remedy_dataset::{synth, Attribute, Schema};

    /// Two protected attributes; the (a=1, b=1) corner gets all the false
    /// positives.
    fn biased_setup() -> (Dataset, Vec<u8>) {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1"]).protected(),
                Attribute::from_strs("f", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut preds = Vec::new();
        // 40 negatives per cell; corner cell gets FPR 1.0, others 0.0
        for a in 0..2u32 {
            for b in 0..2u32 {
                for i in 0..40 {
                    d.push_row(&[a, b, (i % 2) as u32], 0).unwrap();
                    preds.push(u8::from(a == 1 && b == 1));
                }
            }
        }
        (d, preds)
    }

    fn explore(explorer: &Explorer, d: &Dataset, preds: &[u8]) -> Vec<SubgroupReport> {
        explorer.explore(d, preds, Statistic::Fpr).unwrap()
    }

    #[test]
    fn enumerates_full_lattice() {
        let (d, preds) = biased_setup();
        let reports = explore(&Explorer::default(), &d, &preds);
        // patterns: a=0, a=1, b=0, b=1, and the four intersections = 8
        assert_eq!(reports.len(), 8);
    }

    #[test]
    fn corner_subgroup_ranks_first_and_is_significant() {
        let (d, preds) = biased_setup();
        let reports = explore(&Explorer::default(), &d, &preds);
        let top = &reports[0];
        assert_eq!(top.pattern.level(), 2);
        assert_eq!(top.pattern.get(0), Some(1));
        assert_eq!(top.pattern.get(1), Some(1));
        assert!((top.gamma - 1.0).abs() < 1e-12);
        // overall FPR = 40/160 = 0.25 → divergence 0.75
        assert!((top.divergence - 0.75).abs() < 1e-12);
        assert!(top.significant);
    }

    #[test]
    fn marginal_groups_show_intermediate_divergence() {
        let (d, preds) = biased_setup();
        let reports = explore(&Explorer::default(), &d, &preds);
        let a1 = reports
            .iter()
            .find(|r| r.pattern.level() == 1 && r.pattern.get(0) == Some(1))
            .unwrap();
        // a=1: 80 negatives, 40 FP → FPR 0.5, divergence 0.25
        assert!((a1.gamma - 0.5).abs() < 1e-12);
        assert!((a1.divergence - 0.25).abs() < 1e-12);
    }

    #[test]
    fn support_filter_prunes() {
        let (d, preds) = biased_setup();
        let explorer = Explorer {
            min_support: 0.3, // cells have support 0.25
            ..Explorer::default()
        };
        let reports = explore(&explorer, &d, &preds);
        assert!(reports.iter().all(|r| r.support >= 0.3));
        assert_eq!(reports.len(), 4); // only the level-1 groups survive
    }

    #[test]
    fn unfair_subgroups_apply_threshold() {
        let (d, preds) = biased_setup();
        let unfair = Explorer::default()
            .unfair_subgroups(&d, &preds, Statistic::Fpr, 0.3)
            .unwrap();
        // only the corner (0.75) exceeds 0.3 significantly
        assert_eq!(unfair.len(), 1);
        assert_eq!(unfair[0].pattern.level(), 2);
    }

    #[test]
    fn fnr_statistic_uses_positives() {
        let schema = Schema::new(
            vec![Attribute::from_strs("g", &["0", "1"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut preds = Vec::new();
        for g in 0..2u32 {
            for _ in 0..50 {
                d.push_row(&[g], 1).unwrap();
                preds.push(u8::from(g == 1)); // group 0 all FN
            }
        }
        let reports = Explorer::default()
            .explore(&d, &preds, Statistic::Fnr)
            .unwrap();
        let g0 = reports
            .iter()
            .find(|r| r.pattern.get(0) == Some(0))
            .unwrap();
        assert!((g0.gamma - 1.0).abs() < 1e-12);
        assert!(g0.significant);
    }

    #[test]
    fn custom_columns_explore_non_protected_attributes() {
        let (d, preds) = biased_setup();
        // explore over the (non-protected) feature column too, as the
        // paper's Example 2 does with #prior
        let explorer = Explorer {
            columns: Some(vec![0, 1, 2]),
            ..Explorer::default()
        };
        let reports = explore(&explorer, &d, &preds);
        assert!(
            reports.iter().any(|r| r.pattern.get(2).is_some()),
            "patterns over column f expected"
        );
        // full lattice over three binary-ish columns: (2+1)(2+1)(2+1)−1 = 26
        assert_eq!(reports.len(), 26);
    }

    #[test]
    fn balanced_predictions_are_not_significant() {
        let schema = Schema::new(
            vec![Attribute::from_strs("g", &["0", "1"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut preds = Vec::new();
        for g in 0..2u32 {
            for i in 0..100 {
                d.push_row(&[g], 0).unwrap();
                preds.push(u8::from(i % 4 == 0)); // identical FPR everywhere
            }
        }
        let reports = explore(&Explorer::default(), &d, &preds);
        assert!(reports.iter().all(|r| !r.significant));
        assert!(reports.iter().all(|r| r.divergence < 1e-12));
    }

    /// Seeded predictions: a decision tree's, with every `flip_every`-th
    /// row flipped so each statistic sees errors in every subgroup.
    fn predictions(data: &Dataset, seed: u64, flip_every: usize) -> Vec<u8> {
        let model = ModelKind::DecisionTree.fit(data, seed);
        let mut preds = model.predict(data);
        for (i, p) in preds.iter_mut().enumerate() {
            if (i * 7 + seed as usize).is_multiple_of(flip_every) {
                *p ^= 1;
            }
        }
        preds
    }

    #[test]
    fn explore_equals_the_full_expansion_reference() {
        let samples: Vec<(Dataset, Vec<Vec<usize>>)> = vec![
            (
                synth::compas_n(1_200, 11),
                vec![vec![], vec![0, 1, 2, 3, 4, 5]],
            ),
            (synth::adult_n(1_500, 3), vec![vec![], vec![0, 1, 2, 3, 8]]),
            (
                synth::law_school_n(900, 5),
                vec![vec![], vec![0, 1, 2, 5, 6]],
            ),
        ];
        let mut checked = 0;
        for (seed, (data, column_sets)) in samples.into_iter().enumerate() {
            let preds = predictions(&data, seed as u64 + 1, 5 + seed);
            for cols in column_sets {
                // an empty set stands for the schema's protected columns,
                // which the sets above extend with non-protected ones
                let columns = (!cols.is_empty()).then_some(cols);
                let spanned = columns
                    .clone()
                    .unwrap_or_else(|| data.schema().protected_indices());
                let patterns = reference::aggregate_patterns(&data, &preds, &spanned);
                for (min_support, min_size) in [(0.0, 1), (0.01, 1), (0.05, 30), (0.1, 0)] {
                    let explorer = Explorer {
                        min_support,
                        min_size,
                        columns: columns.clone(),
                        ..Explorer::default()
                    };
                    for stat in [
                        Statistic::Fpr,
                        Statistic::Fnr,
                        Statistic::Accuracy,
                        Statistic::SelectionRate,
                    ] {
                        let ours = explorer.explore(&data, &preds, stat).unwrap();
                        let oracle = reference::explore(&explorer, &patterns, stat);
                        assert_eq!(ours.len(), oracle.len(), "{spanned:?} {min_support} {stat}");
                        for (a, b) in ours.iter().zip(&oracle) {
                            assert_eq!(a.pattern, b.pattern);
                            assert_eq!(a.size, b.size);
                            assert_eq!(a.counts, b.counts);
                            assert_eq!(a.support.to_bits(), b.support.to_bits());
                            assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
                            assert_eq!(a.divergence.to_bits(), b.divergence.to_bits());
                            assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
                            assert_eq!(a.significant, b.significant);
                        }
                        checked += ours.len();
                    }
                }
            }
        }
        assert!(checked > 1_000, "only {checked} subgroups compared");
    }

    #[test]
    fn columns_past_255_categories_match_the_reference() {
        // z: 600 categories, every one present (three value bands at a
        // one-row floor); h: 300 categories, the even ones present
        let schema = Schema::new(
            vec![
                Attribute::new("z", (0..600).map(|v| v.to_string()).collect()).protected(),
                Attribute::new("h", (0..300).map(|v| v.to_string()).collect()).protected(),
                Attribute::from_strs("g", &["0", "1"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut preds = Vec::new();
        for i in 0..3_000u32 {
            let mix = i.wrapping_mul(2_654_435_761) >> 7;
            let row = [i % 600, (mix % 150) * 2, mix >> 9 & 1];
            d.push_row(&row, u8::from(mix % 3 == 0)).unwrap();
            preds.push(u8::from(mix % 5 < 2 || row[0] < 40));
        }
        let patterns = reference::aggregate_patterns(&d, &preds, &[0, 1, 2]);
        for (min_support, min_size) in [(0.0, 1), (0.0, 6), (0.01, 1)] {
            let explorer = Explorer {
                min_support,
                min_size,
                ..Explorer::default()
            };
            for stat in [Statistic::Fpr, Statistic::Accuracy] {
                let ours = explorer.explore(&d, &preds, stat).unwrap();
                assert_eq!(ours, reference::explore(&explorer, &patterns, stat));
                assert!(!ours.is_empty());
            }
        }
    }

    #[test]
    fn wide_arity_20_explore_answers() {
        let data = synth::wide_n(2_000, 20, 7);
        let preds = predictions(&data, 7, 9);
        let reports = Explorer::default()
            .explore(&data, &preds, Statistic::Fpr)
            .unwrap();
        assert!(!reports.is_empty());
        assert!(reports.iter().all(|r| r.size >= 20));
    }

    #[test]
    fn prediction_length_mismatch_is_a_typed_error() {
        let (d, preds) = biased_setup();
        let err = Explorer::default()
            .explore(&d, &preds[1..], Statistic::Fpr)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::RowCountMismatch {
                rows: d.len(),
                values: d.len() - 1
            }
        );
    }
}
