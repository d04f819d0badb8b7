//! Empirical validation of Hypothesis 1 (§II-B.c / §V-B1):
//! unfair subgroups coincide with — or dominate — regions in the IBS.
//!
//! This is the programmatic form of the paper's Figure 3 analysis: given a
//! model's predictions and the training data's IBS, every unfair subgroup
//! is classified as *in IBS* (the paper's grey marking), *dominating* a
//! biased region (blue), or unexplained. The paper's claim is that the
//! unexplained fraction is (near) zero, and that the sign of the imbalance
//! gap predicts the direction of unfairness.

use crate::identify::BiasedRegion;
use remedy_dataset::{Dataset, Pattern};
use remedy_fairness::explorer::SubgroupReport;
use remedy_fairness::Statistic;

/// How one unfair subgroup relates to the IBS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbsMark {
    /// The subgroup's own region is in the IBS (grey in Fig. 3).
    InIbs,
    /// The subgroup strictly dominates at least one biased region (blue).
    DominatesIbs,
    /// Neither — unexplained by representation bias.
    Unexplained,
}

/// One subgroup's validation record.
#[derive(Debug, Clone)]
pub struct MarkedSubgroup {
    /// The unfair subgroup.
    pub report: SubgroupReport,
    /// Its relationship to the IBS.
    pub mark: IbsMark,
    /// Sign of the (nearest dominated) biased region's imbalance gap:
    /// `Some(true)` when `ratio_r > ratio_rn` (excess positives),
    /// `Some(false)` when below, `None` when unexplained.
    pub excess_positives: Option<bool>,
}

/// Aggregate validation outcome.
#[derive(Debug, Clone)]
pub struct HypothesisValidation {
    /// Every unfair subgroup with its mark.
    pub subgroups: Vec<MarkedSubgroup>,
    /// The statistic the unfairness was measured under.
    pub statistic: Statistic,
}

impl HypothesisValidation {
    /// Number of unfair subgroups examined.
    pub fn total(&self) -> usize {
        self.subgroups.len()
    }

    /// Number explained by the IBS (in it or dominating it).
    pub fn explained(&self) -> usize {
        self.subgroups
            .iter()
            .filter(|s| s.mark != IbsMark::Unexplained)
            .count()
    }

    /// Fraction explained (`1.0` for an empty set: nothing to explain).
    pub fn explained_fraction(&self) -> f64 {
        if self.subgroups.is_empty() {
            1.0
        } else {
            self.explained() as f64 / self.total() as f64
        }
    }

    /// Fraction of explained subgroups whose gap sign matches the paper's
    /// prediction: excess positives ↔ elevated FPR, deficit ↔ elevated
    /// FNR. Only meaningful under `γ ∈ {FPR, FNR}`; returns `None`
    /// otherwise or when nothing is explained.
    pub fn sign_agreement(&self, gamma_overall: f64) -> Option<f64> {
        if !matches!(self.statistic, Statistic::Fpr | Statistic::Fnr) {
            return None;
        }
        let mut agree = 0usize;
        let mut counted = 0usize;
        for s in &self.subgroups {
            let Some(excess) = s.excess_positives else {
                continue;
            };
            counted += 1;
            let elevated = s.report.gamma > gamma_overall;
            let expected_excess = match self.statistic {
                Statistic::Fpr => elevated,
                Statistic::Fnr => !elevated,
                _ => unreachable!(),
            };
            agree += usize::from(excess == expected_excess);
        }
        if counted == 0 {
            None
        } else {
            Some(agree as f64 / counted as f64)
        }
    }
}

/// Cross-references unfair subgroups with the IBS.
pub fn validate_hypothesis(
    unfair: &[SubgroupReport],
    ibs: &[BiasedRegion],
    statistic: Statistic,
) -> HypothesisValidation {
    let subgroups = unfair
        .iter()
        .map(|report| {
            let own = ibs.iter().find(|r| r.pattern == report.pattern);
            let dominated = ibs
                .iter()
                .find(|r| report.pattern.dominates(&r.pattern) && r.pattern != report.pattern);
            let (mark, region) = match (own, dominated) {
                (Some(r), _) => (IbsMark::InIbs, Some(r)),
                (None, Some(r)) => (IbsMark::DominatesIbs, Some(r)),
                (None, None) => (IbsMark::Unexplained, None),
            };
            MarkedSubgroup {
                report: report.clone(),
                mark,
                excess_positives: region.map(|r| r.ratio < 0.0 || r.ratio > r.neighbor_ratio),
            }
        })
        .collect();
    HypothesisValidation {
        subgroups,
        statistic,
    }
}

/// Convenience: true when a pattern matches or generalizes any IBS region.
pub fn is_explained(pattern: &Pattern, ibs: &[BiasedRegion]) -> bool {
    ibs.iter().any(|r| pattern.dominates(&r.pattern))
}

/// End-to-end Figure 3 run: identify the IBS on training data, find unfair
/// subgroups in test predictions, and cross-reference. Both steps use the
/// schema's protected attributes.
pub fn validate_on(
    train: &Dataset,
    test: &Dataset,
    predictions: &[u8],
    statistic: Statistic,
    params: &crate::identify::IbsParams,
    tau_d: f64,
) -> HypothesisValidation {
    let protected = train.schema().protected_indices();
    validate_on_columns(
        train,
        test,
        predictions,
        statistic,
        params,
        tau_d,
        &protected,
    )
}

/// Like [`validate_on`] but over an explicit column set — the paper's own
/// examples span non-protected attributes (Example 2's `#prior`, the
/// Figure 1 hierarchy over `{Age, #prior, Race}`), which this enables.
#[allow(clippy::too_many_arguments)]
pub fn validate_on_columns(
    train: &Dataset,
    test: &Dataset,
    predictions: &[u8],
    statistic: Statistic,
    params: &crate::identify::IbsParams,
    tau_d: f64,
    columns: &[usize],
) -> HypothesisValidation {
    let ibs = crate::identify::try_identify_over(
        train,
        columns,
        params,
        crate::identify::Algorithm::Optimized,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let explorer = remedy_fairness::Explorer {
        min_support: 0.05,
        min_size: 30,
        alpha: 0.05,
        max_level: None,
        columns: Some(columns.to_vec()),
    };
    let unfair = explorer.unfair_subgroups(test, predictions, statistic, tau_d);
    validate_hypothesis(&unfair, &ibs, statistic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, Algorithm, IbsParams};
    use remedy_dataset::split::train_test_split;
    use remedy_dataset::synth;
    use remedy_fairness::Explorer;

    #[test]
    fn compas_unfair_subgroups_are_explained() {
        let data = synth::compas_n(4_000, 11);
        let (train, test) = train_test_split(&data, 0.7, 11).unwrap();
        let model =
            remedy_classifiers::train(remedy_classifiers::ModelKind::DecisionTree, &train, 11);
        let predictions = model.predict(&test);
        let validation = validate_on(
            &train,
            &test,
            &predictions,
            Statistic::Fpr,
            &IbsParams::default(),
            0.1,
        );
        assert!(validation.total() > 0, "expected some unfair subgroups");
        assert!(
            validation.explained_fraction() > 0.9,
            "Hypothesis 1: {}/{} explained",
            validation.explained(),
            validation.total()
        );
    }

    #[test]
    fn sign_agreement_is_high_for_fpr() {
        let data = synth::compas_n(4_000, 3);
        let (train, test) = train_test_split(&data, 0.7, 3).unwrap();
        let model =
            remedy_classifiers::train(remedy_classifiers::ModelKind::DecisionTree, &train, 3);
        let predictions = model.predict(&test);
        let validation = validate_on(
            &train,
            &test,
            &predictions,
            Statistic::Fpr,
            &IbsParams::default(),
            0.1,
        );
        let overall =
            remedy_fairness::ConfusionCounts::from_predictions(&predictions, test.labels()).fpr();
        if let Some(agreement) = validation.sign_agreement(overall) {
            assert!(agreement > 0.6, "gap-sign agreement {agreement}");
        }
    }

    #[test]
    fn unexplained_subgroups_are_marked() {
        // empty IBS → everything unexplained
        let data = synth::compas_n(2_000, 5);
        let model =
            remedy_classifiers::train(remedy_classifiers::ModelKind::DecisionTree, &data, 5);
        let predictions = model.predict(&data);
        let unfair = Explorer::default().unfair_subgroups(&data, &predictions, Statistic::Fpr, 0.1);
        let validation = validate_hypothesis(&unfair, &[], Statistic::Fpr);
        assert_eq!(validation.explained(), 0);
        if !unfair.is_empty() {
            assert_eq!(validation.explained_fraction(), 0.0);
        }
        // and with the real IBS, is_explained agrees with the marks
        let ibs = identify(&data, &IbsParams::default(), Algorithm::Optimized);
        let validation = validate_hypothesis(&unfair, &ibs, Statistic::Fpr);
        for s in &validation.subgroups {
            assert_eq!(
                s.mark != IbsMark::Unexplained,
                is_explained(&s.report.pattern, &ibs)
            );
        }
    }

    #[test]
    fn selection_rate_has_no_sign_prediction() {
        let validation = HypothesisValidation {
            subgroups: vec![],
            statistic: Statistic::SelectionRate,
        };
        assert_eq!(validation.sign_agreement(0.5), None);
        assert_eq!(validation.explained_fraction(), 1.0);
    }
}
