//! The paper's *Fairness Index* (§V-A.d).
//!
//! > "The index is calculated as the sum of the divergences for each unfair
//! > subgroup with a support (as a fraction of the dataset size) over 0.1
//! > and a statistically significant divergence (as determined by the
//! > t-test). […] Lower values indicate higher levels of fairness."

use crate::explorer::{Explorer, SubgroupReport};
use crate::measure::Statistic;
use remedy_core::CoreError;
use remedy_dataset::Dataset;

/// Parameters of the fairness index.
#[derive(Debug, Clone)]
pub struct FairnessIndexParams {
    /// Support threshold (fraction of the dataset); the paper uses 0.1.
    pub min_support: f64,
    /// Significance level of the Welch t-test; 0.05 by convention.
    pub alpha: f64,
}

impl Default for FairnessIndexParams {
    fn default() -> Self {
        FairnessIndexParams {
            min_support: 0.1,
            alpha: 0.05,
        }
    }
}

impl FairnessIndexParams {
    /// The explorer whose significant subgroups the index sums.
    pub fn explorer(&self) -> Explorer {
        Explorer {
            min_support: self.min_support,
            min_size: 1,
            alpha: self.alpha,
            columns: None,
        }
    }
}

/// Computes the fairness index of predictions under a statistic.
///
/// Sums `Δγ_g` over all intersectional subgroups of the protected
/// attributes whose support exceeds `min_support` and whose divergence is
/// statistically significant. Fails as [`Explorer::explore`] does.
pub fn fairness_index(
    data: &Dataset,
    predictions: &[u8],
    stat: Statistic,
    params: &FairnessIndexParams,
) -> Result<f64, CoreError> {
    let reports = params.explorer().explore(data, predictions, stat)?;
    Ok(index_of(&reports))
}

/// The index over subgroups its explorer already scored: the sum of the
/// significant divergences, in ranking order.
pub fn index_of(reports: &[SubgroupReport]) -> f64 {
    reports
        .iter()
        .filter(|r| r.significant)
        .map(|r| r.divergence)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn setup(biased: bool) -> (Dataset, Vec<u8>) {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1"]).protected(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        let mut preds = Vec::new();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for i in 0..60 {
                    d.push_row(&[a, b], 0).unwrap();
                    let fp = if biased { a == 1 && b == 1 } else { i % 5 == 0 };
                    preds.push(u8::from(fp));
                }
            }
        }
        (d, preds)
    }

    #[test]
    fn biased_predictions_score_higher() {
        let (d, biased_preds) = setup(true);
        let (_, fair_preds) = setup(false);
        let params = FairnessIndexParams::default();
        let biased_fi = fairness_index(&d, &biased_preds, Statistic::Fpr, &params).unwrap();
        let fair_fi = fairness_index(&d, &fair_preds, Statistic::Fpr, &params).unwrap();
        assert!(biased_fi > 0.5, "biased index {biased_fi}");
        assert!(fair_fi < 1e-9, "uniform predictions index {fair_fi}");
    }

    #[test]
    fn support_threshold_excludes_small_groups() {
        let (d, preds) = setup(true);
        // every pattern here has support 0.25 or 0.5; with min_support 0.6
        // nothing qualifies
        let params = FairnessIndexParams {
            min_support: 0.6,
            ..FairnessIndexParams::default()
        };
        assert_eq!(
            fairness_index(&d, &preds, Statistic::Fpr, &params).unwrap(),
            0.0
        );
    }

    #[test]
    fn index_is_sum_over_qualifying_groups() {
        let (d, preds) = setup(true);
        let params = FairnessIndexParams::default();
        let explorer = Explorer {
            min_support: params.min_support,
            min_size: 1,
            alpha: params.alpha,
            columns: None,
        };
        let manual: f64 = explorer
            .explore(&d, &preds, Statistic::Fpr)
            .unwrap()
            .into_iter()
            .filter(|r| r.significant)
            .map(|r| r.divergence)
            .sum();
        let index = fairness_index(&d, &preds, Statistic::Fpr, &params).unwrap();
        assert!((manual - index).abs() < 1e-12);
    }
}
