//! GerryFair's *fairness violation* metric (§V-B4).
//!
//! > "GerryFair utilizes a distinct subgroup fairness metric based on
//! > fairness violation, defined as the subgroup with the greatest
//! > performance divergence multiplied by its violated group size."
//!
//! We compute `max_g Δγ_g · (|g| / |D|)` over all intersectional subgroups
//! of the protected attributes — the auditing objective of Kearns et al.'s
//! learner/auditor game.

use crate::explorer::{Explorer, SubgroupReport};
use crate::measure::Statistic;
use remedy_core::CoreError;
use remedy_dataset::{Dataset, Pattern};

/// The explorer whose subgroups the violation ranges over: every subgroup
/// of at least `min_size` rows, significant or not (significance is not
/// part of GerryFair's metric).
pub(crate) fn violation_explorer(min_size: usize) -> Explorer {
    Explorer {
        min_support: 0.0,
        min_size,
        alpha: 1.1,
        columns: None,
    }
}

/// The worst subgroup violation: divergence × subgroup mass.
///
/// Returns `(violation, pattern)` for the maximizing subgroup, or
/// `(0.0, empty)` when no subgroup qualifies. Fails as
/// [`Explorer::explore`] does.
pub fn fairness_violation_with_group(
    data: &Dataset,
    predictions: &[u8],
    stat: Statistic,
    min_size: usize,
) -> Result<(f64, Pattern), CoreError> {
    let reports = violation_explorer(min_size).explore(data, predictions, stat)?;
    Ok(worst_violation(&reports))
}

/// The maximizing `divergence × support` over subgroups the violation
/// explorer scored, with its pattern; ties go to the smaller pattern.
pub(crate) fn worst_violation(reports: &[SubgroupReport]) -> (f64, Pattern) {
    reports
        .iter()
        .map(|r| (r.divergence * r.support, &r.pattern))
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| b.1.cmp(a.1)))
        .map_or((0.0, Pattern::empty()), |(v, p)| (v, p.clone()))
}

/// The worst subgroup violation value (see
/// [`fairness_violation_with_group`]).
pub fn fairness_violation(
    data: &Dataset,
    predictions: &[u8],
    stat: Statistic,
    min_size: usize,
) -> Result<f64, CoreError> {
    Ok(fairness_violation_with_group(data, predictions, stat, min_size)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn setup() -> (Dataset, Vec<u8>) {
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
                for _ in 0..50 {
                    d.push_row(&[a, b], 0).unwrap();
                    preds.push(u8::from(a == 1 && b == 1));
                }
            }
        }
        (d, preds)
    }

    #[test]
    fn violation_balances_divergence_and_mass() {
        let (d, preds) = setup();
        let (v, g) = fairness_violation_with_group(&d, &preds, Statistic::Fpr, 1).unwrap();
        // overall FPR 0.25.
        // corner: divergence 0.75 × support 0.25 = 0.1875
        // a=1 marginal: divergence 0.25 × support 0.5 = 0.125
        assert!((v - 0.1875).abs() < 1e-12, "violation {v}");
        assert_eq!(g.level(), 2);
    }

    #[test]
    fn perfect_predictions_have_zero_violation() {
        let (d, _) = setup();
        let preds = vec![0u8; d.len()];
        assert_eq!(
            fairness_violation(&d, &preds, Statistic::Fpr, 1).unwrap(),
            0.0
        );
    }

    #[test]
    fn min_size_filters_tiny_groups() {
        let (d, preds) = setup();
        // every subgroup has ≥ 50 rows, so a 60-row floor removes the
        // corner cells but keeps the marginals
        let (v, g) = fairness_violation_with_group(&d, &preds, Statistic::Fpr, 60).unwrap();
        assert_eq!(g.level(), 1);
        assert!((v - 0.125).abs() < 1e-12, "violation {v}");
    }
}
