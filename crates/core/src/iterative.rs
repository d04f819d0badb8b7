//! Iterated remedy: re-run Algorithm 2 until the IBS is (nearly) empty.
//!
//! §VI of the paper notes a limitation of the single-pass remedy:
//!
//! > "the remedy algorithm does not guarantee achieving an optimal dataset
//! > where the difference between the imbalance score and that of the
//! > neighboring region is zero for all regions, as adjustments in one
//! > region may impact others."
//!
//! This module adds the natural fixpoint extension: identify → remedy →
//! re-identify, stopping when no biased regions remain, when progress
//! stalls, or when a round budget is exhausted. Each round's IBS size is
//! recorded so convergence can be inspected (and is asserted to be
//! monotone-ish in tests).

use crate::identify::{try_identify_over, Algorithm};
use crate::remedy::{remedy_over_with, RegionUpdate, RemedyParams};
use remedy_dataset::Dataset;
use remedy_obs::Scope as ObsScope;

/// Configuration of the iterated remedy.
#[derive(Debug, Clone)]
pub struct IterativeParams {
    /// Per-round remedy parameters.
    pub remedy: RemedyParams,
    /// Maximum rounds (the first round is round 1).
    pub max_rounds: usize,
    /// Stop once the IBS shrinks to this size.
    pub target_ibs: usize,
}

impl Default for IterativeParams {
    fn default() -> Self {
        IterativeParams {
            remedy: RemedyParams::default(),
            max_rounds: 5,
            target_ibs: 0,
        }
    }
}

/// Outcome of the iterated remedy.
#[derive(Debug, Clone)]
pub struct IterativeOutcome {
    /// The dataset after the final round.
    pub dataset: Dataset,
    /// IBS size measured *before* each executed round, followed by the
    /// final size (so `ibs_trace.len() == rounds + 1`).
    pub ibs_trace: Vec<usize>,
    /// All region updates, across rounds in order.
    pub updates: Vec<RegionUpdate>,
}

impl IterativeOutcome {
    /// Number of remedy rounds executed.
    pub fn rounds(&self) -> usize {
        self.ibs_trace.len().saturating_sub(1)
    }

    /// Whether the final IBS met the target.
    pub fn converged(&self, target: usize) -> bool {
        self.ibs_trace.last().is_some_and(|&n| n <= target)
    }
}

/// Repeats identify → remedy until convergence (schema-declared protected
/// attributes).
pub fn remedy_iterative(data: &Dataset, params: &IterativeParams) -> IterativeOutcome {
    let protected = data.schema().protected_indices();
    remedy_iterative_over(data, &protected, params)
}

/// Repeats identify → remedy over an explicit protected-column set.
pub fn remedy_iterative_over(
    data: &Dataset,
    protected: &[usize],
    params: &IterativeParams,
) -> IterativeOutcome {
    let ibs_params = params.remedy.ibs_params();
    let ibs_size = |d: &Dataset| {
        try_identify_over(d, protected, &ibs_params, Algorithm::Optimized)
            .unwrap_or_else(|e| panic!("{e}"))
            .len()
    };
    let mut current = data.clone();
    let mut ibs_trace = Vec::with_capacity(params.max_rounds + 1);
    let mut updates = Vec::new();
    let mut size = ibs_size(&current);
    ibs_trace.push(size);
    for round in 0..params.max_rounds {
        if size <= params.target_ibs {
            break;
        }
        // vary the sampling seed per round so repeated rounds don't keep
        // duplicating/removing the exact same instances
        let round_params = RemedyParams {
            seed: params.remedy.seed.wrapping_add(round as u64),
            ..params.remedy.clone()
        };
        let outcome = remedy_over_with(&current, protected, &round_params, &ObsScope::disabled());
        let progressed = !outcome.updates.is_empty();
        current = outcome.dataset;
        updates.extend(outcome.updates);
        size = ibs_size(&current);
        ibs_trace.push(size);
        if !progressed {
            break; // nothing remediable remains (e.g. sentinel targets)
        }
    }
    IterativeOutcome {
        dataset: current,
        ibs_trace,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remedy::Technique;
    use remedy_dataset::synth;

    #[test]
    fn iteration_shrinks_the_ibs() {
        let data = synth::compas_n(4_000, 2);
        let params = IterativeParams {
            remedy: RemedyParams {
                technique: Technique::PreferentialSampling,
                ..RemedyParams::default()
            },
            max_rounds: 4,
            target_ibs: 0,
        };
        let outcome = remedy_iterative(&data, &params);
        let first = outcome.ibs_trace[0];
        let last = *outcome.ibs_trace.last().unwrap();
        assert!(first > 0, "synthetic data must contain IBS");
        assert!(
            last < first / 2,
            "iteration should at least halve the IBS: {:?}",
            outcome.ibs_trace
        );
        assert!(outcome.rounds() >= 1);
        assert_eq!(outcome.ibs_trace.len(), outcome.rounds() + 1);
    }

    #[test]
    fn stops_immediately_on_clean_data() {
        // already-uniform data: round loop must not run
        let data = {
            use remedy_dataset::{Attribute, Dataset, Schema};
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
            d
        };
        let outcome = remedy_iterative(&data, &IterativeParams::default());
        assert_eq!(outcome.rounds(), 0);
        assert!(outcome.converged(0));
        assert_eq!(outcome.dataset, data);
        assert!(outcome.updates.is_empty());
    }

    #[test]
    fn respects_round_budget() {
        let data = synth::compas_n(3_000, 9);
        let params = IterativeParams {
            max_rounds: 1,
            ..IterativeParams::default()
        };
        let outcome = remedy_iterative(&data, &params);
        assert!(outcome.rounds() <= 1);
    }

    #[test]
    fn single_round_equals_plain_remedy() {
        let data = synth::compas_n(2_000, 4);
        let params = IterativeParams {
            max_rounds: 1,
            ..IterativeParams::default()
        };
        let iterative = remedy_iterative(&data, &params);
        let plain = crate::remedy::remedy(&data, &params.remedy);
        assert_eq!(iterative.dataset, plain.dataset);
        assert_eq!(iterative.updates, plain.updates);
    }
}
