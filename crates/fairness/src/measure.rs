//! Model statistics `γ` and subgroup divergence (Definition 1).

use crate::confusion::ConfusionCounts;
use remedy_dataset::vocab::{self, Tokens};
use remedy_dataset::{Dataset, Pattern};

/// The model statistic `γ` a fairness analysis is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Statistic {
    /// False-positive rate (the *predictive equality* / equal-opportunity
    /// family of constraints).
    #[default]
    Fpr,
    /// False-negative rate (part of *equalized odds*).
    Fnr,
    /// Prediction accuracy (discussed but not evaluated in the paper).
    Accuracy,
    /// Selection rate `Pr[h(x)=1]` (statistical parity).
    SelectionRate,
}

impl Statistic {
    /// Both statistics the paper evaluates, in its order.
    pub const PAPER: [Statistic; 2] = [Statistic::Fpr, Statistic::Fnr];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Statistic::Fpr => "FPR",
            Statistic::Fnr => "FNR",
            Statistic::Accuracy => "ACC",
            Statistic::SelectionRate => "SEL",
        }
    }

    /// The inverse of [`Statistic::name`], over every statistic the
    /// token table lists.
    pub fn from_name(name: &str) -> Option<Statistic> {
        STATISTIC_TOKENS
            .iter()
            .map(|&(stat, _)| stat)
            .find(|stat| stat.name() == name)
    }
}

/// The accepted spelling of each statistic.
const STATISTIC_TOKENS: &Tokens<Statistic> = &[
    (Statistic::Fpr, &["fpr"]),
    (Statistic::Fnr, &["fnr"]),
    (Statistic::Accuracy, &["acc"]),
    (Statistic::SelectionRate, &["sel"]),
];

impl std::str::FromStr for Statistic {
    type Err = String;
    fn from_str(s: &str) -> Result<Statistic, String> {
        vocab::parse(STATISTIC_TOKENS, s)
    }
}

impl std::fmt::Display for Statistic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Evaluates a statistic on confusion counts.
pub fn statistic_of(counts: &ConfusionCounts, stat: Statistic) -> f64 {
    match stat {
        Statistic::Fpr => counts.fpr(),
        Statistic::Fnr => counts.fnr(),
        Statistic::Accuracy => counts.accuracy(),
        Statistic::SelectionRate => counts.selection_rate(),
    }
}

/// Divergence `Δγ_g = |γ_g − γ_d|` of a subgroup statistic from the overall
/// dataset statistic.
pub fn divergence(gamma_subgroup: f64, gamma_dataset: f64) -> f64 {
    (gamma_subgroup - gamma_dataset).abs()
}

/// Convenience: confusion counts restricted to a subgroup pattern.
pub fn subgroup_counts(data: &Dataset, predictions: &[u8], pattern: &Pattern) -> ConfusionCounts {
    assert_eq!(predictions.len(), data.len(), "length mismatch");
    ConfusionCounts::from_masked(predictions, data.labels(), |i| data.matches(pattern, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    #[test]
    fn statistic_tokens_parse_and_reject() {
        let err = "x".parse::<Statistic>().unwrap_err();
        assert_eq!(err, "`x` is not fpr|fnr|acc|sel");
        for (stat, spellings) in STATISTIC_TOKENS {
            assert!(err.contains(spellings[0]));
            for spelling in *spellings {
                assert_eq!(spelling.parse::<Statistic>().unwrap(), *stat);
            }
        }
        assert_eq!(Statistic::default(), Statistic::Fpr);
    }

    #[test]
    fn from_name_inverts_name() {
        for &(stat, _) in STATISTIC_TOKENS {
            assert_eq!(Statistic::from_name(stat.name()), Some(stat));
        }
        assert_eq!(Statistic::from_name("fpr"), None, "tokens are not names");
    }

    fn setup() -> (Dataset, Vec<u8>) {
        let schema = Schema::new(
            vec![Attribute::from_strs("g", &["a", "b"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        // group a: 2 negatives, both predicted positive (FPR 1.0)
        d.push_row(&[0], 0).unwrap();
        d.push_row(&[0], 0).unwrap();
        // group b: 2 negatives predicted negative, 2 positives predicted
        // positive
        d.push_row(&[1], 0).unwrap();
        d.push_row(&[1], 0).unwrap();
        d.push_row(&[1], 1).unwrap();
        d.push_row(&[1], 1).unwrap();
        let preds = vec![1, 1, 0, 0, 1, 1];
        (d, preds)
    }

    #[test]
    fn statistic_dispatch() {
        let c = ConfusionCounts {
            tp: 1,
            fp: 1,
            tn: 3,
            fn_: 1,
        };
        assert_eq!(statistic_of(&c, Statistic::Fpr), c.fpr());
        assert_eq!(statistic_of(&c, Statistic::Fnr), c.fnr());
        assert_eq!(statistic_of(&c, Statistic::Accuracy), c.accuracy());
        assert_eq!(
            statistic_of(&c, Statistic::SelectionRate),
            c.selection_rate()
        );
    }

    /// Definition 1 on the fixture: `Δγ_g = |γ_g − γ_d|` against the
    /// whole dataset, and a subgroup is `τ_d`-fair iff `Δγ_g ≤ τ_d`.
    #[test]
    fn definition_1_divergence_and_threshold() {
        let (d, preds) = setup();
        let overall = statistic_of(
            &ConfusionCounts::from_predictions(&preds, d.labels()),
            Statistic::Fpr,
        );
        let div = |code: u32| {
            let pattern = Pattern::from_terms([(0usize, code)]);
            let sub = subgroup_counts(&d, &preds, &pattern);
            divergence(statistic_of(&sub, Statistic::Fpr), overall)
        };
        // overall FPR = 2/4 = 0.5; group a FPR = 1.0 → divergence 0.5
        assert!((div(0) - 0.5).abs() < 1e-12);
        // group b FPR = 0 → divergence 0.5 as well
        assert!((div(1) - 0.5).abs() < 1e-12);
        // unfair at τ_d = 0.1, fair at τ_d = 0.6
        assert!(div(0) > 0.1);
        assert!(div(0) <= 0.6);
    }

    #[test]
    fn divergence_is_symmetric_absolute() {
        assert_eq!(divergence(0.3, 0.7), divergence(0.7, 0.3));
        assert_eq!(divergence(0.5, 0.5), 0.0);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Statistic::Fpr.to_string(), "FPR");
        assert_eq!(Statistic::Fnr.to_string(), "FNR");
    }
}
