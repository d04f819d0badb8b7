//! Human-readable fairness audit reports.
//!
//! [`audit`] bundles the crate's metrics into one structured report —
//! overall confusion statistics, the fairness index per statistic, and the
//! ranked unfair subgroups — rendered as Markdown via `Display`. This is
//! the "hand this to a reviewer" artifact a practitioner wants after
//! running a model through the explorer.

use crate::confusion::ConfusionCounts;
use crate::explorer::{Explorer, SubgroupCounts, SubgroupReport};
use crate::index::{index_of, FairnessIndexParams};
use crate::measure::Statistic;
use crate::violation::{violation_explorer, worst_violation};
use remedy_core::CoreError;
use remedy_dataset::Dataset;
use std::fmt;

/// Configuration of a fairness audit.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Statistics to audit (defaults to the paper's FPR + FNR).
    pub statistics: Vec<Statistic>,
    /// Discrimination threshold `τ_d` for listing unfair subgroups.
    pub tau_d: f64,
    /// Minimum subgroup support.
    pub min_support: f64,
    /// How many unfair subgroups to keep per statistic.
    pub top_k: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            statistics: Statistic::PAPER.to_vec(),
            tau_d: 0.1,
            min_support: 0.05,
            top_k: 10,
        }
    }
}

/// The one-statistic audit `remedy audit` and serve `audit` report.
#[derive(Debug, Clone)]
pub struct AuditScore {
    /// Plain prediction accuracy.
    pub accuracy: f64,
    /// The fairness index at the paper's settings (support 0.1).
    pub fairness_index: f64,
    /// Significant unfair subgroups of at least 30 rows.
    pub unfair: Vec<SubgroupReport>,
}

/// Scores predictions on the test set they were made for: accuracy, the
/// fairness index, and the subgroups with `Δγ > tau_d` and support at
/// least `min_support` — all from one subgroup aggregation. Fails as
/// [`Explorer::explore`] does.
pub fn audit_score(
    test_set: &Dataset,
    predictions: &[u8],
    stat: Statistic,
    tau_d: f64,
    min_support: f64,
) -> Result<AuditScore, CoreError> {
    let index = FairnessIndexParams::default().explorer();
    let explorer = Explorer {
        min_support,
        min_size: 30,
        ..Explorer::default()
    };
    let counts = SubgroupCounts::build(test_set, predictions, &[&index, &explorer])?;
    let mut unfair = explorer.score(&counts, stat);
    unfair.retain(|r| r.is_unfair(tau_d));
    Ok(AuditScore {
        accuracy: counts.overall.accuracy(),
        fairness_index: index_of(&index.score(&counts, stat)),
        unfair,
    })
}

/// One statistic's section of the report.
#[derive(Debug, Clone)]
pub struct StatisticSection {
    /// The audited statistic.
    pub statistic: Statistic,
    /// Dataset-level value `γ_d`.
    pub overall: f64,
    /// The fairness index (sum of significant divergences, support ≥ 0.1).
    pub fairness_index: f64,
    /// GerryFair-style worst violation (divergence × mass).
    pub worst_violation: f64,
    /// Ranked unfair subgroups (top-k).
    pub unfair_subgroups: Vec<SubgroupReport>,
}

/// The complete audit.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Rows audited.
    pub n_rows: usize,
    /// Overall confusion counts.
    pub confusion: ConfusionCounts,
    /// Names of the protected attributes spanned.
    pub protected: Vec<String>,
    /// One section per audited statistic.
    pub sections: Vec<StatisticSection>,
    /// Rendering context: attribute/value names for the patterns.
    schema: std::sync::Arc<remedy_dataset::Schema>,
}

/// Audits predictions against a dataset: every statistic's index,
/// violation and unfair list come from one subgroup aggregation. Fails as
/// [`Explorer::explore`] does.
pub fn audit(
    data: &Dataset,
    predictions: &[u8],
    config: &AuditConfig,
) -> Result<AuditReport, CoreError> {
    let listing = Explorer {
        min_support: config.min_support,
        ..Explorer::default()
    };
    let index = FairnessIndexParams::default().explorer();
    let violation = violation_explorer(30);
    let counts = SubgroupCounts::build(data, predictions, &[&listing, &index, &violation])?;
    let confusion = counts.overall;
    let sections = config
        .statistics
        .iter()
        .map(|&statistic| {
            let mut unfair = listing.score(&counts, statistic);
            unfair.retain(|r| r.is_unfair(config.tau_d));
            unfair.truncate(config.top_k);
            StatisticSection {
                statistic,
                overall: crate::measure::statistic_of(&confusion, statistic),
                fairness_index: index_of(&index.score(&counts, statistic)),
                worst_violation: worst_violation(&violation.score(&counts, statistic)).0,
                unfair_subgroups: unfair,
            }
        })
        .collect();
    Ok(AuditReport {
        n_rows: data.len(),
        confusion,
        protected: data
            .schema()
            .protected_indices()
            .into_iter()
            .map(|i| data.schema().attribute(i).name().to_string())
            .collect(),
        sections,
        schema: data.schema_arc(),
    })
}

impl AuditReport {
    /// Whether any audited statistic exposed an unfair subgroup.
    pub fn has_findings(&self) -> bool {
        self.sections.iter().any(|s| !s.unfair_subgroups.is_empty())
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Subgroup fairness audit")?;
        writeln!(f)?;
        writeln!(
            f,
            "- rows: {}, protected attributes: {}",
            self.n_rows,
            self.protected.join(", ")
        )?;
        writeln!(
            f,
            "- accuracy {:.3}, FPR {:.3}, FNR {:.3}, selection rate {:.3}",
            self.confusion.accuracy(),
            self.confusion.fpr(),
            self.confusion.fnr(),
            self.confusion.selection_rate()
        )?;
        for section in &self.sections {
            writeln!(f)?;
            writeln!(f, "## γ = {}", section.statistic)?;
            writeln!(f)?;
            writeln!(
                f,
                "overall {:.3} · fairness index {:.3} · worst violation {:.4}",
                section.overall, section.fairness_index, section.worst_violation
            )?;
            if section.unfair_subgroups.is_empty() {
                writeln!(f, "\nno significant unfair subgroups found.")?;
                continue;
            }
            writeln!(f)?;
            writeln!(f, "| subgroup | γ_g | Δγ_g | support | p |")?;
            writeln!(f, "|---|---|---|---|---|")?;
            for r in &section.unfair_subgroups {
                writeln!(
                    f,
                    "| {} | {:.3} | {:.3} | {:.2} | {:.1e} |",
                    r.pattern.display(&self.schema),
                    r.gamma,
                    r.divergence,
                    r.support,
                    r.p_value
                )?;
            }
        }
        Ok(())
    }
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
                for i in 0..60 {
                    let y = u8::from(i % 2 == 0);
                    d.push_row(&[a, b], y).unwrap();
                    // the (1,1) corner over-predicts
                    preds.push(u8::from(a == 1 && b == 1 || y == 1 && i % 4 == 0));
                }
            }
        }
        (d, preds)
    }

    #[test]
    fn report_structure() {
        let (d, preds) = setup();
        let report = audit(&d, &preds, &AuditConfig::default()).unwrap();
        assert_eq!(report.n_rows, d.len());
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.protected, vec!["a", "b"]);
        assert!(report.has_findings());
    }

    #[test]
    fn markdown_rendering_contains_key_facts() {
        let (d, preds) = setup();
        let report = audit(&d, &preds, &AuditConfig::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("# Subgroup fairness audit"));
        assert!(text.contains("γ = FPR"));
        assert!(text.contains("γ = FNR"));
        assert!(text.contains("| subgroup |"));
        assert!(text.contains("(a = 1 ∧ b = 1)"));
    }

    #[test]
    fn clean_predictions_have_no_findings() {
        let (d, _) = setup();
        let preds: Vec<u8> = d.labels().to_vec(); // perfect predictions
        let report = audit(&d, &preds, &AuditConfig::default()).unwrap();
        assert!(!report.has_findings());
        assert!(report
            .to_string()
            .contains("no significant unfair subgroups"));
    }

    #[test]
    fn top_k_truncates() {
        let (d, preds) = setup();
        let config = AuditConfig {
            top_k: 1,
            ..AuditConfig::default()
        };
        let report = audit(&d, &preds, &config).unwrap();
        for s in &report.sections {
            assert!(s.unfair_subgroups.len() <= 1);
        }
    }
}
