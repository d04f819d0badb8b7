//! A compact, exactly-serializable bundle of audit metrics.
//!
//! Pipeline audit stages cache their result like every other artifact;
//! [`MetricsSummary`] is that artifact — accuracy, the paper's Fairness
//! Index, and the unfair-subgroup count for one (dataset, model, γ)
//! combination. Floats are stored as `f64::to_bits` hex so a cache hit
//! reproduces the original run bit for bit.

use crate::measure::Statistic;
use remedy_dataset::format::{DecodeError, Fields, Lines, Magic};

const MAGIC: Magic = Magic::new("remedy-metrics", 1);

/// Audit metrics for one trained model on one test set.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// The statistic γ the fairness figures refer to.
    pub statistic: Statistic,
    /// Plain prediction accuracy on the test set.
    pub accuracy: f64,
    /// The paper's Fairness Index (§V-A.d): summed divergence over
    /// significant unfair subgroups.
    pub fairness_index: f64,
    /// Number of significant unfair subgroups at the audit's `τ_d`.
    pub unfair_subgroups: u64,
    /// Number of test rows the metrics were computed on.
    pub test_rows: u64,
}

impl MetricsSummary {
    /// Serializes the summary.
    pub fn to_text(&self) -> String {
        format!(
            "{}\nstat {}\naccuracy {:016x}\nfairness-index {:016x}\nunfair {}\nrows {}\n",
            MAGIC.line(),
            self.statistic,
            self.accuracy.to_bits(),
            self.fairness_index.to_bits(),
            self.unfair_subgroups,
            self.test_rows
        )
    }

    /// Parses a summary written by [`MetricsSummary::to_text`].
    pub fn from_text(text: &str) -> Result<MetricsSummary, DecodeError> {
        let mut lines = Lines::open(text, MAGIC)?;
        let statistic = lines.value("stat", |fields, what| {
            let name = fields.field(what)?;
            Statistic::from_name(name)
                .ok_or_else(|| fields.error(format!("unknown statistic `{name}`")))
        })?;
        Ok(MetricsSummary {
            statistic,
            accuracy: lines.value("accuracy", Fields::bits)?,
            fairness_index: lines.value("fairness-index", Fields::bits)?,
            unfair_subgroups: lines.value("unfair", Fields::parse)?,
            test_rows: lines.value("rows", Fields::parse)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_exact() {
        let s = MetricsSummary {
            statistic: Statistic::Fpr,
            accuracy: 0.1 + 0.2, // deliberately non-representable
            fairness_index: f64::from_bits(0x3fb9_9999_9999_999a),
            unfair_subgroups: 7,
            test_rows: 1852,
        };
        let back = MetricsSummary::from_text(&s.to_text()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.to_text(), back.to_text());
    }

    #[test]
    fn all_statistics_roundtrip() {
        for stat in [
            Statistic::Fpr,
            Statistic::Fnr,
            Statistic::Accuracy,
            Statistic::SelectionRate,
        ] {
            let s = MetricsSummary {
                statistic: stat,
                accuracy: 0.5,
                fairness_index: 0.0,
                unfair_subgroups: 0,
                test_rows: 1,
            };
            assert_eq!(MetricsSummary::from_text(&s.to_text()).unwrap(), s);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(MetricsSummary::from_text("nope").is_err());
        assert!(MetricsSummary::from_text("remedy-metrics v1\nstat XYZ\n").is_err());
    }
}
