//! A compact, exactly-serializable bundle of audit metrics.
//!
//! Pipeline audit stages cache their result like every other artifact;
//! [`MetricsSummary`] is that artifact — accuracy, the paper's Fairness
//! Index, and the unfair-subgroup count for one (dataset, model, γ)
//! combination. Floats are stored as `f64::to_bits` hex so a cache hit
//! reproduces the original run bit for bit.

use crate::measure::Statistic;

const MAGIC: &str = "remedy-metrics v1";

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
            "{MAGIC}\nstat {}\naccuracy {:016x}\nfairness-index {:016x}\nunfair {}\nrows {}\n",
            self.statistic,
            self.accuracy.to_bits(),
            self.fairness_index.to_bits(),
            self.unfair_subgroups,
            self.test_rows
        )
    }

    /// Parses a summary written by [`MetricsSummary::to_text`].
    pub fn from_text(text: &str) -> Result<MetricsSummary, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("not a {MAGIC} file"));
        }
        let mut field = |prefix: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing {prefix}"))?;
            line.strip_prefix(prefix)
                .and_then(|r| r.strip_prefix(' '))
                .map(String::from)
                .ok_or_else(|| format!("expected `{prefix}`, found `{line}`"))
        };
        let stat = field("stat")?;
        let statistic =
            Statistic::from_name(&stat).ok_or_else(|| format!("unknown statistic `{stat}`"))?;
        let bits = |s: String| {
            u64::from_str_radix(&s, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad float bits `{s}`"))
        };
        Ok(MetricsSummary {
            statistic,
            accuracy: bits(field("accuracy")?)?,
            fairness_index: bits(field("fairness-index")?)?,
            unfair_subgroups: field("unfair")?
                .parse()
                .map_err(|_| "bad unfair count".to_string())?,
            test_rows: field("rows")?
                .parse()
                .map_err(|_| "bad row count".to_string())?,
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
