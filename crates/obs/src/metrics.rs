//! Counter and histogram aggregation.
//!
//! Metrics are keyed by `(scope, name)` where the scope labels one
//! execution context (a pipeline stage, a branch's remedy, the shared
//! cache) and the name is the metric itself (`regions_scanned`,
//! `cache_hits`, `level2_us`). Both maps are ordinary `BTreeMap`s behind
//! a mutex: producers batch their increments (per node, per stage, per
//! worker), so lock traffic is far off the hot path.

use std::collections::BTreeMap;

/// Key of one metric: `(scope label, metric name)`.
pub(crate) type MetricKey = (String, String);

/// A value histogram with power-of-two buckets.
///
/// Bucket `i` counts values whose bit length is `i` (so bucket 0 holds
/// zero, bucket 1 holds 1, bucket 4 holds 8–15, …). That is coarse but
/// enough to answer "are the per-level timings flat or exponential",
/// which is what the scalability experiments need.
#[derive(Debug, Clone)]
pub(crate) struct Hist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; 65],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Hist {
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bit_length(value)] += 1;
    }

    /// Folds another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (bucket, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket += n;
        }
    }

    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-th observation.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// Number of bits needed to represent `value` (0 for zero).
fn bit_length(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Largest value that lands in bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Read-only summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Approximate median (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile (bucket upper bound).
    pub p90: u64,
    /// Approximate 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Approximate 99.9th percentile (bucket upper bound).
    pub p999: u64,
}

/// A point-in-time copy of every counter and histogram in a recorder.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(scope, name, value)` triples, sorted by scope then name.
    pub counters: Vec<(String, String, u64)>,
    /// `(scope, name, summary)` triples, sorted by scope then name.
    pub histograms: Vec<(String, String, HistSummary)>,
}

impl Snapshot {
    /// The value of one counter, if it was ever incremented.
    pub fn counter(&self, scope: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(s, n, _)| s == scope && n == name)
            .map(|&(_, _, v)| v)
    }

    /// All counters of one scope whose name starts with `prefix`, in
    /// sorted name order. Dotted counter families (`counting.delta.*`,
    /// `counting.rebuild.*`, `cache.*`) read naturally through this:
    /// `snapshot.counters_with_prefix("remedy", "counting.delta.")`.
    pub fn counters_with_prefix(&self, scope: &str, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(s, n, _)| s == scope && n.starts_with(prefix))
            .map(|(_, n, v)| (n.as_str(), *v))
            .collect()
    }

    /// The summary of one histogram, if it was ever observed.
    pub fn histogram(&self, scope: &str, name: &str) -> Option<HistSummary> {
        self.histograms
            .iter()
            .find(|(s, n, _)| s == scope && n == name)
            .map(|&(_, _, h)| h)
    }
}

/// Collects `(scope, name) → metric` maps into sorted snapshot vectors.
pub(crate) fn collect<V, O>(
    map: &BTreeMap<MetricKey, V>,
    f: impl Fn(&V) -> O,
) -> Vec<(String, String, O)> {
    map.iter()
        .map(|((scope, name), v)| (scope.clone(), name.clone(), f(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_tracks_extremes_and_quantiles() {
        let mut h = Hist::default();
        for v in [1u64, 2, 3, 100, 200, 300, 1000, 2000, 3000, 10_000] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        assert_eq!(s.sum, 16_606);
        // the 5th of ten values is 200 → its bucket's upper bound
        // (bit length 8 → 255)
        assert_eq!(s.p50, 255);
        assert!(s.p90 >= 3000);
    }

    #[test]
    fn tail_quantiles_separate_rare_outliers() {
        // 998 requests near 100us and two stalls of a second: p99 stays
        // in the body's bucket, p999 reaches the stalls
        let mut h = Hist::default();
        for _ in 0..998 {
            h.observe(100);
        }
        h.observe(1_000_000);
        h.observe(1_000_000);
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (127, 127, 127));
        assert_eq!(s.p999, 1_000_000);
    }

    #[test]
    fn hist_merge_equals_interleaved_observes() {
        let mut merged = Hist::default();
        let mut whole = Hist::default();
        let mut part = Hist::default();
        for v in [3u64, 9, 70, 500] {
            whole.observe(v);
            merged.observe(v);
        }
        for v in [0u64, 12_000] {
            whole.observe(v);
            part.observe(v);
        }
        merged.merge(&part);
        assert_eq!(merged.summary(), whole.summary());
        assert_eq!(merged.buckets, whole.buckets);
        // merging an empty histogram leaves min untouched
        merged.merge(&Hist::default());
        assert_eq!(merged.summary(), whole.summary());
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let s = Hist::default().summary();
        assert_eq!(
            s,
            HistSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0
            }
        );
    }

    #[test]
    fn counters_with_prefix_filters_by_scope_and_name() {
        let snap = Snapshot {
            counters: vec![
                ("remedy".into(), "counting.delta.appends".into(), 4),
                ("remedy".into(), "counting.delta.flips".into(), 2),
                ("remedy".into(), "counting.rebuild.scans".into(), 1),
                ("identify".into(), "counting.delta.appends".into(), 9),
            ],
            histograms: Vec::new(),
        };
        assert_eq!(
            snap.counters_with_prefix("remedy", "counting.delta."),
            vec![("counting.delta.appends", 4), ("counting.delta.flips", 2)]
        );
        assert!(snap.counters_with_prefix("remedy", "cache.").is_empty());
    }

    #[test]
    fn bit_length_buckets() {
        assert_eq!(bit_length(0), 0);
        assert_eq!(bit_length(1), 1);
        assert_eq!(bit_length(8), 4);
        assert_eq!(bit_length(15), 4);
        assert_eq!(bit_length(u64::MAX), 64);
        assert_eq!(bucket_upper(4), 15);
        assert_eq!(bucket_upper(64), u64::MAX);
    }
}
