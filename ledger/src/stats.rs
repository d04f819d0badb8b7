//! Order statistics over timing samples.
//!
//! Every timing the ledger reports is a median, a nearest-rank
//! percentile that has at least [`MIN_BEYOND`] samples past it, or a
//! geometric mean of interdecile means. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads `compare` prints are the ones a reader computes by hand.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// `p` is outside `(0, 100]`.
    OutOfRange,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested rank.
    TooFewBeyond { beyond: usize },
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. Refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it, except that a median (`p <= 50`) needs only
/// one sample.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    if !(p > 0.0 && p <= 100.0) {
        return Err(PercentileError::OutOfRange);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { beyond });
    }
    Ok(sorted[rank - 1])
}

/// The highest of `candidates` (in percent, tried from the last) that
/// [`percentile`] accepts, with its value; `None` when none is.
pub fn highest_supported(samples: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .rev()
        .find_map(|&p| percentile(samples, p).ok().map(|v| (p, v)))
}

/// Median (the mean of the two middle samples for even counts); NaN
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of the samples left after dropping the lowest and the highest
/// tenth (each rounded up, and never so many that nothing is left); the
/// median for four samples or fewer, NaN when empty.
///
/// Unlike a median it moves smoothly when a bimodal distribution shifts
/// weight between its modes: two connections sharing one lock make each
/// request wait either for the other's slow operation or for a fast one,
/// and a median near the boundary jumps from one mode to the other.
pub fn interdecile_mean(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = n.div_ceil(10).min((n - 1) / 2);
    let kept = &sorted[cut..n - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them; needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the spread the bounds
/// in `BENCHMARK.json` are judged against).
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Geometric mean of positive values; NaN when empty or when any value
/// is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Length of the union of half-open intervals `[start, end)`, clipped to
/// `[lo, hi)`. Parallel branch spans overlap; counting their union, not
/// their sum, keeps a parent's self time from going negative.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}
