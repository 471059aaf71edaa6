//! Sample statistics: nearest-rank percentiles in which a failed
//! operation counts as `+∞`, the rule for which tail percentile a sample
//! supports, and the quartiles the steadiness check uses.

/// Nearest-rank percentile `p` (0–100) of `xs`, in any order. A failed
/// or refused operation is recorded as `f64::INFINITY`, so it misses
/// every latency limit and sorts last. `NaN` for an empty sample.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99, p95 and p90 that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank at sample count
/// `n`; below 100 samples no tail is supported and the median (50) is
/// reported instead.
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    [99, 95, 90]
        .into_iter()
        .find(|p| n - (p * n).div_ceil(100) >= TAIL_MIN_BEYOND)
        .map_or(50.0, |p| p as f64)
}

/// The three quartiles with the exclusive method, as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the second is the
/// median). Needs two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() + 1;
    let at = |j: usize| {
        let pos = j * m;
        // Clamped first, so the ends extrapolate exactly as Python does.
        let i = (pos / 4).clamp(1, s.len() - 1);
        let delta = pos as f64 - (i * 4) as f64;
        s[i - 1] + (s[i] - s[i - 1]) * delta / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile range as a share of the median: the run-to-run spread.
#[must_use]
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 2 failures in 100: the median is unaffected, p99 misses.
        let mut xs: Vec<f64> = (1..=98).map(f64::from).collect();
        xs.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 98.0), 98.0);
        assert_eq!(percentile(&xs, 99.0), f64::INFINITY);
        // A majority of failures drags the median to +inf too.
        let mostly_failed = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(median(&mostly_failed), f64::INFINITY);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
