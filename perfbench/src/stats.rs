//! Order statistics for the benchmark's reports.

/// A sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the middle sample, or the mean of the two middle
/// samples for an even count. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank index (1-based) of percentile `q` among `n` samples:
/// the smallest rank with at least `q`% of the samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q ∈ (0, 100]` of `xs`. `NaN` for an empty
/// slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    v[rank(v.len(), q) - 1]
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile's rank before it is
/// reported as a tail.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_SUPPORT`] samples beyond its rank, as `(q, value)`; `None`
/// when even the median lacks that support.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    TAIL_LADDER
        .iter()
        .find(|&&q| n > 0 && n - rank(n, q) >= TAIL_SUPPORT)
        .map(|&q| (q, percentile(xs, q)))
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method). `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let v = sorted(xs);
    let n = 4usize;
    let q = |i: usize| {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some([q(1), q(2), q(3)])
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are checked against).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some((q3 - q1) / q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_picks_highest_supported_percentile() {
        let xs = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 100 samples: p90 is rank 90, exactly 10 beyond it.
        assert_eq!(tail(&xs(100)), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90, only 9 beyond, so the median.
        assert_eq!(tail(&xs(99)), Some((50.0, 50.0)));
        // 1000 samples: p99 is rank 990, exactly 10 beyond it.
        assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
        // 19 samples: the median (rank 10) has only 9 beyond it.
        assert_eq!(tail(&xs(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
