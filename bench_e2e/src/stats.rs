//! Order statistics used by every metric: percentiles over raw samples,
//! and the median / quartile spread the `--repeat` table reports.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below
/// it. Returns 0 for an empty slice, so an absent layer prints 0.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// The highest of p99.9 / p99 / p90 that still has at least ten samples
/// beyond it (choosing-metrics §1), as `(label, quantile)`.
pub fn tail_quantile(samples: usize) -> (&'static str, f64) {
    for (label, q) in [("p999", 0.999), ("p99", 0.99), ("p90", 0.90)] {
        if samples as f64 * (1.0 - q) >= 10.0 {
            return (label, q);
        }
    }
    ("p50", 0.5)
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark driver applies to spreads.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, linearly interpolated
        // and clamped to the sample range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0, where a relative spread has no meaning).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Total time covered by the union of `[start, end)` intervals — the
/// wall time during which at least one operation was in flight.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.999), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000).0, "p999");
        assert_eq!(tail_quantile(10_000).0, "p999");
        assert_eq!(tail_quantile(9_999).0, "p99");
        assert_eq!(tail_quantile(999).0, "p90");
        assert_eq!(tail_quantile(12).0, "p50");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((relative_iqr(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(vec![(30, 40), (0, 10), (10, 12)]), 22);
        assert_eq!(union_ns(vec![]), 0);
    }
}
