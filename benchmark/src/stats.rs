//! Order statistics the metrics are built from.
//!
//! Every timing the benchmark gates on is the fastest of many identical
//! repetitions: on the shared dev host a neighbour adds between nothing
//! and 70 % to any one repetition for seconds or minutes at a time, so
//! the median of a run lands in whichever state covered more of it,
//! while the fastest repetition repeats within 2 % (see "The host" in
//! README.md). Medians, quartiles and the highest percentile that still
//! has at least ten samples beyond it describe the distribution beside
//! it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a sample in place (NaNs last; the benchmark never produces one).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

/// Quantile `q` in `[0, 1]` of an ascending sample, by linear
/// interpolation between the two nearest order statistics. `None` for
/// an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The smallest value of a sample; 0 when empty.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5).unwrap_or(0.0)
}

/// Distance between the third and first quartile of an unsorted sample.
pub fn iqr(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.75)) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    }
}

/// The three quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (its default "exclusive" method) — the estimator the
/// driver applies to a set of runs. `None` for fewer than two values.
pub fn quartiles_exclusive(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        return None;
    }
    Some([1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// The highest of p99 / p95 / p90 / p75 that has at least
/// [`TAIL_BEYOND`] samples above it, with its value; `None` when even
/// p75 does not (fewer than 40 samples).
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    sort(&mut v);
    [99u32, 95, 90, 75].into_iter().find_map(|p| {
        let beyond = v.len() * (100 - p as usize) / 100;
        let value = v.get(v.len().checked_sub(beyond + 1)?)?;
        (beyond >= TAIL_BEYOND).then_some((p, *value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.25), Some(2.0));
        assert_eq!(quantile_sorted(&v, 0.75), Some(4.0));
        assert_eq!(iqr(&v), 2.0);
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 989.0)));
        // 999 samples: only 9 beyond p99, so p95 is reported.
        let (p, value) = tail(&v[..999]).unwrap();
        assert_eq!(p, 95);
        assert_eq!(v[..999].iter().filter(|&&x| x > value).count(), 49);
        // 40 samples: p75 is the only percentile with ten beyond.
        assert_eq!(tail(&v[..40]).map(|t| t.0), Some(75));
        assert_eq!(tail(&v[..39]), None);
    }
}
