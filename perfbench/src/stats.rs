//! Sample arithmetic: nearest-rank percentiles and the tail-sample count
//! that says whether a percentile is backed by enough data.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a `q` share of the samples at or below it. `q` is
/// clamped to `[0, 1]`; an empty slice gives `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Number of samples strictly above the `q` nearest-rank percentile's
/// position: the tail a `q` percentile of `n` samples rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.max(1).min(n)
}

/// Sorts `values` ascending (NaN-free input expected).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Rank rounds up: the 0.5 percentile of four samples is the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.51), 3.0);
    }

    #[test]
    fn tail_counts() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1099, 0.99), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(0, 0.99), 0);
        assert_eq!(beyond(1, 0.0), 0);
    }

    #[test]
    fn median_mean_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
