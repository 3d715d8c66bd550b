//! Order statistics with an explicit sample-count rule.
//!
//! A tail percentile is only as trustworthy as the samples behind it:
//! the benchmark reports a percentile only when at least
//! [`MIN_BEYOND`] samples lie strictly beyond the reported one, so a
//! p99 needs at least 1000 samples and a single outlier can never be
//! the whole tail.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `p`-quantile (`0 < p <= 1`) in a sorted
/// slice of length `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `p`-quantile of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() {
        return None;
    }
    let k = rank(sorted.len(), p);
    (sorted.len() - 1 - k >= MIN_BEYOND).then(|| sorted[k])
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - 1 - rank(n, p) >= MIN_BEYOND)
        .expect("p < 1")
}

/// Median of `values` (mean of the middle pair for even lengths);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..1000).collect();
        // Rank 990 of 1000 leaves exactly ten larger samples.
        assert_eq!(percentile(&v, 0.99), Some(989));
        let v: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn median_percentile_needs_only_a_handful() {
        assert_eq!(samples_needed(0.5), 20);
        let v: Vec<u64> = (1..=20).collect();
        // Rank 10 of 20 leaves ten larger samples.
        assert_eq!(percentile(&v, 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
