//! Order statistics with the tail rule the benchmark reports by: a
//! percentile is only reportable when at least [`MIN_BEYOND`] samples lie
//! beyond it, and every figure carries its sample count.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that make it checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The `q`-quantile by nearest rank (`0.0` for an empty sample).
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `values` (any order); `q` in `(0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Quantile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Quantile {
            value: 0.0,
            n,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Median (the nearest-rank 0.5-quantile's value).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).value
}

/// Inter-quartile range as a share of the median (0 for a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75).value - quantile(values, 0.25).value) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).rev().collect()
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let q = quantile(&ramp(1000), 0.99);
        assert_eq!(q.value, 990.0);
        assert_eq!(q.n, 1000);
        assert_eq!(q.beyond, 10);
        assert!(q.beyond >= MIN_BEYOND);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let q = quantile(&ramp(999), 0.99);
        assert_eq!(q.beyond, 9);
        assert!(q.beyond < MIN_BEYOND);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        let spread = relative_iqr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(spread, (6.0 - 2.0) / 4.0);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }
}
