//! Order statistics over latency and throughput samples.
//!
//! Percentiles are nearest-rank: the value at 1-based rank
//! `ceil(p/100 * n)` of the sorted samples, so every reported number is
//! a sample that was actually observed. A percentile is refused (`None`)
//! unless at least [`MIN_BEYOND`] samples lie strictly beyond its rank —
//! with fewer, the "tail" is one or two outliers and the figure can even
//! come out below the median of a different sample set.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for even counts).
/// Used for per-run figures taken over repeated passes, where there is no
/// tail to report.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s = seq(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        // Unsorted input gives the same answer.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), Some(90.0));
    }

    #[test]
    fn refuses_percentiles_with_a_thin_tail() {
        // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond it.
        assert_eq!(percentile(&seq(99), 90.0), None);
        // 100 samples leave exactly 10 beyond p90.
        assert_eq!(percentile(&seq(100), 90.0), Some(90.0));
        // p95 needs 200 samples.
        assert_eq!(percentile(&seq(199), 95.0), None);
        assert_eq!(percentile(&seq(200), 95.0), Some(190.0));
        // A median needs 20.
        assert_eq!(percentile(&seq(19), 50.0), None);
        assert_eq!(percentile(&seq(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn a_reported_tail_is_never_below_the_median() {
        // Bimodal samples like a memo-hit/miss mix: the p90 is in the
        // slow mode and never below the p50.
        let mut s: Vec<f64> = (0..150).map(|i| 0.05 + i as f64 * 1e-4).collect();
        s.extend((0..50).map(|i| 300.0 + i as f64));
        let p50 = percentile(&s, 50.0).unwrap();
        let p90 = percentile(&s, 90.0).unwrap();
        assert!(p90 >= p50);
        assert!(p90 >= 300.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
