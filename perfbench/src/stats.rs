//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports comes from here, computed on
//! the raw client-side samples; nothing is read back out of a
//! histogram's buckets.

/// Fewest samples a reported quantile must leave beyond it: a p99 needs
/// at least 1,000 samples, so that ten of them lie above it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `samples`: the smallest sample
/// such that at least `q` of all samples are less than or equal to it.
///
/// Returns `None` for an empty input, for `q` outside `(0, 1]`, and
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the rank —
/// a tail quantile from too few samples is a guess, not a measurement.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q < 1.0 && n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (the mean of the two middle values for an
/// even count), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_on_a_known_sample() {
        // 1..=2000 shuffled deterministically: the p50 is 1000, the
        // p99 is 1980 and the max is 2000, whatever the input order.
        let mut samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        samples.reverse();
        samples.swap(3, 1500);
        assert_eq!(quantile(&samples, 0.5), Some(1000.0));
        assert_eq!(quantile(&samples, 0.99), Some(1980.0));
        assert_eq!(quantile(&samples, 0.999), None, "two samples beyond");
        assert_eq!(quantile(&samples, 1.0), Some(2000.0));
        assert_eq!(median(&samples), Some(1000.5));
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            quantile(&thousand, 0.99),
            Some(990.0),
            "exactly ten samples beyond"
        );
        assert_eq!(quantile(&thousand[..999], 0.99), None, "only nine beyond");
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.5), None);
        assert_eq!(quantile(&[4.0], 1.0), Some(4.0));
    }
}
