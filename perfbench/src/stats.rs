//! Order statistics over host timings and modeled latencies.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `xs`; `None` when empty.
///
/// The value at rank `ceil(q * n)` of the sorted sample, so the result is
/// always one of the measured values, never an interpolation.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (lower median for an even count, by the nearest-rank rule).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// The highest of the conventional tail percentiles (p99.9, p99, p90, p50)
/// that still has at least ten samples beyond it in a sample of `n`.
///
/// A percentile `q` leaves `n * (1 - q)` samples above it; with fewer than
/// ten, the figure rests on a handful of outliers and is not reported.
/// Returns `None` when not even the median qualifies (`n < 20`).
pub fn supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the count beyond each percentile is exact integer math.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|&q| n * (1000 - q) / 1000 >= 10)
        .map(|q| q as f64 / 1000.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_measured_values() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(percentile(&xs, 0.8), Some(4.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_one_hundred_is_its_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        assert_eq!(median(&xs), Some(50.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.50));
        assert_eq!(supported_percentile(99), Some(0.50));
        assert_eq!(supported_percentile(100), Some(0.90));
        assert_eq!(supported_percentile(999), Some(0.90));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
