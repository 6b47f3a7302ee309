//! The harness's arithmetic: percentiles, medians and spreads. Kept apart
//! from the measuring code so it can be unit-tested on known inputs.

/// Nearest-rank percentile of an **ascending** slice: the smallest sample
/// with at least `p` % of the samples at or below it. `p` in (0, 100].
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Throughput of a run: the median over its segments of
/// `ops / wall seconds`, so one stalled segment does not move the result.
pub fn segment_median_ops_per_s(segments: &[(u64, u64)]) -> f64 {
    let rates: Vec<f64> = segments
        .iter()
        .map(|&(ops, wall_ns)| ops as f64 * 1e9 / wall_ns.max(1) as f64)
        .collect();
    median(&rates)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` under 20 samples (where even the median
/// has fewer than ten on its upper side).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// `(max - min) / median` of repeated measurements of one metric.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.1), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 2 000 samples leave exactly 20 beyond p99.
        let s: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&s, 99.0), 1980);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn segment_median_ignores_one_stall() {
        // Seven segments at 1 000 ops/s and one that stalled for 10 s.
        let mut segs = vec![(1000u64, 1_000_000_000u64); 7];
        segs.push((1000, 10_000_000_000));
        assert_eq!(segment_median_ops_per_s(&segs), 1000.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
    }
}
