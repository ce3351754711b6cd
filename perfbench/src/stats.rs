//! Exact-sample statistics. The benchmark keeps every latency it times
//! (as `f32` microseconds, so its own buffers stay small next to the
//! served system), and quantiles are read off the sorted samples, not
//! off log₂ buckets.

/// A tail quantile is reported only when at least this many samples lie
/// beyond it; with fewer, the "p99" of a run is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank position (1-based) of the `q`-quantile among `n`
/// samples: `⌈q·n⌉`, clamped to `1..=n`. The small epsilon keeps
/// `0.99 · 1000` from rounding up to rank 991.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile of ascending `sorted` samples by the nearest-rank
/// rule: the smallest sample with at least `⌈q·n⌉` samples at or below
/// it. `None` for no samples or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f32], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(f64::from(sorted[rank(sorted.len(), q) - 1]))
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-quantile, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_quantile(sorted: &[f32], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile(sorted, q)
}

/// The median, averaging the two middle values of an even count (the
/// convention of Python's `statistics.median`). Sorts `values`.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (1..=n).map(|i| i as f32).collect()
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        // q = 0 clamps to the first sample rather than indexing rank 0.
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(quantile(&[7.5], 0.99), Some(7.5));
    }

    #[test]
    fn quantile_rejects_empty_input_and_bad_q() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, so only 9 lie beyond — not reportable.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond — reportable.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(&ramp(1000), 0.99), Some(990.0));
        // The median of a short run is always reportable.
        assert_eq!(tail_quantile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
