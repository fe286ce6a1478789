//! Order statistics over measured samples.

/// Nearest-rank percentile (`0 < p ≤ 100`) of unsorted samples: the
/// smallest sample with at least `p` percent of the samples at or below
/// it, so every reported value is one some operation actually saw. 0 for
/// no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps exact rank boundaries (p99 of 1000 samples) from
    // rounding one rank too high on float noise.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile: a percentile
/// is reportable only with at least ten of them.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64 - 1e-9).ceil() as usize;
    len - rank.clamp(1, len.max(1)).min(len)
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Medians over equal time windows of a phase: throughput per window,
/// and each window's nearest-rank p50 and p99 latency. A stall of the
/// shared host then moves a few windows' figures, not the run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
}

/// Completions per window: at least 100 for throughput and p50, and at
/// least 1000 for p99 (so every window's p99 has ten samples beyond it),
/// in at most [`MAX_WINDOWS`] windows.
const P50_WINDOW_SAMPLES: usize = 100;
const P99_WINDOW_SAMPLES: usize = 1000;
const MAX_WINDOWS: usize = 30;

/// Latencies bucketed into equal windows of `elapsed_s`, as many as give
/// each window about `per_window` samples.
fn buckets(samples: &[(f32, f32)], elapsed_s: f64, per_window: usize) -> (Vec<Vec<f64>>, f64) {
    let windows = (samples.len() / per_window).clamp(1, MAX_WINDOWS);
    let width = elapsed_s / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, latency) in samples {
        let w = if width > 0.0 { (f64::from(at) / width) as usize } else { 0 };
        buckets[w.min(windows - 1)].push(f64::from(latency));
    }
    (buckets, width)
}

/// [`Windowed`] figures of `samples` — `(completion time, latency)`,
/// times in seconds from the phase start — over a phase of `elapsed_s`.
/// Samples are `f32` pairs to keep a long phase's memory small.
pub fn windowed(samples: &[(f32, f32)], elapsed_s: f64) -> Windowed {
    let over = |buckets: &[Vec<f64>], f: &dyn Fn(&Vec<f64>) -> f64| {
        median(&buckets.iter().map(f).collect::<Vec<_>>())
    };
    let (fine, width) = buckets(samples, elapsed_s, P50_WINDOW_SAMPLES);
    let (coarse, _) = buckets(samples, elapsed_s, P99_WINDOW_SAMPLES);
    Windowed {
        throughput: over(&fine, &|b| ratio(b.len() as f64, width)),
        p50: over(&fine, &|b| median(b)),
        p99: over(&coarse, &|b| percentile(b, 99.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p99_leaves_ten_samples_beyond_it() {
        // 1000 samples: p99 is the 990th, and 10 samples lie beyond it.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), 990.0);
        assert_eq!(samples_beyond(samples.len(), 99.0), 10);
        assert_eq!(percentile(&samples, 50.0), 500.0);
        assert_eq!(median(&samples), 500.0);
        assert_eq!(percentile(&samples, 100.0), 1000.0);
        // 999 samples leave only 9 beyond p99: not reportable.
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn percentile_of_small_and_empty_sets() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        // 3000 completions over 3 s: 30 windows of 100 for p50, 3 of 1000
        // for p99, each holding latencies 1..=100.
        let mut samples: Vec<(f32, f32)> =
            (0..3000).map(|i| (i as f32 / 1000.0, 1.0 + (i % 100) as f32)).collect();
        // A stall over the last third: its latencies are all huge.
        for s in &mut samples[2000..] {
            s.1 += 1e6;
        }
        let w = windowed(&samples, 3.0);
        assert!((w.throughput - 1000.0).abs() < 1e-6, "{}", w.throughput);
        assert_eq!(w.p50, 50.0);
        assert_eq!(w.p99, 99.0);
        // Too few samples for two windows: one window over everything.
        let one = windowed(&samples[..99], 1.0);
        assert_eq!(one.throughput, 99.0);
        assert_eq!(windowed(&[], 1.0).p99, 0.0);
    }
}
