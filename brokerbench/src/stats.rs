//! Order statistics over latency samples.

/// The `p`-th percentile (0 < p ≤ 100) by nearest rank: the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the two middle samples for an even count);
/// `None` for no samples.
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

/// The arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Each of `windows` equal spans of time's `p`-th percentile, for
/// `(time, value)` samples, in time order; spans without samples are
/// skipped.
pub fn window_percentiles(samples: &[(u64, f64)], p: f64, windows: usize) -> Vec<f64> {
    let (Some(first), Some(last)) = (
        samples.iter().map(|s| s.0).min(),
        samples.iter().map(|s| s.0).max(),
    ) else {
        return Vec::new();
    };
    let span = (last - first) / windows.max(1) as u64 + 1;
    let mut buckets = vec![Vec::new(); windows.max(1)];
    for &(t, v) in samples {
        buckets[((t - first) / span) as usize].push(v);
    }
    buckets.iter().filter_map(|b| percentile(b, p)).collect()
}

/// The median of [`window_percentiles`]. A host stall that covers fewer
/// than half the spans cannot move it, where it moves a percentile over
/// all the samples.
pub fn windowed_percentile(samples: &[(u64, f64)], p: f64, windows: usize) -> Option<f64> {
    median(&window_percentiles(samples, p, windows))
}

/// Completions per second from completion times (ns): the median over
/// `chunks` runs of consecutive completions, each the same number of
/// completions over the time it took. `None` for fewer than two
/// completions per chunk.
pub fn completion_rate(done_ns: &[u64], chunks: usize) -> Option<f64> {
    let chunks = chunks.max(1);
    let mut t = done_ns.to_vec();
    t.sort_unstable();
    let gaps = t.len().checked_sub(1)?;
    if gaps < 2 * chunks {
        return None;
    }
    let rates: Vec<f64> = (0..chunks)
        .map(|k| {
            let (a, b) = (k * gaps / chunks, (k + 1) * gaps / chunks);
            (b - a) as f64 * 1e9 / (t[b] - t[a]).max(1) as f64
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(99.0));
    }

    #[test]
    fn percentile_of_small_and_empty_sets() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        // p99 of 10 samples is the largest: fewer than 1% lie above it.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn windowed_percentile_ignores_a_short_stall() {
        // Ten seconds at 1 ms, except a second and a half in which every
        // sample is 50 ms: the p90 over all samples is the stall's, the
        // windowed one is not.
        let samples: Vec<(u64, f64)> = (0..10_000u64)
            .map(|i| {
                (
                    i * 1_000_000,
                    if (3000..4500).contains(&i) { 50.0 } else { 1.0 },
                )
            })
            .collect();
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&all, 90.0), Some(50.0));
        assert_eq!(windowed_percentile(&samples, 90.0, 8), Some(1.0));
        assert_eq!(windowed_percentile(&[], 90.0, 8), None);
        assert_eq!(windowed_percentile(&[(5, 2.0)], 50.0, 8), Some(2.0));
    }

    #[test]
    fn completion_rate_is_the_median_chunk_rate() {
        // 1000/s for a second, then a 100 ms stall, then 1000/s again.
        let mut t: Vec<u64> = (0..1000u64).map(|i| i * 1_000_000).collect();
        t.extend((0..1000u64).map(|i| 1_100_000_000 + i * 1_000_000));
        let r = completion_rate(&t, 8).expect("enough completions");
        assert!((r - 1000.0).abs() < 1e-6, "{r}");
        assert_eq!(completion_rate(&[1, 2, 3], 8), None);
    }
}
