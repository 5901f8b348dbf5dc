//! Order statistics over measured samples.

/// Nearest-rank percentile `p` (in percent) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile whose nearest-rank value still has at
/// least ten samples above it in a sample of `n` — the highest tail such
/// a sample supports. 50 (the median) when `n` is too small for any tail.
pub fn tail_percentile(n: usize) -> f64 {
    (50..100)
        .rev()
        .find(|&p| n >= 10 + (p * n).div_ceil(100))
        .unwrap_or(50) as f64
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(80), 87.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
        for n in 20..2000 {
            let p = tail_percentile(n);
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p}");
            // One percent higher would leave fewer than ten beyond it.
            if p < 99.0 {
                let next = (((p + 1.0) / 100.0) * n as f64).ceil() as usize;
                assert!(n - next < 10, "n={n} p={p} is not the highest");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
