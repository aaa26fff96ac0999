//! Order statistics over raw samples. Every percentile the benchmark
//! reports comes from here — never from dc-obs's log2 buckets, whose
//! quantiles are bucket edges with up to 2× error.

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted` samples by linear
/// interpolation between closest ranks; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `samples` (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Inter-quartile distance as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (exclusive
/// method) — the spread the acceptance driver computes over ten runs.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = percentile(&s, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!((percentile(&s, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr_share(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
