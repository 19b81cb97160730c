//! Order statistics over measured samples.

/// Sorted copy of `values` (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median with the two middle values averaged for an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Linearly interpolated quantile `q ∈ [0, 1]` (the "inclusive" method).
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile `p` of `n` samples that still has at
/// least ten samples beyond it: nearest-rank `p` sits at rank
/// `ceil(p·n/100)`, so `n − ceil(p·n/100) ≥ 10`. `None` below 11 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= 10)
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(128), Some(92));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..2000 {
            let p = tail_percentile(n).expect("n > 10") as usize;
            let beyond = |p: usize| n - (p * n).div_ceil(100);
            assert!(beyond(p) >= 10, "n={n} p={p}");
            assert!(
                p == 99 || beyond(p + 1) < 10,
                "n={n}: p={p} is not the highest"
            );
        }
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90)).count(), 10);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
