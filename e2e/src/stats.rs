//! Order statistics over latency samples.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation around the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// How many samples must lie beyond a tail value for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it: the
/// sample that has exactly that many above it, with its percentile.
/// With fewer than twice that many samples a tail means nothing, and the
/// median is returned as percentile 0.5.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 * TAIL_BEYOND {
        return (0.5, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    ((rank + 1) as f64 / n as f64, v[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_BEYOND);
        assert!((p - 0.90).abs() < 1e-12);
        // Too few samples for a tail: falls back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (0.5, 2.0));
    }
}
