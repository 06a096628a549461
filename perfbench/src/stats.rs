//! Order statistics for the reported medians and tails.

/// Median (mean of the two middle values for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
const BEYOND: usize = 10;

/// The tail of `xs`: the highest nearest-rank percentile that leaves
/// [`BEYOND`] samples above it, i.e. the 11th largest sample, as
/// `(percentile, value)`; `None` with fewer than 11 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let idx = n.checked_sub(BEYOND + 1)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((100.0 / 11.0, 1.0)));
    }
}
