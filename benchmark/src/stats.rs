//! Order statistics over pooled step samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count. NaN for
/// an empty slice, so a missing measurement cannot pass as a number.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail statistic of choosing-metrics §1: the highest percentile that
/// still has at least ten samples beyond it, i.e. the sample with exactly
/// ten larger ones (p83 at 60 samples, p66 at 30). Below 20 samples that
/// would fall under the median, so the median is reported instead.
/// Returns `(percentile in [50, 100), value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let v = sorted(values);
    let n = v.len();
    if n < 2 * BEYOND {
        return (50.0, median(values));
    }
    (100.0 * (n - BEYOND) as f64 / n as f64, v[n - BEYOND - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// The issue's two worked cases, and the small-sample fallback.
    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s60: Vec<f64> = (1..=60).map(f64::from).rev().collect();
        let (p, v) = tail(&s60);
        assert!((p - 83.333).abs() < 0.01, "{p}");
        assert_eq!(v, 50.0);
        assert_eq!(s60.iter().filter(|&&x| x > v).count(), 10);

        let s30: Vec<f64> = (1..=30).map(f64::from).collect();
        let (p, v) = tail(&s30);
        assert!((p - 66.667).abs() < 0.01, "{p}");
        assert_eq!(v, 20.0);

        let s20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s20), (50.0, 10.0));
        assert_eq!(tail(&[5.0, 1.0, 9.0]), (50.0, 5.0));
    }
}
