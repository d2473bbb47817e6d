//! Percentiles, the sample-count rule, and the log-log slope fit.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank. The epsilon keeps `99.9% of 10 000` at
/// 9 990 when the product lands a float ulp above it.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The sample-count rule: a percentile is reportable only when at least
/// ten samples lie beyond it. Returns the highest reportable step of
/// the usual ladder, or `None` below 20 samples (not even a p50).
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `ln y` on `ln x`: the exponent `k` of
/// `y ≈ c·x^k`. 1 is linear, 2 quadratic.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(40), Some(75.0));
        assert_eq!(highest_reportable_percentile(99), Some(75.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(200), Some(95.0));
        assert_eq!(highest_reportable_percentile(1_000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
    }

    #[test]
    fn slope_recovers_the_exponent() {
        let quadratic: Vec<(f64, f64)> = [50.0, 100.0, 200.0, 400.0]
            .iter()
            .map(|&x| (x, 0.003 * x * x))
            .collect();
        assert!((loglog_slope(&quadratic) - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, 7.0 * x)).collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
