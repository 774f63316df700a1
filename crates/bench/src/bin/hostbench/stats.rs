//! Order statistics over timing samples.

/// Ascending copy of `xs`. Timing samples are finite, so `total_cmp`
/// orders them the way `<` would.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the cut points
/// Python's `statistics.quantiles(xs, n=4)` returns, so a spread
/// computed here matches the one the benchmark driver computes.
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale; like Python, clamp the
        // interval but not the offset, so tiny samples extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 when the median is).
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    Some(if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() })
}

/// Nearest-rank percentile `p` (0 < p < 100) of an ascending sample,
/// as a 1-based rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p < 100). A tail percentile of a
/// small sample is one outlier, not a statistic, so this refuses
/// (`None`) unless at least ten samples lie beyond the returned rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..100.0).contains(&p) || p == 0.0 {
        return None;
    }
    let rank = nearest_rank(n, p);
    if n - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// Nearest-rank p90, whatever the sample size: the one tail statistic
/// reported as a metric, so that it is the same statistic on every run.
/// A full-size warm phase is two rate windows or more (200 requests),
/// which is what [`percentile`] asks of a p90.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn p90(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "p90 of an empty sample");
    v[nearest_rank(v.len(), 90.0) - 1]
}

/// The highest of p99 / p95 / p90 that [`percentile`] accepts, with its
/// label — "the highest percentile that has at least ten samples
/// beyond it".
pub fn highest_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99.0), ("p95", 95.0), ("p90", 90.0)]
        .into_iter()
        .find_map(|(label, p)| percentile(xs, p).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond — accepted.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 of 100 samples: one sample beyond — refused.
        assert_eq!(percentile(&xs, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&xs, 100.0), None);
    }

    #[test]
    fn p90_is_the_refusing_percentile_where_that_answers() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(Some(p90(&xs)), percentile(&xs, 90.0));
        assert_eq!(p90(&xs), 180.0);
        // A toy sample still gets a p90, not a different statistic.
        assert_eq!(p90(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn highest_percentile_degrades_with_sample_count() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_percentile(&big), Some(("p99", 990.0)));
        let mid: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_percentile(&mid), Some(("p95", 190.0)));
        let small: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(highest_percentile(&small), Some(("p90", 91.0)));
        let tiny: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_percentile(&tiny), None);
    }
}
