//! Descriptive statistics used by experiments and tests.
//!
//! Everything operates on plain `&[f64]` so values can come from durations,
//! frequencies, or any other measurement. Sample (n−1) variance is used,
//! matching how the paper reports standard deviations over repeated runs.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator); `0.0` for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// One-pass (Welford) mean and sample standard deviation of an iterator:
/// the allocation-free companion of [`mean`]/[`std_dev`] for borrowing
/// sources like `Metrics::values_iter`. Returns `(0.0, 0.0)` for an empty
/// iterator and `(mean, 0.0)` for a single sample.
pub fn mean_std_of(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    let (mut n, mut m, mut m2) = (0u64, 0.0f64, 0.0f64);
    for x in xs {
        n += 1;
        let d = x - m;
        m += d / n as f64;
        m2 += d * (x - m);
    }
    match n {
        0 => (0.0, 0.0),
        1 => (m, 0.0),
        _ => (m, (m2 / (n - 1) as f64).sqrt()),
    }
}

/// Minimum; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum; `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation on sorted data.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&v, p)
}

/// The `p`-quantile of already-sorted data (the allocation-free core of
/// [`quantile`]; callers extracting many quantiles should sort once and
/// use this).
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&p), "quantile p={p}");
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = idx - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets.
///
/// Returns `(bin_center, count)` pairs. Values outside the range are clamped
/// into the first/last bin.
///
/// # Panics
///
/// Panics if `bins == 0` or `lo >= hi`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, u64)> {
    assert!(bins > 0 && lo < hi, "histogram({lo}, {hi}, {bins})");
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0u64; bins];
    for &x in xs {
        let mut b = ((x - lo) / width).floor() as i64;
        if b < 0 {
            b = 0;
        }
        if b >= bins as i64 {
            b = bins as i64 - 1;
        }
        counts[b as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + (i as f64 + 0.5) * width, c))
        .collect()
}

/// Empirical CDF: sorted `(value, F(value))` points with F in `(0, 1]`.
pub fn cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in cdf input"));
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

/// Probability mass function over discrete bins of width `bin`: returns
/// `(bin_center, probability)` for non-empty bins, sorted by value.
///
/// This is how the paper presents detected-frequency distributions (Fig. 11).
///
/// # Panics
///
/// Panics if `bin` is not strictly positive or `xs` is empty.
pub fn pmf(xs: &[f64], bin: f64) -> Vec<(f64, f64)> {
    assert!(bin > 0.0, "pmf bin={bin}");
    assert!(!xs.is_empty(), "pmf of empty slice");
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
    for &x in xs {
        let k = (x / bin).round() as i64;
        *counts.entry(k).or_insert(0) += 1;
    }
    let n = xs.len() as f64;
    counts
        .into_iter()
        .map(|(k, c)| (k as f64 * bin, c as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic set is ~2.138.
        assert!((std_dev(&xs) - 2.13809).abs() < 1e-4);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.5, 1.5, 1.6, 9.9, -5.0, 50.0];
        let h = histogram(&xs, 0.0, 10.0, 10);
        assert_eq!(h.len(), 10);
        let total: u64 = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, xs.len() as u64);
        assert_eq!(h[0].1, 2); // 0.5 and clamped -5.0
        assert_eq!(h[1].1, 2); // 1.5, 1.6
        assert_eq!(h[9].1, 2); // 9.9 and clamped 50.0
        assert!((h[0].0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone() {
        let xs = [3.0, 1.0, 2.0, 2.0];
        let c = cdf(&xs);
        assert_eq!(c.len(), 4);
        assert_eq!(c.last().unwrap().1, 1.0);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let xs = [32.5, 32.5, 33.0, 97.5];
        let p = pmf(&xs, 0.5);
        let total: f64 = p.iter().map(|&(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p[0].0, 32.5);
        assert!((p[0].1 - 0.5).abs() < 1e-12);
    }
}
