//! Order statistics over timing samples: medians, quartiles and the
//! quartile spread the acceptance rule is stated in.

/// The samples sorted ascending (NaN-free input is the caller's duty:
/// every sample is a wall-clock duration or a count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    v
}

/// The median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice — a metric with no sample is a bug in the
/// benchmark, not a value to report.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method) —
/// the rule the benchmark driver applies to ten runs, so `compare`
/// agrees with it to the last digit. `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let v = sorted(samples);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread a bound is compared against. `None` when the
/// samples cannot resolve it (fewer than two, or a zero median).
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let med = median(samples);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) -> [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]).unwrap(), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let s = quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}
