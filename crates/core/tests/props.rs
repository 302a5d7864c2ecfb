//! Property-based tests for the predictors and feedback laws.

use proptest::prelude::*;
use selftune_core::lfs::{MAX_BW, MIN_BW};
use selftune_core::lfspp::WINDOW;
use selftune_core::{Lfs, LfsPlusPlus, LfsPpConfig, QuantileEstimator};
use selftune_simcore::time::Dur;

/// Naive reference: the (j+1)-th largest of the last n samples.
fn naive_quantile(samples: &[u64], n: usize, p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let tail: Vec<u64> = samples[samples.len().saturating_sub(n)..].to_vec();
    let mut sorted = tail;
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let j = ((1.0 - p) * n as f64).round() as usize;
    Some(sorted[j.min(n - 1).min(sorted.len() - 1)])
}

proptest! {
    /// The streaming quantile estimator agrees with the naive sorted
    /// reference on every prefix.
    #[test]
    fn quantile_matches_naive(
        samples in prop::collection::vec(1u64..1_000_000, 1..100),
        n in 1usize..32,
        j in 0usize..8,
    ) {
        let p = ((n.saturating_sub(j)).max(1)) as f64 / n as f64;
        let mut est = QuantileEstimator::new(n, p);
        for (i, &s) in samples.iter().enumerate() {
            est.observe(Dur::ns(s));
            let got = est.predict().map(|d| d.as_ns());
            let want = naive_quantile(&samples[..=i], n, p);
            prop_assert_eq!(got, want);
        }
    }

    /// LFS bandwidth stays inside its clamps for any sensor sequence, and
    /// is monotone in the sensor (more starvation ⇒ no less bandwidth).
    #[test]
    fn lfs_stays_clamped(flags in prop::collection::vec(any::<bool>(), 1..300)) {
        let mut lfs = Lfs::default();
        let mut starving = Lfs::default();
        for &f in &flags {
            let _ = lfs.step(f, Dur::ms(40));
            let _ = starving.step(true, Dur::ms(40));
            prop_assert!(lfs.bandwidth() >= MIN_BW - 1e-12);
            prop_assert!(lfs.bandwidth() <= MAX_BW + 1e-12);
            prop_assert!(starving.bandwidth() >= lfs.bandwidth() - 1e-12);
        }
    }

    /// LFS++ requests never exceed the period (bandwidth ≤ 1) and match
    /// the closed-form (1+x)·quantile of the per-interval job costs.
    #[test]
    fn lfspp_requests_are_bounded_and_correct(
        increments_us in prop::collection::vec(0u64..800_000, 2..40),
        period_ms in 10u64..100,
        spread in 0.0f64..0.5,
    ) {
        let period = Dur::ms(period_ms);
        let elapsed = Dur::secs(1);
        let cfg = LfsPpConfig { spread, quantile: 0.9375 };
        let mut ctl = LfsPlusPlus::new(cfg);
        let mut naive_samples: Vec<u64> = Vec::new();
        let mut total = Dur::ZERO;
        let mut first = true;
        for &inc in &increments_us {
            total += Dur::us(inc);
            let req = ctl.step(total, elapsed, period);
            if first {
                prop_assert_eq!(req, None);
                first = false;
                continue;
            }
            // Per-job cost sample c = P·ΔW/S.
            let c = Dur::us(inc).mul_f64(period.ratio(elapsed));
            naive_samples.push(c.as_ns());
            let want = naive_quantile(&naive_samples, WINDOW, 0.9375)
                .map(|ns| Dur::ns(ns).mul_f64(1.0 + spread).min(period));
            let got = req.map(|r| r.budget);
            prop_assert_eq!(got, want);
            if let Some(r) = req {
                prop_assert!(r.budget <= r.period);
            }
        }
    }
}
