//! The LFS++ feedback law (Section 4.4).
//!
//! Every sampling period `S` the controller reads the cumulative CPU time
//! `W_k` consumed by the task, converts the increment into a per-job cost
//! sample `c_k = P·(W_k − W_{k−1})/S` using the estimated task period `P`,
//! feeds the predictor, and requests
//!
//! ```text
//! Q_req = (1 + x) · P( c_1, ..., c_N )      with  T^s = P,
//! ```
//!
//! where `x` is the *spread factor* (10–20%) that buys robustness against
//! prediction error and responsiveness to workload increases. The window
//! `N` is the constant [`WINDOW`]; `x` and `p` stay options, because the
//! property tests and the predictor ablation set them.

use crate::predictor::QuantileEstimator;
use selftune_simcore::time::Dur;

/// The predictor's window `N`: the last 16 per-job cost samples, the
/// paper's value (Section 4.4).
pub const WINDOW: usize = 16;

/// LFS++ parameters.
#[derive(Clone, Debug)]
pub struct LfsPpConfig {
    /// Spread factor `x` (the paper uses 10–20%).
    pub spread: f64,
    /// Predictor quantile `p` over the last [`WINDOW`] samples (the
    /// paper's default: the second maximum of 16).
    pub quantile: f64,
}

impl Default for LfsPpConfig {
    fn default() -> Self {
        LfsPpConfig {
            spread: 0.15,
            quantile: 0.9375,
        }
    }
}

/// A request produced by a feedback step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetRequest {
    /// Requested budget `Q_req`.
    pub budget: Dur,
    /// Requested reservation period (the estimated task period).
    pub period: Dur,
}

impl BudgetRequest {
    /// Requested bandwidth `Q/T`.
    pub fn bandwidth(&self) -> f64 {
        self.budget.ratio(self.period)
    }
}

/// The LFS++ controller state.
#[derive(Debug)]
pub struct LfsPlusPlus {
    /// The spread factor `x` (the quantile lives in the predictor).
    spread: f64,
    predictor: QuantileEstimator,
    last_reading: Option<Dur>,
}

impl LfsPlusPlus {
    /// Creates a controller.
    pub fn new(cfg: LfsPpConfig) -> LfsPlusPlus {
        LfsPlusPlus {
            spread: cfg.spread,
            predictor: QuantileEstimator::new(WINDOW, cfg.quantile),
            last_reading: None,
        }
    }

    /// One feedback step.
    ///
    /// * `consumed_total` — cumulative CPU consumed by the task (`W_k`,
    ///   from `CLOCK_THREAD_CPUTIME_ID` / `qres_get_time()`).
    /// * `elapsed` — wall time since the previous step (`S`).
    /// * `period` — the task period estimated by the analyser (`P`).
    ///
    /// Returns `None` on the very first step (no increment yet) or while
    /// the predictor has no samples.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` or `period` is zero, or if `consumed_total`
    /// decreased.
    pub fn step(
        &mut self,
        consumed_total: Dur,
        elapsed: Dur,
        period: Dur,
    ) -> Option<BudgetRequest> {
        assert!(!elapsed.is_zero(), "elapsed must be positive");
        assert!(!period.is_zero(), "period must be positive");
        let last = self.last_reading.replace(consumed_total);
        let dw = match last {
            None => return None,
            Some(w) => consumed_total
                .checked_sub(w)
                .expect("cumulative CPU time went backwards"),
        };
        // c = P·ΔW/S — the average per-job cost over the sampling interval.
        let per_job = dw.mul_f64(period.ratio(elapsed));
        self.predictor.observe(per_job);
        let predicted = self.predictor.predict()?;
        let budget = predicted.mul_f64(1.0 + self.spread).min(period);
        Some(BudgetRequest { budget, period })
    }

    /// Forgets all history (e.g. after a detected mode change).
    pub fn reset(&mut self) {
        self.predictor.reset();
        self.last_reading = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_yields_nothing() {
        let mut c = LfsPlusPlus::new(LfsPpConfig::default());
        assert_eq!(c.step(Dur::ms(10), Dur::secs(1), Dur::ms(40)), None);
    }

    #[test]
    fn steady_load_requests_utilisation_plus_spread() {
        let mut c = LfsPlusPlus::new(LfsPpConfig {
            spread: 0.10,
            ..LfsPpConfig::default()
        });
        // Task consumes 10ms per 40ms period: sampling every 1s sees
        // ΔW = 250ms → per-job cost = 10ms.
        let mut total = Dur::ZERO;
        let mut req = None;
        for _ in 0..20 {
            total += Dur::ms(250);
            req = c.step(total, Dur::secs(1), Dur::ms(40));
        }
        let r = req.expect("request after warmup");
        assert_eq!(r.period, Dur::ms(40));
        assert!((r.budget.as_ms_f64() - 11.0).abs() < 0.01, "{r:?}");
        assert!((r.bandwidth() - 0.275).abs() < 0.001);
    }

    #[test]
    fn quantile_tracks_bursty_jobs() {
        // Alternating cheap/expensive sampling intervals, for long enough
        // that the window slides: the quantile predictor picks (near) the
        // expensive one.
        let mut c = LfsPlusPlus::new(LfsPpConfig {
            spread: 0.0,
            quantile: 1.0,
        });
        let mut total = Dur::ZERO;
        let mut last = None;
        for i in 0..=2 * WINDOW {
            total += if i % 2 == 0 {
                Dur::ms(100)
            } else {
                Dur::ms(300)
            };
            last = c.step(total, Dur::secs(1), Dur::ms(100));
        }
        // Max per-job cost = 300ms·(0.1/1.0) = 30ms.
        assert_eq!(last.unwrap().budget, Dur::ms(30));
    }

    #[test]
    fn budget_saturates_at_period() {
        let mut c = LfsPlusPlus::new(LfsPpConfig::default());
        let _ = c.step(Dur::ZERO, Dur::secs(1), Dur::ms(40));
        // The task consumed a full second of CPU in one second (hog).
        let r = c.step(Dur::secs(1), Dur::secs(1), Dur::ms(40)).unwrap();
        assert_eq!(r.budget, Dur::ms(40));
        assert!((r.bandwidth() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn responds_quickly_to_load_increase() {
        // After a workload jump, the request reflects it within two
        // samples (the default predictor is the *second* maximum of 16) —
        // the "adapts almost immediately" behaviour of Figure 13.
        let mut c = LfsPlusPlus::new(LfsPpConfig::default());
        let mut total = Dur::ZERO;
        let _ = c.step(total, Dur::secs(1), Dur::ms(40));
        total += Dur::ms(100);
        let low = c.step(total, Dur::secs(1), Dur::ms(40)).unwrap();
        total += Dur::ms(400);
        let _ = c.step(total, Dur::secs(1), Dur::ms(40)).unwrap();
        total += Dur::ms(400);
        let high = c.step(total, Dur::secs(1), Dur::ms(40)).unwrap();
        assert!(high.budget >= low.budget * 3, "{low:?} -> {high:?}");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn decreasing_reading_panics() {
        let mut c = LfsPlusPlus::new(LfsPpConfig::default());
        let _ = c.step(Dur::ms(10), Dur::secs(1), Dur::ms(40));
        let _ = c.step(Dur::ms(5), Dur::secs(1), Dur::ms(40));
    }

    #[test]
    fn reset_forgets_history() {
        let mut c = LfsPlusPlus::new(LfsPpConfig::default());
        let _ = c.step(Dur::ms(10), Dur::secs(1), Dur::ms(40));
        c.reset();
        assert_eq!(c.step(Dur::ms(20), Dur::secs(1), Dur::ms(40)), None);
    }
}
