//! The computation-time predictor of the feedback controller.
//!
//! LFS++ feeds per-job cost samples into a predictor `P(·)` and reserves
//! `(1 + x)·P(window)` (Section 4.4). The paper proposes a *quantile
//! estimator*: the p-th quantile of the last `N` samples, where `p = (N−j)/N`
//! selects the (j+1)-th largest sample (`p = 1` is the max, `p = 0.9375`
//! with `N = 16` the second maximum, and so on).

use selftune_simcore::time::Dur;
use std::collections::VecDeque;

/// The paper's quantile estimator over a sliding window of `N` samples.
#[derive(Debug, Clone)]
pub struct QuantileEstimator {
    window: VecDeque<Dur>,
    n: usize,
    /// Number of samples from the top: 0 = max, 1 = second max, ...
    from_top: usize,
}

impl QuantileEstimator {
    /// Creates an estimator over `n` samples returning the `p`-th quantile,
    /// with `p` expressed as in the paper (`p = (n − j)/n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p` is outside `(0, 1]`.
    pub fn new(n: usize, p: f64) -> QuantileEstimator {
        assert!(n > 0, "window must be non-empty");
        assert!(p > 0.0 && p <= 1.0, "quantile p={p} outside (0, 1]");
        let j = ((1.0 - p) * n as f64).round() as usize;
        QuantileEstimator {
            // Grown on demand, so a task that never completes a job
            // reserves nothing; `observe` never holds more than `n`.
            window: VecDeque::new(),
            n,
            from_top: j.min(n - 1),
        }
    }

    /// The paper's default: second maximum over 16 samples (`p = 0.9375`).
    #[cfg(test)]
    fn paper_default() -> QuantileEstimator {
        QuantileEstimator::new(crate::lfspp::WINDOW, 0.9375)
    }

    /// A pure maximum estimator (`p = 1`).
    #[cfg(test)]
    fn max_of(n: usize) -> QuantileEstimator {
        QuantileEstimator::new(n, 1.0)
    }

    /// Feeds one observed per-job cost.
    pub fn observe(&mut self, sample: Dur) {
        if self.window.len() == self.n {
            self.window.pop_front();
        }
        self.window.push_back(sample);
    }

    /// The current prediction, once a sample was observed.
    pub fn predict(&self) -> Option<Dur> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted: Vec<Dur> = self.window.iter().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a)); // descending
        let idx = self.from_top.min(sorted.len() - 1);
        Some(sorted[idx])
    }

    /// Drops every sample.
    pub(crate) fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Dur {
        Dur::ms(v)
    }

    #[test]
    fn quantile_max_returns_max() {
        let mut q = QuantileEstimator::max_of(4);
        for v in [3, 7, 5, 2] {
            q.observe(ms(v));
        }
        assert_eq!(q.predict(), Some(ms(7)));
    }

    #[test]
    fn paper_default_is_second_max_of_16() {
        let mut q = QuantileEstimator::paper_default();
        for v in 1..=16 {
            q.observe(ms(v));
        }
        assert_eq!(q.predict(), Some(ms(15)));
    }

    #[test]
    fn window_slides() {
        let mut q = QuantileEstimator::max_of(3);
        for v in [10, 1, 2, 3] {
            q.observe(ms(v));
        }
        // The 10 fell out of the window.
        assert_eq!(q.predict(), Some(ms(3)));
    }

    #[test]
    fn empty_predicts_none() {
        let q = QuantileEstimator::paper_default();
        assert_eq!(q.predict(), None);
    }

    #[test]
    fn partial_window_clamps_rank() {
        let mut q = QuantileEstimator::new(16, 0.5); // 8th from top
        q.observe(ms(4));
        q.observe(ms(9));
        // Only two samples: rank clamps to the smallest.
        assert_eq!(q.predict(), Some(ms(4)));
    }

    #[test]
    fn reset_clears() {
        let mut q = QuantileEstimator::max_of(4);
        q.observe(ms(5));
        q.reset();
        assert_eq!(q.predict(), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_quantile_panics() {
        let _ = QuantileEstimator::new(16, 0.0);
    }
}
