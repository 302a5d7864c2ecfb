//! The original Legacy Feedback Scheduler (LFS) baseline.
//!
//! Following Abeni & Palopoli (the paper's reference \[2\]), the original LFS
//! samples a *binary* variable per interval — "did the task receive enough
//! computation?" — implemented here as the CBS budget-exhaustion flag. The
//! control law is a multiplicative increase on starvation and a gentle
//! decrease otherwise, which is why it needs over a hundred frames to ramp
//! the reserved CPU up to demand in the paper's Figure 13, while LFS++
//! (with its finer-grained sensor) adapts almost immediately.
//!
//! The law's numbers are constants, not options, because every caller ran
//! it at the same values: it starts at 10 % (`INITIAL_BW`), multiplies by
//! 1.05 on starvation (`UP`) and by 0.99 otherwise (`DOWN`), and stays
//! within [`MIN_BW`] = 1 % and [`MAX_BW`] = 95 %. The ramp is the paper's
//! shape; the clamps are extensions that keep the reservation alive and
//! under the supervisor's default bound.

use crate::lfspp::BudgetRequest;
use selftune_simcore::time::Dur;

/// Bandwidth assigned before any feedback: 10 %. The paper's Figure 13
/// shows LFS starting low and ramping; the value is this model's.
const INITIAL_BW: f64 = 0.10;

/// Multiplicative increase when the budget was exhausted: ×1.05, the gentle
/// ramp behind Figure 13's >100-frame convergence (the paper's shape, not a
/// number it states).
const UP: f64 = 1.05;

/// Multiplicative decrease when it was not: ×0.99 (as for `UP`).
const DOWN: f64 = 0.99;

/// Lower clamp of the controlled bandwidth: 1 %. An extension beyond the
/// paper that keeps a starved task's reservation alive.
pub const MIN_BW: f64 = 0.01;

/// Upper clamp of the controlled bandwidth: 95 %, the default supervisor
/// bound `U_lub`. An extension beyond the paper.
pub const MAX_BW: f64 = 0.95;

/// The binary-sensor feedback controller.
#[derive(Debug)]
pub struct Lfs {
    bw: f64,
}

impl Default for Lfs {
    /// A controller at its initial bandwidth.
    fn default() -> Lfs {
        Lfs { bw: INITIAL_BW }
    }
}

impl Lfs {
    /// Current controlled bandwidth.
    pub fn bandwidth(&self) -> f64 {
        self.bw
    }

    /// One feedback step: `exhausted` is the binary sensor reading, and
    /// `period` the reservation period to request (fixed, or supplied by
    /// the period analyser). Returns the new `(Q, T)` request.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn step(&mut self, exhausted: bool, period: Dur) -> BudgetRequest {
        assert!(!period.is_zero(), "period must be positive");
        self.bw = if exhausted {
            (self.bw * UP).min(MAX_BW)
        } else {
            (self.bw * DOWN).max(MIN_BW)
        };
        BudgetRequest {
            budget: period.mul_f64(self.bw),
            period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial_bandwidth() {
        let l = Lfs::default();
        assert_eq!(l.bandwidth(), INITIAL_BW);
    }

    #[test]
    fn ramps_up_under_starvation() {
        let mut l = Lfs::default();
        let p = Dur::ms(40);
        for _ in 0..20 {
            let _ = l.step(true, p);
        }
        // 0.10 · 1.05^20 ≈ 0.265.
        assert!((l.bandwidth() - INITIAL_BW * UP.powi(20)).abs() < 1e-9);
    }

    #[test]
    fn ramp_is_slow_compared_to_lfspp() {
        // To go from 10% to 30% takes ≈ 23 steps at 5% growth — this is
        // the >100-frame convergence of Figure 13 when sampled every few
        // frames.
        let mut l = Lfs::default();
        let mut steps = 0;
        while l.bandwidth() < 0.30 {
            let _ = l.step(true, Dur::ms(40));
            steps += 1;
        }
        assert!((20..30).contains(&steps), "{steps} steps");
    }

    #[test]
    fn decays_when_satisfied() {
        let mut l = Lfs::default();
        for _ in 0..10 {
            let _ = l.step(true, Dur::ms(40));
        }
        let high = l.bandwidth();
        for _ in 0..10 {
            let _ = l.step(false, Dur::ms(40));
        }
        assert!(l.bandwidth() < high);
    }

    #[test]
    fn clamps_hold() {
        let mut l = Lfs::default();
        for _ in 0..500 {
            let _ = l.step(true, Dur::ms(40));
        }
        assert_eq!(l.bandwidth(), MAX_BW);
        for _ in 0..5_000 {
            let _ = l.step(false, Dur::ms(40));
        }
        assert_eq!(l.bandwidth(), MIN_BW);
    }

    #[test]
    fn request_scales_with_period() {
        let mut l = Lfs::default();
        let r = l.step(false, Dur::ms(100));
        assert_eq!(r.period, Dur::ms(100));
        assert!((r.bandwidth() - l.bandwidth()).abs() < 1e-6);
    }
}
