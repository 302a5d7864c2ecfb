//! Supply bound functions of CPU reservations.
//!
//! A reservation `(Q, T)` guarantees `Q` units of CPU in every period `T`.
//! The *supply bound function* `sbf(Δ)` lower-bounds the CPU supplied in any
//! interval of length `Δ`, and drives the choice of the server period
//! analysed in Section 3.2 (Figures 1 and 2) of the paper and in the
//! authors' companion work \[8\].
//!
//! Time is in abstract units (`f64`); callers use milliseconds throughout.
//!
//! [`cbs_sbf`] models a hard CBS whose deadline equals the replenishment
//! period: the worst case inserts a single initial blackout of `T − Q`,
//! then supplies `Q` per period:
//! `sbf(Δ) = ⌊Δ/T⌋·Q + max(0, Δ − ⌊Δ/T⌋·T − (T − Q))`.
//! With `T = P` and `Q = C` a periodic task `(C, P)` is exactly
//! schedulable, reproducing the 20% floor of Figure 1.

/// Hard-CBS supply bound over an interval of length `delta`.
///
/// # Panics
///
/// Panics if `budget` or `period` is not positive, or `budget > period`,
/// or `delta` is negative.
pub fn cbs_sbf(budget: f64, period: f64, delta: f64) -> f64 {
    check_server(budget, period);
    assert!(delta >= 0.0, "delta {delta} must be non-negative");
    let k = (delta / period).floor();
    let into = delta - k * period - (period - budget);
    k * budget + into.max(0.0)
}

fn check_server(budget: f64, period: f64) {
    assert!(
        budget > 0.0 && period > 0.0 && budget <= period,
        "invalid server (Q={budget}, T={period})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_interval_supplies_nothing() {
        assert_eq!(cbs_sbf(2.0, 10.0, 0.0), 0.0);
    }

    #[test]
    fn full_bandwidth_server_supplies_everything() {
        // Q = T: no blackout, supply = Δ.
        for d in [0.0, 3.5, 10.0, 31.4] {
            assert!((cbs_sbf(10.0, 10.0, d) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn cbs_blackout_then_linear() {
        // (Q=2, T=10): blackout 8, then 2 per period.
        assert_eq!(cbs_sbf(2.0, 10.0, 8.0), 0.0);
        assert_eq!(cbs_sbf(2.0, 10.0, 9.0), 1.0);
        assert_eq!(cbs_sbf(2.0, 10.0, 10.0), 2.0);
        // Second period: flat until 18, then rises again.
        assert_eq!(cbs_sbf(2.0, 10.0, 15.0), 2.0);
        assert_eq!(cbs_sbf(2.0, 10.0, 19.0), 3.0);
        assert_eq!(cbs_sbf(2.0, 10.0, 20.0), 4.0);
    }

    #[test]
    fn figure1_anchor_point() {
        // Task C=20, P=100 scheduled by (Q=20, T=100): exactly feasible.
        assert!((cbs_sbf(20.0, 100.0, 100.0) - 20.0).abs() < 1e-12);
        // And by a half-period server (Q=10, T=50).
        assert!((cbs_sbf(10.0, 50.0, 100.0) - 20.0).abs() < 1e-12);
        // A slightly smaller budget is infeasible.
        assert!(cbs_sbf(19.9, 100.0, 100.0) < 20.0);
    }

    #[test]
    fn sbf_monotone_in_delta_and_budget() {
        let mut prev = 0.0;
        for i in 0..200 {
            let d = i as f64 * 0.5;
            let v = cbs_sbf(3.0, 10.0, d);
            assert!(v + 1e-12 >= prev);
            prev = v;
        }
        for i in 1..10 {
            let q = i as f64;
            assert!(cbs_sbf(q, 10.0, 25.0) <= cbs_sbf(q + 0.5, 10.0, 25.0) + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "invalid server")]
    fn budget_above_period_panics() {
        let _ = cbs_sbf(11.0, 10.0, 5.0);
    }
}
