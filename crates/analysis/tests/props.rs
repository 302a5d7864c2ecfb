//! Property-based tests for the schedulability analysis.

use proptest::prelude::*;
use selftune_analysis::{
    cbs_sbf, min_bandwidth_rm_group, min_bandwidth_single, min_budget_single, total_utilisation,
    PeriodicTask,
};

proptest! {
    #[test]
    fn sbf_is_monotone_and_bounded(
        q in 0.1f64..50.0,
        extra in 0.0f64..50.0,
        d1 in 0.0f64..500.0,
        d2 in 0.0f64..500.0,
    ) {
        let t = q + extra + 0.001;
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (s_lo, s_hi) = (cbs_sbf(q, t, lo), cbs_sbf(q, t, hi));
        prop_assert!(s_lo <= s_hi + 1e-9, "not monotone");
        prop_assert!(s_hi <= hi + 1e-9, "supply exceeds wall time");
    }

    #[test]
    fn sbf_monotone_in_budget(
        q1 in 0.1f64..20.0,
        dq in 0.0f64..20.0,
        t_extra in 0.001f64..50.0,
        d in 0.0f64..500.0,
    ) {
        let q2 = q1 + dq;
        let t = q2 + t_extra;
        prop_assert!(cbs_sbf(q1, t, d) <= cbs_sbf(q2, t, d) + 1e-9);
    }

    /// The computed minimum budget is tight: sufficient at q*, and
    /// insufficient 1% below.
    #[test]
    fn min_budget_is_tight(
        c in 1.0f64..40.0,
        p_extra in 0.1f64..100.0,
        t in 1.0f64..300.0,
    ) {
        let p = c + p_extra;
        let task = PeriodicTask::new(c, p);
        let q = min_budget_single(task, t);
        prop_assert!(cbs_sbf(q, t, p) >= c - 1e-5, "q* insufficient");
        if q > 0.01 {
            prop_assert!(cbs_sbf(q * 0.99, t, p) < c, "q* not minimal");
        }
    }

    /// Bandwidth never goes below the task utilisation, and equals it at
    /// the task period and its exact submultiples.
    #[test]
    fn min_bandwidth_at_least_utilisation(
        c in 1.0f64..40.0,
        p_extra in 0.1f64..100.0,
        t in 1.0f64..300.0,
        k in 1u32..6,
    ) {
        let p = c + p_extra;
        let task = PeriodicTask::new(c, p);
        let u = task.utilisation();
        prop_assert!(min_bandwidth_single(task, t) >= u - 1e-5);
        let sub = p / f64::from(k);
        let bw = min_bandwidth_single(task, sub);
        prop_assert!((bw - u).abs() < 1e-4, "at P/{k}: {bw} vs u {u}");
    }

    /// A group in one reservation never beats dedicated servers
    /// (Figure 2's message), whenever the group is feasible at all.
    #[test]
    fn group_is_never_cheaper_than_utilisation(
        c1 in 1.0f64..5.0, e1 in 5.0f64..30.0,
        c2 in 1.0f64..5.0, e2 in 5.0f64..30.0,
        t in 2.0f64..40.0,
    ) {
        let tasks = vec![
            PeriodicTask::new(c1, c1 + e1),
            PeriodicTask::new(c2, c2 + e2),
        ];
        let u = total_utilisation(&tasks);
        if let Some(bw) = min_bandwidth_rm_group(&tasks, t) {
            prop_assert!(bw >= u - 1e-5, "group bw {bw} below utilisation {u}");
            prop_assert!(bw <= 1.0 + 1e-9);
        }
    }
}
