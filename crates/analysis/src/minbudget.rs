//! Minimum budget/bandwidth computation for a given server period.
//!
//! This is the analysis behind the paper's Figures 1 and 2: for a server
//! period `T`, find the minimum budget `Q` (hence bandwidth `Q/T`) such
//! that the task — or the whole task group, scheduled rate-monotonically
//! inside the single reservation — meets every deadline on the worst-case
//! supply [`crate::sbf::cbs_sbf`].
//!
//! Feasibility is monotone in `Q`, so a binary search converges; `Q = T`
//! (a dedicated CPU) is the feasibility anchor.

use crate::demand::{dbf, edf_testing_points, hyperperiod};
use crate::demand::{rbf, rm_testing_points, total_utilisation, PeriodicTask};
use crate::sbf::cbs_sbf;

/// Relative tolerance of the budget binary search.
const TOL: f64 = 1e-7;

fn binary_search_budget<F: Fn(f64) -> bool>(period: f64, feasible: F) -> Option<f64> {
    if !feasible(period) {
        return None;
    }
    let (mut lo, mut hi) = (0.0_f64, period);
    while hi - lo > TOL * period {
        let mid = 0.5 * (lo + hi);
        if mid > 0.0 && feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Minimum budget scheduling a single periodic task in a CBS of period
/// `server_period`. Always feasible (`Q = T` is a dedicated CPU).
///
/// # Panics
///
/// Panics if `server_period` is not positive.
pub fn min_budget_single(task: PeriodicTask, server_period: f64) -> f64 {
    assert!(server_period > 0.0);
    binary_search_budget(server_period, |q| {
        cbs_sbf(q, server_period, task.period) >= task.wcet - 1e-12
    })
    .expect("Q = T always schedules a single task with C <= P")
}

/// Minimum bandwidth `Q/T` for a single task — the y-axis of Figure 1.
pub fn min_bandwidth_single(task: PeriodicTask, server_period: f64) -> f64 {
    min_budget_single(task, server_period) / server_period
}

/// Fixed-priority (rate-monotonic) schedulability of `tasks` inside one
/// server `(q, t)`. `tasks` must be sorted by priority, highest first
/// (shortest period first for RM).
pub(crate) fn rm_schedulable_in_server(tasks: &[PeriodicTask], budget: f64, period: f64) -> bool {
    for i in 0..tasks.len() {
        let points = rm_testing_points(tasks, i);
        let ok = points.iter().any(|&pt| {
            let demand = rbf(&tasks[..i], pt) + tasks[i].wcet;
            cbs_sbf(budget, period, pt) >= demand - 1e-9
        });
        if !ok {
            return false;
        }
    }
    true
}

/// Minimum budget scheduling the whole group rate-monotonically inside one
/// server of period `server_period`; `None` if even a dedicated CPU
/// (`Q = T`) fails RM analysis.
///
/// Tasks are sorted rate-monotonically internally.
pub fn min_budget_rm_group(tasks: &[PeriodicTask], server_period: f64) -> Option<f64> {
    assert!(server_period > 0.0 && !tasks.is_empty());
    let mut sorted = tasks.to_vec();
    sorted.sort_by(|a, b| a.period.partial_cmp(&b.period).expect("NaN period"));
    binary_search_budget(server_period, |q| {
        rm_schedulable_in_server(&sorted, q, server_period)
    })
}

/// Minimum bandwidth for the RM group — the "single reservation" curve of
/// Figure 2.
pub fn min_bandwidth_rm_group(tasks: &[PeriodicTask], server_period: f64) -> Option<f64> {
    min_budget_rm_group(tasks, server_period).map(|q| q / server_period)
}

/// EDF schedulability of `tasks` inside one server `(q, t)`: the demand
/// bound must stay below the supply bound at every deadline up to twice the
/// hyperperiod (plus the bandwidth necessary condition `Q/T ≥ U`).
pub(crate) fn edf_schedulable_in_server(tasks: &[PeriodicTask], budget: f64, period: f64) -> bool {
    let u = total_utilisation(tasks);
    if budget / period < u - 1e-12 {
        return false;
    }
    let limit = 2.0 * hyperperiod(tasks) + 2.0 * period;
    edf_testing_points(tasks, limit)
        .iter()
        .all(|&pt| dbf(tasks, pt) <= cbs_sbf(budget, period, pt) + 1e-9)
}

/// Minimum budget scheduling the group under EDF inside one server.
pub fn min_budget_edf_group(tasks: &[PeriodicTask], server_period: f64) -> Option<f64> {
    assert!(server_period > 0.0 && !tasks.is_empty());
    binary_search_budget(server_period, |q| {
        edf_schedulable_in_server(tasks, q, server_period)
    })
}

/// Total bandwidth with one dedicated, well-dimensioned server per task
/// (`T = Pᵢ`, `Q = Cᵢ`): the theoretical lower bound the paper contrasts
/// against (the cumulative utilisation).
pub fn dedicated_servers_bandwidth(tasks: &[PeriodicTask]) -> f64 {
    total_utilisation(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_task() -> PeriodicTask {
        PeriodicTask::new(20.0, 100.0)
    }

    fn fig2_tasks() -> Vec<PeriodicTask> {
        vec![
            PeriodicTask::new(3.0, 15.0),
            PeriodicTask::new(5.0, 20.0),
            PeriodicTask::new(5.0, 30.0),
        ]
    }

    #[test]
    fn matching_period_needs_exactly_utilisation() {
        // Figure 1: T = P = 100 → bandwidth 20%.
        let bw = min_bandwidth_single(fig1_task(), 100.0);
        assert!((bw - 0.2).abs() < 1e-4, "bw = {bw}");
    }

    #[test]
    fn submultiple_periods_also_need_utilisation() {
        // Figure 1: T ∈ {50, 25, 20} (P/k) → still 20%.
        for t in [50.0, 25.0, 20.0] {
            let bw = min_bandwidth_single(fig1_task(), t);
            assert!((bw - 0.2).abs() < 1e-3, "T={t}: bw = {bw}");
        }
    }

    #[test]
    fn off_submultiple_wastes_bandwidth() {
        // Figure 1's sawtooth: bandwidth rises between submultiples of P.
        // T = 36: ⌊100/36⌋ = 2 → 3Q − 8 ≥ 20 → Q = 9.33, bw ≈ 0.259.
        let bw36 = min_bandwidth_single(fig1_task(), 36.0);
        assert!((bw36 - 9.333 / 36.0).abs() < 1e-3, "bw36 = {bw36}");
        // T = 60: ⌊100/60⌋ = 1 → 2Q − 20 ≥ 20 → Q = 20, bw = 1/3.
        let bw60 = min_bandwidth_single(fig1_task(), 60.0);
        assert!((bw60 - 20.0 / 60.0).abs() < 1e-3, "bw60 = {bw60}");
        // Exact submultiple T = 100/3 is efficient again (valley).
        let bw_sub = min_bandwidth_single(fig1_task(), 100.0 / 3.0);
        assert!((bw_sub - 0.2).abs() < 1e-3, "bw_sub = {bw_sub}");
    }

    #[test]
    fn oversized_period_is_expensive() {
        // Figure 1: T = 200 > P → Q − (T − ... ) gives Q = 120, bw = 0.6.
        let bw = min_bandwidth_single(fig1_task(), 200.0);
        assert!((bw - 0.6).abs() < 1e-3, "bw = {bw}");
    }

    #[test]
    fn min_budget_is_tight() {
        let task = fig1_task();
        for t in [20.0, 33.0, 40.0, 100.0, 150.0] {
            let q = min_budget_single(task, t);
            assert!(cbs_sbf(q, t, task.period) >= task.wcet - 1e-6);
            if q > 1e-3 {
                assert!(cbs_sbf(q * 0.999, t, task.period) < task.wcet);
            }
        }
    }

    #[test]
    fn figure2_group_wastes_6_to_41_percent() {
        // The paper: single-reservation waste is between 6% and 41% over
        // the ≈ 62% utilisation, for server periods in a sane range.
        let tasks = fig2_tasks();
        let u = dedicated_servers_bandwidth(&tasks);
        let mut min_bw = f64::INFINITY;
        let mut max_bw: f64 = 0.0;
        let mut t = 2.0;
        while t <= 30.0 {
            if let Some(bw) = min_bandwidth_rm_group(&tasks, t) {
                min_bw = min_bw.min(bw);
                max_bw = max_bw.max(bw);
            }
            t += 0.5;
        }
        assert!(min_bw > u + 0.03, "best group bw {min_bw} vs u {u}");
        assert!(min_bw < u + 0.15, "best group bw {min_bw} unexpectedly bad");
        assert!(max_bw > u + 0.2, "worst group bw {max_bw}");
    }

    #[test]
    fn group_never_beats_dedicated_servers() {
        let tasks = fig2_tasks();
        let u = dedicated_servers_bandwidth(&tasks);
        for t in [5.0, 10.0, 15.0, 20.0, 25.0] {
            if let Some(bw) = min_bandwidth_rm_group(&tasks, t) {
                assert!(bw >= u - 1e-6, "T={t}: group bw {bw} < u {u}");
            }
        }
    }

    #[test]
    fn rm_schedulable_sanity() {
        let tasks = fig2_tasks();
        // Dedicated CPU: clearly schedulable (U ≈ 0.62, RM TDA passes).
        assert!(rm_schedulable_in_server(&tasks, 10.0, 10.0));
        // Starved server: clearly not.
        assert!(!rm_schedulable_in_server(&tasks, 0.5, 10.0));
    }

    #[test]
    fn edf_group_at_least_utilisation_and_at_most_rm() {
        let tasks = fig2_tasks();
        let u = total_utilisation(&tasks);
        for t in [5.0, 10.0, 15.0] {
            let edf = min_budget_edf_group(&tasks, t).expect("feasible") / t;
            let rm = min_bandwidth_rm_group(&tasks, t).expect("feasible");
            assert!(edf >= u - 1e-6, "T={t}: edf bw {edf} below U {u}");
            assert!(edf <= rm + 1e-6, "T={t}: edf bw {edf} above rm {rm}");
        }
    }

    #[test]
    fn infeasible_group_returns_none() {
        // Three tasks with U ≈ 0.97 cannot fit a tiny server period under
        // RM-in-server with blackouts... use an over-utilised set instead.
        let tasks = vec![PeriodicTask::new(9.0, 10.0), PeriodicTask::new(5.0, 20.0)];
        // U = 1.15 > 1: never schedulable.
        assert_eq!(min_budget_rm_group(&tasks, 10.0), None);
        assert_eq!(min_budget_edf_group(&tasks, 10.0), None);
    }
}
