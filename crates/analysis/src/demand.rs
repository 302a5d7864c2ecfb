//! Demand-side bounds for periodic task sets.
//!
//! A periodic task is `(C, P)` with implicit deadline `D = P`, as in the
//! paper's task model (Section 3.1). The request bound function feeds the
//! fixed-priority (rate-monotonic) time-demand analysis, and the demand
//! bound function feeds EDF analysis; both are combined with a supply bound
//! in [`crate::minbudget`].

/// A periodic task `(C, P)` with implicit deadline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PeriodicTask {
    /// Worst-case execution time.
    pub wcet: f64,
    /// Period (= deadline).
    pub period: f64,
}

impl PeriodicTask {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < wcet ≤ period`.
    pub fn new(wcet: f64, period: f64) -> PeriodicTask {
        assert!(
            wcet > 0.0 && period > 0.0 && wcet <= period,
            "invalid task (C={wcet}, P={period})"
        );
        PeriodicTask { wcet, period }
    }

    /// CPU utilisation `C/P`.
    pub fn utilisation(&self) -> f64 {
        self.wcet / self.period
    }
}

/// Total utilisation of a task set.
pub fn total_utilisation(tasks: &[PeriodicTask]) -> f64 {
    tasks.iter().map(PeriodicTask::utilisation).sum()
}

/// Request bound function: worst-case work released by `tasks` in `[0, t]`
/// under synchronous release, `Σᵢ ⌈t/Pᵢ⌉·Cᵢ`.
pub(crate) fn rbf(tasks: &[PeriodicTask], t: f64) -> f64 {
    assert!(t >= 0.0);
    tasks
        .iter()
        .map(|task| (t / task.period).ceil() * task.wcet)
        .sum()
}

/// Demand bound function for implicit-deadline tasks: work that must
/// complete within any interval of length `t`, `Σᵢ ⌊t/Pᵢ⌋·Cᵢ`.
pub(crate) fn dbf(tasks: &[PeriodicTask], t: f64) -> f64 {
    assert!(t >= 0.0);
    tasks
        .iter()
        .map(|task| (t / task.period).floor() * task.wcet)
        .sum()
}

/// Time-demand testing points for task `i` (0-based, tasks sorted by
/// priority, highest first): all multiples of higher-or-equal-priority
/// periods up to and including `Dᵢ = Pᵢ`, plus `Dᵢ` itself.
///
/// Sorted ascending, deduplicated.
pub(crate) fn rm_testing_points(tasks: &[PeriodicTask], i: usize) -> Vec<f64> {
    let d = tasks[i].period;
    let mut pts = Vec::new();
    for task in &tasks[..=i] {
        let mut k = 1.0;
        while k * task.period <= d + 1e-9 {
            pts.push(k * task.period);
            k += 1.0;
        }
    }
    pts.push(d);
    pts.sort_by(|a, b| a.partial_cmp(b).expect("NaN testing point"));
    pts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    pts
}

/// EDF testing points: all job deadlines (multiples of each period) up to
/// and including the hyperperiod approximation `limit`.
pub(crate) fn edf_testing_points(tasks: &[PeriodicTask], limit: f64) -> Vec<f64> {
    let mut pts = Vec::new();
    for task in tasks {
        let mut k = 1.0;
        while k * task.period <= limit + 1e-9 {
            pts.push(k * task.period);
            k += 1.0;
        }
    }
    pts.sort_by(|a, b| a.partial_cmp(b).expect("NaN testing point"));
    pts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    pts
}

/// Least common multiple of the task periods (the hyperperiod), computed on
/// microsecond-resolution integers to avoid floating-point drift.
pub(crate) fn hyperperiod(tasks: &[PeriodicTask]) -> f64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut l: u64 = 1;
    for t in tasks {
        let p = (t.period * 1e6).round() as u64;
        assert!(p > 0, "period too small for hyperperiod computation");
        l = l / gcd(l, p) * p;
    }
    l as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tasks() -> Vec<PeriodicTask> {
        // The Figure 2 task set: (3, 15), (5, 20), (5, 30) ms.
        vec![
            PeriodicTask::new(3.0, 15.0),
            PeriodicTask::new(5.0, 20.0),
            PeriodicTask::new(5.0, 30.0),
        ]
    }

    #[test]
    fn utilisation_matches_paper() {
        // 3/15 + 5/20 + 5/30 = 0.2 + 0.25 + 0.1667 ≈ 61.7%.
        let u = total_utilisation(&paper_tasks());
        assert!((u - 0.6166666).abs() < 1e-5, "u = {u}");
    }

    #[test]
    fn rbf_steps_at_releases() {
        let ts = paper_tasks();
        assert_eq!(rbf(&ts, 0.0), 0.0);
        // t=1: one job of each: 3+5+5 = 13.
        assert_eq!(rbf(&ts, 1.0), 13.0);
        // t=16: two of task1, one each of others: 6+5+5 = 16.
        assert_eq!(rbf(&ts, 16.0), 16.0);
    }

    #[test]
    fn dbf_counts_completed_deadlines() {
        let ts = paper_tasks();
        assert_eq!(dbf(&ts, 14.0), 0.0);
        assert_eq!(dbf(&ts, 15.0), 3.0);
        assert_eq!(dbf(&ts, 20.0), 8.0);
        // By t=30: two deadlines of (3,15), one of (5,20), one of (5,30).
        assert_eq!(dbf(&ts, 30.0), 16.0);
    }

    #[test]
    fn dbf_below_rbf() {
        let ts = paper_tasks();
        for i in 0..240 {
            let t = i as f64 * 0.5;
            assert!(dbf(&ts, t) <= rbf(&ts, t) + 1e-12);
        }
    }

    #[test]
    fn rm_points_for_lowest_priority_task() {
        let ts = paper_tasks();
        let pts = rm_testing_points(&ts, 2);
        // Multiples of 15 (15, 30), of 20 (20), of 30 (30) up to 30.
        assert_eq!(pts, vec![15.0, 20.0, 30.0]);
    }

    #[test]
    fn rm_points_for_highest_priority_task() {
        let ts = paper_tasks();
        let pts = rm_testing_points(&ts, 0);
        assert_eq!(pts, vec![15.0]);
    }

    #[test]
    fn hyperperiod_of_paper_set() {
        assert!((hyperperiod(&paper_tasks()) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn edf_points_cover_all_deadlines() {
        let ts = paper_tasks();
        let pts = edf_testing_points(&ts, 60.0);
        assert_eq!(pts, vec![15.0, 20.0, 30.0, 40.0, 45.0, 60.0]);
    }

    #[test]
    #[should_panic(expected = "invalid task")]
    fn wcet_above_period_panics() {
        let _ = PeriodicTask::new(10.0, 5.0);
    }
}
