//! Rate-monotonic priority assignment.
//!
//! The priorities feed a server's `InnerPolicy::FixedPriority` dispatch:
//! the paper's Figure 2 runs three tasks rate-monotonically inside one
//! CBS reservation dimensioned by the analysis.

use selftune_simcore::task::TaskId;
use selftune_simcore::time::Dur;

/// Assigns rate-monotonic priorities: shorter period = higher priority
/// (lower value). Returns `(task, priority)` pairs.
pub fn rate_monotonic(periods: &[(TaskId, Dur)]) -> Vec<(TaskId, u32)> {
    let mut by_period: Vec<_> = periods.to_vec();
    by_period.sort_by_key(|&(t, p)| (p, t));
    by_period
        .into_iter()
        .enumerate()
        .map(|(i, (t, _))| (t, i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_monotonic_orders_by_period() {
        let prios = rate_monotonic(&[
            (TaskId(1), Dur::ms(30)),
            (TaskId(2), Dur::ms(15)),
            (TaskId(3), Dur::ms(20)),
        ]);
        let map: std::collections::HashMap<_, _> = prios.into_iter().collect();
        assert_eq!(map[&TaskId(2)], 0);
        assert_eq!(map[&TaskId(3)], 1);
        assert_eq!(map[&TaskId(1)], 2);
    }
}
