//! Churn memory harness: drives one node through admit/depart waves and
//! reports the arena footprint afterwards.
//!
//! This is the accounting behind the `mem_report` table printed by the
//! million-task experiment (and the closed `cluster/milliontask/
//! bytes_per_task` row of `BENCH_cluster.json`): admissions far exceed
//! peak live tasks (tasks churn through and depart), so an arena holds one
//! lean entry per task ever admitted plus a live box per task still
//! running — a retired entry's box goes back to the allocator. `node.rs`'s
//! test `a_churned_arena_holds_at_most_70_bytes_per_admitted_task` holds
//! that footprint.

use crate::node::{ArenaMemStats, Node, NodeTask};
use crate::spec::{ScenarioSpec, TaskKind};
use selftune_simcore::time::{Dur, Time};

/// Outcome of one churn run (see [`churn_mem_report`]).
#[derive(Clone, Copy, Debug)]
pub struct ChurnMemReport {
    /// Admit/depart waves driven through the node.
    pub waves: usize,
    /// Tasks admitted per wave.
    pub per_wave: usize,
    /// Largest live-task count observed at any wave boundary.
    pub peak_live: usize,
    /// Final arena accounting (admitted, live, retired, bytes).
    pub stats: ArenaMemStats,
}

impl ChurnMemReport {
    /// Resident bytes per ever-admitted task — the bench metric.
    pub fn bytes_per_task(&self) -> f64 {
        self.stats.bytes_per_task()
    }
}

/// Runs `waves` admit/depart waves of `per_wave` periodic tasks through a
/// single node and returns the arena accounting.
///
/// Every wave's tasks depart 100 ms in (leaving ≥ one period of slack
/// before the 400 ms wave boundary, so their leases have actually retired
/// by the next wave) except the final wave, which stays live — the
/// steady-state population. Total admissions are therefore `waves ×
/// per_wave` against a peak live population of roughly `per_wave`; the
/// gap between the two is what retirement hands back to the allocator.
pub fn churn_mem_report(waves: usize, per_wave: usize, seed: u64) -> ChurnMemReport {
    assert!(waves >= 1 && per_wave >= 1);
    let wave_ms = 400u64;
    let spec = ScenarioSpec::new("mem-churn", 1, 0, Dur::ms(waves as u64 * wave_ms));
    let mut node = Node::new(0, &spec);
    let mut peak_live = 0usize;
    let mut fleet_id = 0usize;
    for w in 0..waves {
        let start = Time::ZERO + Dur::ms(w as u64 * wave_ms);
        let last = w + 1 == waves;
        for _ in 0..per_wave {
            node.add_task(NodeTask {
                fleet_id,
                label: format!("m{fleet_id:06}"),
                kind: TaskKind::PeriodicRt {
                    wcet: Dur::us(10),
                    period: Dur::ms(50),
                },
                arrival: start,
                departure: (!last).then(|| start + Dur::ms(100)),
                seed: seed ^ fleet_id as u64,
                migrated: false,
                warm: None,
            });
            fleet_id += 1;
        }
        node.run_to_horizon(Time::ZERO + Dur::ms((w as u64 + 1) * wave_ms));
        peak_live = peak_live.max(node.mem_stats().live);
    }
    ChurnMemReport {
        waves,
        per_wave,
        peak_live,
        stats: node.mem_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_report_counts_every_admission() {
        let r = churn_mem_report(4, 40, 7);
        assert_eq!(r.stats.admitted, 160);
        // Only the last wave stays live.
        assert_eq!(r.stats.live, 40);
        assert!(r.peak_live >= 40);
        assert!(r.bytes_per_task() > 0.0);
    }
}
