//! Churn memory harness: drives one node through admit/depart waves and
//! reports the arena footprint afterwards.
//!
//! This is the accounting behind the `mem_report` table printed by the
//! million-task experiment (and the closed `cluster/milliontask/
//! bytes_per_task` row of `BENCH_cluster.json`): admissions far exceed
//! peak live tasks (tasks churn through and depart), so a recycling arena
//! holds ~peak-live full slots plus lean retired records, while the
//! pre-free-list arena keeps one full slot per task ever admitted. It is
//! the one place outside `node.rs` that freezes an arena, and it does so
//! on a single node it builds itself — a fleet run always recycles.

use crate::node::{ArenaMemStats, Node, NodeTask};
use crate::spec::{ScenarioSpec, TaskKind};
use selftune_simcore::time::{Dur, Time};

/// Outcome of one churn run (see [`churn_mem_report`]).
#[derive(Clone, Copy, Debug)]
pub struct ChurnMemReport {
    /// Whether the arena's slot free-list was enabled for this run.
    pub recycle: bool,
    /// Admit/depart waves driven through the node.
    pub waves: usize,
    /// Tasks admitted per wave.
    pub per_wave: usize,
    /// Largest live-task count observed at any wave boundary.
    pub peak_live: usize,
    /// Final arena accounting (slots, live, retired, bytes).
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
/// gap between the two is what slot recycling reclaims.
pub fn churn_mem_report(waves: usize, per_wave: usize, recycle: bool, seed: u64) -> ChurnMemReport {
    assert!(waves >= 1 && per_wave >= 1);
    let wave_ms = 400u64;
    let spec = ScenarioSpec::new("mem-churn", 1, 0, Dur::ms(waves as u64 * wave_ms));
    let mut node = Node::new(0, &spec);
    node.set_recycle(recycle);
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
        recycle,
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
        let r = churn_mem_report(4, 40, true, 7);
        assert_eq!(r.stats.admitted, 160);
        // Only the last wave stays live.
        assert_eq!(r.stats.live, 40);
        assert!(r.peak_live >= 40);
        assert!(r.bytes_per_task() > 0.0);
    }

    #[test]
    fn recycling_reclaims_churned_slots() {
        let on = churn_mem_report(10, 40, true, 7);
        let off = churn_mem_report(10, 40, false, 7);
        // Same workload either way.
        assert_eq!(on.stats.admitted, off.stats.admitted);
        assert_eq!(on.stats.live, off.stats.live);
        // The frozen arena keeps a full slot per admission; the recycling
        // arena holds ~peak-live slots plus lean retired records.
        assert_eq!(off.stats.slots as u64, off.stats.admitted);
        assert!(
            on.stats.slots < off.stats.slots / 2,
            "recycling kept {} slots vs {} frozen",
            on.stats.slots,
            off.stats.slots
        );
        assert!(
            off.bytes_per_task() >= 2.0 * on.bytes_per_task(),
            "expected ≥2x bytes/task win: on={:.1} off={:.1}",
            on.bytes_per_task(),
            off.bytes_per_task()
        );
    }
}
