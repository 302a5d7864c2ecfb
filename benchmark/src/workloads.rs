//! The four workloads as `ScenarioSpec`s, built only from the fleet
//! crate's public builders, in full and `--smoke` sizes.
//!
//! Sizes were fitted to the driver's time cap (92 runs in under an hour
//! on two cores): the fleet horizons are shorter than the issue's
//! starting point, node and task counts are not. `control_replicated`
//! keeps the issue's size in full: its scenario has a fixed six-second
//! storyline (wave, flash crowd, drain) that a shorter horizon would cut.
//! `WORKLOADS.md` has the numbers.

use selftune_cluster::prelude::*;
use selftune_journal::{Journal, PolicySwap, WhatIf};
use selftune_simcore::time::{Dur, Time};

/// Checkpoint cadence of the shipped stream, in epochs.
pub const CHECKPOINT_EVERY: usize = 4;

/// Runner threads: closed loop, one process, `min(nproc, 2)` workers.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// A workload ready to run.
pub struct Built {
    /// The generated scenario — all the program under test receives.
    pub spec: ScenarioSpec,
    /// Sketch (fleet-scale) aggregates instead of exact per-task vectors.
    pub sketch: bool,
    /// Whether the journal/replica legs run (`control_replicated` only).
    pub replicated: bool,
}

impl Built {
    /// A runner configured for this workload on `threads` workers.
    pub fn runner(&self, threads: usize) -> ClusterRunner {
        ClusterRunner::new(threads).with_sketch_aggregates(self.sketch)
    }

    /// The one counterfactual the replicated workload asks: the
    /// rebalancer switched off from the middle epoch of `journal` on.
    pub fn whatif(journal: &Journal) -> WhatIf {
        WhatIf {
            cut_epoch: journal.epochs() / 2,
            swap: PolicySwap::DisableRebalance,
        }
    }

    /// The epoch whose batch is the last the promoted standby receives:
    /// the first boundary at or after the flash crowd lands (phase 1 of
    /// the diurnal demo), clamped into the epoch range. The crowd has
    /// arrived but the rebalancer has not reacted — the decisions at
    /// stake in a failover are the valuable ones.
    pub fn crash_epoch(&self) -> usize {
        let ends = ClusterRunner::epoch_ends(&self.spec);
        let epochs = ends.len() - 1;
        let crowd = self
            .spec
            .phases
            .get(1)
            .map_or(Time::ZERO, |p| Time::ZERO + p.start);
        ends.iter()
            .position(|&t| t >= crowd)
            .unwrap_or(0)
            .min(epochs.saturating_sub(1))
    }
}

/// The synthetic periodic kind of `TaskMix::media_heavy`.
fn periodic_2_50() -> TaskKind {
    TaskKind::PeriodicRt {
        wcet: Dur::ms(2),
        period: Dur::ms(50),
    }
}

/// `node_selftune`: two independent nodes, eight tasks each, drawn from
/// the three kinds of `TaskMix::media_heavy` in *fixed* proportion — per
/// node one 25 fps player, one 30 fps streamer and six periodic tasks,
/// which is what a node admits in full under `U_lub = 0.9`.
///
/// Sampling the mix instead would let the seed pick the composition (8
/// to 11 of 16 tasks admitted, 27 to 39 µs of host time per job across
/// six seeds), and the driver takes each metric's spread *across* seeds.
/// One single-kind traffic phase per kind pins the composition through
/// the public builders; the seed still drives every workload's RNG.
fn node_selftune(horizon: Dur) -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::new("node_selftune", 2, 0, horizon).with_policy(PolicyKind::WorstFit);
    for (kind, count) in [
        (TaskKind::Video25, 2usize),
        (TaskKind::Stream30, 2),
        (periodic_2_50(), 12),
    ] {
        spec = spec.with_phase(TrafficPhase {
            start: Dur::ZERO,
            // Past the horizon: phase tasks never depart.
            end: horizon + Dur::secs(1),
            // The scenario default's 20 ms stagger.
            ramp: Dur::ms(20 * count as u64),
            tasks: count,
            mix: TaskMix::new(vec![(kind, 1.0)]),
            nodes: NodeFilter::All,
        });
    }
    spec
}

fn fleet_dense(nodes: usize, tasks: usize, horizon: Dur) -> ScenarioSpec {
    let mut spec = ScenarioSpec::milliontask_demo(nodes, tasks, horizon)
        .with_rebalance(ScenarioSpec::milliontask_rebalance(horizon));
    spec.name = "fleet_dense".to_owned();
    spec
}

fn fleet_wide(nodes: usize, tasks: usize, horizon: Dur) -> ScenarioSpec {
    let mut spec = ScenarioSpec::megafleet_demo(nodes, tasks, horizon)
        .with_policy(PolicyKind::WorstFit)
        .with_rebalance(ScenarioSpec::megafleet_rebalance(horizon));
    spec.name = "fleet_wide".to_owned();
    spec
}

/// The composed diurnal plane: elastic VM shares, node re-bounding and
/// the feedback rebalancer all on, 200 ms epochs (29 of them).
fn control_replicated(nodes: usize, tasks: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(nodes, tasks);
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    spec.name = "control_replicated".to_owned();
    spec.with_node_share(ScenarioSpec::diurnal_node_share())
        .with_rebalance(RebalanceSpec {
            period: Dur::ms(200),
            max_moves: 64,
            ..ScenarioSpec::diurnal_rebalance()
        })
}

/// Builds workload `name` (`None` for an unknown name). `smoke` keeps the
/// four shapes but shrinks them to CI size.
pub fn build(name: &str, smoke: bool) -> Option<Built> {
    let fleet = |spec| Built {
        spec,
        sketch: true,
        replicated: false,
    };
    Some(match (name, smoke) {
        ("node_selftune", _) => Built {
            spec: node_selftune(Dur::secs(if smoke { 10 } else { 200 })),
            sketch: false,
            replicated: false,
        },
        ("fleet_dense", false) => fleet(fleet_dense(250, 50_000, Dur::ms(750))),
        ("fleet_dense", true) => fleet(fleet_dense(128, 4_000, Dur::ms(250))),
        ("fleet_wide", false) => fleet(fleet_wide(10_000, 20_000, Dur::ms(250))),
        ("fleet_wide", true) => fleet(fleet_wide(1_000, 2_000, Dur::ms(250))),
        ("control_replicated", _) => Built {
            spec: if smoke {
                control_replicated(12, 72)
            } else {
                control_replicated(400, 2_400)
            },
            // The journal and the follower run exact aggregates.
            sketch: false,
            replicated: true,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn every_catalogued_workload_builds_in_both_sizes() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let b = build(w.name, smoke).unwrap_or_else(|| panic!("{} missing", w.name));
                assert_eq!(b.spec.name, w.name);
                // The program receives the spec as text; it must survive.
                let text = b.spec.to_text();
                assert_eq!(
                    ScenarioSpec::from_text(&text).unwrap(),
                    b.spec,
                    "{}",
                    w.name
                );
            }
        }
        assert!(build("nope", false).is_none());
    }

    #[test]
    fn node_selftune_admits_its_fixed_composition_in_full() {
        let b = build("node_selftune", true).unwrap();
        for seed in [42, 7] {
            let plan = selftune_cluster::runner::plan_fleet(&b.spec, seed);
            assert_eq!(plan.admission.admitted, 16, "seed {seed}");
            assert_eq!(plan.admission.rejected, 0, "seed {seed}");
            let on0 = plan.tasks.iter().filter(|t| t.node == Some(0)).count();
            assert_eq!(on0, 8, "seed {seed}");
        }
    }

    #[test]
    fn crash_epoch_is_the_flash_crowd_boundary() {
        let b = build("control_replicated", false).unwrap();
        assert_eq!(ClusterRunner::epoch_ends(&b.spec).len() - 1, 29);
        // Crowd at 2.5 s, 200 ms epochs: boundary 12 ends at 2.6 s.
        assert_eq!(b.crash_epoch(), 12);
        // Workloads without phases or epochs clamp to 0.
        assert_eq!(build("fleet_wide", true).unwrap().crash_epoch(), 0);
    }
}
