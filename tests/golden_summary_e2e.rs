//! Golden e2e: the simulated output of two whole-stack scenarios, pinned
//! bit for bit.
//!
//! The journals, CSVs and fixtures are byte-exact contracts, but until
//! now only the *benchmark* compared a self-tuning node's output across
//! commits (its `sim_fingerprint`). These tests pin the FNV-1a of
//! `AggregateMetrics::summary_csv` — which prints every `f64` aggregate
//! with `{:?}`-exact digits — so a spectrum, tracer or supervisor
//! "speed-up" that moves one bit of one accumulator fails `cargo test`.
//!
//! The constants were generated at commit ad2bf66, before the block DFT
//! kernel and the one-pass trace demux were written; regenerate them only
//! for a change that is *meant* to alter simulated behaviour.

use selftune::cluster::prelude::*;
use selftune::distrib::fnv1a64;
use selftune::simcore::time::Dur;

/// The benchmark's `node_selftune` shape at CI size: two independent
/// nodes of eight tasks each (one 25 fps player, one 30 fps streamer, six
/// 2 ms / 50 ms periodic tasks), 10 sim-s, exact aggregates. One
/// single-kind phase per kind pins the composition whatever the seed.
fn node_selftune() -> ScenarioSpec {
    let horizon = Dur::secs(10);
    let periodic = TaskKind::PeriodicRt {
        wcet: Dur::ms(2),
        period: Dur::ms(50),
    };
    let mut spec =
        ScenarioSpec::new("node_selftune", 2, 0, horizon).with_policy(PolicyKind::WorstFit);
    for (kind, count) in [
        (TaskKind::Video25, 2usize),
        (TaskKind::Stream30, 2),
        (periodic, 12),
    ] {
        spec = spec.with_phase(TrafficPhase {
            start: Dur::ZERO,
            end: horizon + Dur::secs(1),
            ramp: Dur::ms(20 * count as u64),
            tasks: count,
            mix: TaskMix::new(vec![(kind, 1.0)]),
            nodes: NodeFilter::All,
        });
    }
    spec
}

/// The composed diurnal plane on 12 nodes: elastic VM shares, node
/// re-bounding and the feedback rebalancer all on.
fn diurnal_elastic() -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(12, 72);
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    spec.with_node_share(ScenarioSpec::diurnal_node_share())
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
}

fn summary_hash(spec: &ScenarioSpec, seed: u64) -> u64 {
    let agg = ClusterRunner::new(2).run(spec, seed);
    assert!(agg.completions() > 0, "the scenario must do work");
    fnv1a64(agg.summary_csv().as_bytes())
}

#[test]
fn node_selftune_summary_is_pinned_at_seeds_42_and_7() {
    let spec = node_selftune();
    assert_eq!(
        summary_hash(&spec, 42),
        0xc762_3592_7024_bc08,
        "seed 42: summary_csv moved"
    );
    assert_eq!(
        summary_hash(&spec, 7),
        0x9a19_d24d_9327_d39e,
        "seed 7: summary_csv moved"
    );
}

#[test]
fn diurnal_elastic_summary_is_pinned() {
    assert_eq!(
        summary_hash(&diurnal_elastic(), 42),
        0x7150_6572_3f00_d4bd,
        "summary_csv moved"
    );
}
