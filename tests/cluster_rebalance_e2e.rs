//! Cluster e2e: feedback-driven re-placement under a skewed overload.
//!
//! The fleet analogue of the paper's core claim — observing *measured*
//! scheduling behaviour beats trusting nominal demand. A first-fit
//! placement packs every real-time task onto the first nodes; a hog burst
//! then hits exactly those nodes. Run once with placement frozen at
//! arrival (the pre-rebalance behaviour) and once with the feedback
//! rebalancer on, same seed: the feedback run must migrate tasks off the
//! melting nodes and end with strictly fewer fleet deadline misses.

use selftune::cluster::prelude::*;
use selftune::simcore::time::Dur;

const SEED: u64 = 42;

/// The canonical skewed-overload fleet (see
/// [`ScenarioSpec::skewed_overload_demo`]): the task kind *claims* 2 ms
/// jobs but burns 6 ms, so first-fit admission happily packs all twelve
/// onto node 0, which is then also hit by a fair-class hog burst.
fn scenario(rebalance_on: bool) -> ScenarioSpec {
    let spec = ScenarioSpec::skewed_overload_demo(4, 12);
    if rebalance_on {
        spec.with_rebalance(ScenarioSpec::demo_rebalance())
    } else {
        spec
    }
}

#[test]
fn feedback_replacement_cuts_fleet_misses_under_skewed_overload() {
    let frozen = ClusterRunner::new(2).run(&scenario(false), SEED);
    let feedback = ClusterRunner::new(2).run(&scenario(true), SEED);

    // The static run concentrates misses on the hog-bound node.
    assert!(
        frozen.misses() > 0,
        "skewed overload must cause misses without rebalance"
    );
    assert_eq!(frozen.rebalance.moves, 0);

    // The feedback run actually migrated work away...
    assert!(
        feedback.rebalance.moves >= 1,
        "expected at least one migration, got {}",
        feedback.rebalance.moves
    );
    assert!(feedback.rebalance.epochs > 0);

    // ...and it strictly reduced fleet deadline misses — in absolute
    // count, in rate, and while completing *more* jobs.
    assert!(
        feedback.misses() < frozen.misses(),
        "feedback placement must cut misses: {} (feedback) vs {} (frozen)",
        feedback.misses(),
        frozen.misses()
    );
    assert!(
        feedback.miss_ratio() < frozen.miss_ratio(),
        "feedback placement must cut the miss rate: {:.4} vs {:.4}",
        feedback.miss_ratio(),
        frozen.miss_ratio()
    );
    assert!(
        feedback.completions() > frozen.completions(),
        "unblocking the melted node must raise throughput"
    );

    // Every applied migration respected the destination admission bound.
    for (_, r) in &feedback.rebalance.records {
        assert!(
            r.dest_reserved_after <= 0.9 + 1e-9,
            "migration overbooked node {}: {}",
            r.to,
            r.dest_reserved_after
        );
        assert_ne!(r.from, r.to, "migration must change nodes");
    }

    // Migrated incarnations show up in the post-migration CDF.
    assert!(!feedback.post_migration_cdf().is_empty());
}

#[test]
fn rebalanced_runs_are_thread_count_invariant() {
    let spec = scenario(true);
    let serial = ClusterRunner::new(1).run(&spec, SEED);
    let parallel = ClusterRunner::new(4).run(&spec, SEED);
    assert_eq!(serial.summary_csv(), parallel.summary_csv());
    assert!(serial.rebalance.moves >= 1);
}

#[test]
fn warm_start_shrinks_the_hand_over_gap() {
    // Same feedback loop, hand-over state carried vs. re-detected: the
    // mean arrival-to-attach delay of migrated incarnations must shrink.
    // A cold destination re-runs period detection (≥ one sampling period);
    // a warm one attaches the moment the task lands.
    let warm_spec = scenario(true); // demo_rebalance carries state
    assert!(warm_spec.rebalance.warm_start);
    let cold_spec = warm_spec.clone().with_rebalance(RebalanceSpec {
        warm_start: false,
        ..ScenarioSpec::demo_rebalance()
    });

    let warm = ClusterRunner::new(2).run(&warm_spec, SEED);
    let cold = ClusterRunner::new(2).run(&cold_spec, SEED);
    assert!(warm.rebalance.moves >= 1 && cold.rebalance.moves >= 1);

    let warm_gap = warm
        .mean_migrated_attach_delay_ms()
        .expect("warm migrations attached");
    let cold_gap = cold
        .mean_migrated_attach_delay_ms()
        .expect("cold migrations attached");
    assert!(
        warm_gap < cold_gap,
        "hand-over gap must shrink: warm {warm_gap:.1} ms vs cold {cold_gap:.1} ms"
    );
    // Warm incarnations attach the instant they land.
    assert!(warm_gap < 1.0, "warm hand-over gap {warm_gap:.1} ms");
    // And the cold gap is real detection latency, not noise.
    assert!(cold_gap >= 500.0, "cold hand-over gap {cold_gap:.1} ms");
}

/// The skewed-overload fleet with a whole virtual platform packed onto
/// the melting node: the VM (the largest booked unit there) is what the
/// rebalancer evicts first.
fn vm_scenario(warm_start: bool) -> ScenarioSpec {
    ScenarioSpec::skewed_overload_demo(4, 12)
        .with_vm(VmSpec::uniform(
            Dur::ms(4),
            Dur::ms(10),
            2,
            TaskKind::PeriodicRt {
                wcet: Dur::ms(4),
                period: Dur::ms(40),
            },
        ))
        .with_rebalance(RebalanceSpec {
            warm_start,
            ..ScenarioSpec::demo_rebalance()
        })
}

#[test]
fn migrated_vm_guests_warm_start_inside_the_readmitted_vm() {
    let warm = ClusterRunner::new(2).run(&vm_scenario(true), SEED);
    let cold = ClusterRunner::new(2).run(&vm_scenario(false), SEED);

    // A whole VM actually moved in both runs (the hand-over comparison is
    // about the same migration, warm vs cold).
    assert!(
        warm.rebalance
            .records
            .iter()
            .any(|(_, m)| matches!(m.unit, Unit::Vm(_))),
        "expected a VM migration, got {:?}",
        warm.rebalance.records
    );
    assert!(cold
        .rebalance
        .records
        .iter()
        .any(|(_, m)| matches!(m.unit, Unit::Vm(_))));

    // Per-guest warm start: the re-admitted guests attach the instant the
    // VM lands — the hand-over gap collapses to zero...
    let warm_gap = warm
        .mean_migrated_vm_guest_attach_delay_ms()
        .expect("warm VM guests attached");
    assert!(warm_gap < 1.0, "warm guest hand-over gap {warm_gap:.1} ms");
    // ...while cold guests re-run detection inside the re-admitted VM.
    let cold_gap = cold
        .mean_migrated_vm_guest_attach_delay_ms()
        .expect("cold VM guests attached");
    assert!(
        cold_gap >= 500.0,
        "cold guest hand-over gap {cold_gap:.1} ms"
    );

    // The flat-task hand-over metric no longer blends guest delays: in
    // the warm run it stays a pure task metric (and also collapses), even
    // though VM guests report through their own channel.
    if let Some(task_gap) = warm.mean_migrated_attach_delay_ms() {
        assert!(task_gap < 1.0, "task hand-over gap {task_gap:.1} ms");
    }
    let csv = warm.summary_csv();
    assert!(
        csv.contains("vm_guest_attach_delay_ms"),
        "guest hand-over channel missing from the aggregate"
    );
}
