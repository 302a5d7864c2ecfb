//! Cluster e2e: the million-task operating point.
//!
//! The task axis gets the same treatment the node axis got in the
//! megafleet e2e: a fleet whose *population* is pushed far past the
//! per-node norm, with every contract intact — the plan keeps the whole
//! honest population live to the horizon, the feedback rebalancer still
//! cuts fleet misses with a sea of bystanders in the arenas, aggregates
//! cannot observe the worker-thread count (the aggregate folds node
//! sketches in node-id order, whichever worker reported them). That
//! task-arena slot recycling is invisible in the bytes is pinned on the
//! node itself, against a frozen twin, by `crates/cluster/tests/props.rs::
//! slot_recycling_never_resurrects_a_departed_task`.
//!
//! Profile-adaptive sizing: the debug test profile runs the same
//! scenario shape at 500 nodes / 20k tasks; the release profile runs the
//! real thing — 2.5k nodes and one million live tasks (the
//! `cluster_milliontask` bench binary exercises this same point with
//! wall-clock reporting).

use selftune::cluster::prelude::*;
use selftune::simcore::time::Dur;

const SEED: u64 = 42;
const NODES: usize = if cfg!(debug_assertions) { 500 } else { 2_500 };
const TASKS: usize = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

fn horizon() -> Dur {
    if cfg!(debug_assertions) {
        Dur::ms(800)
    } else {
        Dur::ms(500)
    }
}

fn scenario(rebalance_on: bool) -> ScenarioSpec {
    let spec = ScenarioSpec::milliontask_demo(NODES, TASKS, horizon());
    if rebalance_on {
        spec.with_rebalance(ScenarioSpec::milliontask_rebalance(horizon()))
    } else {
        spec
    }
}

fn runner(threads: usize) -> ClusterRunner {
    ClusterRunner::new(threads).with_sketch_aggregates(true)
}

#[test]
fn milliontask_keeps_the_population_live_and_wins_on_misses() {
    // The honest population has no churn and no departures: every
    // admitted honest task is still live at the horizon. Admission must
    // not drop a single one (only liars may lose their prefix slot to
    // honest stragglers in the arrival race).
    let spec = scenario(false);
    let liars: usize = spec.phases.iter().map(|p| p.tasks).sum();
    let plan = plan_fleet(&spec, SEED);
    assert!(
        plan.admission.admitted as usize >= TASKS,
        "the full honest population must stay live: {} admitted, {} tasks",
        plan.admission.admitted,
        TASKS
    );
    assert!(
        (plan.admission.rejected as usize) <= liars / 20,
        "rejections must stay a sliver of the liar wave: {}",
        plan.admission.rejected
    );

    let frozen = runner(2).run(&spec, SEED);
    let feedback = runner(2).run(&scenario(true), SEED);
    assert_eq!(frozen.nodes.len(), NODES);
    assert!(
        frozen.misses() > 0,
        "the liar-packed prefix must miss without rebalance"
    );
    assert_eq!(frozen.rebalance.moves, 0);
    assert!(
        feedback.rebalance.moves >= 1,
        "expected migrations, got {}",
        feedback.rebalance.moves
    );
    assert!(
        feedback.misses() < frozen.misses(),
        "feedback must cut fleet misses with {} bystanders: {} vs {}",
        TASKS,
        feedback.misses(),
        frozen.misses()
    );
    assert!(
        feedback.completions() > frozen.completions(),
        "healing the liar prefix must raise throughput"
    );
    // The *rate* comparison is meaningful at the real operating point;
    // at the shrunken debug scale migrations reset enough gap recording
    // that the denominator, not the misses, dominates the ratio.
    if !cfg!(debug_assertions) {
        assert!(
            feedback.miss_ratio() < frozen.miss_ratio(),
            "feedback must cut the fleet miss rate at 1M tasks: {:.5} vs {:.5}",
            feedback.miss_ratio(),
            frozen.miss_ratio()
        );
    }
    for r in &feedback.rebalance.records {
        assert!(
            r.dest_reserved_after <= 0.9 + 1e-9,
            "migration overbooked node {}: {}",
            r.to,
            r.dest_reserved_after
        );
    }
}

#[test]
fn milliontask_aggregates_ignore_thread_count_and_slot_recycling() {
    // Recycling is live in every run here (departed liar slots are reused
    // mid-flight); what a *frozen* arena would have reported is compared
    // on the node itself, in `slot_recycling_never_resurrects_a_departed_task`.
    let spec = scenario(true);
    let serial = runner(1).run(&spec, SEED);
    let two = runner(2).run(&spec, SEED);
    let wide = runner(8).run(&spec, SEED);
    assert_eq!(
        serial.summary_csv(),
        two.summary_csv(),
        "sketch aggregates must not depend on thread count (1 vs 2)"
    );
    assert_eq!(
        serial.summary_csv(),
        wide.summary_csv(),
        "sketch aggregates must not depend on thread count (1 vs 8)"
    );

    // At this population size per-task reports must never materialise.
    assert!(
        two.nodes.iter().all(|n| n.tasks.is_empty()),
        "sketch mode must not retain per-task reports"
    );
    assert!(two.summary_csv().contains("\ncdf,"));
}
