//! Cluster e2e: the megafleet story at a real 10k-node count.
//!
//! The skewed-overload claim does not get to shrink with scale: first-fit
//! packs lying tasks onto the low-id slice of a 10 000-node fleet, and
//! the feedback rebalancer must still cut fleet misses — now picking
//! destinations out of an idle majority of thousands via the ordered
//! headroom index, and reporting through binned histogram sketches
//! instead of lossless ones that keep every gap. The test pins the two contracts
//! that make that safe: the rebalancer wins, and sketch aggregates cannot
//! observe the worker-thread count. (That the index picks the node the
//! linear scan would is pinned where the scan lives, by the differential
//! tests in `crates/cluster/src/placer.rs`.)
//!
//! Sized for the debug test profile: 10k nodes stay (the node axis is
//! the point), the liar population and horizon shrink.

use selftune::cluster::prelude::*;
use selftune::simcore::time::Dur;

const SEED: u64 = 42;
const NODES: usize = 10_000;
const TASKS: usize = 200;

fn scenario(rebalance_on: bool) -> ScenarioSpec {
    let spec = ScenarioSpec::megafleet_demo(NODES, TASKS, Dur::secs(2));
    if rebalance_on {
        spec.with_rebalance(ScenarioSpec::megafleet_rebalance(Dur::secs(2)))
    } else {
        spec
    }
}

fn runner(threads: usize) -> ClusterRunner {
    ClusterRunner::new(threads).with_sketch_aggregates(true)
}

#[test]
fn megafleet_rebalancer_cuts_misses_at_ten_thousand_nodes() {
    let frozen = runner(2).run(&scenario(false), SEED);
    let feedback = runner(2).run(&scenario(true), SEED);

    assert_eq!(frozen.nodes.len(), NODES);
    assert!(
        frozen.misses() > 0,
        "the over-packed prefix must miss without rebalance"
    );
    assert_eq!(frozen.rebalance.moves, 0);

    // The feedback run migrated liars into the idle sea and won on every
    // fleet-level count.
    assert!(
        feedback.rebalance.moves >= 1,
        "expected migrations, got {}",
        feedback.rebalance.moves
    );
    assert!(
        feedback.miss_ratio() < frozen.miss_ratio(),
        "feedback must cut the fleet miss rate at 10k nodes: {:.4} vs {:.4}",
        feedback.miss_ratio(),
        frozen.miss_ratio()
    );
    assert!(
        feedback.completions() > frozen.completions(),
        "healing the packed prefix must raise throughput"
    );
    for (_, r) in &feedback.rebalance.records {
        assert!(
            r.dest_reserved_after <= 0.9 + 1e-9,
            "migration overbooked node {}: {}",
            r.to,
            r.dest_reserved_after
        );
    }

    // Sketch mode keeps fleet counters exact: a detailed re-run of the
    // same spec agrees on every count, only CDF resolution differs.
    let detailed = ClusterRunner::new(2).run(&scenario(true), SEED);
    assert_eq!(detailed.completions(), feedback.completions());
    assert_eq!(detailed.misses(), feedback.misses());
    assert_eq!(detailed.rebalance.moves, feedback.rebalance.moves);
    // And it actually binned the distributions the detailed run keeps
    // every value of.
    assert!(
        !feedback.merged().gaps.is_lossless(),
        "sketch mode must keep binned, not lossless, distributions"
    );
    assert!(detailed.merged().gaps.is_lossless());
}

#[test]
fn megafleet_sketch_aggregates_are_thread_count_invariant() {
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
    assert!(serial.summary_csv().contains("\ncdf,"));
}
