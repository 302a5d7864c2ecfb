//! The 10k-node scale story: bucketed placement index + sketch aggregates.
//!
//! [`ScenarioSpec::megafleet_demo`] is the skewed-overload experiment
//! blown up to fleet scale: first-fit packs lying legacy tasks onto the
//! low-id slice of a 10k-node fleet (~15 per node), a hog burst melts the
//! first few packed nodes, and the feedback rebalancer drains them into
//! the idle majority. At this size the two PR-7 mechanisms carry the run:
//!
//! * every placement / rebalance destination query goes through the
//!   bucketed [`selftune_cluster::HeadroomIndex`] (O(log n), not a fleet
//!   scan; the placer's in-file differential tests hold it byte-identical
//!   to the linear scan it replaced);
//! * per-task gap vectors are replaced by mergeable histogram sketches
//!   (`with_sketch_aggregates`), keeping per-node report state O(1) per
//!   task — the experiment asserts the sketch summaries are still
//!   byte-identical at 1, 2 and 8 worker threads.
//!
//! `--fast` shrinks tasks/horizon; `--smoke` shrinks further to the CI
//! wall-clock budget. Node count stays at 10k in every mode — the node
//! axis is the point.

use super::fleet;
use crate::{fmt, plain, time_us, Args, Table};
use selftune_cluster::prelude::*;
use selftune_simcore::time::Dur;

/// Sizes per mode: `(nodes, tasks, horizon)`. The node axis never
/// shrinks — 10k nodes is the point — only the liar population and the
/// virtual horizon do. The task count is kept small enough relative to
/// the rebalancer's move budget that feedback can actually heal the
/// over-packed prefix (see [`ScenarioSpec::megafleet_rebalance`]).
fn sizes(args: &Args) -> (usize, usize, Dur) {
    if args.smoke {
        (10_000, 400, Dur::secs(3))
    } else if args.fast {
        (10_000, 800, Dur::secs(4))
    } else {
        (10_000, 1_600, Dur::secs(6))
    }
}

/// Runs the comparison.
///
/// With `--scenario FILE` the built-in megafleet is replaced by the
/// loaded fleet ([`fleet::scenario_override`]) and the improvement
/// assertion is skipped. The determinism assertions always apply.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster megafleet: placement index + sketch aggregates at 10k nodes ==");
    let (frozen_spec, feedback_spec, builtin) =
        match fleet::scenario_override(args, |s| s.rebalance.enabled = false) {
            Some((frozen, feedback)) => (frozen, feedback, false),
            None => {
                let (nodes, tasks, horizon) = sizes(args);
                let frozen = ScenarioSpec::megafleet_demo(nodes, tasks, horizon);
                let feedback = frozen
                    .clone()
                    .with_rebalance(ScenarioSpec::megafleet_rebalance(horizon));
                (frozen, feedback, true)
            }
        };
    let (nodes, tasks) = (frozen_spec.nodes, frozen_spec.tasks);
    let sim_total = frozen_spec.horizon.as_secs_f64() * nodes as f64;
    args.record_journal(&feedback_spec);

    // Sketch-mode aggregates fold per-node histograms in node-id order, so
    // the thread count must not leak into the bytes.
    let run = |threads: usize, spec: &ScenarioSpec| {
        let runner = ClusterRunner::new(threads).with_sketch_aggregates(true);
        runner.run(spec, args.seed)
    };
    let (frozen, t_frozen) = time_us(|| run(2, &frozen_spec));
    let (feedback, t_feedback) = time_us(|| run(2, &feedback_spec));
    fleet::assert_thread_identity("sketch", &feedback, &[1, 8], |t| run(t, &feedback_spec));
    // The payoff at scale: the rebalancer still wins on misses, with the
    // whole idle majority as destination pool.
    if builtin {
        fleet::assert_feedback_wins(&frozen, &feedback);
    }
    if let Some(delay) = feedback.mean_migrated_attach_delay_ms() {
        println!("mean migrated attach delay: {delay:.1} ms");
    }

    let mut table = Table::new(
        "cluster_megafleet.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("placement"),
            plain("completions"),
            plain("misses"),
            plain("miss_ratio"),
            plain("migrations"),
            plain("wall_ms").measured(),
            plain("sim_s_per_wall_s").measured(),
        ],
    )
    .note(format!(
        "(assertions passed: miss-rate reduced at {nodes} nodes; \
         byte-identical at 1/2/8 threads)"
    ));
    for (mode, m, t_us) in [
        ("static", &frozen, t_frozen),
        ("feedback", &feedback, t_feedback),
    ] {
        table.row(vec![
            nodes.to_string(),
            tasks.to_string(),
            mode.to_owned(),
            m.completions().to_string(),
            m.misses().to_string(),
            fmt(m.miss_ratio(), 5),
            m.rebalance.moves.to_string(),
            fmt(t_us / 1e3, 1),
            fmt(sim_total / (t_us / 1e6), 0),
        ]);
    }
    vec![table]
}
