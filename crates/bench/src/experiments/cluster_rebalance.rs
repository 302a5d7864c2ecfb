//! Feedback-driven re-placement vs static placement under skewed overload.
//!
//! The fleet-scale analogue of the paper's core experiment: a first-fit
//! plan packs legacy tasks (whose nominal demand understates their real
//! appetite) onto one node, which a hog burst then hits. Placement frozen
//! at arrival leaves that node melting for the whole run; the feedback
//! rebalancer observes measured miss rates, migrates tasks off the
//! pressured node and books destinations by *measured* bandwidth instead
//! of the nominal claim. The experiment asserts the miss-rate reduction
//! and that rebalanced aggregates stay byte-identical at 1, 2 and 8
//! worker threads.

use super::fleet;
use crate::{fmt, plain, time_us, Args, Table};
use selftune_cluster::prelude::*;

/// The canonical skewed-overload scenario
/// ([`ScenarioSpec::skewed_overload_demo`], shared with
/// `tests/cluster_rebalance_e2e.rs` and the `cluster_fleet` example), as
/// `(static, feedback)`.
fn scenario(nodes: usize, tasks: usize) -> (ScenarioSpec, ScenarioSpec) {
    let spec = ScenarioSpec::skewed_overload_demo(nodes, tasks);
    let feedback = spec.clone().with_rebalance(ScenarioSpec::demo_rebalance());
    (spec, feedback)
}

/// Fleet sizes swept: `(nodes, tasks)`.
const SWEEP: [(usize, usize); 2] = [(4, 12), (6, 14)];

/// Runs the comparison.
///
/// With `--scenario FILE` the built-in sweep is replaced by the loaded
/// fleet ([`fleet::scenario_override`]); the improvement assertions only
/// apply to the built-in sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster rebalance: feedback vs static placement ==");
    let (configs, builtin) = match fleet::scenario_override(args, |s| s.rebalance.enabled = false) {
        Some(pair) => (vec![pair], false),
        None => {
            let sweep = args.sweep(&SWEEP, 1).iter();
            (sweep.map(|&(n, t)| scenario(n, t)).collect(), true)
        }
    };
    // `--journal FILE`: record the primary (feedback) scenario's decision
    // journal for later replay / what-if analysis.
    args.record_journal(&configs[0].1);
    let mut table = Table::new(
        "cluster_rebalance.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("placement"),
            plain("completions"),
            plain("misses"),
            plain("miss_ratio"),
            plain("migrations"),
            plain("failed"),
            plain("mean_util_pct"),
            plain("wall_ms").measured(),
        ],
    )
    .note("(assertions passed: miss-rate reduced; byte-identical at 1/2/8 threads)");
    for (frozen_spec, feedback_spec) in configs {
        let run =
            |threads: usize, spec: &ScenarioSpec| ClusterRunner::new(threads).run(spec, args.seed);
        let (frozen, t_frozen) = time_us(|| run(2, &frozen_spec));
        let (feedback, t_feedback) = time_us(|| run(2, &feedback_spec));
        fleet::assert_thread_identity("rebalanced", &feedback, &[1, 8], |t| run(t, &feedback_spec));
        if builtin {
            fleet::assert_feedback_wins(&frozen, &feedback);
        }
        if let Some(gap) = feedback.mean_migrated_attach_delay_ms() {
            println!("mean migrated attach delay: {gap:.1} ms");
        }

        for (mode, m, t_us) in [
            ("static", &frozen, t_frozen),
            ("feedback", &feedback, t_feedback),
        ] {
            table.row(vec![
                frozen_spec.nodes.to_string(),
                frozen_spec.tasks.to_string(),
                mode.to_owned(),
                m.completions().to_string(),
                m.misses().to_string(),
                fmt(m.miss_ratio(), 4),
                m.rebalance.moves.to_string(),
                m.rebalance.failed.to_string(),
                fmt(100.0 * m.mean_utilisation(), 1),
                fmt(t_us / 1e3, 1),
            ]);
        }
    }
    vec![table]
}
