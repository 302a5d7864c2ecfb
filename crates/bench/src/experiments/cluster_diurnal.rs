//! The composed three-level control plane under diurnal + flash-crowd
//! demand, against each level alone.
//!
//! The diurnal demo ([`ScenarioSpec::diurnal_demo`]) layers a fleet-wide
//! wave of lying `HungryRt` tasks and a flash crowd pinned to the
//! VM-hosting prefix over a quiet base population. Four variants run on
//! the same seed at equal total bandwidth:
//!
//! * **static** — placement frozen at arrival, fixed VM shares, fixed
//!   per-node `U_lub`.
//! * **rebalance-only** — the fleet-level loop alone: pressured nodes
//!   drain via migration, but tenant VMs keep hoarding their booked
//!   share where the flash crowd lands.
//! * **elastic-only** — the in-place loops alone: elastic VM shares free
//!   hoarded bandwidth and node re-bounding claws back / sheds headroom,
//!   but nothing ever migrates off the melting prefix.
//! * **composed** — all three levels closed: re-bound in place first,
//!   migrate what still does not fit.
//!
//! The experiment asserts the composed plane beats both single-level
//! variants on fleet miss rate and that the composed aggregates stay
//! byte-identical at 1, 2 and 8 worker threads.

use super::fleet;
use crate::{fmt, plain, time_us, Args, Table};
use selftune_cluster::prelude::*;

/// One diurnal-demo variant: which control levels are closed.
pub fn scenario(nodes: usize, tasks: usize, in_place: bool, rebalance: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(nodes, tasks);
    if in_place {
        // The two in-place levels travel together: elastic VM shares
        // (node→VM) and node re-bounding (fleet→node).
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        spec = spec.with_node_share(ScenarioSpec::diurnal_node_share());
    }
    if rebalance {
        spec = spec.with_rebalance(ScenarioSpec::diurnal_rebalance());
    } else {
        // Node-share decisions ride the rebalance epoch grid; keep the
        // same grid with the rebalancer off so the variants differ only
        // in the decisions, never in the sampling schedule.
        spec.rebalance.period = ScenarioSpec::diurnal_rebalance().period;
    }
    spec
}

/// Fleet sizes swept: `(nodes, tasks)`.
const SWEEP: [(usize, usize); 2] = [(6, 12), (10, 20)];

/// The static baseline of a `--scenario` file: every control lever off.
fn all_levers_off(spec: &mut ScenarioSpec) {
    spec.rebalance.enabled = false;
    spec.node_share.enabled = false;
    for vm in &mut spec.vms {
        vm.elastic = false;
    }
}

/// Runs `spec` on two threads and adds its row.
fn run_variant(
    table: &mut Table,
    mode: &str,
    spec: &ScenarioSpec,
    args: &Args,
) -> AggregateMetrics {
    let (m, t_us) = time_us(|| ClusterRunner::new(2).run(spec, args.seed));
    table.row(vec![
        spec.nodes.to_string(),
        spec.flat_tasks().to_string(),
        mode.to_owned(),
        m.completions().to_string(),
        m.misses().to_string(),
        fmt(m.miss_ratio(), 4),
        m.rebalance.moves.to_string(),
        fmt(100.0 * m.mean_utilisation(), 1),
        fmt(t_us / 1e3, 1),
    ]);
    m
}

/// Runs the four-variant comparison.
///
/// With `--scenario FILE` the built-in sweep is replaced by the loaded
/// fleet, run as-is against a copy with every control lever off
/// ([`fleet::scenario_override`]); the composed-beats-both and identity
/// assertions only apply to the built-in sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster diurnal: composed control plane vs single levels ==");
    let mut table = Table::new(
        "cluster_diurnal.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("plane"),
            plain("completions"),
            plain("misses"),
            plain("miss_ratio"),
            plain("migrations"),
            plain("mean_util_pct"),
            plain("wall_ms").measured(),
        ],
    )
    .note("(assertions passed: composed beats each single level; byte-identical at 1/2/8 threads)");
    if let Some((frozen, spec)) = fleet::scenario_override(args, all_levers_off) {
        args.record_journal(&spec);
        run_variant(&mut table, "static", &frozen, args);
        run_variant(&mut table, "as-configured", &spec, args);
        return vec![table];
    }
    for &(nodes, tasks) in args.sweep(&SWEEP, 1) {
        let composed_spec = scenario(nodes, tasks, true, true);
        // `--journal FILE`: record the composed run for replay / what-if.
        args.record_journal(&composed_spec);
        let mut variant =
            |mode: &str, spec: &ScenarioSpec| run_variant(&mut table, mode, spec, args);
        let stat = variant("static", &scenario(nodes, tasks, false, false));
        let reb = variant("rebalance-only", &scenario(nodes, tasks, false, true));
        let ela = variant("elastic-only", &scenario(nodes, tasks, true, false));
        let comp = variant("composed", &composed_spec);

        fleet::assert_thread_identity("composed", &comp, &[1, 8], |t| {
            ClusterRunner::new(t).run(&composed_spec, args.seed)
        });
        // The point of the composed plane: each level alone leaves misses
        // the other would have absorbed.
        fleet::assert_fewer_misses("composed", &comp, "rebalance-only", &reb);
        fleet::assert_fewer_misses("composed", &comp, "elastic-only", &ela);
        fleet::assert_fewer_misses("composed", &comp, "the static baseline", &stat);
    }
    vec![table]
}
