//! Fleet scale-out: nodes × tasks sweep of the parallel scenario runner.
//!
//! For each fleet size the scenario runs once on 1 worker thread and once
//! on 4 (and once on all hardware threads when that differs), verifying
//! that the aggregates are byte-identical and reporting the wall-clock
//! speedup. On a multicore host the 4-thread run is expected to be well
//! above 1.5× the serial one for ≥ 8 nodes; on fewer cores the speedup
//! column degrades gracefully toward 1× and the identity check still
//! holds.

use super::fleet;
use crate::{fmt, plain, time_us, Args, Table};
use selftune_cluster::prelude::*;
use selftune_simcore::time::Dur;

/// Fleet sizes swept: `(nodes, tasks_per_node)`.
const SWEEP: [(usize, usize); 3] = [(4, 4), (8, 6), (16, 8)];

fn scenario(nodes: usize, tasks: usize) -> ScenarioSpec {
    ScenarioSpec::new("scaleout", nodes, tasks, Dur::secs(3))
        .with_mix(TaskMix::mixed_server())
        .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(25) })
        .with_policy(PolicyKind::WorstFit)
}

/// Runs the sweep (or the `--scenario` file's fleet alone), then the
/// placement-policy face-off on the largest built-in fleet.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster scale-out: parallel fleet runner ==");
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("hardware threads: {hw}");
    if hw < 4 {
        println!("(fewer than 4 hardware threads: speedup is bounded by the host,");
        println!(" the identical-aggregate check below still validates the runner)");
    }

    let (specs, sweep): (Vec<ScenarioSpec>, &[(usize, usize)]) = match args.scenario_spec() {
        Some(spec) => (vec![spec], &[]),
        None => {
            let sweep = args.sweep(&SWEEP, 2);
            let fleets = sweep
                .iter()
                .map(|&(nodes, per)| scenario(nodes, nodes * per));
            (fleets.collect(), sweep)
        }
    };
    // `--journal FILE`: record the first scenario's decision journal.
    args.record_journal(&specs[0]);
    let mut scaling = Table::new(
        "cluster_scaleout.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("admitted"),
            plain("rejected"),
            plain("miss_ratio"),
            plain("mean_util_pct"),
            plain("t_1thread_ms").measured(),
            plain("t_4threads_ms").measured(),
            plain("t_maxthreads_ms").measured(),
            plain("speedup_4v1").measured(),
        ],
    );
    for spec in &specs {
        // Every run is timed: 1 thread, 4, and all hardware threads when
        // that differs; the wider runs must reproduce the serial bytes.
        let mut wall_us = Vec::new();
        let mut timed = |threads: usize| {
            let (m, t_us) = time_us(|| ClusterRunner::new(threads).run(spec, args.seed));
            wall_us.push(t_us);
            m
        };
        let serial = timed(1);
        let wider: &[usize] = if hw > 4 { &[4, hw] } else { &[4] };
        fleet::assert_thread_identity("scale-out", &serial, wider, &mut timed);
        let (t1_us, t4_us, t_max_us) = (wall_us[0], wall_us[1], wall_us[wall_us.len() - 1]);

        scaling.row(vec![
            spec.nodes.to_string(),
            spec.tasks.to_string(),
            serial.admission.admitted.to_string(),
            serial.admission.rejected.to_string(),
            fmt(serial.miss_ratio(), 4),
            fmt(100.0 * serial.mean_utilisation(), 1),
            fmt(t1_us / 1e3, 1),
            fmt(t4_us / 1e3, 1),
            fmt(t_max_us / 1e3, 1),
            fmt(t1_us / t4_us, 2),
        ]);
    }

    // File mode: the loaded scenario fixes the policy; no face-off.
    let Some(&(nodes, per_node)) = sweep.last() else {
        return vec![scaling];
    };
    // Policy face-off on the largest fleet: same load, three placements.
    let mut policies = Table::new(
        "cluster_policies.csv",
        [
            plain("policy"),
            plain("admitted"),
            plain("rejected"),
            plain("migrations"),
            plain("miss_ratio"),
            plain("mean_util_pct"),
        ],
    )
    .heading(format!("\n-- placement policies at {nodes} nodes --"));
    for policy in [
        PolicyKind::FirstFit,
        PolicyKind::WorstFit,
        PolicyKind::BandwidthAware,
    ] {
        let spec = scenario(nodes, nodes * per_node).with_policy(policy);
        let m = ClusterRunner::new(hw.min(4)).run(&spec, args.seed);
        policies.row(vec![
            policy.name().to_owned(),
            m.admission.admitted.to_string(),
            m.admission.rejected.to_string(),
            m.admission.migrations.to_string(),
            fmt(m.miss_ratio(), 4),
            fmt(100.0 * m.mean_utilisation(), 1),
        ]);
    }
    vec![scaling, policies]
}
