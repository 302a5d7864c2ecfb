//! The million-task operating point: churn-proof arenas + sketch
//! aggregates with 1M live tasks on a 2.5k-node fleet.
//!
//! [`ScenarioSpec::milliontask_demo`] keeps one million honest periodic
//! tasks live for the whole horizon (staggered arrivals, 16 distinct
//! periods, no churn) while a lying `HungryRt` wave lands on the node
//! prefix *before* the honest stream and saturates it; throttled liars
//! record deadline gaps until the feedback rebalancer drains them into
//! the idle majority. Three PR mechanisms carry the scale:
//!
//! * the fleet aggregate is one fold of the nodes' sketches in node-id
//!   order (`AggregateMetrics::new`), whichever worker reported them,
//!   asserted byte-identical across worker counts;
//! * a node's task arena keeps one lean entry per admitted task and
//!   hands a departed task's live state back to the allocator (the
//!   one-node `mem_report` table below reports its footprint);
//! * sketch aggregates keep per-node report state O(bins), so fleet CDFs
//!   never materialise a million gap vectors.
//!
//! The task axis never shrinks — one million tasks is the point.
//! `--fast`/`--smoke` only shorten the virtual horizon and trim the run
//! matrix (smoke: feedback + 1-thread determinism twin, ~2 × 2 min on
//! one CPU, inside the CI budget; the static/feedback miss comparison
//! runs in fast/full and in the e2e).
//!
//! With `--journal FILE` a *fixture-scale* twin (2k nodes / 2k tasks) is
//! recorded instead of the full fleet — a million-task journal would be
//! gigabytes — which is how `examples/milliontask.journal` is generated.

use super::fleet;
use crate::{fmt, plain, time_us, Args, Table};
use selftune_cluster::{churn_mem_report, prelude::*};
use selftune_simcore::time::Dur;

/// Fleet size per mode: `(nodes, tasks, horizon)`. Tasks are pinned at
/// one million in every mode; only the virtual horizon shrinks (the wall
/// floor is ~admitted × per-job cost, so horizon is the main dial).
fn sizes(args: &Args) -> (usize, usize, Dur) {
    if args.smoke {
        (2_500, 1_000_000, Dur::ms(400))
    } else if args.fast {
        (2_500, 1_000_000, Dur::ms(700))
    } else {
        (2_500, 1_000_000, Dur::ms(1000))
    }
}

/// Churn sizing for the memory table: `(waves, per_wave)`.
fn mem_sizes(args: &Args) -> (usize, usize) {
    if args.smoke {
        (8, 500)
    } else {
        (12, 1_000)
    }
}

/// Runs the million-task experiment: the run matrix and the arena
/// accounting.
///
/// With `--scenario FILE` the built-in fleet is replaced by the loaded
/// spec ([`fleet::scenario_override`]) and the improvement/live-population
/// assertions are skipped.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster milliontask: 1M live tasks, churn-proof arenas, node-order fold ==");
    let (frozen_spec, feedback_spec, builtin) =
        match fleet::scenario_override(args, |s| s.rebalance.enabled = false) {
            Some((frozen, feedback)) => (frozen, feedback, false),
            None => {
                let (nodes, tasks, horizon) = sizes(args);
                let frozen = ScenarioSpec::milliontask_demo(nodes, tasks, horizon);
                let feedback = frozen
                    .clone()
                    .with_rebalance(ScenarioSpec::milliontask_rebalance(horizon));
                (frozen, feedback, true)
            }
        };
    let (nodes, tasks) = (frozen_spec.nodes, frozen_spec.tasks);
    let sim_total = frozen_spec.horizon.as_secs_f64() * nodes as f64;

    // The journal fixture is recorded at fixture scale — the full fleet's
    // journal would be gigabytes (~2.7 GB at 1M tasks).
    if args.journal.is_some() {
        let fixture = ScenarioSpec::milliontask_demo(2_000, 2_000, Dur::ms(800))
            .with_rebalance(ScenarioSpec::milliontask_rebalance(Dur::ms(800)));
        println!("journal: recording fixture-scale twin (2000 nodes, 2000 tasks)");
        args.record_journal(&fixture);
    }

    // Live-population proof: the plan admits every honest task (plus the
    // liar wave) with zero rejections, and honest tasks have no churn or
    // departure — the whole million is live at the horizon.
    if builtin {
        let plan = plan_fleet(&frozen_spec, args.seed);
        let liars: usize = frozen_spec.phases.iter().map(|p| p.tasks).sum();
        // Honest tasks always fit (the fleet is ~15% utilised outside the
        // liar prefix); at worst a few liars lose their prefix slot to
        // honest stragglers that landed in the arrival race.
        assert!(
            plan.admission.admitted as usize >= tasks,
            "milliontask plan must keep the honest million live \
             ({} admitted)",
            plan.admission.admitted
        );
        assert!(
            (plan.admission.rejected as usize) <= liars / 20,
            "only a sliver of the liar wave may be squeezed out \
             ({} rejected)",
            plan.admission.rejected
        );
        println!(
            "plan: {} admitted ({} honest live at horizon, {} liars), {} rejected",
            plan.admission.admitted, tasks, liars, plan.admission.rejected
        );
    }

    // The aggregate folds node sketches in node-id order, whichever worker
    // reported them, so worker count must not leak into the bytes.
    let run = |threads: usize, spec: &ScenarioSpec| {
        let runner = ClusterRunner::new(threads).with_sketch_aggregates(true);
        runner.run(spec, args.seed)
    };
    let (feedback, t_feedback) = time_us(|| run(2, &feedback_spec));
    let twins: &[usize] = if args.smoke { &[1] } else { &[1, 8] };
    fleet::assert_thread_identity("sketch", &feedback, twins, |t| run(t, &feedback_spec));

    let mut matrix = Table::new(
        "cluster_milliontask.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("placement"),
            plain("completions"),
            plain("misses"),
            plain("miss_ratio"),
            plain("migrations"),
            plain("wall_ms").measured(),
            plain("tasks_per_sec").measured(),
            plain("sim_s_per_wall_s").measured(),
        ],
    );
    let mut push_row = |mode: &str, m: &AggregateMetrics, t_us: f64| {
        matrix.row(vec![
            nodes.to_string(),
            tasks.to_string(),
            mode.to_owned(),
            m.completions().to_string(),
            m.misses().to_string(),
            fmt(m.miss_ratio(), 5),
            m.rebalance.moves.to_string(),
            fmt(t_us / 1e3, 1),
            fmt(tasks as f64 / (t_us / 1e6), 0),
            fmt(sim_total / (t_us / 1e6), 0),
        ]);
    };

    if !args.smoke {
        // Static baseline + the payoff: feedback still cuts the fleet miss
        // rate with a million bystander tasks in the arena.
        let (frozen, t_frozen) = time_us(|| run(2, &frozen_spec));
        push_row("static", &frozen, t_frozen);
        if builtin {
            fleet::assert_feedback_wins(&frozen, &feedback);
        }
    }
    push_row("feedback", &feedback, t_feedback);

    // Arena accounting on the churn workload: admissions ≫ peak live, so
    // bytes/task sit near one retired entry's size (`cluster::node`'s unit
    // test holds the churn figure under 70 B).
    let (waves, per_wave) = mem_sizes(args);
    let r = churn_mem_report(waves, per_wave, args.seed);
    let mut mem = Table::new(
        "cluster_milliontask_mem.csv",
        [
            plain("admitted"),
            plain("peak_live"),
            plain("retired"),
            plain("bytes"),
            plain("bytes_per_task"),
        ],
    )
    .heading(format!(
        "mem_report: task arena, churn workload, {waves} waves x {per_wave} tasks"
    ))
    .note(format!(
        "(assertions passed: {tasks} live tasks at horizon; byte-identical across \
         thread counts{})",
        if args.smoke { " (1/2)" } else { " (1/2/8)" },
    ));
    mem.row(vec![
        r.stats.admitted.to_string(),
        r.peak_live.to_string(),
        r.stats.retired.to_string(),
        r.stats.bytes.to_string(),
        fmt(r.bytes_per_task(), 1),
    ]);
    vec![matrix, mem]
}
