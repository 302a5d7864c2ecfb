//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the prediction each one carries.
//!
//! `../BENCHMARK.json` declares the same names to the driver; a test
//! (`tests/contract.rs`) keeps the two in step, so this file is the one
//! place a metric is defined and explained.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, failures).
    Lower,
    /// Larger is better (rates, useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How long one untraced run measures, in seconds (`run_seconds` in
/// `BENCHMARK.json`; the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The second seed every later claim must also hold on (the first is the
/// default, 42).
pub const SEEDS: [u64; 2] = [42, 7];

/// A workload and the reason it is in the set.
pub struct Workload {
    /// Fixed name (also the `--workload` argument).
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "node_selftune",
        why: "2 nodes x 8 media/RT tasks, 200 sim-s: the paper's tracer-spectrum-controller loop; fleet control, journal and replica idle",
    },
    Workload {
        name: "fleet_dense",
        why: "50k tasks first-fit onto 29 of 250 nodes plus a liar wave, 750 sim-ms: deep kernels, plan, arena, memory, migration churn",
    },
    Workload {
        name: "fleet_wide",
        why: "10k nodes x 2 tasks, worst-fit: per-node fixed cost, index min/range queries, 10k-report reduction, barrier; shallow kernels",
    },
    Workload {
        name: "control_replicated",
        why: "400-node composed diurnal control plane run live, recorded, replayed, shipped+followed, promoted and what-if'd: journal and replica",
    },
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// `host` (wall time, memory: noisy, bounded) or `simulated`
    /// (deterministic for a seed: any difference is real).
    pub kind: &'static str,
    /// Definition.
    pub what: &'static str,
}

/// The end-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: "host",
        what: "median of 3 set-ups: spec generation from the seed, fixture write + strict re-read, runner construction, one untimed priming run",
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: "host",
        what: "median wall of ClusterRunner::run(spec, seed) at T threads (plan + simulate + reduce)",
    },
    EndToEnd {
        name: "cycle_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: "host",
        what: "median wall of one whole repetition: the run plus summary_csv and its check; on control_replicated one live run, then record, encode, decode, replay-verify, ship, follow, promote and one what-if",
    },
    EndToEnd {
        name: "host_us_per_job",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: "host",
        what: "run_wall_s / simulated job completions: host time per simulated event, comparable when a change moves simulated behaviour",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        kind: "host",
        what: "VmHWM of the workload's own process after its first set-up: one build and one full run from cold",
    },
    EndToEnd {
        name: "deadline_hit_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.02,
        kind: "simulated",
        what: "100 x (1 - AggregateMetrics::miss_ratio): the paper's quality metric, stated so that it is never 0",
    },
];

/// A per-layer metric (`--trace 1`), with the prediction written down
/// before measuring: which end-to-end metric it should move, where.
pub struct PerLayer {
    /// `layer.component.metric`; the layer is a crate name, or `trace` /
    /// `sim` for the benchmark's own bookkeeping.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workload -> end-to-end metric it should move (or what it records).
    pub moves: &'static str,
}

const fn lo(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn hi(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const NODE_RUN: &str =
    "node_selftune, fleet_dense -> run_wall_s, host_us_per_job; ~0 on fleet_wide";
const DENSE_RUN: &str =
    "fleet_dense -> run_wall_s (deep dispatch, compression under the liar wave)";
const SELFTUNE_RUN: &str = "node_selftune -> run_wall_s";
const CONTROL_RUN: &str = "control_replicated -> run_wall_s, cycle_wall_s; 0 elsewhere (no VMs)";
const PLAN: &str = "fleet_dense -> run_wall_s via cluster.plan.s";
const WIDE_RUN: &str = "fleet_wide -> run_wall_s (per-node fixed cost x 10k nodes)";
const SKEW: &str =
    "fleet_dense, fleet_wide -> run_wall_s at T threads: a result waits for the slowest chunk";
const MEM: &str = "fleet_dense -> peak_rss_mb, and run_wall_s through page-fault time";
const RESIDUAL: &str =
    "control_replicated, fleet_dense -> run_wall_s; the residual the outside cannot see";
const JOURNAL: &str =
    "control_replicated -> cycle_wall_s (record/replay/what-if legs); 0 elsewhere";
const REPLICA: &str = "control_replicated -> cycle_wall_s (ship/follow/promote legs); 0 elsewhere";
const EXACT: &str = "simulated, exact for a seed: any difference between two commits is real";

/// The per-layer metrics, reported by every workload (`--trace 1`). A
/// layer the workload bypasses reports 0 — that *is* its measurement.
pub const PER_LAYER: [PerLayer; 76] = [
    // The benchmark's own bookkeeping.
    lo("trace.overhead_pct", "%", "traced 1-thread run_planned vs the mean of the untraced ones either side of it, in percent (spans sit at call boundaries: noise-level)"),
    hi("trace.attributed_share", "ratio", "node-pass spans / 1-thread run_planned wall: >= 0.8 expected on node_selftune"),
    lo("trace.unattributed_share", "ratio", "1 - attributed share, floored at 0: what only in-program tracing can split"),
    lo("trace.spans", "count", "spans recorded by the traced run"),
    // Simulated outcomes (deterministic for a seed).
    lo("sim.miss_ratio", "ratio", EXACT),
    hi("sim.completions", "count", EXACT),
    lo("sim.rejected_tasks", "count", EXACT),
    hi("sim.thread_identical", "bool", "1 when summary_csv at 1 thread == at T threads, byte for byte"),
    // simcore
    lo("simcore.kernel.run_s", "s", NODE_RUN),
    lo("simcore.kernel.us_per_job", "us", NODE_RUN),
    lo("simcore.event_queue.ns_per_op", "ns", NODE_RUN),
    lo("simcore.metrics.ns_per_record", "ns", NODE_RUN),
    // sched
    hi("sched.reservation.sim_rate_16", "sim-s/s", SELFTUNE_RUN),
    hi("sched.reservation.sim_rate_200", "sim-s/s", DENSE_RUN),
    lo("sched.supervisor.us_per_apply", "us", DENSE_RUN),
    // tracer
    hi("tracer.events_per_sim_s", "1/s", "workload characterisation: traced syscall edges per simulated second on the stack-pass nodes"),
    lo("tracer.drain.ns_per_event", "ns", SELFTUNE_RUN),
    lo("tracer.dropped", "count", "ring overflows in the stack pass; > 0 is a failed operation"),
    // spectrum
    lo("spectrum.analyser.us_per_estimate", "us", SELFTUNE_RUN),
    lo("spectrum.dft.ops_per_estimate", "count", "node_selftune -> run_wall_s; exact operation count from WindowedDft::ops"),
    // core
    lo("core.manager.step_s", "s", "node_selftune, fleet_dense -> run_wall_s"),
    lo("core.manager.steps", "count", "sampling steps taken in the stack pass"),
    lo("core.manager.us_per_step", "us", "node_selftune, fleet_dense -> run_wall_s"),
    lo("core.manager.share_of_node", "ratio", "manager step / (step + kernel) on the stack-pass nodes"),
    lo("core.share.ns_per_step", "ns", "control_replicated -> run_wall_s (one ShareController per node and per elastic VM)"),
    // analysis
    lo("analysis.minbudget.ns_per_call", "ns", PLAN),
    // virt
    lo("virt.platform.step_managers_s", "s", CONTROL_RUN),
    hi("virt.sched.sim_rate_16vm", "sim-s/s", CONTROL_RUN),
    // cluster
    lo("cluster.plan.s", "s", PLAN),
    lo("cluster.plan.us_per_task", "us", PLAN),
    hi("cluster.plan.admitted", "count", EXACT),
    lo("cluster.plan.rejected", "count", EXACT),
    lo("cluster.index.ns_per_query", "ns", "fleet_wide -> run_wall_s (worst-fit min query); fleet_dense -> cluster.plan.s (first-fit descent)"),
    lo("cluster.node.build_s", "s", "fleet_dense -> run_wall_s, setup of 50k tasks; fleet_wide -> 10k Node::new"),
    lo("cluster.node.run_s", "s", "every workload -> run_wall_s: the simulation proper"),
    lo("cluster.node.feedback_s", "s", WIDE_RUN),
    lo("cluster.node.report_s", "s", WIDE_RUN),
    lo("cluster.node.run_skew", "ratio", SKEW),
    lo("cluster.node.idle_us", "us", WIDE_RUN),
    lo("cluster.sketch.reduce_s", "s", WIDE_RUN),
    lo("cluster.aggregate.csv_s", "s", "every workload -> cycle_wall_s"),
    lo("cluster.events.sort_s", "s", "control_replicated -> cycle_wall_s (record leg)"),
    lo("cluster.events.count", "count", EXACT),
    lo("cluster.runner.run_planned_1t_s", "s", "1-thread base of thread_scaling, control_s and trace.overhead_pct"),
    hi("cluster.runner.thread_scaling", "ratio", SKEW),
    lo("cluster.runner.control_s", "s", RESIDUAL),
    lo("cluster.runner.control_share", "ratio", RESIDUAL),
    lo("cluster.runner.epochs", "count", EXACT),
    lo("cluster.runner.migrations", "count", EXACT),
    lo("cluster.runner.failed_moves", "count", EXACT),
    lo("cluster.mem.rss_bytes_per_task", "B", MEM),
    lo("cluster.arena.bytes_per_task", "B", MEM),
    // journal
    lo("journal.record.overhead_s", "s", JOURNAL),
    lo("journal.records", "count", EXACT),
    lo("journal.bytes", "B", EXACT),
    lo("journal.bytes_per_record", "B", EXACT),
    lo("journal.codec.encode_s", "s", JOURNAL),
    lo("journal.codec.decode_s", "s", JOURNAL),
    hi("journal.codec.encode_mb_per_s", "MB/s", JOURNAL),
    lo("journal.replay.plan_pinned_s", "s", JOURNAL),
    lo("journal.replay.verify_s", "s", JOURNAL),
    lo("journal.whatif.s", "s", JOURNAL),
    // distrib
    lo("distrib.frame.encode_ns_per_byte", "ns/B", REPLICA),
    lo("distrib.frame.decode_ns_per_byte", "ns/B", REPLICA),
    lo("distrib.ship.overhead_s", "s", REPLICA),
    lo("distrib.ship.frames", "count", EXACT),
    lo("distrib.ship.bytes", "B", EXACT),
    lo("distrib.follower.follow_s", "s", REPLICA),
    lo("distrib.follower.records_s", "s", REPLICA),
    lo("distrib.follower.checkpoint_s", "s", "control_replicated -> cycle_wall_s; should be most of follow_s and grows with epochs^2 / cadence"),
    lo("distrib.follower.checkpoints", "count", EXACT),
    lo("distrib.follower.finish_s", "s", REPLICA),
    lo("distrib.follower.promote_s", "s", REPLICA),
    lo("distrib.follower.retried_frames", "count", "frames applied on a second attempt in the seeded lossy-wire pass"),
    lo("distrib.checkpoint.load_verify_s", "s", REPLICA),
    lo("distrib.checkpoint.bytes", "B", EXACT),
];

/// How far an exact simulated value may move before `compare` calls it
/// worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slack {
    /// A share of the base value.
    OfBase(f64),
    /// An absolute amount, in the metric's own unit.
    Abs(f64),
    /// A share of the tasks the base run offered to the placer
    /// (`cluster.plan.admitted` + `cluster.plan.rejected`).
    OfOffered(f64),
}

/// The per-layer values `compare` gates beside the end-to-end metrics:
/// the issue's simulated end-to-end numbers, which the driver's contract
/// (every metric from every workload, never 0, bound a share of the
/// median) cannot carry as `end_to_end` entries. They are deterministic
/// for a seed, so they have no spread and a difference is real.
pub const EXACT_GATES: [(&str, Slack); 5] = [
    ("sim.miss_ratio", Slack::Abs(0.002)),
    ("sim.completions", Slack::OfBase(0.01)),
    ("sim.rejected_tasks", Slack::OfOffered(0.01)),
    ("sim.thread_identical", Slack::Abs(0.0)),
    ("journal.bytes_per_record", Slack::Abs(0.0)),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json` as this catalogue defines it: exactly the keys the
/// driver's contract names. `run.sh contract` prints it; a test holds the
/// checked-in file to it.
pub fn contract() -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = named(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// Whether `name` is made of the characters the contract allows, starts
/// with a letter or digit and is at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is made of the characters the contract allows.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for (name, _) in &EXACT_GATES {
            assert!(
                per_layer(name).is_some(),
                "{name} is gated but not catalogued"
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_rules_reject_what_the_contract_rejects() {
        assert!(valid_name("cluster.node.run_s") && valid_name("a-b_c.9"));
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("ns/B") && valid_unit("%") && valid_unit("sim-s/s"));
        assert!(!valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }
}
