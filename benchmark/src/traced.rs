//! The per-layer run (`--trace 1`): one thread, a span around every call
//! the benchmark makes into a layer, self time = span − children.
//!
//! The passes, all measured from outside through public functions:
//!
//! * **reference** (tracing off) — a cold `T`-thread run (memory growth),
//!   a timed one, and a 1-thread run either side of the traced one, each
//!   started with its predecessor's aggregates freed: `thread_identical`,
//!   the base of `thread_scaling` and of `trace.overhead_pct`, the
//!   simulated outcomes.
//! * **runner pass** — `plan_fleet`, `run_planned`, `summary_csv`.
//! * **replica pass** (replicated workload only) — `run_logged`, the
//!   journal codec, replay, what-if, `Shipper`, `Follower::feed` frame by
//!   frame, promotion, checkpoint reload, one lossy-wire pass.
//! * **node pass** — every node rebuilt standalone from the plan
//!   (`Node::new`, `add_vm`/`add_task`, `run_to_horizon` per epoch,
//!   `feedback`, `report_mode`) *without* fleet control: no migrations,
//!   no re-bounds. What the runner spends beyond it
//!   (`cluster.runner.control_s`) is the residual the outside cannot see.
//!   It is an approximation until in-program tracing lands: a melting
//!   node stays melted here, so its kernel does different work.
//! * **stack pass** — the deepest nodes again as a bare
//!   `Kernel<ReservationScheduler>` + `Tracer` + `SelfTuningManager`
//!   driven tick by tick, timing `run_until` and `step` apart; a capture
//!   twin (same tasks, tracer drained by the benchmark) counts tracer
//!   events and drops and feeds the analyser micro-loop; VM-bearing nodes
//!   are rebuilt as a `VirtPlatform` to time `step_managers`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use selftune_cluster::events::sort_events;
use selftune_cluster::node::{Lease, Node, NodeTask, NodeVm};
use selftune_cluster::runner::{plan_fleet, plan_fleet_pinned, FleetPlan};
use selftune_cluster::{AggregateMetrics, ClusterRunner, ScenarioSpec};
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_distrib::prelude::*;
use selftune_journal::record::DecisionRecord;
use selftune_journal::{run_whatif, Journal, Replayer};
use selftune_sched::{CbsMode, ReservationScheduler, Supervisor};
use selftune_simcore::rng::Rng;
use selftune_simcore::task::Workload;
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::Kernel;
use selftune_tracer::{entry_times_secs, Tracer, TracerConfig};
use selftune_virt::{GuestPolicy, VirtPlatform, VmConfig, VmElasticConfig};

use crate::catalog::PER_LAYER;
use crate::harness::{
    peak_rss_bytes, rss_bytes, sim_fingerprint, write_out, Abort, Ops, RunResult,
};
use crate::micro;
use crate::span::{self_times, SpanLog};
use crate::workloads::{self, Built, CHECKPOINT_EVERY};

/// Nodes the stack pass rebuilds (the deepest ones).
const STACK_NODES: usize = 2;
/// Simulated seconds of the capture twin: enough event train for the
/// analyser micro-loop, cheap enough to ignore.
const CAPTURE_HORIZON: Dur = Dur::secs(10);
/// Drop probability of the seeded lossy wire.
const LOSSY_DROP_RATE: f64 = 0.1;

/// Per-layer values by metric name; anything never set reports 0 (the
/// layer was bypassed).
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a catalogued per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The planned node-local task lists, in the order the runner admits
/// them (arrival order; fleet-id order is arrival order except under
/// traffic phases).
fn per_node_tasks<'p>(spec: &ScenarioSpec, plan: &'p FleetPlan) -> Vec<Vec<&'p NodeTask>> {
    let mut per_node: Vec<Vec<&NodeTask>> = vec![Vec::new(); spec.nodes];
    for p in &plan.tasks {
        if let Some(node) = p.node {
            per_node[node].push(&p.task);
        }
    }
    if !spec.phases.is_empty() {
        for tasks in &mut per_node {
            tasks.sort_by_key(|t| (t.arrival, t.fleet_id));
        }
    }
    per_node
}

fn per_node_vms<'p>(spec: &ScenarioSpec, plan: &'p FleetPlan) -> Vec<Vec<&'p NodeVm>> {
    let mut per_node: Vec<Vec<&NodeVm>> = vec![Vec::new(); spec.nodes];
    for p in &plan.vms {
        if let Some(node) = p.node {
            per_node[node].push(&p.vm);
        }
    }
    per_node
}

/// One untraced 1-thread `run_planned`; returns its aggregates and wall.
fn untraced_1t(
    ops: &mut Ops,
    built: &Built,
    seed: u64,
    plan: &FleetPlan,
) -> Result<(AggregateMetrics, f64), Abort> {
    let t0 = Instant::now();
    let run = ops.call("run_planned (1 thread, untraced)", || {
        built.runner(1).run_planned(&built.spec, seed, plan)
    })?;
    Ok((run, t0.elapsed().as_secs_f64()))
}

/// Reference runs with tracing off: a cold and a timed `T`-thread `run`,
/// one 1-thread `plan_fleet` + `run_planned`. Returns the `T`-thread
/// `summary_csv`, the `T`-thread wall and the 1-thread plan and run walls.
fn reference(
    ops: &mut Ops,
    built: &Built,
    seed: u64,
    v: &mut Values,
) -> Result<(String, f64, f64, f64), Abort> {
    let spec = &built.spec;
    let runner = built.runner(workloads::threads());
    // The first run of a fresh process pays first-touch page faults
    // (4.06 s against 3.55 s warm on fleet_dense): it measures memory and
    // primes, as the untraced run's set-up does; the second is timed.
    let rss_before = rss_bytes();
    let cold = ops.call("ClusterRunner::run (T threads, cold)", || {
        runner.run(spec, seed)
    })?;
    let grown = peak_rss_bytes().saturating_sub(rss_before);
    drop(cold);
    let t0 = Instant::now();
    let multi = ops.call("ClusterRunner::run (T threads)", || runner.run(spec, seed))?;
    let wall_t = t0.elapsed().as_secs_f64();
    v.set("sim.miss_ratio", multi.miss_ratio());
    v.set("sim.completions", multi.completions() as f64);
    v.set("sim.rejected_tasks", multi.admission.rejected as f64);
    v.set("cluster.runner.epochs", multi.rebalance.epochs as f64);
    v.set("cluster.runner.migrations", multi.rebalance.moves as f64);
    v.set("cluster.runner.failed_moves", multi.rebalance.failed as f64);
    let placed = (multi.admission.admitted + multi.admission.best_effort).max(1);
    v.set(
        "cluster.mem.rss_bytes_per_task",
        grown as f64 / placed as f64,
    );
    // Every later 1-thread run starts with the previous run's aggregates
    // freed; so must this one, or it alone pays first-touch page faults
    // for a second fleet's worth of memory (3.9 - 5.6 s against 2.7 s on
    // fleet_wide) and the base it feeds reads a third too high.
    let reference_csv = multi.summary_csv();
    drop(multi);

    let t0 = Instant::now();
    let plan = ops.call("plan_fleet", || plan_fleet(spec, seed))?;
    let plan_s = t0.elapsed().as_secs_f64();
    let (single, planned_1t) = untraced_1t(ops, built, seed, &plan)?;
    let identical = single.summary_csv() == reference_csv;
    ops.check("summary_csv at 1 thread == at T threads", identical);
    v.set("sim.thread_identical", f64::from(u8::from(identical)));
    Ok((reference_csv, wall_t, plan_s, planned_1t))
}

/// The traced runner pass. Returns the traced `run_planned` wall.
fn runner_pass(
    ops: &mut Ops,
    log: &mut SpanLog,
    built: &Built,
    seed: u64,
    reference_csv: &str,
    v: &mut Values,
) -> Result<(f64, FleetPlan), Abort> {
    let spec = &built.spec;
    let runner = built.runner(1);
    let pass = log.enter("pass.runner");

    let (plan, plan_s) = log.time("cluster.plan", || {
        ops.call("plan_fleet", || plan_fleet(spec, seed))
    });
    let plan = plan?;
    let offered = spec.flat_tasks().max(1);
    v.set("cluster.plan.s", plan_s);
    v.set("cluster.plan.us_per_task", plan_s * 1e6 / offered as f64);
    v.set("cluster.plan.admitted", plan.admission.admitted as f64);
    v.set("cluster.plan.rejected", plan.admission.rejected as f64);

    let (run, planned_s) = log.time("cluster.run_planned", || {
        ops.call("run_planned (1 thread, traced)", || {
            runner.run_planned(spec, seed, &plan)
        })
    });
    let run = run?;
    let (csv, csv_s) = log.time("cluster.aggregate.csv", || run.summary_csv());
    v.set("cluster.aggregate.csv_s", csv_s);
    ops.check("traced run == reference run", csv == reference_csv);

    log.exit(pass);
    Ok((planned_s, plan))
}

/// The replica pass: journal and replication calls, 1 thread throughout.
fn replicated_pass(
    ops: &mut Ops,
    log: &mut SpanLog,
    built: &Built,
    seed: u64,
    live_csv: &str,
    planned_s: f64,
    v: &mut Values,
) -> Result<String, Abort> {
    let spec = &built.spec;
    let runner = built.runner(1);

    let (logged, logged_s) = log.time("cluster.run_logged", || {
        ops.call("run_logged", || runner.run_logged(spec, seed))
    });
    let (metrics, events) = logged?;
    ops.check("logged run == live run", metrics.summary_csv() == live_csv);
    v.set("journal.record.overhead_s", logged_s - planned_s);
    v.set("cluster.events.count", events.len() as f64);
    let mut resorted = events.clone();
    let ((), sort_s) = log.time("cluster.events.sort", || sort_events(&mut resorted));
    v.set("cluster.events.sort_s", sort_s);

    let (journal, _) = log.time("journal.from_events", || Journal {
        scenario: spec.clone(),
        seed,
        // Informational in the journal, but part of its text: record the
        // untraced run's thread count so both runs share a fingerprint.
        threads: workloads::threads(),
        admission: metrics.admission,
        summary: metrics.summary_csv(),
        records: events.into_iter().map(DecisionRecord::from).collect(),
    });
    let (text, enc_s) = log.time("journal.codec.encode", || journal.to_text());
    let (decoded, dec_s) = log.time("journal.codec.decode", || {
        ops.try_call("Journal::from_text", || Journal::from_text(&text))
    });
    let decoded = decoded?;
    ops.check(
        "journal to_text . from_text is a fixed point",
        decoded.to_text() == text,
    );
    let records = journal.records.len().max(1);
    v.set("journal.records", journal.records.len() as f64);
    v.set("journal.bytes", text.len() as f64);
    v.set(
        "journal.bytes_per_record",
        text.len() as f64 / records as f64,
    );
    v.set("journal.codec.encode_s", enc_s);
    v.set("journal.codec.decode_s", dec_s);
    v.set(
        "journal.codec.encode_mb_per_s",
        text.len() as f64 / 1e6 / enc_s.max(1e-9),
    );

    let (_, pinned_s) = log.time("journal.replay.plan_pinned", || {
        let plan = plan_fleet_pinned(&decoded.scenario, decoded.seed, &decoded.pinned_plan());
        (plan, decoded.pinned_moves(None))
    });
    v.set("journal.replay.plan_pinned_s", pinned_s);
    let (verified, verify_s) = log.time("journal.replay.verify", || {
        ops.try_call("Replayer::verify", || Replayer::new(1).verify(&decoded))
    });
    verified?;
    v.set("journal.replay.verify_s", verify_s);

    let whatif = Built::whatif(&journal);
    let (report, whatif_s) = log.time("journal.whatif", || {
        ops.call("run_whatif", || run_whatif(&journal, &whatif, 1))
    });
    ops.check(
        "what-if baseline == factual",
        report?.baseline.summary_csv() == live_csv,
    );
    v.set("journal.whatif.s", whatif_s);

    // Leader side: the same run with the shipper attached.
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, spec, seed, 1, Some(CHECKPOINT_EVERY));
    let (leader, ship_s) = log.time("distrib.ship", || {
        ops.call("run_logged_with(Shipper)", || {
            runner.run_logged_with(spec, seed, &mut shipper)
        })
    });
    ops.check("shipped run == live run", leader?.summary_csv() == live_csv);
    let progress = shipper.progress();
    let chunks: Vec<Vec<u8>> = std::iter::from_fn(|| rx.recv()).collect();
    v.set("distrib.ship.overhead_s", ship_s - planned_s);
    v.set("distrib.ship.frames", progress.frames as f64);
    v.set(
        "distrib.ship.bytes",
        chunks.iter().map(Vec::len).sum::<usize>() as f64,
    );

    // Follower side, frame by frame; each feed is named by what it applied.
    let follow = log.enter("distrib.follow");
    let mut follower = Follower::new(1);
    let (mut records_ns, mut checkpoint_ns, mut finish_ns) = (0u64, 0u64, 0u64);
    for chunk in &chunks {
        let open = log.enter("distrib.follower.feed");
        let applied = ops.try_call("Follower::feed", || follower.feed(chunk));
        match applied {
            Ok(Applied::Checkpoint { .. }) => {
                checkpoint_ns += log.exit_as(open, "distrib.follower.checkpoint");
            }
            Ok(Applied::Finish) => finish_ns += log.exit_as(open, "distrib.follower.finish"),
            Ok(_) => records_ns += log.exit_as(open, "distrib.follower.records"),
            Err(Abort) => {
                log.exit(open);
                log.exit(follow);
                return Err(Abort);
            }
        }
    }
    let follow_ns = log.exit(follow);
    let stats = follower.stats();
    ops.check(
        "follower finale == leader",
        follower
            .finale()
            .map(AggregateMetrics::summary_csv)
            .as_deref()
            == Some(live_csv),
    );
    ops.check(
        "every checkpoint mirror-verified",
        stats.checkpoints == progress.checkpoints && stats.divergences == 0,
    );
    v.set("distrib.follower.follow_s", secs(follow_ns));
    v.set("distrib.follower.records_s", secs(records_ns));
    v.set("distrib.follower.checkpoint_s", secs(checkpoint_ns));
    v.set("distrib.follower.checkpoints", stats.checkpoints as f64);
    v.set("distrib.follower.finish_s", secs(finish_ns));

    // Failover: feed to the crash epoch, then promote.
    let crash = built.crash_epoch();
    let failover = log.enter("distrib.failover");
    let mut standby = Follower::new(1);
    for chunk in &chunks {
        let open = log.enter("distrib.follower.feed");
        let applied = ops.try_call("Follower::feed (standby)", || standby.feed(chunk));
        log.exit(open);
        if matches!(applied?, Applied::Epoch { epoch, .. } if epoch == crash) {
            break;
        }
    }
    let (promoted, promote_s) = log.time("distrib.follower.promote", || {
        ops.try_call("Follower::promote", || standby.promote())
    });
    log.exit(failover);
    ops.check(
        "promoted run == uninterrupted run",
        promoted?.summary_csv() == live_csv,
    );
    v.set("distrib.follower.promote_s", promote_s);

    // A late joiner's path: the last durable checkpoint, from text.
    if let Some(ckpt) = follower.last_checkpoint() {
        let ckpt_text = ckpt.to_text();
        v.set("distrib.checkpoint.bytes", ckpt_text.len() as f64);
        let (loaded, load_s) = log.time("distrib.checkpoint.load_verify", || {
            ops.try_call("Checkpoint::from_text + verify", || {
                Checkpoint::from_text(&ckpt_text).and_then(|c| c.verify(1).map(|_| c))
            })
        });
        ops.check("checkpoint text round trip", loaded? == *ckpt);
        v.set("distrib.checkpoint.load_verify_s", load_s);
    }

    // One extra pass over a seeded lossy wire, at T threads (it is there
    // for the retry count, not for a time): drops surface as gaps, one
    // retransmission of the missing suffix must converge.
    let lossy_pass = log.enter("distrib.lossy_pass");
    let (tx, mut rx) = ChannelTransport::pair();
    let mut wire = LossyTransport::new(tx, seed, LOSSY_DROP_RATE);
    for chunk in &chunks {
        wire.send(chunk.clone());
    }
    let mut lossy = Follower::new(workloads::threads());
    let converged = ops.call("lossy wire + retransmission", || {
        while let Some(chunk) = rx.recv() {
            // Gaps are the expected fault here; anything else is checked
            // through the finale below.
            let _ = lossy.feed(&chunk);
        }
        while lossy.finale().is_none() {
            let resume = lossy.expected_seq();
            let Some(chunk) = shipper.frames_from(resume).first() else {
                break;
            };
            if lossy.feed(chunk).is_err() {
                break;
            }
        }
        lossy.finale().map(AggregateMetrics::summary_csv)
    })?;
    log.exit(lossy_pass);
    ops.check(
        "lossy replica converged to the leader",
        converged.as_deref() == Some(live_csv),
    );
    v.set(
        "distrib.follower.retried_frames",
        lossy.stats().retried as f64,
    );

    // Frame codec unit cost on the stream's largest frame (the plan).
    if let Some(frame) = chunks
        .iter()
        .max_by_key(|c| c.len())
        .and_then(|c| Frame::decode(c).ok())
    {
        let open = log.enter("micro.distrib.frame");
        let (enc, dec) = micro::frame_ns_per_byte(&frame, 0.1);
        log.exit(open);
        v.set("distrib.frame.encode_ns_per_byte", enc);
        v.set("distrib.frame.decode_ns_per_byte", dec);
    }
    Ok(text)
}

/// The node pass: every node standalone, epoch by epoch, no fleet
/// control. Returns the pass's attributed seconds.
fn node_pass(
    ops: &mut Ops,
    log: &mut SpanLog,
    built: &Built,
    seed: u64,
    plan: &FleetPlan,
    v: &mut Values,
) -> Result<f64, Abort> {
    let spec = &built.spec;
    let tasks = per_node_tasks(spec, plan);
    let vms = per_node_vms(spec, plan);
    let ends = ClusterRunner::epoch_ends(spec);
    let horizon = *ends.last().expect("at least one epoch boundary");
    let pass = log.enter("pass.node");

    let (mut build_ns, mut run_ns, mut feedback_ns, mut report_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut node_run_ns = vec![0u64; spec.nodes];
    let mut cursors = vec![0usize; spec.nodes];
    let mut nodes: Vec<Node> = Vec::with_capacity(spec.nodes);
    // Admits node `n`'s planned arrivals up to `until` (everything on the
    // last epoch), exactly as the runner batches them.
    let admit = |node: &mut Node, cursor: &mut usize, n: usize, until: Option<Time>| {
        while let Some(task) = tasks[n].get(*cursor) {
            if until.is_some_and(|t| task.arrival > t) {
                break;
            }
            node.add_task((*task).clone());
            *cursor += 1;
        }
    };
    let sim = ops.call("node pass", || {
        for n in 0..spec.nodes {
            let open = log.enter("cluster.node.build");
            let mut node = Node::new(n, spec);
            for vm in &vms[n] {
                node.add_vm((*vm).clone());
            }
            let gate = (ends.len() > 1).then_some(ends[0]);
            admit(&mut node, &mut cursors[n], n, gate);
            for w in &spec.overload {
                node.inject_overload(w);
            }
            build_ns += log.exit(open);
            let open = log.enter("cluster.node.run");
            node.run_to_horizon(ends[0]);
            let ns = log.exit(open);
            run_ns += ns;
            node_run_ns[n] += ns;
            nodes.push(node);
        }
        for (ei, &t_end) in ends.iter().enumerate() {
            if ei > 0 {
                let last = ei == ends.len() - 1;
                for (n, node) in nodes.iter_mut().enumerate() {
                    let open = log.enter("cluster.node.build");
                    admit(node, &mut cursors[n], n, (!last).then_some(t_end));
                    build_ns += log.exit(open);
                    let open = log.enter("cluster.node.run");
                    node.run_to_horizon(t_end);
                    let ns = log.exit(open);
                    run_ns += ns;
                    node_run_ns[n] += ns;
                }
            }
            if ei + 1 < ends.len() {
                for node in &mut nodes {
                    let open = log.enter("cluster.node.feedback");
                    std::hint::black_box(node.feedback(t_end));
                    feedback_ns += log.exit(open);
                }
            }
        }
        let mut reports = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let open = log.enter("cluster.node.report");
            reports.push(node.report_mode(horizon, !built.sketch));
            report_ns += log.exit(open);
        }
        log.time("cluster.sketch.reduce", || {
            AggregateMetrics::new(&spec.name, seed, plan.admission, reports)
        })
    });
    let (fleet, reduce_s) = sim?;
    log.exit(pass);
    ops.check("node pass completed jobs", fleet.completions() > 0);

    let (mut arena_bytes, mut arena_admitted) = (0usize, 0u64);
    for node in &nodes {
        let m = node.mem_stats();
        arena_bytes += m.bytes;
        arena_admitted += m.admitted;
    }
    v.set(
        "cluster.arena.bytes_per_task",
        arena_bytes as f64 / arena_admitted.max(1) as f64,
    );
    let idle: Vec<u64> = (0..spec.nodes)
        .filter(|&n| tasks[n].is_empty() && vms[n].is_empty())
        .map(|n| node_run_ns[n])
        .collect();
    if !idle.is_empty() {
        let per_epoch = idle.iter().sum::<u64>() as f64 / (idle.len() * ends.len()) as f64;
        v.set("cluster.node.idle_us", per_epoch / 1e3);
    }
    let mean_run = run_ns as f64 / spec.nodes as f64;
    let max_run = node_run_ns.iter().copied().max().unwrap_or(0) as f64;
    v.set("cluster.node.run_skew", max_run / mean_run.max(1.0));
    v.set("cluster.node.build_s", secs(build_ns));
    v.set("cluster.node.run_s", secs(run_ns));
    v.set("cluster.node.feedback_s", secs(feedback_ns));
    v.set("cluster.node.report_s", secs(report_ns));
    v.set("cluster.sketch.reduce_s", reduce_s);
    Ok(secs(build_ns + run_ns + feedback_ns + report_ns) + reduce_s)
}

/// The manager configuration `Node::new` gives its host (and, with the
/// same bound, every guest).
fn manager_config(spec: &ScenarioSpec) -> ManagerConfig {
    ManagerConfig {
        sampling: spec.sampling,
        supervisor: Supervisor::new(spec.ulub),
        cbs_mode: CbsMode::Hard,
    }
}

/// A planned task's workload, lease-wrapped when it departs (what
/// `Node::add_task` spawns).
fn workload_of(task: &NodeTask) -> Box<dyn Workload> {
    let workload = task.kind.instantiate(&task.label, Rng::new(task.seed));
    match task.departure {
        Some(until) => Box::new(Lease::new(workload, until)),
        None => workload,
    }
}

/// What the capture twin of one node saw.
struct Capture {
    /// Events the tracer recorded (`TraceReader::total_recorded`).
    recorded: u64,
    /// Events lost to ring overflow.
    dropped: u64,
    /// Time spent in `drain_into`.
    drain_ns: u64,
    /// Entry times of the first task's system calls (empty unless asked).
    train: Vec<f64>,
}

/// The capture twin: every task of the node on a bare kernel with the
/// tracer installed and no manager, the benchmark draining the ring once
/// per sampling period as the manager would, up to `CAPTURE_HORIZON`.
fn capture_twin(
    log: &mut SpanLog,
    tasks: &[&NodeTask],
    sampling: Dur,
    horizon: Time,
    keep_train: bool,
) -> Capture {
    let mut kernel = Kernel::new(ReservationScheduler::new());
    let (hook, reader) = Tracer::create(TracerConfig::default());
    kernel.install_hook(Box::new(hook));
    let tids: Vec<_> = tasks
        .iter()
        .map(|task| kernel.spawn_at(&task.label, workload_of(task), task.arrival))
        .collect();
    let first = tids.first().copied().filter(|_| keep_train);
    let until = horizon.min(Time::ZERO + CAPTURE_HORIZON);
    let (mut batch, mut train, mut drain_ns) = (Vec::new(), Vec::new(), 0u64);
    while kernel.now() < until {
        let next = (kernel.now() + sampling).min(until);
        kernel.run_until(next);
        let open = log.enter("tracer.drain");
        reader.drain_into(&mut batch);
        drain_ns += log.exit(open);
        if let Some(tid) = first {
            train.extend(entry_times_secs(&batch, tid));
        }
    }
    Capture {
        recorded: reader.total_recorded(),
        dropped: reader.total_dropped(),
        drain_ns,
        train,
    }
}

/// The stack pass over the deepest nodes' flat tasks.
fn stack_pass(
    ops: &mut Ops,
    log: &mut SpanLog,
    built: &Built,
    plan: &FleetPlan,
    slice: f64,
    v: &mut Values,
) -> Result<(), Abort> {
    let spec = &built.spec;
    let tasks = per_node_tasks(spec, plan);
    let horizon = Time::ZERO + spec.horizon;
    let mut deepest: Vec<usize> = (0..spec.nodes).collect();
    deepest.sort_by_key(|&n| (std::cmp::Reverse(tasks[n].len()), n));
    deepest.truncate(STACK_NODES);
    let pass = log.enter("pass.stack");

    let (mut kernel_ns, mut step_ns, mut steps) = (0u64, 0u64, 0u64);
    let (mut jobs, mut syscalls) = (0u64, 0u64);
    let (mut recorded, mut dropped, mut drain_ns) = (0u64, 0u64, 0u64);
    let mut train: Vec<f64> = Vec::new();
    ops.call("stack pass", || {
        for &n in &deepest {
            // The managed twin: the paper's loop, tick by tick.
            let mut kernel = Kernel::new(ReservationScheduler::new());
            let (hook, reader) = Tracer::create(TracerConfig::default());
            kernel.install_hook(Box::new(hook));
            let mut mgr = SelfTuningManager::new(manager_config(spec), reader);
            let mut tids = Vec::with_capacity(tasks[n].len());
            for task in &tasks[n] {
                let tid = kernel.spawn_at(&task.label, workload_of(task), task.arrival);
                if task.kind.is_realtime() {
                    mgr.manage(tid, &task.label, ControllerConfig::default());
                }
                tids.push(tid);
            }
            while kernel.now() < horizon {
                let next = (kernel.now() + spec.sampling).min(horizon);
                let open = log.enter("simcore.kernel.run_until");
                kernel.run_until(next);
                kernel_ns += log.exit(open);
                let open = log.enter("core.manager.step");
                mgr.step(&mut kernel);
                step_ns += log.exit(open);
                steps += 1;
            }
            for (task, &tid) in tasks[n].iter().zip(&tids) {
                if let Some(mark) = task.kind.mark_name(&task.label) {
                    jobs += kernel.metrics().marks(&mark).len() as u64;
                }
                syscalls += kernel.syscall_count(tid);
            }

            // One task's train, from the deepest node only: a second
            // node's clock starts over and would break time order.
            let keep_train = n == deepest[0];
            let twin = capture_twin(log, &tasks[n], spec.sampling, horizon, keep_train);
            recorded += twin.recorded;
            dropped += twin.dropped;
            drain_ns += twin.drain_ns;
            train.extend(twin.train);
        }
    })?;
    let sim_s = spec.horizon.as_secs_f64() * deepest.len() as f64;
    v.set("simcore.kernel.run_s", secs(kernel_ns));
    v.set(
        "simcore.kernel.us_per_job",
        kernel_ns as f64 / 1e3 / jobs.max(1) as f64,
    );
    v.set("core.manager.step_s", secs(step_ns));
    v.set("core.manager.steps", steps as f64);
    v.set(
        "core.manager.us_per_step",
        step_ns as f64 / 1e3 / steps.max(1) as f64,
    );
    v.set(
        "core.manager.share_of_node",
        step_ns as f64 / (step_ns + kernel_ns).max(1) as f64,
    );
    // Two traced edges (enter, exit) per system call.
    v.set("tracer.events_per_sim_s", 2.0 * syscalls as f64 / sim_s);
    v.set(
        "tracer.drain.ns_per_event",
        drain_ns as f64 / recorded.max(1) as f64,
    );
    v.set("tracer.dropped", dropped as f64);
    ops.check("tracer ring never overflowed", dropped == 0);

    // VM-bearing nodes as a VirtPlatform: guests only, to split the
    // manager steps from the two-level kernel.
    let vms = per_node_vms(spec, plan);
    let mut hosts: Vec<usize> = (0..spec.nodes).filter(|&n| !vms[n].is_empty()).collect();
    hosts.sort_by_key(|&n| (std::cmp::Reverse(vms[n].len()), n));
    hosts.truncate(STACK_NODES);
    let mut step_managers_ns = 0u64;
    ops.call("VM platform pass", || {
        for &n in &hosts {
            let mut platform = VirtPlatform::new(manager_config(spec));
            for plan_vm in &vms[n] {
                let (vm, _) = platform.create_vm_curbed(VmConfig {
                    label: plan_vm.label.clone(),
                    budget: plan_vm.budget,
                    period: plan_vm.period,
                    policy: GuestPolicy::SelfTuning(manager_config(spec)),
                });
                if plan_vm.elastic {
                    platform.make_vm_elastic(
                        vm,
                        VmElasticConfig {
                            adapt_period: spec.node_share.enabled,
                            ..VmElasticConfig::default()
                        },
                    );
                }
                for g in &plan_vm.guests {
                    let tid = platform.spawn_in_vm_at(vm, &g.label, workload_of(g), g.arrival);
                    if g.kind.is_realtime() {
                        platform.manage_in_vm(vm, tid, &g.label, ControllerConfig::default());
                    }
                }
            }
            while platform.now() < horizon {
                let next = (platform.now() + spec.sampling).min(horizon);
                let open = log.enter("virt.kernel.run_until");
                platform.kernel_mut().run_until(next);
                log.exit(open);
                let open = log.enter("virt.platform.step_managers");
                platform.step_managers();
                step_managers_ns += log.exit(open);
            }
        }
    })?;
    v.set("virt.platform.step_managers_s", secs(step_managers_ns));
    log.exit(pass);

    let open = log.enter("micro.spectrum.analyser");
    let (us, dft_ops) = ops.call("analyser micro-loop", || {
        micro::analyser_cost(&train, slice)
    })?;
    log.exit(open);
    v.set("spectrum.analyser.us_per_estimate", us);
    v.set("spectrum.dft.ops_per_estimate", dft_ops);
    Ok(())
}

/// The workload-independent unit costs, plus the index at this
/// workload's node count and policy.
fn micro_pass(log: &mut SpanLog, spec: &ScenarioSpec, slice: f64, v: &mut Values) {
    let pass = log.enter("pass.micro");
    let mut run = |span: &'static str, metric: &'static str, f: &dyn Fn() -> f64| {
        let (value, _) = log.time(span, f);
        v.set(metric, value);
    };
    run(
        "micro.simcore.event_queue",
        "simcore.event_queue.ns_per_op",
        &|| micro::event_queue_ns_per_op(slice),
    );
    run(
        "micro.simcore.metrics",
        "simcore.metrics.ns_per_record",
        &|| micro::metrics_ns_per_record(slice),
    );
    run(
        "micro.sched.reservation_16",
        "sched.reservation.sim_rate_16",
        &|| micro::reservation_sim_rate(16, slice),
    );
    run(
        "micro.sched.reservation_200",
        "sched.reservation.sim_rate_200",
        &|| micro::reservation_sim_rate(200, slice),
    );
    run(
        "micro.sched.supervisor",
        "sched.supervisor.us_per_apply",
        &|| micro::supervisor_us_per_apply(slice),
    );
    run("micro.core.share", "core.share.ns_per_step", &|| {
        micro::share_ns_per_step(slice)
    });
    run(
        "micro.analysis.minbudget",
        "analysis.minbudget.ns_per_call",
        &|| micro::minbudget_ns_per_call(slice),
    );
    run("micro.virt.sched_16vm", "virt.sched.sim_rate_16vm", &|| {
        micro::vm_sim_rate_16(slice)
    });
    run("micro.cluster.index", "cluster.index.ns_per_query", &|| {
        micro::index_ns_per_query(spec.nodes, spec.policy, spec.ulub, slice)
    });
    log.exit(pass);
}

fn body(
    ops: &mut Ops,
    log: &mut SpanLog,
    name: &str,
    smoke: bool,
    seed: u64,
    seconds: f64,
) -> Result<(Values, String), Abort> {
    let built = workloads::build(name, smoke).expect("workload name checked by the caller");
    // Each micro-loop's time slice: a fortieth of the run, within reason.
    let slice = if smoke {
        0.01
    } else {
        (seconds / 40.0).clamp(0.02, 0.25)
    };
    let mut v = Values::default();

    let (reference_csv, wall_t, plan_s, before_1t) = reference(ops, &built, seed, &mut v)?;
    let (traced_planned, plan) = runner_pass(ops, log, &built, seed, &reference_csv, &mut v)?;
    // The untraced 1-thread run brackets the traced one and the base is
    // their mean: successive runs in one process do not cost the same
    // (the allocator's thresholds move, pages come back cold), and a
    // one-sided base read that drift as tracing overhead (+14 % to +67 %
    // on fleet_wide).
    let (_, after_1t) = untraced_1t(ops, &built, seed, &plan)?;
    let planned_1t = (before_1t + after_1t) / 2.0;
    v.set("cluster.runner.run_planned_1t_s", planned_1t);
    v.set(
        "cluster.runner.thread_scaling",
        (plan_s + planned_1t) / wall_t,
    );
    v.set(
        "trace.overhead_pct",
        100.0 * (traced_planned - planned_1t) / planned_1t,
    );

    let mut journal_text = None;
    if built.replicated {
        let pass = log.enter("pass.replica");
        journal_text = Some(replicated_pass(
            ops,
            log,
            &built,
            seed,
            &reference_csv,
            traced_planned,
            &mut v,
        )?);
        log.exit(pass);
    }
    let attributed_s = node_pass(ops, log, &built, seed, &plan, &mut v)?;
    stack_pass(ops, log, &built, &plan, slice, &mut v)?;
    ops.call("micro-loops", || {
        micro_pass(log, &built.spec, slice, &mut v)
    })?;

    let share = attributed_s / traced_planned;
    v.set("trace.attributed_share", share.min(1.0));
    v.set("trace.unattributed_share", (1.0 - share).max(0.0));
    v.set("trace.spans", log.spans().len() as f64);
    let control_s = (planned_1t - attributed_s).max(0.0);
    v.set("cluster.runner.control_s", control_s);
    v.set("cluster.runner.control_share", control_s / planned_1t);

    let fp = sim_fingerprint(&reference_csv, journal_text.as_deref());
    Ok((v, fp))
}

/// Prints self time by span name, largest first.
fn print_self_times(log: &SpanLog) {
    let mut rows: Vec<_> = self_times(log.spans()).into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!("  self time by span name (count, total s, self s):");
    for (name, t) in rows {
        println!(
            "    {name:<36} {:>8} {:>12.6} {:>12.6}",
            t.count,
            secs(t.total_ns),
            secs(t.self_ns)
        );
    }
}

/// Runs workload `name` traced and reports every per-layer metric; the
/// spans go to `trace-<workload>.json` under `out_dir`.
pub fn run(name: &str, smoke: bool, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let mut ops = Ops::default();
    let mut log = SpanLog::new();
    let outcome = body(&mut ops, &mut log, name, smoke, seed, seconds);
    let mut result = RunResult {
        workload: name.to_owned(),
        traced: true,
        seed,
        ops,
        metrics: Vec::new(),
        samples: Vec::new(),
        sim_fingerprint: String::new(),
    };
    if let Ok((values, fp)) = outcome {
        result.metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name)))
            .collect();
        result.sim_fingerprint = fp;
        print_self_times(&log);
        write_out(out_dir, &format!("trace-{name}.json"), &log.to_json(name));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_twin_holds_every_task_of_the_node() {
        let built = workloads::build("node_selftune", true).unwrap();
        let plan = plan_fleet(&built.spec, 42);
        let tasks = per_node_tasks(&built.spec, &plan);
        assert_eq!(tasks[0].len(), 8);
        let horizon = Time::ZERO + Dur::secs(2);
        let mut log = SpanLog::new();
        let mut capture =
            |tasks: &[&NodeTask]| capture_twin(&mut log, tasks, built.spec.sampling, horizon, true);
        let one = capture(&tasks[0][..1]);
        let all = capture(&tasks[0]);
        assert!(one.recorded > 0 && !one.train.is_empty());
        // Seven more tasks, each making system calls of its own.
        assert!(
            all.recorded > 2 * one.recorded,
            "{} events from 8 tasks, {} from 1",
            all.recorded,
            one.recorded
        );
        assert_eq!(all.dropped, 0);
    }
}
