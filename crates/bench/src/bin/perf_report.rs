//! The repo's perf trajectory: benchmarks the simulation hot paths and
//! writes machine-readable `BENCH_kernel.json` / `BENCH_cluster.json`
//! so every PR can prove (or disprove) a speedup against the numbers
//! checked in by the previous one.
//!
//! `before` numbers run the retained fallbacks (binary-heap event queue,
//! string-keyed metrics); `after` numbers run the shipping hot path
//! (timing wheel, interned keys). Entries without a `before` are history
//! rows: one number per PR, compared against the checked-in file.
//! Regenerate with:
//!
//! ```bash
//! cargo run --release --bin perf_report            # full (~1 min)
//! cargo run --release --bin perf_report -- --smoke # CI smoke (~seconds)
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use selftune_apps::PeriodicRt;
use selftune_bench::setups::WindowedFeed;
use selftune_cluster::churn_mem_report;
use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;
use selftune_sched::{EdfScheduler, Place, ReservationScheduler, ServerConfig};
use selftune_simcore::event::EventQueue;
use selftune_simcore::rng::Rng;
use selftune_simcore::task::{Action, Script};
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::{Kernel, Metrics};
use selftune_virt::{GuestSched, VirtScheduler};

/// One before/after measurement.
struct Entry {
    name: String,
    metric: &'static str,
    before: Option<f64>,
    after: f64,
    note: Option<&'static str>,
}

impl Entry {
    fn json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "    {{\"name\": {:?}, \"metric\": {:?}",
            self.name, self.metric
        )
        .unwrap();
        if let Some(b) = self.before {
            // Higher-is-better metrics invert the ratio so "speedup" is
            // always ≥ 1.0 when `after` wins.
            let speedup = if self.metric.ends_with("per_op")
                || self.metric == "wall_seconds"
                || self.metric == "bytes_per_task"
            {
                b / self.after
            } else {
                self.after / b
            };
            write!(
                s,
                ", \"before\": {b:.4}, \"after\": {:.4}, \"speedup\": {speedup:.2}",
                self.after
            )
            .unwrap();
        } else {
            write!(s, ", \"value\": {:.4}", self.after).unwrap();
        }
        if let Some(n) = self.note {
            write!(s, ", \"note\": {n:?}").unwrap();
        }
        s.push('}');
        s
    }
}

fn write_report(path: &Path, report: &str, smoke: bool, entries: &[Entry], extra: &str) {
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"report\": {report:?},").unwrap();
    writeln!(
        s,
        "  \"generated_by\": \"cargo run --release --bin perf_report\","
    )
    .unwrap();
    writeln!(s, "  \"smoke\": {smoke},").unwrap();
    writeln!(s, "  \"entries\": [").unwrap();
    let body: Vec<String> = entries.iter().map(Entry::json).collect();
    writeln!(s, "{}", body.join(",\n")).unwrap();
    write!(s, "  ]").unwrap();
    if !extra.is_empty() {
        write!(s, ",\n{extra}").unwrap();
    }
    writeln!(s, "\n}}").unwrap();
    std::fs::write(path, &s).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("[wrote {}]", path.display());
}

/// Median of per-op nanoseconds over `samples` runs of `iters` ops each.
fn median_ns_per_op(samples: usize, iters: u64, mut op_batch: impl FnMut(u64)) -> f64 {
    // One warm-up batch, then measured samples.
    op_batch(iters);
    let mut out: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            op_batch(iters);
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    out[out.len() / 2]
}

/// The dense-timer event loop: `depth` pending timers; each op pops the
/// earliest and re-arms it a pseudo-random stride ahead — the steady
/// state of a timer-saturated discrete-event engine.
fn event_loop_ns_per_op(heap: bool, depth: u64, samples: usize, iters: u64) -> f64 {
    let mut q: EventQueue<u64> = if heap {
        EventQueue::heap_fallback()
    } else {
        EventQueue::new()
    };
    for i in 0..depth {
        q.push(Time::from_ns(1_000 + i * 7_919 % 1_000_000), i);
    }
    let mut stride = 1u64;
    median_ns_per_op(samples, iters, move |n| {
        for _ in 0..n {
            let (t, p) = q.pop().expect("queue never drains");
            stride = stride
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(t + Dur::ns(1 + (stride >> 33) % 2_000_000), p);
        }
    })
}

/// Marking throughput through the string API vs. an interned key.
fn metrics_mark_ns_per_op(interned: bool, samples: usize, iters: u64) -> f64 {
    let mut m = Metrics::new();
    // A realistically sized key space (a fleet node's worth of labels).
    let names: Vec<String> = (0..64).map(|i| format!("t{i:04}.frame")).collect();
    let keys: Vec<_> = names.iter().map(|n| m.key(n)).collect();
    let mut i = 0usize;
    median_ns_per_op(samples, iters, move |n| {
        for j in 0..n {
            let at = Time::from_ns(j);
            if interned {
                m.record_k(keys[i], at, 0.5);
            } else {
                m.record(&names[i], at, 0.5);
            }
            i = (i + 1) % names.len();
        }
        m.clear();
    })
}

/// Simulated seconds per wall second for a kernel full of periodic RT
/// tasks under the reservation scheduler (the single-node hot loop).
/// `heap` selects the pre-wheel event queue; `scan` selects the pre-cache
/// full-scan dispatcher.
fn kernel_sim_rate(heap: bool, scan: bool, tasks: usize, sim: Dur, samples: usize) -> f64 {
    let run = || {
        let mut kernel = Kernel::new(ReservationScheduler::new());
        if heap {
            kernel.use_heap_event_queue();
        }
        if scan {
            kernel.sched_mut().use_scan_dispatch();
        }
        let mut rng = Rng::new(7);
        for i in 0..tasks {
            let period = Dur::ms(5 + (i as u64 % 7) * 3);
            let wcet = period.mul_f64(0.6 / tasks as f64).max(Dur::us(50));
            let sid = kernel
                .sched_mut()
                .create_server(ServerConfig::new(wcet, period));
            let w = PeriodicRt::new("t", wcet, period, 0.05, rng.fork());
            let tid = kernel.spawn("t", Box::new(w));
            kernel.sched_mut().place(tid, Place::Server(sid));
        }
        let start = Instant::now();
        kernel.run_for(sim);
        sim.as_secs_f64() / start.elapsed().as_secs_f64()
    };
    let mut rates: Vec<f64> = (0..samples).map(|_| run()).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("NaN rate"));
    rates[rates.len() / 2]
}

/// Simulated seconds per wall second for a *VM-hosting* kernel: `vms`
/// virtual platforms (EDF guests, two periodic tasks each) under the
/// two-level scheduler. With any VM present every pick takes the
/// `pick_with` nested-dispatch path; `scan` disables the host's cached
/// EDF order (and winner/timer caches), reproducing the
/// rescan-every-iteration behaviour this PR's nested dispatch caching
/// replaced.
fn vm_kernel_sim_rate(scan: bool, vms: usize, sim: Dur, samples: usize) -> f64 {
    let run = || {
        let mut kernel = Kernel::new(VirtScheduler::new());
        if scan {
            kernel.sched_mut().host_mut().use_scan_dispatch();
        }
        let mut rng = Rng::new(7);
        let share = 0.85 / vms as f64;
        for v in 0..vms {
            let vm = kernel.sched_mut().create_vm(
                ServerConfig::new(Dur::ms(10).mul_f64(share), Dur::ms(10)),
                GuestSched::Edf(EdfScheduler::new()),
            );
            for g in 0..2usize {
                let period = Dur::ms(5 + ((v * 2 + g) as u64 % 7) * 3);
                let wcet = period.mul_f64(0.3 * share).max(Dur::us(20));
                let w = PeriodicRt::new("t", wcet, period, 0.05, rng.fork());
                let tid = kernel.spawn("t", Box::new(w));
                kernel.sched_mut().assign(tid, vm);
                if let GuestSched::Edf(e) = kernel.sched_mut().guest_mut(vm) {
                    e.set_relative_deadline(tid, period);
                }
            }
        }
        let start = Instant::now();
        kernel.run_for(sim);
        sim.as_secs_f64() / start.elapsed().as_secs_f64()
    };
    let mut rates: Vec<f64> = (0..samples).map(|_| run()).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("NaN rate"));
    rates[rates.len() / 2]
}

/// Simulated seconds per wall second for a timer-only kernel: `tasks`
/// sleepers re-arming staggered timers — the dense-timer event loop seen
/// end to end through the engine.
fn sleeper_sim_rate(heap: bool, tasks: usize, sim: Dur, samples: usize) -> f64 {
    let run = || {
        let mut kernel = Kernel::new(ReservationScheduler::new());
        if heap {
            kernel.use_heap_event_queue();
        }
        for i in 0..tasks {
            let gap = Dur::us(500 + (i as u64 * 37) % 1_500);
            let script =
                Script::forever(vec![Action::Compute(Dur::ns(200)), Action::SleepFor(gap)]);
            kernel.spawn("sleeper", Box::new(script));
        }
        let start = Instant::now();
        kernel.run_for(sim);
        sim.as_secs_f64() / start.elapsed().as_secs_f64()
    };
    let mut rates: Vec<f64> = (0..samples).map(|_| run()).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("NaN rate"));
    rates[rates.len() / 2]
}

fn kernel_report(out: &Path, smoke: bool) {
    let mut entries = Vec::new();
    let (samples, iters) = if smoke { (3, 50_000) } else { (9, 1_000_000) };
    let depths: &[u64] = if smoke {
        &[64, 4096]
    } else {
        &[64, 1024, 8192, 65536]
    };
    for &depth in depths {
        let after = event_loop_ns_per_op(false, depth, samples, iters);
        let before = event_loop_ns_per_op(true, depth, samples, iters);
        println!(
            "event_loop/dense_timers/{depth}: wheel {after:.1} ns/op, heap {before:.1} ns/op ({:.2}x)",
            before / after
        );
        entries.push(Entry {
            name: format!("event_loop/dense_timers/{depth}"),
            metric: "ns_per_op",
            before: Some(before),
            after,
            note: None,
        });
    }

    let after = metrics_mark_ns_per_op(true, samples, iters);
    let before = metrics_mark_ns_per_op(false, samples, iters);
    println!(
        "metrics/record: interned {after:.1} ns/op, string {before:.1} ns/op ({:.2}x)",
        before / after
    );
    entries.push(Entry {
        name: "metrics/record".to_owned(),
        metric: "ns_per_op",
        before: Some(before),
        after,
        note: None,
    });

    let (sim, ksamples) = if smoke {
        (Dur::ms(200), 3)
    } else {
        (Dur::secs(1), 5)
    };
    for &tasks in &[16usize, 64] {
        let after = kernel_sim_rate(false, false, tasks, sim, ksamples);
        let before = kernel_sim_rate(true, false, tasks, sim, ksamples);
        println!(
            "kernel/periodic_rt/{tasks}: wheel {after:.0} sim-s/s, heap {before:.0} sim-s/s ({:.2}x)",
            after / before
        );
        entries.push(Entry {
            name: format!("kernel/periodic_rt_tasks/{tasks}"),
            metric: "sim_seconds_per_wall_second",
            before: Some(before),
            after,
            note: None,
        });
    }

    // The scheduler-bound hot path (PR-2's residual bottleneck): cached
    // EDF/timer dispatch vs the full per-iteration rescan, wheel queue in
    // both runs so only the dispatcher differs.
    for &tasks in &[16usize, 64] {
        let after = kernel_sim_rate(false, false, tasks, sim, ksamples);
        let before = kernel_sim_rate(false, true, tasks, sim, ksamples);
        println!(
            "kernel/sched_dispatch/{tasks}: cached {after:.0} sim-s/s, scan {before:.0} sim-s/s ({:.2}x)",
            after / before
        );
        entries.push(Entry {
            name: format!("kernel/sched_dispatch/{tasks}"),
            metric: "sim_seconds_per_wall_second",
            before: Some(before),
            after,
            note: Some(
                "before = full EDF/timer rescan per kernel iteration, after = cached dispatch",
            ),
        });
    }
    // The VM-hosting node (PR 4's residual bottleneck): any VM forces the
    // nested pick_with path, which used to rebuild and sort the host EDF
    // order on every kernel iteration. After: order cached across
    // unchanged states, stacked timer cached by dispatch epoch.
    for &vms in &[4usize, 16] {
        let after = vm_kernel_sim_rate(false, vms, sim, ksamples);
        let before = vm_kernel_sim_rate(true, vms, sim, ksamples);
        println!(
            "kernel/vm_sched_dispatch/{vms}: cached {after:.0} sim-s/s, scan {before:.0} sim-s/s ({:.2}x)",
            after / before
        );
        entries.push(Entry {
            name: format!("kernel/vm_sched_dispatch/{vms}"),
            metric: "sim_seconds_per_wall_second",
            before: Some(before),
            after,
            note: Some(
                "before = nested EDF order rebuilt+sorted per pick, after = epoch-cached order and stacked timer",
            ),
        });
    }
    let sleepers = if smoke { 256 } else { 2048 };
    let after = sleeper_sim_rate(false, sleepers, sim, ksamples);
    let before = sleeper_sim_rate(true, sleepers, sim, ksamples);
    println!(
        "kernel/sleepers/{sleepers}: wheel {after:.1} sim-s/s, heap {before:.1} sim-s/s ({:.2}x)",
        after / before
    );
    entries.push(Entry {
        name: format!("kernel/dense_sleepers/{sleepers}"),
        metric: "sim_seconds_per_wall_second",
        before: Some(before),
        after,
        note: None,
    });

    // The manager's spectrum feed (PR 13): history rows, not a toggled
    // path — the one-at-a-time evaluator survives only as a test oracle.
    // One op is one complex exponentiation (Equation (3)): a feed of n
    // events into a full window is 2n window operations × 821 bins.
    let feed_iters = if smoke { 20 } else { 400 };
    for (per_batch, note) in [
        (
            2usize,
            "W = 1 tail only; parent ad2bf66 measured 2.7 ns/op on this machine",
        ),
        (
            16,
            "four full blocks; parent ad2bf66 measured 2.7 ns/op on this machine",
        ),
        (
            256,
            "64 full blocks; parent ad2bf66 measured 2.7 ns/op on this machine",
        ),
    ] {
        let mut feed = WindowedFeed::new(per_batch);
        let before = feed.ops();
        feed.feed_next();
        let ops_per_feed = (feed.ops() - before) as f64;
        let ns = median_ns_per_op(samples, feed_iters, |n| {
            for _ in 0..n {
                feed.feed_next();
            }
        }) / ops_per_feed;
        println!(
            "spectrum/windowed_feed/{per_batch}: {ns:.2} ns/op ({ops_per_feed:.0} ops per feed)"
        );
        entries.push(Entry {
            name: format!("spectrum/windowed_feed/{per_batch}"),
            metric: "ns_per_op",
            before: None,
            after: ns,
            note: Some(note),
        });
    }

    write_report(
        &out.join("BENCH_kernel.json"),
        "kernel",
        smoke,
        &entries,
        "",
    );
}

fn cluster_report(out: &Path, smoke: bool) {
    let (nodes, tasks, horizon) = if smoke {
        (4, 12, Dur::ms(500))
    } else {
        (8, 32, Dur::ms(1500))
    };
    let spec = ScenarioSpec::new("perf", nodes, tasks, horizon).with_mix(TaskMix::rt_only());
    let sim_total = horizon.as_secs_f64() * nodes as f64;
    let mut entries = Vec::new();

    for threads in [1usize, 2, 8] {
        let runner = ClusterRunner::new(threads);
        runner.run(&spec, 42); // warm-up
        let start = Instant::now();
        runner.run(&spec, 42);
        let wall = start.elapsed().as_secs_f64();
        println!(
            "cluster/run_nodes/threads={threads}: {:.1} sim-s/s ({:.0} ms wall)",
            sim_total / wall,
            wall * 1e3
        );
        entries.push(Entry {
            name: format!("cluster/run_nodes/threads={threads}"),
            metric: "sim_seconds_per_wall_second",
            before: None,
            after: sim_total / wall,
            note: None,
        });
    }

    // Work distribution on a placement-skewed fleet (the benchmark's
    // `fleet_dense` shape): first-fit packs the whole load onto the first
    // few nodes and a liar wave later drains them onto the empty ones, so
    // how the nodes are dealt to the two workers decides the wall clock.
    let (sk_nodes, sk_tasks, sk_horizon) = if smoke {
        (128, 4_000, Dur::ms(250))
    } else {
        (250, 50_000, Dur::ms(750))
    };
    let skewed = ScenarioSpec::milliontask_demo(sk_nodes, sk_tasks, sk_horizon)
        .with_rebalance(ScenarioSpec::milliontask_rebalance(sk_horizon));
    let runner = ClusterRunner::new(2).with_sketch_aggregates(true);
    runner.run(&skewed, 42); // warm-up
    let start = Instant::now();
    runner.run(&skewed, 42);
    let skewed_wall = start.elapsed().as_secs_f64();
    println!(
        "cluster/distribution/skewed_firstfit: {:.0} ms at 2 threads",
        skewed_wall * 1e3
    );
    entries.push(Entry {
        name: "cluster/distribution/skewed_firstfit".to_owned(),
        metric: "wall_seconds",
        before: None,
        after: skewed_wall,
        note: Some(
            "history row (full size): 250 nodes, 50k tasks first-fit onto 29 of \
             them, liar drain, sketch aggregates, seed 42, 2 threads on a 2-vCPU \
             sandbox, warm second call. The same call in a fresh process is \
             benchmark/run.sh's fleet_dense run_wall_s: parent a6c3593 (blind \
             31-id chunks) 3.07 s, PR 14 (plan-weighted deal, unlocked barrier \
             phases) 2.01 s, medians of ten alternating pairs",
        ),
    });

    // Following a shipped stream (the benchmark's `control_replicated`
    // shape): the composed diurnal plane on 200 ms epochs, checkpointed
    // every 4, fed frame by frame to a follower whose live mirror runs on
    // 2 threads. One pinned run, whatever the stream's length or cadence.
    let (fl_nodes, fl_tasks) = if smoke { (12, 72) } else { (400, 2_400) };
    let mut diurnal = ScenarioSpec::diurnal_demo(fl_nodes, fl_tasks)
        .with_node_share(ScenarioSpec::diurnal_node_share())
        .with_rebalance(RebalanceSpec {
            period: Dur::ms(200),
            max_moves: 64,
            ..ScenarioSpec::diurnal_rebalance()
        });
    for vm in &mut diurnal.vms {
        vm.elastic = true;
    }
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, &diurnal, 42, 2, Some(4));
    let shipped = ClusterRunner::new(2).run_logged_with(&diurnal, 42, &mut shipper);
    let frames: Vec<Vec<u8>> = std::iter::from_fn(|| rx.recv()).collect();
    let start = Instant::now();
    let mut follower = Follower::new(2);
    for frame in &frames {
        follower.feed(frame).expect("clean stream");
    }
    let follow_wall = start.elapsed().as_secs_f64();
    assert_eq!(
        follower.finale().expect("finished").summary_csv(),
        shipped.summary_csv()
    );
    println!(
        "distrib/follow/diurnal{fl_nodes}: {:.0} ms at 2 threads ({} frames, {} checkpoints)",
        follow_wall * 1e3,
        frames.len(),
        follower.stats().checkpoints
    );
    entries.push(Entry {
        name: format!("distrib/follow/diurnal{fl_nodes}"),
        metric: "wall_seconds",
        before: None,
        after: follow_wall,
        note: Some(
            "history row (full size): 400-node composed diurnal plane, 29 epochs \
             of 200 ms, checkpoint every 4 (40 frames, 7 checkpoints), seed 42, \
             follower mirror on 2 threads on a 2-vCPU sandbox, stream already \
             shipped. The same feed loop in a fresh process is benchmark/run.sh's \
             control_replicated follow_wall_s: parent 8f5d33a (prefix re-simulated \
             from t = 0 at every checkpoint and at Finish) 5.28 s, PR 15 (one live \
             mirror) 1.30 s, medians of ten alternating pairs",
        ),
    });

    // The megafleet axis (PR 7): 10k nodes, worst-fit — every placement
    // query must rank the whole fleet, so the bucketed headroom index
    // (after) vs the linear scan (before) is the dominant cost. Sketch
    // aggregates on in both runs; the sim itself is kept short and
    // healthy so the placer is what's being measured.
    let (mf_tasks, mf_horizon) = if smoke {
        (2_000, Dur::ms(300))
    } else {
        (10_000, Dur::ms(300))
    };
    let mf_nodes = 10_000usize;
    let mf_spec = ScenarioSpec::new("megafleet-place", mf_nodes, mf_tasks, mf_horizon)
        .with_mix(TaskMix::rt_only())
        .with_policy(PolicyKind::WorstFit);
    let mf_sim = mf_horizon.as_secs_f64() * mf_nodes as f64;
    let mf_time = |scan: bool| {
        let mut runner = ClusterRunner::new(2).with_sketch_aggregates(true);
        if scan {
            runner = runner.with_scan_placement(true);
        }
        let start = Instant::now();
        let fleet = runner.run(&mf_spec, 42);
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(fleet.nodes.len(), mf_nodes);
        mf_sim / wall
    };
    let mf_after = mf_time(false);
    let mf_before = mf_time(true);
    println!(
        "cluster/megafleet/nodes={mf_nodes}: index {mf_after:.0} sim-s/s, scan {mf_before:.0} sim-s/s ({:.2}x)",
        mf_after / mf_before
    );
    entries.push(Entry {
        name: format!("cluster/megafleet/nodes={mf_nodes}"),
        metric: "sim_seconds_per_wall_second",
        before: Some(mf_before),
        after: mf_after,
        note: Some(
            "before = linear-scan placement over all 10k nodes per query, after = \
             bucketed headroom index; worst-fit fleet with sketch aggregates on",
        ),
    });

    // Determinism: byte-identical aggregates under an even (2), an uneven
    // (3) and a one-node-per-worker (8) deal.
    let baseline = ClusterRunner::new(1).run(&spec, 7).summary_csv();
    let identical = [2usize, 3, 8]
        .iter()
        .all(|&t| ClusterRunner::new(t).run(&spec, 7).summary_csv() == baseline);
    println!("cluster/determinism (1/2/3/8 threads): identical={identical}");
    assert!(identical, "the node deal broke aggregate determinism");
    let extra =
        format!("  \"determinism\": {{\"threads\": [1, 2, 3, 8], \"identical\": {identical}}}");

    // Everything so far goes to disk before the 1M-task entries start: on
    // a 16 GB box they are what gets OOM-killed, and a kill should cost
    // their rows only. The report is rewritten in full once they are in.
    let write = |entries: &[Entry]| {
        let path = out.join("BENCH_cluster.json");
        write_report(&path, "cluster", smoke, entries, &extra);
    };
    write(&entries);

    // The million-task axis (PR 10): the *task* population pushed to 1M
    // live tasks on 2.5k nodes, with a churning liar wave retiring tens
    // of thousands of tasks mid-flight. Throughput is measured with the
    // arena free-list frozen (before) vs recycling (after) on the same
    // fleet; bytes/task comes from the single-node churn harness, where
    // admissions outnumber peak live tasks ~10x.
    let (mt_tasks, mt_horizon) = if smoke {
        (100_000, Dur::ms(400))
    } else {
        (1_000_000, Dur::ms(500))
    };
    let mt_nodes = 2_500usize;
    let mt_spec = ScenarioSpec::milliontask_demo(mt_nodes, mt_tasks, mt_horizon)
        .with_rebalance(ScenarioSpec::milliontask_rebalance(mt_horizon));
    let mt_time = |recycle: bool| {
        let runner = ClusterRunner::new(2)
            .with_sketch_aggregates(true)
            .with_recycling(recycle);
        let start = Instant::now();
        let fleet = runner.run(&mt_spec, 42);
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(fleet.nodes.len(), mt_nodes);
        mt_tasks as f64 / wall
    };
    let mt_before = mt_time(false);
    let mt_after = mt_time(true);
    println!(
        "cluster/milliontask/tasks_per_sec: frozen arena {mt_before:.0}, recycling \
         {mt_after:.0} ({:.2}x) at {mt_tasks} tasks",
        mt_after / mt_before
    );
    entries.push(Entry {
        name: "cluster/milliontask/tasks_per_sec".to_owned(),
        metric: "tasks_per_sec",
        before: Some(mt_before),
        after: mt_after,
        note: Some(
            "before = arena free-list frozen, after = slot recycling; single-CPU \
             container, so the parallel tree reduction shows up as determinism \
             and fewer merge ops rather than wall clock — a multicore rerun of \
             this entry is owed",
        ),
    });
    let (mw, mp) = if smoke { (8, 500) } else { (12, 2_000) };
    let mem_off = churn_mem_report(mw, mp, false, 42);
    let mem_on = churn_mem_report(mw, mp, true, 42);
    println!(
        "cluster/milliontask/bytes_per_task: frozen {:.1}, recycling {:.1} ({:.2}x) \
         over {} admissions",
        mem_off.bytes_per_task(),
        mem_on.bytes_per_task(),
        mem_off.bytes_per_task() / mem_on.bytes_per_task(),
        mem_off.stats.admitted,
    );
    entries.push(Entry {
        name: "cluster/milliontask/bytes_per_task".to_owned(),
        metric: "bytes_per_task",
        before: Some(mem_off.bytes_per_task()),
        after: mem_on.bytes_per_task(),
        note: Some(
            "churn workload (admissions ~10x peak live): before = frozen arena \
             holding a full slot per admission, after = recycling arena at \
             ~peak-live slots plus lean retired records",
        ),
    });

    write(&entries);
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(it.next().expect("--out needs a value")),
            other => panic!("unknown argument {other:?} (try --smoke/--out)"),
        }
    }
    std::fs::create_dir_all(&out).expect("create output dir");
    kernel_report(&out, smoke);
    cluster_report(&out, smoke);
}
