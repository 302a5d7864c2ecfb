//! Micro-loops over one layer's public functions, each given a short
//! time slice. They put a unit cost next to the pass-level times (how
//! many nanoseconds one event-queue operation, one index query, one
//! analyser estimate costs), so a change to a layer can be seen at the
//! layer before it is looked for end to end.

use std::hint::black_box;
use std::time::Instant;

use selftune_analysis::{min_bandwidth_single, PeriodicTask};
use selftune_cluster::index::{fit_threshold, HeadroomIndex};
use selftune_cluster::{PolicyKind, TaskKind};
use selftune_core::share::{DemandSignal, ShareController, ShareControllerConfig};
use selftune_distrib::Frame;
use selftune_sched::{
    BwRequest, EdfScheduler, Place, ReservationScheduler, ServerConfig, Supervisor,
};
use selftune_simcore::event::EventQueue;
use selftune_simcore::rng::Rng;
use selftune_simcore::task::Workload;
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::{Kernel, Metrics};
use selftune_spectrum::{AnalyserConfig, PeriodAnalyser, WindowedDft};
use selftune_virt::{GuestSched, VirtScheduler};

use crate::stats::median;

/// A synthetic periodic real-time workload, through the fleet crate's
/// `TaskKind` (the same constructor every simulated node uses).
fn periodic_task(wcet: Dur, period: Dur, rng: Rng) -> Box<dyn Workload> {
    TaskKind::PeriodicRt { wcet, period }.instantiate("t", rng)
}

/// Calls `batch(iters)` once to warm up, then repeatedly until `slice`
/// seconds have passed (at least three times), and returns the median
/// nanoseconds per operation.
fn ns_per_op(slice: f64, iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(iters);
    let mut samples = Vec::new();
    let window = Instant::now();
    while samples.len() < 3 || window.elapsed().as_secs_f64() < slice {
        let t0 = Instant::now();
        batch(iters);
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    median(&samples)
}

/// Simulated seconds per wall second of `run`, which advances a kernel
/// by the chunk it is handed.
fn sim_rate(slice: f64, mut run: impl FnMut(Dur)) -> f64 {
    let chunk = Dur::ms(100);
    let ns = ns_per_op(slice, 1, |_| run(chunk));
    chunk.as_secs_f64() / (ns / 1e9)
}

/// One step of the 64-bit LCG the loops draw their pseudo-random inputs
/// from (no `Rng`: the draw must cost nothing next to the measured call).
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// Pop the earliest of 4 096 pending timers and re-arm it a
/// pseudo-random stride ahead: the steady state of a timer-saturated
/// discrete-event engine.
pub fn event_queue_ns_per_op(slice: f64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4096u64 {
        q.push(Time::from_ns(1_000 + i * 7_919 % 1_000_000), i);
    }
    let mut stride = 1u64;
    ns_per_op(slice, 100_000, move |n| {
        for _ in 0..n {
            let (t, p) = q.pop().expect("queue never drains");
            q.push(t + Dur::ns(1 + (lcg(&mut stride) >> 33) % 2_000_000), p);
        }
    })
}

/// One interned-key series record over a node's worth of labels.
pub fn metrics_ns_per_record(slice: f64) -> f64 {
    let mut m = Metrics::new();
    let keys: Vec<_> = (0..64).map(|i| m.key(&format!("t{i:04}.frame"))).collect();
    ns_per_op(slice, 100_000, move |n| {
        for j in 0..n {
            m.record_k(keys[j as usize % keys.len()], Time::from_ns(j), 0.5);
        }
        m.clear();
    })
}

/// Simulated seconds per wall second of a kernel holding `tasks` reserved
/// periodic tasks — dispatch and the event loop, no tracer, no manager.
pub fn reservation_sim_rate(tasks: usize, slice: f64) -> f64 {
    let mut kernel = Kernel::new(ReservationScheduler::new());
    let mut rng = Rng::new(7);
    for i in 0..tasks {
        let period = Dur::ms(5 + (i as u64 % 7) * 3);
        let wcet = period.mul_f64(0.6 / tasks as f64).max(Dur::us(50));
        let sid = kernel
            .sched_mut()
            .create_server(ServerConfig::new(wcet, period));
        let tid = kernel.spawn("t", periodic_task(wcet, period, rng.fork()));
        kernel.sched_mut().place(tid, Place::Server(sid));
    }
    sim_rate(slice, |chunk| kernel.run_for(chunk))
}

/// Simulated seconds per wall second of a kernel hosting 16 virtual
/// platforms (EDF guests, two periodic tasks each): every pick takes the
/// nested two-level dispatch path.
pub fn vm_sim_rate_16(slice: f64) -> f64 {
    const VMS: usize = 16;
    let mut kernel = Kernel::new(VirtScheduler::new());
    let mut rng = Rng::new(7);
    let share = 0.85 / VMS as f64;
    for v in 0..VMS {
        let vm = kernel.sched_mut().create_vm(
            ServerConfig::new(Dur::ms(10).mul_f64(share), Dur::ms(10)),
            GuestSched::Edf(EdfScheduler::new()),
        );
        for g in 0..2usize {
            let period = Dur::ms(5 + ((v * 2 + g) as u64 % 7) * 3);
            let wcet = period.mul_f64(0.3 * share).max(Dur::us(20));
            let tid = kernel.spawn("t", periodic_task(wcet, period, rng.fork()));
            kernel.sched_mut().assign(tid, vm);
            if let GuestSched::Edf(e) = kernel.sched_mut().guest_mut(vm) {
                e.set_relative_deadline(tid, period);
            }
        }
    }
    sim_rate(slice, |chunk| kernel.run_for(chunk))
}

/// One `Supervisor::apply` over 200 requests that together ask for twice
/// the bound, so every grant is compressed. Microseconds per call.
pub fn supervisor_us_per_apply(slice: f64) -> f64 {
    const SERVERS: u64 = 200;
    let mut sched = ReservationScheduler::new();
    let period = Dur::ms(40);
    let reqs: Vec<BwRequest> = (0..SERVERS)
        .map(|_| BwRequest {
            server: sched.create_server(ServerConfig::new(Dur::us(20), period)),
            // 200 x 360 us / 40 ms = 1.8: twice the 0.9 bound.
            budget: Dur::us(360),
            period,
        })
        .collect();
    let sup = Supervisor::new(0.9);
    ns_per_op(slice, 20, |n| {
        for _ in 0..n {
            black_box(sup.apply(&mut sched, black_box(&reqs)));
        }
    }) / 1e3
}

/// `(µs per feed + estimate, exact DFT operations per estimate)` of the
/// period analyser over one captured event train (entry-edge times of a
/// traced task, seconds), fed in 500 ms batches the way the manager
/// feeds it.
pub fn analyser_cost(train: &[f64], slice: f64) -> (f64, f64) {
    if train.is_empty() {
        return (0.0, 0.0);
    }
    let cfg = AnalyserConfig::default();
    let batches: Vec<&[f64]> = train
        .chunk_by(|a, b| (a / 0.5).floor() == (b / 0.5).floor())
        .collect();
    let mut dft = WindowedDft::new(cfg.spectrum, cfg.horizon.0);
    for &t in train {
        dft.push(t);
    }
    // `ops` counts since construction: incremental pushes over the whole
    // train, amortised over one estimate per batch.
    let ops_per_estimate = dft.ops() as f64 / batches.len() as f64;
    let ns = ns_per_op(slice, batches.len() as u64, |_| {
        let mut analyser = PeriodAnalyser::new(cfg);
        for batch in &batches {
            analyser.feed(batch);
            black_box(analyser.estimate());
        }
    });
    (ns / 1e3, ops_per_estimate)
}

/// One `ShareController::step` over a demand signal that wanders around
/// the granted share (both hysteresis outcomes occur).
pub fn share_ns_per_step(slice: f64) -> f64 {
    let mut ctl = ShareController::new(ShareControllerConfig::default());
    let mut x = 1u64;
    ns_per_op(slice, 100_000, move |n| {
        for _ in 0..n {
            let x = lcg(&mut x);
            let u = (x >> 40) as f64 / (1u64 << 24) as f64;
            black_box(ctl.step(&DemandSignal {
                consumed_bw: 0.2 + 0.5 * u,
                booked_bw: 0.3 + 0.4 * u,
                granted_bw: 0.5,
                compressions: x >> 63,
            }));
        }
    })
}

/// One minimum-bandwidth schedulability test — what every admission and
/// every migration booking calls.
pub fn minbudget_ns_per_call(slice: f64) -> f64 {
    ns_per_op(slice, 50_000, |n| {
        for i in 0..n {
            let period = 20.0 + (i % 16) as f64 * 13.0;
            black_box(min_bandwidth_single(
                black_box(PeriodicTask::new(0.2 + (i % 5) as f64 * 0.4, period)),
                period,
            ));
        }
    })
}

/// One placement-shaped index operation at the workload's node count and
/// policy: the policy's query (first-fit descent, worst-fit minimum,
/// tightest fit) followed by the booking update of the chosen node.
pub fn index_ns_per_query(nodes: usize, policy: PolicyKind, ulub: f64, slice: f64) -> f64 {
    let reserved: Vec<f64> = (0..nodes).map(|n| (n % 97) as f64 * 0.009).collect();
    let mut index = HeadroomIndex::new(&reserved);
    let mut booked = reserved;
    let demand = 0.06;
    let threshold = fit_threshold(ulub, demand).expect("demand fits an empty node");
    ns_per_op(slice, 20_000, move |n| {
        for _ in 0..n {
            let pick = match policy {
                PolicyKind::FirstFit => index.first_fit(threshold),
                PolicyKind::WorstFit => index.min_reserved().map(|(_, node)| node),
                PolicyKind::BandwidthAware => index.tightest_fit(threshold).map(|(_, node)| node),
            };
            let node = pick.unwrap_or(0);
            // Book, and drain a node that filled up so the fleet never
            // saturates and the query keeps finding candidates.
            booked[node] = if booked[node] + demand > ulub {
                0.0
            } else {
                booked[node] + demand
            };
            index.set(node, booked[node]);
        }
    })
}

/// `(encode, decode)` nanoseconds per payload byte of one replication
/// frame, CRC included.
pub fn frame_ns_per_byte(frame: &Frame, slice: f64) -> (f64, f64) {
    let bytes = frame.payload.len().max(1) as f64;
    let chunk = frame.encode();
    let enc = ns_per_op(slice, 8, |n| {
        for _ in 0..n {
            black_box(black_box(frame).encode());
        }
    });
    let dec = ns_per_op(slice, 8, |n| {
        for _ in 0..n {
            black_box(Frame::decode(black_box(&chunk)).expect("own encoding decodes"));
        }
    });
    (enc / bytes, dec / bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_distrib::FrameKind;

    /// Every loop runs, terminates on a tiny slice and returns a positive
    /// finite figure (the driver refuses NaN and the tables refuse 0).
    #[test]
    fn every_loop_returns_a_positive_finite_number() {
        let slice = 0.002;
        let train = selftune_spectrum::synthetic_burst_train(0.04, 100, 12, 0.002);
        let (us, ops) = analyser_cost(&train, slice);
        let frame = Frame {
            seq: 3,
            kind: FrameKind::Records,
            payload: "epoch = 1\n".repeat(500),
        };
        let (enc, dec) = frame_ns_per_byte(&frame, slice);
        for (name, v) in [
            ("event_queue", event_queue_ns_per_op(slice)),
            ("metrics", metrics_ns_per_record(slice)),
            ("reservation_16", reservation_sim_rate(16, slice)),
            ("vm_16", vm_sim_rate_16(slice)),
            ("supervisor", supervisor_us_per_apply(slice)),
            ("analyser_us", us),
            ("dft_ops", ops),
            ("share", share_ns_per_step(slice)),
            ("minbudget", minbudget_ns_per_call(slice)),
            (
                "index_first",
                index_ns_per_query(250, PolicyKind::FirstFit, 0.9, slice),
            ),
            (
                "index_worst",
                index_ns_per_query(1000, PolicyKind::WorstFit, 0.9, slice),
            ),
            (
                "index_tight",
                index_ns_per_query(64, PolicyKind::BandwidthAware, 0.9, slice),
            ),
            ("frame_enc", enc),
            ("frame_dec", dec),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
        assert_eq!(analyser_cost(&[], slice), (0.0, 0.0));
    }
}
