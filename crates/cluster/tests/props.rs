//! Property-based tests for the fleet subsystem.
//!
//! Three families:
//!
//! * **Determinism** — the same `(spec, seed)` must produce byte-identical
//!   aggregate CSV whether the fleet runs on 1 thread or several, with
//!   and without the feedback rebalancer (whose epoch barriers and
//!   migrations must not observe the thread count). These run whole
//!   (small) fleet simulations, so the case count is reduced. Two fixed
//!   fleets ride along: a skewed first-fit one whose plan-weighted deal
//!   is far from even, and a checkpointing one. On random fleets, every
//!   checkpoint's interim equals the pinned run stopped at its cursor.
//! * **Placer invariants** — the placer must never book a node beyond the
//!   utilisation bound, must only admit tasks the minbudget analysis can
//!   schedule, must reject only when no node had room, and live
//!   migrations must respect the destination's admission bound.
//! * **Scenario text I/O** — `to_text`/`from_text` round-trip exactly.

use proptest::prelude::*;
use selftune_analysis::{min_bandwidth_single, PeriodicTask};
use selftune_cluster::prelude::*;
use selftune_cluster::{Node, NodeSketches, NodeTask, NodeTotals, StreamSketch, TaskReport};
use selftune_simcore::rng::Rng;
use selftune_simcore::stats::quantile_sorted;
use selftune_simcore::time::{Dur, Time};

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::FirstFit),
        Just(PolicyKind::WorstFit),
        Just(PolicyKind::BandwidthAware),
    ]
}

fn kind_strategy() -> impl Strategy<Value = TaskKind> {
    prop_oneof![
        Just(TaskKind::Video25),
        Just(TaskKind::Mp3),
        Just(TaskKind::Stream30),
        (1u64..8, 20u64..200).prop_map(|(c, p)| TaskKind::PeriodicRt {
            wcet: Dur::ms(c),
            period: Dur::ms(p),
        }),
        (1u64..4, 4u64..12, 20u64..200).prop_map(|(n, c, p)| TaskKind::HungryRt {
            nominal_wcet: Dur::ms(n),
            wcet: Dur::ms(c),
            period: Dur::ms(p),
        }),
        (5u64..50, 1u64..5, 1u32..4).prop_map(|(g, w, b)| TaskKind::Aperiodic {
            mean_gap: Dur::ms(g),
            mean_work: Dur::ms(w),
            burst: b,
        }),
    ]
}

/// A fleet whose nominal demand lies (tasks claim 2 ms, burn 6 ms) and is
/// densely packed by first-fit — the configuration that makes the
/// feedback rebalancer actually migrate.
fn rebalance_spec(nodes: usize, tasks: usize, pressure: f64, max_moves: u32) -> ScenarioSpec {
    ScenarioSpec::new("prop-rebalance", nodes, tasks, Dur::ms(3_000))
        .with_mix(TaskMix::new(vec![(
            TaskKind::HungryRt {
                nominal_wcet: Dur::ms(2),
                wcet: Dur::ms(6),
                period: Dur::ms(40),
            },
            1.0,
        )]))
        .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(80) })
        .with_policy(PolicyKind::FirstFit)
        .with_ulub(0.9)
        .with_rebalance(RebalanceSpec {
            enabled: true,
            period: Dur::ms(600),
            pressure,
            max_moves,
            ..RebalanceSpec::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fleet_aggregates_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        nodes in 2usize..5,
        tasks in 6usize..16,
        threads in 2usize..5,
    ) {
        let spec = ScenarioSpec::new("prop-determinism", nodes, tasks, Dur::ms(1200))
            .with_mix(TaskMix::rt_only())
            .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(50) });
        let serial = ClusterRunner::new(1).run(&spec, seed);
        let parallel = ClusterRunner::new(threads).run(&spec, seed);
        prop_assert_eq!(serial.summary_csv(), parallel.summary_csv());
    }

    #[test]
    fn churn_and_overload_stay_deterministic(
        seed in 0u64..1_000_000,
        threads in 2usize..4,
    ) {
        let spec = ScenarioSpec::new("prop-churn", 3, 10, Dur::ms(1500))
            .with_mix(TaskMix::rt_only())
            .with_arrivals(ArrivalSchedule::Poisson { mean_gap: Dur::ms(40) })
            .with_churn(Churn {
                mean_lifetime: Dur::ms(600),
                min_lifetime: Dur::ms(150),
            })
            .with_overload(OverloadWindow {
                start: Dur::ms(400),
                end: Dur::ms(900),
                hogs_per_node: 1,
                chunk: Dur::ms(5),
                nodes: NodeFilter::All,
            });
        let serial = ClusterRunner::new(1).run(&spec, seed);
        let parallel = ClusterRunner::new(threads).run(&spec, seed);
        prop_assert_eq!(serial.summary_csv(), parallel.summary_csv());
    }

    #[test]
    fn rebalanced_runs_are_byte_identical_at_1_2_and_8_threads(
        seed in 0u64..1_000_000,
        nodes in 3usize..5,
        tasks in 8usize..13,
        pressure in 0.1f64..0.4,
        max_moves in 2u32..5,
    ) {
        let spec = rebalance_spec(nodes, tasks, pressure, max_moves);
        // The epoch barriers and the migration decisions must not observe
        // how the nodes were dealt: even, uneven (3) or one per worker.
        let baseline = ClusterRunner::new(1).run(&spec, seed);
        for threads in [2usize, 3, 8] {
            let m = ClusterRunner::new(threads).run(&spec, seed);
            prop_assert_eq!(baseline.summary_csv(), m.summary_csv(), "{} threads", threads);
        }
    }

    #[test]
    fn vm_fleets_with_ewma_and_warm_start_are_thread_count_invariant(
        seed in 0u64..1_000_000,
        alpha_pct in 30u64..101,
        guests in 1usize..3,
        warm in any::<bool>(),
    ) {
        // A fleet mixing flat tasks and whole virtual platforms, with the
        // EWMA hysteresis and warm hand-over active: the epoch barriers,
        // the smoothed pressure fold and VM migrations must all be
        // invariant in the worker-thread count.
        let spec = rebalance_spec(4, 6, 0.2, 4)
            .with_vm(VmSpec::uniform(
                Dur::ms(3),
                Dur::ms(10),
                guests,
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(4),
                    period: Dur::ms(40),
                },
            ))
            .with_vm(VmSpec::uniform(
                Dur::ms(2),
                Dur::ms(10),
                1,
                TaskKind::HungryRt {
                    nominal_wcet: Dur::ms(1),
                    wcet: Dur::ms(4),
                    period: Dur::ms(40),
                },
            ))
            .with_rebalance(RebalanceSpec {
                enabled: true,
                period: Dur::ms(600),
                pressure: 0.2,
                max_moves: 4,
                ewma_alpha: alpha_pct as f64 / 100.0,
                warm_start: warm,
            });
        let baseline = ClusterRunner::new(1).run(&spec, seed);
        prop_assert!(baseline.admission.vms_admitted >= 1);
        for threads in [2usize, 3, 8] {
            let m = ClusterRunner::new(threads).run(&spec, seed);
            prop_assert_eq!(baseline.summary_csv(), m.summary_csv(), "{} threads", threads);
        }
    }

    #[test]
    fn elastic_vm_fleets_are_thread_count_invariant(
        seed in 0u64..1_000_000,
        guests in 1usize..3,
        hungry_wcet in 3u64..8,
        warm in any::<bool>(),
    ) {
        // Elastic VMs close the host-level loop *inside* each node while
        // the rebalancer runs the fleet-level loop around them: the
        // controller's re-grants, the granted-share feedback and the
        // elastic-VM eviction exemption must all stay invariant in the
        // worker-thread count.
        let spec = rebalance_spec(4, 6, 0.2, 4)
            .with_vm(
                VmSpec::uniform(
                    Dur::ms(3),
                    Dur::ms(10),
                    guests,
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(4),
                        period: Dur::ms(40),
                    },
                )
                .with_elastic(),
            )
            .with_vm(
                VmSpec::uniform(
                    Dur::ms(2),
                    Dur::ms(10),
                    1,
                    TaskKind::HungryRt {
                        nominal_wcet: Dur::ms(1),
                        wcet: Dur::ms(hungry_wcet),
                        period: Dur::ms(40),
                    },
                )
                .with_elastic(),
            )
            .with_rebalance(RebalanceSpec {
                enabled: true,
                period: Dur::ms(600),
                pressure: 0.2,
                max_moves: 4,
                ewma_alpha: 0.6,
                warm_start: warm,
            });
        let baseline = ClusterRunner::new(1).run(&spec, seed);
        prop_assert!(baseline.admission.vms_admitted >= 1);
        // Elastic VMs are never rebalance victims.
        prop_assert!(baseline.rebalance.records.iter().all(|r| !r.vm));
        for threads in [2usize, 3, 8] {
            let m = ClusterRunner::new(threads).run(&spec, seed);
            prop_assert_eq!(baseline.summary_csv(), m.summary_csv(), "{} threads", threads);
        }
    }

    #[test]
    fn sketch_mode_keeps_exact_counters_on_random_fleets(
        seed in 0u64..1_000_000,
        nodes in 2usize..6,
        tasks in 6usize..14,
        threads in 1usize..4,
    ) {
        // Sketch aggregates trade CDF resolution, never counts: the
        // fleet-level counters of a sketch run must equal the detailed
        // run's exactly, the per-node rows must be byte-identical, and
        // the per-task vectors must actually be gone.
        let spec = rebalance_spec(nodes, tasks, 0.2, 4);
        let detailed = ClusterRunner::new(threads).run(&spec, seed);
        let sketched = ClusterRunner::new(threads)
            .with_sketch_aggregates(true)
            .run(&spec, seed);
        prop_assert_eq!(detailed.completions(), sketched.completions());
        prop_assert_eq!(detailed.misses(), sketched.misses());
        prop_assert_eq!(detailed.rebalance.moves, sketched.rebalance.moves);
        prop_assert!((detailed.miss_ratio() - sketched.miss_ratio()).abs() < 1e-12);
        prop_assert_eq!(detailed.node_rows(), sketched.node_rows());
        prop_assert!(sketched.nodes.iter().all(|n| n.tasks.is_empty()));
    }

    #[test]
    fn node_share_fleets_are_thread_invariant_and_bound_respecting(
        seed in 0u64..1_000_000,
        floor_pct in 40u64..70,
        tasks in 8usize..13,
    ) {
        // The full composed plane — elastic VMs inside each node, node
        // re-bounding from fleet feedback, the rebalancer around both —
        // must stay byte-identical in the worker-thread count (events and
        // summary), and every re-bound decision must stay inside the
        // configured [floor, cap] with the node's granted bandwidth never
        // exceeding the bound that was in force when the snapshot was
        // taken (the supervisor recompresses the moment a bound drops).
        let floor = floor_pct as f64 / 100.0;
        let spec = rebalance_spec(4, tasks, 0.2, 4)
            .with_vm(
                VmSpec::uniform(
                    Dur::ms(3),
                    Dur::ms(10),
                    2,
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(4),
                        period: Dur::ms(40),
                    },
                )
                .with_elastic(),
            )
            .with_node_share(NodeShareSpec { enabled: true, floor, cap: 0.95 });
        let (baseline, events) = ClusterRunner::new(1).run_logged(&spec, seed);
        for e in &events {
            if let FleetEvent::NodeRebound { prev, bound, reserved, .. } = e {
                prop_assert!(
                    *bound >= floor - 1e-9 && *bound <= 0.95 + 1e-9,
                    "bound {} outside [{}, 0.95]", bound, floor
                );
                // 1e-6 slack: proportional recompression sums rounded
                // per-VM grants, so the total can sit a few ulps high.
                prop_assert!(
                    *reserved <= *prev + 1e-6,
                    "granted {} over the bound {} in force", reserved, prev
                );
            }
        }
        for threads in [2usize, 3, 8] {
            let (m, ev) = ClusterRunner::new(threads).run_logged(&spec, seed);
            prop_assert_eq!(baseline.summary_csv(), m.summary_csv(), "{} threads", threads);
            prop_assert_eq!(&events, &ev, "{} threads", threads);
        }
    }

    #[test]
    fn a_pinned_run_stopped_at_a_cursor_equals_the_live_interim_there(
        seed in 0u64..1_000_000,
        nodes in 3usize..5,
        tasks in 6usize..10,
        (with_vm, churn, phase) in (any::<bool>(), any::<bool>(), any::<bool>()),
        (rebalance, node_share) in (any::<bool>(), any::<bool>()),
    ) {
        // Every checkpoint a logged run emits — at cadence 1, so every
        // boundary that has an interim — is byte-for-byte what a pinned
        // re-execution stopped at that cursor reduces, whatever the fleet
        // is made of, whichever control loops run and however many
        // threads either side uses. It is what lets a checkpoint file be
        // verified from t = 0 and a follower's mirror be checked in flight.
        let mut spec = rebalance_spec(nodes, tasks, 0.2, 4)
            .with_node_share(NodeShareSpec { enabled: node_share, floor: 0.5, cap: 0.95 });
        spec.rebalance.enabled = rebalance;
        if with_vm {
            let guest = TaskKind::PeriodicRt { wcet: Dur::ms(4), period: Dur::ms(40) };
            spec = spec.with_vm(VmSpec::uniform(Dur::ms(3), Dur::ms(10), 2, guest).with_elastic());
        }
        if churn {
            spec = spec.with_churn(Churn {
                mean_lifetime: Dur::ms(900),
                min_lifetime: Dur::ms(200),
            });
        }
        if phase {
            spec = spec.with_phase(TrafficPhase {
                start: Dur::ms(700),
                end: Dur::ms(2_000),
                ramp: Dur::ms(300),
                tasks: 3,
                mix: TaskMix::rt_only(),
                nodes: NodeFilter::All,
            });
        }
        let mut probe = CheckpointProbe::every(1);
        let live = ClusterRunner::new(2).run_logged_with(&spec, seed, &mut probe);
        let boundaries = ClusterRunner::epoch_ends(&spec).len();
        prop_assert_eq!(boundaries, if rebalance || node_share { 5 } else { 1 });
        let cursors: Vec<usize> = probe.interims.iter().map(|(c, _)| *c).collect();
        prop_assert_eq!(cursors, (1..boundaries - 1).collect::<Vec<_>>());

        sort_events(&mut probe.events);
        let placements = PinnedPlan::from_events(&spec, live.admission, &probe.events);
        let plan = plan_fleet_pinned(&spec, seed, &placements);
        let moves = PinnedMoves::from_events(&spec, &probe.events, None);
        for (cursor, interim) in &probe.interims {
            for threads in [1usize, 2, 3, 8] {
                let stopped = ClusterRunner::new(threads)
                    .run_pinned(&spec, seed, &plan, &moves, Some(*cursor))
                    .expect("a pin table never stops the run");
                prop_assert_eq!(
                    &stopped.summary_csv(), interim,
                    "cursor {} at {} threads", cursor, threads
                );
            }
        }
    }

    #[test]
    fn migrations_respect_destination_admission_invariant(
        seed in 0u64..1_000_000,
        tasks in 10usize..14,
    ) {
        // A pressure threshold low enough that the packed node drains.
        let spec = rebalance_spec(4, tasks, 0.15, 4);
        let m = ClusterRunner::new(2).run(&spec, seed);
        prop_assert!(m.rebalance.epochs > 0);
        for r in &m.rebalance.records {
            // The booked demand is at least the nominal minbudget demand
            // (the admission floor the initial placement would have used)…
            let nominal = PeriodicTask::new(2.0, 40.0);
            let floor = min_bandwidth_single(nominal, nominal.period) * spec.headroom;
            prop_assert!(r.demand >= floor - 1e-9, "booked {} under floor {}", r.demand, floor);
            // …and the destination's booked bandwidth never exceeds the
            // per-node utilisation bound.
            prop_assert!(
                r.dest_reserved_after <= spec.ulub + 1e-9,
                "node {} overbooked: {}",
                r.to,
                r.dest_reserved_after
            );
            prop_assert!(r.from != r.to);
            prop_assert!(r.to < spec.nodes);
        }
    }

    #[test]
    fn slot_recycling_never_resurrects_a_departed_task(
        seed in 0u64..1_000_000,
        waves in prop::collection::vec(
            prop::collection::vec((1u64..4, 50u64..90, any::<bool>()), 1..4),
            2..5,
        ),
    ) {
        // Churned arenas recycle retired slots; a recycled slot must
        // never bring its previous occupant back. Departed fleet ids
        // stay out of every later feedback snapshot, extraction finds
        // nothing to move, and the final report holds each admitted id
        // exactly once. Recycling itself must be unobservable: a twin
        // node with the free-list disabled emits the identical bytes.
        let spec = ScenarioSpec::new("prop-recycle", 1, 0, Dur::secs(10));
        let mut node = Node::new(0, &spec);
        let mut frozen = Node::new(0, &spec);
        frozen.set_recycle(false);
        let wave_ms = 400u64;
        let (mut admitted, mut departed) = (Vec::new(), Vec::new());
        let (mut free, mut recycled) = (0usize, 0usize);
        let mut now = Time::ZERO;
        for (w, tasks) in waves.iter().enumerate() {
            let start = Time::ZERO + Dur::ms(w as u64 * wave_ms);
            for &(wcet, period, departs) in tasks {
                let fleet_id = admitted.len();
                let plan = NodeTask {
                    fleet_id,
                    label: format!("t{fleet_id:03}"),
                    kind: TaskKind::PeriodicRt {
                        wcet: Dur::ms(wcet),
                        period: Dur::ms(period),
                    },
                    // A lease expires at the task's next activation, so a
                    // departure needs at least a period of slack before
                    // the wave boundary to have actually retired by then.
                    arrival: start,
                    departure: departs.then(|| start + Dur::ms(100)),
                    seed: seed ^ fleet_id as u64,
                    migrated: false,
                    warm: None,
                };
                node.add_task(plan.clone());
                frozen.add_task(plan);
                if free > 0 {
                    free -= 1;
                    recycled += 1;
                }
                admitted.push(fleet_id);
                if departs {
                    departed.push(fleet_id);
                }
            }
            now = start + Dur::ms(wave_ms);
            node.run_to_horizon(now);
            frozen.run_to_horizon(now);
            let fb = node.feedback(now);
            frozen.feedback(now);
            for lr in &fb.live_rt {
                prop_assert!(
                    !departed.contains(&lr.fleet_id),
                    "departed task {} resurfaced in live_rt", lr.fleet_id
                );
            }
            // Slots freed by this wave's departures become reusable only
            // after the retirement scan, i.e. for the *next* wave.
            free += tasks.iter().filter(|t| t.2).count();
        }
        // Slot audit: every recycled admission consumed a freed slot,
        // while the frozen twin's arena grew monotonically.
        prop_assert_eq!(node.mem_stats().slots, admitted.len() - recycled);
        prop_assert_eq!(frozen.mem_stats().slots, admitted.len());
        // Each admitted id reports exactly once, recycled slot or not,
        // and the free-list is invisible in the aggregate bytes.
        let a = AggregateMetrics::new("prop-recycle", seed, AdmissionStats::default(),
            vec![node.report_mode(now, true)]);
        let b = AggregateMetrics::new("prop-recycle", seed, AdmissionStats::default(),
            vec![frozen.report_mode(now, true)]);
        let mut ids: Vec<u32> = a.nodes[0].tasks.iter().map(|t| t.fleet_id).collect();
        prop_assert_eq!(ids.len(), admitted.len());
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), admitted.len());
        prop_assert_eq!(a.summary_csv(), b.summary_csv());
        // A departed id is gone for good: extraction cannot revive it.
        for &d in &departed {
            prop_assert!(node.extract_task(d).is_none(), "extracted departed task {}", d);
        }
    }
}

/// The benchmark's `fleet_dense` smoke shape: first-fit packs a handful of
/// the 128 nodes deep and the liar wave drains them onto the empty ones,
/// so the plan-weighted deal is far from even and every barrier phase
/// (feedback publish, node reports, migration apply) has work on more
/// than one worker. None of it may observe the thread count.
#[test]
fn skewed_first_fit_fleet_is_byte_identical_at_1_2_3_and_8_threads() {
    let horizon = Dur::ms(250);
    let spec = ScenarioSpec::milliontask_demo(128, 4_000, horizon)
        .with_rebalance(ScenarioSpec::milliontask_rebalance(horizon));
    let runner = |threads| ClusterRunner::new(threads).with_sketch_aggregates(true);
    let (baseline, events) = runner(1).run_logged(&spec, 42);
    assert!(baseline.rebalance.moves > 0, "the drain must migrate");
    for threads in [2usize, 3, 8] {
        let (m, ev) = runner(threads).run_logged(&spec, 42);
        assert_eq!(baseline.summary_csv(), m.summary_csv(), "{threads} threads");
        assert!(events == ev, "event stream at {threads} threads");
    }
}

/// Records every interim aggregate a checkpointing run hands its sink,
/// and the decision stream around them.
struct CheckpointProbe {
    every: usize,
    interims: Vec<(usize, String)>,
    events: Vec<FleetEvent>,
}

impl CheckpointProbe {
    fn every(every: usize) -> CheckpointProbe {
        CheckpointProbe {
            every,
            interims: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl JournalSink for CheckpointProbe {
    fn checkpoint_interval(&self) -> Option<usize> {
        Some(self.every)
    }

    fn on_plan(&mut self, _admission: &AdmissionStats, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }

    fn on_checkpoint(&mut self, cursor: usize, _at: Time, interim: &AggregateMetrics) {
        self.interims.push((cursor, interim.summary_csv()));
    }

    fn on_epoch(&mut self, _epoch: usize, _at: Time, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }
}

/// The interim reports are computed by every worker outside any lock and
/// reduced by whichever thread leads the barrier: the bytes a sink
/// receives must not depend on either.
#[test]
fn checkpoint_interims_are_byte_identical_at_1_2_and_3_threads() {
    let mut spec = ScenarioSpec::diurnal_demo(12, 72)
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
        .with_node_share(ScenarioSpec::diurnal_node_share());
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    let interims = |threads| {
        let mut sink = CheckpointProbe::every(2);
        ClusterRunner::new(threads).run_logged_with(&spec, 42, &mut sink);
        sink.interims
    };
    let baseline = interims(1);
    assert!(
        baseline.len() >= 3,
        "the diurnal grid checkpoints repeatedly"
    );
    for threads in [2usize, 3] {
        assert!(
            baseline == interims(threads),
            "interims at {threads} threads"
        );
    }
}

/// The oracle for the fleet reduction, test-local: the accumulator
/// seeded from the first sketch-bearing node, every later one merged in
/// turn, in the order given.
fn node_order_fold(nodes: &[NodeReport]) -> Option<NodeSketches> {
    let mut serial: Option<NodeSketches> = None;
    for k in nodes.iter().filter_map(|n| n.sketches.as_ref()) {
        match serial.as_mut() {
            None => serial = Some(k.clone()),
            Some(acc) => acc.merge(k),
        }
    }
    serial
}

proptest! {
    #[test]
    fn placer_never_admits_unschedulable_or_overbooks(
        tasks in prop::collection::vec((1u64..40, 40u64..200), 1..40),
        nodes in 1usize..8,
        ulub_pct in 50u64..101,
        headroom_pct in 100u64..151,
        policy in policy_strategy(),
    ) {
        let ulub = ulub_pct as f64 / 100.0;
        let headroom = headroom_pct as f64 / 100.0;
        let mut placer = Placer::new(nodes, ulub, headroom, policy);
        for (i, &(c, p)) in tasks.iter().enumerate() {
            let wcet = (c as f64).min(p as f64);
            let task = PeriodicTask::new(wcet, p as f64);
            let outcome = placer.place(task, i as u64, None);
            let demand = (min_bandwidth_single(task, task.period) * headroom).min(1.0);
            match outcome {
                PlacementOutcome::Admitted { node, demand: booked, .. } => {
                    // Booked exactly the analysis-backed demand.
                    prop_assert!((booked - demand).abs() < 1e-12);
                    prop_assert!(node < nodes);
                    // A task whose minimum schedulable bandwidth exceeds
                    // the bound must never be admitted.
                    prop_assert!(demand <= ulub + 1e-9, "admitted demand {demand} over ulub {ulub}");
                }
                PlacementOutcome::Rejected { best_spare, .. } => {
                    // Rejection witness: nothing had room.
                    prop_assert!(demand > best_spare + 1e-12);
                }
            }
            // The bound holds on every node after every decision.
            for &r in placer.reserved() {
                prop_assert!(r <= ulub + 1e-9, "node over bound: {r} > {ulub}");
            }
        }
    }

    #[test]
    fn candidate_order_is_a_permutation(
        reserved in prop::collection::vec(0.0f64..1.0, 1..12),
        policy in policy_strategy(),
    ) {
        let order = policy.candidate_order(&reserved);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..reserved.len()).collect::<Vec<_>>());
        if policy == PolicyKind::WorstFit {
            for w in order.windows(2) {
                prop_assert!(reserved[w[0]] <= reserved[w[1]] + 1e-12);
            }
        }
        if policy == PolicyKind::BandwidthAware {
            for w in order.windows(2) {
                prop_assert!(reserved[w[0]] >= reserved[w[1]] - 1e-12);
            }
        }
    }

    #[test]
    fn scenario_text_io_round_trips(
        (nodes, tasks, horizon_ms, policy) in (1usize..9, 0usize..40, 200u64..8_000, policy_strategy()),
        mix in prop::collection::vec((kind_strategy(), 1u64..9), 1..4),
        (arrival_kind, gap_us) in (0u32..3, 1_000u64..100_000),
        churn in prop_oneof![
            Just(None),
            (300u64..2_000, 50u64..200).prop_map(|(mean, min)| Some(Churn {
                mean_lifetime: Dur::ms(mean),
                min_lifetime: Dur::ms(min),
            })),
        ],
        overload in prop::collection::vec(
            (1u64..2_000, 1u32..5, 1u64..20, 0u32..3),
            0..3,
        ),
        (rb_on, rb_period, rb_pressure_pct, rb_moves) in
            (any::<bool>(), 100u64..2_000, 0u64..60, 1u32..8),
        vms in prop::collection::vec(
            (1u64..9, 1usize..4, kind_strategy(), any::<bool>()),
            0..3,
        ),
        (ns_on, ns_floor_pct, ns_cap_pct) in (any::<bool>(), 30u64..70, 70u64..101),
        phases in prop::collection::vec(
            (1u64..3_000, 100u64..2_000, 0u32..101, 1usize..9, kind_strategy(), 0u32..3),
            0..3,
        ),
    ) {
        let mut spec = ScenarioSpec::new("prop-textio", nodes, tasks, Dur::ms(horizon_ms))
            .with_mix(TaskMix::new(
                mix.into_iter().map(|(k, w)| (k, w as f64)).collect(),
            ))
            .with_policy(policy)
            .with_arrivals(match arrival_kind {
                0 => ArrivalSchedule::AllAtStart,
                1 => ArrivalSchedule::Staggered { gap: Dur::us(gap_us) },
                _ => ArrivalSchedule::Poisson { mean_gap: Dur::us(gap_us) },
            })
            .with_rebalance(RebalanceSpec {
                enabled: rb_on,
                period: Dur::ms(rb_period),
                pressure: rb_pressure_pct as f64 / 100.0,
                max_moves: rb_moves,
                ewma_alpha: (rb_pressure_pct.max(10) as f64 / 100.0).min(1.0),
                warm_start: rb_on,
            });
        if let Some(c) = churn {
            spec = spec.with_churn(c);
        }
        for (budget_ms, guests, kind, elastic) in vms {
            let mut vm = VmSpec::uniform(Dur::ms(budget_ms), Dur::ms(10), guests, kind);
            if elastic {
                vm = vm.with_elastic();
            }
            spec = spec.with_vm(vm);
        }
        spec = spec.with_node_share(NodeShareSpec {
            enabled: ns_on,
            floor: ns_floor_pct as f64 / 100.0,
            cap: ns_cap_pct as f64 / 100.0,
        });
        for (start, window, ramp_pct, count, kind, filter) in phases {
            spec = spec.with_phase(TrafficPhase {
                start: Dur::ms(start),
                end: Dur::ms(start + window),
                ramp: Dur::ms(window * u64::from(ramp_pct) / 100),
                tasks: count,
                mix: TaskMix::new(vec![(kind, 1.0)]),
                nodes: match filter {
                    0 => NodeFilter::All,
                    1 => NodeFilter::First(count),
                    _ => NodeFilter::Stride(2),
                },
            });
        }
        for (start, hogs, chunk, filter) in overload {
            spec = spec.with_overload(OverloadWindow {
                start: Dur::ms(start),
                end: Dur::ms(start + 500),
                hogs_per_node: hogs,
                chunk: Dur::ms(chunk),
                nodes: match filter {
                    0 => NodeFilter::All,
                    1 => NodeFilter::First(hogs as usize),
                    _ => NodeFilter::Stride(2),
                },
            });
        }

        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        // The canonical form is a fixed point of the round trip.
        prop_assert_eq!(parsed.to_text(), text);
        prop_assert_eq!(parsed.nodes, spec.nodes);
        prop_assert_eq!(parsed.tasks, spec.tasks);
        prop_assert_eq!(parsed.horizon, spec.horizon);
        prop_assert_eq!(parsed.policy, spec.policy);
        prop_assert_eq!(parsed.overload.len(), spec.overload.len());
        prop_assert_eq!(parsed.rebalance.enabled, spec.rebalance.enabled);
        prop_assert_eq!(parsed.rebalance.period, spec.rebalance.period);
        prop_assert_eq!(parsed.mix.entries(), spec.mix.entries());
        prop_assert_eq!(&parsed.vms, &spec.vms);
        prop_assert_eq!(parsed.node_share, spec.node_share);
        prop_assert_eq!(&parsed.phases, &spec.phases);
        prop_assert_eq!(parsed.flat_tasks(), spec.flat_tasks());
    }

    #[test]
    fn sketch_quantiles_track_the_exact_path_to_bin_resolution(
        values in prop::collection::vec(0.0f64..19.9, 1..200),
        q_pct in 0u32..101,
    ) {
        // The sketch quantile must stay inside the recorded range and land
        // within half a bin of the exact nearest-rank value; against the
        // interpolating `quantile_sorted` the extra slack is the gap
        // between the two straddling order statistics.
        let q = f64::from(q_pct) / 100.0;
        let mut sketch = StreamSketch::for_gap_norm(); // 0.01-wide bins
        for &v in &values {
            sketch.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let approx = sketch.quantile(q).expect("non-empty sketch");
        prop_assert!(
            approx >= sorted[0] - 1e-12 && approx <= sorted[sorted.len() - 1] + 1e-12,
            "quantile {} left the data range [{}, {}]",
            approx, sorted[0], sorted[sorted.len() - 1]
        );
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        prop_assert!(
            (approx - sorted[rank]).abs() <= 0.005 + 1e-9,
            "q={}: sketch {} vs nearest-rank {}", q, approx, sorted[rank]
        );
        let exact = quantile_sorted(&sorted, q);
        let idx = q * (sorted.len() - 1) as f64;
        let gap = sorted[idx.ceil() as usize] - sorted[idx.floor() as usize];
        prop_assert!(
            (approx - exact).abs() <= 0.005 + gap + 1e-9,
            "q={}: sketch {} vs exact {} (gap {})", q, approx, exact, gap
        );
    }

    #[test]
    fn released_bandwidth_is_reusable(
        demands in prop::collection::vec(5u64..40, 1..20),
        nodes in 1usize..4,
    ) {
        // Every task departs before the next arrives: nothing accumulates,
        // so every task with feasible demand must be admitted.
        let ulub = 0.9;
        let mut placer = Placer::new(nodes, ulub, 1.0, PolicyKind::FirstFit);
        for (i, &c) in demands.iter().enumerate() {
            let now = (i as u64) * 1_000;
            let task = PeriodicTask::new(c as f64, 100.0);
            let outcome = placer.place(task, now, Some(now + 500));
            match outcome {
                PlacementOutcome::Admitted { .. } => {}
                PlacementOutcome::Rejected { demand, .. } => {
                    prop_assert!(demand > ulub + 1e-9, "spuriously rejected {demand}");
                }
            }
        }
    }

    #[test]
    fn tree_reduction_matches_the_serial_fold_byte_for_byte(
        seed in 0u64..1_000_000,
        contents in prop::collection::vec(
            prop_oneof![
                Just(None),
                prop::collection::vec((0.0f64..3.0, 0u8..4), 0..24).prop_map(Some),
            ],
            1..13,
        ),
        (ga, gk) in (1usize..5, 1usize..4),
    ) {
        // The reduction the fleet runs at each boundary: the leader gets
        // the reports grouped by worker (worker k owns the nodes i with
        // i * ga % gk == k) and concatenated in worker order. For any
        // node count and any interleaving of sketch-less (detailed) and
        // sketch-bearing nodes, the aggregate must equal the serial
        // node-id-order fold on every sketch family — bins, counts,
        // min/max AND the order-sensitive float sum — and summarise
        // byte for byte like the same reports passed in node order.
        let nodes: Vec<NodeReport> = contents.iter().enumerate().map(|(i, c)| match c {
            None => NodeReport::from_tasks(i, Vec::new(), 0.1, 0.1, 0),
            Some(vals) => {
                let mut sk = NodeSketches::new();
                for &(v, fam) in vals {
                    match fam {
                        0 => sk.gaps.record(v),
                        1 => sk.post_migration.record(v),
                        2 => sk.attach.record(v * 50.0),
                        _ => sk.vm_attach.record(v * 50.0),
                    }
                }
                NodeReport::from_sketches(i, NodeTotals::default(), sk, 0.1, 0.1, 0)
            }
        }).collect();
        let serial = node_order_fold(&nodes);
        let grouped: Vec<NodeReport> = (0..gk)
            .flat_map(|k| nodes.iter().enumerate().filter(move |(i, _)| (i * ga) % gk == k))
            .map(|(_, n)| n.clone())
            .collect();
        prop_assert_eq!(grouped.len(), nodes.len());
        let agg = AggregateMetrics::new("prop-tree", seed, AdmissionStats::default(), grouped);
        prop_assert_eq!(agg.merged().is_some(), serial.is_some());
        if let (Some(m), Some(s)) = (agg.merged(), &serial) {
            prop_assert_eq!(&m.gaps, &s.gaps);
            prop_assert_eq!(&m.post_migration, &s.post_migration);
            prop_assert_eq!(&m.attach, &s.attach);
            prop_assert_eq!(&m.vm_attach, &s.vm_attach);
        }
        let in_order = AggregateMetrics::new("prop-tree", seed, AdmissionStats::default(), nodes);
        prop_assert_eq!(agg.summary_csv(), in_order.summary_csv());
    }

    #[test]
    fn aggregate_is_the_node_order_fold_in_any_input_order(
        seed in 0u64..1_000_000,
        contents in prop::collection::vec(
            (
                any::<bool>(),
                prop::collection::vec(
                    (prop_oneof![Just(0.0), 0.0f64..3.0, 0.0f64..3.0], 0u8..4),
                    0..24,
                ),
            ),
            1..13,
        ),
        fleet in 0u8..8,
    ) {
        // Detailed and sketch-bearing nodes mixed (one fleet in eight all
        // detailed), sketch nodes with no records, records of exactly 0.0
        // (a warm start's attach delay), and the reports handed over in a
        // random permutation: the aggregate must be the serial node-id-
        // order fold on every sketch family — bins, counts, min/max AND
        // the order-sensitive float sum — and summarise byte for byte
        // like the same reports passed in node order.
        let nodes: Vec<NodeReport> = contents.iter().enumerate().map(|(i, (sketch, vals))| {
            if *sketch && fleet != 0 {
                let mut sk = NodeSketches::new();
                for &(v, fam) in vals {
                    match fam {
                        0 => sk.gaps.record(v),
                        1 => sk.post_migration.record(v),
                        2 => sk.attach.record(v * 50.0),
                        _ => sk.vm_attach.record(v * 50.0),
                    }
                }
                NodeReport::from_sketches(i, NodeTotals::default(), sk, 0.1, 0.1, 0)
            } else {
                let task = TaskReport {
                    fleet_id: i as u32,
                    realtime: true,
                    attached: true,
                    migrated: i % 2 == 1,
                    in_vm: i % 3 == 0,
                    completions: vals.len() as u32,
                    misses: 0,
                    dropped: 0,
                    label: format!("t{i}"),
                    ift_norm: vals.iter().map(|&(v, _)| v).collect(),
                    attach_delay_ms: vals.first().map(|&(v, _)| v * 50.0),
                };
                NodeReport::from_tasks(i, vec![task], 0.1, 0.1, 0)
            }
        }).collect();
        let serial = node_order_fold(&nodes);
        let mut shuffled = nodes.clone();
        Rng::new(seed).shuffle(&mut shuffled);
        let agg = AggregateMetrics::new("prop-fold", seed, AdmissionStats::default(), shuffled);
        prop_assert_eq!(agg.merged().is_some(), serial.is_some());
        if let (Some(m), Some(s)) = (agg.merged(), &serial) {
            prop_assert_eq!(&m.gaps, &s.gaps);
            prop_assert_eq!(&m.post_migration, &s.post_migration);
            prop_assert_eq!(&m.attach, &s.attach);
            prop_assert_eq!(&m.vm_attach, &s.vm_attach);
        }
        let in_order = AggregateMetrics::new("prop-fold", seed, AdmissionStats::default(), nodes);
        prop_assert_eq!(agg.summary_csv(), in_order.summary_csv());
    }
}
