//! The parallel scenario runner: plan → place → execute → reduce.
//!
//! Determinism contract: the fleet plan (task kinds, arrivals, lifetimes,
//! workload seeds) and the placement are computed up front from
//! `(spec, seed)` alone, and every node's simulation depends only on its
//! own slice of the plan and a seed derived from `(seed, node_id)`. Worker
//! threads therefore never race on anything observable: running the same
//! spec and seed on 1 or N threads yields byte-identical aggregates.
//!
//! Scheduling: nodes are dealt to workers once, before the first epoch,
//! by `deal_nodes` — a longest-processing-time deal over the weights
//! the plan already states (a node's planned flat tasks and planned VM
//! guests, plus one). First-fit packs the whole load onto a few low ids;
//! dealing by weight hands every worker its share of those deep nodes,
//! where a blind deal of consecutive ids gave one worker all of them. The
//! empty nodes (weight 1) then level what difference is left and
//! alternate once it is gone. What the plan cannot state — which empty
//! nodes a later drain fills — the deal does not see: nodes are not
//! re-dealt between epochs. The deal is a pure function of the plan and
//! the worker count, and which thread simulates a node affects wall-clock
//! only; reports are reassembled in node-id order.
//!
//! Feedback re-placement: when [`ScenarioSpec::rebalance`] is enabled the
//! run is cut into barrier-synchronised *epochs*. A node stays with the
//! worker it was dealt to for the whole run (its tracer state is
//! `Rc`-shared). At every epoch boundary each worker computes a
//! plain-data [`NodeFeedback`] snapshot per owned node — and, at a
//! checkpoint boundary, an interim report — *outside* any lock, stores
//! the finished values into per-node slots, and parks on a barrier;
//! exactly one thread then takes the snapshots (in node-id order), runs
//! the deterministic rebalance pass and publishes the epoch's orders
//! (migrations and node re-bounds) behind an `Arc`; after a second
//! barrier every worker snapshots that `Arc` and applies the orders to
//! the nodes it owns — extraction on the source, re-admission on the
//! destination — with no lock held, and simulation resumes. A mutex here
//! is only ever held to move a finished value in or out. Both the
//! decisions and their application depend only on `(spec, seed)` and
//! virtual time, so aggregates stay byte-identical at any thread count.
//!
//! Decision journalling and replay: [`ClusterRunner::run_logged`] runs a
//! scenario while emitting the merged, canonically ordered
//! [`FleetEvent`] stream (admissions, kills, share grants, compressions,
//! rebalance passes, migrations) that `selftune-journal` serialises.
//! [`plan_fleet_pinned`] and [`ClusterRunner::run_pinned`] close the
//! loop: they re-execute a scenario with the journal's placements and
//! per-epoch migration decisions substituted for the live ones, so a
//! replay reproduces the recorded aggregates byte-identically — and a
//! what-if replay can pin history up to a cut epoch and let a *swapped*
//! policy decide from there. The decisions reach the barrier leader
//! through one seam, [`PinSource`]: a [`PinnedMoves`] table answers at
//! once, while a replication follower's stream-fed source blocks until
//! the boundary's frame has arrived (pinned / live / stop) and may ask
//! any boundary for the interim aggregates a logged run's checkpoint
//! reports there — the same run, fed incrementally, is the follower's
//! live mirror.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use selftune_analysis::PeriodicTask;
use selftune_core::share::{DemandSignal, ShareController, ShareControllerConfig, ShareDecision};
use selftune_simcore::rng::{splitmix64, Rng};
use selftune_simcore::time::{Dur, Time};

use crate::aggregate::{
    AdmissionStats, AggregateMetrics, MigrationRecord, NodeReport, NodeSketches, RebalanceStats,
};
use crate::events::{sort_events, FleetEvent, JournalSink, NodeSnap};
use crate::node::{Node, NodeFeedback, NodeTask, NodeVm};
use crate::placer::{FeedbackView, LiveTask, LiveVmUnit, Migration, PlacementOutcome, Placer};
use crate::spec::{ArrivalSchedule, ScenarioSpec, TaskKind};

/// Derives the workload seed of fleet task `task_id` from the base seed.
///
/// Stateless in everything but `(base_seed, task_id)`, so the derivation
/// does not depend on planning order or thread schedule.
pub fn derive_task_seed(base_seed: u64, task_id: u64) -> u64 {
    let mut s = base_seed ^ task_id.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(17)
}

/// One planned fleet task with its placement.
#[derive(Clone, Debug)]
pub struct PlannedTask {
    /// The node-local plan (label, kind, arrival, departure, seed).
    pub task: NodeTask,
    /// Node the task was placed on; `None` if admission rejected it.
    pub node: Option<usize>,
    /// Whether it went through reservation admission (vs. best-effort).
    pub realtime: bool,
    /// The admission decision with its inputs (journal material). `None`
    /// for best-effort tasks and for pinned plans, where no live decision
    /// was taken.
    pub outcome: Option<PlacementOutcome>,
}

/// One planned virtual platform with its placement.
#[derive(Clone, Debug)]
pub struct PlannedVm {
    /// The node-local plan (share, guest task plans).
    pub vm: NodeVm,
    /// Node the VM was placed on; `None` if admission rejected it.
    pub node: Option<usize>,
    /// The admission decision with its inputs (journal material); `None`
    /// for pinned plans.
    pub outcome: Option<PlacementOutcome>,
}

/// The fleet plan: every task and VM, their placement, and admission
/// statistics.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    /// All planned tasks, in fleet-id order.
    pub tasks: Vec<PlannedTask>,
    /// All planned virtual platforms, in fleet-VM-id order.
    pub vms: Vec<PlannedVm>,
    /// Admission statistics.
    pub admission: AdmissionStats,
}

/// Recorded placement decisions substituted for the live admission path
/// when re-planning a journalled run (see [`plan_fleet_pinned`]).
#[derive(Clone, Debug, Default)]
pub struct PinnedPlan {
    /// The recorded run's admission statistics, adopted wholesale — the
    /// release-retry counter inside cannot be re-derived from placements
    /// alone.
    pub admission: AdmissionStats,
    /// Destination per fleet task id (`None` = rejected). Only consulted
    /// for real-time tasks; best-effort placement is re-derived (it is a
    /// pure function of the plan walk).
    pub task_nodes: Vec<Option<usize>>,
    /// Destination per fleet VM id (`None` = rejected).
    pub vm_nodes: Vec<Option<usize>>,
}

impl PinnedPlan {
    /// The admission pin table of a logged run: every task's and VM's
    /// recorded destination out of its admission events, plus the recorded
    /// admission statistics.
    pub fn from_events(
        spec: &ScenarioSpec,
        admission: AdmissionStats,
        events: &[FleetEvent],
    ) -> PinnedPlan {
        let mut task_nodes = vec![None; spec.flat_tasks()];
        let mut vm_nodes = vec![None; spec.vms.len()];
        for e in events {
            let (slot, node) = match e {
                FleetEvent::TaskAdmission { fleet_id, node, .. } => {
                    (task_nodes.get_mut(*fleet_id), node)
                }
                FleetEvent::VmAdmission {
                    fleet_vm_id, node, ..
                } => (vm_nodes.get_mut(*fleet_vm_id), node),
                _ => continue,
            };
            if let Some(slot) = slot {
                *slot = *node;
            }
        }
        PinnedPlan {
            admission,
            task_nodes,
            vm_nodes,
        }
    }
}

/// One journalled rebalance epoch: the decisions the leader published.
#[derive(Clone, Debug, Default)]
pub struct EpochDecision {
    /// The migrations, in decision order.
    pub moves: Vec<Migration>,
    /// Victims that found no admissible destination.
    pub failed: u64,
}

/// Per-epoch migration decisions for a pinned re-execution: index `i`
/// pins rebalance epoch `i`. A `None` entry (or an epoch past the end of
/// the vector) is decided *live* — that is the what-if cut point.
#[derive(Clone, Debug, Default)]
pub struct PinnedMoves {
    /// The pinned epochs.
    pub epochs: Vec<Option<EpochDecision>>,
}

impl PinnedMoves {
    /// The per-epoch migration pin table of a logged run, out of its
    /// rebalance and migration events (canonical order, so each epoch's
    /// moves arrive in `seq` order). `up_to_epoch = None` pins every
    /// recorded epoch (exact replay); `Some(cut)` pins epochs `< cut` and
    /// leaves the rest to be decided live (the what-if cut point).
    pub fn from_events(
        spec: &ScenarioSpec,
        events: &[FleetEvent],
        up_to_epoch: Option<usize>,
    ) -> PinnedMoves {
        let recorded = ClusterRunner::epoch_ends(spec).len() - 1;
        let pinned = up_to_epoch.map_or(recorded, |cut| cut.min(recorded));
        let mut epochs: Vec<Option<EpochDecision>> = vec![None; pinned];
        for e in events {
            match e {
                FleetEvent::Rebalance { epoch, failed, .. } => {
                    if let Some(slot) = epochs.get_mut(*epoch) {
                        slot.get_or_insert_with(EpochDecision::default).failed = *failed;
                    }
                }
                FleetEvent::Migration {
                    epoch,
                    fleet_id,
                    vm,
                    from,
                    to,
                    demand,
                    dest_reserved_after,
                    warm,
                    guest_warm,
                    ..
                } => {
                    if let Some(slot) = epochs.get_mut(*epoch) {
                        slot.get_or_insert_with(EpochDecision::default)
                            .moves
                            .push(Migration {
                                fleet_id: *fleet_id,
                                vm: *vm,
                                from: *from,
                                to: *to,
                                demand: *demand,
                                dest_reserved_after: *dest_reserved_after,
                                warm: *warm,
                                guest_warm: guest_warm.clone(),
                            });
                    }
                }
                _ => {}
            }
        }
        PinnedMoves { epochs }
    }
}

/// What a [`PinSource`] tells the barrier leader at one epoch boundary.
#[derive(Clone, Debug)]
pub enum EpochPin {
    /// Apply this recorded decision verbatim.
    Pinned(EpochDecision),
    /// Decide live — the what-if cut, a promoted follower.
    Live,
    /// End the run at this boundary; it produces no aggregates.
    Stop,
}

/// Where a pinned run takes its per-epoch decisions from. A
/// [`PinnedMoves`] table answers at once; a source fed by a replication
/// stream blocks until the boundary's frame has arrived, which is what
/// parks a follower's mirror at the first boundary it has no instruction
/// for.
pub trait PinSource: Sync {
    /// Whether the run reduces interim aggregates at (non-horizon)
    /// boundary `epoch` and hands them to [`PinSource::on_interim`] before
    /// asking for the boundary's [`EpochPin`]. Every worker asks before the
    /// boundary's first barrier, so all callers of one `epoch` must get
    /// the same answer.
    fn wants_interim(&self, epoch: usize) -> bool {
        let _ = epoch;
        false
    }

    /// The interim aggregates at boundary `epoch`: decisions of epochs
    /// `< epoch` applied, the boundary's own not yet — what a logged run
    /// hands [`JournalSink::on_checkpoint`] there.
    fn on_interim(&self, epoch: usize, interim: AggregateMetrics) {
        let _ = (epoch, interim);
    }

    /// The decision at boundary `epoch`; asked once, by the barrier
    /// leader.
    fn pin(&self, epoch: usize) -> EpochPin;
}

impl PinSource for PinnedMoves {
    fn pin(&self, epoch: usize) -> EpochPin {
        match self.epochs.get(epoch) {
            Some(Some(decision)) => EpochPin::Pinned(decision.clone()),
            _ => EpochPin::Live,
        }
    }
}

/// What was drawn for one fleet task before placement. Splitting the
/// draws from the placement walk keeps the planning RNG stream identical
/// between live and pinned planning.
struct TaskDraw {
    arrival: Time,
    kind: TaskKind,
    departure: Option<Time>,
    /// Index of the traffic phase the task belongs to (`None` for the
    /// base population). Phase membership restricts placement to the
    /// phase's node filter.
    phase: Option<usize>,
}

/// Builds the deterministic fleet plan for `(spec, seed)`.
///
/// Arrival times, task kinds and lifetimes are drawn from a planning RNG
/// seeded by `seed`; placement walks tasks in arrival order through the
/// spec's policy.
pub fn plan_fleet(spec: &ScenarioSpec, seed: u64) -> FleetPlan {
    plan_fleet_impl(spec, seed, None, false)
}

/// Builds the fleet plan with every admission decision pinned to a
/// recorded run: the same draws (kinds, arrivals, lifetimes, seeds), the
/// journal's placements instead of the live placer walk. Replaying a
/// journal through this function reproduces the recorded run's node
/// assignment exactly, even under a scenario whose *policy* was swapped
/// for a what-if.
pub fn plan_fleet_pinned(spec: &ScenarioSpec, seed: u64, pinned: &PinnedPlan) -> FleetPlan {
    plan_fleet_impl(spec, seed, Some(pinned), false)
}

fn plan_fleet_impl(
    spec: &ScenarioSpec,
    seed: u64,
    pinned: Option<&PinnedPlan>,
    scan_placement: bool,
) -> FleetPlan {
    let mut rng = Rng::new(seed ^ SEED_PLAN_SALT);
    let mut arrivals: Vec<Time> = Vec::with_capacity(spec.tasks);
    let mut at = Time::ZERO;
    for i in 0..spec.tasks {
        let t = match spec.arrivals {
            ArrivalSchedule::AllAtStart => Time::ZERO,
            ArrivalSchedule::Staggered { gap } => Time::ZERO + gap.mul_f64(i as f64),
            ArrivalSchedule::Poisson { mean_gap } => {
                let gap = Dur::from_secs_f64(rng.exp(1.0 / mean_gap.as_secs_f64().max(1e-12)));
                at += gap;
                at
            }
        };
        arrivals.push(t);
    }

    let horizon = Time::ZERO + spec.horizon;
    // Draw every task's shape before any placement: the stream order
    // (kind, then lifetime, per task) matches the historical interleaved
    // walk because placement itself never consumed planning randomness.
    let mut draws: Vec<TaskDraw> = arrivals
        .iter()
        .map(|&arrival| {
            let kind = spec.mix.sample(&mut rng);
            let departure = spec.churn.map(|c| {
                let life =
                    Dur::from_secs_f64(rng.exp(1.0 / c.mean_lifetime.as_secs_f64().max(1e-12)))
                        .max(c.min_lifetime);
                arrival + life
            });
            // Lifetimes beyond the horizon are open-ended for planning.
            let departure = departure.filter(|&d| d < horizon);
            TaskDraw {
                arrival,
                kind,
                departure,
                phase: None,
            }
        })
        .collect();
    // Traffic-phase tasks extend the flat population (fleet ids
    // `spec.tasks..`), drawn after the base stream so existing plans keep
    // their bytes: arrival `start + ramp · i / tasks`, lease to the phase
    // end.
    for (pi, phase) in spec.phases.iter().enumerate() {
        let start = Time::ZERO + phase.start;
        for j in 0..phase.tasks {
            let arrival = start + phase.ramp.mul_f64(j as f64 / phase.tasks as f64);
            let kind = phase.mix.sample(&mut rng);
            let departure = Some(Time::ZERO + phase.end).filter(|&d| d < horizon);
            draws.push(TaskDraw {
                arrival,
                kind,
                departure,
                phase: Some(pi),
            });
        }
    }

    let mut placer = Placer::new(spec.nodes, spec.ulub, spec.headroom, spec.policy);
    if scan_placement {
        placer.use_scan_placement();
    }
    let mut admission = AdmissionStats::default();

    // Virtual platforms are placed first, as whole units booked at their
    // share: tenants hold their bandwidth from t = 0, and flat tasks fill
    // in around them.
    let mut vms = Vec::with_capacity(spec.vms.len());
    let mut guest_fleet_id = spec.flat_tasks();
    for (i, vm_spec) in spec.vms.iter().enumerate() {
        let (node, outcome) = match pinned {
            Some(p) => (p.vm_nodes.get(i).copied().flatten(), None),
            None => match placer.place_demand(vm_spec.share(), 0, None) {
                o @ PlacementOutcome::Admitted { node, .. } => {
                    admission.vms_admitted += 1;
                    (Some(node), Some(o))
                }
                o @ PlacementOutcome::Rejected { .. } => {
                    admission.vms_rejected += 1;
                    (None, Some(o))
                }
            },
        };
        let label = format!("v{i:02}");
        let guests = vm_spec
            .guest_kinds()
            .enumerate()
            .map(|(g, kind)| {
                let fleet_id = guest_fleet_id;
                guest_fleet_id += 1;
                NodeTask {
                    fleet_id,
                    label: format!("{label}g{g}"),
                    kind: kind.clone(),
                    arrival: Time::ZERO,
                    departure: None,
                    seed: derive_task_seed(seed ^ SEED_VM_SALT, fleet_id as u64),
                    migrated: false,
                    warm: None,
                }
            })
            .collect();
        vms.push(PlannedVm {
            vm: NodeVm {
                fleet_vm_id: i,
                label,
                budget: vm_spec.budget,
                period: vm_spec.period,
                guests,
                arrival: Time::ZERO,
                migrated: false,
                elastic: vm_spec.elastic,
            },
            node,
            outcome,
        });
    }

    // Placement walks the flat population in arrival order (identity for
    // phase-free specs, whose draws are arrival-monotone already), so the
    // placer's release ledger never travels backwards in time when a
    // phase starts before the base stagger finishes.
    let mut order: Vec<usize> = (0..draws.len()).collect();
    if !spec.phases.is_empty() {
        order.sort_by_key(|&i| (draws[i].arrival, i));
    }
    let banned: Vec<Vec<bool>> = spec
        .phases
        .iter()
        .map(|p| (0..spec.nodes).map(|n| !p.nodes.matches(n)).collect())
        .collect();
    let mut slots: Vec<Option<PlannedTask>> = (0..draws.len()).map(|_| None).collect();
    for i in order {
        let draw = &draws[i];
        let label = format!("t{i:04}");
        let task_seed = derive_task_seed(seed, i as u64);
        let (node, realtime, outcome) = match draw.kind.nominal() {
            Some(nominal) => match pinned {
                Some(p) => (p.task_nodes.get(i).copied().flatten(), true, None),
                None => {
                    let outcome = match draw.phase {
                        // Phase traffic targets a node slice: same
                        // admission test, candidates restricted to the
                        // phase's filter.
                        Some(pi) => {
                            let demand = placer.demand_of(nominal);
                            placer.place_demand_excluding(
                                demand,
                                draw.arrival.as_ns(),
                                draw.departure.map(|d| d.as_ns()),
                                &banned[pi],
                            )
                        }
                        None => placer.place(
                            nominal,
                            draw.arrival.as_ns(),
                            draw.departure.map(|d| d.as_ns()),
                        ),
                    };
                    match outcome {
                        o @ PlacementOutcome::Admitted {
                            node, migrations, ..
                        } => {
                            admission.admitted += 1;
                            admission.migrations += u64::from(migrations);
                            (Some(node), true, Some(o))
                        }
                        o @ PlacementOutcome::Rejected { .. } => {
                            admission.rejected += 1;
                            (None, true, Some(o))
                        }
                    }
                }
            },
            None => {
                if pinned.is_none() {
                    admission.best_effort += 1;
                }
                (Some(placer.place_best_effort()), false, None)
            }
        };
        slots[i] = Some(PlannedTask {
            task: NodeTask {
                fleet_id: i,
                label,
                kind: draw.kind.clone(),
                arrival: draw.arrival,
                departure: draw.departure,
                seed: task_seed,
                migrated: false,
                warm: None,
            },
            node,
            realtime,
            outcome,
        });
    }
    let tasks: Vec<PlannedTask> = slots
        .into_iter()
        .map(|t| t.expect("every draw planned"))
        .collect();
    if let Some(p) = pinned {
        admission = p.admission;
    }
    FleetPlan {
        tasks,
        vms,
        admission,
    }
}

/// Executes fleet scenarios across OS threads.
#[derive(Clone, Debug)]
pub struct ClusterRunner {
    threads: usize,
    scan_placement: bool,
    sketch: bool,
    recycle: bool,
}

impl ClusterRunner {
    /// A runner using `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> ClusterRunner {
        ClusterRunner {
            threads: threads.max(1),
            scan_placement: false,
            sketch: false,
            recycle: true,
        }
    }

    /// Routes every placement and rebalance decision through the original
    /// linear-scan placer instead of the bucketed headroom index — the
    /// escape hatch and the reference side of the fleet-level differential
    /// proptest. Decisions are byte-identical either way; only the cost
    /// per decision changes.
    pub fn with_scan_placement(mut self, scan: bool) -> ClusterRunner {
        self.scan_placement = scan;
        self
    }

    /// Replaces per-task report vectors with per-node mergeable histogram
    /// sketches: nodes keep O(bins) state instead of every inter-finish
    /// gap, and fleet CDFs come from an associative node-order merge.
    /// Quantiles are bin-quantised; aggregates remain byte-identical at
    /// any thread count. Default off — small fleets keep exact vectors
    /// and their CSV bytes.
    pub fn with_sketch_aggregates(mut self, sketch: bool) -> ClusterRunner {
        self.sketch = sketch;
        self
    }

    /// Toggles task-arena slot recycling on every node (default on).
    ///
    /// With recycling off, each node's arena grows monotonically with
    /// admissions — the pre-free-list behaviour — which is the "before"
    /// side of the churn memory benchmark. Report bytes are identical
    /// either way; only arena footprint and slot-reuse differ.
    pub fn with_recycling(mut self, recycle: bool) -> ClusterRunner {
        self.recycle = recycle;
        self
    }

    /// A runner using all available hardware parallelism.
    pub fn available_parallelism() -> ClusterRunner {
        ClusterRunner::new(
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plans and runs the scenario, reducing to fleet aggregates.
    ///
    /// Nodes are dealt to workers by planned weight (`deal_nodes`) and
    /// each worker builds its nodes locally (kernels are thread-bound).
    /// Reports are reassembled in node-id order, so the thread count
    /// affects wall-clock time only.
    pub fn run(&self, spec: &ScenarioSpec, seed: u64) -> AggregateMetrics {
        let plan = plan_fleet_impl(spec, seed, None, self.scan_placement);
        self.run_planned(spec, seed, &plan)
    }

    /// [`ClusterRunner::run`] plus the canonically ordered decision-event
    /// stream: everything a journal needs to make the run explainable and
    /// replayable. The stream is byte-for-byte independent of the thread
    /// count, exactly like the aggregates.
    ///
    /// Convenience wrapper over [`ClusterRunner::run_logged_with`] that
    /// buffers the whole stream; a streaming consumer (a log shipper)
    /// should pass its own sink instead and keep memory flat.
    pub fn run_logged(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
    ) -> (AggregateMetrics, Vec<FleetEvent>) {
        let mut sink = CollectSink::default();
        let metrics = self.run_logged_with(spec, seed, &mut sink);
        let mut events = sink.events;
        sort_events(&mut events);
        (metrics, events)
    }

    /// Runs the scenario while streaming the decision-event batches into
    /// `sink` (see [`JournalSink`]) instead of buffering them: the plan
    /// batch up front, one batch per epoch boundary as the barrier leader
    /// takes the decisions, interim aggregates at the sink's checkpoint
    /// cadence, and the final aggregates at the horizon. Nothing is
    /// retained runner-side beyond the batch in flight.
    pub fn run_logged_with(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        sink: &mut dyn JournalSink,
    ) -> AggregateMetrics {
        let plan = plan_fleet_impl(spec, seed, None, self.scan_placement);
        self.run_inner(spec, seed, &plan, None, Some(sink), None)
            .expect("without a pin source nothing stops the run")
    }

    /// Re-executes a (usually pinned) plan with per-epoch rebalance
    /// decisions substituted from `pins` — a journal's [`PinnedMoves`]
    /// table, or a follower's stream-fed source: pinned epochs apply the
    /// recorded migrations verbatim (the leader still folds the pressure
    /// EWMA, so post-cut live decisions see the correct hysteresis
    /// state); the rest are decided live. `None` when the source answered
    /// [`EpochPin::Stop`] before the horizon, which a `PinnedMoves` never does.
    pub fn run_pinned(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
        pins: &dyn PinSource,
    ) -> Option<AggregateMetrics> {
        self.run_inner(spec, seed, plan, Some(pins), None, None)
    }

    /// [`ClusterRunner::run_pinned`] cut short at epoch boundary `cursor`:
    /// applies the pinned decisions of epochs `< cursor`, stops the
    /// simulation exactly at the boundary instant (no post-horizon
    /// straggler flush, no decision *at* the boundary) and reduces
    /// aggregates there. Its output is byte-identical to the interim
    /// aggregates the logged run emitted at the same checkpoint
    /// ([`JournalSink::on_checkpoint`]) — and to what a full pinned run
    /// hands [`PinSource::on_interim`] there, which is how a follower's
    /// live mirror checks a checkpoint without re-running the prefix; this
    /// from-zero form serves the stand-alone checkpoint check and is that
    /// mirror's test oracle.
    ///
    /// # Panics
    ///
    /// Panics when `cursor` is not an epoch boundary index of `spec`
    /// (`cursor < ClusterRunner::epoch_ends(spec).len()`).
    pub fn run_pinned_prefix(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
        moves: &PinnedMoves,
        cursor: usize,
    ) -> AggregateMetrics {
        self.run_inner(spec, seed, plan, Some(moves), None, Some(cursor))
            .expect("a pin table never stops the run")
    }

    /// The epoch boundaries of a run: rebalance instants, then the horizon.
    ///
    /// With rebalance disabled (or a period at/after the horizon) there is
    /// a single epoch and the runner behaves exactly as before. Public so
    /// journal replay can size its per-epoch pin table without re-deriving
    /// the grid.
    pub fn epoch_ends(spec: &ScenarioSpec) -> Vec<Time> {
        let horizon = Time::ZERO + spec.horizon;
        let mut ends = Vec::new();
        // Node-level share re-bounding rides the same epoch grid, so it
        // alone is enough to cut the run into epochs.
        if (spec.rebalance.enabled || spec.node_share.enabled) && !spec.rebalance.period.is_zero() {
            let mut t = Time::ZERO + spec.rebalance.period;
            while t < horizon {
                ends.push(t);
                t += spec.rebalance.period;
            }
        }
        ends.push(horizon);
        ends
    }

    /// Runs a pre-built plan (lets callers inspect or reuse the plan).
    pub fn run_planned(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
    ) -> AggregateMetrics {
        self.run_inner(spec, seed, plan, None, None, None)
            .expect("without a pin source nothing stops the run")
    }

    fn run_inner(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
        pins: Option<&dyn PinSource>,
        sink: Option<&mut dyn JournalSink>,
        prefix: Option<usize>,
    ) -> Option<AggregateMetrics> {
        // Per-node distribution as index lists into the plan arena: tasks
        // are cloned exactly once, straight from the plan into the owning
        // node, instead of materialising intermediate per-node task
        // vectors (which doubled every allocation at 1M tasks). Arrivals
        // are monotone in fleet id for every schedule, so each list is
        // arrival-sorted by construction — that is what lets the epoch
        // loop admit arrivals in batches behind a plain cursor.
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); spec.nodes];
        for (i, p) in plan.tasks.iter().enumerate() {
            if let Some(node) = p.node {
                per_node[node].push(i as u32);
            }
        }
        // Phase tasks break the id-order/arrival-order equivalence (a
        // flash crowd lands mid-stagger); re-sort so the cursor batching
        // below stays correct.
        if !spec.phases.is_empty() {
            for ids in &mut per_node {
                ids.sort_by_key(|&i| (plan.tasks[i as usize].task.arrival, i));
            }
        }
        let mut per_node_vms: Vec<Vec<NodeVm>> = vec![Vec::new(); spec.nodes];
        for p in &plan.vms {
            if let Some(node) = p.node {
                per_node_vms[node].push(p.vm.clone());
            }
        }

        let workers = self.threads.min(spec.nodes).max(1);
        // Which worker simulates which node, decided here from what the
        // plan puts on each node; `home[n]` is node `n`'s worker and its
        // position in that worker's list.
        let weights: Vec<usize> = per_node
            .iter()
            .zip(&per_node_vms)
            .map(|(ids, vms)| ids.len() + vms.iter().map(|vm| vm.guests.len()).sum::<usize>() + 1)
            .collect();
        let deal = deal_nodes(&weights, workers);
        let mut home = vec![(0usize, 0usize); spec.nodes];
        for (w, mine) in deal.iter().enumerate() {
            for (i, &n) in mine.iter().enumerate() {
                home[n] = (w, i);
            }
        }
        let scan_placement = self.scan_placement;
        let sketch = self.sketch;
        let recycle = self.recycle;
        let log = sink.is_some();
        let interval = sink.as_ref().and_then(|s| s.checkpoint_interval());
        // A prefix run truncates the epoch grid at the cursor boundary and
        // skips the final straggler flush: the simulation stops exactly at
        // the boundary instant, mirroring the state a logged run's interim
        // checkpoint reported there.
        let full_ends = ClusterRunner::epoch_ends(spec);
        let (ends, flush) = match prefix {
            Some(cursor) => {
                assert!(
                    cursor < full_ends.len(),
                    "prefix cursor {cursor} out of range (scenario has {} epoch boundaries)",
                    full_ends.len()
                );
                (full_ends[..=cursor].to_vec(), false)
            }
            None => (full_ends, true),
        };
        let horizon = *ends.last().expect("at least one epoch boundary");
        // Interim checkpoints: skip boundary 0 (nothing decided yet) and
        // the horizon (`on_finish` carries the final aggregates).
        let ckpt_at: Vec<bool> = (0..ends.len())
            .map(|ei| matches!(interval, Some(n) if ei > 0 && ei + 1 < ends.len() && ei % n == 0))
            .collect();
        let mut reports: Vec<Option<NodeReport>> = Vec::new();
        for _ in 0..spec.nodes {
            reports.push(None);
        }

        // Admissions and churn kills are plan-time decisions; shipping the
        // whole batch before simulation starts gives a streaming consumer
        // a complete placement pin table at any later cut point.
        let sink: Option<Mutex<&mut dyn JournalSink>> = sink.map(Mutex::new);
        if let Some(s) = &sink {
            let mut events = plan_events(spec, plan);
            sort_events(&mut events);
            s.lock()
                .expect("journal sink lock")
                .on_plan(&plan.admission, &events);
        }

        let barrier = Barrier::new(workers);
        // Feedback snapshots, one slot per node: every worker stores its
        // nodes' finished snapshots, the barrier leader takes them all.
        let feedback: Mutex<Vec<Option<NodeFeedback>>> = Mutex::new(vec![None; spec.nodes]);
        // What only the barrier leader touches (a different thread each
        // epoch, hence the mutex), and what it publishes for every worker
        // to apply after the second barrier.
        let leader: Mutex<LeaderState> = Mutex::new(LeaderState {
            stats: RebalanceStats::default(),
            smoothed: vec![0.0; spec.nodes],
            ctls: if spec.node_share.enabled {
                (0..spec.nodes)
                    .map(|_| ShareController::new(node_share_config(spec)))
                    .collect()
            } else {
                Vec::new()
            },
            bounds: vec![spec.ulub; spec.nodes],
        });
        let orders: Mutex<Arc<EpochOrders>> = Mutex::new(Arc::default());
        // Share-grant events drained by every worker at the barrier; the
        // leader merges them with its own decisions into the epoch batch.
        let batch_grants: Mutex<Vec<FleetEvent>> = Mutex::new(Vec::new());
        // Interim per-node reports, published at checkpoint barriers only.
        let ckpt_reports: Mutex<Vec<Option<NodeReport>>> = Mutex::new(vec![None; spec.nodes]);
        // Sketch-mode partial reduction, one slot per worker: each worker
        // pre-merges the sketches of the nodes it owns before the leader's
        // final combine, so the epoch-barrier reduction is a two-level
        // tree (worker partials, then one top-level merge) instead of a
        // serial node-id-order fold. Sketch counts merge exactly under any
        // grouping; the one order-sensitive piece — the float sums — is
        // re-serialised against node-id order inside
        // `AggregateMetrics::new_premerged`, so output bytes are identical
        // at any thread count and under any deal.
        let ckpt_partials: Mutex<Vec<Option<NodeSketches>>> = Mutex::new(vec![None; workers]);
        let mut final_partials: Vec<NodeSketches> = Vec::new();

        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (w, mine) in deal.iter().enumerate() {
                let spec_ref = &*spec;
                let plan_ref = &*plan;
                let per_node = &per_node;
                let per_node_vms = &per_node_vms;
                let home = &home;
                let barrier = &barrier;
                let feedback = &feedback;
                let leader = &leader;
                let orders = &orders;
                let batch_grants = &batch_grants;
                let ckpt_reports = &ckpt_reports;
                let ckpt_partials = &ckpt_partials;
                let ckpt_at = &ckpt_at;
                let sink = sink.as_ref();
                let ends = &ends;
                handles.push(scope.spawn(move || {
                    // Epoch 0: build each dealt node locally and run it
                    // to the first boundary. Ownership is fixed for the
                    // run — a node's tracer state is thread-bound.
                    let mut owned: Vec<Node> = Vec::with_capacity(mine.len());
                    // Position in `owned` of node `n`, if it is this
                    // worker's.
                    let local = |n: usize| {
                        home.get(n)
                            .and_then(|&(owner, i)| (owner == w).then_some(i))
                    };
                    // Arrival cursor per owned node: how many of its
                    // planned tasks have been admitted into the kernel.
                    // With a single epoch everything is admitted up front
                    // (the historical behaviour); with rebalance epochs,
                    // arrivals are batched into the epoch they start in,
                    // so a node is not paying manager-step costs for tasks
                    // that arrive seconds later.
                    let mut cursors: Vec<usize> = Vec::with_capacity(mine.len());
                    for &node_id in mine {
                        let ids = &per_node[node_id];
                        let mut node = Node::new(node_id, spec_ref);
                        node.set_recycle(recycle);
                        for vm in &per_node_vms[node_id] {
                            node.add_vm(vm.clone());
                        }
                        let mut cursor = 0;
                        while cursor < ids.len() {
                            let t = &plan_ref.tasks[ids[cursor] as usize].task;
                            // A single-epoch *prefix* run must still gate
                            // arrivals at the boundary; only a full
                            // single-epoch run admits everything up front
                            // (the historical behaviour).
                            if (ends.len() > 1 || !flush) && t.arrival > ends[0] {
                                break;
                            }
                            node.add_task(t.clone());
                            cursor += 1;
                        }
                        for w in &spec_ref.overload {
                            node.inject_overload(w);
                        }
                        node.run_to_horizon(ends[0]);
                        owned.push(node);
                        cursors.push(cursor);
                    }

                    for (ei, &t_end) in ends.iter().enumerate() {
                        if ei > 0 {
                            let last = ei == ends.len() - 1;
                            for (node, cursor) in owned.iter_mut().zip(cursors.iter_mut()) {
                                // Admit this epoch's planned arrivals in one
                                // batch (the final epoch also flushes any
                                // post-horizon stragglers so every planned
                                // task still appears in its node's report —
                                // unless this is a prefix run, which stops
                                // dead at the cursor boundary).
                                let ids = &per_node[node.id()];
                                while *cursor < ids.len() {
                                    let t = &plan_ref.tasks[ids[*cursor] as usize].task;
                                    if !(last && flush) && t.arrival > t_end {
                                        break;
                                    }
                                    node.add_task(t.clone());
                                    *cursor += 1;
                                }
                                node.run_to_horizon(t_end);
                            }
                        }
                        // Share-grant events drain at every boundary,
                        // *before* migrations release VMs; the leader (or,
                        // at the horizon, the reducing thread) owns the
                        // batch ordering.
                        if log {
                            let mut drained: Vec<FleetEvent> = Vec::new();
                            for node in &mut owned {
                                drained.append(&mut node.drain_share_events());
                            }
                            if !drained.is_empty() {
                                batch_grants
                                    .lock()
                                    .expect("grant batch lock")
                                    .append(&mut drained);
                            }
                        }
                        // Checkpoint barriers additionally publish an
                        // interim per-node report (a `&self` reduction —
                        // the simulation state is untouched): at the
                        // sink's static cadence, or where the pin source
                        // asks for one (a stream-fed source parks every
                        // worker here until the stream says which).
                        let interim = ckpt_at[ei]
                            || (ei + 1 < ends.len() && pins.is_some_and(|p| p.wants_interim(ei)));
                        if interim {
                            let reps: Vec<NodeReport> = owned
                                .iter()
                                .map(|node| node.report_mode(t_end, !sketch))
                                .collect();
                            // Pre-merge this worker's nodes — the leader's
                            // combine below then touches one partial per
                            // worker, not one per node.
                            let partial =
                                merged_sketches(reps.iter().filter_map(|r| r.sketches.as_ref()));
                            ckpt_partials.lock().expect("checkpoint partial lock")[w] = partial;
                            let mut slots = ckpt_reports.lock().expect("checkpoint report lock");
                            for (&n, rep) in mine.iter().zip(reps) {
                                slots[n] = Some(rep);
                            }
                        }
                        if ei == ends.len() - 1 {
                            break; // horizon reached; no rebalance there
                        }

                        // Publish this worker's snapshots, then let exactly
                        // one thread decide for the whole fleet.
                        let snaps: Vec<NodeFeedback> =
                            owned.iter_mut().map(|node| node.feedback(t_end)).collect();
                        {
                            let mut slots = feedback.lock().expect("feedback lock");
                            for (&n, snap) in mine.iter().zip(snaps) {
                                slots[n] = Some(snap);
                            }
                        }
                        if barrier.wait().is_leader() {
                            // Taken, not cloned: a slot left empty by a
                            // node that failed to publish this epoch is a
                            // named panic, never last epoch's snapshot.
                            let mut view = FeedbackView {
                                nodes: feedback
                                    .lock()
                                    .expect("feedback lock")
                                    .iter_mut()
                                    .enumerate()
                                    .map(|(n, s)| {
                                        s.take().unwrap_or_else(|| {
                                            panic!("node {n} published no feedback")
                                        })
                                    })
                                    .collect(),
                                smoothed: None,
                            };
                            let mut guard = leader.lock().expect("leader state lock");
                            let LeaderState {
                                stats,
                                smoothed,
                                ctls,
                                bounds,
                            } = &mut *guard;
                            // Interim checkpoint: reduce the published
                            // per-node reports against the *pre-update*
                            // rebalance stats — exactly the state a pinned
                            // prefix re-execution reproduces at this
                            // boundary (it breaks before the boundary's
                            // decision, with `cursor` leader passes done).
                            if interim {
                                let nodes: Vec<NodeReport> = ckpt_reports
                                    .lock()
                                    .expect("checkpoint report lock")
                                    .iter_mut()
                                    .enumerate()
                                    .map(|(n, r)| {
                                        r.take().unwrap_or_else(|| {
                                            panic!("node {n} missing checkpoint report")
                                        })
                                    })
                                    .collect();
                                // Top of the reduction tree: combine the
                                // worker partials (worker-index order —
                                // deterministic, and exact because sums
                                // are re-serialised inside).
                                let partials: Vec<NodeSketches> = ckpt_partials
                                    .lock()
                                    .expect("checkpoint partial lock")
                                    .iter_mut()
                                    .filter_map(Option::take)
                                    .collect();
                                let premerged = merged_sketches(&partials);
                                let interim = AggregateMetrics::new_premerged(
                                    &spec_ref.name,
                                    seed,
                                    plan_ref.admission,
                                    nodes,
                                    premerged,
                                )
                                .with_rebalance(stats.clone());
                                if let Some(s) = sink {
                                    s.lock()
                                        .expect("journal sink lock")
                                        .on_checkpoint(ei, t_end, &interim);
                                }
                                if let Some(p) = pins {
                                    p.on_interim(ei, interim);
                                }
                            }
                            // Cross-epoch hysteresis: fold this epoch's raw
                            // signal (miss rate + compression rate) into the
                            // EWMA, and let eviction act on the smoothed
                            // value. Pure f64 folds over node-id order — the
                            // thread count cannot leak in.
                            let alpha = spec_ref.rebalance.ewma_alpha;
                            for (n, s) in smoothed.iter_mut().enumerate() {
                                *s = alpha * view.raw_signal(n) + (1.0 - alpha) * *s;
                            }
                            view.smoothed = Some(smoothed.clone());
                            // Node-level share re-bounding runs before the
                            // rebalance decision of the same epoch: a node
                            // that can absorb its own pressure in place
                            // stops looking like a migration source, and a
                            // node that shed headroom stops looking like a
                            // destination. Pure per-node folds over
                            // node-id-ordered feedback — deterministic, and
                            // recomputed identically under pinned replay
                            // (the pinned simulation reproduces the same
                            // feedback, hence the same bounds).
                            let mut rebound_events: Vec<FleetEvent> = Vec::new();
                            let mut rebounds: Vec<(usize, f64)> = Vec::new();
                            if spec_ref.node_share.enabled {
                                for fb in &view.nodes {
                                    let n = fb.node;
                                    let (decision, trace) = ctls[n].step_traced(&DemandSignal {
                                        consumed_bw: fb.utilisation,
                                        booked_bw: fb.reserved_bw,
                                        granted_bw: bounds[n],
                                        // Misses count as saturation
                                        // evidence alongside supervisor
                                        // compressions: both mean the
                                        // bound, not the demand, is the
                                        // binding constraint.
                                        compressions: fb.compressions + fb.misses,
                                    });
                                    if let ShareDecision::Request(target) = decision {
                                        if log {
                                            rebound_events.push(FleetEvent::NodeRebound {
                                                at: t_end,
                                                epoch: ei,
                                                node: n,
                                                prev: bounds[n],
                                                bound: target,
                                                demand: trace.demand,
                                                reserved: fb.reserved_bw,
                                                miss_rate: fb.miss_rate(),
                                                compressions: fb.compressions,
                                            });
                                        }
                                        bounds[n] = target;
                                        rebounds.push((n, target));
                                    }
                                }
                            }
                            // A pinned epoch applies the journal's decisions
                            // verbatim; an unpinned one decides live. The
                            // EWMA fold above runs either way, so decisions
                            // past a what-if cut see the same smoothed
                            // pressure history the recorded run saw. A
                            // stream-fed source blocks here until the
                            // boundary's batch has arrived; `Stop` publishes
                            // an empty decision nobody applies.
                            let pin = pins.map_or(EpochPin::Live, |p| p.pin(ei));
                            let stop = matches!(pin, EpochPin::Stop);
                            let decision = match pin {
                                EpochPin::Pinned(d) if spec_ref.rebalance.enabled => d,
                                EpochPin::Live if spec_ref.rebalance.enabled => {
                                    let o = rebalance_epoch(
                                        spec_ref,
                                        plan_ref,
                                        &view,
                                        t_end,
                                        scan_placement,
                                        spec_ref.node_share.enabled.then_some(&bounds[..]),
                                    );
                                    EpochDecision {
                                        moves: o.moves,
                                        failed: o.failed,
                                    }
                                }
                                _ => EpochDecision::default(),
                            };
                            if spec_ref.rebalance.enabled {
                                stats.epochs += 1;
                            }
                            stats.moves += decision.moves.len() as u64;
                            stats.failed += decision.failed;
                            stats
                                .records
                                .extend(decision.moves.iter().map(|m| MigrationRecord {
                                    epoch: ei as u64,
                                    fleet_id: m.fleet_id,
                                    vm: m.vm,
                                    from: m.from,
                                    to: m.to,
                                    demand: m.demand,
                                    dest_reserved_after: m.dest_reserved_after,
                                }));
                            if let Some(s) = sink {
                                // The epoch batch: every worker's drained
                                // share grants plus this boundary's
                                // decisions, canonically sorted and emitted
                                // before simulation resumes.
                                let mut batch: Vec<FleetEvent> = std::mem::take(
                                    &mut *batch_grants.lock().expect("grant batch lock"),
                                );
                                for fb in &view.nodes {
                                    if fb.compressions > 0 {
                                        batch.push(FleetEvent::Compression {
                                            at: t_end,
                                            epoch: ei,
                                            node: fb.node,
                                            count: fb.compressions,
                                        });
                                    }
                                }
                                batch.append(&mut rebound_events);
                                // No phantom pass records in a node-share-
                                // only journal: the rebalance event exists
                                // only when the rebalancer ran.
                                if spec_ref.rebalance.enabled {
                                    batch.push(FleetEvent::Rebalance {
                                        at: t_end,
                                        epoch: ei,
                                        snapshot: (0..spec_ref.nodes)
                                            .map(|n| NodeSnap {
                                                node: n,
                                                pressure: view.pressure(n),
                                                utilisation: view.utilisation(n),
                                            })
                                            .collect(),
                                        moves: decision.moves.len() as u64,
                                        failed: decision.failed,
                                    });
                                }
                                batch.extend(decision.moves.iter().enumerate().map(|(s, m)| {
                                    FleetEvent::Migration {
                                        at: t_end,
                                        epoch: ei,
                                        seq: s as u32,
                                        fleet_id: m.fleet_id,
                                        vm: m.vm,
                                        from: m.from,
                                        to: m.to,
                                        demand: m.demand,
                                        dest_reserved_after: m.dest_reserved_after,
                                        warm: m.warm,
                                        guest_warm: m.guest_warm.clone(),
                                    }
                                }));
                                sort_events(&mut batch);
                                s.lock()
                                    .expect("journal sink lock")
                                    .on_epoch(ei, t_end, &batch);
                            }
                            // A drained node sheds its pressure history with
                            // its load; keeping the old EWMA would drain it
                            // again next epoch on stale evidence. Halved
                            // once per drained *node*, however many units
                            // left it this epoch.
                            let mut drained = vec![false; spec_ref.nodes];
                            for m in &decision.moves {
                                if !drained[m.from] {
                                    drained[m.from] = true;
                                    smoothed[m.from] *= 0.5;
                                }
                            }
                            *orders.lock().expect("epoch orders lock") = Arc::new(EpochOrders {
                                rebounds,
                                moves: decision.moves,
                                stop,
                            });
                        }
                        barrier.wait();

                        // Snapshot the leader's orders and apply them to
                        // the owned nodes with no lock held — extraction
                        // and re-admission are the expensive part of a
                        // boundary, and every worker does its own share at
                        // once.
                        let orders = Arc::clone(&orders.lock().expect("epoch orders lock"));
                        if orders.stop {
                            return None;
                        }
                        // Re-bounds first: a migration landing this epoch
                        // is admitted under the destination's *new* bound.
                        for &(n, bound) in &orders.rebounds {
                            if let Some(i) = local(n) {
                                owned[i].set_ulub(bound);
                            }
                        }
                        for m in &orders.moves {
                            if let Some(i) = local(m.from) {
                                if m.vm {
                                    owned[i].extract_vm(m.fleet_id);
                                } else {
                                    owned[i].extract_task(m.fleet_id);
                                }
                            }
                            // A move onto its own source extracts only.
                            if m.to == m.from {
                                continue;
                            }
                            let Some(i) = local(m.to) else {
                                continue;
                            };
                            if m.vm {
                                let base = &plan_ref.vms[m.fleet_id].vm;
                                // `guest_warm` is already gated at the
                                // producer: nodes only build grants when
                                // rebalance runs with warm_start.
                                owned[i].add_vm(migrated_vm_incarnation(
                                    base,
                                    t_end,
                                    seed,
                                    ei,
                                    &m.guest_warm,
                                ));
                            } else {
                                let base = &plan_ref.tasks[m.fleet_id].task;
                                owned[i].add_task(NodeTask {
                                    fleet_id: base.fleet_id,
                                    label: format!("{}e{ei}", base.label),
                                    kind: base.kind.clone(),
                                    arrival: t_end,
                                    departure: base.departure,
                                    seed: derive_task_seed(
                                        seed ^ SEED_MIGRATION_SALT,
                                        ((base.fleet_id as u64) << 16) | ei as u64,
                                    ),
                                    migrated: true,
                                    warm: if spec_ref.rebalance.warm_start {
                                        m.warm
                                    } else {
                                        None
                                    },
                                });
                            }
                        }
                    }

                    let finals: Vec<NodeReport> = owned
                        .iter()
                        .map(|node| node.report_mode(horizon, !sketch))
                        .collect();
                    let partial =
                        merged_sketches(finals.iter().filter_map(|r| r.sketches.as_ref()));
                    Some((finals, partial))
                }));
            }
            // Every worker reads the same orders, so all of them stop or
            // none does.
            for (h, mine) in handles.into_iter().zip(&deal) {
                let (finals, partial) = h.join().expect("fleet worker panicked")?;
                for (&n, report) in mine.iter().zip(finals) {
                    reports[n] = Some(report);
                }
                final_partials.extend(partial);
            }
            Some(())
        })?;

        let nodes: Vec<NodeReport> = reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("node {i} produced no report")))
            .collect();
        let stats = leader.into_inner().expect("leader state lock").stats;
        let metrics = AggregateMetrics::new_premerged(
            &spec.name,
            seed,
            plan.admission,
            nodes,
            merged_sketches(&final_partials),
        )
        .with_rebalance(stats);

        // The horizon boundary has no barrier leader (workers break before
        // waiting); the reducing thread emits its batch — the last epoch's
        // share grants — and closes the stream with the final aggregates.
        if let Some(s) = &sink {
            let mut batch = batch_grants.into_inner().expect("grant batch lock");
            sort_events(&mut batch);
            let mut s = s.lock().expect("journal sink lock");
            s.on_epoch(ends.len() - 1, horizon, &batch);
            s.on_finish(&metrics);
        }
        Some(metrics)
    }
}

/// Deals nodes to `workers` workers by planned weight, longest processing
/// time first: nodes are taken in (weight descending, id ascending) order
/// and each goes to the worker with the least weight so far (ties to the
/// lower worker index). Returns each worker's node ids in deal order.
///
/// A pure function of its arguments, so the deal — like everything else a
/// run does — depends on the plan and the thread count alone. The runner
/// passes weights of at least 1 (an empty node still costs its fixed
/// epoch work): with weight 0 every empty node would tie onto one worker,
/// with 1 they alternate between workers whose loads are level.
fn deal_nodes(weights: &[usize], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(weights[n]), n));
    let mut deal: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut loads = vec![0usize; workers];
    for n in order {
        let w = (0..workers)
            .min_by_key(|&w| loads[w])
            .expect("at least one worker");
        loads[w] += weights[n];
        deal[w].push(n);
    }
    deal
}

/// State only the barrier leader reads and writes, carried from one epoch
/// boundary to the next.
struct LeaderState {
    /// Cumulative rebalance statistics.
    stats: RebalanceStats,
    /// Cross-epoch EWMA of every node's pressure signal.
    smoothed: Vec<f64>,
    /// One node-level share controller per node (empty when the plane is
    /// off).
    ctls: Vec<ShareController>,
    /// The supervisor bound every node currently runs under.
    bounds: Vec<f64>,
}

/// What the barrier leader decided at one epoch boundary, for every worker
/// to apply to the nodes it owns.
#[derive(Default)]
struct EpochOrders {
    /// Node re-bounds `(node, new bound)`.
    rebounds: Vec<(usize, f64)>,
    /// Migrations, in decision order.
    moves: Vec<Migration>,
    /// The pin source ended the run at this boundary: workers return
    /// without applying anything.
    stop: bool,
}

/// Folds `parts` into one fresh set of sketches; `None` when there are
/// none to fold.
fn merged_sketches<'a>(parts: impl IntoIterator<Item = &'a NodeSketches>) -> Option<NodeSketches> {
    let mut parts = parts.into_iter().peekable();
    parts.peek()?;
    let mut all = NodeSketches::new();
    for part in parts {
        all.merge(part);
    }
    Some(all)
}

/// The buffering sink behind [`ClusterRunner::run_logged`]: concatenates
/// every batch for one final canonical sort.
#[derive(Default)]
struct CollectSink {
    events: Vec<FleetEvent>,
}

impl JournalSink for CollectSink {
    fn on_plan(&mut self, _admission: &AdmissionStats, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }

    fn on_epoch(&mut self, _epoch: usize, _at: Time, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }
}

/// The plan-derived decision events of a run: admissions (with the
/// placer's inputs) and the churn kills the leases will execute.
fn plan_events(spec: &ScenarioSpec, plan: &FleetPlan) -> Vec<FleetEvent> {
    let mut events = Vec::new();
    for p in &plan.vms {
        let (demand, retries, best_spare) = admission_inputs(p.outcome, || {
            spec.vms
                .get(p.vm.fleet_vm_id)
                .map_or(0.0, |vm_spec| vm_spec.share())
        });
        events.push(FleetEvent::VmAdmission {
            at: Time::ZERO,
            fleet_vm_id: p.vm.fleet_vm_id,
            demand,
            node: p.node,
            retries,
            best_spare,
        });
    }
    for p in &plan.tasks {
        if p.realtime {
            let (demand, retries, best_spare) = admission_inputs(p.outcome, || 0.0);
            events.push(FleetEvent::TaskAdmission {
                at: p.task.arrival,
                fleet_id: p.task.fleet_id,
                demand,
                node: p.node,
                retries,
                best_spare,
            });
        }
        // The lease kills the task wherever it lives; the planned node is
        // recorded (a later migration event documents any relocation).
        if let (Some(node), Some(departure)) = (p.node, p.task.departure) {
            events.push(FleetEvent::Kill {
                at: departure,
                node,
                fleet_id: p.task.fleet_id,
            });
        }
    }
    events
}

/// `(demand, retries, best_spare)` of one admission decision.
fn admission_inputs(
    outcome: Option<PlacementOutcome>,
    fallback_demand: impl FnOnce() -> f64,
) -> (f64, u32, f64) {
    match outcome {
        Some(PlacementOutcome::Admitted {
            demand, migrations, ..
        }) => (demand, migrations, 0.0),
        Some(PlacementOutcome::Rejected { demand, best_spare }) => (demand, 0, best_spare),
        None => (fallback_demand(), 0, 0.0),
    }
}

/// The re-admitted incarnation of a migrated VM: same share and guest
/// kinds, fresh labels and workload seeds, arriving at the epoch boundary.
/// `guest_warm` carries the source's granted inner reservations (by fleet
/// task id): each matching guest seeds its detected period and a
/// demand-sized budget inside the re-admitted VM instead of cold-starting.
fn migrated_vm_incarnation(
    base: &NodeVm,
    at: Time,
    seed: u64,
    epoch: usize,
    guest_warm: &[(usize, crate::node::WarmStart)],
) -> NodeVm {
    NodeVm {
        fleet_vm_id: base.fleet_vm_id,
        label: format!("{}e{epoch}", base.label),
        budget: base.budget,
        period: base.period,
        guests: base
            .guests
            .iter()
            .map(|g| NodeTask {
                fleet_id: g.fleet_id,
                label: format!("{}e{epoch}", g.label),
                kind: g.kind.clone(),
                arrival: at,
                departure: g.departure,
                seed: derive_task_seed(
                    seed ^ SEED_MIGRATION_SALT,
                    ((g.fleet_id as u64) << 16) | epoch as u64,
                ),
                migrated: true,
                warm: guest_warm
                    .iter()
                    .find(|&&(id, _)| id == g.fleet_id)
                    .map(|&(_, w)| w),
            })
            .collect(),
        arrival: at,
        migrated: true,
        elastic: base.elastic,
    }
}

/// The node-level share law: the fleet→node instance of
/// [`ShareControllerConfig`], bounded by the scenario's floor and cap.
/// One confirmation only — at epoch granularity, waiting two epochs to
/// confirm a trend means reacting after the phase that caused it.
fn node_share_config(spec: &ScenarioSpec) -> ShareControllerConfig {
    ShareControllerConfig {
        min_share: spec.node_share.floor,
        max_share: spec.node_share.cap,
        confirmations: 1,
        ..ShareControllerConfig::default()
    }
}

/// One deterministic rebalance decision pass: rebuilds the fleet's booked
/// bandwidth from the tasks and VMs the nodes report alive, then drains
/// pressured nodes through the placer's admission path. `bounds` carries
/// the per-node supervisor bounds when node-level re-bounding is on: a
/// node that shed headroom below the static `U_lub` gets the difference
/// booked as phantom load, so migrations stop treating capacity the node
/// no longer grants as free.
fn rebalance_epoch(
    spec: &ScenarioSpec,
    plan: &FleetPlan,
    view: &FeedbackView,
    now: Time,
    scan_placement: bool,
    bounds: Option<&[f64]>,
) -> crate::placer::RebalanceOutcome {
    let mut placer = Placer::new(spec.nodes, spec.ulub, spec.headroom, spec.policy);
    if scan_placement {
        placer.use_scan_placement();
    }
    let mut live: Vec<LiveTask> = Vec::new();
    let mut live_vms: Vec<LiveVmUnit> = Vec::new();
    let mut reserved = vec![0.0f64; spec.nodes];
    if let Some(bounds) = bounds {
        for n in 0..spec.nodes {
            reserved[n] += (spec.ulub - bounds[n]).max(0.0);
        }
    }
    // Planned arrivals that have not started yet still hold their nominal
    // booking on their target node — a destination about to receive them
    // is not as empty as its live set suggests.
    for p in &plan.tasks {
        if p.task.arrival <= now {
            continue;
        }
        if let (Some(node), Some(nominal)) = (p.node, p.task.kind.nominal()) {
            reserved[node] += placer.demand_of(nominal);
        }
    }
    for fb in &view.nodes {
        for rt in &fb.live_rt {
            let nominal: PeriodicTask = plan.tasks[rt.fleet_id]
                .task
                .kind
                .nominal()
                .expect("live_rt lists real-time tasks only");
            let t = LiveTask {
                fleet_id: rt.fleet_id,
                node: fb.node,
                nominal,
                measured_bw: rt.measured_bw,
                movable: rt.movable,
                granted: rt
                    .granted
                    .map(|(budget, period)| crate::node::WarmStart { budget, period }),
            };
            reserved[fb.node] += placer.effective_demand(&t);
            live.push(t);
        }
        for vm in &fb.live_vms {
            // Booked at the *granted* share: an elastically-shrunk VM
            // frees real headroom on its node, a grown one eats it.
            reserved[fb.node] += vm.share;
            live_vms.push(LiveVmUnit {
                fleet_vm_id: vm.fleet_vm_id,
                node: fb.node,
                share: vm.share,
                movable: vm.movable,
                elastic: vm.elastic,
                guest_grants: vm.guest_grants.clone(),
            });
        }
    }
    placer.sync_reserved(&reserved);
    placer.rebalance(view, &live, &live_vms, &spec.rebalance)
}

/// Domain separator between the planning RNG stream and workload streams.
const SEED_PLAN_SALT: u64 = 0x5EED_1234_ABCD_0001;

/// Domain separator for migrated-incarnation workload seeds (a re-admitted
/// task draws a fresh stream so it does not replay its start-of-run phase).
const SEED_MIGRATION_SALT: u64 = 0x5EED_1234_ABCD_0002;

/// Domain separator for VM guest workload seeds.
const SEED_VM_SALT: u64 = 0x5EED_1234_ABCD_0003;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Churn, TaskMix};
    use proptest::prelude::*;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec::new("runner-test", 3, 9, Dur::ms(1500)).with_mix(TaskMix::rt_only())
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = small_spec();
        let a = plan_fleet(&spec, 11);
        let b = plan_fleet(&spec, 11);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.task.seed, y.task.seed);
            assert_eq!(x.task.arrival, y.task.arrival);
            assert_eq!(x.task.kind, y.task.kind);
        }
        let c = plan_fleet(&spec, 12);
        let same = a
            .tasks
            .iter()
            .zip(&c.tasks)
            .filter(|(x, y)| x.task.seed == y.task.seed)
            .count();
        assert_eq!(same, 0, "different seeds must derive different streams");
    }

    #[test]
    fn task_seed_derivation_is_stateless() {
        assert_eq!(derive_task_seed(42, 7), derive_task_seed(42, 7));
        assert_ne!(derive_task_seed(42, 7), derive_task_seed(42, 8));
        assert_ne!(derive_task_seed(42, 7), derive_task_seed(43, 7));
    }

    #[test]
    fn one_and_many_threads_agree() {
        let spec = small_spec();
        let serial = ClusterRunner::new(1).run(&spec, 5);
        let parallel = ClusterRunner::new(3).run(&spec, 5);
        assert_eq!(serial.summary_csv(), parallel.summary_csv());
        assert!(serial.completions() > 0, "fleet did some work");
    }

    #[test]
    fn work_stealing_is_deterministic_at_1_2_and_8_threads() {
        let spec =
            ScenarioSpec::new("steal-test", 6, 18, Dur::ms(1200)).with_mix(TaskMix::rt_only());
        // Even (2), uneven (3) and clamped (8 → 6) deals; the aggregate
        // must not care.
        let baseline = ClusterRunner::new(1).run(&spec, 9);
        for threads in [2usize, 3, 8] {
            let m = ClusterRunner::new(threads).run(&spec, 9);
            assert_eq!(baseline.summary_csv(), m.summary_csv(), "{threads} threads");
        }
        // One node per worker agrees too.
        let coarse = ClusterRunner::new(spec.nodes).run(&spec, 9);
        assert_eq!(baseline.summary_csv(), coarse.summary_csv());
    }

    /// Per-worker total weight of a deal.
    fn loads(weights: &[usize], deal: &[Vec<usize>]) -> Vec<usize> {
        deal.iter()
            .map(|mine| mine.iter().map(|&n| weights[n]).sum())
            .collect()
    }

    proptest! {
        #[test]
        fn deal_covers_every_node_once_within_one_node_of_the_mean(
            weights in prop::collection::vec(0usize..3_000, 0..301),
            workers in 1usize..10,
        ) {
            let deal = deal_nodes(&weights, workers);
            prop_assert_eq!(deal.len(), workers);
            let mut dealt: Vec<usize> = deal.iter().flatten().copied().collect();
            dealt.sort_unstable();
            prop_assert_eq!(dealt, (0..weights.len()).collect::<Vec<_>>());
            // Greedy list scheduling: max load ≤ mean load + max weight.
            let max_load = loads(&weights, &deal).into_iter().max().unwrap_or(0);
            let total: usize = weights.iter().sum();
            let max_weight = weights.iter().copied().max().unwrap_or(0);
            prop_assert!(max_load * workers <= total + max_weight * workers);
            prop_assert_eq!(&deal, &deal_nodes(&weights, workers), "deal is a pure function");
        }

        #[test]
        fn equal_weights_deal_round_robin(
            nodes in 0usize..301,
            workers in 1usize..10,
            weight in 1usize..50,
        ) {
            let deal = deal_nodes(&vec![weight; nodes], workers);
            for (w, mine) in deal.iter().enumerate() {
                // Consecutive ids alternate between workers, so counts
                // differ by at most one.
                let want: Vec<usize> = (w..nodes).step_by(workers).collect();
                prop_assert_eq!(mine, &want, "worker {}", w);
            }
        }
    }

    #[test]
    fn surplus_workers_are_dealt_nothing() {
        let deal = deal_nodes(&[5, 1, 3], 8);
        assert_eq!(deal[..3], [vec![0], vec![2], vec![1]]);
        assert!(deal[3..].iter().all(Vec::is_empty));
        assert_eq!(deal_nodes(&[], 4), vec![Vec::<usize>::new(); 4]);
    }

    #[test]
    fn first_fit_packed_fleet_splits_its_deep_nodes_between_two_workers() {
        // The `fleet_dense` plan at seed 42: first-fit fills 25 nodes to
        // the bound, leaves 4 part-filled and 221 empty (weight 1).
        let mut weights = vec![2_030usize; 25];
        weights.extend([137; 4]);
        weights.extend([1; 221]);
        let deal = deal_nodes(&weights, 2);
        let deep: Vec<usize> = deal
            .iter()
            .map(|mine| mine.iter().filter(|&&n| n < 25).count())
            .collect();
        assert_eq!(deep, [13, 12]);
        let loads = loads(&weights, &deal);
        assert!(loads[0].abs_diff(loads[1]) <= 2_030, "{loads:?}");
    }

    #[test]
    fn churned_tasks_depart_before_horizon() {
        let spec = small_spec().with_churn(Churn {
            mean_lifetime: Dur::ms(400),
            min_lifetime: Dur::ms(100),
        });
        let plan = plan_fleet(&spec, 3);
        let horizon = Time::ZERO + spec.horizon;
        assert!(plan
            .tasks
            .iter()
            .filter_map(|t| t.task.departure)
            .all(|d| d < horizon));
        assert!(
            plan.tasks.iter().any(|t| t.task.departure.is_some()),
            "some tasks should churn"
        );
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let spec = ScenarioSpec::new("tiny", 2, 4, Dur::ms(800)).with_mix(TaskMix::rt_only());
        let m = ClusterRunner::new(16).run(&spec, 1);
        assert_eq!(m.nodes.len(), 2);
    }

    #[test]
    fn run_logged_matches_run_and_is_thread_invariant() {
        let spec = ScenarioSpec::skewed_overload_demo(4, 12)
            .with_rebalance(ScenarioSpec::demo_rebalance());
        let plain = ClusterRunner::new(2).run(&spec, 7);
        let (logged, events) = ClusterRunner::new(2).run_logged(&spec, 7);
        assert_eq!(plain.summary_csv(), logged.summary_csv());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::TaskAdmission { .. })),
            "admissions journalled"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::Rebalance { .. })),
            "rebalance passes journalled"
        );
        for threads in [1usize, 3, 8] {
            let (m, ev) = ClusterRunner::new(threads).run_logged(&spec, 7);
            assert_eq!(plain.summary_csv(), m.summary_csv(), "{threads} threads");
            assert_eq!(events, ev, "event stream at {threads} threads");
        }
    }

    /// Collects every sink callback for the streaming-equivalence tests.
    #[derive(Default)]
    struct ProbeSink {
        every: usize,
        plan: Vec<FleetEvent>,
        batches: Vec<(usize, Vec<FleetEvent>)>,
        checkpoints: Vec<(usize, String)>,
        finale: Option<String>,
    }

    impl JournalSink for ProbeSink {
        fn checkpoint_interval(&self) -> Option<usize> {
            Some(self.every)
        }

        fn on_plan(&mut self, _admission: &AdmissionStats, events: &[FleetEvent]) {
            self.plan = events.to_vec();
        }

        fn on_checkpoint(&mut self, cursor: usize, _at: Time, interim: &AggregateMetrics) {
            self.checkpoints.push((cursor, interim.summary_csv()));
        }

        fn on_epoch(&mut self, epoch: usize, _at: Time, events: &[FleetEvent]) {
            self.batches.push((epoch, events.to_vec()));
        }

        fn on_finish(&mut self, finale: &AggregateMetrics) {
            self.finale = Some(finale.summary_csv());
        }
    }

    #[test]
    fn streamed_batches_and_checkpoints_match_the_buffered_run() {
        let mut spec = ScenarioSpec::diurnal_demo(4, 8)
            .with_rebalance(ScenarioSpec::diurnal_rebalance())
            .with_node_share(ScenarioSpec::diurnal_node_share());
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        let (live, events) = ClusterRunner::new(2).run_logged(&spec, 42);
        let mut sink = ProbeSink {
            every: 2,
            ..ProbeSink::default()
        };
        let streamed = ClusterRunner::new(2).run_logged_with(&spec, 42, &mut sink);
        assert_eq!(live.summary_csv(), streamed.summary_csv());
        assert_eq!(sink.finale.as_deref(), Some(live.summary_csv().as_str()));

        // One batch per epoch boundary, in order; merged and re-sorted they
        // are exactly the buffered stream.
        let n_bounds = ClusterRunner::epoch_ends(&spec).len();
        let batch_order: Vec<usize> = sink.batches.iter().map(|(e, _)| *e).collect();
        assert_eq!(batch_order, (0..n_bounds).collect::<Vec<_>>());
        let mut merged = sink.plan.clone();
        for (_, b) in &sink.batches {
            merged.extend(b.iter().cloned());
        }
        sort_events(&mut merged);
        assert_eq!(merged, events);

        // Every interim checkpoint equals the pinned prefix re-execution at
        // the same cursor — on a different thread count, too.
        assert!(
            sink.checkpoints.len() >= 3,
            "diurnal grid should checkpoint several times at interval 2"
        );
        let plan = plan_fleet(&spec, 42);
        let moves = PinnedMoves::from_events(&spec, &events, None);
        for (cursor, summary) in &sink.checkpoints {
            let mirror = ClusterRunner::new(3).run_pinned_prefix(&spec, 42, &plan, &moves, *cursor);
            assert_eq!(
                &mirror.summary_csv(),
                summary,
                "prefix mirror diverged at cursor {cursor}"
            );
        }
    }

    #[test]
    fn pinned_plan_reproduces_live_plan() {
        let spec = small_spec();
        let live = plan_fleet(&spec, 11);
        let pinned = PinnedPlan {
            admission: live.admission,
            task_nodes: live.tasks.iter().map(|t| t.node).collect(),
            vm_nodes: live.vms.iter().map(|v| v.node).collect(),
        };
        let replay = plan_fleet_pinned(&spec, 11, &pinned);
        assert_eq!(replay.admission, live.admission);
        for (a, b) in live.tasks.iter().zip(&replay.tasks) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.task.seed, b.task.seed);
            assert_eq!(a.task.kind, b.task.kind);
            assert_eq!(a.task.departure, b.task.departure);
        }
    }

    #[test]
    fn pinned_moves_reproduce_a_rebalanced_run() {
        let spec = ScenarioSpec::skewed_overload_demo(4, 12)
            .with_rebalance(ScenarioSpec::demo_rebalance());
        let (live, events) = ClusterRunner::new(2).run_logged(&spec, 42);
        // Pin both the plan and the per-epoch decisions to the event
        // stream, through the same extraction the journal uses.
        let pinned = PinnedPlan::from_events(&spec, live.admission, &events);
        let plan = plan_fleet_pinned(&spec, 42, &pinned);
        let moves = PinnedMoves::from_events(&spec, &events, None);
        let replay = ClusterRunner::new(2)
            .run_pinned(&spec, 42, &plan, &moves)
            .expect("a pin table never stops the run");
        assert_eq!(live.summary_csv(), replay.summary_csv());
    }
}
