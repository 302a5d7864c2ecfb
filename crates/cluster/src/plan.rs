//! Fleet planning: what runs where, decided before the first epoch.
//!
//! The plan (task kinds, arrivals, lifetimes, workload seeds) and the
//! placement are computed up front from `(spec, seed)` alone — or, for a
//! replay, with a journal's recorded placements substituted for the live
//! placer walk ([`plan_fleet_pinned`]) — so nothing a worker thread does
//! later can leak into them. The runner re-exports everything here under
//! `runner::`, where these items used to live.

#![deny(clippy::too_many_lines)]

use selftune_analysis::PeriodicTask;
use selftune_simcore::rng::{splitmix64, Rng};
use selftune_simcore::time::{Dur, Time};

use crate::aggregate::AdmissionStats;
use crate::events::FleetEvent;
use crate::node::{NodeTask, NodeVm};
use crate::placer::{PlacementOutcome, Placer, Unit};
use crate::spec::{ArrivalSchedule, ScenarioSpec, TaskKind};

/// Derives the workload seed of fleet task `task_id` from the base seed.
///
/// Stateless in everything but `(base_seed, task_id)`, so the derivation
/// does not depend on planning order or thread schedule.
pub(crate) fn derive_task_seed(base_seed: u64, task_id: u64) -> u64 {
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
            let FleetEvent::Admission { unit, outcome, .. } = e else {
                continue;
            };
            let slot = match *unit {
                Unit::Task(id) => task_nodes.get_mut(id),
                Unit::Vm(id) => vm_nodes.get_mut(id),
            };
            if let Some(slot) = slot {
                *slot = outcome.node();
            }
        }
        PinnedPlan {
            admission,
            task_nodes,
            vm_nodes,
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
    plan_fleet_impl(spec, seed, None)
}

/// Builds the fleet plan with every admission decision pinned to a
/// recorded run: the same draws (kinds, arrivals, lifetimes, seeds), the
/// journal's placements instead of the live placer walk. Replaying a
/// journal through this function reproduces the recorded run's node
/// assignment exactly, even under a scenario whose *policy* was swapped
/// for a what-if.
pub fn plan_fleet_pinned(spec: &ScenarioSpec, seed: u64, pinned: &PinnedPlan) -> FleetPlan {
    plan_fleet_impl(spec, seed, Some(pinned))
}

fn plan_fleet_impl(spec: &ScenarioSpec, seed: u64, pinned: Option<&PinnedPlan>) -> FleetPlan {
    let mut planning = Planning {
        spec,
        seed,
        pinned,
        placer: Placer::new(spec.nodes, spec.ulub, spec.headroom, spec.policy),
        admission: AdmissionStats::default(),
    };
    // Every task's shape is drawn before any placement: placement itself
    // never consumes planning randomness, so the stream is the same live
    // and pinned.
    let draws = draw_population(spec, seed);
    // Virtual platforms are placed first, as whole units booked at their
    // share: tenants hold their bandwidth from t = 0, and flat tasks fill
    // in around them.
    let vms = planning.place_vms();
    let tasks = planning.place_tasks(&draws);
    FleetPlan {
        tasks,
        vms,
        admission: pinned.map_or(planning.admission, |p| p.admission),
    }
}

/// Draws the flat population of `(spec, seed)`: arrival instants, then
/// per task its kind and lifetime — the historical stream order — then
/// the traffic phases' tasks.
fn draw_population(spec: &ScenarioSpec, seed: u64) -> Vec<TaskDraw> {
    let mut rng = Rng::new(seed ^ SEED_PLAN_SALT);
    let mut arrivals: Vec<Time> = Vec::with_capacity(spec.tasks);
    let mut at = Time::ZERO;
    for i in 0..spec.tasks {
        let t = match spec.arrivals {
            ArrivalSchedule::AllAtStart => Time::ZERO,
            ArrivalSchedule::Staggered { gap } => Time::ZERO + gap.mul_f64(i as f64),
            ArrivalSchedule::Poisson { mean_gap } => {
                let gap = Dur::from_secs_f64(rng.exp(1.0 / mean_gap.as_secs_f64().max(1e-12)));
                at = at.saturating_add(gap);
                at
            }
        };
        arrivals.push(t);
    }

    let horizon = Time::ZERO + spec.horizon;
    let mut draws: Vec<TaskDraw> = arrivals
        .iter()
        .map(|&arrival| {
            let kind = spec.mix.sample(&mut rng);
            let departure = spec.churn.map(|c| {
                let life =
                    Dur::from_secs_f64(rng.exp(1.0 / c.mean_lifetime.as_secs_f64().max(1e-12)))
                        .max(c.min_lifetime);
                arrival.saturating_add(life)
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
    draws
}

/// What the placement phases of one planning pass share.
struct Planning<'a> {
    spec: &'a ScenarioSpec,
    seed: u64,
    /// Recorded placements to adopt instead of walking the placer.
    pinned: Option<&'a PinnedPlan>,
    placer: Placer,
    /// Live admission statistics (a pinned plan adopts the recorded ones).
    admission: AdmissionStats,
}

impl Planning<'_> {
    /// Places every virtual platform of the scenario, in fleet-VM-id
    /// order, and plans its guests (fleet ids after the flat population).
    fn place_vms(&mut self) -> Vec<PlannedVm> {
        let (spec, seed) = (self.spec, self.seed);
        let mut vms = Vec::with_capacity(spec.vms.len());
        let mut guest_fleet_id = spec.flat_tasks();
        for (i, vm_spec) in spec.vms.iter().enumerate() {
            let (node, outcome) = match self.pinned {
                Some(p) => (p.vm_nodes.get(i).copied().flatten(), None),
                None => match self.placer.admit(vm_spec.share(), 0, None, None) {
                    o @ PlacementOutcome::Admitted { node, .. } => {
                        self.admission.vms_admitted += 1;
                        (Some(node), Some(o))
                    }
                    o @ PlacementOutcome::Rejected { .. } => {
                        self.admission.vms_rejected += 1;
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
        vms
    }

    /// Places the flat population in arrival order (identity for
    /// phase-free specs, whose draws are arrival-monotone already), so the
    /// placer's release ledger never travels backwards in time when a
    /// phase starts before the base stagger finishes. Returns the planned
    /// tasks in fleet-id order.
    fn place_tasks(&mut self, draws: &[TaskDraw]) -> Vec<PlannedTask> {
        let spec = self.spec;
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
            let (node, outcome) = match (draw.kind.nominal(), self.pinned) {
                (Some(_), Some(p)) => (p.task_nodes.get(i).copied().flatten(), None),
                (Some(nominal), None) => {
                    let placed = self.admit(draw, nominal, &banned);
                    (placed.0, Some(placed.1))
                }
                (None, pinned) => {
                    if pinned.is_none() {
                        self.admission.best_effort += 1;
                    }
                    (Some(self.placer.place_best_effort()), None)
                }
            };
            slots[i] = Some(PlannedTask {
                task: NodeTask {
                    fleet_id: i,
                    label: format!("t{i:04}"),
                    kind: draw.kind.clone(),
                    arrival: draw.arrival,
                    departure: draw.departure,
                    seed: derive_task_seed(self.seed, i as u64),
                    migrated: false,
                    warm: None,
                },
                node,
                outcome,
            });
        }
        let planned = slots.into_iter();
        planned.map(|t| t.expect("every draw planned")).collect()
    }

    /// One live admission decision for a real-time draw, counted.
    fn admit(
        &mut self,
        draw: &TaskDraw,
        nominal: PeriodicTask,
        banned: &[Vec<bool>],
    ) -> (Option<usize>, PlacementOutcome) {
        let (arrives, departs) = (draw.arrival.as_ns(), draw.departure.map(|d| d.as_ns()));
        // Phase traffic targets a node slice: same admission test,
        // candidates restricted to the phase's filter.
        let ban = draw.phase.map(|pi| banned[pi].as_slice());
        let demand = self.placer.demand_of(nominal);
        let outcome = self.placer.admit(demand, arrives, departs, ban);
        match outcome {
            PlacementOutcome::Admitted {
                node, migrations, ..
            } => {
                self.admission.admitted += 1;
                self.admission.migrations += u64::from(migrations);
                (Some(node), outcome)
            }
            PlacementOutcome::Rejected { .. } => {
                self.admission.rejected += 1;
                (None, outcome)
            }
        }
    }
}

/// The plan-derived decision events of a run: one admission per unit that
/// walked the placer (in a live plan, the VMs and the real-time tasks;
/// only live plans are logged), carrying its outcome as-is, and the churn
/// kills the leases will execute.
pub(crate) fn plan_events(plan: &FleetPlan) -> Vec<FleetEvent> {
    let mut events = Vec::new();
    for p in &plan.vms {
        if let Some(outcome) = p.outcome {
            events.push(FleetEvent::Admission {
                at: Time::ZERO,
                unit: Unit::Vm(p.vm.fleet_vm_id),
                outcome,
            });
        }
    }
    for p in &plan.tasks {
        if let Some(outcome) = p.outcome {
            events.push(FleetEvent::Admission {
                at: p.task.arrival,
                unit: Unit::Task(p.task.fleet_id),
                outcome,
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

/// Domain separator between the planning RNG stream and workload streams.
const SEED_PLAN_SALT: u64 = 0x5EED_1234_ABCD_0001;

/// Domain separator for migrated-incarnation workload seeds (a re-admitted
/// task draws a fresh stream so it does not replay its start-of-run phase).
pub(crate) const SEED_MIGRATION_SALT: u64 = 0x5EED_1234_ABCD_0002;

/// Domain separator for VM guest workload seeds.
const SEED_VM_SALT: u64 = 0x5EED_1234_ABCD_0003;
