//! One fleet node: a virtualised kernel + tracers + self-tuning managers
//! bundle that runs its share of the scenario to the horizon.
//!
//! A node is the paper's single-machine stack, virtualised: flat tasks run
//! under the host-level self-tuning manager exactly as before, while each
//! placed [`NodeVm`] is a whole tenant — a host CBS share containing a
//! nested scheduler and its own per-guest manager (see `selftune-virt`).
//! Nodes are built *inside* their worker thread (tracer state is shared
//! through `Rc`, so a node never crosses threads); everything needed to
//! build one — the task and VM plans — is plain `Send` data.

#![deny(clippy::too_many_lines)]

use selftune_apps::CpuHog;
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_sched::{CbsMode, Supervisor};
use selftune_simcore::kernel::TaskState;
use selftune_simcore::metrics::{MetricKey, Metrics};
use selftune_simcore::rng::Rng;
use selftune_simcore::task::{Action, TaskCtx, TaskId, Workload};
use selftune_simcore::time::{Dur, Time};
use selftune_virt::{GuestPolicy, Scope, VirtPlatform, VmConfig, VmElasticConfig, VmId};
use std::collections::HashMap;

use crate::aggregate::{NodeReport, NodeSketches, NodeTotals};
use crate::events::FleetEvent;
use crate::placer::{LiveTask, LiveVmUnit};
use crate::spec::{OverloadWindow, ScenarioSpec, TaskKind};

/// A task's lifetime lease: delegates to the inner workload until the
/// deadline, then exits (simulating the user closing the application).
pub struct Lease {
    inner: Box<dyn Workload>,
    until: Time,
}

impl Lease {
    /// Wraps `inner` so it exits at the first scheduling opportunity at or
    /// after `until`.
    pub fn new(inner: Box<dyn Workload>, until: Time) -> Lease {
        Lease { inner, until }
    }
}

impl Workload for Lease {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        if ctx.now >= self.until {
            return Action::Exit;
        }
        self.inner.next(ctx)
    }
}

/// Controller state carried across a live migration: the source node's
/// granted reservation, used to warm-start the destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStart {
    /// Granted budget at extraction time.
    pub budget: Dur,
    /// Reservation period (the detected task period).
    pub period: Dur,
}

impl WarmStart {
    /// A hand-over grant that keeps the source's *period* (the
    /// expensive-to-learn state) but sizes the budget at no less than
    /// `demand` (a CPU fraction), clamped into the period. The single
    /// source of the "never carry a compressed grant verbatim" rule: a
    /// budget measured under compression re-creates the starvation on the
    /// destination, so it is floored at the demand the hand-over books.
    pub(crate) fn demand_sized(granted: Dur, period: Dur, demand: f64) -> WarmStart {
        WarmStart {
            budget: granted.max(period.mul_f64(demand)).min(period),
            period,
        }
    }
}

/// A task assigned to this node (the node-local slice of the fleet plan).
#[derive(Clone, Debug)]
pub struct NodeTask {
    /// Fleet-wide task index.
    pub fleet_id: usize,
    /// Metric label, unique fleet-wide (e.g. `"t042"`).
    pub label: String,
    /// What to run.
    pub kind: TaskKind,
    /// Arrival instant.
    pub arrival: Time,
    /// Departure instant, if the scenario churns tasks.
    pub departure: Option<Time>,
    /// Workload RNG seed (derived deterministically by the planner).
    pub seed: u64,
    /// Whether this incarnation was admitted through a live migration
    /// (rather than at its original fleet arrival).
    pub migrated: bool,
    /// Carried controller state for a warm-started migration.
    pub warm: Option<WarmStart>,
}

/// A virtual platform assigned to this node: placed (and migrated) as one
/// unit, booked at its share.
#[derive(Clone, Debug)]
pub struct NodeVm {
    /// Fleet-wide VM index (its own id space, disjoint from task ids).
    pub fleet_vm_id: usize,
    /// Label, unique fleet-wide (e.g. `"v03"`).
    pub label: String,
    /// Share budget per share period.
    pub budget: Dur,
    /// Share period.
    pub period: Dur,
    /// Guest task plans.
    pub guests: Vec<NodeTask>,
    /// Arrival instant of this incarnation (t = 0, or the migration epoch).
    pub arrival: Time,
    /// Whether this incarnation arrived through a live migration.
    pub migrated: bool,
    /// Whether the node runs a host-level share controller for this VM.
    pub elastic: bool,
}

/// Completion marks scanned out of entries at retirement, parked until
/// the next feedback snapshot drains them into its epoch counters —
/// retiring a task mid-epoch must not lose the gaps it produced since the
/// last snapshot.
#[derive(Clone, Copy, Debug, Default)]
struct PendingMarks {
    gaps: u64,
    misses: u64,
}

/// Resident-memory accounting for a node's task state, summed over the
/// flat arena and every guest arena (see [`Node::mem_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ArenaMemStats {
    /// Tasks ever admitted: one entry each.
    pub admitted: u64,
    /// Entries of tasks not yet retired.
    pub live: usize,
    /// Entries of departed or extracted tasks, held for the report.
    pub retired: usize,
    /// Approximate resident bytes of all task bookkeeping.
    pub bytes: usize,
}

impl ArenaMemStats {
    fn absorb(&mut self, other: ArenaMemStats) {
        self.admitted += other.admitted;
        self.live += other.live;
        self.retired += other.retired;
        self.bytes += other.bytes;
    }

    /// Resident bytes per ever-admitted task — the churn-workload figure
    /// the benchmark ledger reports as `cluster.arena.bytes_per_task`.
    pub fn bytes_per_task(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.bytes as f64 / self.admitted as f64
        }
    }
}

/// One admitted task: the facts its node report reads, kept to the end of
/// the run, and its live state until it retires. Completion counts and
/// gaps are never frozen — marks persist in the kernel metrics store after
/// the task dies, so a report recomputes them from the interned mark key;
/// only what a dead task can no longer produce (its drop counter, a
/// migrated incarnation's first attach) is frozen at retirement.
struct Entry {
    /// Interned completion-mark key (None for kinds without marks), so
    /// neither the per-epoch scan nor the report formats or hashes names.
    mark: Option<MetricKey>,
    /// Nominal period in milliseconds, for miss classification.
    period_ms: Option<f64>,
    realtime: bool,
    migrated: bool,
    state: State,
}

enum State {
    Live(Box<Live>),
    /// The metric reads frozen at retirement.
    Retired {
        dropped: u32,
        /// First-attach delay (migrated incarnations only).
        attach_delay_ms: Option<f64>,
    },
}

/// What a task holds while it runs; dropped when it retires.
struct Live {
    /// The part of its plan read after admission.
    plan: Running,
    tid: TaskId,
    /// CPU consumed up to the last feedback snapshot (for epoch deltas).
    fb_consumed: Dur,
    /// Completion marks already consumed by previous feedback snapshots —
    /// each epoch only walks the marks it has not seen yet.
    fb_mark_pos: u32,
}

/// The fields of a [`NodeTask`] that outlive its admission: a running
/// task's seed, departure and warm start are spent once it is spawned.
struct Running {
    fleet_id: usize,
    label: String,
    kind: TaskKind,
    arrival: Time,
}

impl Entry {
    fn live(&self) -> Option<&Live> {
        match &self.state {
            State::Live(live) => Some(live),
            State::Retired { .. } => None,
        }
    }

    /// The two metric reads a report takes of this task, its drop counter
    /// and its first-attach delay: read now while it lives, frozen once it
    /// has retired. Only a migrated incarnation's delay is looked up, so a
    /// task that never moved costs no `.attached` lookup.
    fn reads(&self, metrics: &Metrics, scratch: &mut String) -> (u64, Option<f64>) {
        match &self.state {
            State::Live(live) => {
                let dropped = metric_name(scratch, &live.plan.label, ".dropped");
                let dropped = metrics.counter(dropped);
                let delay = attach_delay_ms(metrics, scratch, self.migrated, &live.plan);
                (dropped, delay)
            }
            &State::Retired {
                dropped,
                attach_delay_ms,
            } => (dropped.into(), attach_delay_ms),
        }
    }

    /// Streams the task's period-normalised completion gaps straight into
    /// the node's counters and sketches, live or retired alike.
    fn fold(
        &self,
        in_vm: bool,
        metrics: &Metrics,
        scratch: &mut String,
        totals: &mut NodeTotals,
        sk: &mut NodeSketches,
    ) {
        let (dropped, attach_delay_ms) = self.reads(metrics, scratch);
        let (marks, p) = match (self.mark, self.period_ms) {
            (Some(key), Some(p)) => (metrics.marks_k(key), p),
            _ => (&[][..], 1.0),
        };
        totals.tasks += 1;
        totals.rt_tasks += usize::from(self.realtime);
        totals.dropped += dropped;
        totals.completions += marks.len() as u64;
        totals.gaps += marks.len().saturating_sub(1) as u64;
        for w in marks.windows(2) {
            let g = (w[1] - w[0]).as_ms_f64() / p;
            totals.misses += u64::from(g > NodeReport::MISS_FACTOR);
            sk.gaps.record(g);
            if self.migrated {
                sk.post_migration.record(g);
            }
        }
        if let Some(d) = attach_delay_ms {
            let sketch = if in_vm {
                &mut sk.vm_attach
            } else {
                &mut sk.attach
            };
            sketch.record(d);
        }
    }
}

/// Every task a node (or one of its VMs) admitted: one [`Entry`] each, in
/// admission order, which is the report order. A retired entry drops its
/// live box, so memory is recycled by the allocator and no slot is ever
/// handed to a second task: a departed task has no way back.
///
/// The per-sampling-step liveness scan is the fleet's inner loop, so it
/// walks `active_rt`, a compact list of the real-time entries not yet
/// reaped with their kernel ids, and reads no live box. An extraction only
/// retires its entry; the next scan drops it from the list.
#[derive(Default)]
struct TaskArena {
    entries: Vec<Entry>,
    /// `(entry, kernel id)` of each real-time task not yet reaped, in
    /// admission order.
    active_rt: Vec<(u32, TaskId)>,
    /// The entry of each live real-time task, by fleet id — how an
    /// extraction finds its target without walking the list.
    rt_index: HashMap<u32, u32>,
}

impl TaskArena {
    /// Appends a freshly admitted task's entry. Entry counts are bounded
    /// by `u32`, like the kernel's task ids.
    fn push(&mut self, plan: NodeTask, tid: TaskId, mark: Option<MetricKey>) {
        let (e, realtime) = (self.entries.len() as u32, plan.kind.is_realtime());
        if realtime {
            // A task lives on one node at a time, so its fleet id is new
            // here (or came back after its last entry here retired).
            let key = fleet_key(plan.fleet_id);
            let before = self.rt_index.insert(key, e);
            debug_assert!(before.is_none(), "fleet id {key} admitted twice");
            self.active_rt.push((e, tid));
        }
        self.entries.push(Entry {
            mark,
            period_ms: plan.kind.nominal().map(|t| t.period),
            realtime,
            migrated: plan.migrated,
            state: State::Live(Box::new(Live {
                plan: Running {
                    fleet_id: plan.fleet_id,
                    label: plan.label,
                    kind: plan.kind,
                    arrival: plan.arrival,
                },
                tid,
                fb_consumed: Dur::ZERO,
                fb_mark_pos: 0,
            })),
        });
    }

    /// The entry and kernel id of the live real-time task `fleet_id`, if
    /// this arena holds one.
    fn rt_entry(&self, fleet_id: usize) -> Option<(usize, TaskId)> {
        let e = *self.rt_index.get(&fleet_key(fleet_id))? as usize;
        let live = self.entries[e].live()?;
        (live.plan.fleet_id == fleet_id).then_some((e, live.tid))
    }

    /// Resident-byte accounting over the entries, the live boxes and their
    /// labels, and the scan list and index of this arena.
    fn mem_stats(&self) -> ArenaMemStats {
        use std::mem::size_of;
        let mut stats = ArenaMemStats {
            admitted: self.entries.len() as u64,
            bytes: self.entries.capacity() * size_of::<Entry>()
                + self.active_rt.capacity() * size_of::<(u32, TaskId)>()
                + self.rt_index.capacity() * (size_of::<(u32, u32)>() + 1),
            ..ArenaMemStats::default()
        };
        for entry in &self.entries {
            match entry.live() {
                Some(live) => {
                    stats.live += 1;
                    stats.bytes += size_of::<Live>() + live.plan.label.capacity();
                }
                None => stats.retired += 1,
            }
        }
        stats
    }
}

/// A fleet id as an index key. Fleet ids fit in `u32`; a wider one would
/// only alias, and [`TaskArena::rt_entry`] re-checks the plan's id.
fn fleet_key(fleet_id: usize) -> u32 {
    fleet_id as u32
}

struct VmRt {
    vm: VmId,
    plan: NodeVm,
    guests: TaskArena,
    released: bool,
}

/// What a node *measured* over the last epoch — the live signal the fleet
/// rebalancer feeds on, as opposed to the nominal demand the initial
/// placement trusted.
#[derive(Clone, Debug, Default)]
pub struct NodeFeedback {
    /// The reporting node.
    pub node: usize,
    /// CPU busy fraction over the epoch.
    pub utilisation: f64,
    /// Completion gaps observed during the epoch (flat + guest tasks).
    pub gaps: u64,
    /// Gaps that exceeded the miss factor during the epoch.
    pub misses: u64,
    /// Supervisor grants compressed below request during the epoch, on the
    /// host manager and inside every guest manager.
    pub compressions: u64,
    /// Host bandwidth currently booked by reservations (flat tasks and VM
    /// shares), `Σ Q/T` — what the node-level share controller treats as
    /// the booked demand when re-bounding the supervisor.
    pub reserved_bw: f64,
    /// Real-time flat tasks currently alive on this node (started, not
    /// exited, not already extracted) as the rebalancer books them,
    /// sorted by fleet id.
    pub live_rt: Vec<LiveTask>,
    /// Virtual platforms currently alive on this node, sorted by fleet VM
    /// id. Guest grants are carried only where a warm VM migration can
    /// consume them: rebalance with `warm_start`, non-elastic VM.
    pub live_vms: Vec<LiveVmUnit>,
}

impl NodeFeedback {
    /// Epoch deadline-miss rate (zero when no gaps were observed).
    pub fn miss_rate(&self) -> f64 {
        if self.gaps == 0 {
            0.0
        } else {
            self.misses as f64 / self.gaps as f64
        }
    }
}

/// Running totals behind the per-epoch deltas of [`NodeFeedback`] (the
/// per-task gap positions live in each arena entry).
#[derive(Clone, Copy, Debug, Default)]
struct FeedbackMark {
    busy: Dur,
    compressions: u64,
    at: Option<Time>,
}

/// Formats `"{label}{suffix}"` into the reusable scratch buffer.
fn metric_name<'a>(scratch: &'a mut String, label: &str, suffix: &str) -> &'a str {
    scratch.clear();
    scratch.push_str(label);
    scratch.push_str(suffix);
    scratch
}

/// How long after its arrival a migrated incarnation's manager first
/// attached it (`None` for a task that never moved: no mean reads it).
fn attach_delay_ms(
    metrics: &Metrics,
    scratch: &mut String,
    migrated: bool,
    plan: &Running,
) -> Option<f64> {
    let name = migrated.then(|| metric_name(scratch, &plan.label, ".attached"))?;
    let first = metrics.marks(name).first()?;
    Some(first.saturating_since(plan.arrival).as_ms_f64())
}

/// The bandwidth `consumed` amounts to over a unit's *residency* in the
/// epoch `(prev, now]`, not the whole epoch: a unit that landed mid-epoch
/// burned its share over a shorter window.
fn resident_bw(consumed: Dur, arrival: Time, (prev, now): (Time, Time)) -> f64 {
    let resident = now.saturating_since(arrival.max(prev));
    if resident.is_zero() {
        0.0
    } else {
        consumed.ratio(resident)
    }
}

/// The node's one kernel stack — platform, tracers, managers — beside the
/// scratch state per-task operations share. Kept apart from the arenas so
/// an operation borrows it next to the one arena it works on, flat or
/// guest: each is written once, over the arena's [`Scope`].
struct Stack {
    platform: VirtPlatform,
    /// Marks scanned out of retired entries, awaiting the next feedback.
    pending: PendingMarks,
    /// Reusable metric-name buffer (`"{label}.dropped"` and friends) —
    /// retirement formats into this instead of allocating per task.
    scratch: String,
}

impl Stack {
    /// Admits a planned task into `arena`: spawns its workload in `scope`
    /// at the arrival instant (wrapped in a [`Lease`] when it departs),
    /// puts real-time kinds under the scope's self-tuning manager —
    /// warm-started when the plan carries controller state — and interns
    /// the completion-mark name, so per-epoch scans and reports look marks
    /// up by key. (The store only surfaces streams that recorded
    /// something, so interning at admission is unobservable in any output.)
    fn admit(&mut self, scope: Scope, arena: &mut TaskArena, plan: NodeTask) {
        let platform = &mut self.platform;
        let mut workload = plan.kind.instantiate(&plan.label, Rng::new(plan.seed));
        if let Some(dep) = plan.departure {
            workload = Box::new(Lease::new(workload, dep));
        }
        let tid = match scope {
            Scope::Host => platform
                .kernel_mut()
                .spawn_at(&plan.label, workload, plan.arrival),
            Scope::Vm(vm) => platform.spawn_in_vm_at(vm, &plan.label, workload, plan.arrival),
        };
        if plan.kind.is_realtime() {
            let warm = plan.warm.map(|w| (w.budget, w.period));
            platform.manage(scope, tid, &plan.label, ControllerConfig::default(), warm);
        }
        let mark = plan.kind.mark_name(&plan.label);
        let mark = mark.map(|name| platform.kernel_mut().metrics_mut().key(&name));
        arena.push(plan, tid, mark);
    }

    /// The per-sampling-step liveness scan: releases the reservation of
    /// every task in `arena` that exited and retires its entry. Walks only
    /// the active real-time list — a retired or best-effort task costs
    /// nothing here, which is what keeps the step affordable on nodes that
    /// have churned through many tasks — and drops every exited task from
    /// it, keeping the rest in admission order. Workloads can exit on
    /// their own (leases, application `Exit`), so this stays a scan over
    /// the live set rather than a departure-schedule cursor.
    fn reap(&mut self, scope: Scope, arena: &mut TaskArena) {
        let mut active = std::mem::take(&mut arena.active_rt);
        active.retain(|&(e, tid)| {
            if self.platform.kernel().task_state(tid) != TaskState::Exited {
                return true;
            }
            // An extraction kills its task and retires the entry at once,
            // so only a task that left on its own is still live here.
            if arena.entries[e as usize].live().is_some() {
                self.platform.unmanage(scope, tid);
                self.platform.kernel_mut().reclaim(tid);
                self.retire(arena, e as usize);
            }
            false
        });
        arena.active_rt = active;
    }

    /// Walks a live entry's fresh completion marks into `tally`.
    fn scan_marks(platform: &VirtPlatform, entry: &mut Entry, tally: &mut PendingMarks) {
        let (Some(key), Some(period_ms), State::Live(live)) =
            (entry.mark, entry.period_ms, &mut entry.state)
        else {
            return;
        };
        let marks = platform.kernel().metrics().marks_k(key);
        let mut pos = live.fb_mark_pos as usize;
        while pos + 1 < marks.len() {
            let gap_ms = (marks[pos + 1] - marks[pos]).as_ms_f64();
            tally.gaps += 1;
            if gap_ms / period_ms > NodeReport::MISS_FACTOR {
                tally.misses += 1;
            }
            pos += 1;
        }
        // A task's completion count fits the field's u32: one completion
        // a millisecond takes 49 simulated days to overflow.
        live.fb_mark_pos = pos as u32;
    }

    /// Retires a live entry: takes the departed task's final mark scan
    /// into the pending epoch counters, freezes the metric reads a dead
    /// task can no longer change, drops its live box and takes it out of
    /// the fleet-id index.
    fn retire(&mut self, arena: &mut TaskArena, e: usize) {
        let entry = &mut arena.entries[e];
        Stack::scan_marks(&self.platform, entry, &mut self.pending);
        let metrics = self.platform.kernel().metrics();
        let (dropped, attach_delay_ms) = entry.reads(metrics, &mut self.scratch);
        let frozen = State::Retired {
            dropped: dropped as u32,
            attach_delay_ms,
        };
        if let State::Live(live) = std::mem::replace(&mut entry.state, frozen) {
            if entry.realtime {
                arena.rt_index.remove(&fleet_key(live.plan.fleet_id));
            }
        }
    }

    /// The reservation a task currently holds in its scope, if its
    /// manager attached one — the controller state a warm-started
    /// migration carries to the destination.
    fn granted(&self, scope: Scope, tid: TaskId) -> Option<WarmStart> {
        let (budget, period) = self.platform.reservation_of(scope, tid)?;
        Some(WarmStart { budget, period })
    }

    /// One active entry's epoch `(prev, now]`. Its fresh completion marks
    /// always go into `tally` — the scan is incremental, each entry
    /// remembers how many marks previous snapshots consumed. When `sized`
    /// and the task is live (started, not exited), also returns the CPU
    /// bandwidth it *measurably* consumed over its residency in the epoch
    /// — what feedback-informed placement books instead of the nominal
    /// claim — its granted reservation and its plan.
    fn measure<'e>(
        &self,
        scope: Scope,
        entry: &'e mut Entry,
        epoch: (Time, Time),
        sized: bool,
        tally: &mut PendingMarks,
    ) -> Option<(f64, Option<WarmStart>, &'e Running)> {
        Stack::scan_marks(&self.platform, entry, tally);
        let State::Live(live) = &mut entry.state else {
            return None;
        };
        let (kernel, tid) = (self.platform.kernel(), live.tid);
        let live_task = || {
            matches!(
                kernel.task_state(tid),
                TaskState::Ready | TaskState::Blocked
            )
        };
        if !sized || !live_task() {
            return None;
        }
        let consumed = kernel.thread_time(tid);
        let delta = consumed.saturating_sub(live.fb_consumed);
        live.fb_consumed = consumed;
        let bw = resident_bw(delta, live.plan.arrival, epoch);
        Some((bw, self.granted(scope, tid), &live.plan))
    }
}

/// One simulated machine of the fleet.
pub struct Node {
    id: usize,
    stack: Stack,
    sampling: Dur,
    /// Admission headroom factor (scenario `headroom`), used to size
    /// warm hand-over budgets from measured demand.
    headroom: f64,
    /// Whether feedback snapshots should carry per-guest grants for
    /// warm-started VM migrations (rebalance enabled with `warm_start`;
    /// building them is wasted work otherwise).
    guest_warm_carry: bool,
    /// Whether elastic VMs also adapt their share *period* to the dominant
    /// guest period (on when the scenario runs node-level re-bounding —
    /// the fully-closed plane aligns replenishment across levels too).
    share_adapt: bool,
    tasks: TaskArena,
    vms: Vec<VmRt>,
    fb_mark: FeedbackMark,
}

impl Node {
    /// Builds the node's kernel/tracer/manager stack per the spec.
    pub fn new(id: usize, spec: &ScenarioSpec) -> Node {
        let platform = VirtPlatform::new(ManagerConfig {
            sampling: spec.sampling,
            supervisor: Supervisor::new(spec.ulub),
            cbs_mode: CbsMode::Hard,
        });
        Node {
            id,
            stack: Stack {
                platform,
                pending: PendingMarks::default(),
                scratch: String::new(),
            },
            sampling: spec.sampling,
            headroom: spec.headroom,
            guest_warm_carry: spec.rebalance.enabled && spec.rebalance.warm_start,
            share_adapt: spec.node_share.enabled,
            tasks: TaskArena::default(),
            vms: Vec::new(),
            fb_mark: FeedbackMark::default(),
        }
    }

    /// Resident-memory accounting over the flat task arena and every
    /// guest arena — what `mem_report` prints and the million-task bench
    /// tracks as bytes/task.
    pub fn mem_stats(&self) -> ArenaMemStats {
        let mut stats = self.tasks.mem_stats();
        for rt in &self.vms {
            stats.absorb(rt.guests.mem_stats());
        }
        stats
    }

    /// The node's id within the fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Re-bounds the node's supervisor to `ulub` (a node-level share
    /// decision taken at an epoch barrier): lowering the bound
    /// proportionally recompresses every live grant in place, raising it
    /// restores headroom the next self-tuning requests can claim.
    pub(crate) fn set_ulub(&mut self, ulub: f64) {
        self.stack.platform.set_host_ulub(ulub);
    }

    /// Adds a planned flat task: spawns its workload at the arrival
    /// instant (under a [`Lease`] when it departs) and puts a real-time
    /// kind under the host manager, warm-started when the plan carries
    /// controller state.
    pub fn add_task(&mut self, plan: NodeTask) {
        self.stack.admit(Scope::Host, &mut self.tasks, plan);
    }

    /// Adds a planned virtual platform: admits its share and admits every
    /// guest in the VM's own scope, under its own manager.
    ///
    /// The share goes through the curbed admission path: the placer's
    /// booked model can drift from this node's live self-tuned grants
    /// (a flat task that idled all epoch reports near-zero measured
    /// bandwidth while its grant stays large), so a migrated VM may land
    /// on a node with less room than the rebalancer believed. It is then
    /// compressed rather than rejected — the next feedback epoch sees the
    /// resulting pressure and moves work again.
    pub fn add_vm(&mut self, plan: NodeVm) {
        let platform = &mut self.stack.platform;
        let (vm, _granted) = platform.create_vm_curbed(VmConfig {
            label: plan.label.clone(),
            budget: plan.budget,
            period: plan.period,
            policy: GuestPolicy::SelfTuning(ManagerConfig {
                sampling: self.sampling,
                // The guest supervisor enforces the same `U_lub` rule as
                // the host one (previously hard-coded to 1.0, which let a
                // tenant book every last slice of its own share while the
                // host level kept the paper's bound).
                supervisor: Supervisor::new(platform.supervisor().ulub),
                cbs_mode: CbsMode::Hard,
            }),
        });
        if plan.elastic {
            platform.make_vm_elastic(
                vm,
                VmElasticConfig {
                    adapt_period: self.share_adapt,
                    ..VmElasticConfig::default()
                },
            );
        }
        let mut guests = TaskArena::default();
        for g in &plan.guests {
            self.stack.admit(Scope::Vm(vm), &mut guests, g.clone());
        }
        self.vms.push(VmRt {
            vm,
            plan,
            guests,
            released: false,
        });
    }

    /// Injects `window.hogs_per_node` fair-class CPU hogs for the span of
    /// the overload window, if this node is targeted by the window's
    /// [`NodeFilter`](crate::spec::NodeFilter).
    pub fn inject_overload(&mut self, window: &OverloadWindow) {
        if !window.nodes.matches(self.id) {
            return;
        }
        for h in 0..window.hogs_per_node {
            let hog = Box::new(CpuHog::new(window.chunk));
            let leased = Box::new(Lease::new(hog, Time::ZERO + window.end));
            self.stack.platform.kernel_mut().spawn_at(
                &format!("hog{}w{h}", self.id),
                leased,
                Time::ZERO + window.start,
            );
        }
    }

    /// Runs to the horizon, stepping every manager every sampling period
    /// and releasing the reservations of departed tasks along the way:
    /// each step's liveness scan walks only the live real-time tasks.
    pub fn run_to_horizon(&mut self, horizon: Time) {
        let stack = &mut self.stack;
        while stack.platform.now() < horizon {
            let next = (stack.platform.now() + self.sampling).min(horizon);
            stack.platform.kernel_mut().run_until(next);
            stack.reap(Scope::Host, &mut self.tasks);
            for rt in &mut self.vms {
                stack.reap(Scope::Vm(rt.vm), &mut rt.guests);
            }
            stack.platform.step_managers();
        }
    }

    /// Publishes the feedback snapshot for the epoch ending at `now` and
    /// re-arms the epoch counters: measured utilisation, deadline-miss
    /// rate and supervisor compressions *since the previous snapshot*,
    /// plus the live real-time task set and the live VM set. An epoch
    /// boundary costs O(new marks), not O(marks since t = 0): each task
    /// remembers how many of its marks earlier snapshots consumed, and its
    /// grant is looked up by task id in O(1).
    pub fn feedback(&mut self, now: Time) -> NodeFeedback {
        let platform = &self.stack.platform;
        let busy = platform.kernel().busy_time();
        let guests = self.vms.iter().map(|rt| platform.guest_manager(rt.vm));
        let managers = std::iter::once(Some(platform.host_manager())).chain(guests);
        let compressions = managers.flatten().map(SelfTuningManager::compressed_grants);
        let compressions: u64 = compressions.sum();
        let prev = self.fb_mark.at.unwrap_or(Time::ZERO);
        let epoch = (prev, now);
        // Entries retired since the previous snapshot already contributed
        // their final marks at retirement; start from that parked tally.
        let mut tally = std::mem::take(&mut self.stack.pending);
        let stack = &self.stack;
        let mut live_rt = Vec::new();
        for &(e, _) in &self.tasks.active_rt {
            let entry = &mut self.tasks.entries[e as usize];
            let m = stack.measure(Scope::Host, entry, epoch, true, &mut tally);
            let Some((measured_bw, granted, plan)) = m else {
                continue;
            };
            let nominal = plan.kind.nominal();
            live_rt.push(LiveTask {
                fleet_id: plan.fleet_id,
                node: self.id,
                nominal: nominal.expect("the active list holds real-time tasks only"),
                measured_bw,
                movable: plan.arrival <= prev,
                granted,
            });
        }
        live_rt.sort_unstable_by_key(|t| t.fleet_id);
        let mut live_vms = Vec::new();
        for rt in &mut self.vms {
            // Grants (and the per-guest bandwidth that sizes them) are
            // only built where a warm VM migration can consume them:
            // rebalance with warm hand-over on, and not an elastic VM
            // (those are never eviction victims) nor a released one.
            let carry = self.guest_warm_carry && !rt.plan.elastic && !rt.released;
            let (scope, mut guest_grants) = (Scope::Vm(rt.vm), Vec::new());
            for &(e, _) in &rt.guests.active_rt {
                let entry = &mut rt.guests.entries[e as usize];
                let m = stack.measure(scope, entry, epoch, carry, &mut tally);
                if let Some((bw, Some(g), plan)) = m {
                    // The source's grant may have been compressed inside
                    // the tenant; floor the carried budget at the measured
                    // demand plus headroom (see `WarmStart::demand_sized`).
                    let demand = (bw * self.headroom).min(1.0);
                    let warm = WarmStart::demand_sized(g.budget, g.period, demand);
                    guest_grants.push((plan.fleet_id, warm));
                }
            }
            if rt.released {
                continue;
            }
            live_vms.push(LiveVmUnit {
                fleet_vm_id: rt.plan.fleet_vm_id,
                node: self.id,
                share: stack.platform.vm_share(rt.vm),
                movable: rt.plan.arrival <= prev,
                elastic: rt.plan.elastic,
                guest_grants,
            });
        }
        live_vms.sort_unstable_by_key(|v| v.fleet_vm_id);
        let fb = NodeFeedback {
            node: self.id,
            utilisation: resident_bw(busy.saturating_sub(self.fb_mark.busy), prev, epoch),
            gaps: tally.gaps,
            misses: tally.misses,
            compressions: compressions - self.fb_mark.compressions,
            reserved_bw: stack.platform.host_reserved_bandwidth(),
            live_rt,
            live_vms,
        };
        self.fb_mark = FeedbackMark {
            busy,
            compressions,
            at: Some(now),
        };
        fb
    }

    /// Drains the platform's executed elastic share re-grants into fleet
    /// decision events, each grant embedded as-is beside its fleet VM id
    /// (mapped back from the kernel VM id).
    /// Grants of a VM that was since extracted are dropped — its fleet
    /// identity now lives (re-granted afresh) on the destination node.
    pub(crate) fn drain_share_events(&mut self) -> Vec<FleetEvent> {
        let vms = &self.vms;
        let id = self.id;
        self.stack
            .platform
            .drain_share_grants()
            .into_iter()
            .filter_map(|(vm, grant)| {
                let rt = vms.iter().find(|rt| rt.vm == vm && !rt.released)?;
                Some(FleetEvent::ShareGrant {
                    node: id,
                    fleet_vm_id: rt.plan.fleet_vm_id,
                    grant,
                })
            })
            .collect()
    }

    /// Extracts a running task for migration: releases its reservation,
    /// terminates its kernel incarnation and returns the carried
    /// controller state (`Some(None)` when it had no reservation yet).
    /// The task's completions so far stay in this node's report; the
    /// runner re-admits the plan (kind, lifetime, fresh seed) on the
    /// destination node.
    ///
    /// Returns `None` when the task is unknown, already departed or
    /// already extracted — the migration is then dropped.
    pub(crate) fn extract_task(&mut self, fleet_id: usize) -> Option<Option<WarmStart>> {
        // Migration decisions are made from `live_rt` feedback, so the
        // target is always a live real-time task, indexed by fleet id: a
        // departed or extracted task left the index when it retired, and
        // its entry is never handed to another task.
        let (e, tid) = self.tasks.rt_entry(fleet_id)?;
        let stack = &mut self.stack;
        let warm = stack.granted(Scope::Host, tid);
        stack.platform.unmanage(Scope::Host, tid);
        stack.platform.kernel_mut().kill(tid);
        stack.platform.kernel_mut().reclaim(tid);
        stack.retire(&mut self.tasks, e);
        Some(warm)
    }

    /// Extracts a whole virtual platform for migration: kills every guest
    /// task and releases the VM's share. Completions so far stay in this
    /// node's report. Returns `false` when the VM is unknown or already
    /// extracted.
    pub(crate) fn extract_vm(&mut self, fleet_vm_id: usize) -> bool {
        let live = |rt: &&mut VmRt| rt.plan.fleet_vm_id == fleet_vm_id && !rt.released;
        let Some(rt) = self.vms.iter_mut().find(live) else {
            return false;
        };
        rt.released = true;
        // Retire every still-live guest in admission order; the guests
        // reaped earlier were reclaimed then.
        let mut tids = Vec::new();
        for e in 0..rt.guests.entries.len() {
            if let Some(live) = rt.guests.entries[e].live() {
                tids.push(live.tid);
                self.stack.retire(&mut rt.guests, e);
            }
        }
        let killed = self.stack.platform.kill_vm(rt.vm);
        for tid in tids {
            self.stack.platform.kernel_mut().reclaim(tid);
        }
        killed
    }

    /// Extracts the node's contribution to the fleet aggregate.
    ///
    /// Deadline misses are derived from completion gaps: a task with
    /// nominal period `P` misses when a completion-to-completion gap
    /// exceeds [`NodeReport::MISS_FACTOR`]` × P`. Guest tasks report after
    /// the node's flat tasks, in (VM, spawn) order.
    ///
    /// Each task is folded into [`NodeTotals`] counters and
    /// [`NodeSketches`] as it is visited. `detailed` sketches are lossless
    /// (the small-fleet default); otherwise they are binned histograms —
    /// O(bins) retained state per node, the fleet-scale mode behind
    /// `ClusterRunner::with_sketch_aggregates`.
    pub fn report_mode(&self, horizon: Time, detailed: bool) -> NodeReport {
        let platform = &self.stack.platform;
        let busy = platform.kernel().busy_time();
        let utilisation = resident_bw(busy, Time::ZERO, (Time::ZERO, horizon));
        let reserved_bw = platform.host_reserved_bandwidth();
        let ctx_switches = platform.kernel().context_switches();
        let metrics = platform.kernel().metrics();
        let (mut totals, mut sk) = (NodeTotals::default(), NodeSketches::new(detailed));
        // Flat tasks, then guests per VM, each arena in admission order:
        // sketch float sums are order-sensitive.
        let mut scratch = String::new();
        let guests = self.vms.iter().map(|rt| (&rt.guests, true));
        for (arena, in_vm) in std::iter::once((&self.tasks, false)).chain(guests) {
            for entry in &arena.entries {
                entry.fold(in_vm, metrics, &mut scratch, &mut totals, &mut sk);
            }
        }
        NodeReport::new(self.id, totals, sk, utilisation, reserved_bw, ctx_switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AdmissionStats, AggregateMetrics};
    use crate::spec::{RebalanceSpec, ScenarioSpec};
    use proptest::prelude::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new("node-test", 1, 0, Dur::secs(3))
    }

    /// The kernel's mark stream `name` (`"<label>.job"`, `"<label>.attached"`)
    /// on `node` — marks outlive the task that recorded them.
    fn marks<'a>(node: &'a Node, name: &str) -> &'a [Time] {
        node.stack.platform.kernel().metrics().marks(name)
    }

    fn rt_task(fleet_id: usize, label: &str) -> NodeTask {
        NodeTask {
            fleet_id,
            label: label.into(),
            kind: TaskKind::PeriodicRt {
                wcet: Dur::ms(4),
                period: Dur::ms(40),
            },
            arrival: Time::ZERO,
            departure: None,
            seed: 11,
            migrated: false,
            warm: None,
        }
    }

    #[test]
    fn node_attaches_and_reports() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(NodeTask {
            seed: 7,
            ..rt_task(0, "t000")
        });
        let horizon = Time::ZERO + spec.horizon;
        node.run_to_horizon(horizon);
        let report = node.report_mode(horizon, true);
        assert_eq!(report.node, 0);
        assert_eq!(report.totals.tasks, 1);
        let attached = marks(&node, "t000.attached");
        assert!(!attached.is_empty(), "manager attached a reservation");
        let done = report.totals.completions;
        assert!(done > 50, "jobs completed: {done}");
        assert_eq!(marks(&node, "t000.job").len() as u64, done);
        assert!(attached[0] > Time::ZERO, "cold start detects first");
        assert!(report.utilisation > 0.05 && report.utilisation < 0.5);
        assert!(report.reserved_bw > 0.05);
    }

    #[test]
    fn lease_departs_and_releases_bandwidth() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(NodeTask {
            departure: Some(Time::ZERO + Dur::ms(1800)),
            seed: 7,
            ..rt_task(0, "t000")
        });
        let horizon = Time::ZERO + spec.horizon;
        node.run_to_horizon(horizon);
        let report = node.report_mode(horizon, true);
        // The task left; its reservation was shrunk to the floor.
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        let done = report.totals.completions;
        assert!(done > 20 && done < 60, "jobs completed: {done}");
        // The departed task's marks still back its report.
        assert_eq!(marks(&node, "t000.job").len() as u64, done);
    }

    #[test]
    fn overload_window_is_bounded() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.inject_overload(&OverloadWindow {
            start: Dur::ms(500),
            end: Dur::ms(1500),
            hogs_per_node: 1,
            chunk: Dur::ms(10),
            nodes: crate::spec::NodeFilter::All,
        });
        let horizon = Time::ZERO + spec.horizon;
        node.run_to_horizon(horizon);
        let report = node.report_mode(horizon, true);
        // The hog burns CPU only inside its window (~1s of the 3s run).
        assert!(
            report.utilisation > 0.25 && report.utilisation < 0.5,
            "utilisation {}",
            report.utilisation
        );
    }

    #[test]
    fn overload_skips_unmatched_nodes() {
        let spec = tiny_spec();
        let mut node = Node::new(3, &spec);
        node.inject_overload(&OverloadWindow {
            start: Dur::ms(500),
            end: Dur::ms(1500),
            hogs_per_node: 1,
            chunk: Dur::ms(10),
            nodes: crate::spec::NodeFilter::First(2),
        });
        let horizon = Time::ZERO + spec.horizon;
        node.run_to_horizon(horizon);
        // Node 3 is outside First(2): no hog ran, the node stayed idle.
        assert!(node.report_mode(horizon, true).utilisation < 0.01);
    }

    #[test]
    fn feedback_reports_epoch_deltas_and_live_tasks() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(rt_task(7, "t007"));
        let e1 = Time::ZERO + Dur::ms(1_000);
        node.run_to_horizon(e1);
        let fb1 = node.feedback(e1);
        assert_eq!(fb1.node, 0);
        assert!(fb1.gaps > 10, "first epoch saw gaps: {}", fb1.gaps);
        assert_eq!(fb1.live_rt.len(), 1);
        assert_eq!(fb1.live_rt[0].fleet_id, 7);
        assert!(fb1.live_rt[0].movable, "resident since t=0");
        // A 4/40 task measurably burns ~10% CPU.
        let bw = fb1.live_rt[0].measured_bw;
        assert!(bw > 0.05 && bw < 0.25, "measured bw {bw}");
        assert!(fb1.utilisation > 0.05);

        // The second snapshot counts only the second epoch's gaps, and by
        // now the manager has attached — the granted pair rides along.
        let e2 = Time::ZERO + Dur::ms(2_000);
        node.run_to_horizon(e2);
        let fb2 = node.feedback(e2);
        assert!(
            fb2.gaps >= 20 && fb2.gaps <= 30,
            "epoch delta, not running total: {}",
            fb2.gaps
        );
        let WarmStart { budget, period } = fb2.live_rt[0].granted.expect("attached by 2s");
        assert!((period.as_ms_f64() - 40.0).abs() < 2.0, "{period}");
        assert!(budget > Dur::ms(2) && budget < Dur::ms(12), "{budget}");
    }

    #[test]
    fn extract_task_stops_work_and_carries_warm_state() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(rt_task(0, "t000"));
        let e1 = Time::ZERO + Dur::ms(2_000);
        node.run_to_horizon(e1);
        assert!(node.feedback(e1).live_rt.len() == 1);

        let warm = node.extract_task(0).expect("live task extracts");
        let warm = warm.expect("attached task carries its grant");
        assert!((warm.period.as_ms_f64() - 40.0).abs() < 2.0);
        assert!(node.extract_task(0).is_none(), "second extraction no-ops");
        assert!(node.extract_task(99).is_none(), "unknown fleet id no-ops");

        let e2 = Time::ZERO + Dur::ms(3_000);
        node.run_to_horizon(e2);
        let fb = node.feedback(e2);
        assert!(fb.live_rt.is_empty(), "extracted task left the live set");
        assert_eq!(fb.gaps, 0, "no completions after extraction");
        // The reservation was shrunk back to (almost) nothing.
        let report = node.report_mode(e2, true);
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        assert!(report.totals.completions > 0, "pre-extraction work kept");
        let last = *marks(&node, "t000.job").last().expect("jobs ran");
        assert!(last <= e1, "no job completed after extraction: {last}");
    }

    /// Fleet id 5 goes A → B → A. It comes back to a new entry on A:
    /// extraction takes that current entry, and its first, retired one
    /// never answers for 5 again.
    #[test]
    fn a_returning_fleet_id_is_extracted_from_its_current_slot() {
        let spec = tiny_spec();
        let (mut a, mut b) = (Node::new(0, &spec), Node::new(1, &spec));
        a.add_task(rt_task(5, "t005"));
        a.add_task(rt_task(6, "t006"));
        let (e1, e2, e3) = (
            Time::ZERO + Dur::ms(1_000),
            Time::ZERO + Dur::ms(2_000),
            Time::ZERO + Dur::ms(3_000),
        );
        let at = |fleet_id, label: &str, arrival, warm| NodeTask {
            arrival,
            migrated: true,
            warm,
            ..rt_task(fleet_id, label)
        };
        a.run_to_horizon(e1);
        let warm = a.extract_task(5).expect("5 is live on A");
        b.add_task(at(5, "t005b", e1, warm));
        // Task 7 arrives on A meanwhile, at an entry of its own.
        a.add_task(at(7, "t007", e1, None));
        assert_eq!(a.tasks.entries.len(), 3, "one entry per admission");
        assert!(
            a.extract_task(5).is_none(),
            "a retired entry answers for nobody"
        );
        a.run_to_horizon(e2);
        b.run_to_horizon(e2);
        let warm = b.extract_task(5).expect("5 is live on B");
        a.add_task(at(5, "t005c", e2, warm));
        let entry = |node: &Node, id| node.tasks.rt_entry(id).expect("live here");
        assert_eq!(entry(&a, 5).0, 3);
        a.run_to_horizon(e3);

        let (seven, current) = (entry(&a, 7).1, entry(&a, 5).1);
        assert!(a.extract_task(5).is_some(), "the returned 5 extracts");
        assert_eq!(
            a.stack.platform.kernel().task_state(current),
            TaskState::Exited
        );
        assert_ne!(
            a.stack.platform.kernel().task_state(seven),
            TaskState::Exited,
            "7 runs on"
        );
        assert!(a.extract_task(5).is_none(), "second extraction no-ops");
        let live: Vec<usize> = a.feedback(e3).live_rt.iter().map(|t| t.fleet_id).collect();
        assert_eq!(live, [6, 7]);

        // The extracted entry leaves the scan list at the next step; the
        // survivors keep their admission order.
        let listed = |node: &Node| node.tasks.active_rt.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(listed(&a), [1, 2, 3]);
        a.run_to_horizon(e3 + spec.sampling);
        assert_eq!(listed(&a), [1, 2]);
        let stats = a.mem_stats();
        assert_eq!((stats.admitted, stats.live, stats.retired), (4, 2, 2));
    }

    #[test]
    fn warm_started_task_attaches_at_arrival() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(NodeTask {
            migrated: true,
            warm: Some(WarmStart {
                budget: Dur::ms(5),
                period: Dur::ms(40),
            }),
            ..rt_task(0, "t000m")
        });
        let horizon = Time::ZERO + Dur::ms(1500);
        node.run_to_horizon(horizon);
        let report = node.report_mode(horizon, true);
        let attached = marks(&node, "t000m.attached");
        assert_eq!(attached.first(), Some(&Time::ZERO), "no hand-over gap");
        let done = report.totals.completions;
        assert!(done > 30, "ran from the start: {done}");
        // A migrated incarnation's delay feeds the hand-over mean.
        let m = AggregateMetrics::new("warm", 0, AdmissionStats::default(), vec![report]);
        assert_eq!(m.mean_migrated_attach_delay_ms(), Some(0.0));
    }

    fn vm_plan(fleet_vm_id: usize) -> NodeVm {
        NodeVm {
            fleet_vm_id,
            label: format!("v{fleet_vm_id:02}"),
            budget: Dur::ms(3),
            period: Dur::ms(10),
            guests: vec![NodeTask {
                seed: 5,
                ..rt_task(1000 + fleet_vm_id, &format!("v{fleet_vm_id:02}g0"))
            }],
            arrival: Time::ZERO,
            migrated: false,
            elastic: false,
        }
    }

    #[test]
    fn vm_guests_run_under_their_own_manager_and_report() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_task(rt_task(0, "t000"));
        node.add_vm(vm_plan(0));
        let horizon = Time::ZERO + spec.horizon;
        node.run_to_horizon(horizon);
        let report = node.report_mode(horizon, true);
        assert_eq!(report.totals.tasks, 2, "flat task + guest task");
        let guest_attached = marks(&node, "v00g0.attached");
        assert!(!guest_attached.is_empty(), "guest attached inside the VM");
        let guest_done = marks(&node, "v00g0.job").len();
        assert!(guest_done > 40, "guest ran: {guest_done}");
        let flat_done = marks(&node, "t000.job").len();
        assert_eq!(report.totals.completions, (flat_done + guest_done) as u64);
        // The host books the flat task's reservation plus the VM share.
        assert!(report.reserved_bw > 0.3, "booked {}", report.reserved_bw);

        let mut node2 = Node::new(0, &spec);
        node2.add_vm(vm_plan(0));
        let e1 = Time::ZERO + Dur::ms(1000);
        node2.run_to_horizon(e1);
        let fb = node2.feedback(e1);
        assert_eq!(fb.live_vms.len(), 1);
        assert!((fb.live_vms[0].share - 0.3).abs() < 1e-9);
        assert!(fb.utilisation > 0.05, "guests ran: {}", fb.utilisation);
        assert!(fb.live_vms[0].movable);
        assert!(fb.gaps > 10, "guest gaps feed node pressure: {}", fb.gaps);
    }

    #[test]
    fn elastic_vm_feedback_reports_granted_share_and_guest_grants() {
        // Warm rebalance on, so the node carries guest grants for the
        // (non-elastic) migratable VM.
        let spec = tiny_spec().with_rebalance(RebalanceSpec {
            enabled: true,
            warm_start: true,
            ..RebalanceSpec::default()
        });
        let mut node = Node::new(0, &spec);
        node.add_vm(NodeVm {
            elastic: true,
            ..vm_plan(0)
        });
        node.add_vm(vm_plan(1));
        let e1 = Time::ZERO + Dur::ms(2_500);
        node.run_to_horizon(e1);
        let fb = node.feedback(e1);
        assert_eq!(fb.live_vms.len(), 2);

        let elastic = &fb.live_vms[0];
        assert!(elastic.elastic, "elastic flag must reach the rebalancer");
        // Elastic VMs are never eviction victims, so no warm state is
        // built for them.
        assert!(elastic.guest_grants.is_empty());
        // The reported share is the controller's live grant: the guest
        // books ~0.1 + margin, well below the nominal 0.3 — the
        // controller sheds the slack, freeing real placement headroom.
        assert!(
            elastic.share < 0.3 - 1e-9,
            "elastic share did not adapt below nominal: {}",
            elastic.share
        );
        assert!(
            elastic.share > 0.05,
            "share collapsed under demand: {}",
            elastic.share
        );

        // The static VM carries its attached guest's grant for a
        // warm-started migration, budget at no less than measured demand.
        let stat = &fb.live_vms[1];
        assert!(!stat.elastic);
        assert!((stat.share - 0.3).abs() < 1e-9, "static share frozen");
        assert_eq!(stat.guest_grants.len(), 1);
        let (fleet_id, warm) = stat.guest_grants[0];
        assert_eq!(fleet_id, 1001);
        assert!((warm.period.as_ms_f64() - 40.0).abs() < 2.0, "{:?}", warm);
        // A 4/40 guest burns ~0.1; the carried budget covers at least
        // that demand (with headroom) within the period.
        assert!(
            warm.budget >= warm.period.mul_f64(0.08),
            "carried budget below measured demand: {:?}",
            warm
        );
        assert!(warm.budget <= warm.period);
    }

    #[test]
    fn extract_vm_releases_share_and_stops_guests() {
        let spec = tiny_spec();
        let mut node = Node::new(0, &spec);
        node.add_vm(vm_plan(3));
        let e1 = Time::ZERO + Dur::ms(1000);
        node.run_to_horizon(e1);
        assert_eq!(node.feedback(e1).live_vms.len(), 1);

        assert!(node.extract_vm(3));
        assert!(!node.extract_vm(3), "second extraction is a no-op");
        assert!(!node.extract_vm(99), "unknown VM is a no-op");

        let e2 = Time::ZERO + Dur::ms(2000);
        node.run_to_horizon(e2);
        let fb = node.feedback(e2);
        assert!(fb.live_vms.is_empty());
        assert_eq!(fb.gaps, 0, "no guest completions after extraction");
        let report = node.report_mode(e2, true);
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        assert_eq!(report.totals.tasks, 1, "the retired guest still reports");
        assert!(report.totals.completions > 0, "pre-extraction work kept");
        let last = *marks(&node, "v03g0.job").last().expect("guest ran");
        assert!(last <= e1, "no guest job after extraction: {last}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn slot_recycling_never_resurrects_a_departed_task(
            seed in 0u64..1_000_000,
            waves in prop::collection::vec(
                prop::collection::vec((1u64..4, 50u64..90, any::<bool>()), 1..4),
                2..5,
            ),
        ) {
            // A departed task must never come back. Departed fleet ids
            // stay out of every later feedback snapshot, extraction finds
            // nothing to move, and the final report holds each admitted id
            // exactly once, with every one of its completions and none of
            // another's.
            let spec = ScenarioSpec::new("prop-recycle", 1, 0, Dur::secs(10));
            let mut node = Node::new(0, &spec);
            let wave_ms = 400u64;
            let (mut admitted, mut departed) = (Vec::new(), Vec::new());
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
                    node.add_task(plan);
                    admitted.push(fleet_id);
                    if departs {
                        departed.push(fleet_id);
                    }
                }
                now = start + Dur::ms(wave_ms);
                node.run_to_horizon(now);
                let fb = node.feedback(now);
                for lr in &fb.live_rt {
                    prop_assert!(
                        !departed.contains(&lr.fleet_id),
                        "departed task {} resurfaced in live_rt", lr.fleet_id
                    );
                }
            }
            // Every departure retired its entry; no entry went to a second task.
            let stats = node.mem_stats();
            prop_assert_eq!(stats.admitted, admitted.len() as u64);
            prop_assert_eq!(stats.retired, departed.len());
            let a = AggregateMetrics::new("prop-recycle", seed, AdmissionStats::default(),
                vec![node.report_mode(now, true)]);
            prop_assert_eq!(a.nodes[0].totals.tasks, admitted.len());
            let jobs: usize = admitted
                .iter()
                .map(|id| marks(&node, &format!("t{id:03}.job")).len())
                .sum();
            prop_assert_eq!(a.completions(), jobs as u64);
            // A departed id is gone for good: extraction cannot revive it.
            for &d in &departed {
                prop_assert!(node.extract_task(d).is_none(), "extracted departed task {}", d);
            }
        }
    }

    #[test]
    fn a_churned_arena_holds_at_most_70_bytes_per_admitted_task() {
        // 2 000 admissions, 40 of them live at the end: a retired entry
        // keeps only what the report reads, and its live box goes back to
        // the allocator when it retires.
        let r = crate::mem::churn_mem_report(50, 40, 7);
        let s = r.stats;
        assert_eq!((s.admitted, s.live, s.retired), (2_000, 40, 1_960));
        let per_task = r.bytes_per_task();
        assert!(per_task <= 70.0, "{per_task:.1} B per admitted task");
    }
}
