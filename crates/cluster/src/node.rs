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

use crate::aggregate::{NodeReport, NodeSketches, NodeTotals, TaskReport};
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
    pub fn demand_sized(granted: Dur, period: Dur, demand: f64) -> WarmStart {
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

/// The frozen remains of a departed task: everything its node report
/// still needs, in ~80 bytes instead of a full arena slot. Completion
/// counts and gap vectors are *not* frozen — marks persist in the kernel
/// metrics store after the task dies, so report time recomputes them from
/// the interned mark key; only state a dead task can no longer produce
/// (its drop counter, its first attach instant) is captured at retirement.
struct RetiredTask {
    /// Arena-wide admission sequence number (report order).
    seq: u32,
    /// Fleet-wide task index.
    fleet_id: u32,
    /// Drop counter frozen at retirement (a dead task drops no more).
    dropped: u32,
    /// Interned completion-mark key (None for kinds without marks).
    mark: Option<MetricKey>,
    /// Nominal period in milliseconds, for miss classification.
    period_ms: Option<f64>,
    /// First-attach delay frozen at retirement.
    attach_delay_ms: Option<f64>,
    /// Metric label, moved out of the plan at retirement.
    label: String,
    realtime: bool,
    migrated: bool,
}

/// Completion marks scanned out of slots at retirement, parked until the
/// next feedback snapshot drains them into its epoch counters — retiring
/// a slot mid-epoch must not lose the gaps it produced since the last
/// snapshot.
#[derive(Clone, Copy, Debug, Default)]
struct PendingMarks {
    gaps: u64,
    misses: u64,
}

/// Resident-memory accounting for a node's task state, summed over the
/// flat arena and every guest arena (see [`Node::mem_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ArenaMemStats {
    /// Tasks ever admitted (fresh and recycled slots alike).
    pub admitted: u64,
    /// Physical arena slots currently allocated.
    pub slots: usize,
    /// Slots currently occupied by a live task.
    pub live: usize,
    /// Retired-task records held for report reconstruction.
    pub retired: usize,
    /// Approximate resident bytes of all task bookkeeping.
    pub bytes: usize,
}

impl ArenaMemStats {
    fn absorb(&mut self, other: ArenaMemStats) {
        self.admitted += other.admitted;
        self.slots += other.slots;
        self.live += other.live;
        self.retired += other.retired;
        self.bytes += other.bytes;
    }

    /// Resident bytes per ever-admitted task — the churn-workload figure
    /// `BENCH_cluster.json` tracks as `cluster/milliontask/bytes_per_task`.
    pub fn bytes_per_task(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.bytes as f64 / self.admitted as f64
        }
    }
}

/// Managed-task state in struct-of-arrays layout: one parallel column per
/// field, plus an index list over the real-time slots the per-sampling-step
/// liveness scan still has to visit. At fleet scale that scan is the inner
/// loop — walking a compact `tids` column for the live slots beats chasing
/// one heap struct per task, and retiring a task shrinks the scan instead
/// of leaving a tombstone it re-checks forever.
///
/// Under churn the arena recycles: a retired slot's report-relevant state
/// is frozen into a compact [`RetiredTask`], the slot's generation is
/// bumped so stale references can never resurrect the departed task, and
/// the slot joins a free list the next admission pops. Report order is
/// recovered from per-occupant admission sequence numbers, so the output
/// bytes are identical to the grow-forever arena's slot walk.
struct TaskArena {
    /// Cold plan data (label, kind, arrival, …), one entry per slot.
    plans: Vec<NodeTask>,
    /// Kernel task ids (hot column).
    tids: Vec<TaskId>,
    /// Reservation released / task retired (hot column).
    released: Vec<bool>,
    /// CPU consumed up to the last feedback snapshot (for epoch deltas).
    fb_consumed: Vec<Dur>,
    /// Interned completion-mark keys (None for kinds without marks), so
    /// the per-epoch scan neither formats nor hashes strings.
    mark_keys: Vec<Option<MetricKey>>,
    /// Cached nominal periods in milliseconds, for miss classification.
    periods_ms: Vec<Option<f64>>,
    /// Completion marks already consumed by previous feedback snapshots —
    /// each epoch only walks the marks it has not seen yet.
    fb_mark_pos: Vec<usize>,
    /// Slots of real-time, not-yet-retired tasks in admission order — the
    /// only slots the per-step liveness scan touches.
    active_rt: Vec<usize>,
    /// Admission sequence number of each slot's current occupant.
    seqs: Vec<u32>,
    /// Slot generation, bumped at every retirement — the tag that makes a
    /// recycled slot a *different* identity from its departed occupant.
    gens: Vec<u32>,
    /// Next admission sequence number (== tasks ever admitted).
    next_seq: u32,
    /// Retired slots awaiting reuse (only popped when `recycle` is on).
    free: Vec<usize>,
    /// Frozen records of every departed occupant, in retirement order.
    retired: Vec<RetiredTask>,
    /// Whether retired slots are recycled (always on in a fleet run; see
    /// [`Node::set_recycle`] for the one-node reference).
    recycle: bool,
}

impl Default for TaskArena {
    fn default() -> TaskArena {
        TaskArena {
            plans: Vec::new(),
            tids: Vec::new(),
            released: Vec::new(),
            fb_consumed: Vec::new(),
            mark_keys: Vec::new(),
            periods_ms: Vec::new(),
            fb_mark_pos: Vec::new(),
            active_rt: Vec::new(),
            seqs: Vec::new(),
            gens: Vec::new(),
            next_seq: 0,
            free: Vec::new(),
            retired: Vec::new(),
            recycle: true,
        }
    }
}

impl TaskArena {
    /// Admits a plan into a recycled slot when one is free (and recycling
    /// is on), else a fresh one. Returns the slot index.
    fn push(&mut self, plan: NodeTask, tid: TaskId, mark: Option<MetricKey>) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let realtime = plan.kind.is_realtime();
        let period_ms = plan.kind.nominal().map(|t| t.period);
        let recycled = if self.recycle { self.free.pop() } else { None };
        let slot = match recycled {
            Some(slot) => {
                debug_assert!(self.released[slot], "free list held a live slot");
                self.plans[slot] = plan;
                self.tids[slot] = tid;
                self.released[slot] = false;
                self.fb_consumed[slot] = Dur::ZERO;
                self.mark_keys[slot] = mark;
                self.periods_ms[slot] = period_ms;
                self.fb_mark_pos[slot] = 0;
                self.seqs[slot] = seq;
                slot
            }
            None => {
                let slot = self.plans.len();
                self.plans.push(plan);
                self.tids.push(tid);
                self.released.push(false);
                self.fb_consumed.push(Dur::ZERO);
                self.mark_keys.push(mark);
                self.periods_ms.push(period_ms);
                self.fb_mark_pos.push(0);
                self.seqs.push(seq);
                self.gens.push(0);
                slot
            }
        };
        // Appended at the end: active_rt stays in *admission* order (the
        // order the old grow-forever arena scanned), not slot order.
        if realtime {
            self.active_rt.push(slot);
        }
        slot
    }

    /// Retires a slot: freezes its compact [`RetiredTask`] record, bumps
    /// the slot generation, drops it from the active scan list and (when
    /// recycling) returns the slot to the free list. `dropped` and
    /// `attach_delay_ms` are the metric reads a dead task can no longer
    /// change, captured by the caller while the label was still in place.
    fn retire(&mut self, slot: usize, dropped: u32, attach_delay_ms: Option<f64>) {
        debug_assert!(!self.released[slot], "double retirement");
        self.released[slot] = true;
        if let Some(pos) = self.active_rt.iter().position(|&s| s == slot) {
            self.active_rt.remove(pos);
        }
        let plan = &mut self.plans[slot];
        self.retired.push(RetiredTask {
            seq: self.seqs[slot],
            fleet_id: plan.fleet_id as u32,
            dropped,
            mark: self.mark_keys[slot],
            period_ms: self.periods_ms[slot],
            attach_delay_ms,
            label: std::mem::take(&mut plan.label),
            realtime: plan.kind.is_realtime(),
            migrated: plan.migrated,
        });
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        if self.recycle {
            self.free.push(slot);
        }
    }

    /// Every task ever admitted, as `(index, is_retired)` pairs in
    /// admission order: `index` points into `retired` for departed tasks
    /// and at a live slot otherwise. This is what keeps recycled-arena
    /// reports byte-identical to the grow-forever slot walk — admission
    /// sequence numbers recover the order that slot indices used to carry.
    fn admission_order(&self) -> Vec<(usize, bool)> {
        let mut order: Vec<(u32, usize, bool)> =
            Vec::with_capacity(self.retired.len() + self.plans.len());
        for (i, r) in self.retired.iter().enumerate() {
            order.push((r.seq, i, true));
        }
        for slot in 0..self.plans.len() {
            if !self.released[slot] {
                order.push((self.seqs[slot], slot, false));
            }
        }
        order.sort_unstable_by_key(|&(seq, _, _)| seq);
        order
            .into_iter()
            .map(|(_, i, retired)| (i, retired))
            .collect()
    }

    /// Resident-byte accounting over every column, label heap and retired
    /// record of this arena.
    fn mem_stats(&self) -> ArenaMemStats {
        use std::mem::size_of;
        let mut bytes = self.plans.capacity() * size_of::<NodeTask>()
            + self.tids.capacity() * size_of::<TaskId>()
            + self.released.capacity()
            + self.fb_consumed.capacity() * size_of::<Dur>()
            + self.mark_keys.capacity() * size_of::<Option<MetricKey>>()
            + self.periods_ms.capacity() * size_of::<Option<f64>>()
            + self.fb_mark_pos.capacity() * size_of::<usize>()
            + self.active_rt.capacity() * size_of::<usize>()
            + (self.seqs.capacity() + self.gens.capacity()) * size_of::<u32>()
            + self.free.capacity() * size_of::<usize>()
            + self.retired.capacity() * size_of::<RetiredTask>();
        for p in &self.plans {
            bytes += p.label.capacity();
        }
        for r in &self.retired {
            bytes += r.label.capacity();
        }
        let live = self.released.iter().filter(|&&r| !r).count();
        ArenaMemStats {
            admitted: u64::from(self.next_seq),
            slots: self.plans.len(),
            live,
            retired: self.retired.len(),
            bytes,
        }
    }
}

struct VmRt {
    vm: VmId,
    plan: NodeVm,
    guests: TaskArena,
    released: bool,
    /// VM share consumption up to the last feedback snapshot.
    fb_consumed: Dur,
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
/// per-task gap positions live in each arena slot).
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

/// How long after its arrival a task's manager first attached it.
fn attach_delay_ms(metrics: &Metrics, scratch: &mut String, plan: &NodeTask) -> Option<f64> {
    let attached = metrics.marks(metric_name(scratch, &plan.label, ".attached"));
    let first = attached.first()?;
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
    /// Marks scanned out of retired slots, awaiting the next feedback.
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
    /// every task in `arena` that exited and retires its slot. Walks only
    /// the active real-time slots — a released or best-effort task costs
    /// nothing here, which is what keeps the step affordable on nodes that
    /// have churned through many tasks. Workloads can exit on their own
    /// (leases, application `Exit`), so this stays a scan over the live
    /// set rather than a departure-schedule cursor.
    fn reap(&mut self, scope: Scope, arena: &mut TaskArena) {
        let mut i = 0;
        while let Some(&slot) = arena.active_rt.get(i) {
            let tid = arena.tids[slot];
            if self.platform.kernel().task_state(tid) == TaskState::Exited {
                self.platform.unmanage(scope, tid);
                self.platform.kernel_mut().reclaim(tid);
                self.retire(arena, slot);
            } else {
                i += 1;
            }
        }
    }

    /// Walks a slot's fresh completion marks into `tally`.
    fn scan_marks(
        platform: &VirtPlatform,
        arena: &mut TaskArena,
        slot: usize,
        tally: &mut PendingMarks,
    ) {
        if let (Some(key), Some(period_ms)) = (arena.mark_keys[slot], arena.periods_ms[slot]) {
            let marks = platform.kernel().metrics().marks_k(key);
            let pos = &mut arena.fb_mark_pos[slot];
            while *pos + 1 < marks.len() {
                let gap_ms = (marks[*pos + 1] - marks[*pos]).as_ms_f64();
                tally.gaps += 1;
                if gap_ms / period_ms > NodeReport::MISS_FACTOR {
                    tally.misses += 1;
                }
                *pos += 1;
            }
        }
    }

    /// Retires an arena slot: takes the departed task's final mark scan
    /// into the pending epoch counters, freezes the metric reads a dead
    /// task can no longer change, and hands the slot to the arena's free
    /// list.
    fn retire(&mut self, arena: &mut TaskArena, slot: usize) {
        Stack::scan_marks(&self.platform, arena, slot, &mut self.pending);
        let metrics = self.platform.kernel().metrics();
        let plan = &arena.plans[slot];
        let dropped = metric_name(&mut self.scratch, &plan.label, ".dropped");
        let dropped = metrics.counter(dropped) as u32;
        let attach_delay_ms = attach_delay_ms(metrics, &mut self.scratch, plan);
        arena.retire(slot, dropped, attach_delay_ms);
    }

    /// The reservation a task currently holds in its scope, if its
    /// manager attached one — the controller state a warm-started
    /// migration carries to the destination.
    fn granted(&self, scope: Scope, tid: TaskId) -> Option<WarmStart> {
        let (budget, period) = self.platform.reservation_of(scope, tid)?;
        Some(WarmStart { budget, period })
    }

    /// One active slot's epoch `(prev, now]`. Its fresh completion marks
    /// always go into `tally` — the scan is incremental, each slot
    /// remembers how many marks previous snapshots consumed. When `sized`
    /// and the task is live (started, not exited), also returns the CPU
    /// bandwidth it *measurably* consumed over its residency in the epoch
    /// — what feedback-informed placement books instead of the nominal
    /// claim — and its granted reservation.
    fn measure(
        &self,
        scope: Scope,
        arena: &mut TaskArena,
        slot: usize,
        epoch: (Time, Time),
        sized: bool,
        tally: &mut PendingMarks,
    ) -> Option<(f64, Option<WarmStart>)> {
        Stack::scan_marks(&self.platform, arena, slot, tally);
        let (kernel, tid) = (self.platform.kernel(), arena.tids[slot]);
        let live = || {
            matches!(
                kernel.task_state(tid),
                TaskState::Ready | TaskState::Blocked
            )
        };
        if !sized || !live() {
            return None;
        }
        let consumed = kernel.thread_time(tid);
        let delta = consumed.saturating_sub(arena.fb_consumed[slot]);
        arena.fb_consumed[slot] = consumed;
        let bw = resident_bw(delta, arena.plans[slot].arrival, epoch);
        Some((bw, self.granted(scope, tid)))
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
    /// Slot-recycling toggle copied into every new arena.
    recycle: bool,
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
            recycle: true,
        }
    }

    /// Turns arena slot recycling on or off (on by default) for the flat
    /// arena and every guest arena created afterwards. `off` is the
    /// grow-forever reference: `tests/props.rs::
    /// slot_recycling_never_resurrects_a_departed_task` holds a frozen twin
    /// node to byte-identical reports, and the one-node churn table of
    /// [`crate::mem`] measures the bytes it costs. No runner forwards the
    /// choice — a fleet always recycles.
    #[doc(hidden)]
    pub fn set_recycle(&mut self, on: bool) {
        self.recycle = on;
        self.tasks.recycle = on;
        for rt in &mut self.vms {
            rt.guests.recycle = on;
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
    pub fn set_ulub(&mut self, ulub: f64) {
        self.stack.platform.set_host_ulub(ulub);
    }

    /// Adds a planned flat task, managed in the host scope (see
    /// [`Stack::admit`]).
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
        let mut guests = TaskArena {
            recycle: self.recycle,
            ..TaskArena::default()
        };
        for g in &plan.guests {
            self.stack.admit(Scope::Vm(vm), &mut guests, g.clone());
        }
        self.vms.push(VmRt {
            vm,
            plan,
            guests,
            released: false,
            fb_consumed: Dur::ZERO,
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
    /// and releasing the reservations of departed tasks along the way
    /// (see [`Stack::reap`]).
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
    /// boundary costs O(new marks), not O(marks since t = 0) (see
    /// [`Stack::measure`]).
    pub fn feedback(&mut self, now: Time) -> NodeFeedback {
        let platform = &self.stack.platform;
        let busy = platform.kernel().busy_time();
        let guests = self.vms.iter().map(|rt| platform.guest_manager(rt.vm));
        let managers = std::iter::once(Some(platform.host_manager())).chain(guests);
        let compressions = managers.flatten().map(SelfTuningManager::compressed_grants);
        let compressions: u64 = compressions.sum();
        let prev = self.fb_mark.at.unwrap_or(Time::ZERO);
        let epoch = (prev, now);
        // Slots retired since the previous snapshot already contributed
        // their final marks at retirement; start from that parked tally.
        let mut tally = std::mem::take(&mut self.stack.pending);
        let stack = &self.stack;
        let mut live_rt = Vec::new();
        for i in 0..self.tasks.active_rt.len() {
            let slot = self.tasks.active_rt[i];
            let m = stack.measure(Scope::Host, &mut self.tasks, slot, epoch, true, &mut tally);
            let Some((measured_bw, granted)) = m else {
                continue;
            };
            let plan = &self.tasks.plans[slot];
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
            for i in 0..rt.guests.active_rt.len() {
                let slot = rt.guests.active_rt[i];
                let m = stack.measure(scope, &mut rt.guests, slot, epoch, carry, &mut tally);
                if let Some((bw, Some(g))) = m {
                    // The source's grant may have been compressed inside
                    // the tenant; floor the carried budget at the measured
                    // demand plus headroom (see `WarmStart::demand_sized`).
                    let demand = (bw * self.headroom).min(1.0);
                    let warm = WarmStart::demand_sized(g.budget, g.period, demand);
                    guest_grants.push((rt.guests.plans[slot].fleet_id, warm));
                }
            }
            if rt.released {
                continue;
            }
            let consumed = stack.platform.vm_consumed(rt.vm);
            let delta = consumed.saturating_sub(rt.fb_consumed);
            rt.fb_consumed = consumed;
            live_vms.push(LiveVmUnit {
                fleet_vm_id: rt.plan.fleet_vm_id,
                node: self.id,
                share: stack.platform.vm_share(rt.vm),
                measured_bw: resident_bw(delta, rt.plan.arrival, epoch),
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
    /// decision events, mapping kernel VM ids back to fleet VM ids.
    /// Grants of a VM that was since extracted are dropped — its fleet
    /// identity now lives (re-granted afresh) on the destination node.
    pub fn drain_share_events(&mut self) -> Vec<FleetEvent> {
        let vms = &self.vms;
        let id = self.id;
        self.stack
            .platform
            .drain_share_grants()
            .into_iter()
            .filter_map(|e| {
                let rt = vms.iter().find(|rt| rt.vm == e.vm && !rt.released)?;
                Some(FleetEvent::ShareGrant {
                    at: e.at,
                    node: id,
                    fleet_vm_id: rt.plan.fleet_vm_id,
                    demand: e.demand,
                    target: e.target,
                    granted: e.granted,
                    compressed: e.compressed,
                    clamp: e.clamp,
                    pending: e.pending,
                    available: e.available,
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
    pub fn extract_task(&mut self, fleet_id: usize) -> Option<Option<WarmStart>> {
        // Migration decisions are made from `live_rt` feedback, so the
        // target is always a live real-time task — the active list *is*
        // the search space: a departed task left it at the sampling step
        // that reaped it, and it is generation-safe (a retired slot
        // recycled to a new task left the list under the old identity).
        let mut active = self.tasks.active_rt.iter().copied();
        let slot = active.find(|&s| self.tasks.plans[s].fleet_id == fleet_id)?;
        let (stack, tid) = (&mut self.stack, self.tasks.tids[slot]);
        let warm = stack.granted(Scope::Host, tid);
        stack.platform.unmanage(Scope::Host, tid);
        stack.platform.kernel_mut().kill(tid);
        stack.platform.kernel_mut().reclaim(tid);
        stack.retire(&mut self.tasks, slot);
        Some(warm)
    }

    /// Extracts a whole virtual platform for migration: kills every guest
    /// task and releases the VM's share. Completions so far stay in this
    /// node's report. Returns `false` when the VM is unknown or already
    /// extracted.
    pub fn extract_vm(&mut self, fleet_vm_id: usize) -> bool {
        let live = |rt: &&mut VmRt| rt.plan.fleet_vm_id == fleet_vm_id && !rt.released;
        let Some(rt) = self.vms.iter_mut().find(live) else {
            return false;
        };
        rt.released = true;
        // Retire every still-live guest in slot order (guest arenas never
        // recycle after construction, so slot order is admission order).
        for slot in 0..rt.guests.plans.len() {
            if !rt.guests.released[slot] {
                self.stack.retire(&mut rt.guests, slot);
            }
        }
        let killed = self.stack.platform.kill_vm(rt.vm);
        for &tid in &rt.guests.tids {
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
    pub fn report(&self, horizon: Time) -> NodeReport {
        self.report_mode(horizon, true)
    }

    /// [`Node::report`] with the retention mode explicit. `detailed`
    /// keeps every per-task [`TaskReport`] (the small-fleet default);
    /// otherwise each task is folded into [`NodeTotals`] counters and
    /// [`NodeSketches`] histograms as it is visited and dropped — O(1)
    /// retained state per task, the fleet-scale mode behind
    /// `ClusterRunner::with_sketch_aggregates`.
    pub fn report_mode(&self, horizon: Time, detailed: bool) -> NodeReport {
        let platform = &self.stack.platform;
        let busy = platform.kernel().busy_time();
        let utilisation = resident_bw(busy, Time::ZERO, (Time::ZERO, horizon));
        let reserved_bw = platform.host_reserved_bandwidth();
        let ctx_switches = platform.kernel().context_switches();
        let metrics = platform.kernel().metrics();
        if detailed {
            let mut tasks = Vec::new();
            self.each_task(true, |seen| tasks.push(seen.report(metrics)));
            return NodeReport::from_tasks(self.id, tasks, utilisation, reserved_bw, ctx_switches);
        }
        let (mut totals, mut sk) = (NodeTotals::default(), NodeSketches::new());
        self.each_task(false, |seen| seen.fold(metrics, &mut totals, &mut sk));
        NodeReport::from_sketches(self.id, totals, sk, utilisation, reserved_bw, ctx_switches)
    }

    /// Shows `sink` every task ever admitted to this node, live and
    /// retired alike: flat tasks, then guests per VM, each arena in
    /// admission order — sketch float sums are order-sensitive, and
    /// byte-identity with the pre-recycling slot walk demands the same
    /// sequence. `detailed` says what the sink will read: the sketch sink
    /// never reads `attached` and reads the attach delay of migrated
    /// incarnations only, so a live task costs it neither lookup.
    fn each_task(&self, detailed: bool, mut sink: impl FnMut(Seen<'_>)) {
        let platform = &self.stack.platform;
        let metrics = platform.kernel().metrics();
        let mut scratch = String::new();
        let guests = self.vms.iter().map(|rt| (Scope::Vm(rt.vm), &rt.guests));
        for (scope, arena) in std::iter::once((Scope::Host, &self.tasks)).chain(guests) {
            let in_vm = scope != Scope::Host;
            for (idx, is_retired) in arena.admission_order() {
                sink(if is_retired {
                    let r = &arena.retired[idx];
                    Seen {
                        fleet_id: r.fleet_id,
                        label: &r.label,
                        realtime: r.realtime,
                        // Its reservation was released: it had one.
                        attached: true,
                        migrated: r.migrated,
                        in_vm,
                        mark: r.mark,
                        period_ms: r.period_ms,
                        dropped: r.dropped.into(),
                        attach_delay_ms: r.attach_delay_ms,
                    }
                } else {
                    let (plan, tid) = (&arena.plans[idx], arena.tids[idx]);
                    let dropped = metric_name(&mut scratch, &plan.label, ".dropped");
                    let dropped = metrics.counter(dropped);
                    let delayed = detailed || plan.migrated;
                    Seen {
                        fleet_id: plan.fleet_id as u32,
                        label: &plan.label,
                        realtime: plan.kind.is_realtime(),
                        attached: detailed && platform.reservation_of(scope, tid).is_some(),
                        migrated: plan.migrated,
                        in_vm,
                        mark: arena.mark_keys[idx],
                        period_ms: arena.periods_ms[idx],
                        dropped,
                        attach_delay_ms: delayed
                            .then(|| attach_delay_ms(metrics, &mut scratch, plan))
                            .flatten(),
                    }
                });
            }
        }
    }
}

/// One ever-admitted task as a report sink sees it: live or retired is
/// already resolved, and nothing is owned — the sketch sink never clones
/// a label.
struct Seen<'a> {
    fleet_id: u32,
    label: &'a str,
    realtime: bool,
    attached: bool,
    migrated: bool,
    in_vm: bool,
    /// Interned completion-mark key (None for kinds without marks).
    mark: Option<MetricKey>,
    /// Nominal period in milliseconds, for miss classification.
    period_ms: Option<f64>,
    dropped: u64,
    attach_delay_ms: Option<f64>,
}

impl Seen<'_> {
    /// Completion count and period-normalised inter-completion gaps of
    /// the task's mark stream (none for kinds without marks). Marks
    /// persist in the kernel metrics store after a task dies, so a
    /// retired task reports what its slot would have, never recycled.
    fn gaps<'m>(&self, metrics: &'m Metrics) -> (usize, impl Iterator<Item = f64> + 'm) {
        let (marks, p) = match (self.mark, self.period_ms) {
            (Some(key), Some(p)) => (metrics.marks_k(key), p),
            _ => (&[][..], 1.0),
        };
        let gaps = marks.windows(2).map(move |w| (w[1] - w[0]).as_ms_f64() / p);
        (marks.len(), gaps)
    }

    /// The detailed sink: the task's own [`TaskReport`].
    fn report(&self, metrics: &Metrics) -> TaskReport {
        let (completions, gaps) = self.gaps(metrics);
        let ift_norm: Vec<f64> = gaps.collect();
        let missed = ift_norm.iter().filter(|&&x| x > NodeReport::MISS_FACTOR);
        TaskReport {
            fleet_id: self.fleet_id,
            label: self.label.to_owned(),
            realtime: self.realtime,
            attached: self.attached,
            migrated: self.migrated,
            in_vm: self.in_vm,
            completions: completions as u32,
            misses: missed.count() as u32,
            dropped: self.dropped as u32,
            ift_norm,
            attach_delay_ms: self.attach_delay_ms,
        }
    }

    /// The fleet-scale sink: streams the task's gaps straight into the
    /// counters and sketches — no [`TaskReport`] (label clone + gap
    /// vector) is ever materialised.
    fn fold(&self, metrics: &Metrics, totals: &mut NodeTotals, sk: &mut NodeSketches) {
        totals.tasks += 1;
        totals.rt_tasks += usize::from(self.realtime);
        totals.dropped += self.dropped;
        let (completions, gaps) = self.gaps(metrics);
        totals.completions += completions as u64;
        totals.gaps += completions.saturating_sub(1) as u64;
        for g in gaps {
            if g > NodeReport::MISS_FACTOR {
                totals.misses += 1;
            }
            sk.gaps.record(g);
            if self.migrated {
                sk.post_migration.record(g);
            }
        }
        // Attach delays feed the migration hand-over metrics, which only
        // read migrated incarnations.
        if let (true, Some(d)) = (self.migrated, self.attach_delay_ms) {
            let sketch = if self.in_vm {
                &mut sk.vm_attach
            } else {
                &mut sk.attach
            };
            sketch.record(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RebalanceSpec, ScenarioSpec};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new("node-test", 1, 0, Dur::secs(3))
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
        let report = node.report(horizon);
        assert_eq!(report.node, 0);
        assert_eq!(report.tasks.len(), 1);
        let t = &report.tasks[0];
        assert!(t.attached, "manager attached a reservation");
        assert!(t.completions > 50, "jobs completed: {}", t.completions);
        assert!(
            t.attach_delay_ms.expect("attached") > 0.0,
            "cold start detects first"
        );
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
        let report = node.report(horizon);
        // The task left; its reservation was shrunk to the floor.
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        let t = &report.tasks[0];
        assert!(t.completions > 20 && t.completions < 60);
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
        let report = node.report(horizon);
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
        assert!(node.report(horizon).utilisation < 0.01);
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
        let report = node.report(e2);
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        assert!(report.tasks[0].completions > 0, "pre-extraction work kept");
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
        let report = node.report(horizon);
        let t = &report.tasks[0];
        assert!(t.attached);
        assert_eq!(t.attach_delay_ms, Some(0.0), "no hand-over gap");
        assert!(t.completions > 30, "ran from the start: {}", t.completions);
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
        let report = node.report(horizon);
        assert_eq!(report.tasks.len(), 2, "flat task + guest task");
        let guest = &report.tasks[1];
        assert_eq!(guest.fleet_id, 1000);
        assert!(guest.attached, "guest attached inside the VM");
        assert!(guest.completions > 40, "guest ran: {}", guest.completions);
        // The host books the flat task's reservation plus the VM share.
        assert!(report.reserved_bw > 0.3, "booked {}", report.reserved_bw);

        let mut node2 = Node::new(0, &spec);
        node2.add_vm(vm_plan(0));
        let e1 = Time::ZERO + Dur::ms(1000);
        node2.run_to_horizon(e1);
        let fb = node2.feedback(e1);
        assert_eq!(fb.live_vms.len(), 1);
        assert!((fb.live_vms[0].share - 0.3).abs() < 1e-9);
        assert!(fb.live_vms[0].measured_bw > 0.05);
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
        let report = node.report(e2);
        assert!(report.reserved_bw < 0.05, "residual {}", report.reserved_bw);
        assert!(report.tasks[0].completions > 0, "pre-extraction work kept");
    }
}
