//! The stages of one fleet epoch, and the state they work over.
//!
//! A run is [`deal`]t once. Then, per epoch boundary: every worker runs
//! [`admit_and_simulate`] and [`publish`] — outside any lock — posts the
//! result on the [`EpochBoard`] and parks on a barrier; exactly one
//! thread, the leader, takes it all and runs [`reduce`] (where an interim
//! is wanted), [`decide`] and [`emit`], leaving the epoch's orders on the
//! board; after a second barrier every worker runs [`apply`] on the nodes
//! it owns. Each stage is a plain function over explicit state
//! ([`WorkerState`] per thread, [`LeaderState`] across boundaries) and
//! none of them spawns a thread, takes a lock or waits — that is the
//! epoch loop's job (`runner.rs`) — so each is testable from its interface
//! alone. Decisions and their application depend only on `(spec, seed)`
//! and virtual time, never on which thread ran what.

#![deny(clippy::too_many_lines)]

use std::sync::Arc;

use selftune_core::share::{DemandSignal, ShareController, ShareControllerConfig, ShareDecision};
use selftune_simcore::time::Time;

use crate::aggregate::{AggregateMetrics, MigrationRecord, NodeReport, RebalanceStats};
use crate::events::{sort_events, FleetEvent, NodeSnap};
use crate::node::{Node, NodeFeedback, NodeTask, NodeVm, WarmStart};
use crate::placer::{FeedbackView, Migration, Placer};
use crate::plan::{derive_task_seed, FleetPlan, SEED_MIGRATION_SALT};
use crate::runner::{EpochDecision, EpochPin, PinSource};
use crate::spec::ScenarioSpec;

/// One run, resolved: everything that is fixed before its first epoch.
pub(crate) struct Run<'a> {
    pub spec: &'a ScenarioSpec,
    pub seed: u64,
    pub plan: &'a FleetPlan,
    /// Where each boundary's decision comes from.
    pub pins: &'a dyn PinSource,
    /// The sink's checkpoint cadence, if there is a sink and it has one.
    pub interval: Option<usize>,
    /// The boundary the run ends at, returning its interim.
    pub stop: Option<usize>,
    /// Whether a sink listens: decision events are built only if so.
    pub log: bool,
    pub sketch: bool,
    /// The epoch grid (`ClusterRunner::epoch_ends`), horizon last.
    pub ends: Vec<Time>,
    pub deal: Deal,
}

impl Run<'_> {
    pub(crate) fn at_horizon(&self, ei: usize) -> bool {
        ei + 1 == self.ends.len()
    }
}

/// Which node holds what, and which worker simulates which node.
pub(crate) struct Deal {
    /// Per node, its flat tasks as plan indices, in arrival order — which
    /// is what lets arrivals be admitted in batches behind a plain cursor.
    pub tasks: Vec<Vec<u32>>,
    /// Per node, its virtual platforms as plan indices.
    pub vms: Vec<Vec<u32>>,
    /// Per worker, the node ids it simulates, in deal order.
    pub owners: Vec<Vec<usize>>,
    /// Per node, its worker and its position in that worker's list.
    pub home: Vec<(usize, usize)>,
}

/// Distributes the plan over the nodes and the nodes over `workers`
/// workers, once: a node's tracer state is thread-bound, so nodes are not
/// re-dealt between epochs. Tasks and VMs stay in the plan arena and are
/// cloned exactly once, straight into the owning node (intermediate
/// per-node vectors doubled every allocation at 1M tasks).
pub(crate) fn deal(spec: &ScenarioSpec, plan: &FleetPlan, workers: usize) -> Deal {
    let mut tasks: Vec<Vec<u32>> = vec![Vec::new(); spec.nodes];
    let mut vms = tasks.clone();
    // A node weighs what the plan puts on it: its flat tasks and VM
    // guests, plus one for its fixed epoch work.
    let mut weights = vec![1usize; spec.nodes];
    for (i, p) in plan.tasks.iter().enumerate() {
        if let Some(node) = p.node {
            tasks[node].push(i as u32);
            weights[node] += 1;
        }
    }
    for (i, p) in plan.vms.iter().enumerate() {
        if let Some(node) = p.node {
            vms[node].push(i as u32);
            weights[node] += p.vm.guests.len();
        }
    }
    // Arrivals are monotone in fleet id for every schedule, so each list
    // is arrival-sorted by construction — except that phase tasks break
    // the equivalence (a flash crowd lands mid-stagger): re-sort.
    if !spec.phases.is_empty() {
        for ids in &mut tasks {
            ids.sort_by_key(|&i| (plan.tasks[i as usize].task.arrival, i));
        }
    }
    let owners = deal_nodes(&weights, workers);
    let mut home = vec![(0usize, 0usize); spec.nodes];
    for (w, mine) in owners.iter().enumerate() {
        for (i, &n) in mine.iter().enumerate() {
            home[n] = (w, i);
        }
    }
    Deal {
        tasks,
        vms,
        owners,
        home,
    }
}

/// Deals nodes to `workers` workers by planned weight, longest processing
/// time first: nodes are taken in (weight descending, id ascending) order
/// and each goes to the worker with the least weight so far (ties to the
/// lower worker index). Returns each worker's node ids in deal order.
///
/// First-fit packs the whole load onto a few low ids; dealing by weight
/// hands every worker its share of those deep nodes, where a blind deal
/// of consecutive ids gave one worker all of them. Weights are at least 1
/// (an empty node still costs its fixed epoch work): with weight 0 every
/// empty node would tie onto one worker, with 1 they alternate between
/// workers whose loads are level. What the plan cannot state — which
/// empty nodes a later drain fills — the deal does not see. A pure
/// function of its arguments; which thread simulates a node affects
/// wall-clock only.
pub(crate) fn deal_nodes(weights: &[usize], workers: usize) -> Vec<Vec<usize>> {
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

/// What one worker thread carries from epoch to epoch.
#[derive(Default)]
pub(crate) struct WorkerState {
    /// This worker's index into [`Deal::owners`].
    pub w: usize,
    /// The dealt nodes, built on this thread during epoch 0, in deal order.
    pub owned: Vec<Node>,
    /// Per owned node, how many of its planned tasks have been admitted.
    pub cursors: Vec<usize>,
}

/// The arrival-admission rule: a planned task enters its node's kernel in
/// the epoch it arrives in — so a node pays no manager-step cost for
/// tasks that start seconds later — and the horizon boundary admits
/// whatever is left, so a straggler planned past the horizon still
/// appears in its node's report. Stragglers flush there and nowhere else:
/// a run stopped at an earlier boundary gates like any other epoch, and a
/// single-epoch run, being all horizon, admits everything up front.
fn admits(run: &Run, ei: usize, arrival: Time) -> bool {
    run.at_horizon(ei) || arrival <= run.ends[ei]
}

/// Epoch `ei` on one worker: admit the epoch's planned arrivals into each
/// owned node and simulate it to the boundary. Epoch 0 first builds the
/// node, on the thread that keeps it.
pub(crate) fn admit_and_simulate(run: &Run, ws: &mut WorkerState, ei: usize) {
    for (k, &n) in run.deal.owners[ws.w].iter().enumerate() {
        if ei == 0 {
            let mut node = Node::new(n, run.spec);
            for &i in &run.deal.vms[n] {
                node.add_vm(run.plan.vms[i as usize].vm.clone());
            }
            ws.owned.push(node);
            ws.cursors.push(0);
        }
        let (node, cursor) = (&mut ws.owned[k], &mut ws.cursors[k]);
        while let Some(&i) = run.deal.tasks[n].get(*cursor) {
            let task = &run.plan.tasks[i as usize].task;
            if !admits(run, ei, task.arrival) {
                break;
            }
            node.add_task(task.clone());
            *cursor += 1;
        }
        if ei == 0 {
            for window in &run.spec.overload {
                node.inject_overload(window);
            }
        }
        node.run_to_horizon(run.ends[ei]);
    }
}

/// What a worker reports at one boundary — and, merged, what the fleet
/// does. Computed with no lock held.
#[derive(Default)]
pub(crate) struct Published {
    /// Share-grant events drained from the nodes (logged runs).
    pub grants: Vec<FleetEvent>,
    /// Node reports — at the horizon, and wherever an interim is wanted.
    pub reports: Vec<NodeReport>,
    /// Feedback snapshots; none at the horizon, where nothing is decided.
    pub feedback: Vec<NodeFeedback>,
}

/// Boundary `ei` on one worker: everything the leader (or, at the
/// horizon, the reducing thread) needs from this worker's nodes.
pub(crate) fn publish(run: &Run, ws: &mut WorkerState, ei: usize, interim: bool) -> Published {
    let (t_end, mut out) = (run.ends[ei], Published::default());
    // Share grants drain at every boundary, *before* migrations release
    // VMs; whoever assembles the batch owns its ordering.
    if run.log {
        for node in &mut ws.owned {
            out.grants.append(&mut node.drain_share_events());
        }
    }
    // A report is a `&self` reduction: the simulation state is untouched.
    if interim || run.at_horizon(ei) {
        let report = |node: &Node| node.report_mode(t_end, !run.sketch);
        out.reports = ws.owned.iter().map(report).collect();
    }
    if !run.at_horizon(ei) {
        out.feedback = ws.owned.iter_mut().map(|n| n.feedback(t_end)).collect();
    }
    out
}

/// Everything that crosses an epoch barrier: each worker posts what it
/// published before the first wait; the leader takes the lot, decides,
/// and leaves `orders` for every worker to read after the second.
pub(crate) struct EpochBoard {
    /// One slot per worker.
    pub posted: Vec<Option<Published>>,
    /// What the leader decided at the boundary just passed.
    pub orders: Arc<EpochOrders>,
}

impl EpochBoard {
    pub(crate) fn new(workers: usize) -> EpochBoard {
        EpochBoard {
            posted: (0..workers).map(|_| None).collect(),
            orders: Arc::default(),
        }
    }

    /// The boundary's publications merged in worker order, feedback in
    /// node-id order. Taken, not cloned: a worker that failed to post is
    /// a named panic, never last epoch's snapshot.
    pub(crate) fn take(&mut self) -> Published {
        let mut all = Published::default();
        for (w, slot) in self.posted.iter_mut().enumerate() {
            let p = slot.take();
            let p = p.unwrap_or_else(|| panic!("worker {w} posted nothing at this boundary"));
            all.grants.extend(p.grants);
            all.reports.extend(p.reports);
            all.feedback.extend(p.feedback);
        }
        all.feedback.sort_unstable_by_key(|fb| fb.node);
        all
    }
}

/// Fleet aggregates out of one boundary's reports (any order) — an
/// interim's or the finale's alike, both the node-order fold of
/// [`AggregateMetrics::new`]. `stats` is what the leader has applied so
/// far: at an interim, the passes of earlier boundaries and not this
/// one's, which is what a pinned run stopped here reproduces.
pub(crate) fn reduce(
    run: &Run,
    reports: Vec<NodeReport>,
    stats: RebalanceStats,
) -> AggregateMetrics {
    let (name, admission) = (&run.spec.name, run.plan.admission);
    AggregateMetrics::new(name, run.seed, admission, reports).with_rebalance(stats)
}

/// State only the barrier leader reads and writes, carried from one epoch
/// boundary to the next.
pub(crate) struct LeaderState {
    /// Cumulative rebalance statistics.
    pub stats: RebalanceStats,
    /// Cross-epoch EWMA of every node's pressure signal.
    pub smoothed: Vec<f64>,
    /// One node-level share controller per node (none with the plane off).
    pub ctls: Vec<ShareController>,
    /// The supervisor bound every node currently runs under.
    pub bounds: Vec<f64>,
}

impl LeaderState {
    pub(crate) fn new(spec: &ScenarioSpec) -> LeaderState {
        // The node-level share law: the fleet→node instance of
        // `ShareControllerConfig`, bounded by the scenario's floor and
        // cap. One confirmation only — at epoch granularity, waiting two
        // epochs to confirm a trend means reacting after the phase that
        // caused it.
        let law = ShareControllerConfig {
            min_share: spec.node_share.floor,
            max_share: spec.node_share.cap,
            confirmations: 1,
            ..ShareControllerConfig::default()
        };
        let controlled = if spec.node_share.enabled {
            spec.nodes
        } else {
            0
        };
        LeaderState {
            stats: RebalanceStats::default(),
            smoothed: vec![0.0; spec.nodes],
            ctls: (0..controlled).map(|_| ShareController::new(law)).collect(),
            bounds: vec![spec.ulub; spec.nodes],
        }
    }
}

/// What the barrier leader decided at one epoch boundary, for every worker
/// to apply to the nodes it owns.
#[derive(Default)]
pub(crate) struct EpochOrders {
    /// Node re-bounds `(node, new bound)`.
    pub rebounds: Vec<(usize, f64)>,
    /// Migrations, in decision order.
    pub moves: Vec<Migration>,
    /// Victims that found no admissible destination.
    pub failed: u64,
    /// The run ends at this boundary: workers return, applying nothing.
    pub stop: bool,
}

/// Boundary `ei` on the leader: fold the feedback into the cross-epoch
/// state, re-bound the nodes, and take the boundary's migrations from
/// `pin` — a recorded decision applied verbatim, or a live rebalance pass.
/// The folds run either way, so decisions past a what-if cut see the same
/// smoothed pressure history the recorded run saw. Returns the orders and
/// (logged runs) the decision's own journal records: re-bounds, then
/// migrations in decision order. [`EpochPin::Stop`] decides nothing and
/// touches nothing.
pub(crate) fn decide(
    run: &Run,
    state: &mut LeaderState,
    view: &mut FeedbackView,
    pin: EpochPin,
    ei: usize,
) -> (EpochOrders, Vec<FleetEvent>) {
    let (spec, mut orders, mut records) = (run.spec, EpochOrders::default(), Vec::new());
    if matches!(pin, EpochPin::Stop) {
        orders.stop = true;
        return (orders, records);
    }
    // Cross-epoch hysteresis: fold this epoch's raw signal (miss rate +
    // compression rate) into the EWMA, and let eviction act on the
    // smoothed value. Pure f64 folds over node-id order — the thread
    // count cannot leak in.
    let alpha = spec.rebalance.ewma_alpha;
    for (n, s) in state.smoothed.iter_mut().enumerate() {
        *s = alpha * view.raw_signal(n) + (1.0 - alpha) * *s;
    }
    view.smoothed = Some(state.smoothed.clone());
    orders.rebounds = rebound_nodes(run, state, view, ei, &mut records);
    let decision = match pin {
        EpochPin::Pinned(d) if spec.rebalance.enabled => d,
        EpochPin::Live if spec.rebalance.enabled => {
            let bounds = spec.node_share.enabled.then_some(&state.bounds[..]);
            rebalance_epoch(run, view, ei, bounds)
        }
        _ => EpochDecision::default(),
    };
    if spec.rebalance.enabled {
        state.stats.epochs += 1;
    }
    state.stats.moves += decision.moves.len() as u64;
    state.stats.failed += decision.failed;
    let mut drained = vec![false; spec.nodes];
    // Each move is booked three ways: its statistics record, its journal
    // record (logged runs) and — the `Migration` itself — its worker order.
    for (seq, m) in decision.moves.iter().enumerate() {
        state.stats.records.push(MigrationRecord {
            epoch: ei as u64,
            fleet_id: m.fleet_id,
            vm: m.vm,
            from: m.from,
            to: m.to,
            demand: m.demand,
            dest_reserved_after: m.dest_reserved_after,
        });
        if run.log {
            records.push(FleetEvent::Migration {
                at: run.ends[ei],
                epoch: ei,
                seq: seq as u32,
                fleet_id: m.fleet_id,
                vm: m.vm,
                from: m.from,
                to: m.to,
                demand: m.demand,
                dest_reserved_after: m.dest_reserved_after,
                warm: m.warm,
                guest_warm: m.guest_warm.clone(),
            });
        }
        // A drained node sheds its pressure history with its load;
        // keeping the old EWMA would drain it again next epoch on stale
        // evidence. Halved once per drained *node*, however many units
        // left it this epoch.
        if !std::mem::replace(&mut drained[m.from], true) {
            state.smoothed[m.from] *= 0.5;
        }
    }
    (orders.moves, orders.failed) = (decision.moves, decision.failed);
    (orders, records)
}

/// Node-level share re-bounding, ahead of the rebalance decision of the
/// same epoch: a node that can absorb its own pressure in place stops
/// looking like a migration source, and a node that shed headroom stops
/// looking like a destination. Pure per-node folds over node-id-ordered
/// feedback — deterministic, and recomputed identically under pinned
/// replay (the pinned simulation reproduces the same feedback, hence the
/// same bounds). Returns the re-bounds `(node, new bound)`.
fn rebound_nodes(
    run: &Run,
    state: &mut LeaderState,
    view: &FeedbackView,
    ei: usize,
    records: &mut Vec<FleetEvent>,
) -> Vec<(usize, f64)> {
    let mut rebounds = Vec::new();
    if !run.spec.node_share.enabled {
        return rebounds;
    }
    for fb in &view.nodes {
        let n = fb.node;
        let (decision, trace) = state.ctls[n].step(&DemandSignal {
            consumed_bw: fb.utilisation,
            booked_bw: fb.reserved_bw,
            granted_bw: state.bounds[n],
            // Misses count as saturation evidence alongside supervisor
            // compressions: both mean the bound, not the demand, is the
            // binding constraint.
            compressions: fb.compressions + fb.misses,
        });
        let ShareDecision::Request(target) = decision else {
            continue;
        };
        if run.log {
            records.push(FleetEvent::NodeRebound {
                at: run.ends[ei],
                epoch: ei,
                node: n,
                prev: state.bounds[n],
                bound: target,
                demand: trace.demand,
                reserved: fb.reserved_bw,
                miss_rate: fb.miss_rate(),
                compressions: fb.compressions,
            });
        }
        state.bounds[n] = target;
        rebounds.push((n, target));
    }
    rebounds
}

/// One deterministic rebalance decision pass at boundary `ei`: rebuilds
/// the fleet's booked bandwidth from the tasks and VMs the nodes report
/// alive, then drains pressured nodes through the placer's admission
/// path. `bounds` carries the per-node supervisor bounds when node-level
/// re-bounding is on: a node that shed headroom below the static `U_lub`
/// gets the difference booked as phantom load, so migrations stop
/// treating capacity the node no longer grants as free.
fn rebalance_epoch(
    run: &Run,
    view: &FeedbackView,
    ei: usize,
    bounds: Option<&[f64]>,
) -> EpochDecision {
    let (spec, plan) = (run.spec, run.plan);
    let mut placer = Placer::new(spec.nodes, spec.ulub, spec.headroom, spec.policy);
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
        if p.task.arrival <= run.ends[ei] {
            continue;
        }
        if let (Some(node), Some(nominal)) = (p.node, p.task.kind.nominal()) {
            reserved[node] += placer.demand_of(nominal);
        }
    }
    for fb in &view.nodes {
        let tasks = fb.live_rt.iter().map(|t| placer.effective_demand(t));
        // VMs are booked at the *granted* share: an elastically-shrunk
        // one frees real headroom on its node, a grown one eats it.
        let vms = fb.live_vms.iter().map(|vm| vm.share);
        for demand in tasks.chain(vms) {
            reserved[fb.node] += demand;
        }
    }
    placer.sync_reserved(&reserved);
    placer.rebalance(view, &spec.rebalance)
}

/// Boundary `ei`'s journal batch: every worker's drained share `grants`,
/// what the feedback observed (compressions), what [`decide`] recorded
/// (`records`) and the rebalance pass itself, canonically sorted.
pub(crate) fn emit(
    run: &Run,
    ei: usize,
    view: &FeedbackView,
    orders: &EpochOrders,
    grants: Vec<FleetEvent>,
    mut records: Vec<FleetEvent>,
) -> Vec<FleetEvent> {
    let (at, mut batch) = (run.ends[ei], grants);
    for fb in view.nodes.iter().filter(|fb| fb.compressions > 0) {
        batch.push(FleetEvent::Compression {
            at,
            epoch: ei,
            node: fb.node,
            count: fb.compressions,
        });
    }
    batch.append(&mut records);
    // No phantom pass records in a node-share-only journal: the rebalance
    // event exists only when the rebalancer ran.
    if run.spec.rebalance.enabled {
        let snap = |n| NodeSnap {
            node: n,
            pressure: view.pressure(n),
            utilisation: view.utilisation(n),
        };
        batch.push(FleetEvent::Rebalance {
            at,
            epoch: ei,
            snapshot: (0..run.spec.nodes).map(snap).collect(),
            moves: orders.moves.len() as u64,
            failed: orders.failed,
        });
    }
    sort_events(&mut batch);
    batch
}

/// Boundary `ei` on one worker: apply the leader's orders to the owned
/// nodes — extraction on the source, re-admission on the destination.
/// The expensive part of a boundary, which every worker does for its own
/// share at once, with no lock held.
pub(crate) fn apply(run: &Run, ws: &mut WorkerState, orders: &EpochOrders, ei: usize) {
    let w = ws.w;
    // Position in `owned` of node `n`, if it is this worker's.
    let local = |n: usize| {
        let home = run.deal.home.get(n);
        home.and_then(|&(owner, i)| (owner == w).then_some(i))
    };
    // Re-bounds first: a migration landing this epoch is admitted under
    // the destination's *new* bound.
    for &(n, bound) in &orders.rebounds {
        if let Some(i) = local(n) {
            ws.owned[i].set_ulub(bound);
        }
    }
    for m in &orders.moves {
        if let Some(i) = local(m.from) {
            if m.vm {
                ws.owned[i].extract_vm(m.fleet_id);
            } else {
                ws.owned[i].extract_task(m.fleet_id);
            }
        }
        // A move onto its own source extracts only.
        let Some(i) = local(m.to).filter(|_| m.to != m.from) else {
            continue;
        };
        if m.vm {
            let base = &run.plan.vms[m.fleet_id].vm;
            // `guest_warm` is already gated at the producer: nodes only
            // build grants when rebalance runs with warm_start.
            let warm = |g: &NodeTask| {
                let carried = m.guest_warm.iter().find(|&&(id, _)| id == g.fleet_id);
                carried.map(|&(_, w)| w)
            };
            let guests = base.guests.iter();
            ws.owned[i].add_vm(NodeVm {
                fleet_vm_id: base.fleet_vm_id,
                label: format!("{}e{ei}", base.label),
                budget: base.budget,
                period: base.period,
                guests: guests
                    .map(|g| migrated_incarnation(run, g, ei, warm(g)))
                    .collect(),
                arrival: run.ends[ei],
                migrated: true,
                elastic: base.elastic,
            });
        } else {
            let base = &run.plan.tasks[m.fleet_id].task;
            let warm = m.warm.filter(|_| run.spec.rebalance.warm_start);
            ws.owned[i].add_task(migrated_incarnation(run, base, ei, warm));
        }
    }
}

/// The re-admitted incarnation of a migrated task (or VM guest): same
/// kind and lease, a fresh label and workload seed — it must not replay
/// its start-of-run phase — arriving at boundary `ei`. `warm` seeds its
/// detected period and a demand-sized budget instead of cold-starting.
fn migrated_incarnation(
    run: &Run,
    base: &NodeTask,
    ei: usize,
    warm: Option<WarmStart>,
) -> NodeTask {
    let incarnation = ((base.fleet_id as u64) << 16) | ei as u64;
    NodeTask {
        fleet_id: base.fleet_id,
        label: format!("{}e{ei}", base.label),
        kind: base.kind.clone(),
        arrival: run.ends[ei],
        departure: base.departure,
        seed: derive_task_seed(run.seed ^ SEED_MIGRATION_SALT, incarnation),
        migrated: true,
        warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{plan_fleet, ClusterRunner, LIVE};
    use crate::spec::{
        ArrivalSchedule, NodeFilter, NodeShareSpec, RebalanceSpec, TaskMix, TrafficPhase,
    };
    use selftune_core::share::ClampReason;
    use selftune_simcore::time::Dur;

    /// A logged run of `plan` on `workers` workers, ready for any stage.
    fn run_of<'a>(spec: &'a ScenarioSpec, plan: &'a FleetPlan, workers: usize) -> Run<'a> {
        Run {
            spec,
            seed: 7,
            plan,
            pins: &LIVE,
            interval: None,
            stop: None,
            log: true,
            sketch: false,
            ends: ClusterRunner::epoch_ends(spec),
            deal: deal(spec, plan, workers),
        }
    }

    /// Two nodes, eight tasks arriving 100 ms apart: the last one (700 ms)
    /// is planned past the 650 ms horizon.
    fn staggered() -> ScenarioSpec {
        ScenarioSpec::new("stages", 2, 8, Dur::ms(650))
            .with_mix(TaskMix::rt_only())
            .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(100) })
    }

    fn epochs(spec: ScenarioSpec, period_ms: u64) -> ScenarioSpec {
        spec.with_rebalance(RebalanceSpec {
            enabled: true,
            period: Dur::ms(period_ms),
            ewma_alpha: 0.5,
            ..RebalanceSpec::default()
        })
    }

    /// How many of node `n`'s planned tasks arrive by `t`.
    fn arrived_by(run: &Run, n: usize, t: Time) -> usize {
        let arrival = |&i: &u32| run.plan.tasks[i as usize].task.arrival;
        run.deal.tasks[n].iter().filter(|i| arrival(i) <= t).count()
    }

    /// The worker's arrival cursors, by node id.
    fn admitted(run: &Run, ws: &WorkerState) -> Vec<usize> {
        let mut by_node = vec![0; run.spec.nodes];
        for (&n, &cursor) in run.deal.owners[ws.w].iter().zip(&ws.cursors) {
            by_node[n] = cursor;
        }
        by_node
    }

    #[test]
    fn a_single_epoch_run_admits_everything_up_front() {
        let spec = staggered();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        assert_eq!(run.ends.len(), 1);
        let mut ws = WorkerState::default();
        admit_and_simulate(&run, &mut ws, 0);
        let planned: Vec<usize> = run.deal.tasks.iter().map(Vec::len).collect();
        assert_eq!(planned.iter().sum::<usize>(), 8, "rt-only fleet places all");
        assert_eq!(
            admitted(&run, &ws),
            planned,
            "the post-horizon straggler included"
        );
    }

    #[test]
    fn every_boundary_but_the_horizon_gates_arrivals_stop_or_no_stop() {
        let spec = epochs(staggered(), 250);
        let plan = plan_fleet(&spec, 7);
        for stop in [None, Some(0)] {
            let run = Run {
                stop,
                ..run_of(&spec, &plan, 1)
            };
            assert_eq!(run.ends.len(), 3);
            let mut ws = WorkerState::default();
            admit_and_simulate(&run, &mut ws, 0);
            let by_first: Vec<usize> = (0..2).map(|n| arrived_by(&run, n, run.ends[0])).collect();
            assert_eq!(by_first.iter().sum::<usize>(), 3, "0, 100 and 200 ms");
            assert_eq!(admitted(&run, &ws), by_first, "stop = {stop:?}");
            admit_and_simulate(&run, &mut ws, 1);
            let by_second: Vec<usize> = (0..2).map(|n| arrived_by(&run, n, run.ends[1])).collect();
            assert_eq!(admitted(&run, &ws), by_second);
            // Stragglers flush at the horizon and nowhere else.
            admit_and_simulate(&run, &mut ws, 2);
            let planned: Vec<usize> = run.deal.tasks.iter().map(Vec::len).collect();
            assert_eq!(admitted(&run, &ws), planned);
        }
    }

    #[test]
    fn phase_tasks_are_dealt_in_arrival_order_and_admitted_in_their_epoch() {
        // A flash crowd at 50 ms lands mid-stagger: its fleet ids (8..)
        // are higher than those of base tasks that arrive after it.
        let spec = epochs(staggered(), 250).with_phase(TrafficPhase {
            start: Dur::ms(50),
            end: Dur::ms(600),
            ramp: Dur::ms(20),
            tasks: 2,
            mix: TaskMix::rt_only(),
            nodes: NodeFilter::All,
        });
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut out_of_id_order = false;
        for ids in &run.deal.tasks {
            let arrivals: Vec<Time> = ids
                .iter()
                .map(|&i| plan.tasks[i as usize].task.arrival)
                .collect();
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
            out_of_id_order |= ids.windows(2).any(|w| w[0] > w[1]);
        }
        assert!(out_of_id_order, "the phase must interleave with the base");
        let mut ws = WorkerState::default();
        admit_and_simulate(&run, &mut ws, 0);
        let by_first: Vec<usize> = (0..2).map(|n| arrived_by(&run, n, run.ends[0])).collect();
        assert_eq!(by_first.iter().sum::<usize>(), 5, "three base + two phase");
        assert_eq!(admitted(&run, &ws), by_first);
    }

    fn feedback(node: usize, gaps: u64, misses: u64, compressions: u64) -> NodeFeedback {
        NodeFeedback {
            node,
            utilisation: 0.5,
            gaps,
            misses,
            compressions,
            reserved_bw: 0.4,
            ..NodeFeedback::default()
        }
    }

    fn view3() -> FeedbackView {
        FeedbackView {
            nodes: vec![
                feedback(0, 10, 4, 0),
                feedback(1, 10, 0, 3),
                feedback(2, 0, 0, 0),
            ],
            smoothed: None,
        }
    }

    fn task_move(fleet_id: usize, from: usize, to: usize) -> Migration {
        Migration {
            fleet_id,
            vm: false,
            from,
            to,
            demand: 0.2,
            dest_reserved_after: 0.6,
            warm: None,
            guest_warm: Vec::new(),
        }
    }

    fn three_nodes() -> ScenarioSpec {
        epochs(
            ScenarioSpec::new("stages", 3, 3, Dur::ms(900)).with_mix(TaskMix::rt_only()),
            300,
        )
    }

    #[test]
    fn decide_applies_a_pinned_decision_verbatim_and_halves_each_drained_node_once() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut state = LeaderState::new(&spec);
        state.smoothed = vec![0.2, 0.2, 0.2];
        let mut view = view3();
        let raw: Vec<f64> = (0..3).map(|n| view.raw_signal(n)).collect();
        let pin = EpochPin::Pinned(EpochDecision {
            moves: vec![task_move(0, 0, 1), task_move(1, 0, 2)],
            failed: 1,
        });
        let (orders, records) = decide(&run, &mut state, &mut view, pin, 1);

        assert!(!orders.stop);
        assert_eq!(orders.moves.len(), 2);
        assert!(orders.rebounds.is_empty(), "node share is off");
        assert_eq!(orders.failed, 1);
        let stats = &state.stats;
        assert_eq!((stats.epochs, stats.moves, stats.failed), (1, 2, 1));
        let booked: Vec<(u64, usize, usize)> = stats
            .records
            .iter()
            .map(|r| (r.epoch, r.fleet_id, r.to))
            .collect();
        assert_eq!(booked, [(1, 0, 1), (1, 1, 2)]);
        // EWMA at α = 0.5; eviction saw the un-halved value, and node 0 —
        // drained twice — is halved once.
        let folded: Vec<f64> = raw.iter().map(|r| 0.5 * r + 0.5 * 0.2).collect();
        assert_eq!(view.smoothed.as_deref(), Some(&folded[..]));
        assert_eq!(state.smoothed, [folded[0] * 0.5, folded[1], folded[2]]);
        let seqs: Vec<u32> = records
            .iter()
            .map(|e| match e {
                FleetEvent::Migration { seq, epoch: 1, .. } => *seq,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn decide_live_counts_the_pass_and_moves_nothing_on_a_calm_fleet() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = Run {
            log: false,
            ..run_of(&spec, &plan, 1)
        };
        let mut state = LeaderState::new(&spec);
        let calm = (0..3).map(|n| feedback(n, 10, 0, 0)).collect();
        let mut view = FeedbackView {
            nodes: calm,
            smoothed: None,
        };
        let (orders, records) = decide(&run, &mut state, &mut view, EpochPin::Live, 0);
        assert!(orders.moves.is_empty() && !orders.stop);
        assert_eq!((state.stats.epochs, state.stats.moves), (1, 0));
        assert_eq!(state.smoothed, [0.0; 3]);
        assert!(records.is_empty(), "an unlogged run builds no records");
    }

    #[test]
    fn decide_stop_orders_the_stop_and_touches_nothing() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut state = LeaderState::new(&spec);
        state.smoothed = vec![0.3; 3];
        let mut view = view3();
        let (orders, records) = decide(&run, &mut state, &mut view, EpochPin::Stop, 1);
        assert!(orders.stop);
        assert!(orders.moves.is_empty() && records.is_empty());
        assert_eq!((state.stats.epochs, state.stats.moves), (0, 0));
        assert_eq!(state.smoothed, [0.3; 3]);
        assert!(view.smoothed.is_none());
    }

    fn node_share_only() -> ScenarioSpec {
        let mut spec = three_nodes().with_node_share(NodeShareSpec {
            enabled: true,
            floor: 0.5,
            cap: 0.95,
        });
        spec.rebalance.enabled = false;
        spec
    }

    #[test]
    fn decide_without_the_rebalancer_ignores_pins_but_still_rebounds() {
        let spec = node_share_only();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        assert_eq!(run.ends.len(), 3, "node share alone cuts the epoch grid");
        let mut state = LeaderState::new(&spec);
        let mut view = view3();
        let pin = EpochPin::Pinned(EpochDecision {
            moves: vec![task_move(0, 0, 1)],
            failed: 0,
        });
        let (orders, records) = decide(&run, &mut state, &mut view, pin, 0);
        assert!(orders.moves.is_empty());
        assert_eq!((state.stats.epochs, state.stats.moves), (0, 0));
        // Every order is a bound now in force and has its record.
        for &(n, bound) in &orders.rebounds {
            assert_eq!(state.bounds[n], bound);
        }
        assert_eq!(records.len(), orders.rebounds.len());
    }

    fn grant(at: Time) -> FleetEvent {
        FleetEvent::ShareGrant {
            at,
            node: 2,
            fleet_vm_id: 0,
            demand: 0.3,
            target: 0.3,
            granted: 0.3,
            compressed: false,
            clamp: ClampReason::None,
            pending: None,
            available: 0.9,
        }
    }

    fn rebound(at: Time) -> FleetEvent {
        FleetEvent::NodeRebound {
            at,
            epoch: 1,
            node: 0,
            prev: 0.9,
            bound: 0.95,
            demand: 0.97,
            reserved: 0.88,
            miss_rate: 0.4,
            compressions: 0,
        }
    }

    #[test]
    fn emit_batches_grants_observations_and_decisions_in_canonical_order() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut state = LeaderState::new(&spec);
        let mut view = view3();
        let pin = EpochPin::Pinned(EpochDecision {
            moves: vec![task_move(0, 0, 1)],
            failed: 2,
        });
        let (orders, mut records) = decide(&run, &mut state, &mut view, pin, 1);
        let at = run.ends[1];
        records.insert(0, rebound(at));
        let batch = emit(&run, 1, &view, &orders, vec![grant(at)], records);

        let mut sorted = batch.clone();
        sort_events(&mut sorted);
        assert_eq!(batch, sorted);
        assert!(
            matches!(
                &batch[..],
                [
                    FleetEvent::Compression { node: 1, count: 3, epoch: 1, .. },
                    FleetEvent::NodeRebound { .. },
                    FleetEvent::Rebalance { moves: 1, failed: 2, epoch: 1, snapshot, .. },
                    FleetEvent::Migration { seq: 0, fleet_id: 0, .. },
                    FleetEvent::ShareGrant { .. },
                ] if snapshot.len() == 3 && snapshot[0].pressure == view.pressure(0)
            ),
            "{batch:?}"
        );
        assert!(batch.iter().all(|e| e.at() == at));
    }

    #[test]
    fn emit_records_no_rebalance_pass_in_a_node_share_only_run() {
        let spec = node_share_only();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut state = LeaderState::new(&spec);
        let mut view = view3();
        let (orders, records) = decide(&run, &mut state, &mut view, EpochPin::Live, 0);
        let rebounds = records.len();
        let batch = emit(&run, 0, &view, &orders, Vec::new(), records);
        assert_eq!(batch.len(), 1 + rebounds, "one compression + the rebounds");
        let phantom = |e: &FleetEvent| matches!(e, FleetEvent::Rebalance { .. });
        assert!(!batch.iter().any(phantom), "{batch:?}");
    }

    #[test]
    fn an_interim_is_reduced_against_the_stats_of_earlier_boundaries_only() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 1);
        let mut state = LeaderState::new(&spec);
        let first = EpochPin::Pinned(EpochDecision {
            moves: vec![task_move(0, 0, 1)],
            failed: 0,
        });
        decide(&run, &mut state, &mut view3(), first, 0);

        // Boundary 1, in the leader's order: reduce, then decide.
        let reports = |_| {
            let rep = |n| NodeReport::from_tasks(n, Vec::new(), 0.1, 0.1, 0);
            (0..3).rev().map(rep).collect::<Vec<_>>()
        };
        let interim = reduce(&run, reports(()), state.stats.clone());
        let second = EpochPin::Pinned(EpochDecision {
            moves: vec![task_move(1, 0, 2), task_move(2, 1, 2)],
            failed: 1,
        });
        decide(&run, &mut state, &mut view3(), second, 1);
        let r = &interim.rebalance;
        assert_eq!((r.epochs, r.moves, r.failed, r.records.len()), (1, 1, 0, 1));
        assert_eq!((state.stats.epochs, state.stats.moves), (2, 3));
        // The finale is the same reduction over the final stats, and
        // reports come back in node-id order however they were posted.
        let finale = reduce(&run, reports(()), state.stats.clone());
        assert_eq!(finale.rebalance.records.len(), 3);
        let order: Vec<usize> = finale.nodes.iter().map(|n| n.node).collect();
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(finale.admission, plan.admission);
    }

    #[test]
    fn the_board_hands_over_in_node_order_whatever_the_deal() {
        let spec = three_nodes();
        let plan = plan_fleet(&spec, 7);
        let run = run_of(&spec, &plan, 2);
        let mut board = EpochBoard::new(2);
        for w in [1, 0] {
            let mut ws = WorkerState {
                w,
                ..WorkerState::default()
            };
            admit_and_simulate(&run, &mut ws, 0);
            board.posted[w] = Some(publish(&run, &mut ws, 0, true));
        }
        let all = board.take();
        let nodes: Vec<usize> = all.feedback.iter().map(|fb| fb.node).collect();
        assert_eq!(nodes, [0, 1, 2]);
        assert_eq!(all.reports.len(), 3);
        let interim = reduce(&run, all.reports, RebalanceStats::default());
        let nodes: Vec<usize> = interim.nodes.iter().map(|n| n.node).collect();
        assert_eq!(nodes, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "worker 1 posted nothing at this boundary")]
    fn a_worker_that_fails_to_post_is_a_named_panic_not_a_stale_snapshot() {
        let mut board = EpochBoard::new(2);
        let published = |node| Published {
            feedback: vec![feedback(node, 0, 0, 0)],
            ..Published::default()
        };
        board.posted[0] = Some(published(0));
        board.posted[1] = Some(published(1));
        assert_eq!(board.take().feedback.len(), 2);
        // Next boundary: worker 1 never posts.
        board.posted[0] = Some(published(0));
        board.take();
    }
}
