//! Cross-node admission control: which node, if any, takes a reservation.
//!
//! The placer is the fleet-level counterpart of the per-node
//! [`selftune_sched::Supervisor`]: before a real-time task is handed to a
//! node it must pass the node's bandwidth bound with the *minimum* budget
//! the schedulability analysis ([`selftune_analysis::min_bandwidth_single`])
//! says the task needs — inflated by the scenario's headroom factor, since
//! the LFS++ controller will request a margin above the measured demand.
//!
//! Placement is a pure function of the task sequence: it never looks at
//! simulation state, so the plan is identical no matter how many threads
//! later execute the nodes.

use std::collections::BTreeSet;

use selftune_analysis::{min_bandwidth_single, PeriodicTask};

use crate::index::{fit_threshold, HeadroomIndex};
use crate::node::{NodeFeedback, WarmStart};
use crate::spec::RebalanceSpec;

/// Which placement policy orders the candidate nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Lowest node id that fits (packs early nodes first).
    FirstFit,
    /// Least-reserved node first (spreads load; "worst fit").
    WorstFit,
    /// Tightest fit first: the node whose remaining bandwidth after
    /// admission would be smallest (packs densely, keeps whole nodes free
    /// for large arrivals).
    BandwidthAware,
}

impl PolicyKind {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FirstFit => "first-fit",
            PolicyKind::WorstFit => "worst-fit",
            PolicyKind::BandwidthAware => "bandwidth-aware",
        }
    }
}

/// Outcome of one placement decision — the value an admission record
/// carries as-is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementOutcome {
    /// Admitted onto a node.
    Admitted {
        /// The node that took the task.
        node: usize,
        /// Bandwidth booked on that node.
        demand: f64,
        /// Candidates that rejected the task before one admitted it
        /// (each rejection migrates the request to the next candidate);
        /// 0 for an admission with a ban mask.
        migrations: u32,
    },
    /// No node could take the task.
    Rejected {
        /// Bandwidth the task would have needed.
        demand: f64,
        /// The largest spare bandwidth any node had at decision time —
        /// the witness that rejection was necessary.
        best_spare: f64,
    },
}

impl PlacementOutcome {
    /// The node that took the unit; `None` for a rejection.
    pub(crate) fn node(&self) -> Option<usize> {
        match *self {
            PlacementOutcome::Admitted { node, .. } => Some(node),
            PlacementOutcome::Rejected { .. } => None,
        }
    }
}

/// The fleet's live per-node load, as reported by the nodes themselves at
/// an epoch boundary — measurement, not nominal demand.
#[derive(Clone, Debug, Default)]
pub struct FeedbackView {
    /// Per-node feedback snapshots, in node-id order.
    pub nodes: Vec<NodeFeedback>,
    /// Cross-epoch smoothed pressure per node, when the caller maintains
    /// one (the runner's EWMA); eviction then reads this instead of the
    /// raw epoch signal, giving threshold oscillation hysteresis.
    pub smoothed: Option<Vec<f64>>,
}

impl FeedbackView {
    /// Nodes reporting a busy fraction above this are never chosen as
    /// migration destinations, even when their reservations have room —
    /// a hog-saturated node shows no RT misses but is no place to land.
    pub(crate) const DEST_UTIL_CAP: f64 = 0.97;

    /// Weight of the per-task compression-event rate in the raw pressure
    /// signal: a node whose supervisor curbs one grant per live task per
    /// epoch reads as this much extra pressure.
    pub(crate) const COMPRESSION_WEIGHT: f64 = 0.1;

    /// Raw (single-epoch) migration pressure of a node: its measured
    /// deadline-miss rate over the last epoch.
    ///
    /// A node with live real-time work, *zero* completion gaps and a
    /// saturated CPU is not healthy — it is so starved its tasks finished
    /// nothing all epoch, which no miss ratio can express. That state
    /// reads as maximal pressure. (Zero gaps on an unsaturated node — a
    /// long-period task between completions, or tasks that just arrived —
    /// stays zero pressure.)
    pub(crate) fn raw_pressure(&self, node: usize) -> f64 {
        let fb = &self.nodes[node];
        let live = !fb.live_rt.is_empty() || !fb.live_vms.is_empty();
        if fb.gaps == 0 && live && fb.utilisation > Self::DEST_UTIL_CAP {
            return 1.0;
        }
        fb.miss_rate()
    }

    /// Raw pressure plus the supervisor-compression term: the per-epoch
    /// signal the runner's EWMA accumulates. Compression events are a
    /// leading indicator — grants get curbed before misses pile up.
    pub(crate) fn raw_signal(&self, node: usize) -> f64 {
        let fb = &self.nodes[node];
        let units = (fb.live_rt.len() + fb.live_vms.len()).max(1) as f64;
        let compression = Self::COMPRESSION_WEIGHT * (fb.compressions as f64 / units);
        (self.raw_pressure(node) + compression).min(1.0)
    }

    /// The pressure eviction acts on: the smoothed signal when present,
    /// the raw per-epoch pressure otherwise.
    pub fn pressure(&self, node: usize) -> f64 {
        match &self.smoothed {
            Some(s) => s[node],
            None => self.raw_pressure(node),
        }
    }

    /// Measured CPU busy fraction of a node over the last epoch.
    pub fn utilisation(&self, node: usize) -> f64 {
        self.nodes[node].utilisation
    }
}

/// One live real-time task, as seen by the rebalancer.
#[derive(Clone, Copy, Debug)]
pub struct LiveTask {
    /// Fleet-wide task id.
    pub fleet_id: usize,
    /// Node currently running it.
    pub node: usize,
    /// Nominal `(C, P)` the task declared at admission.
    pub nominal: PeriodicTask,
    /// CPU bandwidth the task measurably consumed over the last epoch.
    pub measured_bw: f64,
    /// Whether the task is a migration candidate (resident on its node for
    /// a full epoch). Non-movable tasks still count toward booked
    /// bandwidth.
    pub movable: bool,
    /// The granted reservation at snapshot time — carried to the
    /// destination for a warm start when the task migrates.
    pub granted: Option<WarmStart>,
}

/// One live virtual platform, as seen by the rebalancer: a single move
/// unit booked at its *granted* share.
#[derive(Clone, Debug)]
pub struct LiveVmUnit {
    /// Fleet-wide VM id.
    pub fleet_vm_id: usize,
    /// Node currently hosting it.
    pub node: usize,
    /// The VM's granted share `Q/T` — what a destination must book. For
    /// an elastic VM this is the controller's live grant, so a shrunk
    /// tenant frees real placement headroom.
    pub share: f64,
    /// Whether the VM is a migration candidate (resident for a full
    /// epoch).
    pub movable: bool,
    /// Whether a host-level share controller absorbs this VM's pressure
    /// locally; elastic VMs are never chosen as eviction victims.
    pub elastic: bool,
    /// Granted inner reservations of the VM's attached guests,
    /// `(fleet task id, grant)` — carried to the destination for
    /// per-guest warm starts.
    pub guest_grants: Vec<(usize, WarmStart)>,
}

/// One placement unit: a flat task or a whole virtual platform, by its
/// fleet id. The derived order (tasks before VMs, then the lower id) is
/// the rebalancer's victim tie-break.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// A flat task, by fleet task id.
    Task(usize),
    /// A virtual platform, by fleet VM id.
    Vm(usize),
}

/// One migration decision from a rebalance pass — the value the journal,
/// the pin tables and the run statistics carry as-is.
#[derive(Clone, Debug, PartialEq)]
pub struct Migration {
    /// The unit to move.
    pub unit: Unit,
    /// Source node (extract here).
    pub from: usize,
    /// Destination node (re-admit here).
    pub to: usize,
    /// Bandwidth booked on the destination.
    pub demand: f64,
    /// Destination booked bandwidth right after admission.
    pub dest_reserved_after: f64,
    /// Carried controller state for warm-starting the destination (flat
    /// tasks only).
    pub warm: Option<WarmStart>,
    /// Carried per-guest grants for a VM move: the destination seeds each
    /// guest's manager with its detected period and a demand-sized budget
    /// instead of cold-starting the whole tenant.
    pub guest_warm: Vec<(usize, WarmStart)>,
}

/// The decisions of one rebalance pass.
#[derive(Clone, Debug, Default)]
pub struct RebalanceOutcome {
    /// Migrations to apply, in decision order.
    pub moves: Vec<Migration>,
    /// Evictions that found no admissible destination.
    pub failed: u64,
}

/// Fleet-level admission bookkeeping.
///
/// Tracks per-node reserved bandwidth over the arrival/departure timeline;
/// all methods are deterministic in call order.
#[derive(Clone, Debug)]
pub struct Placer {
    ulub: f64,
    headroom: f64,
    policy: PolicyKind,
    reserved: Vec<f64>,
    /// Best-effort task counts, for spreading unreserved work.
    best_effort: Vec<u64>,
    /// Best-effort counts ordered `(count, node)`.
    be_order: BTreeSet<(u64, usize)>,
    /// Pending releases: `(release_at_ns, node, demand)`.
    releases: Vec<(u64, usize, f64)>,
    /// O(log n) query views over `reserved`; suspension is how a ban
    /// reaches them.
    index: HeadroomIndex,
}

impl Placer {
    /// A placer over `nodes` empty nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ulub <= 1`, `headroom >= 1` and `nodes > 0`.
    pub fn new(nodes: usize, ulub: f64, headroom: f64, policy: PolicyKind) -> Placer {
        assert!(nodes > 0, "placer needs at least one node");
        assert!(ulub > 0.0 && ulub <= 1.0, "ulub {ulub} out of (0, 1]");
        assert!(headroom >= 1.0, "headroom {headroom} below 1");
        Placer {
            ulub,
            headroom,
            policy,
            reserved: vec![0.0; nodes],
            best_effort: vec![0; nodes],
            be_order: (0..nodes).map(|i| (0u64, i)).collect(),
            releases: Vec::new(),
            index: HeadroomIndex::new(&vec![0.0; nodes]),
        }
    }

    /// Currently booked bandwidth per node.
    pub fn reserved(&self) -> &[f64] {
        &self.reserved
    }

    /// Writes one node's booked bandwidth, keeping the index in sync.
    fn set_reserved(&mut self, node: usize, value: f64) {
        self.reserved[node] = value;
        self.index.set(node, value);
    }

    /// The bandwidth the placer books for `task`: the minimum schedulable
    /// bandwidth of a dedicated server at the task's own period, times the
    /// headroom factor, capped at 1.
    pub(crate) fn demand_of(&self, task: PeriodicTask) -> f64 {
        (min_bandwidth_single(task, task.period) * self.headroom).min(1.0)
    }

    /// Releases every reservation scheduled to end at or before `now_ns`.
    pub(crate) fn release_due(&mut self, now_ns: u64) {
        let mut i = 0;
        while i < self.releases.len() {
            if self.releases[i].0 <= now_ns {
                let (_, node, demand) = self.releases.swap_remove(i);
                self.set_reserved(node, (self.reserved[node] - demand).max(0.0));
            } else {
                i += 1;
            }
        }
    }

    /// Places a real-time task arriving at `now_ns`, optionally departing
    /// at `departs_ns`: [`Placer::admit`] of the task's minbudget demand,
    /// on any node.
    pub fn place(
        &mut self,
        task: PeriodicTask,
        now_ns: u64,
        departs_ns: Option<u64>,
    ) -> PlacementOutcome {
        self.admit(self.demand_of(task), now_ns, departs_ns, None)
    }

    /// The one admission decision: books `demand`, arriving at `now_ns`
    /// and optionally departing at `departs_ns`, on the policy's node among
    /// those not `banned`. A nominal task books its minbudget demand
    /// ([`Placer::place`]), a VM its share as given, and a traffic-phase
    /// task is banned from the nodes outside its slice.
    ///
    /// Walks the policy's candidate order; each node that fails the
    /// admission test migrates the request to the next. Never admits a
    /// task onto a node where the booked bandwidth would exceed `ulub`.
    /// Under a ban `migrations` is reported as 0: the filtered walk does
    /// not count bounced candidates. A rejection's witness is the largest
    /// spare bandwidth of a candidate node, or 0 when every node is banned.
    ///
    /// # Panics
    ///
    /// Panics if `banned` has more entries than there are nodes.
    pub fn admit(
        &mut self,
        demand: f64,
        now_ns: u64,
        departs_ns: Option<u64>,
        banned: Option<&[bool]>,
    ) -> PlacementOutcome {
        self.release_due(now_ns);
        if let Some(banned) = banned {
            self.suspend(banned, true);
        }
        let outcome = match self.fit(demand) {
            Some((node, bounced)) => {
                self.set_reserved(node, self.reserved[node] + demand);
                if let Some(at) = departs_ns {
                    self.releases.push((at, node, demand));
                }
                PlacementOutcome::Admitted {
                    node,
                    demand,
                    migrations: if banned.is_some() { 0 } else { bounced },
                }
            }
            // The scan's witness folds max over `ulub - reserved`;
            // subtraction from a fixed minuend is anti-monotone, so the max
            // is exactly `ulub - min reserved`. Nothing on offer leaves a
            // finite 0 the journal can write and re-read.
            None => PlacementOutcome::Rejected {
                demand,
                best_spare: self
                    .index
                    .min_reserved()
                    .map_or(0.0, |(r, _)| self.ulub - r),
            },
        };
        if let Some(banned) = banned {
            self.suspend(banned, false);
        }
        outcome
    }

    /// The node `demand` fits on under the policy, among the nodes not
    /// suspended, plus how many candidates the policy's order tried before
    /// it (the `migrations` count of an unbanned admission). Books nothing.
    /// Its reference is the linear walk of the policy's candidate order,
    /// `scan_fit` in this file's tests.
    fn fit(&self, demand: f64) -> Option<(usize, u32)> {
        let t = fit_threshold(self.ulub, demand)?;
        let idx = &self.index;
        match self.policy {
            // Candidate order is the identity, so the scan bounced off
            // exactly `node` lower ids before the leftmost fit.
            PolicyKind::FirstFit => idx.first_fit(t).map(|node| (node, node as u32)),
            // Ascending load order: the very first candidate is the global
            // minimum; if it does not fit, nothing fuller can.
            PolicyKind::WorstFit => {
                let (r, node) = idx.min_reserved()?;
                (r <= t).then_some((node, 0))
            }
            // Descending load order, ties to the lower id: the winner is
            // the fullest fitting load class's lowest id, and every node
            // strictly fuller was tried (and rejected) before it.
            PolicyKind::BandwidthAware => idx
                .tightest_fit(t)
                .map(|(r, node)| (node, idx.count_heavier(r) as u32)),
        }
    }

    /// Takes the `banned` nodes out of the index's query views (`on`) or
    /// puts them back. Suspension removes a node from the load order
    /// without disturbing the others' ties, so `fit` then finds the winner
    /// the reference scan finds after skipping banned ids.
    fn suspend(&mut self, banned: &[bool], on: bool) {
        for node in (0..banned.len()).filter(|&node| banned[node]) {
            if on {
                self.index.suspend(node);
            } else {
                self.index.restore(node);
            }
        }
    }

    /// Places a best-effort task: least-loaded node by best-effort count,
    /// ties to the lower id. Best-effort work is never rejected.
    pub(crate) fn place_best_effort(&mut self) -> usize {
        let &(_, node) = self.be_order.first().expect("at least one node");
        let count = self.best_effort[node];
        self.be_order.remove(&(count, node));
        self.be_order.insert((count + 1, node));
        self.best_effort[node] = count + 1;
        node
    }

    /// Overwrites the per-node booked bandwidth with an externally computed
    /// live view (the rebalancer rebuilds it each epoch from the tasks the
    /// nodes report alive, so departures and extractions are reflected).
    ///
    /// # Panics
    ///
    /// Panics if `reserved` does not have one entry per node.
    pub(crate) fn sync_reserved(&mut self, reserved: &[f64]) {
        assert_eq!(reserved.len(), self.reserved.len(), "node count mismatch");
        self.reserved.copy_from_slice(reserved);
        self.releases.clear();
        self.index.rebuild(reserved);
    }

    /// What feedback-informed placement books for a live real-time task:
    /// the larger of its nominal minbudget demand and its *measured* epoch
    /// bandwidth (inflated by the headroom factor and the caller's
    /// `starvation` multiplier, capped at 1). This is the single booking
    /// rule shared by the epoch reserved-state rebuild (`starvation = 1`)
    /// and the rebalancer's victim sizing — journal records and live
    /// decisions can never disagree on the math.
    pub(crate) fn live_booking(
        &self,
        nominal: PeriodicTask,
        measured_bw: f64,
        starvation: f64,
    ) -> f64 {
        self.demand_of(nominal)
            .max((measured_bw * self.headroom * starvation).min(1.0))
    }

    /// [`Placer::live_booking`] of a live task with no starvation
    /// inflation: a task whose claim understates its appetite is booked at
    /// what it was seen to burn — so a drained node cannot simply re-melt
    /// its destination.
    pub(crate) fn effective_demand(&self, task: &LiveTask) -> f64 {
        self.live_booking(task.nominal, task.measured_bw, 1.0)
    }

    /// One feedback-driven rebalance pass over the live tasks and VMs the
    /// nodes of `view` report.
    ///
    /// Nodes whose measured pressure exceeds `cfg.pressure` are drained in
    /// descending-pressure order (ties to the lower id): their movable
    /// tasks are evicted largest-demand-first and re-placed on the policy's
    /// node among the non-banned ones, until no admissible destination
    /// remains or the fleet-wide `cfg.max_moves` cap is reached. The drain
    /// is deliberately *not* bounded by nominal bandwidth balance: a node
    /// can be perfectly balanced on paper and still melting in
    /// measurement (that gap is the whole reason this pass exists), so
    /// pressure keeps evacuating it epoch by epoch until the feedback
    /// clears. Pure bookkeeping: the caller applies the returned moves to
    /// the simulated nodes.
    pub(crate) fn rebalance(
        &mut self,
        view: &FeedbackView,
        cfg: &RebalanceSpec,
    ) -> RebalanceOutcome {
        let nodes = self.reserved.len();
        let mut pressured: Vec<usize> = (0..nodes)
            .filter(|&n| view.pressure(n) > cfg.pressure)
            .collect();
        pressured.sort_by(|&a, &b| {
            view.pressure(b)
                .partial_cmp(&view.pressure(a))
                .expect("NaN pressure")
                .then(a.cmp(&b))
        });
        // A node is no destination if it is itself pressured, or if it
        // reports saturation (e.g. hog-bound) without any missing RT task.
        let banned: Vec<bool> = (0..nodes)
            .map(|n| {
                view.pressure(n) > cfg.pressure || view.utilisation(n) > FeedbackView::DEST_UTIL_CAP
            })
            .collect();
        let mut out = RebalanceOutcome::default();
        struct Victim {
            demand: f64,
            unit: Unit,
            warm: Option<WarmStart>,
            guest_warm: Vec<(usize, WarmStart)>,
        }
        // Group victim candidates per pressured source in ONE pass over
        // the live sets — the previous shape re-filtered every live task
        // for every drained node, O(sources × live), which is real money
        // at 10k nodes. Bucket order is live order, exactly what the
        // per-source filters used to see.
        let mut slot = vec![usize::MAX; nodes];
        for (k, &from) in pressured.iter().enumerate() {
            slot[from] = k;
        }
        // A task fleeing a missing node was measured while starved: it
        // consumed what it was *granted*, not what it needs. Book it at
        // the measurement inflated by the source's miss rate (a task
        // slipping every deadline by a full period needs roughly twice
        // what it was seen to burn).
        let starvation: Vec<f64> = pressured.iter().map(|&n| 1.0 + view.pressure(n)).collect();
        let mut buckets: Vec<Vec<Victim>> = pressured.iter().map(|_| Vec::new()).collect();
        for t in view.nodes.iter().flat_map(|fb| &fb.live_rt) {
            let k = slot[t.node];
            if !t.movable || k == usize::MAX {
                continue;
            }
            let demand = self.live_booking(t.nominal, t.measured_bw, starvation[k]);
            // The warm hand-over budget is floored at what this pass
            // books on the destination (see `WarmStart::demand_sized`).
            let warm = t
                .granted
                .map(|g| WarmStart::demand_sized(g.budget, g.period, demand));
            buckets[k].push(Victim {
                demand,
                unit: Unit::Task(t.fleet_id),
                warm,
                guest_warm: Vec::new(),
            });
        }
        // Victim candidates also include whole virtual platforms (booked
        // at their granted share — a VM's consumption cannot exceed it,
        // so no starvation inflation applies). *Elastic* VMs are exempt:
        // their pressure is already being absorbed by the host-level
        // share controller, and yanking the tenant would discard that
        // loop's state for a problem it is actively solving.
        for v in view.nodes.iter().flat_map(|fb| &fb.live_vms) {
            let k = slot[v.node];
            if !v.movable || v.elastic || k == usize::MAX {
                continue;
            }
            buckets[k].push(Victim {
                demand: v.share,
                unit: Unit::Vm(v.fleet_vm_id),
                warm: None,
                guest_warm: v.guest_grants.clone(),
            });
        }
        // Suspend every banned node from the index once for the whole
        // pass; sources are themselves banned, so their reserved
        // decrements below only reach the query views at the restore.
        self.suspend(&banned, true);
        'drain: for (k, &from) in pressured.iter().enumerate() {
            let mut victims = std::mem::take(&mut buckets[k]);
            // Largest demand first moves the most load per migration; ties
            // break tasks before VMs, then on the lower id.
            victims.sort_by(|a, b| {
                b.demand
                    .partial_cmp(&a.demand)
                    .expect("NaN demand")
                    .then(a.unit.cmp(&b.unit))
            });
            for v in victims {
                if out.moves.len() as u32 >= cfg.max_moves {
                    break 'drain;
                }
                match self.fit(v.demand) {
                    Some((to, _)) => {
                        self.set_reserved(to, self.reserved[to] + v.demand);
                        self.set_reserved(from, (self.reserved[from] - v.demand).max(0.0));
                        out.moves.push(Migration {
                            unit: v.unit,
                            from,
                            to,
                            demand: v.demand,
                            dest_reserved_after: self.reserved[to],
                            warm: v.warm,
                            guest_warm: v.guest_warm,
                        });
                    }
                    None => out.failed += 1,
                }
            }
        }
        self.suspend(&banned, false);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn task(wcet: f64, period: f64) -> PeriodicTask {
        PeriodicTask::new(wcet, period)
    }

    #[test]
    fn first_fit_packs_low_ids() {
        let mut p = Placer::new(3, 0.9, 1.0, PolicyKind::FirstFit);
        for _ in 0..4 {
            match p.place(task(20.0, 100.0), 0, None) {
                PlacementOutcome::Admitted { node, .. } => assert_eq!(node, 0),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Node 0 is at 0.8; the fifth 20% task must spill to node 1.
        match p.place(task(20.0, 100.0), 0, None) {
            PlacementOutcome::Admitted {
                node, migrations, ..
            } => {
                assert_eq!(node, 1);
                assert_eq!(migrations, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn worst_fit_spreads() {
        let mut p = Placer::new(3, 0.9, 1.0, PolicyKind::WorstFit);
        let nodes: Vec<usize> = (0..6)
            .map(|_| match p.place(task(10.0, 100.0), 0, None) {
                PlacementOutcome::Admitted { node, .. } => node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn bandwidth_aware_packs_tightest() {
        let mut p = Placer::new(2, 0.9, 1.0, PolicyKind::BandwidthAware);
        // Seed asymmetric load: 40% on node 0.
        let _ = p.place(task(40.0, 100.0), 0, None);
        // A 30% task fits on both; tightest fit is node 0 (0.4 + 0.3).
        match p.place(task(30.0, 100.0), 0, None) {
            PlacementOutcome::Admitted { node, .. } => assert_eq!(node, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_exceeds_ulub_and_rejects_with_witness() {
        let mut p = Placer::new(2, 0.5, 1.0, PolicyKind::FirstFit);
        let mut admitted = 0;
        for _ in 0..10 {
            match p.place(task(20.0, 100.0), 0, None) {
                PlacementOutcome::Admitted { .. } => admitted += 1,
                PlacementOutcome::Rejected { demand, best_spare } => {
                    assert!(demand > best_spare + 1e-12);
                }
            }
            for &r in p.reserved() {
                assert!(r <= 0.5 + 1e-9, "reserved {r} over ulub");
            }
        }
        // Two 20% tasks per node fit under 0.5; the rest bounce.
        assert_eq!(admitted, 4);
    }

    #[test]
    fn departures_free_bandwidth() {
        let mut p = Placer::new(1, 0.5, 1.0, PolicyKind::FirstFit);
        let _ = p.place(task(40.0, 100.0), 0, Some(1_000));
        match p.place(task(40.0, 100.0), 500, None) {
            PlacementOutcome::Rejected { .. } => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        match p.place(task(40.0, 100.0), 1_000, None) {
            PlacementOutcome::Admitted { node, .. } => assert_eq!(node, 0),
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn headroom_inflates_demand() {
        let p1 = Placer::new(1, 0.9, 1.0, PolicyKind::FirstFit);
        let p2 = Placer::new(1, 0.9, 1.5, PolicyKind::FirstFit);
        let t = task(20.0, 100.0);
        let d1 = p1.demand_of(t);
        let d2 = p2.demand_of(t);
        assert!(d2 > d1 * 1.49 && d2 < d1 * 1.51, "{d1} vs {d2}");
    }

    #[test]
    fn live_booking_is_the_single_booking_rule() {
        let p = Placer::new(1, 0.9, 1.2, PolicyKind::FirstFit);
        let t = LiveTask {
            fleet_id: 0,
            node: 0,
            nominal: task(10.0, 100.0),
            measured_bw: 0.3,
            movable: true,
            granted: None,
        };
        // No starvation: effective_demand IS live_booking at factor 1.
        assert_eq!(
            p.effective_demand(&t),
            p.live_booking(t.nominal, t.measured_bw, 1.0)
        );
        // Starvation inflates the measured side only, capped at 1.
        let inflated = p.live_booking(t.nominal, t.measured_bw, 1.5);
        assert!((inflated - 0.3 * 1.2 * 1.5).abs() < 1e-12, "{inflated}");
        assert_eq!(p.live_booking(t.nominal, 0.9, 2.0), 1.0);
        // The nominal floor still wins when the measurement is tiny.
        assert_eq!(p.live_booking(t.nominal, 0.0, 1.0), p.demand_of(t.nominal));
    }

    fn view(miss_rates: &[f64], utils: &[f64]) -> FeedbackView {
        FeedbackView {
            nodes: miss_rates
                .iter()
                .zip(utils)
                .enumerate()
                .map(|(i, (&mr, &u))| NodeFeedback {
                    node: i,
                    utilisation: u,
                    gaps: 100,
                    misses: (mr * 100.0).round() as u64,
                    compressions: 0,
                    reserved_bw: 0.0,
                    live_rt: Vec::new(),
                    live_vms: Vec::new(),
                })
                .collect(),
            smoothed: None,
        }
    }

    /// `view` with each live unit filed under the node it names.
    fn with_live(mut view: FeedbackView, live: &[LiveTask], vms: &[LiveVmUnit]) -> FeedbackView {
        for t in live {
            view.nodes[t.node].live_rt.push(*t);
        }
        for v in vms {
            view.nodes[v.node].live_vms.push(v.clone());
        }
        view
    }

    fn cfg(pressure: f64, max_moves: u32) -> crate::spec::RebalanceSpec {
        crate::spec::RebalanceSpec {
            enabled: true,
            period: selftune_simcore::time::Dur::secs(1),
            pressure,
            max_moves,
            ..crate::spec::RebalanceSpec::default()
        }
    }

    #[test]
    fn rebalance_drains_pressured_node_to_idle_ones() {
        let mut p = Placer::new(3, 0.9, 1.0, PolicyKind::WorstFit);
        p.sync_reserved(&[0.8, 0.1, 0.1]);
        let live: Vec<LiveTask> = (0..4)
            .map(|i| LiveTask {
                fleet_id: i,
                node: 0,
                nominal: task(20.0, 100.0),
                measured_bw: 0.0,
                movable: true,
                granted: None,
            })
            .collect();
        let view = with_live(view(&[0.3, 0.0, 0.0], &[0.9, 0.2, 0.2]), &live, &[]);
        let out = p.rebalance(&view, &cfg(0.05, 8));
        // The pressured node is fully evacuated (all four tasks fit
        // elsewhere), spread across both idle nodes by worst-fit order.
        assert_eq!(out.moves.len(), 4);
        assert_eq!(out.failed, 0);
        for m in &out.moves {
            assert_eq!(m.from, 0);
            assert!(m.to == 1 || m.to == 2, "moved to pressured node");
            assert!(m.dest_reserved_after <= 0.9 + 1e-9);
        }
        assert!(out.moves.iter().any(|m| m.to == 1));
        assert!(out.moves.iter().any(|m| m.to == 2));
        assert!(p.reserved()[0].abs() < 1e-9, "{}", p.reserved()[0]);
    }

    #[test]
    fn rebalance_respects_move_cap_and_bans_saturated_destinations() {
        let mut p = Placer::new(3, 0.9, 1.0, PolicyKind::WorstFit);
        p.sync_reserved(&[0.8, 0.0, 0.0]);
        let live: Vec<LiveTask> = (0..4)
            .map(|i| LiveTask {
                fleet_id: i,
                node: 0,
                nominal: task(20.0, 100.0),
                measured_bw: 0.0,
                movable: true,
                granted: None,
            })
            .collect();
        // Node 1 is hog-saturated (util 0.99): only node 2 may receive.
        let view = with_live(view(&[0.5, 0.0, 0.0], &[1.0, 0.99, 0.1]), &live, &[]);
        let out = p.rebalance(&view, &cfg(0.05, 1));
        assert_eq!(out.moves.len(), 1);
        assert_eq!(out.moves[0].to, 2);
    }

    #[test]
    fn fully_starved_node_reads_as_maximal_pressure() {
        // Node 0: live RT work, zero completions all epoch, CPU pinned —
        // no miss ratio exists, but the node is maximally starved.
        let live = |fleet_id, node, measured_bw| LiveTask {
            fleet_id,
            node,
            nominal: task(2.0, 40.0),
            measured_bw,
            movable: true,
            granted: None,
        };
        let starved = NodeFeedback {
            node: 0,
            utilisation: 1.0,
            compressions: 3,
            live_rt: vec![live(0, 0, 0.02)],
            ..NodeFeedback::default()
        };
        // Node 1: also zero gaps, but idle with a long-period task — fine.
        let idle = NodeFeedback {
            node: 1,
            utilisation: 0.05,
            live_rt: vec![live(1, 1, 0.01)],
            ..NodeFeedback::default()
        };
        let v = FeedbackView {
            nodes: vec![starved, idle],
            smoothed: None,
        };
        assert!((v.pressure(0) - 1.0).abs() < 1e-12);
        assert!(v.pressure(1).abs() < 1e-12);

        // And the rebalancer actually drains the starved node.
        let mut p = Placer::new(2, 0.9, 1.0, PolicyKind::WorstFit);
        p.sync_reserved(&[0.06, 0.06]);
        let out = p.rebalance(&v, &cfg(0.25, 4));
        assert_eq!(out.moves.len(), 1);
        assert_eq!(out.moves[0].from, 0);
        assert_eq!(out.moves[0].to, 1);
    }

    #[test]
    fn victims_of_equal_demand_move_tasks_before_vms_whatever_their_ids() {
        let mut p = Placer::new(2, 0.9, 1.0, PolicyKind::WorstFit);
        p.sync_reserved(&[0.8, 0.0]);
        let nominal = task(20.0, 100.0);
        let live = [LiveTask {
            fleet_id: 7,
            node: 0,
            nominal,
            measured_bw: 0.0,
            movable: true,
            granted: None,
        }];
        // Booked at exactly the task's demand: only the unit kind and the
        // id are left to break the tie, and the VM has the lower id.
        let vm = LiveVmUnit {
            fleet_vm_id: 3,
            node: 0,
            share: p.demand_of(nominal),
            movable: true,
            elastic: false,
            guest_grants: Vec::new(),
        };
        let view = with_live(view(&[0.5, 0.0], &[0.9, 0.1]), &live, &[vm]);
        let units = |max_moves| {
            let out = p.clone().rebalance(&view, &cfg(0.05, max_moves));
            out.moves.iter().map(|m| m.unit).collect::<Vec<_>>()
        };
        assert_eq!(units(1), [Unit::Task(7)]);
        assert_eq!(units(2), [Unit::Task(7), Unit::Vm(3)]);
    }

    #[test]
    fn rebalance_without_pressure_is_a_noop() {
        let mut p = Placer::new(2, 0.9, 1.0, PolicyKind::WorstFit);
        p.sync_reserved(&[0.8, 0.1]);
        let live = [LiveTask {
            fleet_id: 0,
            node: 0,
            nominal: task(20.0, 100.0),
            measured_bw: 0.0,
            movable: true,
            granted: None,
        }];
        let view = with_live(view(&[0.01, 0.0], &[0.9, 0.1]), &live, &[]);
        let out = p.rebalance(&view, &cfg(0.05, 8));
        assert!(out.moves.is_empty());
        assert_eq!(out.failed, 0);
        assert_eq!(p.reserved(), &[0.8, 0.1]);
    }

    #[test]
    fn rebalance_counts_failed_moves_when_nothing_fits() {
        let mut p = Placer::new(2, 0.5, 1.0, PolicyKind::FirstFit);
        p.sync_reserved(&[0.45, 0.4]);
        let live = [
            LiveTask {
                fleet_id: 0,
                node: 0,
                nominal: task(20.0, 100.0),
                measured_bw: 0.0,
                movable: true,
                granted: None,
            },
            LiveTask {
                fleet_id: 1,
                node: 0,
                nominal: task(20.0, 100.0),
                measured_bw: 0.0,
                movable: true,
                granted: None,
            },
        ];
        // Node 1 is nearly as full: no destination admits a 0.2 task.
        let view = with_live(view(&[0.4, 0.0], &[0.5, 0.5]), &live, &[]);
        let out = p.rebalance(&view, &cfg(0.05, 8));
        assert!(out.moves.is_empty());
        assert!(out.failed > 0);
        assert_eq!(p.reserved(), &[0.45, 0.4]);
    }

    #[test]
    fn a_fully_banned_rejection_has_a_finite_witness() {
        // Nothing on offer: the witness is 0 spare, not the fold's -inf
        // (which a journal would write and then refuse to read back).
        let mut p = Placer::new(2, 0.9, 1.0, PolicyKind::FirstFit);
        match p.admit(0.1, 0, None, Some(&[true, true])) {
            PlacementOutcome::Rejected { best_spare, .. } => assert_eq!(best_spare, 0.0),
            other => panic!("admitted onto a banned node: {other:?}"),
        }
        // With a candidate, it is still the best non-banned spare.
        p.sync_reserved(&[0.2, 0.85]);
        match p.admit(0.1, 0, None, Some(&[true, false])) {
            PlacementOutcome::Rejected { best_spare, .. } => {
                assert!((best_spare - 0.05).abs() < 1e-12, "{best_spare}");
            }
            other => panic!("overbooked: {other:?}"),
        }
    }

    #[test]
    fn best_effort_round_robins() {
        let mut p = Placer::new(3, 0.9, 1.0, PolicyKind::FirstFit);
        let nodes: Vec<usize> = (0..7).map(|_| p.place_best_effort()).collect();
        assert_eq!(nodes, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    /// xorshift64 — a tiny deterministic stream for the differential tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    const ALL_POLICIES: [PolicyKind; 3] = [
        PolicyKind::FirstFit,
        PolicyKind::WorstFit,
        PolicyKind::BandwidthAware,
    ];

    /// The policy's candidate node order over `reserved`: ties break on
    /// the lower node id, so the order is fully deterministic.
    fn candidate_order(policy: PolicyKind, reserved: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..reserved.len()).collect();
        match policy {
            PolicyKind::FirstFit => {}
            PolicyKind::WorstFit => {
                order.sort_by(|&a, &b| {
                    reserved[a]
                        .partial_cmp(&reserved[b])
                        .expect("NaN reserved bandwidth")
                        .then(a.cmp(&b))
                });
            }
            // Fullest node first (tightest fit).
            PolicyKind::BandwidthAware => {
                order.sort_by(|&a, &b| {
                    reserved[b]
                        .partial_cmp(&reserved[a])
                        .expect("NaN reserved bandwidth")
                        .then(a.cmp(&b))
                });
            }
        }
        order
    }

    /// The reference for `Placer::fit`: walk the policy's candidate order,
    /// skip the banned nodes, and take the first whose booking stays under
    /// `ulub`, with how many candidates were tried before it.
    fn scan_fit(
        policy: PolicyKind,
        reserved: &[f64],
        ulub: f64,
        demand: f64,
        banned: &[bool],
    ) -> Option<(usize, u32)> {
        candidate_order(policy, reserved)
            .into_iter()
            .filter(|&node| !banned[node])
            .enumerate()
            .find(|&(_, node)| reserved[node] + demand <= ulub + 1e-9)
            .map(|(bounced, node)| (node, bounced as u32))
    }

    /// The reference for `Placer::place_best_effort`: the least best-effort
    /// count, ties to the lower id.
    fn scan_best_effort(best_effort: &[u64]) -> usize {
        (0..best_effort.len())
            .min_by_key(|&i| (best_effort[i], i))
            .expect("at least one node")
    }

    /// What `Placer::admit` must answer on `reserved` (releases already
    /// due): the scan's winner, `migrations` 0 under a ban, and for a
    /// rejection the fold of `ulub - reserved` over the candidates (0 with
    /// none).
    fn scan_admit(
        policy: PolicyKind,
        reserved: &[f64],
        ulub: f64,
        demand: f64,
        ban: Option<&[bool]>,
    ) -> PlacementOutcome {
        let none = vec![false; reserved.len()];
        let banned = ban.unwrap_or(&none);
        match scan_fit(policy, reserved, ulub, demand, banned) {
            Some((node, bounced)) => PlacementOutcome::Admitted {
                node,
                demand,
                migrations: if ban.is_some() { 0 } else { bounced },
            },
            None => PlacementOutcome::Rejected {
                demand,
                best_spare: reserved
                    .iter()
                    .zip(banned)
                    .filter(|&(_, &b)| !b)
                    .map(|(r, _)| ulub - r)
                    .reduce(f64::max)
                    .unwrap_or(0.0),
            },
        }
    }

    proptest! {
        #[test]
        fn candidate_order_is_a_permutation(
            reserved in prop::collection::vec(0.0f64..1.0, 1..12),
            policy in prop_oneof![
                Just(PolicyKind::FirstFit),
                Just(PolicyKind::WorstFit),
                Just(PolicyKind::BandwidthAware),
            ],
        ) {
            let order = candidate_order(policy, &reserved);
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
    }

    #[test]
    fn index_and_scan_agree_on_every_decision() {
        // Drive a placer through a long random operation sequence and hold
        // each decision — winner, migrations count, rejection witness,
        // best-effort pick, booked state — bit for bit to the scan over the
        // placer's own bookings, for every policy, with no ban, a random
        // ban mask and every node banned.
        for policy in ALL_POLICIES {
            for nodes in [1usize, 3, 7, 32] {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ nodes as u64;
                let mut p = Placer::new(nodes, 0.9, 1.2, policy);
                let mut now = 0u64;
                for _ in 0..400 {
                    now += xorshift(&mut rng) % 50_000;
                    let op = xorshift(&mut rng) % 100;
                    if op < 55 || (70..92).contains(&op) {
                        let demand = (xorshift(&mut rng) % 1001) as f64 / 1000.0;
                        let departs = op
                            .is_multiple_of(3)
                            .then(|| now + 1 + xorshift(&mut rng) % 100_000);
                        // The planner's phase path: a filtered admission,
                        // now and then with nothing on offer.
                        let banned: Vec<bool> = (0..nodes)
                            .map(|_| op >= 88 || (op >= 70 && xorshift(&mut rng).is_multiple_of(4)))
                            .collect();
                        let ban = (op >= 70).then_some(banned.as_slice());
                        // `admit` releases what is due first; the scan sees
                        // the bookings after that.
                        p.release_due(now);
                        let mut want = p.reserved().to_vec();
                        let expected = scan_admit(policy, &want, p.ulub, demand, ban);
                        let got = p.admit(demand, now, departs, ban);
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{expected:?}"),
                            "policy {policy:?}"
                        );
                        if let Some(node) = got.node() {
                            want[node] += demand;
                        }
                        assert_eq!(p.reserved(), want, "policy {policy:?}");
                    } else if op < 70 {
                        let expected = scan_best_effort(&p.best_effort);
                        assert_eq!(p.place_best_effort(), expected, "policy {policy:?}");
                    } else {
                        // The epoch rebuild: arbitrary live bookings, which
                        // may exceed ulub and even 1.0.
                        let rs: Vec<f64> = (0..nodes)
                            .map(|_| (xorshift(&mut rng) % 1300) as f64 / 1000.0)
                            .collect();
                        p.sync_reserved(&rs);
                    }
                }
            }
        }
    }

    #[test]
    fn index_and_scan_rebalance_identically() {
        // Random pressured fleets with flat tasks and VM units: replayed in
        // order from the pre-pass bookings, under the pass's ban mask, each
        // returned move must be the scan's choice for its demand, and the
        // bookings it leaves must be the placer's.
        for policy in ALL_POLICIES {
            let mut rng = 0xD1B5_4A32_D192_ED03u64;
            for round in 0..40 {
                let nodes = 2 + (xorshift(&mut rng) % 7) as usize;
                let mut p = Placer::new(nodes, 0.9, 1.1, policy);
                let rs: Vec<f64> = (0..nodes)
                    .map(|_| (xorshift(&mut rng) % 1000) as f64 / 1000.0)
                    .collect();
                p.sync_reserved(&rs);
                let fb = FeedbackView {
                    nodes: (0..nodes)
                        .map(|i| NodeFeedback {
                            node: i,
                            utilisation: (xorshift(&mut rng) % 100) as f64 / 100.0,
                            gaps: 10,
                            misses: xorshift(&mut rng) % 11,
                            compressions: 0,
                            reserved_bw: 0.0,
                            live_rt: Vec::new(),
                            live_vms: Vec::new(),
                        })
                        .collect(),
                    smoothed: None,
                };
                let live: Vec<LiveTask> = (0..(xorshift(&mut rng) % 12))
                    .map(|i| LiveTask {
                        fleet_id: i as usize,
                        node: (xorshift(&mut rng) % nodes as u64) as usize,
                        nominal: task(1.0 + (xorshift(&mut rng) % 30) as f64, 100.0),
                        measured_bw: (xorshift(&mut rng) % 40) as f64 / 100.0,
                        movable: !xorshift(&mut rng).is_multiple_of(4),
                        granted: xorshift(&mut rng).is_multiple_of(2).then(|| WarmStart {
                            budget: selftune_simcore::time::Dur::ms(5),
                            period: selftune_simcore::time::Dur::ms(100),
                        }),
                    })
                    .collect();
                let vms: Vec<LiveVmUnit> = (0..(xorshift(&mut rng) % 4))
                    .map(|i| LiveVmUnit {
                        fleet_vm_id: 100 + i as usize,
                        node: (xorshift(&mut rng) % nodes as u64) as usize,
                        share: (10 + xorshift(&mut rng) % 30) as f64 / 100.0,
                        movable: !xorshift(&mut rng).is_multiple_of(3),
                        elastic: xorshift(&mut rng).is_multiple_of(4),
                        guest_grants: vec![(
                            i as usize,
                            WarmStart {
                                budget: selftune_simcore::time::Dur::ms(10),
                                period: selftune_simcore::time::Dur::ms(50),
                            },
                        )],
                    })
                    .collect();
                let cfg = cfg(0.15, 1 + (xorshift(&mut rng) % 6) as u32);
                let fb = with_live(fb, &live, &vms);
                let out = p.rebalance(&fb, &cfg);
                // The pass's own ban: pressured sources and saturated nodes.
                let banned: Vec<bool> = (0..nodes)
                    .map(|n| {
                        fb.pressure(n) > cfg.pressure
                            || fb.utilisation(n) > FeedbackView::DEST_UTIL_CAP
                    })
                    .collect();
                let mut want = rs.clone();
                for (k, m) in out.moves.iter().enumerate() {
                    let scan = scan_fit(policy, &want, p.ulub, m.demand, &banned);
                    assert_eq!(
                        scan.map(|(to, _)| to),
                        Some(m.to),
                        "policy {policy:?} round {round} move {k}"
                    );
                    want[m.to] += m.demand;
                    want[m.from] = (want[m.from] - m.demand).max(0.0);
                    assert_eq!(m.dest_reserved_after.to_bits(), want[m.to].to_bits());
                }
                assert_eq!(p.reserved(), want, "policy {policy:?} round {round}");
            }
        }
    }
}
