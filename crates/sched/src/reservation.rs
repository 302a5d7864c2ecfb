//! The reservation scheduler: EDF over CBS servers, with a fixed-priority
//! RT class and a best-effort fair class below.
//!
//! This is the simulated counterpart of the AQuoSA scheduling stack used in
//! the paper: reserved tasks run inside [`Server`]s dispatched earliest-
//! deadline-first; plain `SCHED_FIFO` tasks come next; everything else gets
//! round-robin time sharing. During the *detection* phase a legacy task runs
//! in the fair class; once its period is identified the manager attaches it
//! to a server.

use crate::cbs::{Server, ServerConfig, ServerId};
use selftune_simcore::scheduler::{RoundRobin, Scheduler};
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// Where a task is scheduled.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Place {
    /// Inside a CBS reservation.
    Server(ServerId),
    /// Fixed-priority RT class (lower value = higher priority).
    Fifo(u32),
    /// Best-effort round-robin class (the default).
    #[default]
    Fair,
}

/// EDF-over-CBS reservation scheduler with RT-FIFO and fair classes.
///
/// # Class precedence
///
/// Reservations (EDF among runnable servers) > FIFO > fair. This mirrors
/// AQuoSA, where the CBS hooks sit above the stock Linux policies.
///
/// # Dispatch caching
///
/// The EDF winner and the earliest replenishment instant are cached
/// between state changes: the kernel calls [`Scheduler::pick`] and
/// [`Scheduler::next_timer`] on every loop iteration, but the underlying
/// inputs (server deadlines, runnability, pending replenishments) only
/// change on wake/block/depletion/replenish/parameter events. Every
/// mutating entry point invalidates the caches; plain budget decrements
/// do not (see [`Server::charge`]). The pre-cache full-scan dispatcher is
/// the caches' reference: `tests/dispatch_props.rs::
/// cached_and_scan_dispatch_agree` switches one of two twin schedulers to
/// it (`use_scan_dispatch`, hidden from docs) and holds them to identical
/// answers. Nothing layered on this scheduler offers or reads the choice.
pub struct ReservationScheduler {
    servers: Vec<Server>,
    /// Dense task placement, indexed by `TaskId` (default fair). Dense
    /// because every `on_ready`/`charge`/`horizon` resolves a placement.
    placement: Vec<Place>,
    fifo: BTreeMap<u32, VecDeque<TaskId>>,
    fair: RoundRobin,
    /// Cached EDF winner (`None` = dirty, recompute on next pick).
    edf_cache: Option<Option<ServerId>>,
    /// Cached earliest replenishment (`None` = dirty). A `Cell` because
    /// [`Scheduler::next_timer`] takes `&self`.
    timer_cache: Cell<Option<Option<Time>>>,
    /// Differential-test reference: bypass the caches and rescan on every
    /// query.
    scan_dispatch: bool,
    /// Reused EDF-order buffer for [`ReservationScheduler::pick_with`]:
    /// one allocation serves every nested dispatch.
    order_scratch: Vec<(Time, u32)>,
    /// Dispatch-state version: bumped by every [`ReservationScheduler::touch`].
    epoch: u64,
    /// The epoch `order_scratch` was last rebuilt at (`None` = dirty).
    order_epoch: Option<u64>,
}

impl Default for ReservationScheduler {
    fn default() -> Self {
        ReservationScheduler::new()
    }
}

impl ReservationScheduler {
    /// Creates a scheduler with a 4 ms fair-class timeslice.
    pub fn new() -> ReservationScheduler {
        ReservationScheduler::with_fair_slice(Dur::ms(4))
    }

    /// Creates a scheduler with the given fair-class timeslice.
    pub fn with_fair_slice(slice: Dur) -> ReservationScheduler {
        ReservationScheduler {
            servers: Vec::new(),
            placement: Vec::new(),
            fifo: BTreeMap::new(),
            fair: RoundRobin::new(slice),
            edf_cache: None,
            timer_cache: Cell::new(None),
            scan_dispatch: false,
            order_scratch: Vec::new(),
            epoch: 0,
            order_epoch: None,
        }
    }

    /// Disables the dispatch caches: every `pick`/`next_timer` rescans all
    /// servers (the pre-cache implementation). The reference side of
    /// `tests/dispatch_props.rs::cached_and_scan_dispatch_agree` only.
    #[doc(hidden)]
    pub fn use_scan_dispatch(&mut self) {
        self.scan_dispatch = true;
        self.touch();
    }

    /// Invalidates the cached dispatch decision and timer.
    fn touch(&mut self) {
        self.edf_cache = None;
        self.timer_cache.set(None);
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Monotonic version of the dispatch-relevant state (server set,
    /// deadlines, runnability, pending replenishments, parameters). Any
    /// mutation that could change a dispatch decision bumps it — including
    /// supervisor re-grants, which go through
    /// [`ReservationScheduler::server_mut`]. Callers layering their own
    /// dispatch caches on top (the virt scheduler's nested pick, its
    /// stacked timer) validate against this instead of subscribing to
    /// individual transitions.
    pub fn dispatch_epoch(&self) -> u64 {
        self.epoch
    }

    /// Creates a new server and returns its id.
    pub fn create_server(&mut self, cfg: ServerConfig) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(Server::new(cfg));
        self.touch();
        id
    }

    /// Read access to a server.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// Mutable access to a server (parameter changes, sensor reads).
    ///
    /// Conservatively invalidates the dispatch caches: the caller may
    /// change parameters, deadlines or throttle state through the returned
    /// reference.
    pub fn server_mut(&mut self, id: ServerId) -> &mut Server {
        self.touch();
        &mut self.servers[id.index()]
    }

    /// Number of servers created so far.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Total bandwidth currently reserved, Σ Qᵢ/Tᵢ.
    pub fn total_reserved_bandwidth(&self) -> f64 {
        self.servers.iter().map(|s| s.config().bandwidth()).sum()
    }

    /// Current placement of a task (fair if never placed).
    pub fn place_of(&self, task: TaskId) -> Place {
        self.placement
            .get(task.index())
            .copied()
            .unwrap_or(Place::Fair)
    }

    /// Sets the scheduling class of a task that is blocked or not yet
    /// started (no ready-queue bookkeeping is touched).
    ///
    /// For a task that is currently ready or running use
    /// [`ReservationScheduler::place_ready`].
    ///
    /// # Panics
    ///
    /// Panics if `place` names an unknown server.
    pub fn place(&mut self, task: TaskId, place: Place) {
        if let Place::Server(sid) = place {
            assert!(sid.index() < self.servers.len(), "unknown {sid}");
        }
        if self.placement.len() <= task.index() {
            self.placement.resize(task.index() + 1, Place::Fair);
        }
        self.placement[task.index()] = place;
    }

    /// Migrates a *ready* task to a new scheduling class at `now`: removes
    /// it from its current class queue and enqueues it in the new one.
    ///
    /// This is how the manager attaches a legacy application to its freshly
    /// created reservation while the application keeps running.
    ///
    /// # Panics
    ///
    /// Panics if `place` names an unknown server.
    pub fn place_ready(&mut self, task: TaskId, place: Place, now: Time) {
        self.on_block(task, now); // dequeue from the old class
        self.place(task, place);
        self.on_ready(task, now); // enqueue in the new class
    }

    /// The EDF-minimal runnable server, if any (full scan).
    fn edf_pick(&self) -> Option<ServerId> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.runnable())
            .min_by_key(|(i, s)| (s.deadline(), *i))
            .map(|(i, _)| ServerId(i as u32))
    }

    /// The EDF-minimal runnable server, through the dispatch cache.
    fn edf_winner(&mut self) -> Option<ServerId> {
        if self.scan_dispatch {
            return self.edf_pick();
        }
        match self.edf_cache {
            Some(cached) => cached,
            None => {
                let winner = self.edf_pick();
                self.edf_cache = Some(winner);
                winner
            }
        }
    }

    fn fifo_pick(&self) -> Option<TaskId> {
        self.fifo
            .values()
            .find(|q| !q.is_empty())
            .and_then(|q| q.front().copied())
    }

    /// Dispatch with an external per-server task chooser — the nested
    /// scheduling hook the `selftune-virt` layer builds on.
    ///
    /// Walks the *runnable* servers in EDF order and asks `choose` which
    /// task the server would run; a server may decline (return `None`, e.g.
    /// a guest scheduler whose inner reservations are all throttled), in
    /// which case the next server in deadline order is offered the CPU.
    /// Falls back to the FIFO and fair classes when no server dispatches.
    ///
    /// Plain [`Scheduler::pick`] is equivalent to `pick_with` where every
    /// server chooses its own [`Server::front_task`].
    pub fn pick_with(
        &mut self,
        now: Time,
        mut choose: impl FnMut(ServerId, &Server) -> Option<TaskId>,
    ) -> Option<TaskId> {
        // The runnable set and the deadlines only change when some
        // transition bumps the epoch (wake/block/depletion/replenish/
        // re-grant); between transitions the sorted order is reused —
        // only the guests' willingness to dispatch is re-queried.
        let mut order = core::mem::take(&mut self.order_scratch);
        if self.scan_dispatch || self.order_epoch != Some(self.epoch) {
            order.clear();
            order.extend(
                self.servers
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.runnable())
                    .map(|(i, s)| (s.deadline(), i as u32)),
            );
            order.sort_unstable();
            self.order_epoch = Some(self.epoch);
        }
        let picked = order
            .iter()
            .find_map(|&(_, i)| choose(ServerId(i), &self.servers[i as usize]));
        self.order_scratch = order;
        if picked.is_some() {
            return picked;
        }
        if let Some(t) = self.fifo_pick() {
            return Some(t);
        }
        self.fair.pick(now)
    }
}

impl Scheduler for ReservationScheduler {
    fn on_ready(&mut self, task: TaskId, now: Time) {
        match self.place_of(task) {
            Place::Server(sid) => {
                self.servers[sid.index()].wake(task, now);
                self.touch();
            }
            Place::Fifo(p) => self.fifo.entry(p).or_default().push_back(task),
            Place::Fair => self.fair.on_ready(task, now),
        }
    }

    fn on_block(&mut self, task: TaskId, now: Time) {
        match self.place_of(task) {
            Place::Server(sid) => {
                self.servers[sid.index()].remove(task, now);
                self.touch();
            }
            Place::Fifo(p) => {
                if let Some(q) = self.fifo.get_mut(&p) {
                    q.retain(|&t| t != task);
                }
            }
            Place::Fair => self.fair.on_block(task, now),
        }
    }

    fn on_exit(&mut self, task: TaskId, now: Time) {
        self.on_block(task, now);
    }

    fn charge(&mut self, task: TaskId, ran: Dur, now: Time) {
        match self.place_of(task) {
            Place::Server(sid) => {
                if self.servers[sid.index()].charge(ran, now) {
                    self.touch();
                }
            }
            Place::Fifo(_) => {}
            Place::Fair => self.fair.charge(task, ran, now),
        }
    }

    fn pick(&mut self, now: Time) -> Option<TaskId> {
        if let Some(sid) = self.edf_winner() {
            return self.servers[sid.index()].front_task();
        }
        if let Some(t) = self.fifo_pick() {
            return Some(t);
        }
        self.fair.pick(now)
    }

    fn horizon(&self, task: TaskId, now: Time) -> Option<Dur> {
        match self.place_of(task) {
            Place::Server(sid) => Some(self.servers[sid.index()].remaining_budget()),
            Place::Fifo(_) => None,
            Place::Fair => self.fair.horizon(task, now),
        }
    }

    fn next_timer(&self, _now: Time) -> Option<Time> {
        if self.scan_dispatch {
            return self.servers.iter().filter_map(Server::replenish_at).min();
        }
        if let Some(cached) = self.timer_cache.get() {
            return cached;
        }
        let t = self.servers.iter().filter_map(Server::replenish_at).min();
        self.timer_cache.set(Some(t));
        t
    }

    fn on_timer(&mut self, now: Time) {
        let mut changed = false;
        for s in &mut self.servers {
            changed |= s.replenish_if_due(now);
        }
        if changed {
            self.touch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbs::{CbsMode, ServerState};

    const T0: Time = Time::ZERO;

    fn t(ms: u64) -> Time {
        T0 + Dur::ms(ms)
    }

    fn sched_with_two_servers() -> (ReservationScheduler, ServerId, ServerId) {
        let mut s = ReservationScheduler::new();
        let a = s.create_server(ServerConfig::new(Dur::ms(10), Dur::ms(50)));
        let b = s.create_server(ServerConfig::new(Dur::ms(10), Dur::ms(100)));
        (s, a, b)
    }

    #[test]
    fn edf_prefers_earlier_deadline() {
        let (mut s, a, b) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Server(b));
        s.on_ready(TaskId(1), T0); // deadline 50ms
        s.on_ready(TaskId(2), T0); // deadline 100ms
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        s.on_block(TaskId(1), t(5));
        assert_eq!(s.pick(t(5)), Some(TaskId(2)));
    }

    #[test]
    fn throttled_server_yields_cpu() {
        let (mut s, a, b) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Server(b));
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0);
        // Deplete server a's 10ms budget.
        s.charge(TaskId(1), Dur::ms(10), t(10));
        assert_eq!(s.server(a).state(), ServerState::Throttled);
        assert_eq!(s.pick(t(10)), Some(TaskId(2)));
        // Replenishment is the next timer (at server a's deadline, 50ms).
        assert_eq!(s.next_timer(t(10)), Some(t(50)));
        s.on_timer(t(50));
        assert_eq!(s.pick(t(50)), Some(TaskId(1)));
    }

    #[test]
    fn reservations_beat_fifo_and_fair() {
        let (mut s, a, _b) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Fifo(1));
        // TaskId(3) stays fair by default.
        s.on_ready(TaskId(3), T0);
        s.on_ready(TaskId(2), T0);
        s.on_ready(TaskId(1), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        s.on_block(TaskId(1), t(1));
        assert_eq!(s.pick(t(1)), Some(TaskId(2)));
        s.on_block(TaskId(2), t(2));
        assert_eq!(s.pick(t(2)), Some(TaskId(3)));
    }

    #[test]
    fn fifo_priority_order() {
        let mut s = ReservationScheduler::new();
        s.place(TaskId(1), Place::Fifo(5));
        s.place(TaskId(2), Place::Fifo(1));
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0);
        assert_eq!(s.pick(T0), Some(TaskId(2)));
    }

    #[test]
    fn horizon_is_remaining_budget() {
        let (mut s, a, _) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.on_ready(TaskId(1), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        assert_eq!(s.horizon(TaskId(1), T0), Some(Dur::ms(10)));
        s.charge(TaskId(1), Dur::ms(4), t(4));
        assert_eq!(s.horizon(TaskId(1), t(4)), Some(Dur::ms(6)));
    }

    #[test]
    fn soft_server_keeps_running_with_postponed_deadline() {
        let mut s = ReservationScheduler::new();
        let a =
            s.create_server(ServerConfig::new(Dur::ms(10), Dur::ms(50)).with_mode(CbsMode::Soft));
        s.place(TaskId(1), Place::Server(a));
        s.on_ready(TaskId(1), T0);
        s.charge(TaskId(1), Dur::ms(10), t(10));
        // Soft: still runnable, deadline postponed to 100ms.
        assert_eq!(s.pick(t(10)), Some(TaskId(1)));
        assert_eq!(s.server(a).deadline(), t(100));
    }

    #[test]
    fn two_tasks_in_one_fifo_server() {
        let mut s = ReservationScheduler::new();
        let a = s.create_server(ServerConfig::new(Dur::ms(20), Dur::ms(50)));
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Server(a));
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        s.on_block(TaskId(1), t(3));
        assert_eq!(s.pick(t(3)), Some(TaskId(2)));
        assert_eq!(s.server(a).ready_count(), 1);
    }

    #[test]
    fn total_reserved_bandwidth_sums() {
        let (s, _, _) = sched_with_two_servers();
        // 10/50 + 10/100 = 0.3.
        assert!((s.total_reserved_bandwidth() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn default_place_is_fair() {
        let s = ReservationScheduler::new();
        assert_eq!(s.place_of(TaskId(7)), Place::Fair);
    }

    #[test]
    fn place_ready_migrates_running_task() {
        let mut s = ReservationScheduler::new();
        // Starts in the fair class (detection phase)...
        s.on_ready(TaskId(1), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        // ... then the manager attaches it to a fresh reservation.
        let a = s.create_server(ServerConfig::new(Dur::ms(10), Dur::ms(40)));
        s.place_ready(TaskId(1), Place::Server(a), t(5));
        assert_eq!(s.place_of(TaskId(1)), Place::Server(a));
        assert_eq!(s.pick(t(5)), Some(TaskId(1)));
        // It now consumes server budget.
        s.charge(TaskId(1), Dur::ms(10), t(15));
        assert_eq!(s.server(a).state(), ServerState::Throttled);
        assert_eq!(s.pick(t(15)), None);
    }

    #[test]
    fn pick_with_lets_a_server_decline() {
        let (mut s, a, b) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Server(b));
        s.on_ready(TaskId(1), T0); // deadline 50ms: EDF winner
        s.on_ready(TaskId(2), T0); // deadline 100ms
                                   // Server a declines (a nested guest with nothing dispatchable):
                                   // the CPU falls through to server b in deadline order.
        let picked = s.pick_with(
            T0,
            |sid, srv| {
                if sid == a {
                    None
                } else {
                    srv.front_task()
                }
            },
        );
        assert_eq!(picked, Some(TaskId(2)));
        // With every server choosing its own front task, pick_with and
        // pick agree.
        let via_hook = s.pick_with(T0, |_, srv| srv.front_task());
        assert_eq!(via_hook, s.pick(T0));
    }

    #[test]
    fn pick_with_falls_back_to_fifo_and_fair() {
        let mut s = ReservationScheduler::new();
        s.place(TaskId(2), Place::Fifo(1));
        s.on_ready(TaskId(2), T0);
        s.on_ready(TaskId(3), T0); // fair
        assert_eq!(s.pick_with(T0, |_, _| None), Some(TaskId(2)));
        s.on_block(TaskId(2), t(1));
        assert_eq!(s.pick_with(t(1), |_, _| None), Some(TaskId(3)));
    }

    #[test]
    fn cached_dispatch_tracks_state_changes() {
        let (mut s, a, b) = sched_with_two_servers();
        s.place(TaskId(1), Place::Server(a));
        s.place(TaskId(2), Place::Server(b));
        s.on_ready(TaskId(1), T0);
        // Repeated picks hit the cache and stay stable.
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        // A wake changes the EDF input; the cache must notice... but the
        // earlier deadline still wins.
        s.on_ready(TaskId(2), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        // Depleting server a flips the winner and arms a replenishment.
        s.charge(TaskId(1), Dur::ms(10), t(10));
        assert_eq!(s.pick(t(10)), Some(TaskId(2)));
        assert_eq!(s.next_timer(t(10)), Some(t(50)));
        assert_eq!(s.next_timer(t(10)), Some(t(50))); // cached
        s.on_timer(t(50));
        assert_eq!(s.next_timer(t(50)), None);
        assert_eq!(s.pick(t(50)), Some(TaskId(1)));
        // Parameter changes through server_mut invalidate conservatively.
        s.server_mut(a).set_params(Dur::ms(1), Dur::ms(200));
        s.charge(TaskId(1), Dur::ms(1), t(51));
        assert_eq!(s.pick(t(51)), Some(TaskId(2)));
    }

    #[test]
    fn fair_class_round_robins() {
        let mut s = ReservationScheduler::new();
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0);
        let first = s.pick(T0).unwrap();
        s.charge(first, Dur::ms(4), t(4));
        let second = s.pick(t(4)).unwrap();
        assert_ne!(first, second);
    }
}
