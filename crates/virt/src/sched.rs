//! The two-level scheduler: host CBS servers that contain guest schedulers.
//!
//! [`VirtScheduler`] implements the kernel's [`Scheduler`] contract by
//! stacking two dispatch levels:
//!
//! * **Host level** — a plain [`ReservationScheduler`]. Every virtual
//!   machine is one CBS server in it (its *share* of the physical CPU);
//!   tasks not assigned to any VM live directly in the host's classes
//!   exactly as on a non-virtualised node.
//! * **Guest level** — each VM owns a guest scheduler
//!   ([`EdfScheduler`] or a full nested [`ReservationScheduler`]) over
//!   that VM's task set.
//!
//! Dispatch walks the host's runnable servers in EDF order (via
//! [`ReservationScheduler::pick_with`]); a VM server's task choice is
//! delegated to its guest scheduler instead of the server's own FIFO. A
//! guest may *decline* (a nested reservation scheduler whose inner servers
//! are all throttled), in which case the next host server in deadline
//! order gets the CPU. Guest runtime is charged to **both** levels: the
//! host server (depleting the VM's share — two-level CBS) and the guest
//! scheduler (depleting the inner reservation of the running task).
//!
//! With no VMs created, every call delegates straight to the host
//! scheduler — a virtualised kernel with zero VMs behaves bit-identically
//! to a flat one.

use selftune_sched::{EdfScheduler, ReservationScheduler, ServerConfig, ServerId};
use selftune_sched::{Place, Server};
use selftune_simcore::scheduler::Scheduler;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use std::cell::Cell;

/// Identifier of a virtual machine within one [`VirtScheduler`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VmId(pub u32);

impl VmId {
    /// Index into dense per-VM arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for VmId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The scheduler running *inside* one VM, over that VM's tasks.
pub enum GuestSched {
    /// Task-level EDF with per-task relative deadlines.
    Edf(EdfScheduler),
    /// A nested reservation scheduler — inner CBS servers inside the
    /// VM's share, the configuration per-guest self-tuning manages.
    Reservation(ReservationScheduler),
}

impl GuestSched {
    fn as_scheduler_mut(&mut self) -> &mut dyn Scheduler {
        match self {
            GuestSched::Edf(s) => s,
            GuestSched::Reservation(s) => s,
        }
    }

    fn as_scheduler(&self) -> &dyn Scheduler {
        match self {
            GuestSched::Edf(s) => s,
            GuestSched::Reservation(s) => s,
        }
    }
}

struct VmEntry {
    host_sid: ServerId,
    guest: GuestSched,
}

/// Two-level scheduler: host reservations containing guest schedulers.
///
/// # Dispatch caching
///
/// With VMs present every pick takes the host's
/// [`ReservationScheduler::pick_with`] path, whose sorted EDF order is
/// cached inside the host scheduler and validated against
/// [`ReservationScheduler::dispatch_epoch`] — any share transition
/// (wake/block/depletion/replenish, and supervisor re-grants including an
/// elastic controller's) bumps the epoch and forces a rescan. The stacked
/// `next_timer` is cached here the same way, keyed by the *sum* of the
/// host epoch and every nested reservation guest's epoch (EDF guests own
/// no timers); epochs only grow, so the sum is monotone and two
/// concurrent changes cannot cancel out.
pub struct VirtScheduler {
    host: ReservationScheduler,
    vms: Vec<VmEntry>,
    /// VM membership, dense by task id (`None` = host-level task).
    vm_of: Vec<Option<u32>>,
    /// VM index, dense by host server id (`None` = plain host server),
    /// so the per-pick server-to-guest routing is an array read.
    vm_by_sid: Vec<Option<u32>>,
    /// Cached stacked timer: `(stack epoch it was computed at, value)`.
    timer_cache: Cell<Option<(u64, Option<Time>)>>,
}

impl Default for VirtScheduler {
    fn default() -> Self {
        VirtScheduler::new()
    }
}

impl VirtScheduler {
    /// A virtualised scheduler with the default host fair-class slice.
    pub fn new() -> VirtScheduler {
        VirtScheduler::with_host(ReservationScheduler::new())
    }

    /// Wraps an explicitly configured host reservation scheduler.
    pub(crate) fn with_host(host: ReservationScheduler) -> VirtScheduler {
        VirtScheduler {
            host,
            vms: Vec::new(),
            vm_of: Vec::new(),
            vm_by_sid: Vec::new(),
            timer_cache: Cell::new(None),
        }
    }

    /// The stacked dispatch version: host epoch plus every nested
    /// reservation guest's epoch. A guest without timers or budgets (EDF)
    /// cannot change the stacked timer or the host order, so it does not
    /// participate.
    fn stack_epoch(&self) -> u64 {
        let mut e = self.host.dispatch_epoch();
        for v in &self.vms {
            if let GuestSched::Reservation(g) = &v.guest {
                e = e.wrapping_add(g.dispatch_epoch());
            }
        }
        e
    }

    /// The host-level reservation scheduler (flat tasks, VM shares).
    pub fn host(&self) -> &ReservationScheduler {
        &self.host
    }

    /// Mutable host access — how a host-level self-tuning manager creates
    /// and adjusts flat reservations alongside the VM shares.
    pub(crate) fn host_mut(&mut self) -> &mut ReservationScheduler {
        &mut self.host
    }

    /// Number of VMs created.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Creates a VM: one host CBS server with the given configuration,
    /// containing `guest`. Returns its id.
    pub fn create_vm(&mut self, share: ServerConfig, guest: GuestSched) -> VmId {
        let host_sid = self.host.create_server(share);
        let id = VmId(self.vms.len() as u32);
        if self.vm_by_sid.len() <= host_sid.index() {
            self.vm_by_sid.resize(host_sid.index() + 1, None);
        }
        self.vm_by_sid[host_sid.index()] = Some(id.0);
        self.vms.push(VmEntry { host_sid, guest });
        id
    }

    /// The host server backing a VM's share.
    pub(crate) fn vm_server_id(&self, vm: VmId) -> ServerId {
        self.vms[vm.index()].host_sid
    }

    /// Read access to the host server backing a VM's share.
    pub fn vm_server(&self, vm: VmId) -> &Server {
        self.host.server(self.vms[vm.index()].host_sid)
    }

    /// The guest scheduler of a VM.
    pub fn guest(&self, vm: VmId) -> &GuestSched {
        &self.vms[vm.index()].guest
    }

    /// Mutable access to the guest scheduler of a VM.
    pub fn guest_mut(&mut self, vm: VmId) -> &mut GuestSched {
        &mut self.vms[vm.index()].guest
    }

    /// The nested reservation scheduler of a self-tuning VM — the
    /// projection a per-guest [`selftune_core::SelfTuningManager`] steps
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the VM's guest is not [`GuestSched::Reservation`].
    pub(crate) fn guest_reservations_mut(&mut self, vm: VmId) -> &mut ReservationScheduler {
        match &mut self.vms[vm.index()].guest {
            GuestSched::Reservation(s) => s,
            _ => panic!("{vm} has no nested reservation scheduler"),
        }
    }

    /// Assigns a task to a VM: the task dispatches through the VM's host
    /// server and its guest scheduler from now on. Must happen before the
    /// task first becomes ready.
    pub fn assign(&mut self, task: TaskId, vm: VmId) {
        let sid = self.vms[vm.index()].host_sid;
        self.host.place(task, Place::Server(sid));
        if self.vm_of.len() <= task.index() {
            self.vm_of.resize(task.index() + 1, None);
        }
        self.vm_of[task.index()] = Some(vm.0);
    }

    /// The VM a task belongs to, if any.
    pub(crate) fn vm_of(&self, task: TaskId) -> Option<VmId> {
        self.vm_of.get(task.index()).copied().flatten().map(VmId)
    }

    /// Shrinks a VM's share to the admission floor — the release half of
    /// killing a VM (the platform kills the guest tasks first). The VM
    /// entry stays (ids are stable) but holds no meaningful bandwidth.
    pub(crate) fn release_vm(&mut self, vm: VmId) {
        let sid = self.vms[vm.index()].host_sid;
        let period = self.host.server(sid).config().period;
        self.host.server_mut(sid).set_params(Dur::us(10), period);
    }
}

impl Scheduler for VirtScheduler {
    fn on_ready(&mut self, task: TaskId, now: Time) {
        self.host.on_ready(task, now);
        if let Some(vm) = self.vm_of(task) {
            self.vms[vm.index()]
                .guest
                .as_scheduler_mut()
                .on_ready(task, now);
        }
    }

    fn on_block(&mut self, task: TaskId, now: Time) {
        self.host.on_block(task, now);
        if let Some(vm) = self.vm_of(task) {
            self.vms[vm.index()]
                .guest
                .as_scheduler_mut()
                .on_block(task, now);
        }
    }

    fn on_exit(&mut self, task: TaskId, now: Time) {
        self.host.on_exit(task, now);
        if let Some(vm) = self.vm_of(task) {
            self.vms[vm.index()]
                .guest
                .as_scheduler_mut()
                .on_exit(task, now);
        }
    }

    fn charge(&mut self, task: TaskId, ran: Dur, now: Time) {
        // Two-level accounting: the VM's share and the guest's inner
        // reservation both pay for the same runtime.
        self.host.charge(task, ran, now);
        if let Some(vm) = self.vm_of(task) {
            self.vms[vm.index()]
                .guest
                .as_scheduler_mut()
                .charge(task, ran, now);
        }
    }

    fn pick(&mut self, now: Time) -> Option<TaskId> {
        if self.vms.is_empty() {
            return self.host.pick(now);
        }
        let vms = &mut self.vms;
        let vm_by_sid = &self.vm_by_sid;
        self.host.pick_with(now, |sid, srv| {
            match vm_by_sid.get(sid.index()).copied().flatten() {
                Some(v) => vms[v as usize].guest.as_scheduler_mut().pick(now),
                None => srv.front_task(),
            }
        })
    }

    fn horizon(&self, task: TaskId, now: Time) -> Option<Dur> {
        let host = self.host.horizon(task, now);
        match self.vm_of(task) {
            None => host,
            Some(vm) => {
                let guest = self.vms[vm.index()].guest.as_scheduler().horizon(task, now);
                match (host, guest) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (h, g) => h.or(g),
                }
            }
        }
    }

    fn next_timer(&self, now: Time) -> Option<Time> {
        if self.vms.is_empty() {
            return self.host.next_timer(now);
        }
        let epoch = self.stack_epoch();
        if let Some((e, t)) = self.timer_cache.get() {
            if e == epoch {
                return t;
            }
        }
        let mut next = self.host.next_timer(now);
        for v in &self.vms {
            let t = v.guest.as_scheduler().next_timer(now);
            next = match (next, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (n, t) => n.or(t),
            };
        }
        self.timer_cache.set(Some((epoch, next)));
        next
    }

    fn on_timer(&mut self, now: Time) {
        self.host.on_timer(now);
        for v in &mut self.vms {
            v.guest.as_scheduler_mut().on_timer(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_sched::ServerState;

    const T0: Time = Time::ZERO;

    fn t(ms: u64) -> Time {
        T0 + Dur::ms(ms)
    }

    fn two_vm_sched() -> (VirtScheduler, VmId, VmId) {
        let mut s = VirtScheduler::new();
        // VM a: 10ms/50ms share, EDF guest. VM b: 10ms/100ms share.
        let a = s.create_vm(
            ServerConfig::new(Dur::ms(10), Dur::ms(50)),
            GuestSched::Edf(EdfScheduler::new()),
        );
        let b = s.create_vm(
            ServerConfig::new(Dur::ms(10), Dur::ms(100)),
            GuestSched::Edf(EdfScheduler::new()),
        );
        (s, a, b)
    }

    #[test]
    fn host_edf_orders_vms_guest_edf_orders_tasks() {
        let (mut s, a, b) = two_vm_sched();
        if let GuestSched::Edf(e) = s.guest_mut(a) {
            e.set_relative_deadline(TaskId(1), Dur::ms(30));
            e.set_relative_deadline(TaskId(2), Dur::ms(10));
        }
        s.assign(TaskId(1), a);
        s.assign(TaskId(2), a);
        s.assign(TaskId(3), b);
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0);
        s.on_ready(TaskId(3), T0);
        // VM a's share has the earlier host deadline (50 < 100); inside it
        // the guest EDF prefers task 2 (10ms relative deadline).
        assert_eq!(s.pick(T0), Some(TaskId(2)));
        s.on_block(TaskId(2), t(2));
        assert_eq!(s.pick(t(2)), Some(TaskId(1)));
        s.on_block(TaskId(1), t(4));
        assert_eq!(s.pick(t(4)), Some(TaskId(3)));
    }

    #[test]
    fn guest_runtime_depletes_the_vm_share() {
        let (mut s, a, _b) = two_vm_sched();
        s.assign(TaskId(1), a);
        s.on_ready(TaskId(1), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        assert_eq!(s.horizon(TaskId(1), T0), Some(Dur::ms(10)));
        s.charge(TaskId(1), Dur::ms(10), t(10));
        // The VM's host server throttles; nothing else runnable.
        assert_eq!(s.vm_server(a).state(), ServerState::Throttled);
        assert_eq!(s.pick(t(10)), None);
        assert_eq!(s.next_timer(t(10)), Some(t(50)));
        s.on_timer(t(50));
        assert_eq!(s.pick(t(50)), Some(TaskId(1)));
    }

    #[test]
    fn nested_reservations_charge_both_levels_and_can_decline() {
        let mut s = VirtScheduler::new();
        let mut guest = ReservationScheduler::new();
        let inner = guest.create_server(ServerConfig::new(Dur::ms(2), Dur::ms(20)));
        guest.place(TaskId(1), Place::Server(inner));
        let vm = s.create_vm(
            ServerConfig::new(Dur::ms(30), Dur::ms(60)),
            GuestSched::Reservation(guest),
        );
        // A host-level fair task exists alongside the VM.
        s.on_ready(TaskId(9), T0);
        s.assign(TaskId(1), vm);
        s.on_ready(TaskId(1), T0);
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        // The horizon is the *inner* budget (2ms), tighter than the share.
        assert_eq!(s.horizon(TaskId(1), T0), Some(Dur::ms(2)));
        s.charge(TaskId(1), Dur::ms(2), t(2));
        // Inner server throttled: the guest declines although the VM share
        // still has budget — the host falls through to the fair task.
        assert_eq!(s.pick(t(2)), Some(TaskId(9)));
        // Both levels were charged.
        assert_eq!(s.vm_server(vm).remaining_budget(), Dur::ms(28));
        match s.guest(vm) {
            GuestSched::Reservation(g) => {
                assert_eq!(g.server(inner).remaining_budget(), Dur::ZERO);
            }
            _ => unreachable!(),
        }
        // The inner replenishment is visible through the stacked timer.
        assert_eq!(s.next_timer(t(2)), Some(t(20)));
        s.on_timer(t(20));
        assert_eq!(s.pick(t(20)), Some(TaskId(1)));
    }

    #[test]
    fn flat_tasks_run_exactly_as_without_virtualisation() {
        let mut s = VirtScheduler::new();
        let sid = s
            .host_mut()
            .create_server(ServerConfig::new(Dur::ms(5), Dur::ms(50)));
        s.host_mut().place(TaskId(1), Place::Server(sid));
        s.on_ready(TaskId(1), T0);
        s.on_ready(TaskId(2), T0); // fair
        assert_eq!(s.pick(T0), Some(TaskId(1)));
        s.charge(TaskId(1), Dur::ms(5), t(5));
        assert_eq!(s.pick(t(5)), Some(TaskId(2)));
        assert_eq!(s.next_timer(t(5)), Some(t(50)));
    }

    #[test]
    fn stacked_timer_cache_tracks_both_levels() {
        let mut s = VirtScheduler::new();
        let mut guest = ReservationScheduler::new();
        let inner = guest.create_server(ServerConfig::new(Dur::ms(2), Dur::ms(20)));
        guest.place(TaskId(1), Place::Server(inner));
        let vm = s.create_vm(
            ServerConfig::new(Dur::ms(30), Dur::ms(60)),
            GuestSched::Reservation(guest),
        );
        s.assign(TaskId(1), vm);
        s.on_ready(TaskId(1), T0);
        // No pending replenishment anywhere: cached None is stable.
        assert_eq!(s.next_timer(T0), None);
        assert_eq!(s.next_timer(T0), None);
        // Depleting the *inner* reservation arms a guest-level timer; the
        // stacked cache must notice the guest transition.
        s.charge(TaskId(1), Dur::ms(2), t(2));
        assert_eq!(s.next_timer(t(2)), Some(t(20)));
        assert_eq!(s.next_timer(t(2)), Some(t(20)));
        s.on_timer(t(20));
        assert_eq!(s.next_timer(t(20)), None);
        // Depleting the VM share arms a *host* timer through the same
        // cache: both levels invalidate it. (The inner server's deadline
        // already passed, so it replenishes immediately and owns no
        // pending timer; only the throttled share does.)
        s.charge(TaskId(1), Dur::ms(28), t(48));
        assert_eq!(s.next_timer(t(48)), Some(t(60)));
        assert_eq!(s.pick(t(48)), None, "share throttled");
        // A share re-grant (what an elastic controller does mid-run) also
        // invalidates: the budget increase lifts the throttle, and both
        // the cached order and the cached timer must notice.
        let sid = s.vm_server_id(vm);
        s.host_mut()
            .server_mut(sid)
            .set_params(Dur::ms(35), Dur::ms(60));
        assert_eq!(s.pick(t(48)), Some(TaskId(1)), "re-grant reopens dispatch");
    }

    #[test]
    fn release_vm_frees_the_share() {
        let (mut s, a, _b) = two_vm_sched();
        let before = s.host().total_reserved_bandwidth();
        s.release_vm(a);
        assert!(s.host().total_reserved_bandwidth() < before - 0.15);
    }
}
