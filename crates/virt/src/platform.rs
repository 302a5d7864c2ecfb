//! The virtual-platform bundle: a host kernel running VM servers, each
//! with its own tracer and (optionally) its own self-tuning manager.
//!
//! [`VirtPlatform`] is the virtualised counterpart of the paper's
//! single-machine stack. The host side is unchanged — a kernel, a tracer
//! and a [`SelfTuningManager`] for host-level (non-VM) legacy tasks. Each
//! VM adds:
//!
//! * a **host CBS server** — the VM's CPU share, admitted through the
//!   *host* [`Supervisor`] exactly like any other reservation, so the
//!   host-level bound Σ Qᵢ/Tᵢ ≤ U_lub arbitrates bandwidth *across*
//!   tenants;
//! * a **guest scheduler** over the VM's own task set; and, for
//!   self-tuning guests,
//! * a **per-guest tracer + [`SelfTuningManager`]** whose supervisor is
//!   bounded by the VM's share — periods are detected and budgets adapted
//!   *inside* the VM, and compression under tenant overload curbs that
//!   tenant's tasks only.
//!
//! Syscall tracing is demultiplexed per VM by `TraceMux`, so each guest
//! manager sees exactly its own tenant's event train — the virtualised
//! analogue of one `qtrace` device per machine.

use std::cell::RefCell;
use std::rc::Rc;

use selftune_core::share::{
    ClampReason, DemandSignal, PeriodAdapter, ShareController, ShareDecision, HYSTERESIS,
};
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_sched::{
    BwRequest, EdfScheduler, ReservationScheduler, Server, ServerConfig, Supervisor,
};
use selftune_simcore::kernel::{Kernel, SyscallHook};
use selftune_simcore::metrics::MetricKey;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::{TaskId, Workload};
use selftune_simcore::time::{Dur, Time};
use selftune_tracer::{Tracer, TracerConfig, TracerHook};

use crate::elastic::{VmElasticConfig, ADAPTED_PERIOD_MAX, ADAPTED_PERIOD_MIN, CONTROL_PERIOD};
use crate::sched::{GuestSched, VirtScheduler, VmId};

/// The scheduling regime inside one VM.
#[derive(Clone, Debug)]
pub enum GuestPolicy {
    /// Task-level EDF (register deadlines via
    /// [`VirtPlatform::set_guest_deadline`]).
    Edf,
    /// Nested CBS reservations driven by a per-guest self-tuning manager.
    /// The manager's supervisor bound is clamped to the VM's share — a
    /// tenant cannot self-tune its way past what the host granted.
    SelfTuning(ManagerConfig),
}

/// Static description of one VM.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Label used in diagnostics.
    pub label: String,
    /// Share budget `Q` granted per share period.
    pub budget: Dur,
    /// Share period `T` (granularity of the VM's CPU supply).
    pub period: Dur,
    /// Guest scheduling regime.
    pub policy: GuestPolicy,
}

impl VmConfig {
    /// A self-tuning VM with the given share and default manager
    /// configuration (supervisor bound clamped to the share).
    pub fn self_tuning(label: &str, budget: Dur, period: Dur) -> VmConfig {
        VmConfig {
            label: label.to_owned(),
            budget,
            period,
            policy: GuestPolicy::SelfTuning(ManagerConfig::default()),
        }
    }

    /// The VM's share of the CPU, `Q/T`.
    pub fn share(&self) -> f64 {
        self.budget.ratio(self.period)
    }
}

/// Why a VM could not be created.
#[derive(Clone, Debug, PartialEq)]
pub enum VmAdmissionError {
    /// The host supervisor's bound cannot fit the requested share.
    Rejected {
        /// The requested share `Q/T`.
        requested: f64,
        /// Host bandwidth still unreserved under the bound.
        available: f64,
    },
}

impl core::fmt::Display for VmAdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmAdmissionError::Rejected {
                requested,
                available,
            } => write!(
                f,
                "VM share {requested:.3} rejected: only {available:.3} available"
            ),
        }
    }
}

/// One *executed* elastic share re-request, with the controller inputs
/// that pinned it — buffered by the platform, beside the VM it moved, for
/// a decision journal to drain via [`VirtPlatform::drain_share_grants`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShareGrant {
    /// When the control step ran.
    pub at: Time,
    /// The controller's smoothed demand estimate after this fold.
    pub demand: f64,
    /// The hysteresis-adopted target the platform requested.
    pub target: f64,
    /// The share the host supervisor actually granted.
    pub granted: f64,
    /// Whether the supervisor curbed the request.
    pub compressed: bool,
    /// Which controller bound clipped the request candidate.
    pub clamp: ClampReason,
    /// Unconfirmed hysteresis change after the step, if any.
    pub pending: Option<(f64, u32)>,
    /// Host bandwidth the request competed for (ulub − fixed).
    pub available: f64,
}

/// One control scope of a [`VirtPlatform`]: the host, or one VM.
///
/// The paper's loop — tracer → period analyser → LFS++ controller →
/// supervisor — runs once per scope: the host scope's manager tunes flat
/// legacy tasks against the host reservation scheduler, a VM scope's
/// manager tunes that tenant's guests against the reservation scheduler
/// nested in its share. A scope names *which* manager and *which*
/// scheduler; every per-task operation ([`VirtPlatform::manage`],
/// [`VirtPlatform::unmanage`], [`VirtPlatform::reservation_of`], the
/// sampling step) is written once over it. What a VM scope adds to the
/// host's is outside the loop: a share server on the host scheduler and,
/// if elastic, a [`ShareController`] re-sizing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Flat tasks under the host manager.
    Host,
    /// The guests of one self-tuning VM under its own manager.
    Vm(VmId),
}

impl Scope {
    /// The reservation scheduler this scope's manager books into. This
    /// and [`Scope::reservations_mut`] are the one place the host/guest
    /// projection is named.
    ///
    /// # Panics
    ///
    /// Panics for a VM whose guest is not [`GuestSched::Reservation`].
    fn reservations(self, sched: &VirtScheduler) -> &ReservationScheduler {
        match self {
            Scope::Host => sched.host(),
            Scope::Vm(vm) => match sched.guest(vm) {
                GuestSched::Reservation(g) => g,
                _ => panic!("{vm} has no nested reservation scheduler"),
            },
        }
    }

    fn reservations_mut(self, sched: &mut VirtScheduler) -> &mut ReservationScheduler {
        match self {
            Scope::Host => sched.host_mut(),
            Scope::Vm(vm) => sched.guest_reservations_mut(vm),
        }
    }
}

/// Routes syscall trace edges to the tracer of the task's VM (slot 0 is
/// the host tracer).
pub(crate) struct TraceMux {
    route: Rc<RefCell<Vec<u16>>>,
    hooks: Rc<RefCell<Vec<TracerHook>>>,
}

impl TraceMux {
    fn slot_of(&self, task: TaskId) -> usize {
        self.route.borrow().get(task.index()).copied().unwrap_or(0) as usize
    }
}

impl SyscallHook for TraceMux {
    fn on_enter(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
        let slot = self.slot_of(task);
        self.hooks.borrow_mut()[slot].on_enter(task, nr, now)
    }

    fn on_exit(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
        let slot = self.slot_of(task);
        self.hooks.borrow_mut()[slot].on_exit(task, nr, now)
    }

    fn on_wake(&mut self, task: TaskId, now: Time) -> Dur {
        let slot = self.slot_of(task);
        self.hooks.borrow_mut()[slot].on_wake(task, now)
    }
}

/// The elastic-share loop state of one VM: the share law, its cadence,
/// and the last-seen cumulative sensors it differentiates.
struct ElasticRt {
    ctl: ShareController,
    /// Share-period adaptation state; `Some` iff
    /// [`VmElasticConfig::adapt_period`].
    periods: Option<PeriodAdapter>,
    /// Instant of the next control step.
    next_at: Time,
    last_consumed: Dur,
    last_compressions: u64,
    last_at: Time,
    /// Interned `"<label>.share"` key for the granted-share series.
    share_key: Option<MetricKey>,
}

struct VmRuntime {
    label: String,
    mgr: Option<SelfTuningManager>,
    /// Trace-mux slot of this VM's tracer (0 = shares the host tracer,
    /// for guests without a manager).
    slot: u16,
    tasks: Vec<TaskId>,
    killed: bool,
    /// Present when the VM's host share is elastic.
    elastic: Option<ElasticRt>,
}

/// A host kernel running virtual machines (see the module docs).
pub struct VirtPlatform {
    kernel: Kernel<VirtScheduler>,
    cfg: ManagerConfig,
    host_mgr: SelfTuningManager,
    vms: Vec<VmRuntime>,
    route: Rc<RefCell<Vec<u16>>>,
    hooks: Rc<RefCell<Vec<TracerHook>>>,
    /// Executed elastic re-grants since the last drain (journal feed).
    share_events: Vec<(VmId, ShareGrant)>,
}

impl VirtPlatform {
    /// Creates a platform. `cfg` configures the host side: the sampling
    /// period, the host supervisor (which admits both flat reservations
    /// and VM shares) and the CBS mode of host-level servers.
    pub fn new(cfg: ManagerConfig) -> VirtPlatform {
        let mut kernel = Kernel::new(VirtScheduler::new());
        let (host_hook, host_reader) = Tracer::create(TracerConfig::default());
        let route = Rc::new(RefCell::new(Vec::new()));
        let hooks = Rc::new(RefCell::new(vec![host_hook]));
        kernel.install_hook(Box::new(TraceMux {
            route: Rc::clone(&route),
            hooks: Rc::clone(&hooks),
        }));
        let host_mgr = SelfTuningManager::new(cfg.clone(), host_reader);
        VirtPlatform {
            kernel,
            cfg,
            host_mgr,
            vms: Vec::new(),
            route,
            hooks,
            share_events: Vec::new(),
        }
    }

    /// Creates a VM, admitting its share through the host supervisor.
    ///
    /// The share server is created at the admission floor and immediately
    /// parameterised through [`Supervisor::apply`] — the same path every
    /// task reservation takes, so the host bound arbitrates VM shares and
    /// flat reservations uniformly.
    ///
    /// # Errors
    ///
    /// [`VmAdmissionError::Rejected`] when the share does not fit under
    /// the host bound; nothing is created in that case. Use
    /// [`VirtPlatform::create_vm_curbed`] when a compressed share is
    /// acceptable.
    pub fn create_vm(&mut self, vm_cfg: VmConfig) -> Result<VmId, VmAdmissionError> {
        let requested = vm_cfg.share();
        if !self
            .cfg
            .supervisor
            .admits(self.kernel.sched().host(), vm_cfg.budget, vm_cfg.period)
        {
            let available = (self.cfg.supervisor.ulub
                - self.kernel.sched().host().total_reserved_bandwidth())
            .max(0.0);
            return Err(VmAdmissionError::Rejected {
                requested,
                available,
            });
        }
        Ok(self.create_vm_unchecked(vm_cfg))
    }

    /// Creates a VM like [`VirtPlatform::create_vm`], but never rejects:
    /// a share that does not fit is *compressed* to what the host bound
    /// allows (possibly down to the floor), exactly as an oversubscribed
    /// task grant would be. Returns the VM and its granted share `Q/T`.
    ///
    /// This is the live-migration admission path: the fleet rebalancer
    /// books destinations from its own model, which can drift from a
    /// node's self-tuned grants — a curbed landing beats a crashed node.
    pub fn create_vm_curbed(&mut self, vm_cfg: VmConfig) -> (VmId, f64) {
        let vm = self.create_vm_unchecked(vm_cfg);
        (vm, self.vm_share(vm))
    }

    fn create_vm_unchecked(&mut self, vm_cfg: VmConfig) -> VmId {
        let (guest, pending_mgr, slot) = match &vm_cfg.policy {
            GuestPolicy::Edf => (GuestSched::Edf(EdfScheduler::new()), None, 0),
            GuestPolicy::SelfTuning(mgr_cfg) => {
                let (hook, reader) = Tracer::create(TracerConfig::default());
                let slot = self.hooks.borrow().len() as u16;
                self.hooks.borrow_mut().push(hook);
                (
                    GuestSched::Reservation(ReservationScheduler::new()),
                    Some((mgr_cfg.clone(), reader)),
                    slot,
                )
            }
        };
        let floor = self.cfg.supervisor.budget_floor(vm_cfg.period);
        let vm = self.kernel.sched_mut().create_vm(
            ServerConfig::new(floor, vm_cfg.period).with_mode(self.cfg.cbs_mode),
            guest,
        );
        let sid = self.kernel.sched_mut().vm_server_id(vm);
        self.cfg.supervisor.apply(
            self.kernel.sched_mut().host_mut(),
            &[BwRequest {
                server: sid,
                budget: vm_cfg.budget,
                period: vm_cfg.period,
            }],
        );
        // The tenant's inner bound never exceeds what the host actually
        // *granted* — on the curbed path that can be well below the
        // requested share, and a guest supervisor bounded by the request
        // would hand out uncompressed grants (and report no compression
        // pressure) against supply that does not exist.
        let granted = self.vm_share(vm);
        let mgr = pending_mgr.map(|(mut mgr_cfg, reader)| {
            mgr_cfg.supervisor.ulub = mgr_cfg.supervisor.ulub.min(granted).max(1e-6);
            SelfTuningManager::new(mgr_cfg, reader)
        });
        self.vms.push(VmRuntime {
            label: vm_cfg.label,
            mgr,
            slot,
            tasks: Vec::new(),
            killed: false,
            elastic: None,
        });
        vm
    }

    /// Puts the VM's host share under a [`ShareController`]: every 500 ms,
    /// starting 500 ms from now, the share is re-requested from the
    /// tenant's *measured* demand (guest bookings, share consumption,
    /// compression events) through the host supervisor. The controller's
    /// cap is clamped to the host bound, so an elastic VM can never
    /// oversubscribe the node; grants are propagated down into the guest
    /// manager's own bound, so tenant-internal compression always reflects
    /// the live supply.
    pub fn make_vm_elastic(&mut self, vm: VmId, cfg: VmElasticConfig) {
        let mut law = cfg.controller;
        law.max_share = law.max_share.min(self.cfg.supervisor.ulub);
        law.min_share = law.min_share.min(law.max_share);
        let periods = cfg.adapt_period.then(|| {
            PeriodAdapter::new(
                HYSTERESIS,
                law.confirmations,
                ADAPTED_PERIOD_MIN,
                ADAPTED_PERIOD_MAX,
            )
        });
        let now = self.kernel.now();
        let consumed = self.vm_consumed(vm);
        let rt = &mut self.vms[vm.index()];
        let last_compressions = rt
            .mgr
            .as_ref()
            .map_or(0, SelfTuningManager::compressed_grants);
        rt.elastic = Some(ElasticRt {
            ctl: ShareController::new(law),
            periods,
            next_at: now + CONTROL_PERIOD,
            last_consumed: consumed,
            last_compressions,
            last_at: now,
            share_key: None,
        });
    }

    /// The most common detected period among the VM's managed guest
    /// tasks (ties to the shorter period), if any guest task has one —
    /// the observation the share-period adapter tracks.
    fn vm_dominant_period(&self, vm: VmId) -> Option<Dur> {
        let mgr = self.vms[vm.index()].mgr.as_ref()?;
        let mut counts: Vec<(Dur, u32)> = Vec::new();
        for &tid in &self.vms[vm.index()].tasks {
            let Some(p) = mgr.controller_of(tid).and_then(|c| c.period()) else {
                continue;
            };
            match counts.iter_mut().find(|(q, _)| *q == p) {
                Some((_, n)) => *n += 1,
                None => counts.push((p, 1)),
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(p, _)| p)
    }

    /// The bandwidth bound currently imposed on the VM's guest manager
    /// (its inner supervisor's `U_lub`), if the guest is self-tuning.
    /// Elastic re-grants move this bound; it must never collapse below
    /// the share of the supervisor's budget floor.
    pub fn vm_guest_bound(&self, vm: VmId) -> Option<f64> {
        self.vms[vm.index()]
            .mgr
            .as_ref()
            .map(|m| m.config().supervisor.ulub)
    }

    /// One elastic control step of a VM whose step is due: assembles the
    /// [`DemandSignal`] from the sensors' deltas, steps the share law,
    /// executes any re-request through the host supervisor and re-bounds
    /// the guest manager at the new grant.
    fn step_vm_share(&mut self, vm: VmId) {
        let now = self.kernel.now();
        let Some(mut el) = self.vms[vm.index()].elastic.take() else {
            return;
        };
        if now >= el.next_at {
            let mgr = self.vms[vm.index()].mgr.as_ref();
            let booked = mgr.map_or(0.0, |mgr| {
                mgr.booked_bandwidth(Scope::Vm(vm).reservations(self.kernel.sched()))
            });
            let compressions = mgr.map_or(0, SelfTuningManager::compressed_grants);
            let consumed = self.vm_consumed(vm);
            let (consumed_delta, elapsed) = (
                consumed.saturating_sub(el.last_consumed),
                now.saturating_since(el.last_at),
            );
            let signal = DemandSignal {
                consumed_bw: if elapsed.is_zero() {
                    0.0
                } else {
                    consumed_delta.ratio(elapsed)
                },
                booked_bw: booked,
                granted_bw: self.vm_share(vm),
                compressions: compressions - el.last_compressions,
            };
            (el.last_consumed, el.last_compressions, el.last_at) = (consumed, compressions, now);
            el.next_at = now + CONTROL_PERIOD;
            if let Some(pa) = el.periods.as_mut() {
                if let Some(dom) = self.vm_dominant_period(vm) {
                    pa.observe(dom.as_secs_f64());
                }
            }
            let (decision, trace) = el.ctl.step(&signal);
            if let ShareDecision::Request(target) = decision {
                // T^s = P one level up: a re-request carries the adapted
                // share period (tracking the dominant guest period) when
                // adaptation is on, the server's current period otherwise.
                let period = match el.periods.as_ref().and_then(PeriodAdapter::period) {
                    Some(secs) => Dur::secs(1).mul_f64(secs),
                    None => self.vm_server(vm).config().period,
                };
                let floor = self.cfg.supervisor.budget_floor(period);
                let budget = period.mul_f64(target).max(floor).min(period);
                let (granted, compressed, available) = self.request_vm_share(vm, budget, period);
                self.rebound_guest(vm, granted, period);
                self.share_events.push((
                    vm,
                    ShareGrant {
                        at: now,
                        demand: trace.demand,
                        target,
                        granted,
                        compressed,
                        clamp: trace.clamp,
                        pending: trace.pending,
                        available,
                    },
                ));
            }
            let share = self.vm_share(vm);
            let key = match el.share_key {
                Some(k) => k,
                None => {
                    let label = &self.vms[vm.index()].label;
                    let k = self.kernel.metrics_mut().key(&format!("{label}.share"));
                    el.share_key = Some(k);
                    k
                }
            };
            self.kernel.metrics_mut().record_k(key, now, share);
        }
        self.vms[vm.index()].elastic = Some(el);
    }

    /// Re-requests a VM's share mid-run through the host supervisor (the
    /// grant may be compressed under saturation). Returns the supervisor
    /// arithmetic a decision journal records: `(granted share Q/T,
    /// compressed, available)`.
    pub fn request_vm_share(&mut self, vm: VmId, budget: Dur, period: Dur) -> (f64, bool, f64) {
        let sid = self.kernel.sched_mut().vm_server_id(vm);
        let (grants, report) = self.cfg.supervisor.apply_detailed(
            self.kernel.sched_mut().host_mut(),
            &[BwRequest {
                server: sid,
                budget,
                period,
            }],
        );
        let g = grants.first();
        (
            g.map(|g| g.bandwidth()).unwrap_or(0.0),
            g.map(|g| g.compressed).unwrap_or(false),
            report.available,
        )
    }

    /// Re-bounds a self-tuning guest's manager at its VM's new grant
    /// `granted` over `period`. Even a fully compressed grant leaves the
    /// guest manager a real bound: the supervisor never shrinks a server
    /// below its budget floor, so that floor's share — not an arbitrary
    /// epsilon — is the honest lower limit. (A zero bound would poison the
    /// guest supervisor outright.)
    fn rebound_guest(&mut self, vm: VmId, granted: f64, period: Dur) {
        let floor = self
            .cfg
            .supervisor
            .budget_floor(period)
            .ratio(period)
            .min(1.0);
        if let Some(mgr) = self.vms[vm.index()].mgr.as_mut() {
            mgr.set_bandwidth_bound(granted.clamp(floor, 1.0));
        }
    }

    /// Drains the executed elastic re-grants buffered since the previous
    /// drain, in simulation order, each beside the VM it moved. A fleet
    /// runner embeds these in journal records; callers that never drain
    /// pay one growing `Vec`.
    pub fn drain_share_grants(&mut self) -> Vec<(VmId, ShareGrant)> {
        std::mem::take(&mut self.share_events)
    }

    /// Spawns a workload inside a VM, ready at `start`.
    pub fn spawn_in_vm_at(
        &mut self,
        vm: VmId,
        name: &str,
        workload: Box<dyn Workload>,
        start: Time,
    ) -> TaskId {
        let tid = self.kernel.spawn_at(name, workload, start);
        self.kernel.sched_mut().assign(tid, vm);
        let mut route = self.route.borrow_mut();
        if route.len() <= tid.index() {
            route.resize(tid.index() + 1, 0);
        }
        route[tid.index()] = self.vms[vm.index()].slot;
        drop(route);
        self.vms[vm.index()].tasks.push(tid);
        tid
    }

    /// Spawns a workload inside a VM, ready immediately.
    pub fn spawn_in_vm(&mut self, vm: VmId, name: &str, workload: Box<dyn Workload>) -> TaskId {
        self.spawn_in_vm_at(vm, name, workload, self.kernel.now())
    }

    /// The scope's manager (`None` for a VM that has none or was killed)
    /// beside the kernel it steps — the split borrow every per-scope
    /// operation starts from.
    fn scoped(
        &mut self,
        scope: Scope,
    ) -> (Option<&mut SelfTuningManager>, &mut Kernel<VirtScheduler>) {
        let mgr = match scope {
            Scope::Host => Some(&mut self.host_mgr),
            Scope::Vm(vm) => {
                let rt = &mut self.vms[vm.index()];
                rt.mgr.as_mut().filter(|_| !rt.killed)
            }
        };
        (mgr, &mut self.kernel)
    }

    /// Puts a task under its scope's self-tuning manager. With `warm =
    /// Some((budget, period))` — the controller state a migration carries
    /// — the reservation is created at once instead of after detection
    /// (see [`SelfTuningManager::manage_warm_in`]).
    ///
    /// # Panics
    ///
    /// Panics if the scope is a VM without a live manager: not a
    /// [`GuestPolicy::SelfTuning`] guest, or killed.
    pub fn manage(
        &mut self,
        scope: Scope,
        task: TaskId,
        label: &str,
        cfg: ControllerConfig,
        warm: Option<(Dur, Dur)>,
    ) {
        let (mgr, kernel) = self.scoped(scope);
        let mgr = mgr.unwrap_or_else(|| panic!("{scope:?} has no live self-tuning manager"));
        match warm {
            Some((budget, period)) => mgr.manage_warm_in(
                kernel,
                |s| scope.reservations_mut(s),
                task,
                label,
                cfg,
                budget,
                period,
            ),
            None => mgr.manage(task, label, cfg),
        }
    }

    /// Cold-starts a guest task under its VM's manager:
    /// [`VirtPlatform::manage`] in the VM's scope.
    pub fn manage_in_vm(&mut self, vm: VmId, task: TaskId, label: &str, cfg: ControllerConfig) {
        self.manage(Scope::Vm(vm), task, label, cfg, None);
    }

    /// Stops managing a task (reservation released). `false` when its
    /// scope's manager did not hold it.
    pub fn unmanage(&mut self, scope: Scope, task: TaskId) -> bool {
        let (mgr, kernel) = self.scoped(scope);
        mgr.is_some_and(|m| m.unmanage_in(kernel, |s| scope.reservations_mut(s), task))
    }

    /// The reservation `(budget, period)` a task currently holds in its
    /// scope, if its manager has attached one.
    pub fn reservation_of(&self, scope: Scope, task: TaskId) -> Option<(Dur, Dur)> {
        let mgr = match scope {
            Scope::Host => Some(&self.host_mgr),
            Scope::Vm(vm) => self.guest_manager(vm),
        };
        let sid = mgr?.server_of(task)?;
        let cfg = scope.reservations(self.kernel.sched()).server(sid).config();
        Some((cfg.budget, cfg.period))
    }

    /// Registers a relative deadline with a VM's EDF guest.
    ///
    /// # Panics
    ///
    /// Panics if the VM's guest is not [`GuestPolicy::Edf`].
    pub fn set_guest_deadline(&mut self, vm: VmId, task: TaskId, rel: Dur) {
        match self.kernel.sched_mut().guest_mut(vm) {
            GuestSched::Edf(e) => e.set_relative_deadline(task, rel),
            _ => panic!("{vm} is not an EDF guest"),
        }
    }

    /// Kills a VM: every guest task is unmanaged and terminated, and the
    /// VM's share shrinks to the admission floor — its bandwidth returns
    /// to the host pool. Returns `false` if the VM was already killed.
    pub fn kill_vm(&mut self, vm: VmId) -> bool {
        if self.vms[vm.index()].killed {
            return false;
        }
        for i in 0..self.vms[vm.index()].tasks.len() {
            let t = self.vms[vm.index()].tasks[i];
            self.unmanage(Scope::Vm(vm), t);
            self.kernel.kill(t);
        }
        let rt = &mut self.vms[vm.index()];
        rt.killed = true;
        rt.elastic = None;
        self.kernel.sched_mut().release_vm(vm);
        true
    }

    /// One sampling step of every manager (host first, then VMs in id
    /// order, then due elastic share controllers in id order — a
    /// deterministic schedule where share decisions always see the guest
    /// managers' freshest bookings).
    pub fn step_managers(&mut self) {
        let vms = (0..self.vms.len() as u32).map(VmId);
        for scope in std::iter::once(Scope::Host).chain(vms.clone().map(Scope::Vm)) {
            if let (Some(mgr), kernel) = self.scoped(scope) {
                mgr.step_in(kernel, |s| scope.reservations_mut(s));
            }
        }
        for vm in vms {
            if !self.vms[vm.index()].killed {
                self.step_vm_share(vm);
            }
        }
    }

    /// Drives the kernel to `until`, stepping every manager at the host
    /// sampling period.
    pub fn run(&mut self, until: Time) {
        while self.kernel.now() < until {
            let next = (self.kernel.now() + self.cfg.sampling).min(until);
            self.kernel.run_until(next);
            self.step_managers();
        }
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &Kernel<VirtScheduler> {
        &self.kernel
    }

    /// Mutable access to the underlying kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel<VirtScheduler> {
        &mut self.kernel
    }

    /// The host-level manager (flat legacy tasks).
    pub fn host_manager(&self) -> &SelfTuningManager {
        &self.host_mgr
    }

    /// The per-guest manager of a VM, if it is self-tuning.
    pub fn guest_manager(&self, vm: VmId) -> Option<&SelfTuningManager> {
        self.vms[vm.index()].mgr.as_ref()
    }

    /// Number of VMs created.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The host server backing the VM's share.
    pub fn vm_server(&self, vm: VmId) -> &Server {
        self.kernel.sched().vm_server(vm)
    }

    /// The VM's currently granted share `Q/T`.
    pub fn vm_share(&self, vm: VmId) -> f64 {
        self.vm_server(vm).config().bandwidth()
    }

    /// Cumulative CPU consumed by the VM (all guest tasks).
    pub(crate) fn vm_consumed(&self, vm: VmId) -> Dur {
        self.vm_server(vm).stats().consumed
    }

    /// Total host bandwidth currently reserved (VM shares + flat
    /// reservations).
    pub fn host_reserved_bandwidth(&self) -> f64 {
        self.kernel.sched().host().total_reserved_bandwidth()
    }

    /// The host supervisor in force.
    pub fn supervisor(&self) -> &Supervisor {
        &self.cfg.supervisor
    }

    /// Re-bounds the host supervisor's utilisation cap `U_lub` in place —
    /// the node-level control knob one level above the elastic VM loop.
    ///
    /// The new bound governs every later admission and apply pass: both
    /// the flat-task manager and VM share requests route through the one
    /// host supervisor, whose cap moves here. When the bound drops below
    /// what is currently granted, every live VM share is recompressed
    /// immediately through one supervisor apply pass (in VM-id order,
    /// proportionally), and each self-tuning guest's own bound follows
    /// its new grant — the same downward propagation an elastic re-grant
    /// performs. Flat-task grants recompress on their manager's next
    /// apply pass under the new cap.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ulub <= 1`.
    pub fn set_host_ulub(&mut self, ulub: f64) {
        assert!(ulub > 0.0 && ulub <= 1.0, "ulub {ulub} out of (0, 1]");
        self.cfg.supervisor.ulub = ulub;
        self.host_mgr.set_bandwidth_bound(ulub);
        if self.host_reserved_bandwidth() <= ulub + 1e-9 {
            return;
        }
        let live: Vec<VmId> = (0..self.vms.len() as u32)
            .map(VmId)
            .filter(|vm| !self.vms[vm.index()].killed)
            .collect();
        if live.is_empty() {
            return;
        }
        let reqs: Vec<BwRequest> = live
            .iter()
            .map(|&vm| {
                let cfg = self.vm_server(vm).config();
                BwRequest {
                    server: self.kernel.sched().vm_server_id(vm),
                    budget: cfg.budget,
                    period: cfg.period,
                }
            })
            .collect();
        let grants = self
            .cfg
            .supervisor
            .apply(self.kernel.sched_mut().host_mut(), &reqs);
        for (&vm, grant) in live.iter().zip(&grants) {
            self.rebound_guest(vm, grant.bandwidth(), grant.period);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.kernel.now()
    }
}
