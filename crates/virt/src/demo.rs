//! The canonical VM-consolidation scenario, shared by the
//! `vm_consolidation` experiment, the example and the e2e test so they
//! cannot drift apart.
//!
//! Two tenants consolidate onto one host at a fixed total bandwidth
//! ([`TOTAL_BANDWIDTH`]):
//!
//! * the **victim** — a well-behaved 25 Hz application (20 ms jobs every
//!   40 ms, utilisation 0.5) in a VM granted a 0.6 share;
//! * the **noisy neighbour** — two greedy tasks (38 ms jobs every 40 ms,
//!   1.9 total demand) in a VM granted a 0.3 share.
//!
//! Three configurations answer the isolation question:
//!
//! * **solo** — the victim's VM alone (its baseline miss rate);
//! * **hierarchical** — both VMs under two-level CBS with per-guest
//!   self-tuning: the neighbour's overload compresses *its own* tenant's
//!   reservations only, so the victim holds its share;
//! * **flat** — the same task set under one flat self-tuning manager at
//!   the same total bound: the supervisor's proportional compression
//!   spreads the neighbour's greed across *every* task, and the victim —
//!   which needs most of its demand to make its deadlines — melts.
//!
//! The module also hosts the canonical **elasticity** scenarios backing
//! the `vm_elasticity` experiment/example/e2e: [`run_two_phase`] (an
//! idle-phase tenant's share reclaimed for a hungry sibling once both are
//! elastic) and [`run_runaway`] (a runaway elastic
//! tenant pinned at the host cap next to an untouched static sibling).

use selftune_apps::PeriodicRt;
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_sched::{ReservationScheduler, Supervisor};
use selftune_simcore::metrics::Metrics;
use selftune_simcore::rng::Rng;
use selftune_simcore::task::{Action, TaskCtx, Workload};
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::Kernel;
use selftune_tracer::{Tracer, TracerConfig};

use crate::elastic::VmElasticConfig;
use crate::platform::{VirtPlatform, VmConfig};

/// Total reservable bandwidth in every configuration: the two VM shares
/// (0.6 + 0.3) in the hierarchical runs, the supervisor bound in the flat
/// run.
pub const TOTAL_BANDWIDTH: f64 = 0.9;

/// A completion gap above `MISS_FACTOR × P` counts as a deadline miss.
///
/// Tighter than the fleet layer's 1.5 because the claim under test is
/// *isolation*: the victim's jobs either hold their 40 ms cadence (gap
/// ratio ≈ 1.0) or run against a compressed grant (ratio ≥ ~1.3); 1.25
/// separates the two regimes with margin for cost noise.
pub const MISS_FACTOR: f64 = 1.25;

/// The victim's job parameters: 20 ms every 40 ms.
pub const VICTIM_WCET_MS: u64 = 20;
/// The victim's period.
pub const VICTIM_PERIOD_MS: u64 = 40;
/// Each noisy task's job cost: 38 ms every 40 ms (demand 0.95 apiece).
pub const NOISY_WCET_MS: u64 = 38;
/// The noisy tasks' period.
pub const NOISY_PERIOD_MS: u64 = 40;
/// Number of noisy tasks in the neighbour VM.
pub const NOISY_TASKS: usize = 2;

/// Completion/miss counters of one tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuestStats {
    /// Completed jobs.
    pub completions: u64,
    /// Completion gaps observed.
    pub gaps: u64,
    /// Gaps exceeding [`MISS_FACTOR`] times the nominal period.
    pub misses: u64,
}

impl GuestStats {
    /// Deadline-miss rate over the observed gaps (0 when none).
    pub fn miss_rate(&self) -> f64 {
        if self.gaps == 0 {
            0.0
        } else {
            self.misses as f64 / self.gaps as f64
        }
    }

    fn add_label(&mut self, metrics: &Metrics, label: &str, period_ms: f64) {
        let mark = format!("{label}.job");
        self.completions += metrics.marks(&mark).len() as u64;
        for gap in metrics.inter_mark_iter(&mark) {
            self.gaps += 1;
            if gap / period_ms > MISS_FACTOR {
                self.misses += 1;
            }
        }
    }
}

/// Per-tenant outcome of one consolidation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsolidationReport {
    /// The well-behaved tenant.
    pub victim: GuestStats,
    /// The noisy tenant.
    pub noisy: GuestStats,
}

impl ConsolidationReport {
    /// Total completions across both tenants.
    pub fn completions(&self) -> u64 {
        self.victim.completions + self.noisy.completions
    }
}

fn victim_workload(seed: u64) -> PeriodicRt {
    PeriodicRt::new(
        "victim",
        Dur::ms(VICTIM_WCET_MS),
        Dur::ms(VICTIM_PERIOD_MS),
        0.1,
        Rng::new(seed),
    )
}

fn noisy_workload(label: &str, seed: u64) -> PeriodicRt {
    PeriodicRt::new(
        label,
        Dur::ms(NOISY_WCET_MS),
        Dur::ms(NOISY_PERIOD_MS),
        0.1,
        Rng::new(seed),
    )
}

fn host_manager_config() -> ManagerConfig {
    ManagerConfig {
        supervisor: Supervisor::new(0.95),
        ..ManagerConfig::default()
    }
}

/// The victim tenant's VM: a 0.6 share supplied at 10 ms granularity.
pub fn victim_vm() -> VmConfig {
    VmConfig::self_tuning("victim-vm", Dur::ms(6), Dur::ms(10))
}

/// The noisy tenant's VM: a 0.3 share supplied at 10 ms granularity.
pub fn noisy_vm() -> VmConfig {
    VmConfig::self_tuning("noisy-vm", Dur::ms(3), Dur::ms(10))
}

fn victim_stats(metrics: &Metrics) -> GuestStats {
    let mut s = GuestStats::default();
    s.add_label(metrics, "victim", VICTIM_PERIOD_MS as f64);
    s
}

fn noisy_stats(metrics: &Metrics) -> GuestStats {
    let mut s = GuestStats::default();
    for i in 0..NOISY_TASKS {
        s.add_label(metrics, &format!("noisy{i}"), NOISY_PERIOD_MS as f64);
    }
    s
}

/// The victim's VM running alone — its solo-run baseline.
pub fn run_solo(horizon: Dur, seed: u64) -> GuestStats {
    let mut p = VirtPlatform::new(host_manager_config());
    let vm = p.create_vm(victim_vm()).expect("solo share fits");
    let tid = p.spawn_in_vm(vm, "victim", Box::new(victim_workload(seed)));
    p.manage_in_vm(vm, tid, "victim", ControllerConfig::default());
    p.run(Time::ZERO + horizon);
    victim_stats(p.kernel().metrics())
}

/// Both tenants under two-level CBS with per-guest self-tuning.
pub fn run_hierarchical(horizon: Dur, seed: u64) -> ConsolidationReport {
    let mut p = VirtPlatform::new(host_manager_config());
    let victim = p.create_vm(victim_vm()).expect("victim share fits");
    let noisy = p.create_vm(noisy_vm()).expect("noisy share fits");
    let tid = p.spawn_in_vm(victim, "victim", Box::new(victim_workload(seed)));
    p.manage_in_vm(victim, tid, "victim", ControllerConfig::default());
    for i in 0..NOISY_TASKS {
        let label = format!("noisy{i}");
        let tid = p.spawn_in_vm(
            noisy,
            &label,
            Box::new(noisy_workload(&label, seed ^ (0xB0 + i as u64))),
        );
        p.manage_in_vm(noisy, tid, &label, ControllerConfig::default());
    }
    p.run(Time::ZERO + horizon);
    ConsolidationReport {
        victim: victim_stats(p.kernel().metrics()),
        noisy: noisy_stats(p.kernel().metrics()),
    }
}

// ---------------------------------------------------------------------
// The elasticity scenario (`vm_elasticity` experiment / e2e / example).
// ---------------------------------------------------------------------

/// The phased tenant's job cost: 12 ms every 40 ms (demand 0.3) while
/// busy.
pub const PHASED_WCET_MS: u64 = 12;
/// The phased tenant's period.
pub const PHASED_PERIOD_MS: u64 = 40;
/// Each hungry task's job cost (two of them: demand 0.6 total, inside a
/// 0.45 share — compressed until the sibling's bandwidth is reclaimed).
pub const HUNGRY_WCET_MS: u64 = 12;
/// The hungry tasks' period.
pub const HUNGRY_PERIOD_MS: u64 = 40;
/// Number of hungry guest tasks.
pub const HUNGRY_TASKS: usize = 2;
/// Fraction of the horizon after which the phased tenant goes idle.
pub const IDLE_FROM_FRAC: f64 = 0.4;
/// Both elasticity-demo VMs start at a 0.45 share (4.5 ms / 10 ms).
pub const ELASTIC_SHARE_BUDGET_US: u64 = 4_500;
/// Share period of the elasticity-demo VMs.
pub const ELASTIC_SHARE_PERIOD_MS: u64 = 10;

/// Delegates to the inner workload until `idle_from`, then parks in long
/// sleeps — a tenant whose demand collapses mid-run without exiting (the
/// VM stays admitted; only its *measured* demand goes to zero).
pub struct IdlePhase {
    inner: Box<dyn Workload>,
    idle_from: Time,
}

impl IdlePhase {
    /// Wraps `inner` so it idles (but stays alive) from `idle_from` on.
    pub fn new(inner: Box<dyn Workload>, idle_from: Time) -> IdlePhase {
        IdlePhase { inner, idle_from }
    }
}

impl Workload for IdlePhase {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        if ctx.now >= self.idle_from {
            return Action::SleepFor(Dur::secs(1));
        }
        self.inner.next(ctx)
    }
}

/// Outcome of one two-tenant elasticity run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElasticityReport {
    /// The tenant whose demand collapses mid-run.
    pub phased: GuestStats,
    /// The tenant that wants more than its static share.
    pub hungry: GuestStats,
    /// The phased VM's granted share at the horizon.
    pub phased_share: f64,
    /// The hungry VM's granted share at the horizon.
    pub hungry_share: f64,
}

/// Two tenants at equal 0.45 shares (0.9 total): a *phased* VM whose
/// single guest goes idle at [`IDLE_FROM_FRAC`] of the horizon, and a
/// *hungry* VM whose two guests want 0.6. With `elastic` off the shares
/// are frozen at admission (the hungry tenant stays compressed forever,
/// the idle tenant hoards 0.45 of dark bandwidth); with `elastic` on each
/// VM's share follows its measured demand
/// ([`VirtPlatform::make_vm_elastic`]) and the idle share is reclaimed
/// and re-granted to the hungry sibling.
pub fn run_two_phase(horizon: Dur, seed: u64, elastic: bool) -> ElasticityReport {
    let mut p = VirtPlatform::new(host_manager_config());
    let share = |label: &str| {
        VmConfig::self_tuning(
            label,
            Dur::us(ELASTIC_SHARE_BUDGET_US),
            Dur::ms(ELASTIC_SHARE_PERIOD_MS),
        )
    };
    let phased_vm = p.create_vm(share("phased-vm")).expect("0.45 fits");
    let hungry_vm = p.create_vm(share("hungry-vm")).expect("0.9 total fits");

    let idle_from = Time::ZERO + horizon.mul_f64(IDLE_FROM_FRAC);
    let inner = PeriodicRt::new(
        "phased",
        Dur::ms(PHASED_WCET_MS),
        Dur::ms(PHASED_PERIOD_MS),
        0.1,
        Rng::new(seed),
    );
    let tid = p.spawn_in_vm(
        phased_vm,
        "phased",
        Box::new(IdlePhase::new(Box::new(inner), idle_from)),
    );
    p.manage_in_vm(phased_vm, tid, "phased", ControllerConfig::default());
    for i in 0..HUNGRY_TASKS {
        let label = format!("hungry{i}");
        let w = PeriodicRt::new(
            &label,
            Dur::ms(HUNGRY_WCET_MS),
            Dur::ms(HUNGRY_PERIOD_MS),
            0.1,
            Rng::new(seed ^ (0xE1 + i as u64)),
        );
        let tid = p.spawn_in_vm(hungry_vm, &label, Box::new(w));
        p.manage_in_vm(hungry_vm, tid, &label, ControllerConfig::default());
    }
    if elastic {
        p.make_vm_elastic(phased_vm, VmElasticConfig::default());
        p.make_vm_elastic(hungry_vm, VmElasticConfig::default());
    }
    p.run(Time::ZERO + horizon);

    let mut phased = GuestStats::default();
    phased.add_label(p.kernel().metrics(), "phased", PHASED_PERIOD_MS as f64);
    let mut hungry = GuestStats::default();
    for i in 0..HUNGRY_TASKS {
        hungry.add_label(
            p.kernel().metrics(),
            &format!("hungry{i}"),
            HUNGRY_PERIOD_MS as f64,
        );
    }
    ElasticityReport {
        phased,
        hungry,
        phased_share: p.vm_share(phased_vm),
        hungry_share: p.vm_share(hungry_vm),
    }
}

/// Outcome of the runaway-tenant elasticity run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunawayReport {
    /// The well-behaved sibling (static share).
    pub victim: GuestStats,
    /// The elastic tenant whose guests want ~1.9 CPUs.
    pub runaway: GuestStats,
    /// The largest share ever granted to the runaway VM.
    pub runaway_peak_share: f64,
    /// The victim VM's share at the horizon (must be untouched).
    pub victim_share: f64,
}

/// The consolidation scenario with the noisy tenant made *elastic*: its
/// controller probes upward forever (its guests want 1.9 CPUs), but the
/// host supervisor caps every grant at the bound minus the victim's fixed
/// share — a runaway elastic VM is pinned at the host cap and its sibling
/// never feels it.
pub fn run_runaway(horizon: Dur, seed: u64) -> RunawayReport {
    let mut p = VirtPlatform::new(host_manager_config());
    let victim = p.create_vm(victim_vm()).expect("victim share fits");
    let noisy = p.create_vm(noisy_vm()).expect("noisy share fits");
    let tid = p.spawn_in_vm(victim, "victim", Box::new(victim_workload(seed)));
    p.manage_in_vm(victim, tid, "victim", ControllerConfig::default());
    for i in 0..NOISY_TASKS {
        let label = format!("noisy{i}");
        let tid = p.spawn_in_vm(
            noisy,
            &label,
            Box::new(noisy_workload(&label, seed ^ (0xB0 + i as u64))),
        );
        p.manage_in_vm(noisy, tid, &label, ControllerConfig::default());
    }
    p.make_vm_elastic(noisy, VmElasticConfig::default());
    p.run(Time::ZERO + horizon);
    let peak = p
        .kernel()
        .metrics()
        .series("noisy-vm.share")
        .iter()
        .map(|&(_, s)| s)
        .fold(p.vm_share(noisy), f64::max);
    RunawayReport {
        victim: victim_stats(p.kernel().metrics()),
        runaway: noisy_stats(p.kernel().metrics()),
        runaway_peak_share: peak,
        victim_share: p.vm_share(victim),
    }
}

/// The same task set (victim + noisy tasks) under one flat self-tuning
/// manager at the same total bandwidth — no tenant boundary, so
/// compression is fleet-wide.
pub fn run_flat(horizon: Dur, seed: u64) -> ConsolidationReport {
    let mut k = Kernel::new(ReservationScheduler::new());
    let (hook, reader) = Tracer::create(TracerConfig::default());
    k.install_hook(Box::new(hook));
    let mut mgr = SelfTuningManager::new(
        ManagerConfig {
            supervisor: Supervisor::new(TOTAL_BANDWIDTH),
            ..ManagerConfig::default()
        },
        reader,
    );
    let tid = k.spawn("victim", Box::new(victim_workload(seed)));
    mgr.manage(tid, "victim", ControllerConfig::default());
    for i in 0..NOISY_TASKS {
        let label = format!("noisy{i}");
        let tid = k.spawn(
            &label,
            Box::new(noisy_workload(&label, seed ^ (0xB0 + i as u64))),
        );
        mgr.manage(tid, &label, ControllerConfig::default());
    }
    mgr.run(&mut k, Time::ZERO + horizon);
    ConsolidationReport {
        victim: victim_stats(k.metrics()),
        noisy: noisy_stats(k.metrics()),
    }
}
