//! Platform-level tests: per-guest self-tuning inside VM shares, VM
//! lifecycle, and host supervisor arbitration under nesting.

use selftune_apps::PeriodicRt;
use selftune_core::{ControllerConfig, ManagerConfig};
use selftune_sched::Supervisor;
use selftune_simcore::kernel::TaskState;
use selftune_simcore::rng::Rng;
use selftune_simcore::time::{Dur, Time};
use selftune_virt::prelude::*;

fn platform(ulub: f64) -> VirtPlatform {
    VirtPlatform::new(ManagerConfig {
        supervisor: Supervisor::new(ulub),
        ..ManagerConfig::default()
    })
}

fn rt(label: &str, wcet_ms: u64, period_ms: u64, seed: u64) -> Box<PeriodicRt> {
    Box::new(PeriodicRt::new(
        label,
        Dur::ms(wcet_ms),
        Dur::ms(period_ms),
        0.1,
        Rng::new(seed),
    ))
}

#[test]
fn per_guest_manager_detects_and_attaches_inside_the_vm() {
    let mut p = platform(0.95);
    let vm = p
        .create_vm(VmConfig::self_tuning("tenant", Dur::ms(4), Dur::ms(10)))
        .expect("share fits");
    let tid = p.spawn_in_vm(vm, "app", rt("app", 4, 40, 5));
    p.manage_in_vm(vm, tid, "app", ControllerConfig::default());
    p.run(Time::ZERO + Dur::secs(8));

    // The guest manager detected the period and attached an *inner*
    // reservation, bounded by the VM's 0.4 share.
    let mgr = p.guest_manager(vm).expect("self-tuning guest");
    let ctl = mgr.controller_of(tid).expect("managed");
    let period = ctl.period().expect("period detected inside the VM");
    assert!((period.as_ms_f64() - 40.0).abs() < 2.0, "{period}");
    assert!(mgr.server_of(tid).is_some(), "inner reservation attached");
    // Jobs hold their cadence through the share.
    let gaps = p.kernel().metrics().inter_mark_times_ms("app.job");
    let late = gaps.iter().filter(|&&g| g > 60.0).count();
    assert!(gaps.len() > 150, "jobs completed: {}", gaps.len());
    assert!(late * 20 < gaps.len(), "{late} of {} late", gaps.len());
    // The host only sees the VM's share; the inner reservation does not
    // leak into host accounting.
    assert!(p.host_reserved_bandwidth() < 0.45);
}

#[test]
fn tenant_overload_compresses_inside_its_own_vm() {
    let mut p = platform(0.95);
    let quiet = p
        .create_vm(VmConfig::self_tuning("quiet", Dur::ms(3), Dur::ms(10)))
        .expect("fits");
    let greedy = p
        .create_vm(VmConfig::self_tuning("greedy", Dur::ms(5), Dur::ms(10)))
        .expect("fits");
    let q = p.spawn_in_vm(quiet, "q", rt("q", 2, 40, 1));
    p.manage_in_vm(quiet, q, "q", ControllerConfig::default());
    for i in 0..2 {
        let label = format!("g{i}");
        let t = p.spawn_in_vm(greedy, &label, rt(&label, 30, 40, 2 + i));
        p.manage_in_vm(greedy, t, &label, ControllerConfig::default());
    }
    p.run(Time::ZERO + Dur::secs(8));

    // The greedy tenant's manager had to compress grants (its tasks want
    // 1.5 CPUs inside a 0.5 share); the quiet tenant's manager did not.
    let greedy_mgr = p.guest_manager(greedy).expect("self-tuning");
    let quiet_mgr = p.guest_manager(quiet).expect("self-tuning");
    assert!(
        greedy_mgr.compressed_grants() > 0,
        "tenant overload must compress inside the tenant"
    );
    assert_eq!(
        quiet_mgr.compressed_grants(),
        0,
        "the quiet tenant must not be compressed by its neighbour"
    );
    // And the quiet tenant's jobs still complete on time.
    let gaps = p.kernel().metrics().inter_mark_times_ms("q.job");
    let late = gaps.iter().filter(|&&g| g > 60.0).count();
    assert!(late * 10 < gaps.len(), "{late} of {}", gaps.len());
}

#[test]
fn vm_admission_rejects_overcommitted_shares() {
    let mut p = platform(0.8);
    p.create_vm(VmConfig::self_tuning("a", Dur::ms(6), Dur::ms(10)))
        .expect("0.6 fits under 0.8");
    let err = p
        .create_vm(VmConfig::self_tuning("b", Dur::ms(3), Dur::ms(10)))
        .expect_err("0.6 + 0.3 > 0.8");
    match err {
        VmAdmissionError::Rejected {
            requested,
            available,
        } => {
            assert!((requested - 0.3).abs() < 1e-9);
            assert!(available < 0.3);
        }
    }
    // The rejected VM left nothing behind.
    assert_eq!(p.vm_count(), 1);
    assert!(p.host_reserved_bandwidth() < 0.7);
}

#[test]
fn curbed_admission_compresses_instead_of_rejecting() {
    let mut p = platform(0.8);
    p.create_vm(VmConfig::self_tuning("a", Dur::ms(6), Dur::ms(10)))
        .expect("0.6 fits under 0.8");
    // A 0.6 share on top of 0.6 does not fit; the curbed path lands it
    // anyway at what remains (~0.2) — the live-migration behaviour.
    let (vm, granted) = p.create_vm_curbed(VmConfig::self_tuning("b", Dur::ms(6), Dur::ms(10)));
    assert!(granted > 0.1 && granted < 0.3, "curbed to {granted}");
    assert!((p.vm_share(vm) - granted).abs() < 1e-9);
    assert!(p.host_reserved_bandwidth() <= 0.8 + 1e-9);
    // The curbed VM still runs guests.
    let t = p.spawn_in_vm(vm, "g", rt("g", 2, 40, 9));
    p.manage_in_vm(vm, t, "g", ControllerConfig::default());
    p.run(Time::ZERO + Dur::secs(3));
    assert!(!p.kernel().metrics().marks("g.job").is_empty());
}

#[test]
fn kill_vm_releases_the_full_reservation_and_stops_guests() {
    let mut p = platform(0.95);
    let a = p
        .create_vm(VmConfig::self_tuning("a", Dur::ms(4), Dur::ms(10)))
        .expect("fits");
    let b = p
        .create_vm(VmConfig::self_tuning("b", Dur::ms(3), Dur::ms(10)))
        .expect("fits");
    let ta = p.spawn_in_vm(a, "a0", rt("a0", 3, 40, 3));
    p.manage_in_vm(a, ta, "a0", ControllerConfig::default());
    let tb = p.spawn_in_vm(b, "b0", rt("b0", 3, 40, 4));
    p.manage_in_vm(b, tb, "b0", ControllerConfig::default());
    p.run(Time::ZERO + Dur::secs(3));
    assert!(p.host_reserved_bandwidth() > 0.65);

    assert!(p.kill_vm(a));
    assert!(!p.kill_vm(a), "double kill is a no-op");
    // The killed VM's whole share returned to the host pool (only b's 0.3
    // plus the floor residue remains).
    assert!(
        p.host_reserved_bandwidth() < 0.35,
        "residual {}",
        p.host_reserved_bandwidth()
    );
    assert_eq!(p.kernel().task_state(ta), TaskState::Exited);
    // The survivor keeps running.
    let before = p.kernel().metrics().marks("b0.job").len();
    p.run(Time::ZERO + Dur::secs(5));
    assert!(p.kernel().metrics().marks("b0.job").len() > before);
    // Freed bandwidth is reusable: a new VM with the released share fits.
    p.create_vm(VmConfig::self_tuning("c", Dur::ms(4), Dur::ms(10)))
        .expect("released share is reusable");
}

#[test]
fn edf_and_fixed_priority_guests_dispatch_by_their_policy() {
    let mut p = platform(0.95);
    let vm = p
        .create_vm(VmConfig {
            label: "edf".into(),
            budget: Dur::ms(9),
            period: Dur::ms(10),
            policy: GuestPolicy::Edf,
        })
        .expect("fits");
    let t1 = p.spawn_in_vm(vm, "slow", rt("slow", 4, 80, 1));
    let t2 = p.spawn_in_vm(vm, "fast", rt("fast", 2, 20, 2));
    p.set_guest_deadline(vm, t1, Dur::ms(80));
    p.set_guest_deadline(vm, t2, Dur::ms(20));
    p.run(Time::ZERO + Dur::secs(2));
    // Both make their rates under guest EDF inside the shared 0.9 share.
    assert!(p.kernel().metrics().marks("fast.job").len() > 90);
    assert!(p.kernel().metrics().marks("slow.job").len() > 20);
}

#[test]
fn compressed_elastic_grant_floors_the_guest_bound_at_budget_floor() {
    use selftune_core::share::ShareControllerConfig;
    use selftune_virt::VmElasticConfig;

    let mut p = platform(0.5);
    // A static tenant occupying most of the host.
    p.create_vm(VmConfig::self_tuning("bulk", Dur::ms(4), Dur::ms(10)))
        .expect("0.4 fits under 0.5");
    // A small elastic tenant whose guests want far more than remains: its
    // controller probes upward, and every re-granted share comes back
    // compressed by the host supervisor.
    let vm = p
        .create_vm(VmConfig::self_tuning("squeezed", Dur::ms(1), Dur::ms(10)))
        .expect("0.1 fits");
    let t = p.spawn_in_vm(vm, "hot", rt("hot", 30, 40, 7));
    p.manage_in_vm(vm, t, "hot", ControllerConfig::default());
    p.make_vm_elastic(
        vm,
        VmElasticConfig {
            controller: ShareControllerConfig {
                confirmations: 1,
                ..ShareControllerConfig::default()
            },
            ..VmElasticConfig::default()
        },
    );
    p.run(Time::ZERO + Dur::secs(6));

    // Regression: the guest bound used to be clamped with an arbitrary
    // 1e-6 epsilon. However hard the supervisor compresses, the honest
    // floor is the supervisor's own budget floor over the share period —
    // the smallest share it would actually grant.
    let floor = {
        let period = Dur::ms(10);
        p.supervisor().budget_floor(period).ratio(period)
    };
    let bound = p.vm_guest_bound(vm).expect("self-tuning guest");
    assert!(
        bound >= floor - 1e-9,
        "guest bound {bound} fell below the supervisor floor {floor}"
    );
    // And it really was compressed: demand (~0.75) never fit in the ~0.1
    // left under the host bound.
    assert!(bound <= 0.12, "grant was not compressed: {bound}");
    assert!(p.host_reserved_bandwidth() <= 0.5 + 1e-9);
}

#[test]
fn lowering_the_host_bound_recompresses_live_vm_shares_in_place() {
    let mut p = platform(0.9);
    let a = p
        .create_vm(VmConfig::self_tuning("a", Dur::ms(4), Dur::ms(10)))
        .expect("fits");
    let b = p
        .create_vm(VmConfig::self_tuning("b", Dur::ms(4), Dur::ms(10)))
        .expect("fits");
    p.run(Time::ZERO + Dur::ms(500));
    assert!(p.host_reserved_bandwidth() > 0.79);

    // The node-level loop claws back headroom: dropping U_lub below the
    // granted total recompresses both live shares immediately, in place.
    p.set_host_ulub(0.5);
    assert!(
        p.host_reserved_bandwidth() <= 0.5 + 1e-9,
        "recompression must bring the host under the new bound: {}",
        p.host_reserved_bandwidth()
    );
    let floor = {
        let period = Dur::ms(10);
        p.supervisor().budget_floor(period).ratio(period)
    };
    for vm in [a, b] {
        let bound = p.vm_guest_bound(vm).expect("self-tuning guest");
        // Proportional compression: each 0.4 share lands near 0.25.
        assert!(bound <= 0.30, "vm bound {bound} not recompressed");
        assert!(bound >= floor - 1e-9, "vm bound {bound} below floor");
    }
    // Raising the bound back grants nothing by itself — shares only grow
    // again when a tenant re-requests.
    p.set_host_ulub(0.9);
    assert!(p.host_reserved_bandwidth() <= 0.55);
}

/// An elastic share is reconsidered every 500 ms from the moment it is
/// made elastic, whatever the platform's sampling period: sampling every
/// 100 ms, the `"{label}.share"` series holds exactly one sample per
/// 500 ms after attach.
#[test]
fn elastic_share_steps_every_500_ms_after_attach() {
    use selftune_virt::VmElasticConfig;

    let mut p = VirtPlatform::new(ManagerConfig {
        sampling: Dur::ms(100),
        supervisor: Supervisor::new(0.95),
        ..ManagerConfig::default()
    });
    let vm = p
        .create_vm(VmConfig::self_tuning("el", Dur::ms(3), Dur::ms(10)))
        .expect("fits");
    let t = p.spawn_in_vm(vm, "g", rt("g", 4, 40, 11));
    p.manage_in_vm(vm, t, "g", ControllerConfig::default());
    p.run(Time::ZERO + Dur::ms(300));
    let attach = p.now();
    p.make_vm_elastic(vm, VmElasticConfig::default());
    p.run(Time::ZERO + Dur::secs(3));
    let sampled: Vec<Time> = p
        .kernel()
        .metrics()
        .series("el.share")
        .iter()
        .map(|&(at, _)| at)
        .collect();
    let every_500_ms: Vec<Time> = (1..=5).map(|i| attach + Dur::ms(500 * i)).collect();
    assert_eq!(sampled, every_500_ms);
}

/// `adapt_period` is the `T^s = P` rule one level up: with it on, a
/// re-requested share runs at the 40 ms period its guests show; with it
/// off, the share keeps the period it was admitted at.
#[test]
fn adapted_share_period_follows_the_guests_only_when_enabled() {
    use selftune_virt::VmElasticConfig;

    for adapt_period in [true, false] {
        let mut p = platform(0.95);
        let vm = p
            .create_vm(VmConfig::self_tuning("el", Dur::ms(3), Dur::ms(10)))
            .expect("fits");
        for i in 0..2 {
            let label = format!("g{i}");
            let t = p.spawn_in_vm(vm, &label, rt(&label, 10, 40, 20 + i));
            p.manage_in_vm(vm, t, &label, ControllerConfig::default());
        }
        p.make_vm_elastic(
            vm,
            VmElasticConfig {
                adapt_period,
                ..VmElasticConfig::default()
            },
        );
        p.run(Time::ZERO + Dur::secs(8));
        assert!(!p.drain_share_grants().is_empty(), "no share re-request");
        let period = p.vm_server(vm).config().period;
        if adapt_period {
            // The guests' period as detected, to the analyser's resolution.
            assert!((period.as_ms_f64() - 40.0).abs() < 2.0, "{period}");
        } else {
            assert_eq!(period, Dur::ms(10));
        }
    }
}

mod nesting_props {
    use super::*;
    use proptest::prelude::*;
    use selftune_core::share::ShareControllerConfig;
    use selftune_virt::VmElasticConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Satellite invariant: under arbitrary *elastic* re-request
        /// sequences (controllers probing up under compression, shedding
        /// idle shares, every knob randomised) the host bandwidth bound
        /// is never exceeded, and killing a VM releases its full
        /// re-granted share — not the admission-time nominal one.
        #[test]
        fn elastic_controllers_never_exceed_host_bound_and_kill_releases(
            seed in 0u64..10_000,
            ulub_pct in 60u64..96,
            vms_cfg in prop::collection::vec(
                // (share budget ms, guest wcet ms, guest period slot, margin %, alpha %)
                (1u64..8, 1u64..30, 0u64..3, 5u64..40, 20u64..101),
                1..4,
            ),
            chunks in 2usize..5,
        ) {
            let ulub = ulub_pct as f64 / 100.0;
            let mut p = platform(ulub);
            let mut vms = Vec::new();
            for (i, &(budget_ms, wcet_ms, pslot, margin_pct, alpha_pct)) in
                vms_cfg.iter().enumerate()
            {
                let cfg = VmConfig::self_tuning(
                    &format!("vm{i}"),
                    Dur::ms(budget_ms),
                    Dur::ms(10),
                );
                let Ok(vm) = p.create_vm(cfg) else { continue };
                let period_ms = 30 + 25 * pslot;
                let wcet = Dur::ms(wcet_ms.min(period_ms - 1));
                let label = format!("t{i}");
                let t = p.spawn_in_vm(
                    vm,
                    &label,
                    Box::new(PeriodicRt::new(
                        &label,
                        wcet,
                        Dur::ms(period_ms),
                        0.1,
                        Rng::new(seed ^ i as u64),
                    )),
                );
                p.manage_in_vm(vm, t, &label, ControllerConfig::default());
                p.make_vm_elastic(vm, VmElasticConfig {
                    controller: ShareControllerConfig {
                        margin: margin_pct as f64 / 100.0,
                        ewma_alpha: alpha_pct as f64 / 100.0,
                        confirmations: 1 + (seed % 3) as u32,
                        ..ShareControllerConfig::default()
                    },
                    ..VmElasticConfig::default()
                });
                vms.push(vm);
            }
            prop_assume!(!vms.is_empty());
            let mut t = Time::ZERO;
            for step in 0..chunks {
                t += Dur::ms(600 + 100 * step as u64);
                p.run(t);
                prop_assert!(
                    p.host_reserved_bandwidth() <= ulub + 1e-9,
                    "elastic re-requests oversubscribed the host: {} > {}",
                    p.host_reserved_bandwidth(),
                    ulub
                );
            }
            // Kill the first VM: however far its controller re-granted the
            // share (up or down), the *entire* live grant returns to the
            // host pool (modulo the 10 us floor residue).
            let vm = vms[0];
            let share = p.vm_share(vm);
            let before = p.host_reserved_bandwidth();
            prop_assert!(p.kill_vm(vm));
            let after = p.host_reserved_bandwidth();
            prop_assert!(
                after <= before - share + 2e-3,
                "kill released {} of the re-granted {share}",
                before - after
            );
            // The freed bandwidth is genuinely reusable under the bound.
            prop_assert!(after <= ulub + 1e-9);
        }

        /// Satellite invariant: however guests re-request mid-run, the
        /// *host* bandwidth (VM shares + flat reservations) never exceeds
        /// the host bound, and killing a VM releases its full share.
        #[test]
        fn host_bound_holds_under_guest_rerequests_and_kills(
            seed in 0u64..10_000,
            ulub_pct in 60u64..96,
            shares in prop::collection::vec((1u64..8, 0u64..3), 1..5),
            rerequests in prop::collection::vec((0usize..5, 1u64..12), 0..6),
            kill_first in any::<bool>(),
        ) {
            let ulub = ulub_pct as f64 / 100.0;
            let mut p = platform(ulub);
            let mut vms = Vec::new();
            for (i, &(budget_ms, _)) in shares.iter().enumerate() {
                let cfg = VmConfig::self_tuning(
                    &format!("vm{i}"),
                    Dur::ms(budget_ms),
                    Dur::ms(10),
                );
                if let Ok(vm) = p.create_vm(cfg) {
                    // A guest task that keeps the tenant's manager busy
                    // re-requesting (demand above most shares).
                    let label = format!("t{i}");
                    let t = p.spawn_in_vm(vm, &label, rt(&label, 5, 40, seed ^ i as u64));
                    p.manage_in_vm(vm, t, &label, ControllerConfig::default());
                    vms.push(vm);
                }
                prop_assert!(p.host_reserved_bandwidth() <= ulub + 1e-9);
            }
            // Run with periodic mid-run share re-requests.
            let mut t = Time::ZERO;
            for (step, &(which, budget_ms)) in rerequests.iter().enumerate() {
                t += Dur::ms(400 + 100 * step as u64);
                p.run(t);
                if !vms.is_empty() {
                    let vm = vms[which % vms.len()];
                    let (granted, ..) = p.request_vm_share(vm, Dur::ms(budget_ms), Dur::ms(10));
                    prop_assert!(granted <= ulub + 1e-9);
                }
                prop_assert!(
                    p.host_reserved_bandwidth() <= ulub + 1e-9,
                    "host bound violated: {} > {}",
                    p.host_reserved_bandwidth(),
                    ulub
                );
            }
            p.run(t + Dur::ms(500));
            prop_assert!(p.host_reserved_bandwidth() <= ulub + 1e-9);

            // Killing a VM releases its share (modulo the tiny floor).
            if kill_first {
                if let Some(&vm) = vms.first() {
                    let share = p.vm_share(vm);
                    let before = p.host_reserved_bandwidth();
                    prop_assert!(p.kill_vm(vm));
                    let after = p.host_reserved_bandwidth();
                    // The floor residue is 10us per 10ms period = 1e-3.
                    prop_assert!(
                        after <= before - share + 2e-3,
                        "kill released {} of {share}",
                        before - after
                    );
                }
            }
        }
    }
}
