//! Property-based tests for the CBS server, the reservation scheduler and
//! the supervisor.

use proptest::prelude::*;
use selftune_sched::supervisor::MIN_BUDGET;
use selftune_sched::{
    BwRequest, ReservationScheduler, Server, ServerConfig, ServerState, Supervisor,
};
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};

/// Random operations against one CBS server.
#[derive(Debug, Clone)]
enum Op {
    Wake,
    Block,
    Charge(u64),
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Wake),
        Just(Op::Block),
        (1u64..3_000).prop_map(Op::Charge),
        (1u64..10_000).prop_map(Op::Advance),
    ]
}

proptest! {
    /// Budget never exceeds Q; consumed time accumulates exactly; the
    /// deadline never moves backwards; throttled implies a pending
    /// replenishment.
    #[test]
    fn cbs_invariants_hold_under_random_ops(
        q_us in 500u64..5_000,
        extra_us in 1u64..20_000,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let q = Dur::us(q_us);
        let t = Dur::us(q_us + extra_us);
        let mut s = Server::new(ServerConfig::new(q, t));
        let task = TaskId(1);
        let mut now = Time::ZERO;
        let mut queued = false;
        let mut charged = Dur::ZERO;
        let mut last_deadline = Time::ZERO;
        for op in ops {
            match op {
                Op::Wake if !queued => {
                    s.wake(task, now);
                    queued = true;
                }
                Op::Block if queued => {
                    s.remove(task, now);
                    queued = false;
                }
                Op::Charge(us) if queued && s.runnable() => {
                    let amount = Dur::us(us).min(s.remaining_budget());
                    if !amount.is_zero() {
                        now += amount;
                        s.replenish_if_due(now);
                        s.charge(amount, now);
                        charged += amount;
                    }
                }
                Op::Advance(us) => {
                    now += Dur::us(us);
                    s.replenish_if_due(now);
                }
                _ => {}
            }
            prop_assert!(s.remaining_budget() <= q, "budget above Q");
            prop_assert_eq!(s.stats().consumed, charged);
            if s.state() == ServerState::Throttled {
                prop_assert!(s.replenish_at().is_some());
            } else {
                prop_assert!(s.replenish_at().is_none());
            }
            prop_assert!(s.deadline() >= last_deadline, "deadline went backwards");
            last_deadline = s.deadline();
        }
    }

    /// After apply(), the total reserved bandwidth never exceeds U_lub and
    /// proportional grants never exceed their requests.
    #[test]
    fn supervisor_bound_holds(
        ulub in 0.3f64..1.0,
        reqs in prop::collection::vec((100u64..50_000, 100u64..50_000), 1..8),
    ) {
        let mut sched = ReservationScheduler::new();
        let mut batch = Vec::new();
        for &(q_us, extra) in &reqs {
            let period = Dur::us(q_us + extra);
            let sid = sched.create_server(ServerConfig::new(Dur::us(100).min(period), period));
            batch.push(BwRequest { server: sid, budget: Dur::us(q_us), period });
        }
        let sup = Supervisor::new(ulub);
        let grants = sup.apply(&mut sched, &batch);
        let total = sched.total_reserved_bandwidth();
        // The floor-budget clamp can push slightly above in pathological
        // tiny-period cases; allow the floor slack.
        let slack: f64 = batch
            .iter()
            .map(|r| MIN_BUDGET.ratio(r.period))
            .sum();
        prop_assert!(total <= ulub + slack + 1e-6, "total {total} > ulub {ulub}");
        for (g, r) in grants.iter().zip(&batch) {
            prop_assert!(
                g.budget <= r.budget.max(MIN_BUDGET),
                "grant above request"
            );
            prop_assert_eq!(g.period, r.period);
        }
    }

    /// Proportional compression preserves request ratios (up to the floor).
    #[test]
    fn compression_is_proportional(
        q1 in 30_000u64..80_000,
        q2 in 30_000u64..80_000,
    ) {
        let mut sched = ReservationScheduler::new();
        let period = Dur::ms(100);
        let s1 = sched.create_server(ServerConfig::new(Dur::us(100), period));
        let s2 = sched.create_server(ServerConfig::new(Dur::us(100), period));
        let sup = Supervisor::new(0.5);
        let grants = sup.apply(
            &mut sched,
            &[
                BwRequest { server: s1, budget: Dur::us(q1), period },
                BwRequest { server: s2, budget: Dur::us(q2), period },
            ],
        );
        let ratio_req = q1 as f64 / q2 as f64;
        let ratio_grant = grants[0].budget.as_ns() as f64 / grants[1].budget.as_ns() as f64;
        prop_assert!((ratio_req - ratio_grant).abs() / ratio_req < 0.01,
            "ratios {ratio_req} vs {ratio_grant}");
    }
}
