//! The Constant Bandwidth Server (CBS) state machine.
//!
//! A CBS [`Server`] owns a budget `Q` replenished every reservation period
//! `T` and a scheduling deadline used by the EDF layer
//! ([`crate::reservation::ReservationScheduler`]). The rules follow Abeni &
//! Buttazzo's original formulation (the paper's reference \[1\]):
//!
//! * **Wake-up rule** — when a task arrives at an idle server at time `t`:
//!   if the pair `(q, d)` satisfies `q ≤ (d − t)·Q/T` it is kept, otherwise
//!   the server gets a fresh pair `q = Q`, `d = t + T`.
//! * **Depletion (hard mode)** — when the budget is exhausted the server is
//!   *throttled* until its current deadline, at which point `q = Q` and
//!   `d += T` (the AQuoSA hard-reservation behaviour the paper relies on so
//!   that consumed time tracks the reservation).
//! * **Depletion (soft mode)** — budget is recharged immediately and the
//!   deadline is postponed by `T`; the server keeps competing at a lower
//!   EDF priority.
//!
//! Several tasks can share one server (Section 3.2 of the paper); within a
//! server the ready queue is FIFO or fixed-priority (rate-monotonic when
//! priorities are assigned by period).

use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};

/// Identifier of a server within one reservation scheduler.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Index into dense per-server arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for ServerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// Budget depletion behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CbsMode {
    /// Throttle until the current deadline, then replenish (AQuoSA-style
    /// hard reservation; the paper's default).
    #[default]
    Hard,
    /// Immediately recharge and postpone the deadline (original soft CBS).
    Soft,
}

/// Scheduling discipline among the tasks attached to one server.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum InnerPolicy {
    /// First-come-first-served among ready tasks.
    #[default]
    Fifo,
    /// Fixed priority (lower value = higher priority); rate-monotonic when
    /// priorities are assigned proportionally to activation rate.
    FixedPriority,
}

/// Lifecycle state of a server.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ServerState {
    /// No ready tasks attached.
    Idle,
    /// Has ready tasks and budget; competes under EDF.
    Active,
    /// Budget exhausted (hard mode); waiting for replenishment.
    Throttled,
}

/// Static parameters of a server.
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Maximum budget `Q` per period.
    pub budget: Dur,
    /// Reservation period `T`.
    pub period: Dur,
    /// Depletion behaviour.
    pub mode: CbsMode,
    /// Discipline among attached tasks.
    pub policy: InnerPolicy,
}

impl ServerConfig {
    /// A hard FIFO server with the given `(Q, T)`.
    ///
    /// # Panics
    ///
    /// Panics if `budget` or `period` is zero, or `budget > period`.
    pub fn new(budget: Dur, period: Dur) -> ServerConfig {
        assert!(!budget.is_zero(), "server budget must be positive");
        assert!(!period.is_zero(), "server period must be positive");
        assert!(budget <= period, "server budget must not exceed its period");
        ServerConfig {
            budget,
            period,
            mode: CbsMode::Hard,
            policy: InnerPolicy::Fifo,
        }
    }

    /// Sets the depletion mode.
    pub fn with_mode(mut self, mode: CbsMode) -> ServerConfig {
        self.mode = mode;
        self
    }

    /// Sets the inner scheduling policy.
    pub fn with_policy(mut self, policy: InnerPolicy) -> ServerConfig {
        self.policy = policy;
        self
    }

    /// Reserved fraction of the CPU, `Q/T`.
    pub fn bandwidth(&self) -> f64 {
        self.budget.ratio(self.period)
    }
}

/// Counters exposed for controllers and experiments.
#[derive(Copy, Clone, Debug, Default)]
pub struct ServerStats {
    /// Cumulative CPU consumed by tasks of this server (the
    /// `qres_get_time()` sensor of the paper).
    pub consumed: Dur,
    /// Number of budget depletions.
    pub exhaustions: u64,
    /// Number of deadline postponements (soft mode).
    pub postponements: u64,
    /// Number of replenishments (hard mode).
    pub replenishments: u64,
}

/// One Constant Bandwidth Server.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    budget: Dur,
    deadline: Time,
    state: ServerState,
    repl_at: Option<Time>,
    /// Ready tasks in dispatch order (FIFO arrival order; for
    /// `FixedPriority` the dispatch scan picks the best priority).
    ready: Vec<TaskId>,
    /// Priorities of attached tasks (used by `InnerPolicy::FixedPriority`).
    prio: Vec<(TaskId, u32)>,
    stats: ServerStats,
    /// Set when the budget depleted since the last controller read
    /// (the binary sensor of the original LFS scheme).
    exhausted_flag: bool,
}

impl Server {
    /// Creates an idle server with the given configuration.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            cfg,
            budget: cfg.budget,
            deadline: Time::ZERO,
            state: ServerState::Idle,
            repl_at: None,
            ready: Vec::new(),
            prio: Vec::new(),
            stats: ServerStats::default(),
            exhausted_flag: false,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Current remaining budget.
    pub fn remaining_budget(&self) -> Dur {
        self.budget
    }

    /// Current scheduling deadline.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// Counters (consumed time, exhaustions, ...).
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Instant of the pending replenishment, if throttled.
    pub fn replenish_at(&self) -> Option<Time> {
        self.repl_at
    }

    /// Reads and clears the "budget depleted since last read" flag — the
    /// binary sensor used by the original LFS controller.
    pub fn take_exhausted_flag(&mut self) -> bool {
        core::mem::take(&mut self.exhausted_flag)
    }

    /// Assigns a fixed priority to a task for `InnerPolicy::FixedPriority`
    /// dispatch (lower value = higher priority).
    pub fn set_task_priority(&mut self, task: TaskId, prio: u32) {
        if let Some(p) = self.prio.iter_mut().find(|(t, _)| *t == task) {
            p.1 = prio;
        } else {
            self.prio.push((task, prio));
        }
    }

    fn priority_of(&self, task: TaskId) -> u32 {
        self.prio
            .iter()
            .find(|(t, _)| *t == task)
            .map(|&(_, p)| p)
            .unwrap_or(u32::MAX)
    }

    /// True if the server is ready to compete under EDF.
    pub fn runnable(&self) -> bool {
        self.state == ServerState::Active && !self.ready.is_empty() && self.budget > Dur::ZERO
    }

    /// The task the server would dispatch, per its inner policy.
    pub fn front_task(&self) -> Option<TaskId> {
        match self.cfg.policy {
            InnerPolicy::Fifo => self.ready.first().copied(),
            InnerPolicy::FixedPriority => self
                .ready
                .iter()
                .copied()
                .min_by_key(|&t| (self.priority_of(t), self.ready.iter().position(|&x| x == t))),
        }
    }

    /// A task attached to this server became ready.
    pub fn wake(&mut self, task: TaskId, now: Time) {
        debug_assert!(!self.ready.contains(&task), "{task} woken twice");
        self.ready.push(task);
        match self.state {
            ServerState::Idle => {
                // CBS wake-up rule: reuse (q, d) only if it cannot exceed
                // the reserved bandwidth.
                let keep = self.deadline > now && {
                    let q = self.budget.as_ns() as u128;
                    let t_rem = (self.deadline - now).as_ns() as u128;
                    let qmax = self.cfg.budget.as_ns() as u128;
                    let period = self.cfg.period.as_ns() as u128;
                    q * period <= t_rem * qmax
                };
                if !keep {
                    self.budget = self.cfg.budget;
                    self.deadline = now + self.cfg.period;
                }
                self.state = ServerState::Active;
            }
            ServerState::Active | ServerState::Throttled => {
                // Queued; nothing else changes.
            }
        }
    }

    /// A ready task of this server blocked or exited.
    pub fn remove(&mut self, task: TaskId, _now: Time) {
        self.ready.retain(|&t| t != task);
        if self.ready.is_empty() && self.state == ServerState::Active {
            // Keep (q, d) for the wake-up rule.
            self.state = ServerState::Idle;
        }
    }

    /// Charges `ran` of execution ending at `now` and applies the depletion
    /// rule when the budget runs out.
    ///
    /// Returns `true` when the charge changed the server's dispatch state
    /// (depletion handled: throttle, postponement or immediate replenish) —
    /// the signal the scheduler's dispatch cache invalidates on. A plain
    /// budget decrement leaves the EDF key and runnability untouched.
    pub fn charge(&mut self, ran: Dur, now: Time) -> bool {
        self.stats.consumed += ran;
        self.budget = self.budget.saturating_sub(ran);
        if self.budget.is_zero() && self.state == ServerState::Active {
            self.exhausted_flag = true;
            self.stats.exhaustions += 1;
            match self.cfg.mode {
                CbsMode::Hard => {
                    if self.deadline > now {
                        self.state = ServerState::Throttled;
                        self.repl_at = Some(self.deadline);
                    } else {
                        // Deadline already passed (overload): replenish
                        // immediately with a fresh deadline.
                        self.budget = self.cfg.budget;
                        while self.deadline <= now {
                            self.deadline += self.cfg.period;
                        }
                        self.stats.replenishments += 1;
                    }
                }
                CbsMode::Soft => {
                    self.budget = self.cfg.budget;
                    self.deadline += self.cfg.period;
                    self.stats.postponements += 1;
                }
            }
            return true;
        }
        false
    }

    /// Performs the pending replenishment if due at `now`; returns `true`
    /// if a replenishment happened (dispatch state changed).
    pub fn replenish_if_due(&mut self, now: Time) -> bool {
        if let Some(t) = self.repl_at {
            if t <= now {
                self.repl_at = None;
                self.budget = self.cfg.budget;
                self.deadline += self.cfg.period;
                self.stats.replenishments += 1;
                self.state = if self.ready.is_empty() {
                    ServerState::Idle
                } else {
                    ServerState::Active
                };
                return true;
            }
        }
        false
    }

    /// Applies new reservation parameters `(Q, T)` immediately.
    ///
    /// Budget increases take effect at once (granting the delta, and lifting
    /// a hard throttle if any), so an upward correction by the feedback
    /// controller becomes effective without waiting a full period — this is
    /// what lets LFS++ adapt "almost immediately" (Section 5.4). Budget
    /// decreases clamp the current budget.
    ///
    /// # Panics
    ///
    /// Panics if the new parameters are invalid (zero, or `Q > T`).
    pub fn set_params(&mut self, budget: Dur, period: Dur) {
        assert!(!budget.is_zero() && !period.is_zero() && budget <= period);
        let old = self.cfg.budget;
        self.cfg.budget = budget;
        self.cfg.period = period;
        if budget > old {
            self.budget += budget - old;
            if self.state == ServerState::Throttled && self.budget > Dur::ZERO {
                self.repl_at = None;
                self.state = if self.ready.is_empty() {
                    ServerState::Idle
                } else {
                    ServerState::Active
                };
            }
        } else {
            self.budget = self.budget.min(budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Time = Time::ZERO;

    fn server(q_ms: u64, t_ms: u64) -> Server {
        Server::new(ServerConfig::new(Dur::ms(q_ms), Dur::ms(t_ms)))
    }

    #[test]
    fn fresh_deadline_on_first_wake() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0 + Dur::ms(5));
        assert_eq!(s.state(), ServerState::Active);
        assert_eq!(s.deadline(), T0 + Dur::ms(105));
        assert_eq!(s.remaining_budget(), Dur::ms(10));
        assert!(s.runnable());
    }

    #[test]
    fn wakeup_rule_keeps_safe_pair() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(4), T0 + Dur::ms(4));
        s.remove(TaskId(1), T0 + Dur::ms(4));
        assert_eq!(s.state(), ServerState::Idle);
        // Re-wake at 20ms: q=6ms, d=100ms, (d-t)·Q/T = 8ms ≥ 6ms → keep.
        s.wake(TaskId(1), T0 + Dur::ms(20));
        assert_eq!(s.deadline(), T0 + Dur::ms(100));
        assert_eq!(s.remaining_budget(), Dur::ms(6));
    }

    #[test]
    fn wakeup_rule_resets_unsafe_pair() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(4), T0 + Dur::ms(4));
        s.remove(TaskId(1), T0 + Dur::ms(4));
        // Re-wake at 95ms: (d-t)·Q/T = 0.5ms < 6ms → fresh pair.
        s.wake(TaskId(1), T0 + Dur::ms(95));
        assert_eq!(s.deadline(), T0 + Dur::ms(195));
        assert_eq!(s.remaining_budget(), Dur::ms(10));
    }

    #[test]
    fn wakeup_after_deadline_resets() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(1), T0 + Dur::ms(1));
        s.remove(TaskId(1), T0 + Dur::ms(1));
        s.wake(TaskId(1), T0 + Dur::ms(500));
        assert_eq!(s.deadline(), T0 + Dur::ms(600));
        assert_eq!(s.remaining_budget(), Dur::ms(10));
    }

    #[test]
    fn hard_depletion_throttles_until_deadline() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(10), T0 + Dur::ms(10));
        assert_eq!(s.state(), ServerState::Throttled);
        assert!(!s.runnable());
        assert_eq!(s.replenish_at(), Some(T0 + Dur::ms(100)));
        // Replenish at the deadline: fresh budget, deadline += T.
        s.replenish_if_due(T0 + Dur::ms(100));
        assert_eq!(s.state(), ServerState::Active);
        assert_eq!(s.remaining_budget(), Dur::ms(10));
        assert_eq!(s.deadline(), T0 + Dur::ms(200));
        assert_eq!(s.stats().replenishments, 1);
    }

    #[test]
    fn soft_depletion_postpones() {
        let mut s =
            Server::new(ServerConfig::new(Dur::ms(10), Dur::ms(100)).with_mode(CbsMode::Soft));
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(10), T0 + Dur::ms(10));
        assert_eq!(s.state(), ServerState::Active);
        assert_eq!(s.remaining_budget(), Dur::ms(10));
        assert_eq!(s.deadline(), T0 + Dur::ms(200));
        assert_eq!(s.stats().postponements, 1);
        assert!(s.runnable());
    }

    #[test]
    fn consumed_accumulates() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(3), T0 + Dur::ms(3));
        s.charge(Dur::ms(2), T0 + Dur::ms(5));
        assert_eq!(s.stats().consumed, Dur::ms(5));
    }

    #[test]
    fn exhausted_flag_reads_once() {
        let mut s = server(5, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(5), T0 + Dur::ms(5));
        assert!(s.take_exhausted_flag());
        assert!(!s.take_exhausted_flag());
    }

    #[test]
    fn fifo_front_in_arrival_order() {
        let mut s = server(10, 100);
        s.wake(TaskId(2), T0);
        s.wake(TaskId(1), T0 + Dur::ms(1));
        assert_eq!(s.front_task(), Some(TaskId(2)));
        s.remove(TaskId(2), T0 + Dur::ms(2));
        assert_eq!(s.front_task(), Some(TaskId(1)));
    }

    #[test]
    fn fixed_priority_front_prefers_low_value() {
        let mut s = Server::new(
            ServerConfig::new(Dur::ms(10), Dur::ms(100)).with_policy(InnerPolicy::FixedPriority),
        );
        s.set_task_priority(TaskId(1), 2);
        s.set_task_priority(TaskId(2), 1);
        s.wake(TaskId(1), T0);
        s.wake(TaskId(2), T0);
        assert_eq!(s.front_task(), Some(TaskId(2)));
    }

    #[test]
    fn idle_keeps_pair_for_wakeup_rule() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(2), T0 + Dur::ms(2));
        let d = s.deadline();
        let q = s.remaining_budget();
        s.remove(TaskId(1), T0 + Dur::ms(2));
        assert_eq!(s.state(), ServerState::Idle);
        assert_eq!(s.deadline(), d);
        assert_eq!(s.remaining_budget(), q);
    }

    #[test]
    fn grow_budget_applies_immediately_and_unthrottles() {
        let mut s = server(5, 100);
        s.wake(TaskId(1), T0);
        s.charge(Dur::ms(5), T0 + Dur::ms(5));
        assert_eq!(s.state(), ServerState::Throttled);
        s.set_params(Dur::ms(20), Dur::ms(100));
        assert_eq!(s.state(), ServerState::Active);
        assert_eq!(s.remaining_budget(), Dur::ms(15));
        assert!(s.replenish_at().is_none());
    }

    #[test]
    fn shrink_budget_clamps() {
        let mut s = server(20, 100);
        s.wake(TaskId(1), T0);
        s.set_params(Dur::ms(5), Dur::ms(100));
        assert_eq!(s.remaining_budget(), Dur::ms(5));
    }

    #[test]
    fn depletion_past_deadline_replenishes_immediately() {
        let mut s = server(10, 100);
        s.wake(TaskId(1), T0);
        // Simulate execution that finishes well after the deadline (e.g.
        // parameters were changed under overload).
        s.set_params(Dur::ms(10), Dur::ms(100));
        s.charge(Dur::ms(4), T0 + Dur::ms(50));
        s.charge(Dur::ms(6), T0 + Dur::ms(150));
        // Deadline (100ms) < now (150ms): immediate fresh pair.
        assert_eq!(s.state(), ServerState::Active);
        assert_eq!(s.remaining_budget(), Dur::ms(10));
        assert!(s.deadline() > T0 + Dur::ms(150));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn invalid_config_panics() {
        let _ = ServerConfig::new(Dur::ms(200), Dur::ms(100));
    }

    #[test]
    fn bandwidth_ratio() {
        let cfg = ServerConfig::new(Dur::ms(20), Dur::ms(100));
        assert!((cfg.bandwidth() - 0.2).abs() < 1e-12);
    }
}
