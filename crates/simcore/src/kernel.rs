//! The discrete-event kernel: interprets task workloads, drives the
//! scheduler, charges CPU time, and feeds the syscall tracer hook.
//!
//! The engine advances virtual time from event to event on a single
//! simulated CPU (the paper's testbed pins the experiment to one core of a
//! Core 2 Duo). All state the paper's machinery observes is produced here:
//!
//! * syscall entry/exit timestamps (through the installed [`SyscallHook`]),
//! * per-task consumed CPU time ([`Kernel::thread_time`], the
//!   `CLOCK_THREAD_CPUTIME_ID` sensor),
//! * scheduler-internal state (via the scheduler object itself).

use crate::event::EventQueue;
use crate::metrics::Metrics;
use crate::scheduler::Scheduler;
use crate::syscall::SyscallNr;
use crate::task::{Action, Blocking, TaskCtx, TaskId, Workload};
use crate::time::{Dur, Time};

/// Observer of system-call entry and exit edges (the tracer).
///
/// The returned [`Dur`] is the *tracing overhead* charged to the traced
/// task's critical path: in-kernel logging cost for the paper's `qtrace`, or
/// a pair of context switches for `ptrace`-based tools (Section 5.1,
/// Table 1).
pub trait SyscallHook {
    /// Called at syscall entry; returns overhead to charge to the task.
    fn on_enter(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur;
    /// Called at syscall exit; returns overhead to charge to the task.
    ///
    /// For blocking calls the exit edge fires when the task is woken, which
    /// is when the return path executes.
    fn on_exit(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur;

    /// Called when a blocked task transitions back to ready — the
    /// scheduler-event source the paper's Section 6 proposes as an
    /// alternative to syscall tracing (ftrace's `sched_wakeup`). The
    /// default does nothing.
    fn on_wake(&mut self, task: TaskId, now: Time) -> Dur {
        let _ = (task, now);
        Dur::ZERO
    }
}

/// A no-op hook: tracing disabled (the paper's NOTRACE baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl SyscallHook for NoTrace {
    fn on_enter(&mut self, _task: TaskId, _nr: SyscallNr, _now: Time) -> Dur {
        Dur::ZERO
    }
    fn on_exit(&mut self, _task: TaskId, _nr: SyscallNr, _now: Time) -> Dur {
        Dur::ZERO
    }
}

/// Coarse task state, as visible to experiments and tests.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Spawned but its start instant has not been reached yet.
    NotStarted,
    /// Ready or currently running.
    Ready,
    /// Blocked in a sleep or blocking syscall.
    Blocked,
    /// Terminated.
    Exited,
}

#[derive(Debug)]
enum Pending {
    Compute {
        remaining: Dur,
    },
    Syscall {
        nr: SyscallNr,
        remaining: Dur,
        block: Blocking,
    },
}

impl Pending {
    fn remaining(&self) -> Dur {
        match self {
            Pending::Compute { remaining } | Pending::Syscall { remaining, .. } => *remaining,
        }
    }

    fn consume(&mut self, dt: Dur) {
        match self {
            Pending::Compute { remaining } | Pending::Syscall { remaining, .. } => {
                *remaining = remaining.saturating_sub(dt);
            }
        }
    }
}

struct Tcb {
    name: String,
    workload: Box<dyn Workload>,
    state: TaskState,
    pending: Option<Pending>,
    /// Kernel overhead (the syscall hook's return-path and wake costs) to
    /// burn before `pending` progresses.
    debt: Dur,
    /// Syscall whose exit edge must be traced when the task wakes.
    trace_exit: Option<SyscallNr>,
    /// Cumulative CPU consumed (thread time).
    exec: Dur,
    /// Number of syscalls issued.
    syscalls: u64,
}

/// The stand-in workload of a reclaimed (exited) task: exits immediately
/// if it is ever asked for work, which cannot happen — see
/// [`Kernel::reclaim`].
struct Tombstone;

impl Workload for Tombstone {
    fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> Action {
        Action::Exit
    }
}

#[derive(Debug, Clone, Copy)]
enum KEvent {
    Start(TaskId),
    Wake(TaskId),
}

/// Maximum consecutive zero-duration actions a workload may yield before the
/// kernel assumes it is livelocked and panics with a diagnostic.
const ACTION_FETCH_LIMIT: u32 = 10_000;
/// Maximum scheduler timer firings processed at a single instant.
const TIMER_BURST_LIMIT: u32 = 100_000;

/// The discrete-event kernel simulating one CPU under scheduler `S`.
///
/// # Examples
///
/// ```
/// use selftune_simcore::kernel::Kernel;
/// use selftune_simcore::scheduler::RoundRobin;
/// use selftune_simcore::task::{Action, Script};
/// use selftune_simcore::time::{Dur, Time};
///
/// let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
/// let t = k.spawn("worker", Box::new(Script::once(vec![
///     Action::Compute(Dur::ms(3)),
///     Action::Exit,
/// ])));
/// k.run_until(Time::ZERO + Dur::ms(10));
/// assert_eq!(k.thread_time(t), Dur::ms(3));
/// ```
pub struct Kernel<S: Scheduler> {
    now: Time,
    events: EventQueue<KEvent>,
    tasks: Vec<Tcb>,
    sched: S,
    hook: Box<dyn SyscallHook>,
    metrics: Metrics,
    current: Option<TaskId>,
    ctx_switches: u64,
    idle: Dur,
    busy: Dur,
    zero_progress: u32,
}

impl<S: Scheduler> Kernel<S> {
    /// Creates a kernel with the given scheduling policy and tracing
    /// disabled.
    pub fn new(sched: S) -> Kernel<S> {
        Kernel {
            now: Time::ZERO,
            events: EventQueue::new(),
            tasks: Vec::new(),
            sched,
            hook: Box::new(NoTrace),
            metrics: Metrics::new(),
            current: None,
            ctx_switches: 0,
            idle: Dur::ZERO,
            busy: Dur::ZERO,
            zero_progress: 0,
        }
    }

    /// Installs a syscall tracer hook, returning the previous one.
    pub fn install_hook(&mut self, hook: Box<dyn SyscallHook>) -> Box<dyn SyscallHook> {
        core::mem::replace(&mut self.hook, hook)
    }

    /// Spawns a task that becomes ready immediately.
    pub fn spawn(&mut self, name: &str, workload: Box<dyn Workload>) -> TaskId {
        self.spawn_at(name, workload, self.now)
    }

    /// Spawns a task that becomes ready at instant `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is in the past.
    pub fn spawn_at(&mut self, name: &str, workload: Box<dyn Workload>, start: Time) -> TaskId {
        assert!(start >= self.now, "spawn_at in the past");
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Tcb {
            name: name.to_owned(),
            workload,
            state: TaskState::NotStarted,
            pending: None,
            debt: Dur::ZERO,
            trace_exit: None,
            exec: Dur::ZERO,
            syscalls: 0,
        });
        self.events.push(start, KEvent::Start(id));
        id
    }

    /// Terminates a task from outside its workload (the fleet layer's
    /// migration primitive: the task is extracted here and re-admitted on
    /// another node).
    ///
    /// The task's pending action is discarded and the scheduler is told it
    /// exited; a not-yet-started task never becomes ready. Pending wake or
    /// start events for it are delivered but ignored. Returns `false` if
    /// the task had already exited.
    pub fn kill(&mut self, task: TaskId) -> bool {
        let state = self.tasks[task.index()].state;
        if state == TaskState::Exited {
            return false;
        }
        let tcb = &mut self.tasks[task.index()];
        tcb.state = TaskState::Exited;
        tcb.pending = None;
        tcb.debt = Dur::ZERO;
        tcb.trace_exit = None;
        if state != TaskState::NotStarted {
            self.sched.on_exit(task, self.now);
        }
        if self.current == Some(task) {
            self.current = None;
        }
        true
    }

    /// Drops an exited task's workload closure, replacing it with a
    /// zero-sized tombstone. The kernel keeps one [`Tcb`] per spawned task
    /// forever (ids are indices); on churn-heavy fleets the retained
    /// workload boxes — RNG state, script vectors, lease wrappers — are
    /// the dominant per-dead-task cost. An exited task is never
    /// dispatched again (stray start/wake events are ignored), so the
    /// swap is unobservable. Returns `false` unless the task has exited.
    pub fn reclaim(&mut self, task: TaskId) -> bool {
        let tcb = &mut self.tasks[task.index()];
        if tcb.state != TaskState::Exited {
            return false;
        }
        tcb.workload = Box::new(Tombstone);
        tcb.pending = None;
        true
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Cumulative CPU time consumed by the task (thread time sensor).
    pub fn thread_time(&self, task: TaskId) -> Dur {
        self.tasks[task.index()].exec
    }

    /// Number of syscalls the task has issued.
    pub fn syscall_count(&self, task: TaskId) -> u64 {
        self.tasks[task.index()].syscalls
    }

    /// The task's name as given at spawn.
    pub fn task_name(&self, task: TaskId) -> &str {
        &self.tasks[task.index()].name
    }

    /// Coarse state of the task.
    pub fn task_state(&self, task: TaskId) -> TaskState {
        self.tasks[task.index()].state
    }

    /// Total CPU-idle time accumulated so far.
    pub fn idle_time(&self) -> Dur {
        self.idle
    }

    /// Total CPU-busy time accumulated so far.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of dispatches switching to a different task.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Read access to recorded metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to recorded metrics (e.g. to clear between phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Read access to the scheduling policy.
    pub fn sched(&self) -> &S {
        &self.sched
    }

    /// Mutable access to the scheduling policy (server creation, parameter
    /// changes by the supervisor, ...).
    pub fn sched_mut(&mut self) -> &mut S {
        &mut self.sched
    }

    /// Runs the simulation for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) {
        let end = self.now + d;
        self.run_until(end);
    }

    /// Runs the simulation until virtual instant `t_end`.
    ///
    /// Events due exactly at `t_end` are delivered before returning, so a
    /// caller sampling at `t_end` observes a consistent post-event state.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is in the past, or if a workload livelocks the
    /// engine with zero-length actions.
    pub fn run_until(&mut self, t_end: Time) {
        assert!(t_end >= self.now, "run_until into the past");
        loop {
            // 1. Deliver events and policy timers due now.
            let mut progressed = false;
            while let Some((t, ev)) = self.events.pop_due(self.now) {
                debug_assert!(t <= self.now);
                self.handle_event(ev);
                progressed = true;
            }
            let mut timer_burst = 0u32;
            while let Some(ts) = self.sched.next_timer(self.now) {
                if ts > self.now {
                    break;
                }
                self.sched.on_timer(self.now);
                progressed = true;
                timer_burst += 1;
                assert!(
                    timer_burst < TIMER_BURST_LIMIT,
                    "scheduler timer storm at {}",
                    self.now
                );
            }
            if progressed {
                self.zero_progress = 0;
            }
            if self.now >= t_end {
                break;
            }

            // 2. Dispatch.
            let next = self.sched.pick(self.now);
            if next != self.current {
                self.current = next;
                if next.is_some() {
                    self.ctx_switches += 1;
                }
            }

            // 3. Compute the run horizon.
            let mut horizon = t_end;
            if let Some(t) = self.events.peek_time() {
                horizon = horizon.min(t);
            }
            if let Some(t) = self.sched.next_timer(self.now) {
                horizon = horizon.min(t);
            }

            match self.current {
                Some(tid) => {
                    if self.tasks[tid.index()].pending.is_none()
                        && self.tasks[tid.index()].debt.is_zero()
                    {
                        // Need a fresh action; the task may block or exit.
                        if !self.fetch_next_action(tid) {
                            self.zero_progress = 0;
                            continue;
                        }
                    }
                    if let Some(h) = self.sched.horizon(tid, self.now) {
                        horizon = horizon.min(self.now + h);
                    }
                    let tcb = &self.tasks[tid.index()];
                    let work =
                        tcb.debt + tcb.pending.as_ref().map_or(Dur::ZERO, Pending::remaining);
                    let completes = self.now + work;
                    let run_to = horizon.min(completes);
                    let dt = run_to.saturating_since(self.now);
                    if dt > Dur::ZERO {
                        self.now = run_to;
                        self.charge_current(tid, dt);
                        self.zero_progress = 0;
                    }
                    if run_to == completes {
                        // The action finished (possibly instantaneously).
                        self.complete_action(tid);
                        self.zero_progress = 0;
                    } else if dt.is_zero() {
                        // Budget boundary hit exactly: give the policy a
                        // zero-length charge so it can throttle, then retry.
                        self.sched.charge(tid, Dur::ZERO, self.now);
                        self.bump_zero_progress();
                    }
                }
                None => {
                    if horizon > self.now {
                        self.idle += horizon - self.now;
                        self.now = horizon;
                        self.zero_progress = 0;
                    } else {
                        self.bump_zero_progress();
                    }
                }
            }
        }
    }

    fn bump_zero_progress(&mut self) {
        self.zero_progress += 1;
        assert!(
            self.zero_progress < ACTION_FETCH_LIMIT,
            "kernel livelock at {} (current {:?})",
            self.now,
            self.current
        );
    }

    fn charge_current(&mut self, tid: TaskId, dt: Dur) {
        let tcb = &mut self.tasks[tid.index()];
        let debt_burn = tcb.debt.min(dt);
        tcb.debt -= debt_burn;
        let rest = dt - debt_burn;
        if rest > Dur::ZERO {
            if let Some(p) = tcb.pending.as_mut() {
                p.consume(rest);
            }
        }
        tcb.exec += dt;
        self.busy += dt;
        self.sched.charge(tid, dt, self.now);
    }

    /// Fetches actions from the workload until one takes time or changes the
    /// task state. Returns `true` if the task is still runnable.
    fn fetch_next_action(&mut self, tid: TaskId) -> bool {
        for _ in 0..ACTION_FETCH_LIMIT {
            let action = {
                let now = self.now;
                let tcb = &mut self.tasks[tid.index()];
                let mut ctx = TaskCtx {
                    now,
                    task: tid,
                    metrics: &mut self.metrics,
                };
                tcb.workload.next(&mut ctx)
            };
            match action {
                Action::Compute(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.tasks[tid.index()].pending = Some(Pending::Compute { remaining: d });
                    return true;
                }
                Action::Syscall { nr, kernel, block } => {
                    self.tasks[tid.index()].syscalls += 1;
                    let overhead = self.hook.on_enter(tid, nr, self.now);
                    self.tasks[tid.index()].pending = Some(Pending::Syscall {
                        nr,
                        remaining: kernel + overhead,
                        block,
                    });
                    return true;
                }
                Action::SleepUntil(t) => {
                    if t <= self.now {
                        continue;
                    }
                    self.block_task(tid, t, None);
                    return false;
                }
                Action::SleepFor(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.block_task(tid, self.now + d, None);
                    return false;
                }
                Action::Exit => {
                    self.tasks[tid.index()].state = TaskState::Exited;
                    self.sched.on_exit(tid, self.now);
                    if self.current == Some(tid) {
                        self.current = None;
                    }
                    return false;
                }
            }
        }
        panic!(
            "workload '{}' yielded {ACTION_FETCH_LIMIT} zero-length actions at {}",
            self.tasks[tid.index()].name,
            self.now
        );
    }

    fn block_task(&mut self, tid: TaskId, wake_at: Time, trace_exit: Option<SyscallNr>) {
        debug_assert!(wake_at > self.now);
        let tcb = &mut self.tasks[tid.index()];
        tcb.state = TaskState::Blocked;
        tcb.trace_exit = trace_exit;
        self.events.push(wake_at, KEvent::Wake(tid));
        self.sched.on_block(tid, self.now);
        if self.current == Some(tid) {
            self.current = None;
        }
    }

    /// Handles the completion of the task's pending action.
    fn complete_action(&mut self, tid: TaskId) {
        let pending = self.tasks[tid.index()].pending.take();
        match pending {
            None | Some(Pending::Compute { .. }) => {
                // Next loop iteration fetches the following action.
            }
            Some(Pending::Syscall { nr, block, .. }) => {
                let wake_at = match block {
                    Blocking::None => None,
                    Blocking::For(d) if d.is_zero() => None,
                    Blocking::For(d) => Some(self.now + d),
                    Blocking::Until(t) if t <= self.now => None,
                    Blocking::Until(t) => Some(t),
                };
                match wake_at {
                    None => {
                        // Non-blocking: trace exit immediately; the return
                        // path cost becomes debt.
                        let overhead = self.hook.on_exit(tid, nr, self.now);
                        self.tasks[tid.index()].debt += overhead;
                    }
                    Some(t) => {
                        self.block_task(tid, t, Some(nr));
                    }
                }
            }
        }
    }

    fn handle_event(&mut self, ev: KEvent) {
        match ev {
            KEvent::Start(tid) => {
                let tcb = &mut self.tasks[tid.index()];
                if tcb.state == TaskState::Exited {
                    // Killed before its start instant; ignore.
                    return;
                }
                debug_assert_eq!(tcb.state, TaskState::NotStarted, "double start of {tid}");
                tcb.state = TaskState::Ready;
                self.sched.on_ready(tid, self.now);
            }
            KEvent::Wake(tid) => {
                let state = self.tasks[tid.index()].state;
                if state != TaskState::Blocked {
                    // Spurious wake after exit; ignore.
                    return;
                }
                if let Some(nr) = self.tasks[tid.index()].trace_exit.take() {
                    let overhead = self.hook.on_exit(tid, nr, self.now);
                    self.tasks[tid.index()].debt += overhead;
                }
                let wake_ov = self.hook.on_wake(tid, self.now);
                self.tasks[tid.index()].debt += wake_ov;
                self.tasks[tid.index()].state = TaskState::Ready;
                self.sched.on_ready(tid, self.now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RoundRobin;
    use crate::task::{FnWorkload, Script};

    fn rr() -> RoundRobin {
        RoundRobin::new(Dur::ms(4))
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::ms(ms)
    }

    #[test]
    fn single_task_computes_and_exits() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "solo",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(3)),
                Action::Exit,
            ])),
        );
        k.run_until(t(10));
        assert_eq!(k.thread_time(id), Dur::ms(3));
        assert_eq!(k.task_state(id), TaskState::Exited);
        assert_eq!(k.idle_time(), Dur::ms(7));
        assert_eq!(k.busy_time(), Dur::ms(3));
    }

    #[test]
    fn two_tasks_share_cpu_fairly() {
        let mut k = Kernel::new(rr());
        let a = k.spawn(
            "a",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(20)),
                Action::Exit,
            ])),
        );
        let b = k.spawn(
            "b",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(20)),
                Action::Exit,
            ])),
        );
        k.run_until(t(20));
        // Both got roughly half the CPU so far.
        assert_eq!(k.thread_time(a) + k.thread_time(b), Dur::ms(20));
        assert!(k.thread_time(a) >= Dur::ms(8) && k.thread_time(a) <= Dur::ms(12));
        k.run_until(t(50));
        assert_eq!(k.task_state(a), TaskState::Exited);
        assert_eq!(k.task_state(b), TaskState::Exited);
        assert_eq!(k.thread_time(a), Dur::ms(20));
        assert_eq!(k.thread_time(b), Dur::ms(20));
    }

    #[test]
    fn sleep_wakes_on_time() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "sleeper",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(1)),
                Action::SleepFor(Dur::ms(5)),
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
        );
        k.run_until(t(3));
        assert_eq!(k.task_state(id), TaskState::Blocked);
        assert_eq!(k.thread_time(id), Dur::ms(1));
        k.run_until(t(10));
        assert_eq!(k.task_state(id), TaskState::Exited);
        assert_eq!(k.thread_time(id), Dur::ms(2));
        // Finished at 1ms compute + 5ms sleep + 1ms compute = 7ms.
        assert_eq!(k.idle_time(), Dur::ms(8));
    }

    #[test]
    fn periodic_task_marks_jobs() {
        let mut k = Kernel::new(rr());
        // Period 10ms, C=2ms, marks "job" at each completion.
        let period = Dur::ms(10);
        let mut job = 0u64;
        let wl = FnWorkload(move |ctx: &mut TaskCtx<'_>| {
            // Each job: compute then sleep to the next multiple of the period.
            let phase = ctx.now.as_ns() % period.as_ns();
            if phase != 0 && job > 0 {
                // End of job body: mark and sleep until next release.
                ctx.metrics.mark("job", ctx.now);
                let next = Time::from_ns(ctx.now.as_ns() - phase + period.as_ns());
                return Action::SleepUntil(next);
            }
            job += 1;
            Action::Compute(Dur::ms(2))
        });
        k.spawn("periodic", Box::new(wl));
        k.run_until(t(95));
        let marks = k.metrics().marks("job");
        assert_eq!(marks.len(), 10);
        // Jobs complete 2ms after each release.
        assert_eq!(marks[0], t(2));
        assert_eq!(marks[1], t(12));
        let ift = k.metrics().inter_mark_times_ms("job");
        assert!(ift.iter().all(|&x| (x - 10.0).abs() < 1e-9));
    }

    struct CountingHook {
        enters: u64,
        exits: u64,
        overhead: Dur,
    }

    impl SyscallHook for CountingHook {
        fn on_enter(&mut self, _t: TaskId, _nr: SyscallNr, _now: Time) -> Dur {
            self.enters += 1;
            self.overhead
        }
        fn on_exit(&mut self, _t: TaskId, _nr: SyscallNr, _now: Time) -> Dur {
            self.exits += 1;
            self.overhead
        }
    }

    #[test]
    fn syscall_costs_and_counts() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "caller",
            Box::new(Script::once(vec![
                Action::Syscall {
                    nr: SyscallNr::Ioctl,
                    kernel: Dur::us(10),
                    block: Blocking::None,
                },
                Action::Syscall {
                    nr: SyscallNr::Read,
                    kernel: Dur::us(5),
                    block: Blocking::None,
                },
                Action::Exit,
            ])),
        );
        k.run_until(t(5));
        assert_eq!(k.syscall_count(id), 2);
        assert_eq!(k.thread_time(id), Dur::us(15));
    }

    #[test]
    fn hook_overhead_is_charged() {
        let mut k = Kernel::new(rr());
        k.install_hook(Box::new(CountingHook {
            enters: 0,
            exits: 0,
            overhead: Dur::us(2),
        }));
        let id = k.spawn(
            "traced",
            Box::new(Script::once(vec![
                Action::Syscall {
                    nr: SyscallNr::Write,
                    kernel: Dur::us(10),
                    block: Blocking::None,
                },
                Action::Exit,
            ])),
        );
        k.run_until(t(5));
        // 10us body + 2us enter overhead + 2us exit overhead.
        assert_eq!(k.thread_time(id), Dur::us(14));
    }

    #[test]
    fn blocking_syscall_blocks_then_resumes() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "io",
            Box::new(Script::once(vec![
                Action::Syscall {
                    nr: SyscallNr::Read,
                    kernel: Dur::us(10),
                    block: Blocking::For(Dur::ms(5)),
                },
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
        );
        k.run_until(t(2));
        assert_eq!(k.task_state(id), TaskState::Blocked);
        k.run_until(t(20));
        assert_eq!(k.task_state(id), TaskState::Exited);
        // CPU: 10us syscall body + 1ms compute; blocked time not charged.
        assert_eq!(k.thread_time(id), Dur::us(10) + Dur::ms(1));
    }

    #[test]
    fn blocking_until_past_does_not_block() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "nb",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(1)),
                Action::Syscall {
                    nr: SyscallNr::ClockNanosleep,
                    kernel: Dur::us(1),
                    block: Blocking::Until(Time::ZERO),
                },
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
        );
        k.run_until(t(10));
        assert_eq!(k.task_state(id), TaskState::Exited);
        assert_eq!(k.thread_time(id), Dur::ms(2) + Dur::us(1));
    }

    #[test]
    fn zero_length_actions_are_skipped() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "zeros",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ZERO),
                Action::Compute(Dur::ZERO),
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
        );
        k.run_until(t(5));
        assert_eq!(k.task_state(id), TaskState::Exited);
        assert_eq!(k.thread_time(id), Dur::ms(1));
    }

    #[test]
    fn spawn_at_defers_start() {
        let mut k = Kernel::new(rr());
        let id = k.spawn_at(
            "late",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
            t(10),
        );
        k.run_until(t(5));
        assert_eq!(k.task_state(id), TaskState::NotStarted);
        assert_eq!(k.thread_time(id), Dur::ZERO);
        k.run_until(t(20));
        assert_eq!(k.task_state(id), TaskState::Exited);
        assert_eq!(k.thread_time(id), Dur::ms(1));
    }

    #[test]
    fn kill_stops_a_running_task() {
        let mut k = Kernel::new(rr());
        let id = k.spawn(
            "victim",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(100)),
                Action::Exit,
            ])),
        );
        k.run_until(t(5));
        assert_eq!(k.task_state(id), TaskState::Ready);
        assert!(k.kill(id));
        assert_eq!(k.task_state(id), TaskState::Exited);
        // No further CPU is consumed after the kill.
        let exec = k.thread_time(id);
        k.run_until(t(50));
        assert_eq!(k.thread_time(id), exec);
        assert_eq!(k.idle_time(), Dur::ms(45));
        // Killing twice reports the task was already gone.
        assert!(!k.kill(id));
    }

    #[test]
    fn kill_blocked_and_not_started_tasks_is_safe() {
        let mut k = Kernel::new(rr());
        let blocked = k.spawn(
            "sleeper",
            Box::new(Script::once(vec![
                Action::SleepFor(Dur::ms(20)),
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
        );
        let unborn = k.spawn_at(
            "late",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(1)),
                Action::Exit,
            ])),
            t(30),
        );
        k.run_until(t(5));
        assert_eq!(k.task_state(blocked), TaskState::Blocked);
        assert!(k.kill(blocked));
        assert!(k.kill(unborn));
        // Their wake/start events fire later and must be ignored.
        k.run_until(t(60));
        assert_eq!(k.task_state(blocked), TaskState::Exited);
        assert_eq!(k.task_state(unborn), TaskState::Exited);
        assert_eq!(k.thread_time(blocked), Dur::ZERO);
        assert_eq!(k.thread_time(unborn), Dur::ZERO);
    }

    #[test]
    fn reclaim_only_touches_exited_tasks_and_keeps_sensors() {
        let mut k: Kernel<RoundRobin> = Kernel::new(rr());
        let done = k.spawn(
            "done",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(3)),
                Action::Exit,
            ])),
        );
        let live = k.spawn(
            "live",
            Box::new(Script::once(vec![
                Action::Compute(Dur::ms(50)),
                Action::Exit,
            ])),
        );
        k.run_until(t(10));
        assert_eq!(k.task_state(done), TaskState::Exited);
        assert!(!k.reclaim(live), "running tasks must not be reclaimed");
        assert!(k.reclaim(done));
        // Sensors survive the workload drop, and the rest of the run is
        // unaffected.
        assert_eq!(k.thread_time(done), Dur::ms(3));
        assert_eq!(k.task_name(done), "done");
        k.run_until(t(100));
        assert_eq!(k.task_state(live), TaskState::Exited);
        assert_eq!(k.thread_time(live), Dur::ms(50));
    }

    #[test]
    fn run_until_now_is_a_no_op() {
        let mut k: Kernel<RoundRobin> = Kernel::new(rr());
        k.run_until(Time::ZERO);
        assert_eq!(k.now(), Time::ZERO);
    }

    #[test]
    fn idle_kernel_advances_to_end() {
        let mut k: Kernel<RoundRobin> = Kernel::new(rr());
        k.run_until(t(100));
        assert_eq!(k.now(), t(100));
        assert_eq!(k.idle_time(), Dur::ms(100));
    }
}
