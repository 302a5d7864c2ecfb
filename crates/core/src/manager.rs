//! The self-tuning manager: the user-space `lfs++` daemon of the paper.
//!
//! The manager wakes every sampling period `S`, drains the tracer, runs
//! each managed task's [`TaskController`], executes the resulting
//! decisions (creating reservations, re-placing tasks) and submits the
//! batch of bandwidth requests to the [`Supervisor`], which grants or
//! compresses them (Equation (1)).
//!
//! It runs *outside* the simulated kernel — exactly like the paper's
//! user-space daemon — alternating `kernel.run_until(next_sample)` with
//! [`SelfTuningManager::step`].

use crate::controller::{ControllerConfig, ControllerInput, Decision, TaskController};
use selftune_sched::{BwRequest, CbsMode, ReservationScheduler, ServerConfig, ServerId};
use selftune_sched::{Place, Supervisor};
use selftune_simcore::kernel::{Kernel, TaskState};
use selftune_simcore::metrics::{MetricKey, Metrics};
use selftune_simcore::scheduler::Scheduler;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use selftune_tracer::{EntryDemux, TraceReader};

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Sampling period `S` of the task controllers. The paper warns
    /// against `S = P` (remark 2 of Section 4.4); the default covers a
    /// dozen jobs of a 25 fps stream.
    pub sampling: Dur,
    /// Admission control and compression policy.
    pub supervisor: Supervisor,
    /// Depletion behaviour of created reservations.
    pub cbs_mode: CbsMode,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            sampling: Dur::ms(500),
            supervisor: Supervisor::default(),
            cbs_mode: CbsMode::Hard,
        }
    }
}

/// The per-task metric keys, interned once so the sampling step does no
/// name formatting or string hashing.
#[derive(Copy, Clone)]
struct TaskKeys {
    period_est: MetricKey,
    attached: MetricKey,
    bw: MetricKey,
}

/// Where a task's metric keys stand: its label until the first step
/// interns the `{label}.*` names against the kernel's metric store (the
/// kernel is not in scope at `manage` time), then the keys alone — the
/// store holds the one copy of each name.
enum Keys {
    Pending(Box<str>),
    Interned(TaskKeys),
}

struct ManagedTask {
    task: TaskId,
    keys: Keys,
    ctl: TaskController,
    server: Option<ServerId>,
    last_step: Option<Time>,
}

impl ManagedTask {
    fn new(task: TaskId, label: &str, ctl: TaskController, server: Option<ServerId>) -> Self {
        ManagedTask {
            task,
            keys: Keys::Pending(label.into()),
            ctl,
            server,
            last_step: None,
        }
    }

    /// Interns the keys on the first call, freeing the label.
    fn keys(&mut self, metrics: &mut Metrics) -> TaskKeys {
        match &self.keys {
            Keys::Interned(k) => *k,
            Keys::Pending(label) => {
                let keys = TaskKeys {
                    period_est: metrics.key(&format!("{label}.period_est_ms")),
                    attached: metrics.key(&format!("{label}.attached")),
                    bw: metrics.key(&format!("{label}.bw")),
                };
                self.keys = Keys::Interned(keys);
                keys
            }
        }
    }
}

/// The manager (the paper's `lfs++` user-space tool).
pub struct SelfTuningManager {
    cfg: ManagerConfig,
    reader: TraceReader,
    tasks: Vec<ManagedTask>,
    /// Reused event batch: one allocation serves every sampling step.
    scratch: Vec<selftune_tracer::TraceEvent>,
    /// The batch split into one entry-time train per managed task, once
    /// per step.
    demux: EntryDemux,
    /// Reused request batch of one step, and for each request the index
    /// in `tasks` of the task that made it.
    requests: Vec<BwRequest>,
    requesters: Vec<usize>,
    /// Grants the supervisor curbed below their request, cumulatively —
    /// the node-level saturation signal the fleet layer feeds back on.
    compressed_grants: u64,
}

impl SelfTuningManager {
    /// Creates a manager draining the given tracer reader.
    pub fn new(cfg: ManagerConfig, reader: TraceReader) -> SelfTuningManager {
        SelfTuningManager {
            cfg,
            reader,
            tasks: Vec::new(),
            scratch: Vec::new(),
            demux: EntryDemux::default(),
            requests: Vec::new(),
            requesters: Vec::new(),
            compressed_grants: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// How many grants the supervisor has compressed below their request
    /// since the manager was created (saturation pressure sensor).
    pub fn compressed_grants(&self) -> u64 {
        self.compressed_grants
    }

    /// Bandwidth this manager's attached reservations currently hold in
    /// `res`, Σ Q/T over its own servers only — the *booked* half of the
    /// [`crate::share::DemandSignal`] a share controller one level up
    /// aggregates (a VM's elastic host share is sized from what its guest
    /// manager booked, not from what the tenant nominally claimed).
    pub fn booked_bandwidth(&self, res: &ReservationScheduler) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| t.server)
            .map(|sid| res.server(sid).config().bandwidth())
            .sum()
    }

    /// Re-bounds this manager's supervisor to `ulub` — how the adaptation
    /// layer above propagates a changed share down to the consumer: when
    /// an elastic VM's grant moves, its guest manager must compress (or
    /// relax) against the *new* supply, not the admission-time one.
    ///
    /// # Panics
    ///
    /// Panics if `ulub` is not in `(0, 1]`.
    pub fn set_bandwidth_bound(&mut self, ulub: f64) {
        assert!(ulub > 0.0 && ulub <= 1.0, "ulub {ulub} out of (0, 1]");
        self.cfg.supervisor.ulub = ulub;
    }

    /// Puts a legacy task under management.
    pub fn manage(&mut self, task: TaskId, label: &str, ctl_cfg: ControllerConfig) {
        self.tasks.push(ManagedTask::new(
            task,
            label,
            TaskController::new(ctl_cfg),
            None,
        ));
    }

    /// The reservation serving a managed task, if attached yet.
    pub fn server_of(&self, task: TaskId) -> Option<ServerId> {
        self.tasks
            .iter()
            .find(|t| t.task == task)
            .and_then(|t| t.server)
    }

    /// The controller of a managed task (spectrum inspection etc.).
    pub fn controller_of(&self, task: TaskId) -> Option<&TaskController> {
        self.tasks.iter().find(|t| t.task == task).map(|t| &t.ctl)
    }

    /// Stops managing a task: drops its controller and, if it was
    /// attached, shrinks its reservation to the floor and returns the
    /// task to the fair class at the next opportunity.
    ///
    /// Returns `true` if the task was under management.
    pub fn unmanage(&mut self, k: &mut Kernel<ReservationScheduler>, task: TaskId) -> bool {
        self.unmanage_in(k, |s| s, task)
    }

    /// [`SelfTuningManager::unmanage`] against a reservation scheduler
    /// embedded in a larger policy (see [`SelfTuningManager::step_in`]).
    pub fn unmanage_in<S: Scheduler>(
        &mut self,
        k: &mut Kernel<S>,
        mut res: impl FnMut(&mut S) -> &mut ReservationScheduler,
        task: TaskId,
    ) -> bool {
        let Some(pos) = self.tasks.iter().position(|t| t.task == task) else {
            return false;
        };
        let mt = self.tasks.remove(pos);
        if let Some(sid) = mt.server {
            let now = k.now();
            match k.task_state(task) {
                TaskState::Ready => res(k.sched_mut()).place_ready(task, Place::Fair, now),
                _ => res(k.sched_mut()).place(task, Place::Fair),
            }
            // Release the bandwidth: shrink to the admission floor (the
            // scheduler keeps the server object; ids stay stable).
            let period = res(k.sched_mut()).server(sid).config().period;
            let floor = self.cfg.supervisor.budget_floor(period);
            res(k.sched_mut()).server_mut(sid).set_params(floor, period);
        }
        true
    }

    /// Puts a migrated task under management with the source node's
    /// controller state: the reservation is created *immediately* with the
    /// carried `(budget, period)` (granted through the supervisor, so
    /// compression under saturation still applies) and the controller
    /// starts from the carried period belief instead of re-detecting from
    /// scratch. The warm incarnation marks `"<label>.attached"` at once —
    /// the hand-over gap is the spawn-to-attach delay, which this path
    /// collapses to zero.
    #[allow(clippy::too_many_arguments)] // a projection + full hand-over state
    pub fn manage_warm_in<S: Scheduler>(
        &mut self,
        k: &mut Kernel<S>,
        mut res: impl FnMut(&mut S) -> &mut ReservationScheduler,
        task: TaskId,
        label: &str,
        ctl_cfg: ControllerConfig,
        budget: Dur,
        period: Dur,
    ) {
        let held = ctl_cfg.min_period..=ctl_cfg.max_period;
        if budget.is_zero() || !held.contains(&period) {
            // Degenerate hand-over state — no grant the controller could
            // hold (a live grant's period is a range-checked estimate):
            // fall back to cold-start.
            self.manage(task, label, ctl_cfg);
            return;
        }
        let now = k.now();
        let floor = self.cfg.supervisor.budget_floor(period);
        let sid = res(k.sched_mut())
            .create_server(ServerConfig::new(floor, period).with_mode(self.cfg.cbs_mode));
        match k.task_state(task) {
            TaskState::Ready => res(k.sched_mut()).place_ready(task, Place::Server(sid), now),
            _ => res(k.sched_mut()).place(task, Place::Server(sid)),
        }
        let grants = self.cfg.supervisor.apply(
            res(k.sched_mut()),
            &[BwRequest {
                server: sid,
                budget,
                period,
            }],
        );
        if grants.iter().any(|g| g.compressed) {
            self.compressed_grants += 1;
        }
        k.metrics_mut().mark(&format!("{label}.attached"), now);
        self.tasks.push(ManagedTask::new(
            task,
            label,
            TaskController::with_initial_period(ctl_cfg, period),
            Some(sid),
        ));
    }

    /// One sampling step against the kernel.
    ///
    /// Records, per managed task `label`:
    /// * `"<label>.bw"` — granted bandwidth series,
    /// * `"<label>.period_est_ms"` — period-estimate series,
    /// * `"<label>.attached"` mark — when the reservation was created.
    pub fn step(&mut self, k: &mut Kernel<ReservationScheduler>) {
        self.step_in(k, |s| s);
    }

    /// One sampling step against a reservation scheduler embedded in a
    /// larger policy: `res` projects the kernel's scheduler to the
    /// [`ReservationScheduler`] this manager owns. The flat single-level
    /// stack passes the identity; the `selftune-virt` layer projects to a
    /// *guest* scheduler so each virtual platform runs its own manager —
    /// per-tenant self-tuning inside a host reservation.
    pub fn step_in<S: Scheduler>(
        &mut self,
        k: &mut Kernel<S>,
        mut res: impl FnMut(&mut S) -> &mut ReservationScheduler,
    ) {
        let now = k.now();
        // One batch buffer serves every step (disjoint field borrows let
        // the task loop read it directly).
        self.reader.drain_into(&mut self.scratch);
        self.demux
            .split(&self.scratch, self.tasks.iter().map(|t| t.task));
        self.requests.clear();
        self.requesters.clear();
        for (index, mt) in self.tasks.iter_mut().enumerate() {
            if k.task_state(mt.task) == TaskState::Exited {
                continue;
            }
            let keys = mt.keys(k.metrics_mut());
            let consumed = k.thread_time(mt.task);
            let exhausted = mt
                .server
                .map(|sid| res(k.sched_mut()).server_mut(sid).take_exhausted_flag())
                .unwrap_or(false);
            let elapsed = match mt.last_step {
                Some(t) => now.saturating_since(t),
                None => self.cfg.sampling,
            };
            mt.last_step = Some(now);
            if elapsed.is_zero() {
                continue;
            }
            let decision = mt.ctl.step(&ControllerInput {
                events_secs: self.demux.entries(mt.task),
                consumed,
                elapsed,
                exhausted,
                attached: mt.server.is_some(),
            });
            if let Some(p) = mt.ctl.period() {
                k.metrics_mut()
                    .record_k(keys.period_est, now, p.as_ms_f64());
            }
            match decision {
                Decision::None => {}
                Decision::Attach(req) | Decision::Adjust(req) if req.period.is_zero() => {
                    // Degenerate period estimate (a starved task's trace
                    // can collapse to a zero-width train): no reservation
                    // can be parameterised from it — wait for better data.
                }
                Decision::Attach(req) => {
                    // Create the server with a floor budget; the real grant
                    // arrives through the supervisor batch below, so
                    // compression under saturation applies from the start.
                    let floor = self.cfg.supervisor.budget_floor(req.period);
                    let sid = res(k.sched_mut()).create_server(
                        ServerConfig::new(floor, req.period).with_mode(self.cfg.cbs_mode),
                    );
                    match k.task_state(mt.task) {
                        TaskState::Ready => {
                            res(k.sched_mut()).place_ready(mt.task, Place::Server(sid), now);
                        }
                        _ => res(k.sched_mut()).place(mt.task, Place::Server(sid)),
                    }
                    mt.server = Some(sid);
                    k.metrics_mut().mark_k(keys.attached, now);
                    self.requests.push(BwRequest {
                        server: sid,
                        budget: req.budget,
                        period: req.period,
                    });
                    self.requesters.push(index);
                }
                Decision::Adjust(req) => {
                    let sid = mt.server.expect("Adjust implies an attached server");
                    self.requests.push(BwRequest {
                        server: sid,
                        budget: req.budget,
                        period: req.period,
                    });
                    self.requesters.push(index);
                }
            }
        }
        let grants = self
            .cfg
            .supervisor
            .apply(res(k.sched_mut()), &self.requests);
        // The supervisor answers requests in order and at most drops
        // some, so the grants are an in-order subsequence of the requests.
        let mut asked = self.requests.iter().zip(&self.requesters);
        for g in &grants {
            if g.compressed {
                self.compressed_grants += 1;
            }
            let (_, &index) = asked
                .find(|(r, _)| r.server == g.server)
                .expect("every grant answers a request");
            let Keys::Interned(keys) = self.tasks[index].keys else {
                unreachable!("a granted task has stepped, which interned its keys");
            };
            k.metrics_mut().record_k(keys.bw, now, g.bandwidth());
        }
    }

    /// Drives the kernel to `until`, sampling every `S` along the way.
    pub fn run(&mut self, k: &mut Kernel<ReservationScheduler>, until: Time) {
        while k.now() < until {
            let next = (k.now() + self.cfg.sampling).min(until);
            k.run_until(next);
            self.step(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_apps::{Aperiodic, MediaConfig, MediaPlayer, PeriodicRt};
    use selftune_simcore::rng::Rng;
    use selftune_simcore::stats::mean_std_of;
    use selftune_simcore::syscall::SyscallNr;
    use selftune_simcore::task::{Action, Script};
    use selftune_spectrum::PeriodAnalyser;
    use selftune_tracer::{entry_times_secs, Tracer, TracerConfig};

    /// End-to-end: an unmanaged mplayer is detected, attached to a
    /// reservation, and its budget converges to demand + spread.
    #[test]
    fn full_loop_converges_on_video_player() {
        let mut k = Kernel::new(ReservationScheduler::new());
        let (hook, reader) = Tracer::create(TracerConfig::default());
        k.install_hook(Box::new(hook));

        let cfg = MediaConfig::mplayer_video_25fps();
        let u = cfg.utilisation();
        let player = MediaPlayer::new(cfg, Rng::new(77));
        let tid = k.spawn("mplayer", Box::new(player));

        let mut mgr = SelfTuningManager::new(ManagerConfig::default(), reader);
        mgr.manage(tid, "mplayer", ControllerConfig::default());
        mgr.run(&mut k, Time::ZERO + Dur::secs(12));

        // The period was detected close to 40 ms.
        let ctl = mgr.controller_of(tid).unwrap();
        let p = ctl.period().expect("period detected").as_ms_f64();
        assert!((p - 40.0).abs() < 1.5, "period {p} ms");

        // The task got attached to a server.
        let sid = mgr.server_of(tid).expect("attached");
        let bw = k.sched().server(sid).config().bandwidth();
        assert!(
            bw > u * 0.9 && bw < u * 2.0,
            "granted bw {bw} vs utilisation {u}"
        );

        // QoS: after the warm-up the inter-frame times sit at 40 ms.
        // Borrowing tail-window read: no Vec materialised for the gaps.
        let half = k.metrics().marks("mplayer.frame").len() / 2;
        let (m, sd) = mean_std_of(k.metrics().inter_mark_iter("mplayer.frame").skip(half));
        assert!((m - 40.0).abs() < 2.0, "steady IFT mean {m}");
        assert!(sd < 15.0, "steady IFT sd {sd}");

        // Bandwidth series was recorded.
        assert!(!k.metrics().series("mplayer.bw").is_empty());
    }

    #[test]
    fn unmanage_releases_bandwidth_and_returns_task_to_fair() {
        let mut k = Kernel::new(ReservationScheduler::new());
        let (hook, reader) = Tracer::create(TracerConfig::default());
        k.install_hook(Box::new(hook));
        let player = MediaPlayer::new(MediaConfig::mplayer_video_25fps(), Rng::new(7));
        let tid = k.spawn("mplayer", Box::new(player));
        let mut mgr = SelfTuningManager::new(ManagerConfig::default(), reader);
        mgr.manage(tid, "mplayer", ControllerConfig::default());
        mgr.run(&mut k, Time::ZERO + Dur::secs(5));
        assert!(mgr.server_of(tid).is_some());
        let reserved_before = k.sched().total_reserved_bandwidth();
        assert!(reserved_before > 0.2);

        assert!(mgr.unmanage(&mut k, tid));
        assert!(mgr.server_of(tid).is_none());
        assert!(k.sched().total_reserved_bandwidth() < 0.05);
        assert_eq!(k.sched().place_of(tid), Place::Fair);
        // The player keeps running (best effort) without the manager.
        let frames_before = k.metrics().marks("mplayer.frame").len();
        k.run_until(Time::ZERO + Dur::secs(7));
        assert!(k.metrics().marks("mplayer.frame").len() > frames_before);
        // Unmanaging twice is a no-op.
        assert!(!mgr.unmanage(&mut k, tid));
    }

    #[test]
    fn manage_warm_attaches_immediately_with_carried_state() {
        let mut k = Kernel::new(ReservationScheduler::new());
        let (hook, reader) = Tracer::create(TracerConfig::default());
        k.install_hook(Box::new(hook));
        let player = MediaPlayer::new(MediaConfig::mplayer_video_25fps(), Rng::new(3));
        let tid = k.spawn("mplayer", Box::new(player));
        let mut mgr = SelfTuningManager::new(ManagerConfig::default(), reader);
        // A migrated incarnation arrives with the source's grant: 14 ms
        // every 40 ms, period already detected.
        mgr.manage_warm_in(
            &mut k,
            |s| s,
            tid,
            "mplayer",
            ControllerConfig::default(),
            Dur::ms(14),
            Dur::ms(40),
        );
        // Attached at spawn: no detection gap at all.
        let sid = mgr.server_of(tid).expect("warm start attaches at once");
        assert_eq!(k.sched().server(sid).config().budget, Dur::ms(14));
        assert_eq!(k.sched().server(sid).config().period, Dur::ms(40));
        let marks = k.metrics().marks("mplayer.attached");
        assert_eq!(marks, &[Time::ZERO], "attach mark at hand-over instant");
        let ctl = mgr.controller_of(tid).expect("managed");
        assert_eq!(ctl.period(), Some(Dur::ms(40)));

        // The controller keeps adapting from the carried state: after a
        // few samples the budget tracks the real demand instead of
        // sticking to the carried figure.
        mgr.run(&mut k, Time::ZERO + Dur::secs(6));
        let bw = k.sched().server(sid).config().bandwidth();
        let u = MediaConfig::mplayer_video_25fps().utilisation();
        assert!(bw > u * 0.9 && bw < u * 2.0, "adapted bw {bw} vs {u}");
        // And the QoS held from the first frame (no cold-start misses).
        let half = k.metrics().marks("mplayer.frame").len() / 2;
        let (m, _) = mean_std_of(k.metrics().inter_mark_iter("mplayer.frame").skip(half));
        assert!((m - 40.0).abs() < 2.0, "steady IFT mean {m}");
    }

    /// Forwards every edge to two tracers: the manager drains one ring,
    /// the test the other.
    struct Tee(selftune_tracer::TracerHook, selftune_tracer::TracerHook);

    impl selftune_simcore::kernel::SyscallHook for Tee {
        fn on_enter(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
            self.1.on_enter(task, nr, now);
            self.0.on_enter(task, nr, now)
        }
        fn on_exit(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
            self.1.on_exit(task, nr, now);
            self.0.on_exit(task, nr, now)
        }
        fn on_wake(&mut self, task: TaskId, now: Time) -> Dur {
            self.1.on_wake(task, now);
            self.0.on_wake(task, now)
        }
    }

    /// The one-pass demux hands every controller the train a per-task
    /// scan of the batch would: mirror analysers fed
    /// `entry_times_secs(&batch, task)` from a second ring end up with the
    /// same spectrum, to the bit, as the managed ones — across an
    /// interleaved batch with wake edges, an unmanaged task's events, a
    /// task that exits mid-run and a zero-`elapsed` step.
    #[test]
    fn step_feeds_each_task_what_a_per_task_scan_of_the_batch_would() {
        let traced = || TracerConfig {
            trace_sched_events: true,
            ..TracerConfig::default()
        };
        let (hook, reader) = Tracer::create(traced());
        let (mirror_hook, mirror) = Tracer::create(traced());
        let mut k = Kernel::new(ReservationScheduler::new());
        k.install_hook(Box::new(Tee(hook, mirror_hook)));

        let mut rng = Rng::new(11);
        let video = MediaPlayer::new(MediaConfig::mplayer_video_25fps(), rng.fork());
        let periodic = PeriodicRt::new("rt", Dur::ms(2), Dur::ms(50), 0.1, rng.fork());
        let noise = Aperiodic::new(Dur::ms(15), Dur::from_ms_f64(1.5), 2, rng.fork());
        // Forty reads 20 ms apart, then gone: exited from the third step.
        let mut burst = Vec::new();
        for _ in 0..40 {
            burst.push(Action::syscall(SyscallNr::Read));
            burst.push(Action::SleepFor(Dur::ms(20)));
        }
        burst.push(Action::Exit);
        let managed = [
            k.spawn("video", Box::new(video)),
            k.spawn("rt", Box::new(periodic)),
            k.spawn("short", Box::new(Script::once(burst))),
        ];
        k.spawn("noise", Box::new(noise));

        let mut mgr = SelfTuningManager::new(ManagerConfig::default(), reader);
        let ctl_cfg = ControllerConfig::default();
        let mut mirrors = Vec::new();
        for (i, &tid) in managed.iter().enumerate() {
            mgr.manage(tid, &format!("t{i}"), ctl_cfg.clone());
            mirrors.push(PeriodAnalyser::new(ctl_cfg.analyser));
        }

        let mut batch = Vec::new();
        let mut mirror_step = |k: &Kernel<ReservationScheduler>, zero_elapsed: bool| {
            mirror.drain_into(&mut batch);
            for (&tid, analyser) in managed.iter().zip(&mut mirrors) {
                if k.task_state(tid) != TaskState::Exited && !zero_elapsed {
                    analyser.feed(&entry_times_secs(&batch, tid));
                }
            }
        };
        for step in 1..=8 {
            k.run_until(Time::ZERO + Dur::ms(500 * step));
            mgr.step(&mut k);
            mirror_step(&k, false);
            if step == 4 {
                // Same instant again: every task sees a zero `elapsed`.
                mgr.step(&mut k);
                mirror_step(&k, true);
            }
        }

        assert_eq!(k.task_state(managed[2]), TaskState::Exited);
        for (&tid, analyser) in managed.iter().zip(&mirrors) {
            let ours = mgr.controller_of(tid).unwrap().analyser().spectrum();
            let theirs = analyser.spectrum();
            assert!(theirs.events > 0, "{tid} was never fed");
            assert_eq!(ours.events, theirs.events, "{tid}");
            assert_eq!(ours.ops, theirs.ops, "{tid}");
            let bits = |s: &[f64]| s.iter().map(|a| a.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&ours.amplitudes), bits(&theirs.amplitudes), "{tid}");
        }
    }

    #[test]
    fn unmanaged_kernel_steps_are_noops() {
        let mut k = Kernel::new(ReservationScheduler::new());
        let (_hook, reader) = Tracer::create(TracerConfig::default());
        let mut mgr = SelfTuningManager::new(ManagerConfig::default(), reader);
        mgr.run(&mut k, Time::ZERO + Dur::secs(1));
        assert_eq!(k.now(), Time::ZERO + Dur::secs(1));
        assert_eq!(k.sched().server_count(), 0);
    }
}
