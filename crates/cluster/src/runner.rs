//! The parallel scenario runner: plan → place → execute → reduce.
//!
//! Determinism contract (crate docs, "Determinism"): the plan and the
//! placement are computed up front from `(spec, seed)` alone (`plan.rs`,
//! re-exported here) and every node's simulation depends only on its own
//! slice of them, so 1 or N threads yield byte-identical aggregates.
//!
//! One pipeline: every public `run*` method builds a `RunRequest` — plan,
//! pin source and sink are data on it — for one private
//! `execute`, whose epoch loop only sequences the stages of `stages.rs`
//! (see there for the boundary protocol) and owns what they must not:
//! the threads and the one meeting per decision boundary, a mutex and a
//! condvar. The lock is held to post, to leave, and by the last worker to
//! arrive while it leads — when every sibling is parked anyway.
//!
//! Decision journalling and replay: [`ClusterRunner::run_logged`] runs a
//! scenario while emitting the merged, canonically ordered
//! [`FleetEvent`] stream (admissions, kills, share grants, compressions,
//! rebalance passes, migrations) that `selftune-journal` serialises.
//! [`plan_fleet_pinned`] and [`ClusterRunner::run_pinned`] close the
//! loop: they re-execute a scenario with the journal's placements and
//! per-epoch migration decisions substituted for the live ones, so a
//! replay reproduces the recorded aggregates byte-identically — and a
//! what-if replay can pin history up to a cut epoch and let a *swapped*
//! policy decide from there. The decisions reach the meeting's leader
//! through one seam, [`PinSource`]: a [`PinnedMoves`] table answers at
//! once, while a replication follower's stream-fed source blocks until
//! the boundary's frame has arrived (pinned / live / stop) and may ask
//! any boundary for the interim aggregates a logged run's checkpoint
//! reports there — the same run, fed incrementally, is the follower's
//! live mirror.

#![deny(clippy::too_many_lines)]

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use selftune_simcore::time::Time;

use crate::aggregate::{AdmissionStats, AggregateMetrics};
use crate::events::{sort_events, FleetEvent, JournalSink};
use crate::placer::FeedbackView;
use crate::plan::plan_events;
pub use crate::plan::{
    plan_fleet, plan_fleet_pinned, FleetPlan, PinnedPlan, PlannedTask, PlannedVm,
};
use crate::spec::ScenarioSpec;
use crate::stages::{
    admit_and_simulate, apply, deal, decide, emit, merge, publish, reduce, EpochOrders,
    LeaderState, Published, Run, WorkerState,
};

/// One journalled rebalance epoch — the migrations the leader published,
/// in decision order, and how many victims found no destination: the
/// same thing a live pass decides.
pub use crate::placer::RebalanceOutcome as EpochDecision;

/// Per-epoch migration decisions for a pinned re-execution: index `i`
/// pins rebalance epoch `i`. A `None` entry (or an epoch past the end of
/// the vector) is decided *live* — that is the what-if cut point.
#[derive(Clone, Debug, Default)]
pub struct PinnedMoves {
    /// The pinned epochs.
    pub epochs: Vec<Option<EpochDecision>>,
}

impl PinnedMoves {
    /// The per-epoch migration pin table of a logged run, out of its
    /// rebalance and migration events (canonical order, so each epoch's
    /// moves arrive in `seq` order). `up_to_epoch = None` pins every
    /// recorded epoch (exact replay); `Some(cut)` pins epochs `< cut` and
    /// leaves the rest to be decided live (the what-if cut point).
    pub fn from_events(
        spec: &ScenarioSpec,
        events: &[FleetEvent],
        up_to_epoch: Option<usize>,
    ) -> PinnedMoves {
        let recorded = ClusterRunner::epoch_ends(spec).len() - 1;
        let pinned = up_to_epoch.map_or(recorded, |cut| cut.min(recorded));
        let mut epochs: Vec<Option<EpochDecision>> = vec![None; pinned];
        for e in events {
            match e {
                FleetEvent::Rebalance { epoch, failed, .. } => {
                    if let Some(slot) = epochs.get_mut(*epoch) {
                        slot.get_or_insert_with(EpochDecision::default).failed = *failed;
                    }
                }
                FleetEvent::Migration {
                    epoch, migration, ..
                } => {
                    if let Some(slot) = epochs.get_mut(*epoch) {
                        slot.get_or_insert_with(EpochDecision::default)
                            .moves
                            .push(migration.clone());
                    }
                }
                _ => {}
            }
        }
        PinnedMoves { epochs }
    }

    /// The interim aggregates a re-execution of `plan` on `runner`, with
    /// this table's decisions, reduces at epoch boundary `cursor`: the
    /// decisions of epochs `< cursor` applied, none taken *at* it, no
    /// straggler flush — the same bytes a logged run hands
    /// [`JournalSink::on_checkpoint`] and a run passing through hands
    /// [`PinSource::on_interim`] there. The run ends at the cursor: the
    /// table answers [`EpochPin::Stop`] there.
    ///
    /// # Errors
    ///
    /// When `cursor` is no [`interim_boundary`] of the scenario — the
    /// horizon, or past the epoch grid — before anything runs.
    pub fn interim_at(
        &self,
        runner: &ClusterRunner,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
        cursor: usize,
    ) -> Result<AggregateMetrics, String> {
        interim_boundary(&ClusterRunner::epoch_ends(spec), cursor, None)?;
        let stop = StopAt {
            moves: self,
            cursor,
            interim: OnceLock::new(),
        };
        runner.run_pinned(spec, seed, plan, &stop);
        stop.interim
            .into_inner()
            .ok_or_else(|| format!("the run never reached boundary {cursor}"))
    }
}

/// A [`PinnedMoves`] table that ends the run at `cursor` and keeps the
/// interim reduced there.
struct StopAt<'a> {
    moves: &'a PinnedMoves,
    cursor: usize,
    interim: OnceLock<AggregateMetrics>,
}

impl PinSource for StopAt<'_> {
    fn wants_interim(&self, epoch: usize) -> bool {
        epoch == self.cursor
    }

    /// Only the cursor's interim is asked for: a pinned run has no sink.
    fn on_interim(&self, _epoch: usize, interim: AggregateMetrics) {
        let _ = self.interim.set(interim);
    }

    fn pin(&self, epoch: usize) -> EpochPin {
        if epoch == self.cursor {
            EpochPin::Stop
        } else {
            self.moves.pin(epoch)
        }
    }
}

/// What a [`PinSource`] tells the meeting's leader at one epoch boundary.
#[derive(Clone, Debug)]
pub enum EpochPin {
    /// Apply this recorded decision verbatim.
    Pinned(EpochDecision),
    /// Decide live — the what-if cut, a promoted follower.
    Live,
    /// End the run at this boundary; it produces no aggregates.
    Stop,
}

/// Where a pinned run takes its per-epoch decisions from. A
/// [`PinnedMoves`] table answers at once; a source fed by a replication
/// stream blocks until the boundary's frame has arrived, which is what
/// parks a follower's mirror at the first boundary it has no instruction
/// for.
pub trait PinSource: Sync {
    /// Whether the run reduces interim aggregates at (non-horizon)
    /// boundary `epoch` and hands them to [`PinSource::on_interim`] before
    /// asking for the boundary's [`EpochPin`]. Every worker asks before it
    /// arrives at the boundary's meeting, so all callers of one `epoch`
    /// must get the same answer.
    fn wants_interim(&self, epoch: usize) -> bool {
        let _ = epoch;
        false
    }

    /// The interim aggregates at boundary `epoch`: decisions of epochs
    /// `< epoch` applied, the boundary's own not yet — what a logged run
    /// hands [`JournalSink::on_checkpoint`] there.
    fn on_interim(&self, epoch: usize, interim: AggregateMetrics) {
        let _ = (epoch, interim);
    }

    /// The decision at boundary `epoch`; asked once, by the meeting's
    /// leader.
    fn pin(&self, epoch: usize) -> EpochPin;
}

impl PinSource for PinnedMoves {
    fn pin(&self, epoch: usize) -> EpochPin {
        match self.epochs.get(epoch) {
            Some(Some(decision)) => EpochPin::Pinned(decision.clone()),
            _ => EpochPin::Live,
        }
    }
}

/// An empty pin table: every epoch is decided live.
pub(crate) static LIVE: PinnedMoves = PinnedMoves { epochs: Vec::new() };

/// One run, as asked for: every run variant is a field here, not an entry
/// point of its own. [`RunRequest::new`] is [`ClusterRunner::run_planned`];
/// each other public method sets the fields that name it.
struct RunRequest<'a> {
    spec: &'a ScenarioSpec,
    seed: u64,
    /// The plan to execute: the caller's (`run_planned`, `run_pinned`), or
    /// planned live from `(spec, seed)` (`run`, `run_logged*`).
    plan: &'a FleetPlan,
    /// Where each boundary's migrations come from (`run_pinned`); the
    /// empty table decides every boundary live.
    pins: &'a dyn PinSource,
    /// Who receives the decision stream ([`ClusterRunner::run_logged_with`],
    /// and `run_logged` with a buffer); `None` builds no events at all.
    sink: Option<&'a mut dyn JournalSink>,
}

impl<'a> RunRequest<'a> {
    fn new(spec: &'a ScenarioSpec, seed: u64, plan: &'a FleetPlan) -> RunRequest<'a> {
        RunRequest {
            spec,
            seed,
            plan,
            pins: &LIVE,
            sink: None,
        }
    }
}

/// Executes fleet scenarios across OS threads.
#[derive(Clone, Debug)]
pub struct ClusterRunner {
    threads: usize,
    sketch: bool,
}

impl ClusterRunner {
    /// A runner using `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> ClusterRunner {
        ClusterRunner {
            threads: threads.max(1),
            sketch: false,
        }
    }

    /// Reports binned histogram sketches instead of lossless ones: nodes
    /// keep O(bins) state instead of every inter-finish gap, and fleet
    /// CDFs come from an associative node-order merge. Quantiles are
    /// bin-quantised; aggregates remain byte-identical at any thread
    /// count. Default off — small fleets keep lossless sketches and their
    /// exact CSV bytes.
    pub fn with_sketch_aggregates(mut self, sketch: bool) -> ClusterRunner {
        self.sketch = sketch;
        self
    }

    /// A runner using all available hardware parallelism.
    pub fn available_parallelism() -> ClusterRunner {
        ClusterRunner::new(
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plans and runs the scenario, reducing to fleet aggregates. The
    /// thread count affects wall-clock time only.
    pub fn run(&self, spec: &ScenarioSpec, seed: u64) -> AggregateMetrics {
        let plan = plan_fleet(spec, seed);
        self.run_planned(spec, seed, &plan)
    }

    /// [`ClusterRunner::run`] plus the canonically ordered decision-event
    /// stream: everything a journal needs to make the run explainable and
    /// replayable. The stream is byte-for-byte independent of the thread
    /// count, exactly like the aggregates.
    ///
    /// Convenience wrapper over [`ClusterRunner::run_logged_with`] that
    /// buffers the whole stream; a streaming consumer (a log shipper)
    /// should pass its own sink instead and keep memory flat.
    pub fn run_logged(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
    ) -> (AggregateMetrics, Vec<FleetEvent>) {
        let mut sink = CollectSink::default();
        let metrics = self.run_logged_with(spec, seed, &mut sink);
        let mut events = sink.events;
        sort_events(&mut events);
        (metrics, events)
    }

    /// Runs the scenario while streaming the decision-event batches into
    /// `sink` (see [`JournalSink`]) instead of buffering them: the plan
    /// batch up front, one batch per epoch boundary as the meeting's leader
    /// takes the decisions, interim aggregates at the sink's checkpoint
    /// cadence, and the final aggregates at the horizon. Nothing is
    /// retained runner-side beyond the batch in flight.
    pub fn run_logged_with(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        sink: &mut dyn JournalSink,
    ) -> AggregateMetrics {
        let plan = plan_fleet(spec, seed);
        self.execute(RunRequest {
            sink: Some(sink),
            ..RunRequest::new(spec, seed, &plan)
        })
        .expect("a live run ends at the horizon")
    }

    /// Re-executes a (usually pinned) plan with per-epoch rebalance
    /// decisions substituted from `pins` — a journal's [`PinnedMoves`]
    /// table, or a follower's stream-fed source: pinned epochs apply the
    /// recorded migrations verbatim (the leader still folds the pressure
    /// EWMA, so post-cut live decisions see the correct hysteresis
    /// state); the rest are decided live. `None` if and only if the
    /// source answered [`EpochPin::Stop`], which a `PinnedMoves` table
    /// does only at the cursor of [`PinnedMoves::interim_at`].
    pub fn run_pinned(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
        pins: &dyn PinSource,
    ) -> Option<AggregateMetrics> {
        self.execute(RunRequest {
            pins,
            ..RunRequest::new(spec, seed, plan)
        })
    }

    /// The epoch boundaries of a run: rebalance instants, then the horizon.
    ///
    /// With rebalance disabled (or a period at/after the horizon) there is
    /// a single epoch and the runner behaves exactly as before. Public so
    /// journal replay can size its per-epoch pin table without re-deriving
    /// the grid.
    pub fn epoch_ends(spec: &ScenarioSpec) -> Vec<Time> {
        let horizon = Time::ZERO + spec.horizon;
        let mut ends = Vec::new();
        // Node-level share re-bounding rides the same epoch grid, so it
        // alone is enough to cut the run into epochs.
        if (spec.rebalance.enabled || spec.node_share.enabled) && !spec.rebalance.period.is_zero() {
            let mut t = Time::ZERO + spec.rebalance.period;
            while t < horizon {
                ends.push(t);
                t += spec.rebalance.period;
            }
        }
        ends.push(horizon);
        ends
    }

    /// Runs a pre-built plan (lets callers inspect or reuse the plan).
    pub fn run_planned(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        plan: &FleetPlan,
    ) -> AggregateMetrics {
        self.execute(RunRequest::new(spec, seed, plan))
            .expect("a live run ends at the horizon")
    }

    /// The one way a fleet runs: resolve the request, deal the nodes,
    /// spawn the workers, close the stream. `None` when the pin source
    /// stopped the run.
    fn execute(&self, mut request: RunRequest<'_>) -> Option<AggregateMetrics> {
        let (spec, seed, plan) = (request.spec, request.seed, request.plan);
        let ends = ClusterRunner::epoch_ends(spec);
        let workers = self.threads.min(spec.nodes).max(1);
        let sink = &mut request.sink;
        let run = Run {
            spec,
            seed,
            plan,
            pins: request.pins,
            interval: sink.as_ref().and_then(|s| s.checkpoint_interval()),
            log: sink.is_some(),
            sketch: self.sketch,
            ends,
            deal: deal(spec, plan, workers),
        };
        // Admissions and churn kills are plan-time decisions; shipping the
        // whole batch before simulation starts gives a streaming consumer
        // a complete placement pin table at any later cut point.
        if let Some(s) = sink {
            let mut events = plan_events(plan);
            sort_events(&mut events);
            s.on_plan(&plan.admission, &events);
        }
        let meeting = Meeting::new(workers, spec, request.sink);
        let posts: Vec<Option<Published>> = thread::scope(|scope| {
            let (run, meeting) = (&run, &meeting);
            let spawn = |w| scope.spawn(move || work(run, meeting, w));
            let handles: Vec<_> = (0..workers).map(spawn).collect();
            // Join every worker before looking at any: a panic's siblings
            // return early through the poisoned meeting, and the first
            // panic resumes here under its own message — the caller sees
            // the cause, not that the run stopped.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let resume = |cause| std::panic::resume_unwind(cause);
            joined
                .into_iter()
                .map(|ran| ran.unwrap_or_else(resume))
                .collect()
        });
        // Every worker reads the same orders, so all of them stop or none
        // does.
        let posts = posts.into_iter().collect::<Option<Vec<_>>>()?;
        Some(finish(&run, merge(posts), meeting.into_leader()))
    }
}

/// Where the workers of one run meet at each decision boundary: one lock
/// over everything that crosses the boundary, and one condvar to park on.
/// A meeting either completes — every worker posted, the last to arrive
/// led, everyone leaves with the orders — or, once a worker has panicked,
/// lets every worker go.
struct Meeting<'a> {
    workers: usize,
    table: Mutex<Table<'a>>,
    turned: Condvar,
}

/// What the meeting's lock guards. After `poisoned` is set nothing else
/// here is read: `execute` resumes the first panic before it looks.
struct Table<'a> {
    /// How many meetings have completed.
    round: u64,
    poisoned: bool,
    /// This meeting's publications so far, in arrival order.
    posts: Vec<(usize, Published)>,
    /// What the last completed meeting's leader decided.
    orders: Arc<EpochOrders>,
    leader: Leader<'a>,
}

impl<'a> Meeting<'a> {
    fn new(
        workers: usize,
        spec: &ScenarioSpec,
        sink: Option<&'a mut dyn JournalSink>,
    ) -> Meeting<'a> {
        let table = Table {
            round: 0,
            poisoned: false,
            posts: Vec::with_capacity(workers),
            orders: Arc::default(),
            leader: Leader {
                state: LeaderState::new(spec),
                sink,
            },
        };
        Meeting {
            workers,
            table: Mutex::new(table),
            turned: Condvar::new(),
        }
    }

    /// The std mutex's poisoning is recovered: the table's own `poisoned`
    /// flag says what a panic means. A holder can panic only inside
    /// `lead`, before it bumps `round`, so a waiter that wakes in between
    /// sees its meeting unfinished and parks again until the flag is set.
    fn lock(&self) -> MutexGuard<'_, Table<'a>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn into_leader(self) -> Leader<'a> {
        let table = self.table.into_inner();
        table.unwrap_or_else(PoisonError::into_inner).leader
    }

    /// Worker `w` arrives with what it published. The last to arrive runs
    /// `lead` over every post of the meeting, merged in worker order, while
    /// the others are parked; then each leaves with the orders it returned.
    /// `None` for every worker once a worker has panicked.
    fn meet(
        &self,
        w: usize,
        published: Published,
        lead: impl FnOnce(&mut Leader<'a>, Published) -> EpochOrders,
    ) -> Option<Arc<EpochOrders>> {
        let mut table = self.lock();
        if table.poisoned {
            return None;
        }
        table.posts.push((w, published));
        if table.posts.len() == self.workers {
            let t = &mut *table;
            t.posts.sort_unstable_by_key(|&(w, _)| w);
            let posted = merge(t.posts.drain(..).map(|(_, p)| p));
            t.orders = Arc::new(lead(&mut t.leader, posted));
            t.round += 1;
            self.turned.notify_all();
            return Some(Arc::clone(&t.orders));
        }
        let round = table.round;
        let parked = |t: &mut Table| t.round == round && !t.poisoned;
        let table = self.turned.wait_while(table, parked);
        let table = table.unwrap_or_else(PoisonError::into_inner);
        (!table.poisoned).then(|| Arc::clone(&table.orders))
    }

    /// Called while unwinding, so it must not panic itself.
    fn poison(&self) {
        self.lock().poisoned = true;
        self.turned.notify_all();
    }
}

/// Poisons the meeting when the worker holding it unwinds.
struct PoisonOnPanic<'m, 'a>(&'m Meeting<'a>);

impl Drop for PoisonOnPanic<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.poison();
        }
    }
}

/// What only the leader of a meeting touches — a different thread each
/// epoch, hence behind the meeting's lock.
struct Leader<'a> {
    state: LeaderState,
    sink: Option<&'a mut dyn JournalSink>,
}

/// Whether an interim is reduced at boundary `ei`: at the sink's cadence
/// (not at boundary 0, where nothing has been decided yet), or where the
/// pin source asks — a stop table at its cursor, and a stream-fed source
/// parks every worker here until the stream says. Never at the horizon,
/// which has the finale instead. Every worker asks, before it arrives at
/// the boundary's meeting.
fn wants_interim(run: &Run, ei: usize) -> bool {
    !run.at_horizon(ei)
        && (matches!(run.interval, Some(n) if ei > 0 && ei.is_multiple_of(n))
            || run.pins.wants_interim(ei))
}

/// One worker's epoch loop: the stages in order, one meeting per
/// decision boundary. The horizon's publication, or `None` when the pin
/// source stopped the run before the horizon or a sibling panicked.
fn work(run: &Run, meeting: &Meeting, w: usize) -> Option<Published> {
    let _poison = PoisonOnPanic(meeting);
    let mut ws = WorkerState {
        w,
        ..WorkerState::default()
    };
    let horizon = run.ends.len() - 1;
    for ei in 0..horizon {
        admit_and_simulate(run, &mut ws, ei);
        let interim = wants_interim(run, ei);
        let published = publish(run, &mut ws, ei, interim);
        // Exactly one thread decides for the whole fleet.
        let orders = meeting.meet(w, published, |leader, posted| {
            lead(run, leader, posted, ei, interim)
        })?;
        if orders.stop {
            return None;
        }
        apply(run, &mut ws, &orders, ei);
    }
    // Nothing is decided at the horizon, hence no meeting: the calling
    // thread merges what the joined workers return.
    admit_and_simulate(run, &mut ws, horizon);
    Some(publish(run, &mut ws, horizon, false))
}

/// The meeting leader's turn at boundary `ei`, over every worker's
/// publication: reduce the interim if one is wanted — *before* deciding,
/// so it carries the rebalance statistics of earlier boundaries only —
/// then decide, emit, and return the orders.
fn lead(
    run: &Run,
    leader: &mut Leader,
    posted: Published,
    ei: usize,
    interim: bool,
) -> EpochOrders {
    if interim {
        let stats = leader.state.stats.clone();
        let interim = reduce(run, posted.reports, stats);
        if let Some(s) = &mut leader.sink {
            s.on_checkpoint(ei, run.ends[ei], &interim);
        }
        run.pins.on_interim(ei, interim);
    }
    // A stream-fed source blocks here until the boundary's batch has
    // arrived.
    let pin = run.pins.pin(ei);
    let mut view = FeedbackView {
        nodes: posted.feedback,
        smoothed: None,
    };
    let (orders, records) = decide(run, &mut leader.state, &mut view, pin, ei);
    if let (Some(s), false) = (&mut leader.sink, orders.stop) {
        let batch = emit(run, ei, &view, &orders, posted.grants, records);
        s.on_epoch(ei, run.ends[ei], &batch);
    }
    orders
}

/// The horizon, on the calling thread: reduce the final aggregates from
/// what every worker posted, emit the horizon's batch — the last epoch's
/// share grants; nothing is decided there — and close the stream.
fn finish(run: &Run, mut posted: Published, leader: Leader) -> AggregateMetrics {
    let metrics = reduce(run, posted.reports, leader.state.stats);
    if let Some(s) = leader.sink {
        let horizon = run.ends.len() - 1;
        sort_events(&mut posted.grants);
        s.on_epoch(horizon, run.ends[horizon], &posted.grants);
        s.on_finish(&metrics);
    }
    metrics
}

/// Checks that `cursor` is a boundary of the epoch grid `ends`
/// ([`ClusterRunner::epoch_ends`]) where an interim exists — the horizon
/// has the finale instead — and, if the caller holds one, that `at` is
/// its instant. The one grid check behind every checkpoint verifier and
/// the cursor of [`PinnedMoves::interim_at`].
///
/// # Errors
///
/// Names which of the three it is.
pub fn interim_boundary(ends: &[Time], cursor: usize, at: Option<Time>) -> Result<(), String> {
    let Some(&boundary) = ends.get(cursor) else {
        let n = ends.len();
        return Err(format!(
            "cursor {cursor} is past the scenario's epoch grid ({n} boundaries)"
        ));
    };
    if cursor + 1 == ends.len() {
        return Err(format!(
            "cursor {cursor} is the horizon of the scenario's epoch grid, where no interim exists"
        ));
    }
    match at.filter(|&at| at != boundary) {
        None => Ok(()),
        Some(at) => Err(format!(
            "cursor {cursor} is dated {} ns, but the scenario's boundary {cursor} is at {} ns",
            at.as_ns(),
            boundary.as_ns()
        )),
    }
}

/// The buffering sink behind [`ClusterRunner::run_logged`]: concatenates
/// every batch for one final canonical sort.
#[derive(Default)]
struct CollectSink {
    events: Vec<FleetEvent>,
}

impl JournalSink for CollectSink {
    fn on_plan(&mut self, _admission: &AdmissionStats, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }

    fn on_epoch(&mut self, _epoch: usize, _at: Time, events: &[FleetEvent]) {
        self.events.extend_from_slice(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::derive_task_seed;
    use crate::spec::{Churn, RebalanceSpec, TaskMix};
    use crate::stages::deal_nodes;
    use proptest::prelude::*;
    use selftune_simcore::time::Dur;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec::new("runner-test", 3, 9, Dur::ms(1500)).with_mix(TaskMix::rt_only())
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = small_spec();
        let a = plan_fleet(&spec, 11);
        let b = plan_fleet(&spec, 11);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.task.seed, y.task.seed);
            assert_eq!(x.task.arrival, y.task.arrival);
            assert_eq!(x.task.kind, y.task.kind);
        }
        let c = plan_fleet(&spec, 12);
        let same = a
            .tasks
            .iter()
            .zip(&c.tasks)
            .filter(|(x, y)| x.task.seed == y.task.seed)
            .count();
        assert_eq!(same, 0, "different seeds must derive different streams");
    }

    #[test]
    fn task_seed_derivation_is_stateless() {
        assert_eq!(derive_task_seed(42, 7), derive_task_seed(42, 7));
        assert_ne!(derive_task_seed(42, 7), derive_task_seed(42, 8));
        assert_ne!(derive_task_seed(42, 7), derive_task_seed(43, 7));
    }

    #[test]
    fn one_and_many_threads_agree() {
        let spec = small_spec();
        let serial = ClusterRunner::new(1).run(&spec, 5);
        let parallel = ClusterRunner::new(3).run(&spec, 5);
        assert_eq!(serial.summary_csv(), parallel.summary_csv());
        assert!(serial.completions() > 0, "fleet did some work");
    }

    #[test]
    fn work_stealing_is_deterministic_at_1_2_and_8_threads() {
        let spec =
            ScenarioSpec::new("steal-test", 6, 18, Dur::ms(1200)).with_mix(TaskMix::rt_only());
        // Even (2), uneven (3) and clamped (8 → 6) deals; the aggregate
        // must not care.
        let baseline = ClusterRunner::new(1).run(&spec, 9);
        for threads in [2usize, 3, 8] {
            let m = ClusterRunner::new(threads).run(&spec, 9);
            assert_eq!(baseline.summary_csv(), m.summary_csv(), "{threads} threads");
        }
        // One node per worker agrees too.
        let coarse = ClusterRunner::new(spec.nodes).run(&spec, 9);
        assert_eq!(baseline.summary_csv(), coarse.summary_csv());
    }

    /// Per-worker total weight of a deal.
    fn loads(weights: &[usize], deal: &[Vec<usize>]) -> Vec<usize> {
        deal.iter()
            .map(|mine| mine.iter().map(|&n| weights[n]).sum())
            .collect()
    }

    proptest! {
        #[test]
        fn deal_covers_every_node_once_within_one_node_of_the_mean(
            weights in prop::collection::vec(0usize..3_000, 0..301),
            workers in 1usize..10,
        ) {
            let deal = deal_nodes(&weights, workers);
            prop_assert_eq!(deal.len(), workers);
            let mut dealt: Vec<usize> = deal.iter().flatten().copied().collect();
            dealt.sort_unstable();
            prop_assert_eq!(dealt, (0..weights.len()).collect::<Vec<_>>());
            // Greedy list scheduling: max load ≤ mean load + max weight.
            let max_load = loads(&weights, &deal).into_iter().max().unwrap_or(0);
            let total: usize = weights.iter().sum();
            let max_weight = weights.iter().copied().max().unwrap_or(0);
            prop_assert!(max_load * workers <= total + max_weight * workers);
            prop_assert_eq!(&deal, &deal_nodes(&weights, workers), "deal is a pure function");
        }

        #[test]
        fn equal_weights_deal_round_robin(
            nodes in 0usize..301,
            workers in 1usize..10,
            weight in 1usize..50,
        ) {
            let deal = deal_nodes(&vec![weight; nodes], workers);
            for (w, mine) in deal.iter().enumerate() {
                // Consecutive ids alternate between workers, so counts
                // differ by at most one.
                let want: Vec<usize> = (w..nodes).step_by(workers).collect();
                prop_assert_eq!(mine, &want, "worker {}", w);
            }
        }
    }

    #[test]
    fn surplus_workers_are_dealt_nothing() {
        let deal = deal_nodes(&[5, 1, 3], 8);
        assert_eq!(deal[..3], [vec![0], vec![2], vec![1]]);
        assert!(deal[3..].iter().all(Vec::is_empty));
        assert_eq!(deal_nodes(&[], 4), vec![Vec::<usize>::new(); 4]);
    }

    #[test]
    fn first_fit_packed_fleet_splits_its_deep_nodes_between_two_workers() {
        // The `fleet_dense` plan at seed 42: first-fit fills 25 nodes to
        // the bound, leaves 4 part-filled and 221 empty (weight 1).
        let mut weights = vec![2_030usize; 25];
        weights.extend([137; 4]);
        weights.extend([1; 221]);
        let deal = deal_nodes(&weights, 2);
        let deep: Vec<usize> = deal
            .iter()
            .map(|mine| mine.iter().filter(|&&n| n < 25).count())
            .collect();
        assert_eq!(deep, [13, 12]);
        let loads = loads(&weights, &deal);
        assert!(loads[0].abs_diff(loads[1]) <= 2_030, "{loads:?}");
    }

    /// A guest whose job cost exceeds its period passes no validator when
    /// pushed through the struct, and its workload constructor panics
    /// inside the worker that builds the node. The caller of `run` sees
    /// that message.
    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_cause() {
        let mut spec = ScenarioSpec::new("doomed", 1, 0, Dur::ms(500));
        let kind = crate::spec::TaskKind::PeriodicRt {
            wcet: Dur::ms(60),
            period: Dur::ms(50),
        };
        let vm = crate::spec::VmSpec::uniform(Dur::ms(5), Dur::ms(10), 1, kind);
        spec.vms.push(vm);
        let ran = std::panic::catch_unwind(|| ClusterRunner::new(1).run(&spec, 1));
        let cause = ran.expect_err("the worker panicked");
        let message = cause.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("invalid (C=60.000ms, P=50.000ms)"),
            "{message}"
        );
    }

    /// Runs `run` on a four-worker runner over a four-node fleet with
    /// three decision boundaries, on a thread of its own, and returns the
    /// message of the panic the caller saw. A run that does not return
    /// within 60 s fails the test: that is what a worker stranded at a
    /// meeting looks like.
    fn panic_message_of_run(
        run: impl FnOnce(&ClusterRunner, &ScenarioSpec) + Send + 'static,
    ) -> String {
        let spec = ScenarioSpec::new("faulty", 4, 8, Dur::ms(1200))
            .with_mix(TaskMix::rt_only())
            .with_rebalance(RebalanceSpec {
                period: Dur::ms(300),
                ..ScenarioSpec::demo_rebalance()
            });
        assert_eq!(ClusterRunner::epoch_ends(&spec).len(), 4);
        let (done, ended) = mpsc::channel::<()>();
        let caller = thread::spawn(move || {
            // Dropped however the run ends, which wakes the wait below.
            let _done = done;
            run(&ClusterRunner::new(4), &spec);
        });
        let waited = ended.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(waited, Err(RecvTimeoutError::Timeout)),
            "the run hung: a worker's panic stranded its siblings"
        );
        let cause = caller
            .join()
            .expect_err("the injected fault reaches the caller");
        cause
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic")
    }

    /// Runs `pins` live over the faulty fleet (see `panic_message_of_run`).
    fn panic_message_of_pins(pins: impl PinSource + Send + 'static) -> String {
        panic_message_of_run(move |runner, spec| {
            let plan = plan_fleet(spec, 3);
            runner.run_pinned(spec, 3, &plan, &pins);
        })
    }

    /// Fails the meeting's leader at boundary 1, as it asks for the pin:
    /// inside `lead`, with the meeting's lock held and every sibling
    /// parked in the meeting.
    struct PanicsAtPinOne;

    impl PinSource for PanicsAtPinOne {
        fn pin(&self, epoch: usize) -> EpochPin {
            if epoch == 1 {
                panic!("injected fault at pin({epoch})");
            }
            EpochPin::Live
        }
    }

    /// Fails the first worker to ask, before it arrives at boundary 0's
    /// meeting; the siblings go on into that meeting.
    #[derive(Default)]
    struct PanicsOnFirstInterimQuestion(AtomicBool);

    impl PinSource for PanicsOnFirstInterimQuestion {
        fn wants_interim(&self, epoch: usize) -> bool {
            if !self.0.swap(true, Ordering::SeqCst) {
                panic!("injected fault in wants_interim({epoch})");
            }
            false
        }

        fn pin(&self, _epoch: usize) -> EpochPin {
            EpochPin::Live
        }
    }

    /// Fails the sink as it takes boundary 1's batch: after the decision,
    /// still inside `lead` with the meeting's lock held.
    struct PanicsOnEpochOne;

    impl JournalSink for PanicsOnEpochOne {
        fn on_epoch(&mut self, epoch: usize, _at: Time, _events: &[FleetEvent]) {
            if epoch == 1 {
                panic!("injected fault in on_epoch({epoch})");
            }
        }
    }

    #[test]
    fn a_leader_panic_between_the_waits_does_not_strand_its_siblings() {
        let message = panic_message_of_pins(PanicsAtPinOne);
        assert_eq!(message, "injected fault at pin(1)");
    }

    #[test]
    fn a_worker_panic_before_the_first_wait_does_not_strand_its_siblings() {
        let message = panic_message_of_pins(PanicsOnFirstInterimQuestion::default());
        assert_eq!(message, "injected fault in wants_interim(0)");
    }

    #[test]
    fn a_sink_panic_under_the_meeting_does_not_strand_its_siblings() {
        let message = panic_message_of_run(|runner, spec| {
            runner.run_logged_with(spec, 3, &mut PanicsOnEpochOne);
        });
        assert_eq!(message, "injected fault in on_epoch(1)");
    }

    /// What worker `w` posts at `round`, in the slot `merge` keeps in
    /// worker order.
    fn tag(round: u64, w: usize) -> FleetEvent {
        FleetEvent::Compression {
            at: Time::ZERO,
            epoch: round as usize,
            node: w,
            count: 1,
        }
    }

    #[test]
    fn a_meeting_leads_once_per_round_over_that_rounds_posts_in_worker_order() {
        const ROUNDS: u64 = 20;
        let spec = small_spec();
        for workers in [1usize, 2, 4, 8] {
            let meeting = Meeting::new(workers, &spec, None);
            thread::scope(|scope| {
                for w in 0..workers {
                    let meeting = &meeting;
                    scope.spawn(move || {
                        // A failed check under the lock releases the
                        // siblings, so the test fails instead of hanging.
                        let _poison = PoisonOnPanic(meeting);
                        for round in 0..ROUNDS {
                            // A different arrival order every round.
                            let yields = (w as u64 * 7 + round * 3) % (workers as u64 + 3);
                            (0..yields).for_each(|_| thread::yield_now());
                            let published = Published {
                                grants: vec![tag(round, w)],
                                ..Published::default()
                            };
                            let orders = meeting.meet(w, published, |leader, posted| {
                                // The leader seat counts the leads.
                                leader.state.stats.epochs += 1;
                                let want: Vec<_> = (0..workers).map(|w| tag(round, w)).collect();
                                assert_eq!(posted.grants, want, "round {round}");
                                EpochOrders {
                                    failed: round,
                                    ..EpochOrders::default()
                                }
                            });
                            let orders = orders.expect("no worker panicked");
                            assert_eq!(orders.failed, round, "worker {w}");
                        }
                    });
                }
            });
            let leads = meeting.into_leader().state.stats.epochs;
            assert_eq!(leads, ROUNDS, "{workers} workers");
        }
    }

    #[test]
    fn churned_tasks_depart_before_horizon() {
        let spec = small_spec().with_churn(Churn {
            mean_lifetime: Dur::ms(400),
            min_lifetime: Dur::ms(100),
        });
        let plan = plan_fleet(&spec, 3);
        let horizon = Time::ZERO + spec.horizon;
        assert!(plan
            .tasks
            .iter()
            .filter_map(|t| t.task.departure)
            .all(|d| d < horizon));
        assert!(
            plan.tasks.iter().any(|t| t.task.departure.is_some()),
            "some tasks should churn"
        );
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let spec = ScenarioSpec::new("tiny", 2, 4, Dur::ms(800)).with_mix(TaskMix::rt_only());
        let m = ClusterRunner::new(16).run(&spec, 1);
        assert_eq!(m.nodes.len(), 2);
    }

    #[test]
    fn run_logged_matches_run_and_is_thread_invariant() {
        let spec = ScenarioSpec::skewed_overload_demo(4, 12)
            .with_rebalance(ScenarioSpec::demo_rebalance());
        let plain = ClusterRunner::new(2).run(&spec, 7);
        let (logged, events) = ClusterRunner::new(2).run_logged(&spec, 7);
        assert_eq!(plain.summary_csv(), logged.summary_csv());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::Admission { .. })),
            "admissions journalled"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::Rebalance { .. })),
            "rebalance passes journalled"
        );
        for threads in [1usize, 3, 8] {
            let (m, ev) = ClusterRunner::new(threads).run_logged(&spec, 7);
            assert_eq!(plain.summary_csv(), m.summary_csv(), "{threads} threads");
            assert_eq!(events, ev, "event stream at {threads} threads");
        }
    }

    /// Collects every sink callback for the streaming-equivalence tests.
    #[derive(Default)]
    struct ProbeSink {
        every: usize,
        plan: Vec<FleetEvent>,
        batches: Vec<(usize, Vec<FleetEvent>)>,
        checkpoints: Vec<(usize, String)>,
        finale: Option<String>,
    }

    impl JournalSink for ProbeSink {
        fn checkpoint_interval(&self) -> Option<usize> {
            Some(self.every)
        }

        fn on_plan(&mut self, _admission: &AdmissionStats, events: &[FleetEvent]) {
            self.plan = events.to_vec();
        }

        fn on_checkpoint(&mut self, cursor: usize, _at: Time, interim: &AggregateMetrics) {
            self.checkpoints.push((cursor, interim.summary_csv()));
        }

        fn on_epoch(&mut self, epoch: usize, _at: Time, events: &[FleetEvent]) {
            self.batches.push((epoch, events.to_vec()));
        }

        fn on_finish(&mut self, finale: &AggregateMetrics) {
            self.finale = Some(finale.summary_csv());
        }
    }

    #[test]
    fn streamed_batches_and_checkpoints_match_the_buffered_run() {
        let mut spec = ScenarioSpec::diurnal_demo(4, 8)
            .with_rebalance(ScenarioSpec::diurnal_rebalance())
            .with_node_share(ScenarioSpec::diurnal_node_share());
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        let (live, events) = ClusterRunner::new(2).run_logged(&spec, 42);
        let mut sink = ProbeSink {
            every: 2,
            ..ProbeSink::default()
        };
        let streamed = ClusterRunner::new(2).run_logged_with(&spec, 42, &mut sink);
        assert_eq!(live.summary_csv(), streamed.summary_csv());
        assert_eq!(sink.finale.as_deref(), Some(live.summary_csv().as_str()));

        // One batch per epoch boundary, in order; merged and re-sorted they
        // are exactly the buffered stream.
        let n_bounds = ClusterRunner::epoch_ends(&spec).len();
        let batch_order: Vec<usize> = sink.batches.iter().map(|(e, _)| *e).collect();
        assert_eq!(batch_order, (0..n_bounds).collect::<Vec<_>>());
        let mut merged = sink.plan.clone();
        for (_, b) in &sink.batches {
            merged.extend(b.iter().cloned());
        }
        sort_events(&mut merged);
        assert_eq!(merged, events);

        // Every interim checkpoint equals the pinned run stopped at the
        // same cursor — on a different thread count, too.
        assert!(
            sink.checkpoints.len() >= 3,
            "diurnal grid should checkpoint several times at interval 2"
        );
        let plan = plan_fleet(&spec, 42);
        let moves = PinnedMoves::from_events(&spec, &events, None);
        for (cursor, summary) in &sink.checkpoints {
            let mirror = moves
                .interim_at(&ClusterRunner::new(3), &spec, 42, &plan, *cursor)
                .expect("a checkpoint's cursor has an interim");
            assert_eq!(
                &mirror.summary_csv(),
                summary,
                "stopped run diverged at cursor {cursor}"
            );
        }
    }

    #[test]
    fn a_stop_at_the_horizon_or_past_the_grid_is_a_named_error() {
        // A stop cursor is checked where the stop is asked for, before
        // anything runs: the horizon has no interim, and past the grid
        // there is no boundary. Neither panics nor runs to the horizon.
        let spec = small_spec().with_rebalance(RebalanceSpec {
            period: Dur::ms(500),
            ..ScenarioSpec::demo_rebalance()
        });
        let ends = ClusterRunner::epoch_ends(&spec);
        assert_eq!(ends.len(), 3);
        let plan = plan_fleet(&spec, 3);
        let runner = ClusterRunner::new(2);
        let moves = PinnedMoves::default();
        for (cursor, named) in [(2, "is the horizon"), (3, "is past"), (9, "is past")] {
            let why = moves
                .interim_at(&runner, &spec, 3, &plan, cursor)
                .expect_err("no interim exists there");
            assert!(why.contains(named), "cursor {cursor}: {why}");
            assert_eq!(Err(why), interim_boundary(&ends, cursor, None));
        }
        // A boundary inside the grid stops there: fewer completions than
        // the run to the horizon.
        let interim = moves
            .interim_at(&runner, &spec, 3, &plan, 1)
            .expect("boundary 1");
        let finale = runner.run_planned(&spec, 3, &plan);
        assert!(interim.completions() < finale.completions());
    }

    #[test]
    fn pinned_plan_reproduces_live_plan() {
        let spec = small_spec();
        let live = plan_fleet(&spec, 11);
        let pinned = PinnedPlan {
            admission: live.admission,
            task_nodes: live.tasks.iter().map(|t| t.node).collect(),
            vm_nodes: live.vms.iter().map(|v| v.node).collect(),
        };
        let replay = plan_fleet_pinned(&spec, 11, &pinned);
        assert_eq!(replay.admission, live.admission);
        for (a, b) in live.tasks.iter().zip(&replay.tasks) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.task.seed, b.task.seed);
            assert_eq!(a.task.kind, b.task.kind);
            assert_eq!(a.task.departure, b.task.departure);
        }
    }

    #[test]
    fn pinned_moves_reproduce_a_rebalanced_run() {
        let spec = ScenarioSpec::skewed_overload_demo(4, 12)
            .with_rebalance(ScenarioSpec::demo_rebalance());
        let (live, events) = ClusterRunner::new(2).run_logged(&spec, 42);
        // Pin both the plan and the per-epoch decisions to the event
        // stream, through the same extraction the journal uses.
        let pinned = PinnedPlan::from_events(&spec, live.admission, &events);
        let plan = plan_fleet_pinned(&spec, 42, &pinned);
        let moves = PinnedMoves::from_events(&spec, &events, None);
        let replay = ClusterRunner::new(2)
            .run_pinned(&spec, 42, &plan, &moves)
            .expect("a pin table never stops the run");
        assert_eq!(live.summary_csv(), replay.summary_csv());
    }
}
