//! Declarative fleet scenarios: what runs where, when, and under which
//! admission regime.
//!
//! A [`ScenarioSpec`] is plain data — node count, a weighted task mix,
//! arrival/churn schedules and optional overload windows — from which the
//! runner derives every per-node simulation deterministically. Two runs of
//! the same spec with the same seed produce identical fleets regardless of
//! how many OS threads execute them.

use selftune_analysis::PeriodicTask;
use selftune_apps::{Aperiodic, MediaConfig, MediaPlayer, PeriodicRt, Streamer, StreamerConfig};
use selftune_simcore::rng::Rng;
use selftune_simcore::task::Workload;
use selftune_simcore::time::Dur;

use crate::placer::PolicyKind;
use crate::textio::filter_to_text;

/// The longest span a node may add to its clock in one step — a sampling
/// period, a task or share period, a hog chunk. Far above any scheduling
/// period, far below where the checked clock arithmetic overflows (an
/// unbounded `1e300` in a scenario file would panic a worker mid-run).
const MAX_CLOCK_SPAN: Dur = Dur::secs(1_000_000);

fn clock_span(what: &str, span: Dur) -> Result<(), String> {
    if span > MAX_CLOCK_SPAN {
        return Err(format!("{what} {span} exceeds {MAX_CLOCK_SPAN}"));
    }
    Ok(())
}

/// The most epochs a run may be cut into. The runner materialises the
/// whole epoch grid up front (`ClusterRunner::epoch_ends`), and every
/// loader of untrusted bytes sizes tables by it; four orders of magnitude
/// above the largest fixture grid, far below where a nanosecond period in
/// a scenario file would have the process killed for memory.
const MAX_EPOCHS: u64 = 100_000;

/// One kind of application a scenario can spawn.
///
/// Real-time kinds carry a nominal `(C, P)` the placer uses for admission;
/// best-effort kinds run unreserved in the fair class.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskKind {
    /// `mplayer` playing a 25 fps movie (the paper's main subject).
    Video25,
    /// `mplayer` playing an mp3 stream at 32.5 jobs/s.
    Mp3,
    /// An RTP-style 30 fps network streamer (period smeared by jitter).
    Stream30,
    /// A synthetic periodic real-time task.
    PeriodicRt {
        /// Mean job cost.
        wcet: Dur,
        /// Release period.
        period: Dur,
    },
    /// A legacy task whose *declared* demand understates its real
    /// appetite: admission control sees `nominal_wcet`, the workload
    /// actually burns `wcet` per job. Densely packing these is how a fleet
    /// ends up nominally schedulable and measurably melting — the gap the
    /// feedback rebalancer exists to close.
    HungryRt {
        /// The job cost the task *claims* (used for admission).
        nominal_wcet: Dur,
        /// The job cost the task actually burns.
        wcet: Dur,
        /// Release period.
        period: Dur,
    },
    /// Bursty best-effort work (never reserved, never managed).
    Aperiodic {
        /// Mean gap between bursts.
        mean_gap: Dur,
        /// Mean CPU work per burst item.
        mean_work: Dur,
        /// Items per burst.
        burst: u32,
    },
}

impl TaskKind {
    /// Whether the kind is placed under a reservation and managed by the
    /// node's self-tuning manager.
    pub fn is_realtime(&self) -> bool {
        !matches!(self, TaskKind::Aperiodic { .. })
    }

    /// The kind's own domain rule: every job cost — declared and real —
    /// is positive and fits its period; aperiodic gaps and work are
    /// positive. What the admission analysis and the workload
    /// constructors would otherwise assert mid-plan or inside a worker.
    fn validate(&self) -> Result<(), String> {
        let fits = |cost: Dur, period: Dur| {
            if cost.is_zero() || cost > period {
                return Err(format!(
                    "job cost must be positive and at most its period (C={cost}, P={period})"
                ));
            }
            clock_span("task period", period)
        };
        match *self {
            TaskKind::Video25 | TaskKind::Mp3 | TaskKind::Stream30 => Ok(()),
            TaskKind::PeriodicRt { wcet, period } => fits(wcet, period),
            TaskKind::HungryRt {
                nominal_wcet,
                wcet,
                period,
            } => fits(nominal_wcet, period).and(fits(wcet, period)),
            TaskKind::Aperiodic {
                mean_gap,
                mean_work,
                ..
            } => {
                if mean_gap.is_zero() || mean_work.is_zero() {
                    return Err("aperiodic gap and work must be positive".to_owned());
                }
                clock_span("aperiodic gap", mean_gap.max(mean_work))
            }
        }
    }

    /// Nominal `(C, P)` in milliseconds for admission control; `None` for
    /// best-effort kinds.
    pub fn nominal(&self) -> Option<PeriodicTask> {
        match self {
            TaskKind::Video25 => {
                let cfg = MediaConfig::mplayer_video_25fps();
                Some(PeriodicTask::new(
                    cfg.cost.mean().as_ms_f64(),
                    cfg.period().as_ms_f64(),
                ))
            }
            TaskKind::Mp3 => {
                let cfg = MediaConfig::mplayer_mp3();
                Some(PeriodicTask::new(
                    cfg.cost.mean().as_ms_f64(),
                    cfg.period().as_ms_f64(),
                ))
            }
            TaskKind::Stream30 => {
                let cfg = StreamerConfig::rtp_video_30fps();
                Some(PeriodicTask::new(
                    cfg.decode.as_ms_f64(),
                    cfg.period().as_ms_f64(),
                ))
            }
            TaskKind::PeriodicRt { wcet, period } => {
                Some(PeriodicTask::new(wcet.as_ms_f64(), period.as_ms_f64()))
            }
            TaskKind::HungryRt {
                nominal_wcet,
                period,
                ..
            } => Some(PeriodicTask::new(
                nominal_wcet.as_ms_f64(),
                period.as_ms_f64(),
            )),
            TaskKind::Aperiodic { .. } => None,
        }
    }

    /// The metric mark each completed job leaves (`None` for kinds that do
    /// not mark completions).
    pub fn mark_name(&self, label: &str) -> Option<String> {
        match self {
            TaskKind::Video25 | TaskKind::Mp3 | TaskKind::Stream30 => {
                Some(format!("{label}.frame"))
            }
            TaskKind::PeriodicRt { .. } | TaskKind::HungryRt { .. } => Some(format!("{label}.job")),
            TaskKind::Aperiodic { .. } => None,
        }
    }

    /// Builds the workload, relabelled so its metric keys are unique
    /// within the node.
    pub fn instantiate(&self, label: &str, rng: Rng) -> Box<dyn Workload> {
        match self {
            TaskKind::Video25 => {
                let mut cfg = MediaConfig::mplayer_video_25fps();
                cfg.label = label.to_owned();
                Box::new(MediaPlayer::new(cfg, rng))
            }
            TaskKind::Mp3 => {
                let mut cfg = MediaConfig::mplayer_mp3();
                cfg.label = label.to_owned();
                Box::new(MediaPlayer::new(cfg, rng))
            }
            TaskKind::Stream30 => {
                let mut cfg = StreamerConfig::rtp_video_30fps();
                cfg.label = label.to_owned();
                Box::new(Streamer::new(cfg, rng))
            }
            TaskKind::PeriodicRt { wcet, period } => {
                Box::new(PeriodicRt::new(label, *wcet, *period, 0.15, rng))
            }
            TaskKind::HungryRt { wcet, period, .. } => {
                // Runs at its *actual* appetite; only admission saw the
                // nominal figure.
                Box::new(PeriodicRt::new(label, *wcet, *period, 0.15, rng))
            }
            TaskKind::Aperiodic {
                mean_gap,
                mean_work,
                burst,
            } => Box::new(Aperiodic::new(*mean_gap, *mean_work, *burst, rng)),
        }
    }
}

/// A weighted mix of task kinds, sampled per spawned task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMix {
    entries: Vec<(TaskKind, f64)>,
    total: f64,
}

impl TaskMix {
    /// Builds a mix from `(kind, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is not positive.
    pub fn new(entries: Vec<(TaskKind, f64)>) -> TaskMix {
        assert!(!entries.is_empty(), "empty task mix");
        assert!(
            entries.iter().all(|&(_, w)| w > 0.0),
            "non-positive mix weight"
        );
        let total = entries.iter().map(|&(_, w)| w).sum();
        TaskMix { entries, total }
    }

    /// The paper's desktop: mostly media players, some synthetic RT.
    pub fn media_heavy() -> TaskMix {
        TaskMix::new(vec![
            (TaskKind::Video25, 3.0),
            (TaskKind::Stream30, 1.0),
            (
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(2),
                    period: Dur::ms(50),
                },
                2.0,
            ),
        ])
    }

    /// A server-consolidation mix: many light periodic services, a few
    /// streams, background best-effort noise.
    pub fn mixed_server() -> TaskMix {
        TaskMix::new(vec![
            (
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(1),
                    period: Dur::ms(20),
                },
                3.0,
            ),
            (
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(4),
                    period: Dur::ms(100),
                },
                3.0,
            ),
            (TaskKind::Stream30, 2.0),
            (TaskKind::Video25, 1.0),
            (
                TaskKind::Aperiodic {
                    mean_gap: Dur::ms(25),
                    mean_work: Dur::from_ms_f64(1.0),
                    burst: 2,
                },
                1.0,
            ),
        ])
    }

    /// Only synthetic periodic tasks (fast; used by tests and benches).
    pub fn rt_only() -> TaskMix {
        TaskMix::new(vec![
            (
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(2),
                    period: Dur::ms(40),
                },
                1.0,
            ),
            (
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(5),
                    period: Dur::ms(125),
                },
                1.0,
            ),
        ])
    }

    /// The `(kind, weight)` entries of the mix, in declaration order.
    pub fn entries(&self) -> &[(TaskKind, f64)] {
        &self.entries
    }

    /// Draws one kind according to the weights.
    pub fn sample(&self, rng: &mut Rng) -> TaskKind {
        let mut x = rng.f64() * self.total;
        for (kind, w) in &self.entries {
            if x < *w {
                return kind.clone();
            }
            x -= w;
        }
        self.entries.last().expect("non-empty mix").0.clone()
    }
}

/// When fleet tasks arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalSchedule {
    /// Everything is running from `t = 0`.
    AllAtStart,
    /// One task every `gap` (task `i` arrives at `i · gap`).
    Staggered {
        /// Inter-arrival gap.
        gap: Dur,
    },
    /// Poisson arrivals with the given mean inter-arrival gap.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: Dur,
    },
}

/// Task churn: tasks leave after an exponentially distributed lifetime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    /// Mean task lifetime.
    pub mean_lifetime: Dur,
    /// Minimum lifetime (keeps the manager long enough to attach).
    pub min_lifetime: Dur,
}

/// Which nodes a fault-injection window targets.
///
/// `All` reproduces the original fleet-wide windows; `First` and `Stride`
/// build *skewed* overloads — the scenario the feedback rebalancer exists
/// for, where some nodes melt while others idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFilter {
    /// Every node.
    All,
    /// Only nodes `0..n`.
    First(usize),
    /// Only nodes whose id is a multiple of `n` (`n ≥ 1`).
    Stride(usize),
}

impl NodeFilter {
    /// Whether `node` is targeted by this filter.
    pub fn matches(self, node: usize) -> bool {
        match self {
            NodeFilter::All => true,
            NodeFilter::First(n) => node < n,
            NodeFilter::Stride(n) => node.is_multiple_of(n.max(1)),
        }
    }
}

/// A fault-injection window: the targeted nodes get fair-class CPU hogs
/// between `start` and `end`, stressing reservation isolation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadWindow {
    /// Window start.
    pub start: Dur,
    /// Window end.
    pub end: Dur,
    /// Hogs injected per targeted node.
    pub hogs_per_node: u32,
    /// Compute chunk of each hog.
    pub chunk: Dur,
    /// Which nodes are hit ([`NodeFilter::All`] for fleet-wide windows).
    pub nodes: NodeFilter,
}

/// Feedback-driven re-placement configuration.
///
/// When enabled, the runner executes the fleet in barrier-synchronised
/// epochs of `period`: at each boundary every node publishes a
/// `NodeFeedback` snapshot (measured utilisation, deadline-miss rate,
/// compression events since the last epoch) and a deterministic rebalance
/// pass migrates running tasks off nodes whose *measured* pressure exceeds
/// the threshold — the cluster-scale analogue of the paper's self-tuning
/// loop, which trusts observed scheduling behaviour over nominal demand.
///
/// The eviction signal is an exponentially weighted moving average of the
/// per-epoch pressure (miss rate plus compression-event rate): a node
/// oscillating around the threshold no longer alternates drain/idle every
/// epoch, because one good epoch only decays — not erases — the pressure
/// history. `ewma_alpha = 1` reproduces the memoryless behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceSpec {
    /// Master switch; when `false` the runner behaves exactly as before
    /// (placement at arrival only).
    pub enabled: bool,
    /// Epoch length (rebalance decisions happen at multiples of this).
    pub period: Dur,
    /// Pressure threshold: a node whose smoothed pressure exceeds this is
    /// drained.
    pub pressure: f64,
    /// Fleet-wide cap on migrations per epoch.
    pub max_moves: u32,
    /// EWMA smoothing factor in `(0, 1]`: weight of the current epoch's
    /// raw pressure (1 = no smoothing, the pre-hysteresis behaviour).
    pub ewma_alpha: f64,
    /// Carry controller state across migrations: the destination seeds its
    /// manager and reservation from the source's granted budget and
    /// period estimate instead of re-detecting from scratch.
    pub warm_start: bool,
}

impl Default for RebalanceSpec {
    fn default() -> Self {
        RebalanceSpec {
            enabled: false,
            period: Dur::secs(1),
            pressure: 0.05,
            max_moves: 4,
            ewma_alpha: 1.0,
            warm_start: false,
        }
    }
}

/// Node-level share re-bounding: the fleet→node instance of the paper's
/// feedback loop.
///
/// When enabled, the epoch leader runs one
/// [`selftune_core::share::ShareController`] per node over the same
/// `NodeFeedback` snapshots the rebalancer reads, and re-bounds each
/// node's supervisor `U_lub` in place: a node whose measured demand
/// saturates its bound (misses, compressions) claws headroom back up to
/// `cap` *before* the rebalancer reaches for migrations, and an idle node
/// sheds bookable headroom down to `floor` — headroom the placer then
/// stops counting when it books migration destinations. Decisions ride
/// the rebalance epoch grid ([`RebalanceSpec::period`]), are pure
/// functions of the node-id-ordered feedback, and are journalled as
/// `NodeRebound` events.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeShareSpec {
    /// Master switch; off reproduces the static per-node `U_lub` exactly.
    pub enabled: bool,
    /// Lowest bound an idle node may shed to.
    pub floor: f64,
    /// Highest bound a saturated node may claw back to (the fleet-wide
    /// cap; must stay within `(0, 1]` like any `U_lub`).
    pub cap: f64,
}

impl Default for NodeShareSpec {
    fn default() -> Self {
        NodeShareSpec {
            enabled: false,
            floor: 0.5,
            cap: 0.95,
        }
    }
}

/// A traffic phase: a diurnal wave or flash crowd of extra tasks that
/// arrives inside `[start, end)` and leaves at `end`.
///
/// Phase task `i` arrives at `start + ramp · i / tasks` — a zero ramp is
/// a flash crowd (everything lands at `start`), a ramp near `end − start`
/// is a diurnal swell. Placement is restricted to the nodes `nodes`
/// matches, so a phase can model regional traffic hitting one slice of
/// the fleet while the rest idles.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficPhase {
    /// First arrival instant (offset from the run start).
    pub start: Dur,
    /// Departure instant of every phase task (the lease end).
    pub end: Dur,
    /// Arrival spread: the ramp from the first to the last arrival.
    pub ramp: Dur,
    /// How many tasks the phase contributes.
    pub tasks: usize,
    /// Mix the phase's tasks are drawn from.
    pub mix: TaskMix,
    /// Nodes admission may place the phase's tasks on.
    pub nodes: NodeFilter,
}

/// One virtual platform in the fleet: a whole tenant placed — and, under
/// feedback re-placement, migrated — as a single unit.
///
/// The VM's host share `(budget, period)` is what the placer books; the
/// guest tasks run under the VM's own self-tuning manager (for real-time
/// kinds), invisible to fleet-level admission. The guest population is a
/// *mix*: `(count, kind)` groups, so one tenant can consolidate
/// heterogeneous applications (a video player next to synthetic RT
/// services) behind a single share.
#[derive(Clone, Debug, PartialEq)]
pub struct VmSpec {
    /// Share budget granted per share period.
    pub budget: Dur,
    /// Share period (granularity of the VM's CPU supply).
    pub period: Dur,
    /// Guest task groups, `(count, kind)` in declaration order.
    pub guests: Vec<(usize, TaskKind)>,
    /// Whether the VM's host share is *elastic*: the node's platform steps
    /// a `selftune_core::share::ShareController` for it
    /// (`VirtPlatform::make_vm_elastic`), re-requesting the share from
    /// measured guest demand every 500 ms. Elastic VMs are
    /// never rebalance victims — the host-level loop absorbs their
    /// pressure locally (and their *granted* share, not this nominal one,
    /// is what fleet decisions book).
    pub elastic: bool,
}

impl VmSpec {
    /// A VM whose guests are all of one kind (the pre-mix form).
    pub fn uniform(budget: Dur, period: Dur, guests: usize, kind: TaskKind) -> VmSpec {
        VmSpec {
            budget,
            period,
            guests: vec![(guests, kind)],
            elastic: false,
        }
    }

    /// Marks the VM's share elastic (builder-style).
    pub fn with_elastic(mut self) -> VmSpec {
        self.elastic = true;
        self
    }

    /// The share of one node this VM books, `Q/T`.
    pub fn share(&self) -> f64 {
        self.budget.ratio(self.period)
    }

    /// Total guest tasks across all groups.
    pub fn guest_count(&self) -> usize {
        self.guests.iter().map(|&(n, _)| n).sum()
    }

    /// The guest kinds flattened in declaration order, one per task.
    pub fn guest_kinds(&self) -> impl Iterator<Item = &TaskKind> {
        self.guests
            .iter()
            .flat_map(|(n, kind)| std::iter::repeat_n(kind, *n))
    }
}

/// A complete fleet scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and CSV).
    pub name: String,
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Fleet-wide number of tasks to place.
    pub tasks: usize,
    /// Virtual platforms to place as whole units (may be empty).
    pub vms: Vec<VmSpec>,
    /// Virtual-time horizon each node runs to.
    pub horizon: Dur,
    /// Task mix sampled per arrival.
    pub mix: TaskMix,
    /// Arrival schedule of the fleet's tasks.
    pub arrivals: ArrivalSchedule,
    /// Optional churn (tasks leaving).
    pub churn: Option<Churn>,
    /// Optional overload windows.
    pub overload: Vec<OverloadWindow>,
    /// Cross-node placement policy.
    pub policy: PolicyKind,
    /// Per-node reservable bandwidth bound (supervisor `U_lub`).
    pub ulub: f64,
    /// Admission headroom: the placer books `headroom ×` the nominal
    /// minimum bandwidth, anticipating the LFS++ budget margin.
    pub headroom: f64,
    /// Manager sampling period `S` on every node.
    pub sampling: Dur,
    /// Feedback-driven re-placement (off by default).
    pub rebalance: RebalanceSpec,
    /// Node-level share re-bounding (off by default).
    pub node_share: NodeShareSpec,
    /// Time-varying traffic phases layered over the base population.
    pub phases: Vec<TrafficPhase>,
}

impl ScenarioSpec {
    /// A scenario with sane defaults: media-heavy mix, staggered arrivals,
    /// worst-fit placement, `U_lub = 0.9`.
    ///
    /// # Panics
    ///
    /// This and every `with_*` builder panic with the message of the
    /// [`ScenarioSpec::validate`] rule the result would break.
    pub fn new(name: &str, nodes: usize, tasks: usize, horizon: Dur) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_owned(),
            nodes,
            tasks,
            vms: Vec::new(),
            horizon,
            mix: TaskMix::media_heavy(),
            arrivals: ArrivalSchedule::Staggered { gap: Dur::ms(20) },
            churn: None,
            overload: Vec::new(),
            policy: PolicyKind::WorstFit,
            ulub: 0.9,
            headroom: 1.2,
            sampling: Dur::ms(500),
            rebalance: RebalanceSpec::default(),
            node_share: NodeShareSpec::default(),
            phases: Vec::new(),
        }
        .checked()
    }

    /// Every domain rule of a scenario, in one place: what
    /// [`ScenarioSpec::from_text`] returns as its `Err` for an untrusted
    /// file, and what the builders panic with. A scenario that passes
    /// plans and runs without tripping an assertion in the planner, the
    /// admission analysis or a workload constructor.
    ///
    /// # Errors
    ///
    /// Names the first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        let rule = |holds: bool, broken: &str| holds.then_some(()).ok_or_else(|| broken.to_owned());
        rule(self.nodes > 0, "a fleet needs at least one node")?;
        if !(self.ulub > 0.0 && self.ulub <= 1.0) {
            return Err(format!("ulub {} out of (0, 1]", self.ulub));
        }
        if !(self.headroom >= 1.0 && self.headroom.is_finite()) {
            return Err(format!("headroom {} below 1", self.headroom));
        }
        rule(!self.sampling.is_zero(), "sampling period must be positive")?;
        clock_span("sampling period", self.sampling)?;
        let r = &self.rebalance;
        rule(!r.period.is_zero(), "rebalance period must be positive")?;
        if (r.enabled || self.node_share.enabled) && self.horizon.div_floor(r.period) > MAX_EPOCHS {
            return Err(format!(
                "rebalance period {} cuts the {} horizon into more than {MAX_EPOCHS} epochs",
                r.period, self.horizon
            ));
        }
        if !(r.pressure >= 0.0 && r.pressure.is_finite()) {
            return Err(format!(
                "rebalance pressure {} must be non-negative",
                r.pressure
            ));
        }
        if !(r.ewma_alpha > 0.0 && r.ewma_alpha <= 1.0) {
            return Err(format!(
                "rebalance ewma_alpha {} out of (0, 1]",
                r.ewma_alpha
            ));
        }
        let ns = &self.node_share;
        if !(ns.floor > 0.0 && ns.floor <= ns.cap && ns.cap <= 1.0) {
            return Err(format!(
                "node share bounds must satisfy 0 < floor <= cap <= 1, got {} {}",
                ns.floor, ns.cap
            ));
        }
        for w in &self.overload {
            rule(!w.chunk.is_zero(), "overload hog chunk must be positive")?;
            clock_span("overload hog chunk", w.chunk)?;
        }
        for p in &self.phases {
            rule(p.start < p.end, "phase must start before it ends")?;
            rule(p.ramp <= p.end - p.start, "phase ramp exceeds the window")?;
            rule(p.tasks > 0, "a phase needs at least one task")?;
            // Phase tasks are admitted only onto the nodes the filter
            // names: with none, every admission is refused for want of a
            // candidate. (An overload window that hits no node is merely
            // idle, and stays accepted.)
            if !(0..self.nodes).any(|n| p.nodes.matches(n)) {
                return Err(format!(
                    "phase node filter {} matches none of the {} nodes",
                    filter_to_text(p.nodes),
                    self.nodes
                ));
            }
        }
        for vm in &self.vms {
            rule(
                !vm.budget.is_zero() && vm.budget <= vm.period,
                "degenerate VM share: need 0 < budget <= period",
            )?;
            clock_span("VM share period", vm.period)?;
            rule(!vm.guests.is_empty(), "a VM needs at least one guest task")?;
            rule(
                vm.guests.iter().all(|&(n, _)| n > 0),
                "empty guest group in VM mix",
            )?;
        }
        let mixes = std::iter::once(&self.mix).chain(self.phases.iter().map(|p| &p.mix));
        let mixed = mixes.flat_map(|mix| mix.entries().iter().map(|(kind, _)| kind));
        let guests = self
            .vms
            .iter()
            .flat_map(|vm| vm.guests.iter().map(|(_, kind)| kind));
        mixed.chain(guests).try_for_each(TaskKind::validate)
    }

    /// The builders' guard: the scenario, or a panic naming the
    /// [`ScenarioSpec::validate`] rule it breaks.
    fn checked(self) -> ScenarioSpec {
        match self.validate() {
            Ok(()) => self,
            Err(broken) => panic!("{broken}"),
        }
    }

    /// Fleet-wide flat task count: the base population plus every traffic
    /// phase's tasks. Phase tasks take fleet ids `tasks..flat_tasks()`
    /// (in phase declaration order); VM guest ids follow after.
    pub fn flat_tasks(&self) -> usize {
        self.tasks + self.phases.iter().map(|p| p.tasks).sum::<usize>()
    }

    /// Replaces the task mix.
    pub fn with_mix(mut self, mix: TaskMix) -> ScenarioSpec {
        self.mix = mix;
        self.checked()
    }

    /// Adds a virtual platform to place as a unit.
    pub fn with_vm(mut self, vm: VmSpec) -> ScenarioSpec {
        self.vms.push(vm);
        self.checked()
    }

    /// Replaces the arrival schedule.
    pub fn with_arrivals(mut self, arrivals: ArrivalSchedule) -> ScenarioSpec {
        self.arrivals = arrivals;
        self
    }

    /// Enables churn.
    pub fn with_churn(mut self, churn: Churn) -> ScenarioSpec {
        self.churn = Some(churn);
        self
    }

    /// Adds an overload window.
    pub fn with_overload(mut self, w: OverloadWindow) -> ScenarioSpec {
        self.overload.push(w);
        self.checked()
    }

    /// Replaces the placement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> ScenarioSpec {
        self.policy = policy;
        self
    }

    /// Replaces the per-node utilisation bound.
    pub fn with_ulub(mut self, ulub: f64) -> ScenarioSpec {
        self.ulub = ulub;
        self.checked()
    }

    /// Replaces the manager sampling period.
    pub fn with_sampling(mut self, sampling: Dur) -> ScenarioSpec {
        self.sampling = sampling;
        self.checked()
    }

    /// The canonical skewed-overload demo: first-fit packs lying legacy
    /// tasks ([`TaskKind::HungryRt`], claimed 2 ms jobs that really burn
    /// 6 ms) onto node 0, which a fair-class hog burst then hits.
    /// Nominally the plan is schedulable; measurably node 0 melts while
    /// the other nodes idle.
    ///
    /// This single definition backs the `cluster_rebalance` experiment,
    /// the `cluster_rebalance_e2e` test and the `cluster_fleet` example,
    /// so tuning it cannot desynchronise them. Rebalance is off; chain
    /// [`ScenarioSpec::with_rebalance`] (the demo parameters are
    /// `RebalanceSpec { enabled: true, period: 750 ms, pressure: 0.25,
    /// max_moves: 4 }`) for the feedback run.
    pub fn skewed_overload_demo(nodes: usize, tasks: usize) -> ScenarioSpec {
        ScenarioSpec::new("rebalance-demo", nodes, tasks, Dur::secs(6))
            .with_mix(TaskMix::new(vec![(
                TaskKind::HungryRt {
                    nominal_wcet: Dur::ms(2),
                    wcet: Dur::ms(6),
                    period: Dur::ms(40),
                },
                1.0,
            )]))
            .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(100) })
            .with_policy(PolicyKind::FirstFit)
            .with_ulub(0.9)
            .with_overload(OverloadWindow {
                start: Dur::ms(1_500),
                end: Dur::ms(4_500),
                hogs_per_node: 4,
                chunk: Dur::ms(5),
                nodes: NodeFilter::First(1),
            })
    }

    /// The feedback-loop parameters of the skewed-overload demo: EWMA
    /// smoothing on and controller state carried across migrations.
    pub fn demo_rebalance() -> RebalanceSpec {
        RebalanceSpec {
            enabled: true,
            period: Dur::ms(750),
            pressure: 0.25,
            max_moves: 4,
            ewma_alpha: 0.6,
            warm_start: true,
        }
    }

    /// The skewed-overload story at fleet scale: first-fit packs lying
    /// [`TaskKind::HungryRt`] tasks (~15 per node under `U_lub = 0.9`,
    /// each claiming 2 ms jobs that really burn 6 ms) onto the low-id
    /// slice of an otherwise idle sea of nodes, and a hog burst then
    /// skews the first few packed nodes further. Statically placed, the
    /// packed prefix melts for the whole run; the feedback rebalancer
    /// drains it into the idle majority, and every destination query has
    /// the whole fleet to pick from — which is exactly where the
    /// bucketed headroom index earns its keep at 10k nodes.
    ///
    /// All tasks arrive at `t = 0` (staggered gaps would not fit a short
    /// fleet horizon at 10k+ tasks) and the managers sample at 100 ms so
    /// self-tuning converges within a few hundred milliseconds of
    /// virtual time. This single definition backs the
    /// `cluster_megafleet` experiment, the `cluster_megafleet_e2e` test
    /// and the `megafleet.journal` fixture. Rebalance is off; chain
    /// [`ScenarioSpec::with_rebalance`]`(`[`ScenarioSpec::megafleet_rebalance`]`(horizon))`
    /// for the feedback run.
    pub fn megafleet_demo(nodes: usize, tasks: usize, horizon: Dur) -> ScenarioSpec {
        ScenarioSpec::new("megafleet", nodes, tasks, horizon)
            .with_mix(TaskMix::new(vec![(
                TaskKind::HungryRt {
                    nominal_wcet: Dur::ms(2),
                    wcet: Dur::ms(6),
                    period: Dur::ms(40),
                },
                1.0,
            )]))
            .with_arrivals(ArrivalSchedule::AllAtStart)
            .with_policy(PolicyKind::FirstFit)
            .with_ulub(0.9)
            .with_sampling(Dur::ms(100))
            .with_overload(OverloadWindow {
                start: horizon.mul_f64(0.2),
                end: horizon.mul_f64(0.75),
                hogs_per_node: 4,
                chunk: Dur::ms(5),
                nodes: NodeFilter::First(4),
            })
    }

    /// The feedback-loop parameters of the megafleet demo: epochs at an
    /// eighth of the horizon so the rebalancer gets several bites within
    /// a short fleet run, and a move cap wide enough to actually heal an
    /// over-packed prefix of tens of nodes (each needs roughly two
    /// thirds of its liars drained before its real demand fits).
    pub fn megafleet_rebalance(horizon: Dur) -> RebalanceSpec {
        RebalanceSpec {
            enabled: true,
            period: horizon.mul_f64(0.125),
            pressure: 0.25,
            max_moves: 64,
            ewma_alpha: 0.6,
            warm_start: true,
        }
    }

    /// The million-task operating point behind the `cluster_milliontask`
    /// experiment, e2e test and `milliontask.journal` fixture: the *task*
    /// axis pushed three orders of magnitude past the per-node norm while
    /// the node count stays in the low thousands (hundreds of tasks per
    /// node).
    ///
    /// The population is deliberately de-synchronised — arrivals staggered
    /// over the first 100 ms and sixteen co-prime-ish periods — because at
    /// a million tasks a single shared period turns every period boundary
    /// into a fleet-wide event storm that measures the event queue, not
    /// the fleet. A liar wave ([`TaskKind::HungryRt`] under-declaring its
    /// demand) rides in early on a node prefix: first-fit packs the liars
    /// there, their lying reservations throttle them into steady deadline
    /// misses, and the prefix lights up the rebalancer's pressure signal
    /// while the honest sea stays healthy. The wave leases end inside the
    /// horizon, so the run also retires tens of thousands of tasks
    /// mid-flight — the churn path the slot-recycling arena exists for.
    ///
    /// Chain [`ScenarioSpec::with_rebalance`]`(`
    /// [`ScenarioSpec::milliontask_rebalance`]`(horizon))` for the
    /// feedback run; rebalance is off here.
    pub fn milliontask_demo(nodes: usize, tasks: usize, horizon: Dur) -> ScenarioSpec {
        assert!(nodes >= 128, "the million-task demo needs a real fleet");
        // Sixteen staggered periods around half a second: ~2 jobs per
        // task over a 1 s horizon, no fleet-wide phase alignment.
        let mix = TaskMix::new(
            (0..16u64)
                .map(|i| {
                    (
                        TaskKind::PeriodicRt {
                            wcet: Dur::us(200),
                            period: Dur::ms(450 + i * 13),
                        },
                        1.0,
                    )
                })
                .collect(),
        );
        // 64 liars per prefix node book 64 × (700µs/60ms × 1.2
        // admission headroom) ≈ 0.896 — the wave alone fills the prefix
        // to the 0.9 admission cap, so the honest stream (arriving just
        // behind it) first-fits straight past. The prefix's live set is
        // then liars end to end, which is what lets eviction (live-order
        // victim walk) drain exactly the misbehaving population instead
        // of honest bystanders. The lie is sized to both ends of the
        // migration: 64 × 1.5 ms real demand is a 1.78× overload (inter-
        // mark gaps ~107 ms, past the 1.5× period miss threshold), while
        // a booking derived from the nominal figure still lands near the
        // real appetite — so destinations absorb roughly what they
        // accept instead of melting into a second eviction cascade.
        let prefix = (nodes / 64).max(4);
        let liars = prefix * 64;
        ScenarioSpec::new("milliontask", nodes, tasks, horizon)
            .with_mix(mix)
            .with_arrivals(ArrivalSchedule::Staggered {
                gap: Dur::ns(100_000_000 / tasks.max(1) as u64),
            })
            .with_policy(PolicyKind::FirstFit)
            .with_ulub(0.9)
            .with_sampling(Dur::ms(250))
            .with_phase(TrafficPhase {
                start: Dur::us(1),
                end: horizon.mul_f64(0.9),
                ramp: Dur::us(10),
                tasks: liars,
                mix: TaskMix::new(vec![(
                    TaskKind::HungryRt {
                        nominal_wcet: Dur::us(700),
                        wcet: Dur::us(1500),
                        period: Dur::ms(60),
                    },
                    1.0,
                )]),
                nodes: NodeFilter::First(prefix),
            })
    }

    /// The feedback-loop parameters of the million-task demo. The
    /// pressure threshold sits well below the liar prefix's miss rate but
    /// above the honest sea's (whose long-period tasks rarely even record
    /// a gap per epoch), and the move budget is sized to drain a
    /// meaningful share of the packed liars within the few epochs a short
    /// horizon allows.
    pub fn milliontask_rebalance(horizon: Dur) -> RebalanceSpec {
        RebalanceSpec {
            enabled: true,
            period: horizon.mul_f64(0.125),
            pressure: 0.5,
            max_moves: 4_096,
            ewma_alpha: 0.6,
            warm_start: true,
        }
    }

    /// The diurnal/flash-crowd demo behind the `cluster_diurnal`
    /// experiment and e2e test: a lightly loaded base fleet with
    /// overprovisioned tenant VMs packed onto the low-id nodes, a fleet-
    /// wide diurnal wave of lying [`TaskKind::HungryRt`] tasks, and a
    /// flash crowd that slams the VM-hosting prefix mid-wave.
    ///
    /// The three control levers compose against it: elastic VM shares
    /// free the hoarded tenant bandwidth *in place* exactly where the
    /// crowd lands, the rebalancer drains melting prefix nodes into the
    /// idle tail, and node-level re-bounding
    /// ([`ScenarioSpec::diurnal_node_share`]) lets saturated nodes claw
    /// supervisor headroom back while idle ones shed bookable capacity.
    /// Rebalance, VM elasticity and node share are all *off* here; the
    /// experiment turns them on in combinations at equal total bandwidth.
    pub fn diurnal_demo(nodes: usize, tasks: usize) -> ScenarioSpec {
        assert!(nodes >= 2, "the diurnal demo needs a prefix and a tail");
        let mut spec = ScenarioSpec::new("diurnal", nodes, tasks, Dur::secs(6))
            .with_mix(TaskMix::new(vec![(
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(2),
                    period: Dur::ms(40),
                },
                1.0,
            )]))
            .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(20) })
            .with_policy(PolicyKind::FirstFit)
            .with_ulub(0.9)
            .with_sampling(Dur::ms(100))
            .with_phase(TrafficPhase {
                start: Dur::ms(1_000),
                end: Dur::ms(5_000),
                ramp: Dur::ms(2_000),
                tasks: nodes * 3,
                mix: TaskMix::new(vec![(
                    TaskKind::HungryRt {
                        nominal_wcet: Dur::ms(2),
                        wcet: Dur::ms(5),
                        period: Dur::ms(40),
                    },
                    1.0,
                )]),
                nodes: NodeFilter::All,
            })
            .with_phase(TrafficPhase {
                start: Dur::ms(2_500),
                end: Dur::ms(4_500),
                ramp: Dur::ZERO,
                tasks: nodes,
                mix: TaskMix::new(vec![(
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(6),
                        period: Dur::ms(40),
                    },
                    1.0,
                )]),
                nodes: NodeFilter::First((nodes / 4).max(1)),
            });
        // One overprovisioned tenant per two nodes: a 0.5 share whose
        // guests measurably need ~0.15 — the slack elasticity recovers.
        for _ in 0..nodes / 2 {
            spec = spec.with_vm(VmSpec::uniform(
                Dur::ms(5),
                Dur::ms(10),
                2,
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(2),
                    period: Dur::ms(40),
                },
            ));
        }
        spec
    }

    /// The feedback-loop parameters of the diurnal demo (epochs short
    /// enough for several decisions per phase).
    pub fn diurnal_rebalance() -> RebalanceSpec {
        RebalanceSpec {
            enabled: true,
            period: Dur::ms(500),
            pressure: 0.25,
            max_moves: 8,
            ewma_alpha: 0.6,
            warm_start: true,
        }
    }

    /// The node-level re-bounding parameters of the diurnal demo.
    pub fn diurnal_node_share() -> NodeShareSpec {
        NodeShareSpec {
            enabled: true,
            floor: 0.5,
            cap: 0.95,
        }
    }

    /// Enables node-level share re-bounding with the given parameters.
    pub fn with_node_share(mut self, node_share: NodeShareSpec) -> ScenarioSpec {
        self.node_share = node_share;
        self.checked()
    }

    /// Adds a traffic phase.
    pub fn with_phase(mut self, phase: TrafficPhase) -> ScenarioSpec {
        self.phases.push(phase);
        self.checked()
    }

    /// Enables feedback-driven re-placement with the given parameters.
    pub fn with_rebalance(mut self, rebalance: RebalanceSpec) -> ScenarioSpec {
        self.rebalance = rebalance;
        self.checked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sampling_is_deterministic_and_weighted() {
        let mix = TaskMix::media_heavy();
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut a), mix.sample(&mut b));
        }
        let mut rng = Rng::new(9);
        let n = 10_000;
        let videos = (0..n)
            .filter(|_| matches!(mix.sample(&mut rng), TaskKind::Video25))
            .count();
        // Weight 3 of 6 total.
        let frac = videos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "video fraction {frac}");
    }

    #[test]
    fn realtime_kinds_have_nominal_params() {
        assert!(TaskKind::Video25.nominal().is_some());
        assert!(TaskKind::Mp3.nominal().is_some());
        assert!(TaskKind::Stream30.nominal().is_some());
        let ap = TaskKind::Aperiodic {
            mean_gap: Dur::ms(10),
            mean_work: Dur::ms(1),
            burst: 1,
        };
        assert!(ap.nominal().is_none());
        assert!(!ap.is_realtime());
        let v = TaskKind::Video25.nominal().unwrap();
        assert!((v.period - 40.0).abs() < 1e-9);
        assert!(v.wcet > 0.0 && v.wcet < v.period);
    }

    #[test]
    fn instantiate_relabels_metrics() {
        let kind = TaskKind::Video25;
        assert_eq!(kind.mark_name("n0.t3").unwrap(), "n0.t3.frame");
        // Smoke: the workload is constructible under the new label.
        let _ = kind.instantiate("n0.t3", Rng::new(1));
    }

    #[test]
    #[should_panic(expected = "empty task mix")]
    fn empty_mix_panics() {
        let _ = TaskMix::new(vec![]);
    }

    #[test]
    fn hungry_rt_understates_nominal_demand() {
        let kind = TaskKind::HungryRt {
            nominal_wcet: Dur::ms(2),
            wcet: Dur::ms(6),
            period: Dur::ms(40),
        };
        assert!(kind.is_realtime());
        let nominal = kind.nominal().unwrap();
        // Admission sees the claimed 2 ms, not the real 6 ms.
        assert!((nominal.wcet - 2.0).abs() < 1e-9);
        assert_eq!(kind.mark_name("t1").unwrap(), "t1.job");
        let _ = kind.instantiate("t1", Rng::new(1));
    }

    #[test]
    fn node_filters_target_the_right_nodes() {
        assert!(NodeFilter::All.matches(0) && NodeFilter::All.matches(17));
        assert!(NodeFilter::First(2).matches(1) && !NodeFilter::First(2).matches(2));
        assert!(NodeFilter::Stride(3).matches(0) && NodeFilter::Stride(3).matches(6));
        assert!(!NodeFilter::Stride(3).matches(4));
    }

    #[test]
    fn rebalance_defaults_off() {
        let spec = ScenarioSpec::new("s", 2, 4, Dur::secs(1));
        assert!(!spec.rebalance.enabled);
        let spec = spec.with_rebalance(RebalanceSpec {
            enabled: true,
            period: Dur::ms(500),
            pressure: 0.1,
            max_moves: 2,
            ..RebalanceSpec::default()
        });
        assert!(spec.rebalance.enabled);
        assert_eq!(spec.rebalance.max_moves, 2);
    }

    #[test]
    fn phases_extend_the_flat_task_count() {
        let spec = ScenarioSpec::new("s", 2, 4, Dur::secs(1));
        assert_eq!(spec.flat_tasks(), 4);
        let spec = spec.with_phase(TrafficPhase {
            start: Dur::ms(100),
            end: Dur::ms(600),
            ramp: Dur::ms(200),
            tasks: 3,
            mix: TaskMix::rt_only(),
            nodes: NodeFilter::All,
        });
        assert_eq!(spec.flat_tasks(), 7);
        assert!(!spec.node_share.enabled, "node share defaults off");
    }

    #[test]
    #[should_panic(expected = "phase ramp exceeds the window")]
    fn oversized_phase_ramp_panics() {
        let _ = ScenarioSpec::new("s", 2, 4, Dur::secs(1)).with_phase(TrafficPhase {
            start: Dur::ms(100),
            end: Dur::ms(200),
            ramp: Dur::ms(500),
            tasks: 1,
            mix: TaskMix::rt_only(),
            nodes: NodeFilter::All,
        });
    }

    #[test]
    #[should_panic(expected = "node share bounds")]
    fn inverted_node_share_bounds_panic() {
        let _ = ScenarioSpec::new("s", 2, 4, Dur::secs(1)).with_node_share(NodeShareSpec {
            enabled: true,
            floor: 0.9,
            cap: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "rebalance period")]
    fn zero_rebalance_period_panics() {
        let _ = ScenarioSpec::new("s", 2, 4, Dur::secs(1)).with_rebalance(RebalanceSpec {
            period: Dur::ZERO,
            ..RebalanceSpec::default()
        });
    }
}
