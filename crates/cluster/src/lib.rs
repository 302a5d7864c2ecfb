//! # selftune-cluster
//!
//! Multi-node fleet simulation for the `selftune` reproduction of
//! *"Self-tuning Schedulers for Legacy Real-Time Applications"*
//! (EuroSys 2010): the paper's single-machine self-tuning stack —
//! tracer → period analyser → LFS++ feedback → CBS supervisor —
//! replicated across a fleet of simulated nodes and driven by one
//! declarative scenario.
//!
//! ## Architecture
//!
//! ```text
//!   ScenarioSpec ──► plan_fleet ──► Placer ──► per-node task slices
//!        │            (arrivals,    (minbudget admission,
//!        │             kinds,        first/worst/bandwidth-aware fit,
//!        │             lifetimes)    migration on rejection)
//!        ▼
//!   ClusterRunner ──► worker threads ──► Node = Kernel + Tracer
//!        │            (plan-weighted       + SelfTuningManager
//!        │             node deal)          run epoch by epoch
//!        │   ▲                                   │
//!        │   │  migrations                       │ NodeFeedback
//!        │   └───── Placer::rebalance ◄──────────┘ (measured util,
//!        │          (meeting leader,               miss rate,
//!        ▼           every epoch)                  live tasks + bw)
//!   AggregateMetrics: miss CDF, utilisation histogram, admission
//!                     counters, migration records, CSV export
//! ```
//!
//! * [`spec`] — declarative scenarios: node/task counts, weighted
//!   [`TaskMix`], arrival schedules, churn, (optionally skewed) overload
//!   windows, and the [`RebalanceSpec`] feedback loop; plain-text
//!   round-trip via [`textio`].
//! * [`placer`] — cross-node admission: candidate ordering policies over
//!   per-node reserved bandwidth, backed by the
//!   [`selftune_analysis::min_bandwidth_single`] schedulability test,
//!   plus the feedback rebalance pass over live [`placer::FeedbackView`]s.
//! * [`index`] — the ordered node-headroom index behind the placer:
//!   every admission / rebalance destination query answered in O(log n)
//!   instead of a full fleet scan, byte-identical to the scan path (the
//!   placer's in-file differential tests hold it there; no planner or
//!   runner can ask for the scan).
//! * [`node`] — one machine: kernel, tracer and self-tuning manager
//!   bundled, with lifetime leases, overload injection, per-epoch
//!   [`NodeFeedback`] snapshots and running-task extraction.
//! * [`runner`] — the parallel scenario runner with stateless per-task
//!   seed derivation and barrier-synchronised rebalance epochs; same
//!   `(spec, seed)` ⇒ byte-identical aggregates at any thread count.
//! * [`aggregate`] — fleet-wide reducers, migration records and CSV
//!   export.
//! * [`sketch`] — the one mergeable distribution type every node report
//!   folds its tasks into: lossless by default, fixed-grid binned at
//!   fleet scale (`ClusterRunner::with_sketch_aggregates`).
//!
//! ## Determinism
//!
//! Everything random is derived from `(spec, seed)` before any thread is
//! spawned: the plan (kinds, arrivals, lifetimes, per-task workload
//! seeds) and the placement. Worker threads only execute disjoint,
//! pre-assigned node simulations; reports are reassembled in node-id
//! order. With rebalancing enabled, feedback snapshots are functions of
//! node-local state at a global virtual-time barrier and the migration
//! decision is a pure function of the snapshots in node-id order, so
//! thread count still cannot leak in. [`AggregateMetrics::summary_csv`]
//! over 1 thread and N threads is byte-identical — property tests
//! enforce it with and without rebalancing.
//!
//! ## Example
//!
//! ```
//! use selftune_cluster::prelude::*;
//! use selftune_simcore::time::Dur;
//!
//! let spec = ScenarioSpec::new("smoke", 4, 12, Dur::secs(2))
//!     .with_mix(TaskMix::rt_only())
//!     .with_policy(PolicyKind::WorstFit);
//! let fleet = ClusterRunner::new(2).run(&spec, 42);
//! assert_eq!(fleet.nodes.len(), 4);
//! assert!(fleet.completions() > 0);
//! println!("{}", fleet.render());
//! ```

pub mod aggregate;
pub mod events;
pub mod index;
pub mod mem;
pub mod node;
pub mod placer;
mod plan;
pub mod runner;
pub mod sketch;
pub mod spec;
mod stages;
pub mod textio;

pub use aggregate::{AdmissionStats, AggregateMetrics, NodeReport, NodeSketches, NodeTotals};
pub use events::{sort_events, FleetEvent, JournalSink, NodeSnap};
pub use index::HeadroomIndex;
pub use mem::churn_mem_report;
pub use node::{Lease, Node, NodeFeedback, NodeTask, NodeVm, WarmStart};
pub use placer::{Migration, PlacementOutcome, Placer, PolicyKind, Unit};
pub use runner::{
    plan_fleet, plan_fleet_pinned, ClusterRunner, EpochDecision, EpochPin, FleetPlan, PinSource,
    PinnedMoves, PinnedPlan,
};
// The grant `FleetEvent::ShareGrant` embeds: re-exported so that a
// consumer of the event (the journal codec) needs no `selftune-virt`.
pub use selftune_virt::ShareGrant;
pub use sketch::StreamSketch;
pub use spec::{
    ArrivalSchedule, Churn, NodeFilter, NodeShareSpec, OverloadWindow, RebalanceSpec, ScenarioSpec,
    TaskKind, TaskMix, TrafficPhase, VmSpec,
};

/// One-stop imports for fleet experiments.
pub mod prelude {
    pub use crate::aggregate::{AdmissionStats, AggregateMetrics, NodeReport};
    pub use crate::events::{sort_events, FleetEvent, JournalSink, NodeSnap};
    pub use crate::node::{NodeFeedback, WarmStart};
    pub use crate::placer::{Migration, PlacementOutcome, Placer, PolicyKind, Unit};
    pub use crate::runner::{
        plan_fleet, plan_fleet_pinned, ClusterRunner, EpochDecision, FleetPlan, PinnedMoves,
        PinnedPlan,
    };
    pub use crate::spec::{
        ArrivalSchedule, Churn, NodeFilter, NodeShareSpec, OverloadWindow, RebalanceSpec,
        ScenarioSpec, TaskKind, TaskMix, TrafficPhase, VmSpec,
    };
}
