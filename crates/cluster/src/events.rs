//! Plain-data fleet decision events: everything a decision journal needs
//! to make a run explainable and replayable, with none of the runner's
//! machinery attached.
//!
//! The runner emits these from exactly three places — the fleet plan
//! (admissions and churn kills), the meeting's leader (per-epoch
//! compressions, rebalance passes and migrations) and the nodes
//! themselves (executed elastic share re-grants) — and merges them into
//! one deterministic stream via [`sort_events`]. [`FleetEvent`] is the
//! workspace's only decision type: `selftune-journal` writes these very
//! values to disk and `selftune-distrib` to the wire (its `DecisionRecord`
//! is this enum re-exported), so the schema, its canonical order and the
//! pin-table extraction (`PinnedPlan::from_events`,
//! `PinnedMoves::from_events`) live in this crate and the text form in
//! `selftune_journal::codec`.
//!
//! Each decision is one value, made by its decider and embedded as-is:
//! an admission carries the placer's [`PlacementOutcome`], a migration
//! the rebalancer's [`Migration`] — the very value the workers apply and
//! the run statistics keep — and a share grant the platform's
//! [`ShareGrant`]. A new field is an edit to the decider's type and to
//! its line in the codec.

use selftune_simcore::time::Time;

use crate::aggregate::{AdmissionStats, AggregateMetrics};
use crate::placer::{Migration, PlacementOutcome, Unit};
use selftune_virt::ShareGrant;

/// One node's smoothed pressure and utilisation inside a rebalance pass —
/// the feedback snapshot the drain decision was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSnap {
    /// The node.
    pub node: usize,
    /// Smoothed pressure signal (EWMA of miss + compression rate).
    pub pressure: f64,
    /// Measured utilisation over the epoch.
    pub utilisation: f64,
}

/// One fleet-level decision, in the order and with the inputs that pinned
/// it (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum FleetEvent {
    /// A real-time task or a virtual platform walked the placer's
    /// admission path.
    Admission {
        /// Arrival instant (placement happens at plan time, but the
        /// booking is dated at the arrival; VMs are placed at t = 0).
        at: Time,
        /// The unit admitted or rejected.
        unit: Unit,
        /// The placer's own decision: destination, booked demand and
        /// release-retry passes, or the rejection witness.
        outcome: PlacementOutcome,
    },
    /// A churned task's lease expires: the node kills it at this instant.
    Kill {
        /// The departure instant from the plan.
        at: Time,
        /// Node the task was living on.
        node: usize,
        /// Fleet task id.
        fleet_id: usize,
    },
    /// One *executed* elastic VM share re-grant, with the controller
    /// inputs (demand signal, hysteresis state, clamp reason) and the
    /// host supervisor's arithmetic.
    ShareGrant {
        /// Node hosting the VM.
        node: usize,
        /// Fleet VM id.
        fleet_vm_id: usize,
        /// The platform's own record of the grant, dated at its control
        /// step.
        grant: ShareGrant,
    },
    /// One node's supervisor compressions over one epoch (only nodes with
    /// a non-zero count are journalled).
    Compression {
        /// Epoch boundary the count was sampled at.
        at: Time,
        /// Rebalance epoch index.
        epoch: usize,
        /// The node.
        node: usize,
        /// Compressions during the epoch (host + guest supervisors).
        count: u64,
    },
    /// One node-level share re-bound: the epoch leader moved a node's
    /// supervisor `U_lub` from the fleet feedback (the fleet→node instance
    /// of the share law), before the rebalance pass of the same epoch.
    NodeRebound {
        /// Epoch boundary the decision ran at.
        at: Time,
        /// Rebalance epoch index.
        epoch: usize,
        /// The re-bounded node.
        node: usize,
        /// The bound that was in force before.
        prev: f64,
        /// The bound now in force.
        bound: f64,
        /// The controller's smoothed demand estimate behind the decision.
        demand: f64,
        /// Host bandwidth the node's reservations held at the snapshot.
        reserved: f64,
        /// The node's deadline-miss rate over the epoch.
        miss_rate: f64,
        /// Supervisor compressions on the node over the epoch.
        compressions: u64,
    },
    /// One rebalance decision pass: the feedback snapshot it saw and what
    /// it decided.
    Rebalance {
        /// Epoch boundary the pass ran at.
        at: Time,
        /// Rebalance epoch index.
        epoch: usize,
        /// Smoothed pressure / utilisation per node, in node-id order.
        snapshot: Vec<NodeSnap>,
        /// Moves planned (each detailed in a following `Migration`).
        moves: u64,
        /// Victims with no admissible destination.
        failed: u64,
    },
    /// One migration the pass planned, in decision order (`seq`), with
    /// the booking math that admitted it on the destination.
    Migration {
        /// Epoch boundary the move executes at.
        at: Time,
        /// Rebalance epoch index.
        epoch: usize,
        /// Position in the epoch's decision order — replay applies moves
        /// in exactly this order.
        seq: u32,
        /// The rebalancer's own decision, as its workers apply it.
        migration: Migration,
    },
}

impl FleetEvent {
    /// The instant the decision is dated at.
    pub fn at(&self) -> Time {
        match self {
            FleetEvent::Admission { at, .. }
            | FleetEvent::Kill { at, .. }
            | FleetEvent::Compression { at, .. }
            | FleetEvent::NodeRebound { at, .. }
            | FleetEvent::Rebalance { at, .. }
            | FleetEvent::Migration { at, .. } => *at,
            FleetEvent::ShareGrant { grant, .. } => grant.at,
        }
    }

    /// Rank of the event class at equal instants: admissions (VMs before
    /// tasks, the reverse of [`Unit`]'s own order) before kills, epoch
    /// bookkeeping (compressions, then node re-bounds, then the rebalance
    /// pass, then its migrations) before the share grants of the next
    /// epoch. The ranks are in-memory ordering keys only —
    /// they are never serialised, so inserting a class renumbers freely.
    fn class(&self) -> u8 {
        match self {
            FleetEvent::Admission {
                unit: Unit::Vm(_), ..
            } => 0,
            FleetEvent::Admission {
                unit: Unit::Task(_),
                ..
            } => 1,
            FleetEvent::Kill { .. } => 2,
            FleetEvent::Compression { .. } => 3,
            FleetEvent::NodeRebound { .. } => 4,
            FleetEvent::Rebalance { .. } => 5,
            FleetEvent::Migration { .. } => 6,
            FleetEvent::ShareGrant { .. } => 7,
        }
    }

    /// Tie-break key inside one class at one instant. Migrations order by
    /// their decision sequence; everything else by `(node, unit id)`.
    ///
    /// Slot-recycling audit: arena slots are node-local and never appear
    /// in events — the unit ids used here are *fleet* ids, which the
    /// planner assigns uniquely across the whole run and never reuses (a
    /// migrated incarnation keeps its fleet id; a recycled slot's new
    /// occupant brings its own). Two same-
    /// instant departures whose tasks lived in the same recycled slot
    /// therefore still carry distinct `(node, fleet_id)` keys, and the
    /// order stays total without slots in the key (regression test:
    /// `same_instant_kills_from_recycled_slots_order_totally`).
    fn tie(&self) -> (usize, usize) {
        match self {
            FleetEvent::Admission { unit, outcome, .. } => {
                let (Unit::Task(id) | Unit::Vm(id)) = *unit;
                (outcome.node().unwrap_or(usize::MAX), id)
            }
            FleetEvent::Kill { node, fleet_id, .. } => (*node, *fleet_id),
            FleetEvent::ShareGrant {
                node, fleet_vm_id, ..
            } => (*node, *fleet_vm_id),
            FleetEvent::Compression { node, .. } => (*node, 0),
            FleetEvent::NodeRebound { node, .. } => (*node, 0),
            FleetEvent::Rebalance { epoch, .. } => (*epoch, 0),
            FleetEvent::Migration { epoch, seq, .. } => (*epoch, *seq as usize),
        }
    }
}

/// Incremental consumer of a logged run's decision stream.
///
/// [`ClusterRunner::run_logged_with`](crate::runner::ClusterRunner::run_logged_with)
/// drives a sink instead of materialising the full event vector: the
/// plan-derived decisions arrive first in one batch, then every epoch
/// boundary delivers its decision batch as soon as the meeting's leader has
/// taken it, and the final aggregates close the stream. Each batch is
/// canonically sorted internally ([`sort_events`]); concatenating the
/// batches and re-sorting yields exactly the stream `run_logged` returns.
///
/// All callbacks run on a runner thread (the meeting's leader or the
/// calling thread), serialised by the runner — implementations never see
/// concurrent calls. Default method bodies ignore the data, so a sink
/// implements only what it consumes.
pub trait JournalSink: Send {
    /// Checkpoint cadence: `Some(n)` asks the runner to assemble interim
    /// fleet aggregates at every `n`-th epoch boundary (skipping the
    /// trivial boundary 0 and the horizon, which [`JournalSink::on_finish`]
    /// covers). `None` — the default — skips the interim reductions
    /// entirely.
    fn checkpoint_interval(&self) -> Option<usize> {
        None
    }

    /// The plan-derived decisions (admissions and churn kills), emitted
    /// once in canonical order before simulation starts. Admissions are
    /// plan-time decisions: shipping them up front gives a consumer a
    /// complete placement pin table at any later cut point.
    fn on_plan(&mut self, admission: &AdmissionStats, events: &[FleetEvent]) {
        let _ = (admission, events);
    }

    /// Interim fleet aggregates at epoch boundary `cursor`: the state at
    /// instant `at` with the decisions of epochs `< cursor` applied,
    /// captured *before* the boundary's own decision batch is emitted. A
    /// pinned re-execution over the same decisions, stopped at `cursor`,
    /// reproduces these aggregates byte for byte
    /// ([`ClusterRunner::run_pinned`](crate::runner::ClusterRunner::run_pinned)).
    fn on_checkpoint(&mut self, cursor: usize, at: Time, interim: &AggregateMetrics) {
        let _ = (cursor, at, interim);
    }

    /// The decision batch of epoch boundary `epoch` (canonically sorted).
    /// The final boundary (the horizon) carries only the share grants of
    /// the last epoch — no rebalance decision runs there.
    fn on_epoch(&mut self, epoch: usize, at: Time, events: &[FleetEvent]) {
        let _ = (epoch, at, events);
    }

    /// The final fleet aggregates, after the last epoch batch.
    fn on_finish(&mut self, finale: &AggregateMetrics) {
        let _ = finale;
    }
}

/// Sorts a merged event stream into its canonical order:
/// `(instant, class, tie-break)`. Every producer is deterministic on its
/// own; this fixes the *interleaving* so the merged stream cannot depend
/// on which worker thread claimed which node.
pub fn sort_events(events: &mut [FleetEvent]) {
    events.sort_by(|a, b| {
        (a.at(), a.class(), a.tie())
            .partial_cmp(&(b.at(), b.class(), b.tie()))
            .expect("total event order")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kill(at_ms: u64, node: usize, fleet_id: usize) -> FleetEvent {
        FleetEvent::Kill {
            at: Time::ZERO + selftune_simcore::time::Dur::ms(at_ms),
            node,
            fleet_id,
        }
    }

    #[test]
    fn canonical_order_is_time_class_then_tie() {
        let reb = FleetEvent::Rebalance {
            at: Time::ZERO + selftune_simcore::time::Dur::ms(5),
            epoch: 0,
            snapshot: Vec::new(),
            moves: 1,
            failed: 0,
        };
        let mig = FleetEvent::Migration {
            at: Time::ZERO + selftune_simcore::time::Dur::ms(5),
            epoch: 0,
            seq: 0,
            migration: Migration {
                unit: Unit::Task(9),
                from: 1,
                to: 0,
                demand: 0.2,
                dest_reserved_after: 0.2,
                warm: None,
                guest_warm: Vec::new(),
            },
        };
        let rebound = FleetEvent::NodeRebound {
            at: Time::ZERO + selftune_simcore::time::Dur::ms(5),
            epoch: 0,
            node: 1,
            prev: 0.9,
            bound: 0.95,
            demand: 0.97,
            reserved: 0.88,
            miss_rate: 0.2,
            compressions: 4,
        };
        let mut events = vec![
            kill(5, 2, 3),
            mig.clone(),
            kill(1, 9, 9),
            reb.clone(),
            rebound.clone(),
        ];
        sort_events(&mut events);
        assert_eq!(events[0], kill(1, 9, 9));
        assert_eq!(events[1], kill(5, 2, 3));
        assert_eq!(events[2], rebound, "re-bounds precede the rebalance pass");
        assert_eq!(events[3], reb);
        assert_eq!(events[4], mig);
    }

    #[test]
    fn a_vm_admission_sorts_before_a_task_admission_at_the_same_instant() {
        let at = Time::ZERO + selftune_simcore::time::Dur::ms(3);
        let admitted = |node| PlacementOutcome::Admitted {
            node,
            demand: 0.1,
            migrations: 0,
        };
        let rejected = PlacementOutcome::Rejected {
            demand: 0.4,
            best_spare: 0.2,
        };
        let admission = |unit, outcome| FleetEvent::Admission { at, unit, outcome };
        // The task has the lower node and the lower id; the VMs come first
        // anyway, admitted or rejected, and only then `(node, id)` ranks.
        let task = admission(Unit::Task(0), admitted(0));
        let vm_placed = admission(Unit::Vm(9), admitted(5));
        let vm_refused = admission(Unit::Vm(1), rejected);
        let mut events = vec![task.clone(), vm_refused.clone(), vm_placed.clone()];
        sort_events(&mut events);
        assert_eq!(events, [vm_placed, vm_refused, task]);
    }

    #[test]
    fn sort_is_invariant_under_input_permutation() {
        let mut a = vec![kill(3, 0, 1), kill(3, 0, 0), kill(2, 1, 5), kill(3, 1, 0)];
        let mut b: Vec<FleetEvent> = a.iter().rev().cloned().collect();
        sort_events(&mut a);
        sort_events(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn same_instant_kills_from_recycled_slots_order_totally() {
        // Churn scenario: tasks 4 and 11 lived (sequentially) in the same
        // recycled arena slot on node 2, and the planner scheduled other
        // departures at the very same instant on the same and other
        // nodes. The tie key is `(node, fleet_id)` — fleet ids are
        // planner-unique and never recycled, so the order is total and
        // permutation-invariant with no slot in the key.
        let same_instant = [
            kill(7, 2, 11),
            kill(7, 2, 4),
            kill(7, 0, 30),
            kill(7, 2, 19),
        ];
        let mut a = same_instant.to_vec();
        let mut b: Vec<FleetEvent> = same_instant.iter().rev().cloned().collect();
        sort_events(&mut a);
        sort_events(&mut b);
        assert_eq!(a, b, "same-instant departures permute identically");
        assert_eq!(a[0], kill(7, 0, 30));
        assert_eq!(
            a[1],
            kill(7, 2, 4),
            "within a node, fleet id breaks the tie"
        );
        assert_eq!(a[2], kill(7, 2, 11));
        assert_eq!(a[3], kill(7, 2, 19));
        // No two distinct kill events can compare equal: the planner
        // never issues one fleet id twice, and equal keys would need
        // exactly that.
        for (i, x) in a.iter().enumerate() {
            for y in &a[i + 1..] {
                assert_ne!((x.at(), x.class(), x.tie()), (y.at(), y.class(), y.tie()));
            }
        }
    }
}
