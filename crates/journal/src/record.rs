//! The journal itself: a recorded run's decisions and the pin tables
//! replay feeds back into the runner.

use selftune_cluster::runner::{PinnedMoves, PinnedPlan};
use selftune_cluster::{AdmissionStats, AggregateMetrics, ClusterRunner, ScenarioSpec};

/// One journalled fleet decision, with the inputs that pinned it: the
/// runner's [`FleetEvent`](selftune_cluster::FleetEvent) itself, under the
/// name the journal has always used for it. The schema and its canonical
/// order are owned by `selftune_cluster::events`, the text form by
/// [`codec`](crate::codec).
pub use selftune_cluster::events::FleetEvent as DecisionRecord;

/// A recorded fleet run: the scenario, the seed, the live aggregates and
/// every decision taken — enough to re-execute the run pinned to its own
/// history and get the recorded aggregates back byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct Journal {
    /// The scenario the run executed.
    pub scenario: ScenarioSpec,
    /// The base seed.
    pub seed: u64,
    /// Worker threads of the recording run (informational: the journal is
    /// byte-identical at any thread count).
    pub threads: usize,
    /// Admission statistics of the recorded run, pinned wholesale on
    /// replay (the release-retry counter is not derivable from records).
    pub admission: AdmissionStats,
    /// The live run's `summary_csv` — the divergence-detection material.
    pub summary: String,
    /// Every decision, in canonical `(instant, class, tie)` order.
    pub records: Vec<DecisionRecord>,
}

impl Journal {
    /// Runs `spec` on `threads` workers while recording every decision,
    /// returning the live aggregates and the journal.
    pub fn record(threads: usize, spec: &ScenarioSpec, seed: u64) -> (AggregateMetrics, Journal) {
        let (metrics, records) = ClusterRunner::new(threads).run_logged(spec, seed);
        let journal = Journal {
            scenario: spec.clone(),
            seed,
            threads,
            admission: metrics.admission,
            summary: metrics.summary_csv(),
            records,
        };
        (metrics, journal)
    }

    /// The number of rebalance epochs the recorded run had (zero with the
    /// rebalancer off — the run is a single epoch with no boundary).
    pub fn epochs(&self) -> usize {
        ClusterRunner::epoch_ends(&self.scenario).len() - 1
    }

    /// The admission pin table: every task's and VM's recorded
    /// destination, plus the recorded admission statistics.
    pub fn pinned_plan(&self) -> PinnedPlan {
        PinnedPlan::from_events(&self.scenario, self.admission, &self.records)
    }

    /// The per-epoch migration pin table. `up_to_epoch = None` pins every
    /// recorded epoch (exact replay); `Some(cut)` pins epochs `< cut` and
    /// leaves the rest to be decided live (the what-if cut point).
    pub fn pinned_moves(&self, up_to_epoch: Option<usize>) -> PinnedMoves {
        PinnedMoves::from_events(&self.scenario, &self.records, up_to_epoch)
    }
}
