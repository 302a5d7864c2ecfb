//! Re-execution: run a recorded journal again, from t = 0, pinned to its
//! own decisions and assert the aggregates come back byte for byte. Exact
//! replay ([`Replayer`]), what-if, the stand-alone checkpoint-file check
//! and a cold restart are all [`Journal::reexecute`] with different
//! arguments. A replication follower does *not* come through here — it
//! advances one live run instead of re-running prefixes — but it reports
//! in the same words ([`divergence`]), and its differential tests hold it
//! to these functions' bytes.

use selftune_cluster::runner::plan_fleet_pinned;
use selftune_cluster::{AggregateMetrics, ClusterRunner, ScenarioSpec};

use crate::record::Journal;

impl Journal {
    /// Re-executes the journalled run on `threads` workers with its
    /// placements pinned and its per-epoch migration decisions pinned for
    /// epochs `< cut` (`None` pins every recorded epoch; later epochs are
    /// decided live — the what-if and promotion cut point). `spec`
    /// substitutes a scenario for the recorded one (a what-if's swapped
    /// policy), and `cursor` stops the run exactly at that epoch boundary
    /// with the decisions of epochs `< cursor` applied — the state a
    /// logged run's interim checkpoint reported there.
    ///
    /// # Errors
    ///
    /// When `cursor` is not a boundary of the scenario's epoch grid where
    /// an interim exists
    /// ([`interim_boundary`](selftune_cluster::runner::interim_boundary)).
    pub fn reexecute(
        &self,
        threads: usize,
        spec: Option<&ScenarioSpec>,
        cut: Option<usize>,
        cursor: Option<usize>,
    ) -> Result<AggregateMetrics, String> {
        let spec = spec.unwrap_or(&self.scenario);
        let plan = plan_fleet_pinned(spec, self.seed, &self.pinned_plan());
        let moves = self.pinned_moves(cut);
        let runner = ClusterRunner::new(threads);
        match cursor {
            Some(cursor) => moves.interim_at(&runner, spec, self.seed, &plan, cursor),
            None => Ok(runner
                .run_pinned(spec, self.seed, &plan, &moves)
                .expect("a pin table never stops the run")),
        }
    }

    /// Re-executes fully pinned (to `cursor`, or to the horizon) and
    /// byte-compares the aggregates against the recorded summary.
    ///
    /// # Errors
    ///
    /// A cursor with no interim, or the first differing summary line — the
    /// contract is byte identity, so *any* difference is a corrupt journal
    /// or a determinism bug.
    pub fn verify(
        &self,
        threads: usize,
        cursor: Option<usize>,
    ) -> Result<AggregateMetrics, String> {
        let metrics = self.reexecute(threads, None, None, cursor)?;
        let what = match cursor {
            Some(c) => format!("checkpoint {c}"),
            None => "replay".to_owned(),
        };
        divergence(&what, &self.summary, &metrics.summary_csv())?;
        Ok(metrics)
    }
}

/// One byte comparison and its divergence report: `Ok` when `replayed`
/// equals `recorded`, otherwise `what` ("replay", "checkpoint 8") and the
/// first differing summary line. The one wording every verifier uses —
/// [`Journal::verify`] and a follower's live mirror alike.
///
/// # Errors
///
/// The divergence report.
pub fn divergence(what: &str, recorded: &str, replayed: &str) -> Result<(), String> {
    if replayed == recorded {
        return Ok(());
    }
    let differing = recorded
        .lines()
        .zip(replayed.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    Err(match differing {
        Some((i, (recorded, replayed))) => format!(
            "{what} diverged at summary line {}: recorded {recorded:?}, replayed {replayed:?}",
            i + 1
        ),
        None => format!(
            "{what} diverged in summary length: recorded {} lines, replayed {}",
            recorded.lines().count(),
            replayed.lines().count()
        ),
    })
}

/// Re-executes journalled runs with every decision pinned to the record.
///
/// The replay thread count is independent of the recording one — the
/// divergence property the CI job enforces is exactly that replaying on
/// 1, 2 or 8 threads reproduces the recorded `summary_csv` byte for byte.
#[derive(Clone, Copy, Debug)]
pub struct Replayer {
    threads: usize,
}

impl Replayer {
    /// A replayer using `threads` worker threads.
    pub fn new(threads: usize) -> Replayer {
        Replayer {
            threads: threads.max(1),
        }
    }

    /// Re-executes the journalled scenario pinned to the journal's
    /// placements and per-epoch migration decisions.
    pub fn replay(&self, journal: &Journal) -> AggregateMetrics {
        journal
            .reexecute(self.threads, None, None, None)
            .expect("a run to the horizon has no cursor to reject")
    }

    /// Replays and byte-compares the aggregates against the recorded
    /// summary.
    ///
    /// # Errors
    ///
    /// On divergence, names the first differing summary line.
    pub fn verify(&self, journal: &Journal) -> Result<AggregateMetrics, String> {
        journal.verify(self.threads, None)
    }
}
