//! What the `cluster_*` comparisons share: the `--scenario` override, the
//! thread-count identity check and the feedback-beats-static claims. Rows
//! and tables stay with each experiment.

use crate::Args;
use selftune_cluster::prelude::*;

/// The `--scenario FILE` override of a static-vs-feedback comparison, as
/// `(static baseline, feedback run)`: the file's configuration is the
/// feedback run and the same spec after `freeze` switched the experiment's
/// control levers off is the baseline. `None` without the flag.
///
/// A caller that gets `Some` skips its improvement claims — an arbitrary
/// scenario file carries no guarantee that feedback wins.
pub fn scenario_override(
    args: &Args,
    freeze: impl FnOnce(&mut ScenarioSpec),
) -> Option<(ScenarioSpec, ScenarioSpec)> {
    let spec = args.scenario_spec()?;
    let mut frozen = spec.clone();
    freeze(&mut frozen);
    Some((frozen, spec))
}

/// Asserts that `run(t)` reproduces `reference` byte for byte for every
/// thread count in `threads`: epoch barriers, reductions and migrations
/// must not observe the worker count. Each run is dropped once compared.
pub fn assert_thread_identity(
    what: &str,
    reference: &AggregateMetrics,
    threads: &[usize],
    mut run: impl FnMut(usize) -> AggregateMetrics,
) {
    let expected = reference.summary_csv();
    for &t in threads {
        assert_eq!(
            run(t).summary_csv(),
            expected,
            "{what} aggregates must not depend on thread count (at {t} threads)"
        );
    }
}

/// Asserts that `winner` missed a smaller share of its deadlines than
/// `loser`.
pub fn assert_fewer_misses(
    winner_name: &str,
    winner: &AggregateMetrics,
    loser_name: &str,
    loser: &AggregateMetrics,
) {
    assert!(
        winner.miss_ratio() < loser.miss_ratio(),
        "{winner_name} must cut the fleet miss rate of {loser_name} ({:.5} vs {:.5})",
        winner.miss_ratio(),
        loser.miss_ratio()
    );
}

/// The point of the rebalancer, asserted on the built-in scenarios:
/// measured feedback beats the frozen nominal plan, and does so by
/// migrating.
pub fn assert_feedback_wins(frozen: &AggregateMetrics, feedback: &AggregateMetrics) {
    assert_fewer_misses("feedback", feedback, "static placement", frozen);
    assert!(
        feedback.rebalance.moves >= 1,
        "the built-in scenario must trigger migrations"
    );
}
