//! Decision journal: record, replay-verify, and what-if counterfactuals.
//!
//! The acceptance experiment of `selftune_journal`:
//!
//! 1. **Record** the canonical skewed-overload fleet (or the `--scenario`
//!    file) into a decision journal.
//! 2. **Codec** — the text form must round-trip exactly.
//! 3. **Replay** — a `Replayer` at 1, 2 and 8 threads must reproduce the
//!    live aggregates byte for byte from the journal alone.
//! 4. **What-if** — swap one policy from a cut epoch and diff outcomes.
//!    For the built-in scenario the `disable_rebalance` counterfactual
//!    must byte-match a live run with the rebalancer starved (the journal
//!    answers "what without feedback?" *exactly*, not approximately), and
//!    its miss rate must be strictly worse than the factual run — the
//!    recorded analogue of the static-vs-feedback gap asserted by
//!    `cluster_rebalance`.
//!
//! Returns the what-if table (`journal_whatif.csv`) and honours
//! `--journal FILE` by writing the recorded journal itself.

use crate::{fmt, plain, Args, Table};
use selftune_cluster::prelude::*;
use selftune_journal::prelude::*;

/// The canonical skewed-overload fleet with the feedback rebalancer on
/// (shared with `cluster_rebalance` and `tests/cluster_rebalance_e2e.rs`).
fn builtin_scenario() -> ScenarioSpec {
    ScenarioSpec::skewed_overload_demo(4, 12).with_rebalance(ScenarioSpec::demo_rebalance())
}

/// One what-if row: label, query, report.
fn whatif_row(journal: &Journal, whatif: &WhatIf) -> Vec<String> {
    let report = run_whatif(journal, whatif, 2);
    let (b, v) = (&report.baseline, &report.variant);
    vec![
        whatif.swap.label().to_owned(),
        whatif.cut_epoch.to_string(),
        fmt(b.miss_ratio(), 4),
        fmt(v.miss_ratio(), 4),
        fmt(report.miss_delta(), 4),
        b.rebalance.moves.to_string(),
        v.rebalance.moves.to_string(),
    ]
}

/// Runs the record → verify → what-if pipeline.
///
/// The hard claims (replay byte-identity at 1/2/8 threads, codec
/// round-trip, counterfactual exactness) are asserted on every run; the
/// miss-rate-worsens claim only on the built-in scenario — an arbitrary
/// `--scenario` file carries no guarantee that feedback wins.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Journal what-if: record, replay, counterfactual ==");
    let file_spec = args.scenario_spec();
    let builtin = file_spec.is_none();
    let spec = file_spec.unwrap_or_else(builtin_scenario);

    // 1. Record.
    let (live, journal) = Journal::record(2, &spec, args.seed);
    println!(
        "recorded {} decision records over {} rebalance epochs (miss ratio {:.4})",
        journal.records.len(),
        journal.epochs(),
        live.miss_ratio()
    );
    args.write_journal(&journal);

    // 2. Codec round-trip.
    let text = journal.to_text();
    let reloaded = Journal::from_text(&text).unwrap_or_else(|e| panic!("journal reload: {e}"));
    assert_eq!(reloaded, journal, "journal text must round-trip exactly");
    assert_eq!(
        reloaded.to_text(),
        text,
        "journal text must be a fixed point"
    );

    // 3. Replay divergence check at 1, 2 and 8 threads.
    for threads in [1usize, 2, 8] {
        let replayed = Replayer::new(threads)
            .verify(&reloaded)
            .unwrap_or_else(|e| panic!("replay diverged at {threads} threads: {e}"));
        assert_eq!(replayed.summary_csv(), live.summary_csv());
        println!("replay @ {threads} threads: byte-identical");
    }

    // 4. What-if queries; `--fast` asks only the first.
    let mid = journal.epochs() / 2;
    let whatif = |cut_epoch, swap| WhatIf { cut_epoch, swap };
    let without_rebalancer = whatif(0, PolicySwap::DisableRebalance);
    // The node-share swaps ask how tight the per-node bounds could have
    // been over the same recorded history (safe on any journal with an
    // epoch grid — the rebalancer is on here).
    let bounds = |floor, cap| PolicySwap::NodeShareBounds { floor, cap };
    let queries = [
        without_rebalancer,
        whatif(mid, PolicySwap::DisableRebalance),
        whatif(0, PolicySwap::Placement(PolicyKind::WorstFit)),
        whatif(0, PolicySwap::FixedShares),
        whatif(mid, bounds(0.6, 0.92)),
        whatif(mid, bounds(0.5, 0.8)),
    ];
    let mut table = Table::new(
        "journal_whatif.csv",
        [
            plain("swap"),
            plain("cut_epoch"),
            plain("baseline_miss"),
            plain("variant_miss"),
            plain("miss_delta"),
            plain("baseline_moves"),
            plain("variant_moves"),
        ],
    );
    for query in args.sweep(&queries, 1) {
        table.row(whatif_row(&journal, query));
    }

    // Counterfactual exactness: with the cut at epoch 0 nothing is
    // pinned, so the disable-rebalance variant must byte-match a live run
    // of the swapped spec.
    let report = run_whatif(&journal, &without_rebalancer, 2);
    let swapped = variant_spec(&journal, &without_rebalancer);
    let live_variant = ClusterRunner::new(2).run(&swapped, args.seed);
    assert_eq!(
        report.variant.summary_csv(),
        live_variant.summary_csv(),
        "the counterfactual must equal a live run of the swapped spec"
    );
    assert_eq!(
        report.baseline.summary_csv(),
        live.summary_csv(),
        "the baseline must be the exact replay"
    );

    if builtin {
        // The quantitative claim on the canonical scenario: removing the
        // rebalancer loses its migrations and pays for it in misses.
        assert!(
            report.baseline.rebalance.moves >= 1,
            "the factual run must have migrated"
        );
        assert_eq!(
            report.variant.rebalance.moves, 0,
            "the counterfactual must not migrate"
        );
        assert!(
            report.miss_delta() > 0.0,
            "disabling the rebalancer must raise the miss rate ({:.4} -> {:.4})",
            report.baseline.miss_ratio(),
            report.variant.miss_ratio()
        );
        table = table.note(format!(
            "(assertions passed: replay byte-identical at 1/2/8 threads; \
             counterfactual exact; miss ratio {:.4} -> {:.4} without the rebalancer)",
            report.baseline.miss_ratio(),
            report.variant.miss_ratio()
        ));
    } else {
        table = table.note(
            "(assertions passed: replay byte-identical at 1/2/8 threads; counterfactual exact)",
        );
    }
    vec![table]
}
