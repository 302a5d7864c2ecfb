//! Journal e2e: the checked-in composed-diurnal fixture replays byte
//! for byte.
//!
//! `examples/diurnal.journal` is a recorded run of the composed diurnal
//! fleet (6 nodes, elastic VM shares + node re-bounding + feedback
//! rebalancer), generated with:
//!
//! ```bash
//! cargo run --release --bin experiment -- cluster_diurnal \
//!     --fast --journal examples/diurnal.journal
//! ```
//!
//! It pins the three-level control plane — the decision stream the
//! `distrib` follower replicates — to bytes recorded before any future
//! refactor: if replay of the fixture ever diverges, the simulation's
//! determinism or its decision logic changed.

use selftune::journal::prelude::*;

fn fixture_text() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/diurnal.journal"
    ))
    .expect("checked-in diurnal journal")
}

#[test]
fn diurnal_fixture_replays_byte_identically() {
    let text = fixture_text();
    let journal = Journal::from_text(&text).expect("diurnal journal parses");
    assert_eq!(journal.scenario.name, "diurnal");
    assert!(journal.scenario.rebalance.enabled);
    assert!(journal.scenario.node_share.enabled);
    assert!(
        journal.records.len() > 100,
        "fixture should hold admissions, grants, re-bounds and moves, got {}",
        journal.records.len()
    );

    let replayed = Replayer::new(2)
        .verify(&journal)
        .unwrap_or_else(|e| panic!("diurnal fixture diverged: {e}"));
    assert!(replayed.rebalance.moves >= 1);

    // The text form is a fixed point: re-encoding the parsed fixture
    // reproduces the file, so nobody can hand-edit it unnoticed.
    assert_eq!(journal.to_text(), text);
}

#[test]
fn diurnal_fixture_answers_node_share_whatif() {
    let journal = Journal::from_text(&fixture_text()).expect("diurnal journal parses");
    // The node-share counterfactual this PR adds: tighter per-node bounds
    // over the same recorded history, cut mid-run.
    let whatif = WhatIf {
        cut_epoch: journal.epochs() / 2,
        swap: PolicySwap::NodeShareBounds {
            floor: 0.5,
            cap: 0.8,
        },
    };
    let report = run_whatif(&journal, &whatif, 2);
    assert_eq!(
        report.baseline.summary_csv(),
        journal.summary,
        "the baseline leg must be the exact replay"
    );
    // The variant ran under different bounds; it must still be a valid
    // full-horizon run (reduced at the same instant as the baseline).
    assert!(report.variant.miss_ratio().is_finite());
}

#[test]
fn records_naming_unknown_nodes_or_tasks_are_load_errors_not_panics() {
    // Well-formed lines that point outside the 6-node fleet: before the
    // codec checked ids against the scenario these parsed fine and then
    // indexed past the epoch leader's node table / the worker's plan.
    let text = fixture_text();
    let migration = text
        .lines()
        .find(|l| l.starts_with("migration = ") && l.contains(" vm=0 "))
        .expect("fixture migrates a task");
    for (field, bad) in [("from", "from=99"), ("id", "id=999999")] {
        let good = migration
            .split(' ')
            .find(|tok| tok.starts_with(&format!("{field}=")))
            .expect("field present");
        let corrupt = text.replacen(migration, &migration.replacen(good, bad, 1), 1);
        assert_ne!(corrupt, text);
        for threads in [1usize, 2] {
            let err = Journal::from_text(&corrupt)
                .and_then(|journal| Replayer::new(threads).verify(&journal))
                .expect_err("corrupt record must be refused");
            assert!(
                err.contains("out of range") && err.contains(bad),
                "error should name the offending line: {err}"
            );
        }
    }
}

#[test]
fn a_carried_warm_grant_the_controller_would_never_hold_replays_to_an_error() {
    // The first migration hands over `warm=8546885:41666667`. A period
    // below the supervisor's budget floor, or one past any clock, is no
    // grant a live controller holds: the destination cold-starts the
    // task instead, the replay diverges from the recorded aggregates,
    // and verification names it — no worker panics.
    let text = fixture_text();
    let good = "warm=8546885:41666667";
    assert!(text.contains(good), "fixture's first warm hand-over");
    for bad in ["warm=8546885:9999", "warm=8546885:18446744073709551615"] {
        let corrupt = text.replacen(good, bad, 1);
        let journal = Journal::from_text(&corrupt).expect("a well-formed line loads");
        for threads in [1usize, 2] {
            let err = Replayer::new(threads)
                .verify(&journal)
                .expect_err("the edited hand-over diverges");
            assert!(err.contains("diverge"), "unnamed error for {bad}: {err}");
        }
    }
}
