//! Journal e2e: the checked-in million-task-shaped fixture replays byte
//! for byte.
//!
//! `examples/milliontask.journal` is a recorded run of the milliontask
//! demo at *fixture scale* — 2 000 nodes and 2 000 honest tasks plus the
//! liar wave, feedback rebalancer on — because a journal of the full
//! million-task fleet would be gigabytes. The scenario shape (staggered
//! de-synchronised arrivals, prefix-filling liar wave, mid-flight lease
//! retirements through the task arena) is identical. Generated
//! with:
//!
//! ```bash
//! cargo run --release --bin experiment -- cluster_milliontask \
//!     --smoke --journal examples/milliontask.journal
//! ```
//!
//! It pins this PR's hot path — balanced-tree aggregate reduction,
//! task-arena retirement, the narrowed task report state — to bytes
//! recorded before any future refactor: if replay of the fixture ever
//! diverges, either the simulation's determinism or its decision logic
//! changed.

use selftune::journal::prelude::*;

fn fixture() -> Journal {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/milliontask.journal"
    ))
    .expect("checked-in milliontask journal");
    Journal::from_text(&text).expect("milliontask journal parses")
}

#[test]
fn milliontask_fixture_replays_byte_identically() {
    let journal = fixture();
    assert_eq!(journal.scenario.nodes, 2_000);
    assert!(
        journal.records.len() > 2_000,
        "fixture should hold placements and moves, got {}",
        journal.records.len()
    );

    let replayed = Replayer::new(2)
        .verify(&journal)
        .unwrap_or_else(|e| panic!("milliontask fixture diverged: {e}"));
    assert!(replayed.rebalance.moves >= 1);

    // The text form is a fixed point: re-encoding the parsed fixture
    // reproduces the file, so nobody can hand-edit it unnoticed.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/milliontask.journal"
    ))
    .unwrap();
    assert_eq!(journal.to_text(), text);
}
