//! Journal e2e: the checked-in 10k-node fixture replays byte for byte.
//!
//! `examples/megafleet.journal` is a recorded run of the megafleet demo
//! (10 000 nodes, 400 lying tasks, feedback rebalancer on), generated
//! with:
//!
//! ```bash
//! cargo run --release --bin experiment -- cluster_megafleet \
//!     --smoke --journal examples/megafleet.journal
//! ```
//!
//! It pins this PR's whole fleet-scale hot path — bucketed placement
//! index, arena node state, batched epoch arrivals — to bytes recorded
//! before any future refactor: if replay of the fixture ever diverges,
//! either the simulation's determinism or its decision logic changed.

use selftune::journal::prelude::*;

fn fixture() -> Journal {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/megafleet.journal"
    ))
    .expect("checked-in megafleet journal");
    Journal::from_text(&text).expect("megafleet journal parses")
}

#[test]
fn megafleet_fixture_replays_byte_identically() {
    let journal = fixture();
    assert_eq!(journal.scenario.nodes, 10_000);
    assert!(
        journal.records.len() > 400,
        "fixture should hold placements and moves, got {}",
        journal.records.len()
    );

    let replayed = Replayer::new(2)
        .verify(&journal)
        .unwrap_or_else(|e| panic!("megafleet fixture diverged: {e}"));
    assert!(replayed.rebalance.moves >= 1);

    // The text form is a fixed point: re-encoding the parsed fixture
    // reproduces the file, so nobody can hand-edit it unnoticed.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/megafleet.journal"
    ))
    .unwrap();
    assert_eq!(journal.to_text(), text);
}
