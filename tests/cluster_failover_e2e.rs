//! Log-shipped replication e2e: the leader streams the composed diurnal
//! run to a hot standby, every checkpoint mirrors byte for byte at 1, 2
//! and 8 follower threads, promotion after a mid-crowd leader crash
//! loses zero decisions, and a blind cold restart pays for the same
//! crash in deadline misses.

use selftune::cluster::prelude::*;
use selftune::distrib::prelude::*;

/// The composed diurnal fleet (all three control levels closed), as in
/// the `cluster_failover` experiment.
fn composed() -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(6, 12);
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    spec.with_node_share(ScenarioSpec::diurnal_node_share())
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
}

/// Leader run with the shipper attached: aggregates plus every frame.
fn ship(spec: &ScenarioSpec) -> (AggregateMetrics, Shipper<ChannelTransport>) {
    let (tx, _rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, spec, 42, 2, Some(2));
    let leader = ClusterRunner::new(2).run_logged_with(spec, 42, &mut shipper);
    assert!(shipper.progress().finished);
    (leader, shipper)
}

#[test]
fn checkpoints_mirror_byte_identically_at_1_2_8_threads() {
    let spec = composed();
    let (leader, shipper) = ship(&spec);
    for threads in [1usize, 2, 8] {
        // Every Checkpoint frame re-executes the pinned prefix at the
        // follower's own thread count and byte-compares the mirror; a
        // mismatch would surface here as `StreamError::Divergence`.
        let mut follower = Follower::new(threads);
        for chunk in shipper.frames_from(0) {
            follower
                .feed(chunk)
                .unwrap_or_else(|e| panic!("clean stream at {threads} threads: {e}"));
        }
        let stats = follower.stats();
        assert!(stats.checkpoints >= 2, "stream carries checkpoints");
        assert_eq!(stats.divergences, 0);
        assert_eq!(
            follower.finale().expect("finished").summary_csv(),
            leader.summary_csv(),
            "replica finale must match the leader at {threads} threads"
        );
    }
}

#[test]
fn promotion_after_mid_crowd_crash_loses_zero_decisions() {
    let spec = composed();
    let (leader, shipper) = ship(&spec);
    let epochs = ClusterRunner::epoch_ends(&spec).len() - 1;
    let crash_epoch = epochs / 4; // flash-crowd onset, rebalancer not yet reacted

    // The standby saw everything up to and including the crash epoch.
    let mut standby = Follower::new(2);
    for chunk in shipper.frames_from(0) {
        match standby.feed(chunk).expect("prefix applies") {
            Applied::Epoch { epoch, .. } if epoch == crash_epoch => break,
            _ => {}
        }
    }
    assert!(
        standby.lag(&shipper.progress()).frames > 0,
        "crash is mid-stream"
    );

    // Promotion re-executes pinned-to-the-crash and decides live beyond:
    // byte-identical to the run the leader would have completed.
    let promoted = standby.promote().expect("standby promotes");
    assert_eq!(promoted.summary_csv(), leader.summary_csv());

    // The no-replica alternative: a restarted controller is blind (no
    // migrations) for an outage window right as the crowd needs moving.
    // Its journal for the window is a run of empty rebalance passes.
    let mut replica = standby.journal().expect("replica journal");
    let blind = crash_epoch + 1..crash_epoch + 4;
    let ends = ClusterRunner::epoch_ends(&spec);
    for epoch in blind.clone() {
        replica.records.push(FleetEvent::Rebalance {
            at: ends[epoch],
            epoch,
            snapshot: Vec::new(),
            moves: 0,
            failed: 0,
        });
    }
    let cold = replica
        .reexecute(2, None, Some(blind.end), None)
        .expect("full re-execution");
    assert!(
        cold.miss_ratio() > promoted.miss_ratio(),
        "cold restart must cost misses: {:.4} vs {:.4}",
        cold.miss_ratio(),
        promoted.miss_ratio()
    );
}

#[test]
fn gap_recovery_retransmits_and_converges() {
    let spec = composed();
    let (leader, shipper) = ship(&spec);
    let frames = shipper.frames_from(0);

    // Lose three frames mid-stream: the follower rejects the jump,
    // keeps its state, and asks from `expected_seq()` — exactly what
    // `frames_from` serves.
    let mut follower = Follower::new(2);
    let cut = frames.len() / 2;
    for chunk in &frames[..cut] {
        follower.feed(chunk).expect("prefix applies");
    }
    let err = follower.feed(&frames[cut + 3]).expect_err("gap detected");
    assert!(matches!(err, StreamError::Gap { expected, .. } if expected == cut as u64));

    for chunk in shipper.frames_from(follower.expected_seq()) {
        follower.feed(chunk).expect("retransmission applies");
    }
    let stats = follower.stats();
    assert_eq!(stats.gaps, 1);
    assert!(stats.retried >= 1, "the gapped chunk applied on retry");
    assert_eq!(
        follower.finale().expect("finished").summary_csv(),
        leader.summary_csv()
    );
}

#[test]
fn late_joiner_attaches_from_checkpoint() {
    let spec = composed();
    let (leader, shipper) = ship(&spec);

    // A first follower consumes everything and publishes its durable
    // resume point; text round-trip proves the checkpoint is shippable.
    let mut first = Follower::new(2);
    for chunk in shipper.frames_from(0) {
        first.feed(chunk).expect("clean stream");
    }
    let ckpt = first.last_checkpoint().expect("checkpoints on stream");
    let reloaded = Checkpoint::from_text(&ckpt.to_text()).expect("checkpoint parses");
    assert_eq!(&reloaded, ckpt);

    // A late joiner boots from the checkpoint (verifying it) and only
    // replays the suffix.
    let mut late = Follower::from_checkpoint(&reloaded, 2).expect("checkpoint verifies");
    assert!(reloaded.next_seq > 0);
    for chunk in shipper.frames_from(late.expected_seq()) {
        late.feed(chunk).expect("suffix applies");
    }
    assert_eq!(
        late.finale().expect("finished").summary_csv(),
        leader.summary_csv(),
        "late joiner converges to the leader byte for byte"
    );
}
