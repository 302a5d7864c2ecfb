//! A follower's live mirror never outlives it.
//!
//! Alone in its test binary on purpose: the assertion is on the
//! *process's* thread count, which sibling tests would move.

#![cfg(target_os = "linux")]

use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;

/// Threads of this process, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn fifty_followers_dropped_mid_stream_leave_no_thread_behind() {
    let mut spec = ScenarioSpec::diurnal_demo(4, 8)
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
        .with_node_share(ScenarioSpec::diurnal_node_share());
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, &spec, 42, 2, Some(2));
    ClusterRunner::new(2).run_logged_with(&spec, 42, &mut shipper);
    let chunks: Vec<Vec<u8>> = std::iter::from_fn(|| rx.recv()).collect();

    let before = process_threads();
    for i in 0..50 {
        // Mirrors on 1, 2 and 3 workers, parked at a mid-stream
        // checkpoint with half the run still ahead of them.
        let mut follower = Follower::new(1 + i % 3);
        for chunk in &chunks {
            match follower.feed(chunk).expect("clean stream") {
                Applied::Checkpoint { cursor } if cursor >= 4 => break,
                _ => {}
            }
        }
        assert!(follower.finale().is_none(), "dropped mid-stream");
        assert!(process_threads() > before, "the mirror is a live thread");
        // A failed attach lets its mirror go the same way.
        if i == 0 {
            let mut stale = follower.last_checkpoint().expect("checkpointed").clone();
            stale.journal.seed += 1;
            assert!(Follower::from_checkpoint(&stale, 2).is_err());
        }
    }
    assert_eq!(
        process_threads(),
        before,
        "every dropped follower stopped and joined its mirror"
    );
}
