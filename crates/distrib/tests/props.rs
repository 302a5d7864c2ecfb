//! Property-based tests for the replication stream.
//!
//! One invariant, stated three times:
//!
//! * **No silent divergence** — whatever a faulty transport does to the
//!   chunk stream (drop, duplicate, reorder, truncate mid-frame, or all
//!   at once), every fault the follower sees surfaces as a *named*
//!   [`StreamError`]; a fault never corrupts the replica. After one
//!   clean retransmission of the suffix the follower is missing
//!   (`Shipper::frames_from`), the replica's final aggregates equal the
//!   leader's byte for byte.
//! * **Checkpoint resume converges** — a brand-new follower attached
//!   from whatever checkpoint the faulty pass managed to verify, fed the
//!   retained frames from that point, converges to the same bytes.
//!
//! * **A faulted feed moves nothing; an accepted one ranks down** — the
//!   live mirror's epoch cursor and the rebalance passes in the
//!   follower's journal agree after every single `feed` call and advance
//!   together by exactly one on an accepted epoch batch. Lag against the
//!   leader is the ranking function of catch-up: every accepted frame
//!   lowers its frame count by exactly one and raises neither its epochs
//!   nor its records; a faulted feed leaves all three where they stood.
//!
//! The leader run is fault-independent, so it is executed once and
//! shared across cases; each case only varies the fault pattern.

use std::sync::OnceLock;

use proptest::prelude::*;
use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;

/// Diurnal wave + flash crowd with all three control planes on, small
/// enough to mirror at property-test case counts.
fn composed_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(3, 6)
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
        .with_node_share(ScenarioSpec::diurnal_node_share());
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    spec
}

struct LeaderRun {
    summary: String,
    shipper: Shipper<ChannelTransport>,
    chunks: Vec<Vec<u8>>,
}

/// The shared leader run: shipped once with checkpoints every 2 epochs.
fn leader() -> &'static LeaderRun {
    static RUN: OnceLock<LeaderRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let spec = composed_spec();
        let (tx, mut rx) = ChannelTransport::pair();
        let mut shipper = Shipper::new(tx, &spec, 42, 2, Some(2));
        let metrics = ClusterRunner::new(2).run_logged_with(&spec, 42, &mut shipper);
        let chunks = std::iter::from_fn(|| rx.recv()).collect();
        LeaderRun {
            summary: metrics.summary_csv(),
            shipper,
            chunks,
        }
    })
}

/// Replays the leader's chunk stream through a fault-injecting transport
/// chain and returns what comes out the far end.
fn faulted_stream(
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    swap_rate: f64,
    cut_rate: f64,
) -> Vec<Vec<u8>> {
    let (tx, mut rx) = ChannelTransport::pair();
    let lossy = LossyTransport::new(tx, seed, drop_rate);
    let dup = DuplicatingTransport::new(lossy, seed.wrapping_add(1), dup_rate);
    let cut = TruncatingTransport::new(dup, seed.wrapping_add(2), cut_rate);
    let mut reorder = ReorderTransport::new(cut, seed.wrapping_add(3), swap_rate);
    for chunk in &leader().chunks {
        reorder.send(chunk.clone());
    }
    std::iter::from_fn(|| rx.recv()).collect()
}

/// Feeds chunks, asserting every rejection is a named *transport* fault —
/// a protocol violation or divergence here would mean a fault corrupted
/// the replica instead of being caught.
fn feed_all(follower: &mut Follower, chunks: &[Vec<u8>]) {
    for chunk in chunks {
        match follower.feed(chunk) {
            Ok(_) => {}
            Err(StreamError::Frame(_))
            | Err(StreamError::Gap { .. })
            | Err(StreamError::Duplicate { .. }) => {}
            Err(e) => panic!("transport fault surfaced as {e} — replica state was corrupted"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn faults_are_named_and_retransmission_converges(
        seed in 0u64..1_000,
        drop_rate in 0.0f64..0.4,
        dup_rate in 0.0f64..0.4,
        swap_rate in 0.0f64..0.4,
        cut_rate in 0.0f64..0.4,
        threads in 1usize..4,
    ) {
        let run = leader();
        let faulty = faulted_stream(seed, drop_rate, dup_rate, swap_rate, cut_rate);
        let mut follower = Follower::new(threads);
        feed_all(&mut follower, &faulty);

        // The replica is either already complete or cleanly resumable:
        // one retransmission of the missing suffix finishes the stream.
        if follower.finale().is_none() {
            let resume_from = follower.expected_seq();
            for chunk in run.shipper.frames_from(resume_from) {
                follower
                    .feed(chunk)
                    .unwrap_or_else(|e| {
                        panic!("clean retransmission from seq {resume_from} rejected: {e}")
                    });
            }
        }
        let finale = follower.finale().expect("stream complete after retransmission");
        prop_assert_eq!(
            &finale.summary_csv(),
            &run.summary,
            "replica diverged from the leader after faults + retransmission"
        );
        // Bookkeeping is consistent: everything the transport mangled
        // was counted, and the happy path applied every frame once.
        let stats = follower.stats();
        prop_assert_eq!(stats.applied, run.shipper.progress().frames);
        prop_assert_eq!(stats.divergences, 0);
        let lag = follower.lag(&run.shipper.progress());
        prop_assert_eq!((lag.epochs, lag.records, lag.frames), (0, 0, 0));
    }

    #[test]
    fn a_faulted_feed_never_advances_the_mirror(
        seed in 0u64..1_000,
        drop_rate in 0.0f64..0.4,
        dup_rate in 0.0f64..0.4,
        swap_rate in 0.0f64..0.4,
        cut_rate in 0.0f64..0.4,
        threads in 1usize..4,
    ) {
        let run = leader();
        let progress = run.shipper.progress();
        let decisions = ClusterRunner::epoch_ends(&composed_spec()).len() - 1;
        // Where the replica stands, by its two owners: the mirror's
        // released boundaries and the rebalance passes in its journal (one
        // per decision epoch; the horizon's batch carries none).
        let passes = |f: &Follower| {
            f.journal().map_or(0, |j| {
                j.records
                    .iter()
                    .filter(|r| matches!(r, FleetEvent::Rebalance { .. }))
                    .count()
            })
        };
        let mut follower = Follower::new(threads);
        let faulty = faulted_stream(seed, drop_rate, dup_rate, swap_rate, cut_rate);
        let mut wire = faulty.iter();
        while follower.finale().is_none() {
            // The faulty pass first, then retransmission one frame at a
            // time from wherever the replica stands.
            let chunk = match wire.next() {
                Some(chunk) => chunk,
                None => &run.shipper.frames_from(follower.expected_seq())[0],
            };
            let (cursor, before) = (follower.epochs_applied(), follower.lag(&progress));
            let fed = follower.feed(chunk);
            let (mirror, after) = (follower.epochs_applied(), follower.lag(&progress));
            let advanced = matches!(fed, Ok(Applied::Epoch { .. }));
            prop_assert_eq!(mirror, cursor + usize::from(advanced));
            prop_assert_eq!(passes(&follower), mirror.min(decisions), "mirror and journal disagree");
            if fed.is_ok() {
                prop_assert_eq!(after.frames + 1, before.frames, "an accepted frame ranks down by one");
                prop_assert!(after.epochs <= before.epochs, "accepted frame raised epoch lag");
                prop_assert!(after.records <= before.records, "accepted frame raised record lag");
            } else {
                prop_assert_eq!(after, before, "a faulted feed moved the lag");
            }
        }
        prop_assert_eq!(
            &follower.finale().expect("loop exit").summary_csv(),
            &run.summary
        );
    }

    #[test]
    fn checkpoint_resume_converges_after_faults(
        seed in 0u64..1_000,
        drop_rate in 0.0f64..0.3,
        cut_rate in 0.0f64..0.3,
        threads in 1usize..4,
    ) {
        let run = leader();
        // A lossy first pass: whatever checkpoint it verifies becomes the
        // durable resume point.
        let faulty = faulted_stream(seed, drop_rate, 0.0, 0.0, cut_rate);
        let mut first = Follower::new(threads);
        feed_all(&mut first, &faulty);
        // When the faults ate every checkpoint frame there is nothing to
        // resume from; the retransmission property above covers that.
        prop_assume!(first.last_checkpoint().is_some());
        // Durability round-trip, then attach a fresh follower and replay
        // only the retained suffix.
        let text = first.last_checkpoint().expect("checked").to_text();
        let ckpt = Checkpoint::from_text(&text).expect("checkpoint text parses");
        let mut joiner =
            Follower::from_checkpoint(&ckpt, threads).expect("checkpoint verifies");
        for chunk in run.shipper.frames_from(ckpt.next_seq) {
            joiner
                .feed(chunk)
                .unwrap_or_else(|e| panic!("resume feed rejected: {e}"));
        }
        prop_assert_eq!(
            &joiner.finale().expect("resumed stream completes").summary_csv(),
            &run.summary,
            "checkpoint-resumed replica diverged from the leader"
        );
    }
}
