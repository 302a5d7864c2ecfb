//! # selftune-distrib
//!
//! Log-shipped fleet replication for the `selftune` reproduction of
//! *"Self-tuning Schedulers for Legacy Real-Time Applications"*
//! (EuroSys 2010): stream the decision journal to a hot-standby
//! follower while the leader runs, verify byte identity at checkpoints,
//! and promote the follower on leader death with zero decision loss.
//!
//! ## Architecture
//!
//! ```text
//!   leader                                      follower
//!   ClusterRunner::run_logged_with              Follower::feed
//!        │ JournalSink callbacks                     ▲
//!        ▼                                          │ chunks
//!   Shipper ──► Frame (seq, CRC32) ──► Transport ───┘
//!        │         Hello / Plan / Records /
//!        │         Checkpoint / Finish
//!        └─ retained frames ──► frames_from(seq)  (retransmission)
//!
//!   follower at Checkpoint(cursor):
//!     Journal::verify(records so far, to cursor) ══ leader interim bytes
//!   follower at leader death:
//!     promote() = Journal::reexecute(received epochs pinned, live beyond)
//!               ══ the uninterrupted run, byte for byte
//! ```
//!
//! The stream is the journal, chunked: every payload and checkpoint
//! file is written and parsed by `selftune_journal::codec`, and every
//! mirror, late-join check, end-of-stream check and promotion is
//! `Journal::verify` / `Journal::reexecute`. This crate adds framing,
//! sequencing and the protocol state machine — no second codec or replay.
//!
//! * [`frame`] — the wire format: length-prefixed, CRC-checked chunks
//!   with journal-codec text payloads; truncation and corruption are
//!   named [`FrameError`]s, never silent.
//! * [`transport`] — the [`Transport`] trait, the in-process
//!   [`ChannelTransport`], and deterministic lossy / duplicating /
//!   reordering / truncating fault wrappers for the property tests.
//! * [`ship`] — the leader side: a [`JournalSink`](selftune_cluster::JournalSink)
//!   that frames each epoch's decision batch as it happens and retains
//!   sent frames for reconnect replay.
//! * [`follower`] — the standby: strict in-sequence apply, named
//!   [`StreamError`]s for every fault, checkpoint mirroring
//!   (byte-compared against the leader's interim summary), lag metrics,
//!   and [`Follower::promote`].
//! * [`checkpoint`] — durable [`Checkpoint`] text files a late joiner
//!   attaches from, self-verifying before any state is adopted.
//!
//! ## Why decisions, not state
//!
//! The stream carries the *decisions* (admissions, grants, migrations,
//! re-bounds) rather than node state. The simulation is deterministic
//! given those decisions, so the follower reconstructs bit-exact state
//! at any thread count by re-executing pinned to the stream — the same
//! property the journal's replay engine enforces, now incremental. A
//! promoted follower therefore continues the run as if the leader had
//! never died: no state transfer, no divergence window.
//!
//! ## Example
//!
//! ```
//! use selftune_cluster::prelude::*;
//! use selftune_distrib::prelude::*;
//!
//! let spec = ScenarioSpec::diurnal_demo(3, 6)
//!     .with_rebalance(ScenarioSpec::diurnal_rebalance());
//! let (tx, mut rx) = ChannelTransport::pair();
//! let mut shipper = Shipper::new(tx, &spec, 42, 2, Some(4));
//! let leader = ClusterRunner::new(2).run_logged_with(&spec, 42, &mut shipper);
//!
//! let mut follower = Follower::new(1);
//! while let Some(chunk) = rx.recv() {
//!     follower.feed(&chunk).expect("clean wire");
//! }
//! // The replica verified the full run byte for byte.
//! assert_eq!(
//!     follower.finale().expect("finished").summary_csv(),
//!     leader.summary_csv(),
//! );
//! ```

pub mod checkpoint;
pub mod follower;
pub mod frame;
pub mod ship;
pub mod transport;

/// Version of the wire protocol this crate speaks (the Hello frame
/// carries it; mismatches are rejected).
pub const WIRE_VERSION: u32 = 1;

pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use follower::{Applied, Follower, FollowerStats, Lag, StreamError};
pub use frame::{crc32, fnv1a64, Frame, FrameError, FrameKind};
pub use ship::{Shipper, ShipperProgress};
pub use transport::{
    ChannelTransport, DuplicatingTransport, LossyTransport, ReorderTransport, Transport,
    TruncatingTransport,
};

/// One-stop imports for replication experiments.
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::follower::{Applied, Follower, FollowerStats, Lag, StreamError};
    pub use crate::frame::{Frame, FrameError, FrameKind};
    pub use crate::ship::{Shipper, ShipperProgress};
    pub use crate::transport::{
        ChannelTransport, DuplicatingTransport, LossyTransport, ReorderTransport, Transport,
        TruncatingTransport,
    };
    pub use crate::WIRE_VERSION;
}

#[cfg(test)]
mod tests {
    use selftune_cluster::prelude::*;

    use crate::follower::{Applied, Follower, StreamError};
    use crate::frame::{Frame, FrameKind};
    use crate::ship::Shipper;
    use crate::transport::{ChannelTransport, Transport};

    /// Diurnal wave + flash crowd with all three control planes on —
    /// the stream has admissions, grants, re-bounds and migrations.
    fn composed_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::diurnal_demo(4, 8)
            .with_rebalance(ScenarioSpec::diurnal_rebalance())
            .with_node_share(ScenarioSpec::diurnal_node_share());
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        spec
    }

    fn ship_run(
        spec: &ScenarioSpec,
        seed: u64,
        threads: usize,
        every: Option<usize>,
    ) -> (AggregateMetrics, Shipper<ChannelTransport>, Vec<Vec<u8>>) {
        let (tx, mut rx) = ChannelTransport::pair();
        let mut shipper = Shipper::new(tx, spec, seed, threads, every);
        let leader = ClusterRunner::new(threads).run_logged_with(spec, seed, &mut shipper);
        let chunks: Vec<Vec<u8>> = std::iter::from_fn(|| rx.recv()).collect();
        (leader, shipper, chunks)
    }

    #[test]
    fn clean_stream_replicates_byte_for_byte_with_checkpoints() {
        let spec = composed_spec();
        let (leader, shipper, chunks) = ship_run(&spec, 42, 2, Some(2));
        assert_eq!(chunks.len() as u64, shipper.progress().frames);
        assert!(shipper.progress().checkpoints >= 3, "too few checkpoints");

        // A follower on a *different* thread count mirrors exactly.
        let mut follower = Follower::new(3);
        let mut checkpoints = 0;
        for chunk in &chunks {
            if let Applied::Checkpoint { .. } =
                follower.feed(chunk).expect("clean stream must apply")
            {
                checkpoints += 1;
            }
        }
        assert_eq!(checkpoints, shipper.progress().checkpoints);
        assert_eq!(follower.stats().applied, shipper.progress().frames);
        assert_eq!(follower.stats().dropped, 0);
        assert_eq!(
            follower.finale().expect("finished").summary_csv(),
            leader.summary_csv(),
            "replica finale diverged from the leader"
        );
        // Caught up: zero lag against the leader's final position.
        let lag = follower.lag(&shipper.progress());
        assert_eq!((lag.epochs, lag.records, lag.frames), (0, 0, 0));
    }

    #[test]
    fn promotion_mid_stream_equals_the_uninterrupted_run() {
        let spec = composed_spec();
        let (leader, shipper, chunks) = ship_run(&spec, 42, 2, Some(2));
        // Kill the leader after the first few epoch batches: feed only a
        // prefix of the stream, then promote.
        for cut in [4usize, 7, 10] {
            let cut = cut.min(chunks.len() - 1);
            let mut follower = Follower::new(2);
            for chunk in &chunks[..cut] {
                follower.feed(chunk).expect("prefix applies");
            }
            assert!(follower.lag(&shipper.progress()).frames > 0);
            let promoted = follower.promote().expect("promotable");
            assert_eq!(
                promoted.summary_csv(),
                leader.summary_csv(),
                "promotion after {cut} frames diverged from the uninterrupted run"
            );
        }
    }

    #[test]
    fn tampered_records_surface_as_named_divergence_at_the_next_checkpoint() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        // Alter one *pinned decision* in a Records frame (valid CRC,
        // valid protocol — only the decision changes), so nothing but
        // checkpoint mirroring can catch it: the rebalance pass's failed
        // count, which the mirror pins and the summary reports.
        let mut tampered = None;
        for (i, chunk) in chunks.iter().enumerate() {
            let frame = Frame::decode(chunk).expect("clean chunk");
            if frame.kind != FrameKind::Records {
                continue;
            }
            if let Some(pos) = frame.payload.find(" failed=") {
                let digits_at = pos + " failed=".len();
                let digits: String = frame.payload[digits_at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                let bumped: u64 = digits.parse::<u64>().expect("failed count") + 1;
                let mut payload = frame.payload.clone();
                payload.replace_range(digits_at..digits_at + digits.len(), &bumped.to_string());
                tampered = Some((i, Frame { payload, ..frame }.encode()));
                break;
            }
        }
        let (i, bad) = tampered.expect("composed run should hold a rebalance record");
        let mut follower = Follower::new(2);
        let mut diverged = None;
        for (j, chunk) in chunks.iter().enumerate() {
            let chunk = if j == i { &bad } else { chunk };
            match follower.feed(chunk) {
                Ok(_) => {}
                Err(StreamError::Divergence(msg)) => {
                    diverged = Some(msg);
                    break;
                }
                Err(e) => panic!("expected divergence, got {e}"),
            }
        }
        let msg = diverged.expect("tampered decision must be caught at a checkpoint");
        assert!(
            msg.contains("checkpoint") || msg.contains("finish"),
            "divergence message should say where: {msg}"
        );
        assert_eq!(follower.stats().divergences, 1);
    }

    #[test]
    fn out_of_order_and_duplicate_chunks_are_named_and_state_preserving() {
        let spec = composed_spec();
        let (leader, _, chunks) = ship_run(&spec, 42, 2, None);
        let mut follower = Follower::new(1);
        follower.feed(&chunks[0]).expect("hello");
        // Skip ahead: gap named, nothing applied.
        assert!(matches!(
            follower.feed(&chunks[2]),
            Err(StreamError::Gap {
                expected: 1,
                got: 2
            })
        ));
        // Re-deliver the applied chunk: duplicate named.
        assert!(matches!(
            follower.feed(&chunks[0]),
            Err(StreamError::Duplicate {
                seq: 0,
                expected: 1
            })
        ));
        // Garbage: frame error named.
        assert!(matches!(
            follower.feed(b"not a frame"),
            Err(StreamError::Frame(_))
        ));
        // The stream still completes cleanly from where it stood — the
        // faults above left the replica untouched.
        for chunk in &chunks[1..] {
            follower.feed(chunk).expect("in-sequence after faults");
        }
        assert_eq!(
            follower.finale().expect("finished").summary_csv(),
            leader.summary_csv()
        );
        let stats = follower.stats();
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.dropped, 3);
        assert_eq!(
            stats.retried, 1,
            "chunk 2 was applied on its second attempt"
        );
    }

    #[test]
    fn late_joiner_attaches_from_a_checkpoint_and_converges() {
        let spec = composed_spec();
        let (leader, shipper, chunks) = ship_run(&spec, 42, 2, Some(2));
        // First follower consumes the stream until some checkpoint, then
        // "crashes", leaving only its durable checkpoint text behind.
        let mut first = Follower::new(2);
        let mut ckpt_text = None;
        for chunk in &chunks {
            if let Applied::Checkpoint { cursor } = first.feed(chunk).expect("applies") {
                if cursor >= 4 {
                    ckpt_text = Some(first.last_checkpoint().expect("stored").to_text());
                    break;
                }
            }
        }
        let text = ckpt_text.expect("stream should checkpoint past epoch 4");
        let parsed = crate::checkpoint::Checkpoint::from_text(&text).expect("parses");
        assert_eq!(parsed, *first.last_checkpoint().expect("stored"));

        // A brand-new follower attaches from the checkpoint and replays
        // only the retained suffix.
        let mut joiner = Follower::from_checkpoint(&parsed, 1).expect("checkpoint verifies");
        assert_eq!(joiner.expected_seq(), parsed.next_seq);
        for chunk in shipper.frames_from(parsed.next_seq) {
            joiner.feed(chunk).expect("suffix applies");
        }
        assert_eq!(
            joiner.finale().expect("finished").summary_csv(),
            leader.summary_csv(),
            "late joiner diverged from the leader"
        );
    }

    #[test]
    fn follower_journal_is_the_recorded_journal_byte_for_byte() {
        // Wire and disk are one codec: what the follower decoded off the
        // frames re-encodes to exactly the file `Journal::record` writes.
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(1);
        for chunk in &chunks {
            follower.feed(chunk).expect("clean stream");
        }
        let (_, recorded) = selftune_journal::Journal::record(2, &spec, 42);
        let replica = follower.journal().expect("finished replica");
        assert_eq!(replica.to_text(), recorded.to_text());
    }

    #[test]
    fn out_of_grid_checkpoint_cursor_is_a_named_error() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(2);
        for chunk in &chunks {
            follower.feed(chunk).expect("clean stream");
        }
        let good = follower.last_checkpoint().expect("stored").to_text();
        let cursor_line = good
            .lines()
            .find(|l| l.starts_with("cursor = "))
            .expect("cursor header");
        let bad = good.replacen(cursor_line, "cursor = 9999", 1);
        // Well-formed, so it loads — and then must be refused, not run.
        let ckpt = crate::checkpoint::Checkpoint::from_text(&bad).expect("parses");
        for threads in [1usize, 2] {
            let err = ckpt.verify(threads).expect_err("cursor past the grid");
            assert!(err.contains("epoch grid"), "unnamed error: {err}");
            assert!(Follower::from_checkpoint(&ckpt, threads).is_err());
        }
    }

    #[test]
    fn frames_past_the_grid_or_naming_unknown_ids_are_protocol_errors() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, None);
        let boundaries = ClusterRunner::epoch_ends(&spec).len();
        let (finish, stream) = chunks.split_last().expect("non-empty stream");
        let finish_seq = Frame::decode(finish).expect("clean chunk").seq;

        // Every boundary's batch applied; one more Records frame has no
        // epoch left to belong to.
        let mut follower = Follower::new(1);
        for chunk in stream {
            follower.feed(chunk).expect("clean stream");
        }
        assert_eq!(follower.epochs_applied(), boundaries);
        let extra = Frame {
            seq: finish_seq,
            kind: FrameKind::Records,
            payload: format!("epoch = {boundaries}\nat = 0\n"),
        };
        match follower.feed(&extra.encode()) {
            Err(StreamError::Protocol(msg)) => assert!(msg.contains("epoch grid"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        // The refusal left the replica intact: the real Finish verifies.
        assert_eq!(follower.feed(finish), Ok(Applied::Finish));

        // A record naming a node the scenario does not have never reaches
        // the replica (and so never reaches the runner).
        let mut follower = Follower::new(1);
        let mut refused = false;
        for chunk in stream {
            let frame = Frame::decode(chunk).expect("clean chunk");
            if !refused && frame.payload.contains(" from=") {
                let at = frame.payload.find(" from=").expect("checked") + " from=".len();
                let digits = frame.payload[at..]
                    .bytes()
                    .take_while(u8::is_ascii_digit)
                    .count();
                let mut payload = frame.payload.clone();
                payload.replace_range(at..at + digits, "99");
                let bad = Frame { payload, ..frame }.encode();
                match follower.feed(&bad) {
                    Err(StreamError::Protocol(msg)) => {
                        assert!(
                            msg.contains("out of range") && msg.contains("from=99"),
                            "{msg}"
                        )
                    }
                    other => panic!("expected a protocol error, got {other:?}"),
                }
                refused = true;
            }
            follower.feed(chunk).expect("clean retransmission applies");
        }
        assert!(refused, "composed run should migrate at least once");
    }
}
