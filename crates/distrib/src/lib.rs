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
//!   follower stages, one `stage × frame kind → stage | StreamError` table:
//!     AwaitHello ─Hello→ Attached ─Plan→ Following ─Finish→ Finished
//!     (Records and Checkpoint keep Following; every other pair is a named
//!     Protocol error — a frame after Finish included)
//!   follower at Plan:
//!     one live mirror — plan_fleet_pinned + the ordinary epoch loop on a
//!     thread the follower owns, parked at the first boundary whose frame
//!     has not arrived
//!   follower at Records(e):     release boundary e's decision to it
//!   follower at Checkpoint(c):  hash check, then the interim the parked
//!     run reduces at c ══ leader interim bytes
//!   follower at Finish:         the run's finale ══ leader finale bytes
//!   follower at leader death:
//!     promote() = the same run, received epochs pinned, live beyond
//!               ══ the uninterrupted run, byte for byte
//! ```
//!
//! The stream is the journal, chunked: every payload and checkpoint
//! file is written and parsed by `selftune_journal::codec`. The mirror is
//! the runner's own pinned run behind its `PinSource` seam, so following
//! a stream costs one run — linear in its epochs, whatever the checkpoint
//! cadence — and a follower holds one resident fleet until that run ends
//! or the follower is dropped (which stops and joins it). This crate adds
//! framing, sequencing, the protocol state machine and that one thread —
//! no second codec, no second simulator. `Journal::reexecute` /
//! `Journal::verify` (re-simulation from t = 0) stay what
//! [`Checkpoint::verify`] and the differential tests use.
//!
//! * [`frame`] — the wire format: length-prefixed, CRC-checked chunks
//!   with journal-codec text payloads; truncation and corruption are
//!   named [`frame::FrameError`]s, never silent.
//! * [`transport`] — the [`Transport`] trait, the in-process
//!   [`ChannelTransport`], and deterministic lossy / duplicating /
//!   reordering / truncating fault wrappers for the property tests.
//! * [`ship`] — the leader side: a [`JournalSink`](selftune_cluster::JournalSink)
//!   that frames each epoch's decision batch as it happens and retains
//!   sent frames for reconnect replay.
//! * [`follower`] — the standby: strict in-sequence apply through the
//!   stage table, named [`StreamError`]s for every fault (a dead mirror
//!   included), the live mirror byte-compared against the leader's
//!   interim summaries and finale, lag metrics, and [`Follower::promote`].
//! * [`checkpoint`] — durable [`Checkpoint`] text files a late joiner
//!   attaches from, checked against a fresh mirror before any state is
//!   adopted.
//!
//! ## Why decisions, not state
//!
//! The stream carries the *decisions* (admissions, grants, migrations,
//! re-bounds) rather than node state. The simulation is deterministic
//! given those decisions, so the follower reconstructs bit-exact state
//! at any thread count by executing pinned to the stream as it arrives —
//! the same property the journal's replay engine enforces, incremental. A
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
mod mirror;
pub mod ship;
pub mod transport;

/// Version of the wire protocol this crate speaks (the Hello frame
/// carries it; mismatches are rejected).
pub(crate) const WIRE_VERSION: u32 = 1;

pub use checkpoint::Checkpoint;
pub use follower::{Applied, Follower, StreamError};
pub use frame::{crc32, fnv1a64, Frame, FrameKind};
pub use ship::Shipper;
pub use transport::{
    ChannelTransport, DuplicatingTransport, LossyTransport, ReorderTransport, Transport,
    TruncatingTransport,
};

/// One-stop imports for replication experiments.
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::follower::{Applied, Follower, StreamError};
    pub use crate::frame::{Frame, FrameKind};
    pub use crate::ship::Shipper;
    pub use crate::transport::{
        ChannelTransport, DuplicatingTransport, LossyTransport, ReorderTransport, Transport,
        TruncatingTransport,
    };
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
        // Caught up means zero lag for a joiner too: frames are measured
        // against the stream position, not the count it applied itself,
        // and the checkpoint it attached from is one it verified.
        assert_eq!(
            joiner.lag(&shipper.progress()),
            crate::follower::Lag {
                epochs: 0,
                records: 0,
                frames: 0
            }
        );
        assert!(joiner.stats().applied < shipper.progress().frames);
        let suffix_checkpoints = shipper
            .frames_from(parsed.next_seq)
            .iter()
            .filter(|c| Frame::decode(c).expect("clean chunk").kind == FrameKind::Checkpoint)
            .count();
        assert_eq!(joiner.stats().checkpoints, 1 + suffix_checkpoints);
    }

    #[test]
    fn a_diverged_checkpoint_stays_diverged_without_asking_the_mirror_again() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        // Corrupt the leader's interim summary but keep the header hash
        // honest, so the byte comparison — not the hash — is what fails.
        let (i, frame) = chunks
            .iter()
            .map(|c| Frame::decode(c).expect("clean chunk"))
            .enumerate()
            .find(|(_, f)| f.kind == FrameKind::Checkpoint)
            .expect("stream checkpoints");
        let begin = frame.payload.find("summary_begin").expect("summary block");
        let digit = begin
            + frame.payload[begin..]
                .find(|c: char| c.is_ascii_digit())
                .expect("a number in the summary");
        let mut payload = frame.payload.clone();
        let flipped = if &payload[digit..=digit] == "1" {
            "2"
        } else {
            "1"
        };
        payload.replace_range(digit..=digit, flipped);
        let body_at = payload.find("summary_begin\n").expect("block") + "summary_begin\n".len();
        let body_end = payload.find("summary_end").expect("block end");
        let hash = crate::frame::fnv1a64(&payload.as_bytes()[body_at..body_end]);
        let hash_line = payload
            .lines()
            .find(|l| l.starts_with("hash = "))
            .expect("hash header")
            .to_owned();
        let payload = payload.replacen(&hash_line, &format!("hash = {hash:016x}"), 1);
        let bad = Frame { payload, ..frame }.encode();

        let mut follower = Follower::new(2);
        for chunk in &chunks[..i] {
            follower.feed(chunk).expect("prefix applies");
        }
        let first = follower.feed(&bad).expect_err("summary differs");
        assert!(
            matches!(&first, StreamError::Divergence(m) if m.contains("diverged at summary line")),
            "{first}"
        );
        // Same frame, same verdict — answered from the interim the mirror
        // already reduced (it is parked past that question by now).
        assert_eq!(follower.feed(&bad), Err(first));
        assert_eq!(follower.stats().divergences, 2);
        assert_eq!(follower.stats().checkpoints, 0);
        // The fault left replica and mirror where they stood: the honest
        // frame verifies and the stream completes.
        for chunk in &chunks[i..] {
            follower.feed(chunk).expect("clean retransmission applies");
        }
        assert!(follower.finale().is_some());
    }

    #[test]
    fn a_dead_mirror_is_a_named_divergence_never_a_hang() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(2);
        follower.feed(&chunks[0]).expect("hello");
        follower.feed(&chunks[1]).expect("plan");
        follower.doom_mirror("node 3 published no feedback");
        // Batches still apply (the replica's journal does not need the
        // mirror); the first frame that has to wait on it gets the name.
        let mut verdict = None;
        for chunk in &chunks[2..] {
            match follower.feed(chunk) {
                Ok(Applied::Epoch { .. }) => {}
                other => {
                    verdict = Some((chunk, other));
                    break;
                }
            }
        }
        let (chunk, verdict) = verdict.expect("stream checkpoints");
        let want = "mirror stopped: node 3 published no feedback";
        assert_eq!(verdict, Err(StreamError::Divergence(want.to_owned())));
        assert_eq!(
            follower.feed(chunk),
            Err(StreamError::Divergence(want.to_owned()))
        );
        assert_eq!(follower.promote().map(|_| ()), Err(want.to_owned()));
    }

    #[test]
    fn promotion_is_final_and_repeatable() {
        let spec = composed_spec();
        let (leader, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(2);
        assert!(
            follower.promote().is_err(),
            "nothing to promote before Hello"
        );
        follower.feed(&chunks[0]).expect("hello");
        assert!(
            follower.promote().is_err(),
            "nothing to promote before Plan"
        );
        for chunk in &chunks[1..6] {
            follower.feed(chunk).expect("prefix applies");
        }
        let promoted = follower.promote().expect("promotable");
        assert_eq!(promoted.summary_csv(), leader.summary_csv());
        let again = follower.promote().expect("still promoted");
        assert_eq!(again.summary_csv(), promoted.summary_csv());
        // The replica leads now; the old leader's stream is refused, in
        // sequence or not, and changes nothing.
        let applied = follower.stats().applied;
        for chunk in [&chunks[6], &chunks[0]] {
            match follower.feed(chunk) {
                Err(StreamError::Protocol(msg)) => assert!(msg.contains("promoted"), "{msg}"),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        assert_eq!(follower.stats().applied, applied);
        assert_eq!(follower.expected_seq(), 6);
    }

    #[test]
    fn every_frame_after_finish_is_refused_by_name() {
        let spec = composed_spec();
        let (leader, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(2);
        for chunk in &chunks {
            follower.feed(chunk).expect("clean stream");
        }
        let before = follower.stats();
        let seq = follower.expected_seq();
        // In sequence after the finale: the Finish again, a Finish with one
        // summary byte forged, and a Hello.
        let finish = Frame::decode(chunks.last().expect("non-empty")).expect("clean chunk");
        let begin = finish.payload.find("summary_begin").expect("summary block");
        let digit = begin
            + finish.payload[begin..]
                .find(|c: char| c.is_ascii_digit())
                .expect("a number in the summary");
        let mut forged = finish.payload.clone();
        let flipped = if &forged[digit..=digit] == "1" {
            "2"
        } else {
            "1"
        };
        forged.replace_range(digit..=digit, flipped);
        let hello = Frame::decode(&chunks[0]).expect("clean chunk");
        for (kind, payload) in [
            (FrameKind::Finish, finish.payload.clone()),
            (FrameKind::Finish, forged),
            (FrameKind::Hello, hello.payload),
        ] {
            match follower.feed(&Frame { seq, kind, payload }.encode()) {
                Err(StreamError::Protocol(msg)) => {
                    assert!(msg.contains(&format!("{kind:?} after Finish")), "{msg}")
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        let stats = follower.stats();
        assert_eq!(stats.dropped, before.dropped + 3);
        assert_eq!(stats.applied, before.applied);
        assert_eq!(stats.divergences, before.divergences);
        assert_eq!(follower.expected_seq(), seq);
        assert_eq!(
            follower.finale().expect("finished").summary_csv(),
            leader.summary_csv()
        );
        let promoted = follower.promote().expect("a finished replica promotes");
        assert_eq!(promoted.summary_csv(), leader.summary_csv());
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
    fn horizon_or_misdated_checkpoint_cursor_gets_one_answer_from_both_verifiers() {
        let spec = composed_spec();
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let mut follower = Follower::new(2);
        for chunk in &chunks {
            follower.feed(chunk).expect("clean stream");
        }
        let good = follower.last_checkpoint().expect("stored").clone();
        let ends = ClusterRunner::epoch_ends(&spec);
        // The horizon has the finale, never an interim: no leader ever
        // reported the state a prefix stopped there would reduce.
        let horizon = crate::checkpoint::Checkpoint {
            cursor: ends.len() - 1,
            at: ends[ends.len() - 1],
            ..good.clone()
        };
        // A real boundary, dated at another one's instant.
        let misdated = crate::checkpoint::Checkpoint {
            at: ends[good.cursor - 1],
            ..good.clone()
        };
        for (bad, why) in [(horizon, "where no interim exists"), (misdated, "is dated")] {
            let alone = bad.verify(2).expect_err("refused stand-alone");
            assert!(alone.contains(why), "unnamed error: {alone}");
            let attached = Follower::from_checkpoint(&bad, 2).map(|_| ());
            assert_eq!(Err(alone), attached, "two verifiers, one answer");
        }
        good.verify(2).expect("the recorded checkpoint verifies");
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

        // `at` is checked against the scenario's own grid, for batches and
        // checkpoints alike, and a refusal names both instants.
        let (_, _, chunks) = ship_run(&spec, 42, 2, Some(2));
        let ends = ClusterRunner::epoch_ends(&spec);
        let mut follower = Follower::new(1);
        let mut refused = (false, false);
        for chunk in &chunks {
            let frame = Frame::decode(chunk).expect("clean chunk");
            let fresh = match frame.kind {
                FrameKind::Records => !std::mem::replace(&mut refused.0, true),
                FrameKind::Checkpoint => !std::mem::replace(&mut refused.1, true),
                _ => false,
            };
            if fresh {
                let at_line = frame
                    .payload
                    .lines()
                    .find(|l| l.starts_with("at = "))
                    .expect("at header")
                    .to_owned();
                let payload = frame.payload.replacen(&at_line, "at = 12345", 1);
                let epoch = follower.epochs_applied();
                match follower.feed(&Frame { payload, ..frame }.encode()) {
                    Err(StreamError::Protocol(msg)) => assert!(
                        msg.contains("12345 ns")
                            && msg.contains(&format!("{} ns", ends[epoch].as_ns())),
                        "{msg}"
                    ),
                    other => panic!("expected a protocol error, got {other:?}"),
                }
                assert_eq!(follower.epochs_applied(), epoch, "mirror not advanced");
            }
            follower.feed(chunk).expect("clean retransmission applies");
        }
        assert_eq!(refused, (true, true));

        // No interim exists at the horizon boundary, whatever a Checkpoint
        // frame there claims; and Finish cannot overtake an epoch batch.
        let last = boundaries - 1;
        let mut follower = Follower::new(1);
        for chunk in &stream[..stream.len() - 1] {
            follower.feed(chunk).expect("clean stream");
        }
        assert_eq!(follower.epochs_applied(), last);
        let seq = follower.expected_seq();
        let horizon_ckpt = Frame {
            seq,
            kind: FrameKind::Checkpoint,
            payload: format!(
                "cursor = {last}\nat = {}\nhash = {:016x}\nsummary_begin\nsummary_end\n",
                ends[last].as_ns(),
                crate::frame::fnv1a64(b"")
            ),
        };
        match follower.feed(&horizon_ckpt.encode()) {
            Err(StreamError::Protocol(msg)) => assert!(msg.contains("horizon"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let early = Frame {
            seq,
            ..Frame::decode(finish).expect("clean chunk")
        };
        match follower.feed(&early.encode()) {
            Err(StreamError::Protocol(msg)) => assert!(msg.contains("epoch batches"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        follower
            .feed(stream.last().expect("horizon batch"))
            .expect("the horizon's batch still applies");
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
