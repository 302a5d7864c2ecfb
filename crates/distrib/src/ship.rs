//! The leader side: a [`JournalSink`] that frames decision batches onto
//! a [`Transport`] as the run executes.
//!
//! The [`Shipper`] plugs straight into
//! `ClusterRunner::run_logged_with` — the runner calls it at every
//! epoch barrier with that epoch's decision batch (already in canonical
//! order within the batch), at every checkpoint boundary with the
//! interim aggregates, and once at the end with the finale. Each
//! callback becomes exactly one frame whose payload
//! `selftune_journal::codec` writes straight from the borrowed events,
//! so the wire stream *is* the journal, chunked: a follower that
//! concatenates the record payloads and re-sorts holds the same bytes
//! `Journal::record` would have written.
//!
//! Sent frames are retained in order. After a follower reconnects from
//! a checkpoint it asks for [`Shipper::frames_from`] and replays the
//! suffix — retransmission needs no journal re-read and no run re-run.

use selftune_cluster::events::JournalSink;
use selftune_cluster::{AdmissionStats, AggregateMetrics, FleetEvent, ScenarioSpec};
use selftune_journal::codec;
use selftune_simcore::time::Time;

use crate::checkpoint::Mark;
use crate::frame::{fnv1a64, Frame, FrameKind};
use crate::transport::Transport;
use crate::WIRE_VERSION;

/// How far the leader's stream has progressed — the reference point
/// follower lag is measured against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShipperProgress {
    /// Frames sent (including Hello/Plan/Checkpoint/Finish).
    pub frames: u64,
    /// Decision records shipped across Plan and Records frames.
    pub records: u64,
    /// Epoch batches shipped.
    pub epochs: usize,
    /// Checkpoints shipped.
    pub checkpoints: usize,
    /// Whether the Finish frame went out.
    pub finished: bool,
}

/// Streams a run's decision journal over a transport, frame by frame.
pub struct Shipper<T: Transport> {
    transport: T,
    checkpoint_every: Option<usize>,
    /// Every encoded frame, in seq order — the retransmission buffer.
    sent: Vec<Vec<u8>>,
    progress: ShipperProgress,
}

impl<T: Transport> Shipper<T> {
    /// Creates the shipper and immediately sends the Hello frame
    /// (stream header + full scenario text), so a follower can plan
    /// before the first decision arrives.
    pub fn new(
        transport: T,
        spec: &ScenarioSpec,
        seed: u64,
        threads: usize,
        checkpoint_every: Option<usize>,
    ) -> Shipper<T> {
        let mut hello = format!(
            "version = {WIRE_VERSION}\nseed = {seed}\nthreads = {threads}\ncheckpoint_every = {}\n",
            match checkpoint_every {
                Some(n) => n.to_string(),
                None => "-".to_owned(),
            }
        );
        codec::push_block(&mut hello, "scenario", &spec.to_text());
        let mut shipper = Shipper {
            transport,
            checkpoint_every,
            sent: Vec::new(),
            progress: ShipperProgress::default(),
        };
        shipper.ship(FrameKind::Hello, hello);
        shipper
    }

    /// Where the stream stands.
    pub fn progress(&self) -> ShipperProgress {
        self.progress
    }

    /// The encoded frames from sequence number `seq` onwards — what a
    /// follower resuming from a checkpoint replays after reconnecting.
    pub fn frames_from(&self, seq: u64) -> &[Vec<u8>] {
        &self.sent[(seq as usize).min(self.sent.len())..]
    }

    fn ship(&mut self, kind: FrameKind, payload: String) {
        let frame = Frame {
            seq: self.progress.frames,
            kind,
            payload,
        };
        let chunk = frame.encode();
        self.sent.push(chunk.clone());
        self.transport.send(chunk);
        self.progress.frames += 1;
    }
}

impl<T: Transport> JournalSink for Shipper<T> {
    fn checkpoint_interval(&self) -> Option<usize> {
        self.checkpoint_every
    }

    fn on_plan(&mut self, admission: &AdmissionStats, events: &[FleetEvent]) {
        let mut payload = String::new();
        codec::push_admission(&mut payload, admission);
        codec::push_records(&mut payload, events);
        self.progress.records += events.len() as u64;
        self.ship(FrameKind::Plan, payload);
    }

    fn on_checkpoint(&mut self, cursor: usize, at: Time, interim: &AggregateMetrics) {
        let summary = interim.summary_csv();
        let mut payload = String::new();
        Mark::push(&mut payload, cursor, at, fnv1a64(summary.as_bytes()));
        codec::push_block(&mut payload, "summary", &summary);
        self.progress.checkpoints += 1;
        self.ship(FrameKind::Checkpoint, payload);
    }

    fn on_epoch(&mut self, epoch: usize, at: Time, events: &[FleetEvent]) {
        let mut payload = format!("epoch = {epoch}\nat = {}\n", at.as_ns());
        codec::push_records(&mut payload, events);
        self.progress.records += events.len() as u64;
        self.progress.epochs += 1;
        self.ship(FrameKind::Records, payload);
    }

    fn on_finish(&mut self, finale: &AggregateMetrics) {
        let mut payload = String::new();
        codec::push_block(&mut payload, "summary", &finale.summary_csv());
        self.progress.finished = true;
        self.ship(FrameKind::Finish, payload);
    }
}
