//! The hot-standby side: consume the replication stream, mirror the
//! leader's state, verify checkpoints byte for byte, and take over on
//! leader death.
//!
//! A [`Follower`] applies frames strictly in sequence. Every stream
//! fault is a *named* error — [`StreamError::Gap`] for lost chunks,
//! [`StreamError::Duplicate`] for re-deliveries, frame-level errors for
//! truncation and corruption, [`StreamError::Divergence`] when a
//! checkpoint mirror stops matching the leader's bytes. A faulted feed
//! leaves the follower's state untouched, so the leader can simply
//! retransmit from the follower's last good position
//! (`Shipper::frames_from`).
//!
//! The replica is *live*: when the Plan frame is applied the follower
//! starts one pinned run of the scenario at its own thread count (the
//! crate-private `mirror` module) and the stream advances it. The run
//! parks at the first epoch boundary whose frame has not arrived;
//! `Records(e)` releases boundary `e`'s decision, `Checkpoint(c)` hash-checks
//! the leader's interim summary and byte-compares it with the aggregates
//! the parked run reduces at `c`, `Finish` lets it reach the horizon and
//! byte-compares the finale. Following a stream costs one run, linear in
//! its epochs, and a follower holds one resident fleet until the run ends
//! or the follower is dropped (which stops and joins the run).
//!
//! Promotion ([`Follower::promote`]) tells that run to decide live from
//! the first boundary the stream never released — every received epoch
//! stays pinned. Because the journal pins *decisions*, not state, what it
//! finishes with is byte-identical to what the leader would have produced
//! had it kept running through the received prefix.

use std::fmt;

use selftune_cluster::runner::{interim_boundary, EpochPin, PinnedMoves, PinnedPlan};
use selftune_cluster::{
    sort_events, AdmissionStats, AggregateMetrics, ClusterRunner, FleetEvent, ScenarioSpec,
};
use selftune_journal::codec::{self, Entry, IdBounds};
use selftune_journal::record::Journal;
use selftune_journal::replay::divergence;
use selftune_simcore::metrics::{LazyKey, Metrics};
use selftune_simcore::time::Time;

use crate::checkpoint::{Checkpoint, Mark};
use crate::frame::{Frame, FrameError, FrameKind};
use crate::mirror::Mirror;
use crate::ship::ShipperProgress;
use crate::WIRE_VERSION;

/// Why a fed chunk was not applied.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// The chunk is not a valid frame (truncated, corrupt, unknown kind).
    Frame(FrameError),
    /// A sequence number was skipped — chunks were lost in transit.
    Gap {
        /// The next sequence number the follower needs.
        expected: u64,
        /// The sequence number that arrived instead.
        got: u64,
    },
    /// An already-applied sequence number arrived again.
    Duplicate {
        /// The re-delivered sequence number.
        seq: u64,
        /// The next sequence number the follower needs.
        expected: u64,
    },
    /// The frame arrived intact but violates the protocol state machine
    /// (e.g. records before the plan, a checkpoint at the wrong cursor).
    Protocol(String),
    /// The mirrored state stopped matching the leader's bytes; the
    /// message names the first mismatching summary line — or the mirror
    /// run itself ended (`mirror stopped: …`) and can match nothing.
    Divergence(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Frame(e) => write!(f, "{e}"),
            StreamError::Gap { expected, got } => {
                write!(f, "stream gap: expected seq {expected}, got {got}")
            }
            StreamError::Duplicate { seq, expected } => {
                write!(f, "duplicate seq {seq} (next expected {expected})")
            }
            StreamError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            StreamError::Divergence(msg) => write!(f, "replica divergence: {msg}"),
        }
    }
}

/// What one successfully fed chunk did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// Stream header accepted; the scenario is known.
    Hello,
    /// Plan-time decisions applied.
    Plan {
        /// Admission records in the frame.
        records: usize,
    },
    /// One epoch's decision batch applied.
    Epoch {
        /// The epoch index.
        epoch: usize,
        /// Records in the batch.
        records: usize,
    },
    /// A checkpoint arrived, the mirror matched, and it is now the
    /// follower's durable resume point.
    Checkpoint {
        /// The verified cursor.
        cursor: usize,
    },
    /// End of stream; the full replica verified byte-for-byte.
    Finish,
}

/// Stream counters — applied/dropped/retried chunks, faults by kind,
/// and replica progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Chunks applied in sequence.
    pub applied: u64,
    /// Chunks rejected (bad frames, gaps, duplicates, protocol faults).
    pub dropped: u64,
    /// Rejections that were re-deliveries of applied chunks.
    pub duplicates: u64,
    /// Rejections that skipped ahead of the expected sequence number.
    pub gaps: u64,
    /// Chunks applied on a later attempt after first being gapped over.
    pub retried: u64,
    /// Checkpoint mirrors that failed the byte comparison.
    pub divergences: u64,
    /// Decision records applied.
    pub records: u64,
    /// Epoch batches applied.
    pub epochs: usize,
    /// Checkpoints verified.
    pub checkpoints: usize,
}

/// How far the follower trails the leader's stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lag {
    /// Epoch batches the leader has shipped but the follower has not
    /// applied.
    pub epochs: usize,
    /// Decision records shipped but not applied.
    pub records: u64,
    /// Frames shipped but not applied.
    pub frames: u64,
}

/// A hot-standby replica of a leader's fleet run.
pub struct Follower {
    threads: usize,
    expected_seq: u64,
    gap_at: Option<u64>,
    scenario: Option<ScenarioSpec>,
    /// The scenario's epoch boundaries (`ClusterRunner::epoch_ends`).
    ends: Vec<Time>,
    seed: u64,
    leader_threads: usize,
    admission: Option<AdmissionStats>,
    records: Vec<FleetEvent>,
    next_epoch: usize,
    /// The live pinned run, from the Plan frame (or the attach
    /// checkpoint) on.
    mirror: Option<Mirror>,
    last_checkpoint: Option<Checkpoint>,
    finale: Option<AggregateMetrics>,
    stats: FollowerStats,
    k_lag_epochs: LazyKey,
    k_lag_records: LazyKey,
    k_applied: LazyKey,
    k_dropped: LazyKey,
    k_retried: LazyKey,
}

impl Follower {
    /// A fresh follower that will mirror on `threads` worker threads
    /// (independent of the leader's thread count — byte identity is the
    /// whole point).
    pub fn new(threads: usize) -> Follower {
        Follower {
            threads: threads.max(1),
            expected_seq: 0,
            gap_at: None,
            scenario: None,
            ends: Vec::new(),
            seed: 0,
            leader_threads: 0,
            admission: None,
            records: Vec::new(),
            next_epoch: 0,
            mirror: None,
            last_checkpoint: None,
            finale: None,
            stats: FollowerStats::default(),
            k_lag_epochs: LazyKey::new("distrib.lag.epochs"),
            k_lag_records: LazyKey::new("distrib.lag.records"),
            k_applied: LazyKey::new("distrib.chunks.applied"),
            k_dropped: LazyKey::new("distrib.chunks.dropped"),
            k_retried: LazyKey::new("distrib.chunks.retried"),
        }
    }

    /// Attaches a late joiner from a durable checkpoint: a fresh mirror
    /// is fed the embedded prefix, the interim it reduces at the cursor is
    /// byte-compared with the stored summary, and the mirror is kept —
    /// the suffix continues the same run. Nothing is adopted from a
    /// checkpoint that fails (its mirror is stopped and joined).
    ///
    /// # Errors
    ///
    /// Names the hash mismatch, a cursor past the scenario's epoch grid or
    /// on its horizon (where no interim exists), an `at` that is not the
    /// cursor's instant, or the first differing summary line.
    pub fn from_checkpoint(ckpt: &Checkpoint, threads: usize) -> Result<Follower, String> {
        ckpt.check_hash()?;
        let journal = &ckpt.journal;
        let mut f = Follower::new(threads);
        f.ends = ClusterRunner::epoch_ends(&journal.scenario);
        interim_boundary(&f.ends, ckpt.cursor, Some(ckpt.at))?;
        f.expected_seq = ckpt.next_seq;
        f.scenario = Some(journal.scenario.clone());
        f.seed = journal.seed;
        f.leader_threads = journal.threads;
        f.admission = Some(journal.admission);
        f.records = journal.records.clone();
        f.next_epoch = ckpt.cursor;
        f.stats.records = journal.records.len() as u64;
        f.stats.epochs = ckpt.cursor;
        let mirror = f.start_mirror();
        for pin in journal.pinned_moves(Some(ckpt.cursor)).epochs {
            mirror.release(pin.map_or(EpochPin::Live, EpochPin::Pinned));
        }
        matches_mirror(ckpt, mirror)?;
        f.last_checkpoint = Some(ckpt.clone());
        f.stats.checkpoints = 1;
        Ok(f)
    }

    /// Starts the live mirror from the scenario, seed, admission
    /// statistics and plan-time records adopted so far.
    fn start_mirror(&mut self) -> &Mirror {
        let spec = self.scenario.clone().expect("scenario known");
        let placements =
            PinnedPlan::from_events(&spec, self.admission.expect("plan applied"), &self.records);
        self.mirror
            .insert(Mirror::start(spec, self.seed, placements, self.threads))
    }

    /// Stream counters.
    pub fn stats(&self) -> FollowerStats {
        self.stats
    }

    /// The next frame sequence number the follower will accept.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }

    /// Epoch batches applied so far — the live mirror's epoch cursor: the
    /// boundaries whose decisions it has been released.
    pub fn epochs_applied(&self) -> usize {
        self.mirror.as_ref().map_or(0, Mirror::released)
    }

    /// The follower's durable resume point, if a checkpoint has verified.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// The verified final aggregates, once [`Applied::Finish`] has been
    /// returned.
    pub fn finale(&self) -> Option<&AggregateMetrics> {
        self.finale.as_ref()
    }

    /// How far this follower trails `leader`'s stream position.
    pub fn lag(&self, leader: &ShipperProgress) -> Lag {
        Lag {
            epochs: leader.epochs.saturating_sub(self.stats.epochs),
            records: leader.records.saturating_sub(self.stats.records),
            // Against the stream position, not the applied count: a late
            // joiner starts mid-stream and never applies the prefix.
            frames: leader.frames.saturating_sub(self.expected_seq),
        }
    }

    /// Samples lag and chunk counters into `metrics` under interned
    /// `distrib.*` keys (keys are resolved once and cached).
    pub fn observe_lag(&mut self, metrics: &mut Metrics, leader: &ShipperProgress, now: Time) {
        let lag = self.lag(leader);
        let k = self.k_lag_epochs.get(metrics);
        metrics.record_k(k, now, lag.epochs as f64);
        let k = self.k_lag_records.get(metrics);
        metrics.record_k(k, now, lag.records as f64);
        let k = self.k_applied.get(metrics);
        metrics.record_k(k, now, self.stats.applied as f64);
        let k = self.k_dropped.get(metrics);
        metrics.record_k(k, now, self.stats.dropped as f64);
        let k = self.k_retried.get(metrics);
        metrics.record_k(k, now, self.stats.retried as f64);
    }

    /// Feeds one transport chunk. Applies it if it is the next frame in
    /// sequence; otherwise reports the named fault and leaves the
    /// replica — journal and live mirror — untouched (safe to retransmit
    /// and retry). A `Checkpoint` or `Finish` chunk returns once the
    /// mirror has reached it and the bytes are compared.
    ///
    /// # Errors
    ///
    /// [`StreamError`] naming the fault: frame-level corruption, a gap,
    /// a duplicate, a protocol violation (any chunk after
    /// [`Follower::promote`] is one), or replica divergence.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Applied, StreamError> {
        if self.mirror.as_ref().is_some_and(Mirror::is_live) {
            return Err(
                self.protocol("the replica was promoted and follows no stream any more".to_owned())
            );
        }
        let frame = Frame::decode(chunk).map_err(|e| {
            self.stats.dropped += 1;
            StreamError::Frame(e)
        })?;
        if frame.seq != self.expected_seq {
            self.stats.dropped += 1;
            return Err(if frame.seq < self.expected_seq {
                self.stats.duplicates += 1;
                StreamError::Duplicate {
                    seq: frame.seq,
                    expected: self.expected_seq,
                }
            } else {
                self.stats.gaps += 1;
                self.gap_at = Some(self.expected_seq);
                StreamError::Gap {
                    expected: self.expected_seq,
                    got: frame.seq,
                }
            });
        }
        let applied = self.apply(&frame)?;
        if self.gap_at == Some(frame.seq) {
            self.stats.retried += 1;
            self.gap_at = None;
        }
        self.expected_seq = frame.seq + 1;
        self.stats.applied += 1;
        Ok(applied)
    }

    /// Continues the run *without* the leader: the live mirror keeps every
    /// received epoch pinned to the stream, decides every epoch after the
    /// cut with the follower's own control planes, and this returns what
    /// it finishes with. Because the stream pins decisions (not state),
    /// that equals the uninterrupted run byte for byte over the shared
    /// prefix — the zero-loss failover property the e2e test asserts.
    /// Promotion is final — the follower accepts no further chunk — and
    /// repeatable: a second call returns the same aggregates.
    ///
    /// # Errors
    ///
    /// If promotion is attempted before the Hello and Plan frames have
    /// been applied (the follower has nothing to continue from), or the
    /// mirror run ended without aggregates (`mirror stopped: …`).
    pub fn promote(&self) -> Result<AggregateMetrics, String> {
        if self.scenario.is_none() {
            return Err("cannot promote: no Hello frame applied (scenario unknown)".into());
        }
        let Some(mirror) = &self.mirror else {
            return Err("cannot promote: no Plan frame applied (placements unknown)".into());
        };
        mirror.outcome(true)
    }

    /// The replica's journal: scenario, seed, admission statistics and
    /// every record applied so far, in canonical order. Carries the
    /// verified finale summary once the stream has finished (an
    /// unfinished replica carries an empty summary). `None` before the
    /// Plan frame has been applied.
    pub fn journal(&self) -> Option<Journal> {
        if self.scenario.is_none() || self.admission.is_none() {
            return None;
        }
        let summary = self
            .finale
            .as_ref()
            .map(|m| m.summary_csv())
            .unwrap_or_default();
        Some(self.replica_journal(summary))
    }

    /// The replica's journal prefix in canonical record order, with
    /// `summary` substituted (checkpoints store the leader's interim
    /// summary there).
    fn replica_journal(&self, summary: String) -> Journal {
        let mut records = self.records.clone();
        sort_events(&mut records);
        Journal {
            scenario: self.scenario.clone().expect("scenario known"),
            seed: self.seed,
            threads: self.leader_threads,
            admission: self.admission.expect("plan applied"),
            summary,
            records,
        }
    }

    fn protocol(&mut self, msg: String) -> StreamError {
        self.stats.dropped += 1;
        StreamError::Protocol(msg)
    }

    fn apply(&mut self, frame: &Frame) -> Result<Applied, StreamError> {
        // The protocol state machine: one Hello, then one Plan, then the rest.
        let kind = frame.kind;
        let (attached, planned) = (self.scenario.is_some(), self.admission.is_some());
        let fault = match kind {
            FrameKind::Hello if attached => Some("second Hello on an attached stream".to_owned()),
            FrameKind::Plan if !attached => Some("Plan before Hello".to_owned()),
            FrameKind::Plan if planned => Some("second Plan on an attached stream".to_owned()),
            FrameKind::Hello | FrameKind::Plan => None,
            _ if !planned => Some(format!("{kind:?} before Plan")),
            _ => None,
        };
        if let Some(fault) = fault {
            return Err(self.protocol(fault));
        }
        let applied = match kind {
            FrameKind::Hello => self.apply_hello(&frame.payload),
            FrameKind::Plan => self.apply_plan(&frame.payload),
            FrameKind::Records => self.apply_records(&frame.payload),
            FrameKind::Checkpoint => return self.apply_checkpoint(frame),
            FrameKind::Finish => return self.apply_finish(&frame.payload),
        };
        applied.map_err(|e| self.protocol(format!("{kind:?}: {e}")))
    }

    fn apply_hello(&mut self, payload: &str) -> Result<Applied, String> {
        let (mut version, mut seed, mut threads, mut scenario) = (None, None, None, None);
        let mut cadence = false;
        for entry in codec::entries(payload) {
            match entry? {
                Entry::Block("scenario", body) => {
                    let spec = ScenarioSpec::from_text(&body);
                    scenario = Some(spec.map_err(|e| format!("bad scenario: {e}"))?);
                }
                Entry::Pair("version", v, _) => {
                    version = Some(codec::parse_version(v, "wire", WIRE_VERSION)?)
                }
                Entry::Pair("seed", v, _) => seed = Some(codec::parse_int(v, "seed")?),
                Entry::Pair("threads", v, _) => threads = Some(codec::parse_int(v, "threads")?),
                // The cadence is the leader's business; the header must
                // still carry a well-formed one.
                Entry::Pair("checkpoint_every", v, _) => {
                    if v != "-" {
                        codec::parse_int::<usize>(v, "checkpoint_every")?;
                    }
                    cadence = true;
                }
                other => return Err(other.unexpected("Hello")),
            }
        }
        version.ok_or("missing version")?;
        let (Some(seed), Some(threads), true, Some(scenario)) = (seed, threads, cadence, scenario)
        else {
            return Err("missing seed/threads/checkpoint_every/scenario".into());
        };
        self.seed = seed;
        self.leader_threads = threads;
        self.ends = ClusterRunner::epoch_ends(&scenario);
        self.scenario = Some(scenario);
        Ok(Applied::Hello)
    }

    /// The id ranges a record of the attached stream may name.
    fn id_bounds(&self) -> IdBounds {
        IdBounds::of(self.scenario.as_ref().expect("scenario known"))
    }

    fn apply_plan(&mut self, payload: &str) -> Result<Applied, String> {
        let ids = self.id_bounds();
        let mut admission = None;
        let mut records = Vec::new();
        for entry in codec::entries(payload) {
            match entry? {
                Entry::Pair("admission", v, _) => admission = Some(codec::parse_admission(v)?),
                Entry::Pair(_, _, line) => records.push(codec::record_from_line(line, &ids)?),
                other => return Err(other.unexpected("Plan")),
            }
        }
        let admission = admission.ok_or("missing admission line")?;
        self.batch_pin(None, &records)?;
        self.admission = Some(admission);
        let records = self.adopt(records);
        self.start_mirror();
        Ok(Applied::Plan { records })
    }

    /// The pin a batch of records holds for boundary `epoch` (`None`: the
    /// Plan frame, which holds none). A rebalance pass or migration is
    /// applied by the live mirror *at* its boundary, so one that arrives
    /// in any other frame is refused rather than silently never applied.
    fn batch_pin(&self, epoch: Option<usize>, records: &[FleetEvent]) -> Result<EpochPin, String> {
        let spec = self.scenario.as_ref().expect("scenario known");
        let mut epochs = PinnedMoves::from_events(spec, records, None).epochs;
        let own = epoch.and_then(|e| epochs.get_mut(e)?.take());
        match epochs.iter().position(Option::is_some) {
            Some(stray) => Err(format!(
                "a decision of epoch {stray} outside the Records frame of epoch {stray}"
            )),
            None => Ok(own.map_or(EpochPin::Live, EpochPin::Pinned)),
        }
    }

    fn apply_records(&mut self, payload: &str) -> Result<Applied, String> {
        let ids = self.id_bounds();
        let mut entries = codec::entries(payload);
        let epoch: usize = match entries.next().transpose()? {
            Some(Entry::Pair("epoch", v, _)) => codec::parse_int(v, "epoch")?,
            _ => return Err("missing epoch header".into()),
        };
        let at = match entries.next().transpose()? {
            Some(Entry::Pair("at", v, _)) => codec::parse_at(v)?,
            _ => return Err("missing at header".into()),
        };
        if epoch != self.next_epoch {
            return Err(format!(
                "epoch {epoch} arrived while the replica expects epoch {}",
                self.next_epoch
            ));
        }
        // The horizon boundary carries the last batch; nothing lies past it.
        if epoch >= ids.boundaries() {
            return Err(format!(
                "epoch {epoch} is past the scenario's epoch grid ({} boundaries)",
                ids.boundaries()
            ));
        }
        if at != self.ends[epoch] {
            return Err(format!(
                "epoch {epoch} is dated {} ns, but the scenario's boundary {epoch} is at {} ns",
                at.as_ns(),
                self.ends[epoch].as_ns()
            ));
        }
        let mut records = Vec::new();
        for entry in entries {
            match entry? {
                Entry::Pair(_, _, line) => records.push(codec::record_from_line(line, &ids)?),
                other => return Err(other.unexpected("Records")),
            }
        }
        // Placements pinned the mirror's plan when the Plan frame started
        // it; an admission arriving later could never take effect.
        if records.iter().any(|r| {
            matches!(
                r,
                FleetEvent::TaskAdmission { .. } | FleetEvent::VmAdmission { .. }
            )
        }) {
            return Err("an admission record outside the Plan frame".into());
        }
        let pin = self.batch_pin(Some(epoch), &records)?;
        self.mirror.as_ref().expect("plan applied").release(pin);
        self.next_epoch += 1;
        self.stats.epochs += 1;
        Ok(Applied::Epoch {
            epoch,
            records: self.adopt(records),
        })
    }

    /// Appends one frame's decoded records to the replica.
    fn adopt(&mut self, records: Vec<FleetEvent>) -> usize {
        let n = records.len();
        self.stats.records += n as u64;
        self.records.extend(records);
        n
    }

    fn apply_checkpoint(&mut self, frame: &Frame) -> Result<Applied, StreamError> {
        let (cursor, at, hash, summary) = parse_checkpoint_payload(&frame.payload)
            .map_err(|e| self.protocol(format!("Checkpoint: {e}")))?;
        if cursor != self.next_epoch {
            return Err(self.protocol(format!(
                "Checkpoint: cursor {cursor} arrived while the replica stands at epoch {}",
                self.next_epoch
            )));
        }
        if let Err(e) = interim_boundary(&self.ends, cursor, Some(at)) {
            return Err(self.protocol(format!("Checkpoint: {e}")));
        }
        // The mirror is parked at `cursor` (or on its way there): demand
        // byte identity between the interim it reduces on our own thread
        // count and the leader's. A mirror that diverged stays diverged —
        // it answers a re-fed frame from the interim it already holds.
        let ckpt = Checkpoint {
            cursor,
            at,
            hash,
            next_seq: frame.seq + 1,
            journal: self.replica_journal(summary),
        };
        let mirror = self.mirror.as_ref().expect("plan applied");
        if let Err(e) = ckpt
            .check_hash()
            .and_then(|()| matches_mirror(&ckpt, mirror))
        {
            self.stats.divergences += 1;
            return Err(StreamError::Divergence(e));
        }
        self.last_checkpoint = Some(ckpt);
        self.stats.checkpoints += 1;
        Ok(Applied::Checkpoint { cursor })
    }

    fn apply_finish(&mut self, payload: &str) -> Result<Applied, StreamError> {
        let summary =
            parse_summary_block(payload).map_err(|e| self.protocol(format!("Finish: {e}")))?;
        // Every boundary's batch released, the mirror runs to the horizon;
        // short of that it would park for a frame that is not coming.
        if self.next_epoch != self.ends.len() {
            return Err(self.protocol(format!(
                "Finish: arrived after {} of the scenario's {} epoch batches",
                self.next_epoch,
                self.ends.len()
            )));
        }
        let mirror = self.mirror.as_ref().expect("plan applied");
        let verdict = mirror.outcome(false).and_then(|metrics| {
            divergence("replay", &summary, &metrics.summary_csv())?;
            Ok(metrics)
        });
        match verdict {
            Ok(metrics) => {
                self.finale = Some(metrics);
                Ok(Applied::Finish)
            }
            Err(e) => {
                self.stats.divergences += 1;
                Err(StreamError::Divergence(format!("at finish: {e}")))
            }
        }
    }
}

/// Byte-compares the leader's interim summary stored in `ckpt` with the
/// interim `mirror` reduces at the checkpoint's cursor.
fn matches_mirror(ckpt: &Checkpoint, mirror: &Mirror) -> Result<(), String> {
    let ours = mirror.interim(ckpt.cursor)?;
    divergence(
        &format!("checkpoint {}", ckpt.cursor),
        &ckpt.journal.summary,
        &ours,
    )
}

#[cfg(test)]
impl Follower {
    /// Swaps the live mirror for a run that panics with `why` at the first
    /// boundary released to it.
    pub(crate) fn doom_mirror(&mut self, why: &'static str) {
        use selftune_cluster::runner::PinSource;
        self.mirror = Some(Mirror::spawn(move |pins| {
            pins.pin(0);
            panic!("{why}");
        }));
    }
}

/// The Finish payload: one summary block and nothing else.
fn parse_summary_block(payload: &str) -> Result<String, String> {
    let mut summary = None;
    for entry in codec::entries(payload) {
        match entry? {
            Entry::Block("summary", body) => summary = Some(body),
            other => return Err(other.unexpected("Finish")),
        }
    }
    summary.ok_or_else(|| "missing summary block".into())
}

/// The Checkpoint payload: the `cursor`/`at`/`hash` mark, then the
/// leader's interim summary block.
fn parse_checkpoint_payload(payload: &str) -> Result<(usize, Time, u64, String), String> {
    let mut mark = Mark::default();
    let mut summary = None;
    for entry in codec::entries(payload) {
        match entry? {
            Entry::Block("summary", body) => summary = Some(body),
            Entry::Pair(key, value, _) if mark.take(key, value)? => {}
            other => return Err(other.unexpected("checkpoint")),
        }
    }
    let (cursor, at, hash) = mark.finish()?;
    Ok((cursor, at, hash, summary.ok_or("missing summary block")?))
}
