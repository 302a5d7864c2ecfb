//! The hot-standby side: consume the replication stream, mirror the
//! leader's state, verify checkpoints byte for byte, and take over on
//! leader death.
//!
//! A [`Follower`] applies frames strictly in sequence, through one table
//! `stage × frame kind → stage | StreamError` (`Stage::step`): AwaitHello
//! –Hello→ Attached –Plan→ Following –Records, Checkpoint→ Following
//! –Finish→ Finished. Every stream fault is a *named* error —
//! [`StreamError::Gap`] for lost chunks, [`StreamError::Duplicate`] for
//! re-deliveries, frame-level errors for truncation and corruption,
//! [`StreamError::Protocol`] for any other pair of the table (a second
//! Plan, a batch before the plan, any frame after Finish),
//! [`StreamError::Divergence`] when a checkpoint mirror stops matching
//! the leader's bytes. A faulted feed leaves the follower's state
//! untouched, so the leader can simply retransmit from the follower's
//! last good position (`Shipper::frames_from`).
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
    /// (e.g. records before the plan, a checkpoint at the wrong cursor,
    /// anything after Finish).
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

/// Stream counters — applied/dropped/retried chunks, faults by kind and
/// verified checkpoints (replica progress is [`Follower::lag`]'s).
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

/// The leader's journal as far as the stream has delivered it, and the
/// scenario's epoch boundaries (`ClusterRunner::epoch_ends`) and the id
/// ranges a record may name, derived once when the scenario arrives.
struct Prefix {
    /// Scenario, seed and threads from the Hello; admission (default till
    /// then) and records, in arrival order, from the Plan on. Its summary
    /// is empty: [`Prefix::journal`] fills one in.
    journal: Journal,
    ends: Vec<Time>,
    ids: IdBounds,
}

/// The replica from the Plan frame (or the attach checkpoint) on.
struct Replica {
    prefix: Prefix,
    /// The live pinned run; its released boundaries are the epoch cursor.
    mirror: Mirror,
    last_checkpoint: Option<Checkpoint>,
}

/// Where the follower stands in the stream protocol.
enum Stage {
    /// Nothing applied yet.
    AwaitHello,
    /// The Hello applied: the run is known, its plan is not.
    Attached(Prefix),
    /// The Plan applied: the mirror follows the stream.
    Following(Replica),
    /// The Finish verified, with the finale; no frame follows.
    Finished(Replica, Box<AggregateMetrics>),
}

/// A hot-standby replica of a leader's fleet run.
pub struct Follower {
    threads: usize,
    expected_seq: u64,
    gap_at: Option<u64>,
    stage: Stage,
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
            stage: Stage::AwaitHello,
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
        let prefix = Prefix::new(ckpt.journal.clone());
        interim_boundary(&prefix.ends, ckpt.cursor, Some(ckpt.at))?;
        let mut f = Follower::new(threads);
        let mut replica = Replica::start(prefix, f.threads);
        for pin in ckpt.journal.pinned_moves(Some(ckpt.cursor)).epochs {
            let pin = pin.map_or(EpochPin::Live, EpochPin::Pinned);
            replica.mirror.release(pin);
        }
        matches_mirror(ckpt, &replica.mirror)?;
        replica.last_checkpoint = Some(ckpt.clone());
        f.expected_seq = ckpt.next_seq;
        f.stats.checkpoints = 1;
        f.stage = Stage::Following(replica);
        Ok(f)
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
        self.replica().map_or(0, |r| r.mirror.released())
    }

    /// The follower's durable resume point, if a checkpoint has verified.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.replica()?.last_checkpoint.as_ref()
    }

    /// The verified final aggregates, once [`Applied::Finish`] has been
    /// returned.
    pub fn finale(&self) -> Option<&AggregateMetrics> {
        match &self.stage {
            Stage::Finished(_, finale) => Some(finale.as_ref()),
            _ => None,
        }
    }

    /// How far this follower trails `leader`'s stream position.
    pub fn lag(&self, leader: &ShipperProgress) -> Lag {
        let records = self.replica().map_or(0, |r| r.prefix.journal.records.len());
        Lag {
            epochs: leader.epochs.saturating_sub(self.epochs_applied()),
            records: leader.records.saturating_sub(records as u64),
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
    /// [`Follower::promote`] is one, and so is any in-sequence frame after
    /// Finish), or replica divergence.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Applied, StreamError> {
        let fed = self.sequence(chunk);
        match &fed {
            Ok(_) => self.stats.applied += 1,
            Err(StreamError::Divergence(_)) => self.stats.divergences += 1,
            Err(_) => self.stats.dropped += 1,
        }
        fed
    }

    /// Decodes `chunk` and steps the stage with it if it is next in sequence.
    fn sequence(&mut self, chunk: &[u8]) -> Result<Applied, StreamError> {
        if self.replica().is_some_and(|r| r.mirror.is_live()) {
            let why = "the replica was promoted and follows no stream any more";
            return Err(StreamError::Protocol(why.to_owned()));
        }
        let frame = Frame::decode(chunk).map_err(StreamError::Frame)?;
        let (seq, expected) = (frame.seq, self.expected_seq);
        if seq < expected {
            self.stats.duplicates += 1;
            return Err(StreamError::Duplicate { seq, expected });
        }
        if seq > expected {
            self.stats.gaps += 1;
            self.gap_at = Some(expected);
            return Err(StreamError::Gap { expected, got: seq });
        }
        let stage = std::mem::replace(&mut self.stage, Stage::AwaitHello);
        let (applied, stage) = stage.step(&frame, self.threads);
        self.stage = stage;
        let applied = applied?;
        self.stats.retried += u64::from(self.gap_at.take_if(|at| *at == expected).is_some());
        self.stats.checkpoints += usize::from(matches!(applied, Applied::Checkpoint { .. }));
        self.expected_seq += 1;
        Ok(applied)
    }

    /// The replica, from the Plan frame on.
    fn replica(&self) -> Option<&Replica> {
        match &self.stage {
            Stage::Following(replica) | Stage::Finished(replica, _) => Some(replica),
            Stage::AwaitHello | Stage::Attached(_) => None,
        }
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
        match &self.stage {
            Stage::AwaitHello => Err("cannot promote: no Hello frame applied".into()),
            Stage::Attached(_) => Err("cannot promote: no Plan frame applied".into()),
            Stage::Following(replica) | Stage::Finished(replica, _) => replica.mirror.outcome(true),
        }
    }

    /// The replica's journal: scenario, seed, admission statistics and
    /// every record applied so far, in canonical order. Carries the
    /// verified finale summary once the stream has finished (an
    /// unfinished replica carries an empty summary). `None` before the
    /// Plan frame has been applied.
    pub fn journal(&self) -> Option<Journal> {
        let summary = self.finale().map(AggregateMetrics::summary_csv);
        Some(self.replica()?.prefix.journal(summary.unwrap_or_default()))
    }
}

impl Stage {
    /// The protocol table: what an in-sequence `frame` does in this stage,
    /// and the stage after it. A refused frame leaves the stage as it was.
    fn step(self, frame: &Frame, threads: usize) -> (Result<Applied, StreamError>, Stage) {
        let (kind, payload) = (frame.kind, frame.payload.as_str());
        let protocol = |e: String| StreamError::Protocol(format!("{kind:?}: {e}"));
        let refuse = |s, why: &str| (Err(StreamError::Protocol(format!("{kind:?} {why}"))), s);
        match (self, kind) {
            (Stage::AwaitHello, FrameKind::Hello) => match Prefix::from_hello(payload) {
                Ok(prefix) => (Ok(Applied::Hello), Stage::Attached(prefix)),
                Err(e) => (Err(protocol(e)), Stage::AwaitHello),
            },
            (stage @ Stage::AwaitHello, _) => refuse(stage, "before Hello"),
            (Stage::Attached(mut prefix), FrameKind::Plan) => match prefix.plan(payload) {
                Ok(records) => {
                    let replica = Replica::start(prefix, threads);
                    (Ok(Applied::Plan { records }), Stage::Following(replica))
                }
                Err(e) => (Err(protocol(e)), Stage::Attached(prefix)),
            },
            (stage @ Stage::Attached(_), FrameKind::Hello) => {
                refuse(stage, "on an attached stream")
            }
            (stage @ Stage::Attached(_), _) => refuse(stage, "before Plan"),
            (Stage::Following(mut r), FrameKind::Records) => {
                (r.records(payload).map_err(protocol), Stage::Following(r))
            }
            (Stage::Following(mut r), FrameKind::Checkpoint) => {
                (r.checkpoint(frame), Stage::Following(r))
            }
            (Stage::Following(r), FrameKind::Finish) => match r.finish(payload) {
                Ok(finale) => (Ok(Applied::Finish), Stage::Finished(r, Box::new(finale))),
                Err(e) => (Err(e), Stage::Following(r)),
            },
            (stage @ Stage::Following(_), _) => refuse(stage, "on an attached stream"),
            (stage @ Stage::Finished(..), _) => refuse(stage, "after Finish: the stream is done"),
        }
    }
}

impl Prefix {
    fn new(mut journal: Journal) -> Prefix {
        journal.summary.clear();
        Prefix {
            ends: ClusterRunner::epoch_ends(&journal.scenario),
            ids: IdBounds::of(&journal.scenario),
            journal,
        }
    }

    /// The Hello payload: version, seed, the leader's threads, its
    /// checkpoint cadence and the scenario text.
    fn from_hello(payload: &str) -> Result<Prefix, String> {
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
        Ok(Prefix::new(Journal {
            scenario,
            seed,
            threads,
            admission: AdmissionStats::default(),
            summary: String::new(),
            records: Vec::new(),
        }))
    }

    /// The Plan payload — the admission statistics and the plan-time
    /// records — adopted whole or not at all; returns the record count.
    fn plan(&mut self, payload: &str) -> Result<usize, String> {
        let mut admission = None;
        let mut records = Vec::new();
        for entry in codec::entries(payload) {
            match entry? {
                Entry::Pair("admission", v, _) => admission = Some(codec::parse_admission(v)?),
                Entry::Pair(_, _, line) => records.push(codec::record_from_line(line, &self.ids)?),
                other => return Err(other.unexpected("Plan")),
            }
        }
        let admission = admission.ok_or("missing admission line")?;
        self.batch_pin(None, &records)?;
        (self.journal.admission, self.journal.records) = (admission, records);
        Ok(self.journal.records.len())
    }

    /// The pin a batch of records holds for boundary `epoch` (`None`: the
    /// Plan frame, which holds none). A rebalance pass or migration is
    /// applied by the live mirror *at* its boundary, so one that arrives
    /// in any other frame is refused rather than silently never applied.
    fn batch_pin(&self, epoch: Option<usize>, records: &[FleetEvent]) -> Result<EpochPin, String> {
        let mut epochs = PinnedMoves::from_events(&self.journal.scenario, records, None).epochs;
        let own = epoch.and_then(|e| epochs.get_mut(e)?.take());
        match epochs.iter().position(Option::is_some) {
            Some(stray) => Err(format!(
                "a decision of epoch {stray} outside the Records frame of epoch {stray}"
            )),
            None => Ok(own.map_or(EpochPin::Live, EpochPin::Pinned)),
        }
    }

    /// The prefix in canonical record order, carrying `summary`
    /// (checkpoints store the leader's interim summary there).
    fn journal(&self, summary: String) -> Journal {
        let mut journal = self.journal.clone();
        journal.summary = summary;
        sort_events(&mut journal.records);
        journal
    }
}

impl Replica {
    /// Starts the live mirror pinned to `prefix`'s admission and records.
    fn start(prefix: Prefix, threads: usize) -> Replica {
        let run = &prefix.journal;
        let placements = PinnedPlan::from_events(&run.scenario, run.admission, &run.records);
        let mirror = Mirror::start(run.scenario.clone(), run.seed, placements, threads);
        Replica {
            prefix,
            mirror,
            last_checkpoint: None,
        }
    }

    /// A Records frame: the batch of the epoch at the mirror's cursor,
    /// dated at its boundary, released to the mirror and appended.
    fn records(&mut self, payload: &str) -> Result<Applied, String> {
        let mut entries = codec::entries(payload);
        let epoch: usize = match entries.next().transpose()? {
            Some(Entry::Pair("epoch", v, _)) => codec::parse_int(v, "epoch")?,
            _ => return Err("missing epoch header".into()),
        };
        let at = match entries.next().transpose()? {
            Some(Entry::Pair("at", v, _)) => codec::parse_at(v)?,
            _ => return Err("missing at header".into()),
        };
        let cursor = self.mirror.released();
        if epoch != cursor {
            return Err(format!(
                "epoch {epoch} arrived while the replica expects epoch {cursor}"
            ));
        }
        // The horizon boundary carries the last batch; nothing lies past it.
        let Some(&end) = self.prefix.ends.get(epoch) else {
            return Err(format!(
                "epoch {epoch} is past the scenario's epoch grid ({} boundaries)",
                self.prefix.ends.len()
            ));
        };
        if at != end {
            return Err(format!(
                "epoch {epoch} is dated {} ns, but the scenario's boundary {epoch} is at {} ns",
                at.as_ns(),
                end.as_ns()
            ));
        }
        let (ids, mut records) = (self.prefix.ids, Vec::new());
        for entry in entries {
            match entry? {
                Entry::Pair(_, _, line) => records.push(codec::record_from_line(line, &ids)?),
                other => return Err(other.unexpected("Records")),
            }
        }
        // Placements pinned the mirror's plan when the Plan frame started
        // it; an admission arriving later could never take effect.
        let admission = |r: &FleetEvent| matches!(r, FleetEvent::Admission { .. });
        if records.iter().any(admission) {
            return Err("an admission record outside the Plan frame".into());
        }
        self.mirror
            .release(self.prefix.batch_pin(Some(epoch), &records)?);
        let n = records.len();
        self.prefix.journal.records.extend(records);
        Ok(Applied::Epoch { epoch, records: n })
    }

    /// A Checkpoint frame at the mirror's cursor: the leader's interim
    /// summary, hash-checked and byte-compared with the mirror's.
    fn checkpoint(&mut self, frame: &Frame) -> Result<Applied, StreamError> {
        let protocol = |e: String| StreamError::Protocol(format!("Checkpoint: {e}"));
        let (cursor, at, hash, summary) =
            parse_checkpoint_payload(&frame.payload).map_err(protocol)?;
        let released = self.mirror.released();
        if cursor != released {
            return Err(protocol(format!(
                "cursor {cursor} arrived while the replica stands at epoch {released}"
            )));
        }
        interim_boundary(&self.prefix.ends, cursor, Some(at)).map_err(protocol)?;
        // The mirror is parked at `cursor` (or on its way there): demand
        // byte identity between the interim it reduces on our own thread
        // count and the leader's. A mirror that diverged stays diverged —
        // it answers a re-fed frame from the interim it already holds.
        let ckpt = Checkpoint {
            cursor,
            at,
            hash,
            next_seq: frame.seq + 1,
            journal: self.prefix.journal(summary),
        };
        ckpt.check_hash()
            .and_then(|()| matches_mirror(&ckpt, &self.mirror))
            .map_err(StreamError::Divergence)?;
        self.last_checkpoint = Some(ckpt);
        Ok(Applied::Checkpoint { cursor })
    }

    /// A Finish frame: with every boundary's batch released, the mirror's
    /// finale, byte-compared with the leader's.
    fn finish(&self, payload: &str) -> Result<AggregateMetrics, StreamError> {
        let protocol = |e: String| StreamError::Protocol(format!("Finish: {e}"));
        let summary = parse_summary_block(payload).map_err(protocol)?;
        // Short of every batch the mirror would park for a frame that is
        // not coming.
        let (released, batches) = (self.mirror.released(), self.prefix.ends.len());
        if released != batches {
            return Err(protocol(format!(
                "arrived after {released} of the scenario's {batches} epoch batches"
            )));
        }
        let diverged = |e: String| StreamError::Divergence(format!("at finish: {e}"));
        let metrics = self.mirror.outcome(false).map_err(diverged)?;
        divergence("replay", &summary, &metrics.summary_csv()).map_err(diverged)?;
        Ok(metrics)
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

#[cfg(test)]
impl Follower {
    /// Swaps the live mirror for a run that panics with `why` at the first
    /// boundary released to it.
    pub(crate) fn doom_mirror(&mut self, why: &'static str) {
        use selftune_cluster::runner::PinSource;
        if let Stage::Following(replica) = &mut self.stage {
            replica.mirror = Mirror::spawn(move |pins| {
                pins.pin(0);
                panic!("{why}");
            });
        }
    }
}
