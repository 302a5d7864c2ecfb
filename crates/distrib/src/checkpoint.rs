//! Durable replication checkpoints: everything a late joiner (or a
//! follower restarting after a crash) needs to attach to the stream
//! without replaying it from frame zero.
//!
//! A checkpoint embeds the journal *prefix* — scenario, seed, admission
//! statistics, every record applied so far and the leader's interim
//! summary at the cursor — plus the stream position (`next_seq`) to
//! resume receiving from. A corrupted or stale checkpoint is caught
//! before a follower trusts it: `Follower::from_checkpoint` feeds the
//! prefix to a fresh live mirror and byte-compares at the cursor, and
//! [`Checkpoint::verify`] is the same check stand-alone, re-executing
//! the prefix from t = 0.

use selftune_cluster::runner::interim_boundary;
use selftune_cluster::{AggregateMetrics, ClusterRunner};
use selftune_journal::codec::{self, Entry};
use selftune_journal::record::Journal;
use selftune_simcore::time::Time;

use crate::frame::fnv1a64;

/// Version of the checkpoint text format this crate writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The `cursor` / `at` / `hash` header lines a Checkpoint frame and a
/// checkpoint file both carry: where the checkpoint stands and what its
/// interim summary hashes to.
#[derive(Default)]
pub(crate) struct Mark {
    cursor: Option<usize>,
    at: Option<Time>,
    hash: Option<u64>,
}

impl Mark {
    /// Appends the three header lines (`hash` is the interim summary's).
    pub(crate) fn push(out: &mut String, cursor: usize, at: Time, hash: u64) {
        out.push_str(&format!(
            "cursor = {cursor}\nat = {}\nhash = {hash:016x}\n",
            at.as_ns()
        ));
    }

    /// Consumes `key = value` when it is one of the three lines; `false`
    /// leaves it to the caller.
    pub(crate) fn take(&mut self, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "cursor" => self.cursor = Some(codec::parse_int(value, "cursor")?),
            "at" => self.at = Some(codec::parse_at(value)?),
            "hash" => {
                self.hash = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|_| format!("bad hash (want hex): {value:?}"))?,
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `(cursor, at, hash)`, or the first of them that never arrived.
    pub(crate) fn finish(self) -> Result<(usize, Time, u64), String> {
        Ok((
            self.cursor.ok_or("missing required key `cursor`")?,
            self.at.ok_or("missing required key `at`")?,
            self.hash.ok_or("missing required key `hash`")?,
        ))
    }
}

/// A verified point on the replication stream: the follower's state at
/// epoch boundary `cursor`, durable as text.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The epoch boundary the checkpoint stands at: decisions of epochs
    /// `< cursor` are applied, epoch `cursor`'s decision has not run.
    pub cursor: usize,
    /// The virtual instant of the boundary.
    pub at: Time,
    /// FNV-1a 64 of the interim summary (fast staleness check).
    pub hash: u64,
    /// The next frame sequence number to expect after attaching.
    pub next_seq: u64,
    /// The journal prefix: scenario, seed, admission, records applied so
    /// far, and the leader's interim summary as the `summary` field.
    pub journal: Journal,
}

impl Checkpoint {
    /// Serialises the checkpoint (journal prefix embedded verbatim).
    pub fn to_text(&self) -> String {
        let mut out =
            format!("# selftune replication checkpoint\nversion = {CHECKPOINT_VERSION}\n");
        Mark::push(&mut out, self.cursor, self.at, self.hash);
        out.push_str(&format!("next_seq = {}\n", self.next_seq));
        codec::push_block(&mut out, "journal", &self.journal.to_text());
        out
    }

    /// Parses a checkpoint written by [`Checkpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Names the first offence — missing headers, malformed values, an
    /// unterminated or invalid embedded journal — rather than defaulting.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut mark = Mark::default();
        let (mut version, mut next_seq, mut journal) = (None, None, None);
        for entry in codec::entries(text) {
            match entry? {
                Entry::Block("journal", body) => journal = Some(Journal::from_text(&body)?),
                Entry::Pair(key, value, _) if mark.take(key, value)? => {}
                Entry::Pair("version", v, _) => {
                    version = Some(codec::parse_version(v, "checkpoint", CHECKPOINT_VERSION)?)
                }
                Entry::Pair("next_seq", v, _) => next_seq = Some(codec::parse_int(v, "next_seq")?),
                other => return Err(other.unexpected("checkpoint")),
            }
        }
        version.ok_or("missing required key `version`")?;
        let (cursor, at, hash) = mark.finish()?;
        Ok(Checkpoint {
            cursor,
            at,
            hash,
            next_seq: next_seq.ok_or("missing required key `next_seq`")?,
            journal: journal.ok_or("missing journal block")?,
        })
    }

    /// Re-executes the embedded prefix from t = 0 on `threads` workers and
    /// byte-compares against the stored interim summary — the stand-alone
    /// check of a checkpoint file. (A follower attaching from one checks
    /// it against its live mirror instead, and keeps the mirror.)
    ///
    /// # Errors
    ///
    /// Names the hash mismatch, a cursor or instant that is no interim
    /// boundary of the scenario's epoch grid ([`interim_boundary`] — the
    /// check a follower applies), or the first differing summary line.
    pub fn verify(&self, threads: usize) -> Result<AggregateMetrics, String> {
        self.check_hash()?;
        let ends = ClusterRunner::epoch_ends(&self.journal.scenario);
        interim_boundary(&ends, self.cursor, Some(self.at))?;
        self.journal.verify(threads, Some(self.cursor))
    }

    /// The fast staleness check: the header hash is the stored interim
    /// summary's.
    pub(crate) fn check_hash(&self) -> Result<(), String> {
        let hashed = fnv1a64(self.journal.summary.as_bytes());
        if hashed == self.hash {
            return Ok(());
        }
        Err(format!(
            "checkpoint hash mismatch: header {:016x}, embedded summary hashes to {hashed:016x}",
            self.hash
        ))
    }
}
