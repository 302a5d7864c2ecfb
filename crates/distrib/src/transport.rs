//! Chunk transports: how encoded frames travel from leader to follower.
//!
//! The replication layer is transport-agnostic — anything that can move
//! opaque byte chunks in order *most of the time* works, because the
//! frame layer (seq numbers + CRC) catches what the transport drops,
//! duplicates, reorders or truncates. This module provides the
//! in-process [`ChannelTransport`] the experiments run over, plus
//! deterministic fault-injection wrappers ([`LossyTransport`],
//! [`DuplicatingTransport`], [`ReorderTransport`],
//! [`TruncatingTransport`]) that the property tests drive to prove every
//! stream fault surfaces as a named error, never as silent divergence.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use selftune_simcore::rng::Rng;

/// Moves opaque byte chunks from a sender to a receiver, preserving
/// chunk boundaries. `recv` returns `None` when nothing is pending.
pub trait Transport: Send {
    /// Hands one chunk to the transport.
    fn send(&mut self, chunk: Vec<u8>);
    /// Takes the next pending chunk, if any.
    fn recv(&mut self) -> Option<Vec<u8>>;
}

/// An in-process, unbounded, FIFO chunk queue. [`ChannelTransport::pair`]
/// returns the two ends: chunks sent on one end are received on the
/// other (full duplex; the replication stream only uses one direction).
pub struct ChannelTransport {
    out: Arc<Mutex<VecDeque<Vec<u8>>>>,
    inn: Arc<Mutex<VecDeque<Vec<u8>>>>,
}

impl ChannelTransport {
    /// Creates a connected pair of transport ends.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let a = Arc::new(Mutex::new(VecDeque::new()));
        let b = Arc::new(Mutex::new(VecDeque::new()));
        (
            ChannelTransport {
                out: Arc::clone(&a),
                inn: Arc::clone(&b),
            },
            ChannelTransport { out: b, inn: a },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, chunk: Vec<u8>) {
        self.out.lock().expect("transport lock").push_back(chunk);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inn.lock().expect("transport lock").pop_front()
    }
}

/// Drops a deterministic fraction of sent chunks (the follower sees a
/// sequence gap).
pub struct LossyTransport<T: Transport> {
    inner: T,
    rng: Rng,
    drop_rate: f64,
    /// Chunks silently dropped so far.
    pub dropped: usize,
}

impl<T: Transport> LossyTransport<T> {
    /// Wraps `inner`, dropping each sent chunk with probability
    /// `drop_rate`, deterministically from `seed`.
    pub fn new(inner: T, seed: u64, drop_rate: f64) -> LossyTransport<T> {
        LossyTransport {
            inner,
            rng: Rng::new(seed),
            drop_rate,
            dropped: 0,
        }
    }
}

impl<T: Transport> Transport for LossyTransport<T> {
    fn send(&mut self, chunk: Vec<u8>) {
        if self.rng.uniform(0.0, 1.0) < self.drop_rate {
            self.dropped += 1;
        } else {
            self.inner.send(chunk);
        }
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
}

/// Sends a deterministic fraction of chunks twice (the follower sees a
/// duplicate sequence number).
pub struct DuplicatingTransport<T: Transport> {
    inner: T,
    rng: Rng,
    dup_rate: f64,
    /// Chunks sent twice so far.
    pub duplicated: usize,
}

impl<T: Transport> DuplicatingTransport<T> {
    /// Wraps `inner`, re-sending each chunk with probability `dup_rate`.
    pub fn new(inner: T, seed: u64, dup_rate: f64) -> DuplicatingTransport<T> {
        DuplicatingTransport {
            inner,
            rng: Rng::new(seed),
            dup_rate,
            duplicated: 0,
        }
    }
}

impl<T: Transport> Transport for DuplicatingTransport<T> {
    fn send(&mut self, chunk: Vec<u8>) {
        if self.rng.uniform(0.0, 1.0) < self.dup_rate {
            self.duplicated += 1;
            self.inner.send(chunk.clone());
        }
        self.inner.send(chunk);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
}

/// Holds back a deterministic fraction of chunks and emits them after
/// the next chunk (pairwise reordering: the follower sees a gap, then
/// the missing sequence number).
pub struct ReorderTransport<T: Transport> {
    inner: T,
    rng: Rng,
    swap_rate: f64,
    held: Option<Vec<u8>>,
    /// Adjacent pairs swapped so far.
    pub swapped: usize,
}

impl<T: Transport> ReorderTransport<T> {
    /// Wraps `inner`, swapping each adjacent chunk pair with probability
    /// `swap_rate`.
    pub fn new(inner: T, seed: u64, swap_rate: f64) -> ReorderTransport<T> {
        ReorderTransport {
            inner,
            rng: Rng::new(seed),
            swap_rate,
            held: None,
            swapped: 0,
        }
    }
}

impl<T: Transport> Transport for ReorderTransport<T> {
    fn send(&mut self, chunk: Vec<u8>) {
        if let Some(held) = self.held.take() {
            // Late release: the held chunk goes out *after* its successor.
            self.inner.send(chunk);
            self.inner.send(held);
            self.swapped += 1;
        } else if self.rng.uniform(0.0, 1.0) < self.swap_rate {
            self.held = Some(chunk);
        } else {
            self.inner.send(chunk);
        }
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
}

/// Cuts a deterministic fraction of chunks off mid-frame (the follower's
/// CRC/length check rejects them, which then shows up as a gap).
pub struct TruncatingTransport<T: Transport> {
    inner: T,
    rng: Rng,
    cut_rate: f64,
    /// Chunks truncated so far.
    pub truncated: usize,
}

impl<T: Transport> TruncatingTransport<T> {
    /// Wraps `inner`, truncating each chunk with probability `cut_rate`
    /// at a deterministic offset.
    pub fn new(inner: T, seed: u64, cut_rate: f64) -> TruncatingTransport<T> {
        TruncatingTransport {
            inner,
            rng: Rng::new(seed),
            cut_rate,
            truncated: 0,
        }
    }
}

impl<T: Transport> Transport for TruncatingTransport<T> {
    fn send(&mut self, mut chunk: Vec<u8>) {
        if self.rng.uniform(0.0, 1.0) < self.cut_rate && !chunk.is_empty() {
            let keep = (self.rng.uniform(0.0, 1.0) * chunk.len() as f64) as usize;
            chunk.truncate(keep.min(chunk.len() - 1));
            self.truncated += 1;
        }
        self.inner.send(chunk);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 8]).collect()
    }

    fn drain<T: Transport>(t: &mut T) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| t.recv()).collect()
    }

    #[test]
    fn channel_pair_is_fifo_and_duplex() {
        let (mut a, mut b) = ChannelTransport::pair();
        for c in chunks(5) {
            a.send(c);
        }
        assert_eq!(drain(&mut b), chunks(5));
        b.send(vec![9]);
        assert_eq!(a.recv(), Some(vec![9]));
        assert_eq!(a.recv(), None);
    }

    #[test]
    fn fault_wrappers_are_deterministic_and_fault() {
        // Same seed → same fault pattern; each wrapper actually faults at
        // a high rate over enough chunks.
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let (tx, mut rx) = ChannelTransport::pair();
            let mut lossy = LossyTransport::new(tx, 11, 0.5);
            for c in chunks(64) {
                lossy.send(c);
            }
            outcomes.push((lossy.dropped, drain(&mut rx)));
        }
        assert_eq!(outcomes[0], outcomes[1], "lossy wrapper not deterministic");
        assert!(outcomes[0].0 > 0, "lossy wrapper never dropped");
        assert_eq!(outcomes[0].0 + outcomes[0].1.len(), 64);

        let (tx, mut rx) = ChannelTransport::pair();
        let mut dup = DuplicatingTransport::new(tx, 12, 0.5);
        for c in chunks(64) {
            dup.send(c);
        }
        assert!(dup.duplicated > 0);
        assert_eq!(drain(&mut rx).len(), 64 + dup.duplicated);

        let (tx, mut rx) = ChannelTransport::pair();
        let mut reorder = ReorderTransport::new(tx, 13, 0.5);
        for c in chunks(64) {
            reorder.send(c);
        }
        assert!(reorder.swapped > 0);
        let got = drain(&mut rx);
        let mut sorted = got.clone();
        sorted.sort();
        assert_ne!(got, sorted, "reorder wrapper kept the order");
        assert_eq!(sorted, chunks(64), "reorder wrapper lost or altered chunks");

        let (tx, mut rx) = ChannelTransport::pair();
        let mut cut = TruncatingTransport::new(tx, 14, 0.5);
        for c in chunks(64) {
            cut.send(c);
        }
        assert!(cut.truncated > 0);
        let got = drain(&mut rx);
        assert_eq!(got.len(), 64);
        assert!(
            got.iter().any(|c| c.len() < 8),
            "truncating wrapper never shortened a chunk"
        );
    }
}
