//! Time-ordered event queue for the discrete-event engine.
//!
//! Events with equal timestamps are delivered in insertion order (FIFO),
//! which keeps simulations deterministic regardless of queue internals.
//!
//! # Implementation
//!
//! The queue is a **hierarchical timing wheel** (a calendar queue in the
//! sense of Brown '88, organised like the Linux/Tokio timer wheels):
//! nine levels of 64 slots each, level `l` resolving bits
//! `[12 + 6l, 12 + 6l + 6)` of the nanosecond timestamp — level 0 slots
//! are 2^12 ns = 4.096 µs wide — so the levels jointly cover the whole
//! 64-bit [`Time`] range; far-future timers land in the top (overflow)
//! levels and cascade down as the wheel advances. `push` is O(1): one
//! XOR + leading-zeros picks the level, a shift + mask picks the slot.
//! `pop` is O(levels) amortised: an occupancy bitmap per level (64 slots
//! ↔ one `u64`) finds the earliest non-empty slot with a
//! `trailing_zeros`, and higher-level slots are re-distributed (cascaded)
//! toward level zero as the wheel's epoch advances past them.
//!
//! Events already due — at or before the wheel epoch — sit in a small
//! sorted run (`due`, ordered by `(time, seq)` descending so the earliest
//! is at the back), which makes `peek_time` O(1) with `&self` and lets
//! `pop_due` decide with a single comparison.
//!
//! The previous `BinaryHeap` implementation is kept as the wheel's
//! reference ([`EventQueue::heap_fallback`], hidden from docs): this
//! module's property test `wheel_matches_heap_pop_order` (`tests/props.rs`)
//! holds the two to byte-identical pop orders. Nothing above this module
//! offers the choice — a [`crate::Kernel`] always runs on the wheel.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Slots per wheel level (one occupancy bit per slot fits a `u64`).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// Level-0 slot width, as a power of two: 2^12 ns = 4.096 µs. Coarser
/// slots mean fewer cascade hops per event (a timer t ms out starts two
/// levels lower) and whole-slot batched pops; events inside a fired slot
/// are ordered by one small sort instead of per-ns bucketing.
const GRAIN_BITS: u32 = 12;
/// Levels needed so `GRAIN_BITS + LEVELS * SLOT_BITS >= 64`: every `u64`
/// timestamp has a home level and no separate overflow list is needed —
/// the top levels act as the overflow tiers (level 7 starts at a 2^54 ns
/// ≈ 208-simulated-day offset from the epoch, though an event just past
/// a high epoch-bit boundary can transiently land there too).
const LEVELS: usize = 9;

/// The timing-wheel backend.
#[derive(Debug)]
struct Wheel<E> {
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + slot`).
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ `slots[l*SLOTS+s]` non-empty.
    occ: [u64; LEVELS],
    /// The due run: all queued events with `at < epoch`, sorted by
    /// `(at, seq)` descending — the earliest event is `due.last()`.
    due: Vec<Entry<E>>,
    /// Wheel epoch: every event stored in `slots` has `at >= epoch`.
    epoch: u64,
    /// Events stored in `slots` (excludes `due`).
    in_wheel: usize,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            due: Vec::new(),
            epoch: 0,
            in_wheel: 0,
        }
    }

    /// Level resolving the highest bit in which `at` differs from the
    /// epoch (level 0 if they only differ within one level-0 range).
    fn level_for(epoch: u64, at: u64) -> usize {
        let x = (at ^ epoch) | ((1 << (GRAIN_BITS + SLOT_BITS)) - 1);
        (((63 - x.leading_zeros()) - GRAIN_BITS) / SLOT_BITS) as usize
    }

    /// Shift of the bit group resolved by `level`.
    fn shift_of(level: usize) -> u32 {
        GRAIN_BITS + SLOT_BITS * level as u32
    }

    fn slot_for(level: usize, at: u64) -> usize {
        ((at >> Self::shift_of(level)) & (SLOTS as u64 - 1)) as usize
    }

    fn insert(&mut self, entry: Entry<E>) {
        let at = entry.at.as_ns();
        if at < self.epoch || (self.in_wheel == 0 && self.due.is_empty()) {
            // Due region (or empty queue: adopt the event's instant as the
            // epoch so it becomes the due run without touching the wheel).
            if at >= self.epoch {
                self.epoch = at.saturating_add(1);
            }
            let pos = self
                .due
                .partition_point(|e| (e.at, e.seq) > (entry.at, entry.seq));
            self.due.insert(pos, entry);
        } else {
            self.insert_wheel(entry);
            if self.due.is_empty() {
                // Keep the invariant: a non-empty queue always has a
                // non-empty due run, so `peek_time` works with `&self`.
                self.advance();
            }
        }
    }

    fn insert_wheel(&mut self, entry: Entry<E>) {
        let at = entry.at.as_ns();
        debug_assert!(at >= self.epoch);
        let level = Self::level_for(self.epoch, at);
        let slot = Self::slot_for(level, at);
        self.slots[level * SLOTS + slot].push(entry);
        self.occ[level] |= 1 << slot;
        self.in_wheel += 1;
    }

    /// Moves the earliest pending wheel events into the due run, cascading
    /// coarser levels down until a level-0 slot fires. A fired level-0
    /// slot spans one `2^GRAIN_BITS` ns window; its events become the due
    /// run with one small `(at, seq)` sort.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty());
        // Re-home events whose coarse slot covers the epoch itself: when
        // the previous level-0 fire carried the epoch across a level-l
        // boundary, the events parked in that level-l slot fall into the
        // now-current window and belong at finer levels — left coarse,
        // they could fire after later level-0 events. A fresh push never
        // lands on its level's epoch slot (the level is chosen by the
        // highest differing bit group), so the sweep strictly lowers each
        // swept event's level; and mid-advance cascades only move the
        // epoch to window starts that cannot cover an occupied slot, so
        // one sweep per advance suffices.
        for level in 1..LEVELS {
            let pos = Self::slot_for(level, self.epoch);
            if self.occ[level] & (1 << pos) != 0 {
                self.cascade(level * SLOTS + pos, level, pos);
            }
        }
        while self.in_wheel > 0 {
            let level = (0..LEVELS)
                .find(|&l| self.occ[l] != 0)
                .expect("in_wheel > 0 but all levels empty");
            let pos = Self::slot_for(level, self.epoch);
            // All wheel events are at or after the epoch, and share every
            // group above `level` with it, so their slots never wrap: the
            // earliest occupied slot is the lowest set bit at/after `pos`.
            let masked = self.occ[level] & (u64::MAX << pos);
            debug_assert!(masked != 0, "occupied slot behind the epoch");
            let slot = masked.trailing_zeros() as usize;
            let bucket = level * SLOTS + slot;
            if level > 0 {
                // Cascade toward level 0: re-home the slot's events
                // against the slot's own window start; each lands at a
                // strictly lower level.
                let shift = Self::shift_of(level);
                // Bits below and including this level's group (the top
                // level's group reaches past bit 63, hence the check).
                let low_bits = shift + SLOT_BITS;
                let low_mask = if low_bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << low_bits) - 1
                };
                let window = (self.epoch & !low_mask) | ((slot as u64) << shift);
                debug_assert!(window >= self.epoch);
                self.epoch = window;
                self.cascade(bucket, level, slot);
                continue;
            }
            // Fire the whole level-0 slot: everything in the window
            // becomes the due run, ordered by (at, seq) descending so the
            // earliest pops first and equal timestamps stay FIFO. The old
            // (drained) due buffer is recycled as the new slot vector, so
            // steady-state operation allocates nothing.
            let window = (self.epoch & !((1 << (GRAIN_BITS + SLOT_BITS)) - 1))
                | ((slot as u64) << GRAIN_BITS);
            // The epoch may sit unaligned inside the fired window (it is
            // set to `at + 1` when a push hits an empty queue), so
            // `window` can round below it — but never by a full slot.
            debug_assert!(window.saturating_add(1 << GRAIN_BITS) > self.epoch);
            std::mem::swap(&mut self.slots[bucket], &mut self.due);
            self.occ[0] &= !(1 << slot);
            self.in_wheel -= self.due.len();
            debug_assert!(self.due.iter().all(|e| e.at.as_ns() >= self.epoch));
            self.epoch = window.saturating_add(1 << GRAIN_BITS);
            self.due
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
            return;
        }
    }

    /// Empties `bucket` (at `level`/`slot`), re-inserting its events at
    /// strictly lower levels relative to the current epoch. The bucket's
    /// buffer is handed back afterwards so no allocation churns.
    fn cascade(&mut self, bucket: usize, level: usize, slot: usize) {
        let mut entries = std::mem::take(&mut self.slots[bucket]);
        self.occ[level] &= !(1 << slot);
        self.in_wheel -= entries.len();
        for e in entries.drain(..) {
            debug_assert!(e.at.as_ns() >= self.epoch);
            self.insert_wheel(e);
        }
        self.slots[bucket] = entries;
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.due.pop()?;
        if self.due.is_empty() && self.in_wheel > 0 {
            self.advance();
        }
        Some((e.at, e.payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.due.last().map(|e| e.at)
    }

    fn clear(&mut self) {
        self.due.clear();
        for level in 0..LEVELS {
            let mut bits = self.occ[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.slots[level * SLOTS + slot].clear();
            }
            self.occ[level] = 0;
        }
        self.in_wheel = 0;
        self.epoch = 0;
    }
}

#[derive(Debug)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A deterministic min-queue of `(Time, E)` pairs.
///
/// # Examples
///
/// ```
/// use selftune_simcore::event::EventQueue;
/// use selftune_simcore::time::{Dur, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::ZERO + Dur::ms(5), "b");
/// q.push(Time::ZERO + Dur::ms(1), "a");
/// assert_eq!(q.pop(), Some((Time::ZERO + Dur::ms(1), "a")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (timing-wheel backed).
    pub fn new() -> EventQueue<E> {
        EventQueue {
            backend: Backend::Wheel(Wheel::new()),
            seq: 0,
            len: 0,
        }
    }

    /// Creates an empty queue backed by the original binary heap.
    ///
    /// The reference side of the differential property test
    /// (`tests/props.rs::wheel_matches_heap_pop_order`) and nothing else;
    /// simulations use [`EventQueue::new`].
    #[doc(hidden)]
    pub fn heap_fallback() -> EventQueue<E> {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, payload };
        match &mut self.backend {
            Backend::Wheel(w) => w.insert(entry),
            Backend::Heap(h) => h.push(entry),
        }
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.backend {
            Backend::Wheel(w) => w.peek_time(),
            Backend::Heap(h) => h.peek().map(|e| e.at),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let out = match &mut self.backend {
            Backend::Wheel(w) => w.pop(),
            Backend::Heap(h) => h.pop().map(|e| (e.at, e.payload)),
        };
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Removes the earliest event only if it is due at or before `now`:
    /// one comparison against the cached earliest timestamp, then a pop.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        match &mut self.backend {
            Backend::Wheel(w) => match w.due.last() {
                Some(e) if e.at <= now => {
                    let out = w.pop();
                    self.len -= 1;
                    out
                }
                _ => None,
            },
            Backend::Heap(h) => match h.peek() {
                Some(e) if e.at <= now => {
                    self.len -= 1;
                    h.pop().map(|e| (e.at, e.payload))
                }
                _ => None,
            },
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Wheel(w) => w.clear(),
            Backend::Heap(h) => h.clear(),
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn at(ms: u64) -> Time {
        Time::ZERO + Dur::ms(ms)
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(at(30), 3);
        q.push(at(10), 1);
        q.push(at(20), 2);
        assert_eq!(q.pop(), Some((at(10), 1)));
        assert_eq!(q.pop(), Some((at(20), 2)));
        assert_eq!(q.pop(), Some((at(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((at(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(at(10), "x");
        assert_eq!(q.pop_due(at(9)), None);
        assert_eq!(q.pop_due(at(10)), Some((at(10), "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(at(1), ());
        assert_eq!(q.peek_time(), Some(at(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(at(1), ());
        q.push(at(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_then_reuse() {
        let mut q = EventQueue::new();
        q.push(at(500), 1);
        q.clear();
        q.push(at(3), 2);
        q.push(at(700), 3);
        assert_eq!(q.pop(), Some((at(3), 2)));
        assert_eq!(q.pop(), Some((at(700), 3)));
    }

    #[test]
    fn far_future_events_cascade_down() {
        let mut q = EventQueue::new();
        // Span every wheel level: from 1 ns to ~18 sim-years out.
        let times: Vec<u64> = (0..60).map(|b| 1u64 << b).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut last = Time::ZERO;
        for _ in 0..times.len() {
            let (t, _) = q.pop().expect("event");
            assert!(t >= last);
            last = t;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(at(40), 'a');
        q.push(at(10), 'b');
        assert_eq!(q.pop(), Some((at(10), 'b')));
        // Pushing earlier than the pending event but after the popped one.
        q.push(at(20), 'c');
        q.push(at(20), 'd');
        assert_eq!(q.pop(), Some((at(20), 'c')));
        assert_eq!(q.pop(), Some((at(20), 'd')));
        assert_eq!(q.pop(), Some((at(40), 'a')));
    }

    #[test]
    fn push_at_popped_instant_goes_last_among_equals() {
        let mut q = EventQueue::new();
        q.push(at(5), 1);
        assert_eq!(q.pop(), Some((at(5), 1)));
        q.push(at(5), 2);
        q.push(at(7), 3);
        assert_eq!(q.pop(), Some((at(5), 2)));
        assert_eq!(q.pop(), Some((at(7), 3)));
    }

    #[test]
    fn heap_fallback_matches_basic_behaviour() {
        let mut q = EventQueue::heap_fallback();
        q.push(at(3), 1);
        q.push(at(1), 2);
        q.push(at(1), 3);
        assert_eq!(q.peek_time(), Some(at(1)));
        assert_eq!(q.pop(), Some((at(1), 2)));
        assert_eq!(q.pop_due(at(0)), None);
        assert_eq!(q.pop_due(at(1)), Some((at(1), 3)));
        assert_eq!(q.len(), 1);
    }
}
