//! Time-ordered event queue for the discrete-event engine.
//!
//! Events with equal timestamps are delivered in insertion order (FIFO),
//! which keeps simulations deterministic regardless of queue internals.
//!
//! # Implementation
//!
//! A `BinaryHeap` of entries ordered by `(time, insertion seq)`: push and
//! pop are O(log n), `peek_time` is O(1) with `&self`, and `pop_due`
//! decides with one comparison against the heap's top.
//!
//! Why not a timing wheel: a kernel holds one pending `Start`/`Wake` per
//! task — a few to a few thousand events — so the queue is shallow. A
//! 9 × 64-slot hierarchical wheel, measured against this heap on the same
//! simulations (byte-identical outputs), bought at most 2–4 % of
//! `run_wall_s` on the deepest kernels (`fleet_dense`, ~1 700 tasks per
//! node) and cost memory everywhere: its 576 slot vectors are 13.8 KB per
//! kernel, so `fleet_wide` (10 000 kernels) peaked at 636 MB against the
//! heap's 500 MB, and `control_replicated` at 77 against 66 MB. Its one
//! clear win was the queue's own microbenchmark (4 096 re-armed timers,
//! ~55 vs ~120 ns per operation).

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
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes the earliest event only if it is due at or before `now`:
    /// one comparison against the heap's top, then a pop.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        match self.heap.peek() {
            Some(e) if e.at <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
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
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        // From 1 ns to ~18 sim-years out.
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
}
