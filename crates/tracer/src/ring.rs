//! The bounded circular buffer backing the kernel tracer.
//!
//! The paper's `qtrace` patch logs timestamps into "a statically allocated
//! circular buffer" drained in batches by the user-space `lfs++` tool
//! through a character device (Section 4.1). When the producer outruns the
//! consumer the oldest events are overwritten; the drop counter lets
//! experiments size the buffer correctly.
//!
//! What is static here is the paper's *bound*: the buffer never holds more
//! than `capacity` entries, and overwrites and drops exactly as a
//! preallocated one would. The storage is not: it grows on demand up to
//! that bound, so the thousands of rings of a fleet whose tasks are idle
//! or drained often do not each hold a full buffer.

use std::collections::VecDeque;

/// Bounded circular buffer that overwrites the oldest entry on overflow;
/// its storage grows on demand up to the bound.
#[derive(Debug)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingBuffer<T> {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            buf: VecDeque::new(),
            capacity,
            pushed: 0,
            dropped: 0,
        }
    }

    /// Appends an entry, overwriting the oldest if full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        self.pushed += 1;
    }

    /// Removes and returns all buffered entries, oldest first.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }

    /// Moves all buffered entries into `out` (cleared first), oldest
    /// first.
    ///
    /// The allocation-free sibling of [`RingBuffer::drain`]: a consumer
    /// draining periodically reuses one buffer instead of allocating a
    /// fresh `Vec` per batch — this is the paper's user-space daemon
    /// reading the character device into a preallocated area.
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        out.clear();
        out.extend(self.buf.drain(..));
    }

    /// Number of entries currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total entries ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Entries lost to overwrite.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_in_order() {
        let mut rb = RingBuffer::new(4);
        for i in 0..3 {
            rb.push(i);
        }
        assert_eq!(rb.drain(), vec![0, 1, 2]);
        assert!(rb.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut rb = RingBuffer::new(3);
        for i in 0..5 {
            rb.push(i);
        }
        assert_eq!(rb.total_dropped(), 2);
        assert_eq!(rb.drain(), vec![2, 3, 4]);
    }

    #[test]
    fn counters_track_totals() {
        let mut rb = RingBuffer::new(2);
        rb.push('a');
        rb.push('b');
        rb.push('c');
        assert_eq!(rb.total_pushed(), 3);
        assert_eq!(rb.total_dropped(), 1);
        assert_eq!(rb.len(), 2);
    }

    #[test]
    fn drain_resets_contents_not_counters() {
        let mut rb = RingBuffer::new(2);
        rb.push(1);
        let _ = rb.drain();
        rb.push(2);
        assert_eq!(rb.total_pushed(), 2);
        assert_eq!(rb.drain(), vec![2]);
    }

    #[test]
    fn storage_grows_on_demand_and_the_bound_still_overwrites() {
        let mut rb = RingBuffer::new(100);
        assert_eq!(rb.buf.capacity(), 0, "an unused ring holds no storage");
        for i in 0..250 {
            rb.push(i);
        }
        assert_eq!((rb.len(), rb.total_dropped()), (100, 150));
        assert_eq!(rb.drain(), (150..250).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: RingBuffer<u8> = RingBuffer::new(0);
    }
}
