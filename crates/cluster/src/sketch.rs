//! Mergeable histogram sketches for fleet-scale aggregate CDFs.
//!
//! At 8 nodes the aggregates keep every inter-finish gap of every task and
//! sort them once at the end — exact, and exactly what you cannot afford
//! at 10k nodes / 1M tasks, where the gap population runs into the tens of
//! millions. A [`StreamSketch`] replaces the vector with a fixed grid of
//! `u64` bin counters: O(1) per recorded value, O(bins) memory per node,
//! and *associative, commutative* merging — integer adds — so per-node
//! sketches folded in node-id order produce byte-identical fleet CDFs at
//! any thread count, the same determinism argument the exact path uses.
//!
//! Quantiles read from a sketch are bin-quantised (each reported value is
//! a bin's representative midpoint, except the tracked exact maximum for
//! the top of the distribution). That resolution is the deliberate trade:
//! sketch mode is opt-in (`ClusterRunner::with_sketch_aggregates`) and the
//! small-fleet default keeps the exact vectors and their CSV bytes.

/// A fixed-grid streaming histogram: linear bins of `width`, values past
/// the grid clamp into the last bin, exact count/sum/min/max carried
/// alongside for means and tail reporting.
///
/// The bin vector grows on demand, to one past the highest bin recorded
/// so far (bins above it would all be zero): in a 10k-node fleet most
/// nodes are idle, and an empty sketch must cost a handful of words, not
/// `bins × 8` bytes — nor a busy one's, whose values sit near the bottom
/// of a grid sized for the tail. The length is a function of the
/// recorded values alone, so two sketches of the same population compare
/// equal however they were assembled.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSketch {
    width: f64,
    bins: usize,
    /// One past the highest bin recorded so far (empty before the first
    /// record), at most `bins` long.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamSketch {
    /// An empty sketch of `bins` linear bins of `width` each.
    ///
    /// # Panics
    ///
    /// Panics unless `width > 0` and `bins > 0`.
    pub fn new(width: f64, bins: usize) -> StreamSketch {
        assert!(width > 0.0, "bin width {width} must be positive");
        assert!(bins > 0, "sketch needs at least one bin");
        StreamSketch {
            width,
            bins,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A sketch sized for normalised inter-finish gaps (gap / period):
    /// healthy values sit near 1, the miss threshold at 1.5; 0.01
    /// resolution up to 20 periods covers any tail worth plotting.
    pub fn for_gap_norm() -> StreamSketch {
        StreamSketch::new(0.01, 2000)
    }

    /// A sketch sized for attach delays in milliseconds: 1 ms resolution
    /// up to 4 s (cold-start hand-overs sit in the hundreds of ms).
    pub fn for_delay_ms() -> StreamSketch {
        StreamSketch::new(1.0, 4000)
    }

    /// Records one value (negative values clamp into the first bin).
    pub fn record(&mut self, value: f64) {
        let bin = if value <= 0.0 {
            0
        } else {
            ((value / self.width) as usize).min(self.bins - 1)
        };
        if self.counts.len() <= bin {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another sketch of the same shape into this one. Bin counts,
    /// count, min and max merge fully order-insensitively; the float `sum`
    /// is an ordinary f64 accumulation, exact only for a *fixed* merge
    /// order — which `AggregateMetrics::new` guarantees by folding the
    /// per-node sketches in node-id order, regardless of which thread
    /// produced them. That fixed order is the whole determinism argument.
    ///
    /// # Panics
    ///
    /// Panics when the grids differ.
    pub fn merge(&mut self, other: &StreamSketch) {
        assert_eq!(self.width, other.width, "sketch grid mismatch");
        assert_eq!(self.bins, other.bins, "sketch grid mismatch");
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) at bin resolution: the midpoint of
    /// the bin holding the rank-`round(q·(n-1))` value (nearest rank,
    /// where the exact path's `quantile_sorted` interpolates — bin
    /// quantisation dominates either way). The extremes return the exact
    /// tracked min/max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                // A sparse top (or bottom) bin's midpoint can overshoot the
                // exact tracked extremes — e.g. a lone value at the bin's
                // left edge, or anything clamped into the overflow bin — so
                // the representative is clamped into [min, max]: no sketch
                // quantile may leave the range of the recorded data.
                return Some(((bin as f64 + 0.5) * self.width).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Sketches of unequal lengths, merged in turn, hold what
        /// full-grid bin vectors added bin by bin hold, cut one past the
        /// highest bin any of them recorded; and the same values recorded
        /// into one sketch give the same bins, count and quantiles.
        #[test]
        fn unequal_length_merges_equal_a_dense_reference_merge(
            parts in prop::collection::vec(prop::collection::vec(-2.0f64..70.0, 0..12), 1..6),
        ) {
            let (width, bins) = (1.5, 40);
            let mut merged = StreamSketch::new(width, bins);
            let mut direct = StreamSketch::new(width, bins);
            let mut dense = vec![0_u64; bins];
            for values in &parts {
                let mut part = StreamSketch::new(width, bins);
                for &v in values {
                    part.record(v);
                    direct.record(v);
                    dense[((v.max(0.0) / width) as usize).min(bins - 1)] += 1;
                }
                merged.merge(&part);
            }
            let top = dense.iter().rposition(|&c| c > 0).map_or(0, |b| b + 1);
            prop_assert_eq!(&merged.counts[..], &dense[..top]);
            prop_assert_eq!(&merged.counts, &direct.counts);
            prop_assert_eq!(merged.count(), direct.count());
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), direct.quantile(q));
            }
        }
    }

    #[test]
    fn records_and_reports_basic_stats() {
        let mut s = StreamSketch::new(0.1, 100);
        for v in [0.25, 0.55, 0.95, 3.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean().unwrap() - (0.25 + 0.55 + 0.95 + 3.0) / 4.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(0.25));
        assert_eq!(s.quantile(1.0), Some(3.0));
    }

    #[test]
    fn quantiles_land_in_the_right_bin() {
        let mut s = StreamSketch::new(1.0, 50);
        for i in 0..100 {
            s.record(i as f64 / 10.0); // 0.0 .. 9.9, ten per unit bin
        }
        let med = s.quantile(0.5).unwrap();
        assert!((med - 4.5).abs() < 1.0 + 1e-12, "median bin ~[4,5): {med}");
        let p90 = s.quantile(0.9).unwrap();
        assert!((8.0..=10.0).contains(&p90), "p90 {p90}");
    }

    #[test]
    fn merge_is_associative_and_order_insensitive_on_counts() {
        let mut a = StreamSketch::new(0.5, 20);
        let mut b = StreamSketch::new(0.5, 20);
        let mut c = StreamSketch::new(0.5, 20);
        for v in [0.1, 1.0, 2.2] {
            a.record(v);
        }
        for v in [3.3, 0.4] {
            b.record(v);
        }
        c.record(7.7);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // Integer state is associative outright; the float sum only up to
        // rounding (`AggregateMetrics::new` fixes the merge order, so
        // nothing relies on more than this).
        assert_eq!(ab_c.counts, a_bc.counts);
        assert_eq!(ab_c.count(), a_bc.count());
        assert_eq!(ab_c.min, a_bc.min);
        assert_eq!(ab_c.max, a_bc.max);
        assert!((ab_c.sum - a_bc.sum).abs() < 1e-9);
        assert_eq!(ab_c.count(), 6);
    }

    #[test]
    fn empty_sketches_cost_no_bins_and_merge_cleanly() {
        let empty = StreamSketch::for_gap_norm();
        assert!(empty.is_empty());
        assert_eq!(empty.counts.capacity(), 0, "bins must allocate lazily");
        assert_eq!(empty.quantile(0.5), None);
        // empty ← empty stays unallocated; full ← empty and empty ← full
        // both end up with the recorded values.
        let mut a = StreamSketch::for_gap_norm();
        a.merge(&empty);
        assert_eq!(a.counts.capacity(), 0);
        let mut full = StreamSketch::for_gap_norm();
        full.record(1.25);
        a.merge(&full);
        assert_eq!(a.count(), 1);
        assert_eq!(a.counts.iter().sum::<u64>(), 1);
        full.merge(&empty);
        assert_eq!(full.count(), 1);
    }

    #[test]
    fn overflow_values_clamp_into_the_last_bin() {
        let mut s = StreamSketch::new(1.0, 4);
        s.record(1000.0);
        s.record(2000.0);
        assert_eq!(s.counts, [0, 0, 0, 2]);
        assert_eq!(s.max(), Some(2000.0));
        // Interior quantiles stay on the grid; the extremes are exact.
        assert_eq!(s.quantile(1.0), Some(2000.0));
    }

    #[test]
    fn quantiles_never_leave_the_recorded_range() {
        // A lone value near a bin's left edge: the raw midpoint of its bin
        // (0.15) would overshoot the exact max (0.11).
        let mut s = StreamSketch::new(0.1, 100);
        s.record(0.11);
        for q in [0.25, 0.5, 0.75] {
            assert_eq!(s.quantile(q), Some(0.11), "q={q}");
        }
        // Overflow values clamp into the last bin, whose midpoint (3.5)
        // undershoots the exact max — interior quantiles must still not
        // *under*shoot the exact min either.
        let mut o = StreamSketch::new(1.0, 4);
        o.record(900.0);
        o.record(1000.0);
        let med = o.quantile(0.5).unwrap();
        assert!(
            (900.0..=1000.0).contains(&med),
            "midpoint must clamp into [min, max]: {med}"
        );
    }
}
