//! Mergeable distribution sketches for the fleet aggregate CDFs and
//! hand-over means: one type, two kinds.
//!
//! A *lossless* [`StreamSketch`] keeps every value. Its quantiles are
//! `stats::quantile_sorted` over the sorted values, its mean the
//! sequential sum in record-then-merge order: exact, and the small-fleet
//! default (`Node::report_mode(_, true)`). A *binned* one keeps a fixed grid of `u64`
//! bin counters instead: O(1) per value, O(bins) memory per node and
//! integer-add merging — what a 10k-node / 1M-task fleet, whose gap
//! population runs into the tens of millions, can afford
//! (`ClusterRunner::with_sketch_aggregates`). Its quantiles are
//! bin-quantised: each is a bin's midpoint, except the tracked exact
//! extremes. Either kind folded in node-id order gives byte-identical
//! fleet aggregates at any thread count; the two kinds never merge.

use selftune_simcore::stats;

/// A streaming distribution: exact count/sum/min/max, plus either every
/// recorded value or linear bins, values past the grid clamping into the
/// last bin. Both kinds fit in 72 bytes (`stream_sketch_keeps_its_size`),
/// the binned kind's size alone, so the lossless kind costs the 40k
/// binned sketches of a 10k-node fleet nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSketch {
    kind: Kind,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

#[derive(Clone, Debug, PartialEq)]
enum Kind {
    /// `(width, bins, counts)`: `counts` runs one past the highest bin
    /// recorded so far (empty before the first record), at most `bins`
    /// long. In a 10k-node fleet most nodes are idle, and an empty sketch
    /// must cost a handful of words, not `bins × 8` bytes. The length is
    /// a function of the recorded values alone, so two sketches of the
    /// same population compare equal however they were assembled.
    Binned(f64, usize, Vec<u64>),
    /// Every value in record-then-merge order, and whether it has been
    /// sorted since the last record — what quantiles read.
    Lossless(Vec<f64>, bool),
}

impl StreamSketch {
    fn empty(kind: Kind) -> StreamSketch {
        StreamSketch {
            kind,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// An empty binned sketch of `bins` linear bins of `width` each.
    ///
    /// # Panics
    ///
    /// Panics unless `width > 0` and `bins > 0`.
    pub(crate) fn new(width: f64, bins: usize) -> StreamSketch {
        assert!(width > 0.0, "bin width {width} must be positive");
        assert!(bins > 0, "sketch needs at least one bin");
        StreamSketch::empty(Kind::Binned(width, bins, Vec::new()))
    }

    /// An empty sketch that keeps every value.
    pub(crate) fn lossless() -> StreamSketch {
        StreamSketch::empty(Kind::Lossless(Vec::new(), true))
    }

    /// A lossless sketch, or a binned one on `width × bins`.
    fn of(lossless: bool, width: f64, bins: usize) -> StreamSketch {
        if lossless {
            StreamSketch::lossless()
        } else {
            StreamSketch::new(width, bins)
        }
    }

    /// A sketch for normalised inter-finish gaps (gap / period): lossless,
    /// or binned where healthy values sit near 1 and the miss threshold at
    /// 1.5 — 0.01 resolution up to 20 periods covers any tail worth
    /// plotting.
    pub fn for_gap_norm(lossless: bool) -> StreamSketch {
        StreamSketch::of(lossless, 0.01, 2000)
    }

    /// A sketch for attach delays in milliseconds: lossless, or binned at
    /// 1 ms resolution up to 4 s (cold-start hand-overs sit in the
    /// hundreds of ms).
    pub(crate) fn for_delay_ms(lossless: bool) -> StreamSketch {
        StreamSketch::of(lossless, 1.0, 4000)
    }

    /// Whether the sketch keeps every value.
    pub fn is_lossless(&self) -> bool {
        matches!(self.kind, Kind::Lossless(..))
    }

    /// Records one value (a binned sketch clamps negative values into its
    /// first bin).
    pub fn record(&mut self, value: f64) {
        match &mut self.kind {
            Kind::Binned(width, bins, counts) => {
                let bin = ((value.max(0.0) / *width) as usize).min(*bins - 1);
                if counts.len() <= bin {
                    counts.resize(bin + 1, 0);
                }
                counts[bin] += 1;
            }
            Kind::Lossless(values, sorted) => {
                values.push(value);
                *sorted = false;
            }
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another sketch of the same kind into this one. Bins, count,
    /// min and max merge fully order-insensitively. The float `sum` is
    /// exact only for a *fixed* merge order — which
    /// `AggregateMetrics::new` guarantees by folding the per-node sketches
    /// in node-id order, whichever thread produced them. A binned merge
    /// adds the other's sum; a lossless one continues the running sum
    /// value by value, so its mean is the one sequential sum of every
    /// value in record-then-merge order.
    ///
    /// # Panics
    ///
    /// Panics when the grids differ, or when a lossless sketch meets a
    /// binned one.
    pub(crate) fn merge(&mut self, other: &StreamSketch) {
        match (&mut self.kind, &other.kind) {
            (Kind::Binned(width, bins, counts), Kind::Binned(w, b, c)) => {
                assert_eq!((*width, *bins), (*w, *b), "sketch grid mismatch");
                if counts.len() < c.len() {
                    counts.resize(c.len(), 0);
                }
                for (a, b) in counts.iter_mut().zip(c) {
                    *a += b;
                }
                self.sum += other.sum;
            }
            (Kind::Lossless(values, sorted), Kind::Lossless(v, _)) => {
                values.extend_from_slice(v);
                *sorted &= v.is_empty();
                self.sum = v.iter().fold(self.sum, |sum, x| sum + x);
            }
            _ => panic!("cannot merge a lossless sketch with a binned one"),
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sorts a lossless sketch's values for its quantile reads — once,
    /// however many follow. A no-op on a binned sketch.
    ///
    /// # Panics
    ///
    /// Panics on a NaN value.
    pub fn sort(&mut self) {
        if let Kind::Lossless(values, sorted @ false) = &mut self.kind {
            values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            *sorted = true;
        }
    }

    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Largest recorded value (exact).
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`). Lossless: `quantile_sorted` over
    /// the sorted values, interpolating between ranks. Binned: the
    /// midpoint of the bin holding the rank-`round(q·(n-1))` value
    /// (nearest rank — bin quantisation dominates the difference), with
    /// the exact tracked min/max at the extremes.
    ///
    /// # Panics
    ///
    /// Panics on a lossless sketch recorded into since its last
    /// [`StreamSketch::sort`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (width, counts) = match &self.kind {
            Kind::Binned(width, _, counts) => (*width, counts),
            Kind::Lossless(values, sorted) => {
                assert!(*sorted, "lossless sketch read before sort");
                return Some(stats::quantile_sorted(values, q));
            }
        };
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (bin, &c) in counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                // A sparse top (or bottom) bin's midpoint can overshoot the
                // exact tracked extremes — e.g. a lone value at the bin's
                // left edge, or anything clamped into the overflow bin — so
                // the representative is clamped into [min, max]: no sketch
                // quantile may leave the range of the recorded data.
                return Some(((bin as f64 + 0.5) * width).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A binned sketch's bin counters.
    fn counts(s: &StreamSketch) -> &Vec<u64> {
        match &s.kind {
            Kind::Binned(_, _, counts) => counts,
            Kind::Lossless(..) => panic!("lossless sketch has no bins"),
        }
    }

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
            prop_assert_eq!(&counts(&merged)[..], &dense[..top]);
            prop_assert_eq!(&counts(&merged), &counts(&direct));
            prop_assert_eq!(merged.count, direct.count);
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
        assert_eq!(s.count, 4);
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
        assert_eq!(counts(&ab_c), counts(&a_bc));
        assert_eq!(ab_c.count, a_bc.count);
        assert_eq!(ab_c.min, a_bc.min);
        assert_eq!(ab_c.max, a_bc.max);
        assert!((ab_c.sum - a_bc.sum).abs() < 1e-9);
        assert_eq!(ab_c.count, 6);
    }

    #[test]
    fn empty_sketches_cost_no_bins_and_merge_cleanly() {
        let empty = StreamSketch::for_gap_norm(false);
        assert!(empty.is_empty());
        assert_eq!(counts(&empty).capacity(), 0, "bins must allocate lazily");
        assert_eq!(empty.quantile(0.5), None);
        // empty ← empty stays unallocated; full ← empty and empty ← full
        // both end up with the recorded values.
        let mut a = StreamSketch::for_gap_norm(false);
        a.merge(&empty);
        assert_eq!(counts(&a).capacity(), 0);
        let mut full = StreamSketch::for_gap_norm(false);
        full.record(1.25);
        a.merge(&full);
        assert_eq!(a.count, 1);
        assert_eq!(counts(&a).iter().sum::<u64>(), 1);
        full.merge(&empty);
        assert_eq!(full.count, 1);
    }

    #[test]
    fn overflow_values_clamp_into_the_last_bin() {
        let mut s = StreamSketch::new(1.0, 4);
        s.record(1000.0);
        s.record(2000.0);
        assert_eq!(counts(&s)[..], [0, 0, 0, 2]);
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

    #[test]
    fn lossless_quantiles_are_the_exact_sorted_ones() {
        let values = [2.0, 0.5, 1.25, 1.0, 0.5];
        let mut s = StreamSketch::lossless();
        for v in values {
            s.record(v);
        }
        s.sort();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(stats::quantile_sorted(&sorted, q)));
        }
        assert_eq!(s.max(), Some(2.0));
        assert_eq!(s.mean(), Some(values.iter().sum::<f64>() / 5.0));
        // Another record unsorts it until the next sort.
        s.record(0.0);
        s.sort();
        assert_eq!(s.quantile(0.0), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "lossless sketch read before sort")]
    fn lossless_quantiles_refuse_unsorted_values() {
        let mut s = StreamSketch::lossless();
        s.record(1.0);
        s.record(0.5);
        let _ = s.quantile(0.5);
    }

    #[test]
    fn stream_sketch_keeps_its_size() {
        // 72 bytes on 64-bit before the lossless kind (width, bins, the
        // bin vector, count, sum, min, max) and 72 after: the lossless
        // variant's vector and flag fit beside the binned variant's
        // fields, so the 40k binned sketches of a 10k-node fleet do not
        // grow.
        assert_eq!(std::mem::size_of::<StreamSketch>(), 72);
    }
}
