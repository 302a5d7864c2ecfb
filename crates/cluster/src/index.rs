//! Node-headroom index: O(log n) placement queries over the fleet.
//!
//! A linear-scan placer walks every node per decision (and sorts them into
//! the policy's candidate order first), which is fine at 8 nodes and ruinous
//! at 10 000. This index keeps two views of the per-node reserved
//! bandwidth, both updated in O(log n) per booking:
//!
//! * a [`BTreeSet`] of `(reserved.to_bits(), node)` pairs — the load order
//!   every policy's tie-breaking is defined on, and a range of it counts
//!   "how many nodes are strictly fuller than the winner" (the
//!   bandwidth-aware `migrations` counter);
//! * a min-segment tree over node ids — "leftmost node with reserved ≤ t"
//!   for first-fit in one root-to-leaf descent.
//!
//! # Exactness
//!
//! The index must reproduce the scan *byte for byte*: same winner, same
//! `migrations` count, same rejection witness, at every decision, or the
//! determinism contract (and the journal replay) breaks. Three facts make
//! that possible without re-deriving the scan's arithmetic:
//!
//! 1. For non-negative finite `f64`, `to_bits()` is strictly monotone, so
//!    the BTreeSet order *is* the reserved order with node-id ties —
//!    exactly the order the scan's candidate walk sorts into. Reserved
//!    bandwidth is never negative (every subtraction is clamped) and never
//!    NaN.
//! 2. IEEE-754 addition is weakly monotone, so the scan's admission test
//!    `reserved + demand <= ulub + 1e-9` is equivalent to
//!    `reserved <= t` for the exact threshold
//!    `t = max { x : x + demand <= ulub + 1e-9 }`, which
//!    [`fit_threshold`] computes by a couple of ULP nudges.
//! 3. IEEE-754 subtraction from a fixed minuend is anti-monotone, so the
//!    scan's rejection witness `max_i (ulub - reserved_i)` equals
//!    `ulub - min_i reserved_i` — one BTreeSet lookup.
//!
//! Two differential tests in `placer.rs` hold the index to that contract
//! against the scan, decision by decision and rebalance pass by rebalance
//! pass. The scan is a free function of that file's test module
//! (`scan_fit`), run over the placer's own bookings: there is no scan mode
//! on the placer, so the tests check the very `fit` a fleet runs.

use std::collections::BTreeSet;
use std::ops::Bound;

/// The largest reserved bandwidth that still admits `demand` under the
/// scan path's test `reserved + demand <= ulub + 1e-9`, or `None` when not
/// even an empty node fits. Computed to the exact ULP so a bit-level
/// `reserved <= t` comparison reproduces the scan's float test.
pub fn fit_threshold(ulub: f64, demand: f64) -> Option<f64> {
    let limit = ulub + 1e-9;
    if demand > limit {
        // Even reserved = 0 fails; the loop below would walk past zero.
        return None;
    }
    let mut t = limit - demand;
    // `t` approximates the boundary; nudge by ULPs until it is exact.
    // Both loops terminate in a step or two: subtraction of ordered values
    // is already within one rounding error of the true boundary.
    while t + demand > limit {
        t = prev_f64(t);
    }
    while next_f64(t) + demand <= limit {
        t = next_f64(t);
    }
    debug_assert!(t >= 0.0, "threshold {t} negative for demand {demand}");
    Some(t)
}

/// The next representable `f64` above a non-negative finite value.
fn next_f64(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x >= 0.0);
    f64::from_bits(x.to_bits() + 1)
}

/// The previous representable `f64` below a positive finite value.
fn prev_f64(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    f64::from_bits(x.to_bits() - 1)
}

/// Ordered index over per-node reserved bandwidth.
///
/// Nodes can be *suspended* (taken out of every query view while keeping
/// their reserved value) — the rebalancer suspends banned nodes once per
/// pass instead of re-filtering the whole fleet per eviction.
#[derive(Clone, Debug)]
pub struct HeadroomIndex {
    reserved: Vec<f64>,
    suspended: Vec<bool>,
    /// Active nodes ordered by `(reserved bits, node id)`.
    by_load: BTreeSet<(u64, usize)>,
    /// Min-segment tree over `reserved.to_bits()` by node id; suspended
    /// and padding leaves hold `u64::MAX`.
    seg: Vec<u64>,
    /// Leaf count of the segment tree (power of two).
    base: usize,
}

impl HeadroomIndex {
    /// Builds the index over the given per-node reserved bandwidth.
    pub fn new(reserved: &[f64]) -> HeadroomIndex {
        assert!(!reserved.is_empty(), "index needs at least one node");
        let base = reserved.len().next_power_of_two();
        let mut idx = HeadroomIndex {
            reserved: vec![0.0; reserved.len()],
            suspended: vec![false; reserved.len()],
            by_load: BTreeSet::new(),
            seg: vec![u64::MAX; 2 * base],
            base,
        };
        idx.rebuild(reserved);
        idx
    }

    /// Replaces every node's reserved value and clears suspensions (the
    /// epoch rebuild after `sync_reserved`).
    pub(crate) fn rebuild(&mut self, reserved: &[f64]) {
        assert_eq!(reserved.len(), self.reserved.len(), "node count mismatch");
        self.by_load.clear();
        self.seg.iter_mut().for_each(|v| *v = u64::MAX);
        self.reserved.copy_from_slice(reserved);
        self.suspended.iter_mut().for_each(|s| *s = false);
        for (node, &r) in reserved.iter().enumerate() {
            debug_assert!(r.is_finite() && r >= 0.0, "bad reserved {r}");
            self.by_load.insert((r.to_bits(), node));
            self.seg[self.base + node] = r.to_bits();
        }
        // Build internal segment-tree levels bottom-up.
        for i in (1..self.base).rev() {
            self.seg[i] = self.seg[2 * i].min(self.seg[2 * i + 1]);
        }
    }

    /// Updates one node's reserved value. On a suspended node only the
    /// stored value changes; the query views pick it up on `restore`.
    pub fn set(&mut self, node: usize, value: f64) {
        debug_assert!(value.is_finite() && value >= 0.0, "bad reserved {value}");
        let old = self.reserved[node];
        self.reserved[node] = value;
        if self.suspended[node] || old.to_bits() == value.to_bits() {
            return;
        }
        self.by_load.remove(&(old.to_bits(), node));
        self.by_load.insert((value.to_bits(), node));
        self.seg_set(node, value.to_bits());
    }

    /// Takes a node out of every query view, keeping its reserved value.
    pub(crate) fn suspend(&mut self, node: usize) {
        debug_assert!(!self.suspended[node], "double suspend of node {node}");
        self.suspended[node] = true;
        self.by_load.remove(&(self.reserved[node].to_bits(), node));
        self.seg_set(node, u64::MAX);
    }

    /// Puts a suspended node back, at its current reserved value.
    pub(crate) fn restore(&mut self, node: usize) {
        debug_assert!(self.suspended[node], "restore of active node {node}");
        self.suspended[node] = false;
        let bits = self.reserved[node].to_bits();
        self.by_load.insert((bits, node));
        self.seg_set(node, bits);
    }

    /// The least-loaded active node: `(reserved, node)`, ties to the lower
    /// id. `None` when every node is suspended.
    pub fn min_reserved(&self) -> Option<(f64, usize)> {
        let &(bits, node) = self.by_load.first()?;
        Some((f64::from_bits(bits), node))
    }

    /// The lowest-id active node with `reserved <= threshold` — the
    /// first-fit winner — in one segment-tree descent.
    pub fn first_fit(&self, threshold: f64) -> Option<usize> {
        let limit = threshold.to_bits();
        if self.seg[1] > limit {
            return None;
        }
        let mut i = 1;
        while i < self.base {
            i = if self.seg[2 * i] <= limit {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.base)
    }

    /// The fullest active node that still fits — the bandwidth-aware
    /// winner: max reserved `<= threshold`, ties to the lower id.
    pub fn tightest_fit(&self, threshold: f64) -> Option<(f64, usize)> {
        let limit = threshold.to_bits();
        let &(bits, _) = self.by_load.range(..=(limit, usize::MAX)).next_back()?;
        let &(_, node) = self
            .by_load
            .range((bits, 0)..)
            .next()
            .expect("winner load class is non-empty");
        Some((f64::from_bits(bits), node))
    }

    /// How many active nodes are strictly fuller than `value` — the
    /// candidates a descending-order scan would have tried and bounced off
    /// before the winner. A range count on the load order, which holds
    /// exactly the active nodes: linear in the count, and only the
    /// bandwidth-aware policy asks.
    pub(crate) fn count_heavier(&self, value: f64) -> usize {
        let after = (
            Bound::Excluded((value.to_bits(), usize::MAX)),
            Bound::Unbounded,
        );
        self.by_load.range(after).count()
    }

    fn seg_set(&mut self, node: usize, bits: u64) {
        let mut i = self.base + node;
        self.seg[i] = bits;
        while i > 1 {
            i /= 2;
            self.seg[i] = self.seg[2 * i].min(self.seg[2 * i + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan-path admission test the threshold must reproduce.
    fn fits(reserved: f64, demand: f64, ulub: f64) -> bool {
        reserved + demand <= ulub + 1e-9
    }

    #[test]
    fn fit_threshold_is_the_exact_boundary() {
        // Sweep awkward demand/ulub pairs; the threshold must classify
        // every reserved value exactly as the scan's float test does.
        let ulubs = [0.5, 0.9, 1.0, 0.3333333333333333];
        let demands = [0.0, 1e-12, 0.1, 0.2 + 0.1, 0.8999999999, 0.9, 1.0];
        for &u in &ulubs {
            for &d in &demands {
                match fit_threshold(u, d) {
                    None => assert!(!fits(0.0, d, u), "u={u} d={d}"),
                    Some(t) => {
                        assert!(fits(t, d, u), "t itself must fit: u={u} d={d}");
                        assert!(!fits(next_f64(t), d, u), "t+ulp must not fit: u={u} d={d}");
                        // Spot-check monotone equivalence around t.
                        for r in [0.0, t / 2.0, prev_f64(t.max(1e-300)), t] {
                            assert_eq!(r <= t, fits(r, d, u), "r={r} u={u} d={d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn first_fit_finds_leftmost_under_threshold() {
        let idx = HeadroomIndex::new(&[0.8, 0.3, 0.5, 0.3, 0.0]);
        assert_eq!(idx.first_fit(0.4), Some(1));
        assert_eq!(idx.first_fit(0.9), Some(0));
        assert_eq!(idx.first_fit(0.0), Some(4));
        let full = HeadroomIndex::new(&[0.8, 0.9]);
        assert_eq!(full.first_fit(0.5), None);
    }

    #[test]
    fn min_and_tightest_follow_load_order_with_id_ties() {
        let idx = HeadroomIndex::new(&[0.5, 0.2, 0.2, 0.7, 0.5]);
        assert_eq!(idx.min_reserved(), Some((0.2, 1)));
        // Tightest under 0.6: load class 0.5, lowest id 0.
        assert_eq!(idx.tightest_fit(0.6), Some((0.5, 0)));
        // Under 0.3: class 0.2, lowest id 1.
        assert_eq!(idx.tightest_fit(0.3), Some((0.2, 1)));
        assert_eq!(idx.tightest_fit(0.1), None);
    }

    #[test]
    fn count_heavier_matches_a_linear_count() {
        // Rebalance rebuilds can push reserved past 1.0; the count must
        // stay exact there too.
        let loads = [
            0.91, 0.13, 0.5, 0.5001, 0.5, 0.0, 0.86, 0.13, 1.4, 1.2, 0.9999, 1.2, 2.5,
        ];
        let idx = HeadroomIndex::new(&loads);
        for &v in &loads {
            let expect = loads.iter().filter(|&&r| r > v).count();
            assert_eq!(idx.count_heavier(v), expect, "value {v}");
        }
        assert_eq!(idx.tightest_fit(1.3), Some((1.2, 9)));
    }

    #[test]
    fn set_suspend_restore_keep_views_consistent() {
        let mut idx = HeadroomIndex::new(&[0.4, 0.1, 0.9]);
        idx.set(1, 0.95);
        assert_eq!(idx.min_reserved(), Some((0.4, 0)));
        idx.suspend(0);
        assert_eq!(idx.min_reserved(), Some((0.9, 2)));
        assert_eq!(idx.first_fit(0.5), None);
        assert_eq!(idx.count_heavier(0.0), 2);
        // Updates while suspended are invisible until restore.
        idx.set(0, 0.0);
        assert_eq!(idx.first_fit(0.5), None);
        idx.restore(0);
        assert_eq!(idx.min_reserved(), Some((0.0, 0)));
        assert_eq!(idx.first_fit(0.5), Some(0));
        assert_eq!(idx.count_heavier(0.9), 1);
    }
}
