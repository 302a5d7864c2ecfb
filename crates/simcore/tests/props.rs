//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use selftune_simcore::event::EventQueue;
use selftune_simcore::scheduler::RoundRobin;
use selftune_simcore::stats;
use selftune_simcore::task::{Action, Script};
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::{Kernel, Metrics};

/// One step of a randomized event-queue workload.
#[derive(Clone, Debug)]
enum QueueOp {
    /// Push at the given offset (ns) with the next payload id.
    Push(u64),
    /// Push a FIFO burst of 3 events at the same instant.
    Burst(u64),
    /// Push a far-future event (up to ~292 simulated years out).
    Far(u64),
    /// Pop the earliest event.
    Pop,
    /// Pop only if due at the given instant.
    PopDue(u64),
    /// Pop only if due, at exactly the earliest pending instant: the
    /// boundary of `pop_due`'s `<=`, which a random instant rarely hits.
    PopDueAtHead,
    /// Discard every pending event.
    Clear,
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..5_000_000).prop_map(QueueOp::Push),
        (0u64..5_000_000).prop_map(QueueOp::Burst),
        (0u64..u64::MAX / 2).prop_map(QueueOp::Far),
        Just(QueueOp::Pop),
        (0u64..5_000_000).prop_map(QueueOp::PopDue),
        Just(QueueOp::PopDueAtHead),
        Just(QueueOp::Clear),
    ]
}

/// The oracle for [`EventQueue`]: an unsorted list of
/// `(at, insertion index, payload)` scanned for its minimum.
#[derive(Default)]
struct ListModel {
    list: Vec<(Time, u64, u32)>,
    pushed: u64,
}

impl ListModel {
    /// Records a push at `at`; returns the payload to push.
    fn push(&mut self, at: Time) -> u32 {
        let id = self.pushed as u32;
        self.list.push((at, self.pushed, id));
        self.pushed += 1;
        id
    }

    fn head_time(&self) -> Option<Time> {
        self.list.iter().map(|e| e.0).min()
    }

    /// Removes the minimum by `(at, insertion index)`, but only if it is
    /// due at or before `now`.
    fn pop_due(&mut self, now: Time) -> Option<(Time, u32)> {
        let i = (0..self.list.len()).min_by_key(|&i| (self.list[i].0, self.list[i].1))?;
        if self.list[i].0 > now {
            return None;
        }
        let (at, _, id) = self.list.remove(i);
        Some((at, id))
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        self.pop_due(Time::from_ns(u64::MAX))
    }
}

proptest! {
    #[test]
    fn dur_add_sub_round_trip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (x, y) = (Dur::ns(a), Dur::ns(b));
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!((x + y).saturating_sub(x), y);
    }

    #[test]
    fn dur_mul_f64_monotone(ns in 1u64..1_000_000_000_000, f1 in 0.0f64..10.0, f2 in 0.0f64..10.0) {
        let d = Dur::ns(ns);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(d.mul_f64(lo) <= d.mul_f64(hi));
    }

    #[test]
    fn dur_ratio_inverts_mul(ns in 1_000u64..1_000_000_000, f in 0.01f64..100.0) {
        let d = Dur::ns(ns);
        let scaled = d.mul_f64(f);
        if !scaled.is_zero() {
            let r = scaled.ratio(d);
            prop_assert!((r - f).abs() / f < 1e-3, "{r} vs {f}");
        }
    }

    #[test]
    fn time_add_sub_round_trip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let at = Time::from_ns(t);
        let dur = Dur::ns(d);
        prop_assert_eq!((at + dur) - dur, at);
        prop_assert_eq!((at + dur) - at, dur);
    }

    #[test]
    fn quantile_within_bounds(xs in prop::collection::vec(-1e6f64..1e6, 1..100), p in 0.0f64..=1.0) {
        let q = stats::quantile(&xs, p);
        prop_assert!(q >= stats::min(&xs) - 1e-9);
        prop_assert!(q <= stats::max(&xs) + 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_complete(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let c = stats::cdf(&xs);
        prop_assert_eq!(c.len(), xs.len());
        prop_assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn histogram_preserves_count(xs in prop::collection::vec(-10.0f64..110.0, 0..200), bins in 1usize..50) {
        let h = stats::histogram(&xs, 0.0, 100.0, bins);
        let total: u64 = h.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, xs.len());
    }

    #[test]
    fn pmf_sums_to_one(xs in prop::collection::vec(0.0f64..100.0, 1..200), bin in 0.1f64..5.0) {
        let p = stats::pmf(&xs, bin);
        let total: f64 = p.iter().map(|&(_, pr)| pr).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// The queue against a list model: every pop and `pop_due` result,
    /// and the peek and `len()` after every op, equal the model's — time
    /// first, FIFO among equal instants — and whatever is left drains in
    /// the model's order. `preload` pushes a batch before any pop.
    #[test]
    fn queue_matches_a_sorted_list_model(
        preload in prop::collection::vec(0u64..1_000_000, 0..200),
        ops in prop::collection::vec(queue_op_strategy(), 0..120),
    ) {
        let mut q = EventQueue::new();
        let mut model = ListModel::default();
        for op in preload.into_iter().map(QueueOp::Push).chain(ops) {
            match op {
                QueueOp::Push(at) | QueueOp::Far(at) => {
                    let at = Time::from_ns(at);
                    q.push(at, model.push(at));
                }
                QueueOp::Burst(at) => {
                    let at = Time::from_ns(at);
                    for _ in 0..3 {
                        q.push(at, model.push(at));
                    }
                }
                QueueOp::Pop => prop_assert_eq!(q.pop(), model.pop()),
                QueueOp::PopDue(now) => {
                    let now = Time::from_ns(now);
                    prop_assert_eq!(q.pop_due(now), model.pop_due(now));
                }
                QueueOp::PopDueAtHead => {
                    let now = model.head_time().unwrap_or(Time::ZERO);
                    prop_assert_eq!(q.pop_due(now), model.pop_due(now));
                }
                QueueOp::Clear => {
                    q.clear();
                    model.list.clear();
                }
            }
            prop_assert_eq!(q.len(), model.list.len());
            prop_assert_eq!(q.is_empty(), model.list.is_empty());
            prop_assert_eq!(q.peek_time(), model.head_time());
        }
        while let Some(e) = model.pop() {
            prop_assert_eq!(q.pop(), Some(e));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Interned-key writes are indistinguishable from string-key writes.
    #[test]
    fn interned_and_string_metrics_agree(
        ops in prop::collection::vec(
            (0u8..3, 0usize..4, 0u64..1_000_000, 0u64..100), 0..150),
    ) {
        let names = ["a.frame", "b.bw", "c.ctx", "d.job"];
        let mut by_string = Metrics::new();
        let mut by_key = Metrics::new();
        let keys: Vec<_> = names.iter().map(|n| by_key.key(n)).collect();
        for &(kind, which, t_ns, n) in &ops {
            let (name, key) = (names[which], keys[which]);
            let at = Time::from_ns(t_ns);
            match kind {
                0 => {
                    by_string.mark(name, at);
                    by_key.mark_k(key, at);
                }
                1 => {
                    by_string.record(name, at, n as f64 * 0.5);
                    by_key.record_k(key, at, n as f64 * 0.5);
                }
                _ => {
                    by_string.add(name, n);
                    by_key.add_k(key, n);
                }
            }
        }
        for (&name, &key) in names.iter().zip(&keys) {
            prop_assert_eq!(by_string.marks(name), by_key.marks(name));
            prop_assert_eq!(by_key.marks(name), by_key.marks_k(key));
            prop_assert_eq!(by_string.series(name), by_key.series_k(key));
            prop_assert_eq!(by_string.counter(name), by_key.counter_k(key));
        }
        let a: Vec<&str> = by_string.mark_names().collect();
        let b: Vec<&str> = by_key.mark_names().collect();
        prop_assert_eq!(a, b);
    }

    /// CPU-time conservation: busy + idle equals elapsed wall time, and
    /// per-task thread times sum to busy time.
    #[test]
    fn kernel_conserves_cpu_time(
        works in prop::collection::vec((1u64..8_000, 1u64..8_000), 1..6),
        horizon_ms in 10u64..100,
    ) {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        let mut ids = Vec::new();
        for &(c_us, gap_us) in &works {
            let script = Script::forever(vec![
                Action::Compute(Dur::us(c_us)),
                Action::SleepFor(Dur::us(gap_us)),
            ]);
            ids.push(k.spawn("w", Box::new(script)));
        }
        k.run_until(Time::ZERO + Dur::ms(horizon_ms));
        prop_assert_eq!(k.busy_time() + k.idle_time(), Dur::ms(horizon_ms));
        let total: Dur = ids.iter().map(|&t| k.thread_time(t)).sum();
        prop_assert_eq!(total, k.busy_time());
    }

    /// Determinism: identical seeds and scripts give identical outcomes.
    #[test]
    fn kernel_runs_are_deterministic(c_us in 1u64..5_000, gap_us in 1u64..5_000) {
        let run = || {
            let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
            let script = Script::forever(vec![
                Action::Compute(Dur::us(c_us)),
                Action::SleepFor(Dur::us(gap_us)),
            ]);
            let id = k.spawn("w", Box::new(script));
            k.run_until(Time::ZERO + Dur::ms(50));
            (k.thread_time(id), k.context_switches(), k.idle_time())
        };
        prop_assert_eq!(run(), run());
    }
}
