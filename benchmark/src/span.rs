//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The traced run records one span per call (`id`, `parent`, `name`,
//! `start_ns`, `end_ns`), keeps them in memory, and writes them out when
//! the run ends. A layer's *self time* is its span's duration minus the
//! part its direct children cover. Spans live in the benchmark, not in
//! the program: what happens inside one call (the fleet runner's barrier
//! and rebalance work inside `run_planned`, say) is invisible here and is
//! reported as unattributed until in-program tracing lands.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its log (spans are numbered in start order).
    pub id: u32,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// `layer.component.operation`, e.g. `cluster.node.run`.
    pub name: &'static str,
    /// Start instant.
    pub start_ns: u64,
    /// End instant (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`SpanLog::enter`].
#[derive(Clone, Copy, Debug)]
#[must_use = "an entered span must be passed to SpanLog::exit"]
pub struct Open(u32);

/// The span recorder of one traced run (single-threaded: the traced run
/// drives every layer from one thread).
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` and returns its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the traced
    /// run, which would silently corrupt every self time.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "span closed out of order");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// [`SpanLog::exit`], naming the span by what the call turned out to
    /// be (a fed frame's kind is only known once it has been applied).
    pub fn exit_as(&mut self, open: Open, name: &'static str) -> u64 {
        self.spans[open.0 as usize].name = name;
        self.exit(open)
    }

    /// Runs `f` inside a span and returns its result with the duration in
    /// seconds. For leaf calls; nest with [`SpanLog::enter`] / [`SpanLog::exit`].
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let out = f();
        let ns = self.exit(open);
        (out, ns as f64 / 1e9)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: `{"workload": …, "spans": [{id, parent, name,
    /// start_ns, end_ns}, …]}` (schema documented in the README).
    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("ns since the traced run started")),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(f64::from(s.id))),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                ),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children).
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus what its direct
/// children cover, summed by name. Children of one parent run one after
/// another on the recording thread, so their durations never overlap and
/// the subtraction cannot go negative (clamped anyway: a clock that steps
/// backwards must not wrap a `u64`).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100): a [10,40) with a.leaf [15,25); a again [50,70); b [70,95).
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.leaf", 15, 25),
            span(3, Some(0), "a", 50, 70),
            span(4, Some(0), "b", 70, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 30 - 20 - 25
            }
        );
        // Grandchildren are subtracted from their parent only.
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["a.leaf"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 25);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn log_nests_and_numbers_spans_in_start_order() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer");
        let ((), secs) = log.time("inner", || std::hint::black_box(()));
        assert!(secs >= 0.0);
        let ns = log.exit(outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(ns, spans[0].dur_ns());
        let file = log.to_json("w");
        let first = &file.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(first.get("name").unwrap().as_str(), Some("outer"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn closing_out_of_order_is_a_bug() {
        let mut log = SpanLog::new();
        let a = log.enter("a");
        let _b = log.enter("b");
        log.exit(a);
    }
}
