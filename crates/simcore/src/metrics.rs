//! Application-level and kernel-level measurement sinks.
//!
//! Workloads mark instants (`frame shown`), record valued samples
//! (`decode time`), and bump counters. Experiments read the recorded data
//! back to compute the paper's QoS metrics (inter-frame times, CDFs, ...).
//!
//! # Key interning
//!
//! Metric names are interned: the first time a name is seen it is assigned
//! a dense [`MetricKey`] (a `u32` index), and all storage is `Vec`-indexed
//! by that key. Hot paths resolve their names once — via [`Metrics::key`]
//! or a [`LazyKey`] — and then use the `*_k` fast paths (`mark_k`,
//! `record_k`, `add_k`), which cost an array index instead of a string
//! hash/compare per sample. The string-keyed API is a thin wrapper that
//! looks the name up on every call; it stays around for cold paths and
//! tests.

use crate::time::Time;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// An interned metric name: a dense index into the [`Metrics`] store.
///
/// Keys are only meaningful for the `Metrics` instance that issued them;
/// resolving the same name against two stores yields unrelated keys.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricKey(u32);

impl MetricKey {
    /// The raw index (stable for the lifetime of the issuing store).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A metric name whose [`MetricKey`] is resolved on first use and cached.
///
/// Workloads construct their key names once (`"<label>.frame"`) and call
/// [`LazyKey::get`] per sample: the first call interns the name, every
/// later call is a field read. Like `MetricKey`, a resolved `LazyKey` is
/// bound to the store it was first resolved against.
#[derive(Clone, Debug)]
pub struct LazyKey {
    name: String,
    key: Option<MetricKey>,
}

impl LazyKey {
    /// Creates an unresolved key for `name`.
    pub fn new(name: impl Into<String>) -> LazyKey {
        LazyKey {
            name: name.into(),
            key: None,
        }
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolves (once) and returns the key.
    pub fn get(&mut self, metrics: &mut Metrics) -> MetricKey {
        match self.key {
            Some(k) => k,
            None => {
                let k = metrics.key(&self.name);
                self.key = Some(k);
                k
            }
        }
    }
}

/// In-memory measurement store.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Name → key registry (sorted, so name iteration stays deterministic),
    /// the one copy of each interned name.
    index: BTreeMap<Box<str>, MetricKey>,
    marks: Vec<Vec<Time>>,
    series: Vec<Vec<(Time, f64)>>,
    counters: Vec<u64>,
}

impl Metrics {
    /// Creates an empty store.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Interns `name`, returning its dense key (stable across the store's
    /// lifetime, including [`Metrics::clear`]).
    pub fn key(&mut self, name: &str) -> MetricKey {
        if let Some(&k) = self.index.get(name) {
            return k;
        }
        let k = MetricKey(u32::try_from(self.counters.len()).expect("metric key space exhausted"));
        self.index.insert(name.into(), k);
        self.marks.push(Vec::new());
        self.series.push(Vec::new());
        self.counters.push(0);
        k
    }

    /// Records that the keyed event happened at `now` (fast path).
    pub fn mark_k(&mut self, key: MetricKey, now: Time) {
        self.marks[key.index()].push(now);
    }

    /// Appends a `(now, value)` sample to the keyed series (fast path).
    pub fn record_k(&mut self, key: MetricKey, now: Time, value: f64) {
        self.series[key.index()].push((now, value));
    }

    /// Increments the keyed counter by `n` (fast path).
    pub fn add_k(&mut self, key: MetricKey, n: u64) {
        self.counters[key.index()] += n;
    }

    /// Records that the named event happened at `now`.
    pub fn mark(&mut self, name: &str, now: Time) {
        let k = self.key(name);
        self.mark_k(k, now);
    }

    /// Appends a `(now, value)` sample to the named series.
    pub fn record(&mut self, name: &str, now: Time, value: f64) {
        let k = self.key(name);
        self.record_k(k, now, value);
    }

    /// Increments the named counter by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        let k = self.key(name);
        self.add_k(k, n);
    }

    /// All instants at which the keyed event was marked.
    pub fn marks_k(&self, key: MetricKey) -> &[Time] {
        &self.marks[key.index()]
    }

    /// All `(time, value)` samples of the keyed series.
    pub fn series_k(&self, key: MetricKey) -> &[(Time, f64)] {
        &self.series[key.index()]
    }

    /// Current value of the keyed counter.
    pub fn counter_k(&self, key: MetricKey) -> u64 {
        self.counters[key.index()]
    }

    /// All instants at which `name` was marked.
    pub fn marks(&self, name: &str) -> &[Time] {
        self.index
            .get(name)
            .map_or(&[], |&k| self.marks[k.index()].as_slice())
    }

    /// All `(time, value)` samples of the named series.
    pub fn series(&self, name: &str) -> &[(Time, f64)] {
        self.index
            .get(name)
            .map_or(&[], |&k| self.series[k.index()].as_slice())
    }

    /// Only the values of the named series, as a fresh vector.
    ///
    /// Allocates on every call; borrow [`Metrics::series`] instead when
    /// the values are only consumed once.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.values_iter(name).collect()
    }

    /// Borrowing iterator over the values of the named series.
    pub(crate) fn values_iter(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        self.series(name).iter().map(|&(_, v)| v)
    }

    /// Current value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map_or(0, |&k| self.counters[k.index()])
    }

    /// Consecutive gaps between marks of `name`, in milliseconds.
    ///
    /// This is the paper's inter-frame-time metric when `name` marks frame
    /// display instants. Allocates; see [`Metrics::inter_mark_iter`] for
    /// the borrowing version.
    pub fn inter_mark_times_ms(&self, name: &str) -> Vec<f64> {
        self.inter_mark_iter(name).collect()
    }

    /// Borrowing iterator over consecutive mark gaps of `name`, in
    /// milliseconds.
    pub fn inter_mark_iter(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        self.marks(name)
            .windows(2)
            .map(|w| (w[1] - w[0]).as_ms_f64())
    }

    /// Names of all recorded mark streams (sorted).
    pub fn mark_names(&self) -> impl Iterator<Item = &str> {
        self.index
            .iter()
            .filter(|(_, k)| !self.marks[k.index()].is_empty())
            .map(|(name, _)| &**name)
    }

    /// Clears all recorded data. Interned keys survive (the registry is
    /// kept so cached [`MetricKey`]s stay valid); only the samples go.
    pub fn clear(&mut self) {
        for v in &mut self.marks {
            v.clear();
        }
        for v in &mut self.series {
            v.clear();
        }
        for c in &mut self.counters {
            *c = 0;
        }
    }
}

/// Writes rows of string-convertible cells as a CSV file.
///
/// Minimal by design: experiment outputs are plain numeric tables, so no
/// quoting/escaping is needed (and commas in cells are rejected).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file, or an
/// `InvalidInput` error if a cell contains a comma or newline.
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let check = |cell: &str| -> std::io::Result<()> {
        if cell.contains(',') || cell.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("CSV cell contains separator: {cell:?}"),
            ));
        }
        Ok(())
    };
    for h in header {
        check(h)?;
    }
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        for cell in row {
            check(cell)?;
        }
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn marks_accumulate_in_order() {
        let mut m = Metrics::new();
        m.mark("frame", Time::ZERO + Dur::ms(40));
        m.mark("frame", Time::ZERO + Dur::ms(80));
        m.mark("frame", Time::ZERO + Dur::ms(121));
        assert_eq!(m.marks("frame").len(), 3);
        let ift = m.inter_mark_times_ms("frame");
        assert_eq!(ift.len(), 2);
        assert!((ift[0] - 40.0).abs() < 1e-9);
        assert!((ift[1] - 41.0).abs() < 1e-9);
    }

    #[test]
    fn missing_names_are_empty() {
        let m = Metrics::new();
        assert!(m.marks("nope").is_empty());
        assert!(m.series("nope").is_empty());
        assert_eq!(m.counter("nope"), 0);
    }

    #[test]
    fn series_and_counters() {
        let mut m = Metrics::new();
        m.record("bw", Time::ZERO, 0.2);
        m.record("bw", Time::ZERO + Dur::ms(1), 0.3);
        m.add("ctx", 2);
        m.add("ctx", 3);
        assert_eq!(m.values("bw"), vec![0.2, 0.3]);
        assert_eq!(m.counter("ctx"), 5);
    }

    #[test]
    fn clear_resets() {
        let mut m = Metrics::new();
        m.mark("a", Time::ZERO);
        m.record("b", Time::ZERO, 1.0);
        m.add("c", 1);
        m.clear();
        assert!(m.marks("a").is_empty());
        assert!(m.series("b").is_empty());
        assert_eq!(m.counter("c"), 0);
    }

    #[test]
    fn interned_and_string_paths_agree() {
        let mut m = Metrics::new();
        let frame = m.key("frame");
        m.mark_k(frame, Time::ZERO);
        m.mark("frame", Time::ZERO + Dur::ms(40));
        assert_eq!(m.marks("frame"), m.marks_k(frame));
        assert_eq!(m.marks("frame").len(), 2);

        let bw = m.key("bw");
        m.record_k(bw, Time::ZERO, 0.5);
        m.record("bw", Time::ZERO, 0.6);
        assert_eq!(m.series("bw"), m.series_k(bw));

        let ctx = m.key("ctx");
        m.add_k(ctx, 2);
        m.add("ctx", 3);
        assert_eq!(m.counter("ctx"), 5);
        assert_eq!(m.counter_k(ctx), 5);

        // Re-interning returns the same key; names round-trip.
        assert_eq!(m.key("frame"), frame);
    }

    #[test]
    fn keys_survive_clear() {
        let mut m = Metrics::new();
        let k = m.key("x");
        m.mark_k(k, Time::ZERO);
        m.clear();
        assert!(m.marks_k(k).is_empty());
        m.mark_k(k, Time::ZERO + Dur::ms(1));
        assert_eq!(m.marks("x").len(), 1);
        assert_eq!(m.key("x"), k);
    }

    #[test]
    fn lazy_key_resolves_once() {
        let mut m = Metrics::new();
        let mut lk = LazyKey::new("lazy.frame");
        assert_eq!(lk.name(), "lazy.frame");
        let k1 = lk.get(&mut m);
        let k2 = lk.get(&mut m);
        assert_eq!(k1, k2);
        m.mark_k(k1, Time::ZERO);
        assert_eq!(m.marks("lazy.frame").len(), 1);
    }

    #[test]
    fn name_iterators_are_sorted_and_nonempty_only() {
        let mut m = Metrics::new();
        m.mark("b.frame", Time::ZERO);
        m.mark("a.frame", Time::ZERO);
        let _unused = m.key("z.frame"); // registered but never marked
        m.record("c.bw", Time::ZERO, 1.0);
        let marks: Vec<&str> = m.mark_names().collect();
        assert_eq!(marks, vec!["a.frame", "b.frame"]);
    }

    #[test]
    fn values_iter_borrows() {
        let mut m = Metrics::new();
        m.record("s", Time::ZERO, 1.0);
        m.record("s", Time::ZERO + Dur::ms(1), 2.0);
        let sum: f64 = m.values_iter("s").sum();
        assert!((sum - 3.0).abs() < 1e-12);
        assert_eq!(m.values_iter("nope").count(), 0);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("selftune-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn csv_rejects_separators() {
        let dir = std::env::temp_dir().join("selftune-csv-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        let err = write_csv(&path, &["a,b"], &[]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
