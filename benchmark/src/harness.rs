//! Operation accounting and the result of one benchmark run.
//!
//! Every call the benchmark makes into the simulator and every check on
//! what came back is one *operation*. A panic inside a call is caught and
//! counted, an `Err` counts, a failed check counts; the run still prints
//! its result line (`correct: false`) and the process exits non-zero.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::json::Json;

/// A vital operation failed; the run cannot produce its remaining
/// metrics. The failure is already recorded in [`Ops`].
#[derive(Debug)]
pub struct Abort;

/// Attempted / failed operation counts, with the reasons.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, returned `Err`, or failed their check.
    pub failed: u64,
    /// One line per failure, in order.
    pub failures: Vec<String>,
}

impl Ops {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
    }

    /// Runs one call into the simulator, catching a panic (the fleet
    /// runner re-raises worker panics on the calling thread) and
    /// reporting it under `what` instead of aborting the benchmark.
    ///
    /// # Errors
    ///
    /// [`Abort`] when the call panicked.
    pub fn call<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Result<R, Abort> {
        self.attempted += 1;
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            let why = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with a non-string payload".to_owned());
            self.fail(what, &format!("panicked: {why}"));
            Abort
        })
    }

    /// [`Ops::call`] for a fallible call: an `Err` is a failed operation
    /// too.
    ///
    /// # Errors
    ///
    /// [`Abort`] when the call panicked or returned `Err`.
    pub fn try_call<R, E: Display>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, Abort> {
        match self.call(what, f)? {
            Ok(r) => Ok(r),
            Err(e) => {
                self.fail(what, &e.to_string());
                Err(Abort)
            }
        }
    }

    /// One output check. A failed check does not stop the run: the
    /// remaining checks still say what else is wrong.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, "check failed");
        }
    }
}

/// FNV-1a 64 of `bytes`, as the 16-hex-digit string result files carry
/// (`sim_fingerprint`): a change meant only to speed the simulator up
/// must leave it identical.
pub fn fingerprint(bytes: &[u8]) -> String {
    format!("{:016x}", selftune_distrib::fnv1a64(bytes))
}

/// A run's `sim_fingerprint`: the summary's, plus the journal text's
/// where the workload records one.
pub fn sim_fingerprint(summary_csv: &str, journal_text: Option<&str>) -> String {
    let summary = fingerprint(summary_csv.as_bytes());
    match journal_text {
        Some(text) => format!("{summary}+{}", fingerprint(text.as_bytes())),
        None => summary,
    }
}

/// One `kB` field of `/proc/self/status`, in bytes; 0 when the field or
/// the file is missing (not Linux).
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far, bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

/// Current resident set of this process, bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// What one run (`--workload W --trace 0|1`) produced.
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The `--trace` flag.
    pub traced: bool,
    /// The seed.
    pub seed: u64,
    /// Operation counts.
    pub ops: Ops,
    /// `(name, unit, value)` in catalogue order — every end-to-end metric
    /// for an untraced run, every per-layer metric for a traced one.
    /// Empty after an [`Abort`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-repetition samples behind the medians, by metric or leg name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// FNV-1a of `summary_csv` (and of the journal text where there is
    /// one); empty after an [`Abort`].
    pub sim_fingerprint: String,
}

impl RunResult {
    /// Whether every operation succeeded and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
            && !self.metrics.is_empty()
            && self.metrics.iter().all(|&(_, _, v)| v.is_finite())
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter(|&&(_, _, v)| v.is_finite())
                .map(|&(name, unit, value)| {
                    (
                        name.to_owned(),
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops.attempted.max(1) as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .compact()
    }

    /// The detail file the suite reads back: the driver's fields plus
    /// the samples, the fingerprint and the failure reasons.
    pub fn detail_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Bool(self.traced)),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            (
                "failures",
                Json::Arr(self.ops.failures.iter().map(Json::str).collect()),
            ),
            ("sim_fingerprint", Json::str(&self.sim_fingerprint)),
            ("metrics", self.metrics_json()),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::nums(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Prints every metric by name with its unit (human-readable; the
    /// driver only reads the last line).
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        for &(name, unit, value) in &self.metrics {
            println!("  {name:<38} {value:>16.6} {unit}");
        }
        for (name, values) in &self.samples {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("  samples {name:<30} [{}]", shown.join(", "));
        }
        if !self.sim_fingerprint.is_empty() {
            println!("  sim_fingerprint {}", self.sim_fingerprint);
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.ops.attempted, self.ops.failed
        );
    }
}

/// Writes `json` under `dir`, creating the directory. Errors are
/// reported, not fatal: the result line on stdout is the contract, the
/// files are a convenience.
pub fn write_out(dir: &Path, file: &str, json: &Json) {
    let path = dir.join(file);
    let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.pretty()));
    if let Err(e) = res {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_errors_and_failed_checks_are_counted_not_fatal() {
        let mut ops = Ops::default();
        assert_eq!(ops.call("fine", || 7).unwrap(), 7);
        assert!(ops.call("boom", || panic!("worker {} died", 3)).is_err());
        assert!(ops.try_call("err", || Err::<(), _>("named error")).is_err());
        assert!(ops.try_call("ok", || Ok::<_, String>(1)).is_ok());
        ops.check("holds", true);
        ops.check("broken", false);
        assert_eq!((ops.attempted, ops.failed), (6, 3));
        assert!(ops.failures[0].contains("boom") && ops.failures[0].contains("worker 3 died"));
        assert!(ops.failures[1].contains("named error"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            workload: "w".to_owned(),
            traced: false,
            seed: 42,
            ops: Ops::default(),
            metrics: vec![("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)],
            samples: vec![("latency_ms", vec![1.0, 1.4])],
            sim_fingerprint: fingerprint(b"csv"),
        };
        r.ops.check("x", true);
        let line = r.driver_line();
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        // The detail file parses back with the samples intact.
        let back = crate::json::parse(&r.detail_json().pretty()).unwrap();
        assert_eq!(
            back.get("samples").unwrap().get("latency_ms").unwrap(),
            &Json::nums(&[1.0, 1.4])
        );
        assert_eq!(r.sim_fingerprint.len(), 16);
        // A failed operation flips `correct`.
        r.ops.check("y", false);
        assert!(!r.correct());
    }
}
