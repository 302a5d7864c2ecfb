//! The whole benchmark in one command: every workload in its **own
//! process** (so peak RSS is per workload), untraced then traced, the
//! results gathered into `results.json` with the environment record.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::json::{self, Json};
use crate::workloads;

/// What the suite was asked to do.
pub struct SuiteArgs {
    /// Scenario seed handed to every run.
    pub seed: u64,
    /// Seconds each untraced run measures.
    pub seconds: f64,
    /// CI size: same workloads, tiny fleets, one repetition.
    pub smoke: bool,
    /// Only this workload (all four when `None`).
    pub workload: Option<String>,
    /// Where runs write their files.
    pub out_dir: PathBuf,
    /// Result file name inside `out_dir`.
    pub results_file: String,
}

impl SuiteArgs {
    /// Full-size defaults writing under `out_dir`.
    pub fn new(out_dir: PathBuf) -> SuiteArgs {
        SuiteArgs {
            seed: crate::catalog::SEEDS[0],
            seconds: RUN_SECONDS as f64,
            smoke: false,
            workload: None,
            out_dir,
            results_file: "results.json".to_owned(),
        }
    }
}

/// First line of `program args…`'s stdout, or "unknown" (the driver's
/// checkout is not a git repository; a missing tool is not an error).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// The environment record every result file carries. Numbers from
/// different machines are not comparable; this is how to tell.
pub fn environment(args: &SuiteArgs) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let ram_kb = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("ram_mb", Json::Num((ram_kb / 1024.0).round())),
        ("runner_threads", Json::Num(workloads::threads() as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "git_commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
    ])
}

/// Runs `cmd`, which must write `detail`, and reads the file back. Any
/// earlier copy is removed first, and a child that was killed by a signal
/// or left no file is an error: a stale file must never stand in for a
/// run that did not finish. A child that exits non-zero after writing its
/// file reported its own failures there.
fn collect(mut cmd: Command, detail: &Path) -> Result<Json, String> {
    match std::fs::remove_file(detail) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot remove stale {}: {e}", detail.display()));
        }
        _ => {}
    }
    // `status` waits for the child; its stdout is ours, so every metric
    // is printed by name as the run finishes.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    if status.code().is_none() {
        return Err(format!("child was killed ({status})"));
    }
    let text = std::fs::read_to_string(detail)
        .map_err(|e| format!("child ({status}) left no {}: {e}", detail.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// Runs one workload in a child process and returns its detail document;
/// a run that did not finish comes back as a failed one.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Json {
    let run = || {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("run")
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.smoke {
            cmd.arg("--smoke");
        }
        collect(cmd, &args.out_dir.join(detail_file(workload, trace)))
    };
    run().unwrap_or_else(|why| {
        let why = format!("{workload} --trace {}: {why}", u8::from(trace));
        println!("FAILED {why}");
        Json::obj([
            ("correct", Json::Bool(false)),
            ("ops_attempted", Json::Num(1.0)),
            ("ops_failed", Json::Num(1.0)),
            ("failures", Json::Arr(vec![Json::str(why)])),
        ])
    })
}

/// Name of the detail file one run writes.
pub fn detail_file(workload: &str, trace: bool) -> String {
    format!("run-{workload}-trace{}.json", u8::from(trace))
}

/// Folds a workload's two detail files into its `results.json` entry.
fn entry(name: &str, why: &str, untraced: &Json, traced: &Json) -> Json {
    let flag = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let correct = [untraced, traced]
        .iter()
        .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
    let value_of = |d: &Json, metric: &str| {
        d.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .cloned()
            .unwrap_or(Json::Null)
    };
    let samples_of = |metric: &str| {
        untraced
            .get("samples")
            .and_then(|s| s.get(metric))
            .cloned()
            .unwrap_or(Json::Arr(Vec::new()))
    };
    let end_to_end = Json::Obj(
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::obj([
                        ("value", value_of(untraced, m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("bound", Json::Num(m.bound)),
                        ("kind", Json::str(m.kind)),
                        ("samples", samples_of(m.name)),
                    ]),
                )
            })
            .collect(),
    );
    let per_layer = Json::Obj(
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::obj([
                        ("value", value_of(traced, m.name)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let mut failures = Vec::new();
    for d in [untraced, traced] {
        failures.extend(
            d.get("failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    Json::obj([
        ("name", Json::str(name)),
        ("why", Json::str(why)),
        ("correct", Json::Bool(correct)),
        (
            "ops_attempted",
            Json::Num(flag(untraced, "ops_attempted") + flag(traced, "ops_attempted")),
        ),
        (
            "ops_failed",
            Json::Num(flag(untraced, "ops_failed") + flag(traced, "ops_failed")),
        ),
        ("failures", Json::Arr(failures)),
        (
            "sim_fingerprint",
            untraced
                .get("sim_fingerprint")
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "sim_fingerprint_traced",
            traced.get("sim_fingerprint").cloned().unwrap_or(Json::Null),
        ),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
        (
            "leg_samples",
            untraced.get("samples").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Runs the suite and writes the result file. Returns the document and
/// whether every operation of every workload succeeded.
///
/// # Errors
///
/// When the workload filter names no workload or the result file cannot
/// be written.
pub fn run(args: &SuiteArgs) -> Result<(Json, bool), String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        if args.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let untraced = child(args, w.name, false);
        let traced = child(args, w.name, true);
        let e = entry(w.name, w.why, &untraced, &traced);
        all_correct &= e.get("correct").and_then(Json::as_bool) == Some(true);
        // The simulator is deterministic: the traced run must have
        // simulated exactly what the untraced one did.
        all_correct &= e.get("sim_fingerprint") == e.get("sim_fingerprint_traced");
        entries.push(e);
    }
    if entries.is_empty() {
        return Err(format!(
            "unknown workload {:?}",
            args.workload.as_deref().unwrap_or("")
        ));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("env", environment(args)),
        (
            "model_validation",
            Json::str(
                "unvalidated: the repository holds no real-hardware reference for the paper's \
                 figures, so no error figure is given for the simulated metrics",
            ),
        ),
        ("workloads", Json::Arr(entries)),
    ]);
    let path = args.out_dir.join(&args.results_file);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[wrote {}]", path.display());
    Ok((doc, all_correct))
}

/// Reads a result file back.
///
/// # Errors
///
/// Names the file and what is wrong with it.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    #[test]
    fn a_stale_detail_file_never_stands_in_for_a_run() {
        let dir = std::env::temp_dir().join(format!("selftune-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let detail = dir.join(detail_file("w", false));
        let fresh = format!("echo '{{\"correct\": false}}' > {}", detail.display());

        // A child that writes its file is read back, whatever its exit code.
        let doc = collect(sh(&format!("{fresh}; exit 1")), &detail).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));

        // A child that dies before writing: the earlier copy must not be read.
        std::fs::write(&detail, "{\"correct\": true}").unwrap();
        let err = collect(sh("exit 3"), &detail).unwrap_err();
        assert!(err.contains("left no"), "{err}");
        assert!(!detail.exists());

        // Killed by a signal, even after writing: not a finished run.
        let err = collect(sh(&format!("{fresh}; kill -9 $$")), &detail).unwrap_err();
        assert!(err.contains("killed"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
