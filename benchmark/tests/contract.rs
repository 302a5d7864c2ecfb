//! The package against its contract: `BENCHMARK.json` says what the
//! catalogue says, the built binary emits exactly those names, a result
//! file parses back, and `--smoke` is CI-sized.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use selftune_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use selftune_benchmark::json::{self, Json};
use selftune_benchmark::{compare, suite};

const BIN: &str = env!("CARGO_BIN_EXE_selftune-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("an array")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "contract caps the file at 64 KiB");
    let file = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        file,
        catalog::contract(),
        "BENCHMARK.json drifted from src/catalog.rs: regenerate with `benchmark/run.sh contract`"
    );

    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names(file.get("workloads").unwrap()),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for e in file.get("end_to_end").unwrap().as_arr().unwrap() {
        let keys: Vec<&str> = e
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "unit", "better", "bound"]);
    }
    for e in file.get("per_layer").unwrap().as_arr().unwrap() {
        let keys: Vec<&str> = e
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "unit", "better"]);
    }
    // Nothing the command names lies outside `paths`.
    let command = file.get("command").unwrap().as_arr().unwrap();
    assert_eq!(command[1].as_str(), Some("benchmark/run.sh"));
    assert!(Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("run.sh")
        .is_file());
}

/// One run per `--trace` value: the last stdout line is the contract's
/// object and its metric names are exactly the declared ones.
#[test]
fn a_run_prints_exactly_the_declared_metrics() {
    for (trace, declared) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let out_dir = scratch(&format!("single-{trace}"));
        let out = Command::new(BIN)
            .args(["run", "--workload", "node_selftune", "--seed", "7"])
            .args(["--seconds", "0", "--trace", trace, "--smoke", "--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("benchmark binary runs");
        assert!(out.status.success(), "exit {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = stdout.lines().last().expect("a result line");
        let result = json::parse(line).expect("the last line is JSON");
        let keys: Vec<&str> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
        let attempted = result.get("attempted").unwrap().as_f64().unwrap();
        assert!(attempted >= 1.0 && attempted.fract() == 0.0);
        let emitted: Vec<(&str, &str)> = result
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.as_str(), v.get("unit").unwrap().as_str().unwrap()))
            .collect();
        assert_eq!(emitted, declared, "--trace {trace}");
        for (name, v) in result.get("metrics").unwrap().as_obj().unwrap() {
            let value = v.get("value").unwrap().as_f64().unwrap();
            assert!(value.is_finite(), "{name}");
            if trace == "0" {
                assert!(value > 0.0, "end-to-end metric {name} must never be 0");
            }
        }
    }
}

#[test]
fn unknown_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec![
            "run",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec!["run", "--workload", "node_selftune"],
        vec!["frobnicate"],
    ] {
        let out = Command::new(BIN).args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}

/// `all --smoke`: four workloads, each in its own process, untraced and
/// traced, under 30 s; `results.json` parses back and compares clean
/// against itself.
#[test]
fn smoke_suite_writes_results_that_parse_back() {
    let out_dir = scratch("smoke");
    let started = Instant::now();
    let status = Command::new(BIN)
        .args(["all", "--smoke", "--seed", "42", "--out-dir"])
        .arg(&out_dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("benchmark binary runs");
    let elapsed = started.elapsed().as_secs_f64();
    assert!(status.success(), "smoke suite failed: {status:?}");
    // The time cap is a statement about the optimised build CI would run.
    if !cfg!(debug_assertions) {
        assert!(elapsed < 30.0, "smoke took {elapsed:.1} s");
    }

    let results = suite::load(&out_dir.join("results.json")).expect("results.json parses back");
    let env = results.get("env").expect("environment record");
    for key in [
        "nproc",
        "cpu_model",
        "ram_mb",
        "runner_threads",
        "seed",
        "git_commit",
        "rustc",
        "smoke",
    ] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    assert_eq!(env.get("smoke").unwrap().as_bool(), Some(true));
    assert!(results
        .get("model_validation")
        .and_then(Json::as_str)
        .is_some_and(|s| s.starts_with("unvalidated")));

    let workloads = results.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(
        names(results.get("workloads").unwrap()).len(),
        WORKLOADS.len()
    );
    for w in workloads {
        let name = w.get("name").unwrap().as_str().unwrap();
        assert!(catalog::valid_name(name));
        assert_eq!(w.get("correct").unwrap().as_bool(), Some(true), "{name}");
        assert_eq!(w.get("ops_failed").unwrap().as_f64(), Some(0.0), "{name}");
        assert_eq!(
            w.get("sim_fingerprint"),
            w.get("sim_fingerprint_traced"),
            "{name}: traced and untraced runs simulated different things"
        );
        let e2e: Vec<&str> = w
            .get("end_to_end")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            e2e,
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{name}"
        );
        let layers: Vec<&str> = w
            .get("per_layer")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            layers,
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{name}"
        );
        let per_layer = |metric: &str| {
            w.get("per_layer")
                .unwrap()
                .get(metric)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(per_layer("sim.thread_identical"), 1.0, "{name}");
        // The journal and the replica are exercised by one workload only.
        assert_eq!(
            per_layer("journal.records") > 0.0,
            name == "control_replicated",
            "{name}"
        );
        assert_eq!(
            per_layer("distrib.follower.checkpoints") > 0.0,
            name == "control_replicated",
            "{name}"
        );
        // A span file per workload.
        let spans = suite::load(&out_dir.join(format!("trace-{name}.json"))).expect("span file");
        let first = &spans.get("spans").unwrap().as_arr().unwrap()[0];
        for key in ["id", "parent", "name", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }

    let same = compare::compare(&results, &results).unwrap();
    assert_eq!((same.worse, same.sim_differs), (0, 0));
}
