//! Command line of the benchmark (normally reached through `run.sh`).
//!
//! ```text
//! selftune-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir D]
//! selftune-benchmark all [--seed N] [--workload W] [--seconds S] [--smoke] [--repeat K] [--out-dir D]
//! selftune-benchmark compare A.json B.json
//! selftune-benchmark contract | metrics
//! ```
//!
//! `run` is the driver's contract: one workload, one process, the result
//! as the last line of stdout. `all` runs every workload that way and
//! writes `results.json`; `compare` applies each metric's own bound.

use std::path::PathBuf;
use std::process::ExitCode;

use selftune_benchmark::catalog::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use selftune_benchmark::harness::write_out;
use selftune_benchmark::suite::{self, SuiteArgs};
use selftune_benchmark::{compare, traced, untraced, workloads};

const USAGE: &str = "usage:
  run.sh [--seed N] [--workload W] [--smoke] [--repeat K]     every workload, results.json
  run.sh --workload W --seed N --seconds S --trace 0|1        one run (driver contract)
  run.sh compare A.json B.json                                apply each metric's bound
  run.sh contract                                             print BENCHMARK.json from the catalogue
  run.sh metrics                                              every metric: unit, direction, bound, prediction";

/// `--flag value` pairs and bare flags after the subcommand.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.rest.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.rest.len() => {
                let v = self.rest.remove(i + 1);
                self.rest.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn flag(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(&self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn out_dir(args: &mut Args) -> Result<PathBuf, String> {
    Ok(args
        .value("--out-dir")?
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from))
}

/// One workload, one process: the driver's contract.
fn run_one(mut args: Args) -> Result<bool, String> {
    let workload = args.value("--workload")?.ok_or("--workload is required")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    let trace: u8 = args.parsed("--trace")?.ok_or("--trace is required")?;
    let smoke = args.flag("--smoke");
    let out = out_dir(&mut args)?;
    args.done()?;
    if workloads::build(&workload, smoke).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?} (one of {names:?})"));
    }
    if !(seconds.is_finite() && seconds >= 0.0) || trace > 1 {
        return Err("--seconds must be >= 0 and --trace 0 or 1".to_owned());
    }
    println!(
        "{workload}: seed {seed}, {seconds} s, {} runner threads, model unvalidated \
         (no real-hardware reference in the repository)",
        workloads::threads()
    );
    let result = if trace == 1 {
        traced::run(&workload, smoke, seed, seconds, &out)
    } else {
        untraced::run(&workload, smoke, seed, seconds, &out)
    };
    result.print_table();
    write_out(
        &out,
        &suite::detail_file(&workload, trace == 1),
        &result.detail_json(),
    );
    // The contract: the result is the last line of standard output.
    println!("{}", result.driver_line());
    Ok(result.correct())
}

/// Every workload in its own process; `--repeat K` runs K full sets and
/// compares each against the first — the repeatability check.
fn run_all(mut args: Args) -> Result<bool, String> {
    let mut suite_args = SuiteArgs::new(out_dir(&mut args)?);
    if let Some(seed) = args.parsed("--seed")? {
        suite_args.seed = seed;
    }
    suite_args.smoke = args.flag("--smoke");
    suite_args.seconds = args.parsed("--seconds")?.unwrap_or(if suite_args.smoke {
        0.0
    } else {
        RUN_SECONDS as f64
    });
    suite_args.workload = args.value("--workload")?;
    let repeat: usize = args.parsed("--repeat")?.unwrap_or(1).max(1);
    args.done()?;

    let mut ok = true;
    let mut first = None;
    for set in 1..=repeat {
        if repeat > 1 {
            suite_args.results_file = format!("results-{set}.json");
            println!("==== set {set} of {repeat} ====");
        }
        let (doc, correct) = suite::run(&suite_args)?;
        ok &= correct;
        match &first {
            None => first = Some(doc),
            Some(base) => {
                let outcome = compare::compare(base, &doc)?;
                println!("==== set {set} against set 1 ====");
                outcome.lines.iter().for_each(|l| println!("{l}"));
                // Same commit, same seed: the simulation must repeat exactly.
                ok &= outcome.worse == 0 && outcome.sim_differs == 0;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "benchmark: every operation succeeded"
        } else {
            "benchmark: FAILED (see FAILED lines and verdicts above)"
        }
    );
    Ok(ok)
}

fn run_compare(args: Args) -> Result<bool, String> {
    if args.rest.len() != 2 {
        return Err("compare takes two result files".to_owned());
    }
    let a = suite::load(&PathBuf::from(&args.rest[0]))?;
    let b = suite::load(&PathBuf::from(&args.rest[1]))?;
    let outcome = compare::compare(&a, &b)?;
    outcome.lines.iter().for_each(|l| println!("{l}"));
    println!(
        "{} worse, {} unresolved, {} workloads with a different sim_fingerprint",
        outcome.worse, outcome.unresolved, outcome.sim_differs
    );
    Ok(outcome.worse == 0)
}

/// Every metric with its definition or prediction — the catalogue as a
/// table, so the "which number should move" column is one command away.
fn print_catalogue() {
    println!("end-to-end (--trace 0), every workload:");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<3} {:<6} bound {:<5} {:<9} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.kind,
            m.what
        );
    }
    println!("per-layer (--trace 1), every workload; should move:");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args { rest: argv };
    let outcome = match sub.as_str() {
        "run" => run_one(args),
        "all" => run_all(args),
        "compare" => run_compare(args),
        "contract" => {
            print!("{}", catalog::contract().pretty());
            Ok(true)
        }
        "metrics" => {
            print_catalogue();
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
