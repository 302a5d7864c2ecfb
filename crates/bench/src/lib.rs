//! # selftune-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (Section 5), and the fleet-scale experiments built on top.
//!
//! The contract, stated once:
//!
//! * an experiment is `fn(&Args) -> Vec<Table>`: it runs its simulations,
//!   asserts its claims and returns what it found. A [`Table`] owns its CSV
//!   file name, its columns (printed header, CSV header, *measured* or
//!   *simulated*), its rows and the lines printed around it;
//! * [`experiments::REGISTRY`] is the only list of experiments, and the one
//!   binary (`cargo run --release --bin experiment -- <name|paper|fleet|all|list>…`)
//!   the only way to run them: it calls a row's `run` and [`Table::emit`]s
//!   what comes back — printed on stdout, written as CSV into `results/`;
//! * `--seed N` changes the RNG seed, `--fast` cuts repetition counts for
//!   smoke runs, `--out DIR` overrides the results directory;
//! * cluster experiments additionally take `--scenario FILE` (declarative
//!   fleet override) and `--journal FILE` (record the primary scenario's
//!   decision journal); parsing lives once in [`cli`].

pub mod cli;
pub mod experiments;
pub mod setups;
pub mod table;

use std::time::Instant;

pub use cli::Args;
pub(crate) use table::col;
pub use table::{plain, Show, Table};

/// Wall-clock time of `f`, in microseconds, together with its result.
pub(crate) fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::load_scenario;
    use std::path::Path;

    #[test]
    fn reps_honours_fast() {
        let mut a = Args::default();
        assert_eq!(a.reps(100, 10), 100);
        a.fast = true;
        assert_eq!(a.reps(100, 10), 10);
    }

    #[test]
    fn time_us_returns_result() {
        let (v, us) = time_us(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn load_scenario_reports_missing_files() {
        let err = load_scenario(Path::new("/nonexistent/fleet.txt")).unwrap_err();
        assert!(err.contains("/nonexistent/fleet.txt"), "{err}");
        assert!(err.contains("reading scenario"), "{err}");
    }

    #[test]
    fn load_scenario_reports_malformed_content() {
        let dir = std::env::temp_dir().join("selftune-bench-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.txt");
        std::fs::write(
            &path,
            "name = x\nnodes = two\ntasks = 1\nhorizon_ms = 100\n",
        )
        .unwrap();
        let err = load_scenario(&path).unwrap_err();
        assert!(err.contains("parsing scenario"), "{err}");
        assert!(err.contains("bad integer"), "{err}");
        // And a well-formed file round-trips through the loader.
        let good = dir.join("good.txt");
        std::fs::write(
            &good,
            "name = tiny\nnodes = 2\ntasks = 4\nhorizon_ms = 500\nvm = 3 10 1 video25\n",
        )
        .unwrap();
        let spec = load_scenario(&good).expect("well-formed scenario");
        assert_eq!(spec.nodes, 2);
        assert_eq!(spec.vms.len(), 1);
    }

    #[test]
    fn checked_in_example_scenario_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fleet_demo.txt");
        let spec = load_scenario(&path).expect("examples/fleet_demo.txt must stay parseable");
        assert!(spec.nodes >= 2);
        assert!(spec.rebalance.enabled, "the demo exercises the rebalancer");
        assert!(!spec.vms.is_empty(), "the demo places a VM");
    }
}
