//! Figure 1: minimum bandwidth vs. server period for a single task
//! (C = 20 ms, P = 100 ms).
//!
//! Reproduces the paper's shape: exactly 20% at `T = P` and at its
//! submultiples, a sawtooth in between, and a steep climb beyond `P`
//! (> 60% at `T = 200 ms`). Two companion curves extend the analysis:
//!
//! * **overhead-aware** — charging two context switches per server period
//!   makes very small periods expensive too (the "too small" end of the
//!   paper's description);
//! * **period-error** — the server period is set to `P_est/3` with a ±3 ms
//!   error on `P_est`, showing the paper's point that submultiples are
//!   fragile (bandwidth near 30% instead of 20%).

use crate::{col, fmt, Args, Show, Table};
use selftune_analysis::{min_bandwidth_single, min_budget_single, PeriodicTask};

/// Context-switch cost used by the overhead-aware curve, ms.
const CTX_SWITCH_MS: f64 = 0.05;

/// Computes the three curves over `T ∈ [2, 200]` ms.
pub fn run(_args: &Args) -> Vec<Table> {
    println!("== Figure 1: minimum bandwidth vs server period (C=20ms, P=100ms) ==");
    let task = PeriodicTask::new(20.0, 100.0);
    let mut curves = Table::new(
        "fig01_min_bandwidth.csv",
        [
            col("T^s (ms)", "server_period_ms"),
            col("min bandwidth", "min_bandwidth"),
            col("with overhead", "min_bandwidth_with_overhead"),
        ],
    )
    .show(Show::Hidden);
    let mut t = 2.0;
    while t <= 200.0 + 1e-9 {
        let bw = min_bandwidth_single(task, t);
        // Overhead-aware: every server period costs two context switches
        // of the simulated machine, inflating the needed budget.
        let q = min_budget_single(task, t);
        let bw_ov = ((q + 2.0 * CTX_SWITCH_MS) / t).min(1.0);
        curves.row(vec![fmt(t, 1), fmt(bw, 4), fmt(bw_ov, 4)]);
        t += 1.0;
    }

    // Key anchor points of the curve.
    for t in [
        100.0,
        50.0,
        100.0 / 3.0,
        25.0,
        20.0,
        36.0,
        60.0,
        150.0,
        200.0,
    ] {
        let bw = min_bandwidth_single(task, t);
        println!("T^s = {t:5.1} ms: min bandwidth {bw:.4}");
    }

    // Submultiple-fragility companion: the paper picks `T^s = P/3 = 33 ms`
    // and notes that "an error of a few milliseconds ... easily raises the
    // required bandwidth to a value close to 30%". We sweep the server
    // period a few ms around the exact submultiple.
    let mut fragility = Table::new(
        "fig01_period_error.csv",
        [
            col("T^s error (ms)", "ts_error_ms"),
            col("T^s (ms)", "server_period_ms"),
            col("min bandwidth", "min_bandwidth"),
        ],
    )
    .heading("\n-- submultiple fragility: server period a few ms off P/3 --");
    let exact = 100.0 / 3.0;
    let mut err = -4.0;
    while err <= 6.0 + 1e-9 {
        let t = exact + err;
        let bw = min_bandwidth_single(task, t);
        fragility.row(vec![fmt(err, 1), fmt(t, 2), fmt(bw, 4)]);
        err += 0.5;
    }
    vec![curves, fragility]
}
