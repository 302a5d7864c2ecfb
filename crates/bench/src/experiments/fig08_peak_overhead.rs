//! Figure 8: cost of the period-detection heuristic as a function of the
//! harmonic tolerance `ε` and the horizon `H`, with and without the
//! α-threshold (α = 20%).
//!
//! Shapes: cost roughly linear in `ε` (Equation (5): ε/δf bins summed per
//! harmonic) and in `H`; the α cut reduces the candidate set and with it
//! the work (the paper's top-vs-bottom plot pair).
//!
//! The heuristic runs as the paper states it, with
//! `min_rel_amplitude = 0.0`. The default configuration's extension drops
//! every candidate below 5 % of the strongest bin, which on these spectra
//! prunes harder than α does: with it, α = 0 and α = 0.2 scanned exactly
//! the same bins in all 40 (H, ε) cells, and `E` barely grew with H (816
//! → 854 bins from H = 0.5 to 2 s at ε = 0.1) — a figure that could show
//! neither of the paper's two shapes. Paper-faithful, α = 0 scans more
//! than α = 0.2 in all 40 cells (30 of 40 with `--fast`, whose ten H = 0.5
//! cells tie), and `E` grows with H: 824 → 1 207 at ε = 0.1, 1 558 →
//! 4 217 at ε = 1.
//!
//! What is asserted is `E`, the simulated `avg_scanned_bins` column, which
//! is what Equation (5) is about: it rises strictly with ε at every
//! (α, H), does not fall as H grows at every (α, ε), and α = 0.2 scans no
//! more than α = 0 in every cell and strictly less in at least one. The
//! measured `avg_cost_us` column is not asserted, and is no longer close
//! to linear in `E`: the detector reads a precomputed harmonic plan and
//! sums four candidates at a time, so a call's fixed part — one pass over
//! the whole spectrum for mean, maximum and local maxima — dominates. On a
//! 2-vCPU Xeon VM at H = 1 s, α = 0.2, ε = 0.1 → 0.6 → 1.0 took 1.92 →
//! 2.01 → 2.10 µs while `E` went 951 → 1 780 → 2 443. Each configuration
//! gets one untimed call first, so the timings exclude building its plan.

use crate::setups::SlidingWindows;
use crate::{col, fmt, time_us, Args, Show, Table};
use selftune_simcore::stats::mean;
use selftune_spectrum::{detect, PeakConfig, SpectrumConfig};

/// Runs the sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 8: peak-detection cost vs ε and H, with/without α ==");
    let windows = SlidingWindows::trace(args);
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    let mut table = Table::new(
        "fig08_peak_overhead.csv",
        [
            col("α", "alpha"),
            col("H (s)", "horizon_s"),
            col("ε (Hz)", "epsilon_hz"),
            col("avg cost (µs)", "avg_cost_us").measured(),
            col("avg scanned bins (E)", "avg_scanned_bins"),
        ],
    )
    .show(Show::Every(3))
    .note("paper: cost linear in H and ε; the α threshold cuts the work");
    // `e[alpha][horizon][epsilon]`: the mean scanned bins of one cell.
    let mut e: Vec<Vec<Vec<f64>>> = Vec::new();
    for alpha in [0.0, 0.2] {
        let mut by_horizon = Vec::new();
        for h in SlidingWindows::HORIZONS {
            // Spectra are computed up front: the heuristic is what we time.
            let specs = windows.spectra(h, cfg);
            let mut by_epsilon = Vec::new();
            let mut eps = 0.1;
            while eps <= 1.0 + 1e-9 {
                let pk = PeakConfig {
                    alpha,
                    epsilon: eps,
                    min_rel_amplitude: 0.0,
                    ..PeakConfig::default()
                };
                // Untimed: builds this configuration's harmonic plan.
                if let Some(spec) = specs.first() {
                    detect(spec, &pk);
                }
                let mut costs = Vec::with_capacity(specs.len());
                let mut scanned = Vec::with_capacity(specs.len());
                for spec in &specs {
                    let (analysis, us) = time_us(|| detect(spec, &pk));
                    costs.push(us);
                    scanned.push(analysis.scanned_bins as f64);
                }
                table.row(vec![
                    fmt(alpha, 1),
                    fmt(h, 1),
                    fmt(eps, 1),
                    fmt(mean(&costs), 2),
                    fmt(mean(&scanned), 0),
                ]);
                by_epsilon.push(mean(&scanned));
                eps += 0.1;
            }
            by_horizon.push(by_epsilon);
        }
        e.push(by_horizon);
    }
    assert_shapes(&e);
    vec![table]
}

/// The paper's claims about `E`, on `e[alpha][horizon][epsilon]` with
/// α = 0 first.
fn assert_shapes(e: &[Vec<Vec<f64>>]) {
    for (a, by_horizon) in e.iter().enumerate() {
        for (h, by_epsilon) in by_horizon.iter().enumerate() {
            assert!(
                by_epsilon.windows(2).all(|w| w[0] < w[1]),
                "E must rise strictly with ε (α #{a}, H #{h}): {by_epsilon:?}"
            );
        }
        for eps in 0..by_horizon[0].len() {
            let column: Vec<f64> = by_horizon.iter().map(|by_eps| by_eps[eps]).collect();
            assert!(
                column.windows(2).all(|w| w[0] <= w[1]),
                "E must not fall as H grows (α #{a}, ε #{eps}): {column:?}"
            );
        }
    }
    let cells = || e[0].iter().flatten().zip(e[1].iter().flatten());
    assert!(
        cells().all(|(without, with)| with <= without),
        "the α cut must never add work"
    );
    assert!(
        cells().any(|(without, with)| with < without),
        "the α cut must save work somewhere"
    );
}
