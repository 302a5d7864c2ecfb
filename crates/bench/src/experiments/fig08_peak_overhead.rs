//! Figure 8: cost of the period-detection heuristic as a function of the
//! harmonic tolerance `ε` and the horizon `H`, with and without the
//! α-threshold (α = 20%).
//!
//! Shapes: cost roughly linear in `ε` (Equation (5): ε/δf bins summed per
//! harmonic) and in `H`; the α cut reduces the candidate set and with it
//! the work (the paper's top-vs-bottom plot pair).

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
    for alpha in [0.0, 0.2] {
        for h in SlidingWindows::HORIZONS {
            // Spectra are computed up front: the heuristic is what we time.
            let specs = windows.spectra(h, cfg);
            let mut eps = 0.1;
            while eps <= 1.0 + 1e-9 {
                let pk = PeakConfig {
                    alpha,
                    epsilon: eps,
                    ..PeakConfig::default()
                };
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
                eps += 0.1;
            }
        }
    }
    vec![table]
}
