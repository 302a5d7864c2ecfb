//! Figure 7: transform cost & detected-frequency variability as a function
//! of `f_max`, at fixed `δf = 0.5 Hz`, `ε = 0.5 Hz`.
//!
//! Shapes: cost grows linearly with `f_max` (more bins); the variability
//! of the detected frequency grows with `f_max` because more harmonics
//! enter the candidate range.

use crate::setups::SlidingWindows;
use crate::{col, fmt, Args, Table};
use selftune_simcore::stats::{mean, std_dev};
use selftune_spectrum::SpectrumConfig;

/// Runs the sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 7: transform cost & precision vs fmax (δf=0.5Hz) ==");
    let windows = SlidingWindows::trace(args);
    let mut table = Table::new(
        "fig07_fmax_sweep.csv",
        [
            col("H (s)", "horizon_s"),
            col("fmax (Hz)", "fmax_hz"),
            col("avg cost (ms)", "avg_cost_ms").measured(),
            col("avg freq (Hz)", "avg_freq_hz"),
            col("sd freq", "sd_freq_hz"),
        ],
    )
    .note("paper: cost ∝ fmax; frequency variability grows with fmax");
    for h in SlidingWindows::HORIZONS {
        for fmax in [100.0, 200.0, 300.0, 400.0] {
            let (costs, freqs) = windows.timed_transform(h, SpectrumConfig::new(30.0, fmax, 0.5));
            table.row(vec![
                fmt(h, 1),
                fmt(fmax, 0),
                fmt(mean(&costs), 3),
                fmt(mean(&freqs), 2),
                fmt(std_dev(&freqs), 2),
            ]);
        }
    }
    vec![table]
}
