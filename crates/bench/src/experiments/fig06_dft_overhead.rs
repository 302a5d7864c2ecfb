//! Figure 6: cost of the frequency transform and precision of the detected
//! frequency, as a function of the observation horizon `H` and the grid
//! step `δf`, at fixed `f_max = 100 Hz`, `ε = 0.5 Hz`.
//!
//! Shapes to reproduce (the absolute µs belong to our machine, not the
//! paper's 800 MHz Core 2): computation time grows linearly with `H`
//! (more events) and with `1/δf` (more bins); the detected frequency is
//! essentially insensitive to `δf` in this range.

use crate::setups::SlidingWindows;
use crate::{col, fmt, Args, Table};
use selftune_simcore::stats::{mean, std_dev};
use selftune_spectrum::SpectrumConfig;

/// Runs the sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 6: transform cost & precision vs H and δf (fmax=100Hz) ==");
    let windows = SlidingWindows::trace(args);
    let mut table = Table::new(
        "fig06_dft_overhead.csv",
        [
            col("H (s)", "horizon_s"),
            col("δf (Hz)", "df_hz"),
            col("avg cost (ms)", "avg_cost_ms").measured(),
            col("sd cost", "sd_cost_ms").measured(),
            col("avg freq (Hz)", "avg_freq_hz"),
            col("sd freq", "sd_freq_hz"),
            col("detections", "detections"),
        ],
    )
    .note("paper: cost ∝ H and ∝ 1/δf; precision barely affected by δf (0.1→0.5)");
    for h in SlidingWindows::HORIZONS {
        for df in [0.1, 0.2, 0.5] {
            let (costs, freqs) = windows.timed_transform(h, SpectrumConfig::new(30.0, 100.0, df));
            table.row(vec![
                fmt(h, 1),
                fmt(df, 1),
                fmt(mean(&costs), 3),
                fmt(std_dev(&costs), 3),
                fmt(mean(&freqs), 2),
                fmt(std_dev(&freqs), 2),
                freqs.len().to_string(),
            ]);
        }
    }
    vec![table]
}
