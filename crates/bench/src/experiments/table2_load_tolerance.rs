//! Table 2 + Figure 12: precision of the period detector under background
//! real-time load (0–60%, in 15% reservations).
//!
//! Shape to reproduce: with rising load the detector increasingly locks on
//! an integer multiple of the true 32.5 Hz rate (at most ×3), so the
//! average detected frequency drifts upwards and its standard deviation
//! grows; the maximum approaches ≈ 3f₀.

use crate::setups::mp3_event_times;
use crate::{col, fmt, Args, Table};
use selftune_simcore::stats::{max, mean, std_dev};
use selftune_spectrum::{amplitude_spectrum, detect, PeakConfig, SpectrumConfig};

/// Runs the load sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Table 2 / Figure 12: detection precision vs background RT load ==");
    let reps = args.reps(100, 10);
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    let loads = [0u32, 15, 30, 45, 60];
    // Companion: detection *without* the harmonic accumulation (k_max = 1,
    // strongest surviving peak wins). The full heuristic is considerably
    // more robust than the paper's measured detector — this column shows
    // the failure severity their Table 2 reports.
    let single_peak = PeakConfig {
        k_max: 1,
        ..PeakConfig::default()
    };
    let mut table = Table::new(
        "table2_load_tolerance.csv",
        [
            col("load", "load_percent"),
            col("avg (Hz)", "avg_freq_hz"),
            col("σ (Hz)", "sd_freq_hz"),
            col("max (Hz)", "max_freq_hz"),
            col("avg k=1", "avg_freq_kmax1_hz"),
            col("σ k=1", "sd_freq_kmax1_hz"),
            col("max k=1", "max_freq_kmax1_hz"),
        ],
    )
    .note("paper: avg 32.69 → 41.67 → 57.98 → 75.03 → 68.47 Hz; max ≈ 3f₀ ≈ 95–98 Hz");
    for &load in &loads {
        let mut freqs = Vec::with_capacity(reps);
        let mut naive = Vec::with_capacity(reps);
        for r in 0..reps {
            let times = mp3_event_times(load, 2.0, args.seed + 7919 * r as u64);
            let spec = amplitude_spectrum(&times, cfg);
            if let Some(f) = detect(&spec, &PeakConfig::default()).detection.frequency() {
                freqs.push(f);
            }
            if let Some(f) = detect(&spec, &single_peak).detection.frequency() {
                naive.push(f);
            }
        }
        table.row(vec![
            format!("{load}%"),
            fmt(mean(&freqs), 2),
            fmt(std_dev(&freqs), 2),
            fmt(max(&freqs), 0),
            fmt(mean(&naive), 2),
            fmt(std_dev(&naive), 2),
            fmt(max(&naive), 0),
        ]);
    }
    vec![table]
}
