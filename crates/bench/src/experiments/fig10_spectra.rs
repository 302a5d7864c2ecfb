//! Figure 10: the normalised amplitude spectrum of the traced player at
//! increasing tracing times (0.2, 0.5, 1, 2, 4 s).
//!
//! Shape to reproduce: peaks near 32.5, 65 and 97.5 Hz, already visible at
//! 0.5 s and "indisputable" from 1 s on; the peaks sharpen with longer
//! observation (the sinc main lobe narrows as 1/H).

use crate::setups::mp3_event_times;
use crate::{col, fmt, Args, Show, Table};
use selftune_spectrum::{amplitude_spectrum, SpectrumConfig};

/// Computes the spectra, one CSV column per tracing time.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 10: normalised spectrum vs tracing time ==");
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    let tracing_times = [0.2, 0.5, 1.0, 2.0, 4.0];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for &tt in &tracing_times {
        let times = mp3_event_times(0, tt, args.seed);
        let spec = amplitude_spectrum(&times, cfg);
        columns.push(spec.normalized());
    }

    // One row per frequency bin.
    let mut table = Table::new(
        "fig10_spectra.csv",
        [
            col("freq (Hz)", "freq_hz"),
            col("0.2 s", "obs_0.2s"),
            col("0.5 s", "obs_0.5s"),
            col("1 s", "obs_1s"),
            col("2 s", "obs_2s"),
            col("4 s", "obs_4s"),
        ],
    )
    .show(Show::Hidden)
    .note("paper: peaks at 32.5 / 65 / 97.5 Hz, evident from 0.5s, indisputable at 1s+");
    let bins = cfg.bins();
    for i in 0..bins {
        let mut row = vec![fmt(cfg.freq_of(i), 1)];
        row.extend(columns.iter().map(|col| fmt(col[i], 4)));
        table.row(row);
    }

    // Report the three strongest bins per tracing time.
    for (column, tt) in columns.iter().zip(tracing_times) {
        let mut idx: Vec<usize> = (0..bins).collect();
        idx.sort_by(|&a, &b| column[b].partial_cmp(&column[a]).unwrap());
        // Suppress near-duplicates (same lobe) within 2 Hz.
        let mut peaks: Vec<usize> = Vec::new();
        for i in idx {
            if peaks
                .iter()
                .all(|&p| (cfg.freq_of(p) - cfg.freq_of(i)).abs() > 2.0)
            {
                peaks.push(i);
            }
            if peaks.len() == 3 {
                break;
            }
        }
        peaks.sort_unstable();
        let peaks: Vec<String> = peaks
            .iter()
            .map(|&p| format!("{:.1}Hz({:.2})", cfg.freq_of(p), column[p]))
            .collect();
        println!("tracing time {tt:.1} s: top-3 peaks {}", peaks.join("  "));
    }
    vec![table]
}
