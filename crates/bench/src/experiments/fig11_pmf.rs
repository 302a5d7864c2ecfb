//! Figure 11: probability mass function of the frequency detected by the
//! full stack, over 100 repetitions, at 0.2 s and 2 s of tracing.
//!
//! Shape: at 0.2 s the PMF spreads over ≈ 32.5–35 Hz with occasional
//! third-harmonic (97.5 Hz) outliers; at 2 s it concentrates tightly on
//! 32.5 Hz (with the rare harmonic still possible).

use crate::setups::mp3_event_times;
use crate::{col, fmt, Args, Table};
use selftune_simcore::stats::pmf;
use selftune_spectrum::{amplitude_spectrum, detect, PeakConfig, SpectrumConfig};

/// Runs the repetitions and returns both PMFs.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 11: PMF of the detected frequency vs tracing time ==");
    let reps = args.reps(100, 15);
    let cfg = SpectrumConfig::new(30.0, 100.0, 0.1);
    let mut table = Table::new(
        "fig11_pmf.csv",
        [
            col("tracing time (s)", "tracing_time_s"),
            col("freq (Hz)", "freq_hz"),
            col("P", "probability"),
        ],
    )
    .note("paper: 0.2s → mass between 32.5 and 35 Hz (+ rare 97.5 Hz); 2s → tight at 32.5 Hz");
    for &tt in &[0.2, 2.0] {
        let mut freqs = Vec::with_capacity(reps);
        for r in 0..reps {
            let times = mp3_event_times(0, tt, args.seed + 1000 * r as u64);
            let spec = amplitude_spectrum(&times, cfg);
            if let Some(f) = detect(&spec, &PeakConfig::default()).detection.frequency() {
                freqs.push(f);
            }
        }
        println!("tracing time {tt} s: {} detections", freqs.len());
        for (f, pr) in pmf(&freqs, 0.5) {
            table.row(vec![fmt(tt, 1), fmt(f, 2), fmt(pr, 4)]);
        }
    }
    vec![table]
}
