//! Property-based tests for the period analyser.

use proptest::prelude::*;
use selftune_spectrum::{
    amplitude_spectrum, detect, synthetic_burst_train, AnalyserConfig, Detection, Horizon,
    PeakConfig, PeriodAnalyser, PeriodEstimate, SpectrumConfig, WindowedDft,
};

/// An estimate as the bits of its four fields.
fn estimate_bits(e: Option<PeriodEstimate>) -> Option<[u64; 4]> {
    e.map(|e| {
        [
            e.frequency.to_bits(),
            e.period.to_bits(),
            e.score.to_bits(),
            e.events as u64,
        ]
    })
}

proptest! {
    /// A clean periodic burst train with f₀ well inside the band is always
    /// identified within one grid step.
    #[test]
    fn fundamental_recovered_for_random_periods(
        period_ms in 12.5f64..45.0,
        per_burst in 3usize..12,
        span_us in 0u64..3_000,
    ) {
        let period = period_ms / 1000.0;
        let jobs = (2.0 / period).ceil() as usize; // ≈ 2 s of data
        let events = synthetic_burst_train(period, jobs, per_burst, span_us as f64 / 1e6);
        let cfg = SpectrumConfig::new(18.0, 100.0, 0.1);
        let spec = amplitude_spectrum(&events, cfg);
        let f = detect(&spec, &PeakConfig::default())
            .detection
            .frequency()
            .expect("periodic train must be detected");
        let expect = 1.0 / period;
        prop_assert!((f - expect).abs() < 0.25, "detected {f}, expected {expect}");
    }

    /// The incremental windowed DFT matches the batch evaluation when the
    /// whole stream fits in the window.
    #[test]
    fn windowed_equals_batch(
        mut times in prop::collection::vec(0.0f64..3.0, 1..150),
    ) {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cfg = SpectrumConfig::new(18.0, 100.0, 0.5);
        let mut w = WindowedDft::new(cfg, 10.0);
        for &t in &times {
            w.push(t);
        }
        let inc = w.spectrum();
        let batch = amplitude_spectrum(&times, cfg);
        for (a, b) in inc.amplitudes.iter().zip(&batch.amplitudes) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Equation (3): the batch op counter is exactly bins × events.
    #[test]
    fn ops_counter_matches_eq3(
        n in 0usize..300,
        df in 0.1f64..1.0,
    ) {
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 0.001).collect();
        let cfg = SpectrumConfig::new(18.0, 100.0, df);
        let spec = amplitude_spectrum(&times, cfg);
        prop_assert_eq!(spec.ops, (cfg.bins() * n) as u64);
    }

    /// Shifting every event by a constant leaves the amplitude spectrum
    /// unchanged (time-shift invariance of |S|).
    #[test]
    fn amplitude_is_shift_invariant(
        mut times in prop::collection::vec(0.0f64..2.0, 1..100),
        shift in 0.0f64..5.0,
    ) {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cfg = SpectrumConfig::new(18.0, 100.0, 0.5);
        let a = amplitude_spectrum(&times, cfg);
        let shifted: Vec<f64> = times.iter().map(|t| t + shift).collect();
        let b = amplitude_spectrum(&shifted, cfg);
        for (x, y) in a.amplitudes.iter().zip(&b.amplitudes) {
            prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    /// Scanned-bin accounting (Equation (5)) grows with ε and never
    /// shrinks below the full-grid scan.
    #[test]
    fn scanned_bins_bounded_below_by_grid(
        period_ms in 15.0f64..40.0,
        eps in 0.1f64..1.0,
    ) {
        let events = synthetic_burst_train(period_ms / 1000.0, 60, 6, 0.004);
        let cfg = SpectrumConfig::new(18.0, 100.0, 0.1);
        let spec = amplitude_spectrum(&events, cfg);
        let analysis = detect(&spec, &PeakConfig { epsilon: eps, ..PeakConfig::default() });
        prop_assert!(analysis.scanned_bins >= cfg.bins() as u64);
    }

    /// `estimate()` remembers its verdict while nothing enters the window.
    /// Whatever the interleaving of feeds (empty or not), estimates and
    /// resets, every estimate is what `detect` says about the public
    /// spectrum snapshot at that moment, every call on a non-empty window
    /// counts once, and `last_estimate()` is the latest periodic answer.
    #[test]
    fn estimate_equals_detect_on_the_snapshot_under_any_interleaving(
        steps in prop::collection::vec((0u8..8, 1usize..10, 1u32..30_000), 1..60),
    ) {
        let cfg = AnalyserConfig {
            spectrum: SpectrumConfig::new(18.0, 100.0, 0.5),
            horizon: Horizon(0.5),
            ..AnalyserConfig::default()
        };
        let mut a = PeriodAnalyser::new(cfg);
        let mut now = 0.0;
        let mut last = None;
        let (mut calls, mut aperiodic) = (0u64, 0u64);
        for (kind, n, gap_us) in steps {
            match kind {
                // A batch at the step's own rate: a run of them is a
                // periodic train, a mix of rates is not.
                0..=1 => {
                    let batch: Vec<f64> = (0..n)
                        .map(|_| {
                            now += f64::from(gap_us) / 1e6;
                            now
                        })
                        .collect();
                    a.feed(&batch);
                }
                2 => a.feed(&[]),
                3 => a.reset_window(),
                _ => {
                    let got = a.estimate();
                    let expected = if a.window_len() == 0 {
                        None
                    } else {
                        calls += 1;
                        match detect(&a.spectrum(), &cfg.peaks).detection {
                            Detection::Periodic { frequency, score, .. } => {
                                last = Some(PeriodEstimate {
                                    frequency,
                                    period: 1.0 / frequency,
                                    score,
                                    events: a.window_len(),
                                });
                                last
                            }
                            Detection::Aperiodic => {
                                aperiodic += 1;
                                None
                            }
                        }
                    };
                    prop_assert_eq!(estimate_bits(got), estimate_bits(expected));
                }
            }
            prop_assert_eq!(a.verdict_counts(), (calls, aperiodic));
            prop_assert_eq!(estimate_bits(a.last_estimate()), estimate_bits(last));
        }
    }
}
