//! The period analyser facade: sliding event window → spectrum → verdict.
//!
//! This is the first block of the paper's task controller (Figure 3): it
//! consumes the timestamps downloaded from the tracer and produces the
//! estimated activation period of the task, which the feedback controller
//! then uses as the reservation period.

use crate::dft::{Spectrum, SpectrumConfig, WindowedDft};
use crate::peaks::{detect, Detection, PeakConfig};
use std::cell::RefCell;

thread_local! {
    /// The spectrum [`PeriodAnalyser::estimate`] runs the heuristic on,
    /// overwritten in full by every call. One per thread rather than one
    /// per analyser: a node steps thousands of analysers in turn, and a
    /// private `bins × 8` byte buffer each would add a quarter to a dense
    /// fleet's resident memory to save one allocation per estimate.
    static ESTIMATE_SPECTRUM: RefCell<Spectrum> = RefCell::new(Spectrum {
        config: SpectrumConfig::default(),
        amplitudes: Vec::new(),
        events: 0,
        ops: 0,
    });
}

/// Full analyser configuration.
#[derive(Copy, Clone, Debug, Default)]
pub struct AnalyserConfig {
    /// Frequency grid.
    pub spectrum: SpectrumConfig,
    /// Peak-detection heuristic parameters.
    pub peaks: PeakConfig,
    /// Observation horizon H in seconds (events older than this behind the
    /// newest are forgotten). Defaults to 2 s, the paper's sweet spot
    /// (Figures 10–11 show periodicity "indisputable" from 1 s).
    pub horizon: Horizon,
}

/// Observation-horizon newtype with the paper's default.
#[derive(Copy, Clone, Debug)]
pub struct Horizon(pub f64);

impl Default for Horizon {
    fn default() -> Self {
        Horizon(2.0)
    }
}

/// A period estimate produced by the analyser.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PeriodEstimate {
    /// Fundamental frequency, Hz.
    pub frequency: f64,
    /// Period, seconds.
    pub period: f64,
    /// Harmonic-accumulated score of the winner.
    pub score: f64,
    /// Events in the window when the estimate was made.
    pub events: usize,
}

/// What the previous [`PeriodAnalyser::estimate`] call concluded, for as
/// long as its window is still the window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Verdict {
    /// Events entered the window (or it was reset) since the last call,
    /// or none was made: the next call has to look.
    Stale,
    /// Periodic, and the estimate is `last`.
    Periodic,
    /// Aperiodic.
    Aperiodic,
}

/// Sliding-window period analyser.
///
/// One exists per managed task — 50 k to 1 M of them in a fleet run — so
/// what `estimate` remembers is two bytes in the padding the struct
/// already had: `last` without an `Option`'s tag word (`seen` says whether
/// it holds anything) and no second copy of the estimate (a periodic
/// verdict on an unchanged window *is* `last`). A test pins the size.
pub struct PeriodAnalyser {
    cfg: AnalyserConfig,
    dft: WindowedDft,
    last: PeriodEstimate,
    seen: bool,
    verdict: Verdict,
    estimates: u64,
    aperiodic_verdicts: u64,
}

impl PeriodAnalyser {
    /// Creates an analyser.
    pub fn new(cfg: AnalyserConfig) -> PeriodAnalyser {
        PeriodAnalyser {
            cfg,
            dft: WindowedDft::new(cfg.spectrum, cfg.horizon.0),
            last: PeriodEstimate {
                frequency: 0.0,
                period: 0.0,
                score: 0.0,
                events: 0,
            },
            seen: false,
            verdict: Verdict::Stale,
            estimates: 0,
            aperiodic_verdicts: 0,
        }
    }

    /// Creates an analyser with default configuration.
    pub fn with_defaults() -> PeriodAnalyser {
        PeriodAnalyser::new(AnalyserConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyserConfig {
        &self.cfg
    }

    /// Feeds a batch of event timestamps (seconds, time-ordered).
    ///
    /// Events leave the window only when a newer one arrives, so an empty
    /// batch changes nothing and the previous verdict stands.
    pub fn feed(&mut self, events_secs: &[f64]) {
        if events_secs.is_empty() {
            return;
        }
        self.verdict = Verdict::Stale;
        self.dft.extend(events_secs);
    }

    /// Number of events currently in the window.
    pub fn window_len(&self) -> usize {
        self.dft.len()
    }

    /// Runs the heuristic on the current window.
    ///
    /// Returns `None` when the window is empty or the signal is declared
    /// aperiodic; the previous successful estimate stays available through
    /// [`PeriodAnalyser::last_estimate`].
    ///
    /// The spectrum is a function of the window alone, so while nothing
    /// has entered the window since the previous call — no
    /// [`PeriodAnalyser::feed`] of a non-empty batch, no
    /// [`PeriodAnalyser::reset_window`] — this call returns that call's
    /// result without recomputing it. It still counts in
    /// [`PeriodAnalyser::verdict_counts`] and still returns one value per
    /// call: a caller that counts confirmations sees the same sequence.
    pub fn estimate(&mut self) -> Option<PeriodEstimate> {
        if self.dft.is_empty() {
            return None;
        }
        if self.verdict == Verdict::Stale {
            let detection = ESTIMATE_SPECTRUM.with_borrow_mut(|spectrum| {
                self.dft.spectrum_into(spectrum);
                detect(spectrum, &self.cfg.peaks).detection
            });
            self.verdict = match detection {
                Detection::Periodic {
                    frequency, score, ..
                } => {
                    self.last = PeriodEstimate {
                        frequency,
                        period: 1.0 / frequency,
                        score,
                        events: self.dft.len(),
                    };
                    self.seen = true;
                    Verdict::Periodic
                }
                Detection::Aperiodic => Verdict::Aperiodic,
            };
        }
        self.estimates += 1;
        if self.verdict == Verdict::Periodic {
            Some(self.last)
        } else {
            self.aperiodic_verdicts += 1;
            None
        }
    }

    /// The most recent successful estimate, if any.
    pub fn last_estimate(&self) -> Option<PeriodEstimate> {
        self.seen.then_some(self.last)
    }

    /// Snapshot of the current spectrum (for plotting, Figure 10).
    pub fn spectrum(&self) -> Spectrum {
        self.dft.spectrum()
    }

    /// `(estimate calls, aperiodic verdicts)` so far.
    pub fn verdict_counts(&self) -> (u64, u64) {
        (self.estimates, self.aperiodic_verdicts)
    }

    /// Forgets all window state (but keeps the last estimate).
    pub fn reset_window(&mut self) {
        self.verdict = Verdict::Stale;
        self.dft.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::synthetic_burst_train;

    #[test]
    fn estimates_fundamental_from_stream() {
        let mut a = PeriodAnalyser::with_defaults();
        a.feed(&synthetic_burst_train(0.04, 50, 6, 0.005));
        let est = a.estimate().expect("periodic");
        assert!((est.frequency - 25.0).abs() < 0.3, "{est:?}");
        assert!((est.period - 0.04).abs() < 0.001);
        assert!(est.events > 0);
    }

    #[test]
    fn empty_window_estimates_none() {
        let mut a = PeriodAnalyser::with_defaults();
        assert_eq!(a.estimate(), None);
        assert_eq!(a.last_estimate(), None);
    }

    #[test]
    fn window_slides_with_horizon() {
        let mut a = PeriodAnalyser::new(AnalyserConfig {
            horizon: Horizon(1.0),
            ..AnalyserConfig::default()
        });
        a.feed(&synthetic_burst_train(0.04, 100, 2, 0.004)); // 4 s of data
                                                             // Only ~1 s worth of events (≈ 25 jobs × 2) remains.
        assert!(a.window_len() <= 2 * 26, "window {}", a.window_len());
        assert!(a.window_len() >= 2 * 24);
    }

    #[test]
    fn last_estimate_survives_aperiodic_phase() {
        let mut a = PeriodAnalyser::with_defaults();
        a.feed(&synthetic_burst_train(0.04, 50, 6, 0.005));
        let first = a.estimate().expect("periodic");
        // Window emptied: estimate() is None but last_estimate remains.
        a.reset_window();
        assert_eq!(a.estimate(), None);
        assert_eq!(a.last_estimate(), Some(first));
    }

    #[test]
    fn verdict_counters() {
        let mut a = PeriodAnalyser::with_defaults();
        a.feed(&synthetic_burst_train(0.04, 50, 6, 0.005));
        let _ = a.estimate();
        assert_eq!(a.verdict_counts(), (1, 0));
    }

    #[test]
    fn analyser_is_no_larger_than_before_it_remembered_its_verdict() {
        assert!(
            core::mem::size_of::<PeriodAnalyser>() <= 240,
            "PeriodAnalyser grew to {} bytes: one exists per managed task, 50 k to 1 M \
             per fleet run, so the remembered verdict has to stay in the struct's padding",
            core::mem::size_of::<PeriodAnalyser>()
        );
    }
}
