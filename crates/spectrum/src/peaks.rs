//! The peak-detection heuristic of Section 4.3.1.
//!
//! Given a sampled amplitude spectrum, the heuristic:
//!
//! 1. finds the local maxima of `|S(f)|` over the grid;
//! 2. discards maxima below `α` times the average amplitude;
//! 3. declares the signal aperiodic if no candidate survives;
//! 4. for each surviving candidate `fᵢ`, accumulates the spectrum at up to
//!    `k_max` integer multiples of `fᵢ` within a tolerance of `ε`
//!    (`Σᵢ = Σ_{h, |f − h·fᵢ| ≤ ε} |S(f)|`);
//! 5. returns the candidate with the largest `Σᵢ` as the fundamental.
//!
//! The scanned-bin counter reproduces the complexity bound of
//! Equation (5), which Figure 8 validates empirically.

use crate::dft::Spectrum;

/// Heuristic parameters.
#[derive(Copy, Clone, Debug)]
pub struct PeakConfig {
    /// Threshold factor: candidates need `|S| ≥ α · mean(|S|)`. The paper's
    /// experiments use `α = 20%`.
    pub alpha: f64,
    /// Harmonic matching tolerance ε, in Hz (0.5 in the paper).
    pub epsilon: f64,
    /// Maximum number of harmonics accumulated (10 in the paper).
    pub k_max: u32,
    /// Extension beyond the paper: candidates whose own amplitude falls
    /// below this fraction of the strongest bin are dropped before the
    /// harmonic accumulation. This guards against *sub*-harmonics: a noise
    /// bump at `f₀/2` would otherwise accumulate every true harmonic of
    /// `f₀` plus its own and win the plain sum. The paper sidesteps the
    /// issue by analysing `[30, 100]` Hz, above `f₀/2` of its workloads;
    /// set this to `0.0` for the strictly paper-faithful behaviour.
    pub min_rel_amplitude: f64,
    /// Extension beyond the paper: refine the winning frequency by
    /// parabolic interpolation through the peak bin and its neighbours,
    /// recovering sub-bin resolution on coarse grids (δf = 0.5 Hz detects
    /// within ≈ 0.05 Hz instead of ±0.25 Hz). Off by default for
    /// paper-faithful grid-aligned estimates.
    pub refine: bool,
}

impl Default for PeakConfig {
    fn default() -> Self {
        PeakConfig {
            alpha: 0.2,
            epsilon: 0.5,
            k_max: 10,
            min_rel_amplitude: 0.05,
            refine: false,
        }
    }
}

/// Outcome of the heuristic.
#[derive(Clone, Debug, PartialEq)]
pub enum Detection {
    /// A dominant periodic pattern was found.
    Periodic {
        /// Estimated fundamental frequency, Hz.
        frequency: f64,
        /// Harmonic-accumulated score of the winner (Σᵢ).
        score: f64,
        /// Number of candidates that survived the α threshold.
        candidates: usize,
        /// Coherence: strongest bin over mean amplitude. A strongly
        /// periodic train scores ≫ 5; broad renewal-process bumps score
        /// 2–4. Extension beyond the paper, used to grade verdict
        /// confidence.
        peak_to_mean: f64,
    },
    /// No candidate peak survived: the application is declared
    /// non-periodic (step 4 of the heuristic).
    Aperiodic,
}

impl Detection {
    /// The detected frequency, if periodic.
    pub fn frequency(&self) -> Option<f64> {
        match self {
            Detection::Periodic { frequency, .. } => Some(*frequency),
            Detection::Aperiodic => None,
        }
    }

    /// The detected period in seconds, if periodic.
    pub fn period_secs(&self) -> Option<f64> {
        self.frequency().map(|f| 1.0 / f)
    }
}

/// Result of [`detect`]: the verdict plus complexity accounting.
#[derive(Clone, Debug)]
pub struct PeakAnalysis {
    /// The verdict.
    pub detection: Detection,
    /// Grid bins examined (the `E` of Equation (5)).
    pub scanned_bins: u64,
}

/// Indices of strict local maxima of `amps` (plateaus count once, at their
/// left edge; boundary bins are not maxima).
fn local_maxima(amps: &[f64]) -> Vec<usize> {
    let mut out = Vec::new();
    let n = amps.len();
    if n < 3 {
        return out;
    }
    let mut i = 1;
    while i + 1 < n {
        if amps[i] > amps[i - 1] {
            // Walk any plateau to its right edge.
            let start = i;
            while i + 1 < n && amps[i + 1] == amps[i] {
                i += 1;
            }
            if i + 1 < n && amps[i + 1] < amps[i] {
                out.push(start);
            }
        }
        i += 1;
    }
    out
}

/// Sub-bin refinement: fits a parabola through the peak bin and its
/// neighbours and returns the vertex frequency (clamped to ±half a bin).
fn refine_parabolic(amps: &[f64], i: usize, grid: &crate::dft::SpectrumConfig) -> f64 {
    if i == 0 || i + 1 >= amps.len() {
        return grid.freq_of(i);
    }
    let (a, b, c) = (amps[i - 1], amps[i], amps[i + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-12 {
        return grid.freq_of(i);
    }
    let delta = (0.5 * (a - c) / denom).clamp(-0.5, 0.5);
    grid.freq_of(i) + delta * grid.df
}

/// Runs the peak-detection heuristic on a sampled spectrum.
pub fn detect(spectrum: &Spectrum, cfg: &PeakConfig) -> PeakAnalysis {
    let amps = &spectrum.amplitudes;
    let grid = spectrum.config;
    let mut scanned = amps.len() as u64; // steps 1–3 scan every bin

    let mean = spectrum.mean_amplitude();
    let threshold = cfg.alpha * mean;
    let global_max = amps.iter().copied().fold(0.0_f64, f64::max);
    let rel_floor = cfg.min_rel_amplitude * global_max;
    let mut candidates = local_maxima(amps);
    candidates.retain(|&i| amps[i] >= threshold && amps[i] >= rel_floor && amps[i] > 0.0);

    if candidates.is_empty() {
        return PeakAnalysis {
            detection: Detection::Aperiodic,
            scanned_bins: scanned,
        };
    }

    // Step 5: harmonic accumulation.
    let eps_bins = (cfg.epsilon / grid.df).round().max(0.0) as i64;
    let nbins = amps.len() as i64;
    let mut best: Option<(usize, f64)> = None;
    for &ci in &candidates {
        let f0 = grid.freq_of(ci);
        let mut sum = 0.0;
        let mut h = 1u32;
        while h <= cfg.k_max {
            let target = h as f64 * f0;
            if target > grid.f_max + cfg.epsilon {
                break;
            }
            let centre = ((target - grid.f_min) / grid.df).round() as i64;
            let lo = (centre - eps_bins).max(0);
            let hi = (centre + eps_bins).min(nbins - 1);
            for b in lo..=hi {
                sum += amps[b as usize];
                scanned += 1;
            }
            h += 1;
        }
        match best {
            Some((_, s)) if s >= sum => {}
            _ => best = Some((ci, sum)),
        }
    }

    let (wi, score) = best.expect("candidates is non-empty");
    let frequency = if cfg.refine {
        refine_parabolic(amps, wi, &grid)
    } else {
        grid.freq_of(wi)
    };
    PeakAnalysis {
        detection: Detection::Periodic {
            frequency,
            score,
            candidates: candidates.len(),
            peak_to_mean: if mean > 0.0 { global_max / mean } else { 0.0 },
        },
        scanned_bins: scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{amplitude_spectrum, synthetic_burst_train, SpectrumConfig};

    fn cfg() -> SpectrumConfig {
        SpectrumConfig::new(10.0, 100.0, 0.1)
    }

    #[test]
    fn local_maxima_basic() {
        let amps = [0.0, 1.0, 0.5, 2.0, 1.0, 1.0, 3.0, 0.0];
        assert_eq!(local_maxima(&amps), vec![1, 3, 6]);
    }

    #[test]
    fn local_maxima_plateau_counts_once() {
        let amps = [0.0, 2.0, 2.0, 2.0, 1.0, 0.0];
        assert_eq!(local_maxima(&amps), vec![1]);
    }

    #[test]
    fn local_maxima_monotone_has_none() {
        assert!(local_maxima(&[1.0, 2.0, 3.0, 4.0]).is_empty());
        assert!(local_maxima(&[4.0, 3.0, 2.0, 1.0]).is_empty());
        assert!(local_maxima(&[1.0]).is_empty());
    }

    #[test]
    fn detects_25hz_fundamental() {
        // 25 Hz bursty train, 2 s: the fundamental should beat its
        // harmonics thanks to the harmonic accumulation.
        let events = synthetic_burst_train(0.04, 50, 8, 0.006);
        let s = amplitude_spectrum(&events, cfg());
        let r = detect(&s, &PeakConfig::default());
        let f = r.detection.frequency().expect("periodic");
        assert!((f - 25.0).abs() < 0.3, "detected {f}");
    }

    #[test]
    fn detects_32_5hz_like_mp3() {
        // The paper's mp3 trace peaks at 32.5, 65, 97.5 Hz (Figure 10).
        let events = synthetic_burst_train(1.0 / 32.5, 65, 10, 0.004);
        let s = amplitude_spectrum(&events, cfg());
        let r = detect(&s, &PeakConfig::default());
        let f = r.detection.frequency().expect("periodic");
        assert!((f - 32.5).abs() < 0.3, "detected {f}");
    }

    #[test]
    fn empty_spectrum_is_aperiodic() {
        let s = amplitude_spectrum(&[], cfg());
        let r = detect(&s, &PeakConfig::default());
        assert_eq!(r.detection, Detection::Aperiodic);
    }

    #[test]
    fn period_secs_inverts_frequency() {
        let d = Detection::Periodic {
            frequency: 25.0,
            score: 1.0,
            candidates: 1,
            peak_to_mean: 10.0,
        };
        assert!((d.period_secs().unwrap() - 0.04).abs() < 1e-12);
        assert_eq!(Detection::Aperiodic.period_secs(), None);
    }

    #[test]
    fn higher_alpha_prunes_candidates_and_work() {
        let events = synthetic_burst_train(0.04, 50, 8, 0.006);
        let s = amplitude_spectrum(&events, cfg());
        let loose = detect(
            &s,
            &PeakConfig {
                alpha: 0.0,
                ..PeakConfig::default()
            },
        );
        let tight = detect(
            &s,
            &PeakConfig {
                alpha: 2.0,
                ..PeakConfig::default()
            },
        );
        let (lc, tc) = match (&loose.detection, &tight.detection) {
            (
                Detection::Periodic { candidates: lc, .. },
                Detection::Periodic { candidates: tc, .. },
            ) => (*lc, *tc),
            other => panic!("unexpected {other:?}"),
        };
        assert!(tc < lc, "α should prune candidates: {tc} !< {lc}");
        assert!(
            tight.scanned_bins < loose.scanned_bins,
            "α should cut work (Figure 8): {} !< {}",
            tight.scanned_bins,
            loose.scanned_bins
        );
    }

    #[test]
    fn scanned_bins_grows_with_epsilon() {
        // Equation (5): work scales with ε/δf.
        let events = synthetic_burst_train(0.04, 50, 8, 0.006);
        let s = amplitude_spectrum(&events, cfg());
        let narrow = detect(
            &s,
            &PeakConfig {
                epsilon: 0.1,
                ..PeakConfig::default()
            },
        );
        let wide = detect(
            &s,
            &PeakConfig {
                epsilon: 1.0,
                ..PeakConfig::default()
            },
        );
        assert!(wide.scanned_bins > narrow.scanned_bins);
    }

    #[test]
    fn very_high_alpha_declares_aperiodic() {
        let events = synthetic_burst_train(0.04, 10, 2, 0.004);
        let s = amplitude_spectrum(&events, cfg());
        let r = detect(
            &s,
            &PeakConfig {
                alpha: 1e6,
                ..PeakConfig::default()
            },
        );
        assert_eq!(r.detection, Detection::Aperiodic);
    }

    #[test]
    fn parabolic_refinement_beats_the_grid() {
        // True rate 26.3 Hz on a coarse 0.5 Hz grid: the raw estimate is
        // off by up to half a bin (0.25 Hz); the parabolic fit through the
        // sinc main lobe roughly halves that error.
        let events = synthetic_burst_train(1.0 / 26.3, 60, 8, 0.004);
        let coarse = SpectrumConfig::new(18.0, 100.0, 0.5);
        let s = amplitude_spectrum(&events, coarse);
        let raw = detect(&s, &PeakConfig::default())
            .detection
            .frequency()
            .unwrap();
        let refined = detect(
            &s,
            &PeakConfig {
                refine: true,
                ..PeakConfig::default()
            },
        )
        .detection
        .frequency()
        .unwrap();
        assert!((raw - 26.3).abs() <= 0.25 + 1e-9, "raw {raw}");
        assert!(
            (refined - 26.3).abs() < (raw - 26.3).abs(),
            "refined {refined} not better than raw {raw}"
        );
        assert!((refined - 26.3).abs() < 0.15, "refined {refined}");
    }

    #[test]
    fn refinement_stays_within_half_a_bin() {
        let events = synthetic_burst_train(0.04, 50, 8, 0.006);
        let s = amplitude_spectrum(&events, cfg());
        let raw = detect(&s, &PeakConfig::default())
            .detection
            .frequency()
            .unwrap();
        let refined = detect(
            &s,
            &PeakConfig {
                refine: true,
                ..PeakConfig::default()
            },
        )
        .detection
        .frequency()
        .unwrap();
        assert!((raw - refined).abs() <= 0.05 + 1e-9, "{raw} vs {refined}");
    }

    #[test]
    fn k_max_limits_harmonic_walk() {
        let events = synthetic_burst_train(0.04, 50, 8, 0.006);
        let s = amplitude_spectrum(&events, cfg());
        let k1 = detect(
            &s,
            &PeakConfig {
                k_max: 1,
                ..PeakConfig::default()
            },
        );
        let k10 = detect(&s, &PeakConfig::default());
        assert!(k10.scanned_bins > k1.scanned_bins);
    }
}
