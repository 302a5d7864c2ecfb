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
//! The estimate is the winning bin's grid frequency, as in the paper: there
//! is no sub-bin refinement. `α`, `ε`, `k_max` and the sub-harmonic guard
//! stay fields of [`PeakConfig`], because Figures 8 and 9 and Table 2 sweep
//! or switch them.
//!
//! The scanned-bin counter reproduces the complexity bound of
//! Equation (5), which Figure 8 validates empirically.
//!
//! # One read of the spectrum, and no per-harmonic arithmetic
//!
//! [`detect`] runs on every managed task at every sampling period, so it
//! is written for the spectra it meets there: ~820 bins, most of them
//! noise, with dozens of local maxima per call.
//!
//! * **Steps 1–3 are one forward scan.** It adds the amplitudes in index
//!   order (so the mean is the test-only `Spectrum::mean_amplitude` to the
//!   bit), takes their maximum, and writes every `i` with `a[i−1] < a[i]`
//!   and `a[i+1] <= a[i]` into a reused buffer without a data-dependent branch:
//!   the index is stored unconditionally and the write cursor advances by
//!   the comparison's outcome. The few dozen survivors are then compacted
//!   the same way by the α, relative-amplitude and positivity cuts; only
//!   one whose right neighbour equals it walks its plateau — the one
//!   data-dependent branch left — and is kept if the plateau ends lower (a
//!   plateau counts once, at its left edge). The comparisons are `<` and
//!   `<=`, each false on a NaN, so a NaN neighbour rejects a bin just as a
//!   walk over `>` / `==` / `<` does.
//! * **Step 5 reads a plan.** Which bins harmonic `h` of candidate bin `c`
//!   covers depends only on the grid, the spectrum's length, `ε` and
//!   `k_max`, never on the amplitudes. A per-thread `HarmonicPlan` holds
//!   those windows for every bin, computed with the expressions of the
//!   per-candidate evaluation (`round((h·f₀ − f_min)/δf) ± round(ε/δf)`,
//!   clamped to the grid), and is rebuilt only when one of them changes. So
//!   each window, and the `E` of Equation (5), is that evaluation's by
//!   construction, and no call rounds, divides or multiplies a frequency.
//! * **Four candidates are summed at a time**, each into its own
//!   accumulator, harmonic by harmonic, so four independent add chains
//!   overlap where a candidate-by-candidate loop is one serial chain. Each
//!   accumulator starts at `+0.0` and receives exactly its own candidate's
//!   amplitudes in harmonic-then-bin order; the lanes only interleave.
//!   Where one lane's window is shorter than its neighbours' (a clamp at
//!   the grid's edge, or no `h`-th harmonic at all), it simply adds
//!   nothing more — the same as adding `+0.0`, which is exact here because
//!   a sum that starts at `+0.0` is never `−0.0` under round-to-nearest.
//!   The winner is then chosen in candidate order — a later candidate
//!   replaces the best only when `!(best >= sum)` — so ties keep the first.
//!
//! Every score, every count and every verdict is therefore bit-identical
//! to the straightforward evaluation (a local-maxima walk, then one
//! harmonic loop per candidate), which the tests keep as their oracle.

use crate::dft::{Spectrum, SpectrumConfig};
use std::cell::RefCell;

thread_local! {
    /// The scan's survivors and the plan of the last grid seen. One per
    /// thread: a node steps thousands of analysers in turn, all on the
    /// same grid, and the plan is rebuilt only when the grid changes.
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

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
}

impl Default for PeakConfig {
    fn default() -> Self {
        PeakConfig {
            alpha: 0.2,
            epsilon: 0.5,
            k_max: 10,
            min_rel_amplitude: 0.05,
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
}

/// Result of [`detect`]: the verdict plus complexity accounting.
#[derive(Clone, Debug)]
pub struct PeakAnalysis {
    /// The verdict.
    pub detection: Detection,
    /// Grid bins examined (the `E` of Equation (5)).
    pub scanned_bins: u64,
}

/// Per-thread working memory of [`detect`].
#[derive(Default)]
struct Buffers {
    /// Bins the scan found rising into and not falling out of; after the
    /// filter, its prefix holds the candidates.
    maxima: Vec<u32>,
    plan: HarmonicPlan,
}

/// What one pass over the amplitudes learns.
struct Scan {
    /// The amplitudes summed in index order.
    sum: f64,
    /// The largest amplitude, or `0.0` (NaNs are skipped).
    max: f64,
    /// How many bins of `Buffers::maxima` the scan wrote.
    rising: usize,
}

/// Steps 1–3 in one pass: sum, maximum, and every bin `i` with
/// `a[i−1] < a[i]` and `a[i+1] <= a[i]` written into `maxima`.
fn scan(amps: &[f64], maxima: &mut Vec<u32>) -> Scan {
    // `Iterator::sum` starts from `−0.0`; so does this sum, so the two
    // agree even on a spectrum of negative zeros.
    let mut sum = -0.0;
    let mut max = 0.0_f64;
    let mut rising = 0;
    let mut add = |a: f64| {
        sum += a;
        // As with `f64::max`, a NaN never replaces the running maximum;
        // unlike it, this is one compare-and-select with no NaN test.
        max = if a > max { a } else { max };
    };
    if amps.len() < 3 {
        amps.iter().for_each(|&a| add(a));
        return Scan { sum, max, rising };
    }
    let interior = amps.len() - 2;
    if maxima.len() < interior {
        maxima.resize(interior, 0);
    }
    add(amps[0]);
    for (i, w) in (1u32..).zip(amps.windows(3)) {
        let (left, a, right) = (w[0], w[1], w[2]);
        add(a);
        maxima[rising] = i;
        rising += usize::from((left < a) & (right <= a));
    }
    add(amps[amps.len() - 1]);
    Scan { sum, max, rising }
}

/// Whether a bin the scan kept (so `a[i+1] <= a[i]`) is a local maximum:
/// it falls to its right, or it starts a plateau that ends by falling (a
/// plateau counts once, at its left edge; one running into the last bin
/// is no maximum). Only a plateau is walked.
fn falls_after(amps: &[f64], i: usize) -> bool {
    if amps[i + 1] != amps[i] {
        return true;
    }
    let mut r = i + 1;
    while r + 1 < amps.len() && amps[r + 1] == amps[r] {
        r += 1;
    }
    r + 1 < amps.len() && amps[r + 1] < amps[r]
}

/// One harmonic's window: bins `lo .. lo + len`, never empty.
struct Span {
    lo: u32,
    len: u32,
}

/// The bins step 5 reads for every candidate bin of one grid, keyed by
/// everything they depend on.
///
/// Bin `c`'s harmonic windows are `spans[first[c]..first[c + 1]]`, in
/// harmonic order, empty windows left out. On the default 821-bin grid
/// with the default `ε` and `k_max` that is 1 394 spans, 14.4 KB with
/// `first`. A flat list of the 15 227 bin indices they cover would take
/// 64 KB and measured ~5 % more cycles per call.
#[derive(Default)]
struct HarmonicPlan {
    key: Option<PlanKey>,
    first: Vec<u32>,
    spans: Vec<Span>,
}

/// `(bins, f_min, f_max, δf, ε, k_max)`, floats as bits.
type PlanKey = (usize, u64, u64, u64, u64, u32);

impl HarmonicPlan {
    /// The plan for `bins` amplitudes on `grid` under `cfg`, rebuilt only
    /// if the previous call's differs.
    fn for_grid(&mut self, bins: usize, grid: &SpectrumConfig, cfg: &PeakConfig) -> &HarmonicPlan {
        let key = (
            bins,
            grid.f_min.to_bits(),
            grid.f_max.to_bits(),
            grid.df.to_bits(),
            cfg.epsilon.to_bits(),
            cfg.k_max,
        );
        if self.key != Some(key) {
            self.build(bins, grid, cfg);
            self.key = Some(key);
        }
        self
    }

    fn build(&mut self, bins: usize, grid: &SpectrumConfig, cfg: &PeakConfig) {
        let index = |i: usize| u32::try_from(i).expect("a spectrum of at most u32::MAX bins");
        self.first.clear();
        self.spans.clear();
        let eps_bins = (cfg.epsilon / grid.df).round().max(0.0) as i64;
        let nbins = bins as i64;
        for c in 0..bins {
            self.first.push(index(self.spans.len()));
            let f0 = grid.freq_of(c);
            for h in 1..=cfg.k_max {
                let target = h as f64 * f0;
                if target > grid.f_max + cfg.epsilon {
                    break;
                }
                let centre = ((target - grid.f_min) / grid.df).round() as i64;
                let lo = (centre - eps_bins).max(0);
                let hi = (centre + eps_bins).min(nbins - 1);
                if lo <= hi {
                    self.spans.push(Span {
                        lo: index(lo as usize),
                        len: index((hi - lo + 1) as usize),
                    });
                }
            }
        }
        self.first.push(index(self.spans.len()));
    }

    /// Candidate bin `c`'s harmonic windows.
    fn spans_of(&self, c: u32) -> &[Span] {
        let c = c as usize;
        &self.spans[self.first[c] as usize..self.first[c + 1] as usize]
    }

    /// `Σᵢ` of up to [`LANES`] candidates, summed side by side, and the
    /// number of bins read. Lane `j` of the result belongs to `group[j]`;
    /// lanes past `group.len()` stay `0.0`.
    fn harmonic_sums(&self, amps: &[f64], group: &[u32]) -> ([f64; LANES], u64) {
        let spans: [&[Span]; LANES] =
            std::array::from_fn(|j| group.get(j).map_or(&[][..], |&c| self.spans_of(c)));
        let harmonics = spans.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut sums = [0.0; LANES];
        let mut scanned = 0;
        for h in 0..harmonics {
            let win: [&[f64]; LANES] = std::array::from_fn(|j| {
                spans[j].get(h).map_or(&[][..], |s| {
                    &amps[s.lo as usize..s.lo as usize + s.len as usize]
                })
            });
            let common = win.iter().map(|w| w.len()).min().unwrap_or(0);
            let (w0, w1, w2, w3) = (
                &win[0][..common],
                &win[1][..common],
                &win[2][..common],
                &win[3][..common],
            );
            for (((a0, a1), a2), a3) in w0.iter().zip(w1).zip(w2).zip(w3) {
                sums[0] += a0;
                sums[1] += a1;
                sums[2] += a2;
                sums[3] += a3;
            }
            for (sum, w) in sums.iter_mut().zip(win) {
                for a in &w[common..] {
                    *sum += a;
                }
                scanned += w.len() as u64;
            }
        }
        (sums, scanned)
    }
}

/// Candidates whose harmonic sums run side by side.
const LANES: usize = 4;

/// Runs the peak-detection heuristic on a sampled spectrum.
pub fn detect(spectrum: &Spectrum, cfg: &PeakConfig) -> PeakAnalysis {
    BUFFERS.with_borrow_mut(|buffers| {
        let Buffers { maxima, plan } = buffers;
        let amps = &spectrum.amplitudes;
        let grid = spectrum.config;
        let mut scanned = amps.len() as u64; // steps 1–3 scan every bin

        let Scan { sum, max, rising } = scan(amps, maxima);
        let mean = if amps.is_empty() {
            0.0
        } else {
            sum / amps.len() as f64
        };
        let threshold = cfg.alpha * mean;
        let rel_floor = cfg.min_rel_amplitude * max;
        // Compacted in place like the scan, with non-short-circuit `&`:
        // whether a noise bump clears the cuts does not predict.
        let mut candidates = 0;
        for j in 0..rising {
            let i = maxima[j] as usize;
            let a = amps[i];
            let keep = (a >= threshold) & (a >= rel_floor) & (a > 0.0) & falls_after(amps, i);
            maxima[candidates] = maxima[j];
            candidates += usize::from(keep);
        }
        if candidates == 0 {
            return PeakAnalysis {
                detection: Detection::Aperiodic,
                scanned_bins: scanned,
            };
        }

        // Step 5: harmonic accumulation.
        let plan = plan.for_grid(amps.len(), &grid, cfg);
        let mut best: Option<(u32, f64)> = None;
        for group in maxima[..candidates].chunks(LANES) {
            let (sums, bins) = plan.harmonic_sums(amps, group);
            scanned += bins;
            for (&c, &sum) in group.iter().zip(&sums) {
                match best {
                    Some((_, s)) if s >= sum => {}
                    _ => best = Some((c, sum)),
                }
            }
        }

        let (wi, score) = best.expect("candidates is non-empty");
        PeakAnalysis {
            detection: Detection::Periodic {
                frequency: grid.freq_of(wi as usize),
                score,
                candidates,
                peak_to_mean: if mean > 0.0 { max / mean } else { 0.0 },
            },
            scanned_bins: scanned,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{amplitude_spectrum, synthetic_burst_train};
    use proptest::prelude::*;

    fn cfg() -> SpectrumConfig {
        SpectrumConfig::new(10.0, 100.0, 0.1)
    }

    /// Indices of strict local maxima of `amps` (plateaus count once, at
    /// their left edge; boundary bins are not maxima), by the walk the
    /// scan replaced.
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

    /// The heuristic as it was evaluated before the fused scan and the
    /// harmonic plan: the oracle of the differential tests below.
    fn detect_reference(spectrum: &Spectrum, cfg: &PeakConfig) -> PeakAnalysis {
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
        PeakAnalysis {
            detection: Detection::Periodic {
                frequency: grid.freq_of(wi),
                score,
                candidates: candidates.len(),
                peak_to_mean: if mean > 0.0 { global_max / mean } else { 0.0 },
            },
            scanned_bins: scanned,
        }
    }

    /// The local maxima as `detect` finds them: the scan, then the plateau
    /// walk, with no threshold.
    fn scanned_maxima(amps: &[f64]) -> Vec<usize> {
        let mut maxima = Vec::new();
        let rising = scan(amps, &mut maxima).rising;
        let found: Vec<usize> = maxima[..rising]
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| falls_after(amps, i))
            .collect();
        assert_eq!(
            found,
            local_maxima(amps),
            "scan and walk disagree on {amps:?}"
        );
        found
    }

    #[test]
    fn local_maxima_basic() {
        let amps = [0.0, 1.0, 0.5, 2.0, 1.0, 1.0, 3.0, 0.0];
        assert_eq!(scanned_maxima(&amps), vec![1, 3, 6]);
    }

    #[test]
    fn local_maxima_plateau_counts_once() {
        let amps = [0.0, 2.0, 2.0, 2.0, 1.0, 0.0];
        assert_eq!(scanned_maxima(&amps), vec![1]);
    }

    #[test]
    fn local_maxima_monotone_has_none() {
        assert!(scanned_maxima(&[1.0, 2.0, 3.0, 4.0]).is_empty());
        assert!(scanned_maxima(&[4.0, 3.0, 2.0, 1.0]).is_empty());
        assert!(scanned_maxima(&[1.0]).is_empty());
    }

    /// Every field of an analysis, floats as bits.
    fn fields(a: &PeakAnalysis) -> (Option<(u64, u64, usize, u64)>, u64) {
        let detection = match a.detection {
            Detection::Periodic {
                frequency,
                score,
                candidates,
                peak_to_mean,
            } => Some((
                frequency.to_bits(),
                score.to_bits(),
                candidates,
                peak_to_mean.to_bits(),
            )),
            Detection::Aperiodic => None,
        };
        (detection, a.scanned_bins)
    }

    fn assert_matches_reference(spectrum: &Spectrum, cfg: &PeakConfig) {
        assert_eq!(
            fields(&detect(spectrum, cfg)),
            fields(&detect_reference(spectrum, cfg)),
            "{} bins on {:?} under {cfg:?}",
            spectrum.amplitudes.len(),
            spectrum.config
        );
    }

    /// `len` amplitudes of one of four shapes — continuous, drawn from
    /// `levels` values (plateaus, some touching an edge), all zero, all
    /// equal — with one bin in `1/specials` replaced by NaN or +∞
    /// (`specials == 0`: none).
    fn amplitudes(len: usize, shape: u8, levels: u8, specials: u64, seed: u64) -> Vec<f64> {
        let mut rng = proptest::test_runner::TestRng::deterministic("amplitudes", seed);
        let level = rng.unit_f64() * 3.0;
        let mut amps: Vec<f64> = (0..len)
            .map(|_| match shape {
                0 => rng.unit_f64() * 5.0,
                1 => (rng.next_u64() % u64::from(levels)) as f64 * 0.75,
                2 => 0.0,
                _ => level,
            })
            .collect();
        if specials > 0 {
            for a in &mut amps {
                if rng.next_u64().is_multiple_of(specials) {
                    *a = if rng.next_u64().is_multiple_of(2) {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                }
            }
        }
        amps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `detect` against the evaluation it replaced, on every kind of
        /// spectrum and configuration the scan and the plan treat
        /// differently: lengths 0–1000 (a quarter of them 0–3), plateaus
        /// and constant inputs, zeros, NaN and ∞, `ε` from 0 to 3 Hz (so
        /// `ε < δf/2` too), `k_max` from 0, and the grid's own length or
        /// any other.
        #[test]
        fn detect_matches_reference_bit_for_bit(
            (len, shape, levels, specials, seed) in (
                prop_oneof![0usize..4, 0usize..1001, 0usize..1001, 0usize..1001],
                0u8..4,
                2u8..7,
                prop_oneof![Just(0u64), Just(0u64), 2u64..40],
                0u64..=u64::MAX,
            ),
            (f_min, df, grid_len) in (
                0.5f64..40.0,
                0.02f64..2.0,
                prop_oneof![Just(None), (1usize..1001).prop_map(Some)],
            ),
            (alpha, epsilon, k_max, min_rel) in (
                prop_oneof![Just(0.0), 0.0f64..3.0],
                prop_oneof![Just(0.0), 0.0f64..0.1, 0.0f64..3.0],
                prop_oneof![Just(0u32), 0u32..13],
                prop_oneof![Just(0.0), Just(0.05), 0.0f64..0.5],
            ),
        ) {
            let amplitudes = amplitudes(len, shape, levels, specials, seed);
            // The grid spans the spectrum's own length, or another one.
            let bins = grid_len.unwrap_or(len.max(1));
            let config = SpectrumConfig::new(f_min, f_min + (bins as f64 - 0.5) * df, df);
            let spectrum = Spectrum { config, amplitudes, events: 0, ops: 0 };
            let peaks = PeakConfig { alpha, epsilon, k_max, min_rel_amplitude: min_rel };
            assert_matches_reference(&spectrum, &peaks);
        }

        /// The scan and the plateau walk find exactly the maxima the old
        /// walk did, NaN and ∞ neighbours included. (In `detect` a NaN
        /// anywhere makes the mean NaN and the α cut reject every bin, so
        /// only this comparison sees how a NaN neighbour is treated.)
        #[test]
        fn scan_finds_the_local_maxima(
            (len, shape, levels, specials, seed) in (
                0usize..60,
                0u8..4,
                2u8..7,
                prop_oneof![Just(0u64), 2u64..8],
                0u64..=u64::MAX,
            ),
        ) {
            scanned_maxima(&amplitudes(len, shape, levels, specials, seed));
        }

        /// The scan's sum is `Spectrum::mean_amplitude`'s, to the bit.
        #[test]
        fn scan_sum_is_the_mean_amplitude_sum(
            (len, shape, levels, specials, seed) in (
                0usize..40,
                0u8..4,
                2u8..7,
                prop_oneof![Just(0u64), 2u64..8],
                0u64..=u64::MAX,
            ),
            negative_zeros in any::<bool>(),
        ) {
            let mut amplitudes = amplitudes(len, shape, levels, specials, seed);
            if negative_zeros {
                amplitudes.iter_mut().filter(|a| **a == 0.0).for_each(|a| *a = -0.0);
            }
            let n = amplitudes.len();
            let scan = scan(&amplitudes, &mut Vec::new());
            let spectrum = Spectrum { config: cfg(), amplitudes, events: 0, ops: 0 };
            let mean = if n == 0 { 0.0 } else { scan.sum / n as f64 };
            prop_assert_eq!(mean.to_bits(), spectrum.mean_amplitude().to_bits());
        }
    }

    /// One thread alternating spectra whose plans differ in exactly one
    /// key field each — length, `f_min`, `f_max`, `δf`, `ε`, `k_max` — so
    /// a plan reused across any of them is caught.
    #[test]
    fn a_plan_is_never_reused_across_grids() {
        let base_grid = SpectrumConfig::new(18.0, 100.0, 0.1);
        let base = PeakConfig {
            min_rel_amplitude: 0.0,
            ..PeakConfig::default()
        };
        let spectrum = |config: SpectrumConfig, len: usize, seed: u64| Spectrum {
            config,
            amplitudes: amplitudes(len, 0, 2, 0, seed),
            events: 0,
            ops: 0,
        };
        let reference = spectrum(base_grid, base_grid.bins(), 1);
        let variants = [
            (spectrum(base_grid, 700, 2), base),
            (spectrum(SpectrumConfig::new(9.0, 100.0, 0.1), 821, 3), base),
            (spectrum(SpectrumConfig::new(18.0, 60.0, 0.1), 821, 4), base),
            (
                spectrum(SpectrumConfig::new(18.0, 100.0, 0.13), 821, 5),
                base,
            ),
            (
                reference.clone(),
                PeakConfig {
                    epsilon: 0.3,
                    ..base
                },
            ),
            (reference.clone(), PeakConfig { k_max: 3, ..base }),
        ];
        for _ in 0..3 {
            for (other, peaks) in &variants {
                assert_matches_reference(&reference, &base);
                assert_matches_reference(other, peaks);
            }
        }
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
