//! Direct evaluation of the amplitude spectrum of an event train.
//!
//! The paper models each traced system call as a Dirac delta, so a trace is
//! `s(t) = Σᵢ δ(t − tᵢ)` and its transform evaluated at frequency `f` is
//! simply `S(f) = Σᵢ e^{-j2πf·tᵢ}` (Section 4.3, Equation (4)). The
//! spectrum is sampled on a regular grid `[f_min, f_max]` with step `δf` —
//! the paper argues an FFT is unsuitable because events carry
//! nanosecond-resolution timestamps and the equivalent sample rate would be
//! absurd.
//!
//! The number of complex exponentiations is `bins × events` (Equation (3));
//! both the batch and the incremental evaluator count them so the overhead
//! experiments (Figures 6–7) can report the measured cost alongside the
//! theoretical one.
//!
//! # The block kernel
//!
//! Every evaluation — [`amplitude_spectrum`], [`WindowedDft::push`] and
//! [`WindowedDft::extend`] — is a sequence of *window operations*
//! `(t, ±1)`: add an event, or subtract one that left the window. One
//! operation walks the grid with a phase rotator (a serial
//! multiply → add chain per bin), so a core evaluating operations one at
//! a time waits on that chain. The kernel (`accumulate_block`) carries
//! eight independent rotators through the bin loop instead and adds their
//! contributions to each bin *in operation order*: every `re[i]` / `im[i]`
//! sees exactly the additions, in exactly the order, that one-at-a-time
//! evaluation performs (Rust never contracts `a * b + c` into a fused
//! multiply-add), so the accumulators are bit-identical while the
//! recurrences overlap. That argument is local to the kernel and holds for
//! every width, so the operations left over after the last full block go
//! through the same function once more, in one pass: at their own width,
//! or as a full block padded with operations of sign zero where that is
//! cheaper (the table on `BLOCK`). Width 1 — the serial chain again —
//! is reached only by a tail of exactly one operation.
//!
//! The same argument lets a [`WindowedDft`] defer its accumulators: until
//! its first eviction they are the adds of its window in push order, and
//! folding the window from zero replays exactly those additions.

use std::cell::RefCell;
use std::collections::VecDeque;

thread_local! {
    /// The accumulator pair [`WindowedDft::spectrum_into`] folds a window
    /// that is still its whole history into, overwritten by every such
    /// call. One per thread, like the analyser's estimate spectrum: a node
    /// reads thousands of short windows in turn, and holding a pair each is
    /// what the deferred accumulators exist to avoid.
    static FOLD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Frequency-grid configuration, in Hz.
#[derive(Copy, Clone, Debug)]
pub struct SpectrumConfig {
    /// Lowest analysed frequency. Must exceed the DC main lobe (≳ 2/H) so
    /// the zero-frequency peak does not leak into the candidate range.
    pub f_min: f64,
    /// Highest analysed frequency.
    pub f_max: f64,
    /// Grid step δf.
    pub df: f64,
}

impl Default for SpectrumConfig {
    fn default() -> Self {
        // The lower bound must stay above f₀/2 of the workloads of
        // interest (see `PeakConfig::min_rel_amplitude`): media players
        // run at 25–100 jobs/s, so 18 Hz excludes their subharmonics
        // (12.5 Hz for 25 fps video, 16.25 Hz for 32.5 Hz audio) while
        // the paper's own plots use a [30, 100] Hz window.
        SpectrumConfig {
            f_min: 18.0,
            f_max: 100.0,
            df: 0.1,
        }
    }
}

impl SpectrumConfig {
    /// Creates a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f_min < f_max` and `df > 0`.
    pub fn new(f_min: f64, f_max: f64, df: f64) -> SpectrumConfig {
        let cfg = SpectrumConfig { f_min, f_max, df };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.f_min > 0.0 && self.f_min < self.f_max && self.df > 0.0,
            "invalid spectrum config {self:?}"
        );
    }

    /// Number of grid bins, `⌊(f_max − f_min)/δf⌋ + 1`.
    pub fn bins(&self) -> usize {
        ((self.f_max - self.f_min) / self.df).floor() as usize + 1
    }

    /// Frequency of bin `i`.
    pub fn freq_of(&self, i: usize) -> f64 {
        self.f_min + i as f64 * self.df
    }

    /// Nearest bin index for frequency `f`, clamped to the grid.
    #[cfg(test)]
    fn bin_of(&self, f: f64) -> usize {
        let i = ((f - self.f_min) / self.df).round();
        (i.max(0.0) as usize).min(self.bins() - 1)
    }
}

/// A sampled amplitude spectrum.
#[derive(Clone, Debug)]
pub struct Spectrum {
    /// Grid configuration the amplitudes were sampled on.
    pub config: SpectrumConfig,
    /// `|S(f)|` per grid bin.
    pub amplitudes: Vec<f64>,
    /// Number of events that contributed.
    pub events: usize,
    /// Complex exponentiations performed (Equation (3) accounting).
    pub ops: u64,
}

impl Spectrum {
    /// Frequencies of all bins.
    pub fn freqs(&self) -> Vec<f64> {
        (0..self.amplitudes.len())
            .map(|i| self.config.freq_of(i))
            .collect()
    }

    /// Amplitudes normalised to a maximum of 1 (the paper's Figure 10
    /// presentation). An all-zero spectrum stays all-zero.
    pub fn normalized(&self) -> Vec<f64> {
        let max = self.amplitudes.iter().copied().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return self.amplitudes.clone();
        }
        self.amplitudes.iter().map(|a| a / max).collect()
    }

    /// Mean amplitude over the grid: the bit-for-bit reference for the sum
    /// [`crate::peaks::detect`] accumulates during its scan.
    #[cfg(test)]
    pub(crate) fn mean_amplitude(&self) -> f64 {
        if self.amplitudes.is_empty() {
            return 0.0;
        }
        self.amplitudes.iter().sum::<f64>() / self.amplitudes.len() as f64
    }
}

/// Window operations evaluated together by one pass over the grid.
///
/// Eight rotators (`c`, `s` and the per-bin step `cd`, `sd` each) are what
/// the sixteen SSE2 vector registers of baseline x86-64 hold; widths 4
/// and 16 both measured ~20 % slower per operation.
///
/// A tail of `r < BLOCK` operations is routed by measurement
/// ([`accumulate_tail`]). Microseconds per `extend` of `r` arrivals with
/// no eviction on the default 821-bin grid, median of 21 interleaved
/// rounds on a 2.1 GHz Xeon (runs drift ±15 % on this machine; the order
/// within a row held in all four):
///
/// | `r` | `r` passes at width 1 | one pass at width `r` | one padded full block |
/// |---|---|---|---|
/// | 1 | 1.88 | **1.88** | 4.38 |
/// | 2 | 3.15 | **1.98** | 4.28 |
/// | 3 | 5.61 | **2.52** | 4.49 |
/// | 4 | 7.73 | **2.97** | 4.71 |
/// | 5 | 9.33 | **3.91** | 4.43 |
/// | 6 | 10.50 | 5.30 | **4.28** |
/// | 7 | 13.02 | 5.20 | **4.52** |
///
/// (a full block of eight: 3.6.) Widths 6 and 7 lose to the block they
/// almost fill, so they are padded up to it; up to 5 the tail's own width
/// wins.
const BLOCK: usize = 8;

/// Accumulates `signₖ · e^{-j2π·freq_of(i)·tₖ}` into `(re[i], im[i])` for
/// the `W` operations `(tₖ, signₖ)` of `ops`, operation 0 first.
///
/// Instead of a `sin`/`cos` pair per (event, bin), the bin phases form an
/// arithmetic progression `θᵢ = 2π(f_min + i·δf)t`, so the complex
/// exponentials follow the angle-addition recurrence
/// `e^{-jθᵢ₊₁} = e^{-jθᵢ} · e^{-j2πδf·t}`: one `sin_cos` pair per event
/// (plus one for the rotator) and four multiply-adds per bin. The rotator
/// stays on the unit circle to machine precision over the grid sizes used
/// here (≤ a few thousand bins), keeping the result within 1e-9 of the
/// naive evaluation — a property test asserts this.
///
/// The `W` rotators are independent, so their recurrences overlap in the
/// pipeline; the additions into one bin are not reordered, so the result
/// is the same to the bit for every `W` (see the module docs).
///
/// The sign is folded into the rotator once, before the bin loop, instead
/// of multiplying every contribution by it. That is exact: negating both
/// operands of a product, sum or difference negates the rounded result,
/// so the signed rotator is the negated unsigned one at every bin. The
/// one exception is the sign of an exact zero (`x − x` is `+0` either
/// way), and a zero contributes the same whatever its sign, because an
/// accumulator is never `−0`: it starts at `+0`, and a sum that cancels
/// exactly is `+0`.
fn accumulate_block<const W: usize>(
    config: &SpectrumConfig,
    ops: &[(f64, f64); W],
    re: &mut [f64],
    im: &mut [f64],
) {
    let tau = core::f64::consts::TAU;
    let (mut c, mut s) = ([0.0_f64; W], [0.0_f64; W]);
    let (mut cd, mut sd) = ([0.0_f64; W], [0.0_f64; W]);
    for (k, &(t, sign)) in ops.iter().enumerate() {
        let (s0, c0) = (tau * config.f_min * t).sin_cos();
        (c[k], s[k]) = (sign * c0, sign * s0);
        (sd[k], cd[k]) = (tau * config.df * t).sin_cos();
    }
    for (r, m) in re.iter_mut().zip(im.iter_mut()) {
        // e^{-jωt} = cos(ωt) − j·sin(ωt).
        let (mut acc_r, mut acc_m) = (*r, *m);
        for k in 0..W {
            acc_r += c[k];
            acc_m -= s[k];
        }
        *r = acc_r;
        *m = acc_m;
        for k in 0..W {
            let next_c = c[k] * cd[k] - s[k] * sd[k];
            let next_s = s[k] * cd[k] + c[k] * sd[k];
            c[k] = next_c;
            s[k] = next_s;
        }
    }
}

/// Streams the operations `(t, sign)` of `ops` through the kernel in
/// order — full blocks of [`BLOCK`], then the remainder in one pass
/// ([`accumulate_tail`]) — and returns how many there were.
fn accumulate_ops(
    config: &SpectrumConfig,
    ops: impl Iterator<Item = (f64, f64)>,
    re: &mut [f64],
    im: &mut [f64],
) -> u64 {
    let mut block = [NO_OP; BLOCK];
    let (mut filled, mut count) = (0, 0_u64);
    for op in ops {
        block[filled] = op;
        filled += 1;
        count += 1;
        if filled == BLOCK {
            accumulate_block(config, &block, re, im);
            filled = 0;
        }
    }
    accumulate_tail(config, &mut block, filled, re, im);
    count
}

/// An operation that leaves every accumulator as it found it: a zero sign
/// makes the rotator `±0` at every bin, and adding or subtracting a zero
/// of either sign changes nothing, because an accumulator is never `−0`
/// (the argument of the folded sign in [`accumulate_block`]).
const NO_OP: (f64, f64) = (0.0, 0.0);

/// Evaluates the `filled < BLOCK` operations left in `block` in one pass
/// over the grid, at the width the table on [`BLOCK`] routes them to:
/// their own, or a full block whose unused slots are [`NO_OP`]s.
fn accumulate_tail(
    config: &SpectrumConfig,
    block: &mut [(f64, f64); BLOCK],
    filled: usize,
    re: &mut [f64],
    im: &mut [f64],
) {
    fn first<const W: usize>(block: &[(f64, f64); BLOCK]) -> &[(f64, f64); W] {
        block[..W].try_into().expect("W <= BLOCK")
    }
    match filled {
        0 => {}
        1 => accumulate_block(config, first::<1>(block), re, im),
        2 => accumulate_block(config, first::<2>(block), re, im),
        3 => accumulate_block(config, first::<3>(block), re, im),
        4 => accumulate_block(config, first::<4>(block), re, im),
        5 => accumulate_block(config, first::<5>(block), re, im),
        _ => {
            // Slots past `filled` still hold the previous block.
            block[filled..].fill(NO_OP);
            accumulate_block(config, block, re, im);
        }
    }
}

/// `|S(f)|` per bin from the two accumulators, into `out` (overwritten).
fn amplitudes_into(re: &[f64], im: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(re.iter().zip(im).map(|(r, m)| (r * r + m * m).sqrt()));
}

/// Evaluates `|S(f)|` for the event timestamps (in seconds) on the grid.
pub fn amplitude_spectrum(events_secs: &[f64], config: SpectrumConfig) -> Spectrum {
    config.validate();
    let bins = config.bins();
    let mut re = vec![0.0_f64; bins];
    let mut im = vec![0.0_f64; bins];
    let adds = events_secs.iter().map(|&t| (t, 1.0));
    let count = accumulate_ops(&config, adds, &mut re, &mut im);
    let mut amplitudes = Vec::with_capacity(bins);
    amplitudes_into(&re, &im, &mut amplitudes);
    Spectrum {
        config,
        amplitudes,
        events: events_secs.len(),
        ops: bins as u64 * count,
    }
}

/// Incremental spectrum accumulator with a sliding observation window.
///
/// Events are pushed as they arrive; events older than `horizon` seconds
/// behind the newest are evicted by subtracting their contribution —
/// the iterative evaluation described in Section 4.3.
///
/// The running accumulators exist so that an eviction can be subtracted,
/// and a window holds them only once it needs them. It is in one of two
/// states:
///
/// - **History.** No event has been evicted since construction or the
///   last [`WindowedDft::clear`], and the window holds at most `BLOCK`
///   (8) events. The window *is* the whole history, so the accumulators are
///   the fold of its adds in push order and are not kept: `acc` is
///   empty, [`WindowedDft::extend`] only appends, and
///   `WindowedDft::spectrum_into` folds the window into a per-thread
///   pair. Most analysers of a dense fleet never leave this state, and
///   hold a few words where a grid pair costs `bins × 16` bytes.
/// - **Running.** The first `extend` that would evict, or would grow the
///   window past `BLOCK`, allocates the pair, folds the window's adds
///   into it and then evaluates its own operations as before.
///
/// Both are bit-identical to accumulating every operation as it comes:
/// the fold performs the same additions in the same order (the module
/// docs' argument, which holds at every kernel width). `BLOCK` is the
/// threshold because it is the kernel's own width — a window that fits
/// one block is folded in one pass over the grid, the pass an
/// incremental tail would have cost anyway. [`WindowedDft::ops`] counts
/// the paper's Equation (3) operations in either state, not the passes
/// a fold repeats.
#[derive(Debug)]
pub struct WindowedDft {
    config: SpectrumConfig,
    horizon: f64,
    /// The accumulator pair in one allocation, real parts then imaginary
    /// ones ([`split`]): empty in the history state, `2 × bins` long in
    /// the running state.
    acc: Vec<f64>,
    window: VecDeque<f64>,
    ops: u64,
}

impl WindowedDft {
    /// Creates an accumulator with the given grid and window length (s).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive or the config is invalid.
    pub fn new(config: SpectrumConfig, horizon: f64) -> WindowedDft {
        config.validate();
        assert!(horizon > 0.0, "horizon must be positive");
        WindowedDft {
            config,
            horizon,
            acc: Vec::new(),
            window: VecDeque::new(),
            ops: 0,
        }
    }

    /// The observation horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Number of events currently inside the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns `true` if no event is in the window.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Adds an event at `t` seconds (monotonically non-decreasing) and
    /// evicts events that fell out of the window.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the newest event already pushed.
    pub fn push(&mut self, t: f64) {
        self.extend(&[t]);
    }

    /// Adds a batch of events (seconds, monotonically non-decreasing),
    /// evicting after each one the events that fell out of the window —
    /// the same operation sequence `+t₀, −evicted…, +t₁, −evicted…` as
    /// pushing them one by one, evaluated eight operations at a time and
    /// the remainder in one pass.
    ///
    /// # Panics
    ///
    /// Panics if an event precedes the newest one already in the window.
    pub fn extend(&mut self, events_secs: &[f64]) {
        let bins = self.config.bins() as u64;
        if self.acc.is_empty() {
            if self.keeps_history(events_secs) {
                for &t in events_secs {
                    append(&mut self.window, t);
                }
                self.ops += bins * events_secs.len() as u64;
                return;
            }
            fold_window(&self.config, &self.window, &mut self.acc);
        }
        let WindowedDft {
            config,
            horizon,
            acc,
            window,
            ops,
        } = self;
        let (re, im) = split(acc);
        let mut arrivals = events_secs.iter();
        // The arrival whose evictions are still being emitted.
        let mut newest: Option<f64> = None;
        let sequence = core::iter::from_fn(|| {
            if let Some(t) = newest {
                match window.front() {
                    Some(&old) if evicts(*horizon, old, t) => {
                        window.pop_front();
                        return Some((old, -1.0));
                    }
                    _ => newest = None,
                }
            }
            let &t = arrivals.next()?;
            append(window, t);
            newest = Some(t);
            Some((t, 1.0))
        });
        let count = accumulate_ops(config, sequence, re, im);
        *ops += bins * count;
    }

    /// Whether the window stays its whole history after appending
    /// `events_secs`: at most [`BLOCK`] events, and no arrival evicts.
    /// The first eviction would come from the newest arrival if from any,
    /// since the front stays put until then and `t − front` is monotone in
    /// `t`; the test is the running state's own ([`evicts`]).
    fn keeps_history(&self, events_secs: &[f64]) -> bool {
        let (Some(&front), Some(&newest)) = (
            self.window.front().or(events_secs.first()),
            events_secs.last(),
        ) else {
            return true;
        };
        self.window.len() + events_secs.len() <= BLOCK && !evicts(self.horizon, front, newest)
    }

    /// Snapshot of the current amplitude spectrum.
    pub fn spectrum(&self) -> Spectrum {
        let mut out = Spectrum {
            config: self.config,
            amplitudes: Vec::with_capacity(self.config.bins()),
            events: 0,
            ops: 0,
        };
        self.spectrum_into(&mut out);
        out
    }

    /// Overwrites `out` with the current amplitude spectrum, reusing its
    /// amplitude buffer.
    pub(crate) fn spectrum_into(&self, out: &mut Spectrum) {
        out.config = self.config;
        if self.acc.is_empty() {
            FOLD_SCRATCH.with_borrow_mut(|acc| {
                fold_window(&self.config, &self.window, acc);
                let (re, im) = split(acc);
                amplitudes_into(re, im, &mut out.amplitudes);
            });
        } else {
            let (re, im) = self.acc.split_at(self.acc.len() / 2);
            amplitudes_into(re, im, &mut out.amplitudes);
        }
        out.events = self.window.len();
        out.ops = self.ops;
    }

    /// Total complex exponentiations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Drops all state (events and accumulators): the window is its whole
    /// history again, and holds no grid pair.
    pub fn clear(&mut self) {
        self.acc = Vec::new();
        self.window.clear();
    }
}

/// Whether an arrival at `t` evicts the window's oldest event at `front`:
/// it is strictly more than `horizon` behind.
fn evicts(horizon: f64, front: f64, t: f64) -> bool {
    t - front > horizon
}

/// Appends an arrival to a window.
///
/// # Panics
///
/// Panics if `t` precedes the newest event in the window.
fn append(window: &mut VecDeque<f64>, t: f64) {
    if let Some(&last) = window.back() {
        assert!(t >= last, "events must be pushed in time order");
    }
    window.push_back(t);
}

/// Overwrites `acc` with the accumulator pair of a window that is its
/// whole history: zero, then its adds in push order.
fn fold_window(config: &SpectrumConfig, window: &VecDeque<f64>, acc: &mut Vec<f64>) {
    acc.clear();
    acc.resize(2 * config.bins(), 0.0);
    let (re, im) = split(acc);
    accumulate_ops(config, window.iter().map(|&t| (t, 1.0)), re, im);
}

/// The real and imaginary halves of an accumulator pair.
fn split(acc: &mut [f64]) -> (&mut [f64], &mut [f64]) {
    let bins = acc.len() / 2;
    acc.split_at_mut(bins)
}

/// Generates a perfectly periodic burst train for tests and benchmarks:
/// `jobs` jobs of period `period_s`, each burst containing `per_burst`
/// events spread over `burst_span_s` at the job start.
pub fn synthetic_burst_train(
    period_s: f64,
    jobs: usize,
    per_burst: usize,
    burst_span_s: f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(jobs * per_burst);
    for j in 0..jobs {
        let base = j as f64 * period_s;
        for k in 0..per_burst {
            out.push(base + burst_span_s * k as f64 / per_burst.max(1) as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> SpectrumConfig {
        SpectrumConfig::new(10.0, 100.0, 0.1)
    }

    /// The scalar evaluator the block kernel replaced, kept as the
    /// reference: one operation, one rotator, one pass over the grid.
    fn accumulate_event(
        config: &SpectrumConfig,
        t: f64,
        sign: f64,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let tau = core::f64::consts::TAU;
        let (s0, c0) = (tau * config.f_min * t).sin_cos();
        let (sd, cd) = (tau * config.df * t).sin_cos();
        let (mut c, mut s) = (c0, s0);
        for (r, m) in re.iter_mut().zip(im.iter_mut()) {
            // e^{-jωt} = cos(ωt) − j·sin(ωt).
            *r += sign * c;
            *m -= sign * s;
            let next_c = c * cd - s * sd;
            let next_s = s * cd + c * sd;
            c = next_c;
            s = next_s;
        }
    }

    /// The sliding window as it was before `extend`: one scalar pass per
    /// arrival and per eviction, in `push` order.
    struct ScalarWindow {
        config: SpectrumConfig,
        horizon: f64,
        re: Vec<f64>,
        im: Vec<f64>,
        window: std::collections::VecDeque<f64>,
        ops: u64,
        /// The sign of every operation so far, in evaluation order.
        signs: Vec<f64>,
    }

    impl ScalarWindow {
        fn new(config: SpectrumConfig, horizon: f64) -> ScalarWindow {
            ScalarWindow {
                config,
                horizon,
                re: vec![0.0; config.bins()],
                im: vec![0.0; config.bins()],
                window: std::collections::VecDeque::new(),
                ops: 0,
                signs: Vec::new(),
            }
        }

        fn accumulate(&mut self, t: f64, sign: f64) {
            accumulate_event(&self.config, t, sign, &mut self.re, &mut self.im);
            self.ops += self.re.len() as u64;
            self.signs.push(sign);
        }

        fn push(&mut self, t: f64) {
            self.accumulate(t, 1.0);
            self.window.push_back(t);
            while let Some(&old) = self.window.front() {
                if t - old > self.horizon {
                    self.window.pop_front();
                    self.accumulate(old, -1.0);
                } else {
                    break;
                }
            }
        }

        fn clear(&mut self) {
            self.re.iter_mut().for_each(|x| *x = 0.0);
            self.im.iter_mut().for_each(|x| *x = 0.0);
            self.window.clear();
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The accumulators `w` stands for: its own pair in the running
    /// state, the fold of its window while that is its whole history.
    fn folded(w: &WindowedDft) -> (Vec<f64>, Vec<f64>) {
        let mut acc = w.acc.clone();
        if acc.is_empty() {
            fold_window(&w.config, &w.window, &mut acc);
        }
        let im = acc.split_off(acc.len() / 2);
        (acc, im)
    }

    /// Accumulators (folded where `w` defers them), window and operation
    /// count equal to the bit.
    fn assert_same_state(w: &WindowedDft, reference: &ScalarWindow) {
        let (re, im) = folded(w);
        assert_eq!(bits(&re), bits(&reference.re), "re differs");
        assert_eq!(bits(&im), bits(&reference.im), "im differs");
        assert_eq!(w.window, reference.window, "window differs");
        assert_eq!(w.ops(), reference.ops, "ops differs");
        let mut amplitudes = Vec::new();
        amplitudes_into(&reference.re, &reference.im, &mut amplitudes);
        let spectrum = w.spectrum();
        assert_eq!(
            bits(&spectrum.amplitudes),
            bits(&amplitudes),
            "spectrum differs"
        );
        assert_eq!(spectrum.events, reference.window.len(), "events differs");
    }

    /// A time-ordered train from non-negative gaps, starting at `t = 0`
    /// (where the rotator's sine is an exact zero).
    fn train_of(gaps_ms: &[u32]) -> Vec<f64> {
        let mut t = 0.0;
        gaps_ms
            .iter()
            .map(|&g| {
                t += f64::from(g) / 1e3;
                t
            })
            .collect()
    }

    #[test]
    fn block_kernel_is_bit_identical_at_every_batch_length() {
        // 0.4 s horizon over a ~7 ms mean gap: most arrivals evict.
        let c = SpectrumConfig::default();
        let train: Vec<f64> = (0..400)
            .map(|i| i as f64 * 0.0071 + (i as f64 * 0.618_033_988_75).fract() * 0.004)
            .collect();
        // Tail sizes (operations past the last full block of one `extend`)
        // that were compared with an eviction among the tail's operations.
        let mut tails_with_evictions = [false; BLOCK];
        for len in [0usize, 1, 3, 7, 8, 9, 17, 64] {
            let mut w = WindowedDft::new(c, 0.4);
            let mut reference = ScalarWindow::new(c, 0.4);
            // The whole train in batches of `len` (one empty call for 0).
            for batch in train.chunks(len.max(1)) {
                let batch = if len == 0 { &batch[..0] } else { batch };
                let before = reference.signs.len();
                w.extend(batch);
                batch.iter().for_each(|&t| reference.push(t));
                assert_same_state(&w, &reference);
                let sequence = &reference.signs[before..];
                let tail = &sequence[sequence.len() - sequence.len() % BLOCK..];
                tails_with_evictions[tail.len()] |= tail.contains(&-1.0);
            }
        }
        // Every width the tail can be routed to went through the
        // differential: a change of `BLOCK`, of the routing or of the
        // batch lengths above that drops one fails here, not silently.
        for (size, seen) in tails_with_evictions.iter().enumerate().skip(1) {
            assert!(
                seen,
                "no {size}-operation tail with an eviction was compared"
            );
        }
    }

    /// Trains at the edges of the history state, fed in the batches
    /// given, against the scalar push loop. After each batch the window
    /// must be in the state named: `R` running (it holds the grid pair),
    /// `H` history (it holds no grid buffer at all).
    #[test]
    fn history_state_edges_match_the_scalar_push_loop() {
        let c = SpectrumConfig::default();
        let h: f64 = 0.4;
        let past = h.next_up();
        let t = |i: u32| f64::from(i) * 0.013;
        let eight: Vec<f64> = (0..8).map(t).collect();
        let cases: Vec<(&str, Vec<Vec<f64>>, &str)> = vec![
            ("one event", vec![vec![0.013]], "H"),
            ("eight in one batch", vec![eight.clone()], "H"),
            (
                "eight pushed singly",
                eight.iter().map(|&t| vec![t]).collect(),
                "HHHHHHHH",
            ),
            ("a ninth pushed", vec![eight.clone(), vec![t(8)]], "HR"),
            ("nine in one batch", vec![(0..9).map(t).collect()], "R"),
            (
                "crosses BLOCK mid-batch",
                vec![(0..5).map(t).collect(), (5..11).map(t).collect()],
                "HR",
            ),
            ("eviction at 2 events", vec![vec![0.0], vec![0.5]], "HR"),
            ("eviction at 2 events, one batch", vec![vec![0.0, 0.5]], "R"),
            ("exactly at the horizon", vec![vec![0.0, h]], "H"),
            ("just past the horizon", vec![vec![0.0, past]], "R"),
            (
                "at it, then past it",
                vec![vec![0.0], vec![h], vec![past]],
                "HHR",
            ),
            (
                "off-zero front, at it",
                vec![vec![0.1], vec![0.1 + h]],
                "HH",
            ),
            (
                "off-zero front, past it",
                vec![vec![0.1], vec![(0.1 + h).next_up()]],
                "HR",
            ),
            ("empty batches", vec![vec![], vec![0.2], vec![]], "HHH"),
        ];
        for (name, batches, states) in cases {
            assert_eq!(batches.len(), states.len(), "{name}");
            let mut w = WindowedDft::new(c, h);
            let mut reference = ScalarWindow::new(c, h);
            for (batch, state) in batches.iter().zip(states.chars()) {
                w.extend(batch);
                batch.iter().for_each(|&t| reference.push(t));
                assert_same_state(&w, &reference);
                let running = reference.signs.contains(&-1.0) || w.len() > BLOCK;
                assert_eq!(
                    running,
                    state == 'R',
                    "{name}: the oracle disagrees with {state}"
                );
                assert_eq!(!w.acc.is_empty(), running, "{name}: wrong state");
                if !running {
                    assert_eq!(w.acc.capacity(), 0, "{name}");
                }
            }
        }
    }

    #[test]
    fn clear_returns_a_window_to_its_history_state() {
        let c = SpectrumConfig::default();
        let train: Vec<f64> = (0..30).map(|i| f64::from(i) * 0.021).collect();
        let mut w = WindowedDft::new(c, 0.3);
        let mut reference = ScalarWindow::new(c, 0.3);
        let feed = |w: &mut WindowedDft, reference: &mut ScalarWindow, batch: &[f64]| {
            w.extend(batch);
            batch.iter().for_each(|&t| reference.push(t));
            assert_same_state(w, reference);
        };
        feed(&mut w, &mut reference, &train[..20]);
        assert!(!w.acc.is_empty());
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.acc.capacity(), 0);
        // The refill starts from zero, as the scalar loop's does.
        reference.clear();
        feed(&mut w, &mut reference, &train[20..23]);
        assert_eq!(w.acc.capacity(), 0);
        feed(&mut w, &mut reference, &train[23..]);
        assert!(!w.acc.is_empty());
    }

    #[test]
    fn a_window_within_block_and_horizon_holds_no_grid_buffer() {
        let c = SpectrumConfig::default();
        let mut pushed = WindowedDft::new(c, 2.0);
        let mut batched = WindowedDft::new(c, 2.0);
        let train = synthetic_burst_train(0.04, 4, 2, 0.004);
        assert_eq!(train.len(), BLOCK);
        for &t in &train {
            pushed.push(t);
            let _ = pushed.spectrum();
        }
        batched.extend(&train);
        let mut out = batched.spectrum();
        batched.spectrum_into(&mut out);
        for w in [&pushed, &batched] {
            assert_eq!(w.len(), BLOCK);
            assert_eq!(w.acc.capacity(), 0);
            assert_eq!(w.ops(), (c.bins() * BLOCK) as u64);
        }
        assert_eq!(
            bits(&out.amplitudes),
            bits(&amplitude_spectrum(&train, c).amplitudes)
        );
    }

    proptest! {
        /// Random trains with evictions, fed in random batch sizes with a
        /// `clear()` somewhere in the stream: `extend` leaves the same
        /// bits, window and `ops()` as the scalar push loop.
        #[test]
        fn extend_matches_scalar_push_loop_bit_for_bit(
            gaps_ms in prop::collection::vec(0u32..40, 0..160),
            cuts in prop::collection::vec(0usize..24, 1..40),
            clear_at in 0usize..40,
            horizon_ms in 20u32..600,
        ) {
            let c = SpectrumConfig::new(18.0, 100.0, 0.5);
            let horizon = f64::from(horizon_ms) / 1e3;
            let train = train_of(&gaps_ms);
            let mut w = WindowedDft::new(c, horizon);
            let mut reference = ScalarWindow::new(c, horizon);
            let mut rest = &train[..];
            for (i, &cut) in cuts.iter().enumerate() {
                if i == clear_at {
                    w.clear();
                    reference.clear();
                }
                let (batch, tail) = rest.split_at(cut.min(rest.len()));
                w.extend(batch);
                batch.iter().for_each(|&t| reference.push(t));
                assert_same_state(&w, &reference);
                rest = tail;
            }
            w.extend(rest);
            rest.iter().for_each(|&t| reference.push(t));
            assert_same_state(&w, &reference);
        }

        /// `extend(batch)` is repeated `push`, and the batch evaluator is
        /// the same additions in the same order as the scalar one.
        #[test]
        fn extend_is_repeated_push_and_batch_matches_scalar(
            gaps_ms in prop::collection::vec(0u32..30, 0..120),
        ) {
            let c = SpectrumConfig::new(18.0, 100.0, 0.5);
            let train = train_of(&gaps_ms);
            let mut batched = WindowedDft::new(c, 0.25);
            let mut pushed = WindowedDft::new(c, 0.25);
            batched.extend(&train);
            train.iter().for_each(|&t| pushed.push(t));
            let (batched_re, batched_im) = folded(&batched);
            let (pushed_re, pushed_im) = folded(&pushed);
            prop_assert_eq!(bits(&batched_re), bits(&pushed_re));
            prop_assert_eq!(bits(&batched_im), bits(&pushed_im));
            prop_assert_eq!(batched.ops(), pushed.ops());
            prop_assert_eq!(&batched.window, &pushed.window);

            let mut reference = ScalarWindow::new(c, f64::INFINITY);
            train.iter().for_each(|&t| reference.push(t));
            let scalar: Vec<f64> = reference
                .re
                .iter()
                .zip(&reference.im)
                .map(|(r, m)| (r * r + m * m).sqrt())
                .collect();
            let spectrum = amplitude_spectrum(&train, c);
            prop_assert_eq!(bits(&spectrum.amplitudes), bits(&scalar));
            prop_assert_eq!(spectrum.ops, reference.ops);
        }
    }

    #[test]
    fn grid_geometry() {
        let c = cfg();
        assert_eq!(c.bins(), 901);
        assert!((c.freq_of(0) - 10.0).abs() < 1e-12);
        assert!((c.freq_of(900) - 100.0).abs() < 1e-9);
        assert_eq!(c.bin_of(10.0), 0);
        assert_eq!(c.bin_of(100.0), 900);
        assert_eq!(c.bin_of(25.04), 150);
        assert_eq!(c.bin_of(0.0), 0); // clamped
        assert_eq!(c.bin_of(500.0), 900); // clamped
    }

    #[test]
    fn empty_spectrum_is_zero() {
        let s = amplitude_spectrum(&[], cfg());
        assert!(s.amplitudes.iter().all(|&a| a == 0.0));
        assert_eq!(s.ops, 0);
    }

    #[test]
    fn single_event_is_flat_unit() {
        let s = amplitude_spectrum(&[0.3], cfg());
        assert!(s.amplitudes.iter().all(|&a| (a - 1.0).abs() < 1e-9));
    }

    #[test]
    fn periodic_train_peaks_at_fundamental() {
        // 25 Hz train observed for 2 s.
        let events = synthetic_burst_train(0.04, 50, 1, 0.0);
        let s = amplitude_spectrum(&events, cfg());
        let peak_bin = s
            .amplitudes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let f = s.config.freq_of(peak_bin);
        // Peaks at 25, 50, 75, 100 all have amplitude N; the max is one of
        // the harmonics of 25 Hz.
        assert!(
            (f / 25.0 - (f / 25.0).round()).abs() < 0.01,
            "peak at {f} is not a harmonic of 25"
        );
        // The 25 Hz bin itself is (near) N = 50.
        let a25 = s.amplitudes[s.config.bin_of(25.0)];
        assert!((a25 - 50.0).abs() < 1e-6, "a25 = {a25}");
    }

    #[test]
    fn off_peak_amplitude_is_small() {
        let events = synthetic_burst_train(0.04, 50, 1, 0.0);
        let s = amplitude_spectrum(&events, cfg());
        // Between harmonics (e.g. 37.5 Hz) the sum nearly cancels.
        let a = s.amplitudes[s.config.bin_of(37.5)];
        assert!(a < 5.0, "off-peak amplitude {a}");
    }

    #[test]
    fn rotator_matches_naive_per_bin_sincos_within_1e9() {
        // Irregular, irrational-ish timestamps over a long observation
        // window: the worst case for rotator drift.
        let events: Vec<f64> = (0..300)
            .map(|i| i as f64 * 0.0415926535 + (i as f64 * 0.618_033_988_75).fract() * 0.003)
            .collect();
        let c = cfg();
        let fast = amplitude_spectrum(&events, c);
        // Naive path: one sin/cos per (event, bin), as the pre-rotator code.
        let bins = c.bins();
        let mut re = vec![0.0_f64; bins];
        let mut im = vec![0.0_f64; bins];
        let tau = core::f64::consts::TAU;
        for &t in &events {
            for (i, (r, m)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                let phase = tau * c.freq_of(i) * t;
                *r += phase.cos();
                *m -= phase.sin();
            }
        }
        for (i, (r, m)) in re.iter().zip(&im).enumerate() {
            let naive = (r * r + m * m).sqrt();
            let d = (fast.amplitudes[i] - naive).abs();
            assert!(
                d < 1e-9,
                "bin {i}: |{} - {naive}| = {d}",
                fast.amplitudes[i]
            );
        }
    }

    #[test]
    fn ops_counter_matches_equation3() {
        let events = synthetic_burst_train(0.04, 10, 3, 0.004);
        let s = amplitude_spectrum(&events, cfg());
        assert_eq!(s.ops, (cfg().bins() * events.len()) as u64);
    }

    #[test]
    fn windowed_matches_batch_for_fitting_window() {
        let events = synthetic_burst_train(0.04, 20, 2, 0.004);
        let mut w = WindowedDft::new(cfg(), 10.0); // everything fits
        for &t in &events {
            w.push(t);
        }
        let inc = w.spectrum();
        let batch = amplitude_spectrum(&events, cfg());
        for (a, b) in inc.amplitudes.iter().zip(&batch.amplitudes) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(inc.events, events.len());
    }

    #[test]
    fn windowed_evicts_old_events() {
        let mut w = WindowedDft::new(cfg(), 1.0);
        for &t in &[0.0, 0.5, 1.0, 2.0] {
            w.push(t);
        }
        // Horizon 1.0 behind t=2.0 keeps {1.0, 2.0}.
        assert_eq!(w.len(), 2);
        let tail = amplitude_spectrum(&[1.0, 2.0], cfg());
        let inc = w.spectrum();
        for (a, b) in inc.amplitudes.iter().zip(&tail.amplitudes) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn windowed_rejects_out_of_order() {
        let mut w = WindowedDft::new(cfg(), 1.0);
        w.push(1.0);
        w.push(0.5);
    }

    #[test]
    fn normalization_peaks_at_one() {
        let events = synthetic_burst_train(0.04, 50, 1, 0.0);
        let s = amplitude_spectrum(&events, cfg());
        let n = s.normalized();
        let max = n.iter().copied().fold(0.0_f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn burst_train_shape() {
        let e = synthetic_burst_train(0.1, 3, 2, 0.01);
        assert_eq!(e.len(), 6);
        assert!((e[0] - 0.0).abs() < 1e-12);
        assert!((e[1] - 0.005).abs() < 1e-12);
        assert!((e[2] - 0.1).abs() < 1e-12);
    }
}
