//! Deterministic random-number generation for the simulator.
//!
//! A sealed xoshiro256++ generator keeps every experiment reproducible from a
//! single `u64` seed, with [`Rng::fork`] providing independent child streams
//! for per-component randomness (workload noise, arrival jitter, ...).
//!
//! The distribution helpers cover everything the workload models need:
//! uniform, Bernoulli, normal (Box–Muller), exponential and Pareto.

use crate::time::Dur;

/// SplitMix64 step: expands a seed into xoshiro state, and serves as the
/// workspace's canonical stateless seed-derivation primitive.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// # Examples
///
/// ```
/// use selftune_simcore::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child stream; deterministic in `self` state.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// Uses the modulo method; the bias is < 2⁻³² for the ranges used in the
    /// simulator and irrelevant for workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range_u64: empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal sample via the Box–Muller transform.
    pub(crate) fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: u must be in (0, 1] to keep ln(u) finite.
        let u = 1.0 - self.f64();
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = core::f64::consts::TAU * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Exponential sample with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "Rng::exp: rate must be positive");
        -(1.0 - self.f64()).ln() / rate
    }

    /// Duration sample: normal around `mean` with deviation `sd`, truncated
    /// below at `floor`. Used for execution-time noise.
    pub fn normal_dur(&mut self, mean: Dur, sd: Dur, floor: Dur) -> Dur {
        let v = self.normal(mean.as_secs_f64(), sd.as_secs_f64());
        let fl = floor.as_secs_f64();
        Dur::from_secs_f64(if v < fl { fl } else { v })
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(3);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform(0.0, 10.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exp_mean() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_dur_truncates_at_floor() {
        let mut r = Rng::new(23);
        for _ in 0..10_000 {
            let d = r.normal_dur(Dur::ms(1), Dur::ms(5), Dur::us(100));
            assert!(d >= Dur::us(100));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(29);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng::new(31);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }
}
