//! Virtual time for the discrete-event simulation.
//!
//! The simulator measures time in integer nanoseconds since simulation start.
//! Two newtypes keep instants and durations apart:
//!
//! * [`Time`] — an absolute instant on the virtual clock.
//! * [`Dur`] — a span between two instants.
//!
//! Both are thin wrappers over `u64`, so all scheduler state advances without
//! floating-point drift. Conversions to `f64` seconds/milliseconds are
//! provided for statistics and control-law computations only.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration on the virtual clock, in nanoseconds.
///
/// Arithmetic is checked: subtraction panics on underflow (use
/// [`Dur::saturating_sub`] when clamping to zero is intended) and addition
/// panics on overflow. With `u64` nanoseconds the representable range is
/// ~584 years, far beyond any simulation horizon used here.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Dur(u64);

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);
    /// The maximum representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Creates a duration of `n` nanoseconds.
    pub const fn ns(n: u64) -> Dur {
        Dur(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn us(n: u64) -> Dur {
        Dur(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn ms(n: u64) -> Dur {
        Dur(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn secs(n: u64) -> Dur {
        Dur(n * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s.is_finite() && s >= 0.0, "Dur::from_secs_f64({s})");
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur(ns.round() as u64)
        }
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms_f64(ms: f64) -> Dur {
        Dur::from_secs_f64(ms * 1e-3)
    }

    /// Creates a duration from fractional microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us_f64(us: f64) -> Dur {
        Dur::from_secs_f64(us * 1e-6)
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    pub const fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` on underflow.
    pub const fn checked_sub(self, rhs: Dur) -> Option<Dur> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Dur(v)),
            None => None,
        }
    }

    /// Addition clamped at [`Dur::MAX`].
    pub const fn saturating_add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or not finite.
    pub fn mul_f64(self, x: f64) -> Dur {
        assert!(x.is_finite() && x >= 0.0, "Dur::mul_f64({x})");
        let ns = self.0 as f64 * x;
        if ns >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur(ns.round() as u64)
        }
    }

    /// Returns `self / other` as a floating-point ratio.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Dur) -> f64 {
        assert!(!other.is_zero(), "Dur::ratio division by zero");
        self.0 as f64 / other.0 as f64
    }

    /// Integer division returning how many whole `other` fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_floor(self, other: Dur) -> u64 {
        assert!(!other.is_zero(), "Dur::div_floor division by zero");
        self.0 / other.0
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur overflow in add"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur underflow in sub"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("Dur overflow in mul"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// An absolute instant on the virtual clock (nanoseconds since simulation
/// start).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Time(u64);

impl Time {
    /// The simulation start instant.
    pub const ZERO: Time = Time(0);

    /// Creates an instant `n` nanoseconds after simulation start.
    pub const fn from_ns(n: u64) -> Time {
        Time(n)
    }

    /// Returns nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns seconds since simulation start, as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Returns milliseconds since simulation start, as `f64`.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Duration elapsed since `earlier`, clamped at zero if `earlier` is in
    /// the future.
    pub const fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The instant `rhs` later, clamped at the end of representable time
    /// — for instants that only matter while they lie before some horizon.
    pub const fn saturating_add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self
            .0
            .checked_sub(earlier.0)
            .expect("Time::since: earlier instant is in the future"))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.as_ns()).expect("Time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(
            self.0
                .checked_sub(rhs.as_ns())
                .expect("Time underflow in sub"),
        )
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Dur::us(3).as_ns(), 3_000);
        assert_eq!(Dur::ms(3).as_ns(), 3_000_000);
        assert_eq!(Dur::secs(3).as_ns(), 3_000_000_000);
        assert_eq!(Dur::from_ms_f64(1.5).as_ns(), 1_500_000);
        assert_eq!(Dur::from_us_f64(2.5).as_ns(), 2_500);
    }

    #[test]
    fn float_round_trips() {
        let d = Dur::from_secs_f64(0.123_456_789);
        assert!((d.as_secs_f64() - 0.123_456_789).abs() < 1e-9);
        assert!((Dur::ms(20).as_ms_f64() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Dur::ms(5) + Dur::ms(7), Dur::ms(12));
        assert_eq!(Dur::ms(7) - Dur::ms(5), Dur::ms(2));
        assert_eq!(Dur::ms(5) * 4, Dur::ms(20));
        assert_eq!(Dur::ms(20) / 4, Dur::ms(5));
        assert_eq!(Dur::ms(3).saturating_sub(Dur::ms(5)), Dur::ZERO);
        assert_eq!(Dur::ms(3).checked_sub(Dur::ms(5)), None);
        assert_eq!(Dur::ms(100).div_floor(Dur::ms(30)), 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Dur::ms(1) - Dur::ms(2);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Dur::ms(10).mul_f64(1.5), Dur::ms(15));
        assert_eq!(Dur::ns(3).mul_f64(0.5), Dur::ns(2)); // round-to-nearest
        assert_eq!(Dur::ms(10).mul_f64(0.0), Dur::ZERO);
    }

    #[test]
    fn ratio() {
        assert!((Dur::ms(20).ratio(Dur::ms(100)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn time_ops() {
        let t0 = Time::ZERO;
        let t1 = t0 + Dur::ms(10);
        assert_eq!(t1.as_ns(), 10_000_000);
        assert_eq!(t1 - t0, Dur::ms(10));
        assert_eq!(t1.saturating_since(t1 + Dur::ms(1)), Dur::ZERO);
        assert_eq!(t0.min(t1), t0);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Dur::ns(5).to_string(), "5ns");
        assert_eq!(Dur::us(5).to_string(), "5.000us");
        assert_eq!(Dur::ms(5).to_string(), "5.000ms");
        assert_eq!(Dur::secs(5).to_string(), "5.000s");
        assert_eq!(Dur::ZERO.to_string(), "0s");
    }

    #[test]
    fn sum_iterator() {
        let total: Dur = [Dur::ms(1), Dur::ms(2), Dur::ms(3)].into_iter().sum();
        assert_eq!(total, Dur::ms(6));
    }
}
