//! Virtual time for the discrete-event simulation.
//!
//! All simulation time is kept as unsigned nanoseconds since simulation
//! start. Wall-clock time never enters the simulation, which is what makes
//! runs deterministic and reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Round this instant *up* to the next multiple of `tick`.
    ///
    /// Models operating-system timer quantization: a sleep can only expire
    /// on a scheduler-tick boundary.
    #[inline]
    pub fn round_up_to(self, tick: SimDuration) -> SimTime {
        if tick.0 == 0 {
            return self;
        }
        let rem = self.0 % tick.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 - rem + tick.0)
        }
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Effectively infinite: with saturating arithmetic, a deadline of
    /// `now + SimDuration::MAX` can never be reached.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    #[inline]
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * NANOS_PER_MICRO)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Build a duration from a floating-point number of seconds.
    ///
    /// Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * NANOS_PER_SEC as f64) as u64)
    }

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Scale the duration by a non-negative factor (saturating).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(scaled as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.nanos(), 5 * NANOS_PER_MILLI);
        let d = t - SimTime(1_000_000);
        assert_eq!(d, SimDuration::from_millis(4));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime(100);
        let late = SimTime(200);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration(100));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn round_up_to_tick() {
        let tick = SimDuration::from_millis(10);
        assert_eq!(SimTime(0).round_up_to(tick), SimTime(0));
        assert_eq!(SimTime(1).round_up_to(tick), SimTime(10 * NANOS_PER_MILLI));
        assert_eq!(
            SimTime(10 * NANOS_PER_MILLI).round_up_to(tick),
            SimTime(10 * NANOS_PER_MILLI)
        );
        assert_eq!(
            SimTime(15 * NANOS_PER_MILLI).round_up_to(tick),
            SimTime(20 * NANOS_PER_MILLI)
        );
        // Degenerate tick leaves the time unchanged.
        assert_eq!(SimTime(7).round_up_to(SimDuration::ZERO), SimTime(7));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(1).nanos(), NANOS_PER_SEC);
        assert_eq!(SimDuration::from_micros(3).nanos(), 3_000);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(0.001).nanos(), NANOS_PER_MILLI);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_saturates_and_clamps() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_secs(2));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration(u64::MAX).mul_f64(2.0), SimDuration(u64::MAX));
    }

    #[test]
    fn add_saturates() {
        let t = SimTime(u64::MAX - 1) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_millis(3).min(SimDuration::from_millis(5)),
            SimDuration::from_millis(3)
        );
        assert_eq!(
            SimDuration::from_millis(3).max(SimDuration::from_millis(5)),
            SimDuration::from_millis(5)
        );
    }
}
