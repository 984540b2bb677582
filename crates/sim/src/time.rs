//! Simulated time.
//!
//! Microsecond resolution: fine enough to resolve the 100 µs transmission
//! time of a 1250-byte packet on a 100 Mb/s LAN (the sharpest IPG the BW
//! classifier needs to distinguish), coarse enough that a u64 spans
//! ~585 000 years of simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since experiment start.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: experiment start.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Value in microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Value in (truncated) milliseconds.
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub const fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    /// Advances by `rhs` microseconds.
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    /// Microseconds between two times; panics when `rhs` is later (use
    /// [`SimTime::since`] for the saturating form).
    #[expect(
        clippy::expect_used,
        reason = "panicking is this operator's documented contract"
    )]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_us(), 2_000_000);
        assert_eq!(SimTime::from_ms(3).as_us(), 3_000);
        assert_eq!(SimTime::from_us(1_500).as_ms(), 1);
        assert!((SimTime::from_ms(2500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10);
        assert_eq!((t + 500).as_us(), 10_500);
        let mut u = t;
        u += 1_000;
        assert_eq!(u.as_ms(), 11);
        assert_eq!(u - t, 1_000);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_ms(1);
        let b = SimTime::from_ms(2);
        assert_eq!(b.since(a), 1_000);
        assert_eq!(a.since(b), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::from_ms(1) - SimTime::from_ms(2);
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime::from_us(1) < SimTime::from_us(2));
        assert_eq!(
            SimTime::from_us(5).max(SimTime::from_us(3)),
            SimTime::from_us(5)
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1500).to_string(), "1.500000s");
    }
}
