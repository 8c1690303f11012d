//! Virtual time: plain nanosecond counters with explicit conversions.
//!
//! The simulator's clock is a `u64` nanosecond count since the start of
//! the run. A newtype keeps virtual instants from mixing with real
//! `std::time` values and gives the handful of arithmetic ops we need.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the virtual clock (ns since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

/// A span of virtual time (ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VDur(pub u64);

impl VTime {
    /// The origin of the virtual clock.
    pub const ZERO: VTime = VTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (fractional).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since `earlier`; saturates at zero.
    pub fn since(self, earlier: VTime) -> VDur {
        VDur(self.0.saturating_sub(earlier.0))
    }
}

impl VDur {
    /// Zero-length duration.
    pub const ZERO: VDur = VDur(0);

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> VDur {
        VDur(ns)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> VDur {
        VDur(us * 1_000)
    }

    /// From fractional microseconds.
    pub fn from_micros_f64(us: f64) -> VDur {
        VDur((us * 1_000.0).max(0.0) as u64)
    }

    /// Nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (fractional).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

/// A fixed-period schedule on the virtual clock: the timeline is tiled
/// into intervals of `period` ns and every instant maps to the index of
/// the interval containing it. Ranks that share a period agree on the
/// index to within their mutual clock skew, which is what lets the key
/// plane rotate epochs without any wire synchronization — each rank
/// derives the current epoch locally from its own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    period: VDur,
}

impl Schedule {
    /// A schedule ticking every `period` (clamped to ≥ 1 ns so a
    /// zero-period schedule cannot divide by zero).
    pub fn every(period: VDur) -> Schedule {
        Schedule {
            period: VDur(period.0.max(1)),
        }
    }

    /// The tick period.
    pub fn period(&self) -> VDur {
        self.period
    }

    /// The interval index containing `t` (interval `i` spans
    /// `[i*period, (i+1)*period)`).
    pub fn index_at(&self, t: VTime) -> u64 {
        t.0 / self.period.0
    }
}

impl Add<VDur> for VTime {
    type Output = VTime;
    fn add(self, d: VDur) -> VTime {
        VTime(self.0 + d.0)
    }
}

impl AddAssign<VDur> for VTime {
    fn add_assign(&mut self, d: VDur) {
        self.0 += d.0;
    }
}

impl Add for VDur {
    type Output = VDur;
    fn add(self, o: VDur) -> VDur {
        VDur(self.0 + o.0)
    }
}

impl AddAssign for VDur {
    fn add_assign(&mut self, o: VDur) {
        self.0 += o.0;
    }
}

impl Sub for VTime {
    type Output = VDur;
    fn sub(self, o: VTime) -> VDur {
        VDur(self.0.saturating_sub(o.0))
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = VTime(1_000) + VDur::from_micros(2);
        assert_eq!(t, VTime(3_000));
        assert_eq!(t - VTime(1_000), VDur(2_000));
        assert_eq!(VTime(5).since(VTime(10)), VDur::ZERO, "saturating");
        assert_eq!(VDur::from_micros_f64(-3.0), VDur::ZERO, "clamped");
    }

    #[test]
    fn schedule_indexes_and_boundaries() {
        let s = Schedule::every(VDur::from_micros(10));
        assert_eq!(s.index_at(VTime::ZERO), 0);
        assert_eq!(s.index_at(VTime(9_999)), 0);
        assert_eq!(
            s.index_at(VTime(10_000)),
            1,
            "boundary belongs to the next interval"
        );
        // Degenerate period is clamped, never a divide-by-zero.
        assert_eq!(Schedule::every(VDur::ZERO).period(), VDur(1));
    }

    #[test]
    fn display_microseconds() {
        assert_eq!(format!("{}", VTime(1_500)), "1.500us");
        assert_eq!(format!("{}", VDur(2_000_000)), "2000.000us");
    }
}
