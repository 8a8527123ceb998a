//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in (or span of) simulated time, with picosecond resolution.
///
/// Picoseconds give headroom for multi-GHz clocks (1 GHz period = 1000 ps)
/// while still covering ~213 days of simulated time in a `u64`.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators below are saturating-free (they panic on overflow in
/// debug builds, as plain integer arithmetic does), because an overflowing
/// simulation clock is a bug worth hearing about.
///
/// ```rust
/// use pimsim_event::SimTime;
/// let t = SimTime::from_ns(3) + SimTime::from_ps(500);
/// assert_eq!(t.as_ps(), 3500);
/// assert_eq!(format!("{t}"), "3.500ns");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (also the `Default`).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from a floating-point nanosecond value, rounding to the
    /// nearest picosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return SimTime::ZERO;
        }
        // `f64::round` without its libcall: below 2^52 the fraction
        // `ps - trunc(ps)` is exact, so half rounds up as `round` does;
        // from 2^52 up every f64 is whole, and `as` saturates past u64.
        let ps = ns * 1_000.0;
        if ps >= (1u64 << 52) as f64 {
            return SimTime(ps as u64);
        }
        let whole = ps as u64;
        SimTime(whole + u64::from(ps - whole as f64 >= 0.5))
    }

    /// This time in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time in nanoseconds, as a float (lossless up to 2^53 ps).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time in microseconds, as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time in milliseconds, as a float.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// This time in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition (clamps at [`SimTime::MAX`]): for deadlines,
    /// where "never" is the right reading of an overflowing sum.
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// `true` iff this is time zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ps")
        } else if ps.is_multiple_of(1_000_000_000) && ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_scale() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_ns_f64(1.5);
        assert_eq!(t.as_ps(), 1_500);
        assert!((t.as_ns_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_ns_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_ns_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    /// The rounding `from_ns_f64` replaced: `f64::round`, half away from
    /// zero, then a saturating cast.
    fn from_ns_f64_oracle(ns: f64) -> SimTime {
        if !ns.is_finite() || ns <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((ns * 1_000.0).round() as u64)
    }

    #[test]
    fn from_ns_f64_matches_round_on_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            0.5f64.next_down(),
            0.5,
            0.5f64.next_up(),
            two52.next_down(),
            two52,
            two52.next_up(),
            2.0 * two52,
            2.0 * two52 + 1.0,
            18_446_744_073_709_551_616.0, // 2^64
            18_446_744_073_709_551_616.0f64.next_down(),
            18_446_744_073_709_551_616.0f64.next_up(),
            f64::MAX,
        ];
        for k in [0u64, 1, 2, 7, 1 << 20, (1 << 51) - 1, 1 << 51] {
            let half = k as f64 + 0.5;
            edges.extend([half, half.next_down(), half.next_up()]);
        }
        // Scale each edge so it lands on `ps` itself, not on `ns`.
        for ps in edges {
            for ns in [ps / 1_000.0, ps] {
                assert_eq!(
                    SimTime::from_ns_f64(ns),
                    from_ns_f64_oracle(ns),
                    "{ns:e} ns"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn from_ns_f64_matches_round(bits in proptest::prelude::any::<u64>(), scaled in 0.0f64..1e13) {
            for ns in [f64::from_bits(bits), scaled, scaled.trunc() + 0.0005] {
                proptest::prop_assert_eq!(SimTime::from_ns_f64(ns), from_ns_f64_oracle(ns));
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ps(), 14_000);
        assert_eq!((a - b).as_ps(), 6_000);
        assert_eq!((a * 3).as_ps(), 30_000);
        assert_eq!((a / 2).as_ps(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_add(b), a + b);
        assert_eq!(SimTime::MAX.saturating_add(b), SimTime::MAX);
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::ZERO), "0ps");
        assert_eq!(format!("{}", SimTime::from_ps(7)), "7ps");
        assert_eq!(format!("{}", SimTime::from_ns(2)), "2.000ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::from_ms(9)), "9.000ms");
    }

    #[test]
    fn debug_never_empty() {
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
    }
}
