//! A typed energy quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

use pimsim_event::SimTime;

/// An amount of energy, stored in picojoules.
///
/// Newtyped so latencies, energies and powers cannot be mixed up
/// (C-NEWTYPE). Power is derived, not stored: `energy / time`.
///
/// ```rust
/// use pimsim_arch::Energy;
/// use pimsim_event::SimTime;
/// let e = Energy::from_pj(2_000_000.0);
/// assert!((e.as_uj() - 2.0).abs() < 1e-12);
/// let p = e.power_over(SimTime::from_us(1));
/// assert!((p - 2.0).abs() < 1e-9, "2 uJ over 1 us = 2 W");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub fn from_pj(pj: f64) -> Energy {
        Energy(pj)
    }

    /// This energy in picojoules.
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// This energy in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 / 1e3
    }

    /// This energy in microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 / 1e6
    }

    /// This energy in joules.
    pub fn as_j(self) -> f64 {
        self.0 / 1e12
    }

    /// Average power in watts when spent over `duration`.
    /// Returns 0 for a zero duration.
    pub fn power_over(self, duration: SimTime) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.as_j() / secs
        }
    }

    /// `true` iff this is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj.abs() >= 1e12 {
            write!(f, "{:.3} J", self.as_j())
        } else if pj.abs() >= 1e6 {
            write!(f, "{:.3} uJ", self.as_uj())
        } else if pj.abs() >= 1e3 {
            write!(f, "{:.3} nJ", self.as_nj())
        } else {
            write!(f, "{pj:.3} pJ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Energy::from_pj(1e3).as_nj(), 1.0);
        assert_eq!(Energy::from_pj(1e6).as_nj(), 1e3);
        assert!((Energy::from_pj(1e12).as_j() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Energy::from_pj(3.0);
        let b = Energy::from_pj(4.0);
        assert_eq!((a + b).as_pj(), 7.0);
        assert_eq!((b - a).as_pj(), 1.0);
        assert_eq!((a * 2.0).as_pj(), 6.0);
        assert_eq!((b / 2.0).as_pj(), 2.0);
        let total: Energy = [a, b].into_iter().sum();
        assert_eq!(total.as_pj(), 7.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_pj(), 7.0);
    }

    #[test]
    fn power_derivation() {
        let e = Energy::from_pj(1000.0); // 1 nJ
        let p = e.power_over(SimTime::from_ns(1)); // 1 nJ / 1 ns = 1 W
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(Energy::from_pj(5.0).power_over(SimTime::ZERO), 0.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Energy::from_pj(12.0)), "12.000 pJ");
        assert_eq!(format!("{}", Energy::from_pj(1500.0)), "1.500 nJ");
        assert_eq!(format!("{}", Energy::from_pj(2e6)), "2.000 uJ");
    }
}
