//! Cycle/time conversion for clocked components.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// A fixed-frequency clock used to convert between cycle counts and
/// [`SimTime`]. The cycle-accurate simulator expresses component latencies in
/// cycles of their local clock and lets `Clock` place them on the global
/// picosecond timeline.
///
/// ```rust
/// use pimsim_event::{Clock, SimTime};
/// let clk = Clock::from_ghz(1.0); // 1 GHz -> 1000 ps period
/// assert_eq!(clk.cycles_to_time(3), SimTime::from_ns(3));
/// assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(2500)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// Creates a clock from its period in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "clock period must be positive");
        Clock { period_ps }
    }

    /// Creates a clock from a frequency in GHz (period rounded to the
    /// nearest picosecond).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(
            ghz.is_finite() && ghz > 0.0,
            "clock frequency must be positive, got {ghz}"
        );
        let period = (1000.0 / ghz).round().max(1.0) as u64;
        Clock { period_ps: period }
    }

    /// The clock period.
    pub fn period(&self) -> SimTime {
        SimTime::from_ps(self.period_ps)
    }

    /// The clock frequency in GHz.
    pub fn freq_ghz(&self) -> f64 {
        1000.0 / self.period_ps as f64
    }

    /// The duration of `cycles` cycles.
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        SimTime::from_ps(self.period_ps * cycles)
    }

    /// How many whole cycles cover `t` (rounded up).
    pub fn time_to_cycles_ceil(&self, t: SimTime) -> u64 {
        t.as_ps().div_ceil(self.period_ps)
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.freq_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_to_period() {
        assert_eq!(Clock::from_ghz(1.0).period(), SimTime::from_ps(1000));
        assert_eq!(Clock::from_ghz(2.0).period(), SimTime::from_ps(500));
    }

    #[test]
    fn cycle_conversions_roundtrip() {
        let clk = Clock::from_ghz(1.0);
        for c in [0u64, 1, 7, 1000] {
            assert_eq!(clk.time_to_cycles_ceil(clk.cycles_to_time(c)), c);
        }
    }

    #[test]
    fn ceil_rounds_up() {
        let clk = Clock::from_period_ps(1000);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(1)), 1);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::from_ps(1001)), 2);
        assert_eq!(clk.time_to_cycles_ceil(SimTime::ZERO), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_rejected() {
        let _ = Clock::from_period_ps(0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_frequency_rejected() {
        let _ = Clock::from_ghz(0.0);
    }
}
