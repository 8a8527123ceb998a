//! Clock-state compensation for host timings.
//!
//! The reference box's CPU moves between two clock states and stays in
//! one for tens of seconds: the same `zoo-sim` pass takes 107 ms or
//! 133 ms, with no page faults, no system time and no steal in either
//! state, and a dependent ALU chain that touches no memory slows by the
//! same factor (1.21x against the simulator's 1.23x over 100 s of
//! alternating samples; a pointer chase through 4 MiB does not follow).
//! A ten-second run sits wholly inside one state more often than not, so
//! raw seconds flip between two values from run to run and no statistic
//! taken inside a run can steady them.
//!
//! The harness therefore times that ALU chain right before and right
//! after every timed region and divides the region's seconds by how much
//! slower than [`REFERENCE_NS_PER_STEP`] the chain ran. What it reports
//! is the region's cost at the reference clock state — proportional to
//! CPU cycles, which is what a change to the code moves. Raw seconds are
//! reported next to every compensated figure.

use std::time::Instant;

/// Steps of the dependent chain per calibration sample.
const STEPS: u64 = 1_000_000;
/// Samples per calibration. Their mean is used, not their minimum: over
/// 400 s of alternating samples the mean tracked a 105 ms pass to a 0.8 %
/// spread of ten-second medians against 1.3 % for the minimum (18 % raw),
/// because what interrupts the chain interrupts the region just as often.
const SAMPLES: usize = 8;
/// Nanoseconds per step in the reference box's fast clock state. A unit
/// conversion, not a tuning knob: on another machine every compensated
/// figure scales by one constant, and comparisons between two commits on
/// that machine are unaffected.
pub const REFERENCE_NS_PER_STEP: f64 = 1.45;

/// One xorshift64 step depends on the previous one, so the chain runs at
/// a fixed number of cycles per step whatever else the core could overlap.
fn chain(steps: u64) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// How much slower than the reference state the CPU runs right now
/// (1.0 at the reference state, about 1.2 in the box's slow state).
pub fn slowdown() -> f64 {
    let total: f64 = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(chain(std::hint::black_box(STEPS)));
            start.elapsed().as_secs_f64()
        })
        .sum();
    total * 1e9 / (SAMPLES as u64 * STEPS) as f64 / REFERENCE_NS_PER_STEP
}

/// One timed region: seconds as measured, and at the reference state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// `raw_s` over the mean slowdown measured around the region.
    pub compensated_s: f64,
}

/// Times regions back to back, calibrating between them: the sample
/// taken after one region is the sample before the next.
#[derive(Debug, Default)]
pub struct Stopwatch {
    last: Option<f64>,
}

impl Stopwatch {
    /// Runs `f` and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last.take().unwrap_or_else(slowdown);
        let start = Instant::now();
        let value = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = slowdown();
        self.last = Some(after);
        (value, compensate(raw_s, before, after))
    }

    /// Forgets the last sample: call when untimed work of any length ran
    /// since the last region, so the next one calibrates afresh.
    pub fn reset(&mut self) {
        self.last = None;
    }
}

fn compensate(raw_s: f64, before: f64, after: f64) -> Timed {
    Timed {
        raw_s,
        compensated_s: raw_s / ((before + after) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_divides_by_the_mean_slowdown_around_the_region() {
        let t = compensate(1.2, 1.0, 1.4);
        assert_eq!(t.raw_s, 1.2);
        assert!((t.compensated_s - 1.0).abs() < 1e-12);
        // At the reference state nothing changes.
        assert_eq!(compensate(0.5, 1.0, 1.0).compensated_s, 0.5);
    }

    #[test]
    fn slowdown_is_a_sane_positive_factor_and_the_stopwatch_chains_samples() {
        let s = slowdown();
        assert!(s > 0.05 && s < 50.0, "{s}");
        let mut watch = Stopwatch::default();
        let (v, t) = watch.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.raw_s >= 0.0 && t.compensated_s >= 0.0);
        assert!(watch.last.is_some());
        watch.reset();
        assert!(watch.last.is_none());
    }
}
