//! Serving-run configuration: arrival processes, batching policies, and
//! the knobs of the queueing front-end.

use std::fmt;

use pimsim_compiler::MappingPolicy;
use pimsim_event::SimTime;

use pimsim_arch::ArchConfig;

use crate::ServeError;

/// How request arrivals are generated over simulated time.
///
/// Every process is **deterministic given the seed**: the same
/// `(process, rate, seed, duration)` always produces the same request
/// stream, byte for byte, whatever thread count evaluates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless traffic: exponential inter-arrival times with mean
    /// `1/rate` (a Poisson process), the standard open-loop model.
    Poisson,
    /// A fixed-rate trace: inter-arrival times of exactly `1/rate`
    /// (rounded to the picosecond grid), no randomness beyond the seed's
    /// per-network phase offset.
    Fixed,
    /// On/off bursts: a deterministic square wave alternating `on`/`off`
    /// windows ([`ServeConfig::burst_on`] / [`ServeConfig::burst_off`]).
    /// During an `on` window arrivals are Poisson at
    /// `rate * (on + off) / on`, so the long-run average rate still
    /// matches `rate`; `off` windows are silent.
    Bursty,
}

impl ArrivalProcess {
    /// Every selectable process, in CLI/reporting order.
    pub const ALL: [ArrivalProcess; 3] = [
        ArrivalProcess::Poisson,
        ArrivalProcess::Fixed,
        ArrivalProcess::Bursty,
    ];

    /// The process's short name (`poisson` / `fixed` / `bursty`).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Fixed => "fixed",
            ArrivalProcess::Bursty => "bursty",
        }
    }
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ArrivalProcess {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self, ServeError> {
        match s {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "fixed" => Ok(ArrivalProcess::Fixed),
            "bursty" => Ok(ArrivalProcess::Bursty),
            other => Err(ServeError::UnknownArrivals(other.to_string())),
        }
    }
}

/// Dynamic batch formation policy for the queueing front-end.
///
/// A network's queue becomes *ripe* for dispatch when it holds
/// `max_size` requests **or** its oldest request has waited `timeout`;
/// a ripe queue launches a batch of up to `max_size` requests the next
/// time an instance is free. `max_size == 1` disables batching; a zero
/// `timeout` dispatches every request as soon as an instance frees.
///
/// The canonical string form, which `pimsim serve --batch` takes, is
/// `N/Tunit` (`4/50us`: batches of up to 4, 50 µs timeout) or a bare `N`
/// (default timeout).
///
/// ```rust
/// use pimsim_serve::BatchPolicy;
/// let p: BatchPolicy = "4/50us".parse().unwrap();
/// assert_eq!(p.max_size, 4);
/// assert_eq!(p.timeout.as_ns_f64(), 50_000.0);
/// assert_eq!(p.to_string(), "4/50us");
/// assert_eq!("1".parse::<BatchPolicy>().unwrap().max_size, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch a single instance dispatch may carry (≥ 1).
    pub max_size: u32,
    /// Longest a head-of-queue request may wait before its queue becomes
    /// ripe even when not full.
    pub timeout: SimTime,
}

impl BatchPolicy {
    /// The default batching timeout (50 µs).
    pub const DEFAULT_TIMEOUT: SimTime = SimTime::from_us(50);
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_size: 4,
            timeout: BatchPolicy::DEFAULT_TIMEOUT,
        }
    }
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.max_size, format_duration(self.timeout))
    }
}

impl std::str::FromStr for BatchPolicy {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self, ServeError> {
        let bad = || ServeError::BadBatchPolicy(s.to_string());
        let (size, timeout) = match s.split_once('/') {
            Some((size, timeout)) => (size, Some(timeout)),
            None => (s, None),
        };
        let max_size: u32 = size.parse().map_err(|_| bad())?;
        if max_size == 0 {
            return Err(bad());
        }
        let timeout = match timeout {
            Some(t) => parse_duration(t)
                .map_err(|e| ServeError::Config(format!("batch policy `{s}`: {e}")))?,
            None => BatchPolicy::DEFAULT_TIMEOUT,
        };
        Ok(BatchPolicy { max_size, timeout })
    }
}

/// Parses a human-readable duration with an explicit unit — `500ns`,
/// `50us`, `10ms`, `1s` — into a [`SimTime`]. Fractional values are fine
/// (`2.5ms`); the unit is required so a bare number can never be
/// misread.
///
/// # Errors
///
/// Returns a message naming the accepted units when the text does not
/// parse, or the limit when the value does not fit [`SimTime`]'s `u64`
/// picoseconds (about 18 446 744 s).
pub fn parse_duration(text: &str) -> Result<SimTime, String> {
    let (scale_ps, digits) = if let Some(d) = text.strip_suffix("ns") {
        (1e3, d)
    } else if let Some(d) = text.strip_suffix("us") {
        (1e6, d)
    } else if let Some(d) = text.strip_suffix("ms") {
        (1e9, d)
    } else if let Some(d) = text.strip_suffix('s') {
        (1e12, d)
    } else {
        return Err(format!(
            "duration `{text}` needs a unit: ns, us, ms or s (e.g. `10ms`)"
        ));
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("duration `{text}` is not a number with a unit (e.g. `10ms`)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration `{text}` must be finite and non-negative"));
    }
    let ps = (value * scale_ps).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that does not fit.
    if ps >= u64::MAX as f64 {
        return Err(format!(
            "duration `{text}` does not fit 64-bit picoseconds (at most 18446744s)"
        ));
    }
    Ok(SimTime::from_ps(ps as u64))
}

/// Renders a [`SimTime`] in the same `Nunit` syntax [`parse_duration`]
/// accepts, picking the largest unit that divides it exactly.
pub fn format_duration(t: SimTime) -> String {
    let ps = t.as_ps();
    for (scale, unit) in [
        (1_000_000_000_000, "s"),
        (1_000_000_000, "ms"),
        (1_000_000, "us"),
        (1_000, "ns"),
    ] {
        if ps >= scale && ps.is_multiple_of(scale) {
            return format!("{}{unit}", ps / scale);
        }
    }
    if ps == 0 {
        return "0ns".to_string();
    }
    // Sub-nanosecond remainders: fall back to fractional nanoseconds.
    format!("{}ns", ps as f64 / 1e3)
}

/// One serving-run configuration: the workload (networks + arrival
/// process), the queueing front-end, and the simulated accelerator the
/// requests are served on.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Networks requests arrive for, as `(zoo name, input resolution)`;
    /// the aggregate arrival rate is split evenly across them, each with
    /// its own independent seeded substream.
    pub networks: Vec<(String, u32)>,
    /// Arrival process shape.
    pub arrivals: ArrivalProcess,
    /// Aggregate arrival rate, requests per simulated second.
    pub rate_rps: f64,
    /// Arrival horizon: requests are generated in `[0, duration)`.
    pub duration: SimTime,
    /// RNG seed; equal seeds reproduce the run byte-for-byte.
    pub seed: u64,
    /// Batch formation policy.
    pub batch: BatchPolicy,
    /// Bound on the number of queued (admitted, not yet dispatched)
    /// requests across all networks; arrivals beyond it are dropped.
    pub queue_cap: u64,
    /// Identical accelerator instances serving batches concurrently.
    pub instances: u32,
    /// `true` (default): after the last arrival the queues drain to
    /// empty. `false`: dispatch stops at the horizon and whatever is
    /// still queued is reported as `in_queue`.
    pub drain: bool,
    /// `on` window of the [`ArrivalProcess::Bursty`] square wave.
    pub burst_on: SimTime,
    /// `off` window of the [`ArrivalProcess::Bursty`] square wave.
    pub burst_off: SimTime,
    /// Mapping policy the per-instance service model compiles with.
    pub mapping: MappingPolicy,
    /// The accelerator instance architecture.
    pub arch: ArchConfig,
}

impl ServeConfig {
    /// A configuration over `networks` (at each network's `resolution`)
    /// with the documented defaults: Poisson arrivals at 50 000 req/s
    /// for 10 ms, seed 42, batches of up to 4 with a 50 µs timeout, a
    /// 64-request queue, one instance, drain-at-end, and the paper-chip
    /// architecture.
    pub fn new(networks: Vec<(String, u32)>) -> ServeConfig {
        ServeConfig {
            networks,
            arrivals: ArrivalProcess::Poisson,
            rate_rps: 50_000.0,
            duration: SimTime::from_ms(10),
            seed: 42,
            batch: BatchPolicy::default(),
            queue_cap: 64,
            instances: 1,
            drain: true,
            burst_on: SimTime::from_us(500),
            burst_off: SimTime::from_us(500),
            mapping: MappingPolicy::PerformanceFirst,
            arch: ArchConfig::paper_default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] on an empty network list, a
    /// non-positive rate or duration, zero instances or batch size, a
    /// degenerate bursty window, or a `duration + timeout` /
    /// `burst_on + burst_off` sum past the end of simulated time;
    /// architecture validation failures surface as [`ServeError::Arch`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.networks.is_empty() {
            return Err(ServeError::Config("no networks to serve".to_string()));
        }
        if !self.rate_rps.is_finite() || self.rate_rps <= 0.0 {
            return Err(ServeError::Config(format!(
                "arrival rate must be positive, got {}",
                self.rate_rps
            )));
        }
        if self.duration.is_zero() {
            return Err(ServeError::Config("duration must be positive".to_string()));
        }
        if self.instances == 0 {
            return Err(ServeError::Config(
                "at least one instance is required".to_string(),
            ));
        }
        if self.batch.max_size == 0 {
            return Err(ServeError::Config("batch size must be ≥ 1".to_string()));
        }
        // Every batch deadline is an arrival (< duration) plus the timeout.
        if self.duration.checked_add(self.batch.timeout).is_none() {
            return Err(ServeError::Config(format!(
                "duration {} + batch timeout {} overflows simulated time",
                self.duration, self.batch.timeout
            )));
        }
        if self.arrivals == ArrivalProcess::Bursty {
            if self.burst_on.is_zero() {
                return Err(ServeError::Config(
                    "bursty arrivals need a non-zero on-window".to_string(),
                ));
            }
            if self.burst_on.checked_add(self.burst_off).is_none() {
                return Err(ServeError::Config(format!(
                    "burst windows {} + {} overflow simulated time",
                    self.burst_on, self.burst_off
                )));
            }
        }
        self.arch
            .validate()
            .map_err(|e| ServeError::Arch(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_policy_parses_and_prints_canonically() {
        let p: BatchPolicy = "8/2ms".parse().unwrap();
        assert_eq!(p.max_size, 8);
        assert_eq!(p.timeout, SimTime::from_ms(2));
        assert_eq!(p.to_string(), "8/2ms");
        let bare: BatchPolicy = "16".parse().unwrap();
        assert_eq!(bare.max_size, 16);
        assert_eq!(bare.timeout, BatchPolicy::DEFAULT_TIMEOUT);
        assert_eq!(BatchPolicy::default().to_string(), "4/50us");
        // Round-trips through Display.
        for text in ["1/0ns", "4/50us", "32/1s", "2/750ns"] {
            let p: BatchPolicy = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn bad_batch_policies_are_rejected() {
        for text in [
            "",
            "0",
            "0/1ms",
            "four",
            "4/",
            "4/10",
            "4/10parsecs",
            "4/50us/9",
        ] {
            assert!(
                text.parse::<BatchPolicy>().is_err(),
                "`{text}` should not parse"
            );
        }
    }

    #[test]
    fn durations_parse_with_units() {
        assert_eq!(parse_duration("500ns").unwrap(), SimTime::from_ns(500));
        assert_eq!(parse_duration("50us").unwrap(), SimTime::from_us(50));
        assert_eq!(parse_duration("10ms").unwrap(), SimTime::from_ms(10));
        assert_eq!(
            parse_duration("1s").unwrap(),
            SimTime::from_ps(1_000_000_000_000)
        );
        assert_eq!(
            parse_duration("2.5us").unwrap(),
            SimTime::from_ps(2_500_000)
        );
        for bad in ["10", "ms", "-1ms", "infs", "1 minute"] {
            assert!(parse_duration(bad).is_err(), "`{bad}` should not parse");
        }
    }

    /// Regression: values past `u64` picoseconds used to saturate silently
    /// (`1e30s` became 18 446 744 s, and `4/18446745s` a timeout whose
    /// deadlines wrapped).
    #[test]
    fn durations_that_do_not_fit_are_rejected() {
        assert_eq!(
            parse_duration("18446744s").unwrap(),
            SimTime::from_ps(18_446_744_000_000_000_000)
        );
        for bad in ["18446745s", "1e30s", "18446744073709552ns", "1e300ms"] {
            let err = parse_duration(bad).unwrap_err();
            assert!(err.contains("does not fit"), "`{bad}`: {err}");
        }
        let err = "4/18446745s".parse::<BatchPolicy>().unwrap_err();
        assert!(
            matches!(&err, ServeError::Config(m) if m.contains("does not fit")),
            "{err}"
        );
    }

    #[test]
    fn durations_format_with_the_largest_exact_unit() {
        assert_eq!(format_duration(SimTime::from_ms(10)), "10ms");
        assert_eq!(format_duration(SimTime::from_us(1500)), "1500us");
        assert_eq!(format_duration(SimTime::from_ps(0)), "0ns");
        assert_eq!(format_duration(SimTime::from_ps(2_500)), "2.5ns");
        assert_eq!(format_duration(SimTime::from_ps(1_000_000_000_000)), "1s");
    }

    #[test]
    fn arrival_processes_parse_and_print() {
        for p in ArrivalProcess::ALL {
            assert_eq!(p.name().parse::<ArrivalProcess>().unwrap(), p);
        }
        assert!(matches!(
            "poison".parse::<ArrivalProcess>(),
            Err(ServeError::UnknownArrivals(_))
        ));
    }

    #[test]
    fn config_validation_catches_degenerate_knobs() {
        let nets = vec![("tiny_mlp".to_string(), 64)];
        assert!(ServeConfig::new(nets.clone()).validate().is_ok());
        let mut c = ServeConfig::new(Vec::new());
        assert!(c.validate().is_err());
        c = ServeConfig::new(nets.clone());
        c.rate_rps = 0.0;
        assert!(c.validate().is_err());
        c = ServeConfig::new(nets.clone());
        c.duration = SimTime::ZERO;
        assert!(c.validate().is_err());
        c = ServeConfig::new(nets.clone());
        c.instances = 0;
        assert!(c.validate().is_err());
        c = ServeConfig::new(nets.clone());
        c.batch.max_size = 0;
        assert!(c.validate().is_err());
        c = ServeConfig::new(nets.clone());
        c.arrivals = ArrivalProcess::Bursty;
        c.burst_on = SimTime::ZERO;
        assert!(c.validate().is_err());
        // Sums past the end of simulated time (they used to wrap).
        c = ServeConfig::new(nets.clone());
        c.batch.timeout = SimTime::MAX;
        assert!(c.validate().unwrap_err().to_string().contains("overflows"));
        c = ServeConfig::new(nets);
        c.arrivals = ArrivalProcess::Bursty;
        c.burst_off = SimTime::MAX;
        assert!(c.validate().unwrap_err().to_string().contains("overflow"));
        c.arrivals = ArrivalProcess::Poisson;
        assert!(c.validate().is_ok(), "unused burst windows are not judged");
    }
}
