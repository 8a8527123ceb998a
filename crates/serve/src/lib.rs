//! Open-loop inference serving on top of the PIMSIM-NN machine model.
//!
//! Every other entry point in the workspace answers "how fast is *one*
//! program on this chip?". This crate answers the question the ROADMAP's
//! north star actually poses: what happens when requests keep arriving
//! whether or not the accelerator is ready — the **open-loop** regime that
//! serving systems live in. It combines three pieces:
//!
//! - **Arrival generators** ([`ArrivalProcess`]): Poisson, fixed-rate, and
//!   bursty on/off request streams, each deterministic given the seed, with
//!   an independent substream per served network.
//! - A **queueing/batching front-end** ([`BatchPolicy`], queue cap): a
//!   bounded queue with drop accounting and dynamic batch formation under a
//!   size/timeout policy.
//! - A **dispatcher** over one or more simulated accelerator instances,
//!   using the cycle-level simulator as the service-time model via a
//!   per-`(network, batch)` latency/energy cache ([`ServiceModel`]) of
//!   [`pimsim_sweep`] scenarios, each warmed once — repeated requests never
//!   re-simulate.
//!
//! The result is a [`ServeReport`]: throughput, p50/p95/p99 tail latency,
//! drop counts per network, and queue depth over time. Reports honor the
//! workspace determinism contract — byte-identical JSON for a fixed seed at
//! any thread count.
//!
//! ```rust
//! use pimsim_arch::ArchConfig;
//! use pimsim_event::SimTime;
//! use pimsim_serve::{serve, ServeConfig};
//!
//! let mut config = ServeConfig::new(vec![("tiny_mlp".to_string(), 64)]);
//! config.arch = ArchConfig::small_test();
//! config.rate_rps = 100_000.0;
//! config.duration = SimTime::from_us(200);
//!
//! let report = serve(&config, 2).unwrap();
//! // The front-end never loses a request: every arrival is accounted for.
//! assert_eq!(
//!     report.generated,
//!     report.finished + report.dropped + report.in_queue
//! );
//! assert!(report.to_json().contains("p99_latency_ns"));
//! ```

mod config;
mod engine;
#[cfg(test)]
mod oracle;
mod report;
mod service;
mod trace;
mod workload;

pub use config::{format_duration, parse_duration, ArrivalProcess, BatchPolicy, ServeConfig};
pub use report::{NetworkServeStats, QueueSample, ServeReport};
pub use service::{ServiceModel, ServicePoint};
pub use workload::{generate_requests, Request};

use std::fmt;

use pimsim_sweep::SweepError;

/// Everything that can go wrong while configuring or running a serving
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A degenerate configuration (empty workload, zero rate, ...).
    Config(String),
    /// An arrival-process name that is not `poisson`/`fixed`/`bursty`.
    UnknownArrivals(String),
    /// A batch policy that is not `N` or `N/Tunit` (a `T` that is not a
    /// duration is a [`ServeError::Config`] saying why).
    BadBatchPolicy(String),
    /// The instance architecture failed validation.
    Arch(String),
    /// Warming the service model failed: a network the zoo does not know
    /// or cannot build at its resolution, or a service-time point that
    /// failed to compile or simulate.
    Service(SweepError),
    /// A batch completes past the end of simulated time.
    Sim(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
            ServeError::UnknownArrivals(name) => {
                write!(
                    f,
                    "unknown arrival process `{name}` (poisson, fixed, bursty)"
                )
            }
            ServeError::BadBatchPolicy(text) => write!(
                f,
                "bad batch policy `{text}`: expected `N` or `N/T` with a unit, e.g. `4/50us`"
            ),
            ServeError::Arch(msg) => write!(f, "architecture error: {msg}"),
            ServeError::Service(e) => write!(f, "{e}"),
            ServeError::Sim(msg) => write!(f, "simulation error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Runs one full serving simulation: warms batch sizes up to 64 of every
/// network on `threads` worker threads, plays the lazily generated request
/// stream through the queueing front-end (warming each larger batch size
/// the first time it forms), and assembles the report.
///
/// With `threads >= 2` the request stream runs on a second thread and
/// hands its arrivals to the replay in batches; with 1 it runs inline.
/// Either way the replay sees the same arrivals and the same errors at the
/// same points, so the report is byte-identical whatever value is passed.
///
/// # Errors
///
/// Returns a [`ServeError`] when the configuration is degenerate, the
/// stream exceeds its step budget, or a service-time point the run needs
/// fails to compile or simulate.
pub fn serve(config: &ServeConfig, threads: usize) -> Result<ServeReport, ServeError> {
    config.validate()?;
    let mut model = ServiceModel::warm(config, threads)?;
    let mut stream = workload::ArrivalStream::new(config)?;
    let outcome = if threads >= 2 {
        workload::piped(stream, |arrivals| {
            engine::simulate(config, arrivals, &mut model)
        })
    } else {
        engine::simulate(config, &mut stream, &mut model)
    }?;
    Ok(ServeReport::assemble(config, &model, outcome))
}
