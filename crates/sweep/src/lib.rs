#![warn(missing_docs)]

//! Parallel design-space campaign engine.
//!
//! The paper's headline use case is cheap software/hardware design-space
//! evaluation over the ISA boundary; studies like PIMSYN run *thousands*
//! of simulations per campaign. This crate turns such a campaign into a
//! declarative [`SweepGrid`] — network × resolution × mapping policy ×
//! batch × the architecture knobs of [`ARCH_KNOBS`] (ROB depth, ADCs per
//! crossbar, SIMD lanes, flit width, routing policy, virtual channels,
//! router depth, structure hazard) — expands its
//! cartesian product into [`Scenario`]s, fans them out across OS threads,
//! and collects one [`SweepRow`] per point.
//!
//! Every grid point is one simulation on the cycle-accurate simulator.
//! The compiler reads none of the [`ARCH_KNOBS`], so [`run_scenarios`]
//! compiles once per distinct program and simulates every point that
//! shares it, still handing the pool one point at a time, program by
//! program; [`Scenario::execute`], one compile-and-simulate, is the
//! single-point path and the oracle the shared compiles are held to.
//! `pimsim_serve` warms its `(network, batch size)` service-time cache by
//! executing one [`Scenario`] per key on the same pool. The
//! behaviour-level baseline is `pimsim_baseline`'s, called directly, and
//! open-loop serving is `pimsim_serve`'s, one `serve` call per offered
//! rate.
//!
//! Results are **deterministic**: rows come back ordered by scenario
//! index, every value is derived from a single-threaded simulation of one
//! scenario, and the JSON rendering is byte-identical regardless of the
//! worker-thread count.
//!
//! ```rust
//! use pimsim_sweep::{run_grid, SweepGrid};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = SweepGrid::from_json(
//!     r#"{
//!         "networks": ["tiny_mlp"],
//!         "rob_sizes": [1, 4],
//!         "base": null
//!     }"#,
//! )?;
//! let mut grid = grid;
//! grid.base = Some(pimsim_arch::ArchConfig::small_test());
//! let rows = run_grid(&grid, 2)?;
//! assert_eq!(rows.len(), 2);
//! assert!(rows[0].latency().as_ns_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

mod engine;
mod grid;
mod knob;

pub use engine::{default_threads, results_to_json, run_grid, run_scenarios, SweepRow};
pub use grid::{default_resolution, parse_mapping, Scenario, SweepGrid};
pub use knob::{ArchKnob, KnobValue, Shown, ARCH_KNOBS};

use pimsim_arch::ArchError;

/// Errors produced while expanding or running a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The grid expands to zero scenarios (no networks given).
    EmptyGrid,
    /// A network name is not in the zoo.
    UnknownNetwork(String),
    /// A zoo network cannot be built at this input resolution (a pooling
    /// window larger than its input, say).
    BadResolution {
        /// The zoo network name.
        network: String,
        /// The input resolution (height = width).
        resolution: u32,
    },
    /// A mapping-policy name is not recognized.
    UnknownMapping(String),
    /// A NoC routing-policy name is not recognized.
    UnknownRouting(String),
    /// A scenario's architecture configuration failed validation.
    Arch(String),
    /// A scenario failed to compile.
    Compile(String),
    /// A scenario failed to simulate.
    Sim(String),
    /// A grid configuration file could not be read or parsed.
    Config(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyGrid => f.write_str("grid expands to zero scenarios"),
            SweepError::UnknownNetwork(n) => write!(f, "unknown network `{n}`"),
            SweepError::BadResolution {
                network,
                resolution,
            } => write!(
                f,
                "network `{network}` cannot be built at resolution {resolution}"
            ),
            SweepError::UnknownMapping(m) => write!(
                f,
                "unknown mapping policy `{m}` (want performance-first or utilization-first)"
            ),
            SweepError::UnknownRouting(r) => {
                write!(
                    f,
                    "unknown routing policy `{r}` (want xy, yx, xy-yx or adaptive)"
                )
            }
            SweepError::Arch(e) => write!(f, "invalid architecture: {e}"),
            SweepError::Compile(e) => write!(f, "compile failed: {e}"),
            SweepError::Sim(e) => write!(f, "simulation failed: {e}"),
            SweepError::Config(e) => write!(f, "bad sweep config: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ArchError> for SweepError {
    fn from(e: ArchError) -> Self {
        SweepError::Arch(e.to_string())
    }
}
