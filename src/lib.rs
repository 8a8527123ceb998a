#![warn(missing_docs)]

//! # PIMSIM-NN
//!
//! A reproduction of *“PIMSIM-NN: An ISA-based Simulation Framework for
//! Processing-in-Memory Accelerators”* (DATE 2024): a dedicated ISA for
//! neural networks on crossbar-based PIM accelerators, a PIMCOMP-style
//! compiler, and a cycle-accurate, event-driven, configurable simulator,
//! plus an MNSIM2.0-like behaviour-level baseline for comparison.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`event`] — deterministic discrete-event kernel (SystemC substitute)
//! * [`isa`] — instruction set, assembler, program container
//! * [`arch`] — architecture configuration and energy model
//! * [`nn`] — network description, shape inference, model zoo, golden model
//! * [`compiler`] — mapping, scheduling, fusion, code generation
//! * [`analyze`] — static dataflow + rendezvous verifier for compiled programs
//! * [`sim`] — the cycle-accurate simulator
//! * [`baseline`] — MNSIM2.0-like behaviour-level simulator
//! * [`sweep`] — parallel design-space campaign engine
//! * [`serve`] — open-loop inference-serving simulation with tail-latency
//!   reporting
//!
//! # Quickstart
//!
//! ```rust
//! use pimsim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Architecture configuration (the paper's evaluation setup, scaled down).
//! let arch = ArchConfig::small_test();
//! // 2. A network description.
//! let net = pimsim::nn::zoo::tiny_mlp();
//! // 3. Compile with a mapping policy.
//! let compiled = Compiler::new(&arch)
//!     .mapping(MappingPolicy::PerformanceFirst)
//!     .compile(&net)?;
//! // 4. Simulate.
//! let report = Simulator::new(&arch).run(&compiled.program)?;
//! assert!(report.latency.as_ns_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use pimsim_analyze as analyze;
pub use pimsim_arch as arch;
pub use pimsim_baseline as baseline;
pub use pimsim_compiler as compiler;
pub use pimsim_core as sim;
pub use pimsim_event as event;
pub use pimsim_isa as isa;
pub use pimsim_nn as nn;
pub use pimsim_serve as serve;
pub use pimsim_sweep as sweep;

/// The most commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use pimsim_analyze::{analyze, bounds, Analysis, BoundsReport};
    pub use pimsim_arch::{ArchConfig, RoutingPolicy};
    pub use pimsim_baseline::BaselineSimulator;
    pub use pimsim_compiler::{Compiler, MappingPolicy};
    pub use pimsim_core::{SimReport, Simulator};
    pub use pimsim_event::SimTime;
    pub use pimsim_isa::Program;
    pub use pimsim_nn::Network;
    pub use pimsim_serve::{serve, BatchPolicy, ServeConfig, ServeReport};
    pub use pimsim_sweep::{
        default_threads, run_grid, run_scenarios, Scenario, SweepGrid, SweepRow,
    };
}
