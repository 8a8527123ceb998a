#![warn(missing_docs)]

//! The cycle-accurate, event-driven PIMSIM-NN simulator (paper §III-B).
//!
//! The simulated accelerator follows the hierarchical architecture of
//! Fig. 2: a chip is a 2-D mesh of cores plus a global memory; each core
//! has a frontend (fetch/decode/dispatch), a configurable **re-order
//! buffer** (ROB), a scalar register file, a local scratchpad, and the four
//! execution units matching the ISA's instruction classes.
//!
//! ## Core model
//!
//! Instructions dispatch **in order** at `dispatch_width` per cycle.
//! Scalar instructions (ALU, branches, jumps) execute at dispatch — loops
//! and address arithmetic never enter the ROB. Matrix/vector/transfer
//! instructions enter the ROB with operand addresses resolved from the
//! register file, then *issue* to their execution unit once:
//!
//! * no older in-flight instruction has a conflicting local-memory range
//!   (RAW / WAW / WAR interval checks),
//! * the unit is free — the matrix unit accepts any number of concurrent
//!   `MVM`s **as long as their crossbar sets are disjoint**; overlapping
//!   sets serialize (the paper's *structure hazard*, the Fig. 4 knee),
//! * for transfers, the unit is single-occupancy and synchronized: a
//!   `SEND` occupies the unit until its matching `RECV` has been posted
//!   and the payload has crossed the mesh (rendezvous semantics).
//!
//! Completed instructions retire in order from the ROB head. Latencies and
//! energies come from [`pimsim_arch::model::CostModel`] — the same tables
//! the MNSIM2.0-like baseline uses, so simulator comparisons isolate
//! *scheduling* differences only.
//!
//! ## NoC model
//!
//! Minimal routing under the configured `RoutingPolicy` (XY by default)
//! over per-link occupancy: a packet reserves each link along its path in
//! sequence (`1 + ceil(bytes/flit)` flits, one header), so contention,
//! serialization and distance all shape communication time. Every price
//! comes from the same `CostModel`. The global memory controller sits at
//! mesh corner (0,0) with its own service queue.
//!
//! ## Functional mode
//!
//! With `sim.functional = true`, vector/matrix/transfer payloads execute
//! with the shared integer semantics of `pimsim-nn`'s golden model, so a
//! compiled network's output can be compared bit-exactly against the
//! reference forward pass (the end-to-end correctness tests do exactly
//! this). Scalar registers are always functional.
//!
//! Both modes check every memory operand once, at dispatch: an extent
//! ([`pimsim_isa::Instruction::for_each_extent`]) outside its memory fails the
//! run with [`SimError::MemoryFault`], in a timing run as in a
//! functional one.
//!
//! # Example
//!
//! ```rust
//! use pimsim_arch::ArchConfig;
//! use pimsim_core::Simulator;
//! use pimsim_isa::asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = ArchConfig::small_test();
//! let program = asm::assemble(r#"
//!     .core 0
//!     vfill [r1+0], 7, 64
//!     send core1, [r1+0], 64, tag=1
//!     halt
//!     .core 1
//!     recv core0, [r2+0], 64, tag=1
//!     halt
//! "#)?;
//! let report = Simulator::new(&arch).run(&program)?;
//! assert!(report.latency.as_ns_f64() > 0.0);
//! assert_eq!(report.read_local(1, 0, 1)[0], 7); // payload arrived
//! # Ok(())
//! # }
//! ```

mod exec;
mod machine;
mod noc;
mod stats;

pub use machine::{SimError, Simulator};
pub use noc::{Noc, NocCosts, Route, MEM_NODE, PORTS};
pub use stats::{CoreStats, EnergyBreakdown, NodeStats, SimReport, TraceEntry, TRACE_CAP};

/// Result alias for fallible simulation.
pub type Result<T> = std::result::Result<T, SimError>;
