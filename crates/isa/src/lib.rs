#![warn(missing_docs)]

//! The PIMSIM-NN instruction set architecture.
//!
//! The ISA (paper §II, detailed in arXiv:2308.06449) targets neural networks
//! running on crossbar-based processing-in-memory accelerators. It assumes an
//! abstract machine: cores and a global memory connected by an
//! interconnection; each core contains crossbars, a local memory, a scalar
//! register file, and four execution units matching the four instruction
//! classes:
//!
//! * **Matrix** ([`Instruction::Mvm`]) — run a crossbar *group* (all
//!   crossbars holding slices of one weight matrix that consume the same
//!   input vector) to perform a matrix-vector multiplication.
//! * **Vector** — element-wise SIMD operations on local memory: arithmetic,
//!   activations, fills, strided 2-D copies (`VCOPY2D`, which implements
//!   im2col assembly, channel concat and pooling gathers), and fused pooling
//!   macro-ops.
//! * **Transfer** — *synchronized* (rendezvous) core-to-core `SEND`/`RECV`
//!   plus global-memory `GLOAD`/`GSTORE`. A `SEND` completes only when the
//!   matching `RECV` has been posted; this is the paper's synchronous
//!   communication design point.
//! * **Scalar** — register ALU ops, immediates, branches and jumps used for
//!   loop control and address arithmetic; memory operands of the other
//!   classes are addressed as `register + immediate offset`, so compiled
//!   programs are compact loops rather than unrolled traces.
//!
//! The crate provides the instruction definitions, a fixed-width 128-bit
//! binary encoding ([`encode`]/[`decode`]), a textual assembler and
//! disassembler ([`asm`]), crossbar group descriptors ([`GroupConfig`]) and
//! the [`Program`] container (per-core instruction streams + group
//! configuration + local-memory images) consumed by the simulator.
//!
//! # Example
//!
//! ```rust
//! use pimsim_isa::{Addr, Instruction, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instr = Instruction::Mvm {
//!     group: 3.into(),
//!     dst: Addr::new(Reg::R2, 16)?,
//!     src: Addr::new(Reg::R0, 128)?,
//!     len: 128,
//! };
//! // Canonical assembly text:
//! assert_eq!(instr.to_string(), "mvm g3, [r2+16], [r0+128], 128");
//! // 128-bit binary round-trip:
//! let word = pimsim_isa::encode(&instr)?;
//! assert_eq!(pimsim_isa::decode(word)?, instr);
//! # Ok(())
//! # }
//! ```

pub mod asm;
mod cost;
mod encode;
mod error;
mod group;
mod instr;
mod program;
mod range;
mod reg;

pub use cost::VectorShape;
pub use encode::{decode, encode, encode_program_words};
pub use error::IsaError;
pub use group::{GroupConfig, WeightMatrix};
pub use instr::limits;
pub use instr::{
    Addr, BranchCond, CoreId, GroupId, InstrClass, Instruction, PoolOp, SBinOp, SImmOp, VBinOp,
    VImmOp, VUnOp,
};
pub use program::{CoreProgram, Program, ProgramLimits, ProgramMeta};
pub use range::Range;
pub use reg::Reg;

/// Result alias for fallible ISA operations.
pub type Result<T> = std::result::Result<T, IsaError>;
