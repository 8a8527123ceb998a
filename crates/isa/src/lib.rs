#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap))]

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
//! The crate provides the instruction definitions, a textual assembler
//! and disassembler ([`asm`]), crossbar group descriptors
//! ([`GroupConfig`]) and the [`Program`] container (per-core instruction
//! streams + group configuration + local-memory images) consumed by the
//! simulator. It also holds the machine semantics the simulator and the
//! static analyzer share, so each rule has one definition: scalar ALU and
//! branch behaviour ([`SBinOp::apply`], [`BranchCond::holds`],
//! [`Instruction::exec_scalar`]), where each operand lands
//! ([`Instruction::for_each_extent`]), the memory hazard rule
//! ([`Footprint::conflicts`]), the vector cost classification
//! ([`Instruction::vector_shape`]) and the rendezvous payload length
//! ([`Instruction::payload_len`]), each read off the [`Instruction`]
//! itself.
//!
//! # Adding an instruction
//!
//! Declare its variant in [`Instruction`], whose docs are the ISA
//! reference, and give it one row in the opcode table (`opcode.rs`): its
//! class, its mnemonic (or its op enum with one mnemonic per value) and
//! its operands in text order, each with its kind and field width. The row
//! gives the assembler, the line writer, the width check and
//! [`Instruction::class`]. Its semantics are written by hand: the memory
//! operands in [`Instruction::for_each_extent`] (`extent.rs`), a vector
//! op's [`Instruction::vector_shape`] (`cost.rs`), and its execution in
//! `pimsim-core`'s `exec.rs`.
//!
//! # Example
//!
//! ```rust
//! use pimsim_isa::{Addr, Instruction, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instr = Instruction::Mvm {
//!     group: 0.into(),
//!     dst: Addr::new(Reg::R2, 16)?,
//!     src: Addr::new(Reg::R0, 128)?,
//!     len: 128,
//! };
//! // Canonical assembly text, and back:
//! assert_eq!(instr.to_string(), "mvm g0, [r2+16], [r0+128], 128");
//! assert_eq!(pimsim_isa::asm::parse_instruction(&instr.to_string())?, instr);
//! // Where its operands land under a register file (group 0 outputs 64):
//! let mut regs = [0; 32];
//! regs[2] = 1000;
//! let groups = [pimsim_isa::GroupConfig::new(0.into(), 128, 64, vec![0])];
//! let footprint = pimsim_isa::Footprint::of(&instr, &groups, &regs);
//! assert_eq!(footprint.write, pimsim_isa::Range::span(1016, 1080));
//! # Ok(())
//! # }
//! ```

pub mod asm;
mod cost;
mod error;
mod extent;
mod group;
mod instr;
mod opcode;
mod program;
mod range;
mod reg;

pub use cost::VectorShape;
pub use error::IsaError;
pub use extent::{Extent, Space};
pub use group::{GroupConfig, WeightMatrix};
pub use instr::limits;
pub use instr::{Addr, CoreId, GroupId, InstrClass, Instruction};
pub use opcode::{BranchCond, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp, VUnOp};
pub use program::{CoreProgram, Program, ProgramLimits, ProgramMeta};
pub use range::{Footprint, Range};
pub use reg::Reg;

/// Result alias for fallible ISA operations.
pub type Result<T> = std::result::Result<T, IsaError>;
