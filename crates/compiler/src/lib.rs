#![warn(missing_docs)]

//! The PIMSIM-NN compiler: network description → per-core instruction
//! streams.
//!
//! Modeled after PIMCOMP (paper §III-A), the pipeline is:
//!
//! 1. **Lowering** ([`lower`]) — convolution/linear layers become weight
//!    matrices (im2col on the HWC layout); the remaining operators become
//!    vector/transfer work.
//! 2. **Mapping** ([`mapping`]) — weight matrices are tiled onto crossbars
//!    and assigned to cores under one of the paper's two policies:
//!    [`MappingPolicy::UtilizationFirst`] (pack cores tightly; one core may
//!    hold several layers and a matrix may be split across cores) or
//!    [`MappingPolicy::PerformanceFirst`] (each core holds at most one
//!    layer's weights).
//! 3. **Code generation** (producing a [`Compiled`]) — emits the four instruction
//!    classes with operator fusion (bias, requantization and activation run
//!    on MVM outputs in place), crossbar *group* formation per row-block,
//!    synchronized row-granular transfers between producer and consumer
//!    cores, and per-instruction layer tags for the communication-ratio
//!    statistics of Fig. 5.
//!
//! # Example
//!
//! ```rust
//! use pimsim_arch::ArchConfig;
//! use pimsim_compiler::{Compiler, MappingPolicy};
//! use pimsim_nn::zoo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = ArchConfig::small_test();
//! let net = zoo::tiny_cnn();
//! let compiled = Compiler::new(&arch)
//!     .mapping(MappingPolicy::PerformanceFirst)
//!     .compile(&net)?;
//! assert!(compiled.program.total_instructions() > 0);
//! // Every weight layer got crossbars on some core:
//! assert!(compiled.placement.cores_used >= 1);
//! # Ok(())
//! # }
//! ```

mod codegen;
mod error;
mod lower;
pub mod mapping;

pub use codegen::{Compiled, OutputSpec};
pub use error::CompileError;
pub use lower::{lower, LoweredKind, LoweredNode, MatrixOp};
pub use mapping::{MappingPolicy, Placement, Slice};

use pimsim_arch::ArchConfig;
use pimsim_nn::{Network, WeightGen};

/// Result alias for fallible compilation.
pub type Result<T> = std::result::Result<T, CompileError>;

/// Compiles networks against a fixed architecture configuration.
///
/// Non-consuming builder: configure, then call [`Compiler::compile`] any
/// number of times.
#[derive(Debug, Clone)]
pub struct Compiler<'a> {
    arch: &'a ArchConfig,
    policy: MappingPolicy,
    functional: Option<bool>,
    batch: u32,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler for `arch` with the performance-first policy.
    pub fn new(arch: &'a ArchConfig) -> Self {
        Compiler {
            arch,
            policy: MappingPolicy::PerformanceFirst,
            functional: None,
            batch: 1,
        }
    }

    /// Number of inferences compiled back to back. With more than one, a
    /// core starts the next image as soon as its buffers free up, so
    /// independent layer cores pipeline across images — the throughput
    /// set-up PIM compilers target. Per-image latency is total latency
    /// divided by the batch.
    pub fn batch(&mut self, batch: u32) -> &mut Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects the mapping policy (paper §III-A).
    pub fn mapping(&mut self, policy: MappingPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Forces weight material on/off. Default: follow
    /// `arch.sim.functional` (weights and input data are only attached for
    /// functional simulation; timing-only programs stay small).
    pub fn functional(&mut self, functional: bool) -> &mut Self {
        self.functional = Some(functional);
        self
    }

    /// Compiles `net` into a [`Compiled`] artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the network is malformed, does not fit
    /// the chip (crossbars, local memory, tag space) or exceeds ISA
    /// encoding limits.
    pub fn compile(&self, net: &Network) -> Result<Compiled> {
        self.arch.validate()?;
        net.validate()?;
        let lowered = lower::lower(net)?;
        let placement = mapping::place(&lowered, self.arch, self.policy)?;
        let functional = self.functional.unwrap_or(self.arch.sim.functional);
        let weights = functional.then(|| WeightGen::for_network(net));
        codegen::emit(
            net,
            &lowered,
            &placement,
            self.arch,
            self.policy,
            weights,
            self.batch,
        )
    }
}
