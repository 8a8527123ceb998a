//! Compiler error type.

use std::error::Error;
use std::fmt;

use pimsim_arch::ArchError;
use pimsim_isa::IsaError;
use pimsim_nn::NnError;

/// Errors produced while compiling a network onto an architecture.
#[derive(Debug)]
pub enum CompileError {
    /// The network does not fit the chip's crossbar budget.
    Unmappable {
        /// What ran out (crossbars, cores).
        resource: &'static str,
        /// Required amount.
        needed: u64,
        /// Available amount.
        available: u64,
        /// Context (layer name etc.).
        context: String,
    },
    /// A core's local memory cannot hold the required buffers.
    LocalMemoryOverflow {
        /// The core that overflowed.
        core: u16,
        /// Elements requested beyond capacity.
        needed: u64,
        /// Capacity in elements.
        available: u64,
        /// The buffer being allocated.
        context: String,
    },
    /// The input and the batch's outputs do not fit in global memory.
    GlobalMemoryOverflow {
        /// Inferences compiled back to back, one output each.
        batch: u32,
        /// Elements the input and every output need (saturated at
        /// `u64::MAX`).
        needed: u64,
        /// Capacity in elements.
        available: u64,
    },
    /// The per-chip transfer tag space (2^16) was exhausted.
    TagOverflow,
    /// An emitted instruction exceeded an ISA encoding field.
    Isa(IsaError),
    /// The input network is malformed.
    Network(NnError),
    /// The architecture configuration is invalid.
    Arch(ArchError),
    /// An internal invariant failed (a compiler bug, not a user error).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unmappable {
                resource,
                needed,
                available,
                context,
            } => write!(
                f,
                "network does not fit: needs {needed} {resource} but only {available} available ({context})"
            ),
            CompileError::LocalMemoryOverflow {
                core,
                needed,
                available,
                context,
            } => write!(
                f,
                "core {core} local memory overflow: {needed} elements needed, {available} available ({context})"
            ),
            CompileError::GlobalMemoryOverflow {
                batch,
                needed,
                available,
            } => write!(
                f,
                "global memory overflow: the input and {batch} output(s) need {needed} elements, {available} available"
            ),
            CompileError::TagOverflow => write!(f, "transfer tag space (65536) exhausted"),
            CompileError::Isa(e) => write!(f, "ISA error: {e}"),
            CompileError::Network(e) => write!(f, "network error: {e}"),
            CompileError::Arch(e) => write!(f, "architecture error: {e}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Isa(e) => Some(e),
            CompileError::Network(e) => Some(e),
            CompileError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for CompileError {
    fn from(e: IsaError) -> Self {
        CompileError::Isa(e)
    }
}

impl From<NnError> for CompileError {
    fn from(e: NnError) -> Self {
        CompileError::Network(e)
    }
}

impl From<ArchError> for CompileError {
    fn from(e: ArchError) -> Self {
        CompileError::Arch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CompileError::Unmappable {
            resource: "crossbars",
            needed: 40_000,
            available: 32_768,
            context: "fc6".into(),
        };
        assert!(e.to_string().contains("crossbars"));
        assert!(e.to_string().contains("fc6"));

        let m = CompileError::LocalMemoryOverflow {
            core: 3,
            needed: 100,
            available: 50,
            context: "input buffer".into(),
        };
        assert!(m.to_string().contains("core 3"));
        assert!(CompileError::TagOverflow.to_string().contains("65536"));
    }

    #[test]
    fn conversions_chain_sources() {
        let e: CompileError = IsaError::InvalidRegister(40).into();
        assert!(e.source().is_some());
    }
}
