//! The simulation error taxonomy.

use std::error::Error;
use std::fmt;

use pimsim_arch::ArchError;
use pimsim_event::SimTime;
use pimsim_isa::IsaError;

/// Errors produced by a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The program failed validation against the architecture.
    InvalidProgram(IsaError),
    /// The architecture configuration is invalid.
    Arch(ArchError),
    /// Simulation stopped making progress before all cores halted
    /// (mismatched rendezvous, circular wait...).
    Deadlock {
        /// Time at which the event queue drained.
        time: SimTime,
        /// Human-readable description of stuck cores.
        detail: String,
    },
    /// The `sim.max_cycles` safety horizon was reached.
    Timeout {
        /// The horizon, in core cycles.
        max_cycles: u64,
    },
    /// A matched send/recv pair disagreed on payload length.
    TagMismatch {
        /// Description of the mismatching pair.
        detail: String,
    },
    /// A memory operand reaches below element 0 or past the configured
    /// local or global memory: checked for every operand at dispatch, in
    /// timing and functional runs alike. The detail names the pc, the
    /// instruction, the span and the capacity. Such accesses used to clamp
    /// to address 0, grow the functional memory without bound, or be
    /// priced by timing runs as if valid.
    MemoryFault {
        /// The core that made the access.
        core: u16,
        /// Description of the out-of-range access.
        detail: String,
    },
    /// An internal simulator invariant broke mid-run (e.g. a transfer
    /// completion with no matching ROB entry). Always a simulator bug —
    /// surfaced immediately instead of masked, so it cannot decay into a
    /// mystery deadlock with stuck credits.
    Internal {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SimError::Arch(e) => write!(f, "invalid architecture: {e}"),
            SimError::Deadlock { time, detail } => {
                write!(f, "deadlock at {time}: {detail}")
            }
            SimError::Timeout { max_cycles } => {
                write!(
                    f,
                    "simulation exceeded the {max_cycles}-cycle safety horizon"
                )
            }
            SimError::TagMismatch { detail } => write!(f, "transfer tag mismatch: {detail}"),
            SimError::MemoryFault { core, detail } => {
                write!(f, "memory fault on core{core}: {detail}")
            }
            SimError::Internal { detail } => {
                write!(f, "internal simulator invariant violated: {detail}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidProgram(e) => Some(e),
            SimError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::InvalidProgram(e)
    }
}

impl From<ArchError> for SimError {
    fn from(e: ArchError) -> Self {
        SimError::Arch(e)
    }
}
