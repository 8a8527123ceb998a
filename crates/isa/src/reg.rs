//! The scalar register file model.

use std::fmt;
use std::str::FromStr;

use crate::error::IsaError;

/// One of the 32 scalar registers, `r0`–`r31`.
///
/// `r0` always reads as zero and writes to it are discarded, RISC-style;
/// the simulator enforces this, the type only names the register.
///
/// ```rust
/// use pimsim_isa::Reg;
/// let r: Reg = "r17".parse()?;
/// assert_eq!(r.index(), 17);
/// assert_eq!(r.to_string(), "r17");
/// # Ok::<(), pimsim_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// Number of architectural scalar registers.
pub const NUM_REGS: usize = 32;

impl Reg {
    /// The hardwired-zero register.
    pub const R0: Reg = Reg(0);
    /// General-purpose register `r1`.
    pub const R1: Reg = Reg(1);
    /// General-purpose register `r2`.
    pub const R2: Reg = Reg(2);
    /// General-purpose register `r3`.
    pub const R3: Reg = Reg(3);
    /// General-purpose register `r4`.
    pub const R4: Reg = Reg(4);
    /// General-purpose register `r5`.
    pub const R5: Reg = Reg(5);
    /// General-purpose register `r6`.
    pub const R6: Reg = Reg(6);
    /// General-purpose register `r7`.
    pub const R7: Reg = Reg(7);
    /// General-purpose register `r8`.
    pub const R8: Reg = Reg(8);

    /// Creates a register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidRegister`] if `index >= 32`.
    pub fn new(index: u8) -> Result<Reg, IsaError> {
        if (index as usize) < NUM_REGS {
            Ok(Reg(index))
        } else {
            Err(IsaError::InvalidRegister(index))
        }
    }

    /// The register index, `0..32`.
    pub fn index(self) -> u8 {
        self.0
    }

    /// `true` for the hardwired-zero register `r0`.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over all 32 registers in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..).take(NUM_REGS).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl FromStr for Reg {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Reg, IsaError> {
        let bad = || IsaError::Parse {
            line: 0,
            msg: format!("invalid register name `{s}`"),
        };
        if s == "zero" {
            return Ok(Reg::R0);
        }
        let rest = s.strip_prefix('r').ok_or_else(bad)?;
        let idx: u8 = rest.parse().map_err(|_| bad())?;
        Reg::new(idx).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range() {
        assert!(Reg::new(0).is_ok());
        assert!(Reg::new(31).is_ok());
        assert!(matches!(Reg::new(32), Err(IsaError::InvalidRegister(32))));
    }

    #[test]
    fn zero_register() {
        assert!(Reg::R0.is_zero());
        assert!(!Reg::R1.is_zero());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for r in Reg::all() {
            let text = r.to_string();
            let back: Reg = text.parse().unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn parse_alias_and_errors() {
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::R0);
        assert!("r32".parse::<Reg>().is_err());
        assert!("x1".parse::<Reg>().is_err());
        assert!("r".parse::<Reg>().is_err());
        assert!("r-1".parse::<Reg>().is_err());
    }

    #[test]
    fn all_yields_32() {
        assert_eq!(Reg::all().count(), 32);
    }
}
