//! Error types for the ISA crate.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing, parsing or validating instructions
/// and programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A register index outside `0..32`.
    InvalidRegister(u8),
    /// An immediate/operand field does not fit its field width.
    FieldRange {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: i64,
        /// Smallest encodable value.
        min: i64,
        /// Largest encodable value.
        max: i64,
    },
    /// Assembly text or a program file could not be parsed. `line` is
    /// 1-based; 0 when unknown or when `msg` already ends in its location
    /// (JSON errors carry line and column there).
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A program failed structural validation.
    Validate {
        /// Core whose program is invalid; `None` for a chip-level finding
        /// (the core count, global init data, a weight matrix).
        core: Option<u16>,
        /// Offending instruction index, if applicable.
        pc: Option<u32>,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::InvalidRegister(i) => write!(f, "invalid register index {i} (valid: 0..32)"),
            IsaError::FieldRange {
                field,
                value,
                min,
                max,
            } => write!(
                f,
                "{field} value {value} outside encodable range [{min}, {max}]"
            ),
            IsaError::Parse { line, msg } if *line > 0 => {
                write!(f, "parse error at line {line}: {msg}")
            }
            IsaError::Parse { msg, .. } => write!(f, "parse error: {msg}"),
            IsaError::Validate { core, pc, msg } => match (core, pc) {
                (Some(core), Some(pc)) => {
                    write!(f, "invalid program for core {core} at pc {pc}: {msg}")
                }
                (Some(core), None) => write!(f, "invalid program for core {core}: {msg}"),
                (None, _) => f.write_str(msg),
            },
        }
    }
}

impl Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IsaError::FieldRange {
            field: "len",
            value: 1 << 30,
            min: 0,
            max: 262143,
        };
        let text = e.to_string();
        assert!(text.contains("len"));
        assert!(text.contains("262143"));

        let p = IsaError::Parse {
            line: 7,
            msg: "bad token".into(),
        };
        assert!(p.to_string().contains("line 7"));

        let v = IsaError::Validate {
            core: Some(3),
            pc: Some(9),
            msg: "branch target out of range".into(),
        };
        assert!(v.to_string().contains("core 3"));
        assert!(v.to_string().contains("pc 9"));

        // A chip-level finding blames no core.
        let chip = IsaError::Validate {
            core: None,
            pc: None,
            msg: "program targets 5 cores but the chip has 4".into(),
        };
        assert_eq!(
            chip.to_string(),
            "program targets 5 cores but the chip has 4"
        );
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn Error + Send + Sync> = Box::new(IsaError::InvalidRegister(40));
        assert!(e.to_string().contains("40"));
    }
}
