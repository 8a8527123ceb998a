//! Diagnostic types: severity, kind, and the diagnostic record itself.
//!
//! Diagnostics are plain data — severity, kind, location (core + pc), the
//! offending instruction's canonical assembly text, and a human-readable
//! message — so they render the same way from the CLI (`pimsim check`)
//! and tests. Kinds serialize as their
//! kebab-case names (the same strings `Display` prints), keeping the JSON
//! output grep-friendly.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a diagnostic is.
///
/// `Error` marks programs that provably misbehave (out-of-bounds access,
/// transfers that can never match, guaranteed deadlock); `Warning` marks
/// code that executes with well-defined — but almost certainly
/// unintended — semantics (a register read before any write yields `0`,
/// running off the end of the stream halts silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum Severity {
    /// Suspicious but well-defined behavior.
    Warning,
    /// Provable misbehavior.
    Error,
}

impl Severity {
    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!(
                "unknown severity `{other}` (want warning or error)"
            )),
        }
    }
}

impl TryFrom<String> for Severity {
    type Error = String;
    fn try_from(s: String) -> Result<Severity, String> {
        s.parse()
    }
}

impl From<Severity> for String {
    fn from(s: Severity) -> String {
        s.name().to_string()
    }
}

/// What a diagnostic is about. Each kind has a fixed [`Severity`]
/// (see [`DiagKind::severity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum DiagKind {
    /// The program failed [`pimsim_isa::Program::validate`]; structural
    /// errors preempt every other analysis.
    InvalidProgram,
    /// A basic block no path from entry reaches.
    UnreachableBlock,
    /// Control can run off the end of the instruction stream (the machine
    /// halts silently instead of via an explicit `halt`).
    MissingHalt,
    /// A register may be read before any instruction writes it (it reads
    /// as `0`, the power-on value).
    DefBeforeUse,
    /// A register write whose value no path can observe.
    DeadWrite,
    /// A memory access that provably exceeds the configured memory size
    /// (or provably computes a negative address) on every execution.
    OutOfBounds,
    /// A `send` or `recv` site whose channel has no matching partner, or
    /// more sites on one side than the other: the excess transfers can
    /// never complete.
    UnmatchedRendezvous,
    /// A matched send/recv pair whose payload lengths disagree — the
    /// runtime raises `TagMismatch` when the message arrives.
    PayloadMismatch,
    /// A wait-for cycle among transfer sites: the cores provably stop
    /// making progress on every execution (static deadlock).
    DeadlockCycle,
}

impl DiagKind {
    /// Every diagnostic kind, in canonical order.
    pub const ALL: [DiagKind; 9] = [
        DiagKind::InvalidProgram,
        DiagKind::UnreachableBlock,
        DiagKind::MissingHalt,
        DiagKind::DefBeforeUse,
        DiagKind::DeadWrite,
        DiagKind::OutOfBounds,
        DiagKind::UnmatchedRendezvous,
        DiagKind::PayloadMismatch,
        DiagKind::DeadlockCycle,
    ];

    /// The canonical kebab-case name (used in text and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::InvalidProgram => "invalid-program",
            DiagKind::UnreachableBlock => "unreachable-block",
            DiagKind::MissingHalt => "missing-halt",
            DiagKind::DefBeforeUse => "def-before-use",
            DiagKind::DeadWrite => "dead-write",
            DiagKind::OutOfBounds => "out-of-bounds",
            DiagKind::UnmatchedRendezvous => "unmatched-rendezvous",
            DiagKind::PayloadMismatch => "payload-mismatch",
            DiagKind::DeadlockCycle => "deadlock-cycle",
        }
    }

    /// The fixed severity of this kind.
    pub fn severity(self) -> Severity {
        match self {
            DiagKind::InvalidProgram
            | DiagKind::OutOfBounds
            | DiagKind::UnmatchedRendezvous
            | DiagKind::PayloadMismatch
            | DiagKind::DeadlockCycle => Severity::Error,
            DiagKind::UnreachableBlock
            | DiagKind::MissingHalt
            | DiagKind::DefBeforeUse
            | DiagKind::DeadWrite => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DiagKind {
    type Err = String;

    fn from_str(s: &str) -> Result<DiagKind, String> {
        DiagKind::ALL
            .iter()
            .find(|k| k.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown diagnostic kind `{s}`"))
    }
}

impl TryFrom<String> for DiagKind {
    type Error = String;
    fn try_from(s: String) -> Result<DiagKind, String> {
        s.parse()
    }
}

impl From<DiagKind> for String {
    fn from(k: DiagKind) -> String {
        k.name().to_string()
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Whether this is an error or a warning (always `kind.severity()`).
    pub severity: Severity,
    /// What the finding is about.
    pub kind: DiagKind,
    /// Which core's program the finding is in.
    pub core: u16,
    /// Offending instruction index, when the finding has one.
    pub pc: Option<u32>,
    /// The offending instruction's canonical assembly text (empty when
    /// `pc` is `None`).
    pub instr: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at a specific instruction, capturing its
    /// assembly text.
    pub fn at(
        kind: DiagKind,
        core: u16,
        pc: u32,
        instr: &pimsim_isa::Instruction,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: kind.severity(),
            kind,
            core,
            pc: Some(pc),
            instr: instr.to_string(),
            message: message.into(),
        }
    }

    /// Builds a core-level diagnostic with no instruction location.
    pub fn core_level(kind: DiagKind, core: u16, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: kind.severity(),
            kind,
            core,
            pc: None,
            instr: String::new(),
            message: message.into(),
        }
    }

    /// The deterministic report order: by core, then pc (core-level
    /// findings first), then kind, then message.
    pub fn sort_key(&self) -> (u16, i64, DiagKind, String) {
        let pc = self.pc.map_or(-1, |p| p as i64);
        (self.core, pc, self.kind, self.message.clone())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] core{}", self.severity, self.kind, self.core)?;
        if let Some(pc) = self.pc {
            write!(f, " pc={pc}")?;
        }
        if !self.instr.is_empty() {
            write!(f, " `{}`", self.instr)?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in DiagKind::ALL {
            let back: DiagKind = k.name().parse().unwrap();
            assert_eq!(back, k);
        }
        assert!("not-a-kind".parse::<DiagKind>().is_err());
    }

    #[test]
    fn severity_names_roundtrip() {
        for s in [Severity::Warning, Severity::Error] {
            let back: Severity = s.name().parse().unwrap();
            assert_eq!(back, s);
        }
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn display_includes_location_and_text() {
        let d = Diagnostic::at(
            DiagKind::OutOfBounds,
            2,
            7,
            &pimsim_isa::Instruction::Halt,
            "address 4096 exceeds local memory of 1024 elements",
        );
        let text = d.to_string();
        assert!(
            text.starts_with("error[out-of-bounds] core2 pc=7 `halt`:"),
            "{text}"
        );

        let c = Diagnostic::core_level(DiagKind::InvalidProgram, 0, "bad");
        assert_eq!(c.to_string(), "error[invalid-program] core0: bad");
    }

    #[test]
    fn sort_order_puts_core_level_first() {
        let a = Diagnostic::core_level(DiagKind::InvalidProgram, 0, "x");
        let b = Diagnostic::at(
            DiagKind::DeadWrite,
            0,
            0,
            &pimsim_isa::Instruction::Nop,
            "y",
        );
        assert!(a.sort_key() < b.sort_key());
    }
}
