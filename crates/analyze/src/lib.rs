//! # pimsim-analyze — static verification of compiled ISA programs
//!
//! The ISA is the contract between the compiler and the simulator; this
//! crate checks compiled [`Program`]s against that contract *before* the
//! first event fires, instead of letting violations surface thousands of
//! simulated nanoseconds in as a runtime `Deadlock`, `TagMismatch` or
//! `MemoryFault`. One call does everything:
//!
//! ```rust
//! use pimsim_arch::ArchConfig;
//! use pimsim_isa::asm::assemble;
//!
//! let arch = ArchConfig::small_test();
//! let program = assemble(".core 0\nhalt\n").unwrap();
//! let analysis = pimsim_analyze::analyze(&program, &arch);
//! assert!(!analysis.has_errors());
//! assert!(analysis.diagnostics.is_empty());
//! ```
//!
//! Three analysis layers, each a module:
//!
//! * [`mod@cfg`] — per-core control-flow graphs: unreachable blocks, silent
//!   fall-off-the-end (missing `halt`), and the linear execution traces
//!   the rendezvous analysis builds on;
//! * [`dataflow`] — register definite-assignment (def-before-use), dead
//!   writes, and interval analysis flagging statically-provable
//!   out-of-bounds memory operands (every operand of every memory-class
//!   instruction, by the extents the machine checks at dispatch) against
//!   the configured memory sizes;
//! * [`rendezvous`] — cross-core `send`/`recv` matching by
//!   `(sender, receiver, tag)`, guaranteed-unmatched transfers, payload
//!   mismatches, a credit-aware abstract execution that reports provable
//!   deadlock cycles, and the [`RendezvousMap`] artifact of matched pairs.
//!
//! On top of the checker sits the **static performance bounds** pass
//! ([`bounds()`]): it builds the priced cross-core dependence DAG
//! ([`mod@dag`]), runs a longest-path abstract schedule, and emits a
//! [`BoundsReport`] — a *sound* lower bound on simulated latency with
//! its critical path, per-core utilization bounds, and per-channel
//! credit occupancy ([`mod@occupancy`]).
//!
//! Reported *errors* are provable misbehavior (soundness leans
//! conservative: an out-of-bounds access is flagged only when every
//! possible register valuation faults, a deadlock only when even a
//! maximally-permissive fabric wedges); *warnings* are well-defined but
//! almost certainly unintended behavior. See [`DiagKind`] for the
//! catalogue.

pub mod bounds;
pub mod cfg;
pub mod dag;
pub mod dataflow;
pub mod diag;
pub mod occupancy;
pub mod rendezvous;

use pimsim_arch::ArchConfig;
use pimsim_isa::{IsaError, Program};
use serde::{Deserialize, Serialize};

pub use bounds::{bounds, BoundsReport, CoreBound, CriticalHop};
pub use cfg::{BasicBlock, Cfg};
pub use diag::{DiagKind, Diagnostic, Severity};
pub use occupancy::{ChannelBound, OccupancyReport};
pub use rendezvous::{RendezvousMap, RendezvousPair};

/// Version stamp carried by every serialized analyzer artifact
/// ([`Analysis`] and [`BoundsReport`]). Bump on any
/// backwards-incompatible JSON schema change.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything one analysis run produced: diagnostics in deterministic
/// report order, plus the rendezvous artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Version of this JSON schema (see [`SCHEMA_VERSION`]); `0` when
    /// deserialized from a pre-versioning artifact.
    #[serde(default)]
    pub schema_version: u32,
    /// All findings, sorted by `(core, pc, kind, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Provably-matched send/recv pairs.
    pub rendezvous: RendezvousMap,
}

impl Analysis {
    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// One-line `N errors, M warnings` summary.
    pub fn summary(&self) -> String {
        format!(
            "{} error{}, {} warning{}",
            self.error_count(),
            if self.error_count() == 1 { "" } else { "s" },
            self.warning_count(),
            if self.warning_count() == 1 { "" } else { "s" },
        )
    }

    /// Serializes the full analysis (diagnostics + rendezvous map) to
    /// pretty JSON, deterministically.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("analysis serialization cannot fail")
    }
}

/// Statically analyzes `program` against `arch`.
///
/// Structural validation ([`Program::validate`]) runs first: a program
/// the simulator would reject is reported as a single
/// [`DiagKind::InvalidProgram`] error and nothing else runs (the deeper
/// passes assume in-range branch targets and peers).
pub fn analyze(program: &Program, arch: &ArchConfig) -> Analysis {
    analyze_walk(program, arch).0
}

/// Whether `diagnostics` rejected the program before any pass ran: the
/// architecture or [`Program::validate`] failed, so nothing was analyzed.
pub fn rejected(diagnostics: &[Diagnostic]) -> bool {
    diagnostics
        .iter()
        .any(|d| d.kind == DiagKind::InvalidProgram)
}

/// What [`analyze`] derived from each core once, kept for the bounds
/// pass so it does not walk the program again. Complete whenever the
/// analysis has no errors (empty when validation failed).
#[derive(Default)]
pub(crate) struct Walk {
    /// Per core, its [`Cfg::linear_trace`]: `None` when its execution
    /// order is not statically known.
    pub(crate) traces: Vec<Option<Vec<u32>>>,
    /// The abstract transfer fabric the rendezvous check drained: `Some`
    /// exactly when the [`RendezvousMap`] is complete.
    pub(crate) fabric: Option<rendezvous::Fabric>,
}

/// [`analyze`], also handing back the per-core [`Walk`] it made.
pub(crate) fn analyze_walk(program: &Program, arch: &ArchConfig) -> (Analysis, Walk) {
    let mut diagnostics = Vec::new();
    let rejected = |diagnostics| {
        let analysis = Analysis {
            schema_version: SCHEMA_VERSION,
            diagnostics,
            rendezvous: RendezvousMap::default(),
        };
        (analysis, Walk::default())
    };

    if let Err(e) = arch.validate() {
        diagnostics.push(Diagnostic::core_level(
            DiagKind::InvalidProgram,
            0,
            format!("architecture configuration invalid: {e}"),
        ));
        return rejected(diagnostics);
    }

    let limits = arch.program_limits();
    if let Err(e) = program.validate(&limits) {
        // A chip-level finding is reported at core 0: schema 1's `core`
        // is a number.
        let diag = match &e {
            IsaError::Validate {
                core: Some(core),
                pc: Some(pc),
                msg,
            } => {
                let instr = &program.cores[*core as usize].instrs[*pc as usize];
                Diagnostic::at(DiagKind::InvalidProgram, *core, *pc, instr, msg.clone())
            }
            IsaError::Validate { core, msg, .. } => {
                Diagnostic::core_level(DiagKind::InvalidProgram, core.unwrap_or(0), msg.clone())
            }
            other => Diagnostic::core_level(DiagKind::InvalidProgram, 0, other.to_string()),
        };
        diagnostics.push(diag);
        return rejected(diagnostics);
    }

    // Per-core structure + dataflow.
    let mut cfgs = Vec::with_capacity(program.cores.len());
    let mut traces = Vec::with_capacity(program.cores.len());
    for (c, cp) in program.cores.iter().enumerate() {
        let c16 = c as u16;
        let cfg = Cfg::build(&cp.instrs);
        for (b, blk) in cfg.blocks.iter().enumerate() {
            if !cfg.reachable[b] {
                diagnostics.push(Diagnostic::at(
                    DiagKind::UnreachableBlock,
                    c16,
                    blk.start,
                    &cp.instrs[blk.start as usize],
                    format!(
                        "block [{}, {}) is unreachable from the entry",
                        blk.start, blk.end
                    ),
                ));
            } else if blk.falls_off_end {
                let last = blk.end - 1;
                diagnostics.push(Diagnostic::at(
                    DiagKind::MissingHalt,
                    c16,
                    last,
                    &cp.instrs[last as usize],
                    "control can run off the end of the program (the core halts \
                     silently; add an explicit `halt`)"
                        .to_string(),
                ));
            }
        }
        dataflow::check_core(c16, &cp.instrs, &cp.groups, &cfg, &limits, &mut diagnostics);
        traces.push(cfg.linear_trace());
        cfgs.push(cfg);
    }

    // Cross-core rendezvous.
    let (rdiags, rendezvous, fabric) = rendezvous::check(
        program,
        &cfgs,
        &traces,
        arch.noc.channel_credits,
        arch.noc.virtual_channels,
    );
    diagnostics.extend(rdiags);

    diagnostics.sort_by_key(|d| d.sort_key());
    let analysis = Analysis {
        schema_version: SCHEMA_VERSION,
        diagnostics,
        rendezvous,
    };
    (analysis, Walk { traces, fabric })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::asm::assemble;

    fn small() -> ArchConfig {
        ArchConfig::small_test()
    }

    #[test]
    fn clean_two_core_program() {
        let p = assemble(
            ".core 0\n\
             li r1, 0\n\
             send core1, [r1+0], 8, tag=1\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 8, tag=1\n\
             halt\n",
        )
        .unwrap();
        let a = analyze(&p, &small());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.rendezvous.complete);
        assert_eq!(a.rendezvous.pairs.len(), 1);
        assert_eq!(a.summary(), "0 errors, 0 warnings");
    }

    #[test]
    fn invalid_program_preempts_everything() {
        let mut p = Program::with_cores(1);
        p.cores[0].instrs = vec![pimsim_isa::Instruction::Jump { target: 99 }];
        let a = analyze(&p, &small());
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].kind, DiagKind::InvalidProgram);
        assert_eq!(a.diagnostics[0].pc, Some(0));
        assert!(a.has_errors());
        assert!(!a.rendezvous.complete);
    }

    #[test]
    fn report_order_is_deterministic() {
        let p = assemble(
            ".core 0\n\
             li r1, 1\n\
             recv core1, [r2+0], 8, tag=3\n\
             halt\n\
             .core 1\n\
             halt\n",
        )
        .unwrap();
        let a = analyze(&p, &small());
        let again = analyze(&p, &small());
        assert_eq!(a, again);
        // dead write (r1), def-before-use (r2), unmatched recv — sorted
        // by pc.
        let kinds: Vec<DiagKind> = a.diagnostics.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DiagKind::DeadWrite,
                DiagKind::DefBeforeUse,
                DiagKind::UnmatchedRendezvous
            ],
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn json_roundtrips() {
        let p = assemble(".core 0\nnop\n").unwrap();
        let a = analyze(&p, &small());
        // nop then fall off the end: missing-halt warning.
        assert_eq!(a.warning_count(), 1);
        let text = a.to_json();
        let back: Analysis = serde_json::from_str(&text).unwrap();
        assert_eq!(back, a);
        assert!(text.contains("missing-halt"), "{text}");
    }

    #[test]
    fn json_is_versioned_and_byte_stable() {
        let p = assemble(
            ".core 0\n\
             li r1, 0\n\
             send core1, [r1+0], 4, tag=2\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=2\n\
             halt\n",
        )
        .unwrap();
        let a = analyze(&p, &small());
        let text = a.to_json();
        // Version stamp is present in the serialized artifact...
        assert_eq!(a.schema_version, SCHEMA_VERSION);
        assert!(
            text.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
            "{text}"
        );
        // ...a rerun serializes byte-identically...
        assert_eq!(text, analyze(&p, &small()).to_json());
        // ...and pre-versioning artifacts still deserialize (as v0).
        let legacy = text.replace(&format!("\"schema_version\": {SCHEMA_VERSION},\n"), "");
        let back: Analysis = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.schema_version, 0);
        assert_eq!(back.rendezvous, a.rendezvous);
    }

    #[test]
    fn idle_cores_are_silent() {
        let p = Program::with_cores(4);
        let a = analyze(&p, &small());
        assert!(a.diagnostics.is_empty());
        assert!(a.rendezvous.complete);
        assert!(a.rendezvous.pairs.is_empty());
    }
}
