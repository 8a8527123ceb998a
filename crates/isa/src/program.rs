//! The compiled program container consumed by the simulator.

use std::collections::BTreeMap;

use serde::__private::field;
use serde::{DeError, Deserialize, Kind, Names, Serialize, Sink, Source};

use crate::asm::parse_instruction;
use crate::error::IsaError;
use crate::extent::Space;
use crate::group::GroupConfig;
use crate::instr::{AsmLine, InstrClass, Instruction};

/// Structural limits used by [`Program::validate`]: the core count,
/// crossbars per core and memory capacities of a chip. `pimsim-arch`'s
/// `ArchConfig::program_limits` derives them from a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramLimits {
    /// Number of cores on the chip.
    pub cores: u16,
    /// Crossbars per core.
    pub xbars_per_core: u32,
    /// Local memory capacity in 32-bit elements.
    pub local_mem_elems: u32,
    /// Global memory capacity in 32-bit elements.
    pub global_mem_elems: u64,
}

impl ProgramLimits {
    /// The capacity of `space`, in elements.
    pub fn capacity(&self, space: Space) -> u64 {
        match space {
            Space::Local => self.local_mem_elems as u64,
            Space::Global => self.global_mem_elems,
        }
    }

    /// Generous limits for tests and tools that only need syntax checking.
    pub fn relaxed() -> ProgramLimits {
        ProgramLimits {
            cores: u16::MAX,
            xbars_per_core: u32::MAX,
            local_mem_elems: u32::MAX,
            global_mem_elems: u64::MAX,
        }
    }
}

/// Free-form metadata describing how a program was produced.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramMeta {
    /// Program name (usually the network name).
    pub name: String,
    /// Mapping policy used by the compiler (e.g. `performance-first`).
    pub mapping: String,
    /// Human-readable notes (compiler version, parameters...).
    pub notes: String,
}

/// One core's compiled artifact: instruction stream, crossbar group
/// configuration, and local-memory preload image.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreProgram {
    /// The instruction stream; `pc` indexes into this.
    pub instrs: Vec<Instruction>,
    /// Crossbar group descriptors (mapping registers), indexed by group id.
    pub groups: Vec<GroupConfig>,
    /// Local-memory preload segments: `(start element, values)`.
    pub local_init: Vec<(u32, Vec<i32>)>,
    /// Optional labels for disassembly readability: label → instruction index.
    pub labels: BTreeMap<String, u32>,
    /// Optional per-instruction tags (parallel to `instrs`) attributing each
    /// instruction to a network node, used for per-layer statistics such as
    /// the paper's communication-latency ratio. Empty = untagged.
    pub instr_tags: Vec<u16>,
}

impl CoreProgram {
    /// `true` if this core has nothing to execute.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction count by class, in `[matrix, vector, transfer, scalar]`
    /// order. Static (not dynamic/executed) counts.
    pub fn class_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for i in &self.instrs {
            match i.class() {
                InstrClass::Matrix => h[0] += 1,
                InstrClass::Vector => h[1] += 1,
                InstrClass::Transfer => h[2] += 1,
                InstrClass::Scalar => h[3] += 1,
            }
        }
        h
    }
}

/// A complete compiled program: one [`CoreProgram`] per core plus metadata.
///
/// Produced by the compiler (or the assembler), validated, then executed by
/// the cycle-accurate simulator. Its file form is described at
/// [`Program::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Per-core programs, indexed by core id.
    pub cores: Vec<CoreProgram>,
    /// Global-memory preload segments: `(start element, values)`. Used to
    /// stage network inputs for functional simulation.
    pub global_init: Vec<(u64, Vec<i32>)>,
    /// Provenance metadata.
    pub meta: ProgramMeta,
}

impl Program {
    /// Creates an empty program with `cores` idle cores.
    pub fn with_cores(cores: usize) -> Program {
        Program {
            cores: vec![CoreProgram::default(); cores],
            global_init: Vec::new(),
            meta: ProgramMeta::default(),
        }
    }

    /// Total static instruction count across all cores.
    pub fn total_instructions(&self) -> usize {
        self.cores.iter().map(|c| c.instrs.len()).sum()
    }

    /// Serializes to pretty JSON, the program file format: `"format": 2`,
    /// then `cores`, `global_init` and `meta`. Each core's `instrs` is an
    /// array of strings, one per instruction, each its canonical assembly
    /// line ([`Instruction`]'s `Display`); `groups`, `local_init`,
    /// `labels` and `instr_tags` are JSON of their own.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("program serialization cannot fail")
    }

    /// Streams the bytes of [`Program::to_json`] into `writer` in chunks,
    /// without holding the whole text.
    ///
    /// # Errors
    ///
    /// Returns the writer's first error.
    pub fn write_json(&self, writer: impl std::io::Write) -> std::io::Result<()> {
        serde_json::to_writer_pretty(writer, self)
    }

    /// Deserializes from JSON in the format [`Program::to_json`] writes.
    /// Each instruction line is read by
    /// [`parse_instruction`](crate::asm::parse_instruction), so an operand
    /// past its field is refused here.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Parse`] on malformed JSON, on a malformed
    /// instruction line (naming its core and pc, the assembler's message
    /// and the line), and on a file of another format: one without
    /// `"format": 2`, or whose instructions are JSON objects (format 1).
    /// Its message ends in the error's line and column, so `line` stays 0
    /// and the location is printed once.
    pub fn from_json(text: &str) -> Result<Program, IsaError> {
        serde_json::from_str(text).map_err(|e| IsaError::Parse {
            line: 0,
            msg: e.to_string(),
        })
    }

    /// Structural validation: every operand within its field of the
    /// instruction format ([`crate::limits`]), every branch target in
    /// range, every referenced group defined with matching `MVM` length,
    /// group crossbars within the per-core budget and disjoint across
    /// groups, transfer peers in range, init segments within local memory,
    /// and group weight shapes coherent.
    ///
    /// # Errors
    ///
    /// Returns the first [`IsaError::Validate`] found.
    pub fn validate(&self, limits: &ProgramLimits) -> Result<(), IsaError> {
        if self.cores.len() > limits.cores as usize {
            return Err(IsaError::Validate {
                core: None,
                pc: None,
                msg: format!(
                    "program targets {} cores but the chip has {}",
                    self.cores.len(),
                    limits.cores
                ),
            });
        }
        for (start, values) in &self.global_init {
            let Some(end) = start.checked_add(values.len() as u64) else {
                return Err(IsaError::Validate {
                    core: None,
                    pc: None,
                    msg: format!(
                        "global init segment of {} element(s) at {start} runs past the 64-bit address space",
                        values.len()
                    ),
                });
            };
            if end > limits.global_mem_elems {
                return Err(IsaError::Validate {
                    core: None,
                    pc: None,
                    msg: format!(
                        "global init segment [{start}, {end}) exceeds global memory of {} elements",
                        limits.global_mem_elems
                    ),
                });
            }
        }
        // At most `u16::MAX` cores, as checked above.
        for (cid, cp) in (0..=u16::MAX).zip(&self.cores) {
            let err = |pc: Option<u32>, msg: String| IsaError::Validate {
                core: Some(cid),
                pc,
                msg,
            };

            // Group table coherence. Crossbars at or past the limit fail
            // before they reach the bitset, so it needs no more bits.
            let xbar_bound = (cp.groups.iter().flat_map(|g| &g.xbar_ids).max()).map_or(0, |&x| {
                x.saturating_add(1).min(limits.xbars_per_core) as usize
            });
            let mut used_xbars = vec![0u64; xbar_bound.div_ceil(64)];
            for (gi, g) in cp.groups.iter().enumerate() {
                if g.id.as_usize() != gi {
                    return Err(err(
                        None,
                        format!("group table entry {gi} has id {} (must be dense)", g.id),
                    ));
                }
                if g.xbar_ids.is_empty() {
                    return Err(err(None, format!("group {} has no crossbars", g.id)));
                }
                for &x in &g.xbar_ids {
                    if x >= limits.xbars_per_core {
                        return Err(err(
                            None,
                            format!(
                                "group {} uses crossbar {x} but the core has {}",
                                g.id, limits.xbars_per_core
                            ),
                        ));
                    }
                    let (word, bit) = (x as usize / 64, 1u64 << (x % 64));
                    if used_xbars[word] & bit != 0 {
                        return Err(err(
                            None,
                            format!("crossbar {x} assigned to more than one group"),
                        ));
                    }
                    used_xbars[word] |= bit;
                }
                if let Some(w) = &g.weights {
                    if w.rows() != g.input_len || w.cols() != g.output_len {
                        return Err(err(
                            None,
                            format!(
                                "group {} weights {}x{} mismatch logical {}x{}",
                                g.id,
                                w.rows(),
                                w.cols(),
                                g.input_len,
                                g.output_len
                            ),
                        ));
                    }
                }
            }

            // Init segments.
            for (start, values) in &cp.local_init {
                let end = *start as u64 + values.len() as u64;
                if end > limits.local_mem_elems as u64 {
                    return Err(err(
                        None,
                        format!(
                            "local init segment [{start}, {end}) exceeds local memory of {} elements",
                            limits.local_mem_elems
                        ),
                    ));
                }
            }

            // Labels point into the stream.
            for (name, &target) in &cp.labels {
                if target as usize > cp.instrs.len() {
                    return Err(err(
                        None,
                        format!("label `{name}` points at {target}, past end of program"),
                    ));
                }
            }

            // Tag vector, when present, parallels the instruction stream.
            if !cp.instr_tags.is_empty() && cp.instr_tags.len() != cp.instrs.len() {
                return Err(err(
                    None,
                    format!(
                        "instr_tags has {} entries for {} instructions",
                        cp.instr_tags.len(),
                        cp.instrs.len()
                    ),
                ));
            }

            // Instruction stream. Field widths first, so a field past its
            // width is refused for its width (as a program file's reader
            // does) whatever else it points at.
            let Ok(n) = u32::try_from(cp.instrs.len()) else {
                let n = cp.instrs.len();
                return Err(err(None, format!("{n} instructions, past a 32-bit pc")));
            };
            for (pc32, instr) in (0..n).zip(&cp.instrs) {
                instr.fits_fields().map_err(|msg| err(Some(pc32), msg))?;
                match instr {
                    Instruction::Branch { target, .. } | Instruction::Jump { target }
                        if *target >= n =>
                    {
                        return Err(err(
                            Some(pc32),
                            format!("control target {target} out of range (program has {n})"),
                        ));
                    }
                    Instruction::Branch { .. } | Instruction::Jump { .. } => {}
                    Instruction::Mvm { group, len, .. } => {
                        let Some(g) = cp.groups.get(group.as_usize()) else {
                            return Err(err(
                                Some(pc32),
                                format!("mvm references undefined {group}"),
                            ));
                        };
                        if *len != g.input_len {
                            return Err(err(
                                Some(pc32),
                                format!(
                                    "mvm len {len} does not match group {} input_len {}",
                                    g.id, g.input_len
                                ),
                            ));
                        }
                    }
                    Instruction::Send { peer, .. }
                    | Instruction::Recv { peer, .. }
                    | Instruction::Recv2d { peer, .. } => {
                        if peer.as_usize() >= self.cores.len() {
                            return Err(err(
                                Some(pc32),
                                format!("transfer peer {peer} out of range"),
                            ));
                        }
                        if peer.0 == cid {
                            return Err(err(Some(pc32), "transfer peer is self".into()));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// The `format` of the program files [`Program::to_json`] writes and
/// [`Program::from_json`] reads.
const FORMAT: u64 = 2;

/// How to get a file of this format from what produced an older one.
const REWRITE: &str = "rewrite the file with `pimsim compile --network NAME --out FILE` \
                       or `pimsim asm FILE.s --out FILE`";

impl Serialize for Program {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_map();
        sink.derived_key("format", "\"format\": ");
        sink.u64(FORMAT);
        sink.derived_key("cores", "\"cores\": ");
        self.cores.serialize(sink);
        sink.derived_key("global_init", "\"global_init\": ");
        self.global_init.serialize(sink);
        sink.derived_key("meta", "\"meta\": ");
        self.meta.serialize(sink);
        sink.end_map();
    }
}

impl Serialize for CoreProgram {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_map();
        sink.derived_key("instrs", "\"instrs\": ");
        sink.begin_seq();
        // Each line is written on the stack and copied into the output:
        // nothing is allocated per instruction.
        let mut line = AsmLine::new();
        for instr in &self.instrs {
            line.clear();
            instr.write_asm(&mut line);
            // The line is ASCII, so it is always a `str`.
            sink.str(line.as_str().unwrap_or_default());
        }
        sink.end_seq();
        sink.derived_key("groups", "\"groups\": ");
        self.groups.serialize(sink);
        sink.derived_key("local_init", "\"local_init\": ");
        self.local_init.serialize(sink);
        sink.derived_key("labels", "\"labels\": ");
        self.labels.serialize(sink);
        sink.derived_key("instr_tags", "\"instr_tags\": ");
        self.instr_tags.serialize(sink);
        sink.end_map();
    }
}

impl Deserialize for Program {
    fn deserialize<S: Source>(src: &mut S) -> Result<Program, DeError> {
        const ALL: [&str; 4] = ["format", "cores", "global_init", "meta"];
        fn index(name: &str) -> Option<usize> {
            ALL.iter().position(|&n| n == name)
        }
        const FIELDS: Names = Names { all: &ALL, index };
        src.begin_map("object")?;
        let (mut format, mut cores, mut global_init, mut meta) = (None, None, None, None);
        while let Some(i) = src.next_field(&FIELDS, "Program", false)? {
            match i {
                0 => {
                    field::<u64, S>(&mut format, src, "format")?;
                    if format != Some(FORMAT) {
                        let found = format.unwrap_or_default();
                        return Err(src.error(format_args!(
                            "unknown program format {found}; this build reads format {FORMAT}"
                        )));
                    }
                }
                1 => {
                    if cores.is_some() {
                        return Err(src.error(format_args!("duplicate field `cores`")));
                    }
                    cores = Some(read_cores(src)?);
                }
                2 => field(&mut global_init, src, "global_init")?,
                _ => field(&mut meta, src, "meta")?,
            }
        }
        if format.is_none() {
            return Err(src.error(format_args!(
                "program file has no `format` field, as in format 1; this build \
                 reads format {FORMAT}: {REWRITE}"
            )));
        }
        let missing =
            |src: &mut S, name: &str| src.error(format_args!("missing field `{name}` in Program"));
        Ok(Program {
            cores: cores.ok_or_else(|| missing(src, "cores"))?,
            global_init: global_init.unwrap_or_default(),
            meta: meta.ok_or_else(|| missing(src, "meta"))?,
        })
    }
}

/// Reads the `cores` array, each core knowing its index for its errors.
fn read_cores<S: Source>(src: &mut S) -> Result<Vec<CoreProgram>, DeError> {
    const ALL: [&str; 5] = ["instrs", "groups", "local_init", "labels", "instr_tags"];
    fn index(name: &str) -> Option<usize> {
        ALL.iter().position(|&n| n == name)
    }
    const FIELDS: Names = Names { all: &ALL, index };
    src.begin_seq("array")?;
    let mut cores = Vec::new();
    while src.next_element()? {
        let core = cores.len();
        src.begin_map("object")?;
        let (mut instrs, mut groups, mut local_init) = (None, None, None);
        let (mut labels, mut instr_tags) = (None, None);
        while let Some(i) = src.next_field(&FIELDS, "CoreProgram", false)? {
            match i {
                0 => {
                    if instrs.is_some() {
                        return Err(src.error(format_args!("duplicate field `instrs`")));
                    }
                    instrs = Some(read_instrs(src, core)?);
                }
                1 => field(&mut groups, src, "groups")?,
                2 => field(&mut local_init, src, "local_init")?,
                3 => field(&mut labels, src, "labels")?,
                _ => field(&mut instr_tags, src, "instr_tags")?,
            }
        }
        let missing = |src: &mut S, name: &str| {
            src.error(format_args!("missing field `{name}` in CoreProgram"))
        };
        cores.push(CoreProgram {
            instrs: instrs.ok_or_else(|| missing(src, "instrs"))?,
            groups: groups.ok_or_else(|| missing(src, "groups"))?,
            local_init: local_init.ok_or_else(|| missing(src, "local_init"))?,
            labels: labels.ok_or_else(|| missing(src, "labels"))?,
            instr_tags: instr_tags.unwrap_or_default(),
        });
    }
    Ok(cores)
}

/// Reads core `core`'s `instrs`: one assembly line per instruction, read
/// in place by the assembler.
fn read_instrs<S: Source>(src: &mut S, core: usize) -> Result<Vec<Instruction>, DeError> {
    src.begin_seq("array")?;
    let mut instrs = Vec::new();
    while src.next_element()? {
        let text = match src.str("assembly line") {
            Ok(text) => text,
            Err(e) => {
                return Err(if src.peek() == Ok(Kind::Object) {
                    format1(src)
                } else {
                    e
                })
            }
        };
        match parse_instruction(&text) {
            Ok(instr) => instrs.push(instr),
            Err(e) => {
                let text = text.into_owned();
                // Format 1 spelled the operand-free instructions as strings
                // too.
                if matches!(text.as_str(), "Halt" | "Nop") {
                    return Err(format1(src));
                }
                let msg = match e {
                    IsaError::Parse { msg, .. } => msg,
                    other => other.to_string(),
                };
                let pc = instrs.len();
                return Err(src.error(format_args!("core {core} pc {pc}: {msg} in `{text}`")));
            }
        }
    }
    Ok(instrs)
}

/// The error for an instruction spelled as format 1 did, at it.
#[cold]
fn format1<S: Source>(src: &S) -> DeError {
    src.error(format_args!(
        "instruction in program format 1 (a JSON object per instruction); this \
         build reads format {FORMAT} (one assembly line per instruction): {REWRITE}"
    ))
}

/// The width check as it was written by hand, variant by variant, before
/// the opcode table generated [`Instruction::fits_fields`]:
/// `width_check_matches_the_oracle_at_every_edge` holds the generated one
/// to it, and the assembler oracle in `asm.rs` calls it.
#[cfg(test)]
pub(crate) fn fits_fields(instr: &Instruction) -> Result<(), String> {
    use crate::instr::limits::{
        smax, smin, umax, ADDR_OFFSET_BITS, BLOCK_BITS, CHAN_BITS, CORE_BITS, GROUP_BITS, LEN_BITS,
        STRIDE_BITS, TAG_BITS, TARGET_BITS, VIMM_BITS, WIN_BITS,
    };
    use crate::instr::Addr;
    #[inline(always)]
    fn fits(field: &str, value: i64, min: i64, max: i64) -> Result<(), String> {
        if (min..=max).contains(&value) {
            Ok(())
        } else {
            Err(outside(field, value, min, max))
        }
    }
    #[cold]
    fn outside(field: &str, value: i64, min: i64, max: i64) -> String {
        format!("{field} value {value} outside encodable range [{min}, {max}]")
    }
    let u = |field, value: u32, bits| fits(field, value.into(), 0, umax(bits) as i64);
    let s = |field, value: i32, bits| fits(field, value.into(), smin(bits), smax(bits));
    let a = |field, addr: Addr| s(field, addr.offset(), ADDR_OFFSET_BITS);
    use Instruction::*;
    match *instr {
        Mvm {
            group,
            dst,
            src,
            len,
        } => {
            u("group", group.0.into(), GROUP_BITS)?;
            a("dst offset", dst)?;
            a("src offset", src)?;
            u("len", len, LEN_BITS)
        }
        VBin {
            dst, a: x, b, len, ..
        } => {
            a("dst offset", dst)?;
            a("a offset", x)?;
            a("b offset", b)?;
            u("len", len, LEN_BITS)
        }
        VImm {
            dst, src, imm, len, ..
        } => {
            a("dst offset", dst)?;
            a("src offset", src)?;
            s("imm", imm, VIMM_BITS)?;
            u("len", len, LEN_BITS)
        }
        VUn { dst, src, len, .. } => {
            a("dst offset", dst)?;
            a("src offset", src)?;
            u("len", len, LEN_BITS)
        }
        VFill { dst, value, len } => {
            a("dst offset", dst)?;
            s("value", value, VIMM_BITS)?;
            u("len", len, LEN_BITS)
        }
        VCopy2d {
            dst,
            src,
            block_len,
            blocks,
            src_stride,
            dst_stride,
        } => {
            a("dst offset", dst)?;
            a("src offset", src)?;
            u("block_len", block_len, BLOCK_BITS)?;
            u("blocks", blocks, BLOCK_BITS)?;
            s("src_stride", src_stride, STRIDE_BITS)?;
            s("dst_stride", dst_stride, STRIDE_BITS)
        }
        VPool {
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride,
            ..
        } => {
            a("dst offset", dst)?;
            a("src offset", src)?;
            u("channels", channels, CHAN_BITS)?;
            u("win_w", win_w, WIN_BITS)?;
            u("win_h", win_h, WIN_BITS)?;
            s("row_stride", row_stride, STRIDE_BITS)
        }
        Send {
            peer,
            src,
            len,
            tag,
        } => {
            u("peer", peer.0.into(), CORE_BITS)?;
            a("src offset", src)?;
            u("len", len, LEN_BITS)?;
            u("tag", tag.into(), TAG_BITS)
        }
        Recv {
            peer,
            dst,
            len,
            tag,
        } => {
            u("peer", peer.0.into(), CORE_BITS)?;
            a("dst offset", dst)?;
            u("len", len, LEN_BITS)?;
            u("tag", tag.into(), TAG_BITS)
        }
        Recv2d {
            peer,
            dst,
            block_len,
            blocks,
            dst_stride,
            tag,
        } => {
            u("peer", peer.0.into(), CORE_BITS)?;
            a("dst offset", dst)?;
            u("block_len", block_len, BLOCK_BITS)?;
            u("blocks", blocks, BLOCK_BITS)?;
            s("dst_stride", dst_stride, STRIDE_BITS)?;
            u("tag", tag.into(), TAG_BITS)
        }
        GLoad { dst, gaddr, len } => {
            a("dst offset", dst)?;
            a("gaddr offset", gaddr)?;
            u("len", len, LEN_BITS)
        }
        GStore { gaddr, src, len } => {
            a("gaddr offset", gaddr)?;
            a("src offset", src)?;
            u("len", len, LEN_BITS)
        }
        Branch { target, .. } | Jump { target } => u("target", target, TARGET_BITS),
        SBin { .. } | SImm { .. } | Halt | Nop => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupConfig, WeightMatrix};
    use crate::instr::limits;
    use crate::instr::{Addr, CoreId, GroupId};
    use crate::opcode::{BranchCond, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp, VUnOp};
    use crate::reg::Reg;

    fn limits() -> ProgramLimits {
        ProgramLimits {
            cores: 4,
            xbars_per_core: 8,
            local_mem_elems: 1024,
            global_mem_elems: 1 << 20,
        }
    }

    fn addr(off: i32) -> Addr {
        Addr::new(Reg::R1, off).unwrap()
    }

    #[test]
    fn empty_program_is_valid() {
        let p = Program::with_cores(4);
        assert!(p.validate(&limits()).is_ok());
        assert_eq!(p.total_instructions(), 0);
    }

    #[test]
    fn too_many_cores_rejected() {
        let p = Program::with_cores(5);
        assert!(p.validate(&limits()).is_err());
    }

    #[test]
    fn branch_target_checked() {
        let mut p = Program::with_cores(1);
        p.cores[0].instrs = vec![Instruction::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::R0,
            rs2: Reg::R0,
            target: 9,
        }];
        let e = p.validate(&limits()).unwrap_err();
        assert!(e.to_string().contains("control target"));
    }

    #[test]
    fn mvm_group_reference_checked() {
        let mut p = Program::with_cores(1);
        p.cores[0].instrs = vec![Instruction::Mvm {
            group: GroupId(0),
            dst: addr(0),
            src: addr(64),
            len: 16,
        }];
        assert!(p.validate(&limits()).is_err());

        p.cores[0].groups = vec![GroupConfig::new(GroupId(0), 16, 8, vec![0, 1])];
        assert!(p.validate(&limits()).is_ok());

        // Wrong MVM length.
        p.cores[0].instrs = vec![Instruction::Mvm {
            group: GroupId(0),
            dst: addr(0),
            src: addr(64),
            len: 32,
        }];
        assert!(p.validate(&limits()).is_err());
    }

    #[test]
    fn xbar_budget_and_disjointness() {
        let mut p = Program::with_cores(1);
        p.cores[0].groups = vec![
            GroupConfig::new(GroupId(0), 4, 4, vec![0, 1]),
            GroupConfig::new(GroupId(1), 4, 4, vec![1]),
        ];
        let e = p.validate(&limits()).unwrap_err();
        assert!(e.to_string().contains("more than one group"));

        p.cores[0].groups = vec![GroupConfig::new(GroupId(0), 4, 4, vec![99])];
        assert!(p.validate(&limits()).is_err());
    }

    #[test]
    fn transfer_peer_checked() {
        let mut p = Program::with_cores(2);
        p.cores[0].instrs = vec![Instruction::Send {
            peer: CoreId(0),
            src: addr(0),
            len: 4,
            tag: 1,
        }];
        let e = p.validate(&limits()).unwrap_err();
        assert!(e.to_string().contains("self"));

        p.cores[0].instrs = vec![Instruction::Send {
            peer: CoreId(3),
            src: addr(0),
            len: 4,
            tag: 1,
        }];
        assert!(p.validate(&limits()).is_err());
    }

    #[test]
    fn init_segment_bounds_checked() {
        let mut p = Program::with_cores(1);
        p.cores[0].local_init = vec![(1020, vec![1, 2, 3, 4, 5])];
        assert!(p.validate(&limits()).is_err());
        p.cores[0].local_init = vec![(1020, vec![1, 2, 3, 4])];
        assert!(p.validate(&limits()).is_ok());
    }

    #[test]
    fn group_weight_shape_checked() {
        let mut p = Program::with_cores(1);
        let mut g = GroupConfig::new(GroupId(0), 4, 4, vec![0]);
        g.weights = Some(WeightMatrix::zeros(3, 4)); // wrong shape, bypassing with_weights
        p.cores[0].groups = vec![g];
        assert!(p.validate(&limits()).is_err());
    }

    #[test]
    fn global_init_bounds_checked() {
        let mut p = Program::with_cores(1);
        p.global_init = vec![((1 << 20) - 1, vec![1, 2])];
        assert!(p.validate(&limits()).is_err());
        p.global_init = vec![((1 << 20) - 2, vec![1, 2])];
        assert!(p.validate(&limits()).is_ok());
        // An end past `u64::MAX` must not wrap back into range.
        p.global_init = vec![(u64::MAX, vec![1])];
        let err = p.validate(&limits()).unwrap_err().to_string();
        assert!(err.contains("runs past the 64-bit address space"), "{err}");
    }

    #[test]
    fn tag_vector_length_checked() {
        let mut p = Program::with_cores(1);
        p.cores[0].instrs = vec![Instruction::Nop, Instruction::Halt];
        p.cores[0].instr_tags = vec![1];
        assert!(p.validate(&limits()).is_err());
        p.cores[0].instr_tags = vec![1, 1];
        assert!(p.validate(&limits()).is_ok());
        p.cores[0].instr_tags = vec![];
        assert!(p.validate(&limits()).is_ok());
    }

    /// An address whose offset may be past the field, or `None` past `i32`.
    fn raw_addr(offset: i64) -> Option<Addr> {
        Some(Addr::unchecked(Reg::R1, offset.try_into().ok()?))
    }

    /// `make(v)` is an instruction whose operand `field` holds `v`, or
    /// `None` when the operand's type cannot hold `v`. The field's extremes
    /// pass, and one past either is an error naming the field and its range.
    fn assert_width(
        field: &str,
        bits: u32,
        signed: bool,
        make: impl Fn(i64) -> Option<Instruction>,
    ) {
        let (min, max) = if signed {
            (limits::smin(bits), limits::smax(bits))
        } else {
            (0, limits::umax(bits) as i64)
        };
        for ok in [min, max] {
            let fits = make(ok).map(|instr| instr.fits_fields());
            assert_eq!(fits, Some(Ok(())), "{field} = {ok}");
        }
        for bad in [min - 1, max + 1] {
            if let Some(instr) = make(bad) {
                assert_eq!(
                    instr.fits_fields(),
                    Err(format!(
                        "{field} value {bad} outside encodable range [{min}, {max}]"
                    ))
                );
            }
        }
    }

    #[test]
    fn addr_offset_width_checked() {
        assert_width("dst offset", limits::ADDR_OFFSET_BITS, true, |v| {
            Some(Instruction::VFill {
                dst: raw_addr(v)?,
                value: 0,
                len: 1,
            })
        });
    }

    #[test]
    fn len_width_checked() {
        assert_width("len", limits::LEN_BITS, false, |v| {
            Some(Instruction::GLoad {
                dst: addr(0),
                gaddr: addr(0),
                len: v.try_into().ok()?,
            })
        });
    }

    #[test]
    fn group_width_checked() {
        assert_width("group", limits::GROUP_BITS, false, |v| {
            Some(Instruction::Mvm {
                group: GroupId(v.try_into().ok()?),
                dst: addr(0),
                src: addr(0),
                len: 1,
            })
        });
    }

    #[test]
    fn core_width_checked() {
        assert_width("peer", limits::CORE_BITS, false, |v| {
            Some(Instruction::Send {
                peer: CoreId(v.try_into().ok()?),
                src: addr(0),
                len: 1,
                tag: 0,
            })
        });
    }

    /// A `u16` tag cannot exceed its 16-bit field: only the extremes.
    #[test]
    fn tag_width_checked() {
        assert_width("tag", limits::TAG_BITS, false, |v| {
            Some(Instruction::Recv {
                peer: CoreId(1),
                dst: addr(0),
                len: 1,
                tag: v.try_into().ok()?,
            })
        });
    }

    #[test]
    fn block_width_checked() {
        assert_width("blocks", limits::BLOCK_BITS, false, |v| {
            Some(Instruction::Recv2d {
                peer: CoreId(1),
                dst: addr(0),
                block_len: 1,
                blocks: v.try_into().ok()?,
                dst_stride: 0,
                tag: 0,
            })
        });
    }

    #[test]
    fn stride_width_checked() {
        assert_width("src_stride", limits::STRIDE_BITS, true, |v| {
            Some(Instruction::VCopy2d {
                dst: addr(0),
                src: addr(0),
                block_len: 1,
                blocks: 1,
                src_stride: v.try_into().ok()?,
                dst_stride: 0,
            })
        });
    }

    #[test]
    fn vimm_width_checked() {
        assert_width("imm", limits::VIMM_BITS, true, |v| {
            Some(Instruction::VImm {
                op: VImmOp::Add,
                dst: addr(0),
                src: addr(0),
                imm: v.try_into().ok()?,
                len: 1,
            })
        });
    }

    #[test]
    fn target_width_checked() {
        assert_width("target", limits::TARGET_BITS, false, |v| {
            Some(Instruction::Jump {
                target: v.try_into().ok()?,
            })
        });
    }

    #[test]
    fn win_width_checked() {
        assert_width("win_h", limits::WIN_BITS, false, |v| {
            Some(Instruction::VPool {
                op: PoolOp::Max,
                dst: addr(0),
                src: addr(0),
                channels: 1,
                win_w: 1,
                win_h: v.try_into().ok()?,
                row_stride: 0,
            })
        });
    }

    #[test]
    fn chan_width_checked() {
        assert_width("channels", limits::CHAN_BITS, false, |v| {
            Some(Instruction::VPool {
                op: PoolOp::Avg,
                dst: addr(0),
                src: addr(0),
                channels: v.try_into().ok()?,
                win_w: 1,
                win_h: 1,
                row_stride: 0,
            })
        });
    }

    /// A field's value from an `i64`, `None` past its type; an address
    /// offset may pass its field.
    trait Edge: Sized {
        fn edge(v: i64) -> Option<Self>;
    }

    impl Edge for u32 {
        fn edge(v: i64) -> Option<u32> {
            v.try_into().ok()
        }
    }

    impl Edge for i32 {
        fn edge(v: i64) -> Option<i32> {
            v.try_into().ok()
        }
    }

    impl Edge for u16 {
        fn edge(v: i64) -> Option<u16> {
            v.try_into().ok()
        }
    }

    impl Edge for Addr {
        fn edge(v: i64) -> Option<Addr> {
            raw_addr(v)
        }
    }

    impl Edge for GroupId {
        fn edge(v: i64) -> Option<GroupId> {
            u16::edge(v).map(GroupId)
        }
    }

    impl Edge for CoreId {
        fn edge(v: i64) -> Option<CoreId> {
            u16::edge(v).map(CoreId)
        }
    }

    /// Sets one integer field of an instruction to a value, or `None` when
    /// its type cannot hold it.
    type Setter = fn(&mut Instruction, i64) -> Option<()>;

    /// Each variant's instruction with every field valid, and a setter per
    /// integer field named.
    macro_rules! variants {
        ($($variant:ident $base:tt [$($field:ident)*];)*) => {
            [$((Instruction::$variant $base, vec![$((|instr: &mut Instruction, v: i64| {
                if let Instruction::$variant { $field, .. } = instr {
                    *$field = Edge::edge(v)?;
                }
                Some(())
            }) as Setter),*])),*]
        };
    }

    /// The generated width check gives the hand-written one's verdict,
    /// error text included, on every variant: with each integer field at
    /// both edges of every width in `limits` and one past each, and with
    /// all of a variant's fields there at once (the first error in text
    /// order).
    #[test]
    fn width_check_matches_the_oracle_at_every_edge() {
        let (a, r) = (addr(0), Reg::R1);
        let all = variants! {
            Mvm {group: GroupId(0), dst: a, src: a, len: 1} [group dst src len];
            VBin {op: VBinOp::Add, dst: a, a, b: a, len: 1} [dst a b len];
            VImm {op: VImmOp::Add, dst: a, src: a, imm: 1, len: 1} [dst src imm len];
            VUn {op: VUnOp::Relu, dst: a, src: a, len: 1} [dst src len];
            VFill {dst: a, value: 1, len: 1} [dst value len];
            VCopy2d {
                dst: a, src: a, block_len: 1, blocks: 1, src_stride: 1, dst_stride: 1
            } [dst src block_len blocks src_stride dst_stride];
            VPool {
                op: PoolOp::Max, dst: a, src: a, channels: 1, win_w: 1, win_h: 1, row_stride: 1
            } [dst src channels win_w win_h row_stride];
            Send {peer: CoreId(1), src: a, len: 1, tag: 1} [peer src len tag];
            Recv {peer: CoreId(1), dst: a, len: 1, tag: 1} [peer dst len tag];
            Recv2d {
                peer: CoreId(1), dst: a, block_len: 1, blocks: 1, dst_stride: 1, tag: 1
            } [peer dst block_len blocks dst_stride tag];
            GLoad {dst: a, gaddr: a, len: 1} [dst gaddr len];
            GStore {gaddr: a, src: a, len: 1} [gaddr src len];
            SBin {op: SBinOp::Add, rd: r, rs1: r, rs2: r} [];
            SImm {op: SImmOp::Add, rd: r, rs1: r, imm: 1} [imm];
            Branch {cond: BranchCond::Eq, rs1: r, rs2: r, target: 1} [target];
            Jump {target: 1} [target];
            Halt {} [];
            Nop {} [];
        };
        let mut values = vec![i32::MIN.into(), i32::MAX.into(), u32::MAX.into()];
        for bits in [
            limits::ADDR_OFFSET_BITS,
            limits::LEN_BITS,
            limits::GROUP_BITS,
            limits::CORE_BITS,
            limits::TAG_BITS,
            limits::BLOCK_BITS,
            limits::STRIDE_BITS,
            limits::VIMM_BITS,
            limits::TARGET_BITS,
            limits::WIN_BITS,
            limits::CHAN_BITS,
        ] {
            let (smin, smax) = (limits::smin(bits), limits::smax(bits));
            let umax = limits::umax(bits) as i64;
            values.extend([smin - 1, smin, smax, smax + 1, -1, 0, umax, umax + 1]);
        }
        let mut variants = std::collections::HashSet::new();
        let mut rejected = std::collections::HashSet::new();
        for (base, setters) in &all {
            variants.insert(std::mem::discriminant(base));
            for &v in &values {
                let mut every = *base;
                for (field, set) in setters.iter().enumerate() {
                    let mut one = *base;
                    if set(&mut one, v).is_some() {
                        assert_eq!(one.fits_fields(), fits_fields(&one), "{one:?}");
                        if one.fits_fields().is_err() {
                            rejected.insert((std::mem::discriminant(base), field));
                        }
                    }
                    let _ = set(&mut every, v);
                }
                assert_eq!(every.fits_fields(), fits_fields(&every), "{every:?}");
            }
        }
        assert_eq!(variants.len(), 18, "every variant");
        // Every field reached past its width, but the scalar `imm` and the
        // three `u16` tags, which their types bound.
        assert_eq!(rejected.len(), 49);
    }

    /// What `validate` makes of a field past its width: an error at the
    /// instruction's core and pc.
    #[test]
    fn field_past_its_width_is_a_located_validate_error() {
        let mut p = Program::with_cores(2);
        p.cores[1].instrs = vec![Instruction::Nop];
        p.cores[1]
            .instrs
            .extend(raw_addr(5_000_000).map(|gaddr| Instruction::GLoad {
                dst: addr(0),
                gaddr,
                len: 4,
            }));
        let e = p.validate(&limits()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid program for core 1 at pc 1: gaddr offset value 5000000 \
             outside encodable range [-2097152, 2097151]"
        );
        assert!(matches!(
            e,
            IsaError::Validate {
                core: Some(1),
                pc: Some(1),
                ..
            }
        ));
    }

    #[test]
    fn json_roundtrip() {
        let mut p = Program::with_cores(2);
        p.meta.name = "demo".into();
        p.cores[1].instrs = vec![Instruction::Halt];
        p.cores[1].labels.insert("end".into(), 0);
        let text = p.to_json();
        let back = Program::from_json(&text).unwrap();
        assert_eq!(back, p);
    }

    /// A one-core program file: `format` (a member and its comma, or
    /// nothing) on line 2 and the instruction array `instrs` on line 4.
    fn file(format: &str, instrs: &str) -> String {
        format!(
            "{{\n  {format}\n  \"cores\": [{{\n    \"instrs\": [{instrs}],\n    \
             \"groups\": [], \"local_init\": [], \"labels\": {{}}}}],\n  \
             \"meta\": {{\"name\": \"t\", \"mapping\": \"\", \"notes\": \"\"}}\n}}\n"
        )
    }

    fn read_error(text: &str) -> String {
        match Program::from_json(text) {
            Ok(p) => panic!("read {p:?} from {text}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn program_file_reads_its_lines() {
        let p = Program::from_json(&file("\"format\": 2,", "\"li r1, 0x10\", \"halt\""));
        let instrs = p.map(|p| p.cores[0].instrs.clone());
        assert_eq!(
            instrs,
            Ok(vec![
                Instruction::SImm {
                    op: crate::SImmOp::Add,
                    rd: Reg::R1,
                    rs1: Reg::R0,
                    imm: 16,
                },
                Instruction::Halt
            ])
        );
    }

    #[test]
    fn malformed_instruction_is_located_with_the_assemblers_message() {
        let text = file("\"format\": 2,", "\"nop\", \"vadd [r0+0], x, [r0+1], 4\"");
        assert_eq!(
            read_error(&text),
            "parse error: core 0 pc 1: expected address like [r1+8], got `x` \
             in `vadd [r0+0], x, [r0+1], 4` at line 4 column 23"
        );
        // An operand past its field is refused as the assembler refuses it.
        let text = file("\"format\": 2,", "\"gload [r0+0], g[r0+0], 300000\"");
        assert_eq!(
            read_error(&text),
            "parse error: core 0 pc 0: len value 300000 outside encodable range \
             [0, 262143] in `gload [r0+0], g[r0+0], 300000` at line 4 column 16"
        );
    }

    #[test]
    fn format_1_instructions_are_refused_with_the_way_to_rewrite_them() {
        let want = |column| {
            format!(
                "parse error: instruction in program format 1 (a JSON object per \
                 instruction); this build reads format 2 (one assembly line per \
                 instruction): {REWRITE} at line 4 column {column}"
            )
        };
        let object = r#""nop", {"Jump": {"target": 0}}"#;
        assert_eq!(read_error(&file("\"format\": 2,", object)), want(23));
        // Format 1 spelled `halt` and `nop` as bare strings.
        assert_eq!(read_error(&file("", "\"Halt\"")), want(16));
    }

    #[test]
    fn a_missing_or_unknown_format_is_located() {
        assert_eq!(
            read_error(&file("", "\"halt\"")),
            format!(
                "parse error: program file has no `format` field, as in format 1; \
                 this build reads format 2: {REWRITE} at line 7 column 1"
            )
        );
        assert_eq!(
            read_error(&file("\"format\": 3,", "\"halt\"")),
            "parse error: unknown program format 3; this build reads format 2 \
             at line 2 column 13"
        );
    }

    #[test]
    fn malformed_json_is_parse_error() {
        assert!(matches!(
            Program::from_json("{not json"),
            Err(IsaError::Parse { .. })
        ));
    }

    #[test]
    fn class_histogram_counts() {
        let cp = CoreProgram {
            groups: vec![GroupConfig::new(GroupId(0), 4, 4, vec![0])],
            instrs: vec![
                Instruction::Nop,
                Instruction::Halt,
                Instruction::VFill {
                    dst: addr(0),
                    value: 1,
                    len: 4,
                },
            ],
            ..CoreProgram::default()
        };
        assert_eq!(cp.class_histogram(), [0, 1, 0, 2]);
        assert!(!cp.is_empty());
    }
}
