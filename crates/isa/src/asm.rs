//! Textual assembler and disassembler.
//!
//! The assembly syntax is exactly what [`Instruction`]'s `Display` impl
//! prints, plus:
//!
//! * `;` / `#` line comments,
//! * `label:` definitions and label operands for `jmp`/branches,
//! * `li rd, imm` sugar for `addi rd, r0, imm`,
//! * directives: `.core N` (select the core being assembled), `.group ID
//!   in=N out=M xbars=0,1,2` (define a crossbar group), `.init START
//!   v0,v1,...` (preload local memory).
//!
//! Each op mnemonic is written once, in `instr.rs`: an op enum's
//! `mnemonic()` (what `Display` prints) beside its `ALL` table, which the
//! parser searches (for example [`VBinOp::ALL`] for `vadd`). Operands are
//! separated by commas, and an empty operand (`add r1,, r2` or a trailing
//! comma) is an error naming the mnemonic and the operand's position.
//!
//! ```rust
//! use pimsim_isa::asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asm::assemble(r#"
//!     .core 0
//!     .group 0 in=4 out=4 xbars=0
//!     li   r1, 3
//! loop:
//!     mvm  g0, [r2+0], [r3+0], 4
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     halt
//! "#)?;
//! assert_eq!(program.cores[0].instrs.len(), 5);
//! let text = asm::disassemble(&program);
//! let again = asm::assemble(&text)?;
//! assert_eq!(again.cores[0].instrs, program.cores[0].instrs);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::IsaError;
use crate::group::GroupConfig;
use crate::instr::{
    Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp, VUnOp,
};
use crate::program::{fits_fields, CoreProgram, Program, ProgramMeta};
use crate::reg::Reg;

fn perr(line: usize, msg: impl Into<String>) -> IsaError {
    IsaError::Parse {
        line,
        msg: msg.into(),
    }
}

/// One instruction's comma-separated operands, taken in order.
struct Operands<'a> {
    items: std::str::Split<'a, char>,
    taken: usize,
    line: usize,
    mnemonic: &'a str,
    /// The label a branch target named, for [`assemble`] to patch.
    label: Option<&'a str>,
}

impl<'a> Operands<'a> {
    /// Splits `rest` on commas (no nesting in this syntax); an empty
    /// operand is an error.
    fn new(mnemonic: &'a str, rest: &'a str, line: usize) -> Result<Self, IsaError> {
        let mut items = rest.split(',');
        if rest.is_empty() {
            items.next(); // no operands at all
        }
        if let Some(i) = items.clone().position(|s| s.trim().is_empty()) {
            let msg = format!("`{mnemonic}` operand {} is empty", i + 1);
            return Err(perr(line, msg));
        }
        Ok(Operands {
            items,
            taken: 0,
            line,
            mnemonic,
            label: None,
        })
    }

    fn take(&mut self) -> Result<&'a str, IsaError> {
        let item = self.items.next().ok_or_else(|| {
            perr(
                self.line,
                format!("`{}` is missing operand {}", self.mnemonic, self.taken + 1),
            )
        })?;
        self.taken += 1;
        Ok(item.trim())
    }

    /// Checks that every operand was taken; returns the label a branch
    /// target named, if any.
    fn finish(self) -> Result<Option<&'a str>, IsaError> {
        match self.items.count() {
            0 => Ok(self.label),
            extra => Err(perr(
                self.line,
                format!("`{}` has {extra} extra operand(s)", self.mnemonic),
            )),
        }
    }

    /// Takes the next operand and parses it with `parse`, or reports
    /// "expected {expected}, got `{token}`".
    fn parsed<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<T, IsaError> {
        let tok = self.take()?;
        parse(tok).ok_or_else(|| perr(self.line, format!("expected {expected}, got `{tok}`")))
    }

    fn reg(&mut self) -> Result<Reg, IsaError> {
        self.parsed(|t| t.parse().ok(), "register")
    }

    fn u32(&mut self) -> Result<u32, IsaError> {
        let v = self.parsed(parse_int, "integer")?;
        u32::try_from(v).map_err(|_| perr(self.line, format!("expected unsigned value, got {v}")))
    }

    fn i32(&mut self) -> Result<i32, IsaError> {
        let v = self.parsed(parse_int, "integer")?;
        i32::try_from(v).map_err(|_| perr(self.line, format!("immediate {v} does not fit 32 bits")))
    }

    fn addr(&mut self) -> Result<Addr, IsaError> {
        self.parsed(|t| parse_addr(t, false), "address like [r1+8]")
    }

    fn gaddr(&mut self) -> Result<Addr, IsaError> {
        self.parsed(|t| parse_addr(t, true), "global address like g[r1+8]")
    }

    fn core(&mut self) -> Result<CoreId, IsaError> {
        let id = |t: &str| t.strip_prefix("core").unwrap_or(t).parse().ok();
        Ok(CoreId(self.parsed(id, "core id")?))
    }

    fn group(&mut self) -> Result<GroupId, IsaError> {
        let id = |t: &str| t.strip_prefix('g')?.parse().ok();
        Ok(GroupId(self.parsed(id, "group like g3")?))
    }

    /// Parses `key=value` returning the integer value.
    fn kv_int(&mut self, key: &str) -> Result<i64, IsaError> {
        let tok = self.take()?;
        let val = tok
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| perr(self.line, format!("expected `{key}=<value>`, got `{tok}`")))?;
        parse_int(val).ok_or_else(|| perr(self.line, format!("bad integer in `{tok}`")))
    }

    fn kv_u32(&mut self, key: &str) -> Result<u32, IsaError> {
        let v = self.kv_int(key)?;
        u32::try_from(v).map_err(|_| perr(self.line, format!("`{key}` must be unsigned, got {v}")))
    }

    fn kv_i32(&mut self, key: &str) -> Result<i32, IsaError> {
        let v = self.kv_int(key)?;
        i32::try_from(v).map_err(|_| perr(self.line, format!("`{key}` value {v} does not fit")))
    }

    fn kv_u16(&mut self, key: &str) -> Result<u16, IsaError> {
        let v = self.kv_int(key)?;
        u16::try_from(v).map_err(|_| perr(self.line, format!("`{key}` value {v} does not fit u16")))
    }

    /// Parses `win=WxH`.
    fn kv_window(&mut self) -> Result<(u32, u32), IsaError> {
        let tok = self.take()?;
        let (w, h) = tok
            .strip_prefix("win=")
            .and_then(|v| v.split_once('x'))
            .ok_or_else(|| perr(self.line, format!("expected `win=WxH`, got `{tok}`")))?;
        let bad = || perr(self.line, format!("bad window `{tok}`"));
        Ok((w.parse().map_err(|_| bad())?, h.parse().map_err(|_| bad())?))
    }

    /// Parses a branch target: a number, or a label name that reads as
    /// target 0 until [`assemble`] patches it.
    fn target(&mut self) -> Result<u32, IsaError> {
        let tok = self.take()?;
        match parse_int(tok) {
            Some(v) => u32::try_from(v)
                .map_err(|_| perr(self.line, format!("branch target {v} out of range"))),
            None => {
                self.label = Some(tok);
                Ok(0)
            }
        }
    }
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = s.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        s.parse().ok()
    }
}

/// Parses `[rN+OFF]`, `[rN-OFF]`, `[rN]`; with `global`, requires `g` prefix.
fn parse_addr(tok: &str, global: bool) -> Option<Addr> {
    let tok = if global { tok.strip_prefix('g')? } else { tok };
    let inner = tok.strip_prefix('[')?.strip_suffix(']')?;
    let (reg_part, off) = if let Some(i) = inner.find('+') {
        (&inner[..i], parse_int(&inner[i + 1..])?)
    } else if let Some(i) = inner.rfind('-') {
        if i == 0 {
            return None;
        }
        (&inner[..i], -parse_int(&inner[i + 1..])?)
    } else {
        (inner, 0)
    };
    let base: Reg = reg_part.trim().parse().ok()?;
    Addr::new(base, i32::try_from(off).ok()?).ok()
}

/// Parses one instruction in canonical syntax. Branch/jump targets must be
/// numeric here; use [`assemble`] for label support.
///
/// # Errors
///
/// Returns [`IsaError::Parse`] describing the first problem found, an
/// operand past its field width ([`crate::limits`]) included.
pub fn parse_instruction(text: &str) -> Result<Instruction, IsaError> {
    match parse_line(text, 0)? {
        (instr, None) => {
            fits_fields(&instr).map_err(|msg| perr(0, msg))?;
            Ok(instr)
        }
        (_, Some(_)) => Err(perr(
            0,
            "label targets are only supported inside full programs",
        )),
    }
}

/// The op of `mnemonic` in an op enum's `ALL` table.
fn lookup<T: Copy>(all: &[T], name: fn(T) -> &'static str, mnemonic: &str) -> Option<T> {
    all.iter().copied().find(|&op| name(op) == mnemonic)
}

/// Parses one instruction, returning beside it the label its branch
/// target names (the target then reads 0).
fn parse_line(text: &str, line: usize) -> Result<(Instruction, Option<&str>), IsaError> {
    let text = text.trim();
    let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let mut ops = Operands::new(mnemonic, rest, line)?;
    use Instruction::*;
    let instr = match mnemonic {
        "nop" => Nop,
        "halt" => Halt,
        "jmp" => Jump {
            target: ops.target()?,
        },
        "li" => SImm {
            op: SImmOp::Add,
            rd: ops.reg()?,
            rs1: Reg::R0,
            imm: ops.i32()?,
        },
        "mvm" => Mvm {
            group: ops.group()?,
            dst: ops.addr()?,
            src: ops.addr()?,
            len: ops.u32()?,
        },
        "vfill" => VFill {
            dst: ops.addr()?,
            value: ops.i32()?,
            len: ops.u32()?,
        },
        "vcopy2d" => VCopy2d {
            dst: ops.addr()?,
            src: ops.addr()?,
            block_len: ops.kv_u32("block")?,
            blocks: ops.kv_u32("blocks")?,
            src_stride: ops.kv_i32("sstride")?,
            dst_stride: ops.kv_i32("dstride")?,
        },
        "send" => Send {
            peer: ops.core()?,
            src: ops.addr()?,
            len: ops.u32()?,
            tag: ops.kv_u16("tag")?,
        },
        "recv" => Recv {
            peer: ops.core()?,
            dst: ops.addr()?,
            len: ops.u32()?,
            tag: ops.kv_u16("tag")?,
        },
        "recv2d" => Recv2d {
            peer: ops.core()?,
            dst: ops.addr()?,
            block_len: ops.kv_u32("block")?,
            blocks: ops.kv_u32("blocks")?,
            dst_stride: ops.kv_i32("dstride")?,
            tag: ops.kv_u16("tag")?,
        },
        "gload" => GLoad {
            dst: ops.addr()?,
            gaddr: ops.gaddr()?,
            len: ops.u32()?,
        },
        "gstore" => GStore {
            gaddr: ops.gaddr()?,
            src: ops.addr()?,
            len: ops.u32()?,
        },
        m => {
            if let Some(cond) = lookup(&BranchCond::ALL, BranchCond::mnemonic, m) {
                Branch {
                    cond,
                    rs1: ops.reg()?,
                    rs2: ops.reg()?,
                    target: ops.target()?,
                }
            } else if let Some(op) = lookup(&SBinOp::ALL, SBinOp::mnemonic, m) {
                SBin {
                    op,
                    rd: ops.reg()?,
                    rs1: ops.reg()?,
                    rs2: ops.reg()?,
                }
            } else if let Some(op) = lookup(&SImmOp::ALL, SImmOp::mnemonic, m) {
                SImm {
                    op,
                    rd: ops.reg()?,
                    rs1: ops.reg()?,
                    imm: ops.i32()?,
                }
            } else if let Some(op) = lookup(&VBinOp::ALL, VBinOp::mnemonic, m) {
                VBin {
                    op,
                    dst: ops.addr()?,
                    a: ops.addr()?,
                    b: ops.addr()?,
                    len: ops.u32()?,
                }
            } else if let Some(op) = lookup(&VImmOp::ALL, VImmOp::mnemonic, m) {
                VImm {
                    op,
                    dst: ops.addr()?,
                    src: ops.addr()?,
                    imm: ops.i32()?,
                    len: ops.u32()?,
                }
            } else if let Some(op) = lookup(&VUnOp::ALL, VUnOp::mnemonic, m) {
                VUn {
                    op,
                    dst: ops.addr()?,
                    src: ops.addr()?,
                    len: ops.u32()?,
                }
            } else if let Some(op) = lookup(&PoolOp::ALL, PoolOp::mnemonic, m) {
                let (dst, src, channels) = (ops.addr()?, ops.addr()?, ops.kv_u32("ch")?);
                let (win_w, win_h) = ops.kv_window()?;
                VPool {
                    op,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride: ops.kv_i32("rstride")?,
                }
            } else {
                return Err(perr(line, format!("unknown mnemonic `{m}`")));
            }
        }
    };
    Ok((instr, ops.finish()?))
}

/// Assembles a full multi-core program.
///
/// # Errors
///
/// Returns [`IsaError::Parse`] with a 1-based line number on the first
/// syntax problem or operand past its field width ([`crate::limits`]), or
/// an undefined-label error at the end of assembly.
pub fn assemble(text: &str) -> Result<Program, IsaError> {
    #[derive(Default)]
    struct CoreBuild<'a> {
        instrs: Vec<Instruction>,
        groups: Vec<GroupConfig>,
        local_init: Vec<(u32, Vec<i32>)>,
        labels: BTreeMap<String, u32>,
        /// `(instruction slot, label, line)` of each label target.
        fixups: Vec<(usize, &'a str, usize)>,
    }

    let mut cores: BTreeMap<u16, CoreBuild> = BTreeMap::new();
    let mut current: u16 = 0;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Strip comments.
        let mut line = raw;
        for marker in [';', '#'] {
            if let Some(i) = line.find(marker) {
                line = &line[..i];
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix(".core") {
            current = rest
                .trim()
                .parse()
                .map_err(|_| perr(lineno, format!("bad `.core` directive `{line}`")))?;
            cores.entry(current).or_default();
            continue;
        }
        if let Some(rest) = line.strip_prefix(".group") {
            // .group ID in=N out=M xbars=a,b,c
            let core = cores.entry(current).or_default();
            let mut parts = rest.split_whitespace();
            let id: u16 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| perr(lineno, "`.group` needs a numeric id"))?;
            let mut input_len = None;
            let mut output_len = None;
            let mut xbars = None;
            for p in parts {
                if let Some(v) = p.strip_prefix("in=") {
                    input_len = v.parse::<u32>().ok();
                } else if let Some(v) = p.strip_prefix("out=") {
                    output_len = v.parse::<u32>().ok();
                } else if let Some(v) = p.strip_prefix("xbars=") {
                    let ids: Option<Vec<u32>> = v.split(',').map(|x| x.parse().ok()).collect();
                    xbars = ids;
                } else {
                    return Err(perr(lineno, format!("unknown `.group` field `{p}`")));
                }
            }
            let (Some(i), Some(o), Some(x)) = (input_len, output_len, xbars) else {
                return Err(perr(lineno, "`.group` needs in=, out= and xbars="));
            };
            if core.groups.len() != id as usize {
                return Err(perr(
                    lineno,
                    format!(
                        "group ids must be dense and in order; expected {}, got {id}",
                        core.groups.len()
                    ),
                ));
            }
            core.groups.push(GroupConfig::new(GroupId(id), i, o, x));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".init") {
            let core = cores.entry(current).or_default();
            let (start, values) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| perr(lineno, "`.init` needs a start and values"))?;
            let start: u32 = parse_int(start)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| perr(lineno, "bad `.init` start address"))?;
            let values: Option<Vec<i32>> = values
                .split(',')
                .map(|v| parse_int(v).and_then(|x| i32::try_from(x).ok()))
                .collect();
            let values = values.ok_or_else(|| perr(lineno, "bad `.init` value list"))?;
            core.local_init.push((start, values));
            continue;
        }
        if line.starts_with('.') {
            return Err(perr(lineno, format!("unknown directive `{line}`")));
        }

        let core = cores.entry(current).or_default();
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || label.chars().any(|c| c.is_whitespace()) {
                return Err(perr(lineno, format!("bad label `{line}`")));
            }
            let pc = core.instrs.len() as u32;
            if core.labels.insert(label.to_string(), pc).is_some() {
                return Err(perr(lineno, format!("duplicate label `{label}`")));
            }
            continue;
        }

        let (instr, label) = parse_line(line, lineno)?;
        fits_fields(&instr).map_err(|msg| perr(lineno, msg))?;
        if let Some(label) = label {
            core.fixups.push((core.instrs.len(), label, lineno));
        }
        core.instrs.push(instr);
    }

    // Patch label targets and build the program.
    let max_core = cores
        .keys()
        .next_back()
        .map(|&c| c as usize + 1)
        .unwrap_or(0);
    let mut program = Program::with_cores(max_core);
    program.meta = ProgramMeta {
        name: "assembled".into(),
        mapping: String::new(),
        notes: String::new(),
    };
    for (cid, build) in cores {
        let CoreBuild {
            mut instrs,
            groups,
            local_init,
            labels,
            fixups,
        } = build;
        for (at, label, lineno) in fixups {
            let pc = *labels
                .get(label)
                .ok_or_else(|| perr(lineno, format!("undefined label `{label}`")))?;
            if let Instruction::Jump { target } | Instruction::Branch { target, .. } =
                &mut instrs[at]
            {
                *target = pc;
            }
        }
        program.cores[cid as usize] = CoreProgram {
            instrs,
            groups,
            local_init,
            labels,
            instr_tags: Vec::new(),
        };
    }
    Ok(program)
}

/// Disassembles a program back to assembly text. Group weight matrices are
/// not representable in assembly and are noted in a comment; everything else
/// (including labels) re-assembles to an identical program.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    if !program.meta.name.is_empty() {
        let _ = writeln!(out, "; program: {}", program.meta.name);
    }
    if !program.meta.mapping.is_empty() {
        let _ = writeln!(out, "; mapping: {}", program.meta.mapping);
    }
    for (cid, core) in program.cores.iter().enumerate() {
        if core.is_empty() && core.groups.is_empty() && core.local_init.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n.core {cid}");
        for g in &core.groups {
            let xbars: Vec<String> = g.xbar_ids.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(
                out,
                ".group {} in={} out={} xbars={}{}",
                g.id.0,
                g.input_len,
                g.output_len,
                xbars.join(","),
                if g.weights.is_some() {
                    " ; weights elided"
                } else {
                    ""
                }
            );
        }
        for (start, values) in &core.local_init {
            let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, ".init {start} {}", vals.join(","));
        }
        // Invert labels: pc -> names.
        let mut by_pc: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &pc) in &core.labels {
            by_pc.entry(pc).or_default().push(name);
        }
        for (pc, instr) in core.instrs.iter().enumerate() {
            if let Some(names) = by_pc.get(&(pc as u32)) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "    {instr}");
        }
        if let Some(names) = by_pc.get(&(core.instrs.len() as u32)) {
            for n in names {
                let _ = writeln!(out, "{n}:");
            }
        }
    }
    out
}

#[cfg(test)]
#[path = "../tests/support/instructions.rs"]
pub(crate) mod instructions;

/// The parser as it stood before each op mnemonic moved into its enum's
/// `ALL` table: a `match` per op family, and boxed label builders beside
/// the numeric path. The differential tests hold [`parse_line`] to it.
#[cfg(test)]
mod oracle {
    use super::{parse_addr, parse_int, perr};
    use crate::error::IsaError;
    use crate::instr::{
        Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp,
        VUnOp,
    };
    use crate::reg::Reg;

    /// A branch/jump target that may still be symbolic.
    #[derive(Debug, Clone)]
    enum Target {
        Absolute(u32),
        Label(String),
    }

    /// Splits an operand list on top-level commas (no nesting in this syntax).
    fn split_operands(rest: &str) -> Vec<String> {
        rest.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    }

    struct Operands<'a> {
        items: Vec<String>,
        next: usize,
        line: usize,
        mnemonic: &'a str,
    }

    impl<'a> Operands<'a> {
        fn new(mnemonic: &'a str, rest: &str, line: usize) -> Self {
            Operands {
                items: split_operands(rest),
                next: 0,
                line,
                mnemonic,
            }
        }

        fn take(&mut self) -> Result<String, IsaError> {
            let item = self.items.get(self.next).cloned().ok_or_else(|| {
                perr(
                    self.line,
                    format!("`{}` is missing operand {}", self.mnemonic, self.next + 1),
                )
            })?;
            self.next += 1;
            Ok(item)
        }

        fn finish(self) -> Result<(), IsaError> {
            if self.next != self.items.len() {
                return Err(perr(
                    self.line,
                    format!(
                        "`{}` has {} extra operand(s)",
                        self.mnemonic,
                        self.items.len() - self.next
                    ),
                ));
            }
            Ok(())
        }

        fn reg(&mut self) -> Result<Reg, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            tok.parse()
                .map_err(|_| perr(line, format!("expected register, got `{tok}`")))
        }

        fn int(&mut self) -> Result<i64, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            parse_int(&tok).ok_or_else(|| perr(line, format!("expected integer, got `{tok}`")))
        }

        fn u32(&mut self) -> Result<u32, IsaError> {
            let line = self.line;
            let v = self.int()?;
            u32::try_from(v).map_err(|_| perr(line, format!("expected unsigned value, got {v}")))
        }

        fn i32(&mut self) -> Result<i32, IsaError> {
            let line = self.line;
            let v = self.int()?;
            i32::try_from(v).map_err(|_| perr(line, format!("immediate {v} does not fit 32 bits")))
        }

        fn addr(&mut self) -> Result<Addr, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            parse_addr(&tok, false)
                .ok_or_else(|| perr(line, format!("expected address like [r1+8], got `{tok}`")))
        }

        fn gaddr(&mut self) -> Result<Addr, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            parse_addr(&tok, true).ok_or_else(|| {
                perr(
                    line,
                    format!("expected global address like g[r1+8], got `{tok}`"),
                )
            })
        }

        fn core(&mut self) -> Result<CoreId, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            let digits = tok.strip_prefix("core").unwrap_or(&tok);
            let id: u16 = digits
                .parse()
                .map_err(|_| perr(line, format!("expected core id, got `{tok}`")))?;
            Ok(CoreId(id))
        }

        fn group(&mut self) -> Result<GroupId, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            let digits = tok
                .strip_prefix('g')
                .ok_or_else(|| perr(line, format!("expected group like g3, got `{tok}`")))?;
            let id: u16 = digits
                .parse()
                .map_err(|_| perr(line, format!("expected group like g3, got `{tok}`")))?;
            Ok(GroupId(id))
        }

        /// Parses `key=value` returning the integer value.
        fn kv_int(&mut self, key: &str) -> Result<i64, IsaError> {
            let line = self.line;
            let tok = self.take()?;
            let val = tok
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix('='))
                .ok_or_else(|| perr(line, format!("expected `{key}=<value>`, got `{tok}`")))?;
            parse_int(val).ok_or_else(|| perr(line, format!("bad integer in `{tok}`")))
        }

        fn kv_u32(&mut self, key: &str) -> Result<u32, IsaError> {
            let line = self.line;
            let v = self.kv_int(key)?;
            u32::try_from(v).map_err(|_| perr(line, format!("`{key}` must be unsigned, got {v}")))
        }

        fn kv_i32(&mut self, key: &str) -> Result<i32, IsaError> {
            let line = self.line;
            let v = self.kv_int(key)?;
            i32::try_from(v).map_err(|_| perr(line, format!("`{key}` value {v} does not fit")))
        }

        fn kv_u16(&mut self, key: &str) -> Result<u16, IsaError> {
            let line = self.line;
            let v = self.kv_int(key)?;
            u16::try_from(v).map_err(|_| perr(line, format!("`{key}` value {v} does not fit u16")))
        }

        /// Parses `win=WxH`.
        fn kv_window(&mut self) -> Result<(u32, u32), IsaError> {
            let line = self.line;
            let tok = self.take()?;
            let val = tok
                .strip_prefix("win=")
                .ok_or_else(|| perr(line, format!("expected `win=WxH`, got `{tok}`")))?;
            let (w, h) = val
                .split_once('x')
                .ok_or_else(|| perr(line, format!("expected `win=WxH`, got `{tok}`")))?;
            let w: u32 = w
                .parse()
                .map_err(|_| perr(line, format!("bad window `{tok}`")))?;
            let h: u32 = h
                .parse()
                .map_err(|_| perr(line, format!("bad window `{tok}`")))?;
            Ok((w, h))
        }

        /// Parses a branch target: a number or a label name.
        fn target(&mut self) -> Result<Target, IsaError> {
            let tok = self.take()?;
            if let Some(v) = parse_int(&tok) {
                let line = self.line;
                let t = u32::try_from(v)
                    .map_err(|_| perr(line, format!("branch target {v} out of range")))?;
                Ok(Target::Absolute(t))
            } else {
                Ok(Target::Label(tok))
            }
        }
    }

    enum Parsed {
        Instr(Instruction),
        /// Branch awaiting label resolution: (builder, label).
        NeedsLabel(Box<dyn FnOnce(u32) -> Instruction>, String),
    }

    fn parse_instruction_inner(text: &str, line: usize) -> Result<(Parsed, ()), IsaError> {
        let text = text.trim();
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r),
            None => (text, ""),
        };
        let mut ops = Operands::new(mnemonic, rest, line);
        use Instruction::*;
        let instr = match mnemonic {
            "nop" => Nop,
            "halt" => Halt,
            "jmp" => match ops.target()? {
                Target::Absolute(t) => Jump { target: t },
                Target::Label(l) => {
                    ops.finish()?;
                    return Ok((
                        Parsed::NeedsLabel(Box::new(move |t| Jump { target: t }), l),
                        (),
                    ));
                }
            },
            "beq" | "bne" | "blt" | "bge" => {
                let cond = match mnemonic {
                    "beq" => BranchCond::Eq,
                    "bne" => BranchCond::Ne,
                    "blt" => BranchCond::Lt,
                    _ => BranchCond::Ge,
                };
                let rs1 = ops.reg()?;
                let rs2 = ops.reg()?;
                match ops.target()? {
                    Target::Absolute(t) => Branch {
                        cond,
                        rs1,
                        rs2,
                        target: t,
                    },
                    Target::Label(l) => {
                        ops.finish()?;
                        return Ok((
                            Parsed::NeedsLabel(
                                Box::new(move |t| Branch {
                                    cond,
                                    rs1,
                                    rs2,
                                    target: t,
                                }),
                                l,
                            ),
                            (),
                        ));
                    }
                }
            }
            "add" | "sub" | "mul" | "and" | "or" | "xor" | "slt" | "sll" | "srl" => {
                let op = match mnemonic {
                    "add" => SBinOp::Add,
                    "sub" => SBinOp::Sub,
                    "mul" => SBinOp::Mul,
                    "and" => SBinOp::And,
                    "or" => SBinOp::Or,
                    "xor" => SBinOp::Xor,
                    "slt" => SBinOp::Slt,
                    "sll" => SBinOp::Sll,
                    _ => SBinOp::Srl,
                };
                SBin {
                    op,
                    rd: ops.reg()?,
                    rs1: ops.reg()?,
                    rs2: ops.reg()?,
                }
            }
            "addi" | "muli" | "slli" | "srli" | "andi" | "ori" | "slti" => {
                let op = match mnemonic {
                    "addi" => SImmOp::Add,
                    "muli" => SImmOp::Mul,
                    "slli" => SImmOp::Sll,
                    "srli" => SImmOp::Srl,
                    "andi" => SImmOp::And,
                    "ori" => SImmOp::Or,
                    _ => SImmOp::Slt,
                };
                SImm {
                    op,
                    rd: ops.reg()?,
                    rs1: ops.reg()?,
                    imm: ops.i32()?,
                }
            }
            "li" => SImm {
                op: SImmOp::Add,
                rd: ops.reg()?,
                rs1: Reg::R0,
                imm: ops.i32()?,
            },
            "mvm" => Mvm {
                group: ops.group()?,
                dst: ops.addr()?,
                src: ops.addr()?,
                len: ops.u32()?,
            },
            "vadd" | "vsub" | "vmul" | "vmax" | "vmin" => {
                let op = match mnemonic {
                    "vadd" => VBinOp::Add,
                    "vsub" => VBinOp::Sub,
                    "vmul" => VBinOp::Mul,
                    "vmax" => VBinOp::Max,
                    _ => VBinOp::Min,
                };
                VBin {
                    op,
                    dst: ops.addr()?,
                    a: ops.addr()?,
                    b: ops.addr()?,
                    len: ops.u32()?,
                }
            }
            "vaddi" | "vmuli" | "vsrai" => {
                let op = match mnemonic {
                    "vaddi" => VImmOp::Add,
                    "vmuli" => VImmOp::Mul,
                    _ => VImmOp::Sra,
                };
                VImm {
                    op,
                    dst: ops.addr()?,
                    src: ops.addr()?,
                    imm: ops.i32()?,
                    len: ops.u32()?,
                }
            }
            "vrelu" | "vsigmoid" | "vtanh" | "vcopy" | "vneg" | "vabs" => {
                let op = match mnemonic {
                    "vrelu" => VUnOp::Relu,
                    "vsigmoid" => VUnOp::Sigmoid,
                    "vtanh" => VUnOp::Tanh,
                    "vcopy" => VUnOp::Copy,
                    "vneg" => VUnOp::Neg,
                    _ => VUnOp::Abs,
                };
                VUn {
                    op,
                    dst: ops.addr()?,
                    src: ops.addr()?,
                    len: ops.u32()?,
                }
            }
            "vfill" => VFill {
                dst: ops.addr()?,
                value: ops.i32()?,
                len: ops.u32()?,
            },
            "vcopy2d" => VCopy2d {
                dst: ops.addr()?,
                src: ops.addr()?,
                block_len: ops.kv_u32("block")?,
                blocks: ops.kv_u32("blocks")?,
                src_stride: ops.kv_i32("sstride")?,
                dst_stride: ops.kv_i32("dstride")?,
            },
            "vpool.max" | "vpool.avg" => {
                let op = if mnemonic == "vpool.max" {
                    PoolOp::Max
                } else {
                    PoolOp::Avg
                };
                let dst = ops.addr()?;
                let src = ops.addr()?;
                let channels = ops.kv_u32("ch")?;
                let (win_w, win_h) = ops.kv_window()?;
                let row_stride = ops.kv_i32("rstride")?;
                VPool {
                    op,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride,
                }
            }
            "send" => Send {
                peer: ops.core()?,
                src: ops.addr()?,
                len: ops.u32()?,
                tag: ops.kv_u16("tag")?,
            },
            "recv" => Recv {
                peer: ops.core()?,
                dst: ops.addr()?,
                len: ops.u32()?,
                tag: ops.kv_u16("tag")?,
            },
            "recv2d" => Recv2d {
                peer: ops.core()?,
                dst: ops.addr()?,
                block_len: ops.kv_u32("block")?,
                blocks: ops.kv_u32("blocks")?,
                dst_stride: ops.kv_i32("dstride")?,
                tag: ops.kv_u16("tag")?,
            },
            "gload" => GLoad {
                dst: ops.addr()?,
                gaddr: ops.gaddr()?,
                len: ops.u32()?,
            },
            "gstore" => GStore {
                gaddr: ops.gaddr()?,
                src: ops.addr()?,
                len: ops.u32()?,
            },
            other => return Err(perr(line, format!("unknown mnemonic `{other}`"))),
        };
        ops.finish()?;
        Ok((Parsed::Instr(instr), ()))
    }

    /// One line through the old parser: the instruction (a label target
    /// reads 0) and the label its target names.
    pub(super) fn parse(
        text: &str,
        line: usize,
    ) -> Result<(Instruction, Option<String>), IsaError> {
        let (parsed, ()) = parse_instruction_inner(text, line)?;
        Ok(match parsed {
            Parsed::Instr(i) => (i, None),
            Parsed::NeedsLabel(build, label) => (build(0), Some(label)),
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::instructions::instruction_strategy;
    use super::*;

    #[test]
    fn parse_single_instructions() {
        let i = parse_instruction("vadd [r1+0], [r2+8], [r3-8], 64").unwrap();
        assert_eq!(i.to_string(), "vadd [r1+0], [r2+8], [r3-8], 64");

        let i = parse_instruction("mvm g2, [r1+0], [r2+0], 128").unwrap();
        assert!(matches!(
            i,
            Instruction::Mvm {
                group: GroupId(2),
                len: 128,
                ..
            }
        ));

        let i = parse_instruction("send core3, [r1+0], 16, tag=9").unwrap();
        assert!(matches!(
            i,
            Instruction::Send {
                peer: CoreId(3),
                tag: 9,
                ..
            }
        ));

        let i = parse_instruction("vpool.max [r1+0], [r2+0], ch=64, win=3x3, rstride=448").unwrap();
        assert!(matches!(
            i,
            Instruction::VPool {
                op: PoolOp::Max,
                channels: 64,
                win_w: 3,
                win_h: 3,
                ..
            }
        ));

        let i = parse_instruction("gload [r1+0], g[r2+4096], 64").unwrap();
        assert!(matches!(i, Instruction::GLoad { len: 64, .. }));
    }

    #[test]
    fn li_is_sugar_for_addi() {
        let a = parse_instruction("li r5, 42").unwrap();
        let b = parse_instruction("addi r5, r0, 42").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bare_addr_defaults_offset_zero() {
        let i = parse_instruction("vcopy [r1], [r2], 4").unwrap();
        assert_eq!(i.to_string(), "vcopy [r1+0], [r2+0], 4");
    }

    #[test]
    fn operands_past_their_field_width_are_parse_errors() {
        // `run` refuses what the field cannot encode; the assembler must
        // not write it in the first place.
        let err = assemble(".core 0\ngload [r1+0], g[r2+0], 300000\nhalt\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2: len value 300000 outside encodable range [0, 262143]"
        );
        let err = parse_instruction("vfill [r0+0], 8388608, 4").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error: value value 8388608 outside encodable range [-8388608, 8388607]"
        );
        assert!(parse_instruction("gload [r1+0], g[r2+0], 262143").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_instruction("frobnicate r1, r2").is_err());
        assert!(parse_instruction("add r1, r2").is_err()); // missing operand
        assert!(parse_instruction("add r1, r2, r3, r4").is_err()); // extra
        assert!(parse_instruction("vadd [r1+0], [r2+0], [q3+0], 4").is_err());
        assert!(parse_instruction("send core1, [r1], zork, tag=1").is_err());
    }

    #[test]
    fn assemble_with_labels_and_directives() {
        let p = assemble(
            r#"
            ; two-core ping-pong
            .core 0
            .init 0 1,2,3,4
            li r1, 4
        again:
            send core1, [r0+0], 4, tag=1
            addi r1, r1, -1
            bne r1, r0, again
            halt
            .core 1
            recv core0, [r0+0], 4, tag=1
            halt
        "#,
        )
        .unwrap();
        assert_eq!(p.cores.len(), 2);
        assert_eq!(p.cores[0].instrs.len(), 5);
        assert_eq!(p.cores[0].labels["again"], 1);
        match &p.cores[0].instrs[3] {
            Instruction::Branch { target, .. } => assert_eq!(*target, 1),
            other => panic!("expected branch, got {other}"),
        }
        assert_eq!(p.cores[0].local_init, vec![(0, vec![1, 2, 3, 4])]);
    }

    #[test]
    fn undefined_label_reported() {
        let e = assemble("jmp nowhere").unwrap_err();
        assert!(e.to_string().contains("undefined label"));
    }

    #[test]
    fn duplicate_label_reported() {
        let e = assemble("a:\na:\nnop").unwrap_err();
        assert!(e.to_string().contains("duplicate label"));
    }

    #[test]
    fn group_directive_builds_table() {
        let p = assemble(".group 0 in=128 out=256 xbars=0,1\n.group 1 in=64 out=64 xbars=2\nnop")
            .unwrap();
        assert_eq!(p.cores[0].groups.len(), 2);
        assert_eq!(p.cores[0].groups[0].xbar_ids, vec![0, 1]);
        assert_eq!(p.cores[0].groups[1].input_len, 64);
    }

    #[test]
    fn group_ids_must_be_dense() {
        assert!(assemble(".group 1 in=1 out=1 xbars=0").is_err());
    }

    #[test]
    fn disassemble_reassembles_identically() {
        let src = r#"
            .core 0
            .group 0 in=16 out=8 xbars=0,1,2
            .init 64 -1,0,1
            li r1, 3
        loop:
            mvm g0, [r2+0], [r3+0], 16
            vrelu [r2+0], [r2+0], 8
            send core2, [r2+0], 8, tag=3
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            .core 2
            recv core0, [r4+0], 8, tag=3
            gstore g[r5+0], [r4+0], 8
            halt
        "#;
        let p1 = assemble(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.cores.len(), p2.cores.len());
        for (a, b) in p1.cores.iter().zip(&p2.cores) {
            assert_eq!(a.instrs, b.instrs);
            assert_eq!(a.groups, b.groups);
            assert_eq!(a.local_init, b.local_init);
            assert_eq!(a.labels, b.labels);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# header\n\n   ; note\nnop # trailing\n").unwrap();
        assert_eq!(p.cores[0].instrs, vec![Instruction::Nop]);
    }

    #[test]
    fn empty_operands_are_errors() {
        for (text, msg) in [
            ("add r1,, r2, r3", "`add` operand 2 is empty"),
            ("halt ,", "`halt` operand 1 is empty"),
            (
                "vadd [r1+0], [r2+0], [r3+0], 4,",
                "`vadd` operand 5 is empty",
            ),
            ("jmp  , end", "`jmp` operand 1 is empty"),
            ("send core1, [r0+0], 8, ,tag=1", "`send` operand 4 is empty"),
        ] {
            let e = assemble(&format!("nop\nend:\n{text}")).unwrap_err();
            assert_eq!(e.to_string(), format!("parse error at line 3: {msg}"));
            let e = parse_instruction(text).unwrap_err();
            assert_eq!(e.to_string(), format!("parse error: {msg}"));
        }
    }

    #[test]
    fn label_targets_are_patched_forward_and_backward() {
        let p = assemble("top:\njmp end\nbeq r1, r2, top\nend:").unwrap();
        assert_eq!(p.cores[0].instrs[0], Instruction::Jump { target: 2 });
        assert_eq!(p.cores[0].instrs[1].branch_target(), Some(0));
        let e = parse_instruction("bge r1, r2, top").unwrap_err();
        assert!(e
            .to_string()
            .contains("only supported inside full programs"));
    }

    /// Both parsers' verdict on `text`: the instruction and the label its
    /// target names, or the error text.
    type Verdict = Result<(Instruction, Option<String>), String>;

    fn both(text: &str) -> (Verdict, Verdict) {
        let new = parse_line(text, 7)
            .map(|(i, label)| (i, label.map(str::to_owned)))
            .map_err(|e| e.to_string());
        (new, oracle::parse(text, 7).map_err(|e| e.to_string()))
    }

    /// Operand tokens that are wrong somewhere, right elsewhere, or label
    /// names.
    const TOKENS: [&str; 30] = [
        "r0",
        "r31",
        "r32",
        "x1",
        "[r1+0]",
        "[r1]",
        "[r1-4]",
        "[-4]",
        "[r1+]",
        "[r2",
        "g[r2+8]",
        "g[r2]",
        "g3",
        "g",
        "g4096",
        "core7",
        "core",
        "7",
        "-1",
        "0x1f",
        "-0x10",
        "0x",
        "2147483648",
        "-2147483649",
        "4294967296",
        "99999999999999999999",
        "loop",
        "end",
        "l0",
        "win=3x3",
    ];
    /// Unknown mnemonics, and known ones that take other operands.
    const MNEMONICS: [&str; 14] = [
        "frob",
        "vadd.x",
        "VADD",
        "ad",
        "addii",
        "vpool",
        "vpool.min",
        "b",
        "jmpx",
        "li",
        "nop",
        "halt",
        "send",
        "mvm",
    ];
    const KEYS: [&str; 10] = [
        "tag", "block", "blocks", "sstride", "dstride", "ch", "win", "rstride", "tg", "",
    ];
    const VALUES: [&str; 8] = ["", "x", "-1", "0x", "99999999999", "3x", "1x2x3", "70000"];

    /// `text` (canonical syntax) with the edit `kind`, placed by `a` and
    /// `b`; `true` when the edit left an empty operand.
    fn mutate(text: &str, kind: u8, a: usize, b: usize) -> (String, bool) {
        let (mnemonic, rest) = text.split_once(' ').unwrap_or((text, ""));
        let mut mnemonic = mnemonic.to_string();
        let mut ops: Vec<String> = rest
            .split(", ")
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        let n = ops.len();
        let mut empty = false;
        match kind {
            // Dropped, duplicated or swapped operands.
            0 if n > 0 => drop(ops.remove(a % n)),
            1 if n > 0 => ops.insert(b % (n + 1), ops[a % n].clone()),
            2 if n > 1 => ops.swap(a % n, b % n),
            3 => mnemonic = MNEMONICS[a % MNEMONICS.len()].to_string(),
            // A bad key, a bad value, or no `=` at all.
            4 => {
                let keyed: Vec<usize> = (0..n).filter(|&i| ops[i].contains('=')).collect();
                if let Some(&i) = keyed.get(a % keyed.len().max(1)) {
                    let (key, value) = ops[i].split_once('=').expect("keyed");
                    ops[i] = match b % 3 {
                        0 => format!("{}={value}", KEYS[b / 3 % KEYS.len()]),
                        1 => format!("{key}={}", VALUES[b / 3 % VALUES.len()]),
                        _ => format!("{key}{value}"),
                    };
                }
            }
            // A label target: of a jump, of a branch, or where no target goes.
            5 => {
                let target = ["loop", "end", "l0", "0x10"][b % 4].to_string();
                match b / 4 % 3 {
                    0 => (mnemonic, ops) = ("jmp".to_string(), vec![target]),
                    1 => {
                        mnemonic = BranchCond::ALL[a % 4].mnemonic().to_string();
                        ops = vec!["r1".to_string(), format!("r{}", a % 33), target];
                    }
                    _ if n > 0 => ops[n - 1] = target,
                    _ => ops.push(target),
                }
            }
            6 if n > 0 => ops[a % n] = TOKENS[b % TOKENS.len()].to_string(),
            7 => {
                ops.insert(b % (n + 1), [" ", ""][a % 2].to_string());
                empty = n > 0;
            }
            // `li` sugar in place of the first two operands.
            8 if n > 1 => {
                mnemonic = "li".to_string();
                ops.remove(1);
            }
            _ => {}
        }
        let sep = [", ", ",", " , ", ",\t"][a % 4];
        let gap = [" ", "\t", "   "][b % 3];
        (format!("{mnemonic}{gap}{}", ops.join(sep)), empty)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Well-formed lines: both parsers agree, and read the line back
        /// as the instruction that printed it.
        #[test]
        fn parser_matches_the_oracle_on_canonical_lines(instr in instruction_strategy()) {
            let text = instr.to_string();
            let (new, old) = both(&text);
            prop_assert_eq!(&new, &Ok((instr, None)), "{}", text);
            prop_assert_eq!(new, old, "{}", text);
        }

        /// Mutated lines: the same instruction, label or error text, except
        /// that an empty operand is always an error.
        #[test]
        fn parser_matches_the_oracle_on_mutated_lines(
            instr in instruction_strategy(),
            kind in 0u8..10,
            a in 0usize..1 << 16,
            b in 0usize..1 << 16,
        ) {
            let (line, empty) = mutate(&instr.to_string(), kind, a, b);
            let (new, old) = both(&line);
            if empty {
                let err = new.expect_err("an empty operand is an error");
                prop_assert!(err.contains("is empty"), "{}: {}", line, err);
            } else {
                prop_assert_eq!(new, old, "{}", line);
            }
        }
    }
}
