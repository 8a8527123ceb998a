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
//! Each op mnemonic is printed from its op enum's `mnemonic()` in
//! `instr.rs`; the parser dispatches on a mnemonic's bytes in one `match`,
//! and a test holds that `match` to every entry of each enum's `ALL` table
//! (for example [`VBinOp::ALL`] for `vadd`). Operands are separated by
//! commas, and an empty operand (`add r1,, r2` or a trailing comma) is an
//! error naming the mnemonic and the operand's position. Whitespace is
//! what [`char::is_whitespace`] accepts, so a tab, a `\r` before the line
//! feed, U+00A0 or U+3000 separate as a space does.
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
use std::fmt;
use std::io;

use crate::error::IsaError;
use crate::group::GroupConfig;
use crate::instr::{
    Addr, AsmLine, BranchCond, CoreId, GroupId, Instruction, PoolOp, SBinOp, SImmOp, VBinOp,
    VImmOp, VUnOp,
};
use crate::program::{fits_fields, CoreProgram, Program, ProgramMeta};
use crate::reg::Reg;

fn perr(line: usize, msg: impl Into<String>) -> IsaError {
    IsaError::Parse {
        line,
        msg: msg.into(),
    }
}

/// [`char::is_whitespace`] on an ASCII byte.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// `s.trim()`: ASCII whitespace is stepped over byte by byte, and only a
/// non-ASCII edge is left to the char decoder.
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let (mut lo, mut hi) = (0, b.len());
    while lo < hi && is_space(b[lo]) {
        lo += 1;
    }
    while hi > lo && is_space(b[hi - 1]) {
        hi -= 1;
    }
    let s = &s[lo..hi];
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(&first), Some(&last)) if first >= 0x80 || last >= 0x80 => s.trim(),
        _ => s,
    }
}

/// `s.split_once(char::is_whitespace)`, decoding chars only from the first
/// non-ASCII byte on.
fn split_space(s: &str) -> Option<(&str, &str)> {
    let b = s.as_bytes();
    let at = b.iter().position(|&c| is_space(c) || c >= 0x80)?;
    if b[at] < 0x80 {
        return Some((&s[..at], &s[at + 1..]));
    }
    let (word, rest) = s[at..].split_once(char::is_whitespace)?;
    Some((&s[..at + word.len()], rest))
}

/// The length of the non-ASCII whitespace char at `at` in `s`, or 0.
#[cold]
fn wide_space(s: &str, at: usize) -> usize {
    match s[at..].chars().next() {
        Some(ch) if ch.is_whitespace() => ch.len_utf8(),
        _ => 0,
    }
}

/// A forward reader over operand text: each method reads one item at the
/// cursor and returns `None`, the cursor then anywhere, when the text there
/// is not that item. Its grammar is that of the `str`-token parser it
/// replaced (the test `oracle`): an operand is cut at its comma and
/// trimmed, then read by `str::parse`, `from_str_radix` and the address
/// split at the first `+` or else the last `-`.
struct Reader<'a> {
    s: &'a str,
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str, at: usize) -> Self {
        Reader { s, at }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.at).copied()
    }

    fn at_end(&self) -> bool {
        self.at == self.s.len()
    }

    /// Steps over whitespace as `str::trim` strips it.
    fn spaces(&mut self) {
        while let Some(c) = self.peek() {
            if is_space(c) {
                self.at += 1;
            } else if c < 0x80 {
                return;
            } else {
                match wide_space(self.s, self.at) {
                    0 => return,
                    n => self.at += n,
                }
            }
        }
    }

    fn byte(&mut self, c: u8) -> Option<()> {
        (self.peek() == Some(c)).then(|| self.at += 1)
    }

    fn bytes(&mut self, s: &[u8]) -> Option<()> {
        let end = self.at + s.len();
        (self.s.as_bytes().get(self.at..end) == Some(s)).then(|| self.at = end)
    }

    /// At least one digit of `radix`, accumulated towards the sign's side
    /// so that `i64::MIN` reads; `None` past `i64`.
    fn digits(&mut self, radix: u32, negative: bool) -> Option<i64> {
        let start = self.at;
        let mut v: i64 = 0;
        while let Some(c) = self.peek() {
            let d = match radix {
                10 => u32::from(c.wrapping_sub(b'0')),
                _ => char::from(c).to_digit(radix).unwrap_or(radix),
            };
            if d >= radix {
                break;
            }
            v = v.checked_mul(i64::from(radix))?;
            v = if negative {
                v.checked_sub(i64::from(d))?
            } else {
                v.checked_add(i64::from(d))?
            };
            self.at += 1;
        }
        (self.at > start).then_some(v)
    }

    /// An `i64` as `str::parse` or `from_str_radix` reads it: a `+` or `-`,
    /// then digits.
    fn signed(&mut self, radix: u32) -> Option<i64> {
        let negative = match self.peek() {
            Some(b'+') => false,
            Some(b'-') => true,
            _ => return self.digits(radix, false),
        };
        self.at += 1;
        self.digits(radix, negative)
    }

    /// A decimal, `0x`/`0X` or `-0x`/`-0X` integer.
    fn int(&mut self) -> Option<i64> {
        let negative = match self.peek() {
            Some(b'-') => true,
            Some(b'+') => {
                self.at += 1;
                return self.digits(10, false);
            }
            _ => false,
        };
        self.at += usize::from(negative);
        if self.hex_prefix() {
            let v = self.signed(16)?;
            return Some(if negative { v.wrapping_neg() } else { v });
        }
        self.digits(10, negative)
    }

    /// Steps over a `0x` or `0X`, if one is at the cursor.
    fn hex_prefix(&mut self) -> bool {
        let prefix = matches!(
            self.s.as_bytes().get(self.at..self.at + 2),
            Some([b'0', b'x' | b'X'])
        );
        self.at += 2 * usize::from(prefix);
        prefix
    }

    /// An unsigned field as `str::parse::<T>` reads it: a `+`, then digits.
    fn unsigned<T: TryFrom<i64>>(&mut self) -> Option<T> {
        let _ = self.byte(b'+');
        T::try_from(self.digits(10, false)?).ok()
    }

    /// A register as `Reg`'s `FromStr` reads it: `zero`, or `r` and an
    /// index (after a `+` only when `plus`).
    fn reg(&mut self, plus: bool) -> Option<Reg> {
        if self.byte(b'r').is_none() {
            return self.bytes(b"zero").map(|()| Reg::R0);
        }
        let index = if plus {
            self.unsigned()?
        } else {
            u8::try_from(self.digits(10, false)?).ok()?
        };
        Reg::new(index).ok()
    }

    /// `[rN+OFF]`, `[rN-OFF]` or `[rN]`, with a `g` before it when
    /// `global`, and whitespace around the register and the offset. The
    /// old split took the base before the first `+`, or else before the
    /// last `-`: so the base has no sign, and an offset after `-` has none
    /// either.
    fn addr(&mut self, global: bool) -> Option<Addr> {
        // Most addresses have no whitespace inside: read them without
        // looking for any first.
        let start = self.at;
        self.addr_spaced::<false>(global).or_else(|| {
            self.at = start;
            self.addr_spaced::<true>(global)
        })
    }

    /// [`Reader::addr`], stepping over inner whitespace when `SPACED`.
    fn addr_spaced<const SPACED: bool>(&mut self, global: bool) -> Option<Addr> {
        let spaces = |r: &mut Self| {
            if SPACED {
                r.spaces();
            }
        };
        if global {
            self.byte(b'g')?;
        }
        self.byte(b'[')?;
        spaces(self);
        let base = self.reg(false)?;
        spaces(self);
        let off = match self.peek()? {
            b']' => 0,
            sign @ (b'+' | b'-') => {
                self.at += 1;
                spaces(self);
                let off = if sign == b'+' {
                    self.int()?
                } else {
                    let radix = if self.hex_prefix() { 16 } else { 10 };
                    self.digits(radix, false)?.wrapping_neg()
                };
                spaces(self);
                off
            }
            _ => return None,
        };
        self.byte(b']')?;
        Addr::new(base, i32::try_from(off).ok()?).ok()
    }
}

/// All of `s` read by `read`.
fn whole<'a, T>(s: &'a str, read: impl FnOnce(&mut Reader<'a>) -> Option<T>) -> Option<T> {
    let mut r = Reader::new(s, 0);
    let v = read(&mut r)?;
    r.at_end().then_some(v)
}

/// An unsigned decimal field as `str::parse::<T>` reads it.
fn unsigned<T: TryFrom<i64>>(s: &str) -> Option<T> {
    whole(s, Reader::unsigned)
}

/// A decimal, `0x`/`0X` or `-0x`/`-0X` integer, whitespace around it
/// allowed.
fn parse_int(s: &str) -> Option<i64> {
    whole(trim(s), Reader::int)
}

/// One instruction's comma-separated operands, each read in place up to
/// its comma; an operand that does not read is cut out and trimmed for
/// the error.
struct Operands<'a> {
    rest: &'a str,
    /// Where the next operand starts; past `rest`'s end, none is left.
    next: usize,
    taken: usize,
    line: usize,
    mnemonic: &'a str,
    /// The label a branch target named, for [`assemble`] to patch.
    label: Option<&'a str>,
}

impl<'a> Operands<'a> {
    fn new(mnemonic: &'a str, rest: &'a str, line: usize) -> Self {
        Operands {
            rest,
            // No operands at all when nothing follows the mnemonic.
            next: usize::from(rest.is_empty()),
            taken: 0,
            line,
            mnemonic,
            label: None,
        }
    }

    /// The operand from `from` to the next comma (no nesting in this
    /// syntax), trimmed, and where the one after it starts.
    fn cut(&self, from: usize) -> (&'a str, usize) {
        let b = self.rest.as_bytes();
        let mut to = from;
        while to < b.len() && b[to] != b',' {
            to += 1;
        }
        (trim(&self.rest[from..to]), to + 1)
    }

    fn empty(&self, position: usize) -> IsaError {
        let msg = format!("`{}` operand {position} is empty", self.mnemonic);
        perr(self.line, msg)
    }

    /// The error naming the first empty operand, if one is: it stands
    /// before any other error on the line.
    fn first_empty(&self) -> Option<IsaError> {
        let mut from = usize::from(self.rest.is_empty());
        let mut position = 1;
        while from <= self.rest.len() {
            let (item, next) = self.cut(from);
            if item.is_empty() {
                return Some(self.empty(position));
            }
            (from, position) = (next, position + 1);
        }
        None
    }

    fn take(&mut self) -> Result<&'a str, IsaError> {
        if self.next > self.rest.len() {
            return Err(perr(
                self.line,
                format!("`{}` is missing operand {}", self.mnemonic, self.taken + 1),
            ));
        }
        let (item, next) = self.cut(self.next);
        (self.next, self.taken) = (next, self.taken + 1);
        if item.is_empty() {
            return Err(self.empty(self.taken));
        }
        Ok(item)
    }

    /// Checks that every operand was taken; returns the label a branch
    /// target named, if any.
    fn finish(self) -> Result<Option<&'a str>, IsaError> {
        if self.next > self.rest.len() {
            return Ok(self.label);
        }
        if let Some(empty) = self.first_empty() {
            return Err(empty);
        }
        let extra = 1 + self.rest.as_bytes()[self.next..]
            .iter()
            .filter(|&&c| c == b',')
            .count();
        Err(perr(
            self.line,
            format!("`{}` has {extra} extra operand(s)", self.mnemonic),
        ))
    }

    /// The next operand read in place by `read`, when it reads and only
    /// whitespace follows it up to its comma. `None` leaves the operand
    /// for [`Operands::take`], which cuts its text for the error.
    fn read<T>(&mut self, read: impl FnOnce(&mut Reader<'a>) -> Option<T>) -> Option<T> {
        if self.next > self.rest.len() {
            return None;
        }
        let mut r = Reader::new(self.rest, self.next);
        r.spaces();
        let value = read(&mut r)?;
        r.spaces();
        self.next = match r.peek() {
            None => self.rest.len() + 1,
            Some(b',') => r.at + 1,
            Some(_) => return None,
        };
        self.taken += 1;
        Some(value)
    }

    /// Reads the next operand, or reports "expected {expected}, got
    /// `{token}`".
    fn parsed<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Option<T>,
        expected: &str,
    ) -> Result<T, IsaError> {
        if let Some(value) = self.read(read) {
            return Ok(value);
        }
        let tok = self.take()?;
        Err(perr(self.line, format!("expected {expected}, got `{tok}`")))
    }

    fn reg(&mut self) -> Result<Reg, IsaError> {
        self.parsed(|r| r.reg(true), "register")
    }

    fn int(&mut self) -> Result<i64, IsaError> {
        self.parsed(Reader::int, "integer")
    }

    fn u32(&mut self) -> Result<u32, IsaError> {
        let v = self.int()?;
        u32::try_from(v).map_err(|_| perr(self.line, format!("expected unsigned value, got {v}")))
    }

    fn i32(&mut self) -> Result<i32, IsaError> {
        let v = self.int()?;
        i32::try_from(v).map_err(|_| perr(self.line, format!("immediate {v} does not fit 32 bits")))
    }

    fn addr(&mut self) -> Result<Addr, IsaError> {
        self.parsed(|r| r.addr(false), "address like [r1+8]")
    }

    fn gaddr(&mut self) -> Result<Addr, IsaError> {
        self.parsed(|r| r.addr(true), "global address like g[r1+8]")
    }

    fn core(&mut self) -> Result<CoreId, IsaError> {
        let read = |r: &mut Reader| {
            let _ = r.bytes(b"core");
            r.unsigned()
        };
        Ok(CoreId(self.parsed(read, "core id")?))
    }

    fn group(&mut self) -> Result<GroupId, IsaError> {
        let read = |r: &mut Reader| {
            r.byte(b'g')?;
            r.unsigned()
        };
        Ok(GroupId(self.parsed(read, "group like g3")?))
    }

    /// Parses `key=value` returning the integer value.
    fn kv_int(&mut self, key: &str) -> Result<i64, IsaError> {
        let read = |r: &mut Reader| {
            r.bytes(key.as_bytes())?;
            r.byte(b'=')?;
            r.spaces();
            r.int()
        };
        if let Some(v) = self.read(read) {
            return Ok(v);
        }
        let tok = self.take()?;
        let msg = if tok.strip_prefix(key).is_some_and(|v| v.starts_with('=')) {
            format!("bad integer in `{tok}`")
        } else {
            format!("expected `{key}=<value>`, got `{tok}`")
        };
        Err(perr(self.line, msg))
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
        let read = |r: &mut Reader| {
            r.bytes(b"win=")?;
            let w = r.unsigned()?;
            r.byte(b'x')?;
            Some((w, r.unsigned()?))
        };
        if let Some(window) = self.read(read) {
            return Ok(window);
        }
        let tok = self.take()?;
        let msg = if tok.strip_prefix("win=").is_some_and(|v| v.contains('x')) {
            format!("bad window `{tok}`")
        } else {
            format!("expected `win=WxH`, got `{tok}`")
        };
        Err(perr(self.line, msg))
    }

    /// Parses a branch target: a number, or a label name that reads as
    /// target 0 until [`assemble`] patches it.
    fn target(&mut self) -> Result<u32, IsaError> {
        let Some(v) = self.read(Reader::int) else {
            self.label = Some(self.take()?);
            return Ok(0);
        };
        u32::try_from(v).map_err(|_| perr(self.line, format!("branch target {v} out of range")))
    }

    fn branch(&mut self, cond: BranchCond) -> Result<Instruction, IsaError> {
        Ok(Instruction::Branch {
            cond,
            rs1: self.reg()?,
            rs2: self.reg()?,
            target: self.target()?,
        })
    }

    fn sbin(&mut self, op: SBinOp) -> Result<Instruction, IsaError> {
        Ok(Instruction::SBin {
            op,
            rd: self.reg()?,
            rs1: self.reg()?,
            rs2: self.reg()?,
        })
    }

    fn simm(&mut self, op: SImmOp) -> Result<Instruction, IsaError> {
        Ok(Instruction::SImm {
            op,
            rd: self.reg()?,
            rs1: self.reg()?,
            imm: self.i32()?,
        })
    }

    fn vbin(&mut self, op: VBinOp) -> Result<Instruction, IsaError> {
        Ok(Instruction::VBin {
            op,
            dst: self.addr()?,
            a: self.addr()?,
            b: self.addr()?,
            len: self.u32()?,
        })
    }

    fn vimm(&mut self, op: VImmOp) -> Result<Instruction, IsaError> {
        Ok(Instruction::VImm {
            op,
            dst: self.addr()?,
            src: self.addr()?,
            imm: self.i32()?,
            len: self.u32()?,
        })
    }

    fn vun(&mut self, op: VUnOp) -> Result<Instruction, IsaError> {
        Ok(Instruction::VUn {
            op,
            dst: self.addr()?,
            src: self.addr()?,
            len: self.u32()?,
        })
    }

    fn pool(&mut self, op: PoolOp) -> Result<Instruction, IsaError> {
        let (dst, src, channels) = (self.addr()?, self.addr()?, self.kv_u32("ch")?);
        let (win_w, win_h) = self.kv_window()?;
        Ok(Instruction::VPool {
            op,
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride: self.kv_i32("rstride")?,
        })
    }
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

/// Parses one instruction, returning beside it the label its branch
/// target names (the target then reads 0).
fn parse_line(text: &str, line: usize) -> Result<(Instruction, Option<&str>), IsaError> {
    let text = trim(text);
    let (mnemonic, rest) = split_space(text).unwrap_or((text, ""));
    let mut ops = Operands::new(mnemonic, rest, line);
    match decode(mnemonic, &mut ops) {
        Ok(instr) => Ok((instr, ops.finish()?)),
        Err(e) => Err(ops.first_empty().unwrap_or(e)),
    }
}

/// The instruction `mnemonic` names, its operands taken from `ops`.
fn decode(mnemonic: &str, ops: &mut Operands) -> Result<Instruction, IsaError> {
    let line = ops.line;
    use Instruction::*;
    Ok(match mnemonic.as_bytes() {
        b"nop" => Nop,
        b"halt" => Halt,
        b"jmp" => Jump {
            target: ops.target()?,
        },
        b"beq" => ops.branch(BranchCond::Eq)?,
        b"bne" => ops.branch(BranchCond::Ne)?,
        b"blt" => ops.branch(BranchCond::Lt)?,
        b"bge" => ops.branch(BranchCond::Ge)?,
        b"add" => ops.sbin(SBinOp::Add)?,
        b"sub" => ops.sbin(SBinOp::Sub)?,
        b"mul" => ops.sbin(SBinOp::Mul)?,
        b"and" => ops.sbin(SBinOp::And)?,
        b"or" => ops.sbin(SBinOp::Or)?,
        b"xor" => ops.sbin(SBinOp::Xor)?,
        b"slt" => ops.sbin(SBinOp::Slt)?,
        b"sll" => ops.sbin(SBinOp::Sll)?,
        b"srl" => ops.sbin(SBinOp::Srl)?,
        b"addi" => ops.simm(SImmOp::Add)?,
        b"muli" => ops.simm(SImmOp::Mul)?,
        b"slli" => ops.simm(SImmOp::Sll)?,
        b"srli" => ops.simm(SImmOp::Srl)?,
        b"andi" => ops.simm(SImmOp::And)?,
        b"ori" => ops.simm(SImmOp::Or)?,
        b"slti" => ops.simm(SImmOp::Slt)?,
        b"li" => SImm {
            op: SImmOp::Add,
            rd: ops.reg()?,
            rs1: Reg::R0,
            imm: ops.i32()?,
        },
        b"mvm" => Mvm {
            group: ops.group()?,
            dst: ops.addr()?,
            src: ops.addr()?,
            len: ops.u32()?,
        },
        b"vadd" => ops.vbin(VBinOp::Add)?,
        b"vsub" => ops.vbin(VBinOp::Sub)?,
        b"vmul" => ops.vbin(VBinOp::Mul)?,
        b"vmax" => ops.vbin(VBinOp::Max)?,
        b"vmin" => ops.vbin(VBinOp::Min)?,
        b"vaddi" => ops.vimm(VImmOp::Add)?,
        b"vmuli" => ops.vimm(VImmOp::Mul)?,
        b"vsrai" => ops.vimm(VImmOp::Sra)?,
        b"vrelu" => ops.vun(VUnOp::Relu)?,
        b"vsigmoid" => ops.vun(VUnOp::Sigmoid)?,
        b"vtanh" => ops.vun(VUnOp::Tanh)?,
        b"vcopy" => ops.vun(VUnOp::Copy)?,
        b"vneg" => ops.vun(VUnOp::Neg)?,
        b"vabs" => ops.vun(VUnOp::Abs)?,
        b"vfill" => VFill {
            dst: ops.addr()?,
            value: ops.i32()?,
            len: ops.u32()?,
        },
        b"vcopy2d" => VCopy2d {
            dst: ops.addr()?,
            src: ops.addr()?,
            block_len: ops.kv_u32("block")?,
            blocks: ops.kv_u32("blocks")?,
            src_stride: ops.kv_i32("sstride")?,
            dst_stride: ops.kv_i32("dstride")?,
        },
        b"vpool.max" => ops.pool(PoolOp::Max)?,
        b"vpool.avg" => ops.pool(PoolOp::Avg)?,
        b"send" => Send {
            peer: ops.core()?,
            src: ops.addr()?,
            len: ops.u32()?,
            tag: ops.kv_u16("tag")?,
        },
        b"recv" => Recv {
            peer: ops.core()?,
            dst: ops.addr()?,
            len: ops.u32()?,
            tag: ops.kv_u16("tag")?,
        },
        b"recv2d" => Recv2d {
            peer: ops.core()?,
            dst: ops.addr()?,
            block_len: ops.kv_u32("block")?,
            blocks: ops.kv_u32("blocks")?,
            dst_stride: ops.kv_i32("dstride")?,
            tag: ops.kv_u16("tag")?,
        },
        b"gload" => GLoad {
            dst: ops.addr()?,
            gaddr: ops.gaddr()?,
            len: ops.u32()?,
        },
        b"gstore" => GStore {
            gaddr: ops.gaddr()?,
            src: ops.addr()?,
            len: ops.u32()?,
        },
        _ => return Err(perr(line, format!("unknown mnemonic `{mnemonic}`"))),
    })
}

/// The first `\n`, `;` or `#` in `b` from `from` on, or `b.len()`: eight
/// bytes per step, each word tested for the three bytes at once.
fn line_stop(b: &[u8], from: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGH: u64 = ONES << 7;
    // The high bit of each byte of `word` that equals `c`; the lowest one
    // set is always a true match.
    let matches = |word: u64, c: u8| {
        let x = word ^ (ONES * u64::from(c));
        x.wrapping_sub(ONES) & !x & HIGH
    };
    let mut at = from;
    while let Some(chunk) = b.get(at..at + 8) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        let word = u64::from_le_bytes(bytes);
        let hit = matches(word, b'\n') | matches(word, b';') | matches(word, b'#');
        if hit != 0 {
            return at + (hit.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    b[at..]
        .iter()
        .position(|&c| matches!(c, b'\n' | b';' | b'#'))
        .map_or(b.len(), |i| at + i)
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

    let bytes = text.as_bytes();
    let (mut next, mut lineno) = (0, 0);
    while next < bytes.len() {
        lineno += 1;
        let start = next;
        let code_end = line_stop(bytes, start);
        next = match bytes.get(code_end) {
            Some(b'\n') | None => code_end + 1,
            Some(_) => bytes[code_end..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(bytes.len(), |i| code_end + i + 1),
        };
        let line = trim(&text[start..code_end]);
        if line.is_empty() {
            continue;
        }

        if line.as_bytes()[0] == b'.' {
            if let Some(rest) = line.strip_prefix(".core") {
                current = unsigned(trim(rest))
                    .ok_or_else(|| perr(lineno, format!("bad `.core` directive `{line}`")))?;
                cores.entry(current).or_default();
                continue;
            }
            let core = cores.entry(current).or_default();
            if let Some(rest) = line.strip_prefix(".group") {
                // .group ID in=N out=M xbars=a,b,c
                let mut parts = rest.split_whitespace();
                let id: u16 = parts
                    .next()
                    .and_then(unsigned)
                    .ok_or_else(|| perr(lineno, "`.group` needs a numeric id"))?;
                let mut input_len = None;
                let mut output_len = None;
                let mut xbars = None;
                for p in parts {
                    if let Some(v) = p.strip_prefix("in=") {
                        input_len = unsigned::<u32>(v);
                    } else if let Some(v) = p.strip_prefix("out=") {
                        output_len = unsigned::<u32>(v);
                    } else if let Some(v) = p.strip_prefix("xbars=") {
                        xbars = v.split(',').map(unsigned::<u32>).collect();
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
                let (start, values) = split_space(trim(rest))
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
            return Err(perr(lineno, format!("unknown directive `{line}`")));
        }

        let core = cores.entry(current).or_default();
        if let Some(label) = line.strip_suffix(':') {
            let label = trim(label);
            if label.is_empty() || label.chars().any(char::is_whitespace) {
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

/// Disassembles a program back to assembly text, which [`assemble`] reads
/// back to the same instructions, crossbar groups (ids, vector lengths and
/// crossbar ids), local memory preloads and labels of every core.
///
/// The text form does not carry the rest of a [`Program`]: the program's
/// `meta` (name and mapping are printed as comments, and `assemble` names
/// every program `assembled`), each core's `instr_tags`, the chip's
/// `global_init` segments, and group weight matrices (a `.group` line
/// notes `; weights elided`). Idle cores are not printed, so idle cores
/// after the last one with instructions, groups or preloads are not in
/// the re-assembled program's core count.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_program(&mut out, program);
    out
}

/// Streams [`disassemble`]'s text into `writer` a line at a time, without
/// holding the whole text.
///
/// # Errors
///
/// Returns the writer's first error; nothing is written after it.
pub fn write_disassembly(program: &Program, writer: impl io::Write) -> io::Result<()> {
    let mut text = IoText {
        writer,
        error: None,
    };
    write_program(&mut text, program)
        .map_err(|fmt::Error| text.error.unwrap_or_else(|| io::Error::other(fmt::Error)))
}

/// An `io::Write` taken as a `fmt::Write`, keeping the error the writer
/// returned.
struct IoText<W> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoText<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.writer.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// [`disassemble`]'s text, written to `out` a line (or, for long
/// `.group`/`.init` lists, a line's piece) at a time.
fn write_program(out: &mut impl fmt::Write, program: &Program) -> fmt::Result {
    for (comment, value) in [
        ("; program: ", &program.meta.name),
        ("; mapping: ", &program.meta.mapping),
    ] {
        if !value.is_empty() {
            out.write_str(comment)?;
            out.write_str(value)?;
            out.write_char('\n')?;
        }
    }
    let mut line = AsmLine::new();
    // One core's labels by pc; the names at one pc stay in name order.
    let mut labels: Vec<(usize, &str)> = Vec::new();
    for (cid, core) in program.cores.iter().enumerate() {
        if core.is_empty() && core.groups.is_empty() && core.local_init.is_empty() {
            continue;
        }
        line.put("\n.core ");
        line.uint(cid as u64);
        line.byte(b'\n');
        for g in &core.groups {
            line.put(".group ");
            line.uint(g.id.0.into());
            line.put(" in=");
            line.uint(g.input_len.into());
            line.put(" out=");
            line.uint(g.output_len.into());
            line.put(" xbars=");
            write_list(out, &mut line, g.xbar_ids.iter().map(|&x| i64::from(x)))?;
            if g.weights.is_some() {
                line.put(" ; weights elided");
            }
            line.byte(b'\n');
            flush(out, &mut line)?;
        }
        for (start, values) in &core.local_init {
            line.put(".init ");
            line.uint((*start).into());
            line.byte(b' ');
            write_list(out, &mut line, values.iter().map(|&v| i64::from(v)))?;
            line.byte(b'\n');
            flush(out, &mut line)?;
        }
        flush(out, &mut line)?;
        labels.clear();
        labels.extend(
            core.labels
                .iter()
                .map(|(name, &pc)| (pc as usize, name.as_str())),
        );
        labels.sort_by_key(|&(pc, _)| pc);
        let mut labels = labels.iter().peekable();
        for pc in 0..=core.instrs.len() {
            while let Some((_, name)) = labels.next_if(|&&(at, _)| at == pc) {
                out.write_str(name)?;
                out.write_str(":\n")?;
            }
            if let Some(instr) = core.instrs.get(pc) {
                line.put("    ");
                instr.write_asm(&mut line);
                line.byte(b'\n');
                flush(out, &mut line)?;
            }
        }
    }
    Ok(())
}

/// Moves `line`'s text to `out`.
fn flush(out: &mut impl fmt::Write, line: &mut AsmLine) -> fmt::Result {
    out.write_str(line.as_str()?)?;
    line.clear();
    Ok(())
}

/// `values` in decimal, comma-separated, through `line`; what fills it is
/// moved to `out` first.
fn write_list(
    out: &mut impl fmt::Write,
    line: &mut AsmLine,
    values: impl Iterator<Item = i64>,
) -> fmt::Result {
    for (i, v) in values.enumerate() {
        if line.len() > AsmLine::CAPACITY / 2 {
            flush(out, line)?;
        }
        if i > 0 {
            line.byte(b',');
        }
        line.int(v);
    }
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/instructions.rs"]
pub(crate) mod instructions;

#[cfg(test)]
#[path = "../tests/support/disasm_oracle.rs"]
mod disasm_oracle;

/// The parser as it stood before the byte scanner: `str` splits, trims
/// and `str::parse` per operand, a `match` per op family, boxed label
/// builders beside the numeric path, and `assemble`'s line loop over
/// `str::lines`. The differential tests hold [`parse_line`] and
/// [`assemble`] to it.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::perr;
    use crate::error::IsaError;
    use crate::group::GroupConfig;
    use crate::instr::{
        Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp,
        VUnOp,
    };
    use crate::program::{fits_fields, CoreProgram, Program, ProgramMeta};
    use crate::reg::Reg;

    pub(super) fn parse_int(s: &str) -> Option<i64> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            i64::from_str_radix(hex, 16).ok()
        } else if let Some(hex) = s.strip_prefix("-0x").or_else(|| s.strip_prefix("-0X")) {
            i64::from_str_radix(hex, 16).ok().map(|v| -v)
        } else {
            s.parse().ok()
        }
    }

    /// Parses `[rN+OFF]`, `[rN-OFF]`, `[rN]`; with `global`, requires `g` prefix.
    pub(super) fn parse_addr(tok: &str, global: bool) -> Option<Addr> {
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

    /// A full program through the old line loop and [`parse`].
    pub(super) fn assemble(text: &str) -> Result<Program, IsaError> {
        #[derive(Default)]
        struct CoreBuild {
            instrs: Vec<Instruction>,
            groups: Vec<GroupConfig>,
            local_init: Vec<(u32, Vec<i32>)>,
            labels: BTreeMap<String, u32>,
            fixups: Vec<(usize, String, usize)>,
        }

        let mut cores: BTreeMap<u16, CoreBuild> = BTreeMap::new();
        let mut current: u16 = 0;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
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

            let (instr, label) = parse(line, lineno)?;
            fits_fields(&instr).map_err(|msg| perr(lineno, msg))?;
            if let Some(label) = label {
                core.fixups.push((core.instrs.len(), label, lineno));
            }
            core.instrs.push(instr);
        }

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
                    .get(&label)
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
    const TOKENS: [&str; 31] = [
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
        "-0X10",
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

    /// Spellings that the old token split read one way or refused: signs,
    /// hex and whitespace inside addresses, signs on fields, values at the
    /// edges of `i64`, and near misses of each operand kind.
    const ODD: [&str; 66] = [
        "[r1--5]",
        "[r1-+5]",
        "[r+5+8]",
        "[ r1 + 0x8 ]",
        "[r1+-0x-5]",
        "[r1 - 0X1f ]",
        "[r1-0x+5]",
        "[r1-0x]",
        "[r1+5]]",
        "[[r1+5]",
        "[zero+4]",
        "[zero]",
        "[r1+ -5]",
        "[r1 -5 -3]",
        "[r1-3+5]",
        "[r1+5+3]",
        "[r1\u{a0}+\u{3000}4]",
        "[\u{2003}r1]",
        "[r1-]",
        "[r1 ]",
        "[ r1]",
        "[r 1+0]",
        "[r32+0]",
        "[r1+2147483648]",
        "g[ r2 - 8 ]",
        "g [r2+8]",
        "g[r2+0x-8]",
        "r+5",
        "r+",
        "zero",
        "zeros",
        "r01",
        "r 1",
        "r1\u{b7}",
        "+7",
        "+-7",
        "-+7",
        "0x+5",
        "0x-5",
        "-0x-5",
        "+0x5",
        "-0",
        "- 5",
        "0X1F",
        "0xfg",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "-0x8000000000000000",
        "0x7fffffffffffffff",
        "core+3",
        "corecore3",
        "core 3",
        "g+2",
        "g 2",
        "tag= 5",
        "tag=\u{a0}5",
        "tag =5",
        "tag=+5",
        "tag=0x-1",
        "win=+3x3",
        "win=3 x3",
        "win=3x+3",
        "win=3xx3",
        "win=x3",
        "blocks= 2",
    ];

    /// Every operand of one line of each operand shape, replaced by each
    /// odd spelling: the in-place reader and the oracle give the same
    /// instruction, label or error text.
    #[test]
    fn reader_matches_the_oracle_on_odd_spellings() {
        let lines = [
            "addi r1, r2, 3",
            "beq r1, r2, 5",
            "vadd [r1+0], [r2+0], [r3+0], 4",
            "mvm g0, [r1+0], [r2+0], 4",
            "send core1, [r1+0], 4, tag=3",
            "recv2d core1, [r1+0], block=2, blocks=3, dstride=4, tag=5",
            "gload [r1+0], g[r2+8], 4",
            "vpool.max [r1+0], [r2+0], ch=1, win=3x3, rstride=2",
            "vcopy2d [r1+0], [r2+0], block=2, blocks=3, sstride=4, dstride=5",
        ];
        for line in lines {
            let (mnemonic, rest) = line.split_once(' ').unwrap_or((line, ""));
            let ops: Vec<&str> = rest.split(", ").collect();
            for at in 0..ops.len() {
                for odd in ODD {
                    let mut edited = ops.clone();
                    edited[at] = odd;
                    let text = format!("{mnemonic} {}", edited.join(", "));
                    let (new, old) = both(&text);
                    assert_eq!(new, old, "{text}");
                }
            }
        }
        // The directives read their numbers with the same reader.
        for text in [
            ".core +1\n.group 0 in=+4 out=4 xbars=+0,1\n.init 0x10 +1, -0x2,\u{a0}3, 0x-4\nhalt",
            ".init 0X10 1,,2\nhalt",
            ".init +0x10 1\nhalt",
            ".group 0 in=4 out= xbars=0\nhalt",
            ".core 1 2\nhalt",
        ] {
            let (new, old) = assemble_both(text);
            assert_eq!(new, old, "{text}");
        }
    }

    #[test]
    fn hex_reads_in_every_spelling() -> Result<(), IsaError> {
        for (text, value) in [("0x10", 16), ("0X10", 16), ("-0x10", -16), ("-0X10", -16)] {
            assert_eq!(parse_int(text), Some(value), "{text}");
            assert_eq!(oracle::parse_int(text), Some(value), "{text}");
            let line = format!("addi r3, r0, {text}");
            let want = Instruction::SImm {
                op: SImmOp::Add,
                rd: Reg::R3,
                rs1: Reg::R0,
                imm: value as i32,
            };
            assert_eq!(parse_instruction(&line)?, want, "{line}");
            let p = assemble(&format!(".init 0X10 {text},1\n{line}\nhalt"))?;
            assert_eq!(p.cores[0].local_init, vec![(16, vec![value as i32, 1])]);
        }
        Ok(())
    }

    /// Every entry of every op enum's `ALL` table: the parser's `match`
    /// reads the mnemonic `mnemonic()` prints back as that op, and the
    /// line prints as the `write!` formatter did.
    #[test]
    fn every_mnemonic_reads_back_as_its_op() -> Result<(), IsaError> {
        let a = Addr::new(Reg::R2, -8)?;
        let mut all: Vec<Instruction> = vec![
            Instruction::Nop,
            Instruction::Halt,
            Instruction::Jump { target: 9 },
        ];
        all.extend(BranchCond::ALL.map(|cond| Instruction::Branch {
            cond,
            rs1: Reg::R1,
            rs2: Reg::R2,
            target: 3,
        }));
        all.extend(SBinOp::ALL.map(|op| Instruction::SBin {
            op,
            rd: Reg::R1,
            rs1: Reg::R2,
            rs2: Reg::R3,
        }));
        all.extend(SImmOp::ALL.map(|op| Instruction::SImm {
            op,
            rd: Reg::R1,
            rs1: Reg::R2,
            imm: -5,
        }));
        all.extend(VBinOp::ALL.map(|op| Instruction::VBin {
            op,
            dst: a,
            a,
            b: a,
            len: 4,
        }));
        all.extend(VImmOp::ALL.map(|op| Instruction::VImm {
            op,
            dst: a,
            src: a,
            imm: 3,
            len: 4,
        }));
        all.extend(VUnOp::ALL.map(|op| Instruction::VUn {
            op,
            dst: a,
            src: a,
            len: 4,
        }));
        all.extend(PoolOp::ALL.map(|op| Instruction::VPool {
            op,
            dst: a,
            src: a,
            channels: 8,
            win_w: 2,
            win_h: 3,
            row_stride: -16,
        }));
        assert_eq!(all.len(), 3 + 36);
        for instr in all {
            let text = instr.to_string();
            assert_eq!(text, disasm_oracle::display(&instr));
            let (new, old) = both(&text);
            assert_eq!(new, Ok((instr, None)), "{text}");
            assert_eq!(new, old, "{text}");
            assert_eq!(parse_instruction(&text)?, instr, "{text}");
        }
        Ok(())
    }

    /// The longest text an instruction can print (a program in memory may
    /// hold any `u32`/`i32` field) fits one line of the writer.
    #[test]
    fn the_widest_instruction_fits_a_line() -> Result<(), IsaError> {
        let addr = Addr::unchecked(Reg::new(31)?, i32::MIN);
        let widest = [
            Instruction::VCopy2d {
                dst: addr,
                src: addr,
                block_len: u32::MAX,
                blocks: u32::MAX,
                src_stride: i32::MIN,
                dst_stride: i32::MIN,
            },
            Instruction::Recv2d {
                peer: CoreId(u16::MAX),
                dst: addr,
                block_len: u32::MAX,
                blocks: u32::MAX,
                dst_stride: i32::MIN,
                tag: u16::MAX,
            },
            Instruction::VPool {
                op: PoolOp::Max,
                dst: addr,
                src: addr,
                channels: u32::MAX,
                win_w: u32::MAX,
                win_h: u32::MAX,
                row_stride: i32::MIN,
            },
        ];
        let mut program = Program::with_cores(1);
        program.cores[0].instrs = widest.to_vec();
        for instr in &widest {
            assert_eq!(instr.to_string(), disasm_oracle::display(instr));
        }
        assert_eq!(
            widest[0].to_string().len() + "    \n".len(),
            AsmLine::CAPACITY - 2
        );
        assert_eq!(disassemble(&program), disasm_oracle::disassemble(&program));
        Ok(())
    }

    /// `.group` and `.init` lists longer than a line, negative values and
    /// labels at every pc, the end included.
    #[test]
    fn directives_and_labels_disassemble_as_the_oracle_did() -> Result<(), IsaError> {
        let mut program = assemble(
            ".core 2\n.group 0 in=4 out=4 xbars=0,1\nb:\na:\nnop\nc:\nhalt\nend:\n.core 5\n.init 7 -1",
        )?;
        let core = &mut program.cores[2];
        core.groups[0].xbar_ids = (0..500).collect();
        core.local_init
            .push((u32::MAX, (-300..300).map(|v| v * 7_000_001).collect()));
        core.labels.insert("past".into(), 99);
        program.meta.mapping = "hand".into();
        let text = disassemble(&program);
        assert_eq!(text, disasm_oracle::disassemble(&program));
        assert!(
            text.contains("\nb:\n    nop\nc:\n    halt\nend:\n"),
            "{text}"
        );
        Ok(())
    }

    /// A writer that takes `room` bytes, then fails.
    struct Full {
        room: usize,
        taken: Vec<u8>,
    }

    impl std::io::Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::StorageFull.into());
            }
            let n = buf.len().min(self.room);
            self.taken.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_stops_at_the_writers_first_error() -> Result<(), IsaError> {
        let program = assemble(".core 1\n.init 0 1,2,3\nli r1, 3\nloop:\nbne r1, r0, loop\nhalt")?;
        let text = disassemble(&program);
        for room in [0, 5, 40, text.len() - 1] {
            let mut full = Full {
                room,
                taken: Vec::new(),
            };
            let err = write_disassembly(&program, &mut full).expect_err("the writer fills up");
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
            assert_eq!(full.taken, text.as_bytes()[..room]);
        }
        Ok(())
    }

    /// Lines of `instrs` as `write!` printed them, each with whitespace
    /// and comments placed by `seed`: tabs, `\r\n`, U+00A0 and U+3000
    /// around operands, non-ASCII bytes in comments and label names.
    fn whitespace_mutated(instrs: &[Instruction], seed: u64) -> String {
        const GAPS: [&str; 8] = [
            " ",
            "\t",
            "\u{a0}",
            "\u{3000}",
            " \u{a0}\t",
            "\u{2003}",
            "\u{b}",
            "\u{c} ",
        ];
        const SEPS: [&str; 7] = [
            ", ",
            ",",
            ",\t",
            " ,\u{a0}",
            "\u{3000},",
            ",\u{a0}\u{3000} ",
            "\t,\r",
        ];
        const ENDS: [&str; 5] = [
            "\n",
            "\r\n",
            " \r\n",
            "\u{a0}\n",
            "\t; ünïcödé ; # 注释\r\n",
        ];
        let mut state = seed | 1;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut text = String::from("; programme à l'essai\r\n.core 0\r\n");
        for (pc, instr) in instrs.iter().enumerate() {
            if next(4) == 0 {
                let label = ["ループ", "schleife_ü", "ü_ω", "naïve"][next(4)];
                let (gap, end) = (GAPS[next(2)], ENDS[next(ENDS.len())]);
                text.push_str(&format!("{label}{pc}{gap}:{end}"));
            }
            let line = disasm_oracle::display(instr);
            let (mnemonic, rest) = line.split_once(' ').unwrap_or((&line, ""));
            text.push_str(GAPS[next(GAPS.len())]);
            text.push_str(mnemonic);
            if !rest.is_empty() {
                text.push_str(GAPS[next(GAPS.len())]);
                let ops: Vec<&str> = rest.split(", ").collect();
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        text.push_str(SEPS[next(SEPS.len())]);
                    }
                    text.push_str(op);
                }
            }
            text.push_str(ENDS[next(ENDS.len())]);
            if pc % 7 == 3 {
                text.push_str("\u{3000}# 코멘트 ; ü\n\r\n");
            }
        }
        text
    }

    /// `assemble` and the oracle's line loop: the same program, or the same
    /// error text.
    fn assemble_both(text: &str) -> (Result<Program, String>, Result<Program, String>) {
        (
            assemble(text).map_err(|e| e.to_string()),
            oracle::assemble(text).map_err(|e| e.to_string()),
        )
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

        /// Whole files under whitespace mutations: both read the same
        /// program, and a program that breaks one line, an unknown
        /// mnemonic, a bad register or a label name with a space in it,
        /// draws the same error text.
        #[test]
        fn scanner_matches_the_oracle_under_whitespace_mutations(
            instrs in proptest::collection::vec(instruction_strategy(), 1..24),
            seed in any::<u64>(),
            damage in 0usize..5,
        ) {
            let mut text = whitespace_mutated(&instrs, seed);
            let (new, old) = assemble_both(&text);
            prop_assert!(new.is_ok(), "{}: {:?}", text, new);
            prop_assert_eq!(new, old, "{}", text);
            // A line of its own, after the first line feed past the middle.
            let half = text.len() / 2;
            let at = text.as_bytes()[half..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| half + i + 1);
            let broken = ["\nfrob\u{a0}r1\n", "\nadd r1,\u{3000}r2, r32\n", "\nl\u{a0}x:\n", "\n.data\u{a0}4\n", "\njmp\tnowhere\u{a0}\n"];
            text.insert_str(at, broken[damage]);
            let (new, old) = assemble_both(&text);
            prop_assert!(new.is_err(), "{}", text);
            prop_assert_eq!(new, old, "{}", text);
        }

        /// Every instruction prints as the `write!` formatter printed it,
        /// through `Display` and through `disassemble`.
        #[test]
        fn writer_matches_the_write_oracle(
            instrs in proptest::collection::vec(instruction_strategy(), 1..32),
        ) {
            for instr in &instrs {
                prop_assert_eq!(instr.to_string(), disasm_oracle::display(instr));
            }
            let mut program = Program::with_cores(2);
            program.cores[1].instrs = instrs;
            prop_assert_eq!(disassemble(&program), disasm_oracle::disassemble(&program));
        }
    }
}
