//! Instruction definitions, operand types and canonical assembly formatting.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::IsaError;
use crate::opcode::{BranchCond, PoolOp, SBinOp, SImmOp, VBinOp, VImmOp, VUnOp};
use crate::reg::Reg;

/// Operand field-width limits of the ISA's instruction format.
/// [`Program::validate`](crate::Program::validate) enforces every width;
/// [`Addr::new`] also refuses an offset past
/// [`ADDR_OFFSET_BITS`](limits::ADDR_OFFSET_BITS) when it is built.
pub mod limits {
    /// Signed bits for a local/global address offset (`register + offset`).
    pub const ADDR_OFFSET_BITS: u32 = 22;
    /// Unsigned bits for vector/transfer element counts.
    pub const LEN_BITS: u32 = 18;
    /// Unsigned bits for a crossbar group id.
    pub const GROUP_BITS: u32 = 12;
    /// Unsigned bits for a core id.
    pub const CORE_BITS: u32 = 12;
    /// Unsigned bits for a transfer tag.
    pub const TAG_BITS: u32 = 16;
    /// Unsigned bits for 2-D copy block length / block count.
    pub const BLOCK_BITS: u32 = 14;
    /// Signed bits for 2-D copy strides (in elements).
    pub const STRIDE_BITS: u32 = 18;
    /// Signed bits for vector immediates.
    pub const VIMM_BITS: u32 = 24;
    /// Unsigned bits for branch/jump targets (instruction index).
    pub const TARGET_BITS: u32 = 26;
    /// Unsigned bits for pooling window edge lengths.
    pub const WIN_BITS: u32 = 6;
    /// Unsigned bits for pooling channel counts.
    pub const CHAN_BITS: u32 = 14;

    /// Largest encodable unsigned value for `bits` bits.
    pub const fn umax(bits: u32) -> u64 {
        (1u64 << bits) - 1
    }
    /// Largest encodable signed value for `bits` bits.
    pub const fn smax(bits: u32) -> i64 {
        (1i64 << (bits - 1)) - 1
    }
    /// Smallest encodable signed value for `bits` bits.
    pub const fn smin(bits: u32) -> i64 {
        -(1i64 << (bits - 1))
    }
}

/// Identifies a core on the chip (row-major index into the mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The core index as a usize, for indexing per-core tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for CoreId {
    fn from(v: u16) -> Self {
        CoreId(v)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies a crossbar group within one core's matrix execution unit.
///
/// Crossbars that hold slices of the same weight matrix *and* consume the
/// same input vector form one group and run in parallel (paper §II).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct GroupId(pub u16);

impl GroupId {
    /// The group index as a usize, for indexing group tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for GroupId {
    fn from(v: u16) -> Self {
        GroupId(v)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A memory operand: `base register + signed element offset`.
///
/// Local and global memories are addressed in 32-bit elements. The offset
/// must fit the encoding's [`limits::ADDR_OFFSET_BITS`]-bit signed field.
///
/// ```rust
/// use pimsim_isa::{Addr, Reg};
/// let a = Addr::new(Reg::R3, -8)?;
/// assert_eq!(a.to_string(), "[r3-8]");
/// # Ok::<(), pimsim_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    base: Reg,
    offset: i32,
}

impl Addr {
    /// Creates an address operand.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldRange`] if `offset` exceeds the signed
    /// 22-bit encoding field.
    pub fn new(base: Reg, offset: i32) -> Result<Addr, IsaError> {
        let (lo, hi) = (
            limits::smin(limits::ADDR_OFFSET_BITS),
            limits::smax(limits::ADDR_OFFSET_BITS),
        );
        if (offset as i64) < lo || (offset as i64) > hi {
            return Err(IsaError::FieldRange {
                field: "addr offset",
                value: offset as i64,
                min: lo,
                max: hi,
            });
        }
        Ok(Addr { base, offset })
    }

    /// An absolute address (base `r0`, which reads as zero).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldRange`] if `offset` exceeds the offset field.
    pub fn abs(offset: u32) -> Result<Addr, IsaError> {
        let off = i32::try_from(offset).map_err(|_| IsaError::FieldRange {
            field: "addr offset",
            value: offset as i64,
            min: 0,
            max: limits::smax(limits::ADDR_OFFSET_BITS),
        })?;
        Addr::new(Reg::R0, off)
    }

    /// The base register.
    pub fn base(self) -> Reg {
        self.base
    }

    /// The signed element offset.
    pub fn offset(self) -> i32 {
        self.offset
    }

    /// The address under the register file `regs`: base register plus
    /// offset, in `i64` so nothing wraps.
    #[inline]
    pub fn effective(self, regs: &[i32; 32]) -> i64 {
        regs[self.base.index() as usize] as i64 + self.offset as i64
    }

    /// An address whose offset may be past its field, which no public
    /// constructor builds: for tests of the width checks.
    #[cfg(test)]
    pub(crate) fn unchecked(base: Reg, offset: i32) -> Addr {
        Addr { base, offset }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset >= 0 {
            write!(f, "[{}+{}]", self.base, self.offset)
        } else {
            write!(f, "[{}{}]", self.base, self.offset)
        }
    }
}

impl SBinOp {
    /// `a op b` with the machine's semantics: wrapping arithmetic, signed
    /// `slt`, shift amounts masked to 5 bits, logical `srl`.
    #[inline]
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            SBinOp::Add => a.wrapping_add(b),
            SBinOp::Sub => a.wrapping_sub(b),
            SBinOp::Mul => a.wrapping_mul(b),
            SBinOp::And => a & b,
            SBinOp::Or => a | b,
            SBinOp::Xor => a ^ b,
            SBinOp::Slt => (a < b).into(),
            SBinOp::Sll => a.wrapping_shl(b.cast_unsigned()),
            SBinOp::Srl => a
                .cast_unsigned()
                .wrapping_shr(b.cast_unsigned())
                .cast_signed(),
        }
    }
}

impl SImmOp {
    /// `a op imm`: the register-register operation of the same name
    /// ([`SBinOp::apply`]) with `imm` as its second operand.
    #[inline]
    pub fn apply(self, a: i32, imm: i32) -> i32 {
        let op = match self {
            SImmOp::Add => SBinOp::Add,
            SImmOp::Mul => SBinOp::Mul,
            SImmOp::Sll => SBinOp::Sll,
            SImmOp::Srl => SBinOp::Srl,
            SImmOp::And => SBinOp::And,
            SImmOp::Or => SBinOp::Or,
            SImmOp::Slt => SBinOp::Slt,
        };
        op.apply(a, imm)
    }
}

impl BranchCond {
    /// Is the branch taken for operands `a` and `b` (signed compare)?
    #[inline]
    pub fn holds(self, a: i32, b: i32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }
}

/// The four instruction classes of the ISA (paper §II). Each class is served
/// by a dedicated execution unit inside the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Crossbar matrix-vector multiplication.
    Matrix,
    /// Element-wise SIMD on local memory.
    Vector,
    /// Core-to-core and global-memory data movement.
    Transfer,
    /// Register ALU, branches, control.
    Scalar,
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Matrix => "matrix",
            InstrClass::Vector => "vector",
            InstrClass::Transfer => "transfer",
            InstrClass::Scalar => "scalar",
        };
        f.write_str(s)
    }
}

/// One machine instruction.
///
/// The `Display` impl renders the canonical assembly syntax accepted by
/// [`crate::asm::parse_instruction`]; `Display` → parse is a lossless
/// round-trip (property-tested), and that line is the instruction's form
/// in a program file ([`crate::Program::to_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // ------------------------------------------------------ matrix class --
    /// Run crossbar group `group`: read `len` input elements from local
    /// memory at `src`, produce the group's `output_len` partial sums at
    /// `dst`. `len` must equal the group's configured `input_len`.
    Mvm {
        /// Which crossbar group to fire.
        group: GroupId,
        /// Local-memory destination of the output vector.
        dst: Addr,
        /// Local-memory source of the input vector.
        src: Addr,
        /// Input vector length in elements.
        len: u32,
    },

    // ------------------------------------------------------ vector class --
    /// `dst[i] = a[i] op b[i]` for `i in 0..len`.
    VBin {
        /// The arithmetic operation.
        op: VBinOp,
        /// Destination vector.
        dst: Addr,
        /// First source vector.
        a: Addr,
        /// Second source vector.
        b: Addr,
        /// Element count.
        len: u32,
    },
    /// `dst[i] = src[i] op imm`.
    VImm {
        /// The operation.
        op: VImmOp,
        /// Destination vector.
        dst: Addr,
        /// Source vector.
        src: Addr,
        /// Scalar immediate.
        imm: i32,
        /// Element count.
        len: u32,
    },
    /// `dst[i] = f(src[i])`.
    VUn {
        /// The unary function.
        op: VUnOp,
        /// Destination vector.
        dst: Addr,
        /// Source vector.
        src: Addr,
        /// Element count.
        len: u32,
    },
    /// `dst[i] = value` for `i in 0..len`.
    VFill {
        /// Destination vector.
        dst: Addr,
        /// Fill value.
        value: i32,
        /// Element count.
        len: u32,
    },
    /// Strided 2-D copy: `blocks` blocks of `block_len` elements;
    /// block `k` moves `src + k*src_stride .. +block_len` to
    /// `dst + k*dst_stride ..`. Implements im2col window assembly, channel
    /// concat and pooling gathers — the layout capability the paper notes
    /// MNSIM2.0 lacks.
    VCopy2d {
        /// Destination base.
        dst: Addr,
        /// Source base.
        src: Addr,
        /// Elements per block.
        block_len: u32,
        /// Number of blocks.
        blocks: u32,
        /// Source stride between consecutive blocks (elements, signed).
        src_stride: i32,
        /// Destination stride between consecutive blocks (elements, signed).
        dst_stride: i32,
    },
    /// Fused pooling macro-op over an NHWC window: reduces a `win_w × win_h`
    /// spatial window of `channels`-length pixel vectors into one pixel.
    /// Window pixel `(wy, wx)` starts at `src + wy*row_stride + wx*channels`.
    VPool {
        /// Max or average reduction.
        op: PoolOp,
        /// Destination pixel vector (`channels` elements).
        dst: Addr,
        /// Top-left window pixel.
        src: Addr,
        /// Channel count (elements per pixel).
        channels: u32,
        /// Window width in pixels.
        win_w: u32,
        /// Window height in pixels.
        win_h: u32,
        /// Elements between vertically adjacent window pixels.
        row_stride: i32,
    },

    // ---------------------------------------------------- transfer class --
    /// Synchronized send: block until the peer posts the matching
    /// `recv` (same `tag`, opposite direction), then move `len` elements
    /// from local `src` to the peer.
    Send {
        /// Destination core.
        peer: CoreId,
        /// Local-memory source.
        src: Addr,
        /// Element count.
        len: u32,
        /// Rendezvous tag (must match the peer's `recv`).
        tag: u16,
    },
    /// Synchronized receive: block until data tagged `tag` from `peer`
    /// arrives; store `len` elements at local `dst`.
    Recv {
        /// Source core.
        peer: CoreId,
        /// Local-memory destination.
        dst: Addr,
        /// Element count.
        len: u32,
        /// Rendezvous tag.
        tag: u16,
    },
    /// Synchronized receive with strided placement: like `recv`, but the
    /// payload is split into `blocks` blocks of `block_len` placed
    /// `dst_stride` apart (used to interleave channel-concat inputs).
    Recv2d {
        /// Source core.
        peer: CoreId,
        /// Local-memory destination base.
        dst: Addr,
        /// Elements per block.
        block_len: u32,
        /// Number of blocks.
        blocks: u32,
        /// Destination stride between blocks (elements, signed).
        dst_stride: i32,
        /// Rendezvous tag.
        tag: u16,
    },
    /// Load `len` elements from global memory at `gaddr` into local `dst`.
    GLoad {
        /// Local-memory destination.
        dst: Addr,
        /// Global-memory source.
        gaddr: Addr,
        /// Element count.
        len: u32,
    },
    /// Store `len` elements from local `src` to global memory at `gaddr`.
    GStore {
        /// Global-memory destination.
        gaddr: Addr,
        /// Local-memory source.
        src: Addr,
        /// Element count.
        len: u32,
    },

    // ------------------------------------------------------ scalar class --
    /// `rd = rs1 op rs2`.
    SBin {
        /// The ALU operation.
        op: SBinOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 op imm`.
    SImm {
        /// The ALU operation.
        op: SImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// 32-bit immediate.
        imm: i32,
    },
    /// Conditional branch to absolute instruction index `target`.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Absolute instruction index to jump to when the condition holds.
        target: u32,
    },
    /// Unconditional jump to absolute instruction index `target`.
    Jump {
        /// Absolute instruction index.
        target: u32,
    },
    /// Stop this core's program.
    Halt,
    /// No operation.
    Nop,
}

impl Instruction {
    /// `true` for instructions that end a basic block: conditional
    /// branches, unconditional jumps, and `halt`. This is the block-cut
    /// classification used by control-flow-graph construction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. } | Instruction::Jump { .. } | Instruction::Halt
        )
    }

    /// The static control-flow target (an absolute instruction index),
    /// for branches and jumps; `None` for every other instruction.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Instruction::Branch { target, .. } | Instruction::Jump { target } => Some(*target),
            _ => None,
        }
    }

    /// The scalar register this instruction writes, if any. Only the
    /// scalar ALU classes write registers; note a returned `r0` is
    /// architecturally discarded.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Instruction::SBin { rd, .. } | Instruction::SImm { rd, .. } => Some(*rd),
            _ => None,
        }
    }

    /// The set of scalar registers this instruction reads — ALU and
    /// branch operands plus the base register of every memory operand —
    /// as a bit set: bit `r` for register `r`.
    pub fn uses_regs(&self) -> u32 {
        let alu: &[Reg] = match self {
            Instruction::SBin { rs1, rs2, .. } | Instruction::Branch { rs1, rs2, .. } => {
                &[*rs1, *rs2]
            }
            Instruction::SImm { rs1, .. } => &[*rs1],
            _ => &[],
        };
        let mut set = alu.iter().fold(0, |set, r| set | 1 << r.index());
        self.for_each_extent(&[], |e| set |= 1 << e.base.base().index());
        set
    }

    /// The rendezvous channel `(sender, receiver, tag)` a `send`, `recv`
    /// or `recv2d` on core `core` uses; `None` for every other
    /// instruction. Messages on one channel are delivered in order.
    pub fn channel(&self, core: u16) -> Option<(u16, u16, u16)> {
        match *self {
            Instruction::Send { peer, tag, .. } => Some((core, peer.0, tag)),
            Instruction::Recv { peer, tag, .. } | Instruction::Recv2d { peer, tag, .. } => {
                Some((peer.0, core, tag))
            }
            _ => None,
        }
    }

    /// The payload elements a `send` carries or a `recv`/`recv2d`
    /// expects: `len`, or `block_len * blocks` for `recv2d`, in `u64`
    /// because that product can exceed `u32` (and a wrapped one would
    /// match a send it cannot). `None` for every other instruction.
    pub fn payload_len(&self) -> Option<u64> {
        match *self {
            Instruction::Send { len, .. } | Instruction::Recv { len, .. } => Some(len.into()),
            Instruction::Recv2d {
                block_len, blocks, ..
            } => Some(block_len as u64 * blocks as u64),
            _ => None,
        }
    }

    /// Executes this instruction's scalar effect at `pc` against `regs` —
    /// what the core frontend does at dispatch — and returns the next pc,
    /// or `None` once the core halts. Writes to `r0` are discarded.
    /// Memory-class instructions have no scalar effect and fall through.
    #[inline]
    pub fn exec_scalar(&self, regs: &mut [i32; 32], pc: u32) -> Option<u32> {
        let read = |r: &Reg| regs[r.index() as usize];
        let (rd, v) = match *self {
            Instruction::SBin { op, rd, rs1, rs2 } => (rd, op.apply(read(&rs1), read(&rs2))),
            Instruction::SImm { op, rd, rs1, imm } => (rd, op.apply(read(&rs1), imm)),
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } if cond.holds(read(&rs1), read(&rs2)) => return Some(target),
            Instruction::Jump { target } => return Some(target),
            Instruction::Halt => return None,
            _ => return Some(pc + 1),
        };
        if !rd.is_zero() {
            regs[rd.index() as usize] = v;
        }
        Some(pc + 1)
    }
}

/// One operand as the canonical syntax prints it.
#[derive(Clone, Copy)]
pub(crate) enum Operand {
    Reg(Reg),
    Addr(Addr),
    /// A global memory address, `g[rN+off]`.
    GAddr(Addr),
    Core(CoreId),
    Group(GroupId),
    Int(i64),
    /// `key=value`; the key includes its `=`.
    Key(&'static str, i64),
    /// `win=WxH`.
    Win(u32, u32),
}

/// One line of assembly text, built in place: the writer behind
/// `Instruction`'s `Display` and [`crate::asm::disassemble`]. Integers are
/// written digit by digit, straight into the line.
pub(crate) struct AsmLine {
    bytes: [u8; AsmLine::CAPACITY],
    len: usize,
}

impl AsmLine {
    /// Bytes a line holds: the longest instruction text (a `vcopy2d` with
    /// every field at its widest, 121 bytes) plus `disassemble`'s
    /// indentation and line feed.
    pub(crate) const CAPACITY: usize = 128;

    pub(crate) fn new() -> AsmLine {
        AsmLine {
            bytes: [0; AsmLine::CAPACITY],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// The text so far; it is made of `&str` pieces and ASCII digits.
    pub(crate) fn as_str(&self) -> Result<&str, fmt::Error> {
        std::str::from_utf8(&self.bytes[..self.len]).map_err(|_| fmt::Error)
    }

    #[inline(always)]
    pub(crate) fn put(&mut self, text: &str) {
        let end = self.len + text.len();
        self.bytes[self.len..end].copy_from_slice(text.as_bytes());
        self.len = end;
    }

    #[inline(always)]
    pub(crate) fn byte(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    /// `v` in decimal, two digits per division.
    #[inline(always)]
    pub(crate) fn uint(&mut self, mut v: u64) {
        const PAIRS: &[u8; 200] = b"\
            0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let digits = v.checked_ilog10().map_or(1, |log| log as usize + 1);
        self.len += digits;
        let mut at = self.len;
        while v >= 10 {
            let pair = 2 * (v % 100) as usize;
            v /= 100;
            at -= 2;
            self.bytes[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        // An odd digit count leaves the leading digit.
        if at > self.len - digits {
            // The loop ends with `v < 10`.
            #[allow(clippy::cast_possible_truncation)]
            let digit = v as u8;
            self.bytes[at - 1] = b'0' + digit;
        }
    }

    /// `v` in decimal.
    #[inline(always)]
    pub(crate) fn int(&mut self, v: i64) {
        if v < 0 {
            self.byte(b'-');
        }
        self.uint(v.unsigned_abs());
    }

    #[inline(always)]
    fn addr(&mut self, addr: Addr) {
        self.put("[r");
        self.uint(addr.base.index().into());
        if addr.offset >= 0 {
            self.byte(b'+');
        }
        self.int(addr.offset.into());
        self.byte(b']');
    }

    #[inline(always)]
    fn operand(&mut self, op: Operand) {
        match op {
            Operand::Reg(r) => {
                self.byte(b'r');
                self.uint(r.index().into());
            }
            Operand::Addr(a) => self.addr(a),
            Operand::GAddr(a) => {
                self.byte(b'g');
                self.addr(a);
            }
            Operand::Core(c) => {
                self.put("core");
                self.uint(c.0.into());
            }
            Operand::Group(g) => {
                self.byte(b'g');
                self.uint(g.0.into());
            }
            Operand::Int(v) => self.int(v),
            Operand::Key(key, v) => {
                self.put(key);
                self.int(v);
            }
            Operand::Win(w, h) => {
                self.put("win=");
                self.uint(w.into());
                self.byte(b'x');
                self.uint(h.into());
            }
        }
    }

    /// `mnemonic`, a space and `operands` separated by `, `.
    #[inline(always)]
    pub(crate) fn instruction(&mut self, mnemonic: &str, operands: &[Operand]) {
        self.put(mnemonic);
        for (i, &op) in operands.iter().enumerate() {
            if i > 0 {
                self.byte(b',');
            }
            self.byte(b' ');
            self.operand(op);
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = AsmLine::new();
        self.write_asm(&mut line);
        f.write_str(line.as_str()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(base: Reg, off: i32) -> Addr {
        Addr::new(base, off).unwrap()
    }

    /// `ALL` is every variant in declaration order: the `match` stops
    /// compiling when a variant is added without an arm here, and the
    /// assertion then fails until `ALL` lists it too.
    macro_rules! all_lists_every_variant {
        ($($test:ident: $ty:ident [$($v:ident),+];)+) => {$(
            #[test]
            fn $test() {
                let listed = |op: $ty| match op {
                    $($ty::$v)|+ => op,
                };
                assert_eq!($ty::ALL, [$(listed($ty::$v)),+]);
            }
        )+};
    }

    all_lists_every_variant! {
        vbin_all_is_exhaustive: VBinOp [Add, Sub, Mul, Max, Min];
        vimm_all_is_exhaustive: VImmOp [Add, Mul, Sra];
        vun_all_is_exhaustive: VUnOp [Relu, Sigmoid, Tanh, Copy, Neg, Abs];
        pool_all_is_exhaustive: PoolOp [Max, Avg];
        sbin_all_is_exhaustive: SBinOp [Add, Sub, Mul, And, Or, Xor, Slt, Sll, Srl];
        simm_all_is_exhaustive: SImmOp [Add, Mul, Sll, Srl, And, Or, Slt];
        branch_all_is_exhaustive: BranchCond [Eq, Ne, Lt, Ge];
    }

    #[test]
    fn op_mnemonics_are_distinct() {
        let mut all: Vec<&str> = VBinOp::ALL.map(VBinOp::mnemonic).to_vec();
        all.extend(VImmOp::ALL.map(VImmOp::mnemonic));
        all.extend(VUnOp::ALL.map(VUnOp::mnemonic));
        all.extend(PoolOp::ALL.map(PoolOp::mnemonic));
        all.extend(SBinOp::ALL.map(SBinOp::mnemonic));
        all.extend(SImmOp::ALL.map(SImmOp::mnemonic));
        all.extend(BranchCond::ALL.map(BranchCond::mnemonic));
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!((count, all.len()), (36, 36));
    }

    #[test]
    fn classes_cover_all_variants() {
        assert_eq!(
            Instruction::Mvm {
                group: 0.into(),
                dst: addr(Reg::R1, 0),
                src: addr(Reg::R2, 0),
                len: 4
            }
            .class(),
            InstrClass::Matrix
        );
        assert_eq!(
            Instruction::VFill {
                dst: addr(Reg::R1, 0),
                value: 0,
                len: 1
            }
            .class(),
            InstrClass::Vector
        );
        assert_eq!(
            Instruction::Send {
                peer: 1.into(),
                src: addr(Reg::R0, 0),
                len: 1,
                tag: 0
            }
            .class(),
            InstrClass::Transfer
        );
        assert_eq!(Instruction::Halt.class(), InstrClass::Scalar);
        assert!(Instruction::Halt.is_terminator());
        assert!(!Instruction::Nop.is_terminator());
    }

    #[test]
    fn addr_offset_range_enforced() {
        assert!(Addr::new(Reg::R1, limits::smax(limits::ADDR_OFFSET_BITS) as i32).is_ok());
        assert!(Addr::new(Reg::R1, limits::smax(limits::ADDR_OFFSET_BITS) as i32 + 1).is_err());
        assert!(Addr::new(Reg::R1, limits::smin(limits::ADDR_OFFSET_BITS) as i32).is_ok());
        assert!(Addr::new(Reg::R1, limits::smin(limits::ADDR_OFFSET_BITS) as i32 - 1).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(addr(Reg::R2, 5).to_string(), "[r2+5]");
        assert_eq!(addr(Reg::R2, -5).to_string(), "[r2-5]");
        let i = Instruction::VBin {
            op: VBinOp::Add,
            dst: addr(Reg::R1, 0),
            a: addr(Reg::R2, 8),
            b: addr(Reg::R3, -8),
            len: 64,
        };
        assert_eq!(i.to_string(), "vadd [r1+0], [r2+8], [r3-8], 64");
        let s = Instruction::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::R4,
            rs2: Reg::R5,
            target: 12,
        };
        assert_eq!(s.to_string(), "blt r4, r5, 12");
        let g = Instruction::GStore {
            gaddr: addr(Reg::R7, 100),
            src: addr(Reg::R0, 3),
            len: 9,
        };
        assert_eq!(g.to_string(), "gstore g[r7+100], [r0+3], 9");
    }

    #[test]
    fn ids_display() {
        assert_eq!(CoreId(7).to_string(), "core7");
        assert_eq!(GroupId(7).to_string(), "g7");
        assert_eq!(CoreId(3).as_usize(), 3);
    }

    #[test]
    fn terminators_and_branch_targets() {
        let br = Instruction::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::R1,
            rs2: Reg::R2,
            target: 7,
        };
        let jmp = Instruction::Jump { target: 3 };
        assert!(br.is_terminator());
        assert!(jmp.is_terminator());
        assert!(Instruction::Halt.is_terminator());
        assert!(!Instruction::Nop.is_terminator());
        assert_eq!(br.branch_target(), Some(7));
        assert_eq!(jmp.branch_target(), Some(3));
        assert_eq!(Instruction::Halt.branch_target(), None);
        assert_eq!(Instruction::Nop.branch_target(), None);
    }

    #[test]
    fn scalar_semantics_at_the_edges() {
        use SBinOp::*;
        let binary = [
            // Shift amounts are masked to 5 bits: 32 is 0, 33 is 1, -1 is 31.
            (Sll, 1, 31, i32::MIN),
            (Sll, 1, 32, 1),
            (Sll, 1, 33, 2),
            (Sll, 1, -1, i32::MIN),
            (Srl, i32::MIN, 31, 1),
            (Srl, -1, 32, -1),
            (Srl, -1, 33, i32::MAX),
            (Srl, -1, -1, 1),
            // Logical, not arithmetic, right shift.
            (Srl, -8, 1, 0x7fff_fffc),
            // Wrapping arithmetic.
            (Mul, i32::MIN, -1, i32::MIN),
            (Add, i32::MAX, 1, i32::MIN),
            (Sub, i32::MIN, 1, i32::MAX),
            // Signed compare.
            (Slt, -1, 0, 1),
            (Slt, 0, -1, 0),
            (Slt, 3, 3, 0),
            (And, 0b1100, 0b1010, 0b1000),
            (Or, 0b1100, 0b1010, 0b1110),
            (Xor, 0b1100, 0b1010, 0b0110),
        ];
        for (op, a, b, want) in binary {
            assert_eq!(op.apply(a, b), want, "{} {a}, {b}", op.mnemonic());
        }
        let immediate = [
            (SImmOp::Sll, 1, 33, 2),
            (SImmOp::Srl, -1, -1, 1),
            (SImmOp::Mul, i32::MIN, -1, i32::MIN),
            (SImmOp::Slt, -5, -4, 1),
            (SImmOp::Add, 7, -8, -1),
            (SImmOp::And, -1, 6, 6),
            (SImmOp::Or, 1, 6, 7),
        ];
        for (op, a, imm, want) in immediate {
            assert_eq!(op.apply(a, imm), want, "{} {a}, {imm}", op.mnemonic());
        }
        // Each condition at equality, and signed below it.
        for (cond, at_equal, below) in [
            (BranchCond::Eq, true, false),
            (BranchCond::Ne, false, true),
            (BranchCond::Lt, false, true),
            (BranchCond::Ge, true, false),
        ] {
            assert_eq!(cond.holds(-3, -3), at_equal, "{}", cond.mnemonic());
            assert_eq!(cond.holds(-4, -3), below, "{}", cond.mnemonic());
        }
    }

    #[test]
    fn exec_scalar_moves_the_pc_and_discards_r0() {
        let mut regs = [0i32; 32];
        regs[1] = 5;
        let addi = |rd, imm| Instruction::SImm {
            op: SImmOp::Add,
            rd,
            rs1: Reg::R1,
            imm,
        };
        assert_eq!(addi(Reg::R2, 3).exec_scalar(&mut regs, 4), Some(5));
        assert_eq!(regs[2], 8);
        assert_eq!(addi(Reg::R0, 3).exec_scalar(&mut regs, 5), Some(6));
        assert_eq!(regs[0], 0, "r0 stays zero");
        let branch = |cond| Instruction::Branch {
            cond,
            rs1: Reg::R1,
            rs2: Reg::R2,
            target: 40,
        };
        assert_eq!(branch(BranchCond::Lt).exec_scalar(&mut regs, 6), Some(40));
        assert_eq!(branch(BranchCond::Ge).exec_scalar(&mut regs, 6), Some(7));
        let jump = Instruction::Jump { target: 2 };
        assert_eq!(jump.exec_scalar(&mut regs, 9), Some(2));
        assert_eq!(Instruction::Nop.exec_scalar(&mut regs, 9), Some(10));
        assert_eq!(Instruction::Halt.exec_scalar(&mut regs, 9), None);
        let fill = Instruction::VFill {
            dst: addr(Reg::R1, 0),
            value: 1,
            len: 4,
        };
        let before = regs;
        assert_eq!(fill.exec_scalar(&mut regs, 3), Some(4));
        assert_eq!(regs, before, "memory-class: no register effect");
    }

    #[test]
    fn def_and_use_registers() {
        let sbin = Instruction::SBin {
            op: SBinOp::Add,
            rd: Reg::R3,
            rs1: Reg::R4,
            rs2: Reg::R5,
        };
        assert_eq!(sbin.def_reg(), Some(Reg::R3));
        let set = |regs: &[u8]| regs.iter().fold(0u32, |set, r| set | 1 << r);
        assert_eq!(sbin.uses_regs(), set(&[4, 5]));

        let simm = Instruction::SImm {
            op: SImmOp::Add,
            rd: Reg::R6,
            rs1: Reg::R7,
            imm: 1,
        };
        assert_eq!(simm.def_reg(), Some(Reg::R6));
        assert_eq!(simm.uses_regs(), set(&[7]));

        // Memory operands contribute their base registers.
        let vbin = Instruction::VBin {
            op: VBinOp::Add,
            dst: addr(Reg::R1, 0),
            a: addr(Reg::R2, 8),
            b: addr(Reg::R3, -8),
            len: 64,
        };
        assert_eq!(vbin.def_reg(), None);
        assert_eq!(vbin.uses_regs(), set(&[1, 2, 3]));

        let gload = Instruction::GLoad {
            dst: addr(Reg::R8, 0),
            gaddr: addr(Reg::R2, 4),
            len: 16,
        };
        assert_eq!(gload.uses_regs(), set(&[8, 2]));

        assert_eq!(Instruction::Halt.uses_regs(), 0);
        assert_eq!(Instruction::Jump { target: 0 }.uses_regs(), 0);
    }

    #[test]
    fn transfers_name_their_channel() {
        let send = Instruction::Send {
            peer: CoreId(4),
            src: addr(Reg::R1, 0),
            len: 8,
            tag: 9,
        };
        let recv2d = Instruction::Recv2d {
            peer: CoreId(2),
            dst: addr(Reg::R1, 0),
            block_len: 4,
            blocks: 2,
            dst_stride: 8,
            tag: 9,
        };
        assert_eq!(send.channel(3), Some((3, 4, 9)));
        assert_eq!(recv2d.channel(3), Some((2, 3, 9)));
        assert_eq!(Instruction::Halt.channel(3), None);
    }

    #[test]
    fn recv_variants_share_one_payload_rule() {
        let recv = Instruction::Recv {
            peer: CoreId(1),
            dst: addr(Reg::R0, 64),
            len: 32,
            tag: 7,
        };
        let recv2d = |block_len, blocks| Instruction::Recv2d {
            peer: CoreId(1),
            dst: addr(Reg::R0, 64),
            block_len,
            blocks,
            dst_stride: 40,
            tag: 7,
        };
        assert_eq!(recv.payload_len(), Some(32));
        assert_eq!(recv2d(8, 4).payload_len(), Some(32));
        // The product does not wrap to a length a send could carry.
        assert_eq!(recv2d(65536, 65536).payload_len(), Some(1 << 32));
        let gload = Instruction::GLoad {
            dst: addr(Reg::R0, 0),
            gaddr: addr(Reg::R0, 0),
            len: 8,
        };
        // Exactly the instructions with a channel carry a payload.
        for instr in [recv, recv2d(1, 1), gload, Instruction::Halt] {
            assert_eq!(instr.payload_len().is_some(), instr.channel(0).is_some());
        }
    }
}
