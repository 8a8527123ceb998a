//! The opcode table: one row per [`Instruction`] variant, the one place the
//! text syntax and the field widths of the ISA are declared. The ISA
//! article (arXiv:2308.06449) defines its instructions the same way, as one
//! table of fields and widths.
//!
//! A row gives the variant's [`InstrClass`], its operands in text order and
//! its mnemonic; a variant that carries an op gives instead its op enum,
//! one mnemonic per value. An operand is `field: kind`, or
//! `field: kind(WIDTH)` when a field of the instruction format bounds it
//! (a width from [`crate::limits`]):
//!
//! * `reg`: a register, `r7`;
//! * `addr` / `gaddr`: a local address `[r1+8]` / a global one `g[r1+8]`,
//!   whose offset is always [`ADDR_OFFSET_BITS`] wide;
//! * `core`: `core3`; `group`: `g3`;
//! * `target`: a branch target, an instruction index (or, in
//!   [`crate::asm::assemble`], a label);
//! * `int`: an integer, signed when its field is;
//! * `key("name", WIDTH)`: `name=value`;
//! * `win(WIDTH)`: `win=WxH`, which fills two fields.
//!
//! An alias row, after the others, is another spelling the assembler reads
//! and the writer never prints: fixed fields, then the operands it reads.
//!
//! From the table come each op enum with its `ALL` and `mnemonic()`,
//! [`Instruction::class`], the assembler's [`decode`], the line writer
//! behind `Display` and the width check, each a `match` with one arm per
//! row and no `_` arm: a variant without a row, or a row naming a field its
//! variant lacks, does not compile. A mnemonic is a byte string so that
//! [`decode`] matches bytes, which compiles to a branch on the length and
//! then the bytes.

use crate::asm::Operands;
use crate::error::IsaError;
use crate::instr::limits::{
    smax, smin, umax, ADDR_OFFSET_BITS, BLOCK_BITS, CHAN_BITS, CORE_BITS, GROUP_BITS, LEN_BITS,
    STRIDE_BITS, TAG_BITS, TARGET_BITS, VIMM_BITS, WIN_BITS,
};
use crate::instr::{AsmLine, InstrClass, Instruction, Operand};
use crate::reg::Reg;

/// The Rust type of an integer field: its sign, for the width check, and
/// how the assembler words a value the type cannot hold.
pub(crate) trait IntField: Into<i64> + TryFrom<i64> {
    /// `true` when the field is signed.
    const SIGNED: bool;

    /// The error for `v` as a bare operand.
    fn unfit(v: i64) -> String {
        format!("expected unsigned value, got {v}")
    }

    /// The error for `v` as the value of `key=`.
    fn unfit_key(key: &str, v: i64) -> String;
}

impl IntField for u32 {
    const SIGNED: bool = false;

    fn unfit_key(key: &str, v: i64) -> String {
        format!("`{key}` must be unsigned, got {v}")
    }
}

impl IntField for i32 {
    const SIGNED: bool = true;

    fn unfit(v: i64) -> String {
        format!("immediate {v} does not fit 32 bits")
    }

    fn unfit_key(key: &str, v: i64) -> String {
        format!("`{key}` value {v} does not fit")
    }
}

impl IntField for u16 {
    const SIGNED: bool = false;

    fn unfit_key(key: &str, v: i64) -> String {
        format!("`{key}` value {v} does not fit u16")
    }
}

/// `Ok` when `value` fits a `bits`-bit field of its type's sign; otherwise
/// the error naming `field`, worded like [`IsaError::FieldRange`].
#[inline(always)]
fn fits<T: IntField>(field: &str, value: T, bits: u32) -> Result<(), String> {
    let (min, max) = if T::SIGNED {
        (smin(bits), smax(bits))
    } else {
        (0, i64::try_from(umax(bits)).unwrap_or(i64::MAX))
    };
    let value = value.into();
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

/// A mnemonic's text; evaluated at compile time.
const fn text(mnemonic: &'static [u8]) -> &'static str {
    match std::str::from_utf8(mnemonic) {
        Ok(text) => text,
        Err(_) => panic!("a mnemonic is ASCII"),
    }
}

/// One operand, `kind [fields] (arguments)`, as each reader of the table
/// uses it.
macro_rules! operand {
    // Reads the operand from `ops` into its fields; a single-field kind
    // is read by the `Operands` method of its name.
    (read $ops:ident, key [$f:ident] ($key:literal, $bits:ident)) => {
        let $f = $ops.key($key)?;
    };
    (read $ops:ident, win [$w:ident $h:ident] $bits:tt) => {
        let ($w, $h) = $ops.win()?;
    };
    (read $ops:ident, $kind:ident [$f:ident] $bits:tt) => {
        let $f = $ops.$kind()?;
    };

    // The operand as the line writer prints it.
    (write reg [$f:ident] $bits:tt) => { Operand::Reg($f) };
    (write addr [$f:ident] $bits:tt) => { Operand::Addr($f) };
    (write gaddr [$f:ident] $bits:tt) => { Operand::GAddr($f) };
    (write core [$f:ident] $bits:tt) => { Operand::Core($f) };
    (write group [$f:ident] $bits:tt) => { Operand::Group($f) };
    (write target [$f:ident] $bits:tt) => { Operand::Int($f.into()) };
    (write int [$f:ident] $bits:tt) => { Operand::Int($f.into()) };
    (write key [$f:ident] ($key:literal, $bits:ident)) => {
        Operand::Key(concat!($key, "="), $f.into())
    };
    (write win [$w:ident $h:ident] $bits:tt) => { Operand::Win($w, $h) };

    // Checks each field against its width, naming it as the struct does.
    (fits addr [$f:ident] ()) => {
        fits(concat!(stringify!($f), " offset"), $f.offset(), ADDR_OFFSET_BITS)?
    };
    (fits gaddr [$f:ident] ()) => { operand!(fits addr [$f] ()) };
    (fits core [$f:ident] ($bits:ident)) => { fits(stringify!($f), $f.0, $bits)? };
    (fits group [$f:ident] ($bits:ident)) => { fits(stringify!($f), $f.0, $bits)? };
    (fits win [$w:ident $h:ident] ($bits:ident)) => {
        fits(stringify!($w), $w, $bits)?;
        fits(stringify!($h), $h, $bits)?
    };
    (fits $kind:ident [$f:ident] ($($key:literal,)? $bits:ident)) => {
        fits(stringify!($f), $f, $bits)?
    };
    // A register, or the 32-bit scalar immediate: its type is its field.
    (fits $kind:ident [$f:ident] ()) => {};
}

/// A row's operand list, `[fields: kind(arguments), ...]`, as each reader
/// of the table uses it.
macro_rules! row {
    // The instruction, its operands read from `ops` and `fixed` set.
    (decode $ops:ident, $V:ident {$($fixed:tt)*}
        [$($($f:ident)+ : $kind:ident $(($($arg:tt)*))?),*]) => {{
        $(operand!(read $ops, $kind [$($f)+] ($($($arg)*)?));)*
        Instruction::$V { $($fixed)* $($($f,)+)* }
    }};
    // A pattern binding the operands' fields and `bound`.
    (pattern $V:ident {$($bound:ident)?}
        [$($($f:ident)+ : $kind:ident $(($($arg:tt)*))?),*]) => {
        Instruction::$V { $($bound,)? $($($f,)+)* .. }
    };
    // The operands as the line writer prints them.
    (write [$($($f:ident)+ : $kind:ident $(($($arg:tt)*))?),*]) => {
        [$(operand!(write $kind [$($f)+] ($($($arg)*)?))),*]
    };
    // Each field's width check, in text order.
    (fits [$($($f:ident)+ : $kind:ident $(($($arg:tt)*))?),*]) => {
        $(operand!(fits $kind [$($f)+] ($($($arg)*)?));)*
    };
}

/// The op enums and the `Instruction` functions of the table; see the
/// module docs for its grammar.
macro_rules! opcodes {
    (
        $(
            $class:ident $V:ident $operands:tt
            $($mnemonic:literal)?
            $(
                $(#[$doc:meta])*
                $op:ident: $Op:ident {
                    $($(#[$vdoc:meta])* $v:ident $vmnemonic:literal,)*
                }
            )?;
        )*
        $($alias:literal => $AV:ident {$($fixed:tt)*} $aoperands:tt;)*
    ) => {
        $($(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
            pub enum $Op {
                $($(#[$vdoc])* $v,)*
            }

            impl $Op {
                /// Every value, in the order the opcode table lists them.
                pub const ALL: [$Op; [$(stringify!($v)),*].len()] = [$($Op::$v),*];

                /// Canonical mnemonic.
                pub fn mnemonic(self) -> &'static str {
                    match self {
                        $($Op::$v => const { text($vmnemonic) },)*
                    }
                }
            }
        )?)*

        impl Instruction {
            /// The instruction's class, which selects the execution unit.
            pub fn class(&self) -> InstrClass {
                match self {
                    $(Instruction::$V { .. } => InstrClass::$class,)*
                }
            }

            /// Appends the canonical assembly text of `self` (what `Display`
            /// prints and [`crate::asm::disassemble`] writes) to `line`.
            pub(crate) fn write_asm(&self, line: &mut AsmLine) {
                match *self {
                    $(row!(pattern $V {$($op)?} $operands) => line.instruction(
                        $($op.mnemonic())? $(const { text($mnemonic) })?,
                        &row!(write $operands),
                    ),)*
                }
            }

            /// Checks that every operand fits its field of the instruction
            /// format ([`crate::limits`]); the first that does not, in text
            /// order, worded like [`IsaError::FieldRange`].
            /// [`crate::Program::validate`] and the assembler (so also
            /// [`crate::Program::from_json`]) call it.
            // Fields with no width are bound and left unread.
            #[allow(unused_variables)]
            pub(crate) fn fits_fields(&self) -> Result<(), String> {
                match *self {
                    $(row!(pattern $V {} $operands) => { row!(fits $operands); })*
                }
                Ok(())
            }
        }

        /// The instruction `mnemonic` names, its operands read from `ops`.
        pub(crate) fn decode(
            mnemonic: &str,
            ops: &mut Operands<'_>,
        ) -> Result<Instruction, IsaError> {
            Ok(match mnemonic.as_bytes() {
                $(
                    $($mnemonic => row!(decode ops, $V {} $operands),)?
                    $($($vmnemonic => row!(decode ops, $V {$op: $Op::$v,} $operands),)*)?
                )*
                $($alias => row!(decode ops, $AV {$($fixed)*} $aoperands),)*
                _ => return Err(ops.unknown()),
            })
        }
    };
}

opcodes! {
    Matrix Mvm [group: group(GROUP_BITS), dst: addr, src: addr, len: int(LEN_BITS)] b"mvm";

    Vector VBin [dst: addr, a: addr, b: addr, len: int(LEN_BITS)]
        /// Two-operand vector arithmetic operations (element-wise, on local memory).
        op: VBinOp {
            /// Element-wise addition (used for partial-sum reduction and residual add).
            Add b"vadd",
            /// Element-wise subtraction.
            Sub b"vsub",
            /// Element-wise multiplication (Hadamard; used for scale/batch-norm folding).
            Mul b"vmul",
            /// Element-wise maximum (building block of max pooling).
            Max b"vmax",
            /// Element-wise minimum.
            Min b"vmin",
        };
    Vector VImm [dst: addr, src: addr, imm: int(VIMM_BITS), len: int(LEN_BITS)]
        /// Vector-immediate operations: `dst[i] = src[i] op imm`.
        op: VImmOp {
            /// Add a scalar immediate to every element.
            Add b"vaddi",
            /// Multiply every element by a scalar immediate.
            Mul b"vmuli",
            /// Arithmetic shift right by `imm` bits (fixed-point requantization).
            Sra b"vsrai",
        };
    Vector VUn [dst: addr, src: addr, len: int(LEN_BITS)]
        /// One-operand vector operations: `dst[i] = f(src[i])`.
        op: VUnOp {
            /// Rectified linear unit.
            Relu b"vrelu",
            /// Sigmoid via lookup table (functional model uses a fixed-point LUT).
            Sigmoid b"vsigmoid",
            /// Hyperbolic tangent via lookup table.
            Tanh b"vtanh",
            /// Plain element copy.
            Copy b"vcopy",
            /// Negation.
            Neg b"vneg",
            /// Absolute value.
            Abs b"vabs",
        };
    Vector VFill [dst: addr, value: int(VIMM_BITS), len: int(LEN_BITS)] b"vfill";
    Vector VCopy2d [dst: addr, src: addr, block_len: key("block", BLOCK_BITS),
        blocks: key("blocks", BLOCK_BITS), src_stride: key("sstride", STRIDE_BITS),
        dst_stride: key("dstride", STRIDE_BITS)] b"vcopy2d";
    Vector VPool [dst: addr, src: addr, channels: key("ch", CHAN_BITS),
        win_w win_h: win(WIN_BITS), row_stride: key("rstride", STRIDE_BITS)]
        /// Pooling reduction kind for the fused [`Instruction::VPool`] macro-op.
        op: PoolOp {
            /// Max pooling.
            Max b"vpool.max",
            /// Average pooling (integer mean, rounded toward zero).
            Avg b"vpool.avg",
        };

    Transfer Send [peer: core(CORE_BITS), src: addr, len: int(LEN_BITS), tag: key("tag", TAG_BITS)]
        b"send";
    Transfer Recv [peer: core(CORE_BITS), dst: addr, len: int(LEN_BITS), tag: key("tag", TAG_BITS)]
        b"recv";
    Transfer Recv2d [peer: core(CORE_BITS), dst: addr, block_len: key("block", BLOCK_BITS),
        blocks: key("blocks", BLOCK_BITS), dst_stride: key("dstride", STRIDE_BITS),
        tag: key("tag", TAG_BITS)] b"recv2d";
    Transfer GLoad [dst: addr, gaddr: gaddr, len: int(LEN_BITS)] b"gload";
    Transfer GStore [gaddr: gaddr, src: addr, len: int(LEN_BITS)] b"gstore";

    Scalar SBin [rd: reg, rs1: reg, rs2: reg]
        /// Three-register scalar ALU operations.
        op: SBinOp {
            /// Addition.
            Add b"add",
            /// Subtraction.
            Sub b"sub",
            /// Multiplication (low 32 bits).
            Mul b"mul",
            /// Bitwise AND.
            And b"and",
            /// Bitwise OR.
            Or b"or",
            /// Bitwise XOR.
            Xor b"xor",
            /// Set-if-less-than (signed): `rd = (rs1 < rs2) as i32`.
            Slt b"slt",
            /// Logical shift left by `rs2 & 31`.
            Sll b"sll",
            /// Logical shift right by `rs2 & 31`.
            Srl b"srl",
        };
    Scalar SImm [rd: reg, rs1: reg, imm: int]
        /// Register-immediate scalar operations.
        op: SImmOp {
            /// `rd = rs1 + imm` (with `rs1 = r0` this is `li`).
            Add b"addi",
            /// `rd = rs1 * imm`.
            Mul b"muli",
            /// `rd = rs1 << imm`.
            Sll b"slli",
            /// `rd = rs1 >> imm` (logical).
            Srl b"srli",
            /// `rd = rs1 & imm`.
            And b"andi",
            /// `rd = rs1 | imm`.
            Or b"ori",
            /// `rd = (rs1 < imm) as i32` (signed).
            Slt b"slti",
        };
    Scalar Branch [rs1: reg, rs2: reg, target: target(TARGET_BITS)]
        /// Branch comparison conditions (signed).
        cond: BranchCond {
            /// Branch if equal.
            Eq b"beq",
            /// Branch if not equal.
            Ne b"bne",
            /// Branch if less than (signed).
            Lt b"blt",
            /// Branch if greater or equal (signed).
            Ge b"bge",
        };
    Scalar Jump [target: target(TARGET_BITS)] b"jmp";
    Scalar Halt [] b"halt";
    Scalar Nop [] b"nop";

    // `li rd, imm` is `addi rd, r0, imm`.
    b"li" => SImm {op: SImmOp::Add, rs1: Reg::R0,} [rd: reg, imm: int];
}
