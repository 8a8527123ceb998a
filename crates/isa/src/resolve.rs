//! Operand resolution: ISA instructions → absolute addresses + hazard
//! footprints, using the dispatching core's register file.
//!
//! The simulator resolves every memory-class instruction here at
//! dispatch; the static bound analyzer resolves the same instructions
//! against the register file it interprets. Both get the same addresses
//! and the same [`Footprint`] from the one definition.

use crate::instr::{Addr, GroupId, Instruction, PoolOp, VBinOp, VImmOp, VUnOp};
use crate::range::{Footprint, Range};

/// A memory-class instruction with every operand resolved to an absolute
/// element address at dispatch time. Fields mean what the same-named
/// [`Instruction`] fields mean, with each [`Addr`] resolved; `peer` is
/// the peer core's index.
#[allow(missing_docs)] // variants and fields: see `Instruction`
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resolved {
    Mvm {
        group: GroupId,
        dst: u32,
        src: u32,
        len: u32,
    },
    VBin {
        op: VBinOp,
        dst: u32,
        a: u32,
        b: u32,
        len: u32,
    },
    VImm {
        op: VImmOp,
        dst: u32,
        src: u32,
        imm: i32,
        len: u32,
    },
    VUn {
        op: VUnOp,
        dst: u32,
        src: u32,
        len: u32,
    },
    VFill {
        dst: u32,
        value: i32,
        len: u32,
    },
    VCopy2d {
        dst: u32,
        src: u32,
        block_len: u32,
        blocks: u32,
        src_stride: i32,
        dst_stride: i32,
    },
    VPool {
        op: PoolOp,
        dst: u32,
        src: u32,
        channels: u32,
        win_w: u32,
        win_h: u32,
        row_stride: i32,
    },
    Send {
        peer: u16,
        src: u32,
        len: u32,
        tag: u16,
    },
    /// `dst_stride == block_len` ⇒ contiguous (plain `recv`).
    Recv {
        peer: u16,
        dst: u32,
        block_len: u32,
        blocks: u32,
        dst_stride: i32,
        tag: u16,
    },
    GLoad {
        dst: u32,
        gaddr: u64,
        len: u32,
    },
    GStore {
        gaddr: u64,
        src: u32,
        len: u32,
    },
}

impl Resolved {
    /// Everything this instruction touches, for hazard checks. For `MVM`
    /// the output length is supplied by the caller (from the group table).
    #[inline]
    pub fn footprint(&self, mvm_out_len: u32) -> Footprint {
        let gmem = match *self {
            Resolved::GLoad { gaddr, len, .. } => Some((gaddr, gaddr + len as u64, false)),
            Resolved::GStore { gaddr, len, .. } => Some((gaddr, gaddr + len as u64, true)),
            _ => None,
        };
        Footprint {
            reads: self.reads(),
            write: self.write(mvm_out_len),
            gmem,
        }
    }

    /// Local-memory ranges read by this instruction. No instruction reads
    /// more than two; unused slots are empty ranges, which overlap nothing.
    #[inline]
    fn reads(&self) -> [Range; 2] {
        const NONE: Range = Range::EMPTY;
        match self {
            Resolved::VBin { a, b, len, .. } => [Range::new(*a, *len), Range::new(*b, *len)],
            Resolved::Mvm { src, len, .. }
            | Resolved::VImm { src, len, .. }
            | Resolved::VUn { src, len, .. }
            | Resolved::Send { src, len, .. }
            | Resolved::GStore { src, len, .. } => [Range::new(*src, *len), NONE],
            Resolved::VCopy2d {
                src,
                block_len,
                blocks,
                src_stride,
                ..
            } => [Range::strided(*src, *block_len, *blocks, *src_stride), NONE],
            Resolved::VPool {
                src,
                channels,
                win_w,
                win_h,
                row_stride,
                ..
            } => [
                Range::pool_window(*src, *channels, *win_w, *win_h, *row_stride),
                NONE,
            ],
            Resolved::VFill { .. } | Resolved::Recv { .. } | Resolved::GLoad { .. } => [NONE, NONE],
        }
    }

    /// The local-memory range written by this instruction (empty for
    /// `SEND`/`GSTORE`). For `MVM` the output length is supplied by the
    /// caller (from the group table).
    #[inline]
    fn write(&self, mvm_out_len: u32) -> Range {
        match self {
            Resolved::Mvm { dst, .. } => Range::new(*dst, mvm_out_len),
            Resolved::VBin { dst, len, .. }
            | Resolved::VImm { dst, len, .. }
            | Resolved::VUn { dst, len, .. }
            | Resolved::VFill { dst, len, .. }
            | Resolved::GLoad { dst, len, .. } => Range::new(*dst, *len),
            Resolved::VCopy2d {
                dst,
                block_len,
                blocks,
                dst_stride,
                ..
            }
            | Resolved::Recv {
                dst,
                block_len,
                blocks,
                dst_stride,
                ..
            } => Range::strided(*dst, *block_len, *blocks, *dst_stride),
            Resolved::VPool { dst, channels, .. } => Range::new(*dst, *channels),
            Resolved::Send { .. } | Resolved::GStore { .. } => Range::new(0, 0),
        }
    }
}

/// Resolves `addr` against a register file.
#[inline]
fn abs(addr: Addr, regs: &[i32; 32]) -> u32 {
    let base = regs[addr.base().index() as usize] as i64;
    (base + addr.offset() as i64).max(0) as u32
}

/// Resolves a memory-class instruction. Returns `None` for scalar-class
/// instructions (they execute at dispatch and never enter the ROB).
#[inline]
pub fn resolve(instr: &Instruction, regs: &[i32; 32]) -> Option<Resolved> {
    use Instruction as I;
    Some(match instr {
        I::Mvm {
            group,
            dst,
            src,
            len,
        } => Resolved::Mvm {
            group: *group,
            dst: abs(*dst, regs),
            src: abs(*src, regs),
            len: *len,
        },
        I::VBin { op, dst, a, b, len } => Resolved::VBin {
            op: *op,
            dst: abs(*dst, regs),
            a: abs(*a, regs),
            b: abs(*b, regs),
            len: *len,
        },
        I::VImm {
            op,
            dst,
            src,
            imm,
            len,
        } => Resolved::VImm {
            op: *op,
            dst: abs(*dst, regs),
            src: abs(*src, regs),
            imm: *imm,
            len: *len,
        },
        I::VUn { op, dst, src, len } => Resolved::VUn {
            op: *op,
            dst: abs(*dst, regs),
            src: abs(*src, regs),
            len: *len,
        },
        I::VFill { dst, value, len } => Resolved::VFill {
            dst: abs(*dst, regs),
            value: *value,
            len: *len,
        },
        I::VCopy2d {
            dst,
            src,
            block_len,
            blocks,
            src_stride,
            dst_stride,
        } => Resolved::VCopy2d {
            dst: abs(*dst, regs),
            src: abs(*src, regs),
            block_len: *block_len,
            blocks: *blocks,
            src_stride: *src_stride,
            dst_stride: *dst_stride,
        },
        I::VPool {
            op,
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride,
        } => Resolved::VPool {
            op: *op,
            dst: abs(*dst, regs),
            src: abs(*src, regs),
            channels: *channels,
            win_w: *win_w,
            win_h: *win_h,
            row_stride: *row_stride,
        },
        I::Send {
            peer,
            src,
            len,
            tag,
        } => Resolved::Send {
            peer: peer.0,
            src: abs(*src, regs),
            len: *len,
            tag: *tag,
        },
        I::Recv {
            peer,
            dst,
            len,
            tag,
        } => Resolved::Recv {
            peer: peer.0,
            dst: abs(*dst, regs),
            block_len: *len,
            blocks: 1,
            dst_stride: *len as i32,
            tag: *tag,
        },
        I::Recv2d {
            peer,
            dst,
            block_len,
            blocks,
            dst_stride,
            tag,
        } => Resolved::Recv {
            peer: peer.0,
            dst: abs(*dst, regs),
            block_len: *block_len,
            blocks: *blocks,
            dst_stride: *dst_stride,
            tag: *tag,
        },
        I::GLoad { dst, gaddr, len } => Resolved::GLoad {
            dst: abs(*dst, regs),
            gaddr: abs(*gaddr, regs) as u64,
            len: *len,
        },
        I::GStore { gaddr, src, len } => Resolved::GStore {
            gaddr: abs(*gaddr, regs) as u64,
            src: abs(*src, regs),
            len: *len,
        },
        I::SBin { .. } | I::SImm { .. } | I::Branch { .. } | I::Jump { .. } | I::Halt | I::Nop => {
            return None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_instruction;
    use crate::instr::SImmOp;
    use crate::reg::Reg;

    fn regs_with(r1: i32) -> [i32; 32] {
        let mut regs = [0i32; 32];
        regs[1] = r1;
        regs
    }

    #[test]
    fn resolution_uses_registers() {
        let regs = regs_with(1000);
        let i = parse_instruction("vadd [r1+24], [r1+0], [r0+8], 8").unwrap();
        let r = resolve(&i, &regs).unwrap();
        match r {
            Resolved::VBin { dst, a, b, len, .. } => {
                assert_eq!((dst, a, b, len), (1024, 1000, 8, 8));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scalar_instructions_do_not_resolve() {
        let regs = [0i32; 32];
        let i = Instruction::SImm {
            op: SImmOp::Add,
            rd: Reg::R1,
            rs1: Reg::R0,
            imm: 5,
        };
        assert!(resolve(&i, &regs).is_none());
        assert!(resolve(&Instruction::Halt, &regs).is_none());
    }

    #[test]
    fn recv_variants_unify() {
        let regs = [0i32; 32];
        let r1 = resolve(
            &parse_instruction("recv core1, [r0+64], 32, tag=7").unwrap(),
            &regs,
        )
        .unwrap();
        match r1 {
            Resolved::Recv {
                block_len,
                blocks,
                dst_stride,
                ..
            } => {
                assert_eq!((block_len, blocks, dst_stride), (32, 1, 32));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hazard_ranges_cover_operands() {
        let regs = [0i32; 32];
        let i = parse_instruction(
            "vcopy2d [r0+0], [r0+1000], block=4, blocks=3, sstride=16, dstride=8",
        )
        .unwrap();
        let r = resolve(&i, &regs).unwrap();
        let [read, unused] = r.reads();
        assert_eq!(
            read,
            Range {
                start: 1000,
                end: 1036
            }
        );
        assert!(!unused.overlaps(&read), "unused read slot is empty");
        assert_eq!(r.write(0), Range { start: 0, end: 20 });
        assert_eq!(r.footprint(0).gmem, None);

        let regs = regs_with(40);
        let footprint =
            |text| resolve(&parse_instruction(text).unwrap(), &regs).map(|r| r.footprint(0));
        let (Some(load), Some(store)) = (
            footprint("gload [r0+0], g[r1+2], 6"),
            footprint("gstore g[r1+0], [r0+8], 4"),
        ) else {
            panic!("global transfers are memory-class");
        };
        assert_eq!(load.gmem, Some((42, 48, false)));
        assert_eq!(load.write, Range::new(0, 6));
        assert_eq!(store.gmem, Some((40, 44, true)));
        assert_eq!(store.reads[0], Range::new(8, 4));
        assert_eq!(store.write, Range::EMPTY);
    }
}
