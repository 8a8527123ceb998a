//! Operand resolution: ISA instructions → absolute addresses, using the
//! dispatching core's register file.
//!
//! The simulator resolves every memory-class instruction here at
//! dispatch; the static bound analyzer resolves the same instructions
//! against the register file it interprets. Where the operands land, and
//! so the hazard footprint and the bounds check, is the instruction's
//! [`for_each_extent`](Instruction::for_each_extent).

use crate::instr::{Addr, GroupId, Instruction, PoolOp, VBinOp, VImmOp, VUnOp};

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

/// Resolves `addr` against a register file. Dispatch refuses any
/// non-empty operand outside memory, so the truncation is exact there.
#[inline]
fn abs(addr: Addr, regs: &[i32; 32]) -> u32 {
    addr.effective(regs) as u32
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
    use crate::range::{Footprint, Range};
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
        let regs = {
            let mut regs = [0; 32];
            regs[1] = 40;
            regs
        };
        let footprint = |text| {
            let instr = parse_instruction(text).unwrap();
            Footprint::of(&instr, &[], &regs)
        };
        let copy = footprint("vcopy2d [r0+0], [r0+1000], block=4, blocks=3, sstride=16, dstride=8");
        assert_eq!(copy.reads, [Range::new(1000, 36), Range::EMPTY]);
        assert_eq!(copy.write, Range::new(0, 20));
        assert_eq!(copy.gmem, None);
        let load = footprint("gload [r0+0], g[r1+2], 6");
        assert_eq!(load.gmem, Some((42, 48, false)));
        assert_eq!(load.write, Range::new(0, 6));
        let store = footprint("gstore g[r1+0], [r0+8], 4");
        assert_eq!(store.gmem, Some((40, 44, true)));
        assert_eq!(store.reads[0], Range::new(8, 4));
        assert_eq!(store.write, Range::EMPTY);
        let recv = footprint("recv2d core1, [r1+0], block=4, blocks=3, dstride=-8, tag=1");
        assert_eq!(recv.write, Range { start: 24, end: 44 });
    }
}
