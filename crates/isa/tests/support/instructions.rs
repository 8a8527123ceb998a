//! A strategy for well-formed instructions, each op drawn from its enum's
//! `ALL` table. Shared by `roundtrip.rs` and the parser differential tests
//! of `src/asm.rs`, which includes this file by path; `crate::` names the
//! ISA types in both.

use proptest::prelude::*;

use crate::{
    Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, Reg, SBinOp, SImmOp, VBinOp, VImmOp,
    VUnOp,
};

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    (reg_strategy(), -2_097_152i32..=2_097_151).prop_map(|(r, o)| Addr::new(r, o).unwrap())
}

fn len_strategy() -> impl Strategy<Value = u32> {
    0u32..=262_143
}

/// One entry of an op enum's `ALL` table.
fn op<T: Copy + std::fmt::Debug + 'static>(all: &'static [T]) -> impl Strategy<Value = T> {
    (0..all.len()).prop_map(move |i| all[i])
}

/// Every instruction, each field drawn from its encodable range.
pub fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    let stride = -131_072i32..=131_071;
    let block = 0u32..=16_383;
    prop_oneof![
        Just(Instruction::Nop),
        Just(Instruction::Halt),
        (0u32..=67_108_863).prop_map(|target| Instruction::Jump { target }),
        (
            op(&BranchCond::ALL),
            reg_strategy(),
            reg_strategy(),
            0u32..=67_108_863
        )
            .prop_map(|(cond, rs1, rs2, target)| Instruction::Branch {
                cond,
                rs1,
                rs2,
                target
            }),
        (
            op(&SBinOp::ALL),
            reg_strategy(),
            reg_strategy(),
            reg_strategy()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instruction::SBin { op, rd, rs1, rs2 }),
        (
            op(&SImmOp::ALL),
            reg_strategy(),
            reg_strategy(),
            any::<i32>()
        )
            .prop_map(|(op, rd, rs1, imm)| Instruction::SImm { op, rd, rs1, imm }),
        (
            0u16..=4095,
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(g, dst, src, len)| Instruction::Mvm {
                group: GroupId(g),
                dst,
                src,
                len
            }),
        (
            op(&VBinOp::ALL),
            addr_strategy(),
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(op, dst, a, b, len)| Instruction::VBin { op, dst, a, b, len }),
        (
            op(&VImmOp::ALL),
            addr_strategy(),
            addr_strategy(),
            -8_388_608i32..=8_388_607,
            len_strategy()
        )
            .prop_map(|(op, dst, src, imm, len)| Instruction::VImm {
                op,
                dst,
                src,
                imm,
                len
            }),
        (
            op(&VUnOp::ALL),
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(op, dst, src, len)| Instruction::VUn { op, dst, src, len }),
        (addr_strategy(), -8_388_608i32..=8_388_607, len_strategy())
            .prop_map(|(dst, value, len)| Instruction::VFill { dst, value, len }),
        (
            addr_strategy(),
            addr_strategy(),
            block.clone(),
            block.clone(),
            stride.clone(),
            stride.clone()
        )
            .prop_map(|(dst, src, block_len, blocks, src_stride, dst_stride)| {
                Instruction::VCopy2d {
                    dst,
                    src,
                    block_len,
                    blocks,
                    src_stride,
                    dst_stride,
                }
            }),
        (
            op(&PoolOp::ALL),
            addr_strategy(),
            addr_strategy(),
            0u32..=16_383,
            0u32..=63,
            0u32..=63,
            stride.clone()
        )
            .prop_map(|(op, dst, src, channels, win_w, win_h, row_stride)| {
                Instruction::VPool {
                    op,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride,
                }
            }),
        (0u16..=4095, addr_strategy(), len_strategy(), any::<u16>()).prop_map(
            |(c, src, len, tag)| Instruction::Send {
                peer: CoreId(c),
                src,
                len,
                tag
            }
        ),
        (0u16..=4095, addr_strategy(), len_strategy(), any::<u16>()).prop_map(
            |(c, dst, len, tag)| Instruction::Recv {
                peer: CoreId(c),
                dst,
                len,
                tag
            }
        ),
        (
            0u16..=4095,
            addr_strategy(),
            block.clone(),
            block,
            stride,
            any::<u16>()
        )
            .prop_map(|(c, dst, block_len, blocks, dst_stride, tag)| {
                Instruction::Recv2d {
                    peer: CoreId(c),
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                    tag,
                }
            }),
        (addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(dst, gaddr, len)| Instruction::GLoad { dst, gaddr, len }),
        (addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(gaddr, src, len)| Instruction::GStore { gaddr, src, len }),
    ]
}
