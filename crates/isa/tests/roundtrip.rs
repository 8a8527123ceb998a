//! Property tests: every instruction survives assembly print/parse and
//! JSON text round-trips.

use pimsim_isa::asm;
use pimsim_isa::{
    Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, Reg, SBinOp, SImmOp, VBinOp, VImmOp,
    VUnOp,
};
use proptest::prelude::*;
use serde::{Deserialize, Map, Serialize, Value};

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    (reg_strategy(), -2_097_152i32..=2_097_151).prop_map(|(r, o)| Addr::new(r, o).unwrap())
}

fn len_strategy() -> impl Strategy<Value = u32> {
    0u32..=262_143
}

prop_compose! {
    fn vbin_op()(i in 0usize..5) -> VBinOp {
        [VBinOp::Add, VBinOp::Sub, VBinOp::Mul, VBinOp::Max, VBinOp::Min][i]
    }
}
prop_compose! {
    fn vimm_op()(i in 0usize..3) -> VImmOp {
        [VImmOp::Add, VImmOp::Mul, VImmOp::Sra][i]
    }
}
prop_compose! {
    fn vun_op()(i in 0usize..6) -> VUnOp {
        [VUnOp::Relu, VUnOp::Sigmoid, VUnOp::Tanh, VUnOp::Copy, VUnOp::Neg, VUnOp::Abs][i]
    }
}
prop_compose! {
    fn sbin_op()(i in 0usize..9) -> SBinOp {
        [SBinOp::Add, SBinOp::Sub, SBinOp::Mul, SBinOp::And, SBinOp::Or,
         SBinOp::Xor, SBinOp::Slt, SBinOp::Sll, SBinOp::Srl][i]
    }
}
prop_compose! {
    fn simm_op()(i in 0usize..7) -> SImmOp {
        [SImmOp::Add, SImmOp::Mul, SImmOp::Sll, SImmOp::Srl, SImmOp::And,
         SImmOp::Or, SImmOp::Slt][i]
    }
}
prop_compose! {
    fn branch_cond()(i in 0usize..4) -> BranchCond {
        [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt, BranchCond::Ge][i]
    }
}
prop_compose! {
    fn pool_op()(i in 0usize..2) -> PoolOp {
        [PoolOp::Max, PoolOp::Avg][i]
    }
}

fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    let stride = -131_072i32..=131_071;
    let block = 0u32..=16_383;
    prop_oneof![
        Just(Instruction::Nop),
        Just(Instruction::Halt),
        (0u32..=67_108_863).prop_map(|target| Instruction::Jump { target }),
        (
            branch_cond(),
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
        (sbin_op(), reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::SBin { op, rd, rs1, rs2 }),
        (simm_op(), reg_strategy(), reg_strategy(), any::<i32>())
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
            vbin_op(),
            addr_strategy(),
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(op, dst, a, b, len)| Instruction::VBin { op, dst, a, b, len }),
        (
            vimm_op(),
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
        (vun_op(), addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(op, dst, src, len)| Instruction::VUn { op, dst, src, len }),
        (addr_strategy(), any::<i32>(), len_strategy())
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
            pool_op(),
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

/// Rewrites every struct object below an instruction's `{"Variant": ..}`
/// wrapper: members in an order drawn from `seed`, with members no field
/// list knows in between.
fn scramble(v: &Value, seed: &mut u64, wrapper: bool) -> Value {
    let next = |seed: &mut u64| {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    match v {
        Value::Object(map) => {
            let mut members: Vec<(String, Value)> = map
                .iter()
                .map(|(k, v)| (k.clone(), scramble(v, seed, false)))
                .collect();
            if !wrapper {
                members.push(("zz_unknown".to_string(), serde_json::json!(null)));
                members.push((
                    "\u{e9}tranger \"q\"".to_string(),
                    serde_json::json!({"deep": [1, {"x": [[], {}]}, "s\n"], "f": (-2.5)}),
                ));
                for i in (1..members.len()).rev() {
                    members.swap(i, next(seed) as usize % (i + 1));
                }
            }
            Value::Object(members.into_iter().collect::<Map>())
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// JSON text is lossless, whatever order the members come in and
    /// whatever unknown members sit between them, through both sources.
    #[test]
    fn json_text_roundtrip(instr in instruction_strategy(), seed in 1u64..u64::MAX) {
        let back: Instruction = serde_json::from_str(&serde_json::to_string(&instr).unwrap())
            .expect("compact text parses");
        prop_assert_eq!(&back, &instr);
        let mut seed = seed;
        let scrambled = scramble(&instr.to_value(), &mut seed, true);
        for text in [
            serde_json::to_string_pretty(&scrambled).unwrap(),
            serde_json::to_string(&scrambled).unwrap(),
        ] {
            let back: Instruction = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("parse of {text} failed: {e}"));
            prop_assert_eq!(&back, &instr);
        }
        let back = Instruction::from_value(&scrambled).expect("value source");
        prop_assert_eq!(&back, &instr);
    }

    /// The canonical assembly text parses back to the same instruction.
    #[test]
    fn display_parse_roundtrip(instr in instruction_strategy()) {
        let text = instr.to_string();
        let back = asm::parse_instruction(&text)
            .unwrap_or_else(|e| panic!("parse of `{text}` failed: {e}"));
        prop_assert_eq!(back, instr);
    }
}
