//! Per-instruction cost classification.
//!
//! For every vector instruction, the simulator's vector unit and the
//! static bound analyzer in `pimsim-analyze` both need to know how many
//! elements the vector unit touches and how many local-memory reads and
//! writes it performs — the `(len, reads, writes)` triple fed to
//! `CostModel::vector_cost`. Both call [`Resolved::vector_shape`]: a new
//! vector op classified there is priced the same way in the event-driven
//! machine and in the analytic bound.

use crate::resolve::Resolved;

/// The operand shape `CostModel::vector_cost` is priced on: how many
/// elements the vector unit processes and how many local-memory read and
/// write streams the operation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorShape {
    /// Elements processed by the vector unit.
    pub len: u32,
    /// Local-memory read streams (operand vectors read).
    pub reads: u32,
    /// Local-memory write streams (operand vectors written).
    pub writes: u32,
}

impl Resolved {
    /// The [`VectorShape`] this instruction presents to the vector unit,
    /// or `None` for non-vector-class instructions: two reads for
    /// `vadd` and friends, none for a fill, and one read and one write
    /// over the total moved element count for 2-D copies and pooling
    /// windows (saturating, never wrapping).
    #[inline]
    pub fn vector_shape(&self) -> Option<VectorShape> {
        let (len, reads) = match *self {
            Resolved::VBin { len, .. } => (len, 2),
            Resolved::VImm { len, .. } | Resolved::VUn { len, .. } => (len, 1),
            Resolved::VFill { len, .. } => (len, 0),
            Resolved::VCopy2d {
                block_len, blocks, ..
            } => (block_len.saturating_mul(blocks), 1),
            Resolved::VPool {
                channels,
                win_w,
                win_h,
                ..
            } => (channels.saturating_mul(win_w).saturating_mul(win_h), 1),
            _ => return None,
        };
        Some(VectorShape {
            len,
            reads,
            writes: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::asm::parse_instruction;
    use crate::resolve::resolve;

    fn shape_of(text: &str) -> Option<(u32, u32, u32)> {
        let instr = parse_instruction(text).unwrap();
        let res = resolve(&instr, &[0; 32])?;
        res.vector_shape().map(|s| (s.len, s.reads, s.writes))
    }

    #[test]
    fn shapes_match_operand_counts() -> Result<(), crate::IsaError> {
        let cases = [
            ("vadd [r1+0], [r1+8], [r1+16], 64", (64, 2, 1)),
            ("vmuli [r1+0], [r1+8], 3, 32", (32, 1, 1)),
            ("vrelu [r1+0], [r1+8], 32", (32, 1, 1)),
            ("vfill [r1+0], 0, 16", (16, 0, 1)),
            (
                "vcopy2d [r1+0], [r1+8], block=3, blocks=5, sstride=7, dstride=3",
                (15, 1, 1),
            ),
            (
                "vpool.max [r1+0], [r1+8], ch=4, win=2x3, rstride=12",
                (24, 1, 1),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(shape_of(text), Some(want), "{text}");
        }
        // The element count saturates instead of wrapping to zero, for a
        // window past the fields the assembler refuses.
        let wide = crate::Instruction::VPool {
            op: crate::PoolOp::Max,
            dst: crate::Addr::new(crate::Reg::R1, 0)?,
            src: crate::Addr::new(crate::Reg::R1, 8)?,
            channels: 65536,
            win_w: 65536,
            win_h: 1,
            row_stride: 8,
        };
        let shape = resolve(&wide, &[0; 32]).and_then(|r| r.vector_shape());
        assert_eq!(
            shape.map(|s| (s.len, s.reads, s.writes)),
            Some((u32::MAX, 1, 1))
        );
        Ok(())
    }

    #[test]
    fn non_vector_instructions_have_no_shape() {
        for text in [
            "mvm g0, [r1+0], [r1+8], 4",
            "send core1, [r1+0], 4, tag=0",
            "recv core1, [r1+0], 4, tag=0",
            "gload [r1+0], g[r1+0], 4",
            "halt",
            "nop",
        ] {
            assert_eq!(shape_of(text), None, "{text}");
        }
    }
}
