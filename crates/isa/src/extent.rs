//! Where each memory operand of an instruction lands, defined once: the
//! machine's bounds check, both hazard [`Footprint`]s ([`Footprint::of`])
//! and the checker's out-of-bounds pass all read these extents.

use crate::group::GroupConfig;
use crate::instr::{Addr, Instruction};
use crate::range::{Footprint, Range};

/// The memory an operand addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// The core's local scratchpad.
    Local,
    /// The chip's global memory.
    Global,
}

impl Space {
    /// `"local"` or `"global"`, as error texts name the space.
    pub fn name(self) -> &'static str {
        match self {
            Space::Local => "local",
            Space::Global => "global",
        }
    }
}

/// One memory operand, addressed as a base register plus an offset
/// (arXiv:2308.06449): the elements from `base + lo` up to `base + hi`
/// of `space`. An extent with `hi <= lo` touches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// The memory addressed.
    pub space: Space,
    /// The operand's base address.
    pub base: Addr,
    /// First element touched, relative to the base.
    pub lo: i64,
    /// One past the last element touched, relative to the base.
    pub hi: i64,
    /// `true` when the instruction writes the operand.
    pub write: bool,
}

impl Extent {
    /// `blocks` blocks of `len` elements, `stride` apart: the hull from
    /// the lowest block start to the highest block end.
    fn new(space: Space, base: Addr, len: i64, blocks: u32, stride: i32, write: bool) -> Extent {
        let reach = (blocks as i64 - 1) * stride as i64;
        let (lo, hi) = if blocks == 0 || len == 0 {
            (0, 0)
        } else if reach < 0 {
            (reach, len)
        } else {
            (0, reach + len)
        };
        Extent {
            space,
            base,
            lo,
            hi,
            write,
        }
    }

    /// The absolute span `[start, end)` under the register file `regs`.
    #[inline]
    pub(crate) fn span(&self, regs: &[i32; 32]) -> (i64, i64) {
        let at = self.base.effective(regs);
        (at + self.lo, at + self.hi)
    }

    /// The span under `regs` when the extent touches an element outside
    /// `[0, capacity)`; `None` when it is empty or lies inside.
    #[inline]
    pub fn outside(&self, regs: &[i32; 32], capacity: u64) -> Option<(i64, i64)> {
        let (start, end) = self.span(regs);
        let past = |end| u64::try_from(end).map_or(true, |end| end > capacity);
        (start < end && (start < 0 || past(end))).then_some((start, end))
    }
}

impl Instruction {
    /// Calls `f` with each memory operand this instruction touches, in
    /// operand order (at most three; none for a scalar instruction). An
    /// `MVM` writes its group's output length, looked up in `groups`
    /// (nothing for a group not there). Each call passes its operand's
    /// space and role as constants, so what `f` does per operand compiles
    /// to straight-line code per variant.
    #[inline]
    pub fn for_each_extent(&self, groups: &[GroupConfig], mut f: impl FnMut(Extent)) {
        use Instruction as I;
        let local =
            |base, len, n, stride, write| Extent::new(Space::Local, base, len, n, stride, write);
        let run = |base, len: u32, write| local(base, len as i64, 1, 0, write);
        let global =
            |base, len: u32, write| Extent::new(Space::Global, base, len as i64, 1, 0, write);
        match *self {
            I::Mvm {
                group,
                dst,
                src,
                len,
            } => {
                let out = groups.get(group.as_usize()).map_or(0, |g| g.output_len);
                f(run(dst, out, true));
                f(run(src, len, false));
            }
            I::VBin { dst, a, b, len, .. } => {
                f(run(dst, len, true));
                f(run(a, len, false));
                f(run(b, len, false));
            }
            I::VImm { dst, src, len, .. } | I::VUn { dst, src, len, .. } => {
                f(run(dst, len, true));
                f(run(src, len, false));
            }
            I::VFill { dst, len, .. } | I::Recv { dst, len, .. } => f(run(dst, len, true)),
            I::Send { src, len, .. } => f(run(src, len, false)),
            I::VCopy2d {
                dst,
                src,
                block_len: len,
                blocks: n,
                src_stride,
                dst_stride,
            } => {
                f(local(dst, len as i64, n, dst_stride, true));
                f(local(src, len as i64, n, src_stride, false));
            }
            // `win_h` rows (at least one) of `win_w` pixels of `channels`.
            I::VPool {
                dst,
                src,
                channels,
                win_w,
                win_h,
                row_stride,
                ..
            } => {
                f(run(dst, channels, true));
                let row = win_w as i64 * channels as i64;
                f(local(src, row, win_h.max(1), row_stride, false));
            }
            I::Recv2d {
                dst,
                block_len: len,
                blocks: n,
                dst_stride,
                ..
            } => f(local(dst, len as i64, n, dst_stride, true)),
            I::GLoad { dst, gaddr, len } => {
                f(run(dst, len, true));
                f(global(gaddr, len, false));
            }
            I::GStore { gaddr, src, len } => {
                f(global(gaddr, len, true));
                f(run(src, len, false));
            }
            I::SBin { .. }
            | I::SImm { .. }
            | I::Branch { .. }
            | I::Jump { .. }
            | I::Halt
            | I::Nop => {}
        }
    }
}

impl Footprint {
    /// The hazard footprint of `instr`'s extents under `regs`: local
    /// reads in operand order, the local write and the global access.
    /// Empty extents overlap nothing and are left out.
    #[inline]
    pub fn of(instr: &Instruction, groups: &[GroupConfig], regs: &[i32; 32]) -> Footprint {
        let mut fp = Footprint::default();
        let mut reads = 0;
        instr.for_each_extent(groups, |e| {
            let (start, end) = e.span(regs);
            match (e.space, e.write) {
                _ if e.lo >= e.hi => {}
                (Space::Global, write) => {
                    let Range { start, end } = Range::span(start, end);
                    fp.gmem = Some((start as u64, end as u64, write));
                }
                (Space::Local, true) => fp.write = Range::span(start, end),
                (Space::Local, false) => {
                    fp.reads[reads] = Range::span(start, end);
                    reads += 1;
                }
            }
        });
        fp
    }
}

/// The footprint rule the extents replaced, kept as the reference: each
/// variant's reads and write worked out from its operands' addresses
/// under the register file, with the strided and windowed spans computed
/// per variant.
#[cfg(test)]
mod oracle {
    use crate::instr::{Addr, Instruction};
    use crate::range::{Footprint, Range};

    /// Conservative span of a strided 2-D access, saturating into the
    /// `u32` address space.
    fn strided(base: u32, block_len: u32, blocks: u32, stride: i32) -> Range {
        if blocks == 0 || block_len == 0 {
            return Range::new(base, 0);
        }
        let last = base as i64 + (blocks as i64 - 1) * stride as i64;
        let lo = (base as i64).min(last).clamp(0, u32::MAX as i64) as u32;
        let hi = ((base as i64).max(last) + block_len as i64).clamp(0, u32::MAX as i64) as u32;
        Range { start: lo, end: hi }
    }

    /// Everything `instr` touches under `regs`, an `MVM` writing
    /// `mvm_out_len` elements; `None` for a scalar instruction.
    pub(crate) fn footprint(
        instr: &Instruction,
        mvm_out_len: u32,
        regs: &[i32; 32],
    ) -> Option<Footprint> {
        use Instruction as I;
        const NONE: Range = Range::EMPTY;
        let at = |a: Addr| a.effective(regs) as u32;
        let run = |a, len| Range::new(at(a), len);
        let gmem = |g, len: u32, write| Some((at(g) as u64, at(g) as u64 + len as u64, write));
        let (reads, write, gmem) = match *instr {
            I::Mvm { dst, src, len, .. } => ([run(src, len), NONE], run(dst, mvm_out_len), None),
            I::VBin { dst, a, b, len, .. } => ([run(a, len), run(b, len)], run(dst, len), None),
            I::VImm { dst, src, len, .. } | I::VUn { dst, src, len, .. } => {
                ([run(src, len), NONE], run(dst, len), None)
            }
            I::VFill { dst, len, .. } => ([NONE, NONE], run(dst, len), None),
            I::VCopy2d {
                dst,
                src,
                block_len,
                blocks,
                src_stride,
                dst_stride,
            } => (
                [strided(at(src), block_len, blocks, src_stride), NONE],
                strided(at(dst), block_len, blocks, dst_stride),
                None,
            ),
            // `win_h` rows (at least one) of `win_w * channels` elements,
            // the row length saturating.
            I::VPool {
                dst,
                src,
                channels,
                win_w,
                win_h,
                row_stride,
                ..
            } => {
                let row = win_w.saturating_mul(channels);
                let window = strided(at(src), row, win_h.max(1), row_stride);
                ([window, NONE], run(dst, channels), None)
            }
            I::Send { src, len, .. } => ([run(src, len), NONE], Range::new(0, 0), None),
            I::Recv { dst, len, .. } => ([NONE, NONE], strided(at(dst), len, 1, 0), None),
            I::Recv2d {
                dst,
                block_len,
                blocks,
                dst_stride,
                ..
            } => (
                [NONE, NONE],
                strided(at(dst), block_len, blocks, dst_stride),
                None,
            ),
            I::GLoad { dst, gaddr, len } => ([NONE, NONE], run(dst, len), gmem(gaddr, len, false)),
            I::GStore { gaddr, src, len } => (
                [run(src, len), NONE],
                Range::new(0, 0),
                gmem(gaddr, len, true),
            ),
            I::SBin { .. }
            | I::SImm { .. }
            | I::Branch { .. }
            | I::Jump { .. }
            | I::Halt
            | I::Nop => return None,
        };
        Some(Footprint { reads, write, gmem })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::asm::instructions::instruction_strategy;
    use crate::asm::parse_instruction;
    use crate::instr::{CoreId, GroupId};
    use crate::opcode::{PoolOp, VBinOp};
    use crate::reg::Reg;

    /// Local and global capacities of the differential's small chip.
    const LOCAL: u64 = 4096;
    const GLOBAL: u64 = 8192;

    /// Groups 0-3 with output lengths 0, 1, 8 and 300.
    fn groups() -> Vec<GroupConfig> {
        [0, 1, 8, 300]
            .into_iter()
            .enumerate()
            .map(|(i, out)| GroupConfig::new(GroupId(i as u16), 4, out, vec![i as u32]))
            .collect()
    }

    fn capacity(space: Space) -> u64 {
        match space {
            Space::Local => LOCAL,
            Space::Global => GLOBAL,
        }
    }

    /// `instr`'s extents, in operand order.
    fn extents(instr: &Instruction, groups: &[GroupConfig]) -> Vec<Extent> {
        let mut all = Vec::new();
        instr.for_each_extent(groups, |e| all.push(e));
        all
    }

    /// What the machine refuses: the first extent outside its memory.
    fn verdict(instr: &Instruction, regs: &[i32; 32], groups: &[GroupConfig]) -> bool {
        extents(instr, groups)
            .iter()
            .all(|e| e.outside(regs, capacity(e.space)).is_none())
    }

    /// The same verdict worked out block by block: every non-empty block
    /// of every operand lies in its memory. A pooling window always
    /// covers at least one row, as its footprint always has.
    fn blockwise(instr: &Instruction, regs: &[i32; 32], groups: &[GroupConfig]) -> bool {
        use Instruction as I;
        let at = |a: Addr| a.effective(regs);
        let inside = |start: i64, len: i64, cap: u64| {
            len == 0 || (start >= 0 && (start + len) as u64 <= cap)
        };
        let blocks = |base: Addr, len: i64, n: u32, stride: i32| {
            (0..n as i64).all(|b| inside(at(base) + b * stride as i64, len, LOCAL))
        };
        let local = |a: Addr, len: u32| inside(at(a), len as i64, LOCAL);
        match *instr {
            I::Mvm {
                group,
                dst,
                src,
                len,
            } => {
                let out = groups.get(group.as_usize()).map_or(0, |g| g.output_len);
                local(dst, out) && local(src, len)
            }
            I::VBin { dst, a, b, len, .. } => local(dst, len) && local(a, len) && local(b, len),
            I::VImm { dst, src, len, .. } | I::VUn { dst, src, len, .. } => {
                local(dst, len) && local(src, len)
            }
            I::VFill { dst, len, .. } | I::Recv { dst, len, .. } => local(dst, len),
            I::Send { src, len, .. } => local(src, len),
            I::VCopy2d {
                dst,
                src,
                block_len,
                blocks: n,
                src_stride,
                dst_stride,
            } => {
                blocks(dst, block_len as i64, n, dst_stride)
                    && blocks(src, block_len as i64, n, src_stride)
            }
            I::VPool {
                dst,
                src,
                channels,
                win_w,
                win_h,
                row_stride,
                ..
            } => {
                local(dst, channels)
                    && blocks(src, (win_w * channels) as i64, win_h.max(1), row_stride)
            }
            I::Recv2d {
                dst,
                block_len,
                blocks: n,
                dst_stride,
                ..
            } => blocks(dst, block_len as i64, n, dst_stride),
            I::GLoad { dst, gaddr, len }
            | I::GStore {
                src: dst,
                gaddr,
                len,
            } => local(dst, len) && inside(at(gaddr), len as i64, GLOBAL),
            _ => true,
        }
    }

    /// Empty intervals overlap nothing wherever they sit: the old rule
    /// kept them at the clamped base, the extents leave them out.
    fn canonical(fp: Footprint) -> Footprint {
        let empty = |r: Range| if r.start < r.end { r } else { Range::EMPTY };
        Footprint {
            reads: fp.reads.map(empty),
            write: empty(fp.write),
            gmem: fp.gmem.filter(|(s, e, _)| s < e),
        }
    }

    /// `[r{reg}+offset]`; the strategies keep both in range.
    fn addr(reg: u8, offset: i32) -> Addr {
        let reg = [Reg::R0, Reg::R1, Reg::R2, Reg::R3][reg as usize];
        Addr::new(reg, offset).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Small memory-class instructions on bases `r0`-`r3`, so that about
    /// half the accesses land inside the differential's small memories:
    /// negative strides, zero lengths and block counts, `win_h` 0 and
    /// every `MVM` group included.
    fn small_instruction() -> impl Strategy<Value = Instruction> {
        let a = || (0u8..4, -80i32..4096).prop_map(|(r, o)| addr(r, o));
        let len = || 0u32..80;
        let block = || 0u32..9;
        let stride = || -96i32..96;
        prop_oneof![
            (0u16..5, a(), a(), len()).prop_map(|(g, dst, src, len)| Instruction::Mvm {
                group: GroupId(g),
                dst,
                src,
                len
            }),
            (a(), a(), a(), len()).prop_map(|(dst, a, b, len)| Instruction::VBin {
                op: VBinOp::Add,
                dst,
                a,
                b,
                len
            }),
            (a(), len()).prop_map(|(dst, len)| Instruction::VFill { dst, value: 1, len }),
            (a(), a(), len(), block(), stride(), stride()).prop_map(
                |(dst, src, block_len, blocks, src_stride, dst_stride)| Instruction::VCopy2d {
                    dst,
                    src,
                    block_len,
                    blocks,
                    src_stride,
                    dst_stride
                }
            ),
            (a(), a(), 0u32..24, 0u32..4, 0u32..4, stride()).prop_map(
                |(dst, src, channels, win_w, win_h, row_stride)| Instruction::VPool {
                    op: PoolOp::Max,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride
                }
            ),
            (a(), len()).prop_map(|(src, len)| Instruction::Send {
                peer: CoreId(1),
                src,
                len,
                tag: 0
            }),
            (a(), len()).prop_map(|(dst, len)| Instruction::Recv {
                peer: CoreId(1),
                dst,
                len,
                tag: 0
            }),
            (a(), len(), block(), stride()).prop_map(|(dst, block_len, blocks, dst_stride)| {
                Instruction::Recv2d {
                    peer: CoreId(1),
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                    tag: 0,
                }
            }),
            (a(), a(), len()).prop_map(|(dst, gaddr, len)| Instruction::GLoad { dst, gaddr, len }),
            (a(), a(), len()).prop_map(|(gaddr, src, len)| Instruction::GStore { gaddr, src, len }),
        ]
    }

    /// Registers `r1`-`r3` near the bottom of memory, some below it.
    fn small_regs() -> impl Strategy<Value = [i32; 32]> {
        (-64i32..4096, -64i32..4096, -64i32..4096).prop_map(|(a, b, c)| {
            let mut regs = [0; 32];
            regs[1..4].copy_from_slice(&[a, b, c]);
            regs
        })
    }

    /// Holds the extents to the rule they replaced on `instr`: the
    /// machine's verdict is the blockwise one, and an access it admits
    /// has the old footprint. Returns whether it was admitted.
    fn differential(instr: &Instruction, regs: &[i32; 32]) -> Result<bool, TestCaseError> {
        let groups = groups();
        let admitted = verdict(instr, regs, &groups);
        prop_assert_eq!(admitted, blockwise(instr, regs, &groups), "{}", instr);
        let out = match *instr {
            Instruction::Mvm { group, .. } => {
                groups.get(group.as_usize()).map_or(0, |g| g.output_len)
            }
            _ => 0,
        };
        let Some(old) = oracle::footprint(instr, out, regs) else {
            prop_assert_eq!(extents(instr, &groups), []);
            return Ok(admitted);
        };
        if admitted {
            let footprint = Footprint::of(instr, &groups, regs);
            prop_assert_eq!(canonical(footprint), canonical(old), "{}", instr);
        }
        Ok(admitted)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        #[test]
        fn extents_match_the_per_variant_footprint_on_any_instruction(
            instr in instruction_strategy(),
            regs in proptest::collection::vec(any::<i32>(), 32),
        ) {
            let regs: [i32; 32] = regs.try_into().map_err(|_| TestCaseError::fail("32 registers"))?;
            // Encodable fields with random registers: mostly refused, and
            // the verdicts must still agree.
            differential(&instr, &regs)?;
        }
    }

    #[test]
    fn extents_match_the_per_variant_footprint_on_small_accesses() {
        // About half the small accesses are admitted: both verdicts and
        // the footprint of every admitted one are held to the old rule.
        let (mut admitted, mut refused) = (0, 0);
        let config = ProptestConfig::with_cases(4_000);
        let name = "extents_match_the_per_variant_footprint_on_small_accesses";
        proptest::test_runner::run_cases(&config, name, |rng| {
            let instr = small_instruction().new_value(rng);
            let regs = small_regs().new_value(rng);
            let outcome = differential(&instr, &regs).map(|ok| {
                *if ok { &mut admitted } else { &mut refused } += 1;
            });
            (format!("{instr} {:?}", &regs[1..4]), outcome)
        });
        assert!(
            admitted > 1_000 && refused > 1_000,
            "{admitted} / {refused}"
        );
    }

    #[test]
    fn hazard_ranges_cover_operands() -> Result<(), crate::IsaError> {
        let mut regs = [0; 32];
        regs[1] = 40;
        let footprint = |text| -> Result<Footprint, crate::IsaError> {
            Ok(Footprint::of(&parse_instruction(text)?, &[], &regs))
        };
        let copy =
            footprint("vcopy2d [r0+0], [r0+1000], block=4, blocks=3, sstride=16, dstride=8")?;
        assert_eq!(copy.reads, [Range::new(1000, 36), Range::EMPTY]);
        assert_eq!(copy.write, Range::new(0, 20));
        assert_eq!(copy.gmem, None);
        let load = footprint("gload [r0+0], g[r1+2], 6")?;
        assert_eq!(load.gmem, Some((42, 48, false)));
        assert_eq!(load.write, Range::new(0, 6));
        let store = footprint("gstore g[r1+0], [r0+8], 4")?;
        assert_eq!(store.gmem, Some((40, 44, true)));
        assert_eq!(store.reads[0], Range::new(8, 4));
        assert_eq!(store.write, Range::EMPTY);
        let recv = footprint("recv2d core1, [r1+0], block=4, blocks=3, dstride=-8, tag=1")?;
        assert_eq!(recv.write, Range { start: 24, end: 44 });
        Ok(())
    }

    #[test]
    fn a_negative_address_is_outside_memory() -> Result<(), crate::IsaError> {
        let instr = parse_instruction("vfill [r0-4], 7, 4")?;
        let [fill] = extents(&instr, &[])[..] else {
            panic!("one operand")
        };
        assert_eq!(fill.outside(&[0; 32], LOCAL), Some((-4, 0)));
        let empty = parse_instruction("vfill [r0-4], 7, 0")?;
        let [empty] = extents(&empty, &[])[..] else {
            panic!("one operand")
        };
        assert_eq!(empty.outside(&[0; 32], LOCAL), None);
        Ok(())
    }
}
