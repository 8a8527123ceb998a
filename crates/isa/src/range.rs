//! Memory hazard footprints and the conflict test on them.
//!
//! The simulator's scoreboard and the static bound analyzer in
//! `pimsim-analyze` both order instructions by the memory they read and
//! write. Both build their footprints from the operands' extents
//! ([`Footprint::of`]) and call the interval type and the
//! [`Footprint::conflicts`] rule defined here: an edge the analyzer prices
//! is an ordering the machine really enforces.

/// A half-open local-memory interval `[start, end)` used for hazard checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Range {
    /// First element index.
    pub start: u32,
    /// One past the last element index.
    pub end: u32,
}

impl Range {
    /// The interval no access touches: it overlaps nothing.
    pub const EMPTY: Range = Range { start: 0, end: 0 };

    /// Do the two intervals share an element? Empty intervals intersect
    /// nothing.
    #[inline]
    pub fn overlaps(&self, other: &Range) -> bool {
        self.start < self.end
            && other.start < other.end
            && self.start < other.end
            && other.start < self.end
    }

    /// The span `[start, end)`, each bound saturating into `u32`: exact
    /// inside memory, and never wrapped into an inverted, hazard-invisible
    /// interval outside it.
    #[inline]
    pub fn span(start: i64, end: i64) -> Range {
        let bound = |x: i64| x.clamp(0, u32::MAX as i64) as u32;
        Range {
            start: bound(start),
            end: bound(end),
        }
    }
}

/// Everything a memory-class instruction touches, as far as ordering it
/// against the other instructions of its core goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Local-memory ranges read. No instruction reads more than two;
    /// unused slots are [`Range::EMPTY`].
    pub reads: [Range; 2],
    /// The local-memory range written ([`Range::EMPTY`] for `send` and
    /// `gstore`).
    pub write: Range,
    /// Global-memory interval `[start, end)` touched, with `true` = write.
    pub gmem: Option<(u64, u64, bool)>,
}

impl Footprint {
    /// Must an instruction with this footprint wait for the older one to
    /// complete? RAW, WAW or WAR overlap in local memory, or a global
    /// conflict ([`Footprint::gmem_conflicts`]).
    #[inline]
    pub fn conflicts(&self, older: &Footprint) -> bool {
        let raw = self.reads.iter().any(|r| r.overlaps(&older.write));
        let waw = self.write.overlaps(&older.write);
        let war = older.reads.iter().any(|r| self.write.overlaps(r));
        raw || waw || war || self.gmem_conflicts(older)
    }

    /// Do the two global accesses overlap with a write on either side?
    /// Like [`Range::overlaps`], a zero-length access overlaps nothing,
    /// so it conflicts with nothing.
    #[inline]
    pub fn gmem_conflicts(&self, other: &Footprint) -> bool {
        match (self.gmem, other.gmem) {
            (Some((s1, e1, w1)), Some((s2, e2, w2))) => {
                (w1 || w2) && s1 < e1 && s2 < e2 && s1 < e2 && s2 < e1
            }
            _ => false,
        }
    }
}

/// `len` elements from `start`, saturating at the address-space edge: the
/// constructor of the per-variant footprint the extents replaced.
#[cfg(test)]
impl Range {
    pub(crate) fn new(start: u32, len: u32) -> Range {
        Range {
            start,
            end: start.saturating_add(len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_instruction;
    use crate::error::IsaError;
    use crate::instr::{Addr, Instruction, PoolOp};
    use crate::reg::Reg;

    #[test]
    fn range_overlap() {
        let a = Range::new(0, 10);
        let b = Range::new(9, 1);
        let c = Range::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!Range::new(5, 0).overlaps(&a), "empty range never overlaps");
        assert!(!Range::EMPTY.overlaps(&Range::EMPTY));
    }

    /// The write footprint of a strided receive at element 100.
    fn strided(block: u32, blocks: u32, stride: i32) -> Result<Range, IsaError> {
        let text = format!(
            "recv2d core1, [r0+100], block={block}, blocks={blocks}, dstride={stride}, tag=0"
        );
        let instr = parse_instruction(&text)?;
        Ok(Footprint::of(&instr, &[], &[0; 32]).write)
    }

    #[test]
    fn strided_range_spans_both_directions() -> Result<(), IsaError> {
        assert_eq!(strided(4, 3, 10)?, Range::span(100, 124));
        assert_eq!(strided(4, 3, -10)?, Range::span(80, 104));
        assert_eq!(strided(4, 0, 10)?, Range::EMPTY, "no blocks");
        Ok(())
    }

    #[test]
    fn strided_range_saturates_at_the_address_space_edge() -> Result<(), IsaError> {
        // Regression: a span reaching past u32::MAX used to wrap into an
        // inverted (empty) interval that no hazard check could see.
        assert_eq!(Range::span(100, 124), Range::new(100, 24));
        let r = Range::span(u32::MAX as i64 - 10, u32::MAX as i64 + 22);
        assert_eq!((r.start, r.end), (u32::MAX - 10, u32::MAX), "no wrap");
        assert!(r.overlaps(&Range::new(u32::MAX - 1, 1)));
        // Large negative strides saturate the low bound at zero.
        assert_eq!(strided(4, 16383, -131072)?.start, 0);
        assert_eq!(Range::span(-8, 4), Range { start: 0, end: 4 });
        Ok(())
    }

    #[test]
    fn pool_window_row_length_saturates_instead_of_wrapping() -> Result<(), IsaError> {
        // Regression: 65536 * 65536 wrapped to a 0-element row, i.e. an
        // empty footprint no hazard check could see (and an overflow
        // panic in a debug build). The assembler refuses such a window;
        // its footprint still spans the whole address space.
        let (dst, src) = (Addr::new(Reg::R0, 100)?, Addr::new(Reg::R0, 10)?);
        let pool = |channels, win_w, win_h| Instruction::VPool {
            op: PoolOp::Max,
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride: 16,
        };
        let read = |instr: Instruction| Footprint::of(&instr, &[], &[0; 32]).reads[0];
        assert_eq!(
            read(pool(65536, 65536, 1)),
            Range::span(10, u32::MAX as i64)
        );
        assert!(read(pool(65536, 65536, 1)).overlaps(&Range::new(10, 8)));
        // In-range windows are the plain strided span, one row at least.
        assert_eq!(read(pool(4, 2, 3)), Range::span(10, 50));
        assert_eq!(read(pool(4, 2, 0)), Range::new(10, 8));
        Ok(())
    }

    fn local(reads: [Range; 2], write: Range) -> Footprint {
        Footprint {
            reads,
            write,
            gmem: None,
        }
    }

    fn global(start: u64, len: u64, write: bool) -> Footprint {
        Footprint {
            reads: [Range::EMPTY; 2],
            write: Range::EMPTY,
            gmem: Some((start, start + len, write)),
        }
    }

    #[test]
    fn local_conflicts_are_raw_waw_war() {
        let none = Range::EMPTY;
        let writer = local([none; 2], Range::new(0, 8));
        let reader = local([none, Range::new(4, 8)], Range::new(100, 8));
        assert!(reader.conflicts(&writer), "RAW");
        assert!(writer.conflicts(&reader), "WAR");
        assert!(writer.conflicts(&writer), "WAW");
        let other_reader = local([Range::new(0, 8), none], Range::new(300, 8));
        assert!(!other_reader.conflicts(&reader), "two reads");
        let elsewhere = local([Range::new(8, 4), none], Range::new(200, 8));
        assert!(!elsewhere.conflicts(&writer) && !writer.conflicts(&elsewhere));
    }

    #[test]
    fn gmem_conflicts_require_a_write_and_overlap() {
        let read = global(0, 10, false);
        let write = global(5, 10, true);
        assert!(read.conflicts(&write) && write.conflicts(&read));
        assert!(write.conflicts(&write));
        assert!(!read.conflicts(&read), "two reads never conflict");
        assert!(!read.conflicts(&global(20, 10, true)), "disjoint");
        assert!(!local([Range::EMPTY; 2], Range::EMPTY).conflicts(&write));
        // A zero-length access conflicts with nothing: not strictly
        // inside a written interval (in either order), not on its
        // boundary, not against another zero-length access.
        let store = global(100, 8, true);
        assert!(!global(104, 0, false).conflicts(&store));
        assert!(!store.conflicts(&global(104, 0, false)));
        assert!(!global(104, 0, true).conflicts(&global(100, 8, false)));
        assert!(!global(100, 0, false).conflicts(&store), "on the boundary");
        assert!(!global(108, 0, true).conflicts(&store), "one past the end");
        assert!(!global(104, 0, true).conflicts(&global(104, 0, true)));
    }
}
