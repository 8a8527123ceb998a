//! Memory hazard footprints and the conflict test on them.
//!
//! The simulator's scoreboard and the static bound analyzer in
//! `pimsim-analyze` both order instructions by the memory they read and
//! write. Both call the interval type, the arithmetic that turns strided
//! and windowed operands into one, and the [`Footprint::conflicts`] rule
//! defined here: an edge the analyzer prices is an ordering the machine
//! really enforces, and an overflow fixed here is fixed in both.

/// A half-open local-memory interval `[start, end)` used for hazard checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// First element index.
    pub start: u32,
    /// One past the last element index.
    pub end: u32,
}

impl Range {
    /// The interval no access touches: it overlaps nothing.
    pub const EMPTY: Range = Range { start: 0, end: 0 };

    /// `len` elements from `start`, saturating at the address-space edge.
    #[inline]
    pub fn new(start: u32, len: u32) -> Range {
        Range {
            start,
            end: start.saturating_add(len),
        }
    }

    /// Do the two intervals share an element? Empty intervals intersect
    /// nothing.
    #[inline]
    pub fn overlaps(&self, other: &Range) -> bool {
        self.start < self.end
            && other.start < other.end
            && self.start < other.end
            && other.start < self.end
    }

    /// Conservative span of a strided 2-D access.
    ///
    /// Intermediate math runs in `i64` and both bounds clamp into the
    /// `u32` address space: a span reaching past `u32::MAX` saturates
    /// (stays conservative) instead of wrapping into an inverted — hence
    /// empty, hazard-invisible — interval.
    #[inline]
    pub fn strided(base: u32, block_len: u32, blocks: u32, stride: i32) -> Range {
        if blocks == 0 || block_len == 0 {
            return Range::new(base, 0);
        }
        let last = base as i64 + (blocks as i64 - 1) * stride as i64;
        let lo = (base as i64).min(last).clamp(0, u32::MAX as i64) as u32;
        let hi = ((base as i64).max(last) + block_len as i64).clamp(0, u32::MAX as i64) as u32;
        Range { start: lo, end: hi }
    }

    /// Conservative span a `vpool` reads: `win_h` rows (at least one),
    /// `row_stride` apart, of `win_w` pixels of `channels` elements each.
    /// The row length saturates rather than wrapping `u32`, so an
    /// oversized window stays a large footprint instead of an empty one.
    #[inline]
    pub fn pool_window(base: u32, channels: u32, win_w: u32, win_h: u32, row_stride: i32) -> Range {
        Range::strided(
            base,
            win_w.saturating_mul(channels),
            win_h.max(1),
            row_stride,
        )
    }
}

/// Everything a memory-class instruction touches, as far as ordering it
/// against the other instructions of its core goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn strided_range_spans_both_directions() {
        let r = Range::strided(100, 4, 3, 10);
        assert_eq!((r.start, r.end), (100, 124));
        let r = Range::strided(100, 4, 3, -10);
        assert_eq!((r.start, r.end), (80, 104));
    }

    #[test]
    fn strided_range_saturates_at_the_address_space_edge() {
        // Regression: a span reaching past u32::MAX used to wrap into an
        // inverted (empty) interval that no hazard check could see.
        let r = Range::strided(u32::MAX - 10, 8, 4, 16);
        assert_eq!(r.start, u32::MAX - 10);
        assert_eq!(r.end, u32::MAX, "end saturates instead of wrapping");
        assert!(r.overlaps(&Range::new(u32::MAX - 1, 1)));
        // Large negative strides clamp the low bound at zero.
        let r = Range::strided(10, 4, u32::MAX, i32::MIN);
        assert_eq!(r.start, 0);
    }

    #[test]
    fn pool_window_row_length_saturates_instead_of_wrapping() {
        // Regression: 65536 * 65536 wrapped to a 0-element row, i.e. an
        // empty footprint no hazard check could see (and an overflow
        // panic in a debug build).
        let r = Range::pool_window(0, 65536, 65536, 1, 8);
        assert_eq!((r.start, r.end), (0, u32::MAX));
        assert!(r.overlaps(&Range::new(0, 8)));
        // In-range windows are the plain strided span.
        assert_eq!(
            Range::pool_window(10, 4, 2, 3, 16),
            Range::strided(10, 8, 3, 16)
        );
        assert_eq!(Range::pool_window(10, 4, 2, 0, 16), Range::new(10, 8));
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
