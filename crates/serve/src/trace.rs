//! The queue-depth trace: one `(time, depth)` sample per event instant,
//! stored at 8 bytes a sample in fixed chunks.
//!
//! The engine samples the queue after every event, so the trace is the one
//! part of the replay that grows with the run (besides the latencies the
//! percentiles need). Each sample is kept, so the report's downsampling
//! sees exactly what a plain `Vec<(SimTime, u64)>` would hold; it is only
//! stored smaller:
//!
//! - **Word.** A sample is one `u64`: the high 32 bits hold the
//!   picoseconds since the previous sample, the low 32 bits the depth. A
//!   sample that does not fit (a gap of 2^32 ps or more, about 4.3 ms, a
//!   depth of 2^32 or more, or a time before the previous sample) is
//!   written as [`ESCAPE`] followed by its absolute time and its depth.
//! - **Chunks.** Words go into chunks of [`CHUNK_WORDS`], each allocated
//!   once at full size: no doubling slack and no copy on growth. The chunk
//!   being filled is held by value, so a push is one length check and
//!   one store.
//! - **Newest sample.** The newest sample stays unencoded until the next
//!   instant, so "a later sample at the same time replaces the earlier
//!   one" is one compare and one store.

use pimsim_event::SimTime;

/// Words per chunk: 512 KiB.
const CHUNK_WORDS: usize = 1 << 16;

/// Marks an escaped sample: the next two words are its absolute time in
/// picoseconds and its depth. No packed word equals it (a packed word
/// whose gap and depth are both `u32::MAX` is escaped instead).
const ESCAPE: u64 = u64::MAX;

/// Every queue-depth sample of a replay, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DepthTrace {
    /// Full chunks of encoded samples, [`CHUNK_WORDS`] each.
    chunks: Vec<Vec<u64>>,
    /// The chunk being filled (no allocation before the first word).
    open: Vec<u64>,
    /// The time of the last encoded sample (zero before the first).
    encoded_until: SimTime,
    /// The newest sample, not yet encoded.
    newest: Option<(SimTime, u64)>,
    /// Samples held, `newest` included.
    len: usize,
}

impl DepthTrace {
    /// Records the queue depth at `time`; a sample at the same time as the
    /// newest one replaces it.
    pub(crate) fn record(&mut self, time: SimTime, depth: u64) {
        match &mut self.newest {
            Some(newest) if newest.0 == time => newest.1 = depth,
            newest => {
                if let Some((t, d)) = newest.replace((time, depth)) {
                    self.encode(t, d);
                }
                self.len += 1;
            }
        }
    }

    /// Samples held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The newest sample, read without decoding.
    pub(crate) fn last(&self) -> Option<(SimTime, u64)> {
        self.newest
    }

    /// Every sample in the order recorded, decoded in one pass.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let chunks = self.chunks.iter().chain([&self.open]);
        let mut words = chunks.flatten().copied();
        let mut at = 0u64;
        std::iter::from_fn(move || {
            let word = words.next()?;
            let depth = if word == ESCAPE {
                at = words.next()?;
                words.next()?
            } else {
                at += word >> 32;
                word & u64::from(u32::MAX)
            };
            Some((SimTime::from_ps(at), depth))
        })
        .chain(self.newest)
    }

    fn encode(&mut self, time: SimTime, depth: u64) {
        let gap = time.as_ps().checked_sub(self.encoded_until.as_ps());
        self.encoded_until = time;
        match gap {
            Some(gap) if gap < 1 << 32 && depth < 1 << 32 && gap << 32 | depth != ESCAPE => {
                self.push(gap << 32 | depth);
            }
            _ => {
                self.push(ESCAPE);
                self.push(time.as_ps());
                self.push(depth);
            }
        }
    }

    fn push(&mut self, word: u64) {
        if self.open.len() == self.open.capacity() {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK_WORDS));
            if !full.is_empty() {
                self.chunks.push(full);
            }
        }
        self.open.push(word);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The same-instant rule on a plain `Vec`: what the trace must decode to.
    pub(crate) fn reference(samples: &[(SimTime, u64)]) -> Vec<(SimTime, u64)> {
        let mut out: Vec<(SimTime, u64)> = Vec::new();
        for &(time, depth) in samples {
            match out.last_mut() {
                Some(last) if last.0 == time => last.1 = depth,
                _ => out.push((time, depth)),
            }
        }
        out
    }

    pub(crate) fn trace(samples: &[(SimTime, u64)]) -> DepthTrace {
        let mut trace = DepthTrace::default();
        for &(time, depth) in samples {
            trace.record(time, depth);
        }
        trace
    }

    /// `filler` packed samples one picosecond apart, then `tail` steps:
    /// gaps of zero (a repeated instant), small, just under, at and past
    /// 2^32 ps, and depths on both sides of 2^32 — the escape path, at any
    /// offset from a chunk boundary.
    pub(crate) fn samples() -> impl Strategy<Value = Vec<(SimTime, u64)>> {
        let filler = prop_oneof![Just(0usize), 0usize..64, CHUNK_WORDS - 4..CHUNK_WORDS + 4];
        let gap = prop_oneof![
            Just(0u64),
            1u64..1_000,
            (1u64 << 32) - 2..(1 << 32) + 2,
            any::<u64>().prop_map(|g| g >> 8),
        ];
        let depth = prop_oneof![
            0u64..100,
            Just(u64::from(u32::MAX)),
            (1u64 << 32)..(1 << 32) + 2,
            any::<u64>(),
        ];
        (filler, proptest::collection::vec((gap, depth), 0..40)).prop_map(|(filler, tail)| {
            let mut out: Vec<(SimTime, u64)> = (0..filler as u64)
                .map(|i| (SimTime::from_ps(i), i % 7))
                .collect();
            let mut at = filler as u64;
            for (gap, depth) in tail {
                at = at.saturating_add(gap);
                out.push((SimTime::from_ps(at), depth));
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The trace decodes to the samples a `Vec` applying the
        /// same-instant rule holds, and knows its length and last one.
        #[test]
        fn trace_matches_the_vec(samples in samples()) {
            let expect = reference(&samples);
            let trace = trace(&samples);
            prop_assert_eq!(trace.len(), expect.len());
            prop_assert_eq!(trace.last(), expect.last().copied());
            prop_assert!(trace.iter().eq(expect.iter().copied()));
        }

        /// Times need not rise: a step back is escaped, not wrapped.
        #[test]
        fn unordered_times_round_trip(
            samples in proptest::collection::vec((0u64..1 << 34, 0u64..1 << 33), 0..64),
        ) {
            let samples: Vec<_> = samples.into_iter().map(|(t, d)| (SimTime::from_ps(t), d)).collect();
            prop_assert!(trace(&samples).iter().eq(reference(&samples)));
        }
    }

    #[test]
    fn chunk_boundaries() {
        for n in [0, 1, CHUNK_WORDS, CHUNK_WORDS + 1, CHUNK_WORDS + 2] {
            let samples: Vec<_> = (0..n as u64)
                .map(|i| (SimTime::from_ps(3 * i), i))
                .collect();
            let trace = trace(&samples);
            assert_eq!(trace.len(), n);
            // The newest sample is never encoded.
            let words = trace.chunks.len() * CHUNK_WORDS + trace.open.len();
            assert_eq!(words, n.saturating_sub(1));
            assert_eq!(trace.chunks.len(), words.saturating_sub(1) / CHUNK_WORDS);
            assert!(trace.chunks.iter().all(|c| c.len() == CHUNK_WORDS));
            assert!(trace.chunks.iter().all(|c| c.capacity() == CHUNK_WORDS));
            let open = if words == 0 { 0 } else { CHUNK_WORDS };
            assert_eq!(trace.open.capacity(), open);
            assert!(trace.iter().eq(samples));
        }
    }

    #[test]
    fn escapes_cost_three_words() {
        let samples = [
            (SimTime::from_ps(5), 1),
            (SimTime::from_ps(5 + (1 << 32)), 2),
            (SimTime::from_ps(6 + (1 << 32)), 1 << 32),
            (SimTime::from_ps(6 + (1 << 33)), u64::from(u32::MAX)),
            // Fits, but packs to `ESCAPE` itself.
            (SimTime::from_ps(5 + (3 << 32)), u64::from(u32::MAX)),
            (SimTime::MAX, 0),
        ];
        let trace = trace(&samples);
        assert!(trace.chunks.is_empty());
        let words = &trace.open;
        assert_eq!(words.len(), 1 + 3 + 3 + 3 + 3);
        assert_eq!(words[0], 5 << 32 | 1);
        assert!(trace.iter().eq(samples));
    }
}
