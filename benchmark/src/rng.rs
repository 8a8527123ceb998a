//! The seeded generator every workload derives its inputs from.
//!
//! SplitMix64: tiny, fast, and — unlike a hasher-seeded or OS-seeded
//! source — a pure function of the seed, so the same `--seed` always
//! yields the same inputs on every host.

/// SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one workload's
    /// inputs never shift when another starts drawing more numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// small ranges the generators draw from.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Sattolo's algorithm: a uniformly random permutation that is one
    /// single cycle, so no element maps to itself.
    pub fn cyclic_permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64) as usize);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_or_stream_differs() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn shuffle_permutes_and_cyclic_permutation_has_no_fixed_point() {
        let mut r = Rng::new(7, 0);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted);

        let p = r.cyclic_permutation(64);
        assert!(p.iter().enumerate().all(|(i, &to)| i != to));
        // One cycle through all 64 elements.
        let (mut at, mut steps) = (p[0], 1);
        while at != 0 {
            at = p[at];
            steps += 1;
        }
        assert_eq!(steps, 64);
    }
}
