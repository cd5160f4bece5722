//! The fuzzer's deterministic pseudo-random stream.
//!
//! SplitMix64 (Steele–Lea–Flood), hand-rolled because the container has
//! no crate registry and — more importantly — because reproducibility is
//! a hard requirement: the same `(seed, index)` pair must generate the
//! same case on every platform and every run, so the CI gate can compare
//! two reports byte-for-byte. No floats, no global state, no time.

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable deterministic random-number generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// A generator for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng { state: seed }
    }

    /// Derives an independent stream for a sub-task (a case index, a
    /// mutation slot) without advancing this generator. Forking is how
    /// per-case determinism survives parallel execution: case `i` draws
    /// from `rng.fork(i)` no matter which worker runs it or in what
    /// order.
    #[must_use]
    pub fn fork(&self, salt: u64) -> FuzzRng {
        FuzzRng::new(mix(self
            .state
            .wrapping_add(GOLDEN.wrapping_mul(salt.wrapping_add(1)))))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// A draw in `0..n`. The modulo bias is irrelevant at fuzzing scale
    /// (`n` is always tiny next to `2^64`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// A draw in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A uniformly chosen element.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FuzzRng::new(0xD1AF);
        let mut b = FuzzRng::new(0xD1AF);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_draws() {
        let parent = FuzzRng::new(7);
        let mut advanced = FuzzRng::new(7);
        let _ = advanced.next_u64();
        // fork() reads only the fork-time state, so forking before or
        // after unrelated sibling forks gives the same stream.
        assert_eq!(
            parent.fork(3).next_u64(),
            FuzzRng::new(7).fork(3).next_u64()
        );
        assert_ne!(parent.fork(3).next_u64(), parent.fork(4).next_u64());
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = FuzzRng::new(1);
        for _ in 0..256 {
            assert!(rng.below(7) < 7);
            let r = rng.range(-3, 3);
            assert!((-3..=3).contains(&r));
        }
        let xs = [10, 20, 30];
        for _ in 0..32 {
            assert!(xs.contains(rng.pick(&xs)));
        }
    }
}
