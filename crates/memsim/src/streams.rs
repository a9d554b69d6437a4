//! Synthetic address-stream generators.
//!
//! Only random streams (GUPS, MAPS random-stride, random application
//! blocks) drive the hierarchy simulator: sequential and strided sweeps are
//! counted without one. The strided stream survives as the tests' reference
//! for that count.

use metasim_stats::rng::{SeededRng, UniformBelow};

/// Uniform random element-aligned addresses within `[0, working_set)`.
#[derive(Debug, Clone)]
pub(crate) struct RandomStream {
    /// Draws the element index, its Lemire threshold computed once.
    slot: UniformBelow,
    element_bytes: u64,
    rng: SeededRng,
}

impl RandomStream {
    /// Random accesses over `[0, working_set)`, element-aligned.
    ///
    /// # Panics
    /// Panics if the working set holds no elements.
    pub(crate) fn new(working_set: u64, element_bytes: u64, rng: SeededRng) -> Self {
        assert!(element_bytes > 0, "element size must be nonzero");
        let slots = working_set / element_bytes;
        assert!(slots > 0, "working set must hold at least one element");
        Self {
            slot: UniformBelow::new(slots),
            element_bytes,
            rng,
        }
    }

    /// Fill `buf` with the next `buf.len()` addresses.
    pub(crate) fn fill(&mut self, buf: &mut [u64]) {
        for addr in buf {
            *addr = self.slot.sample(&mut self.rng) * self.element_bytes;
        }
    }
}

/// Cyclic constant-stride sweep over a working set.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct StridedStream {
    base: u64,
    working_set: u64,
    stride_bytes: u64,
    element_bytes: u64,
    cursor: u64,
}

#[cfg(test)]
impl StridedStream {
    /// Sweep `[base, base + working_set)` with the given stride.
    ///
    /// # Panics
    /// Panics if the stride is zero or the working set smaller than one
    /// element.
    pub(crate) fn new(base: u64, working_set: u64, stride_bytes: u64, element_bytes: u64) -> Self {
        assert!(stride_bytes > 0, "stride must be nonzero");
        assert!(element_bytes > 0, "element size must be nonzero");
        assert!(
            working_set >= element_bytes,
            "working set must hold at least one element"
        );
        Self {
            base,
            working_set,
            stride_bytes,
            element_bytes,
            cursor: 0,
        }
    }

    pub(crate) fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.cursor;
        self.cursor += self.stride_bytes;
        if self.cursor + self.element_bytes > self.working_set {
            self.cursor = 0;
        }
        addr
    }

    /// Fill `buf` with the next `buf.len()` addresses.
    pub(crate) fn fill(&mut self, buf: &mut [u64]) {
        for addr in buf {
            *addr = self.next_addr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next `n` addresses of a random stream.
    fn take(stream: &mut RandomStream, n: usize) -> Vec<u64> {
        let mut addrs = vec![0; n];
        stream.fill(&mut addrs);
        addrs
    }

    #[test]
    fn unit_stride_walks_and_wraps() {
        let mut s = StridedStream::new(1000, 32, 8, 8);
        let mut addrs = vec![0; 6];
        s.fill(&mut addrs);
        assert_eq!(addrs, vec![1000, 1008, 1016, 1024, 1000, 1008]);
    }

    #[test]
    fn strided_respects_stride() {
        let mut s = StridedStream::new(0, 1024, 64, 8);
        let mut addrs = vec![0; 3];
        s.fill(&mut addrs);
        assert_eq!(addrs, vec![0, 64, 128]);
    }

    #[test]
    fn wrap_never_exceeds_working_set() {
        let mut s = StridedStream::new(0, 100, 24, 8);
        for _ in 0..1000 {
            let a = s.next_addr();
            assert!(a + 8 <= 100, "address {a} escapes working set");
        }
    }

    #[test]
    #[should_panic(expected = "stride must be nonzero")]
    fn zero_stride_panics() {
        let _ = StridedStream::new(0, 64, 0, 8);
    }

    #[test]
    fn random_stays_in_bounds_and_aligned() {
        let rng = SeededRng::new(5);
        let mut s = RandomStream::new(1 << 16, 8, rng);
        for a in take(&mut s, 10_000) {
            assert!(a + 8 <= 1 << 16);
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomStream::new(1 << 20, 8, SeededRng::new(7));
        let mut b = RandomStream::new(1 << 20, 8, SeededRng::new(7));
        assert_eq!(take(&mut a, 100), take(&mut b, 100));
    }

    #[test]
    fn random_covers_many_distinct_lines() {
        let mut s = RandomStream::new(1 << 20, 8, SeededRng::new(9));
        let lines: std::collections::HashSet<u64> =
            take(&mut s, 4096).iter().map(|a| a >> 6).collect();
        assert!(lines.len() > 3000, "only {} distinct lines", lines.len());
    }

    #[test]
    fn random_fill_matches_next_addr() {
        // Filling a batch equals drawing its addresses one at a time. Slot
        // counts 1, 3, 2^20 and 2^63 + 1; the last rejects almost half of
        // the generator's outputs. Batch lengths include partial ones.
        let cases = [(8, 8), (24, 8), (8 << 20, 8), ((1 << 63) + 1, 1)];
        for (working_set, element_bytes) in cases {
            let mut batched = RandomStream::new(working_set, element_bytes, SeededRng::new(17));
            let mut single = batched.clone();
            for len in [1, 7, 1024, 1000, 0, 33] {
                let got = take(&mut batched, len);
                let want: Vec<u64> = (0..len).map(|_| take(&mut single, 1)[0]).collect();
                assert_eq!(got, want, "working set {working_set}, batch {len}");
            }
            assert_eq!(
                batched.rng.next_u64(),
                single.rng.next_u64(),
                "working set {working_set}: generator state diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn random_empty_working_set_panics() {
        let _ = RandomStream::new(4, 8, SeededRng::new(1));
    }
}
