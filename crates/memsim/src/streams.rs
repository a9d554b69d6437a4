//! Synthetic address-stream generators.
//!
//! Probes and application workloads need real address sequences to drive the
//! hierarchy simulator. Two families cover the study's needs: unit/short
//! stride sweeps (STREAM, MAPS unit-stride) and uniform random (GUPS, MAPS
//! random-stride).

use metasim_stats::rng::{SeededRng, UniformBelow};

/// Anything that can produce an unbounded sequence of byte addresses.
pub trait AddressStream {
    /// Produce the next address.
    fn next_addr(&mut self) -> u64;
    /// Bytes requested per access.
    fn element_bytes(&self) -> u64;

    /// Fill `buf` with the next `buf.len()` addresses. Semantically exactly
    /// `buf.len()` calls to [`next_addr`](Self::next_addr); the batch form
    /// lets hot drivers generate addresses in one tight loop per block
    /// instead of interleaving stream dispatch with hierarchy simulation.
    /// Implementors may override with a fused loop; the stream must end in
    /// the same state either way.
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            *slot = self.next_addr();
        }
    }
}

/// Cyclic constant-stride sweep over a working set.
#[derive(Debug, Clone)]
pub struct StridedStream {
    base: u64,
    working_set: u64,
    stride_bytes: u64,
    element_bytes: u64,
    cursor: u64,
}

impl StridedStream {
    /// Sweep `[base, base + working_set)` with the given stride.
    ///
    /// # Panics
    /// Panics if the stride is zero or the working set smaller than one
    /// element.
    #[must_use]
    pub fn new(base: u64, working_set: u64, stride_bytes: u64, element_bytes: u64) -> Self {
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
}

impl AddressStream for StridedStream {
    fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.cursor;
        self.cursor += self.stride_bytes;
        if self.cursor + self.element_bytes > self.working_set {
            self.cursor = 0;
        }
        addr
    }

    fn element_bytes(&self) -> u64 {
        self.element_bytes
    }
}

/// Uniform random element-aligned addresses within a working set.
#[derive(Debug, Clone)]
pub struct RandomStream {
    base: u64,
    /// Draws the element index, its Lemire threshold computed once.
    slot: UniformBelow,
    element_bytes: u64,
    rng: SeededRng,
}

impl RandomStream {
    /// Random accesses over `[base, base + working_set)`, element-aligned.
    ///
    /// # Panics
    /// Panics if the working set holds no elements.
    #[must_use]
    pub fn new(base: u64, working_set: u64, element_bytes: u64, rng: SeededRng) -> Self {
        assert!(element_bytes > 0, "element size must be nonzero");
        let slots = working_set / element_bytes;
        assert!(slots > 0, "working set must hold at least one element");
        Self {
            base,
            slot: UniformBelow::new(slots),
            element_bytes,
            rng,
        }
    }
}

impl AddressStream for RandomStream {
    fn next_addr(&mut self) -> u64 {
        self.base + self.slot.sample(&mut self.rng) * self.element_bytes
    }

    fn element_bytes(&self) -> u64 {
        self.element_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next `n` addresses of `stream`, through [`AddressStream::fill`].
    fn take<S: AddressStream>(stream: &mut S, n: usize) -> Vec<u64> {
        let mut addrs = vec![0; n];
        stream.fill(&mut addrs);
        addrs
    }

    #[test]
    fn unit_stride_walks_and_wraps() {
        let mut s = StridedStream::new(1000, 32, 8, 8);
        let addrs = take(&mut s, 6);
        assert_eq!(addrs, vec![1000, 1008, 1016, 1024, 1000, 1008]);
    }

    #[test]
    fn strided_respects_stride() {
        let mut s = StridedStream::new(0, 1024, 64, 8);
        let addrs = take(&mut s, 3);
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
        let mut s = RandomStream::new(4096, 1 << 16, 8, rng);
        for _ in 0..10_000 {
            let a = s.next_addr();
            assert!(a >= 4096 && a + 8 <= 4096 + (1 << 16));
            assert_eq!((a - 4096) % 8, 0);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomStream::new(0, 1 << 20, 8, SeededRng::new(7));
        let mut b = RandomStream::new(0, 1 << 20, 8, SeededRng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }

    #[test]
    fn random_covers_many_distinct_lines() {
        let mut s = RandomStream::new(0, 1 << 20, 8, SeededRng::new(9));
        let mut lines = std::collections::HashSet::new();
        for _ in 0..4096 {
            lines.insert(s.next_addr() >> 6);
        }
        assert!(lines.len() > 3000, "only {} distinct lines", lines.len());
    }

    #[test]
    fn random_fill_matches_next_addr() {
        // Slot counts 1, 3, 2^20 and 2^63 + 1; the last rejects almost half
        // of the generator's outputs. Batch lengths include partial ones.
        let cases = [(8, 8), (24, 8), (8 << 20, 8), ((1 << 63) + 1, 1)];
        for (working_set, element_bytes) in cases {
            let base = 4096;
            let mut batched =
                RandomStream::new(base, working_set, element_bytes, SeededRng::new(17));
            let mut single = batched.clone();
            for len in [1, 7, 1024, 1000, 0, 33] {
                let got = take(&mut batched, len);
                let want: Vec<u64> = (0..len).map(|_| single.next_addr()).collect();
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
        let _ = RandomStream::new(0, 4, 8, SeededRng::new(1));
    }
}
