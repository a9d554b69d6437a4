//! Deterministic random-number generation for reproducible experiments.
//!
//! Everything stochastic in the workspace — synthetic address streams,
//! machine idiosyncrasy factors, communication imbalance draws — must be
//! exactly reproducible so that the regenerated tables and figures are stable
//! artifacts. This module provides a small, fast SplitMix64 generator seeded
//! either directly or from a stable FNV-1a hash of a list of string labels
//! (e.g. `("avus-standard", "ARL_Opteron", "64", "idiosyncrasy")`).
//!
//! SplitMix64 is the seeding generator recommended by the xoshiro authors; it
//! passes BigCrush when used directly and is more than adequate for workload
//! synthesis (we are not doing cryptography or high-dimensional Monte Carlo).

/// The standard FNV-1a 64-bit offset basis (the hash of the empty string).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The standard FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a mixing step: fold `byte` into the running `hash`.
///
/// This is the streaming form of [`fnv1a`]; hashing a byte string step by
/// step from [`FNV_OFFSET`] produces exactly the batch result. Cache keys,
/// chaos-site draws, and RNG seeding all share this one primitive, so a
/// hash equality in one layer means the same thing in every other.
#[must_use]
pub const fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// Stable 64-bit FNV-1a hash of a byte string.
///
/// Used to derive RNG seeds from human-readable labels. The constants are the
/// standard FNV-1a 64-bit offset basis and prime, so hashes are stable across
/// platforms, Rust versions, and process runs (unlike `std::hash`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = fnv1a_step(h, b);
    }
    h
}

/// FNV-1a over a sequence of string labels with an explicit separator byte
/// folded in *before* each label, so label boundaries cannot alias —
/// `["ab", "c"]` and `["a", "bc"]` hash differently, and a shorter prefix
/// never collides with its own extension.
#[must_use]
pub fn fnv1a_labels(seed: u64, labels: &[&str], separator: u8) -> u64 {
    let mut h = seed;
    for label in labels {
        h = fnv1a_step(h, separator);
        for byte in label.bytes() {
            h = fnv1a_step(h, byte);
        }
    }
    h
}

/// Derive a seed from a sequence of string labels.
///
/// Labels are separated by an ASCII unit separator so that
/// `("ab", "c")` and `("a", "bc")` hash differently.
#[must_use]
pub fn seed_from_labels(labels: &[&str]) -> u64 {
    // Streamed through the shared step so no buffer is built; the byte
    // sequence (label then separator, per label) is unchanged, so every
    // seed — and every study output derived from one — stays identical.
    let mut h = FNV_OFFSET;
    for l in labels {
        for byte in l.bytes() {
            h = fnv1a_step(h, byte);
        }
        h = fnv1a_step(h, 0x1f);
    }
    h
}

/// A deterministic SplitMix64 pseudo-random generator.
///
/// Cheap to construct (two words of state is one word — just the counter),
/// `Copy`-free by design so accidental state duplication is visible, and
/// entirely allocation-free.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// Construct from a raw 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Construct from stable string labels (see [`seed_from_labels`]).
    #[must_use]
    pub fn from_labels(labels: &[&str]) -> Self {
        Self::new(seed_from_labels(labels))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results;
    /// see [`UniformBelow`] for many draws below one bound.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        UniformBelow::new(bound).sample(self)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo, "uniform range inverted");
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal draw via Box–Muller (one value per call; the twin is
    /// discarded to keep state evolution simple and branch-free).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by mapping the first draw into (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Lognormal multiplicative factor with median 1 and log-space standard
    /// deviation `sigma`. This is what the ground-truth model uses for the
    /// per-(machine, application) idiosyncrasy term.
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle (deterministic given the RNG state).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.len() < 2 {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick one element of a non-empty slice uniformly.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose on empty slice");
        &xs[self.next_below(xs.len() as u64) as usize]
    }

    /// Sample an index from a discrete distribution given non-negative
    /// weights (not necessarily normalized). Panics if all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index: weights sum to zero");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slop: return the last nonzero weight.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("at least one positive weight")
    }
}

/// Uniform integers in `[0, bound)` for one fixed `bound`, by Lemire's
/// multiply-shift rejection method.
///
/// The rejection threshold costs a 64-bit division; building the sampler once
/// pays it once, where [`SeededRng::next_below`] pays it on every draw. Both
/// consume the same generator outputs and return the same values.
#[derive(Debug, Clone, Copy)]
pub struct UniformBelow {
    bound: u64,
    threshold: u64,
}

impl UniformBelow {
    /// A sampler for `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "next_below bound must be nonzero");
        // The rejection zone `2^64 mod bound` keeps the mapping unbiased.
        Self {
            bound,
            threshold: bound.wrapping_neg() % bound,
        }
    }

    /// Draw one value from `rng`.
    pub fn sample(&self, rng: &mut SeededRng) -> u64 {
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(self.bound);
            if (m as u64) >= self.threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn streaming_steps_match_the_batch_hash() {
        let bytes = b"the streaming form must equal the batch form";
        let streamed = bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_step(h, b));
        assert_eq!(streamed, fnv1a(bytes));
    }

    #[test]
    fn label_hashing_separates_boundaries_and_seeds() {
        // Boundary aliasing: ["ab","c"] vs ["a","bc"].
        assert_ne!(
            fnv1a_labels(FNV_OFFSET, &["ab", "c"], 0x1f),
            fnv1a_labels(FNV_OFFSET, &["a", "bc"], 0x1f)
        );
        // Prefix aliasing: a label list never collides with its extension.
        assert_ne!(
            fnv1a_labels(FNV_OFFSET, &["a"], 0x1f),
            fnv1a_labels(FNV_OFFSET, &["a", ""], 0x1f)
        );
        // The seed participates.
        assert_ne!(fnv1a_labels(1, &["a"], 0x1f), fnv1a_labels(2, &["a"], 0x1f));
        // And the separator byte does too.
        assert_ne!(
            fnv1a_labels(FNV_OFFSET, &["a", "b"], 0x1f),
            fnv1a_labels(FNV_OFFSET, &["a", "b"], 0xff)
        );
    }

    #[test]
    fn label_separation_prevents_collisions() {
        assert_ne!(
            seed_from_labels(&["ab", "c"]),
            seed_from_labels(&["a", "bc"])
        );
        assert_ne!(seed_from_labels(&["a"]), seed_from_labels(&["a", ""]));
    }

    #[test]
    fn sequence_is_deterministic() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SeededRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = SeededRng::new(99);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.next_below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn uniform_below_replays_the_per_draw_threshold() {
        // Inline the original per-draw Lemire loop as the reference; a
        // bound just past 2^63 rejects almost half of all outputs.
        fn reference(rng: &mut SeededRng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(bound);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        for bound in [1, 3, 7, 1 << 20, (1 << 63) + 1, u64::MAX] {
            let sampler = UniformBelow::new(bound);
            let (mut a, mut b, mut c) =
                (SeededRng::new(11), SeededRng::new(11), SeededRng::new(11));
            for _ in 0..1_000 {
                let want = reference(&mut a, bound);
                assert_eq!(sampler.sample(&mut b), want, "bound {bound}");
                assert_eq!(c.next_below(bound), want, "bound {bound}");
            }
            let next = a.next_u64();
            assert_eq!(b.next_u64(), next, "bound {bound}");
            assert_eq!(c.next_u64(), next, "bound {bound}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn next_below_zero_panics() {
        SeededRng::new(1).next_below(0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SeededRng::new(5);
        for _ in 0..1_000 {
            let x = r.uniform(-3.0, 9.0);
            assert!((-3.0..9.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SeededRng::new(123);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_factor_has_median_near_one() {
        let mut r = SeededRng::new(321);
        let mut xs: Vec<f64> = (0..10_001).map(|_| r.lognormal_factor(0.15)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[5_000];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SeededRng::new(8);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // and with seed fixed, the permutation is stable
        let mut r2 = SeededRng::new(8);
        let mut ys: Vec<u32> = (0..50).collect();
        r2.shuffle(&mut ys);
        assert_eq!(xs, ys);
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut r = SeededRng::new(1);
        let mut empty: [u8; 0] = [];
        r.shuffle(&mut empty);
        let mut one = [42u8];
        r.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SeededRng::new(77);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..8_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn weighted_index_zero_weights_panics() {
        SeededRng::new(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SeededRng::new(3);
        let xs = [10, 20, 30];
        for _ in 0..100 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }
}
