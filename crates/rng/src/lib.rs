//! # ic2-rng — a small deterministic RNG with no external dependencies
//!
//! The workspace must build and test in hermetic environments with no
//! crates-io access, so instead of `rand` every seeded computation
//! (graph generators, partitioner tie-breaking, scenario generation,
//! fault injection) uses this SplitMix64 generator. SplitMix64 is the
//! seeding generator of `java.util.SplittableRandom` (Steele, Lea &
//! Flood, OOPSLA 2014): a 64-bit state marched by a Weyl sequence and
//! scrambled by a variant of the MurmurHash3 finalizer. It passes BigCrush
//! when used as a stream and — critically for fault injection — its
//! finalizer is a high-quality *stateless* mixer, so per-message fault
//! decisions can be computed as pure hashes independent of thread
//! interleaving.

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
///
/// Useful on its own for deterministic, order-independent decisions
/// (e.g. "should message #k from rank i to rank j be dropped?"): hash the
/// identifying tuple, mix, and threshold.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic sequential generator over the SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. Equal seeds yield equal streams on
    /// every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses the widening-multiply range
    /// reduction (Lemire), whose bias is at most 2⁻⁶⁴ per draw.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `usize` in `lo..hi` (half-open).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// Uniform `usize` in `lo..=hi` (inclusive).
    ///
    /// # Panics
    /// Panics if `hi < lo`.
    #[inline]
    pub fn gen_range_incl(&mut self, range: std::ops::RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty range");
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 1234567 from the canonical SplitMix64
        // (Vigna's xoshiro site / SplittableRandom).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range_incl(5..=5);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn mix64_is_stateless_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low-entropy inputs must produce high-entropy outputs.
        let bits: u32 = (0..64u64).map(|i| mix64(i).count_ones()).sum::<u32>() / 64;
        assert!((20..44).contains(&bits));
    }
}
