//! Deterministic pseudo-random numbers.
//!
//! The whole reproduction is built around bit-exact replayability: inputs,
//! fuzzed machine models and randomized test cases must all be derivable
//! from a seed with no platform- or crate-version-dependence. `SplitMix64`
//! (Steele, Lea & Flood, OOPSLA 2014) is small, fast and statistically
//! adequate for workload generation — and owning the implementation keeps
//! the generated streams stable forever.

/// A 64-bit SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use fluidicl_des::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 random bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[0, 1)` (24 random bits).
    #[inline]
    fn next_f32(&mut self) -> f32 {
        // The 24-bit value converts exactly through `i32`, which is one
        // instruction on x86-64; a `u64` → `f32` cast is a branchy sequence.
        unit_f32(self.next_u64() >> 40)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// `bits / 2^24` for `bits < 2^24`, converted through `i32` (exact there).
#[inline]
fn unit_f32(bits: u64) -> f32 {
    debug_assert!(bits < 1 << 24);
    bits as i32 as f32 / (1u32 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i32` route of [`unit_f32`] gives the same bits as the direct
    /// `u64` → `f32` cast on every 24-bit input, so generated streams are
    /// unchanged.
    #[test]
    fn unit_f32_matches_the_u64_cast_on_all_24_bit_inputs() {
        for bits in 0..1u64 << 24 {
            let direct = bits as f32 / (1u32 << 24) as f32;
            assert_eq!(unit_f32(bits).to_bits(), direct.to_bits(), "input {bits}");
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_are_half_open() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!((-1.0..1.0).contains(&r.range_f32(-1.0, 1.0)));
            let v = r.range_u64(3, 9);
            assert!((3..9).contains(&v));
            let v = r.range_usize(0, 2);
            assert!(v < 2);
        }
    }
}
