//! In-tree deterministic randomness. Every random decision of the
//! simulation draws [`keyed`]`(seed, key)`, the key naming what is decided
//! (a flow's five-tuple, one packet at one egress port, one message
//! through one socket): a pure function of the seed and that key, not of
//! draw order, of other devices' draws or of the shard a device lives
//! in. [`SimRng`] (SplitMix64 seeding + xoshiro256** 1.0, the pair
//! `rand`'s `SmallRng` used on 64-bit targets) is a stream generator for
//! tests and workload generators.

/// SplitMix64's increment, the golden-ratio constant.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The stateless draw: start from `seed ^ GOLDEN`, then for each word of
/// `key` apply one SplitMix64 step to `x + word`.
pub fn keyed(seed: u64, key: &[u64]) -> u64 {
    key.iter()
        .fold(seed ^ GOLDEN, |x, &w| splitmix64(x.wrapping_add(w)).1)
}

/// The top 53 bits of `x` as a uniform `f64` in `[0, 1)`.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `x` scaled into `[0, bound)` by a multiply-high (bias below
/// `bound / 2^64`). `bound` must be non-zero.
pub fn below(x: u64, bound: u64) -> u64 {
    ((x as u128 * bound as u128) >> 64) as u64
}

/// A small, fast, deterministic PRNG (xoshiro256**) seeded via SplitMix64.
///
/// Not cryptographically secure — this is simulation randomness, where the
/// only requirements are statistical quality and bit-exact replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// One step of SplitMix64; used to expand a 64-bit seed into the 256-bit
/// xoshiro state so that similar seeds still give uncorrelated streams.
const fn splitmix64(state: u64) -> (u64, u64) {
    let state = state.wrapping_add(GOLDEN);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (state, z ^ (z >> 31))
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed is fine, including 0.
    pub const fn from_seed(seed: u64) -> SimRng {
        let (st, s0) = splitmix64(seed);
        let (st, s1) = splitmix64(st);
        let (st, s2) = splitmix64(st);
        let (_, s3) = splitmix64(st);
        SimRng {
            s: [s0, s1, s2, s3],
        }
    }

    /// Next raw 64 random bits (xoshiro256** core step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[range.start, range.end)`. Panics if empty.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the distribution is
    /// exactly uniform (no modulo bias).
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        range.start + self.gen_below(span)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Lemire's nearly-divisionless bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)` — convenience for indexing.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_below(bound as u64) as usize
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        unit(self.next_u64()) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_is_a_pure_function_of_seed_and_key() {
        assert_eq!(keyed(7, &[1, 2, 3]), keyed(7, &[1, 2, 3]));
        // Every word, its position and the seed matter.
        let base = keyed(7, &[1, 2, 3]);
        for other in [
            keyed(8, &[1, 2, 3]),
            keyed(7, &[1, 2, 4]),
            keyed(7, &[2, 1, 3]),
            keyed(7, &[1, 2]),
            keyed(7, &[1, 2, 3, 0]),
        ] {
            assert_ne!(base, other);
        }
        // The empty key is the seed's own mix.
        assert_eq!(keyed(0, &[]), GOLDEN);
    }

    #[test]
    fn keyed_draws_are_roughly_uniform() {
        let mut counts = [0u32; 8];
        let mut sum = 0.0;
        for i in 0..80_000u64 {
            let x = keyed(42, &[3, i]);
            counts[below(x, 8) as usize] += 1;
            sum += unit(x);
        }
        for c in counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
        assert!((sum / 80_000.0 - 0.5).abs() < 0.01);
        assert_eq!(below(u64::MAX, 10), 9);
        assert_eq!(below(0, 10), 0);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256** with state [1,2,3,4]: published reference outputs.
        let mut r = SimRng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11520,
                0,
                1509978240,
                1215971899390074240,
                1216172134540287360
            ]
        );
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SimRng::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SimRng::from_seed(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::from_seed(7);
        for x in (0..10_000).map(|_| r.next_u64()).chain([0, u64::MAX]) {
            let x = unit(x);
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::from_seed(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = r.gen_range(10..17);
            assert!((10..17).contains(&x));
            seen_lo |= x == 10;
            seen_hi |= x == 16;
        }
        assert!(seen_lo && seen_hi, "both endpoints reachable");
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut r = SimRng::from_seed(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_below(8) as usize] += 1;
        }
        for c in counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn bool_probability_sane() {
        let mut r = SimRng::from_seed(13);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits} hits for p=0.25");
    }
}
