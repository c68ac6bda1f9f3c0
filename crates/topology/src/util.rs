//! Small utilities shared across the workspace: a fast hasher for integer
//! keys and deterministic RNG construction.
//!
//! The simulators hash millions of `(node, time)` pairs; std's SipHash is a
//! measurable cost there (see the Rust Performance Book's hashing chapter).
//! `rustc-hash` is not on the sanctioned dependency list, so we implement the
//! same multiply-rotate scheme (Fx) here — it is ~15 lines and fully tested.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for integer-dominated keys (the Fx scheme used by
/// rustc). Not HashDoS-resistant; all keys in this workspace are internal.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
    /// The multiply mixes a key bit only into the bits above it, while
    /// `HashMap` picks buckets from the low bits and tags from the top 7:
    /// fold the high half into the low half, so keys differing only above
    /// bit 32 — a `node << 32 | t` pebble key — still spread over buckets,
    /// and the top bits stay as mixed as the product's.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed by the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Deterministic RNG for reproducible topologies and workloads.
///
/// Everything random in this workspace (random regular graphs, routing
/// destinations, guest initial states) flows from an explicit `u64` seed so
/// experiments are replayable.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Integer square root (floor). Used for mesh side lengths and the paper's
/// `a = √(log m)` parameter without pulling in floating point.
pub fn isqrt(x: usize) -> usize {
    if x < 2 {
        return x;
    }
    let mut r = (x as f64).sqrt() as usize;
    // Correct any floating-point drift.
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

/// Floor of log₂, `None` for zero.
pub fn ilog2(x: usize) -> Option<u32> {
    (x > 0).then(|| usize::BITS - 1 - x.leading_zeros())
}

/// `log₂(x!)` via the log-gamma function (Stirling is not accurate enough for
/// the small arguments that appear in the counting experiments).
pub fn log2_factorial(x: u64) -> f64 {
    lgamma(x as f64 + 1.0) / std::f64::consts::LN_2
}

/// `log₂ C(n, k)`; `-∞`-free: returns `f64::NEG_INFINITY` when `k > n`.
pub fn log2_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k)
}

/// Natural log-gamma via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for positive arguments — ample for counting bounds measured in bits.
pub fn lgamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - lgamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn fx_hash_distinct_small_keys() {
        let bh: BuildHasherDefault<FxHasher> = Default::default();
        let h1 = bh.hash_one(1u64);
        let h2 = bh.hash_one(2u64);
        assert_ne!(h1, h2);
    }

    #[test]
    fn fx_hash_low_bits_see_high_key_bits() {
        let bh: BuildHasherDefault<FxHasher> = Default::default();
        let low: std::collections::HashSet<u64> =
            (0..4096u64).map(|i| bh.hash_one((i << 32) | 1) & 0xfff).collect();
        assert!(low.len() >= 4000, "only {} distinct low-12-bit hashes", low.len());
    }

    #[test]
    fn fx_hashmap_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&421], 842);
    }

    #[test]
    fn fx_write_bytes_consistent() {
        // Hashing the same bytes through different write paths must at least
        // be deterministic per path.
        let bh: BuildHasherDefault<FxHasher> = Default::default();
        assert_eq!(bh.hash_one([1u8, 2, 3]), bh.hash_one([1u8, 2, 3]));
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(17), 4);
        assert_eq!(isqrt(1 << 40), 1 << 20);
        for x in 0..5000usize {
            let r = isqrt(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "x = {x}");
        }
    }

    #[test]
    fn ilog2_values() {
        assert_eq!(ilog2(0), None);
        assert_eq!(ilog2(1), Some(0));
        assert_eq!(ilog2(2), Some(1));
        assert_eq!(ilog2(3), Some(1));
        assert_eq!(ilog2(1024), Some(10));
    }

    #[test]
    fn lgamma_matches_factorials() {
        for n in 1u64..20 {
            let exact: f64 = (1..=n).map(|i| (i as f64).ln()).sum();
            assert!((lgamma(n as f64 + 1.0) - exact).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn log2_binomial_matches_pascal() {
        // C(10, 3) = 120
        assert!((log2_binomial(10, 3) - (120f64).log2()).abs() < 1e-9);
        // C(52, 5) = 2598960
        assert!((log2_binomial(52, 5) - (2_598_960f64).log2()).abs() < 1e-9);
        assert_eq!(log2_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn seeded_rng_reproducible() {
        use rand::Rng;
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let xa: Vec<u32> = (0..16).map(|_| a.gen()).collect();
        let xb: Vec<u32> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xa, xb);
    }
}
