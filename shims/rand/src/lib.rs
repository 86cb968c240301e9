//! Offline stand-in for the `rand` crate (see `shims/README.md`).
//!
//! Implements the `rand 0.8` API subset this workspace consumes:
//! `StdRng::seed_from_u64`, `Rng::gen_bool`, `Rng::gen_range` over integer
//! and float ranges, and `Rng::gen` for a few primitives. The generator is
//! splitmix64 — not cryptographic, but statistically fine for workload
//! synthesis and tests, and fully deterministic per seed (which is all the
//! workspace relies on: same seed ⇒ same trace).
//!
//! The stream differs from upstream `StdRng` (ChaCha12), so synthesized
//! workloads are not bit-identical to ones generated with the real crate;
//! every test in this repo asserts *properties* or *self-consistency*, not
//! upstream-exact values.

#![forbid(unsafe_code)]

/// The core of a random number generator: a source of `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A type that can be uniformly sampled from a range by [`Rng::gen_range`].
pub trait SampleUniform: Sized {}

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {}

        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                // A half-open span is below 2^64, so the two's-complement
                // difference is exact in u64 and so is the remainder.
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {}

        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                // 2^53 + 1 equally spaced points including both endpoints.
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                start + unit * (end - start)
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A uniformly random value of a primitive type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types [`Rng::gen`] can produce (the `Standard` distribution).
pub trait Standard {
    /// Draws one value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (splitmix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // splitmix64 (Steele, Lea, Flood 2014): passes BigCrush when
            // used as a stream like this.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&f));
            let i = r.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&i));
        }
    }

    #[test]
    fn gen_range_outputs_are_pinned() {
        // FNV-1a over the little-endian bytes of every sample: the
        // integer sampling arithmetic may change, the values may not.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            eat(&r.gen_range(3u8..200).to_le_bytes());
            eat(&r.gen_range(0u8..=255).to_le_bytes());
            eat(&r.gen_range(1u32..1_000_003).to_le_bytes());
            eat(&r.gen_range(7u32..=9).to_le_bytes());
            eat(&r.gen_range(1u64..49_152).to_le_bytes());
            eat(&r.gen_range(0u64..u64::MAX).to_le_bytes());
            eat(&r.gen_range(0u64..=u64::MAX).to_le_bytes());
            eat(&r.gen_range(5usize..(1 << 40)).to_le_bytes());
            eat(&r.gen_range(-1000i64..1000).to_le_bytes());
            eat(&r.gen_range(i64::MIN..i64::MAX).to_le_bytes());
            eat(&r.gen_range(-3i64..=3).to_le_bytes());
        }
        assert_eq!(h, 0x2fd2_c0d9_68e5_0bec);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.15)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.15).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn float_range_covers_span() {
        let mut r = StdRng::seed_from_u64(3);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..10_000 {
            let v = r.gen_range(0.0f64..1.0);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }
}
