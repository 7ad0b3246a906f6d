//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates.io registry, so this
//! workspace vendors a minimal, dependency-free implementation of exactly
//! the `rand 0.9` API surface the fedval crates use:
//!
//! * [`rngs::StdRng`] + [`SeedableRng::seed_from_u64`] — the only RNG and
//!   the only seeding path in the workspace;
//! * [`Rng::random`] for `f32` / `f64` / `u64`;
//! * [`Rng::random_range`] over half-open and inclusive `usize` / `u64` /
//!   `u32` ranges and half-open float ranges;
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! The generator is xoshiro256++ seeded via splitmix64 — the same
//! construction the real `rand_chacha`-backed `StdRng` documents as an
//! acceptable statistical substitute for non-cryptographic use. Streams are
//! **not** bit-compatible with upstream `rand`; every consumer in this
//! workspace treats the RNG as an opaque seeded stream, so only statistical
//! quality and in-workspace reproducibility matter.
//!
//! To migrate to the real crate: delete the `rand` entry under
//! `[workspace.dependencies]` pointing at this path and let cargo resolve
//! the registry version; no source changes are required.
//!
//! Every generator comes from an explicit seed, so a valuation replays
//! bit for bit. The shim has no nondeterministic constructor; the
//! workspace's `clippy.toml` bans them once the registry crate is in:
//!
//! ```compile_fail,E0425
//! let _rng = rand::thread_rng();
//! ```

/// Core trait: a source of uniformly distributed `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable RNG constructors (subset: `seed_from_u64` only). There is
/// no entropy-seeded constructor:
///
/// ```compile_fail,E0599
/// use rand::SeedableRng;
/// let _rng = rand::rngs::StdRng::from_entropy();
/// ```
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++ — fast, high-quality, 256-bit state. It is built
    /// only from a seed, never from the OS:
    ///
    /// ```compile_fail,E0599
    /// use rand::SeedableRng;
    /// let _rng = rand::rngs::StdRng::from_os_rng();
    /// ```
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed through splitmix64, as recommended by the
            // xoshiro authors (avoids the all-zero state for any seed).
            let mut x = seed;
            StdRng {
                s: [
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Types sampleable uniformly from an RNG (`rand`'s `StandardUniform`).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Lemire's widening-multiply map; the residual bias is
                // ≤ span / 2^64, far below anything the workspace's
                // statistical tests can resolve.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(hi as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start.wrapping_add(hi as $t)
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let unit = <$t as Standard>::sample(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// User-facing RNG extension methods (auto-implemented for every
/// [`RngCore`], mirroring `rand 0.9`).
pub trait Rng: RngCore {
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    /// Slice shuffling (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates, iterating from the back as upstream does.
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn integer_ranges_cover_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let k = rng.random_range(3..10usize);
            assert!((3..10).contains(&k));
            seen[k] = true;
            let j = rng.random_range(0..=4usize);
            assert!(j <= 4);
            seen[j] = true;
        }
        assert!(seen[..5].iter().all(|&s| s) && seen[3..].iter().all(|&s| s));
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = rng.random_range(-0.25..0.25f32);
            assert!((-0.25..0.25).contains(&x));
        }
    }

    #[test]
    fn uniformity_chi_square_ish() {
        // 10 buckets × 100k draws: each bucket within 2% of 10%.
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for c in counts {
            let freq = c as f64 / n as f64;
            assert!((freq - 0.1).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_mixes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn works_through_mut_references() {
        // `&mut R` must itself satisfy Rng (the workspace passes RNGs down
        // call chains by reference).
        fn takes<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.random()
        }
        let mut rng = StdRng::seed_from_u64(6);
        let _ = takes(&mut rng);
        let r2 = &mut rng;
        let _ = takes(r2);
    }
}
