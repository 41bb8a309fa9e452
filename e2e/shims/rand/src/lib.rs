//! Stand-in for `rand` 0.8: a seeded generator with `gen_range`,
//! `gen_bool` and `gen`, which is all the workload generators name. The
//! stream differs from the published `StdRng`'s, so generated datasets
//! differ from ones made with the real crate; they are a pure function of
//! the seed all the same.

use std::ops::Range;

pub mod rngs {
    /// splitmix64: small, fast, and passes the usual statistical tests.
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) u64);
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // The modulo bias is below 2^-32 for every span the
                // generators use.
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (range.start as i128 + off) as $t
            }
        }
    )*};
}
sample_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + (range.end - range.start) * unit_f64(rng)
    }
}

impl SampleUniform for f32 {
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        f64::sample(f64::from(range.start)..f64::from(range.end), rng) as f32
    }
}

/// A type `gen` can produce.
pub trait Standard: Sized {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
