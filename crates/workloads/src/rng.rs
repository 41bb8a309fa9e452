//! The workspace's one pseudo-random generator: splitmix64, seeded from a
//! `u64`. Every generated dataset, and every seeded property test, is a
//! pure function of its seed *through this stream*, so the stream and
//! the range mapping below are a compatibility contract — the golden
//! test at the bottom pins them, and the stored benchmark datasets
//! change if they do.

use std::ops::Range;

/// splitmix64 (Steele, Lea & Flood): one add and two xor-shift-multiply
/// rounds per draw; passes BigCrush, which is far more than synthetic
/// benchmark files and test-case generation need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator whose stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in the half-open `range`, from exactly one draw. Panics on
    /// an empty range.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }

    /// `true` with probability `p`, from exactly one draw.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// A value covering the whole of `T` (`f64`: the unit interval), from
    /// exactly one draw.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A string of `len` characters (one draw for the length, one per
    /// character), each picked from the ASCII `alphabet`.
    pub fn gen_string(&mut self, alphabet: &[u8], len: Range<usize>) -> String {
        (0..self.gen_range(len))
            .map(|_| char::from(alphabet[self.gen_range(0..alphabet.len())]))
            .collect()
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A type [`Rng::gen_range`] can draw from a half-open range.
pub trait SampleRange: Sized {
    /// One value in `range`.
    fn sample(range: Range<Self>, rng: &mut Rng) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(range: Range<Self>, rng: &mut Rng) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // The modulo bias is below 2^-32 for every span in use.
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (range.start as i128 + off) as $t
            }
        }
    )*};
}
sample_int!(i32, i64, u8, u32, u64, usize);

impl SampleRange for f64 {
    fn sample(range: Range<Self>, rng: &mut Rng) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + (range.end - range.start) * rng.unit_f64()
    }
}

/// A type [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// One value of the type.
    fn standard(rng: &mut Rng) -> Self;
}

impl Standard for u64 {
    fn standard(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn standard(rng: &mut Rng) -> Self {
        rng.unit_f64()
    }
}

impl Standard for bool {
    fn standard(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Run a seeded property: `property` is called once per case with a
/// generator seeded `first_seed`, `first_seed + 1`, … for `cases` cases.
/// When a case panics, the seed that replays it alone —
/// `check_cases(seed, 1, ..)` — is printed before the panic propagates.
pub fn check_cases(first_seed: u64, cases: u64, mut property: impl FnMut(&mut Rng)) {
    struct ReportSeed(u64);
    impl Drop for ReportSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case seed {:#x}", self.0);
            }
        }
    }
    for seed in first_seed..first_seed + cases {
        let _report = ReportSeed(seed);
        property(&mut Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream for seed 2005 (the benchmark's default `--seed`) and
    /// one draw through each mapping, as produced by the generator the
    /// benchmark datasets were first made with. These are not properties,
    /// they are the contract: a change here changes every dataset.
    #[test]
    fn stream_and_range_mapping_are_pinned() {
        let mut rng = Rng::seed_from_u64(2005);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xA0DA_B038_7542_E050,
                0xB5D6_3D57_8F63_4F2F,
                0x2F8F_8019_AE7C_4018,
                0x57BE_4ABD_E1D0_CA81,
                0xC897_B085_4B16_ED28,
                0x24BD_ED56_0A7C_9669,
                0x095D_6D41_F55A_43F6,
                0xEA82_4124_325C_9797,
            ]
        );
        // One draw each, consuming those eight values in order.
        let mut rng = Rng::seed_from_u64(2005);
        assert_eq!(rng.gen_range(10..1_000), 882);
        assert_eq!(rng.gen_range(-5i64..5), -4);
        assert!(rng.gen_bool(0.5));
        assert_eq!(rng.gen::<f64>(), 0.3427473748759581);
        assert_eq!(rng.gen_range(2.0..4.0), 3.567129197201374);
        assert_eq!(rng.gen::<u32>(), 616_426_838);
        assert!(!rng.gen::<bool>());
        assert_eq!(rng.gen::<u64>(), 0xEA82_4124_325C_9797);
    }

    #[test]
    fn draws_stay_inside_their_ranges() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3usize..9)));
            assert!((-7..-2).contains(&rng.gen_range(-7i32..-2)));
            let f = rng.gen_range(-0.5..0.25);
            assert!((-0.5..0.25).contains(&f), "{f}");
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        assert_eq!(rng.gen_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_is_a_caller_bug() {
        Rng::seed_from_u64(0).gen_range(4..4);
    }
}
