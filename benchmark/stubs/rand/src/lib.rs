//! Offline stand-in for `rand` 0.8, used only by the `benchmark/`
//! workspace: the slice of the API the workload generator calls
//! (`Rng::{gen, gen_range}`, `SeedableRng::seed_from_u64`,
//! `distributions::{Distribution, Standard, WeightedIndex}`).
//!
//! It runs only while a workload's inputs are generated (`setup_s`),
//! never inside a timed section. The streams differ from the published
//! crate's, so traces are comparable between runs of this benchmark and
//! not with numbers produced by a registry build.

use std::ops::Range;

/// Source of random bits.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types `Rng::gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

/// 53 uniform mantissa bits in `[0, 1)`.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let x = range.start + (range.end - range.start) * unit_f64(rng);
        // Rounding can land exactly on the excluded end.
        if x < range.end {
            x
        } else {
            range.start
        }
    }
}

impl SampleUniform for u64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<u64>, rng: &mut R) -> u64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = range.end - range.start;
        // Widening multiply: unbiased enough for spans far below 2^64.
        range.start + ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod distributions {
    use super::{unit_f64, Rng};
    use std::fmt;

    /// A distribution over `T`.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution of a type: all bits for integers,
    /// `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng)
        }
    }

    /// Why a [`WeightedIndex`] could not be built.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WeightedError {
        NoItem,
        InvalidWeight,
        AllWeightsZero,
    }

    impl fmt::Display for WeightedError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                WeightedError::NoItem => "no weights provided",
                WeightedError::InvalidWeight => "a weight is negative or not finite",
                WeightedError::AllWeightsZero => "all weights are zero",
            })
        }
    }

    impl std::error::Error for WeightedError {}

    /// Draws an index with probability proportional to its weight.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WeightedIndex<X> {
        cumulative: Vec<X>,
    }

    impl WeightedIndex<f64> {
        pub fn new<I: IntoIterator<Item = f64>>(weights: I) -> Result<Self, WeightedError> {
            let mut total = 0.0f64;
            let mut cumulative = Vec::new();
            for w in weights {
                if !(w >= 0.0 && w.is_finite()) {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError::NoItem);
            }
            if total <= 0.0 {
                return Err(WeightedError::AllWeightsZero);
            }
            Ok(WeightedIndex { cumulative })
        }
    }

    impl Distribution<usize> for WeightedIndex<f64> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            let total = *self.cumulative.last().expect("non-empty by construction");
            let x = unit_f64(rng) * total;
            // First index whose cumulative weight exceeds x; zero-weight
            // entries (equal neighbours) are never selected.
            self.cumulative
                .partition_point(|&c| c <= x)
                .min(self.cumulative.len() - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64: good enough to exercise the samplers.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn unit_floats_stay_in_range_and_average_one_half() {
        let mut rng = Counter(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Counter(2);
        for _ in 0..10_000 {
            let x = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&x));
            let k = rng.gen_range(3u64..9);
            assert!((3..9).contains(&k));
        }
    }

    #[test]
    fn weighted_index_follows_weights_and_skips_zero() {
        let dist = WeightedIndex::new([1.0, 0.0, 3.0]).unwrap();
        let mut rng = Counter(3);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let share = counts[2] as f64 / 40_000.0;
        assert!((share - 0.75).abs() < 0.01, "share {share}");
        assert!(WeightedIndex::new(Vec::<f64>::new()).is_err());
        assert!(WeightedIndex::new([0.0, 0.0]).is_err());
        assert!(WeightedIndex::new([1.0, -1.0]).is_err());
    }
}
