//! Offline stand-in for `rand_chacha`, used only by the `benchmark/`
//! workspace. `ChaCha8Rng` here is xoshiro256** seeded through
//! SplitMix64 (Blackman & Vigna): a real, well-distributed uniform
//! generator, so generated traces keep their catalog shape and level
//! mix — but not the published crate's stream.

use rand::{RngCore, SeedableRng};

/// Stand-in generator; same name as the published type so dependents
/// compile unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        ChaCha8Rng { s }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn bits_are_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ones: u32 = (0..10_000).map(|_| rng.next_u64().count_ones()).sum();
        let share = ones as f64 / (10_000.0 * 64.0);
        assert!((share - 0.5).abs() < 0.005, "share {share}");
    }
}
