//! The benchmark's own arithmetic: medians, quartiles, percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method) so the spreads `compare`/`aa` print are the ones
//! the acceptance driver computes.

/// Median of `values` (mean of the middle pair for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)`. With a single sample all three equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The decile of `values` on the fast side: the 10th percentile of
/// times, the 90th of rates (nearest rank).
///
/// Interference in a shared sandbox only ever slows a repetition, and
/// here it comes in phases of seconds that add half again to the time
/// (see README, "Why the fast decile"). The median of a run then says
/// how much of the run a noisy neighbour overlapped; the fast decile
/// says how fast the code is.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "fast decile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better { 0.90 } else { 0.10 };
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sorts `samples` and returns their nearest-rank `(p50, p90)`.
pub fn p50_p90(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 0.50),
        percentile_sorted(samples, 0.90),
    )
}

/// Nearest-rank percentile of an ascending-sorted sample, `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile levels tails are reported at, ascending.
const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest level of [`TAIL_LADDER`] not above `wanted` that still
/// has at least ten samples beyond it among `n` — a percentile with
/// fewer is a handful of outliers, not a tail. Falls back to the
/// median for tiny samples.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        // 100 * (1 - 0.9) is 9.999999999999998 in binary floating point.
        .filter(|&q| q <= wanted && (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .fold(0.50, f64::max)
}

/// Sorts `samples` and returns `(p50, tail)` where the tail is taken at
/// [`supported_tail`]`(n, wanted)`.
pub fn p50_and_tail(samples: &mut [u64], wanted: f64) -> (u64, u64) {
    samples.sort_unstable();
    let q = supported_tail(samples.len(), wanted);
    (
        percentile_sorted(samples, 0.50),
        percentile_sorted(samples, q),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn fast_decile_takes_the_fast_side_of_either_direction() {
        let times: Vec<f64> = (1..=20).map(f64::from).collect();
        // 10th percentile of 20 samples is the 2nd smallest...
        assert_eq!(fast_decile(&times, false), 2.0);
        // ...and the 90th the 18th smallest.
        assert_eq!(fast_decile(&times, true), 18.0);
        assert_eq!(fast_decile(&[7.0], false), 7.0);
        assert_eq!(fast_decile(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(fast_decile(&[3.0, 1.0, 2.0], true), 3.0);
        // A slow phase covering most of a run does not move it.
        let mut noisy = vec![18.0; 16];
        noisy.extend([12.0, 12.1, 11.9, 12.2]);
        assert!(fast_decile(&noisy, false) < 12.2);
    }

    #[test]
    fn p50_p90_are_nearest_rank_on_small_samples() {
        let mut ten: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(p50_p90(&mut ten), (5, 9));
        let mut one = vec![4];
        assert_eq!(p50_p90(&mut one), (4, 4));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[42], 0.9), 42);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(supported_tail(1000, 0.999), 0.99);
        assert_eq!(supported_tail(999, 0.999), 0.95);
        assert_eq!(supported_tail(10_000, 0.999), 0.999);
        // The wanted level caps the choice.
        assert_eq!(supported_tail(1_000_000, 0.90), 0.90);
        // 100 samples support p90 (10 beyond) and nothing higher.
        assert_eq!(supported_tail(100, 0.99), 0.90);
        assert_eq!(supported_tail(99, 0.99), 0.50);
        assert_eq!(supported_tail(3, 0.99), 0.50);
    }

    #[test]
    fn p50_and_tail_sorts_then_picks() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(p50_and_tail(&mut v, 0.99), (500, 990));
        let mut small: Vec<u64> = vec![9, 1, 5];
        assert_eq!(p50_and_tail(&mut small, 0.99), (5, 5));
    }
}
