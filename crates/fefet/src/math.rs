//! Small numeric utilities shared by the device and circuit substrates.
//!
//! We deliberately avoid pulling `rand_distr` into the dependency set: the
//! only distribution the FeReX models need is the Gaussian, implemented here
//! via the Box–Muller transform, plus a scalar bisection root finder used by
//! the series FeFET-resistor solve.

use rand::Rng;

/// Draws one standard-normal sample (mean 0, variance 1) using the
/// Box–Muller transform: [`box_muller`] of the two words
/// [`uniform_pair`] draws.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = ferex_fefet::math::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// Draws the two uniforms one Box–Muller sample consumes, one generator
/// word each: `u1` from `(0, 1]` (so `ln u1` is finite; the generator's
/// 53-bit grid makes its least value `2⁻⁵³`), then `u2` from `[0, 1)`.
pub fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The Box–Muller transform of one [`uniform_pair`]: a standard-normal
/// sample. `|box_muller(u1, u2)| ≤ BOX_MULLER_BOUND` for every pair
/// [`uniform_pair`] can return.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A bound on `|box_muller(u1, u2)|` over every pair [`uniform_pair`] can
/// return. The radius `√(−2 ln u1)` is largest at the least `u1`, `2⁻⁵³`:
/// `√(106 ln 2) = 8.571674…`, and `|cos| ≤ 1`. The constant rounds that
/// up, so a last-place error in `ln`, `sqrt` or the product cannot reach
/// it. A sample never moves a value by more than `σ · BOX_MULLER_BOUND`,
/// which is what lets the LTA skip the transform for rows that cannot
/// lose (DESIGN §12).
pub const BOX_MULLER_BOUND: f64 = 8.5717;

/// Draws a normal sample with the given `mean` and standard deviation
/// `sigma`.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "standard deviation must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// One round of the SplitMix64 finalizing mix (Steele, Lea & Flood,
/// OOPSLA 2014): a bijective avalanche permutation of 64 bits.
///
/// Used to derive decorrelated seed streams (per array tile, per search
/// query) from a base seed. Unlike additive or multiplicative perturbation
/// (`seed + t`, `seed * C`), nearby inputs map to statistically independent
/// outputs: flipping any input bit flips each output bit with probability
/// ≈ 1/2, so adjacent base seeds cannot produce overlapping derived
/// streams.
///
/// # Examples
///
/// ```
/// let a = ferex_fefet::math::splitmix64(1);
/// let b = ferex_fefet::math::splitmix64(2);
/// assert_ne!(a, b);
/// assert!((a ^ b).count_ones() > 16); // avalanche, not a small perturbation
/// ```
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Finds a root of a monotone function `f` on `[lo, hi]` by bisection.
///
/// Returns the abscissa where `f` crosses zero, to within `tol`. The caller
/// must ensure `f(lo)` and `f(hi)` bracket a root; if they have the same
/// sign, the endpoint with the smaller `|f|` is returned (this happens in
/// device solves when the current saturates at one end of the interval, and
/// returning the clamp endpoint is the physically correct answer).
///
/// # Panics
///
/// Panics if `lo > hi` or `tol <= 0`.
pub fn bisect<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, tol: f64) -> f64 {
    assert!(lo <= hi, "invalid bracket: lo > hi");
    assert!(tol > 0.0, "tolerance must be positive");
    let mut a = lo;
    let mut b = hi;
    let fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return a;
    }
    if fb == 0.0 {
        return b;
    }
    if fa.signum() == fb.signum() {
        return if fa.abs() <= fb.abs() { a } else { b };
    }
    let mut fa = fa;
    while b - a > tol {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if fm == 0.0 {
            return mid;
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    0.5 * (a + b)
}

/// Population mean and standard deviation of a slice.
///
/// Returns `(0.0, 0.0)` for an empty slice.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Linearly spaced grid of `n` points from `start` to `end` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace requires at least one point");
    if n == 1 {
        return vec![start];
    }
    let step = (end - start) / (n - 1) as f64;
    (0..n).map(|i| start + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_matches_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..200_000).map(|_| normal(&mut rng, 1.5, 0.3)).collect();
        let (mean, std) = mean_std(&samples);
        assert!((mean - 1.5).abs() < 0.01, "mean {mean}");
        assert!((std - 0.3).abs() < 0.01, "std {std}");
    }

    #[test]
    fn normal_zero_sigma_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(normal(&mut rng, 2.0, 0.0), 2.0);
        }
    }

    #[test]
    fn box_muller_bound_covers_the_extreme_uniforms() {
        let least = 1.0 / (1u64 << 53) as f64;
        // The least `u1` the generator can produce: the all-ones word.
        let mut rng = AllOnes;
        assert_eq!(uniform_pair(&mut rng), (least, 1.0 - least));
        let top = box_muller(least, 0.0);
        let bottom = box_muller(least, 0.5);
        assert!(top > 0.0 && bottom < 0.0, "{top} {bottom}");
        assert!(top <= BOX_MULLER_BOUND && -bottom <= BOX_MULLER_BOUND, "{top} {bottom}");
        // Tight: the bound sits within 1e-4 of the largest sample.
        assert!(BOX_MULLER_BOUND - top < 1e-4, "{top}");
    }

    /// A generator stuck on the all-ones word.
    struct AllOnes;

    impl rand::RngCore for AllOnes {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_sigma() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = normal(&mut rng, 0.0, -1.0);
    }

    #[test]
    fn splitmix64_is_injective_on_small_inputs() {
        let outputs: Vec<u64> = (0..4096u64).map(splitmix64).collect();
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outputs.len(), "collision on sequential inputs");
    }

    #[test]
    fn splitmix64_avalanches_adjacent_inputs() {
        for x in [0u64, 1, 42, u64::MAX - 1] {
            let diff = splitmix64(x) ^ splitmix64(x + 1);
            let flipped = diff.count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "input {x}: only {flipped} output bits differ from input+1"
            );
        }
    }

    #[test]
    fn bisect_finds_sqrt_two() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12);
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_decreasing_function() {
        let root = bisect(|x| 1.0 - x, 0.0, 5.0, 1e-12);
        assert!((root - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bisect_returns_clamp_endpoint_without_bracket() {
        // f > 0 everywhere on the interval; the lower endpoint is closer to 0.
        let root = bisect(|x| x + 1.0, 0.0, 1.0, 1e-9);
        assert_eq!(root, 0.0);
    }

    #[test]
    fn mean_std_of_constant_slice() {
        let (m, s) = mean_std(&[3.0, 3.0, 3.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn mean_std_empty() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
    }
}
