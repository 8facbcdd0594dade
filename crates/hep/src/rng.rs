//! Seeded sampling helpers.
//!
//! `rand` deliberately ships only uniform primitives in its core crate; the
//! Gaussian and power-law samplers the toy detector needs are implemented
//! here (Box–Muller and inverse-transform respectively) to keep the
//! dependency set to the approved list.

use rand::Rng;

/// Draws one standard-normal variate via Box–Muller.
///
/// Uses the polar-free trigonometric form; one of the pair is discarded for
/// simplicity (generation is not a bottleneck next to histogram analysis).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// Samples from a power-law density `p(x) ∝ x^(-alpha)` on `[lo, hi]`,
/// `alpha > 1` (inverse transform). Used for the DIS Q² spectrum.
pub fn power_law<R: Rng + ?Sized>(rng: &mut R, alpha: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(alpha > 1.0 && lo > 0.0 && hi > lo);
    let u: f64 = rng.gen();
    let one_minus = 1.0 - alpha;
    let lo_pow = lo.powf(one_minus);
    let hi_pow = hi.powf(one_minus);
    (lo_pow + u * (hi_pow - lo_pow)).powf(1.0 / one_minus)
}

/// Samples a small multiplicity from a shifted geometric-like distribution
/// with the given mean, clamped to `[1, max]`.
pub fn multiplicity<R: Rng + ?Sized>(rng: &mut R, mean: f64, max: usize) -> usize {
    // Sum of a few uniforms approximates the bell shape well enough for a
    // toy hadronic final state.
    let raw = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 4.0;
    let n = (raw * mean * 2.0).round() as usize;
    n.clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn power_law_in_bounds_and_falling() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut low = 0usize;
        let mut high = 0usize;
        for _ in 0..10_000 {
            let x = power_law(&mut rng, 2.0, 4.0, 100.0);
            assert!((4.0..=100.0).contains(&x));
            if x < 10.0 {
                low += 1;
            } else if x > 50.0 {
                high += 1;
            }
        }
        assert!(
            low > 10 * high,
            "power law must fall steeply: low={low}, high={high}"
        );
    }

    #[test]
    fn multiplicity_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let n = multiplicity(&mut rng, 12.0, 40);
            assert!((1..=40).contains(&n));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}
