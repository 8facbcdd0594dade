//! Four-vectors and deep-inelastic-scattering kinematics.
//!
//! HERA collided 27.6 GeV electrons/positrons with 920 GeV protons — the
//! "data taken at a unique centre of mass energy and/or with unique initial
//! state particles" whose preservation motivates the whole programme (§1).

/// An energy–momentum four-vector in GeV (metric +---).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FourVector {
    /// Energy.
    pub e: f64,
    /// x-momentum.
    pub px: f64,
    /// y-momentum.
    pub py: f64,
    /// z-momentum (positive along the proton beam).
    pub pz: f64,
}

impl FourVector {
    /// Constructs from components.
    pub fn new(e: f64, px: f64, py: f64, pz: f64) -> Self {
        FourVector { e, px, py, pz }
    }

    /// Constructs from energy, polar angle θ, azimuth φ for a massless
    /// particle.
    pub fn from_polar(e: f64, theta: f64, phi: f64) -> Self {
        FourVector {
            e,
            px: e * theta.sin() * phi.cos(),
            py: e * theta.sin() * phi.sin(),
            pz: e * theta.cos(),
        }
    }

    /// Three-momentum magnitude.
    pub fn p(&self) -> f64 {
        (self.px * self.px + self.py * self.py + self.pz * self.pz).sqrt()
    }

    /// Transverse momentum.
    pub fn pt(&self) -> f64 {
        (self.px * self.px + self.py * self.py).sqrt()
    }

    /// Invariant mass squared (may be slightly negative from rounding).
    pub fn m2(&self) -> f64 {
        self.e * self.e - self.p() * self.p()
    }

    /// Invariant mass (clamped at zero).
    pub fn m(&self) -> f64 {
        self.m2().max(0.0).sqrt()
    }

    /// Polar angle θ ∈ [0, π] measured from +z (proton direction).
    pub fn theta(&self) -> f64 {
        let p = self.p();
        if p == 0.0 {
            0.0
        } else {
            (self.pz / p).clamp(-1.0, 1.0).acos()
        }
    }

    /// Azimuthal angle φ ∈ (−π, π].
    pub fn phi(&self) -> f64 {
        self.py.atan2(self.px)
    }

    /// `E − p_z`, the quantity conserved at ≈ 2·E_e for fully contained NC
    /// DIS events (the standard HERA containment check).
    pub fn e_minus_pz(&self) -> f64 {
        self.e - self.pz
    }

    /// Component-wise sum.
    pub fn add(&self, other: &FourVector) -> FourVector {
        FourVector {
            e: self.e + other.e,
            px: self.px + other.px,
            py: self.py + other.py,
            pz: self.pz + other.pz,
        }
    }

    /// Scales all components (energy calibration).
    pub fn scale(&self, factor: f64) -> FourVector {
        FourVector {
            e: self.e * factor,
            px: self.px * factor,
            py: self.py * factor,
            pz: self.pz * factor,
        }
    }
}

impl std::ops::Add for FourVector {
    type Output = FourVector;
    fn add(self, rhs: FourVector) -> FourVector {
        FourVector::add(&self, &rhs)
    }
}

impl std::iter::Sum for FourVector {
    fn sum<I: Iterator<Item = FourVector>>(iter: I) -> FourVector {
        iter.fold(FourVector::default(), |acc, v| acc.add(&v))
    }
}

/// The DIS event variables: Q², Bjorken x, inelasticity y, hadronic mass W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisKinematics {
    /// Negative four-momentum transfer squared (GeV²).
    pub q2: f64,
    /// Bjorken scaling variable.
    pub x: f64,
    /// Inelasticity.
    pub y: f64,
    /// Invariant mass squared of the hadronic final state (GeV²).
    pub w2: f64,
}

impl DisKinematics {
    /// Electron-method reconstruction from the scattered-lepton energy and
    /// polar angle, for beam energies `e_beam` (lepton) and `p_beam`
    /// (proton).
    ///
    /// Q² = 2 E_e E'_e (1 + cos θ), y = 1 − (E'_e / 2E_e)(1 − cos θ),
    /// x = Q² / (s·y), W² = s·y − Q² + m_p² (m_p neglected).
    pub fn electron_method(e_beam: f64, p_beam: f64, e_prime: f64, theta: f64) -> Self {
        let s = 4.0 * e_beam * p_beam;
        let cos_t = theta.cos();
        let q2 = 2.0 * e_beam * e_prime * (1.0 + cos_t);
        let y = 1.0 - (e_prime / (2.0 * e_beam)) * (1.0 - cos_t);
        let x = if y > 0.0 && s > 0.0 {
            (q2 / (s * y)).min(1.0)
        } else {
            1.0
        };
        let w2 = (s * y - q2).max(0.0);
        DisKinematics { q2, x, y, w2 }
    }

    /// Centre-of-mass energy squared for beam energies.
    pub fn s(e_beam: f64, p_beam: f64) -> f64 {
        4.0 * e_beam * p_beam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn massless_vector_has_zero_mass() {
        let v = FourVector::from_polar(27.6, 2.5, 0.3);
        assert!(v.m().abs() < 1e-9);
        assert!((v.p() - 27.6).abs() < 1e-9);
    }

    #[test]
    fn rest_vector() {
        let v = FourVector::new(0.938, 0.0, 0.0, 0.0);
        assert!((v.m() - 0.938).abs() < 1e-12);
        assert_eq!(v.pt(), 0.0);
    }

    #[test]
    fn angles() {
        let forward = FourVector::from_polar(10.0, 0.0, 0.0);
        assert!(forward.theta().abs() < 1e-12);
        let transverse = FourVector::from_polar(10.0, PI / 2.0, 0.0);
        assert!((transverse.theta() - PI / 2.0).abs() < 1e-12);
        assert!((transverse.pt() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn addition_and_sum() {
        let a = FourVector::new(1.0, 0.5, 0.0, 0.5);
        let b = FourVector::new(2.0, -0.5, 0.0, 1.5);
        let c = a + b;
        assert_eq!(c.e, 3.0);
        assert_eq!(c.px, 0.0);
        let s: FourVector = [a, b].into_iter().sum();
        assert_eq!(s.e, 3.0);
    }

    #[test]
    fn hera_cms_energy() {
        let s = DisKinematics::s(27.6, 920.0);
        // √s ≈ 319 GeV at HERA-II.
        assert!((s.sqrt() - 318.7).abs() < 1.0);
    }

    #[test]
    fn electron_method_sane_region() {
        // A typical scattered electron: E' = 25 GeV, θ = 2.7 rad (backward,
        // i.e. close to the lepton beam direction at HERA conventions).
        let k = DisKinematics::electron_method(27.6, 920.0, 25.0, 2.7);
        assert!(k.q2 > 0.0, "Q² positive, got {}", k.q2);
        assert!((0.0..=1.0).contains(&k.y), "y in range, got {}", k.y);
        assert!((0.0..=1.0).contains(&k.x), "x in range, got {}", k.x);
        assert!(k.w2 >= 0.0);
    }

    #[test]
    fn backscatter_limit_is_low_q2() {
        // θ → π means the lepton barely scattered: Q² → 0.
        let k = DisKinematics::electron_method(27.6, 920.0, 27.6, PI - 1e-6);
        assert!(k.q2 < 1e-3);
    }

    #[test]
    fn e_minus_pz_of_beam_electron() {
        // HERA convention: lepton beam travels along −z.
        let beam = FourVector::new(27.6, 0.0, 0.0, -27.6);
        assert!((beam.e_minus_pz() - 55.2).abs() < 1e-9);
    }

    #[test]
    fn scale_changes_energy_linearly() {
        let v = FourVector::from_polar(20.0, 1.0, 0.0).scale(1.02);
        assert!((v.e - 20.4).abs() < 1e-12);
        assert!(v.m().abs() < 1e-6, "scaling preserves masslessness");
    }
}
