//! The Monte Carlo event generator.
//!
//! Generates HERA-like neutral-current and charged-current DIS events plus
//! photoproduction background. The physics is deliberately simple — a
//! falling Q² spectrum, uniform inelasticity, a toy hadronic final state —
//! but every generated quantity is kinematically consistent, so downstream
//! stages (simulation, reconstruction, analysis) exercise realistic code
//! paths and the validation comparisons have genuine distributions to test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kinematics::{DisKinematics, FourVector};
use crate::rng::{multiplicity, power_law};

/// Physics process of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Process {
    /// Neutral-current DIS (scattered lepton in the detector).
    NeutralCurrent,
    /// Charged-current DIS (neutrino escapes; missing pT).
    ChargedCurrent,
    /// Photoproduction background (no high-Q² lepton).
    Photoproduction,
}

impl Process {
    /// Compact code used in DST records.
    pub fn code(self) -> u8 {
        match self {
            Process::NeutralCurrent => 1,
            Process::ChargedCurrent => 2,
            Process::Photoproduction => 3,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Process::NeutralCurrent),
            2 => Some(Process::ChargedCurrent),
            3 => Some(Process::Photoproduction),
            _ => None,
        }
    }

    /// Name used in histogram labels and reports.
    pub fn label(self) -> &'static str {
        match self {
            Process::NeutralCurrent => "nc-dis",
            Process::ChargedCurrent => "cc-dis",
            Process::Photoproduction => "photoproduction",
        }
    }
}

/// A generated particle.
#[derive(Debug, Clone, PartialEq)]
pub struct Particle {
    /// PDG id (11 = e⁻, −11 = e⁺, 211 = π⁺, 22 = γ, 12 = ν, 2112-ish for
    /// the toy hadron soup).
    pub pdg_id: i32,
    /// Four-momentum.
    pub p4: FourVector,
    /// Electric charge in units of e.
    pub charge: i8,
    /// Status: 1 = final state, 2 = intermediate.
    pub status: u8,
}

impl Particle {
    /// Final-state particle helper.
    pub fn final_state(pdg_id: i32, p4: FourVector, charge: i8) -> Self {
        Particle {
            pdg_id,
            p4,
            charge,
            status: 1,
        }
    }
}

/// A generated event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Sequential event id (unique within a generation run).
    pub id: u64,
    /// Physics process.
    pub process: Process,
    /// Generator-level (true) kinematics.
    pub truth: DisKinematics,
    /// Final-state particles.
    pub particles: Vec<Particle>,
    /// Event weight (1 for unweighted toy generation).
    pub weight: f64,
}

impl Default for Event {
    /// An empty neutral-current event: a buffer for
    /// [`EventGenerator::generate_into`] to fill.
    fn default() -> Self {
        Event {
            id: 0,
            process: Process::NeutralCurrent,
            truth: DisKinematics {
                q2: 0.0,
                x: 0.0,
                y: 0.0,
                w2: 0.0,
            },
            particles: Vec::new(),
            weight: 1.0,
        }
    }
}

impl Event {
    /// Sum four-vector of all final-state particles.
    pub fn visible_sum(&self) -> FourVector {
        self.particles
            .iter()
            .filter(|p| p.status == 1 && p.pdg_id != 12)
            .map(|p| p.p4)
            .sum()
    }

    /// The scattered lepton, if present in the final state.
    pub fn scattered_lepton(&self) -> Option<&Particle> {
        self.particles
            .iter()
            .filter(|p| p.status == 1 && p.pdg_id.abs() == 11)
            .max_by(|a, b| a.p4.e.total_cmp(&b.p4.e))
    }
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Lepton beam energy (GeV).
    pub e_beam: f64,
    /// Proton beam energy (GeV).
    pub p_beam: f64,
    /// Process to generate.
    pub process: Process,
    /// Minimum generated Q² (GeV²) for DIS processes.
    pub q2_min: f64,
    /// Maximum generated Q² (GeV²).
    pub q2_max: f64,
    /// Mean charged multiplicity of the hadronic final state.
    pub mean_multiplicity: f64,
}

impl GeneratorConfig {
    /// HERA-II neutral-current DIS defaults.
    pub fn hera_nc() -> Self {
        GeneratorConfig {
            e_beam: 27.6,
            p_beam: 920.0,
            process: Process::NeutralCurrent,
            q2_min: 4.0,
            q2_max: 10_000.0,
            mean_multiplicity: 12.0,
        }
    }

    /// HERA-II charged-current DIS defaults.
    pub fn hera_cc() -> Self {
        GeneratorConfig {
            process: Process::ChargedCurrent,
            q2_min: 100.0,
            ..Self::hera_nc()
        }
    }

    /// Photoproduction background defaults.
    pub fn hera_php() -> Self {
        GeneratorConfig {
            process: Process::Photoproduction,
            q2_min: 0.01,
            q2_max: 1.0,
            mean_multiplicity: 8.0,
            ..Self::hera_nc()
        }
    }
}

/// The seeded event generator; an [`Iterator`] over [`Event`]s.
pub struct EventGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    next_id: u64,
    /// Reusable jet-fragmentation buffer so the steady-state hot path
    /// ([`generate_into`](Self::generate_into)) performs no allocation.
    fractions: Vec<f64>,
}

impl EventGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        EventGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            fractions: Vec::new(),
        }
    }

    /// Generates one event into a fresh allocation.
    fn generate(&mut self) -> Event {
        let mut event = Event::default();
        self.generate_into(&mut event);
        event
    }

    /// Generates the next event **in place**, reusing `out`'s particle
    /// buffer. Draws exactly the same random sequence as the allocating
    /// iterator path, so `generate_into` and `generate` produce
    /// bit-identical event streams from the same seed.
    pub fn generate_into(&mut self, out: &mut Event) {
        let id = self.next_id;
        self.next_id += 1;
        let cfg = &self.config;
        let s = DisKinematics::s(cfg.e_beam, cfg.p_beam);

        // Sample Q² from a falling power law and y uniformly in a fiducial
        // range; derive x. Resample y until x ≤ 1 (kinematic boundary).
        let q2 = power_law(&mut self.rng, 1.8, cfg.q2_min, cfg.q2_max);
        let mut y: f64 = self.rng.gen_range(0.02..0.95);
        let mut x = q2 / (s * y);
        while x > 1.0 {
            y = self.rng.gen_range(0.02..0.95);
            x = q2 / (s * y);
        }
        let w2 = (s * y - q2).max(0.0);
        let truth = DisKinematics { q2, x, y, w2 };

        out.particles.clear();
        let particles = &mut out.particles;

        // Scattered lepton (NC) or neutrino (CC); photoproduction has a
        // quasi-real photon and no high-energy lepton in the detector. The
        // hadronic current jet balances the lepton's transverse momentum.
        let phi_lepton = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let lepton_pt;
        match cfg.process {
            Process::NeutralCurrent => {
                let (e_prime, theta) = scattered_lepton_kinematics(cfg.e_beam, q2, y);
                let p4 = FourVector::from_polar(e_prime, theta, phi_lepton);
                lepton_pt = p4.pt();
                particles.push(Particle::final_state(11, p4, -1));
            }
            Process::ChargedCurrent => {
                let (e_nu, theta) = scattered_lepton_kinematics(cfg.e_beam, q2, y);
                let p4 = FourVector::from_polar(e_nu, theta, phi_lepton);
                lepton_pt = p4.pt();
                particles.push(Particle::final_state(12, p4, 0));
            }
            Process::Photoproduction => {
                // The scattered electron escapes down the beam pipe; the
                // hadronic system carries only soft intrinsic pT.
                lepton_pt = self.rng.gen_range(0.3..2.5);
            }
        }

        // Current jet: back-to-back in azimuth with the lepton, transverse
        // momentum balancing it, energy set by the inelasticity.
        let phi_jet = phi_lepton + std::f64::consts::PI;
        let jet_energy = (y * cfg.p_beam).max(3.0);
        let jet_pt = lepton_pt.min(0.95 * jet_energy);
        let jet_pz = (jet_energy * jet_energy - jet_pt * jet_pt).max(0.0).sqrt();
        let jet = FourVector::new(
            jet_energy,
            jet_pt * phi_jet.cos(),
            jet_pt * phi_jet.sin(),
            jet_pz,
        );

        // Fragment the jet into `n` pions: momentum fractions normalised to
        // one, each fragment smeared around the jet axis so the sum stays
        // close to (but not exactly at) the jet four-vector.
        let n = multiplicity(&mut self.rng, cfg.mean_multiplicity, 60);
        self.fractions.clear();
        self.fractions
            .extend((0..n).map(|_| self.rng.gen_range(0.2..1.2)));
        let total: f64 = self.fractions.iter().sum();
        for f in &mut self.fractions {
            *f /= total;
        }
        let jet_theta = jet.theta();
        for (i, frac) in self.fractions.iter().enumerate() {
            let e = (jet.e * frac).max(0.05);
            let dtheta = self.rng.gen_range(-0.25..0.25);
            let dphi = self.rng.gen_range(-0.35..0.35);
            let pdg = if i % 3 == 0 { 111 } else { 211 };
            let charge = if pdg == 211 {
                if i % 2 == 0 {
                    1
                } else {
                    -1
                }
            } else {
                0
            };
            particles.push(Particle::final_state(
                pdg,
                FourVector::from_polar(e, (jet_theta + dtheta).clamp(0.02, 3.1), phi_jet + dphi),
                charge,
            ));
        }

        out.id = id;
        out.process = cfg.process;
        out.truth = truth;
        out.weight = 1.0;
    }
}

impl Iterator for EventGenerator {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        Some(self.generate())
    }
}

/// Electron-method inversion: given (E_e, Q², y) return (E', θ).
///
/// From Q² = 2 E_e E′ (1 + cos θ) and y = 1 − (E′/2E_e)(1 − cos θ):
/// E′(1+cosθ) = Q²/(2E_e) and E′(1−cosθ) = 2E_e(1−y) ⇒
/// E′ = E_e(1−y) + Q²/(4E_e), cosθ = (Q²/(2 E_e E′)) − 1.
fn scattered_lepton_kinematics(e_beam: f64, q2: f64, y: f64) -> (f64, f64) {
    let e_prime = e_beam * (1.0 - y) + q2 / (4.0 * e_beam);
    let cos_theta = (q2 / (2.0 * e_beam * e_prime) - 1.0).clamp(-1.0, 1.0);
    (e_prime, cos_theta.acos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<Event> = EventGenerator::new(GeneratorConfig::hera_nc(), 5)
            .take(20)
            .collect();
        let b: Vec<Event> = EventGenerator::new(GeneratorConfig::hera_nc(), 5)
            .take(20)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_into_matches_iterator_path() {
        let allocated: Vec<Event> = EventGenerator::new(GeneratorConfig::hera_nc(), 11)
            .take(30)
            .collect();
        let mut generator = EventGenerator::new(GeneratorConfig::hera_nc(), 11);
        let mut scratch = allocated[0].clone(); // arbitrary pre-dirtied buffer
        for expected in &allocated {
            generator.generate_into(&mut scratch);
            assert_eq!(&scratch, expected, "in-place path must be bit-identical");
        }
    }

    #[test]
    fn event_ids_are_sequential() {
        let events: Vec<Event> = EventGenerator::new(GeneratorConfig::hera_nc(), 1)
            .take(5)
            .collect();
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nc_events_have_scattered_electron() {
        for event in EventGenerator::new(GeneratorConfig::hera_nc(), 2).take(50) {
            let lepton = event.scattered_lepton().expect("NC keeps the electron");
            assert_eq!(lepton.pdg_id, 11);
            assert!(lepton.p4.e > 0.0);
        }
    }

    #[test]
    fn cc_events_have_no_visible_lepton() {
        for event in EventGenerator::new(GeneratorConfig::hera_cc(), 2).take(50) {
            assert!(event.scattered_lepton().is_none());
            assert!(event.particles.iter().any(|p| p.pdg_id == 12));
        }
    }

    #[test]
    fn photoproduction_has_no_lepton_at_all() {
        for event in EventGenerator::new(GeneratorConfig::hera_php(), 2).take(50) {
            assert!(event.scattered_lepton().is_none());
            assert!(!event.particles.iter().any(|p| p.pdg_id == 12));
        }
    }

    #[test]
    fn truth_kinematics_within_bounds() {
        let cfg = GeneratorConfig::hera_nc();
        for event in EventGenerator::new(cfg.clone(), 3).take(200) {
            assert!(event.truth.q2 >= cfg.q2_min && event.truth.q2 <= cfg.q2_max);
            assert!(event.truth.x > 0.0 && event.truth.x <= 1.0);
            assert!(event.truth.y > 0.0 && event.truth.y < 1.0);
        }
    }

    #[test]
    fn lepton_kinematics_inversion_consistent() {
        // Round-trip: (Q², y) -> (E', θ) -> electron method -> (Q², y).
        let (e_beam, p_beam) = (27.6, 920.0);
        for (q2, y) in [(10.0, 0.2), (100.0, 0.5), (1000.0, 0.7)] {
            let (e_prime, theta) = scattered_lepton_kinematics(e_beam, q2, y);
            let rec = DisKinematics::electron_method(e_beam, p_beam, e_prime, theta);
            assert!((rec.q2 - q2).abs() / q2 < 1e-9, "Q² {} vs {q2}", rec.q2);
            assert!((rec.y - y).abs() < 1e-9, "y {} vs {y}", rec.y);
        }
    }

    #[test]
    fn process_codes_round_trip() {
        for p in [
            Process::NeutralCurrent,
            Process::ChargedCurrent,
            Process::Photoproduction,
        ] {
            assert_eq!(Process::from_code(p.code()), Some(p));
        }
        assert_eq!(Process::from_code(0), None);
    }

    #[test]
    fn hadrons_are_present_and_energetic() {
        for event in EventGenerator::new(GeneratorConfig::hera_nc(), 4).take(50) {
            let hadrons: Vec<&Particle> = event
                .particles
                .iter()
                .filter(|p| p.pdg_id == 211 || p.pdg_id == 111)
                .collect();
            assert!(!hadrons.is_empty());
            assert!(hadrons.iter().all(|h| h.p4.e > 0.0));
        }
    }
}
