//! # sp-hep — a toy but complete HEP software chain
//!
//! The H1 validation tests "form discrete parts in one of several full
//! analysis chains: from MC generation and simulation, through multi-level
//! file production and ending with a full physics analysis and subsequent
//! validation of the results" (§3.2). This crate provides every stage of
//! such a chain as a deterministic, seeded simulation:
//!
//! * [`kinematics`] — four-vectors and deep-inelastic-scattering variables.
//! * [`rng`] — seeded random sampling helpers (Box–Muller normals).
//! * [`mcgen`] — the Monte Carlo event generator (HERA-like NC/CC DIS).
//! * [`detsim`] — detector simulation: calorimeter smearing with versioned
//!   constants and an *environment-deviation* hook, through which the
//!   compatibility layer injects the numeric shifts of latent platform bugs.
//! * [`reco`] — event reconstruction (electron-method kinematics).
//! * [`dst`] — the binary DST event format and the slimmed µDST
//!   ("multi-level file production").
//! * [`analysis`] — the physics analysis: selection cuts and histogram
//!   filling.
//! * [`hist`] — 1-D histograms with χ² and Kolmogorov–Smirnov comparison.
//! * [`stats`] — special functions backing the statistical tests.
//!
//! [`stream_chain`] is the one chain loop: it runs each event through
//! every stage before making the next, in two reused event buffers, and
//! streams the stage files into their [`DstWriter`]s as it goes, so a chain keeps no per-stage event
//! vector and makes no per-event allocation. [`run_chain`] is the same
//! loop through the analysis, writing no files.
//!
//! Everything is reproducible: the same seed and configuration produce
//! bit-identical events, files and histograms on every run, which is the
//! property the sp-system's run-to-run comparisons rely on.
//!
//! ## Example
//!
//! ```
//! use sp_hep::{run_chain, GeneratorConfig};
//!
//! let config = GeneratorConfig::hera_nc();
//! let a = run_chain(&config, 200, 42, 0.0);
//! let b = run_chain(&config, 200, 42, 0.0);
//! // Same seed and configuration: bit-identical results.
//! assert_eq!(a.selected, b.selected);
//! assert!(a.selected <= a.total);
//! ```

pub mod analysis;
pub mod detsim;
pub mod dst;
pub mod hist;
pub mod hist_io;
pub mod kinematics;
pub mod mcgen;
pub mod reco;
pub mod rng;
pub mod stats;

pub use analysis::{Analysis, AnalysisResult, SelectionCuts};
pub use detsim::{DetectorSim, SmearingConstants};
pub use dst::{read_dst, read_micro_dst, write_dst, write_micro_dst, DstWriter, MicroEvent};
pub use hist::{Chi2Result, Histogram1D, HistogramSet, KsResult};
pub use hist_io::{decode_set, encode_set};
pub use kinematics::{DisKinematics, FourVector};
pub use mcgen::{Event, EventGenerator, GeneratorConfig, Particle, Process};
pub use reco::{reconstruct, RecoEvent};

/// The data stages of the chain, in pipeline order. Each consumes the
/// output of the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// MC generation; writes `gen.dst`.
    Generate,
    /// Detector simulation.
    Simulate,
    /// DST production; writes `events.dst`.
    Dst,
    /// Reconstruction into the µDST; writes `events.microdst`.
    MicroDst,
    /// The physics analysis; fills the histograms.
    Analysis,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Generate,
        Stage::Simulate,
        Stage::Dst,
        Stage::MicroDst,
        Stage::Analysis,
    ];

    /// The stage's name in a chain definition (`mcgen`, `sim`, …).
    pub fn name(self) -> &'static str {
        ["mcgen", "sim", "dst", "microdst", "analysis"][self as usize]
    }

    /// The stage a chain definition names `name`, if it is a data stage.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| stage.name() == name)
    }

    /// The stage whose output this one consumes.
    pub fn upstream(self) -> Option<Stage> {
        (self as usize).checked_sub(1).map(|i| Stage::ALL[i])
    }
}

/// What one chain pass produced: the files of the stages it ran, when
/// asked to write them, and the analysis result when it ran the analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChainOutput {
    /// The generated events (`gen.dst`).
    pub gen_dst: Option<Vec<u8>>,
    /// The simulated events (`events.dst`).
    pub events_dst: Option<Vec<u8>>,
    /// The reconstructed records (`events.microdst`).
    pub micro_dst: Option<Vec<u8>>,
    /// The analysis result.
    pub analysis: Option<AnalysisResult>,
}

/// Runs the chain with `events` events and the given seed through stage
/// `last`, applying an optional environment-induced deviation (σ units)
/// in the detector simulation, and with `write_files` streams each
/// stage's DST into its writer as it goes.
///
/// This is the one chain loop: each event is generated, simulated,
/// reconstructed and analysed before the next, in two reused event
/// buffers, so the pass keeps no per-stage event vector and makes no
/// per-event allocation (the writers' buffers grow by doubling).
pub fn stream_chain(
    config: &GeneratorConfig,
    events: usize,
    seed: u64,
    deviation_sigma: f64,
    last: Stage,
    write_files: bool,
) -> ChainOutput {
    let writes = |stage: Stage| write_files && stage <= last;
    let mut gen_dst = writes(Stage::Generate).then(DstWriter::default);
    let mut events_dst = writes(Stage::Dst).then(DstWriter::default);
    let mut micro_dst = writes(Stage::MicroDst).then(DstWriter::default);
    let mut analysis = (last >= Stage::Analysis).then(|| Analysis::new(SelectionCuts::default()));

    let mut generator = EventGenerator::new(config.clone(), seed);
    let sim = DetectorSim::new(SmearingConstants::V2_SL5).with_deviation(deviation_sigma);
    let mut generated = Event::default();
    let mut simulated = Event::default();
    for _ in 0..events {
        generator.generate_into(&mut generated);
        if let Some(writer) = &mut gen_dst {
            writer.push(&generated);
        }
        if last < Stage::Simulate {
            continue;
        }
        sim.simulate_into(&generated, seed ^ generated.id, &mut simulated);
        if let Some(writer) = &mut events_dst {
            writer.push(&simulated);
        }
        if last < Stage::MicroDst {
            continue;
        }
        let reco = reconstruct(&simulated, config);
        if let Some(writer) = &mut micro_dst {
            if let Some(record) = MicroEvent::from_reco(&reco) {
                writer.push(&record);
            }
        }
        if let Some(analysis) = &mut analysis {
            analysis.process(&reco);
        }
    }
    ChainOutput {
        gen_dst: gen_dst.map(DstWriter::finish),
        events_dst: events_dst.map(DstWriter::finish),
        micro_dst: micro_dst.map(DstWriter::finish),
        analysis: analysis.map(Analysis::finish),
    }
}

/// Runs the complete chain (generate → simulate → reconstruct → analyse)
/// with `events` events and the given seed, applying an optional
/// environment-induced deviation (σ units) in the detector simulation:
/// [`stream_chain`] through the analysis, writing no files.
pub fn run_chain(
    config: &GeneratorConfig,
    events: usize,
    seed: u64,
    deviation_sigma: f64,
) -> AnalysisResult {
    stream_chain(
        config,
        events,
        seed,
        deviation_sigma,
        Stage::Analysis,
        false,
    )
    .analysis
    .expect("the pass ran the analysis")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_reproducible() {
        let config = GeneratorConfig::hera_nc();
        let a = run_chain(&config, 500, 42, 0.0);
        let b = run_chain(&config, 500, 42, 0.0);
        assert_eq!(a.selected, b.selected);
        let ha = a.histograms.get("q2").unwrap();
        let hb = b.histograms.get("q2").unwrap();
        assert_eq!(ha.counts(), hb.counts());
    }

    /// The chain's stages run one after another over collected events:
    /// the data flow the streamed pass must reproduce byte for byte.
    fn collected(events: usize, seed: u64, deviation: f64) -> ChainOutput {
        let config = GeneratorConfig::hera_nc();
        let generated: Vec<Event> = EventGenerator::new(config.clone(), seed)
            .take(events)
            .collect();
        let sim = DetectorSim::new(SmearingConstants::V2_SL5).with_deviation(deviation);
        let simulated: Vec<Event> = generated
            .iter()
            .map(|ev| sim.simulate(ev, seed ^ ev.id))
            .collect();
        let reco: Vec<RecoEvent> = simulated
            .iter()
            .map(|ev| reconstruct(ev, &config))
            .collect();
        let micro: Vec<MicroEvent> = reco.iter().filter_map(MicroEvent::from_reco).collect();
        let mut analysis = Analysis::new(SelectionCuts::default());
        for event in &reco {
            analysis.process(event);
        }
        ChainOutput {
            gen_dst: Some(write_dst(&generated)),
            events_dst: Some(write_dst(&simulated)),
            micro_dst: Some(write_micro_dst(&micro)),
            analysis: Some(analysis.finish()),
        }
    }

    #[test]
    fn streamed_files_equal_the_collected_writers() {
        let config = GeneratorConfig::hera_nc();
        for (events, seed, deviation) in [(0, 1, 0.0), (1, 2, 0.0), (400, 42, 0.0), (300, 7, 3.0)] {
            let streamed = stream_chain(&config, events, seed, deviation, Stage::Analysis, true);
            assert_eq!(
                streamed,
                collected(events, seed, deviation),
                "{events} events"
            );
            if events >= 300 {
                let micro = read_micro_dst(streamed.micro_dst.as_deref().unwrap()).unwrap();
                assert!(micro.len() < events, "reconstruction drops events");
            }
        }
    }

    #[test]
    fn a_pass_stops_at_its_last_stage() {
        let config = GeneratorConfig::hera_nc();
        let full = stream_chain(&config, 50, 9, 0.0, Stage::Analysis, true);
        let to_dst = stream_chain(&config, 50, 9, 0.0, Stage::Dst, true);
        assert_eq!(to_dst.gen_dst, full.gen_dst);
        assert_eq!(to_dst.events_dst, full.events_dst);
        assert_eq!((to_dst.micro_dst, to_dst.analysis), (None, None));
        let generate_only = stream_chain(&config, 50, 9, 0.0, Stage::Generate, true);
        assert_eq!(generate_only.gen_dst, full.gen_dst);
        assert_eq!(generate_only.events_dst, None);
        let unwritten = stream_chain(&config, 50, 9, 0.0, Stage::Analysis, false);
        assert_eq!(
            unwritten,
            ChainOutput {
                analysis: full.analysis,
                ..ChainOutput::default()
            }
        );
    }

    #[test]
    fn stage_upstreams_follow_the_pipeline() {
        assert_eq!(Stage::Generate.upstream(), None);
        assert_eq!(Stage::Simulate.upstream(), Some(Stage::Generate));
        assert_eq!(Stage::Analysis.upstream(), Some(Stage::MicroDst));
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("validation"), None);
    }

    #[test]
    fn different_seeds_differ() {
        let config = GeneratorConfig::hera_nc();
        let a = run_chain(&config, 500, 42, 0.0);
        let b = run_chain(&config, 500, 43, 0.0);
        assert_ne!(
            a.histograms.get("q2").unwrap().counts(),
            b.histograms.get("q2").unwrap().counts()
        );
    }

    #[test]
    fn deviation_is_statistically_detectable() {
        // This is the exact mechanism by which the sp-system catches latent
        // platform bugs: same seed, same code, different environment ⇒ the
        // validation histograms disagree far beyond statistics.
        let config = GeneratorConfig::hera_nc();
        let nominal = run_chain(&config, 3000, 7, 0.0);
        let again = run_chain(&config, 3000, 7, 0.0);
        let deviated = run_chain(&config, 3000, 7, 5.0);

        let p_same = nominal.histograms.worst_chi2_p(&again.histograms).unwrap();
        assert_eq!(p_same, 1.0, "identical runs must be bit-identical");

        let p_dev = nominal
            .histograms
            .worst_chi2_p(&deviated.histograms)
            .unwrap();
        assert!(
            p_dev < 1e-3,
            "a 5σ energy-scale deviation must fail validation, p={p_dev}"
        );
    }
}
