//! Inner-layer probes. The campaign workloads only call the scheduler and
//! the fleet; the layers beneath (the `sp_hep` chain kernels, `sp_build`
//! stack builds, comparison, SHA-256) are reached here by replaying the
//! workload's own inputs — its chain tests' event counts and seeds, its
//! experiment stacks and images — through those layers' public functions.
//! Per-call costs are measured; totals are per-call cost × the count the
//! run performed, and are reported as estimates.

use std::time::Instant;

use sp_core::{Comparator, SpSystem, TestKind, TestOutput};
use sp_env::VmImageId;
use sp_hep::{
    reconstruct, write_dst, write_micro_dst, DetectorSim, Event, EventGenerator, GeneratorConfig,
    MicroEvent, SmearingConstants,
};

use crate::util::{median, Metrics};

/// Event count a chain test runs at `scale` (the system's own rounding).
fn scaled_events(events: usize, scale: f64) -> usize {
    ((events as f64 * scale).round() as usize).max(10)
}

/// Per-call costs of the inner layers for one workload's inputs.
#[derive(Debug, Default, Clone)]
pub struct ProbeCosts {
    /// Chain tests probed and the events they ran.
    pub chains: usize,
    pub events: usize,
    pub mcgen_ms: f64,
    pub detsim_ms: f64,
    pub reco_ms: f64,
    pub dst_ms: f64,
    pub analysis_ms: f64,
    /// Builds probed and their total time.
    pub builds: usize,
    pub build_ms: f64,
    pub compare_deep_us: f64,
    pub compare_digest_first_us: f64,
    pub sha256_mb_per_s: f64,
}

impl ProbeCosts {
    pub fn chain_ms_per_chain(&self) -> f64 {
        (self.mcgen_ms + self.detsim_ms + self.reco_ms + self.dst_ms + self.analysis_ms)
            / self.chains.max(1) as f64
    }

    pub fn events_per_chain(&self) -> f64 {
        self.events as f64 / self.chains.max(1) as f64
    }

    pub fn build_ms_per_build(&self) -> f64 {
        self.build_ms / self.builds.max(1) as f64
    }

    fn ns_per_event(&self, ms: f64) -> f64 {
        ms * 1e6 / self.events.max(1) as f64
    }

    /// The `hep.*`, `build.*`, `core.compare_*` and `store.sha256_*`
    /// metrics, with totals scaled to `chains_run` chain executions and
    /// `builds_run` stack builds.
    pub fn record(&self, metrics: &mut Metrics, chains_run: u64, builds_run: u64) {
        let chains = chains_run as f64;
        metrics.set("hep.events", self.events_per_chain() * chains, "count");
        metrics.set("hep.chain_ms", self.chain_ms_per_chain() * chains, "ms");
        metrics.set(
            "hep.mcgen_ns_per_event",
            self.ns_per_event(self.mcgen_ms),
            "ns",
        );
        metrics.set(
            "hep.detsim_ns_per_event",
            self.ns_per_event(self.detsim_ms),
            "ns",
        );
        metrics.set(
            "hep.reco_ns_per_event",
            self.ns_per_event(self.reco_ms),
            "ns",
        );
        metrics.set(
            "hep.dst_ms",
            self.dst_ms / self.chains.max(1) as f64 * chains,
            "ms",
        );
        metrics.set(
            "build.stack_ms",
            self.build_ms_per_build() * builds_run as f64,
            "ms",
        );
        metrics.set("core.compare_deep_us", self.compare_deep_us, "us");
        metrics.set(
            "core.compare_digest_first_us",
            self.compare_digest_first_us,
            "us",
        );
        metrics.set("store.sha256_mb_per_s", self.sha256_mb_per_s, "MB/s");
    }
}

/// Chain tests per run of `experiment` (what one un-memoized run executes).
pub fn chain_tests(system: &SpSystem, experiment: &str) -> u64 {
    system.experiment(experiment).map_or(0, |def| {
        def.suite
            .tests()
            .iter()
            .filter(|t| matches!(t.kind, TestKind::Chain { .. }))
            .count() as u64
    })
}

/// Replays every chain test of `experiments` at `scale`/`seed`, one stack
/// build per (experiment, image), and the comparison/hash kernels over the
/// chain's own outputs.
pub fn probe(
    system: &SpSystem,
    experiments: &[String],
    images: &[VmImageId],
    scale: f64,
    seed: u64,
) -> ProbeCosts {
    let mut costs = ProbeCosts::default();
    let config = GeneratorConfig::hera_nc();
    // The last two chain outputs: a steady-state comparison is digest-first
    // against an identical reference; a deep one compares statistically
    // compatible histograms from another seed.
    let mut outputs: Vec<TestOutput> = Vec::new();
    let mut dst_bytes: Vec<u8> = Vec::new();
    for name in experiments {
        let Some(def) = system.experiment(name) else {
            continue;
        };
        for test in def.suite.tests() {
            let TestKind::Chain { events, .. } = &test.kind else {
                continue;
            };
            let events = scaled_events(*events, scale);
            let chain_seed = sp_store::fnv64(test.id.as_str()) ^ seed;
            costs.chains += 1;
            costs.events += events;

            let t = Instant::now();
            let generated: Vec<Event> = EventGenerator::new(config.clone(), chain_seed)
                .take(events)
                .collect();
            costs.mcgen_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let gen_dst = write_dst(&generated);
            costs.dst_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let sim = DetectorSim::new(SmearingConstants::V2_SL5);
            let simulated: Vec<Event> = generated
                .iter()
                .map(|ev| sim.simulate(ev, chain_seed ^ ev.id))
                .collect();
            costs.detsim_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let _events_dst = std::hint::black_box(write_dst(&simulated));
            costs.dst_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let reco: Vec<sp_hep::RecoEvent> = simulated
                .iter()
                .map(|ev| reconstruct(ev, &config))
                .collect();
            costs.reco_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let micro: Vec<MicroEvent> = reco
                .iter()
                .filter_map(|r| {
                    let k = r.kinematics?;
                    Some(MicroEvent {
                        id: r.id,
                        process: r.process,
                        q2: k.q2,
                        x: k.x,
                        y: k.y,
                        e_prime: r.electron.map(|e| e.e).unwrap_or(0.0),
                    })
                })
                .collect();
            let _micro_dst = std::hint::black_box(write_micro_dst(&micro));
            costs.dst_ms += crate::util::ms_since(t);

            let t = Instant::now();
            let mut analysis = sp_hep::Analysis::new(sp_hep::SelectionCuts::default());
            for event in &reco {
                analysis.process(event);
            }
            let result = analysis.finish();
            costs.analysis_ms += crate::util::ms_since(t);
            outputs.push(TestOutput::Histograms(result.histograms));
            dst_bytes = gen_dst.to_vec();
        }
        for image_id in images {
            let Some(image) = system.image(*image_id) else {
                continue;
            };
            let builder = sp_build::ParallelBuilder::new(
                sp_build::BuildEngine::new(sp_store::SharedStorage::new()),
                1,
            );
            let t = Instant::now();
            if builder.build_stack(&def.graph, &image.spec).is_ok() {
                costs.build_ms += crate::util::ms_since(t);
                costs.builds += 1;
            }
        }
    }
    if let Some(output) = outputs.last() {
        let identical = output.clone();
        let other = outputs.iter().rev().nth(1).unwrap_or(output);
        let comparator = Comparator::default_for(output);
        let mut deep = Vec::new();
        let mut digest_first = Vec::new();
        for _ in 0..31 {
            let t = Instant::now();
            std::hint::black_box(comparator.compare(output, other));
            deep.push(crate::util::ms_since(t) * 1e3);
            let t = Instant::now();
            let (a, b) = (output.digest(), identical.digest());
            std::hint::black_box(comparator.compare_by_id(a, b));
            digest_first.push(crate::util::ms_since(t) * 1e3);
        }
        costs.compare_deep_us = median(&deep);
        costs.compare_digest_first_us = median(&digest_first);

        // Hash the run's own DST bytes until ~32 MB have passed.
        let rounds = (32 << 20) / dst_bytes.len().max(1) + 1;
        let t = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(sp_store::sha256::digest(std::hint::black_box(&dst_bytes)));
        }
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        costs.sha256_mb_per_s = (rounds * dst_bytes.len()) as f64 / secs / 1e6;
    }
    costs
}
