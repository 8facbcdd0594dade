//! Full analysis-chain execution cost versus event count: MC generation →
//! detector simulation → reconstruction → analysis. This dominates the wall
//! clock of a validation run, so it fixes how often the cron can fire.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sp_hep::{run_chain, GeneratorConfig};

fn bench_chain(c: &mut Criterion) {
    let config = GeneratorConfig::hera_nc();
    let mut group = c.benchmark_group("chain_exec");
    group.sample_size(20);
    for events in [100usize, 500, 2000] {
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(
            BenchmarkId::new("full_chain", events),
            &events,
            |b, &events| b.iter(|| run_chain(&config, events, 42, 0.0)),
        );
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    use sp_hep::{reconstruct, DetectorSim, Event, EventGenerator, SmearingConstants};
    let config = GeneratorConfig::hera_nc();
    let events: Vec<Event> = EventGenerator::new(config.clone(), 7).take(500).collect();
    let sim = DetectorSim::new(SmearingConstants::V2_SL5);
    let simulated: Vec<Event> = events.iter().map(|ev| sim.simulate(ev, ev.id)).collect();

    let mut group = c.benchmark_group("chain_stages_500ev");
    group.bench_function("mcgen", |b| {
        b.iter(|| {
            EventGenerator::new(config.clone(), 7)
                .take(500)
                .collect::<Vec<Event>>()
        })
    });
    group.bench_function("detsim", |b| {
        b.iter(|| {
            events
                .iter()
                .map(|ev| sim.simulate(ev, ev.id))
                .collect::<Vec<Event>>()
        })
    });
    group.bench_function("reco", |b| {
        b.iter(|| {
            simulated
                .iter()
                .map(|ev| reconstruct(ev, &config))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("dst_write", |b| b.iter(|| sp_hep::write_dst(&simulated)));
    let dst = sp_hep::write_dst(&simulated);
    group.bench_function("dst_checksum", |b| {
        b.iter(|| sp_hep::dst::envelope_checksum(&dst))
    });
    group.bench_function("dst_read", |b| b.iter(|| sp_hep::read_dst(&dst).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_chain, bench_stages);
criterion_main!(benches);
