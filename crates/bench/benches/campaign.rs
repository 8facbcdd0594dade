//! End-to-end validation-run cost: the full §3.1 (ii) cycle — parallel
//! stack build, unit checks, standalone executables, analysis chains,
//! reference comparison and bookkeeping — per experiment, the digest of
//! a memo-served H1 run (hashed and memo-served), plus the H1 stack build
//! alone. Whole campaign grids and fleet drains are measured
//! end to end by `perfbench` (`cold-grid`, `nightly-warm`, `fleet-drain`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_bench::{desy_deployment, repro_run_config};
use sp_core::RunConfig;

fn bench_validation_runs(c: &mut Criterion) {
    let system = desy_deployment();
    let image = system.images()[4].id; // SL6/64bit gcc4.4
    let config = repro_run_config(0.1);

    // Prime a reference so the benchmarked runs include comparisons.
    for experiment in ["zeus", "h1", "hermes"] {
        system
            .run_validation(experiment, image, &config)
            .expect("priming run");
    }

    let mut group = c.benchmark_group("validation_run");
    group.sample_size(10);
    for experiment in ["hermes", "zeus", "h1"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(experiment),
            &experiment,
            |b, experiment| {
                b.iter(|| {
                    system
                        .run_validation(experiment, image, &config)
                        .expect("benchmark run")
                })
            },
        );
    }

    // The digest of a memo-served H1 run: hashed from its text, and served
    // from its cell's digest memo. The cell is one no uncached run shares,
    // so the memo holds the outputs the memo-served run holds, as it does
    // in a nightly deployment.
    let image = system.images()[3].id;
    let memoized = RunConfig {
        memoize: true,
        ..config
    };
    system
        .run_validation("h1", image, &memoized)
        .expect("memoizing run");
    let run = system
        .run_validation("h1", image, &memoized)
        .expect("memo-served run");
    group.bench_function("digest_hashed", |b| b.iter(|| run.digest()));
    group.bench_function("digest_served", |b| {
        b.iter(|| system.run_digest(image, &run))
    });
    group.finish();
}

fn bench_stack_build(c: &mut Criterion) {
    use sp_build::{BuildEngine, ParallelBuilder};
    use sp_store::SharedStorage;

    let h1 = sp_experiments::h1_experiment();
    let env = sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34));
    let mut group = c.benchmark_group("stack_build_h1");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let builder =
                        ParallelBuilder::new(BuildEngine::new(SharedStorage::new()), threads);
                    builder.build_stack(&h1.graph, &env).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_validation_runs, bench_stack_build);
criterion_main!(benches);
