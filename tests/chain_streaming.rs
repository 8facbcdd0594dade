//! A validation run's MC chain streams its events: it allocates per run
//! and per stage file, never per event. Measured with the counting
//! allocator below (per thread, as in `decoders_total.rs`), a run with ten
//! times the events may make only the extra allocations of its growing
//! DST buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use sp_system::build::{DependencyGraph, Package, PackageId, PackageKind};
use sp_system::core::experiment::ExperimentDef;
use sp_system::core::preservation::PreservationLevel;
use sp_system::core::suite::TestSuite;
use sp_system::core::test::{TestKind, ValidationTest};
use sp_system::core::{RunConfig, SpSystem};
use sp_system::env::{catalog, Arch, Version};
use sp_system::exec::ChainDef;

/// Forwards to the system allocator, counting this thread's allocations.
/// (The default `realloc` goes through `alloc`, so a buffer that grows is
/// counted once per growth.)
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the bookkeeping only touches a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while thread locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the 2,000-event run may make beyond the 200-event one:
/// room for the three stage files' buffers to double a few more times.
const GROWTH_ALLOWANCE: u64 = 16;

/// An experiment whose suite is one full analysis chain of `events` events.
fn chain_experiment(events: usize) -> ExperimentDef {
    let graph = DependencyGraph::from_packages([
        Package::new("mcgen-pkg", Version::new(1, 0, 0), PackageKind::Generator),
        Package::new("sim-pkg", Version::new(1, 0, 0), PackageKind::Simulation),
        Package::new(
            "reco-pkg",
            Version::new(1, 0, 0),
            PackageKind::Reconstruction,
        ),
        Package::new("ana-pkg", Version::new(1, 0, 0), PackageKind::Analysis),
    ])
    .unwrap();
    let stage_packages: BTreeMap<String, PackageId> = [
        ("mcgen", "mcgen-pkg"),
        ("sim", "sim-pkg"),
        ("dst", "reco-pkg"),
        ("microdst", "reco-pkg"),
        ("analysis", "ana-pkg"),
        ("validation", "ana-pkg"),
    ]
    .into_iter()
    .map(|(stage, package)| (stage.to_string(), PackageId::new(package)))
    .collect();
    let mut suite = TestSuite::new("stream", PreservationLevel::FullSoftware);
    suite
        .add(ValidationTest::new(
            "stream/chain/nc",
            "stream",
            "MC chain",
            TestKind::Chain {
                chain: ChainDef::full_analysis_chain("nc"),
                stage_packages,
                events,
            },
        ))
        .unwrap();
    ExperimentDef {
        name: "stream".into(),
        color: "green",
        graph,
        suite,
        entry_points: vec![PackageId::new("ana-pkg")],
    }
}

/// Allocations on this thread of one memo-off validation run of the chain
/// experiment on a fresh system. One build thread keeps the stack build's
/// allocations off this thread in every run alike.
fn run_allocations(events: usize) -> u64 {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(chain_experiment(events))
        .unwrap();
    let config = RunConfig {
        threads: 1,
        memoize: false,
        ..RunConfig::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let run = system.run_validation("stream", image, &config).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        run.is_successful(),
        "{:?}",
        run.failures().collect::<Vec<_>>()
    );
    assert_eq!(run.results.len(), 6, "one result per chain stage");
    allocations
}

#[test]
fn chain_allocations_do_not_grow_with_events() {
    // Warm up lazily initialised state first.
    run_allocations(200);
    let small = run_allocations(200);
    let large = run_allocations(2_000);
    assert!(
        large <= small + GROWTH_ALLOWANCE,
        "2,000 events made {large} allocations, 200 made {small}: \
         the chain allocates per event"
    );
}
