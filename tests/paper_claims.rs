//! Assertions of the paper's quantitative and structural claims, each
//! annotated with its source section.

use sp_system::core::{RunConfig, SpSystem, TestCategory};
use sp_system::env::{catalog, Compiler, OsRelease, Version};
use sp_system::exec::{ClientKind, CronSchedule};
use sp_system::experiments::{common, h1_experiment, hera_experiments};

/// §3.1: "virtual machines with five different configurations: SL5/32bit
/// with gcc4.1 and gcc4.4, SL5/64bit with gcc4.1 and gcc4.4, SL6/64bit with
/// gcc4.4."
#[test]
fn five_vm_configurations() {
    let images = catalog::paper_images();
    assert_eq!(images.len(), 5);
    let labels: Vec<String> = images.iter().map(|s| s.label()).collect();
    assert_eq!(
        labels,
        vec![
            "SL5/32bit gcc4.1",
            "SL5/32bit gcc4.4",
            "SL5/64bit gcc4.1",
            "SL5/64bit gcc4.4",
            "SL6/64bit gcc4.4",
        ]
    );
}

/// §3.1: "the ROOT versions used by the experiments: 5.26, 5.28, 5.30,
/// 5.32, and 5.34."
#[test]
fn five_root_versions() {
    let versions: Vec<String> = catalog::paper_root_versions()
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(versions, vec!["5.26", "5.28", "5.30", "5.32", "5.34"]);
}

/// §3.1: "The only requirement of a new machine is to have access to the
/// common sp-system storage … as well as the ability to run a cron-job."
#[test]
fn client_joining_requirements() {
    let system = SpSystem::new();
    // Both requirements met: any machine kind joins.
    for (name, kind) in [
        (
            "vm",
            ClientKind::VirtualMachine {
                image_label: "SL6/64bit gcc4.4".into(),
            },
        ),
        ("batch", ClientKind::BatchNode),
        ("grid", ClientKind::GridWorker),
    ] {
        assert!(system
            .register_client(name, kind, CronSchedule::nightly(), true, true)
            .is_ok());
    }
    // Either requirement missing: rejected.
    assert!(system
        .register_client(
            "no-storage",
            ClientKind::BatchNode,
            CronSchedule::nightly(),
            false,
            true
        )
        .is_err());
    assert!(system
        .register_client(
            "no-cron",
            ClientKind::BatchNode,
            CronSchedule::nightly(),
            true,
            false
        )
        .is_err());
}

/// §3.2: "the compilation of approximately 100 individual H1 software
/// packages … expected to comprise of up to 500 tests in total."
#[test]
fn h1_test_inventory() {
    let h1 = h1_experiment();
    assert_eq!(h1.package_count(), 100);
    let breakdown = h1.suite.breakdown();
    assert_eq!(breakdown.count(TestCategory::Compilation), 100);
    let expanded = common::expanded_test_count(&h1.suite);
    assert!(
        (400..=500).contains(&expanded),
        "H1 expands to {expanded} tests"
    );
}

/// §3.2: chains run "from MC generation and simulation, through multi-level
/// file production and ending with a full physics analysis and subsequent
/// validation of the results".
#[test]
fn chains_have_the_paper_stage_structure() {
    for experiment in hera_experiments() {
        for test in experiment.suite.tests() {
            if let sp_system::core::TestKind::Chain { chain, .. } = &test.kind {
                let stages: Vec<&str> = chain.stages().iter().map(|s| s.name.as_str()).collect();
                assert_eq!(
                    stages,
                    vec!["mcgen", "sim", "dst", "microdst", "analysis", "validation"],
                    "chain {} of {}",
                    chain.name,
                    experiment.name
                );
            }
        }
    }
}

/// §3.3: "Each test-job started in the sp-system is typically assigned a
/// unique ID, and all scripts and input files used in the test as well as
/// all output files are kept."
#[test]
fn unique_job_ids_and_outputs_kept() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    let config = RunConfig {
        scale: 0.1,
        ..RunConfig::default()
    };
    let run = system.run_validation("hermes", image, &config).unwrap();

    // Unique job ids across the run.
    let mut job_ids: Vec<_> = run.results.iter().map(|r| r.job).collect();
    let before = job_ids.len();
    job_ids.sort();
    job_ids.dedup();
    assert_eq!(job_ids.len(), before, "job ids are unique");

    // Every output object is retrievable from the common storage; the test
    // scripts were conserved at registration.
    for result in &run.results {
        for (_, oid) in result.outputs.iter() {
            assert!(system.storage().content().contains(*oid));
        }
    }
    let scripts = system
        .storage()
        .list(sp_system::store::StorageArea::Tests, "hermes/");
    assert!(!scripts.is_empty(), "test scripts conserved");
}

/// §2 / Table 1: four preservation levels in three complementary areas,
/// and "most experiments in DPHEP plan for a level 4 preservation
/// programme" — all three HERA suites target Level 4.
#[test]
fn preservation_levels_and_hera_programmes() {
    use sp_system::core::PreservationLevel;
    assert_eq!(PreservationLevel::all().len(), 4);
    for experiment in hera_experiments() {
        assert_eq!(experiment.suite.level, PreservationLevel::FullSoftware);
        assert!(experiment.suite.covers_level());
    }
}

/// Figure 3: the three experiment bands carry the paper's colours.
#[test]
fn figure3_band_colours() {
    let experiments = hera_experiments();
    let by_name: std::collections::BTreeMap<&str, &str> = experiments
        .iter()
        .map(|e| (e.name.as_str(), e.color))
        .collect();
    assert_eq!(by_name["zeus"], "orange");
    assert_eq!(by_name["h1"], "blue");
    assert_eq!(by_name["hermes"], "red");
}

/// §3.1 image coherence: the extension environments exist and the
/// impossible ones are rejected.
#[test]
fn extension_images_and_coherence() {
    // SL7 images build.
    for spec in catalog::extension_images() {
        assert!(spec.validate().is_empty(), "{} invalid", spec.label());
    }
    // gcc 4.1 is not packaged for SL6; 32-bit SL6 guests don't exist.
    let bad_compiler = sp_system::env::EnvironmentSpec::new(
        OsRelease::SL6,
        sp_system::env::Arch::X86_64,
        Compiler::GCC41,
    );
    assert!(!bad_compiler.validate().is_empty());
}
