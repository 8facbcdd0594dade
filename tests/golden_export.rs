//! Golden export of a small deployment: the `<area>.index` listings and
//! the `warm_state.spws` snapshot that `SpSystem::export_to_dir` writes
//! after four memo-served runs are pinned by SHA-256. The deployment is
//! the one `golden_run_digests_and_summaries` runs (the `tiny` experiment
//! on SL5/32-bit and SL6/64-bit, twice each), so a change to how names
//! are kept, listed or exported, or to the warm-state encoding, shows up
//! here as a changed digest. A change to any pinned digest is a change of
//! the conserved layout.

use std::collections::BTreeMap;
use std::path::PathBuf;

use sp_system::build::{DependencyGraph, Package, PackageId, PackageKind};
use sp_system::core::experiment::ExperimentDef;
use sp_system::core::preservation::PreservationLevel;
use sp_system::core::suite::TestSuite;
use sp_system::core::test::{TestKind, ValidationTest};
use sp_system::core::{RunConfig, SpSystem};
use sp_system::env::{catalog, Arch, CodeTrait, Version};
use sp_system::exec::ChainDef;
use sp_system::store::sha256;

/// A clean library, a 64-bit-latent buggy library, an analysis linking
/// it, unit checks, a standalone executable and a full analysis chain.
fn tiny_experiment() -> ExperimentDef {
    let graph = DependencyGraph::from_packages([
        Package::new("util", Version::new(1, 0, 0), PackageKind::Library),
        Package::new("legacy", Version::new(1, 0, 0), PackageKind::Library)
            .with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 6.0 }),
        Package::new("mcgen-pkg", Version::new(2, 0, 0), PackageKind::Generator).dep("util"),
        Package::new("sim-pkg", Version::new(2, 0, 0), PackageKind::Simulation).dep("util"),
        Package::new(
            "reco-pkg",
            Version::new(2, 0, 0),
            PackageKind::Reconstruction,
        )
        .dep("legacy"),
        Package::new("ana-pkg", Version::new(2, 0, 0), PackageKind::Analysis).dep("util"),
    ])
    .unwrap();
    let mut suite = TestSuite::new("tiny", PreservationLevel::FullSoftware);
    for pkg in [
        "util",
        "legacy",
        "mcgen-pkg",
        "sim-pkg",
        "reco-pkg",
        "ana-pkg",
    ] {
        suite
            .add(ValidationTest::new(
                format!("tiny/compile/{pkg}"),
                "tiny",
                "compilation",
                TestKind::Compile {
                    package: PackageId::new(pkg),
                },
            ))
            .unwrap();
    }
    for pkg in ["util", "legacy"] {
        suite
            .add(ValidationTest::new(
                format!("tiny/unit/{pkg}-0"),
                "tiny",
                "unit checks",
                TestKind::UnitCheck {
                    package: PackageId::new(pkg),
                    check_index: 0,
                },
            ))
            .unwrap();
    }
    suite
        .add(ValidationTest::new(
            "tiny/standalone/ana",
            "tiny",
            "analysis",
            TestKind::Standalone {
                package: PackageId::new("ana-pkg"),
                events: 150,
            },
        ))
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
    .map(|(stage, pkg)| (stage.to_string(), PackageId::new(pkg)))
    .collect();
    suite
        .add(ValidationTest::new(
            "tiny/chain/nc",
            "tiny",
            "MC chain",
            TestKind::Chain {
                chain: ChainDef::full_analysis_chain("nc"),
                stage_packages,
                events: 2500,
            },
        ))
        .unwrap();
    ExperimentDef {
        name: "tiny".into(),
        color: "blue",
        graph,
        suite,
        entry_points: vec![PackageId::new("ana-pkg")],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn export_of_four_memo_served_runs_keeps_its_bytes() {
    let system = SpSystem::new();
    let sl5_32 = system
        .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
        .unwrap();
    let sl6_64 = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system.register_experiment(tiny_experiment()).unwrap();
    let config = RunConfig {
        scale: 1.0,
        threads: 2,
        memoize: true,
        ..RunConfig::default()
    };
    for image in [sl5_32, sl6_64, sl5_32, sl6_64] {
        system.run_validation("tiny", image, &config).unwrap();
    }
    assert_eq!(system.chain_memo_stats().hits, 2, "runs 3 and 4 replayed");

    let dir = temp_dir("export");
    system.export_to_dir(&dir).unwrap();
    let pinned = [
        (
            "artifacts.index",
            "7faba432c6de0c1a15679dc9da4f14324c30006da9b13d939abaa91165950664",
        ),
        (
            "tests.index",
            "12ef8146d4d0bfda1836d3c2b46a2efcec22a854b1d9320f9cd0aa2cfd6b3f48",
        ),
        (
            "results.index",
            "2a2084083f064eea51bc712583f666f82ffacf53797e95620cec9dc5afcd0cf9",
        ),
        (
            "images.index",
            "45d3da1d09ee6a807b6ffe9c1a28980f8d0c71234cef4bc9d858cc944be53144",
        ),
        (
            "warm_state.spws",
            "98a6d38d396c58ff069f5ca17d780a8e623d0b0e3664a76953d877e3cfb3b584",
        ),
    ];
    for (file, digest) in pinned {
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            sha256::to_hex(&sha256::digest(&bytes)),
            digest,
            "{file} changed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
