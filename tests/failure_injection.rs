//! Failure injection across the substrates: storage corruption, vault
//! misuse, incoherent configurations.

use sp_system::core::{RunConfig, SpSystem};
use sp_system::env::{catalog, Version};
use sp_system::store::{FrozenImage, ObjectId, RetentionPolicy, StorageArea, StoreError};

/// Corrupting a stored artifact is detected at read time — the integrity
/// guarantee the preservation programme rests on.
#[test]
fn storage_corruption_is_detected() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    let run = system
        .run_validation(
            "hermes",
            image,
            &RunConfig {
                scale: 0.1,
                ..RunConfig::default()
            },
        )
        .unwrap();

    // Corrupt the first output object of the run.
    let (_, victim) = run.results[0].outputs[0].clone();
    assert!(system.storage().content().corrupt_for_test(victim));
    match system.storage().content().get(victim) {
        Err(StoreError::Corrupt { expected, .. }) => assert_eq!(expected, victim),
        other => panic!("corruption must be detected, got {other:?}"),
    }
    // The fsck sweep finds exactly the corrupted object.
    assert_eq!(system.storage().content().verify_all(), vec![victim]);
}

/// The vault refuses to overwrite a conserved image.
#[test]
fn vault_is_write_once() {
    let system = SpSystem::new();
    let image = FrozenImage {
        label: "h1-final".into(),
        recipe: ObjectId::for_bytes(b"recipe"),
        artifacts: vec![],
        frozen_at: 0,
        description: "first conservation".into(),
    };
    system.vault().freeze(image.clone()).unwrap();
    let err = system.vault().freeze(image).unwrap_err();
    assert!(matches!(err, StoreError::AlreadyFrozen(_)));
}

/// Runs against unknown experiments or images fail cleanly, without
/// touching the ledger.
#[test]
fn unknown_targets_leave_no_trace() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    let config = RunConfig::default();
    assert!(system.run_validation("ghost", image, &config).is_err());
    assert!(system
        .run_validation("ghost", sp_system::env::VmImageId(42), &config)
        .is_err());
    assert_eq!(system.ledger().run_count(), 0);
}

/// A cyclic experiment stack is rejected at registration.
#[test]
fn cyclic_stack_rejected_at_registration() {
    use sp_system::build::{DependencyGraph, Package, PackageKind};
    let mut graph = DependencyGraph::new();
    graph
        .add(Package::new("a", Version::new(1, 0, 0), PackageKind::Library).dep("b"))
        .unwrap();
    graph
        .add(Package::new("b", Version::new(1, 0, 0), PackageKind::Library).dep("a"))
        .unwrap();
    let broken = sp_system::core::ExperimentDef {
        name: "broken".into(),
        color: "grey",
        graph,
        suite: sp_system::core::TestSuite::new(
            "broken",
            sp_system::core::PreservationLevel::FullSoftware,
        ),
        entry_points: vec![],
    };
    let system = SpSystem::new();
    assert!(system.register_experiment(broken).is_err());
}

/// DST files survive storage round-trips but reject tampering.
#[test]
fn dst_files_reject_tampering() {
    use sp_system::hep::{read_dst, write_dst, EventGenerator, GeneratorConfig};
    let events: Vec<_> = EventGenerator::new(GeneratorConfig::hera_nc(), 5)
        .take(20)
        .collect();
    let bytes = write_dst(&events);

    let system = SpSystem::new();
    let oid = system.storage().put_named(
        sp_system::store::StorageArea::Results,
        "test/dst",
        bytes.to_vec(),
    );
    let restored = system.storage().content().get(oid).unwrap();
    assert_eq!(read_dst(&restored).unwrap(), events);

    let mut tampered = restored.to_vec();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    assert!(read_dst(&tampered).is_err());
}

/// A half-written warm-state snapshot — the residue of a crash without
/// fsync — degrades a system import to a cold restart: the storage import
/// still stands, the truncation is reported (not swallowed), and nothing
/// panics or half-restores.
#[test]
fn torn_warm_state_degrades_to_cold_restart() {
    use sp_system::core::WARM_STATE_FILE;

    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    system
        .run_validation(
            "hermes",
            image,
            &RunConfig {
                scale: 0.1,
                ..RunConfig::default()
            },
        )
        .unwrap();

    let dir = std::env::temp_dir().join(format!("sp-torn-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let exported = system.export_to_dir(&dir).unwrap();
    assert!(exported.warm_state_bytes > 0);

    // The crash model's worst case: the snapshot torn to a prefix.
    let warm = dir.join(WARM_STATE_FILE);
    let bytes = std::fs::read(&warm).unwrap();
    std::fs::write(&warm, &bytes[..bytes.len() / 2]).unwrap();

    let restarted = SpSystem::new();
    let summary = restarted.import_from_dir(&dir).unwrap();
    assert!(
        summary.warm_state_error.is_some(),
        "the torn snapshot must be reported, not swallowed"
    );
    assert_eq!(
        summary.warm,
        Default::default(),
        "no partial warm restore: cold restart or nothing"
    );
    assert_eq!(
        summary.storage.objects_rejected, 0,
        "the storage import stands on its own"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A small deployment for the checkpoint sweep: one library, an analysis
/// linking it, their compile tests, a unit check and a standalone
/// analysis, run on SL6 with `seeds` (one run each, in order).
fn checkpoint_deployment(seeds: &[u64]) -> SpSystem {
    use sp_system::build::{DependencyGraph, Package, PackageId, PackageKind};
    use sp_system::core::test::{TestKind, ValidationTest};
    use sp_system::core::{ExperimentDef, PreservationLevel, TestSuite};

    let graph = DependencyGraph::from_packages([
        Package::new("util", Version::new(1, 0, 0), PackageKind::Library),
        Package::new("ana", Version::new(1, 0, 0), PackageKind::Analysis).dep("util"),
    ])
    .unwrap();
    let mut suite = TestSuite::new("mini", PreservationLevel::FullSoftware);
    let tests = [
        (
            "mini/compile/util",
            "compilation",
            TestKind::Compile {
                package: PackageId::new("util"),
            },
        ),
        (
            "mini/compile/ana",
            "compilation",
            TestKind::Compile {
                package: PackageId::new("ana"),
            },
        ),
        (
            "mini/unit/util-0",
            "unit checks",
            TestKind::UnitCheck {
                package: PackageId::new("util"),
                check_index: 0,
            },
        ),
        (
            "mini/standalone/ana",
            "analysis",
            TestKind::Standalone {
                package: PackageId::new("ana"),
                events: 40,
            },
        ),
    ];
    for (id, group, kind) in tests {
        suite
            .add(ValidationTest::new(id, "mini", group, kind))
            .unwrap();
    }
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(ExperimentDef {
            name: "mini".into(),
            color: "grey",
            graph,
            suite,
            entry_points: vec![PackageId::new("ana")],
        })
        .unwrap();
    for &seed in seeds {
        let config = RunConfig {
            seed,
            ..RunConfig::default()
        };
        system.run_validation("mini", image, &config).unwrap();
    }
    system
}

/// Each area's name → address map as an export writes it: names whose
/// object is still in the content store.
fn exported_names(system: &SpSystem) -> Vec<Vec<(String, ObjectId)>> {
    let storage = system.storage();
    StorageArea::all()
        .into_iter()
        .map(|area| {
            let mut names = storage.list(area, "");
            names.retain(|(_, id)| storage.content().contains(*id));
            names
        })
        .collect()
}

/// A checkpoint over a checkpoint loses nothing it acknowledged: export
/// A, then export B into the same directory after more runs and a
/// retention pass that pruned some of A's objects. Power is lost at every
/// operation of both exports, warm state included. After each crash no
/// surviving index or snapshot differs from every committed state,
/// import rejects nothing, and each area restores A's or B's names once
/// A was acknowledged (B's once B was).
#[test]
fn checkpoint_over_a_checkpoint_survives_every_crash_point() {
    use sp_system::core::WARM_STATE_FILE;
    use sp_system::store::vfs::crash_point_sweep;

    let a = checkpoint_deployment(&[1, 2]);
    let b = checkpoint_deployment(&[1, 2, 3, 4]);
    let pruned = b.prune_runs(&RetentionPolicy::pruning(1, 1, 0));
    let (names_a, names_b) = (exported_names(&a), exported_names(&b));
    let lost = |area: usize| {
        names_a[area]
            .iter()
            .any(|name| !names_b[area].contains(name))
    };
    assert!(
        pruned.objects_removed > 0 && (0..names_a.len()).any(lost),
        "the retention pass must prune some of A's objects and names: {pruned:?}"
    );

    let base = std::env::temp_dir().join(format!("sp-checkpoint-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let outcome = crash_point_sweep(
        &base,
        |fs, root| {
            // How many exports were acknowledged before the crash.
            [&a, &b]
                .into_iter()
                .take_while(|system| system.export_to_dir_fs(root, fs.as_ref()).is_ok())
                .count()
        },
        |root, history, acknowledged| {
            let mut files: Vec<String> = StorageArea::all()
                .iter()
                .map(|area| format!("{}.index", area.namespace()))
                .collect();
            files.push(WARM_STATE_FILE.into());
            for file in &files {
                if let Ok(bytes) = std::fs::read(root.join(file)) {
                    if !history.allows(std::path::Path::new(file), &bytes) {
                        return Err(format!("{file} holds a state no export committed"));
                    }
                }
            }
            let restored = SpSystem::new();
            let import = restored
                .import_from_dir(root)
                .map_err(|e| format!("import failed: {e}"))?;
            if import.storage.objects_rejected + import.storage.names_rejected > 0 {
                return Err(format!("import rejected what the export wrote: {import:?}"));
            }
            let names = exported_names(&restored);
            let expected: &[&Vec<Vec<(String, ObjectId)>>] = match acknowledged {
                0 => return Ok(()),
                1 => &[&names_a, &names_b],
                _ => &[&names_b],
            };
            for (index, area) in StorageArea::all().into_iter().enumerate() {
                if !expected.iter().any(|acked| acked[index] == names[index]) {
                    return Err(format!(
                        "{area}: {} names restored, neither acknowledged export",
                        names[index].len()
                    ));
                }
            }
            if import.warm_state_error.is_some() || import.warm.entries_rejected > 0 {
                return Err(format!("warm state not restored whole: {import:?}"));
            }
            Ok(())
        },
    );
    assert!(
        outcome.crash_points >= 90,
        "the workload must enumerate both exports, got {}",
        outcome.crash_points
    );
    assert!(
        outcome.passed(),
        "checkpoint sweep failed at {} of {} points:\n{}",
        outcome.failures.len(),
        outcome.crash_points,
        outcome.failures.join("\n")
    );
    std::fs::remove_dir_all(&base).ok();
}
