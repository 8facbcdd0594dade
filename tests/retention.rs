//! Retention-policy integration: pruning the run history without ever
//! losing the reference outputs the next validation needs.

use sp_system::core::{RunConfig, SpSystem};
use sp_system::env::{catalog, Version};
use sp_system::store::RetentionPolicy;

fn config() -> RunConfig {
    RunConfig {
        scale: 0.1,
        threads: 2,
        ..RunConfig::default()
    }
}

#[test]
fn keep_everything_policy_drops_nothing() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    for _ in 0..3 {
        system.clock().advance(86_400);
        system.run_validation("hermes", image, &config()).unwrap();
    }
    // Prune through the system: "now" is read from the virtual clock the
    // runs were stamped by, not passed in by the caller.
    let report = system.prune_runs(&RetentionPolicy::keep_everything());
    assert_eq!(report.dropped, 0);
    assert_eq!(report.kept, 3);
    assert_eq!(report.objects_removed, 0);
}

#[test]
fn pruning_preserves_references_and_comparability() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();

    // Five nightly runs; all successful, so the last one holds the
    // reference outputs.
    for _ in 0..5 {
        system.clock().advance(86_400);
        system.run_validation("hermes", image, &config()).unwrap();
    }
    assert_eq!(system.ledger().run_count(), 5);

    // Aggressive policy: keep the last run and one successful run.
    let report = system.prune_runs(&RetentionPolicy::pruning(1, 1, 0));
    assert!(report.dropped > 0, "old runs are pruned: {report:?}");
    assert!(system.ledger().run_count() < 5);

    // The reference survives and the next run still compares cleanly.
    assert!(system.ledger().has_reference("hermes"));
    system.clock().advance(86_400);
    let next = system.run_validation("hermes", image, &config()).unwrap();
    assert!(next.is_successful());
    let compared = next.results.iter().filter(|r| r.compare.is_some()).count();
    assert!(compared > 0, "comparisons still work after pruning");

    // Storage integrity: no dangling references anywhere.
    assert!(system.storage().content().verify_all().is_empty());
    for run in system.ledger().runs() {
        for result in &run.results {
            for (name, oid) in result.outputs.iter() {
                assert!(
                    system.storage().content().contains(*oid),
                    "kept run {} lost output {name}",
                    run.id
                );
            }
        }
    }
}

#[test]
fn pruning_actually_frees_storage() {
    let system = SpSystem::new();
    let image = system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    // Different seeds => different outputs per run => prunable objects.
    for seed in 0..4 {
        system.clock().advance(86_400);
        let run_config = RunConfig { seed, ..config() };
        system.run_validation("hermes", image, &run_config).unwrap();
    }
    let before = system.storage().content().len();
    let report = system.prune_runs(&RetentionPolicy::pruning(1, 1, 0));
    let after = system.storage().content().len();
    assert!(report.objects_removed > 0);
    assert_eq!(before - after, report.objects_removed);
}
