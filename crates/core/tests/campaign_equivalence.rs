//! Parallel-vs-sequential campaign equivalence.
//!
//! The contract of `CampaignScheduler`: for any grid, any repetition count
//! and any worker count, the parallel engine must produce a `CampaignSummary`
//! **identical** to the sequential `Campaign` oracle — same run records
//! (ids, timestamps, counts), same cells, same ledger contents — and the
//! virtual clock must advance exactly once per repetition barrier.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
use sp_core::{
    Campaign, CampaignConfig, CampaignOptions, CampaignPlan, CampaignScheduler, CampaignSummary,
    ExperimentDef, PreservationLevel, RunConfig, SpSystem, TestKind, TestSuite, ValidationTest,
};
use sp_env::{catalog, Arch, CodeTrait, Version, VmImageId};
use sp_exec::ChainDef;

/// A compact experiment: a clean library, an analysis on top, a tiny MC
/// chain, and (for the "buggy" flavour) a latent 64-bit pointer bug that
/// deviates on SL6 — so random grids exercise reference promotion,
/// comparison failures and chain memoisation alike.
fn experiment(name: &str, buggy: bool) -> ExperimentDef {
    let mut lib = Package::new("lib", Version::new(1, 2, 0), PackageKind::Library);
    if buggy {
        lib = lib.with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 6.0 });
    }
    let graph = DependencyGraph::from_packages([
        lib,
        Package::new("ana", Version::new(2, 0, 0), PackageKind::Analysis).dep("lib"),
    ])
    .unwrap();
    let mut suite = TestSuite::new(name, PreservationLevel::FullSoftware);
    for pkg in ["lib", "ana"] {
        suite
            .add(ValidationTest::new(
                format!("{name}/compile/{pkg}"),
                name,
                "compilation",
                TestKind::Compile {
                    package: PackageId::new(pkg),
                },
            ))
            .unwrap();
    }
    suite
        .add(ValidationTest::new(
            format!("{name}/unit/lib-0"),
            name,
            "unit checks",
            TestKind::UnitCheck {
                package: PackageId::new("lib"),
                check_index: 0,
            },
        ))
        .unwrap();
    suite
        .add(ValidationTest::new(
            format!("{name}/standalone/ana"),
            name,
            "analysis",
            TestKind::Standalone {
                package: PackageId::new("ana"),
                events: 10,
            },
        ))
        .unwrap();
    let stage_packages: BTreeMap<String, PackageId> = [
        ("mcgen", "lib"),
        ("sim", "lib"),
        ("dst", "lib"),
        ("microdst", "lib"),
        ("analysis", "ana"),
        ("validation", "ana"),
    ]
    .into_iter()
    .map(|(stage, pkg)| (stage.to_string(), PackageId::new(pkg)))
    .collect();
    suite
        .add(ValidationTest::new(
            format!("{name}/chain/nc"),
            name,
            "MC chain",
            TestKind::Chain {
                chain: ChainDef::full_analysis_chain("nc"),
                stage_packages,
                events: 10,
            },
        ))
        .unwrap();
    ExperimentDef {
        name: name.into(),
        color: "blue",
        graph,
        suite,
        entry_points: vec![PackageId::new("ana")],
    }
}

const EXPERIMENTS: [(&str, bool); 3] = [("alpha", false), ("beta", true), ("gamma", false)];

/// Builds a fresh system with all three experiments and three images
/// (32-bit SL5 reference, 64-bit SL5, 64-bit SL6) registered.
fn fresh_system() -> (SpSystem, Vec<VmImageId>) {
    let system = SpSystem::new();
    let images = vec![
        system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap(),
        system
            .register_image(catalog::sl5_gcc44(Arch::X86_64, Version::two(5, 34)))
            .unwrap(),
        system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap(),
    ];
    for (name, buggy) in EXPERIMENTS {
        system.register_experiment(experiment(name, buggy)).unwrap();
    }
    (system, images)
}

/// Decodes a non-empty bitmask into the selected subset.
fn subset<T: Clone>(pool: &[T], mask: usize) -> Vec<T> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

fn config_for(
    experiments: Vec<String>,
    images: Vec<VmImageId>,
    repetitions: usize,
) -> CampaignConfig {
    CampaignConfig {
        experiments,
        images,
        repetitions,
        run: RunConfig {
            scale: 0.01,
            threads: 2,
            ..RunConfig::default()
        },
        interval_secs: 3_600,
        options: CampaignOptions::default(),
    }
}

/// Runs one campaign on the parallel scheduler and returns its summary.
fn execute_parallel(system: &SpSystem, config: CampaignConfig, workers: usize) -> CampaignSummary {
    let mut scheduler = CampaignScheduler::new(system, workers);
    scheduler
        .submit(config)
        .expect("plan over registered names");
    scheduler
        .execute()
        .expect("parallel campaign")
        .remove(0)
        .summary
}

proptest! {
    /// The headline property: identical `CampaignSummary` (runs, cells,
    /// image labels), identical run counts and identical reference state,
    /// for random grids and worker counts.
    #[test]
    fn engine_matches_sequential_oracle(
        exp_mask in 1usize..8,
        img_mask in 1usize..8,
        repetitions in 1usize..=2,
        workers in 1usize..=4,
    ) {
        let experiment_pool: Vec<String> =
            EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();

        let (seq_system, seq_images) = fresh_system();
        let (par_system, par_images) = fresh_system();
        prop_assert_eq!(&seq_images, &par_images);

        let experiments = subset(&experiment_pool, exp_mask);
        let images = subset(&seq_images, img_mask);

        let sequential = Campaign::new(
            &seq_system,
            config_for(experiments.clone(), images.clone(), repetitions),
        )
        .execute()
        .expect("sequential campaign");

        let parallel = execute_parallel(
            &par_system,
            config_for(experiments, images, repetitions),
            workers,
        );

        prop_assert_eq!(&parallel, &sequential, "summaries must be byte-identical");
        prop_assert_eq!(parallel.total_runs(), sequential.total_runs());
        prop_assert_eq!(
            par_system.ledger().run_count(),
            seq_system.ledger().run_count()
        );
        // The recorded run logs agree id-for-id and digest-for-digest.
        let seq_runs = seq_system.ledger().runs();
        let par_runs = par_system.ledger().runs();
        for (s, p) in seq_runs.iter().zip(&par_runs) {
            prop_assert_eq!(s.id, p.id);
            prop_assert_eq!(&s.experiment, &p.experiment);
            prop_assert_eq!(s.timestamp, p.timestamp);
            prop_assert_eq!(s.digest(), p.digest(), "run outcomes must match");
        }
        // Reference state converged identically: one more single-pass
        // campaign on each system must again agree cell-for-cell.
        for (name, _) in EXPERIMENTS {
            prop_assert_eq!(
                seq_system.ledger().has_reference(name),
                par_system.ledger().has_reference(name)
            );
        }
    }
}

proptest! {
    /// Memoization transparency: for random grids, worker counts and
    /// repetition counts ≥ 2 (so the memo actually serves repeated cells),
    /// a memoized campaign produces a `CampaignSummary` and run-log
    /// digests byte-identical to the uncached path. On replay, comparisons
    /// against the evolving reference are served from the verdict memo,
    /// keyed by the (produced output, reference) content addresses, so a
    /// promoted reference misses it and is compared afresh; this property
    /// checks that the served verdicts match the uncached ones.
    #[test]
    fn memoized_campaign_matches_uncached(
        exp_mask in 1usize..8,
        img_mask in 1usize..8,
        repetitions in 2usize..=3,
        workers in 1usize..=4,
    ) {
        let experiment_pool: Vec<String> =
            EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();

        let (plain_system, plain_images) = fresh_system();
        let (memo_system, memo_images) = fresh_system();
        prop_assert_eq!(&plain_images, &memo_images);

        let experiments = subset(&experiment_pool, exp_mask);
        let images = subset(&plain_images, img_mask);

        let uncached = Campaign::new(
            &plain_system,
            config_for(experiments.clone(), images.clone(), repetitions),
        )
        .execute()
        .expect("uncached campaign");

        let mut memo_config = config_for(experiments, images, repetitions);
        memo_config.options = CampaignOptions::memoized();
        let memoized = execute_parallel(&memo_system, memo_config, workers);

        prop_assert_eq!(&memoized, &uncached, "summaries must be byte-identical");
        let plain_runs = plain_system.ledger().runs();
        let memo_runs = memo_system.ledger().runs();
        prop_assert_eq!(plain_runs.len(), memo_runs.len());
        for (p, m) in plain_runs.iter().zip(&memo_runs) {
            prop_assert_eq!(p.id, m.id);
            prop_assert_eq!(p.digest(), m.digest(), "run outcomes must match");
        }
        // Repetitions beyond the first replay every cell: both memos must
        // have served hits, or the test is vacuous.
        let output_stats = memo_system.output_memo_stats();
        prop_assert!(
            output_stats.hits > 0,
            "output memo never hit on a repeated grid: {output_stats:?}"
        );
        let chain_stats = memo_system.chain_memo_stats();
        prop_assert!(
            chain_stats.hits > 0,
            "chain memo never hit on a repeated grid: {chain_stats:?}"
        );
    }
}

proptest! {
    /// The multi-campaign headline property: N experiment-disjoint
    /// campaigns run **concurrently** through the `CampaignScheduler`
    /// against one shared system, for random experiment partitions, image
    /// subsets, repetition counts, worker counts, admission limits and
    /// memoization. For every campaign:
    ///
    /// * its `CampaignSummary` is **byte-identical** to the sequential
    ///   `Campaign` oracle executing the same config alone on a fresh,
    ///   identically prepared system (run-id cursor pre-advanced to the
    ///   campaign's reserved base);
    /// * the shared ledger holds exactly the campaign's pre-reserved
    ///   run-id range, in ascending order — no cross-campaign
    ///   interleaving inside any campaign's sequence and no foreign ids.
    #[test]
    fn concurrent_campaigns_match_sequential_oracles(
        assignment in prop::collection::vec(0usize..3, 3),
        img_masks in prop::collection::vec(1usize..8, 3),
        repetitions in prop::collection::vec(1usize..=2, 3),
        workers in 1usize..=4,
        admission_limit in 1usize..=3,
        memoize in prop::bool::ANY,
    ) {
        let experiment_pool: Vec<String> =
            EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();

        // Partition the experiments into up to three disjoint campaigns.
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); 3];
        for (experiment, &slot) in experiment_pool.iter().zip(&assignment) {
            partitions[slot].push(experiment.clone());
        }
        let campaigns: Vec<(Vec<String>, usize, usize)> = partitions
            .into_iter()
            .zip(img_masks)
            .zip(repetitions)
            .filter(|((experiments, _), _)| !experiments.is_empty())
            .map(|((experiments, img_mask), reps)| (experiments, img_mask, reps))
            .collect();
        prop_assume!(!campaigns.is_empty());

        let (shared_system, shared_images) = fresh_system();
        let origin = shared_system.clock().now();

        let mut scheduler =
            CampaignScheduler::new(&shared_system, workers).with_admission_limit(admission_limit);
        let mut submitted = Vec::new();
        for (experiments, img_mask, reps) in &campaigns {
            let images = subset(&shared_images, *img_mask);
            let mut config = config_for(experiments.clone(), images, *reps);
            config.options = CampaignOptions { memoize, ..CampaignOptions::default() };
            let ticket = scheduler.submit(config).expect("disjoint submission");
            let range = scheduler.reserved_run_ids(ticket).expect("reserved range");
            submitted.push((ticket, range));
        }
        let reports = scheduler.execute().expect("scheduled batch");
        prop_assert_eq!(reports.len(), campaigns.len());

        for (((experiments, img_mask, reps), (ticket, (first, last))), report) in
            campaigns.iter().zip(&submitted).zip(&reports)
        {
            prop_assert_eq!(report.ticket, *ticket);
            prop_assert!(!report.cancelled);
            prop_assert_eq!(report.completed_repetitions, *reps);

            // The sequential oracle: a fresh, identically prepared system
            // whose run-id cursor starts at this campaign's reserved base
            // and whose clock starts at the shared origin.
            let (oracle_system, oracle_images) = fresh_system();
            prop_assert_eq!(oracle_system.clock().now(), origin);
            if first.0 > 1 {
                oracle_system.reserve_run_ids(first.0 - 1);
            }
            let images = subset(&oracle_images, *img_mask);
            let mut config = config_for(experiments.clone(), images, *reps);
            config.options = CampaignOptions { memoize, ..CampaignOptions::default() };
            let oracle = Campaign::new(&oracle_system, config)
                .execute()
                .expect("oracle campaign");
            prop_assert_eq!(
                &report.summary,
                &oracle,
                "campaign summary must be byte-identical to its solo oracle"
            );

            // Ledger: exactly the reserved range, ascending, no foreign
            // interleaving within the campaign's sequence.
            let campaign_ids: Vec<u64> = shared_system
                .ledger()
                .runs()
                .iter()
                .filter(|run| experiments.contains(&run.experiment))
                .map(|run| run.id.0)
                .collect();
            let expected: Vec<u64> = (first.0..=last.0).collect();
            prop_assert_eq!(
                campaign_ids,
                expected,
                "ledger must hold exactly the pre-reserved range in order"
            );
        }

        // Nothing else reached the ledger.
        let total: usize = reports.iter().map(|r| r.summary.total_runs()).sum();
        prop_assert_eq!(shared_system.ledger().run_count(), total);
    }
}

proptest! {
    /// Flag-off byte identity: with `image_parallel` explicitly **off**
    /// (the default), the parallel engine stays the byte-identity twin of
    /// the sequential oracle for random grids, worker counts and
    /// memoisation — the flag's existence must not perturb the default
    /// path in any way.
    #[test]
    fn flag_off_engine_stays_byte_identical(
        exp_mask in 1usize..8,
        img_mask in 1usize..8,
        repetitions in 1usize..=2,
        workers in 1usize..=4,
        memoize in prop::bool::ANY,
    ) {
        let experiment_pool: Vec<String> =
            EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();

        let (seq_system, seq_images) = fresh_system();
        let (par_system, par_images) = fresh_system();
        prop_assert_eq!(&seq_images, &par_images);

        let experiments = subset(&experiment_pool, exp_mask);
        let images = subset(&seq_images, img_mask);

        let sequential = Campaign::new(
            &seq_system,
            config_for(experiments.clone(), images.clone(), repetitions),
        )
        .execute()
        .expect("sequential campaign");

        let mut config = config_for(experiments, images, repetitions);
        config.options = CampaignOptions {
            memoize,
            image_parallel: false,
        };
        let parallel = execute_parallel(&par_system, config, workers);

        prop_assert_eq!(&parallel, &sequential, "flag-off must stay byte-identical");
        let seq_runs = seq_system.ledger().runs();
        let par_runs = par_system.ledger().runs();
        prop_assert_eq!(seq_runs.len(), par_runs.len());
        for (s, p) in seq_runs.iter().zip(&par_runs) {
            prop_assert_eq!(s.id, p.id);
            prop_assert_eq!(s.digest(), p.digest(), "run outcomes must match");
        }
        for (name, _) in EXPERIMENTS {
            prop_assert_eq!(
                seq_system.ledger().reference_state(name),
                par_system.ledger().reference_state(name),
                "reference maps must agree"
            );
        }
    }
}

/// Deterministic memo accounting: on an N-repetition single-cell campaign
/// the first pass misses and every later pass is served from the memo,
/// with the summary identical to the uncached twin system.
#[test]
fn memo_serves_repeated_cells_and_counts_hits() {
    let repetitions = 4;
    let (memo_system, images) = fresh_system();
    let (plain_system, _) = fresh_system();
    let mut config = config_for(vec!["alpha".into()], vec![images[0]], repetitions);
    config.options = CampaignOptions::memoized();
    let memoized = execute_parallel(&memo_system, config, 2);

    let plain_config = config_for(vec!["alpha".into()], vec![images[0]], repetitions);
    let uncached = Campaign::new(&plain_system, plain_config)
        .execute()
        .unwrap();
    assert_eq!(memoized, uncached);

    // One unit check + one standalone test per run: 2 memoisable outputs.
    let stats = memo_system.output_memo_stats();
    assert_eq!(stats.misses, 2, "first pass misses each output cell once");
    assert_eq!(
        stats.hits,
        2 * (repetitions as u64 - 1),
        "every later pass serves both cells from the memo"
    );
    // One chain test per run: first pass executes, the rest replay.
    let chain_stats = memo_system.chain_memo_stats();
    assert_eq!(chain_stats.misses, 1);
    assert_eq!(chain_stats.hits, repetitions as u64 - 1);
    // The uncached twin never touched its memos.
    let plain_stats = plain_system.output_memo_stats();
    assert_eq!((plain_stats.hits, plain_stats.misses), (0, 0));
}

/// Repetition barriers: the virtual clock advances exactly `repetitions`
/// times, by `interval_secs` each, under both executors — regardless of
/// worker count.
#[test]
fn barriers_advance_clock_once_per_repetition() {
    for workers in [1, 3] {
        let (system, images) = fresh_system();
        let start = system.clock().now();
        let repetitions = 4;
        let interval = 86_400;
        let mut config = config_for(
            vec!["alpha".into(), "gamma".into()],
            vec![images[0]],
            repetitions,
        );
        config.interval_secs = interval;
        let summary = execute_parallel(&system, config, workers);
        assert_eq!(
            system.clock().now(),
            start + repetitions as u64 * interval,
            "clock must tick exactly once per pass ({workers} workers)"
        );
        // Every run of pass `r` carries the pass-r timestamp.
        for (i, record) in summary.runs.iter().enumerate() {
            let pass = i / 2; // 2 experiments × 1 image per pass
            assert_eq!(record.timestamp, start + pass as u64 * interval);
        }
    }

    // The sequential oracle has the same barrier semantics.
    let (system, images) = fresh_system();
    let start = system.clock().now();
    let config = config_for(vec!["alpha".into()], vec![images[0]], 3);
    Campaign::new(&system, config).execute().unwrap();
    assert_eq!(system.clock().now(), start + 3 * 3_600);
}

/// Unknown ids are rejected while planning — before anything executes.
#[test]
fn planning_surfaces_unknown_image_before_running() {
    let (system, images) = fresh_system();
    let mut config = config_for(vec!["alpha".into()], images, 1);
    config.images.push(VmImageId(99));
    let runs_before = system.ledger().run_count();
    let error = CampaignPlan::new(&system, config).unwrap_err();
    assert!(matches!(
        error,
        sp_core::system::SystemError::UnknownImage(VmImageId(99))
    ));
    assert_eq!(
        system.ledger().run_count(),
        runs_before,
        "no run may have executed"
    );
}

/// Judge order across a deviating image: `beta`'s row runs the conserved
/// 32-bit SL5 image, the SL6 image its latent 64-bit bug deviates on,
/// then the 32-bit image again, so each cell's verdict depends on the
/// references the cells before it promoted (or, failing, did not) in the
/// same repetition. Produced in parallel and judged in lane order, every
/// repetition must leave the statuses and the reference state the
/// sequential oracle leaves.
#[test]
fn judge_order_matches_oracle_across_a_deviating_image() {
    for memoize in [false, true] {
        let (seq_system, images) = fresh_system();
        let (par_system, _) = fresh_system();
        let row = vec![images[0], images[2], images[0]];
        let mut config = config_for(vec!["beta".into()], row, 1);
        config.options.memoize = memoize;
        let mut scheduler = CampaignScheduler::new(&par_system, 2);
        for repetition in 0..3 {
            let oracle = Campaign::new(&seq_system, config.clone())
                .execute()
                .expect("sequential pass");
            scheduler.submit(config.clone()).expect("planned pass");
            let engine = scheduler.execute().expect("engine pass").remove(0).summary;
            assert_eq!(engine, oracle, "pass {repetition}, memoize {memoize}");
            assert_eq!(
                par_system.ledger().reference_state("beta"),
                seq_system.ledger().reference_state("beta"),
                "pass {repetition}, memoize {memoize}: reference state"
            );
        }
        let statuses: Vec<bool> = seq_system
            .ledger()
            .runs()
            .iter()
            .map(|run| run.is_successful())
            .collect();
        assert!(
            statuses.contains(&true) && statuses.contains(&false),
            "the row must mix verdicts: {statuses:?}"
        );
    }
}
