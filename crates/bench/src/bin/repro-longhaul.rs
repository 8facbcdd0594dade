//! Long-horizon retention simulation: the sp-system operated the way the
//! DPHEP reports demand — **for years, across restarts** — rather than for
//! one session.
//!
//! The driver advances the virtual clock along the SL5→SL6→SL7→beyond
//! platform timeline and, at each era:
//!
//! * runs **overlapping campaigns** (one per HERA experiment, all images,
//!   memoized) concurrently against the one shared `SpSystem` through the
//!   `CampaignScheduler`;
//! * integrates newly released platforms as the `TimelineCursor` fires
//!   (SL7 guest images in 2014, the ROOT 6 series after);
//! * prunes the run history with a `RetentionPolicy` decided against the
//!   **virtual clock** (simulated time, not wall time);
//! * checkpoints the whole state mid-simulation (`SpSystem::export_to_dir`:
//!   content objects + `warm_state.spws`), then simulates a restart into a
//!   fresh system that re-registers its definitions from code and imports
//!   the checkpoint — runs the storage integrity check over it (every
//!   exported object back and re-hashing, every artifact tar-ball
//!   unpacking) and proves the restored memo replays warm cells (memo
//!   hits > 0 on the first post-restore campaign);
//! * verifies a deliberately corrupted warm-state snapshot is never
//!   trusted (the flipped entry is dropped on load).
//!
//! ```text
//! cargo run --release -p sp-bench --bin repro-longhaul \
//!     [--scale 0.05] [--workers 4] [--reps 3]
//! ```

use sp_bench::{arg_value, desy_deployment, repro_run_config, scale_from_args};
use sp_core::{CampaignConfig, CampaignOptions, CampaignScheduler, SpSystem};
use sp_env::timeline::{extended_timeline, year_to_unix, TimelineCursor};
use sp_env::{catalog, VmImageId};
use sp_report::render_scheduler_stats;
use sp_report::summary::render_stats;
use sp_store::RetentionPolicy;

fn workers_from_args() -> usize {
    arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Registers the experiment definitions (code/config is re-created on
/// every start; only state crosses a restart).
fn register_experiments(system: &SpSystem) {
    for experiment in sp_experiments::hera_experiments() {
        system
            .register_experiment(experiment)
            .expect("experiment definitions are coherent");
    }
}

/// Fires every due timeline event, registering the images a site would
/// integrate, and narrates them.
fn integrate_due_events(
    system: &SpSystem,
    cursor: &mut TimelineCursor,
    narrate: bool,
) -> Vec<VmImageId> {
    let mut new_images = Vec::new();
    for entry in cursor.due(system.clock().now()) {
        if narrate {
            println!("  [{}] {}", entry.year, entry.event.describe());
        }
        if let sp_env::timeline::PlatformEvent::OsAvailable(os) = &entry.event {
            if os.generation == 7 {
                // "The next challenges include the testing of the SL7
                // environment": integrate SL7 with the conservative ROOT
                // and with the ROOT 6 probe.
                for spec in catalog::extension_images() {
                    let id = system.register_image(spec).expect("coherent SL7 image");
                    new_images.push(id);
                }
            }
        }
    }
    new_images
}

/// Runs one era: overlapping single-experiment campaigns over `images`,
/// memoized, concurrently through the scheduler. Returns the summaries'
/// total run count.
fn run_era(
    system: &SpSystem,
    images: &[VmImageId],
    repetitions: usize,
    workers: usize,
    scale: f64,
    label: &str,
) -> usize {
    let mut scheduler = CampaignScheduler::new(system, workers);
    let mut tickets = Vec::new();
    for experiment in ["zeus", "h1", "hermes"] {
        let config = CampaignConfig {
            experiments: vec![experiment.into()],
            images: images.to_vec(),
            repetitions,
            run: repro_run_config(scale),
            interval_secs: 86_400,
            options: CampaignOptions::memoized(),
        };
        tickets.push((
            experiment,
            scheduler.submit(config).expect("disjoint campaign"),
        ));
    }
    let reports = scheduler.execute().expect("era campaigns");
    let mut total = 0;
    for (experiment, ticket) in tickets {
        let report = &reports[ticket.index()];
        assert!(!report.cancelled);
        total += report.summary.total_runs();
        println!(
            "  {experiment:<7} {} runs, {} successful",
            report.summary.total_runs(),
            report.summary.successful_runs()
        );
        if report.summary.total_runs() > 0 {
            print!("{}", indent(&render_stats(&report.summary)));
        }
    }
    println!("\n{label} scheduler digest:");
    print!(
        "{}",
        indent(&render_scheduler_stats(
            &scheduler.stats(),
            &system.chain_memo_stats(),
            &system.output_memo_stats(),
            &system.build_memo_stats(),
        ))
    );
    total
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|line| format!("    {line}\n"))
        .collect::<String>()
}

fn main() {
    let scale = scale_from_args(0.05);
    let workers = workers_from_args();
    let repetitions: usize = arg_value("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    // ---- 2013: the paper's deployment -----------------------------------
    let system = desy_deployment();
    let mut cursor = TimelineCursor::new(extended_timeline());
    // Catch up on history (SL5/SL6 already integrated by the deployment).
    let caught_up = cursor.due(system.clock().now());
    println!(
        "2013: deployment live ({} images, {} historical platform events behind it)",
        system.images().len(),
        caught_up.len()
    );
    let paper_images: Vec<VmImageId> = system.images().iter().map(|i| i.id).collect();
    let total_2013 = run_era(&system, &paper_images, repetitions, workers, scale, "2013");

    // ---- advance to 2014: SL7 era ---------------------------------------
    println!("\nadvancing the virtual clock to 2014 ...");
    system.clock().advance_to(year_to_unix(2014) + 86_400);
    let new_images = integrate_due_events(&system, &mut cursor, true);
    println!(
        "2014: {} SL7-era images integrated; rerunning the campaigns over {} images",
        new_images.len(),
        system.images().len()
    );
    let all_images: Vec<VmImageId> = system.images().iter().map(|i| i.id).collect();
    let total_2014 = run_era(&system, &all_images, repetitions, workers, scale, "2014");

    // ---- retention, decided in simulated time ---------------------------
    let policy = RetentionPolicy::pruning(6, 6, 30 * 86_400);
    let prune = system.prune_runs(&policy);
    println!(
        "\nretention (virtual-clock now = {}): kept {}, dropped {}, {} objects freed",
        system.clock().now(),
        prune.kept,
        prune.dropped,
        prune.objects_removed
    );

    // ---- checkpoint ------------------------------------------------------
    let dir = std::env::temp_dir().join(format!("sp-longhaul-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let export = system.export_to_dir(&dir).expect("checkpoint export");
    println!(
        "\ncheckpoint: {} objects + {} bytes of warm state -> {}",
        export.storage.objects_written,
        export.warm_state_bytes,
        dir.display()
    );

    // ---- restart ---------------------------------------------------------
    // A fresh process: definitions are re-registered from code; objects,
    // memos, digest cache, run-id cursor and clock come from the medium.
    let restored = SpSystem::new();
    let import = restored.import_from_dir(&dir).expect("checkpoint import");
    assert!(import.warm_state_error.is_none(), "{import:?}");
    // A clean checkpoint holds nothing its own restart would refuse.
    let rejected = import.storage.objects_rejected + import.storage.names_rejected;
    assert_eq!(rejected + import.warm.entries_rejected, 0, "{import:?}");
    let verification = restored.verify_storage();
    assert!(verification.is_clean(), "{verification:?}");
    let verified = restored.storage().content().len();
    assert_eq!(verified, export.storage.objects_written, "{import:?}");
    for spec in catalog::all_images() {
        restored.register_image(spec).expect("coherent image");
    }
    register_experiments(&restored);
    println!(
        "restart: {} objects admitted ({} rejected), {} warm entries restored \
         ({} rejected), clock resumed at {}",
        import.storage.objects_loaded,
        import.storage.objects_rejected,
        import.warm.entries_restored(),
        import.warm.entries_rejected,
        restored.clock().now()
    );
    println!("storage verified: {verified} objects re-hash, every artifact tar-ball unpacks");
    assert_eq!(restored.clock().now(), system.clock().now());

    // ---- post-restore era: warm cells must replay ------------------------
    println!("\npost-restore campaigns (2015+):");
    restored.clock().advance_to(year_to_unix(2015) + 86_400);
    integrate_due_events(&restored, &mut cursor, true);
    let restored_images: Vec<VmImageId> = restored.images().iter().map(|i| i.id).collect();
    let total_post = run_era(
        &restored,
        &restored_images,
        repetitions,
        workers,
        scale,
        "post-restore",
    );
    let chain = restored.chain_memo_stats();
    let output = restored.output_memo_stats();
    assert!(
        chain.hits > 0 && output.hits > 0,
        "the first post-restore campaign must replay warm cells: {chain:?} {output:?}"
    );
    println!(
        "\nwarm replay verified: {} chain / {} output / {} build memo hits after restore",
        chain.hits,
        output.hits,
        restored.build_memo_stats().hits
    );

    // ---- corruption is never trusted ------------------------------------
    let warm_path = dir.join(sp_core::WARM_STATE_FILE);
    let mut bytes = std::fs::read(&warm_path).expect("warm state on medium");
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0xff;
    let skeptic = SpSystem::new();
    skeptic
        .storage()
        .import_from_dir(&dir)
        .expect("objects import");
    match skeptic.import_warm_state(&bytes) {
        Ok(report) => {
            assert!(
                report.snapshot.entries_dropped + report.entries_rejected > 0,
                "a flipped byte must invalidate at least one entry"
            );
            println!(
                "corruption check: flipped byte {victim} -> {} entries dropped, {} rejected, rest loaded",
                report.snapshot.entries_dropped, report.entries_rejected
            );
        }
        Err(error) => {
            println!("corruption check: flipped byte {victim} -> load aborted ({error})");
        }
    }

    // ---- run out the timeline -------------------------------------------
    restored.clock().advance_to(year_to_unix(2021));
    println!("\nrunning out the timeline to 2021:");
    integrate_due_events(&restored, &mut cursor, true);
    let final_prune = restored.prune_runs(&policy);
    println!(
        "final retention pass: kept {}, dropped {}, {} objects freed",
        final_prune.kept, final_prune.dropped, final_prune.objects_removed
    );
    println!(
        "\nlong haul complete: {} runs in 2013, {} in 2014, {} post-restore; \
         storage holds {} objects",
        total_2013,
        total_2014,
        total_post,
        restored.storage().content().len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
