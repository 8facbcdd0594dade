//! Regenerates **Figure 3** of the paper: the summary matrix of the
//! validation tests carried out by the HERA experiments within the
//! sp-system — ZEUS (orange, top), H1 (blue, middle) and HERMES (red,
//! bottom) process groups against the five §3.1 configurations of operating
//! system, compiler and external dependencies, after the paper's ">300
//! runs".
//!
//! The >300-run campaign executes on the sharded `CampaignScheduler` (one
//! work-stealing lane per experiment, batched ledger commits) with run
//! memoization on: after the first nightly pass every (experiment, image,
//! test) cell is unchanged, so later passes replay conserved outputs
//! digest-first instead of re-running the chains — pass `--no-memoize` to
//! force full re-execution of all 21 passes. Pass `--compare` to also
//! replay the campaign on the sequential `Campaign` oracle (uncached) and
//! verify the summaries are identical while reporting the speedup and the
//! verdict and digest memos' hits and misses; a memoized campaign that
//! served no verdict from the memo, or a campaign that served no run
//! digest, exits non-zero.
//!
//! Expected shape (§3.3): the SL5 columns validate cleanly, while the
//! 64-bit columns surface the latent pointer bugs in the H1 and ZEUS stacks
//! ("already identified and helped to solve several long-standing bugs");
//! HERMES stays green throughout.
//!
//! ```text
//! cargo run --release -p sp-bench --bin repro-figure3 \
//!     [--scale 0.3] [--workers 4] [--compare] [--no-memoize]
//! ```

use sp_bench::{desy_deployment, repro_run_config, scale_from_args};
use sp_core::{
    Campaign, CampaignConfig, CampaignOptions, CampaignScheduler, CampaignSummary, SpSystem,
};
use sp_env::{catalog, Arch, VmImageId};
use sp_report::render_matrix;
use sp_report::summary::render_stats;

/// Runs one campaign on the sharded, work-stealing scheduler.
fn execute_sharded(system: &SpSystem, config: CampaignConfig, workers: usize) -> CampaignSummary {
    let mut scheduler = CampaignScheduler::new(system, workers);
    scheduler
        .submit(config)
        .expect("campaign over registered names");
    scheduler
        .execute()
        .expect("sharded campaign")
        .remove(0)
        .summary
}

/// The deployment plus the external-dependency image axis: one SL5/32bit
/// gcc4.4 image per ROOT version, plus the SL6-devtoolset ROOT 6 probe.
fn deployment_with_root_axis() -> (SpSystem, Vec<VmImageId>, Vec<VmImageId>) {
    let system = desy_deployment();
    let mut root_axis = Vec::new();
    for version in catalog::paper_root_versions() {
        let id = system
            .register_image(catalog::sl5_gcc44(Arch::I686, version))
            .expect("coherent image");
        root_axis.push(id);
    }
    root_axis.push(
        system
            .register_image(catalog::sl6_devtoolset_root6())
            .expect("coherent image"),
    );
    let paper_image_ids: Vec<VmImageId> = system
        .images()
        .iter()
        .map(|i| i.id)
        .filter(|id| !root_axis.contains(id))
        .collect();
    (system, paper_image_ids, root_axis)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn workers_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--workers")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

fn main() {
    let scale = scale_from_args(0.3);
    let workers = workers_from_args();
    let memoize = !flag("--no-memoize");
    let (system, paper_image_ids, root_axis) = deployment_with_root_axis();

    // 3 experiments x 5 images x 21 nightly passes = 315 runs (">300").
    let grid = |images: Vec<VmImageId>, repetitions: usize, memoize: bool| CampaignConfig {
        experiments: vec!["zeus".into(), "h1".into(), "hermes".into()],
        images,
        repetitions,
        run: repro_run_config(scale),
        interval_secs: 86_400,
        options: CampaignOptions {
            memoize,
            ..CampaignOptions::default()
        },
    };
    let config = grid(paper_image_ids.clone(), 21, memoize);
    let planned = config.total_runs();
    eprintln!(
        "running {planned} validation runs (scale {scale}, {workers} workers, memoize {memoize}) ..."
    );
    let started = std::time::Instant::now();
    let summary = execute_sharded(&system, config, workers);
    let parallel_elapsed = started.elapsed();
    eprintln!("campaign finished in {parallel_elapsed:.1?}\n");

    if flag("--compare") {
        // Replay the identical campaign sequentially — and uncached — on a
        // fresh, identical system: the reference oracle must agree
        // cell-for-cell, proving memoized replay changes nothing.
        let (oracle_system, oracle_images, _) = deployment_with_root_axis();
        let oracle_config = grid(oracle_images, 21, false);
        eprintln!("replaying {planned} runs on the uncached sequential oracle ...");
        let started = std::time::Instant::now();
        let oracle: CampaignSummary = Campaign::new(&oracle_system, oracle_config)
            .execute()
            .expect("sequential oracle campaign");
        let sequential_elapsed = started.elapsed();
        assert_eq!(
            summary, oracle,
            "engine summary must be byte-identical to the sequential oracle"
        );
        let verdicts = system.verdict_memo_stats();
        let digests = system.digest_memo_stats();
        eprintln!(
            "oracle finished in {sequential_elapsed:.1?}; summaries identical \
             (verdict memo: {} hits, {} misses; digest memo: {} hits, {} misses); \
             speedup {:.2}x with {workers} workers\n",
            verdicts.hits,
            verdicts.misses,
            digests.hits,
            digests.misses,
            sequential_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9)
        );
        // Every later pass repeats the 64-bit columns' failing comparisons
        // against the same references: a memoized campaign that served none
        // of them bypassed the verdict memo.
        if memoize && verdicts.hits == 0 {
            eprintln!("error: the memoized campaign served no verdict from the memo");
            std::process::exit(1);
        }
        // Every later pass repeats its cells' results, so each of them is
        // served the digest its cell's last run hashed.
        if digests.hits == 0 {
            eprintln!("error: the campaign served no run digest from the memo");
            std::process::exit(1);
        }
    }

    println!(
        "Figure 3. A summary of the validation tests carried out by the HERA\n\
         experiments within the sp-system at DESY ({} runs).\n",
        summary.total_runs()
    );
    println!(
        "{}",
        render_matrix(&system, &summary, &["zeus", "h1", "hermes"])
    );
    println!("\nPer-experiment campaign statistics:\n");
    println!("{}", render_stats(&summary));
    println!(
        "Paper claim: \"In total more than 300 runs over sets of pre-defined tests\n\
         have been performed within the sp-system by the HERA experiments.\"\n\
         This campaign: {} runs.\n",
        summary.total_runs()
    );

    // ---- Figure 3, external-dependency axis -----------------------------
    let ext_config = grid(root_axis, 1, memoize);
    eprintln!(
        "running {} external-dependency runs ...",
        ext_config.total_runs()
    );
    let ext_summary = execute_sharded(&system, ext_config, workers);
    println!(
        "Figure 3 (external-dependency axis): the same processes against the\n\
         installed ROOT series on SL5/32bit gcc4.4, plus the ROOT 6 probe\n\
         (SL6 + gcc 4.7 devtoolset).\n"
    );
    println!(
        "{}",
        render_matrix(&system, &ext_summary, &["zeus", "h1", "hermes"])
    );
    println!(
        "Shape check: every ROOT 5.x column validates identically (the\n\
         experiments code against API level 5); the ROOT 6 column breaks the\n\
         CINT-era analysis layers of all three experiments."
    );
}
