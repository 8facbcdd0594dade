//! A reduced HERA campaign: all three experiments across the five paper
//! configurations, with the Figure-3 matrix on stdout and the script-based
//! web pages written to `target/sp-site/`.
//!
//! ```text
//! cargo run --release --example hera_summary
//! ```

use std::fs;
use std::path::Path;

use sp_system::core::{Campaign, CampaignConfig, CampaignOptions, RunConfig, SpSystem};
use sp_system::env::catalog;
use sp_system::report::summary::{campaign_json, render_stats};
use sp_system::report::{matrix_page, render_matrix, run_index_page, run_page};

fn main() {
    let system = SpSystem::new();
    for spec in catalog::paper_images() {
        system.register_image(spec).expect("coherent image");
    }
    for experiment in sp_system::experiments::hera_experiments() {
        system
            .register_experiment(experiment)
            .expect("coherent experiment");
    }

    let config = CampaignConfig {
        experiments: vec!["zeus".into(), "h1".into(), "hermes".into()],
        images: system.images().iter().map(|i| i.id).collect(),
        repetitions: 2,
        run: RunConfig {
            scale: 0.2,
            threads: 4,
            ..RunConfig::default()
        },
        interval_secs: 86_400,
        options: CampaignOptions::default(),
    };
    println!("running {} validation runs ...\n", config.total_runs());
    let summary = Campaign::new(&system, config)
        .execute()
        .expect("campaign executes");

    println!(
        "{}",
        render_matrix(&system, &summary, &["zeus", "h1", "hermes"])
    );
    println!("{}", render_stats(&summary));

    // The script-based web pages of §3.3.
    let site = Path::new("target/sp-site");
    fs::create_dir_all(site).expect("site directory");
    let runs = system.ledger().runs();
    fs::write(site.join("index.html"), run_index_page(&runs)).expect("index page");
    for run in &runs {
        fs::write(site.join(format!("{}.html", run.id)), run_page(run)).expect("run page");
    }
    fs::write(
        site.join("summary.html"),
        matrix_page(&system, &summary, &["zeus", "h1", "hermes"]),
    )
    .expect("matrix page");
    fs::write(site.join("campaign.json"), campaign_json(&summary).render()).expect("json export");
    // Materialise the output objects so every link on the run pages
    // resolves ("all output files are kept").
    let export = system.storage().export_to_dir(site).expect("object export");
    println!(
        "wrote {} web pages, campaign.json and {} new output objects to {}",
        runs.len() + 2,
        export.objects_written,
        site.display()
    );
}
