//! The sp-system benchmark: four validation workloads, end-to-end metrics,
//! and an outside-in per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nightly-warm|cold-grid|fleet-drain|history-query> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, and a per-layer table is
//! printed above it. See `perfbench/README.md` for what each workload and
//! metric is for.

mod fleet;
mod grid;
mod history;
mod hook;
mod meter;
mod probes;
mod table;
mod util;

use std::path::PathBuf;

use util::{host_facts, Metrics};

/// End-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for queues, logs and trace files (inside the
    /// checkout, removed per run except for trace files).
    pub work: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<String, String> {
            argv.windows(2)
                .find(|w| w[0] == flag)
                .map(|w| w[1].clone())
                .ok_or_else(|| format!("missing {flag}"))
        };
        let workload = value("--workload")?;
        let seed = value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match value("--trace").as_deref() {
            Ok("0") | Err(_) => false,
            Ok("1") => true,
            Ok(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            work: PathBuf::from(".perfbench-work"),
        })
    }

    /// The campaign seed the program receives, derived from `--seed`.
    pub fn run_seed(&self) -> u64 {
        util::Rng::new(self.seed).next_u64()
    }
}

/// What a workload reports back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub threads: Vec<(&'static str, usize)>,
    lines: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Metrics::default(),
            threads: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// A human-readable line printed above the result.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "nightly-warm" => grid::run(args, true),
        "cold-grid" => grid::run(args, false),
        "fleet-drain" => fleet::run(args),
        "history-query" => history::run(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {error}", args.work.display());
        std::process::exit(1);
    }
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {}: {error}", args.workload);
            std::process::exit(1);
        }
    };

    // Every workload reports the same metric names; a layer the workload
    // does not exercise reads 0.
    if args.trace {
        for (name, unit) in per_layer_names() {
            if !outcome.metrics.iter().any(|(n, _)| *n == name) {
                outcome.metrics.set(name, 0.0, unit);
            }
        }
    } else {
        for (name, _) in END_TO_END {
            if !outcome.metrics.iter().any(|(n, _)| n == name) {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        }
    }

    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "host: {}",
        host_facts(&args.workload, args.seed, &outcome.threads)
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
}

/// Every per-layer metric name with its unit (`--trace 1`).
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("exec.sched.worker_busy_ratio", "ratio"),
        ("exec.pool.batches", "count"),
        ("exec.pool.tasks_stolen", "count"),
        ("exec.sched.lanes_executed", "count"),
        ("exec.poll.idle_polls", "count"),
        ("core.run_ms.p50", "ms"),
        ("core.run_ms.p99", "ms"),
        ("core.barrier_ms.p50", "ms"),
        ("core.barrier_ms.p99", "ms"),
        ("core.compare_deep_us", "us"),
        ("core.compare_digest_first_us", "us"),
        ("store.memo.chain_hit_ratio", "ratio"),
        ("store.memo.output_hit_ratio", "ratio"),
        ("store.memo.build_hit_ratio", "ratio"),
        ("store.sha256_mb_per_s", "MB/s"),
        ("store.wq.leases_issued", "count"),
        ("store.wq.reclaims", "count"),
        ("store.run_log.replay_ms", "ms"),
        ("fleet.publish_batches", "count"),
        ("hep.events", "count"),
        ("hep.chain_ms", "ms"),
        ("hep.mcgen_ns_per_event", "ns"),
        ("hep.detsim_ns_per_event", "ns"),
        ("hep.reco_ns_per_event", "ns"),
        ("hep.dst_ms", "ms"),
        ("build.stack_ms", "ms"),
        ("vfs.fsyncs_per_campaign", "count"),
        ("vfs.bytes_written_per_campaign", "B"),
        ("vfs.reads_per_campaign", "count"),
        ("vfs.dir_lists_per_campaign", "count"),
        ("vfs.fsync_ms.p50", "ms"),
        ("vfs.fsync_ms.p99", "ms"),
        ("vfs.reads", "count"),
        ("vfs.dir_lists", "count"),
        ("obs.rebuild_ms", "ms"),
        ("obs.warm_open_ms", "ms"),
        ("obs.index_build_ms", "ms"),
        ("report.history_render_ms", "ms"),
        ("env.image_build_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for kind in history::QUERY_KINDS {
        names.push((format!("obs.query_us.{kind}"), "us"));
    }
    for sub in meter::SUBDIRS {
        for (op, unit) in [
            ("fsyncs", "count"),
            ("bytes_written", "B"),
            ("reads", "count"),
            ("dir_lists", "count"),
        ] {
            names.push((format!("vfs.{sub}.{op}"), unit));
        }
    }
    names
}
