//! `fleet-drain`: `nproc` in-process fleet workers drain a backlog of
//! single-cell campaigns from one durable `WorkQueue` directory, appending
//! every cell to the SPRL run log, all through the metered filesystem.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sp_core::fleet::encode_campaign_report;
use sp_core::{
    fleet_stats, run_log_cells, Campaign, CampaignConfig, CampaignOptions, CampaignReport,
    Coordinator, ExperimentDef, FleetTicket, RunConfig, SpSystem, Worker, WorkerStats,
};
use sp_env::VmImageId;
use sp_store::{QueueStats, RunLog, StoreFs, SystemTimeSource, WorkQueue};

use crate::grid::deployment;
use crate::meter::{MeterSnapshot, MeteredFs, SUBDIRS};
use crate::table::LayerTable;
use crate::util::{median, ms_since, nproc, peak_rss_mb, quantile, sorted, Metrics, Rng};
use crate::{Args, Outcome};

const SCALE: f64 = 0.05;
/// Far longer than any campaign here: a lease that lapses would show up
/// as a reclaim, which the output check counts as an error.
const LEASE_SECS: u64 = 300;
/// Backlog campaigns per second of `--seconds`, sized so the drains on a
/// 2-core host last about as long as the requested run.
const CAMPAIGNS_PER_SECOND: f64 = 160.0;
/// Campaigns per nightly backlog: the 315 runs of Figure 3 (3 experiments
/// × 5 images × 21 nightly passes), each submitted as its own single-cell
/// campaign. Every claim scans the queue directories, so the per-campaign
/// cost grows with this depth; it is the same on every night, run and
/// commit. Each night sets up its own queue and deployments, so memory
/// stays bounded by one night's work.
const NIGHTLY_BACKLOG: usize = 315;

/// A backlog's queue directory and the coordinator side that submits it.
struct Backlog {
    dir: PathBuf,
    meter: Arc<MeteredFs>,
    coordinator_system: SpSystem,
    queue: WorkQueue,
    /// The renamed experiment of each campaign, in submission order.
    defs: Vec<ExperimentDef>,
    configs: Vec<CampaignConfig>,
    registration_ms: f64,
}

/// The workers that drain one backlog: each its own deployment, queue
/// handle and run-log handle over the shared directory.
struct Workers {
    systems: Vec<SpSystem>,
    queues: Vec<WorkQueue>,
    logs: Vec<RunLog>,
}

/// One renamed copy of a HERA experiment per campaign (the coordinator
/// admits only experiment-disjoint submissions), rotating through the
/// experiments and the images from a seeded offset. Returns each copy with
/// its image index.
fn renamed_experiments(count: usize, rng: &mut Rng) -> Vec<(ExperimentDef, usize)> {
    let base = sp_experiments::hera_experiments();
    let offset = rng.below(15) as usize;
    (0..count)
        .map(|i| {
            let k = i + offset;
            let mut def = base[k % base.len()].clone();
            def.name = format!("{}-{i:05}", def.name);
            (def, k % 5)
        })
        .collect()
}

fn campaign(experiment: &str, image: VmImageId, seed: u64) -> CampaignConfig {
    CampaignConfig {
        experiments: vec![experiment.to_string()],
        images: vec![image],
        repetitions: 1,
        run: RunConfig {
            seed,
            scale: SCALE,
            threads: 1,
            description: String::new(),
            memoize: true,
        },
        interval_secs: 86_400,
        options: CampaignOptions::memoized(),
    }
}

fn open_queue(dir: &Path, meter: &Arc<MeteredFs>) -> Result<WorkQueue, String> {
    let fs: Arc<dyn StoreFs> = meter.clone();
    WorkQueue::open_with(dir, LEASE_SECS, Arc::new(SystemTimeSource), fs)
        .map_err(|e| format!("open queue {}: {e}", dir.display()))
}

fn prepare(
    args: &Args,
    night: usize,
    workers: usize,
    detailed: bool,
) -> Result<(Backlog, Workers), String> {
    let dir = args
        .work
        .join(format!("fleet-{}-{night}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let meter = Arc::new(MeteredFs::new(&dir, detailed));
    let mut rng = Rng::new(args.seed ^ (0xf1ee7 + night as u64));
    let (defs, image_indices): (Vec<ExperimentDef>, Vec<usize>) =
        renamed_experiments(NIGHTLY_BACKLOG, &mut rng)
            .into_iter()
            .unzip();

    let (coordinator_system, images, mut registration_ms) = deployment(&defs)?;
    let mut pool = Workers {
        systems: Vec::new(),
        queues: Vec::new(),
        logs: Vec::new(),
    };
    for _ in 0..workers {
        let (system, _, ms) = deployment(&defs)?;
        registration_ms += ms;
        pool.systems.push(system);
        pool.queues.push(open_queue(&dir, &meter)?);
        let fs: Arc<dyn StoreFs> = meter.clone();
        pool.logs.push(
            RunLog::open_with(&dir.join(sp_store::run_log::RUN_LOG_DIR), fs)
                .map_err(|e| e.to_string())?,
        );
    }
    let queue = open_queue(&dir, &meter)?;
    let seed = args.run_seed();
    let configs = defs
        .iter()
        .zip(&image_indices)
        .map(|(def, image)| campaign(&def.name, images[*image], seed))
        .collect();
    let backlog = Backlog {
        dir,
        meter,
        coordinator_system,
        queue,
        defs,
        configs,
        registration_ms,
    };
    Ok((backlog, pool))
}

/// Enqueues the backlog: one durable submission per campaign.
fn submit(backlog: &Backlog) -> Result<(Coordinator<'_>, Vec<FleetTicket>), String> {
    let mut coordinator = Coordinator::new(&backlog.coordinator_system, &backlog.queue);
    let mut tickets = Vec::new();
    for config in &backlog.configs {
        tickets.push(
            coordinator
                .submit(config.clone())
                .map_err(|e| format!("submit: {e}"))?,
        );
    }
    Ok((coordinator, tickets))
}

/// What one timed drain produced.
struct Drain {
    wall_ms: f64,
    stats: Vec<WorkerStats>,
    fs: MeterSnapshot,
    /// (hits, misses) of the chain and build memos during the drain.
    memo: [(u64, u64); 2],
}

/// Drains the backlog with every worker on its own thread; the workers'
/// deployments are dropped when it returns.
fn drain(pool: Workers, meter: &MeteredFs) -> Result<Drain, String> {
    let Workers {
        systems,
        queues,
        logs,
    } = pool;
    let memo_before = memo_totals(&systems);
    let fs_before = meter.snapshot();
    let start = Instant::now();
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .into_iter()
            .enumerate()
            .map(|(w, log)| {
                let system = &systems[w];
                let queue = &queues[w];
                scope.spawn(move || {
                    Worker::new(system, queue, format!("w{w}"), 1)
                        .with_run_log(log)
                        .drain()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "worker thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_ms = ms_since(start);
    let fs = meter.snapshot().since(&fs_before);
    let memo_after = memo_totals(&systems);
    let memo = [0, 1].map(|i| {
        (
            memo_after[i].0 - memo_before[i].0,
            memo_after[i].1 - memo_before[i].1,
        )
    });
    Ok(Drain {
        wall_ms,
        stats,
        fs,
        memo,
    })
}

/// (hits, misses) of the chain and build memos, summed over workers.
fn memo_totals(systems: &[SpSystem]) -> [(u64, u64); 2] {
    let mut out = [(0, 0); 2];
    for system in systems {
        for (i, s) in [system.chain_memo_stats(), system.build_memo_stats()]
            .iter()
            .enumerate()
        {
            out[i].0 += s.hits;
            out[i].1 += s.misses;
        }
    }
    out
}

/// What the output check needs of a drained night, read right after its
/// drain. The check itself runs after the last night's drain, so neither
/// its oracles nor its run-log rebuild count into the peak resident set.
struct Drained {
    dir: PathBuf,
    defs: Vec<ExperimentDef>,
    configs: Vec<CampaignConfig>,
    seqs: Vec<u64>,
    /// The coordinator's collected reports, in submission order.
    reports: Vec<Option<CampaignReport>>,
    /// The stored report bytes, in submission order.
    stored: Vec<Option<Vec<u8>>>,
    queue: QueueStats,
}

/// Output check: every stored report byte-identical to its solo oracle,
/// the run log replaying to the reports, and no reclaim, poison or
/// quarantine. Returns the number of failed campaigns plus faults.
fn check(night: &Drained, workers: usize) -> Result<u64, String> {
    let count = night.seqs.len();
    let mut failed = vec![false; count];

    // Solo oracles, split across `workers` threads: each campaign alone on
    // a fresh deployment with its run-id cursor at the carved base.
    let oracle_bytes: Vec<Option<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                scope.spawn(move || {
                    (t..count)
                        .step_by(workers)
                        .map(|i| (i, solo_oracle(night, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<Option<Vec<u8>>> = vec![None; count];
        for handle in handles {
            for (i, bytes) in handle.join().expect("oracle thread panicked") {
                all[i] = bytes;
            }
        }
        all
    });
    for (i, stored) in night.stored.iter().enumerate() {
        if stored.is_none() || *stored != oracle_bytes[i] {
            failed[i] = true;
        }
    }

    // The run log must replay to exactly the reports' cells.
    let log =
        RunLog::open(&night.dir.join(sp_store::run_log::RUN_LOG_DIR)).map_err(|e| e.to_string())?;
    let history = sp_obs::RunHistory::rebuild(&log);
    let logged: std::collections::BTreeMap<(u64, u64), &sp_store::CellRecord> = history
        .records()
        .iter()
        .map(|(_, r)| ((r.campaign, r.run_id), r))
        .collect();
    for (i, seq) in night.seqs.iter().enumerate() {
        let Some(report) = &night.reports[i] else {
            failed[i] = true;
            continue;
        };
        for cell in run_log_cells(*seq, report, "", 0) {
            let ok = logged.get(&(cell.campaign, cell.run_id)).is_some_and(|r| {
                r.experiment == cell.experiment
                    && r.image_label == cell.image_label
                    && r.repetition == cell.repetition
                    && r.status == cell.status
                    && r.passed == cell.passed
                    && r.failed == cell.failed
                    && r.skipped == cell.skipped
                    && r.timestamp == cell.timestamp
                    && !r.worker.is_empty()
            });
            if !ok {
                failed[i] = true;
            }
        }
    }
    let stats = &night.queue;
    let corrupt = history.summary().corrupt_dropped;
    let faults = (stats.reclaims + stats.poisoned + stats.quarantined + corrupt) as u64;
    if faults > 0 {
        eprintln!(
            "fleet faults: {} reclaims, {} poisoned, {} quarantined, {corrupt} corrupt log records",
            stats.reclaims, stats.poisoned, stats.quarantined
        );
    }
    Ok(failed.iter().filter(|f| **f).count() as u64 + faults)
}

/// The report bytes a solo run of campaign `i` stores.
fn solo_oracle(night: &Drained, i: usize) -> Option<Vec<u8>> {
    let collected = night.reports[i].as_ref()?;
    let (system, _, _) = deployment(std::slice::from_ref(&night.defs[i])).ok()?;
    system.advance_run_ids_past(collected.summary.runs.first()?.id.0);
    let summary = Campaign::new(&system, night.configs[i].clone())
        .execute()
        .ok()?;
    Some(encode_campaign_report(&CampaignReport {
        ticket: collected.ticket,
        summary,
        completed_repetitions: 1,
        cancelled: false,
    }))
}

/// Aggregates over the nights of one phase (untraced or traced).
#[derive(Default)]
struct Phase {
    campaigns: u64,
    wall_ms: f64,
    /// Campaigns per second of each night's drain.
    nightly_rate: Vec<f64>,
    latency_ms: Vec<f64>,
    fs: MeterSnapshot,
    stats: Vec<WorkerStats>,
    memo: [(u64, u64); 2],
    leases_issued: u64,
    reclaims: u64,
    publish_batches: u64,
    idle_polls: u64,
    lanes_executed: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Queue directories are removed when the run ends, not between nights,
    // so no night's drain overlaps the filesystem work of deleting the last.
    let mut dirs = Vec::new();
    let result = run_nights(args, &mut dirs);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn run_nights(args: &Args, dirs: &mut Vec<PathBuf>) -> Result<Outcome, String> {
    let workers = nproc();
    let campaigns = (CAMPAIGNS_PER_SECOND * args.seconds).round();
    // A traced run needs an even number of nights, half untraced and half
    // traced.
    let mut nights = (campaigns / NIGHTLY_BACKLOG as f64).round().max(1.0) as usize;
    if args.trace {
        nights = nights.div_ceil(2) * 2;
    }

    // Night after night: set up a fresh queue and deployments, drain the
    // night's backlog (timed), keep what the output check needs. A traced
    // run meters its second half of the nights in detail.
    let mut setup_s = Vec::new();
    let mut registration_ms = Vec::new();
    let mut phases = [Phase::default(), Phase::default()];
    let mut peak_rss = 0.0f64;
    let mut drained_nights = Vec::new();
    for night in 0..nights {
        let traced = args.trace && night >= nights / 2;
        let start = Instant::now();
        let (backlog, pool) = prepare(args, night, workers, traced)?;
        dirs.push(backlog.dir.clone());
        let (coordinator, tickets) = submit(&backlog)?;
        setup_s.push(start.elapsed().as_secs_f64());
        registration_ms.push(backlog.registration_ms);

        let drained = drain(pool, &backlog.meter)?;
        peak_rss = peak_rss.max(peak_rss_mb());
        let fleet = fleet_stats(&backlog.queue);
        let reports = coordinator.collect();
        let seqs: Vec<u64> = tickets.iter().map(|t| t.seq()).collect();
        let stored = seqs.iter().map(|seq| backlog.queue.report(*seq)).collect();
        drop(coordinator);
        drained_nights.push(Drained {
            dir: backlog.dir,
            defs: backlog.defs,
            configs: backlog.configs,
            seqs,
            reports,
            stored,
            queue: fleet.queue,
        });
        let phase = &mut phases[usize::from(traced)];
        phase.campaigns += tickets.len() as u64;
        phase.wall_ms += drained.wall_ms;
        phase
            .nightly_rate
            .push(tickets.len() as f64 / (drained.wall_ms / 1e3).max(1e-9));
        phase.latency_ms.extend(drained.fs.claim_to_report_ms());
        phase.fs.merge(&drained.fs);
        phase.stats.extend(drained.stats);
        for i in 0..2 {
            phase.memo[i].0 += drained.memo[i].0;
            phase.memo[i].1 += drained.memo[i].1;
        }
        phase.leases_issued += fleet.queue.leases_issued as u64;
        phase.reclaims += fleet.queue.reclaims as u64;
        phase.publish_batches += fleet.drained.publish_batches;
        phase.idle_polls += fleet.drained.poll.idle;
        phase.lanes_executed += fleet.drained.sched.lanes_executed;
    }

    let attempted = (nights * NIGHTLY_BACKLOG) as u64;
    let mut failed = 0;
    for night in &drained_nights {
        failed += check(night, workers)?;
    }

    let mut out = Outcome::new(attempted, failed);
    out.threads = vec![
        ("fleet_workers", workers),
        ("worker_scheduler_threads", 1),
        ("run_config_threads", 1),
    ];
    let untraced = &phases[0];
    let n = untraced.campaigns as f64;
    let campaigns_per_s = median(&untraced.nightly_rate);
    let latency = sorted(&untraced.latency_ms);
    if latency.is_empty() {
        return Err("no lease-claim/report pair observed".into());
    }
    out.line(format!(
        "{n} campaigns in {} nights, {workers} workers: campaigns_per_s {:.1}, claim->report p50 {:.2} ms p95 {:.2} ms, setup_s {:.3}, error_rate {:.4}",
        untraced.nightly_rate.len(),
        campaigns_per_s,
        quantile(&latency, 0.5),
        quantile(&latency, 0.95),
        median(&setup_s),
        failed as f64 / attempted.max(1) as f64,
    ));
    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s), "s");
        m.set("throughput_per_s", campaigns_per_s, "1/s");
        m.set("latency_p50_ms", quantile(&latency, 0.5), "ms");
        m.set("latency_p95_ms", quantile(&latency, 0.95), "ms");
        m.set("peak_rss_mb", peak_rss, "MB");
        return Ok(out);
    }

    // Per-layer view of the traced nights.
    let traced = &phases[1];
    let n = traced.campaigns as f64;
    let fs = &traced.fs;
    let m = &mut out.metrics;
    vfs_metrics(m, fs, Some(n));
    m.set(
        "store.wq.leases_issued",
        traced.leases_issued as f64,
        "count",
    );
    m.set("store.wq.reclaims", traced.reclaims as f64, "count");
    m.set(
        "fleet.publish_batches",
        traced.publish_batches as f64,
        "count",
    );
    m.set("exec.poll.idle_polls", traced.idle_polls as f64, "count");
    m.set(
        "exec.sched.lanes_executed",
        traced.lanes_executed as f64,
        "count",
    );
    let (chain, build) = (traced.memo[0], traced.memo[1]);
    m.set(
        "store.memo.chain_hit_ratio",
        chain.0 as f64 / ((chain.0 + chain.1) as f64).max(1.0),
        "ratio",
    );
    m.set(
        "store.memo.build_hit_ratio",
        build.0 as f64 / ((build.0 + build.1) as f64).max(1.0),
        "ratio",
    );
    let (probe_system, images, _) = deployment(&sp_experiments::hera_experiments())?;
    let experiments: Vec<String> = ["zeus", "h1", "hermes"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let costs = crate::probes::probe(&probe_system, &experiments, &images, SCALE, args.run_seed());
    costs.record(m, chain.1, build.1);
    m.set("env.image_build_ms", median(&registration_ms), "ms");

    // Worker time (wall × workers) split by filesystem operation; the
    // remainder is execution and everything else not metered.
    let mut table = LayerTable::new(&args.workload, traced.wall_ms, workers);
    for (op, label) in [
        ("write", "vfs.write"),
        ("sync_file", "vfs.sync_file (fsync)"),
        ("sync_dir", "vfs.sync_dir (dir fsync)"),
        ("read", "vfs.read"),
        ("read_dir", "vfs.read_dir"),
        ("hard_link", "vfs.hard_link"),
        ("rename", "vfs.rename"),
        ("remove_file", "vfs.remove_file"),
        ("create_dir_all", "vfs.create_dir_all"),
    ] {
        let s = fs.op(op);
        table.total(label, s.count, s.ns as f64 / 1e6, true);
    }
    let slept: f64 = traced
        .stats
        .iter()
        .map(|s| s.poll.slept.as_secs_f64() * 1e3)
        .sum();
    table.total(
        "exec.poll (idle backoff sleep)",
        traced.idle_polls,
        slept,
        true,
    );
    table.samples(
        "fleet.campaign (lease claim -> report)",
        &traced.latency_ms,
        false,
    );
    table.estimate("hep.chain", chain.1, costs.chain_ms_per_chain());
    table.estimate("build.stack", build.1, costs.build_ms_per_build());
    out.line(table.render(untraced.wall_ms));
    Ok(out)
}

/// `vfs.*` metrics of one metered interval; per-campaign rates when the
/// interval drained `campaigns` campaigns.
pub fn vfs_metrics(m: &mut Metrics, fs: &MeterSnapshot, campaigns: Option<f64>) {
    let fsync_ms: Vec<f64> = fs.fsync_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    let fsync_sorted = sorted(&fsync_ms);
    m.set("vfs.fsync_ms.p50", quantile(&fsync_sorted, 0.5), "ms");
    m.set("vfs.fsync_ms.p99", quantile(&fsync_sorted, 0.99), "ms");
    m.set("vfs.reads", fs.op("read").count as f64, "count");
    m.set("vfs.dir_lists", fs.op("read_dir").count as f64, "count");
    if let Some(n) = campaigns {
        m.set("vfs.fsyncs_per_campaign", fs.fsyncs() as f64 / n, "count");
        m.set(
            "vfs.bytes_written_per_campaign",
            fs.op("write").bytes as f64 / n,
            "B",
        );
        m.set(
            "vfs.reads_per_campaign",
            fs.op("read").count as f64 / n,
            "count",
        );
        m.set(
            "vfs.dir_lists_per_campaign",
            fs.op("read_dir").count as f64 / n,
            "count",
        );
    }
    for sub in SUBDIRS {
        let fsyncs = fs.op_in("sync_file", sub).count + fs.op_in("sync_dir", sub).count;
        m.set(format!("vfs.{sub}.fsyncs"), fsyncs as f64, "count");
        m.set(
            format!("vfs.{sub}.bytes_written"),
            fs.op_in("write", sub).bytes as f64,
            "B",
        );
        m.set(
            format!("vfs.{sub}.reads"),
            fs.op_in("read", sub).count as f64,
            "count",
        );
        m.set(
            format!("vfs.{sub}.dir_lists"),
            fs.op_in("read_dir", sub).count as f64,
            "count",
        );
    }
}
