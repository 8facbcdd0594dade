//! Multi-process fleet reproduction: the paper's deployment shape.
//!
//! The sp-system did not run on one machine — a central backlog was
//! drained by many client machines pulling work through the common
//! storage (§3.1). This driver reproduces that shape with **real OS
//! processes**: the parent enqueues one campaign per HERA experiment onto
//! a durable `sp_store::WorkQueue` directory, then re-executes itself
//! (`--worker`) N times; each child builds its own `SpSystem` from code,
//! leases work, executes it, and publishes reports back through the
//! directory. The parent then proves every collected report byte-identical
//! to its solo single-process oracle.
//!
//! Scenarios:
//!
//! 1. **drain sweep** — the same backlog drained by 1 vs 2 vs 4 worker
//!    processes (wall-clock timed, fleet digest rendered);
//! 2. **crash recovery** — two workers, short leases; one worker claims a
//!    lease and *stalls* (execution and heartbeat both stop), and is
//!    killed mid-stall. Its lease expires, the survivor re-leases the
//!    work under the next fencing generation, and the reports still match
//!    the oracles bit for bit;
//! 3. **slow worker** — leases **shorter than one campaign's wall time**,
//!    workers slowed at every repetition barrier (`--slow-ms`, execution
//!    slow but alive). Mid-flight renewal through the scheduler's
//!    progress hook must carry each lease across the whole campaign:
//!    zero reclaims, zero redone repetitions, byte-identical reports;
//! 4. **io-fault** — every worker's queue I/O runs through a seeded
//!    `sp_store::FaultFs` injecting transient faults at `--io-fault-rate`
//!    (a flaky disk on every client machine). The drain must degrade to
//!    bounded retries: reports byte-identical to the oracles, zero
//!    poisoned submissions, zero quarantined records;
//! 5. **crash-point sweep** — `sp_store::vfs::standard_crash_sweep`:
//!    power loss replayed at *every* filesystem operation of the path
//!    workers run — the queue's batched claim, the run-log append of the
//!    claimed cells, the batched publish — plus a warm-state snapshot;
//!    recovery verified to observe only committed-before or
//!    never-happened states, in the queue and the run history alike.
//!
//! The stall/slow distinction is the heart of the liveness contract: a
//! stalled worker stops heartbeating and is rightly fenced away; a slow
//! worker keeps heartbeating and is never fenced, however long it takes.
//!
//! Every worker also appends each executed cell to the shared durable
//! SPRL run log (`<dir>/runlog/`) *before* publishing its campaign
//! report; after every scenario the parent replays the log and proves it
//! equal to the collected reports. The chaos scenarios (kill, io-fault)
//! additionally dump each worker's metrics snapshot on exit.
//!
//! Exit code is non-zero on any report divergence, missing report, or
//! violated chaos expectation — which is what the `fleet-smoke` CI job
//! gates on.
//!
//! ```text
//! cargo run --release -p sp-bench --bin repro-fleet -- \
//!     [--workers N] [--scale 0.05] [--reps 2] [--quick] \
//!     [--no-crash] [--no-slow] [--no-sweep] \
//!     [--kill-after MS] [--slow-ms MS] \
//!     [--io-fault-rate R] [--fault-seed S]
//! ```

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use std::sync::Arc;

use sp_bench::{arg_value, desy_deployment, has_flag, repro_run_config, scale_from_args};
use sp_core::fleet::{fleet_stats, run_log_cells, Coordinator, Worker};
use sp_core::{Campaign, CampaignConfig, CampaignOptions, FleetTicket, SpSystem};
use sp_report::render_fleet_stats;
use sp_store::{FaultConfig, FaultFs, RunLog, StoreFs, SystemTimeSource, WorkQueue};

const EXPERIMENTS: [&str; 3] = ["zeus", "h1", "hermes"];

fn campaign_config(
    system: &SpSystem,
    experiment: &str,
    repetitions: usize,
    scale: f64,
) -> CampaignConfig {
    CampaignConfig {
        experiments: vec![experiment.to_string()],
        images: system.images().iter().map(|i| i.id).collect(),
        repetitions,
        run: repro_run_config(scale),
        interval_secs: 86_400,
        options: CampaignOptions::memoized(),
    }
}

/// Worker-process mode: drain the queue at `--dir` on a locally built
/// system, publish counters, exit.
///
/// With `--stall-ms N` the worker instead claims one lease and then hangs
/// without heartbeating — the stalled/crashed client of the recovery
/// scenario. The parent kills it mid-stall; its lease expires and a
/// sibling re-leases the work under the next fencing generation.
///
/// With `--slow-ms N` the worker drains normally but sleeps N ms at every
/// repetition barrier: execution slower than the lease, heartbeat alive.
/// The progress-hook renewal must keep its leases from ever expiring.
///
/// With `--io-fault-rate R` every filesystem operation of the queue runs
/// through a seeded [`FaultFs`] that injects transient faults with
/// probability R — a flaky disk on this client machine. The worker's
/// retry policy must absorb the faults; the parent asserts the drain
/// stayed lossless (zero poisoned, zero quarantined, oracle-identical
/// reports).
fn worker_main() {
    let dir = arg_value("--dir").expect("--worker requires --dir");
    let name = arg_value("--name").unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let lease_secs: u64 = arg_value("--lease")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let threads: usize = arg_value("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let io_fault_rate: f64 = arg_value("--io-fault-rate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    // Each worker gets its own deterministic fault stream: the shared
    // scenario seed xor'd with the worker name, so runs are
    // reproducible yet the workers' faults are uncorrelated.
    let fault_fs: Option<Arc<dyn StoreFs>> = (io_fault_rate > 0.0).then(|| {
        let seed = arg_value("--fault-seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5053_5953)
            ^ sp_store::fnv64(&name);
        let fs: Arc<dyn StoreFs> = Arc::new(FaultFs::over_os(FaultConfig {
            seed,
            io_fault_rate,
            crash_at: None,
        }));
        fs
    });
    let queue = match &fault_fs {
        Some(fault_fs) => {
            // Opening performs recovery (staging sweep, quarantine scan) and
            // can itself hit injected faults; a real deployment's supervisor
            // would restart the client, so retry the open a bounded number of
            // times before giving up.
            (0..1_000)
                .find_map(|_| {
                    WorkQueue::open_with(
                        &dir,
                        lease_secs,
                        Arc::new(SystemTimeSource),
                        fault_fs.clone(),
                    )
                    .ok()
                })
                .expect("queue open survives bounded injected-fault retries")
        }
        None => WorkQueue::open(&dir, lease_secs).expect("worker opens queue dir"),
    };
    if let Some(stall_ms) = arg_value("--stall-ms").and_then(|v| v.parse::<u64>().ok()) {
        match queue.lease_next(&name).expect("queue io") {
            Some(lease) => {
                println!(
                    "[{name}] leased submission {} (token {}) and stalled",
                    lease.seq, lease.token
                );
                // Hang without heartbeat or release, waiting to be killed;
                // if nobody kills us, exit anyway — still without
                // releasing, exactly like a crash.
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            None => println!("[{name}] nothing claimable to stall on"),
        }
        return;
    }
    let system = desy_deployment();
    let mut worker = Worker::new(&system, &queue, &name, threads);
    // Every worker keeps the durable run history next to the queue: each
    // executed cell is appended to the shared SPRL log *before* its
    // campaign report publishes, so a trusted report always implies
    // logged history the parent can replay.
    let log_dir = std::path::Path::new(&dir).join(sp_store::run_log::RUN_LOG_DIR);
    let run_log = match &fault_fs {
        Some(fault_fs) => (0..1_000)
            .find_map(|_| RunLog::open_with(&log_dir, fault_fs.clone()).ok())
            .expect("run log open survives bounded injected-fault retries"),
        None => RunLog::open(&log_dir).expect("worker opens run log"),
    };
    worker = worker.with_run_log(run_log);
    if let Some(slow_ms) = arg_value("--slow-ms").and_then(|v| v.parse::<u64>().ok()) {
        worker = worker.with_slowdown(Duration::from_millis(slow_ms));
    }
    let stats = worker.drain();
    println!(
        "[{name}] drained {} campaigns / {} runs ({} failures, {} renewal(s), {} io retrie(s), \
         {} idle polls)",
        stats.campaigns_drained,
        stats.runs_executed,
        stats.failures,
        stats.renewals,
        stats.io_retries,
        stats.poll.idle
    );
    if has_flag("--dump-metrics") {
        println!("[{name}] metrics snapshot:");
        print!("{}", indent(&sp_obs::global().snapshot().render_text()));
    }
}

/// Spawns one worker child process against `dir`. `stall_ms` turns the
/// child into the doomed lease-holder of the crash scenario; `slow_ms`
/// into the slow-but-alive worker of the renewal scenario; `io_fault`
/// `(rate, seed)` puts the child's queue I/O behind a seeded fault layer.
fn spawn_worker(
    dir: &std::path::Path,
    name: &str,
    lease_secs: u64,
    stall_ms: Option<u64>,
    slow_ms: Option<u64>,
    io_fault: Option<(f64, u64)>,
    dump_metrics: bool,
) -> Child {
    let mut args = vec![
        "--worker".to_string(),
        "--dir".to_string(),
        dir.to_str().expect("utf-8 dir").to_string(),
        "--name".to_string(),
        name.to_string(),
        "--lease".to_string(),
        lease_secs.to_string(),
    ];
    if dump_metrics {
        args.push("--dump-metrics".to_string());
    }
    if let Some(ms) = stall_ms {
        args.push("--stall-ms".to_string());
        args.push(ms.to_string());
    }
    if let Some(ms) = slow_ms {
        args.push("--slow-ms".to_string());
        args.push(ms.to_string());
    }
    if let Some((rate, seed)) = io_fault {
        args.push("--io-fault-rate".to_string());
        args.push(rate.to_string());
        args.push("--fault-seed".to_string());
        args.push(seed.to_string());
    }
    Command::new(std::env::current_exe().expect("self path"))
        .args(&args)
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker process")
}

/// Enqueues one campaign per experiment; returns the tickets.
fn submit_backlog<'a>(
    coordinator: &mut Coordinator<'a>,
    system: &SpSystem,
    repetitions: usize,
    scale: f64,
) -> Vec<FleetTicket> {
    EXPERIMENTS
        .iter()
        .map(|experiment| {
            coordinator
                .submit(campaign_config(system, experiment, repetitions, scale))
                .expect("experiment-disjoint backlog")
        })
        .collect()
}

/// Verifies every collected report against its solo oracle. Returns the
/// number of divergent or missing reports. The oracle is the sequential
/// `Campaign`.
fn verify_against_oracles(
    coordinator: &Coordinator<'_>,
    tickets: &[FleetTicket],
    repetitions: usize,
    scale: f64,
) -> usize {
    let reports = coordinator.collect();
    let mut divergent = 0;
    for (experiment, ticket) in EXPERIMENTS.iter().zip(tickets) {
        let Some(report) = &reports[ticket.index()] else {
            eprintln!("  DIVERGENCE: no report for campaign '{experiment}'");
            divergent += 1;
            continue;
        };
        let (first, _) = coordinator.reserved_run_ids(*ticket).expect("carved range");
        // The oracle: a fresh single process executing the same config
        // alone, run-id cursor pre-advanced to the carved base.
        let oracle_system = desy_deployment();
        if first.0 > 1 {
            oracle_system.reserve_run_ids(first.0 - 1);
        }
        let oracle_config = campaign_config(&oracle_system, experiment, repetitions, scale);
        let oracle = Campaign::new(&oracle_system, oracle_config)
            .execute()
            .expect("oracle campaign");
        if report.summary == oracle {
            println!(
                "  {experiment:<7} report == solo oracle ({} runs, ids {}..={})",
                oracle.total_runs(),
                first.0,
                first.0 + oracle.total_runs() as u64 - 1
            );
        } else {
            eprintln!("  DIVERGENCE: campaign '{experiment}' differs from its solo oracle");
            divergent += 1;
        }
    }
    divergent
}

/// Verifies the durable SPRL run log replays to the collected reports:
/// every cell of every trusted campaign report must appear in the
/// restored history with the same status, counts and virtual timestamp —
/// workers append to the log *before* publishing, so a trusted report
/// with missing or divergent history is a durability bug. Returns the
/// divergence count.
fn verify_run_log(
    coordinator: &Coordinator<'_>,
    tickets: &[FleetTicket],
    dir: &std::path::Path,
) -> usize {
    let log = match RunLog::open(&dir.join(sp_store::run_log::RUN_LOG_DIR)) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("  DIVERGENCE: run log unreadable after drain ({e})");
            return 1;
        }
    };
    let history = sp_obs::RunHistory::rebuild(&log);
    let logged: std::collections::BTreeMap<(u64, u64), &sp_store::CellRecord> = history
        .records()
        .iter()
        .map(|(_, record)| ((record.campaign, record.run_id), record))
        .collect();
    let reports = coordinator.collect();
    let mut divergent = 0;
    let mut expected_total = 0;
    for ticket in tickets {
        let Some(report) = &reports[ticket.index()] else {
            continue; // missing reports are charged by verify_against_oracles
        };
        // Worker name and lease token are attribution, not content: derive
        // the content-bearing fields from the trusted report and compare.
        let expected = run_log_cells(ticket.seq(), report, "", 0);
        expected_total += expected.len();
        for cell in &expected {
            match logged.get(&(cell.campaign, cell.run_id)) {
                None => {
                    eprintln!(
                        "  DIVERGENCE: run {} of campaign {} missing from the run log",
                        cell.run_id, cell.campaign
                    );
                    divergent += 1;
                }
                Some(record) => {
                    let content_matches = record.experiment == cell.experiment
                        && record.image_label == cell.image_label
                        && record.repetition == cell.repetition
                        && record.status == cell.status
                        && record.passed == cell.passed
                        && record.failed == cell.failed
                        && record.skipped == cell.skipped
                        && record.timestamp == cell.timestamp;
                    if !content_matches {
                        eprintln!(
                            "  DIVERGENCE: run {} of campaign {} logged with divergent content",
                            cell.run_id, cell.campaign
                        );
                        divergent += 1;
                    }
                    if record.worker.is_empty() {
                        eprintln!(
                            "  DIVERGENCE: run {} of campaign {} logged without worker attribution",
                            cell.run_id, cell.campaign
                        );
                        divergent += 1;
                    }
                }
            }
        }
    }
    let summary = history.summary();
    if summary.corrupt_dropped != 0 {
        eprintln!(
            "  DIVERGENCE: {} corrupt run-log record(s) dropped on replay",
            summary.corrupt_dropped
        );
        divergent += 1;
    }
    if divergent == 0 {
        println!(
            "  run log replays {} cell(s) == {} report cell(s) across {} worker(s)",
            history.records().len(),
            expected_total,
            summary.workers
        );
    }
    divergent
}

/// One drain scenario: fresh queue, fresh backlog, `workers` child
/// processes racing. `slow_ms` slows every worker at each repetition
/// barrier and arms the liveness expectations: the renewal heartbeat must
/// carry every lease (zero reclaims — no repetition is ever redone) and
/// must actually have fired. `io_fault` puts every worker's queue I/O
/// behind a seeded fault layer and arms the lossless-degradation
/// expectations: zero poisoned submissions and zero quarantined records —
/// a flaky disk must cost retries, never work. Returns divergence count.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    label: &str,
    workers: usize,
    repetitions: usize,
    scale: f64,
    lease_secs: u64,
    kill_one_after: Option<Duration>,
    slow_ms: Option<u64>,
    io_fault: Option<(f64, u64)>,
) -> usize {
    let dir = std::env::temp_dir().join(format!("sp-repro-fleet-{}-{label}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let queue = WorkQueue::open(&dir, lease_secs).expect("queue dir");
    let system = desy_deployment();
    let mut coordinator = Coordinator::new(&system, &queue);
    let tickets = submit_backlog(&mut coordinator, &system, repetitions, scale);
    println!(
        "\n[{label}] {} campaigns queued, {} worker process(es), lease {lease_secs}s",
        tickets.len(),
        workers
    );

    let started = Instant::now();
    // Chaos scenarios (kill, io-fault) dump a per-worker metrics snapshot
    // on exit — the observable telemetry the fleet-smoke CI job archives.
    let dump_metrics = kill_one_after.is_some() || io_fault.is_some();
    let mut children: Vec<(String, Child)> = Vec::new();
    if kill_one_after.is_some() {
        // The doomed worker: claims a lease, then hangs without
        // heartbeating until the parent kills it — a stalled client
        // holding work hostage until its lease runs out.
        children.push((
            format!("{label}-doomed"),
            spawn_worker(
                &dir,
                &format!("{label}-doomed"),
                lease_secs,
                Some(60_000),
                None,
                None,
                false,
            ),
        ));
    }
    for w in 0..workers.saturating_sub(children.len()).max(1) {
        let name = format!("{label}-w{w}");
        let child = spawn_worker(
            &dir,
            &name,
            lease_secs,
            None,
            slow_ms,
            io_fault,
            dump_metrics,
        );
        children.push((name, child));
    }

    if let Some(delay) = kill_one_after {
        std::thread::sleep(delay);
        let (name, victim) = &mut children[0];
        match victim.kill() {
            Ok(()) => println!("  killed {name} after {delay:?} (lease left unreleased)"),
            Err(e) => println!("  {name} already exited before the kill ({e})"),
        }
    }

    for (name, child) in &mut children {
        let status = child.wait().expect("wait for worker");
        if !status.success() && kill_one_after.is_none() {
            eprintln!("  worker {name} exited with {status}");
        }
    }
    let elapsed = started.elapsed();

    let mut divergent = verify_against_oracles(&coordinator, &tickets, repetitions, scale);
    divergent += verify_run_log(&coordinator, &tickets, &dir);
    let digest = fleet_stats(&queue);
    if kill_one_after.is_some() && digest.queue.reclaims == 0 {
        eprintln!("  DIVERGENCE: the killed worker's lease was never reclaimed");
        divergent += 1;
    }
    if slow_ms.is_some() {
        // The liveness contract under test: slow-but-alive workers renew
        // mid-flight, so no lease expires and no repetition is redone.
        if digest.queue.reclaims != 0 {
            eprintln!(
                "  DIVERGENCE: {} lease(s) of a slow-but-alive worker were reclaimed \
                 (repetitions were redone)",
                digest.queue.reclaims
            );
            divergent += 1;
        }
        if digest.drained.renewals == 0 {
            eprintln!("  DIVERGENCE: no mid-campaign lease renewal ever fired");
            divergent += 1;
        }
    }
    if io_fault.is_some() {
        // The degradation contract under test: injected transient faults
        // must be absorbed as retries — never escalated to a poisoned
        // submission or a quarantined record, both of which would mean
        // losing committed work to a merely flaky disk.
        if digest.queue.poisoned != 0 {
            eprintln!(
                "  DIVERGENCE: {} submission(s) poisoned under injected transient faults",
                digest.queue.poisoned
            );
            divergent += 1;
        }
        if digest.queue.quarantined != 0 {
            eprintln!(
                "  DIVERGENCE: {} record(s) quarantined under injected transient faults",
                digest.queue.quarantined
            );
            divergent += 1;
        }
        println!(
            "  flaky disk absorbed: {} io retr(ies), 0 poisoned, 0 quarantined",
            digest.drained.io_retries
        );
    }
    println!(
        "  drained in {:.2}s ({} reclaim(s), {} renewal(s))",
        elapsed.as_secs_f64(),
        digest.queue.reclaims,
        digest.drained.renewals
    );
    print!("{}", indent(&render_fleet_stats(&digest)));
    if !coordinator.drained() {
        eprintln!("  DIVERGENCE: backlog not fully drained");
        std::fs::remove_dir_all(&dir).ok();
        return divergent + 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    divergent
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|line| format!("    {line}\n"))
        .collect::<String>()
}

fn main() {
    if has_flag("--worker") {
        worker_main();
        return;
    }

    let quick = has_flag("--quick");
    let scale = scale_from_args(if quick { 0.02 } else { 0.05 });
    let repetitions: usize = arg_value("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });
    let sweep: Vec<usize> = match arg_value("--workers").and_then(|v| v.parse().ok()) {
        Some(n) => vec![n],
        None => vec![1, 2, 4],
    };

    println!(
        "repro-fleet: multi-process backlog draining over one storage dir \
         (scale {scale}, {repetitions} repetition(s))"
    );

    let kill_after_ms: u64 = arg_value("--kill-after")
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let slow_ms: u64 = arg_value("--slow-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);

    let io_fault_rate: f64 = arg_value("--io-fault-rate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let fault_seed: u64 = arg_value("--fault-seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_131_029);

    let mut divergent = 0;
    for workers in &sweep {
        divergent += run_scenario(
            &format!("drain-x{workers}"),
            *workers,
            repetitions,
            scale,
            120,
            None,
            None,
            None,
        );
    }

    // Crash recovery: two workers on short leases; the first claims a
    // lease and stalls — execution *and* heartbeat stop, so unlike the
    // slow worker below it earns no renewals — and is killed while
    // holding it. The lease expires, the survivor re-leases under the
    // next fencing generation, and the reports still match the oracles
    // bit for bit.
    if !has_flag("--no-crash") {
        divergent += run_scenario(
            "crash-recovery",
            2,
            repetitions,
            scale,
            5,
            Some(Duration::from_millis(kill_after_ms)),
            None,
            None,
        );
    }

    // Slow-worker liveness: the lease (2 s) is **shorter than one
    // campaign's wall time** — every worker sleeps `slow_ms` at each of
    // at least six repetition barriers — so only mid-campaign renewal
    // through the scheduler's progress hook can carry a lease across a
    // campaign. The scenario requires zero reclaims (no repetition ever
    // redone) and at least one renewal, on top of byte-identical reports.
    if !has_flag("--no-slow") {
        let slow_reps = repetitions.max(6);
        divergent += run_scenario(
            "slow-worker",
            2,
            slow_reps,
            scale,
            2,
            None,
            Some(slow_ms),
            None,
        );
    }

    // IO-fault degradation: every worker's queue I/O behind a seeded
    // fault layer injecting transient faults at `io_fault_rate`. The
    // retry policy must absorb the flaky disk: reports byte-identical to
    // the oracles, zero poisoned submissions, zero quarantined records.
    // Long leases keep fault-induced retries from racing expiry.
    if !has_flag("--no-io-fault") && io_fault_rate > 0.0 {
        divergent += run_scenario(
            "io-fault",
            2,
            repetitions,
            scale,
            120,
            None,
            None,
            Some((io_fault_rate, fault_seed)),
        );
    }

    // Crash-point sweep: replay power loss at every filesystem operation
    // of the path workers run — batched claim, run-log append, batched
    // publish — plus a snapshot write, and verify recovery observes only
    // committed-before or never-happened states in the queue and the run
    // log — the strongest durability statement this driver makes, and
    // cheap enough to gate CI.
    if !has_flag("--no-sweep") {
        let base =
            std::env::temp_dir().join(format!("sp-repro-fleet-{}-sweep", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let outcome = sp_store::standard_crash_sweep(&base);
        std::fs::remove_dir_all(&base).ok();
        println!(
            "\n[crash-sweep] {} crash point(s) replayed, {} invariant failure(s)",
            outcome.crash_points,
            outcome.failures.len()
        );
        for failure in &outcome.failures {
            eprintln!("  DIVERGENCE: {failure}");
        }
        divergent += outcome.failures.len();
    }

    if divergent > 0 {
        eprintln!("\nrepro-fleet FAILED: {divergent} divergence(s)");
        std::process::exit(1);
    }
    println!(
        "\nrepro-fleet complete: every fleet-drained report is byte-identical to its solo oracle"
    );
}
