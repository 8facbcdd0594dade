//! `history-query`: the read side of the SPRL run log. Set-up writes a
//! seeded synthetic nightly history through `RunLog::append_batch` (the
//! production write path) and saves a warm index; the timed part repeats
//! rounds of a cold `RunHistory::rebuild`, a warm `RunHistory::open` and a
//! seeded stream of dashboard drill-down views and whole-history reports.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sp_obs::{CellQuery, HistorySource, RunHistory};
use sp_store::{CellRecord, RunLog, StoreFs};

use crate::meter::MeteredFs;
use crate::table::LayerTable;
use crate::util::{mean, median, ms_since, peak_rss_mb, quantile, sorted, Rng};
use crate::{Args, Outcome};

/// Operation kinds of the stream (plus `rebuild` and `warm_open`).
pub const QUERY_KINDS: [&str; 7] = [
    "experiment",
    "image",
    "status",
    "window",
    "conjunction",
    "timeline",
    "status_changes",
];

const EXPERIMENTS: [&str; 3] = ["zeus", "h1", "hermes"];
/// Nights of history: 400 nights × 15 cells = 6,000 records.
const NIGHTS: u64 = 400;
const ERA: u64 = 1_380_000_000;
const NIGHT_SECS: u64 = 86_400;
/// Drill-down views in the seeded pool (see `op_pool`).
const VIEWS: usize = 40;
/// Operations per drill-down view: experiment, image, status, window and
/// conjunction queries, then the cell's timeline.
const VIEW_OPS: usize = 6;
/// Whole-history reports in the pool: `status_changes` and a render.
const REPORTS: usize = 2;
/// Passes over the pool per round, each in its own seeded order.
const PASSES_PER_ROUND: usize = 8;
const SETUP_REPS: usize = 3;
/// Rounds per second of `--seconds` (a round takes ~270 ms on a 2-core
/// host); fixed so every commit does the same work.
const ROUNDS_PER_SECOND: f64 = 4.0;

#[derive(Debug, Clone)]
enum Op {
    Query(&'static str, CellQuery),
    Timeline(String, String),
    StatusChanges,
    Render(CellQuery),
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Query(kind, _) => kind,
            Op::Timeline(..) => "timeline",
            Op::StatusChanges => "status_changes",
            Op::Render(_) => "render",
        }
    }
}

/// A cheap identity of an operation's result: (length, first, last).
type Fingerprint = (usize, u64, u64);

fn fingerprint_records(records: &[&CellRecord]) -> Fingerprint {
    (
        records.len(),
        records.first().map_or(0, |r| r.run_id),
        records.last().map_or(0, |r| r.run_id),
    )
}

fn execute(history: &RunHistory, op: &Op) -> Fingerprint {
    match op {
        Op::Query(_, q) => fingerprint_records(&history.query(q)),
        Op::Timeline(experiment, image) => {
            fingerprint_records(&history.cell_timeline(experiment, "", image))
        }
        Op::StatusChanges => {
            let changes = history.status_changes();
            (
                changes.len(),
                changes.first().map_or(0, |c| c.to.run_id),
                changes.last().map_or(0, |c| c.to.run_id),
            )
        }
        Op::Render(q) => {
            let page = sp_report::history_page(history, q);
            (page.len(), sp_store::fnv64(&page), 0)
        }
    }
}

/// The same operation answered by a linear scan over `records()` (the
/// render is compared against the same render of the cold history).
fn expected(records: &[(u64, CellRecord)], cold: &RunHistory, op: &Op) -> (Fingerprint, Vec<u8>) {
    match op {
        Op::Query(_, q) => {
            let hits: Vec<&CellRecord> = records
                .iter()
                .map(|(_, r)| r)
                .filter(|r| q.matches(r))
                .collect();
            (
                fingerprint_records(&hits),
                RunHistory::encode_results(&hits),
            )
        }
        Op::Timeline(experiment, image) => {
            let mut hits: Vec<&CellRecord> = records
                .iter()
                .map(|(_, r)| r)
                .filter(|r| {
                    &r.experiment == experiment && r.group.is_empty() && &r.image_label == image
                })
                .collect();
            hits.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
            (
                fingerprint_records(&hits),
                RunHistory::encode_results(&hits),
            )
        }
        Op::StatusChanges => {
            let mut by_cell: BTreeMap<(&str, &str, &str), Vec<&CellRecord>> = BTreeMap::new();
            for (_, r) in records {
                by_cell
                    .entry((&r.experiment, &r.group, &r.image_label))
                    .or_default()
                    .push(r);
            }
            let mut to: Vec<&CellRecord> = Vec::new();
            for (_, mut timeline) in by_cell {
                timeline.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
                for pair in timeline.windows(2) {
                    if pair[0].status != pair[1].status {
                        to.push(pair[1]);
                    }
                }
            }
            (fingerprint_records(&to), RunHistory::encode_results(&to))
        }
        Op::Render(_) => (execute(cold, op), Vec::new()),
    }
}

/// Bytes of the indexed answer, for the exact comparison with the scan.
fn answer_bytes(history: &RunHistory, op: &Op) -> Vec<u8> {
    match op {
        Op::Query(_, q) => RunHistory::encode_results(&history.query(q)),
        Op::Timeline(experiment, image) => {
            RunHistory::encode_results(&history.cell_timeline(experiment, "", image))
        }
        Op::StatusChanges => {
            let changes = history.status_changes();
            let to: Vec<&CellRecord> = changes.iter().map(|c| &c.to).collect();
            RunHistory::encode_results(&to)
        }
        Op::Render(_) => Vec::new(),
    }
}

fn image_labels() -> Vec<String> {
    sp_env::catalog::paper_images()
        .iter()
        .map(|spec| spec.label())
        .collect()
}

/// The seeded nightly history: every (experiment, image) cell each night,
/// statuses drifting as a per-cell Markov chain so the regression timeline
/// has transitions to find.
fn synthetic_nights(rng: &mut Rng) -> Vec<Vec<CellRecord>> {
    let images = image_labels();
    let cells: Vec<(&str, &String)> = EXPERIMENTS
        .iter()
        .flat_map(|e| images.iter().map(move |i| (*e, i)))
        .collect();
    let mut status: Vec<u8> = cells.iter().map(|_| random_status(rng)).collect();
    let mut run_id = 0;
    (0..NIGHTS)
        .map(|night| {
            cells
                .iter()
                .enumerate()
                .map(|(c, (experiment, image))| {
                    if rng.below(100) < 3 {
                        status[c] = random_status(rng);
                    }
                    run_id += 1;
                    let tests = 20 + rng.below(10) as u32;
                    let (failed, skipped) = match status[c] {
                        CellRecord::STATUS_FAIL => (1 + rng.below(3) as u32, 0),
                        CellRecord::STATUS_WARNINGS => (0, 1 + rng.below(3) as u32),
                        CellRecord::STATUS_NOT_RUN => (0, tests),
                        _ => (0, 0),
                    };
                    CellRecord {
                        campaign: night + 1,
                        experiment: experiment.to_string(),
                        group: String::new(),
                        image_label: (*image).clone(),
                        repetition: 0,
                        run_id,
                        status: status[c],
                        passed: tests - failed - skipped,
                        failed,
                        skipped,
                        timestamp: ERA + night * NIGHT_SECS + c as u64 * 60,
                        worker: format!("w{}", rng.below(2)),
                        lease_token: 1 + rng.below(3),
                    }
                })
                .collect()
        })
        .collect()
}

fn random_status(rng: &mut Rng) -> u8 {
    match rng.below(100) {
        0..=59 => CellRecord::STATUS_PASS,
        60..=79 => CellRecord::STATUS_WARNINGS,
        80..=94 => CellRecord::STATUS_FAIL,
        _ => CellRecord::STATUS_NOT_RUN,
    }
}

/// The seeded pool the stream cycles through: `VIEWS` drill-down views of
/// `VIEW_OPS` consecutive operations each, then the `REPORTS`
/// whole-history reports (the regression timeline and a `history_page`
/// render). A view drills into one seeded cell, status and time window:
/// the experiment's records, the image's, the status's, the window's, all
/// four at once, and the cell's timeline. Every seed runs the same mix;
/// only the parameters vary.
fn op_pool(rng: &mut Rng) -> Vec<Op> {
    let images = image_labels();
    let pick = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
    let window = |rng: &mut Rng| {
        let from = ERA + rng.below(NIGHTS) * NIGHT_SECS;
        (from, from + (1 + rng.below(30)) * NIGHT_SECS)
    };
    let mut pool = Vec::with_capacity(VIEWS * VIEW_OPS + REPORTS);
    for _ in 0..VIEWS {
        let experiment = EXPERIMENTS[pick(rng, 3)];
        let image = &images[pick(rng, images.len())];
        let status = rng.below(4) as u8;
        let (from, to) = window(rng);
        pool.extend([
            Op::Query("experiment", CellQuery::all().experiment(experiment)),
            Op::Query("image", CellQuery::all().image(image)),
            Op::Query("status", CellQuery::all().status(status)),
            Op::Query("window", CellQuery::all().window(from, to)),
            Op::Query(
                "conjunction",
                CellQuery::all()
                    .experiment(experiment)
                    .image(image)
                    .status(status)
                    .window(from, to),
            ),
            Op::Timeline(experiment.to_string(), image.clone()),
        ]);
    }
    let (from, to) = window(rng);
    pool.push(Op::StatusChanges);
    pool.push(Op::Render(
        CellQuery::all()
            .experiment(EXPERIMENTS[pick(rng, 3)])
            .window(from, to),
    ));
    pool
}

/// A seeded shuffle (Fisher–Yates) of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

struct Prepared {
    dir: PathBuf,
    meter: Arc<MeteredFs>,
    log: RunLog,
}

fn prepare(args: &Args, rep: usize) -> Result<Prepared, String> {
    let dir = args
        .work
        .join(format!("history-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let meter = Arc::new(MeteredFs::new(&dir, false));
    let fs: Arc<dyn StoreFs> = meter.clone();
    let log = RunLog::open_with(&dir.join(sp_store::run_log::RUN_LOG_DIR), fs)
        .map_err(|e| e.to_string())?;
    let mut rng = Rng::new(args.seed ^ 0x5121);
    for night in synthetic_nights(&mut rng) {
        log.append_batch(&night)
            .map_err(|e| format!("append: {e}"))?;
    }
    RunHistory::rebuild(&log)
        .save_warm(&log, meter.as_ref())
        .map_err(|e| format!("save warm index: {e}"))?;
    Ok(Prepared { dir, meter, log })
}

#[derive(Default)]
struct Phase {
    /// Latency of every operation (ms), rebuilds and opens included.
    op_ms: Vec<f64>,
    /// Latency of every drill-down view (ms): its six operations.
    view_ms: Vec<f64>,
    /// Median and 95th percentile of each round's view latencies (ms).
    round_view_p50: Vec<f64>,
    round_view_p95: Vec<f64>,
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    wall_ms: f64,
    rounds: usize,
    /// Operations per second of measured operation time, per round.
    round_rate: Vec<f64>,
    /// (spec index, fingerprint) of every stream operation.
    seen: Vec<(usize, Fingerprint)>,
    /// Rounds whose warm index disagreed with the cold rebuild.
    divergent_rounds: u64,
}

fn round(
    prepared: &Prepared,
    pool: &[Op],
    rng: &mut Rng,
    split_rebuild: bool,
    phase: &mut Phase,
) -> Result<(), String> {
    let start = Instant::now();
    let ops_before = phase.op_ms.len();
    let note = |phase: &mut Phase, kind: &'static str, from: Instant| {
        let ms = ms_since(from);
        phase.op_ms.push(ms);
        phase.by_kind.entry(kind).or_default().push(ms);
    };
    let cold = if split_rebuild {
        // The traced half times the two halves of a rebuild separately.
        let t = Instant::now();
        let replay = prepared.log.replay();
        let replay_ms = ms_since(t);
        let t = Instant::now();
        let history = RunHistory::from_records(replay.records);
        let index_ms = ms_since(t);
        phase.op_ms.push(replay_ms + index_ms);
        phase.by_kind.entry("replay").or_default().push(replay_ms);
        phase
            .by_kind
            .entry("index_build")
            .or_default()
            .push(index_ms);
        history
    } else {
        let t = Instant::now();
        let history = RunHistory::rebuild(&prepared.log);
        note(phase, "rebuild", t);
        history
    };
    let t = Instant::now();
    let fs: Arc<dyn StoreFs> = prepared.meter.clone();
    let warm = RunHistory::open_with(&prepared.log, fs);
    note(phase, "warm_open", t);

    // Each pass runs every view and report of the pool once, in a seeded
    // order; a view's operations run back to back, as a dashboard issues
    // them.
    let run_op = |phase: &mut Phase, index: usize| {
        let op = &pool[index];
        let t = Instant::now();
        let fingerprint = execute(&warm, op);
        note(phase, op.kind(), t);
        phase.seen.push((index, fingerprint));
    };
    let views_before = phase.view_ms.len();
    for _ in 0..PASSES_PER_ROUND {
        for unit in permutation(VIEWS + REPORTS, rng) {
            if unit < VIEWS {
                let t = Instant::now();
                for index in unit * VIEW_OPS..(unit + 1) * VIEW_OPS {
                    run_op(phase, index);
                }
                phase.view_ms.push(ms_since(t));
            } else {
                run_op(phase, VIEWS * VIEW_OPS + unit - VIEWS);
            }
        }
    }
    phase.wall_ms += ms_since(start);
    phase.rounds += 1;
    let round_ops = &phase.op_ms[ops_before..];
    phase
        .round_rate
        .push(round_ops.len() as f64 / (round_ops.iter().sum::<f64>() / 1e3).max(1e-9));
    let views = sorted(&phase.view_ms[views_before..]);
    phase.round_view_p50.push(quantile(&views, 0.5));
    phase.round_view_p95.push(quantile(&views, 0.95));

    // Cold bytes must equal warm bytes (outside the measured operations,
    // inside the phase wall).
    let all = CellQuery::all();
    if warm.source() != HistorySource::Warm
        || cold.records() != warm.records()
        || RunHistory::encode_results(&cold.query(&all))
            != RunHistory::encode_results(&warm.query(&all))
    {
        phase.divergent_rounds += 1;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // One set-up before the timed rounds and the rest after them, so the
    // repetitions see the shared host at different moments and no set-up's
    // writes or deletions overlap the timed part.
    let start = Instant::now();
    let prepared = prepare(args, 0)?;
    let first_s = start.elapsed().as_secs_f64();
    let mut extra = Vec::new();
    let result = measure(args, &prepared, || {
        let mut setup_s = vec![first_s];
        for rep in 1..SETUP_REPS {
            let start = Instant::now();
            extra.push(prepare(args, rep)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        Ok(setup_s)
    });
    for p in std::iter::once(&prepared).chain(&extra) {
        let _ = std::fs::remove_dir_all(&p.dir);
    }
    result
}

fn measure(
    args: &Args,
    prepared: &Prepared,
    set_up_again: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed ^ 0x9e37);
    let pool = op_pool(&mut rng);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rounds = ((budget * ROUNDS_PER_SECOND).round() as usize).max(2);

    let mut untraced = Phase::default();
    for _ in 0..rounds {
        round(prepared, &pool, &mut rng, false, &mut untraced)?;
    }
    let mut traced = Phase::default();
    let mut fs_traced = None;
    if args.trace {
        prepared.meter.set_detailed(true);
        let before = prepared.meter.snapshot();
        for _ in 0..untraced.rounds {
            round(prepared, &pool, &mut rng, true, &mut traced)?;
        }
        fs_traced = Some(prepared.meter.snapshot().since(&before));
        prepared.meter.set_detailed(false);
    }
    let peak_rss = peak_rss_mb();
    let setup_s = &set_up_again()?;

    // Output check: every operation equals a linear scan over records().
    let cold = RunHistory::rebuild(&prepared.log);
    let records = cold.records();
    let mut truth: BTreeMap<usize, Fingerprint> = BTreeMap::new();
    let mut failed = untraced.divergent_rounds + traced.divergent_rounds;
    for (index, op) in pool.iter().enumerate() {
        let (fingerprint, bytes) = expected(records, &cold, op);
        if answer_bytes(&cold, op) != bytes {
            failed += 1;
        }
        truth.insert(index, fingerprint);
    }
    for (index, fingerprint) in untraced.seen.iter().chain(&traced.seen) {
        if truth.get(index) != Some(fingerprint) {
            failed += 1;
        }
    }
    let attempted = (untraced.op_ms.len() + traced.op_ms.len()) as u64;

    let mut out = Outcome::new(attempted, failed);
    out.threads = vec![("query_threads", 1)];
    // Each round's figure, averaged over the rounds: the shared host
    // switches between speeds every few seconds, and a median or a pooled
    // percentile over the run flips with whichever speed held half of it,
    // where an average mixes them in proportion.
    let ops_per_s = mean(&untraced.round_rate);
    let view_p50 = mean(&untraced.round_view_p50);
    let view_p95 = mean(&untraced.round_view_p95);
    let kind_median =
        |phase: &Phase, kind: &str| phase.by_kind.get(kind).map_or(0.0, |v| median(v));
    let queries: Vec<f64> = QUERY_KINDS[..5]
        .iter()
        .flat_map(|k| untraced.by_kind.get(k).cloned().unwrap_or_default())
        .collect();
    let query_sorted = sorted(&queries);
    out.line(format!(
        "{} records, {} rounds, {} ops, {} views: ops_per_s {:.0}, view_p50_ms {:.3}, view_p95_ms {:.3}, rebuild_ms {:.2}, warm_open_ms {:.2}, query_p50_us {:.2}, query_p99_us {:.2}, setup_s {:.3}, error_rate {:.6}",
        records.len(),
        untraced.rounds,
        untraced.op_ms.len(),
        untraced.view_ms.len(),
        ops_per_s,
        view_p50,
        view_p95,
        kind_median(&untraced, "rebuild"),
        kind_median(&untraced, "warm_open"),
        quantile(&query_sorted, 0.5) * 1e3,
        quantile(&query_sorted, 0.99) * 1e3,
        median(setup_s),
        failed as f64 / attempted.max(1) as f64,
    ));
    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(setup_s), "s");
        m.set("throughput_per_s", ops_per_s, "1/s");
        m.set("latency_p50_ms", view_p50, "ms");
        m.set("latency_p95_ms", view_p95, "ms");
        m.set("peak_rss_mb", peak_rss, "MB");
        return Ok(out);
    }

    let m = &mut out.metrics;
    let fs = fs_traced.unwrap_or_default();
    crate::fleet::vfs_metrics(m, &fs, None);
    let replay = kind_median(&traced, "replay");
    let index = kind_median(&traced, "index_build");
    m.set("store.run_log.replay_ms", replay, "ms");
    m.set("obs.index_build_ms", index, "ms");
    m.set("obs.rebuild_ms", kind_median(&untraced, "rebuild"), "ms");
    m.set("obs.warm_open_ms", kind_median(&traced, "warm_open"), "ms");
    for kind in QUERY_KINDS {
        m.set(
            format!("obs.query_us.{kind}"),
            kind_median(&traced, kind) * 1e3,
            "us",
        );
    }
    m.set(
        "report.history_render_ms",
        kind_median(&traced, "render"),
        "ms",
    );

    let mut table = LayerTable::new(&args.workload, traced.wall_ms, 1);
    for (kind, label) in [
        ("replay", "store.run_log.replay"),
        ("index_build", "obs.index_build (from_records)"),
        ("warm_open", "obs.warm_open"),
        ("experiment", "obs.query experiment"),
        ("image", "obs.query image"),
        ("status", "obs.query status"),
        ("window", "obs.query window"),
        ("conjunction", "obs.query conjunction"),
        ("timeline", "obs.cell_timeline"),
        ("status_changes", "obs.status_changes"),
        ("render", "report.history_page"),
    ] {
        table.samples(label, traced.by_kind.get(kind).map_or(&[][..], |v| v), true);
    }
    let reads = fs.op("read");
    let lists = fs.op("read_dir");
    table.total(
        "vfs.read (inside replay/open)",
        reads.count,
        reads.ns as f64 / 1e6,
        false,
    );
    table.total(
        "vfs.read_dir (inside replay/open)",
        lists.count,
        lists.ns as f64 / 1e6,
        false,
    );
    out.line(table.render(untraced.wall_ms));
    Ok(out)
}
