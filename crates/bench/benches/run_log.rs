//! Durable run-log throughput and query latency: SPRL batch appends with
//! the stage→fsync→link discipline, the batch encoder alone (the fsync
//! decides the append figure), and indexed history queries over a
//! populated log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sp_obs::{CellQuery, RunHistory};
use sp_store::{CellRecord, RunLog};

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sp-bench-runlog-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cell(i: u64) -> CellRecord {
    CellRecord {
        campaign: 1 + i / 30,
        experiment: format!("exp-{}", i % 3),
        group: String::new(),
        image_label: format!("img-{}", i % 5),
        repetition: ((i / 15) % 2) as u32,
        run_id: 1 + i,
        status: (i % 4) as u8,
        passed: 155,
        failed: (i % 4 == 2) as u32,
        skipped: 0,
        timestamp: 1_356_998_400 + i * 60,
        worker: format!("bench-w{}", i % 4),
        lease_token: 1 + i / 30,
    }
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_log");
    for batch in [16usize, 64] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("append_batch", batch), &batch, |b, &n| {
            let dir = temp_dir("append");
            let log = RunLog::open(&dir).expect("log dir");
            let mut next = 0u64;
            b.iter(|| {
                let cells: Vec<CellRecord> = (next..next + n as u64).map(cell).collect();
                next += n as u64;
                log.append_batch(&cells).expect("append batch")
            });
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_log");
    for batch in [16usize, 64] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("encode_batch", batch), &batch, |b, &n| {
            let cells: Vec<CellRecord> = (0..n as u64).map(cell).collect();
            b.iter(|| CellRecord::encode_batch(&cells))
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let dir = temp_dir("query");
    let log = RunLog::open(&dir).expect("log dir");
    let cells: Vec<CellRecord> = (0..512).map(cell).collect();
    log.append_batch(&cells).expect("populate log");
    let history = RunHistory::rebuild(&log);

    let mut group = c.benchmark_group("run_log");
    group.bench_function("rebuild_512", |b| b.iter(|| RunHistory::rebuild(&log)));
    group.bench_function("query_experiment_512", |b| {
        let query = CellQuery::all().experiment("exp-1");
        b.iter(|| history.query(&query).len())
    });
    group.bench_function("query_conjunction_512", |b| {
        let query = CellQuery::all()
            .experiment("exp-1")
            .status(CellRecord::STATUS_FAIL)
            .window(1_356_998_400, 1_356_998_400 + 512 * 60);
        b.iter(|| history.query(&query).len())
    });
    group.bench_function("timeline_512", |b| {
        b.iter(|| history.cell_timeline("exp-1", "", "img-1").len())
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_append, bench_encode, bench_query);
criterion_main!(benches);
