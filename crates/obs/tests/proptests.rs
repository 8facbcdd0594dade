//! Property-based tests for the run-history query engine.
//!
//! The contract under test: for any run log, the **warm-restored** history
//! (loaded from the persisted `index.spws` snapshot) must answer every
//! query **byte-identically** to the **cold** history rebuilt from the
//! SPRL records — same results, same order, same encoding — and both must
//! agree with a plain scan of the replayed records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sp_obs::{CellQuery, HistorySource, HistorySummary, RunHistory, StatusChange};
use sp_store::{CellRecord, OsFs, RunLog, StoreFs};

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sp-obs-prop-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Strategy for one cell outcome drawn from a small vocabulary, so the
/// generated queries below actually select non-trivial subsets.
fn cell_strategy() -> impl Strategy<Value = CellRecord> {
    (
        1u64..4,                // campaign
        0u32..3,                // experiment index
        0u32..3,                // image index
        0u32..3,                // repetition
        0u32..4,                // status
        0u32..50,               // passed
        0u32..5,                // failed
        (0u64..1_000, 0u32..3), // timestamp, worker index
    )
        .prop_map(
            |(campaign, exp, img, repetition, status, passed, failed, (timestamp, worker))| {
                CellRecord {
                    campaign,
                    experiment: format!("exp-{exp}"),
                    group: String::new(),
                    image_label: format!("img-{img}"),
                    repetition,
                    run_id: 0, // assigned uniquely per record below
                    status: status as u8,
                    passed,
                    failed,
                    skipped: 0,
                    timestamp,
                    worker: format!("w-{worker}"),
                    lease_token: 1 + campaign,
                }
            },
        )
}

/// Strategy for one cell outcome with many collisions: timestamps tie,
/// several groups (the empty one included) share experiments and images,
/// and `(campaign, run_id)` repeats, so the dedup rule drops records.
fn colliding_cell_strategy() -> impl Strategy<Value = CellRecord> {
    (
        (1u64..3, 1u64..8),     // campaign, run id
        (0usize..2, 0usize..3), // experiment, group
        (0usize..2, 0u32..2),   // image, repetition
        0u8..4,                 // status
        0u64..6,                // timestamp
    )
        .prop_map(
            |((campaign, run_id), (exp, group), (img, repetition), status, timestamp)| {
                CellRecord {
                    campaign,
                    // Length order differs from name order, and the
                    // empty group sorts first.
                    experiment: ["hermes", "zeus"][exp].to_string(),
                    group: ["", "reco", "dst-mc"][group].to_string(),
                    image_label: ["sl5", "sl6"][img].to_string(),
                    repetition,
                    run_id,
                    status,
                    passed: 3,
                    failed: u32::from(status == CellRecord::STATUS_FAIL),
                    skipped: 0,
                    timestamp,
                    worker: "w-0".into(),
                    lease_token: campaign,
                }
            },
        )
}

/// The drill-down as a linear scan over the records: filter one cell,
/// then sort by (timestamp, campaign, repetition, run id), keeping log
/// order on ties.
fn scanned_timeline<'a>(
    records: &'a [(u64, CellRecord)],
    experiment: &str,
    group: &str,
    image: &str,
) -> Vec<&'a CellRecord> {
    let mut timeline: Vec<&CellRecord> = records
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.experiment == experiment && r.group == group && r.image_label == image)
        .collect();
    timeline.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
    timeline
}

/// The regression timeline as a linear scan: group every record by cell,
/// sort each cell's timeline, and report consecutive status changes, cells
/// in key order.
fn scanned_status_changes(records: &[(u64, CellRecord)]) -> Vec<StatusChange> {
    let mut by_cell: std::collections::BTreeMap<(&str, &str, &str), Vec<&CellRecord>> =
        std::collections::BTreeMap::new();
    for (_, record) in records {
        by_cell
            .entry((&record.experiment, &record.group, &record.image_label))
            .or_default()
            .push(record);
    }
    let mut changes = Vec::new();
    for ((experiment, group, image_label), mut timeline) in by_cell {
        timeline.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
        for pair in timeline.windows(2) {
            if pair[0].status != pair[1].status {
                changes.push(StatusChange {
                    experiment: experiment.to_string(),
                    group: group.to_string(),
                    image_label: image_label.to_string(),
                    from: pair[0].clone(),
                    to: pair[1].clone(),
                });
            }
        }
    }
    changes
}

/// The summary recounted from the records alone, for a log with nothing
/// corrupt, duplicated or unreadable.
fn recounted_summary(records: &[(u64, CellRecord)]) -> HistorySummary {
    let distinct = |key: &dyn Fn(&CellRecord) -> String| {
        records
            .iter()
            .map(|(_, r)| key(r))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    let mut by_status = [0; 4];
    for (_, r) in records {
        by_status[usize::from(r.status.min(3))] += 1;
    }
    HistorySummary {
        cells: records.len(),
        campaigns: distinct(&|r| r.campaign.to_string()),
        experiments: distinct(&|r| r.experiment.clone()),
        images: distinct(&|r| r.image_label.clone()),
        workers: distinct(&|r| r.worker.clone()),
        by_status,
        first_timestamp: records.iter().map(|(_, r)| r.timestamp).min(),
        last_timestamp: records.iter().map(|(_, r)| r.timestamp).max(),
        corrupt_dropped: 0,
        duplicates_dropped: 0,
        unreadable: 0,
    }
}

proptest! {
    /// The summary counted at index build equals a recount of the
    /// records, cold and warm, over any sequence of appended batches.
    #[test]
    fn summary_equals_a_recount_of_the_records(
        batches in prop::collection::vec(
            prop::collection::vec(cell_strategy(), 1..8),
            0..6,
        ),
    ) {
        let dir = temp_dir("summary");
        let log = RunLog::open(&dir).expect("open run log");
        let mut run_id = 0;
        for mut batch in batches {
            for cell in &mut batch {
                run_id += 1;
                cell.run_id = run_id;
            }
            log.append_batch(&batch).expect("append batch");
        }
        let cold = RunHistory::rebuild(&log);
        cold.save_warm(&log, &OsFs).expect("persist warm index");
        let warm = RunHistory::open(&log);
        prop_assert_eq!(warm.source(), HistorySource::Warm);
        for history in [&cold, &warm] {
            prop_assert_eq!(history.summary(), recounted_summary(history.records()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The per-cell index against the linear scan: for any log of
    /// multi-record batches, every cell's timeline, the status changes
    /// and the regressions equal the scans above, cold and warm alike, and
    /// the records are the batches in order with later duplicates dropped.
    #[test]
    fn cell_index_answers_equal_the_linear_scan(
        batches in prop::collection::vec(
            prop::collection::vec(colliding_cell_strategy(), 1..6),
            0..8,
        ),
    ) {
        let dir = temp_dir("cells");
        let log = RunLog::open(&dir).expect("open run log");
        let mut expected: Vec<(u64, CellRecord)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for batch in &batches {
            let seqs = log.append_batch(batch).expect("append batch");
            for (seq, record) in seqs.into_iter().zip(batch) {
                if seen.insert(record.dedup_key()) {
                    expected.push((seq, record.clone()));
                }
            }
        }

        let cold = RunHistory::rebuild(&log);
        cold.save_warm(&log, &OsFs).expect("persist warm index");
        let warm = RunHistory::open(&log);
        prop_assert_eq!(warm.source(), HistorySource::Warm);
        for history in [&cold, &warm] {
            prop_assert_eq!(history.records(), expected.as_slice());
            let mut cells: Vec<(&str, &str, &str)> = expected
                .iter()
                .map(|(_, r)| (r.experiment.as_str(), r.group.as_str(), r.image_label.as_str()))
                .collect();
            cells.push(("hermes", "", "sl7"));
            for (experiment, group, image) in cells {
                prop_assert_eq!(
                    history.cell_timeline(experiment, group, image),
                    scanned_timeline(&expected, experiment, group, image)
                );
            }
            let changes = scanned_status_changes(&expected);
            prop_assert_eq!(history.status_changes(), changes.clone());
            let regressions: Vec<StatusChange> =
                changes.into_iter().filter(StatusChange::is_regression).collect();
            prop_assert_eq!(history.regressions(), regressions);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cold rebuild vs warm restore: for any record set and any query in
    /// a covering family (full scan, each single-key filter, a time
    /// window, and a conjunction), the warm-restored history returns
    /// byte-identical results to the cold rebuild — and matches a plain
    /// linear scan of the replayed log.
    #[test]
    fn warm_restore_answers_every_query_byte_identically(
        mut cells in prop::collection::vec(cell_strategy(), 0..24),
        since in 0u64..1_000,
        span in 0u64..500,
    ) {
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.run_id = 1 + i as u64;
        }
        let dir = temp_dir("query");
        let log = RunLog::open(&dir).expect("open run log");
        log.append_batch(&cells).expect("append generated cells");

        let cold = RunHistory::rebuild(&log);
        let os_fs: Arc<dyn StoreFs> = Arc::new(OsFs);
        cold.save_warm(&log, os_fs.as_ref()).expect("persist warm index");
        let warm = RunHistory::open(&log);
        prop_assert_eq!(warm.source(), HistorySource::Warm, "warm index must be trusted");

        let queries = vec![
            CellQuery::all(),
            CellQuery::all().experiment("exp-0"),
            CellQuery::all().experiment("exp-7"),
            CellQuery::all().image("img-1"),
            CellQuery::all().status(CellRecord::STATUS_FAIL),
            CellQuery::all().campaign(2),
            CellQuery::all().window(since, since + span),
            CellQuery::all()
                .experiment("exp-1")
                .status(CellRecord::STATUS_PASS)
                .window(since, since + span),
        ];
        for query in &queries {
            let cold_results = cold.query(query);
            let warm_results = warm.query(query);
            prop_assert_eq!(
                RunHistory::encode_results(&cold_results),
                RunHistory::encode_results(&warm_results),
                "cold and warm results must be byte-identical"
            );
            // Both must equal the plain scan oracle, in log order.
            let scanned: Vec<&CellRecord> = cold
                .records()
                .iter()
                .filter(|(_, r)| query.matches(r))
                .map(|(_, r)| r)
                .collect();
            prop_assert_eq!(
                RunHistory::encode_results(&cold_results),
                RunHistory::encode_results(&scanned),
                "indexed query must equal the linear-scan oracle"
            );
        }
        prop_assert_eq!(cold.summary(), warm.summary());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The persisted warm index survives a byte flip anywhere in the file
    /// only by falling back to a cold rebuild — it never loads a damaged
    /// index as warm truth.
    #[test]
    fn damaged_warm_index_falls_back_to_cold(
        mut cells in prop::collection::vec(cell_strategy(), 1..10),
        flip_frac in 0.0f64..1.0,
    ) {
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.run_id = 1 + i as u64;
        }
        let dir = temp_dir("damage");
        let log = RunLog::open(&dir).expect("open run log");
        log.append_batch(&cells).expect("append generated cells");
        let cold = RunHistory::rebuild(&log);
        let os_fs: Arc<dyn StoreFs> = Arc::new(OsFs);
        cold.save_warm(&log, os_fs.as_ref()).expect("persist warm index");

        let index_path = dir.join(sp_obs::query::WARM_INDEX_FILE);
        let mut bytes = std::fs::read(&index_path).expect("warm index bytes");
        let flip = (flip_frac * bytes.len() as f64) as usize % bytes.len();
        bytes[flip] ^= 0xff;
        std::fs::write(&index_path, &bytes).expect("damage warm index");

        let reloaded = RunHistory::open(&log);
        prop_assert_eq!(
            reloaded.source(),
            HistorySource::Cold,
            "a damaged index must never be trusted"
        );
        let all = CellQuery::all();
        prop_assert_eq!(
            RunHistory::encode_results(&reloaded.query(&all)),
            RunHistory::encode_results(&cold.query(&all)),
            "the fallback rebuild must equal the original cold history"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
