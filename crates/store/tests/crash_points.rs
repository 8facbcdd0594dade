//! Crash-point sweeps and torn-write detection over the durable paths.
//!
//! The invariant under test is the strongest one a durable store can
//! offer: after power loss at *any* filesystem operation, every record
//! either reads back byte-identical to a state that was committed before
//! the crash, or it is cleanly absent — never a third, half-written
//! outcome that gets trusted. `sp_store::vfs::standard_crash_sweep`
//! enumerates every operation of a workload that claims, logs run history
//! and publishes as workers do — the queue's batched claim, one run-log
//! batch append, the batched publish — and writes a warm-state snapshot,
//! and replays the crash at each one; the targeted
//! tests below pin the individual failure shapes (torn stage, truncated
//! record, half-written snapshot) the sweep's pass depends on.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sp_store::snapshot::{Snapshot, SnapshotError, SnapshotSection};
use sp_store::{
    CellRecord, FaultConfig, FaultFs, FixedClock, ForcedFault, Lease, OsFs, RunLog, StoreFs,
    WorkQueue, WqError,
};

/// Publishes and releases one lease as a batch of one, returning its
/// verdict.
fn flush(queue: &WorkQueue, lease: &Lease, payload: &[u8]) -> Result<(), WqError> {
    queue
        .publish_and_release_batch(&[(lease, payload)])
        .remove(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sp-crash-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole gate: crash at every enumerated operation of the standard
/// workload — two claims in one batch, their cells appended to the run log
/// as one batch, both flushed by one `publish_and_release_batch`, a third
/// lease in flight, a warm-state snapshot — recover, and find only
/// committed-before or never-happened states: no fsync-discipline
/// violations, no quarantined losses of committed work, no lost or
/// invented run history, no report without its logged cells, and a
/// backlog recovery can always drain. Power loss inside a batch must
/// degrade to a committed prefix of whole records, or nothing.
#[test]
fn standard_crash_sweep_recovers_every_crash_point() {
    let base = temp_dir("sweep");
    let outcome = sp_store::vfs::standard_crash_sweep(&base);
    assert!(
        outcome.crash_points >= 91,
        "the workload must enumerate its whole operation sequence, got {}",
        outcome.crash_points
    );
    assert!(
        outcome.passed(),
        "crash-point sweep failed at {} of {} points:\n{}",
        outcome.failures.len(),
        outcome.crash_points,
        outcome.failures.join("\n")
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Crash *between* stage and publication (the `hard_link` that gives the
/// record its final name): the record must simply not exist — no
/// half-staged file is ever visible under the record's final name, and
/// the orphaned staging file is swept when the queue reopens (once its
/// writing process is dead).
#[test]
fn crash_between_stage_and_link_leaves_no_record() {
    let dir = temp_dir("stage-link");
    let fs: Arc<FaultFs> = Arc::new(FaultFs::over_os(FaultConfig::default()));
    let store_fs: Arc<dyn StoreFs> = fs.clone();
    let queue =
        WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_000)), store_fs).expect("open");
    let baseline_ops = fs.op_count();

    // Re-run the same submit under a crash pinned between the staging
    // write+sync and the link: a submit is scan, stage write, stage
    // sync, hard_link, stage remove, dir sync — so crashing at
    // baseline+3 kills the link itself, with the stage already durable.
    drop(queue);
    std::fs::remove_dir_all(&dir).ok();
    let fs = Arc::new(FaultFs::over_os(FaultConfig {
        seed: 11,
        io_fault_rate: 0.0,
        crash_at: Some(baseline_ops + 3),
    }));
    let store_fs: Arc<dyn StoreFs> = fs.clone();
    let queue =
        WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_000)), store_fs).expect("open");
    assert!(queue.submit(b"doomed", 1, 1, 0).is_err(), "link crashes");
    fs.apply_crash();
    assert!(fs.violations().is_empty(), "the stage was synced first");

    // No record under submissions/ — the name never committed.
    let survivors = OsFs.read_dir_names(&dir.join("submissions")).unwrap();
    assert!(
        survivors.is_empty(),
        "no submission may exist after a pre-rename crash: {survivors:?}"
    );

    // The orphan stage (if it survived at all) lives in tmp/; renaming it
    // to a dead-pid name models the crashed process never coming back,
    // and reopening sweeps it.
    for name in OsFs.read_dir_names(&dir.join("tmp")).unwrap_or_default() {
        std::fs::rename(dir.join("tmp").join(&name), dir.join("tmp").join("0-0")).unwrap();
    }
    let reopened =
        WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(2_000))).expect("reopen");
    assert!(
        OsFs.read_dir_names(&dir.join("tmp")).unwrap().is_empty(),
        "dead-process staging orphans are swept at open"
    );
    assert_eq!(reopened.stats().submissions, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated lease record is detected and dropped, never trusted — and
/// lease files are *not* quarantined: their filenames carry the burned
/// generation numbers the fencing protocol depends on.
#[test]
fn truncated_lease_record_is_dropped_but_never_quarantined() {
    let dir = temp_dir("torn-lease");
    let clock = Arc::new(FixedClock(1_000));
    let queue = WorkQueue::open_with_time(&dir, 60, clock).expect("open");
    let seq = queue.submit(b"work", 1, 1, 0).unwrap();
    let lease = queue.lease_next("w1").unwrap().unwrap();

    // Tear the active lease record in half.
    let lease_files = OsFs.read_dir_names(&dir.join("leases")).unwrap();
    assert_eq!(lease_files.len(), 1);
    let victim = dir.join("leases").join(&lease_files[0]);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // Detection, not trust — and not a panic: the record counts as a
    // corrupt drop, renew/release from the torn generation are protocol
    // errors, and the work is reclaimable by a successor generation.
    let stats = queue.stats();
    assert!(stats.corrupt_dropped >= 1, "torn lease must be counted");
    assert!(queue.release(&lease).is_err(), "torn lease cannot commit");
    let reclaimed = queue.lease_next("w2").unwrap().expect("reclaimable");
    assert_eq!(reclaimed.seq, seq);
    assert!(
        reclaimed.token > lease.token,
        "the torn generation stays burned"
    );

    // Quarantine holds corrupt *payload* records only; the torn lease
    // file stays (or is superseded) under leases/, never moved where its
    // generation number would stop being visible to the protocol.
    let quarantined = OsFs
        .read_dir_names(&dir.join("quarantine"))
        .unwrap_or_default();
    assert!(
        quarantined.iter().all(|name| !name.starts_with("leases")),
        "lease records must never be quarantined: {quarantined:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A half-written `SPWS` snapshot — the shape a crashed unsynced write
/// leaves behind — decodes to a clean, typed error, not a panic and not a
/// partially trusted state.
#[test]
fn half_written_snapshot_is_a_clean_decode_error() {
    let mut snapshot = Snapshot::new();
    let mut section = SnapshotSection::new("memo");
    for i in 0..32u32 {
        section.push(
            format!("key-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        );
    }
    snapshot.sections.push(section);
    let whole = snapshot.encode();
    assert!(Snapshot::decode(&whole).is_ok());

    // Every proper prefix is either rejected for its magic/version or a
    // typed truncation — never Ok, never a panic.
    for cut in 0..whole.len() {
        match Snapshot::decode(&whole[..cut]) {
            Ok(_) => panic!("prefix of {cut} bytes decoded as a whole snapshot"),
            Err(
                SnapshotError::Truncated
                | SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_),
            ) => {}
        }
    }
}

/// An `ENOSPC` mid-stage leaves a torn file in the store's staging
/// directory, never under a record's final name; the failed write surfaces
/// the error, the store keeps working once space returns, and a reopen
/// (with the writer dead) sweeps the leak. Checked for the queue's `tmp/`
/// and the run log's `runlog/tmp/`, which share one staging sweep.
#[test]
fn enospc_staging_leak_is_surfaced_and_swept() {
    let dir = temp_dir("enospc");
    let fs = Arc::new(FaultFs::over_os(FaultConfig {
        seed: 3,
        ..FaultConfig::default()
    }));
    let store_fs: Arc<dyn StoreFs> = fs.clone();
    let queue = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_000)), store_fs.clone())
        .expect("open");
    let log_dir = dir.join(sp_store::run_log::RUN_LOG_DIR);
    let log = RunLog::open_with(&log_dir, store_fs).expect("open run log");

    assert_enospc_leak_is_swept(
        &fs,
        &dir.join("tmp"),
        &dir.join("submissions"),
        || queue.submit(b"does-not-fit", 1, 1, 0).map(drop),
        || drop(WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_500))).expect("reopen")),
    );
    assert_enospc_leak_is_swept(
        &fs,
        &log_dir.join("tmp"),
        &log_dir.join("cells"),
        || log.append(&sweep_cell(0)).map(drop),
        || drop(RunLog::open(&log_dir).expect("reopen run log")),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One store's half of [`enospc_staging_leak_is_surfaced_and_swept`]:
/// `write` commits one record into `records` through staging in `tmp`,
/// `reopen` opens the store afresh on the healthy disk.
fn assert_enospc_leak_is_swept(
    fs: &FaultFs,
    tmp: &Path,
    records: &Path,
    write: impl Fn() -> std::io::Result<()>,
    reopen: impl Fn(),
) {
    fs.fail_next_write(ForcedFault::Enospc);
    let err = write().unwrap_err();
    assert_eq!(
        err.raw_os_error(),
        Some(28),
        "ENOSPC surfaces, untranslated"
    );
    assert!(
        OsFs.read_dir_names(records).unwrap().is_empty(),
        "a failed staging never reaches {records:?}"
    );
    let leaked = OsFs.read_dir_names(tmp).unwrap();
    assert_eq!(leaked.len(), 1, "the torn staging file leaks into {tmp:?}");

    // Space comes back: the same store keeps accepting work.
    write().expect("write after ENOSPC");
    assert_eq!(OsFs.read_dir_names(records).unwrap().len(), 1);

    // This process is still alive, so its staging file is spared by the
    // sweep (a sibling worker in the same process may be mid-stage).
    reopen();
    assert_eq!(
        OsFs.read_dir_names(tmp).unwrap().len(),
        1,
        "live-pid staging files are never swept"
    );

    // Once the writing process is dead (modelled by a dead-pid name), the
    // next open reclaims the space.
    std::fs::rename(tmp.join(&leaked[0]), tmp.join("0-7")).unwrap();
    reopen();
    assert!(
        OsFs.read_dir_names(tmp).unwrap().is_empty(),
        "dead-pid staging leaks are swept at open"
    );
}

/// Corrupt submissions are moved to `quarantine/` (inspectable, counted,
/// never trusted) instead of aborting the queue — and the backlog around
/// them still drains.
#[test]
fn corrupt_submission_is_quarantined_not_fatal() {
    let dir = temp_dir("quarantine");
    let queue = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let victim = queue.submit(b"will-rot", 10, 2, 0).unwrap();
    let intact = queue.submit(b"stays-good", 20, 2, 0).unwrap();

    // Bit-rot on the shared medium.
    let name = format!("sub-{victim:08}.spwq");
    let path = dir.join("submissions").join(&name);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    // First read detects, quarantines, and degrades — no abort.
    assert!(queue.submission_checked(victim).unwrap().is_none());
    assert!(!path.exists(), "corrupt record must leave submissions/");
    let quarantined = OsFs.read_dir_names(&dir.join("quarantine")).unwrap();
    assert_eq!(quarantined, vec![format!("submissions-{name}")]);
    let stats = queue.stats();
    assert_eq!(stats.quarantined, 1);
    assert!(stats.corrupt_dropped >= 1);

    // The intact sibling still drains to a trusted report.
    let lease = queue.lease_next("w1").unwrap().expect("intact leases");
    assert_eq!(lease.seq, intact);
    flush(&queue, &lease, b"done").unwrap();
    assert_eq!(queue.report(intact).as_deref(), Some(b"done".as_slice()));
    assert!(
        queue.drained(),
        "a quarantined record never wedges the backlog"
    );

    // A reopen sweeps any remaining corruption on sight and keeps the
    // quarantined file for inspection.
    drop(queue);
    let reopened =
        WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(2_000))).expect("reopen");
    assert_eq!(reopened.stats().quarantined, 1);
    assert_eq!(
        std::fs::read(dir.join("quarantine").join(&quarantined[0])).unwrap(),
        bytes,
        "quarantine preserves the corrupt bytes for inspection"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One deterministic run-log cell for the durability tests below: every
/// field fixed, so byte-identity across crash replays holds.
fn sweep_cell(i: u64) -> CellRecord {
    CellRecord {
        campaign: 1 + i / 3,
        experiment: format!("exp-{}", i % 3),
        group: String::new(),
        image_label: format!("img-{}", i % 2),
        repetition: (i % 2) as u32,
        run_id: 100 + i,
        status: (i % 4) as u8,
        passed: 10 + i as u32,
        failed: (i % 2) as u32,
        skipped: 0,
        timestamp: 1_356_998_400 + i * 60,
        worker: "sweep-worker".into(),
        lease_token: 7,
    }
}

/// A torn tail — the last cell record truncated at *every* possible cut
/// point — is dropped and counted, never misread: replay returns exactly
/// the intact prefix, byte-identical.
#[test]
fn torn_run_log_tail_is_dropped_never_misread() {
    let dir = temp_dir("runlog-torn");
    let log = RunLog::open(&dir).expect("open");
    for i in 0..3 {
        log.append(&sweep_cell(i)).expect("append");
    }
    let tail = dir.join("cells").join("cell-00000003.sprl");
    let whole = std::fs::read(&tail).expect("tail bytes");

    for cut in 0..whole.len() {
        std::fs::write(&tail, &whole[..cut]).expect("tear tail");
        let replay = RunLog::open(&dir).expect("reopen").replay();
        assert_eq!(
            replay.records.len(),
            2,
            "cut at {cut}: only the intact prefix replays"
        );
        assert_eq!(
            replay.corrupt_dropped, 1,
            "cut at {cut}: the tear is counted"
        );
        for (i, (_, record)) in replay.records.iter().enumerate() {
            assert_eq!(record, &sweep_cell(i as u64), "cut at {cut}: prefix intact");
        }
    }

    // Restoring the full bytes restores the record — the drop was a
    // verdict about the torn bytes, not a deletion.
    std::fs::write(&tail, &whole).expect("restore tail");
    let replay = RunLog::open(&dir).expect("reopen").replay();
    assert_eq!(replay.records.len(), 3);
    assert_eq!(replay.corrupt_dropped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Appends retried through a flaky disk (seeded transient faults on every
/// operation class) still converge to a byte-exact replay: a fault costs
/// a retry, never a lost or duplicated record.
#[test]
fn run_log_append_replay_round_trip_survives_transient_faults() {
    let dir = temp_dir("runlog-flaky");
    let fs: Arc<dyn StoreFs> = Arc::new(FaultFs::over_os(FaultConfig {
        seed: 20_131_029,
        io_fault_rate: 0.2,
        crash_at: None,
    }));
    let log = (0..1_000)
        .find_map(|_| RunLog::open_with(&dir, fs.clone()).ok())
        .expect("open survives bounded retries");
    for i in 0..8 {
        let record = sweep_cell(i);
        (0..1_000)
            .find_map(|_| log.append(&record).ok())
            .expect("append survives bounded retries");
    }

    // Replay over the healthy disk: every record exactly once, in order.
    // A retry whose first attempt committed durably before faulting leaves
    // a byte-equal sibling under the next sequence; replay collapses it
    // (`duplicates_dropped`), so the history is exact either way.
    let replay = RunLog::open(&dir).expect("reopen").replay();
    assert_eq!(
        replay.corrupt_dropped, 0,
        "no fault may surface as corruption"
    );
    assert_eq!(replay.records.len(), 8);
    for (i, (_, record)) in replay.records.iter().enumerate() {
        assert_eq!(record, &sweep_cell(i as u64));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault-free filesystem over the disk, on which a test arms one read
/// fault just before the operation it faults.
fn faultable() -> Arc<FaultFs> {
    Arc::new(FaultFs::over_os(FaultConfig::default()))
}

/// A report that cannot be read is not a missing report: with the claim's
/// read of a finished submission's report faulting, the claim must not
/// issue a second generation for work that is already done.
#[test]
fn report_read_fault_never_reissues_finished_work() {
    let dir = temp_dir("deny-report");
    let healthy = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let seq = healthy.submit(b"work", 5, 1, 0).unwrap();
    let lease = healthy.lease_next("w1").unwrap().expect("claimable");
    flush(&healthy, &lease, b"done").unwrap();
    drop(healthy);

    let fs = faultable();
    let flaky = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_100)), fs.clone())
        .expect("open over flaky disk");
    let report = dir.join("reports").join(format!("sub-{seq:08}.g0001.rep"));
    fs.fail_nth_read_of(&report, 1, ForcedFault::Transient);
    if let Ok(Some(lease)) = flaky.lease_next("w2") {
        assert_ne!(
            (lease.seq, lease.token),
            (seq, 2),
            "finished work re-issued"
        );
    }
    assert_eq!(flaky.stats().reclaims, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A lease that cannot be read is not a dead lease: while w1 holds a live
/// lease, one faulting read of it must not let w2 claim the next
/// generation, and w1's flush still lands.
#[test]
fn lease_read_fault_never_steals_a_live_lease() {
    let dir = temp_dir("fail-lease-read");
    let w1 = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let seq = w1.submit(b"work", 5, 1, 0).unwrap();
    let lease = w1.lease_next("w1").unwrap().expect("claimable");
    assert_eq!(lease.token, 1);

    // w2's claim reads the lease twice: the generation probe, then the
    // liveness check. The liveness check faults.
    let fs = faultable();
    let w2 = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_010)), fs.clone())
        .expect("open over flaky disk");
    let held = dir.join("leases").join(format!("sub-{seq:08}.g0001"));
    fs.fail_nth_read_of(&held, 2, ForcedFault::Transient);
    if let Ok(Some(stolen)) = w2.lease_next("w2") {
        assert_ne!(stolen.token, 2, "a live lease was stolen");
    }
    flush(&w1, &lease, b"done").expect("w1 still holds its lease");
    assert_eq!(w1.report(seq).as_deref(), Some(&b"done"[..]));
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-back rides out a read fault: the lease is released, so the
/// work re-leases at once instead of after the lease expires.
#[test]
fn hand_back_retries_a_faulting_release() {
    let dir = temp_dir("hand-back");
    let fs = faultable();
    let flaky = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_000)), fs.clone())
        .expect("open over flaky disk");
    let seq = flaky.submit(b"work", 5, 1, 0).unwrap();
    let lease = flaky.lease_next("w1").unwrap().expect("claimable");
    assert_eq!((lease.seq, lease.token), (seq, 1));
    // The release's liveness check is the hand-back's first read of the
    // lease.
    let held = dir.join("leases").join(format!("sub-{seq:08}.g0001"));
    fs.fail_nth_read_of(&held, 1, ForcedFault::Transient);
    flaky.hand_back(&lease);

    let healthy = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let next = healthy
        .lease_next("w2")
        .unwrap()
        .expect("handed-back work re-leases at once");
    assert_eq!(next.token, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption is a verdict about *bytes*, never about a failed read: a
/// record whose read faults transiently during the open-time sweep must
/// stay in place (a flaky disk must never quarantine committed work —
/// the regression here quarantined a perfectly intact submission).
#[test]
fn transient_read_fault_never_quarantines_valid_work() {
    let dir = temp_dir("deny-read");
    let healthy = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let seq = healthy.submit(b"intact-payload", 5, 1, 0).unwrap();
    let sub_path = dir.join("submissions").join(format!("sub-{seq:08}.spwq"));
    let before = std::fs::read(&sub_path).unwrap();
    drop(healthy);

    // Reopen with the open-time corrupt-record sweep's read of exactly
    // that record faulting; the unreadable-but-intact submission must
    // survive the sweep untouched.
    let fs = faultable();
    fs.fail_nth_read_of(&sub_path, 1, ForcedFault::Transient);
    let flaky = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_100)), fs.clone())
        .expect("open over flaky disk");
    assert_eq!(flaky.stats().quarantined, 0, "no verdict without bytes");
    assert!(sub_path.exists(), "the record must stay in submissions/");
    assert_eq!(std::fs::read(&sub_path).unwrap(), before);

    // The claim path surfaces the same fault as retryable I/O, not as a
    // missing or corrupt record.
    fs.fail_nth_read_of(&sub_path, 1, ForcedFault::Transient);
    let err = flaky
        .submission_checked(seq)
        .expect_err("read fault surfaces");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

    // Once the disk behaves, the untouched record leases and drains.
    drop(flaky);
    let recovered =
        WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_200))).expect("reopen");
    let lease = recovered
        .lease_next("w1")
        .unwrap()
        .expect("still claimable");
    assert_eq!(lease.seq, seq);
    flush(&recovered, &lease, b"done").unwrap();
    assert!(recovered.drained());
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed read is not "no work" and not corruption: with the one
/// submission's read faulting, the queue is not drained, and the digest
/// still counts the submission and no corrupt drop.
#[test]
fn transient_read_fault_never_reads_as_drained_or_corrupt() {
    let dir = temp_dir("deny-read-drained");
    let healthy = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).expect("open");
    let seq = healthy.submit(b"intact-payload", 5, 1, 0).unwrap();
    drop(healthy);

    let fs = faultable();
    let flaky = WorkQueue::open_with(&dir, 60, Arc::new(FixedClock(1_100)), fs.clone())
        .expect("open over flaky disk");
    let sub_path = dir.join("submissions").join(format!("sub-{seq:08}.spwq"));
    fs.fail_nth_read_of(&sub_path, 1, ForcedFault::Transient);
    assert!(!flaky.drained(), "unread work is not finished work");
    fs.fail_nth_read_of(&sub_path, 1, ForcedFault::Transient);
    let stats = flaky.stats();
    assert_eq!(stats.submissions, 1, "the unread submission stays enqueued");
    assert_eq!(stats.corrupt_dropped, 0, "no verdict without bytes");
    std::fs::remove_dir_all(&dir).ok();
}
