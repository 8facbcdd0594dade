//! Lease-table edge cases of the durable work queue.
//!
//! The fleet's crash-recovery guarantees live or die on exact lease
//! semantics: expiry inclusive at the heartbeat boundary, double release
//! as a protocol error (not a no-op), fencing-token rejection of commits
//! from expired or superseded leases, and the `SPWS` trust posture for
//! everything read off the shared medium — truncated or bit-flipped
//! queue files are dropped, never trusted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sp_store::{Lease, TimeSource, WorkQueue, WqError};

/// A settable clock standing in for the wall clock a real fleet shares.
struct TestClock(AtomicU64);

impl TimeSource for TestClock {
    fn now_secs(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

fn queue(lease_secs: u64, tag: &str) -> (WorkQueue, Arc<TestClock>, PathBuf) {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sp-wq-lease-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let clock = Arc::new(TestClock(AtomicU64::new(50_000)));
    let q = WorkQueue::open_with_time(&dir, lease_secs, clock.clone()).unwrap();
    (q, clock, dir)
}

#[test]
fn expiry_is_inclusive_exactly_at_the_boundary() {
    let (q, clock, dir) = queue(30, "boundary");
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut lease = q.lease_next("w1").unwrap().unwrap();
    assert_eq!(lease.expires_at, 50_030);

    // One second *before* the boundary the lease is alive: it can still
    // heartbeat, and nobody else can claim.
    clock.0.store(50_029, Ordering::SeqCst);
    assert!(q.lease_next("w2").unwrap().is_none());
    q.renew(&mut lease).unwrap();
    assert_eq!(lease.expires_at, 50_029 + 30);

    // *At* the boundary the lease is dead — the heartbeat that lands on
    // `expires_at` is one second too late, and the work is reclaimable.
    clock.0.store(lease.expires_at, Ordering::SeqCst);
    assert!(matches!(
        q.renew(&mut lease),
        Err(WqError::Expired { token: 1, .. })
    ));
    let reclaimed = q.lease_next("w2").unwrap().expect("boundary = expired");
    assert_eq!(reclaimed.token, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_release_is_a_protocol_error() {
    let (q, _clock, dir) = queue(60, "double-release");
    q.submit(b"work", 1, 1, 0).unwrap();
    let lease = q.lease_next("w1").unwrap().unwrap();
    q.publish_report(&lease, b"done").unwrap();
    q.release(&lease).unwrap();
    assert!(matches!(
        q.release(&lease),
        Err(WqError::AlreadyReleased { token: 1, .. })
    ));
    // Nor can a released lease heartbeat or publish.
    let mut stale = lease.clone();
    assert!(matches!(
        q.renew(&mut stale),
        Err(WqError::AlreadyReleased { .. })
    ));
    assert!(matches!(
        q.publish_report(&lease, b"again"),
        Err(WqError::AlreadyReleased { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_from_an_expired_lease_is_fenced() {
    let (q, clock, dir) = queue(30, "fencing");
    let seq = q.submit(b"work", 1, 1, 0).unwrap();
    let dead = q.lease_next("w1").unwrap().unwrap();

    // Expired but not yet superseded: the commit is rejected as expired —
    // the holder cannot sneak results in after its deadline.
    clock.0.fetch_add(30, Ordering::SeqCst);
    assert!(matches!(
        q.publish_report(&dead, b"late"),
        Err(WqError::Expired { token: 1, .. })
    ));
    assert!(q.report(seq).is_none());

    // Superseded by the next generation: rejected as stale, with both
    // tokens named.
    let fresh = q.lease_next("w2").unwrap().unwrap();
    match q.publish_report(&dead, b"stale") {
        Err(WqError::StaleLease { held, current, .. }) => {
            assert_eq!((held, current), (1, 2));
        }
        other => panic!("expected StaleLease, got {other:?}"),
    }
    // The live generation commits normally and its report is trusted.
    q.publish_report(&fresh, b"good").unwrap();
    q.release(&fresh).unwrap();
    assert_eq!(q.report(seq).unwrap(), b"good");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn releasing_a_lease_someone_else_reclaimed_is_rejected() {
    let (q, clock, dir) = queue(30, "foreign-release");
    q.submit(b"work", 1, 1, 0).unwrap();
    let dead = q.lease_next("w1").unwrap().unwrap();
    clock.0.fetch_add(30, Ordering::SeqCst);
    let fresh = q.lease_next("w2").unwrap().unwrap();
    // The zombie cannot release the work out from under the new holder.
    assert!(matches!(
        q.release(&dead),
        Err(WqError::StaleLease {
            held: 1,
            current: 2,
            ..
        })
    ));
    // A lease whose record names a different holder is not operable
    // either (an impersonated release is NotHeld, not honoured).
    let mut impostor = fresh.clone();
    impostor.holder = "w3".to_string();
    assert!(matches!(
        q.release(&impostor),
        Err(WqError::NotHeld { token: 2, .. })
    ));
    q.release(&fresh).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Renewal at the exact expiry boundary is one second too late: expiry
/// is inclusive, so `now == expires_at` means dead — renewal must fail
/// and must not extend the lease.
#[test]
fn renew_at_the_exact_expiry_boundary_fails() {
    let (q, clock, dir) = queue(30, "renew-boundary");
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut lease = q.lease_next("w1").unwrap().unwrap();
    let boundary = lease.expires_at;
    clock.0.store(boundary, Ordering::SeqCst);
    assert!(matches!(
        q.renew(&mut lease),
        Err(WqError::Expired { token: 1, .. })
    ));
    // The failed renewal extended nothing: the caller's lease still
    // carries the old expiry, and the work is reclaimable right now.
    assert_eq!(lease.expires_at, boundary);
    assert!(q.lease_next("w2").unwrap().is_some());
    // One second earlier it renews, and the renewal reports the new
    // expiry the queue will actually judge by.
    let (q2, clock2, dir2) = queue(30, "renew-boundary-live");
    q2.submit(b"work", 1, 1, 0).unwrap();
    let mut live = q2.lease_next("w1").unwrap().unwrap();
    clock2.0.store(live.expires_at - 1, Ordering::SeqCst);
    let renewed_to = q2.renew(&mut live).unwrap();
    assert_eq!(renewed_to, live.expires_at);
    assert_eq!(renewed_to, clock2.0.load(Ordering::SeqCst) + 30);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

/// Renewal after fencing returns the fencing error — it can never
/// resurrect a lease whose work was re-issued to someone else.
#[test]
fn renew_after_fencing_returns_the_fencing_error() {
    let (q, clock, dir) = queue(30, "renew-fenced");
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut zombie = q.lease_next("w1").unwrap().unwrap();
    clock.0.fetch_add(30, Ordering::SeqCst);
    let fresh = q.lease_next("w2").unwrap().unwrap();
    assert_eq!(fresh.token, 2);
    // The zombie's renewal is rejected with the fencing error naming
    // both tokens, and the live holder's lease is untouched by it.
    match q.renew(&mut zombie) {
        Err(WqError::StaleLease { held, current, .. }) => {
            assert_eq!((held, current), (1, 2));
        }
        other => panic!("expected StaleLease, got {other:?}"),
    }
    q.publish_report(&fresh, b"good").unwrap();
    q.release(&fresh).unwrap();
    assert_eq!(q.report(fresh.seq).unwrap(), b"good");
    std::fs::remove_dir_all(&dir).ok();
}

/// Renewal racing reclamation: whichever lands first, exactly one party
/// ends up holding the work. If the renewal lands before the claim, the
/// claimant finds a live lease and gets nothing; if the claim lands
/// first, the renewal is fenced.
#[test]
fn renewal_racing_reclamation_leaves_one_holder() {
    // Renewal first: the lease is alive again, the claim finds nothing.
    let (q, clock, dir) = queue(30, "renew-race-a");
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut lease = q.lease_next("w1").unwrap().unwrap();
    clock.0.store(lease.expires_at - 1, Ordering::SeqCst);
    q.renew(&mut lease).unwrap();
    clock.0.fetch_add(15, Ordering::SeqCst); // past the *old* expiry
    assert!(q.lease_next("w2").unwrap().is_none(), "renewal won");
    std::fs::remove_dir_all(&dir).ok();

    // Claim first: the old holder's renewal is fenced, not honoured.
    let (q, clock, dir) = queue(30, "renew-race-b");
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut old = q.lease_next("w1").unwrap().unwrap();
    clock.0.store(old.expires_at, Ordering::SeqCst);
    let claimed = q.lease_next("w2").unwrap().expect("claim won");
    assert!(matches!(
        q.renew(&mut old),
        Err(WqError::StaleLease {
            held: 1,
            current: 2,
            ..
        })
    ));
    q.release(&claimed).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// An abandoned-but-unexpired release makes the work immediately
/// reclaimable: releasing without a report is the polite "I can't do
/// this" hand-back, and the next claimant gets the next generation.
#[test]
fn release_without_report_requeues_the_work() {
    let (q, _clock, dir) = queue(3_600, "requeue");
    let seq = q.submit(b"work", 1, 1, 0).unwrap();
    let lease = q.lease_next("w1").unwrap().unwrap();
    q.release(&lease).unwrap();
    let again = q.lease_next("w2").unwrap().expect("requeued");
    assert_eq!(again.seq, seq);
    assert_eq!(again.token, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn (half-written) report record reads as absent — never as a
/// trusted report — and the work it covered is simply re-leasable under
/// the next fencing generation, which can publish a fresh report.
#[test]
fn torn_report_reads_absent_and_the_work_re_leases() {
    let (q, clock, dir) = queue(30, "torn-report");
    let seq = q.submit(b"work", 1, 1, 0).unwrap();
    let lease = q.lease_next("w1").unwrap().unwrap();
    q.publish_report(&lease, b"the-report").unwrap();
    q.release(&lease).unwrap();
    assert_eq!(q.report(seq).as_deref(), Some(b"the-report".as_slice()));

    // The crash model's worst leftover: the record torn to a prefix.
    let reports = std::fs::read_dir(dir.join("reports"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect::<Vec<_>>();
    assert_eq!(reports.len(), 1);
    let bytes = std::fs::read(&reports[0]).unwrap();
    std::fs::write(&reports[0], &bytes[..bytes.len() / 2]).unwrap();

    // Detection, not trust; degradation, not abort.
    assert!(q.report(seq).is_none(), "a torn report must not be trusted");
    assert!(!q.drained(), "work without a trusted report is not drained");
    clock.0.fetch_add(31, Ordering::SeqCst);
    let recovery = q.lease_next("w2").unwrap().expect("re-leasable");
    assert_eq!(recovery.seq, seq);
    assert!(recovery.token > lease.token, "old generation stays burned");
    q.publish_report(&recovery, b"the-report").unwrap();
    q.release(&recovery).unwrap();
    assert_eq!(q.report(seq).as_deref(), Some(b"the-report".as_slice()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Transient I/O faults surface as [`WqError::Io`] with a retryable kind
/// — never disguised as a lease-protocol verdict — so a retry policy can
/// tell "the disk hiccupped" from "the lease is gone" and the same
/// operation succeeds on the next attempt.
#[test]
fn transient_faults_surface_as_io_not_protocol_verdicts() {
    use sp_store::{FaultConfig, FaultFs, StoreFs, TimeSource};

    struct FixedTime;
    impl TimeSource for FixedTime {
        fn now_secs(&self) -> u64 {
            50_000
        }
    }

    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sp-wq-lease-transient-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let fault = Arc::new(FaultFs::over_os(FaultConfig::default()));
    let fault_fs: Arc<dyn StoreFs> = fault.clone();
    let q = WorkQueue::open_with(&dir, 60, Arc::new(FixedTime), fault_fs).unwrap();
    q.submit(b"work", 1, 1, 0).unwrap();
    let mut lease = q.lease_next("w1").unwrap().unwrap();

    // Arm one transient fault: the renew fails as Io(Interrupted)…
    fault.fail_next_write(sp_store::ForcedFault::Transient);
    match q.renew(&mut lease) {
        Err(WqError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        }
        other => panic!("transient fault must surface as WqError::Io, got {other:?}"),
    }
    // …and the very next attempt succeeds with the same token: the
    // fault proved nothing about the lease.
    q.renew(&mut lease).expect("retry succeeds");
    q.publish_report(&lease, b"done").unwrap();
    q.release(&lease).unwrap();
    assert!(q.drained());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lease_batch_claims_up_to_max_and_respects_the_filter() {
    let (q, _clock, dir) = queue(60, "batch-claim");
    let seqs: Vec<u64> = (0..5)
        .map(|i| {
            q.submit(format!("work-{i}").as_bytes(), 1 + i * 10, 1, 0)
                .unwrap()
        })
        .collect();

    // The filter models a worker's poisoned/completed caches.
    let skipped = seqs[1];
    let batch = q
        .try_lease_batch("w1", 3, |seq| seq != skipped)
        .expect("batch claim");
    let claimed: Vec<u64> = batch.iter().map(|l| l.seq).collect();
    assert_eq!(
        claimed,
        vec![seqs[0], seqs[2], seqs[3]],
        "max honoured, filter applied"
    );

    // Claimed work is invisible to a sibling; the remainder is not.
    let sibling = q.try_lease_batch("w2", 5, |_| true).expect("sibling claim");
    let sibling_seqs: Vec<u64> = sibling.iter().map(|l| l.seq).collect();
    assert_eq!(sibling_seqs, vec![seqs[1], seqs[4]]);

    // Every batch-claimed lease speaks the full single-lease protocol.
    for lease in batch.iter().chain(sibling.iter()) {
        q.publish_report(lease, b"done").unwrap();
        q.release(lease).unwrap();
    }
    assert!(q.drained());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn expired_batch_is_fenced_per_item_and_reclaims_whole() {
    let (q, clock, dir) = queue(30, "batch-fence");
    let seqs: Vec<u64> = (0..3)
        .map(|i| {
            q.submit(format!("work-{i}").as_bytes(), 1 + i * 10, 1, 0)
                .unwrap()
        })
        .collect();
    let stale = q
        .try_lease_batch("w-slow", 3, |_| true)
        .expect("first claim");
    assert_eq!(stale.len(), 3);

    // The whole batch expires; a healthy sibling reclaims every item at
    // the next generation.
    clock.0.fetch_add(30, Ordering::SeqCst);
    let fresh = q.try_lease_batch("w-fresh", 3, |_| true).expect("reclaim");
    assert_eq!(fresh.len(), 3);
    for (old, new) in stale.iter().zip(&fresh) {
        assert_eq!(old.seq, new.seq);
        assert!(new.token > old.token, "reclaim burns a new generation");
    }

    // The stale holder's batched flush is rejected item by item — the
    // fencing token keeps every one of its commits out, and the verdicts
    // stay index-aligned with the items.
    let payloads: Vec<(&Lease, &[u8])> = stale.iter().map(|l| (l, b"stale".as_slice())).collect();
    let verdicts = q.publish_and_release_batch(&payloads);
    assert_eq!(verdicts.len(), stale.len());
    for verdict in &verdicts {
        assert!(
            matches!(verdict, Err(WqError::StaleLease { .. })),
            "stale batch item must be fenced, got {verdict:?}"
        );
    }
    for seq in &seqs {
        assert!(q.report(*seq).is_none(), "no stale report may be trusted");
    }

    // The fresh holder's batch lands whole.
    let payloads: Vec<(&Lease, &[u8])> = fresh.iter().map(|l| (l, b"fresh".as_slice())).collect();
    for verdict in q.publish_and_release_batch(&payloads) {
        verdict.expect("current generation publishes");
    }
    for seq in &seqs {
        assert_eq!(q.report(*seq).as_deref(), Some(b"fresh".as_slice()));
    }
    assert!(q.drained());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partially_fenced_batch_commits_only_the_live_items() {
    let (q, clock, dir) = queue(30, "batch-partial");
    let a = q.submit(b"work-a", 1, 1, 0).unwrap();
    let b = q.submit(b"work-b", 11, 1, 0).unwrap();
    let batch = q.try_lease_batch("w1", 2, |_| true).expect("claim both");
    let mut keep = batch[0].clone();

    // Renew only the first lease past the expiry horizon, then let the
    // second lapse and be re-leased by a sibling.
    clock.0.fetch_add(29, Ordering::SeqCst);
    q.renew(&mut keep).expect("still live");
    clock.0.fetch_add(1, Ordering::SeqCst);
    let reclaimed = q
        .try_lease(b, "w2")
        .expect("reclaim io")
        .expect("expired item reclaims");
    assert_eq!(reclaimed.seq, b);

    // The original batch flush: the renewed item commits, the superseded
    // one is fenced — one batch, two verdicts.
    let items: Vec<(&Lease, &[u8])> = vec![(&keep, b"kept"), (&batch[1], b"stale")];
    let verdicts = q.publish_and_release_batch(&items);
    assert!(verdicts[0].is_ok(), "live item commits: {:?}", verdicts[0]);
    assert!(
        matches!(verdicts[1], Err(WqError::StaleLease { .. })),
        "superseded item is fenced: {:?}",
        verdicts[1]
    );
    assert_eq!(q.report(a).as_deref(), Some(b"kept".as_slice()));
    assert!(q.report(b).is_none());

    // The reclaimer finishes the fenced item's work.
    q.publish_report(&reclaimed, b"redone").unwrap();
    q.release(&reclaimed).unwrap();
    assert_eq!(q.report(b).as_deref(), Some(b"redone".as_slice()));
    assert!(q.drained());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// However renew, heartbeat, release, claims and clock advances
    /// interleave, one submission never ends up with two live holders:
    /// with the clock frozen, at most one of every lease ever handed out
    /// can still commit a report (commit = the operational definition of
    /// "live holder" — it requires being the current, unreleased,
    /// unexpired generation).
    #[test]
    fn interleaved_renew_heartbeat_release_never_two_live_holders(
        ops in prop::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 1..40),
    ) {
        let (q, clock, dir) = queue(20, "prop-renew");
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let mut handles: Vec<Lease> = Vec::new();
        let mut next_holder = 0u32;
        for (op, pick, advance) in ops {
            match op {
                0 => {
                    clock.0.fetch_add((advance % 25) as u64, Ordering::SeqCst);
                }
                1 => {
                    next_holder += 1;
                    if let Ok(Some(lease)) = q.try_lease(seq, &format!("w{next_holder}")) {
                        handles.push(lease);
                    }
                }
                2 => {
                    if !handles.is_empty() {
                        let i = pick as usize % handles.len();
                        let _ = q.renew(&mut handles[i]);
                    }
                }
                3 => {
                    if !handles.is_empty() {
                        let i = pick as usize % handles.len();
                        let _ = q.renew(&mut handles[i]);
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let i = pick as usize % handles.len();
                        let _ = q.release(&handles[i]);
                    }
                }
            }
        }
        let committed = handles
            .iter()
            .filter(|lease| q.publish_report(lease, b"x").is_ok())
            .count();
        prop_assert!(committed <= 1, "{committed} live holders of one seq");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `SPWS` posture, extended to every queue record: flip any
    /// single byte (or truncate) any file under the queue directory and
    /// the affected record is dropped — submissions cannot be fabricated,
    /// reports cannot be forged, and the accounting never panics. Intact
    /// records keep loading bit-exact.
    #[test]
    fn corrupted_queue_files_are_dropped_never_trusted(
        file_pick in 0usize..1024,
        corruption in 0usize..1024,
        truncate in prop::bool::ANY,
    ) {
        let (q, clock, dir) = queue(30, "prop");
        let seq_a = q.submit(b"payload-a", 10, 5, 777).unwrap();
        let seq_b = q.submit(b"payload-b", 15, 3, 777).unwrap();
        // One completed unit (lease + report + release), one expired
        // lease awaiting reclaim — so every record kind is on disk.
        let lease_a = q.lease_next("w1").unwrap().unwrap();
        q.publish_report(&lease_a, b"report-a").unwrap();
        q.release(&lease_a).unwrap();
        let _lease_b = q.lease_next("w1").unwrap().unwrap();
        clock.0.fetch_add(30, Ordering::SeqCst);

        // Collect every record file under the queue.
        let mut files: Vec<PathBuf> = Vec::new();
        for sub in ["submissions", "leases", "reports", "workers"] {
            if let Ok(entries) = std::fs::read_dir(dir.join(sub)) {
                for entry in entries.flatten() {
                    files.push(entry.path());
                }
            }
        }
        files.sort();
        prop_assert!(!files.is_empty());
        let victim = &files[file_pick % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assume!(!bytes.is_empty());
        if truncate {
            bytes.truncate(corruption % bytes.len());
        } else {
            let at = corruption % bytes.len();
            bytes[at] ^= 0xff;
        }
        std::fs::write(victim, &bytes).unwrap();

        // Nothing read back may be fabricated: every surviving
        // submission is one of the originals, bit for bit.
        for submission in q.submissions() {
            let expected: &[u8] = if submission.seq == seq_a {
                b"payload-a"
            } else {
                prop_assert_eq!(submission.seq, seq_b);
                b"payload-b"
            };
            prop_assert_eq!(&submission.payload[..], expected);
            prop_assert_eq!(submission.origin, 777);
        }
        // A surviving report is the original; a corrupted one reads as
        // absent (the work would simply be re-leased and re-executed).
        if let Some(report) = q.report(seq_a) {
            prop_assert_eq!(&report[..], b"report-a");
        }
        prop_assert!(q.report(seq_b).is_none());
        // Accounting never panics, and dropped records are counted
        // (corrupting a lease or worker file may instead surface as a
        // reclaimable generation — also safe).
        let _ = q.stats();
        // The queue remains operable: a fresh worker can still make
        // progress on whatever validates.
        let _ = q.lease_next("w2");
        std::fs::remove_dir_all(&dir).ok();
    }
}
