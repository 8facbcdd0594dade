//! Multi-process fleet equivalence.
//!
//! The contract of the distributed queue (`sp_store::wq` +
//! `sp_core::fleet`): N independent workers — each with its **own**
//! `SpSystem`, sharing nothing but the queue directory — drain one
//! campaign backlog, and every campaign's report is byte-identical to the
//! solo single-process oracle, with each executing worker's ledger holding
//! exactly the campaign's pre-reserved run-id range in order. A worker
//! that dies mid-campaign loses its lease at expiry, the work is
//! re-leased under the next fencing generation, and the zombie can
//! neither publish nor corrupt the collected results.
//!
//! Workers here are threads *with fully isolated systems and their own
//! queue handles* — the same sharing surface as separate OS processes
//! (the `repro-fleet` binary exercises the real `fork`/`exec` shape).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
use sp_core::fleet::{self, Coordinator, Worker, WorkerStats};
use sp_core::{
    Campaign, CampaignConfig, CampaignOptions, ExperimentDef, PreservationLevel, RunConfig,
    SpSystem, TestKind, TestSuite, ValidationTest,
};
use sp_env::{catalog, Arch, CodeTrait, Version, VmImageId};
use sp_exec::ChainDef;
use sp_store::{TimeSource, WorkQueue, WqError};

/// A compact experiment (same construction as the campaign-equivalence
/// suite): compile + unit + standalone + a tiny MC chain, optionally with
/// a latent 64-bit bug so grids exercise comparison failures too.
fn experiment(name: &str, buggy: bool) -> ExperimentDef {
    let mut lib = Package::new("lib", Version::new(1, 2, 0), PackageKind::Library);
    if buggy {
        lib = lib.with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 6.0 });
    }
    let graph = DependencyGraph::from_packages([
        lib,
        Package::new("ana", Version::new(2, 0, 0), PackageKind::Analysis).dep("lib"),
    ])
    .unwrap();
    let mut suite = TestSuite::new(name, PreservationLevel::FullSoftware);
    for pkg in ["lib", "ana"] {
        suite
            .add(ValidationTest::new(
                format!("{name}/compile/{pkg}"),
                name,
                "compilation",
                TestKind::Compile {
                    package: PackageId::new(pkg),
                },
            ))
            .unwrap();
    }
    suite
        .add(ValidationTest::new(
            format!("{name}/unit/lib-0"),
            name,
            "unit checks",
            TestKind::UnitCheck {
                package: PackageId::new("lib"),
                check_index: 0,
            },
        ))
        .unwrap();
    let stage_packages: BTreeMap<String, PackageId> = [
        ("mcgen", "lib"),
        ("sim", "lib"),
        ("dst", "lib"),
        ("microdst", "lib"),
        ("analysis", "ana"),
        ("validation", "ana"),
    ]
    .into_iter()
    .map(|(stage, pkg)| (stage.to_string(), PackageId::new(pkg)))
    .collect();
    suite
        .add(ValidationTest::new(
            format!("{name}/chain/nc"),
            name,
            "MC chain",
            TestKind::Chain {
                chain: ChainDef::full_analysis_chain("nc"),
                stage_packages,
                events: 10,
            },
        ))
        .unwrap();
    ExperimentDef {
        name: name.into(),
        color: "blue",
        graph,
        suite,
        entry_points: vec![PackageId::new("ana")],
    }
}

const EXPERIMENTS: [(&str, bool); 3] = [("alpha", false), ("beta", true), ("gamma", false)];

/// A fresh, identically prepared system — what every process of the fleet
/// builds for itself from code (only *state* crosses processes).
fn fresh_system() -> (SpSystem, Vec<VmImageId>) {
    let system = SpSystem::new();
    let images = vec![
        system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap(),
        system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap(),
    ];
    for (name, buggy) in EXPERIMENTS {
        system.register_experiment(experiment(name, buggy)).unwrap();
    }
    (system, images)
}

fn subset<T: Clone>(pool: &[T], mask: usize) -> Vec<T> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

fn config_for(
    experiments: Vec<String>,
    images: Vec<VmImageId>,
    repetitions: usize,
    memoize: bool,
) -> CampaignConfig {
    CampaignConfig {
        experiments,
        images,
        repetitions,
        run: RunConfig {
            scale: 0.01,
            threads: 2,
            ..RunConfig::default()
        },
        interval_secs: 3_600,
        options: CampaignOptions {
            memoize,
            ..CampaignOptions::default()
        },
    }
}

/// The field-by-field sum of per-thread drain results, written out
/// without the name table the fleet digest goes through. Sleep time is
/// published in whole microseconds, so each worker's share is truncated
/// to that before it adds.
fn sum_by_hand(all: &[WorkerStats]) -> WorkerStats {
    let mut sum = WorkerStats::default();
    for stats in all {
        sum.campaigns_drained += stats.campaigns_drained;
        sum.runs_executed += stats.runs_executed;
        sum.failures += stats.failures;
        sum.renewals += stats.renewals;
        sum.io_retries += stats.io_retries;
        sum.publish_batches += stats.publish_batches;
        sum.sched.merge(&stats.sched);
        sum.poll.worked += stats.poll.worked;
        sum.poll.idle += stats.poll.idle;
        sum.poll.slept += Duration::from_micros(stats.poll.slept.as_micros() as u64);
    }
    sum
}

fn temp_queue_dir(tag: &str) -> std::path::PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sp-fleet-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::SeqCst)
    ))
}

proptest! {
    /// The headline acceptance property: for random experiment
    /// partitions, image subsets, repetition counts, fleet sizes and
    /// memoization, N isolated workers racing on one queue produce, for
    /// **every** campaign,
    ///
    /// * a report byte-identical to the solo sequential oracle, and
    /// * a ledger (on whichever worker executed it) holding exactly the
    ///   campaign's pre-reserved run-id range in ascending order,
    ///
    /// no matter how the leases interleave across workers.
    #[test]
    fn fleet_drained_reports_match_solo_oracles(
        assignment in prop::collection::vec(0usize..3, 3),
        img_masks in prop::collection::vec(1usize..4, 3),
        repetitions in prop::collection::vec(1usize..=2, 3),
        fleet_size in 1usize..=3,
        memoize in prop::bool::ANY,
    ) {
        let experiment_pool: Vec<String> =
            EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); 3];
        for (experiment, &slot) in experiment_pool.iter().zip(&assignment) {
            partitions[slot].push(experiment.clone());
        }
        let campaigns: Vec<(Vec<String>, usize, usize)> = partitions
            .into_iter()
            .zip(img_masks)
            .zip(repetitions)
            .filter(|((experiments, _), _)| !experiments.is_empty())
            .map(|((experiments, img_mask), reps)| (experiments, img_mask, reps))
            .collect();
        prop_assume!(!campaigns.is_empty());

        let dir = temp_queue_dir("prop");
        let queue = WorkQueue::open(&dir, 3_600).expect("queue dir");

        // Coordinator: pre-carve ids, record origins, enqueue.
        let (coordinator_system, coordinator_images) = fresh_system();
        let origin = coordinator_system.clock().now();
        let mut coordinator = Coordinator::new(&coordinator_system, &queue);
        let mut submitted = Vec::new();
        for (experiments, img_mask, reps) in &campaigns {
            let images = subset(&coordinator_images, *img_mask);
            let config = config_for(experiments.clone(), images, *reps, memoize);
            let ticket = coordinator.submit(config).expect("disjoint submission");
            let range = coordinator.reserved_run_ids(ticket).expect("carved range");
            submitted.push((ticket, range));
        }

        // The fleet: isolated systems, own queue handles, racing drains.
        let dir_for_workers = dir.clone();
        let worker_ledgers: Vec<(WorkerStats, Vec<(u64, String)>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..fleet_size)
                    .map(|w| {
                        let dir = dir_for_workers.clone();
                        scope.spawn(move || {
                            let queue = WorkQueue::open(&dir, 3_600).expect("worker queue");
                            let (system, _) = fresh_system();
                            let worker =
                                Worker::new(&system, &queue, format!("w{w}"), 2).with_patience(400);
                            let stats = worker.drain();
                            let ids = system
                                .ledger()
                                .runs()
                                .iter()
                                .map(|run| (run.id.0, run.experiment.clone()))
                                .collect();
                            (stats, ids)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        prop_assert!(coordinator.drained(), "the backlog must fully drain");
        let reports = coordinator.collect();
        prop_assert_eq!(reports.len(), campaigns.len());

        let drained_total: u64 = worker_ledgers
            .iter()
            .map(|(stats, _)| stats.campaigns_drained)
            .sum();
        prop_assert_eq!(drained_total as usize, campaigns.len());

        for (((experiments, img_mask, reps), (ticket, (first, last))), report) in
            campaigns.iter().zip(&submitted).zip(&reports)
        {
            let report = report.as_ref().expect("report published");
            prop_assert_eq!(report.ticket.index(), ticket.index());
            prop_assert!(!report.cancelled);
            prop_assert_eq!(report.completed_repetitions, *reps);

            // Solo oracle: fresh system, cursor pre-advanced to the
            // reserved base, same origin, strictly sequential execution.
            let (oracle_system, oracle_images) = fresh_system();
            prop_assert_eq!(oracle_system.clock().now(), origin);
            if first.0 > 1 {
                oracle_system.reserve_run_ids(first.0 - 1);
            }
            let images = subset(&oracle_images, *img_mask);
            let config = config_for(experiments.clone(), images, *reps, memoize);
            let oracle = Campaign::new(&oracle_system, config)
                .execute()
                .expect("oracle campaign");
            prop_assert_eq!(
                &report.summary,
                &oracle,
                "fleet report must be byte-identical to the solo oracle"
            );
            // Byte-identical holds literally on the wire too.
            prop_assert_eq!(
                fleet::encode_campaign_report(report),
                fleet::encode_campaign_report(&sp_core::CampaignReport {
                    ticket: report.ticket,
                    summary: oracle,
                    completed_repetitions: *reps,
                    cancelled: false,
                })
            );

            // Exactly one worker executed the campaign, and its ledger
            // holds exactly the reserved range in ascending order.
            let expected: Vec<u64> = (first.0..=last.0).collect();
            let holders: Vec<Vec<u64>> = worker_ledgers
                .iter()
                .map(|(_, ids)| {
                    ids.iter()
                        .filter(|(_, experiment)| experiments.contains(experiment))
                        .map(|(id, _)| *id)
                        .collect::<Vec<u64>>()
                })
                .filter(|ids| !ids.is_empty())
                .collect();
            prop_assert_eq!(holders.len(), 1, "one executor per campaign");
            prop_assert_eq!(
                &holders[0],
                &expected,
                "executor ledger must hold exactly the pre-reserved range in order"
            );
        }

        // The published fleet digest agrees with the per-thread stats,
        // field by field.
        let digest = fleet::fleet_stats(&queue);
        prop_assert_eq!(digest.queue.submissions, campaigns.len());
        prop_assert_eq!(digest.queue.completed, campaigns.len());
        prop_assert_eq!(digest.queue.corrupt_dropped, 0);
        prop_assert_eq!(digest.workers, fleet_size);
        let per_thread: Vec<WorkerStats> =
            worker_ledgers.iter().map(|(stats, _)| *stats).collect();
        prop_assert_eq!(digest.drained, sum_by_hand(&per_thread));

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A settable clock shared by the queue handles of one test, standing in
/// for the wall clock all processes of a real fleet share.
struct SharedClock(AtomicU64);

impl TimeSource for SharedClock {
    fn now_secs(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Crash recovery: a worker leases a campaign and dies without ever
/// publishing. After lease expiry a second worker re-leases the work
/// under the next fencing generation and completes it; the report is
/// byte-identical to the solo oracle, and the zombie's late commit is
/// rejected by the fencing token.
#[test]
fn crashed_worker_is_reclaimed_and_fenced() {
    let dir = temp_queue_dir("crash");
    let clock = Arc::new(SharedClock(AtomicU64::new(10_000)));
    let queue = WorkQueue::open_with_time(&dir, 60, clock.clone()).expect("queue dir");

    let (coordinator_system, images) = fresh_system();
    let origin = coordinator_system.clock().now();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    let config = config_for(
        vec!["alpha".into(), "beta".into()],
        images.clone(),
        2,
        false,
    );
    let ticket = coordinator.submit(config).expect("submission");
    let (first, last) = coordinator.reserved_run_ids(ticket).unwrap();

    // Worker 1 leases the campaign and crashes mid-flight: no heartbeat,
    // no publish, no release.
    let doomed_lease = queue
        .try_lease(ticket.seq(), "doomed")
        .expect("queue io")
        .expect("claimable");
    assert!(
        queue.lease_next("survivor").expect("queue io").is_none(),
        "a live lease blocks re-claiming"
    );

    // The lease runs out (boundary-inclusive: dead at exactly expires_at).
    clock.0.fetch_add(60, Ordering::SeqCst);

    // Worker 2 drains the backlog on its own isolated system.
    let (survivor_system, _) = fresh_system();
    let survivor = Worker::new(&survivor_system, &queue, "survivor", 2).with_patience(50);
    let stats = survivor.drain();
    assert_eq!(stats.campaigns_drained, 1);
    assert!(queue.drained());
    assert_eq!(queue.stats().reclaims, 1, "generation 2 re-leased the work");

    // The zombie's stale commit bounces off the fencing token.
    match queue.publish_report(&doomed_lease, b"stale") {
        Err(WqError::StaleLease { held, current, .. }) => {
            assert_eq!(held, 1);
            assert_eq!(current, 2);
        }
        other => panic!("stale commit must be fenced, got {other:?}"),
    }

    // The collected report equals the solo oracle.
    let report = coordinator.collect().remove(0).expect("report published");
    assert!(!report.cancelled);
    let (oracle_system, oracle_images) = fresh_system();
    assert_eq!(oracle_system.clock().now(), origin);
    oracle_system.reserve_run_ids(first.0 - 1);
    let oracle = Campaign::new(
        &oracle_system,
        config_for(vec!["alpha".into(), "beta".into()], oracle_images, 2, false),
    )
    .execute()
    .expect("oracle campaign");
    assert_eq!(
        report.summary, oracle,
        "the re-leased campaign reports exactly what the oracle does"
    );

    // The survivor's ledger holds exactly the reserved range in order.
    let ids: Vec<u64> = survivor_system
        .ledger()
        .runs()
        .iter()
        .map(|run| run.id.0)
        .collect();
    assert_eq!(ids, (first.0..=last.0).collect::<Vec<u64>>());

    std::fs::remove_dir_all(&dir).ok();
}

/// A clock that advances itself by `step` seconds on **every read** — a
/// deterministic stand-in for wall time passing while a worker executes,
/// without the test having to race a background thread against the drain.
struct AutoClock {
    value: AtomicU64,
    step: AtomicU64,
}

impl AutoClock {
    fn frozen(start: u64) -> Arc<Self> {
        Arc::new(AutoClock {
            value: AtomicU64::new(start),
            step: AtomicU64::new(0),
        })
    }

    fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::SeqCst);
    }
}

impl TimeSource for AutoClock {
    fn now_secs(&self) -> u64 {
        self.value
            .fetch_add(self.step.load(Ordering::SeqCst), Ordering::SeqCst)
    }
}

/// The double-count regression: a worker fenced out mid-campaign rolls
/// its local absorption back and counts **nothing**; when the *same*
/// worker re-leases its own fenced submission under the next generation
/// and completes it, the ledger holds the reserved range exactly once and
/// `runs_executed` equals the campaign total exactly — each (submission,
/// published generation) is counted at most once.
#[test]
fn fenced_mid_flight_execution_rolls_back_and_re_lease_counts_once() {
    let dir = temp_queue_dir("fence");
    let clock = AutoClock::frozen(10_000);
    let queue = WorkQueue::open_with_time(&dir, 60, clock.clone()).expect("queue dir");

    let (coordinator_system, images) = fresh_system();
    let origin = coordinator_system.clock().now();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    let config = config_for(vec!["alpha".into(), "gamma".into()], images, 2, false);
    let ticket = coordinator.submit(config).expect("submission");
    let (first, last) = coordinator.reserved_run_ids(ticket).unwrap();

    let (system, _) = fresh_system();
    let worker = Worker::new(&system, &queue, "w0", 2)
        .with_patience(50)
        .with_lease_batch(1);
    let mut stats = WorkerStats::default();

    // Wall time leaps past the whole lease on every clock read: the first
    // renewal attempt finds the lease expired, records the fencing error,
    // cancels the campaign, and `drain_batch` rolls the absorption back.
    clock.set_step(61);
    let fenced = worker.drain_batch(&mut stats);
    assert!(
        fenced.is_err(),
        "mid-flight expiry must surface as an error"
    );
    assert_eq!(stats.failures, 1);
    assert_eq!(stats.campaigns_drained, 0);
    assert_eq!(
        stats.runs_executed, 0,
        "fenced-away runs are rolled back, never counted"
    );
    assert!(
        system.ledger().runs().is_empty(),
        "rollback leaves no trace in the local ledger"
    );
    assert!(coordinator.collect()[0].is_none(), "nothing was published");

    // Time freezes again; the same worker re-leases its own fenced
    // submission — indistinguishable from leasing a stranger's — and
    // completes it under generation 2.
    clock.set_step(0);
    let drained = worker
        .drain_batch(&mut stats)
        .expect("second attempt drains cleanly");
    assert_eq!(drained, vec![ticket.seq()]);
    assert_eq!(stats.campaigns_drained, 1);
    assert_eq!(stats.failures, 1, "only the fenced attempt failed");
    assert_eq!(
        queue.stats().reclaims,
        1,
        "generation 2 re-leased the fenced work"
    );

    let report = coordinator.collect().remove(0).expect("report published");
    assert!(!report.cancelled);
    assert_eq!(
        stats.runs_executed,
        report.summary.total_runs() as u64,
        "each (submission, published generation) counts exactly once"
    );

    // The ledger holds the reserved range exactly once, in order.
    let ids: Vec<u64> = system.ledger().runs().iter().map(|run| run.id.0).collect();
    assert_eq!(ids, (first.0..=last.0).collect::<Vec<u64>>());

    // And the published report is byte-identical to the solo oracle.
    let (oracle_system, oracle_images) = fresh_system();
    assert_eq!(oracle_system.clock().now(), origin);
    if first.0 > 1 {
        oracle_system.reserve_run_ids(first.0 - 1);
    }
    let oracle = Campaign::new(
        &oracle_system,
        config_for(
            vec!["alpha".into(), "gamma".into()],
            oracle_images,
            2,
            false,
        ),
    )
    .execute()
    .expect("oracle campaign");
    assert_eq!(
        report.summary, oracle,
        "a fenced-then-redone campaign reports exactly what the oracle does"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The slow-worker liveness property: a campaign whose wall time dwarfs
/// `lease_secs` completes on the first lease because the progress hook
/// renews it mid-flight — no expiry, no reclaim, no redone repetitions,
/// and the report is still byte-identical to the solo oracle.
#[test]
fn slow_worker_renews_through_the_barrier_and_is_never_reclaimed() {
    let dir = temp_queue_dir("slow");
    // Every clock read moves wall time 100 s; the lease lasts 1 000 s.
    // A campaign ticks the hook dozens of times, so its wall time spans
    // many lease durations — only the half-life renewal cadence (renew
    // once remaining <= 500 s, i.e. every ~5 reads) keeps it alive.
    let clock = AutoClock::frozen(50_000);
    clock.set_step(100);
    let queue = WorkQueue::open_with_time(&dir, 1_000, clock).expect("queue dir");

    let (coordinator_system, images) = fresh_system();
    let origin = coordinator_system.clock().now();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    let config = config_for(vec!["alpha".into(), "beta".into()], images, 2, false);
    let ticket = coordinator.submit(config).expect("submission");
    let (first, last) = coordinator.reserved_run_ids(ticket).unwrap();

    let (system, _) = fresh_system();
    let worker = Worker::new(&system, &queue, "w0", 2)
        .with_patience(50)
        .with_slowdown(Duration::from_millis(1));
    let stats = worker.drain();

    assert_eq!(stats.campaigns_drained, 1);
    assert_eq!(stats.failures, 0);
    assert!(
        stats.renewals > 0,
        "the progress hook must have renewed mid-campaign"
    );
    let queue_stats = queue.stats();
    assert_eq!(queue_stats.reclaims, 0, "the lease never expired");
    assert_eq!(
        queue_stats.leases_issued, 1,
        "one lease carried the whole campaign — zero redone repetitions"
    );

    let report = coordinator.collect().remove(0).expect("report published");
    assert!(!report.cancelled);
    assert_eq!(stats.runs_executed, report.summary.total_runs() as u64);
    let ids: Vec<u64> = system.ledger().runs().iter().map(|run| run.id.0).collect();
    assert_eq!(ids, (first.0..=last.0).collect::<Vec<u64>>());

    let (oracle_system, oracle_images) = fresh_system();
    assert_eq!(oracle_system.clock().now(), origin);
    if first.0 > 1 {
        oracle_system.reserve_run_ids(first.0 - 1);
    }
    let oracle = Campaign::new(
        &oracle_system,
        config_for(vec!["alpha".into(), "beta".into()], oracle_images, 2, false),
    )
    .execute()
    .expect("oracle campaign");
    assert_eq!(
        report.summary, oracle,
        "renewal must not perturb what the campaign reports"
    );

    // The published fleet digest carries the renewal count.
    let digest = fleet::fleet_stats(&queue);
    assert_eq!(digest.drained.renewals, stats.renewals);
    assert_eq!(digest.queue.poisoned, 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Poison persistence: an undecodable (digest-valid, structurally
/// garbage) submission is poisoned **on the queue** by the first worker
/// that leases it, so a restarted worker — fresh process, no in-memory
/// caches — never burns a lease on it, and the backlog still terminates.
#[test]
fn undecodable_submission_is_poisoned_durably_across_restarts() {
    let dir = temp_queue_dir("poison");
    let queue = WorkQueue::open(&dir, 3_600).expect("queue dir");

    let (coordinator_system, images) = fresh_system();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    // A garbage payload behind a valid digest: the record reads back
    // fine, but no build of this code can decode it into a campaign.
    let garbage_seq = queue
        .submit(b"not a campaign config", 900, 4, 0)
        .expect("garbage submission");
    let intact = coordinator
        .submit(config_for(vec!["gamma".into()], images, 1, false))
        .expect("intact submission");

    let (first_system, _) = fresh_system();
    let first = Worker::new(&first_system, &queue, "w0", 2).with_patience(3);
    let stats = first.drain();
    assert_eq!(stats.campaigns_drained, 1, "the intact submission drains");
    assert!(stats.failures >= 1);
    assert!(
        queue.is_poisoned(garbage_seq),
        "the undecodable submission is poisoned on the queue, not just in memory"
    );
    let mark = queue.poison_mark(garbage_seq).expect("durable poison mark");
    assert_eq!(mark.seq, garbage_seq);
    assert_eq!(mark.holder, "w0");
    assert!(mark.reason.contains("undecodable"));
    assert_eq!(queue.stats().poisoned, 1);
    let leases_before = queue.stats().leases_issued;

    // A restarted worker: new queue handle, new system, empty caches —
    // the shape of a worker process rebooting. It must honour the poison
    // mark before leasing, drain nothing, and still terminate.
    let reopened = WorkQueue::open(&dir, 3_600).expect("reopen queue");
    let (second_system, _) = fresh_system();
    let second = Worker::new(&second_system, &reopened, "w1", 2).with_patience(3);
    let restarted = second.drain();
    assert_eq!(restarted.campaigns_drained, 0);
    assert_eq!(
        restarted.failures, 0,
        "poison is honoured before leasing, not re-diagnosed"
    );
    assert_eq!(
        queue.stats().leases_issued,
        leases_before,
        "no lease was ever burned on the poisoned submission again"
    );
    assert!(second_system.ledger().runs().is_empty());

    // Poison is terminal: the queue considers the backlog drained, and
    // the fleet digest makes the poisoned count operator-visible.
    assert!(queue.drained(), "poisoned work must not wedge the backlog");
    let digest = fleet::fleet_stats(&queue);
    assert_eq!(digest.queue.poisoned, 1);
    assert!(coordinator.collect()[intact.index()].is_some());

    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt queue file is dropped, never executed: flipping a byte of a
/// submission makes it invisible to workers (and counted), while intact
/// submissions still drain.
#[test]
fn corrupt_submission_is_never_leased() {
    let dir = temp_queue_dir("corrupt");
    let queue = WorkQueue::open(&dir, 3_600).expect("queue dir");

    let (coordinator_system, images) = fresh_system();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    let victim = coordinator
        .submit(config_for(vec!["alpha".into()], images.clone(), 1, false))
        .expect("first submission");
    let intact = coordinator
        .submit(config_for(vec!["gamma".into()], images, 1, false))
        .expect("second submission");

    // Bit-rot on the shared medium hits the first submission.
    let path = dir.join(format!("submissions/sub-{:08}.spwq", victim.seq()));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    let (worker_system, _) = fresh_system();
    let worker = Worker::new(&worker_system, &queue, "w0", 2).with_patience(3);
    let stats = worker.drain();
    assert_eq!(
        stats.campaigns_drained, 1,
        "only the intact submission executes"
    );
    let reports = coordinator.collect();
    assert!(reports[victim.index()].is_none(), "corrupt work never ran");
    assert!(reports[intact.index()].is_some());
    assert!(queue.stats().corrupt_dropped > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flaky disk — transient faults injected on a sizeable fraction of the
/// worker's queue operations — degrades to bounded retries and idle
/// polls, never to poisoned work, quarantined records or lost reports.
/// The coordinator (healthy handle on the shared medium) still collects
/// every report; only the worker's machine has the failing disk.
#[test]
fn flaky_disk_degrades_to_retries_not_poison() {
    use sp_store::{FaultConfig, FaultFs, StoreFs, SystemTimeSource};

    let dir = temp_queue_dir("flaky");
    let queue = WorkQueue::open(&dir, 3_600).expect("queue dir");
    let (coordinator_system, images) = fresh_system();
    let mut coordinator = Coordinator::new(&coordinator_system, &queue);
    let tickets = vec![
        coordinator
            .submit(config_for(vec!["alpha".into()], images.clone(), 2, false))
            .expect("submit alpha"),
        coordinator
            .submit(config_for(vec!["gamma".into()], vec![images[1]], 1, false))
            .expect("submit gamma"),
    ];

    // The worker's view of the same queue directory goes through the
    // fault layer. Opening itself may hit injected faults; a real worker
    // process would be restarted by its supervisor, modelled by retrying.
    let fault: Arc<FaultFs> = Arc::new(FaultFs::over_os(FaultConfig {
        seed: 20131029,
        io_fault_rate: 0.15,
        crash_at: None,
    }));
    let fault_fs: Arc<dyn StoreFs> = fault.clone();
    let worker_queue = (0..200)
        .find_map(|_| {
            WorkQueue::open_with(&dir, 3_600, Arc::new(SystemTimeSource), fault_fs.clone()).ok()
        })
        .expect("a flaky open eventually succeeds");

    let (worker_system, _) = fresh_system();
    let worker = Worker::new(&worker_system, &worker_queue, "w-flaky", 2).with_patience(60);
    let stats = worker.drain();

    // Every campaign drained to a trusted report despite the fault rate…
    assert_eq!(stats.campaigns_drained, 2, "flaky disk must still drain");
    let reports = coordinator.collect();
    for ticket in &tickets {
        assert!(
            reports[ticket.index()].is_some(),
            "report for submission {} lost to a transient fault",
            ticket.seq()
        );
    }
    assert!(queue.drained());

    // …and the degradation took the intended shape: retries, not verdicts.
    assert!(
        stats.io_retries > 0,
        "a 15% fault rate must exercise the retry policy"
    );
    let queue_stats = queue.stats();
    assert_eq!(
        queue_stats.poisoned, 0,
        "transient faults must never poison"
    );
    assert_eq!(
        queue_stats.quarantined, 0,
        "transient faults must never quarantine valid records"
    );
    std::fs::remove_dir_all(&dir).ok();
}
