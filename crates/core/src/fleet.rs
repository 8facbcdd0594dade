//! The distributed campaign fleet: many processes, one backlog.
//!
//! The paper's validation system was a *pull* deployment: a central server
//! held the backlog of validation tasks, and many client machines leased
//! work, executed it against their local software environment, and
//! reported results back through the common storage (§3.1). This module
//! is that deployment shape for campaigns:
//!
//! * [`Coordinator`] — plans and enqueues campaigns onto a durable
//!   [`sp_store::WorkQueue`], pre-carving each campaign's run-id range and
//!   recording its virtual-clock origin at submission, then collects the
//!   published [`CampaignReport`]s;
//! * [`Worker`] — the drain loop a worker process runs: lease the next
//!   submission, re-plan it against the local [`SpSystem`] (definitions
//!   are code; only state crosses processes), execute it through a
//!   [`CampaignScheduler`] under the pre-reserved ids and recorded
//!   origin — renewing the lease from the scheduler's progress hook at
//!   every dispatch, task and repetition barrier, so a lease held by a
//!   live worker never expires however long the campaign runs — publish
//!   the report under the lease's fencing token, release, repeat; with
//!   jittered backoff ([`sp_exec::PollLoop`]) while the queue is empty
//!   and patience enough to outwait a crashed sibling's lease expiry.
//!
//! ## Result semantics
//!
//! Nothing about distribution may change what a campaign reports. Three
//! mechanisms carry that guarantee across process boundaries:
//!
//! 1. **pre-carved run-id ranges** — ids are allocated once, at
//!    submission, and stored in the queue record; whichever worker drains
//!    the plan executes under exactly those ids
//!    ([`CampaignScheduler::submit_reserved`]);
//! 2. **recorded origins** — timestamps derive from the origin recorded
//!    at submission ([`CampaignScheduler::execute_from`]), not from the
//!    executing worker's clock position;
//! 3. **experiment-disjoint backlogs** — the coordinator enforces the
//!    same disjointness rule as the in-process scheduler, so campaigns
//!    cannot see each other's references no matter how they distribute.
//!
//! The equivalence property — every fleet-drained report is byte-identical
//! to its solo single-process oracle, and each executing worker's ledger
//! holds exactly the reserved ranges in order — is asserted by
//! `crates/core/tests/fleet_equivalence.rs` for racing workers and for a
//! worker that dies mid-campaign (its lease expires, the work re-leases,
//! and the fencing token keeps any stale commit out).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use sp_exec::{
    Backoff, CancellationToken, PollLoop, PollOutcome, PollStats, ProgressHook, ProgressPoint,
    RetryPolicy,
};
use sp_obs::MetricsSnapshot;
use sp_store::{Lease, QueueStats, WorkQueue, WqError};
use sp_wire::{self as wire, Cursor};

use crate::campaign::{
    CampaignConfig, CampaignOptions, CampaignPlan, CampaignReport, CampaignScheduler,
    CampaignSummary, CampaignTicket, CellStatus, RunRecord, ScheduleStats,
};
use crate::run::RunId;
use crate::system::{RunConfig, SpSystem, SystemError};

/// Errors from fleet operations.
#[derive(Debug)]
pub enum FleetError {
    /// Planning or execution failed at the system layer.
    System(SystemError),
    /// The queue's lease protocol rejected an operation.
    Queue(WqError),
    /// Filesystem failure talking to the queue directory.
    Io(std::io::Error),
    /// A queue payload did not decode into the expected structure (the
    /// digest validated, but the content is not a campaign record this
    /// build understands).
    Codec(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::System(e) => write!(f, "fleet system error: {e}"),
            FleetError::Queue(e) => write!(f, "fleet queue error: {e}"),
            FleetError::Io(e) => write!(f, "fleet I/O error: {e}"),
            FleetError::Codec(what) => write!(f, "fleet payload undecodable: {what}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SystemError> for FleetError {
    fn from(e: SystemError) -> Self {
        FleetError::System(e)
    }
}

impl From<WqError> for FleetError {
    fn from(e: WqError) -> Self {
        FleetError::Queue(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// Handle to one campaign submitted to the fleet queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetTicket {
    /// Position in this coordinator's submission order.
    index: usize,
    /// Queue sequence number of the submission.
    seq: u64,
}

impl FleetTicket {
    /// Position of the campaign in submission order.
    pub fn index(self) -> usize {
        self.index
    }

    /// The underlying queue sequence number.
    pub fn seq(self) -> u64 {
        self.seq
    }
}

struct SubmittedCampaign {
    seq: u64,
    experiments: Vec<String>,
    base: RunId,
    total: u64,
}

/// The submitting side of the fleet: enqueues campaign plans onto the
/// shared queue and collects their reports.
pub struct Coordinator<'a> {
    system: &'a SpSystem,
    queue: &'a WorkQueue,
    submitted: Vec<SubmittedCampaign>,
}

impl<'a> Coordinator<'a> {
    /// Creates a coordinator over a system (for validation and run-id
    /// carving) and the shared queue.
    pub fn new(system: &'a SpSystem, queue: &'a WorkQueue) -> Self {
        Coordinator {
            system,
            queue,
            submitted: Vec::new(),
        }
    }

    /// Plans and enqueues a campaign: validates every experiment and
    /// image up front, rejects overlap with this coordinator's other
    /// submissions (the scheduler's disjointness rule, extended across
    /// processes), pre-carves the contiguous run-id range, and records
    /// the virtual-clock origin the campaign must execute at.
    pub fn submit(&mut self, config: CampaignConfig) -> Result<FleetTicket, FleetError> {
        let plan = CampaignPlan::new(self.system, config.clone())?;
        for earlier in &self.submitted {
            for name in &config.experiments {
                if earlier.experiments.contains(name) {
                    return Err(FleetError::System(SystemError::CampaignConflict(
                        name.clone(),
                    )));
                }
            }
        }
        let total = plan.total_runs() as u64;
        let base = self.system.reserve_run_ids(total);
        let origin = self.system.clock().now();
        let payload = encode_campaign_config(&config);
        let seq = self.queue.submit(&payload, base.0, total, origin)?;
        sp_obs::global().counter("fleet.submissions").incr();
        let index = self.submitted.len();
        self.submitted.push(SubmittedCampaign {
            seq,
            experiments: config.experiments,
            base,
            total,
        });
        Ok(FleetTicket { index, seq })
    }

    /// The run-id range `[first, last]` pre-carved for a submission.
    pub fn reserved_run_ids(&self, ticket: FleetTicket) -> Option<(RunId, RunId)> {
        let submission = self.submitted.get(ticket.index)?;
        Some((
            submission.base,
            RunId(submission.base.0 + submission.total.saturating_sub(1)),
        ))
    }

    /// Whether every submission of this coordinator has a trusted report.
    pub fn drained(&self) -> bool {
        self.submitted
            .iter()
            .all(|s| self.queue.report(s.seq).is_some())
    }

    /// Collects the published reports, in submission order. `None` slots
    /// are campaigns whose report has not (or not trustably) appeared.
    pub fn collect(&self) -> Vec<Option<CampaignReport>> {
        self.submitted
            .iter()
            .enumerate()
            .map(|(index, submission)| {
                let payload = self.queue.report(submission.seq)?;
                decode_campaign_report(&payload, CampaignTicket::from_index(index))
            })
            .collect()
    }
}

/// Counters of one worker process's drain loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Campaigns leased, executed and published by this worker.
    pub campaigns_drained: u64,
    /// Validation runs those campaigns performed **and published**: a
    /// fenced-away execution contributes nothing here — its runs were
    /// rolled back, and whoever re-leases the work (possibly this same
    /// worker) counts them on publication. Each (submission, published
    /// generation) is therefore counted at most once fleet-wide.
    pub runs_executed: u64,
    /// Leases abandoned because their payload would not decode or
    /// execute, plus executions fenced away by mid-flight lease loss.
    pub failures: u64,
    /// Mid-campaign lease renewals driven by the executor's progress
    /// hook (plus between-lease heartbeats, if the caller issues any).
    pub renewals: u64,
    /// Queue operations that hit a transient I/O fault and were retried
    /// under the worker's bounded backoff policy. A flaky disk shows up
    /// here as retries, not as fenced campaigns or poisoned work.
    pub io_retries: u64,
    /// Multi-submission batches flushed through the queue's batched
    /// publish+release path (one reports-dir and one leases-dir fsync
    /// each, however many campaigns the batch carried).
    pub publish_batches: u64,
    /// Scheduling counters accumulated across the drained campaigns.
    pub sched: ScheduleStats,
    /// Poll-loop accounting (worked/idle/slept).
    pub poll: PollStats,
}

/// The one name table through which a [`WorkerStats`] crosses processes
/// as a [`MetricsSnapshot`]: calls `visit` with each field's `fleet.*`
/// counter name and its value as a mutable `u64`. Every name sits under
/// `fleet.`, so adding a worker's counters to the process registry never
/// touches a name the exec layer counts itself.
fn visit_counters(stats: &mut WorkerStats, mut visit: impl FnMut(&'static str, &mut u64)) {
    let (sched, poll) = (&mut stats.sched, &mut stats.poll);
    for (name, value) in [
        ("fleet.campaigns_drained", &mut stats.campaigns_drained),
        ("fleet.runs_executed", &mut stats.runs_executed),
        ("fleet.failures", &mut stats.failures),
        ("fleet.renewals", &mut stats.renewals),
        ("fleet.io_retries", &mut stats.io_retries),
        ("fleet.publish_batches", &mut stats.publish_batches),
        ("fleet.sched.rounds", &mut sched.rounds),
        ("fleet.sched.lanes_executed", &mut sched.lanes_executed),
        ("fleet.sched.lanes_cancelled", &mut sched.lanes_cancelled),
        ("fleet.sched.lanes_local", &mut sched.lanes_local),
        ("fleet.sched.lanes_stolen", &mut sched.lanes_stolen),
        ("fleet.poll.worked", &mut poll.worked),
        ("fleet.poll.idle", &mut poll.idle),
    ] {
        visit(name, value);
    }
    for (name, count) in [
        (
            "fleet.sched.campaigns_submitted",
            &mut sched.campaigns_submitted,
        ),
        (
            "fleet.sched.campaigns_admitted",
            &mut sched.campaigns_admitted,
        ),
        (
            "fleet.sched.campaigns_completed",
            &mut sched.campaigns_completed,
        ),
        (
            "fleet.sched.campaigns_cancelled",
            &mut sched.campaigns_cancelled,
        ),
    ] {
        let mut value = *count as u64;
        visit(name, &mut value);
        *count = value as usize;
    }
    let mut slept_us = poll.slept.as_micros() as u64;
    visit("fleet.poll.slept_us", &mut slept_us);
    poll.slept = Duration::from_micros(slept_us);
}

impl WorkerStats {
    /// These counters as a snapshot of `fleet.*` counters, the form a
    /// worker publishes and the fleet digest merges. Sleep time goes out
    /// in whole microseconds.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let (mut stats, mut snapshot) = (*self, MetricsSnapshot::default());
        visit_counters(&mut stats, |name, value| {
            snapshot.counters.insert(name.to_string(), *value);
        });
        snapshot
    }

    /// Reads the `fleet.*` counters of `snapshot` back; absent ones are 0.
    pub fn from_metrics(snapshot: &MetricsSnapshot) -> WorkerStats {
        let mut stats = WorkerStats::default();
        visit_counters(&mut stats, |name, value| *value = snapshot.counter(name));
        stats
    }
}

/// The in-flight liveness bridge between one held [`Lease`] and the
/// executor's [`ProgressHook`] ticks.
///
/// The executor raises a tick at every lane dispatch, task completion and
/// repetition barrier; the renewer turns those into lease renewals with a
/// cadence derived from the queue's `lease_secs` — it renews once the
/// remaining lifetime has fallen to half the lease duration, so ticks
/// arriving every few milliseconds cost one clock read, not one disk
/// write each. Renewal is fenced: the first renewal rejected by the
/// queue's lease protocol records the error, cancels the campaign (via
/// the token installed by [`Worker::drain_batch`]) and stops renewing —
/// execution winds down promptly instead of burning a full campaign
/// whose publish is already doomed.
struct LeaseRenewer<'a> {
    queue: &'a WorkQueue,
    lease: Mutex<Lease>,
    /// Other leases this worker holds while the active one executes (the
    /// rest of a multi-lease batch: claimed-but-not-yet-executed plus
    /// executed-but-not-yet-published). They are renewed at the same
    /// half-life cadence from the same ticks, so a long campaign cannot
    /// silently expire its batch-mates; a sibling the protocol fences is
    /// dropped into `lost_siblings` (its work re-leases elsewhere)
    /// without cancelling the *active* campaign.
    siblings: Mutex<Vec<Lease>>,
    /// Siblings fenced away while idle, each with the protocol verdict
    /// its renewal hit.
    lost_siblings: Mutex<Vec<(Lease, WqError)>>,
    cancel: Mutex<Option<CancellationToken>>,
    fenced: Mutex<Option<WqError>>,
    renewals: AtomicU64,
    /// Chaos injection for the `repro-fleet` harness: sleep this long at
    /// every repetition barrier, making execution slower than
    /// `lease_secs` while the heartbeat stays live.
    slowdown: Option<Duration>,
}

impl<'a> LeaseRenewer<'a> {
    fn new(queue: &'a WorkQueue, lease: Lease, slowdown: Option<Duration>) -> Self {
        LeaseRenewer {
            queue,
            lease: Mutex::new(lease),
            siblings: Mutex::new(Vec::new()),
            lost_siblings: Mutex::new(Vec::new()),
            cancel: Mutex::new(None),
            fenced: Mutex::new(None),
            renewals: AtomicU64::new(0),
            slowdown,
        }
    }

    /// Installs the batch-mates to keep warm while the active lease's
    /// campaign executes.
    fn with_siblings(self, siblings: Vec<Lease>) -> Self {
        *self.siblings.lock() = siblings;
        self
    }

    /// Hands back the sibling leases (with whatever expiry renewals
    /// reached) and any fenced away mid-flight, each with the verdict
    /// its renewal hit.
    fn take_siblings(&self) -> (Vec<Lease>, Vec<(Lease, WqError)>) {
        (
            std::mem::take(&mut self.siblings.lock()),
            std::mem::take(&mut self.lost_siblings.lock()),
        )
    }

    /// Installs the campaign's cancellation token, tripped on the first
    /// fenced renewal.
    fn set_cancel(&self, token: CancellationToken) {
        *self.cancel.lock() = Some(token);
    }

    /// Snapshot of the held lease (with whatever expiry renewals reached).
    fn lease(&self) -> Lease {
        self.lease.lock().clone()
    }

    /// Renewals performed so far.
    fn renewals(&self) -> u64 {
        self.renewals.load(Ordering::Relaxed)
    }

    /// Takes the first fencing error a renewal hit, if any.
    fn take_fenced(&self) -> Option<WqError> {
        self.fenced.lock().take()
    }

    fn fenced_mid_flight(&self) -> bool {
        self.fenced.lock().is_some()
    }
}

impl ProgressHook for LeaseRenewer<'_> {
    fn tick(&self, point: ProgressPoint) {
        if let Some(slow) = self.slowdown {
            if point == ProgressPoint::Barrier {
                std::thread::sleep(slow);
            }
        }
        if self.fenced_mid_flight() {
            return;
        }
        let mut lease = self.lease.lock();
        // Renew at half-life: late enough to keep renewal I/O off the
        // hot path, early enough that one missed tick cannot cross the
        // expiry boundary.
        let remaining = lease.expires_at.saturating_sub(self.queue.now_secs());
        if remaining.saturating_mul(2) > self.queue.lease_secs() {
            return;
        }
        match self.queue.renew(&mut lease) {
            Ok(_) => {
                self.renewals.fetch_add(1, Ordering::Relaxed);
            }
            Err(WqError::Io(_)) => {
                // A disk hiccup is not a fence: the token is still ours,
                // and ticks arrive far more often than the half-life
                // cadence, so the next one retries with expiry still
                // comfortably distant. If the disk stays broken long
                // enough for the lease to actually lapse, the *protocol*
                // says so on a later renewal (or at publish) and the
                // fenced path below takes over. Cancelling a live
                // campaign on a transient error would turn one flaky
                // read into a wasted execution.
            }
            Err(error) => {
                // Fenced: the lease protocol itself rejected the renewal.
                // Record the error once and stop the campaign — its
                // publish can no longer land.
                *self.fenced.lock() = Some(error);
                if let Some(token) = self.cancel.lock().as_ref() {
                    token.cancel();
                }
                return;
            }
        }
        drop(lease);
        // Keep the rest of the batch warm at the same cadence. A fenced
        // *sibling* is not a fenced *campaign*: the idle lease's work
        // simply re-leases elsewhere, so we drop it from the batch and
        // keep executing.
        let mut siblings = self.siblings.lock();
        let mut idx = 0;
        while idx < siblings.len() {
            let remaining = siblings[idx]
                .expires_at
                .saturating_sub(self.queue.now_secs());
            if remaining.saturating_mul(2) > self.queue.lease_secs() {
                idx += 1;
                continue;
            }
            match self.queue.renew(&mut siblings[idx]) {
                Ok(_) => {
                    self.renewals.fetch_add(1, Ordering::Relaxed);
                    idx += 1;
                }
                Err(WqError::Io(_)) => {
                    // Same tolerance as the active lease: retry next tick.
                    idx += 1;
                }
                Err(error) => {
                    let lost = siblings.remove(idx);
                    self.lost_siblings.lock().push((lost, error));
                }
            }
        }
    }
}

/// How many submissions one poll claims and drains as a batch. Batching
/// amortises the queue's durable-publish cost — one parent-directory sync
/// per flushed batch instead of one per report — at the price of holding
/// the batch-mates' leases for the whole batch (renewed from the active
/// campaign's progress ticks, so they cannot silently lapse).
const LEASE_BATCH: usize = 4;

/// The draining side of the fleet: one per worker process.
pub struct Worker<'a> {
    system: &'a SpSystem,
    queue: &'a WorkQueue,
    name: String,
    threads: usize,
    max_idle_polls: u32,
    /// Chaos injection: per-barrier sleep handed to the [`LeaseRenewer`]
    /// (see [`with_slowdown`](Self::with_slowdown)).
    slowdown: Option<Duration>,
    /// Durable run-history log (see [`with_run_log`](Self::with_run_log)):
    /// when present, every published campaign's cell outcomes are appended
    /// as `SPRL` records *before* the report publish, so a trusted report
    /// always has its history on disk.
    run_log: Option<sp_store::RunLog>,
    poisoned: std::cell::RefCell<std::collections::BTreeSet<u64>>,
    /// Submissions whose record failed its digest. Queue records are
    /// write-once (created exclusively), so corruption is permanent too.
    invalid: std::cell::RefCell<std::collections::BTreeSet<u64>>,
    /// Bounded transient-fault retry for queue I/O: EINTR-class errors
    /// are re-attempted with jittered backoff before they surface, so a
    /// flaky disk degrades to retries instead of fenced campaigns.
    retry: std::cell::RefCell<RetryPolicy>,
}

impl<'a> Worker<'a> {
    /// Creates a worker draining `queue` into `system` with a
    /// `threads`-wide scheduler pool per campaign. The idle patience
    /// defaults to comfortably more than one lease duration, so a worker
    /// waiting on a crashed sibling's lease outlasts the expiry instead
    /// of giving up just before the work becomes reclaimable.
    pub fn new(
        system: &'a SpSystem,
        queue: &'a WorkQueue,
        name: impl Into<String>,
        threads: usize,
    ) -> Self {
        // Backoff caps at 500 ms; budget at least ~4x the lease duration
        // of consecutive idle sleeps (and never fewer than 40 polls).
        let max_idle_polls = (queue.lease_secs().saturating_mul(8)).clamp(40, 100_000) as u32;
        let name = name.into();
        let retry = RetryPolicy::for_disk(sp_store::fnv64(&name));
        Worker {
            system,
            queue,
            name,
            threads: threads.max(1),
            max_idle_polls,
            slowdown: None,
            run_log: None,
            poisoned: std::cell::RefCell::new(std::collections::BTreeSet::new()),
            invalid: std::cell::RefCell::new(std::collections::BTreeSet::new()),
            retry: std::cell::RefCell::new(retry),
        }
    }

    /// Runs a queue operation under the worker's transient-retry policy.
    fn retry_io<T>(&self, op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        self.retry.borrow_mut().run(op)
    }

    /// Like [`retry_io`](Self::retry_io) for operations speaking the
    /// lease protocol: only the [`WqError::Io`] variant is retryable —
    /// a protocol rejection (stale, expired, released) is a *verdict*,
    /// not a fault, and surfaces immediately.
    fn retry_wq<T>(&self, mut op: impl FnMut() -> Result<T, WqError>) -> Result<T, WqError> {
        let mut protocol = None;
        let result = self.retry.borrow_mut().run(|| match op() {
            Ok(value) => Ok(value),
            Err(WqError::Io(error)) => Err(error),
            Err(verdict) => {
                protocol = Some(verdict);
                // Non-transient by construction, so the policy surfaces
                // it on this very attempt; the placeholder never escapes.
                Err(std::io::Error::other("lease protocol verdict"))
            }
        });
        match result {
            Ok(value) => Ok(value),
            Err(error) => Err(protocol.map_or(WqError::Io(error), |verdict| verdict)),
        }
    }

    /// Whether every submission on the queue has reached a terminal state
    /// — completed (trusted report), permanently invalid (corrupt
    /// record), or durably poisoned — the worker's exit condition,
    /// evaluated against the queue handle's settled set and the
    /// per-worker caches so each payload is read and digest-checked at
    /// most once per worker rather than on every idle poll.
    fn backlog_complete(&self) -> bool {
        // A failed listing is *not* an empty backlog: concluding
        // "complete" off a disk hiccup would make the worker exit with
        // work still pending. Stay incomplete and let the next poll look
        // again.
        let Ok(seqs) = self.queue.submission_seqs_checked() else {
            return false;
        };
        let mut complete = true;
        for seq in seqs {
            if self.queue.is_settled(seq)
                || self.invalid.borrow().contains(&seq)
                || self.queue.report(seq).is_some()
            {
                continue;
            }
            if self.queue.is_poisoned(seq) {
                self.invalid.borrow_mut().insert(seq);
            } else {
                // Only a *successful* read proving the record absent or
                // corrupt may mark it terminally invalid; a read error
                // proves nothing and must keep the backlog open.
                match self.queue.submission_checked(seq) {
                    Ok(None) => {
                        self.invalid.borrow_mut().insert(seq);
                    }
                    Ok(Some(_)) | Err(_) => complete = false,
                }
            }
        }
        complete
    }

    /// Overrides how many consecutive empty polls the drain loop tolerates
    /// before concluding the backlog is done (minimum 1).
    pub fn with_patience(mut self, max_idle_polls: u32) -> Self {
        self.max_idle_polls = max_idle_polls.max(1);
        self
    }

    /// Chaos injection for the `repro-fleet` harness: sleep this long at
    /// every repetition barrier, so a campaign's wall time exceeds
    /// `lease_secs` while the progress-hook renewal keeps the lease
    /// alive. This is the "slow worker" scenario — distinct from a
    /// *stalled* worker, whose execution (and therefore its heartbeat)
    /// stops entirely and whose lease is rightly fenced away.
    pub fn with_slowdown(mut self, per_barrier: Duration) -> Self {
        self.slowdown = (!per_barrier.is_zero()).then_some(per_barrier);
        self
    }

    /// Attaches a durable run log: every campaign this worker publishes
    /// also appends one `SPRL` record per executed run — (campaign,
    /// experiment, image, repetition, status, virtual timing, worker,
    /// lease generation) — with the append ordered strictly *before* the
    /// report publish, so a trusted report implies a logged history.
    /// Record content derives deterministically from the submission
    /// (pre-reserved ids, recorded origin), so a fenced-away appender's
    /// records are byte-equal to the eventual winner's and read-side
    /// dedup by (campaign, run id) collapses them.
    pub fn with_run_log(mut self, log: sp_store::RunLog) -> Self {
        self.run_log = Some(log);
        self
    }

    /// The worker's holder identity on the queue.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Retracts a fenced-away (or failed) execution's local absorption:
    /// every logged run in the submission's pre-reserved id range, and
    /// the campaign's reference promotions, restored to the checkpoint
    /// captured before execution. Memoised cells and content-addressed
    /// outputs are left alone — they are deterministic byproducts, and
    /// re-executing against them reproduces byte-identical results.
    fn roll_back_fenced(
        &self,
        submission: &sp_store::QueueSubmission,
        checkpoint: Vec<(String, crate::ledger::ReferenceState)>,
    ) {
        let ledger = self.system.ledger();
        ledger.retract_range(RunId(submission.base_run_id), submission.total_runs);
        for (experiment, state) in checkpoint {
            ledger.restore_reference_state(&experiment, state);
        }
    }

    /// Executes one leased submission on the local system: re-plan from
    /// the decoded config (validating against *this* process's registered
    /// images and experiments), then run it through a single-campaign
    /// scheduler under the pre-reserved ids and the origin recorded at
    /// submission — with the lease renewer installed as the scheduler's
    /// progress hook, so the lease is renewed from inside the repetition
    /// loop however long the campaign runs.
    fn execute_leased(
        &self,
        submission: &sp_store::QueueSubmission,
        config: CampaignConfig,
        renewer: &LeaseRenewer<'_>,
    ) -> Result<(CampaignReport, ScheduleStats), FleetError> {
        let plan = CampaignPlan::new(self.system, config)?;
        if plan.total_runs() as u64 != submission.total_runs {
            return Err(FleetError::Codec(format!(
                "submission {} plans {} runs but reserved {}",
                submission.seq,
                plan.total_runs(),
                submission.total_runs
            )));
        }
        let mut scheduler =
            CampaignScheduler::new(self.system, self.threads).with_progress(renewer);
        let ticket = scheduler.submit_reserved(plan, RunId(submission.base_run_id))?;
        if let Some(token) = scheduler.cancellation_token(ticket) {
            renewer.set_cancel(token);
        }
        let mut reports = scheduler.execute_from(submission.origin)?;
        let report = reports.remove(0);
        Ok((report, scheduler.stats()))
    }

    /// Tries to lease up to the batch width of submissions in one claim
    /// and drain them together: payloads are read and decoded up front,
    /// the campaigns execute sequentially (each batch-mate's lease
    /// renewed from the active campaign's progress ticks, so idle leases
    /// cannot silently lapse under a long campaign), and every report is
    /// flushed through the queue's batched publish+release path — one
    /// parent-directory sync per batch instead of one per report.
    ///
    /// Failure handling is tiered by what the failure proves:
    ///
    /// * **undecodable payload** — the digest validated but no build of
    ///   this code can interpret the bytes, on this machine or any other:
    ///   the submission is durably poisoned on the queue so siblings and
    ///   restarted workers never re-lease it;
    /// * **local plan/execution failure** — this worker's environment
    ///   cannot run it (missing experiment, missing image): released and
    ///   locally skipped; a sibling with a richer environment may drain;
    /// * **fenced mid-flight** — the lease expired (or was superseded)
    ///   while executing, caught either by a renewal or at publish: the
    ///   locally absorbed runs and reference promotions are **rolled
    ///   back**, nothing is counted as executed, and the work stays
    ///   pending — re-leasing it (possibly by this very worker) is
    ///   indistinguishable from leasing a stranger's;
    /// * **transient queue I/O fault** — retried under bounded backoff
    ///   before any of the above verdicts is reached; retries that
    ///   exhaust surface as [`FleetError::Io`] with the lease handed
    ///   back, leaving the work pending rather than poisoned.
    ///
    /// A failed item is dropped from the batch (poisoned, released or
    /// rolled back per its tier) without abandoning its batch-mates.
    /// Per-item reference rollback is sound because the coordinator
    /// rejects experiment overlap across submissions
    /// ([`Coordinator::submit`]), so two batched campaigns never promote
    /// into the same experiment's reference map.
    ///
    /// Returns the drained sequence numbers (empty when nothing was
    /// claimable). When nothing drained but an item failed, the first
    /// failure surfaces as the error.
    pub fn drain_batch(&self, stats: &mut WorkerStats) -> Result<Vec<u64>, FleetError> {
        let before = self.retry.borrow().retries();
        let result = self.drain_batch_inner(stats);
        stats.io_retries = stats
            .io_retries
            .saturating_add(self.retry.borrow().retries().saturating_sub(before));
        result
    }

    fn drain_batch_inner(&self, stats: &mut WorkerStats) -> Result<Vec<u64>, FleetError> {
        struct PendingPublish {
            seq: u64,
            submission: sp_store::QueueSubmission,
            checkpoint: Vec<(String, crate::ledger::ReferenceState)>,
            payload: Vec<u8>,
            total_runs: u64,
            sched: ScheduleStats,
            /// `SPRL` records to append before the batch flush (empty when
            /// the worker carries no run log).
            cells: Vec<sp_store::CellRecord>,
        }

        let mut first_error: Option<FleetError> = None;
        let record_error = |error: FleetError, first: &mut Option<FleetError>| {
            if first.is_none() {
                *first = Some(error);
            }
        };

        // Phase 1 — claim. One scan, up to `LEASE_BATCH` exclusive-create
        // lease claims, one leases-directory sync for the whole batch. The
        // queue handle itself skips settled work.
        let skip: std::collections::BTreeSet<u64> = {
            let poisoned = self.poisoned.borrow();
            let invalid = self.invalid.borrow();
            poisoned.union(&invalid).copied().collect()
        };
        let leases = self.retry_io(|| {
            self.queue
                .try_lease_batch(&self.name, LEASE_BATCH, |seq| !skip.contains(&seq))
        })?;
        if leases.is_empty() {
            return Ok(Vec::new());
        }
        let mut held: std::collections::BTreeMap<u64, Lease> =
            leases.into_iter().map(|lease| (lease.seq, lease)).collect();

        // Phase 2 — read and decode every claimed payload. Only a digest
        // failure on bytes actually read (`Ok(None)`, the queue having
        // quarantined the file) or an undecodable validated payload is
        // terminal; a read error proves nothing about the record. A
        // dropped item releases its lease (or poisons durably) without
        // abandoning its batch-mates.
        let mut decoded: Vec<(u64, sp_store::QueueSubmission, CampaignConfig)> = Vec::new();
        for seq in held.keys().copied().collect::<Vec<_>>() {
            let error = match self.retry_io(|| self.queue.submission_checked(seq)) {
                Ok(Some(submission)) => match decode_campaign_config(&submission.payload) {
                    Some(config) => {
                        decoded.push((seq, submission, config));
                        continue;
                    }
                    None => {
                        let error = FleetError::Codec(format!("submission {seq}"));
                        let _ = self
                            .queue
                            .mark_poisoned(seq, &self.name, &error.to_string());
                        self.invalid.borrow_mut().insert(seq);
                        Some(error)
                    }
                },
                Ok(None) => {
                    self.invalid.borrow_mut().insert(seq);
                    None
                }
                Err(error) => Some(error.into()),
            };
            stats.failures += 1;
            if let Some(lease) = held.remove(&seq) {
                self.queue.hand_back(&lease);
            }
            if let Some(error) = error {
                record_error(error, &mut first_error);
            }
        }

        // Phase 3 — execute sequentially. The active campaign's renewer
        // carries every other held lease (not-yet-executed batch-mates
        // plus executed-but-unpublished ones) as siblings, renewing them
        // at the same half-life cadence; a sibling the protocol fences is
        // dropped from the batch without cancelling the active campaign.
        let mut lost: std::collections::BTreeMap<u64, (Lease, WqError)> =
            std::collections::BTreeMap::new();
        // A failed lease's verdict may be a *misread* of a live record on
        // a faulty disk (`NotHeld`) or an exhausted I/O retry, not only a
        // genuine fence: hand such leases back best-effort (release is
        // verify-guarded, so a truly fenced lease shrugs it off) so the
        // work re-leases now instead of after a full expiry.
        let hand_back = |lease: &Lease, error: &WqError| {
            if !matches!(
                error,
                WqError::StaleLease { .. }
                    | WqError::Expired { .. }
                    | WqError::AlreadyReleased { .. }
            ) {
                self.queue.hand_back(lease);
            }
        };
        let mut pending: Vec<PendingPublish> = Vec::new();
        for (seq, submission, config) in decoded {
            if let Some((lease, error)) = lost.remove(&seq) {
                // Fenced away while idle: never executed here, nothing to
                // roll back — the work re-leases elsewhere.
                hand_back(&lease, &error);
                stats.failures += 1;
                record_error(error.into(), &mut first_error);
                continue;
            }
            let Some(lease) = held.remove(&seq) else {
                continue;
            };
            let ledger = self.system.ledger();
            let checkpoint: Vec<(String, crate::ledger::ReferenceState)> = config
                .experiments
                .iter()
                .map(|name| (name.clone(), ledger.reference_state(name)))
                .collect();
            let siblings: Vec<Lease> = std::mem::take(&mut held).into_values().collect();
            let renewer =
                LeaseRenewer::new(self.queue, lease, self.slowdown).with_siblings(siblings);
            let outcome = self.execute_leased(&submission, config, &renewer);
            stats.renewals += renewer.renewals();
            let (returned, lost_now) = renewer.take_siblings();
            for sibling in returned {
                held.insert(sibling.seq, sibling);
            }
            lost.extend(
                lost_now
                    .into_iter()
                    .map(|(lease, error)| (lease.seq, (lease, error))),
            );
            // A pending-publish batch-mate fenced while idle can no
            // longer land its report: roll its absorption back now.
            let mut kept = Vec::with_capacity(pending.len());
            for item in pending {
                if let Some((lease, error)) = lost.remove(&item.seq) {
                    self.roll_back_fenced(&item.submission, item.checkpoint);
                    hand_back(&lease, &error);
                    stats.failures += 1;
                    record_error(error.into(), &mut first_error);
                } else {
                    kept.push(item);
                }
            }
            pending = kept;
            match outcome {
                Ok((report, sched)) if !renewer.fenced_mid_flight() => {
                    let lease = renewer.lease();
                    let cells = self
                        .run_log
                        .as_ref()
                        .map(|_| run_log_cells(seq, &report, &self.name, lease.token))
                        .unwrap_or_default();
                    held.insert(seq, lease);
                    pending.push(PendingPublish {
                        seq,
                        submission,
                        checkpoint,
                        payload: encode_campaign_report(&report),
                        total_runs: report.summary.total_runs() as u64,
                        sched,
                        cells,
                    });
                }
                Ok(_) => {
                    self.roll_back_fenced(&submission, checkpoint);
                    stats.failures += 1;
                    let error = renewer
                        .take_fenced()
                        .expect("fenced_mid_flight implies a recorded error");
                    record_error(error.into(), &mut first_error);
                }
                Err(error) => {
                    self.roll_back_fenced(&submission, checkpoint);
                    stats.failures += 1;
                    self.poisoned.borrow_mut().insert(seq);
                    self.queue.hand_back(&renewer.lease());
                    record_error(error, &mut first_error);
                }
            }
        }

        // Phase 4 — append every surviving item's run history (one
        // `SPRL` batch file, one cells-directory sync), then flush
        // the reports through the batched publish+release path: one
        // reports-directory sync commits the whole batch, then one
        // leases-directory sync releases it. The history append comes
        // strictly first so a trusted report always implies logged cells;
        // if the history cannot commit, no report of the batch may land:
        // every item is rolled back (newest first, so each experiment ends
        // at its oldest checkpoint) and its lease handed back.
        if let Some(log) = &self.run_log {
            let cells: Vec<sp_store::CellRecord> = pending
                .iter_mut()
                .flat_map(|item| std::mem::take(&mut item.cells))
                .collect();
            // The batch is one file, so a retry re-appends it whole; a
            // retry after a landed link logs duplicates that replay's
            // dedup collapses.
            match self.retry_io(|| log.append_batch(&cells)) {
                Ok(_) => {
                    sp_obs::global()
                        .counter("fleet.cells_logged")
                        .add(cells.len() as u64);
                }
                Err(error) => {
                    for item in std::mem::take(&mut pending).into_iter().rev() {
                        self.roll_back_fenced(&item.submission, item.checkpoint);
                        stats.failures += 1;
                        if let Some(lease) = held.remove(&item.seq) {
                            self.queue.hand_back(&lease);
                        }
                    }
                    record_error(error.into(), &mut first_error);
                }
            }
        }
        let mut drained: Vec<u64> = Vec::new();
        if !pending.is_empty() {
            let batch_leases: Vec<Lease> = pending
                .iter()
                .map(|item| {
                    held.remove(&item.seq)
                        .expect("pending item's lease is held")
                })
                .collect();
            let items: Vec<(&Lease, &[u8])> = batch_leases
                .iter()
                .zip(pending.iter())
                .map(|(lease, item)| (lease, item.payload.as_slice()))
                .collect();
            let verdicts = self.queue.publish_and_release_batch(&items);
            stats.publish_batches += 1;
            for ((item, lease), verdict) in
                pending.into_iter().zip(batch_leases.iter()).zip(verdicts)
            {
                // The batched flush failed on I/O: retry this item as a
                // batch of one under the bounded retry policy
                // (byte-identical bytes, so a torn batch attempt is
                // harmless).
                let verdict = match verdict {
                    Err(WqError::Io(_)) => self.retry_wq(|| {
                        let item = [(lease, item.payload.as_slice())];
                        self.queue.publish_and_release_batch(&item).remove(0)
                    }),
                    verdict => verdict,
                };
                if let Err(error) = verdict {
                    // No trusted report landed (a genuine fence: the lease
                    // lapsed between the last renewal and the flush), so
                    // the execution never officially happened.
                    self.roll_back_fenced(&item.submission, item.checkpoint);
                    hand_back(lease, &error);
                    stats.failures += 1;
                    record_error(error.into(), &mut first_error);
                    continue;
                }
                stats.campaigns_drained += 1;
                stats.runs_executed += item.total_runs;
                stats.sched.merge(&item.sched);
                sp_obs::global().counter("fleet.publishes").incr();
                drained.push(item.seq);
            }
        }

        if drained.is_empty() {
            if let Some(error) = first_error {
                return Err(error);
            }
        }
        Ok(drained)
    }

    /// The worker main loop: drain until the backlog is complete (or the
    /// idle budget runs out), then publish this worker's counters to the
    /// queue so any process can merge them into a fleet digest. Each poll
    /// claims and drains up to four submissions through the batched
    /// publish+release path.
    pub fn drain(&self) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let seed = sp_store::fnv64(&self.name);
        let mut poll = PollLoop::new(Backoff::for_queue(seed), self.max_idle_polls);
        let poll_stats = poll.run(
            || {
                // Try to work first; the exit check runs only on polls
                // that found nothing claimable, and against the
                // per-worker caches.
                match self.drain_batch(&mut stats) {
                    Ok(seqs) if !seqs.is_empty() => PollOutcome::Worked,
                    Ok(_) | Err(_) => {
                        if self.backlog_complete() {
                            PollOutcome::Stop
                        } else {
                            PollOutcome::Idle
                        }
                    }
                }
            },
            std::thread::sleep,
        );
        stats.poll = poll_stats;
        // Publish the counters as an `SPMS` snapshot so any process can
        // merge them into a fleet digest, and add them to this process's
        // registry under the same names.
        let metrics = stats.to_metrics();
        let payload = metrics.encode();
        let _ = self.retry_io(|| self.queue.publish_worker_stats(&self.name, &payload));
        let registry = sp_obs::global();
        for (name, value) in &metrics.counters {
            registry.counter(name).add(*value);
        }
        stats
    }
}

/// The merged cross-process digest of one fleet drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Queue-level accounting (submissions, completions, reclaims,
    /// corruption drops) derived from the shared directory.
    pub queue: QueueStats,
    /// Worker processes that published counters.
    pub workers: usize,
    /// Sum of every worker's counters.
    pub drained: WorkerStats,
}

/// Assembles the fleet digest from the queue directory: queue accounting
/// plus every worker's published `SPMS` snapshot, merged with
/// [`MetricsSnapshot::merge`]. A blob that does not decode is dropped; a
/// worker whose stats cannot be read counts in
/// [`QueueStats::unreadable`]. Any process with the storage mounted can
/// compute this — no shared memory, no coordinator privileges.
pub fn fleet_stats(queue: &WorkQueue) -> FleetStats {
    let mut merged = MetricsSnapshot::default();
    let mut workers = 0;
    let (blobs, unreadable) = queue.worker_stats();
    for (_, payload) in blobs {
        if let Some(snapshot) = MetricsSnapshot::decode(&payload) {
            merged.merge(&snapshot);
            workers += 1;
        }
    }
    let mut queue_stats = queue.stats();
    queue_stats.unreadable += unreadable;
    FleetStats {
        queue: queue_stats,
        workers,
        drained: WorkerStats::from_metrics(&merged),
    }
}

/// Derives the `SPRL` cell records for one published campaign report: one
/// record per executed run, in execution order. Everything except the
/// worker attribution derives deterministically from the submission — the
/// pre-reserved run ids, the virtual timestamps replayed from the
/// recorded origin, and the per-run statuses — so an interrupted-and-
/// resumed campaign logs exactly the same cell facts as an uninterrupted
/// one. The repetition index is reconstructed as the occurrence count of
/// the (experiment, image) pair in execution order.
pub fn run_log_cells(
    seq: u64,
    report: &CampaignReport,
    worker: &str,
    lease_token: u64,
) -> Vec<sp_store::CellRecord> {
    use sp_store::CellRecord;
    let mut occurrences: BTreeMap<(&str, &str), u32> = BTreeMap::new();
    report
        .summary
        .runs
        .iter()
        .map(|run| {
            let repetition = {
                let slot = occurrences
                    .entry((run.experiment.as_str(), run.image_label.as_str()))
                    .and_modify(|r| *r += 1)
                    .or_insert(0);
                *slot
            };
            let status = if run.failed > 0 {
                CellRecord::STATUS_FAIL
            } else if run.passed == 0 {
                CellRecord::STATUS_NOT_RUN
            } else if run.skipped > 0 {
                CellRecord::STATUS_WARNINGS
            } else {
                CellRecord::STATUS_PASS
            };
            CellRecord {
                campaign: seq,
                experiment: run.experiment.clone(),
                // Run-level records aggregate the experiment's groups; the
                // group axis stays empty (group-level statuses live in the
                // campaign report's cell matrix).
                group: String::new(),
                image_label: run.image_label.clone(),
                repetition,
                run_id: run.id.0,
                status,
                passed: run.passed as u32,
                failed: run.failed as u32,
                skipped: run.skipped as u32,
                timestamp: run.timestamp,
                worker: worker.to_string(),
                lease_token,
            }
        })
        .collect()
}

// ---- campaign-config codec -------------------------------------------

/// Serialises a campaign config for the queue payload. The plan itself is
/// *not* shipped: workers re-plan against their local system, which both
/// revalidates the names and keeps the payload small and
/// environment-independent.
pub fn encode_campaign_config(config: &CampaignConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    wire::put_u32(&mut out, config.experiments.len() as u32);
    for name in &config.experiments {
        wire::put_str(&mut out, name);
    }
    wire::put_u32(&mut out, config.images.len() as u32);
    for image in &config.images {
        wire::put_u32(&mut out, image.0);
    }
    wire::put_u64(&mut out, config.repetitions as u64);
    wire::put_u64(&mut out, config.run.seed);
    wire::put_f64(&mut out, config.run.scale);
    wire::put_u64(&mut out, config.run.threads as u64);
    wire::put_str(&mut out, &config.run.description);
    out.push(config.run.memoize as u8);
    wire::put_u64(&mut out, config.interval_secs);
    out.push(config.options.memoize as u8);
    out.push(config.options.image_parallel as u8);
    out
}

/// Parses a config serialised by [`encode_campaign_config`]. `None` on
/// any structural mismatch.
pub fn decode_campaign_config(bytes: &[u8]) -> Option<CampaignConfig> {
    let mut cursor = Cursor::new(bytes);
    // Each experiment is a length-prefixed name: at least 4 bytes.
    let experiment_count = cursor.take_count(4)?;
    let mut experiments = Vec::with_capacity(experiment_count);
    for _ in 0..experiment_count {
        experiments.push(cursor.take_str()?);
    }
    let image_count = cursor.take_count(4)?;
    let mut images = Vec::with_capacity(image_count);
    for _ in 0..image_count {
        images.push(sp_env::VmImageId(cursor.take_u32()?));
    }
    let repetitions = cursor.take_u64()? as usize;
    let run = RunConfig {
        seed: cursor.take_u64()?,
        scale: cursor.take_f64()?,
        threads: cursor.take_u64()? as usize,
        description: cursor.take_str()?,
        memoize: take_flag(&mut cursor)?,
    };
    let interval_secs = cursor.take_u64()?;
    let options = CampaignOptions {
        memoize: take_flag(&mut cursor)?,
        image_parallel: take_flag(&mut cursor)?,
    };
    cursor.finished().then_some(CampaignConfig {
        experiments,
        images,
        repetitions,
        run,
        interval_secs,
        options,
    })
}

/// Takes a flag byte written as `bool as u8`, rejecting any other value
/// so that a decoded flag re-encodes to the byte it came from.
fn take_flag(cursor: &mut Cursor<'_>) -> Option<bool> {
    match cursor.take_u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

// ---- campaign-report codec -------------------------------------------

fn put_cell_status(out: &mut Vec<u8>, status: CellStatus) {
    out.push(match status {
        CellStatus::Pass => 0,
        CellStatus::Warnings => 1,
        CellStatus::Fail => 2,
        CellStatus::NotRun => 3,
    });
}

fn take_cell_status(cursor: &mut Cursor<'_>) -> Option<CellStatus> {
    Some(match cursor.take_u8()? {
        0 => CellStatus::Pass,
        1 => CellStatus::Warnings,
        2 => CellStatus::Fail,
        3 => CellStatus::NotRun,
        _ => return None,
    })
}

/// Serialises a campaign report for publication on the queue. The ticket
/// is intentionally left out: it is meaningful only within one
/// scheduler/coordinator instance, and the collector re-labels reports by
/// its own submission order.
pub fn encode_campaign_report(report: &CampaignReport) -> Vec<u8> {
    let summary = &report.summary;
    let mut out = Vec::with_capacity(summary.runs.len() * 96 + 64);
    wire::put_u64(&mut out, report.completed_repetitions as u64);
    out.push(report.cancelled as u8);
    wire::put_u32(&mut out, summary.runs.len() as u32);
    for run in &summary.runs {
        wire::put_u64(&mut out, run.id.0);
        wire::put_str(&mut out, &run.experiment);
        wire::put_str(&mut out, &run.image_label);
        wire::put_u64(&mut out, run.timestamp);
        wire::put_u64(&mut out, run.passed as u64);
        wire::put_u64(&mut out, run.failed as u64);
        wire::put_u64(&mut out, run.skipped as u64);
        out.push(run.successful as u8);
    }
    wire::put_u32(&mut out, summary.cells.len() as u32);
    for ((experiment, group, image), status) in &summary.cells {
        wire::put_str(&mut out, experiment);
        wire::put_str(&mut out, group);
        wire::put_str(&mut out, image);
        put_cell_status(&mut out, *status);
    }
    wire::put_u32(&mut out, summary.image_labels.len() as u32);
    for label in &summary.image_labels {
        wire::put_str(&mut out, label);
    }
    out
}

/// Parses a report serialised by [`encode_campaign_report`], labelling it
/// with the collector's ticket. `None` on any structural mismatch.
pub fn decode_campaign_report(bytes: &[u8], ticket: CampaignTicket) -> Option<CampaignReport> {
    let mut cursor = Cursor::new(bytes);
    let completed_repetitions = cursor.take_u64()? as usize;
    let cancelled = take_flag(&mut cursor)?;
    // A run record: id, two length-prefixed strings, four u64 counters
    // and a flag byte — at least 49 bytes.
    let run_count = cursor.take_count(49)?;
    let mut runs = Vec::with_capacity(run_count);
    for _ in 0..run_count {
        runs.push(RunRecord {
            id: RunId(cursor.take_u64()?),
            experiment: cursor.take_str()?,
            image_label: cursor.take_str()?,
            timestamp: cursor.take_u64()?,
            passed: cursor.take_u64()? as usize,
            failed: cursor.take_u64()? as usize,
            skipped: cursor.take_u64()? as usize,
            successful: take_flag(&mut cursor)?,
        });
    }
    // A cell: three length-prefixed strings and a status byte. Cells are
    // written in key order, and any other order is rejected.
    let cell_count = cursor.take_count(13)?;
    let mut cells = BTreeMap::new();
    for _ in 0..cell_count {
        let key = (cursor.take_str()?, cursor.take_str()?, cursor.take_str()?);
        let status = take_cell_status(&mut cursor)?;
        if cells.last_key_value().is_some_and(|(last, _)| *last >= key) {
            return None;
        }
        cells.insert(key, status);
    }
    let label_count = cursor.take_count(4)?;
    let mut image_labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        image_labels.push(cursor.take_str()?);
    }
    cursor.finished().then_some(CampaignReport {
        ticket,
        summary: CampaignSummary {
            runs,
            cells,
            image_labels,
        },
        completed_repetitions,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_env::VmImageId;

    fn sample_config() -> CampaignConfig {
        CampaignConfig {
            experiments: vec!["h1".into(), "zeus".into()],
            images: vec![VmImageId(1), VmImageId(3)],
            repetitions: 4,
            run: RunConfig {
                seed: 20131029,
                scale: 0.25,
                threads: 3,
                description: "fleet".into(),
                memoize: true,
            },
            interval_secs: 86_400,
            options: CampaignOptions {
                memoize: true,
                image_parallel: true,
            },
        }
    }

    #[test]
    fn campaign_config_round_trip() {
        let config = sample_config();
        let bytes = encode_campaign_config(&config);
        let decoded = decode_campaign_config(&bytes).expect("round trip");
        assert_eq!(decoded.experiments, config.experiments);
        assert_eq!(decoded.images, config.images);
        assert_eq!(decoded.repetitions, config.repetitions);
        assert_eq!(decoded.run.seed, config.run.seed);
        assert_eq!(decoded.run.scale, config.run.scale);
        assert_eq!(decoded.run.threads, config.run.threads);
        assert_eq!(decoded.run.description, config.run.description);
        assert_eq!(decoded.run.memoize, config.run.memoize);
        assert_eq!(decoded.interval_secs, config.interval_secs);
        assert_eq!(decoded.options, config.options);
        assert!(decode_campaign_config(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_campaign_config(b"junk").is_none());
    }

    #[test]
    fn campaign_report_round_trip() {
        let mut cells = BTreeMap::new();
        cells.insert(
            (
                "h1".to_string(),
                "unit checks".to_string(),
                "SL6".to_string(),
            ),
            CellStatus::Warnings,
        );
        cells.insert(
            ("h1".to_string(), "MC chain".to_string(), "SL6".to_string()),
            CellStatus::Fail,
        );
        let report = CampaignReport {
            ticket: CampaignTicket::from_index(0),
            summary: CampaignSummary {
                runs: vec![RunRecord {
                    id: RunId(42),
                    experiment: "h1".into(),
                    image_label: "SL6".into(),
                    timestamp: 1_383_004_800,
                    passed: 10,
                    failed: 1,
                    skipped: 2,
                    successful: false,
                }],
                cells,
                image_labels: vec!["SL6".into()],
            },
            completed_repetitions: 1,
            cancelled: false,
        };
        let bytes = encode_campaign_report(&report);
        let decoded =
            decode_campaign_report(&bytes, CampaignTicket::from_index(7)).expect("round trip");
        assert_eq!(decoded.ticket.index(), 7, "ticket is collector-assigned");
        assert_eq!(decoded.summary, report.summary);
        assert_eq!(decoded.completed_repetitions, 1);
        assert!(!decoded.cancelled);
        assert!(decode_campaign_report(&bytes[..bytes.len() - 1], report.ticket).is_none());
        // A run count no remaining input could hold is rejected up front.
        let mut huge = bytes[..9].to_vec();
        wire::put_u32(&mut huge, u32::MAX);
        huge.extend_from_slice(&bytes[13..]);
        assert!(decode_campaign_report(&huge, report.ticket).is_none());
    }

    #[test]
    fn worker_stats_metrics_round_trip() {
        // Every field distinct and non-zero (its position in the name
        // list below), so a row naming or writing the wrong field fails.
        let stats = WorkerStats {
            campaigns_drained: 1,
            runs_executed: 2,
            failures: 3,
            renewals: 4,
            io_retries: 5,
            publish_batches: 6,
            sched: ScheduleStats {
                campaigns_submitted: 7,
                campaigns_admitted: 8,
                campaigns_completed: 9,
                campaigns_cancelled: 10,
                rounds: 11,
                lanes_executed: 12,
                lanes_cancelled: 13,
                lanes_local: 14,
                lanes_stolen: 15,
            },
            poll: PollStats {
                worked: 16,
                idle: 17,
                slept: Duration::from_micros(18),
            },
        };
        let metrics = stats.to_metrics();
        let expected: BTreeMap<String, u64> = [
            "fleet.campaigns_drained",
            "fleet.runs_executed",
            "fleet.failures",
            "fleet.renewals",
            "fleet.io_retries",
            "fleet.publish_batches",
            "fleet.sched.campaigns_submitted",
            "fleet.sched.campaigns_admitted",
            "fleet.sched.campaigns_completed",
            "fleet.sched.campaigns_cancelled",
            "fleet.sched.rounds",
            "fleet.sched.lanes_executed",
            "fleet.sched.lanes_cancelled",
            "fleet.sched.lanes_local",
            "fleet.sched.lanes_stolen",
            "fleet.poll.worked",
            "fleet.poll.idle",
            "fleet.poll.slept_us",
        ]
        .into_iter()
        .zip(1..)
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        assert_eq!(metrics.counters, expected, "each field under its own name");
        assert_eq!(WorkerStats::from_metrics(&metrics), stats);
        let decoded = MetricsSnapshot::decode(&metrics.encode()).expect("SPMS round trip");
        assert_eq!(WorkerStats::from_metrics(&decoded), stats);
        assert_eq!(
            WorkerStats::from_metrics(&MetricsSnapshot::default()),
            WorkerStats::default()
        );
    }

    #[test]
    fn a_worker_whose_stats_read_fails_is_unreadable_not_missing() {
        use sp_store::{FaultConfig, FaultFs, FixedClock, ForcedFault};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("sp-fleet-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(FixedClock(1_000));
        let healthy = WorkQueue::open_with_time(&dir, 60, clock.clone()).unwrap();
        let blob = WorkerStats::default().to_metrics().encode();
        for name in ["w1", "w2"] {
            healthy.publish_worker_stats(name, &blob).unwrap();
        }
        let fs = Arc::new(FaultFs::over_os(FaultConfig::default()));
        let flaky = WorkQueue::open_with(&dir, 60, clock, fs.clone()).unwrap();
        // Read 1 lists workers/, read 2 is w1.stats.
        fs.fail_nth_read(2, ForcedFault::Eio);
        let stats = fleet_stats(&flaky);
        assert_eq!((stats.workers, stats.queue.unreadable), (1, 1));
        let stats = fleet_stats(&flaky);
        assert_eq!((stats.workers, stats.queue.unreadable), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
