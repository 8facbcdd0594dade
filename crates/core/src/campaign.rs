//! Multi-run validation campaigns: planning, sequential and parallel
//! execution.
//!
//! "In total more than 300 runs over sets of pre-defined tests have been
//! performed within the sp-system by the HERA experiments." (§3.3)
//!
//! A campaign replays a grid of (experiment × image) validation runs over
//! simulated nightly cron firings and aggregates the cell statuses the
//! Figure-3 summary matrix displays. Execution is split into two phases:
//!
//! 1. **Planning** — [`CampaignPlan`] flattens the grid into an indexed
//!    list of [`RunTask`]s, validating every experiment name and image id
//!    *up front* (an unknown image is a [`SystemError::UnknownImage`]
//!    before anything runs, never a half-executed campaign). Tasks are
//!    grouped into per-repetition **barriers**: the virtual clock advances
//!    exactly once per pass, after every task of the pass has finished.
//!
//! 2. **Execution** — sequentially through [`Campaign`] (the reference
//!    oracle: one `run_validation` per task in task order), or in
//!    parallel through [`CampaignScheduler`], which runs one campaign —
//!    or **N campaigns concurrently against one shared system** — over a
//!    work-stealing pool.
//!
//! ## The scheduler: submission and collection
//!
//! [`CampaignScheduler`] splits campaign execution into *plan submission*
//! and *result collection*. [`submit`](CampaignScheduler::submit) plans a
//! campaign, checks it is experiment-disjoint from every other submission
//! (references, memo cells and lanes are per-experiment — disjointness is
//! what makes each campaign independent), and pre-reserves its contiguous
//! run-id range. [`execute`](CampaignScheduler::execute) then runs
//! admitted campaigns in rounds — one repetition per campaign per round —
//! dispatching every campaign's experiment lanes **fair-share interleaved**
//! onto one shared [`sp_exec::LaneScheduler`] pool, committing each
//! campaign's repetition to the ledger as its own batch (no cross-campaign
//! interleaving inside a batch), and collecting one [`CampaignReport`] per
//! campaign.
//!
//! Each campaign runs on its own **virtual timeline**: repetition `r` is
//! stamped `origin + r × interval` where `origin` is the shared clock at
//! execute time, and the shared clock is only ever moved *forward*
//! ([`sp_exec::VirtualClock::advance_to`]) past completed barriers. The
//! result: every campaign's summary is byte-identical to executing that
//! campaign alone on an identically prepared system — which
//! `crates/core/tests/campaign_equivalence.rs` asserts property-wise.
//! Per-campaign admission caps how many campaigns run concurrently, and a
//! campaign-scoped [`sp_exec::CancellationToken`] stops one campaign
//! without touching its neighbours.
//!
//! ## Why the engine shards by experiment
//!
//! Within one repetition, runs of the *same* experiment form a dependency
//! chain: a successful run promotes its outputs to reference status, and
//! the next run of that experiment compares against exactly those
//! references. Runs of *different* experiments share nothing (references
//! are per-experiment, storage is content-addressed, ids are
//! pre-assigned). The engine therefore schedules one **lane** per
//! experiment — the stealable unit — executing each lane's tasks in task
//! order and promoting references as it goes, while different lanes run
//! concurrently. At the repetition barrier the runs are committed to the
//! ledger in task order through a single [`RunLedger::commit_batch`]
//! (one lock acquisition per repetition instead of one per run), and the
//! clock ticks. The result: a [`CampaignSummary`] byte-identical to the
//! sequential oracle for any worker count, which
//! `crates/core/tests/campaign_equivalence.rs` asserts property-wise.
//!
//! ## Saturating the grid: `image_parallel`
//!
//! Per-experiment lanes cap parallelism at the experiment count: a grid
//! of 3 experiments × 8 images yields 3 stealable units per repetition,
//! each serialised by in-lane promotion. [`CampaignOptions::image_parallel`]
//! trades that in-repetition reference chasing for throughput: every
//! (experiment, image) cell becomes its own lane, **all** cells of a
//! repetition compare against the reference state frozen at the previous
//! barrier, and the repetition's promotions are applied at the barrier in
//! task order (so the *post-barrier* state is byte-identical to the
//! sequential engine's). The flagged-off path is untouched and remains
//! the byte-identity oracle; the flagged-on path agrees at report level
//! on conserved workloads — both pinned by proptest.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sp_env::VmImageId;
use sp_exec::{CampaignId, CancellationToken, Lane, LaneScheduler, ProgressHook, ProgressPoint};

use crate::ledger::RunLedger;
use crate::run::{RunId, TestStatus, ValidationRun};
use crate::system::{RunConfig, SpSystem, SystemError};

/// Execution options orthogonal to the campaign grid itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignOptions {
    /// Serve unchanged (experiment, image, test) cells from the system's
    /// run memo: a cell whose determinants — test id, campaign seed,
    /// environment revision (full image label including externals) and
    /// scale — match an earlier execution replays that execution's
    /// conserved outputs instead of re-running its MC chain. Comparisons
    /// against the reference are always recomputed, so the resulting
    /// [`CampaignSummary`] is byte-identical to the uncached path (the
    /// memoized-vs-uncached property test asserts exactly this).
    pub memoize: bool,
    /// Parallelise the **image axis**: instead of one lane per experiment
    /// (each lane walking its images in order and promoting references as
    /// it goes), every (experiment, image) cell becomes its own stealable
    /// lane, and reference promotion is deferred to the repetition
    /// barrier (in task order, so the post-barrier reference state is
    /// identical to the sequential engine's).
    ///
    /// The tradeoff: within a repetition every cell compares against the
    /// reference state **frozen at the previous barrier** rather than
    /// chasing in-lane promotions, so image `k` of repetition `r` no
    /// longer sees image `k-1`'s just-promoted outputs — in particular,
    /// repetition 1 cells compare against the bootstrap reference (or
    /// run referenceless on a fresh system). On conserved workloads the
    /// snapshot and the chased state carry identical bytes from the
    /// first promotion on, and the report-level equivalence proptest in
    /// `campaign_equivalence.rs` pins that agreement. Default **off**:
    /// the flagged-off path is byte-identical to the sequential oracle.
    pub image_parallel: bool,
}

impl CampaignOptions {
    /// Options with memoisation enabled.
    pub fn memoized() -> Self {
        CampaignOptions {
            memoize: true,
            ..CampaignOptions::default()
        }
    }

    /// Options with image-axis parallelism enabled (see
    /// [`image_parallel`](Self::image_parallel) for the tradeoff).
    pub fn image_parallel() -> Self {
        CampaignOptions {
            image_parallel: true,
            ..CampaignOptions::default()
        }
    }
}

/// Configuration of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Experiments to run (names must be registered).
    pub experiments: Vec<String>,
    /// Images to run on.
    pub images: Vec<VmImageId>,
    /// How many times to repeat the grid (nightly firings).
    pub repetitions: usize,
    /// Base run configuration (seed, scale, threads).
    pub run: RunConfig,
    /// Seconds the clock advances between repetitions (one nightly cron
    /// interval by default).
    pub interval_secs: u64,
    /// Execution options (memoisation, image-axis parallelism).
    pub options: CampaignOptions,
}

impl CampaignConfig {
    /// A campaign over everything registered, once.
    pub fn single_pass(system: &SpSystem) -> Self {
        CampaignConfig {
            experiments: system.experiments().map(|e| e.name.clone()).collect(),
            images: system.images().iter().map(|i| i.id).collect(),
            repetitions: 1,
            run: RunConfig::default(),
            interval_secs: 86_400,
            options: CampaignOptions::default(),
        }
    }

    /// The effective per-run configuration for one task: the base run
    /// config with the task description and the campaign-level options
    /// applied. Shared by the sequential oracle and the parallel engine so
    /// both execute under identical settings.
    fn run_config_for(&self, task: &RunTask) -> RunConfig {
        let mut run = self.run.clone();
        run.description = task.description.clone();
        run.memoize = run.memoize || self.options.memoize;
        run
    }

    /// Total number of runs this campaign will perform.
    pub fn total_runs(&self) -> usize {
        self.experiments.len() * self.images.len() * self.repetitions
    }
}

/// Aggregated status of one (experiment, group, image) matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellStatus {
    /// All tests of the group passed cleanly.
    Pass,
    /// All passed, some with warnings.
    Warnings,
    /// At least one test failed.
    Fail,
    /// Every test was skipped / nothing ran.
    NotRun,
}

impl CellStatus {
    /// Matrix glyph.
    pub fn glyph(self) -> &'static str {
        match self {
            CellStatus::Pass => "ok",
            CellStatus::Warnings => "warn",
            CellStatus::Fail => "FAIL",
            CellStatus::NotRun => "-",
        }
    }
}

/// Summary record of one executed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Run id.
    pub id: RunId,
    /// Experiment name.
    pub experiment: String,
    /// Image label.
    pub image_label: String,
    /// Unix timestamp.
    pub timestamp: u64,
    /// Test counts: passed.
    pub passed: usize,
    /// Test counts: failed.
    pub failed: usize,
    /// Test counts: skipped.
    pub skipped: usize,
    /// Whether the run validated.
    pub successful: bool,
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// One record per executed run, in execution order.
    pub runs: Vec<RunRecord>,
    /// Last-run cell status per (experiment, group, image-label).
    pub cells: BTreeMap<(String, String, String), CellStatus>,
    /// Image labels in campaign order (matrix columns).
    pub image_labels: Vec<String>,
}

impl CampaignSummary {
    /// Total runs performed.
    pub fn total_runs(&self) -> usize {
        self.runs.len()
    }

    /// Runs that validated successfully.
    pub fn successful_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.successful).count()
    }

    /// Cell lookup.
    pub fn cell(&self, experiment: &str, group: &str, image_label: &str) -> CellStatus {
        self.cells
            .get(&(
                experiment.to_string(),
                group.to_string(),
                image_label.to_string(),
            ))
            .copied()
            .unwrap_or(CellStatus::NotRun)
    }

    /// Distinct (experiment, group) rows, keeping the key order of `cells`.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
        let mut rows: Vec<(String, String)> = Vec::new();
        for (exp, group, _) in self.cells.keys() {
            if seen.insert((exp.as_str(), group.as_str())) {
                rows.push((exp.clone(), group.clone()));
            }
        }
        rows
    }
}

/// One planned validation run of the campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTask {
    /// Global sequential position in the flattened grid; pre-assigned run
    /// ids and result ordering both derive from it.
    pub index: usize,
    /// Which nightly pass (0-based) this task belongs to.
    pub repetition: usize,
    /// Experiment to validate.
    pub experiment: String,
    /// Image to validate on.
    pub image: VmImageId,
    /// Matrix column label of that image.
    pub image_label: String,
    /// Run description ("which software versions were used").
    pub description: String,
}

/// The planning phase: the campaign grid flattened into indexed tasks with
/// explicit repetition barriers.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    config: CampaignConfig,
    tasks: Vec<RunTask>,
    image_labels: Vec<String>,
    runs_per_repetition: usize,
}

impl CampaignPlan {
    /// Plans a campaign, validating every experiment name and image id up
    /// front: planning fails with [`SystemError::UnknownExperiment`] /
    /// [`SystemError::UnknownImage`] before a single run executes.
    pub fn new(system: &SpSystem, config: CampaignConfig) -> Result<Self, SystemError> {
        for name in &config.experiments {
            if system.experiment(name).is_none() {
                return Err(SystemError::UnknownExperiment(name.clone()));
            }
        }
        let mut image_labels = Vec::with_capacity(config.images.len());
        for image_id in &config.images {
            let image = system
                .image(*image_id)
                .ok_or(SystemError::UnknownImage(*image_id))?;
            image_labels.push(column_label(&image));
        }

        let runs_per_repetition = config.experiments.len() * config.images.len();
        let mut tasks = Vec::with_capacity(config.total_runs());
        for repetition in 0..config.repetitions {
            for experiment in &config.experiments {
                for (image_id, image_label) in config.images.iter().zip(&image_labels) {
                    tasks.push(RunTask {
                        index: tasks.len(),
                        repetition,
                        experiment: experiment.clone(),
                        image: *image_id,
                        image_label: image_label.clone(),
                        description: format!(
                            "{experiment} @ {image_label} (pass {})",
                            repetition + 1
                        ),
                    });
                }
            }
        }
        Ok(CampaignPlan {
            config,
            tasks,
            image_labels,
            runs_per_repetition,
        })
    }

    /// The campaign configuration this plan was built from.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// All tasks in sequential (index) order.
    pub fn tasks(&self) -> &[RunTask] {
        &self.tasks
    }

    /// Number of repetition barriers (clock advances) the plan contains.
    pub fn repetitions(&self) -> usize {
        self.config.repetitions
    }

    /// Total planned runs.
    pub fn total_runs(&self) -> usize {
        self.tasks.len()
    }

    /// The tasks of one repetition — the unit between two barriers.
    pub fn repetition_tasks(&self, repetition: usize) -> &[RunTask] {
        let start = repetition * self.runs_per_repetition;
        let end = (start + self.runs_per_repetition).min(self.tasks.len());
        &self.tasks[start..end]
    }

    /// Matrix column labels, in image order.
    pub fn image_labels(&self) -> &[String] {
        &self.image_labels
    }

    /// Groups one repetition's tasks into lanes — the engine's stealable
    /// unit.
    ///
    /// Default: one lane per **experiment**, preserving task order within
    /// each lane (in-lane reference promotion requires an experiment's
    /// images to run in order). With
    /// [`CampaignOptions::image_parallel`] every (experiment, image)
    /// cell is its own single-task lane: promotion is deferred to the
    /// barrier, so nothing orders cells against each other and the whole
    /// grid row becomes stealable at once.
    fn lanes(&self, repetition: usize) -> Vec<Vec<&RunTask>> {
        if self.config.options.image_parallel {
            return self
                .repetition_tasks(repetition)
                .iter()
                .map(|task| vec![task])
                .collect();
        }
        let mut order: Vec<&str> = Vec::new();
        let mut lanes: BTreeMap<&str, Vec<&RunTask>> = BTreeMap::new();
        for task in self.repetition_tasks(repetition) {
            let lane = lanes.entry(task.experiment.as_str()).or_default();
            if lane.is_empty() {
                order.push(task.experiment.as_str());
            }
            lane.push(task);
        }
        order
            .into_iter()
            .map(|name| lanes.remove(name).expect("lane recorded"))
            .collect()
    }
}

/// Streaming aggregation of runs into a [`CampaignSummary`]; shared by the
/// sequential oracle and the parallel engine so both produce identical
/// summaries by construction (given runs arrive in task order).
struct SummaryAggregator {
    runs: Vec<RunRecord>,
    cells: BTreeMap<(String, String, String), CellStatus>,
    image_labels: Vec<String>,
}

impl SummaryAggregator {
    fn new(plan: &CampaignPlan) -> Self {
        SummaryAggregator {
            runs: Vec::with_capacity(plan.total_runs()),
            cells: BTreeMap::new(),
            image_labels: plan.image_labels().to_vec(),
        }
    }

    fn record(&mut self, task: &RunTask, run: &ValidationRun) {
        self.runs.push(RunRecord {
            id: run.id,
            experiment: task.experiment.clone(),
            image_label: task.image_label.clone(),
            timestamp: run.timestamp,
            passed: run.passed(),
            failed: run.failed(),
            skipped: run.skipped(),
            successful: run.is_successful(),
        });
        for (group, status) in aggregate_groups(run) {
            self.cells.insert(
                (task.experiment.clone(), group, task.image_label.clone()),
                status,
            );
        }
    }

    fn finish(self) -> CampaignSummary {
        CampaignSummary {
            runs: self.runs,
            cells: self.cells,
            image_labels: self.image_labels,
        }
    }
}

/// The sequential campaign executor — the reference oracle the parallel
/// [`CampaignScheduler`] is validated against.
pub struct Campaign<'a> {
    system: &'a SpSystem,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Creates a campaign.
    pub fn new(system: &'a SpSystem, config: CampaignConfig) -> Self {
        Campaign { system, config }
    }

    /// Runs the full grid strictly sequentially, one `run_validation` per
    /// task in task order, aggregating per-cell statuses from the *last*
    /// run of each (experiment, image) pair.
    pub fn execute(&self) -> Result<CampaignSummary, SystemError> {
        let plan = CampaignPlan::new(self.system, self.config.clone())?;
        let mut aggregator = SummaryAggregator::new(&plan);
        for repetition in 0..plan.repetitions() {
            for task in plan.repetition_tasks(repetition) {
                let run_config = plan.config().run_config_for(task);
                let run = self
                    .system
                    .run_validation(&task.experiment, task.image, &run_config)?;
                aggregator.record(task, &run);
            }
            self.system.clock().advance(plan.config().interval_secs);
        }
        Ok(aggregator.finish())
    }
}

/// Handle to one submitted campaign within a [`CampaignScheduler`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignTicket(usize);

impl CampaignTicket {
    /// Position of the campaign in submission order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a ticket from a submission index — for collectors (the
    /// fleet coordinator) that re-label reports by their own order.
    pub(crate) fn from_index(index: usize) -> Self {
        CampaignTicket(index)
    }
}

/// Aggregated scheduling counters of one [`CampaignScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Campaigns submitted to this scheduler.
    pub campaigns_submitted: usize,
    /// Campaigns admitted into the concurrent active set so far.
    pub campaigns_admitted: usize,
    /// Campaigns that ran every repetition to completion.
    pub campaigns_completed: usize,
    /// Campaigns stopped by their cancellation token.
    pub campaigns_cancelled: usize,
    /// Scheduling rounds dispatched (each round = one repetition per
    /// active campaign, fair-share interleaved).
    pub rounds: u64,
    /// Experiment lanes executed.
    pub lanes_executed: u64,
    /// Experiment lanes skipped by cancellation.
    pub lanes_cancelled: u64,
    /// Lanes a pool worker took from its own queue.
    pub lanes_local: u64,
    /// Lanes a pool worker stole from a peer.
    pub lanes_stolen: u64,
}

impl ScheduleStats {
    /// Accumulates another scheduler's counters into this one. Every
    /// field counts events owned by exactly one scheduler instance, so
    /// summing the per-process snapshots of a worker fleet produces one
    /// fleet digest without double counting (saturating adds, so a
    /// corrupt snapshot cannot wrap the total).
    pub fn merge(&mut self, other: &ScheduleStats) {
        self.campaigns_submitted = self
            .campaigns_submitted
            .saturating_add(other.campaigns_submitted);
        self.campaigns_admitted = self
            .campaigns_admitted
            .saturating_add(other.campaigns_admitted);
        self.campaigns_completed = self
            .campaigns_completed
            .saturating_add(other.campaigns_completed);
        self.campaigns_cancelled = self
            .campaigns_cancelled
            .saturating_add(other.campaigns_cancelled);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.lanes_executed = self.lanes_executed.saturating_add(other.lanes_executed);
        self.lanes_cancelled = self.lanes_cancelled.saturating_add(other.lanes_cancelled);
        self.lanes_local = self.lanes_local.saturating_add(other.lanes_local);
        self.lanes_stolen = self.lanes_stolen.saturating_add(other.lanes_stolen);
    }
}

/// The collected result of one scheduled campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The submission this report answers.
    pub ticket: CampaignTicket,
    /// Aggregated summary over the completed repetitions. For a campaign
    /// cancelled mid-flight this covers exactly the repetitions whose
    /// barrier was passed; a partially executed repetition is discarded,
    /// never half-committed.
    pub summary: CampaignSummary,
    /// Repetition barriers passed.
    pub completed_repetitions: usize,
    /// Whether the campaign was stopped by its cancellation token.
    pub cancelled: bool,
}

/// One submitted campaign: the plan plus its pre-reserved run-id range
/// and cancellation token.
struct Submission {
    plan: CampaignPlan,
    base: RunId,
    token: CancellationToken,
}

/// The multi-campaign scheduler: N campaigns against one shared
/// [`SpSystem`], fair-share over one work-stealing pool.
///
/// See the module docs for the execution model. Tickets are scoped to one
/// [`execute`](Self::execute) batch; the scheduler can be reused for a
/// fresh batch afterwards (counters accumulate).
pub struct CampaignScheduler<'a> {
    system: &'a SpSystem,
    lanes: LaneScheduler,
    admission_limit: usize,
    progress: Option<&'a dyn ProgressHook>,
    submissions: Vec<Submission>,
    campaigns_submitted: usize,
    campaigns_admitted: usize,
    campaigns_completed: usize,
    campaigns_cancelled: usize,
}

impl<'a> CampaignScheduler<'a> {
    /// Creates a scheduler whose shared pool has `workers` threads
    /// (minimum 1) and no admission limit.
    pub fn new(system: &'a SpSystem, workers: usize) -> Self {
        CampaignScheduler {
            system,
            lanes: LaneScheduler::new(workers),
            admission_limit: usize::MAX,
            progress: None,
            submissions: Vec::new(),
            campaigns_submitted: 0,
            campaigns_admitted: 0,
            campaigns_completed: 0,
            campaigns_cancelled: 0,
        }
    }

    /// Caps how many campaigns run concurrently (minimum 1); further
    /// submissions wait in submission order until a slot frees up.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit.max(1);
        self
    }

    /// Attaches an in-flight liveness hook: it ticks from pool workers as
    /// lanes start ([`ProgressPoint::Dispatch`]), after every task
    /// completes ([`ProgressPoint::Task`]), and at every repetition
    /// barrier ([`ProgressPoint::Barrier`]). A fleet worker hangs its
    /// lease renewal off these ticks so a lease held by a live executor
    /// never expires mid-campaign, however long the campaign runs.
    pub fn with_progress(mut self, hook: &'a dyn ProgressHook) -> Self {
        self.progress = Some(hook);
        self
    }

    /// Plans and submits a campaign: validates every experiment and image
    /// up front, rejects overlap with already-submitted campaigns, and
    /// pre-reserves the campaign's contiguous run-id range.
    pub fn submit(&mut self, config: CampaignConfig) -> Result<CampaignTicket, SystemError> {
        let plan = CampaignPlan::new(self.system, config)?;
        self.check_disjoint(&plan)?;
        let base = self.system.reserve_run_ids(plan.total_runs() as u64);
        Ok(self.push_submission(plan, base))
    }

    /// Submits a plan whose run-id range was **already reserved
    /// elsewhere** — the fleet path: ranges are pre-carved on the
    /// coordinator at queue-submission time, and whichever worker leases
    /// the plan executes it under exactly those ids. The local run-id
    /// cursor is advanced past the range, so ad-hoc runs on this system
    /// can never collide with the handed-off ids.
    pub fn submit_reserved(
        &mut self,
        plan: CampaignPlan,
        base: RunId,
    ) -> Result<CampaignTicket, SystemError> {
        self.check_disjoint(&plan)?;
        self.system
            .advance_run_ids_past(base.0 + plan.total_runs() as u64);
        Ok(self.push_submission(plan, base))
    }

    /// Rejects a plan that overlaps an already-submitted campaign's
    /// experiments (see [`SystemError::CampaignConflict`]).
    fn check_disjoint(&self, plan: &CampaignPlan) -> Result<(), SystemError> {
        for submission in &self.submissions {
            for name in &plan.config().experiments {
                if submission.plan.config().experiments.contains(name) {
                    return Err(SystemError::CampaignConflict(name.clone()));
                }
            }
        }
        Ok(())
    }

    fn push_submission(&mut self, plan: CampaignPlan, base: RunId) -> CampaignTicket {
        let ticket = CampaignTicket(self.submissions.len());
        self.submissions.push(Submission {
            plan,
            base,
            token: CancellationToken::new(),
        });
        self.campaigns_submitted += 1;
        ticket
    }

    /// The run-id range `[first, last]` pre-reserved for a submission.
    pub fn reserved_run_ids(&self, ticket: CampaignTicket) -> Option<(RunId, RunId)> {
        let submission = self.submissions.get(ticket.0)?;
        let total = submission.plan.total_runs() as u64;
        Some((
            submission.base,
            RunId(submission.base.0 + total.saturating_sub(1)),
        ))
    }

    /// The cancellation token of a submission — a cheap clone the caller
    /// can keep and trip from any thread while the batch executes.
    pub fn cancellation_token(&self, ticket: CampaignTicket) -> Option<CancellationToken> {
        self.submissions.get(ticket.0).map(|s| s.token.clone())
    }

    /// Cancels one campaign: its not-yet-started lanes are skipped, its
    /// current repetition is discarded, and no further repetitions run.
    /// Other campaigns are unaffected.
    pub fn cancel(&self, ticket: CampaignTicket) {
        if let Some(submission) = self.submissions.get(ticket.0) {
            submission.token.cancel();
        }
    }

    /// Snapshot of the accumulated scheduling counters.
    pub fn stats(&self) -> ScheduleStats {
        let lanes = self.lanes.stats();
        ScheduleStats {
            campaigns_submitted: self.campaigns_submitted,
            campaigns_admitted: self.campaigns_admitted,
            campaigns_completed: self.campaigns_completed,
            campaigns_cancelled: self.campaigns_cancelled,
            rounds: lanes.rounds,
            lanes_executed: lanes.lanes_executed,
            lanes_cancelled: lanes.lanes_cancelled,
            lanes_local: lanes.local,
            lanes_stolen: lanes.stolen,
        }
    }

    /// Runs every submitted campaign to completion (or cancellation) and
    /// collects one report per submission, in submission order.
    ///
    /// Rounds dispatch one repetition per active campaign; within a round
    /// every campaign's lanes share the pool fair-share interleaved. At
    /// each campaign's repetition barrier its runs are committed to the
    /// ledger as **one batch in task order** — batches of different
    /// campaigns never interleave inside a commit, and each campaign's
    /// ledger ids are exactly its pre-reserved range in ascending order.
    pub fn execute(&mut self) -> Result<Vec<CampaignReport>, SystemError> {
        self.execute_from(self.system.clock().now())
    }

    /// [`execute`](Self::execute) with an explicit timeline origin.
    ///
    /// A fleet worker replays a campaign that was *submitted* elsewhere:
    /// its timestamps must derive from the origin recorded at submission,
    /// not from whatever this process's clock happens to read after
    /// earlier leases moved it — otherwise the report would depend on
    /// which worker drained the plan. The shared clock is still only ever
    /// moved forward past completed barriers.
    pub fn execute_from(&mut self, origin: u64) -> Result<Vec<CampaignReport>, SystemError> {
        let submissions = std::mem::take(&mut self.submissions);
        let ledger: &RunLedger = self.system.ledger();

        struct CampaignState<'p> {
            plan: &'p CampaignPlan,
            base: RunId,
            token: CancellationToken,
            aggregator: SummaryAggregator,
            next_repetition: usize,
            cancelled: bool,
        }
        let mut states: Vec<CampaignState<'_>> = submissions
            .iter()
            .map(|submission| CampaignState {
                plan: &submission.plan,
                base: submission.base,
                token: submission.token.clone(),
                aggregator: SummaryAggregator::new(&submission.plan),
                next_repetition: 0,
                cancelled: false,
            })
            .collect();

        // Admission: up to `admission_limit` campaigns active at once, the
        // rest waiting in submission order. A campaign with nothing to run
        // completes at admission without occupying a slot.
        let admission_limit = self.admission_limit;
        let mut waiting: VecDeque<usize> = (0..states.len()).collect();
        let mut active: Vec<usize> = Vec::new();
        macro_rules! admit {
            () => {
                while active.len() < admission_limit {
                    match waiting.pop_front() {
                        Some(index) => {
                            self.campaigns_admitted += 1;
                            if states[index].plan.repetitions() == 0 {
                                self.campaigns_completed += 1;
                            } else {
                                active.push(index);
                            }
                        }
                        None => break,
                    }
                }
            };
        }
        admit!();

        type LaneResult<'p> = Result<Vec<(&'p RunTask, ValidationRun)>, SystemError>;
        /// One dispatched lane's payload: (campaign index, its plan, the
        /// lane's tasks, the repetition timestamp).
        type LanePayload<'p> = (usize, &'p CampaignPlan, Vec<&'p RunTask>, u64);

        while !active.is_empty() {
            // One repetition per active campaign, fair-share interleaved.
            // Lanes promote references as they run, so before dispatching
            // a campaign's repetition its experiments' reference states
            // are checkpointed — a repetition discarded by cancellation
            // rolls its promotions back (references of runs that
            // officially never happened must not leak into later work).
            let mut round: Vec<Lane<LanePayload<'_>>> = Vec::new();
            let mut checkpoints: BTreeMap<usize, Vec<(String, crate::ledger::ReferenceState)>> =
                BTreeMap::new();
            for &index in &active {
                let state = &states[index];
                if state.cancelled || state.token.is_cancelled() {
                    continue;
                }
                checkpoints.insert(
                    index,
                    state
                        .plan
                        .config()
                        .experiments
                        .iter()
                        .map(|name| (name.clone(), ledger.reference_state(name)))
                        .collect(),
                );
                let repetition = state.next_repetition;
                let timestamp = origin + repetition as u64 * state.plan.config().interval_secs;
                for lane_tasks in state.plan.lanes(repetition) {
                    round.push(Lane {
                        campaign: CampaignId(index as u64),
                        token: state.token.clone(),
                        payload: (index, state.plan, lane_tasks, timestamp),
                    });
                }
            }
            let bases: Vec<RunId> = states.iter().map(|s| s.base).collect();
            let progress = self.progress;

            let results = self.lanes.dispatch_hooked(
                round,
                progress,
                |_, (index, plan, tasks, timestamp)| {
                    let base = bases[index];
                    let mut completed: Vec<(&RunTask, ValidationRun)> =
                        Vec::with_capacity(tasks.len());
                    for task in tasks {
                        let run_id = RunId(base.0 + task.index as u64);
                        let run_config = plan.config().run_config_for(task);
                        match self.system.execute_run_at(
                            &task.experiment,
                            task.image,
                            &run_config,
                            run_id,
                            timestamp,
                        ) {
                            Ok(run) => {
                                // In-lane reference promotion: the next run
                                // of the same experiment compares against
                                // exactly this state. Under `image_parallel`
                                // promotion moves to the repetition barrier
                                // instead — cells of one repetition all
                                // compare against the state frozen at the
                                // previous barrier, which is what lets them
                                // run in any order.
                                if !plan.config().options.image_parallel {
                                    ledger.promote(&run);
                                }
                                completed.push((task, run));
                                if let Some(hook) = progress {
                                    hook.tick(ProgressPoint::Task);
                                }
                            }
                            Err(error) => return (index, Err(error)),
                        }
                    }
                    (index, Ok(completed))
                },
            );

            // Collect per campaign: group this round's lane results. A
            // `None` is a skipped lane of a cancelled campaign — the
            // scheduler learns which one below, because a round
            // dispatches lanes only for live campaigns, so every lane of
            // a cancelled campaign comes back `None` together.
            let mut per_campaign: BTreeMap<usize, Vec<Option<LaneResult<'_>>>> = BTreeMap::new();
            for (index, lane_result) in results.into_iter().flatten() {
                per_campaign
                    .entry(index)
                    .or_default()
                    .push(Some(lane_result));
            }

            let mut still_active: Vec<usize> = Vec::new();
            for &index in &active {
                let state = &mut states[index];
                let expected_lanes = if state.cancelled || state.token.is_cancelled() {
                    0
                } else {
                    state.plan.lanes(state.next_repetition).len()
                };
                let lane_results = per_campaign.remove(&index).unwrap_or_default();
                let complete = lane_results.len() == expected_lanes
                    && !state.token.is_cancelled()
                    && !state.cancelled;
                if complete {
                    // Barrier: commit the repetition in task order as one
                    // batch (references were already promoted in-lane), and
                    // move the shared clock forward past this barrier.
                    let mut repetition_runs: Vec<(&RunTask, ValidationRun)> = Vec::new();
                    for lane in lane_results.into_iter().flatten() {
                        repetition_runs.extend(lane?);
                    }
                    repetition_runs.sort_by_key(|(task, _)| task.index);
                    for (task, run) in &repetition_runs {
                        state.aggregator.record(task, run);
                    }
                    if state.plan.config().options.image_parallel {
                        // Deferred promotion: applying the repetition's
                        // promotions here in task order reproduces exactly
                        // the reference state sequential execution leaves
                        // at this barrier — the snapshot the *next*
                        // repetition's cells will all compare against.
                        for (_, run) in &repetition_runs {
                            ledger.promote(run);
                        }
                    }
                    ledger.log_batch(repetition_runs.into_iter().map(|(_, run)| run).collect());
                    state.next_repetition += 1;
                    self.system.clock().advance_to(
                        origin + state.next_repetition as u64 * state.plan.config().interval_secs,
                    );
                    // Every repetition barrier is a liveness point: a
                    // campaign of N repetitions proves it is alive at
                    // least N times however long the repetitions take.
                    if let Some(hook) = self.progress {
                        hook.tick(ProgressPoint::Barrier);
                    }
                    if state.next_repetition < state.plan.repetitions() {
                        still_active.push(index);
                    } else {
                        self.campaigns_completed += 1;
                    }
                } else {
                    // Cancelled mid-round: the partial repetition is
                    // discarded — its runs were conserved in storage but
                    // never reach the ledger log, and any references its
                    // lanes promoted are rolled back to the checkpoint
                    // taken before dispatch.
                    if let Some(checkpoint) = checkpoints.remove(&index) {
                        for (experiment, reference_state) in checkpoint {
                            ledger.restore_reference_state(&experiment, reference_state);
                        }
                    }
                    state.cancelled = true;
                    self.campaigns_cancelled += 1;
                }
            }
            active = still_active;
            admit!();
        }

        // Campaigns never admitted... cannot happen (the loop drains the
        // waiting queue), but cancelled-before-start campaigns finalize
        // with whatever they completed: zero repetitions.
        Ok(states
            .into_iter()
            .enumerate()
            .map(|(index, state)| CampaignReport {
                ticket: CampaignTicket(index),
                completed_repetitions: state.next_repetition,
                cancelled: state.cancelled,
                summary: state.aggregator.finish(),
            })
            .collect())
    }
}

/// Matrix column label for an image: the configuration label plus the
/// installed ROOT version (the external-dependency coordinate of Figure 3).
fn column_label(image: &sp_env::VmImage) -> String {
    match image.spec.externals.get("root") {
        Some(root) => format!("{} root{}", image.label(), root.version),
        None => image.label(),
    }
}

/// Aggregates a run's results per process group.
fn aggregate_groups(run: &ValidationRun) -> BTreeMap<String, CellStatus> {
    let mut by_group: BTreeMap<String, Vec<&TestStatus>> = BTreeMap::new();
    for result in &run.results {
        by_group
            .entry(result.group.clone())
            .or_default()
            .push(&result.status);
    }
    by_group
        .into_iter()
        .map(|(group, statuses)| {
            let any_fail = statuses.iter().any(|s| matches!(s, TestStatus::Failed(_)));
            let all_skipped = statuses.iter().all(|s| matches!(s, TestStatus::Skipped(_)));
            let any_warn = statuses
                .iter()
                .any(|s| matches!(s, TestStatus::PassedWithWarnings(_)));
            let status = if all_skipped {
                CellStatus::NotRun
            } else if any_fail {
                CellStatus::Fail
            } else if any_warn {
                CellStatus::Warnings
            } else {
                CellStatus::Pass
            };
            (group, status)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::TestResult;
    use crate::test::{FailureKind, TestCategory, TestId};
    use sp_exec::JobId;

    fn result(group: &str, status: TestStatus) -> TestResult {
        TestResult {
            test: TestId::new(format!("{group}/t")),
            category: TestCategory::Compilation,
            group: group.into(),
            job: JobId(1),
            status,
            outputs: vec![],
            compare: None,
        }
    }

    #[test]
    fn group_aggregation_rules() {
        let run = ValidationRun {
            id: RunId(1),
            experiment: "e".into(),
            image_label: "img".into(),
            description: String::new(),
            timestamp: 0,
            results: vec![
                result("clean", TestStatus::Passed),
                result("warny", TestStatus::Passed),
                result("warny", TestStatus::PassedWithWarnings(2)),
                result("broken", TestStatus::Passed),
                result("broken", TestStatus::Failed(FailureKind::CompileError)),
                result("idle", TestStatus::Skipped("dep".into())),
            ],
        };
        let groups = aggregate_groups(&run);
        assert_eq!(groups["clean"], CellStatus::Pass);
        assert_eq!(groups["warny"], CellStatus::Warnings);
        assert_eq!(groups["broken"], CellStatus::Fail);
        assert_eq!(groups["idle"], CellStatus::NotRun);
    }

    #[test]
    fn glyphs() {
        assert_eq!(CellStatus::Pass.glyph(), "ok");
        assert_eq!(CellStatus::Fail.glyph(), "FAIL");
    }

    #[test]
    fn config_counts() {
        let config = CampaignConfig {
            experiments: vec!["h1".into(), "zeus".into()],
            images: vec![VmImageId(1), VmImageId(2), VmImageId(3)],
            repetitions: 5,
            run: RunConfig::default(),
            interval_secs: 86_400,
            options: CampaignOptions::default(),
        };
        assert_eq!(config.total_runs(), 30);
    }

    #[test]
    fn rows_deduplicate_in_key_order() {
        let mut cells: BTreeMap<(String, String, String), CellStatus> = BTreeMap::new();
        for image in ["a-img", "b-img"] {
            cells.insert(("h1".into(), "g1".into(), image.into()), CellStatus::Pass);
            cells.insert(("h1".into(), "g2".into(), image.into()), CellStatus::Fail);
            cells.insert(("zeus".into(), "g1".into(), image.into()), CellStatus::Pass);
        }
        let summary = CampaignSummary {
            runs: vec![],
            cells,
            image_labels: vec!["a-img".into(), "b-img".into()],
        };
        assert_eq!(
            summary.rows(),
            vec![
                ("h1".to_string(), "g1".to_string()),
                ("h1".to_string(), "g2".to_string()),
                ("zeus".to_string(), "g1".to_string()),
            ]
        );
    }

    #[test]
    fn plan_rejects_unknown_names_up_front() {
        let system = SpSystem::new();
        let image = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        let config = CampaignConfig {
            experiments: vec!["ghost".into()],
            images: vec![image],
            repetitions: 1,
            run: RunConfig::default(),
            interval_secs: 1,
            options: CampaignOptions::default(),
        };
        assert!(matches!(
            CampaignPlan::new(&system, config),
            Err(SystemError::UnknownExperiment(_))
        ));
        let config = CampaignConfig {
            experiments: vec![],
            images: vec![VmImageId(99)],
            repetitions: 1,
            run: RunConfig::default(),
            interval_secs: 1,
            options: CampaignOptions::default(),
        };
        assert!(matches!(
            CampaignPlan::new(&system, config),
            Err(SystemError::UnknownImage(VmImageId(99)))
        ));
    }

    #[test]
    fn plan_flattens_with_barriers_and_lanes() {
        let system = SpSystem::new();
        let img1 = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        let img2 = system
            .register_image(sp_env::catalog::sl5_gcc41(
                sp_env::Arch::I686,
                sp_env::Version::two(5, 34),
            ))
            .unwrap();
        system
            .register_experiment(sp_experiments_stub("alpha"))
            .unwrap();
        system
            .register_experiment(sp_experiments_stub("beta"))
            .unwrap();
        let config = CampaignConfig {
            experiments: vec!["beta".into(), "alpha".into()],
            images: vec![img1, img2],
            repetitions: 3,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let plan = CampaignPlan::new(&system, config).unwrap();
        assert_eq!(plan.total_runs(), 12);
        assert_eq!(plan.repetitions(), 3);
        assert_eq!(plan.image_labels().len(), 2);
        // Indices are globally sequential and barrier slices are disjoint.
        for (i, task) in plan.tasks().iter().enumerate() {
            assert_eq!(task.index, i);
            assert_eq!(task.repetition, i / 4);
        }
        let rep1 = plan.repetition_tasks(1);
        assert_eq!(rep1.len(), 4);
        assert_eq!(rep1[0].index, 4);
        // Lanes: config order (beta first), task order inside each lane.
        let lanes = plan.lanes(1);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0][0].experiment, "beta");
        assert_eq!(lanes[1][0].experiment, "alpha");
        assert!(lanes[0].windows(2).all(|w| w[0].index < w[1].index));
        assert!(plan.tasks()[0].description.contains("(pass 1)"));
    }

    #[test]
    fn scheduler_rejects_overlapping_campaigns() {
        let system = SpSystem::new();
        let image = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        system
            .register_experiment(sp_experiments_stub("alpha"))
            .unwrap();
        system
            .register_experiment(sp_experiments_stub("beta"))
            .unwrap();
        let config = |experiments: Vec<String>| CampaignConfig {
            experiments,
            images: vec![image],
            repetitions: 1,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let mut scheduler = CampaignScheduler::new(&system, 2);
        let ticket = scheduler.submit(config(vec!["alpha".into()])).unwrap();
        assert_eq!(ticket.index(), 0);
        // Disjoint: fine.
        scheduler.submit(config(vec!["beta".into()])).unwrap();
        // Overlapping: rejected at submission, before anything runs.
        assert!(matches!(
            scheduler.submit(config(vec!["alpha".into()])),
            Err(SystemError::CampaignConflict(name)) if name == "alpha"
        ));
        assert_eq!(scheduler.stats().campaigns_submitted, 2);
    }

    #[test]
    fn scheduler_reserves_disjoint_run_id_ranges() {
        let system = SpSystem::new();
        let image = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        for name in ["alpha", "beta"] {
            system
                .register_experiment(sp_experiments_stub(name))
                .unwrap();
        }
        let config = |name: &str, repetitions: usize| CampaignConfig {
            experiments: vec![name.into()],
            images: vec![image],
            repetitions,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let mut scheduler = CampaignScheduler::new(&system, 2);
        let first = scheduler.submit(config("alpha", 3)).unwrap();
        let second = scheduler.submit(config("beta", 2)).unwrap();
        let (a_lo, a_hi) = scheduler.reserved_run_ids(first).unwrap();
        let (b_lo, b_hi) = scheduler.reserved_run_ids(second).unwrap();
        assert_eq!(a_hi.0 - a_lo.0 + 1, 3);
        assert_eq!(b_hi.0 - b_lo.0 + 1, 2);
        assert!(a_hi.0 < b_lo.0, "ranges are disjoint and ordered");
    }

    #[test]
    fn cancelled_campaign_stops_without_touching_neighbours() {
        let system = SpSystem::new();
        let image = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        for name in ["alpha", "beta"] {
            system
                .register_experiment(sp_experiments_stub(name))
                .unwrap();
        }
        let config = |name: &str| CampaignConfig {
            experiments: vec![name.into()],
            images: vec![image],
            repetitions: 3,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let mut scheduler = CampaignScheduler::new(&system, 2);
        let doomed = scheduler.submit(config("alpha")).unwrap();
        let live = scheduler.submit(config("beta")).unwrap();
        scheduler.cancel(doomed);
        let reports = scheduler.execute().unwrap();

        let doomed_report = &reports[doomed.index()];
        assert!(doomed_report.cancelled);
        assert_eq!(doomed_report.completed_repetitions, 0);
        assert!(doomed_report.summary.runs.is_empty());

        let live_report = &reports[live.index()];
        assert!(!live_report.cancelled);
        assert_eq!(live_report.completed_repetitions, 3);
        assert_eq!(live_report.summary.total_runs(), 3);

        let stats = scheduler.stats();
        assert_eq!(stats.campaigns_cancelled, 1);
        assert_eq!(stats.campaigns_completed, 1);
        // Only beta's runs reached the ledger.
        assert!(system
            .ledger()
            .runs()
            .iter()
            .all(|run| run.experiment == "beta"));
    }

    #[test]
    fn admission_limit_serialises_excess_campaigns() {
        let system = SpSystem::new();
        let image = system
            .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
            .unwrap();
        for name in ["alpha", "beta", "gamma"] {
            system
                .register_experiment(sp_experiments_stub(name))
                .unwrap();
        }
        let config = |name: &str| CampaignConfig {
            experiments: vec![name.into()],
            images: vec![image],
            repetitions: 2,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let mut scheduler = CampaignScheduler::new(&system, 2).with_admission_limit(1);
        for name in ["alpha", "beta", "gamma"] {
            scheduler.submit(config(name)).unwrap();
        }
        let reports = scheduler.execute().unwrap();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(!report.cancelled);
            assert_eq!(report.completed_repetitions, 2);
            assert_eq!(report.summary.total_runs(), 2);
        }
        let stats = scheduler.stats();
        assert_eq!(stats.campaigns_admitted, 3);
        assert_eq!(stats.campaigns_completed, 3);
        // With one admission slot each campaign runs alone; the ledger
        // holds each campaign's range contiguously.
        let ids: Vec<u64> = system.ledger().runs().iter().map(|r| r.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "serialised campaigns commit in id order");
    }

    /// A minimal registrable experiment for plan-level tests.
    fn sp_experiments_stub(name: &str) -> crate::experiment::ExperimentDef {
        use crate::preservation::PreservationLevel;
        use crate::suite::TestSuite;
        use crate::test::{TestKind, ValidationTest};
        use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
        let graph = DependencyGraph::from_packages([Package::new(
            "core",
            sp_env::Version::new(1, 0, 0),
            PackageKind::Library,
        )])
        .unwrap();
        let mut suite = TestSuite::new(name, PreservationLevel::FullSoftware);
        suite
            .add(ValidationTest::new(
                format!("{name}/compile/core"),
                name,
                "compilation",
                TestKind::Compile {
                    package: PackageId::new("core"),
                },
            ))
            .unwrap();
        crate::experiment::ExperimentDef {
            name: name.into(),
            color: "blue",
            graph,
            suite,
            entry_points: vec![PackageId::new("core")],
        }
    }
}
