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
//! admitted campaigns in rounds — one repetition per campaign per round.
//! A round dispatches every campaign's cells, in submission order, as one
//! batch onto the scheduler's [`sp_exec::WorkStealingPool`], then its
//! judge lanes as a second batch; each batch returns only when all of its
//! tasks have finished. At the round barrier each campaign's repetition
//! is committed to the ledger as its own batch (no cross-campaign
//! interleaving inside a batch), and one [`CampaignReport`] is collected
//! per campaign.
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
//! ## Produce in parallel, judge in lane order
//!
//! Within one repetition, runs of the *same* experiment form a dependency
//! chain: a successful run promotes its outputs to reference status, and
//! the next run of that experiment compares against exactly those
//! references. But only the comparison reads the reference — the stack
//! build, unit checks and MC chains that make up nearly all of a run do
//! not. So every run is split in two, `SpSystem::produce` and
//! `SpSystem::judge` ([`SpSystem::run_validation`] is the composition):
//!
//! 1. **produce** — every (experiment, image) cell of the round is its own
//!    pool task: build, execute and conserve, whatever its experiment;
//! 2. **judge** — once the round's cells are produced, each experiment's
//!    cells are compared against the current reference and promoted in
//!    task order, one **lane** per experiment; lanes of different
//!    experiments judge in parallel (references are per-experiment,
//!    storage is content-addressed, ids are pre-assigned).
//!
//! Each lane also packs its runs into the form the ledger keeps and
//! computes their summary records and cell statuses, so the repetition
//! barrier only sorts the runs into task order, merges their cells and
//! appends them to the ledger under one lock, and the clock ticks. Every
//! cell therefore sees exactly the reference the sequential
//! oracle shows it, so a [`CampaignSummary`] is byte-identical to the
//! oracle's for any worker count, which
//! `crates/core/tests/campaign_equivalence.rs` asserts property-wise,
//! and a round takes as long as its total work over the pool, not as
//! long as its largest experiment's cells in sequence.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use sp_env::VmImageId;
use sp_exec::{CancellationToken, ProgressHook, ProgressPoint, WorkStealingPool};

use crate::ledger::{ReferenceState, RunLedger};
use crate::run::{RunId, TestStatus, ValidationRun};
use crate::system::{ProducedRun, RunConfig, SpSystem, SystemError};

/// Execution options orthogonal to the campaign grid itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignOptions {
    /// Serve unchanged (experiment, image, test) cells from the system's
    /// run memo: a cell whose determinants — test id, campaign seed,
    /// environment revision (full image label including externals) and
    /// scale — match an earlier execution replays that execution's
    /// conserved outputs instead of re-running its MC chain. Every
    /// comparison is judged against the current reference; one whose
    /// (output, reference) content-address pair was compared before is
    /// served from the system's verdict memo, as that pair decides it. The
    /// resulting [`CampaignSummary`] is byte-identical to the uncached path
    /// (the memoized-vs-uncached property test asserts exactly this).
    pub memoize: bool,
    /// Ignored. Every campaign already produces its (experiment, image)
    /// cells in parallel and judges them in task order (see the module
    /// docs), so there is no second execution mode to select. The field
    /// stays only because the fleet's campaign payload still carries its
    /// byte.
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
    /// Execution options (memoisation).
    pub options: CampaignOptions,
}

impl CampaignConfig {
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
    fn repetition_tasks(&self, repetition: usize) -> &[RunTask] {
        let start = repetition * self.runs_per_repetition;
        let end = (start + self.runs_per_repetition).min(self.tasks.len());
        &self.tasks[start..end]
    }

    /// Matrix column labels, in image order.
    pub fn image_labels(&self) -> &[String] {
        &self.image_labels
    }
}

/// Streaming aggregation of runs into a [`CampaignSummary`]; shared by the
/// sequential oracle and the parallel engine so both produce identical
/// summaries by construction (given runs arrive in task order).
///
/// A pushed run only updates its (experiment, image) slot of the plan's
/// grid: each group's latest status and the index of the task that set
/// it. The string-keyed [`CampaignSummary::cells`] is built once, by
/// [`finish`](Self::finish).
struct SummaryAggregator {
    runs: Vec<RunRecord>,
    /// One slot per (experiment, image) cell of a repetition, in task
    /// order: (group, status, task index) per group seen there.
    slots: Vec<Vec<(Arc<str>, CellStatus, usize)>>,
    experiments: Vec<String>,
    image_labels: Vec<String>,
}

impl SummaryAggregator {
    fn new(plan: &CampaignPlan) -> Self {
        SummaryAggregator {
            runs: Vec::with_capacity(plan.total_runs()),
            slots: vec![Vec::new(); plan.runs_per_repetition],
            experiments: plan.config().experiments.clone(),
            image_labels: plan.image_labels().to_vec(),
        }
    }

    /// Adds one run's summary; runs must arrive in task order, so a cell
    /// keeps the status of its last run.
    fn push(&mut self, summarized: Summarized) {
        self.runs.push(summarized.record);
        let index = summarized.index;
        let slots = self.slots.len();
        let slot = &mut self.slots[index % slots];
        for (group, status) in summarized.groups {
            match slot.iter_mut().find(|(known, ..)| *known == group) {
                Some(cell) => (cell.1, cell.2) = (status, index),
                None => slot.push((group, status, index)),
            }
        }
    }

    fn finish(self) -> CampaignSummary {
        // Two slots may share a key (an experiment or image label listed
        // twice), so cells are keyed in task order: the last run wins.
        let images = self.image_labels.len();
        let mut latest: Vec<(usize, CellKey, CellStatus)> = Vec::new();
        for (slot, groups) in self.slots.into_iter().enumerate() {
            let experiment = &self.experiments[slot / images];
            let image_label = &self.image_labels[slot % images];
            latest.extend(groups.into_iter().map(|(group, status, index)| {
                let key = (experiment.clone(), group.to_string(), image_label.clone());
                (index, key, status)
            }));
        }
        latest.sort_by_key(|(index, ..)| *index);
        let mut cells = BTreeMap::new();
        cells.extend(latest.into_iter().map(|(_, key, status)| (key, status)));
        CampaignSummary {
            runs: self.runs,
            cells,
            image_labels: self.image_labels,
        }
    }
}

/// A key of [`CampaignSummary::cells`]: (experiment, group, image label).
type CellKey = (String, String, String);

/// What one run adds to a [`CampaignSummary`]: its record, its task index
/// and the status of each of its groups' cells.
struct Summarized {
    record: RunRecord,
    index: usize,
    groups: Vec<(Arc<str>, CellStatus)>,
}

impl Summarized {
    fn new(task: &RunTask, run: &ValidationRun) -> Self {
        Summarized {
            record: RunRecord {
                id: run.id,
                experiment: task.experiment.clone(),
                image_label: task.image_label.clone(),
                timestamp: run.timestamp,
                passed: run.passed(),
                failed: run.failed(),
                skipped: run.skipped(),
                successful: run.is_successful(),
            },
            index: task.index,
            groups: aggregate_groups(run),
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
                aggregator.push(Summarized::new(task, &run));
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
    /// Pool dispatches: each scheduling round (one repetition per active
    /// campaign) dispatches its cells as one batch, then its judge lanes
    /// as another.
    pub rounds: u64,
    /// Lanes executed: one per produced cell and one per experiment lane
    /// judged.
    pub lanes_executed: u64,
    /// Lanes skipped by cancellation.
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
/// [`SpSystem`], over one work-stealing pool.
///
/// See the module docs for the execution model. Tickets are scoped to one
/// [`execute`](Self::execute) batch; the scheduler can be reused for a
/// fresh batch afterwards (counters accumulate).
pub struct CampaignScheduler<'a> {
    system: &'a SpSystem,
    pool: WorkStealingPool,
    admission_limit: usize,
    progress: Option<&'a dyn ProgressHook>,
    submissions: Vec<Submission>,
    stats: ScheduleStats,
}

impl<'a> CampaignScheduler<'a> {
    /// Creates a scheduler whose shared pool has `workers` threads
    /// (minimum 1) and no admission limit.
    pub fn new(system: &'a SpSystem, workers: usize) -> Self {
        CampaignScheduler {
            system,
            pool: WorkStealingPool::new(workers),
            admission_limit: usize::MAX,
            progress: None,
            submissions: Vec::new(),
            stats: ScheduleStats::default(),
        }
    }

    /// Caps how many campaigns run concurrently (minimum 1); further
    /// submissions wait in submission order until a slot frees up.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit.max(1);
        self
    }

    /// Attaches an in-flight liveness hook: it ticks from pool workers as
    /// each cell starts producing ([`ProgressPoint::Dispatch`]), after
    /// each cell's run is produced ([`ProgressPoint::Task`]), and at every
    /// repetition barrier ([`ProgressPoint::Barrier`]). A fleet worker hangs its
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
        self.stats.campaigns_submitted += 1;
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

    /// Cancels one campaign: its not-yet-started tasks are skipped, its
    /// current repetition is discarded, and no further repetitions run.
    /// Other campaigns are unaffected.
    pub fn cancel(&self, ticket: CampaignTicket) {
        if let Some(submission) = self.submissions.get(ticket.0) {
            submission.token.cancel();
        }
    }

    /// Snapshot of the accumulated scheduling counters.
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Runs every submitted campaign to completion (or cancellation) and
    /// collects one report per submission, in submission order.
    ///
    /// Rounds dispatch one repetition per active campaign; within a round
    /// every campaign's cells share the pool as one batch, then each
    /// campaign's experiment lanes judge as another. At each campaign's
    /// repetition barrier its runs are committed to the ledger as **one
    /// batch in task order** — batches of different campaigns never
    /// interleave inside a commit, and each campaign's ledger ids are
    /// exactly its pre-reserved range in ascending order.
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
        let system = self.system;
        let progress = self.progress;
        let ledger: &RunLedger = system.ledger();

        struct CampaignState {
            aggregator: SummaryAggregator,
            next_repetition: usize,
            cancelled: bool,
        }
        let mut states: Vec<CampaignState> = submissions
            .iter()
            .map(|submission| CampaignState {
                aggregator: SummaryAggregator::new(&submission.plan),
                next_repetition: 0,
                cancelled: false,
            })
            .collect();

        // Admission: up to `admission_limit` campaigns active at once, the
        // rest waiting in submission order. A campaign with nothing to run
        // completes at admission without occupying a slot. `active` stays
        // in ascending submission order, which is also the order every
        // round's tasks are pushed and its results come back in.
        let admission_limit = self.admission_limit;
        let mut waiting: VecDeque<usize> = (0..states.len()).collect();
        let mut active: Vec<usize> = Vec::new();
        macro_rules! admit {
            () => {
                while active.len() < admission_limit {
                    match waiting.pop_front() {
                        Some(index) => {
                            self.stats.campaigns_admitted += 1;
                            if submissions[index].plan.repetitions() == 0 {
                                self.stats.campaigns_completed += 1;
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

        while !active.is_empty() {
            // One repetition per live campaign, every cell its own pool
            // task. Judging promotes references in-lane, so before a
            // campaign's repetition is dispatched its experiments'
            // reference states are checkpointed — a repetition discarded
            // by cancellation rolls its promotions back (references of
            // runs that officially never happened must not leak into
            // later work).
            let mut cells: Vec<(usize, (&RunTask, u64))> = Vec::new();
            let mut checkpoints: BTreeMap<usize, Vec<(String, ReferenceState)>> = BTreeMap::new();
            for &index in &active {
                let submission = &submissions[index];
                if submission.token.is_cancelled() {
                    continue;
                }
                let config = submission.plan.config();
                checkpoints.insert(
                    index,
                    config
                        .experiments
                        .iter()
                        .map(|name| (name.clone(), ledger.reference_state(name)))
                        .collect(),
                );
                let repetition = states[index].next_repetition;
                let timestamp = origin + repetition as u64 * config.interval_secs;
                for task in submission.plan.repetition_tasks(repetition) {
                    cells.push((index, (task, timestamp)));
                }
            }

            // Produce: nothing reads a reference, so cells of one
            // experiment run in any order on any worker.
            let produced = self.dispatch(&submissions, cells, |campaign, (task, timestamp)| {
                if let Some(hook) = progress {
                    hook.tick(ProgressPoint::Dispatch);
                }
                let submission = &submissions[campaign];
                let run_config = submission.plan.config().run_config_for(task);
                let run_id = RunId(submission.base.0 + task.index as u64);
                let produced =
                    system.produce(&task.experiment, task.image, &run_config, run_id, timestamp);
                if let (Ok(_), Some(hook)) = (&produced, progress) {
                    hook.tick(ProgressPoint::Task);
                }
                (task, produced)
            });

            // Judge: a campaign whose every cell was produced compares and
            // promotes each experiment's cells in task order, one lane per
            // experiment. A campaign cancelled before that is never judged.
            let mut produced = produced.into_iter().peekable();
            let mut judged: BTreeSet<usize> = BTreeSet::new();
            let mut lanes: Vec<(usize, Vec<(&RunTask, ProducedRun)>)> = Vec::new();
            for &index in checkpoints.keys() {
                let mut cells = Vec::new();
                while let Some((_, cell)) = produced.next_if(|(owner, _)| *owner == index) {
                    cells.push(cell);
                }
                if submissions[index].token.is_cancelled() || cells.iter().any(Option::is_none) {
                    continue;
                }
                let mut by_experiment: Vec<Vec<(&RunTask, ProducedRun)>> = Vec::new();
                for (task, run) in cells.into_iter().flatten() {
                    let cell = (task, run?);
                    match by_experiment
                        .iter_mut()
                        .find(|lane| lane[0].0.experiment == task.experiment)
                    {
                        Some(lane) => lane.push(cell),
                        None => by_experiment.push(vec![cell]),
                    }
                }
                lanes.extend(by_experiment.into_iter().map(|lane| (index, lane)));
                judged.insert(index);
            }
            // Each lane also packs its runs for the ledger and summarises
            // them, so the barrier below only merges and appends.
            let judged_lanes = self.dispatch(&submissions, lanes, |_, lane| {
                lane.into_iter()
                    .map(|(task, produced)| {
                        let run = system.judge(produced);
                        ledger.promote(&run);
                        (task.index, ledger.pack(&run), Summarized::new(task, &run))
                    })
                    .collect::<Vec<_>>()
            });
            let mut judged_lanes = judged_lanes.into_iter().peekable();

            let mut still_active: Vec<usize> = Vec::new();
            for &index in &active {
                let mut lanes = Vec::new();
                while let Some((_, lane)) = judged_lanes.next_if(|(owner, _)| *owner == index) {
                    lanes.push(lane);
                }
                let plan = &submissions[index].plan;
                let state = &mut states[index];
                let complete = judged.contains(&index)
                    && !submissions[index].token.is_cancelled()
                    && lanes.iter().all(Option::is_some);
                if complete {
                    // Barrier: commit the repetition in task order as one
                    // batch (references were already promoted, and the runs
                    // packed and summarised, in-lane), and move the shared
                    // clock forward past this barrier.
                    let mut runs: Vec<_> = lanes.into_iter().flatten().flatten().collect();
                    runs.sort_by_key(|(index, _, _)| *index);
                    let logged = runs
                        .into_iter()
                        .map(|(_, logged, summarized)| {
                            state.aggregator.push(summarized);
                            logged
                        })
                        .collect();
                    ledger.append(logged);
                    state.next_repetition += 1;
                    system.clock().advance_to(
                        origin + state.next_repetition as u64 * plan.config().interval_secs,
                    );
                    // Every repetition barrier is a liveness point: a
                    // campaign of N repetitions proves it is alive at
                    // least N times however long the repetitions take.
                    if let Some(hook) = progress {
                        hook.tick(ProgressPoint::Barrier);
                    }
                    if state.next_repetition < plan.repetitions() {
                        still_active.push(index);
                    } else {
                        self.stats.campaigns_completed += 1;
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
                    self.stats.campaigns_cancelled += 1;
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

    /// Runs one batch of `(campaign index, payload)` tasks on the pool and
    /// returns `(campaign index, result)` in task order. A task whose
    /// campaign was cancelled before it started is skipped (`None`); an
    /// empty batch is not a round.
    fn dispatch<T, R, F>(
        &mut self,
        submissions: &[Submission],
        tasks: Vec<(usize, T)>,
        f: F,
    ) -> Vec<(usize, Option<R>)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        let _round_span = sp_obs::trace::span("sched", "round");
        let (results, pool) = self.pool.run_with_stats(tasks, |_, (campaign, payload)| {
            let live = !submissions[campaign].token.is_cancelled();
            (campaign, live.then(|| f(campaign, payload)))
        });
        let executed = results.iter().filter(|(_, r)| r.is_some()).count() as u64;
        let cancelled = results.len() as u64 - executed;
        self.stats.rounds += 1;
        self.stats.lanes_executed += executed;
        self.stats.lanes_cancelled += cancelled;
        self.stats.lanes_local += pool.local as u64;
        self.stats.lanes_stolen += pool.stolen as u64;
        let registry = sp_obs::global();
        registry.counter("exec.sched.rounds").incr();
        registry.counter("exec.sched.lanes_executed").add(executed);
        registry
            .counter("exec.sched.lanes_cancelled")
            .add(cancelled);
        results
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
fn aggregate_groups(run: &ValidationRun) -> Vec<(Arc<str>, CellStatus)> {
    // [any failed, all skipped, any warned] per group, in order of first
    // appearance. A run has a few groups, each result holding its suite's
    // group text, so finding one is mostly a pointer compare.
    let mut by_group: Vec<(&Arc<str>, [bool; 3])> = Vec::new();
    for result in &run.results {
        let index = match by_group
            .iter()
            .rposition(|(group, _)| **group == result.group)
        {
            Some(index) => index,
            None => {
                by_group.push((&result.group, [false, true, false]));
                by_group.len() - 1
            }
        };
        let [any_fail, all_skipped, any_warn] = &mut by_group[index].1;
        *any_fail |= matches!(result.status, TestStatus::Failed(_));
        *all_skipped &= matches!(result.status, TestStatus::Skipped(_));
        *any_warn |= matches!(result.status, TestStatus::PassedWithWarnings(_));
    }
    by_group
        .into_iter()
        .map(|(group, [any_fail, all_skipped, any_warn])| {
            let status = if all_skipped {
                CellStatus::NotRun
            } else if any_fail {
                CellStatus::Fail
            } else if any_warn {
                CellStatus::Warnings
            } else {
                CellStatus::Pass
            };
            (Arc::clone(group), status)
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
            outputs: Default::default(),
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
        let groups: BTreeMap<String, CellStatus> = aggregate_groups(&run)
            .into_iter()
            .map(|(group, status)| (group.to_string(), status))
            .collect();
        assert_eq!(groups.len(), 4);
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
        // Config order (beta first), images in order within each experiment.
        let experiments: Vec<&str> = rep1.iter().map(|t| t.experiment.as_str()).collect();
        assert_eq!(experiments, ["beta", "beta", "alpha", "alpha"]);
        assert_eq!(rep1[0].image, img1);
        assert_eq!(rep1[1].image, img2);
        assert!(plan.tasks()[0].description.contains("(pass 1)"));
    }

    proptest::proptest! {
        /// The summary's slot-keyed cells equal a map keyed by (experiment,
        /// group, image label) that every run overwrites in task order,
        /// also when the plan lists an experiment or an image twice and
        /// when runs of one cell report different groups.
        #[test]
        fn slot_keyed_cells_match_a_string_keyed_map(
            experiments in proptest::collection::vec(0usize..2, 1..4),
            images in proptest::collection::vec(0usize..3, 1..4),
            repetitions in 1usize..3,
            runs in proptest::collection::vec(
                proptest::collection::vec((0usize..3, 0u8..4), 1..5),
                36,
            ),
        ) {
            let system = SpSystem::new();
            let image_ids = [
                system
                    .register_image(sp_env::catalog::sl6_gcc44(sp_env::Version::two(5, 34)))
                    .unwrap(),
                system
                    .register_image(sp_env::catalog::sl5_gcc41(
                        sp_env::Arch::I686,
                        sp_env::Version::two(5, 34),
                    ))
                    .unwrap(),
            ];
            for name in ["alpha", "beta"] {
                system.register_experiment(sp_experiments_stub(name)).unwrap();
            }
            let config = CampaignConfig {
                experiments: experiments.iter().map(|e| ["alpha", "beta"][*e].into()).collect(),
                // Image 2 is image 0 listed again.
                images: images.iter().map(|i| image_ids[i % 2]).collect(),
                repetitions,
                run: RunConfig::default(),
                interval_secs: 60,
                options: CampaignOptions::default(),
            };
            let plan = CampaignPlan::new(&system, config).unwrap();
            let mut aggregator = SummaryAggregator::new(&plan);
            let mut oracle: BTreeMap<CellKey, CellStatus> = BTreeMap::new();
            for (task, results) in plan.tasks().iter().zip(&runs) {
                let run = ValidationRun {
                    id: RunId(task.index as u64),
                    experiment: task.experiment.clone(),
                    image_label: task.image_label.clone(),
                    description: String::new(),
                    timestamp: 0,
                    results: results
                        .iter()
                        .map(|(group, status)| {
                            let status = match status {
                                0 => TestStatus::Passed,
                                1 => TestStatus::PassedWithWarnings(1),
                                2 => TestStatus::Failed(FailureKind::CompileError),
                                _ => TestStatus::Skipped("dep".into()),
                            };
                            result(["g0", "g1", "g2"][*group], status)
                        })
                        .collect(),
                };
                for (group, status) in aggregate_groups(&run) {
                    let label = task.image_label.clone();
                    oracle.insert((task.experiment.clone(), group.to_string(), label), status);
                }
                aggregator.push(Summarized::new(task, &run));
            }
            proptest::prop_assert_eq!(aggregator.finish().cells, oracle);
        }
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

    /// One experiment on four images is four pool tasks: its cells produce
    /// concurrently instead of queueing behind one experiment lane.
    #[test]
    fn one_experiment_row_produces_its_cells_in_parallel() {
        use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
        use std::time::{Duration, Instant};

        /// Counts cells as they start and finish producing; the first two
        /// to start wait (bounded) for each other, so two workers that
        /// really run cells side by side always overlap.
        #[derive(Default)]
        struct Overlap {
            started: AtomicU64,
            produced: AtomicU64,
            in_flight: AtomicI64,
            peak: AtomicI64,
        }
        impl ProgressHook for Overlap {
            fn tick(&self, point: ProgressPoint) {
                match point {
                    ProgressPoint::Dispatch => {
                        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        self.peak.fetch_max(now, Ordering::SeqCst);
                        if self.started.fetch_add(1, Ordering::SeqCst) < 2 {
                            let deadline = Instant::now() + Duration::from_secs(5);
                            while self.started.load(Ordering::SeqCst) < 2
                                && Instant::now() < deadline
                            {
                                std::thread::yield_now();
                            }
                        }
                    }
                    ProgressPoint::Task => {
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                        self.produced.fetch_add(1, Ordering::SeqCst);
                    }
                    ProgressPoint::Barrier => {}
                }
            }
        }

        let system = SpSystem::new();
        let images: Vec<VmImageId> = sp_env::catalog::paper_images()
            .into_iter()
            .take(4)
            .map(|spec| system.register_image(spec).unwrap())
            .collect();
        system
            .register_experiment(sp_experiments_stub("alpha"))
            .unwrap();
        let config = CampaignConfig {
            experiments: vec!["alpha".into()],
            images,
            repetitions: 1,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let hook = Overlap::default();
        let mut scheduler = CampaignScheduler::new(&system, 2).with_progress(&hook);
        scheduler.submit(config).unwrap();
        let reports = scheduler.execute().unwrap();
        assert_eq!(reports[0].summary.total_runs(), 4);
        assert_eq!(hook.started.load(Ordering::SeqCst), 4, "one task per cell");
        assert_eq!(hook.produced.load(Ordering::SeqCst), 4);
        assert!(
            hook.peak.load(Ordering::SeqCst) >= 2,
            "cells of one experiment must be in flight together"
        );
    }

    /// Two campaigns, two repetitions: every round is one produce batch
    /// and one judge batch, each executed task is counted once, and the
    /// counters keep accumulating across `execute` batches.
    #[test]
    fn scheduler_counts_every_round_and_task_once() {
        let system = SpSystem::new();
        let images: Vec<VmImageId> = sp_env::catalog::paper_images()
            .into_iter()
            .take(2)
            .map(|spec| system.register_image(spec).unwrap())
            .collect();
        for name in ["alpha", "beta", "gamma"] {
            system
                .register_experiment(sp_experiments_stub(name))
                .unwrap();
        }
        let config = |experiments: &[&str], repetitions: usize| CampaignConfig {
            experiments: experiments.iter().map(|name| name.to_string()).collect(),
            images: images.clone(),
            repetitions,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let mut scheduler = CampaignScheduler::new(&system, 2);
        scheduler.submit(config(&["alpha"], 2)).unwrap();
        scheduler.submit(config(&["beta", "gamma"], 2)).unwrap();
        let reports = scheduler.execute().unwrap();
        assert_eq!(reports[0].summary.total_runs(), 4);
        assert_eq!(reports[1].summary.total_runs(), 8);

        // Per repetition: 2 + 4 cells produced, then 1 + 2 experiment
        // lanes judged.
        let stats = scheduler.stats();
        assert_eq!(
            stats.rounds,
            2 * 2,
            "one produce and one judge batch per repetition"
        );
        assert_eq!(stats.lanes_executed, 2 * (6 + 3));
        assert_eq!(stats.lanes_local + stats.lanes_stolen, stats.lanes_executed);
        assert_eq!(stats.lanes_cancelled, 0);
        assert_eq!(stats.campaigns_submitted, 2);
        assert_eq!(stats.campaigns_completed, 2);

        // A second batch on the same scheduler adds to the same counters.
        scheduler.submit(config(&["alpha"], 1)).unwrap();
        scheduler.execute().unwrap();
        let stats = scheduler.stats();
        assert_eq!(stats.rounds, 4 + 2);
        assert_eq!(stats.lanes_executed, 18 + 2 + 1);
        assert_eq!(stats.lanes_local + stats.lanes_stolen, stats.lanes_executed);
        assert_eq!(stats.campaigns_submitted, 3);
        assert_eq!(stats.campaigns_completed, 3);

        // A campaign cancelled before it starts leaves both batches of its
        // round empty, and an empty batch is not a round.
        let ticket = scheduler.submit(config(&["beta"], 1)).unwrap();
        scheduler.cancel(ticket);
        assert!(scheduler.execute().unwrap()[0].cancelled);
        let after = scheduler.stats();
        assert_eq!(after.rounds, stats.rounds);
        assert_eq!(after.lanes_executed, stats.lanes_executed);
        assert_eq!(after.lanes_cancelled, 0);
        assert_eq!(after.campaigns_cancelled, 1);
    }

    /// With one worker the cells run in task order, so a hook that cancels
    /// campaign A at its first `Dispatch` tick stops A mid-batch: A's
    /// remaining cells are skipped without ticking, and B runs untouched.
    #[test]
    fn cancellation_mid_dispatch_skips_only_that_campaign() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::OnceLock;

        #[derive(Default)]
        struct CancelAtFirstDispatch {
            doomed: OnceLock<CancellationToken>,
            dispatches: AtomicU64,
        }
        impl ProgressHook for CancelAtFirstDispatch {
            fn tick(&self, point: ProgressPoint) {
                if point == ProgressPoint::Dispatch
                    && self.dispatches.fetch_add(1, Ordering::SeqCst) == 0
                {
                    self.doomed.get().expect("token installed").cancel();
                }
            }
        }

        let system = SpSystem::new();
        let images: Vec<VmImageId> = sp_env::catalog::paper_images()
            .into_iter()
            .take(3)
            .map(|spec| system.register_image(spec).unwrap())
            .collect();
        for name in ["alpha", "beta"] {
            system
                .register_experiment(sp_experiments_stub(name))
                .unwrap();
        }
        let config = |name: &str, images: &[VmImageId]| CampaignConfig {
            experiments: vec![name.into()],
            images: images.to_vec(),
            repetitions: 2,
            run: RunConfig::default(),
            interval_secs: 60,
            options: CampaignOptions::default(),
        };
        let hook = CancelAtFirstDispatch::default();
        let mut scheduler = CampaignScheduler::new(&system, 1).with_progress(&hook);
        let a = scheduler.submit(config("alpha", &images)).unwrap();
        let b = scheduler.submit(config("beta", &images[..2])).unwrap();
        hook.doomed
            .set(scheduler.cancellation_token(a).unwrap())
            .unwrap();
        let reports = scheduler.execute().unwrap();

        let a_report = &reports[a.index()];
        assert!(a_report.cancelled);
        assert_eq!(a_report.completed_repetitions, 0);
        assert!(a_report.summary.runs.is_empty());
        let b_report = &reports[b.index()];
        assert!(!b_report.cancelled);
        assert_eq!(b_report.completed_repetitions, 2);
        assert_eq!(b_report.summary.total_runs(), 4);

        // A's first cell ticked and ran; its other two were skipped and
        // raised no tick. B's 2 cells ticked in each of its 2 repetitions.
        assert_eq!(hook.dispatches.load(Ordering::SeqCst), 1 + 2 * 2);
        let stats = scheduler.stats();
        assert_eq!(stats.lanes_cancelled, 2);
        assert_eq!(stats.campaigns_cancelled, 1);
        assert_eq!(stats.campaigns_completed, 1);
        assert!(system
            .ledger()
            .runs()
            .iter()
            .all(|run| run.experiment == "beta"));
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
