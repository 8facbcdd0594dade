//! # sp-core — the sp-system validation framework
//!
//! The primary contribution of Ozerov & South (arXiv:1310.7814): "a generic
//! validation suite, which includes automated software build tools and data
//! validation, … to automatically test and validate the software and data of
//! an experiment against changes and upgrades to the environment, as well as
//! changes to the experiment software itself."
//!
//! * [`preservation`] — the DPHEP preservation levels (Table 1).
//! * [`inputs`] — the three input categories of Figure 1 and intervention
//!   routing.
//! * [`test`](mod@test) — the validation-test taxonomy (compilation, unit checks,
//!   standalone executables, full analysis chains).
//! * [`suite`] — experiment test suites and the Figure-2 breakdown.
//! * [`experiment`] — experiment definitions (packages + suite + chains).
//! * [`compare`] — the comparison engine: exit codes, yes/no, text,
//!   numeric tolerances, histogram χ²/KS.
//! * [`run`] — validation runs: unique ids, tags, timestamps, results.
//! * [`ledger`] — run bookkeeping over the common storage.
//! * [`regress`] — run-to-run regression analysis ("any differences
//!   compared to the last successful test are examined").
//! * [`classify`](mod@classify) — root-cause classification into the three input
//!   categories, with intervention routing.
//! * [`workflow`] — the four-phase life cycle (§3.1 i–iv), including the
//!   final freeze.
//! * [`system`] — [`SpSystem`]: images, clients, suites, run execution.
//! * [`campaign`] — multi-run campaigns (the >300 runs of §3.3), split
//!   into a planning phase ([`CampaignPlan`]) and two interchangeable
//!   executors: the sequential [`Campaign`] oracle and the sharded,
//!   work-stealing [`CampaignScheduler`].
//! * [`fleet`] — the distributed deployment shape of §3.1: a
//!   [`Coordinator`] enqueues campaign plans onto the durable
//!   [`sp_store::WorkQueue`] (pre-carved run-id ranges, recorded
//!   origins), and [`Worker`] processes lease, execute and report them
//!   back, with crash recovery via lease expiry and fencing tokens.
//!
//! ## Example
//!
//! Comparing a new test output against its stored reference — the heart of
//! the validation loop ("any differences compared to the last successful
//! test are examined"):
//!
//! ```
//! use sp_core::{Comparator, TestOutput};
//!
//! let reference = TestOutput::Numbers(vec![("sigma_nc".into(), 1.234)]);
//! let new = TestOutput::Numbers(vec![("sigma_nc".into(), 1.234)]);
//! let comparator = Comparator::default_for(&reference);
//! assert!(comparator.compare(&new, &reference).passed());
//! ```

pub mod campaign;
pub mod classify;
pub mod compare;
pub mod experiment;
pub mod fleet;
pub mod inputs;
pub mod ledger;
pub mod preservation;
pub mod regress;
pub mod run;
pub mod suite;
pub mod system;
pub mod test;
mod warm;
pub mod workflow;

pub use campaign::{
    Campaign, CampaignConfig, CampaignOptions, CampaignPlan, CampaignReport, CampaignScheduler,
    CampaignSummary, CampaignTicket, CellStatus, RunRecord, RunTask, ScheduleStats,
};
pub use classify::{classify, Diagnosis};
pub use compare::{Comparator, CompareOutcome, TestOutput};
pub use experiment::ExperimentDef;
pub use fleet::{
    fleet_stats, run_log_cells, Coordinator, FleetError, FleetStats, FleetTicket, Worker,
    WorkerStats,
};
pub use inputs::{Assignee, InputCategory};
pub use ledger::{PruneReport, RunLedger};
pub use preservation::PreservationLevel;
pub use regress::{RegressionReport, Transition};
pub use run::{RunId, TestResult, TestStatus, ValidationRun};
pub use suite::{SuiteBreakdown, TestSuite};
pub use system::{
    ProductionRecipe, RunConfig, SpSystem, StorageVerification, SystemExportSummary,
    SystemImportSummary, WarmRestoreReport, WARM_STATE_FILE,
};
pub use test::{FailureKind, TestCategory, TestId, TestKind, ValidationTest};
pub use workflow::{MigrationManager, Phase};
