//! # sp-exec — the job execution substrate
//!
//! The sp-system runs its regular builds and validation tests as jobs on
//! client machines: "new client machines (as a virtual machine or a normal
//! physical machine like a batch or grid worker node) can easily be added.
//! The only requirement of a new machine is to have access to the common
//! sp-system storage … as well as the ability to run a cron-job on the
//! client." (§3.1)
//!
//! * [`clock`] — the virtual clock providing the Unix timestamps of §3.3.
//! * [`cron`] — cron expressions and next-fire computation.
//! * [`job`] — unique, monotonically increasing job ids.
//! * [`client`] — client machines and the two joining requirements.
//! * [`poll`] — pull-model polling primitives: jittered exponential
//!   backoff and the idle-bounded poll loop fleet workers drain a shared
//!   queue with.
//! * [`pool`] — the generic work-stealing scheduler: per-worker deques,
//!   oldest-first stealing, results in task-index order.
//! * [`sched`] — campaign-scoped cancellation tokens and the progress
//!   hook that campaign execution ticks for lease liveness.
//! * [`chain`] — DAG-structured analysis chains: "some of these tests …
//!   are run in parallel, many are run sequentially and form discrete parts
//!   in one of several full analysis chains" (§3.2).
//!
//! ## Example
//!
//! ```
//! use sp_exec::{CronSchedule, VirtualClock};
//!
//! let clock = VirtualClock::starting_at(1_356_998_400); // 2013-01-01 00:00 UTC
//! let nightly = CronSchedule::nightly();
//! let next = nightly.next_after(clock.now()).unwrap();
//! assert!(next > clock.now());
//! clock.advance_to(next);
//! assert_eq!(clock.now(), next);
//! ```

pub mod chain;
pub mod client;
pub mod clock;
pub mod cron;
pub mod job;
pub mod poll;
pub mod pool;
pub mod sched;

pub use chain::{ChainDef, ChainError, ChainReport, StageDef, StageStatus};
pub use client::{Client, ClientError, ClientKind};
pub use clock::VirtualClock;
pub use cron::{CronError, CronSchedule};
pub use job::{JobId, JobIdGenerator};
pub use poll::{Backoff, PollLoop, PollOutcome, PollStats, RetryPolicy};
pub use pool::{PoolStats, WorkStealingPool};
pub use sched::{CancellationToken, ProgressHook, ProgressPoint};
