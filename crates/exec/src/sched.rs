//! Campaign-scoped cancellation and in-flight progress signals.
//!
//! `sp-core`'s `CampaignScheduler` runs every campaign's cells, then its
//! judge lanes, straight on one shared [`crate::WorkStealingPool`]. This
//! module holds the two pieces of that contract the executor layer owns:
//!
//! * [`CancellationToken`] — a campaign's shareable cancel flag; a task
//!   whose campaign was cancelled is skipped instead of executing;
//! * [`ProgressHook`] / [`ProgressPoint`] — liveness ticks raised while a
//!   campaign executes, which a fleet worker turns into lease renewals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation flag scoped to one campaign: cancelling it
/// stops that campaign's not-yet-started tasks without touching any other
/// campaign sharing the pool.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// Creates a live (not cancelled) token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation. Tasks already executing finish; tasks not
    /// yet started are skipped.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Where in the execution a [`ProgressHook`] tick was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressPoint {
    /// A cell is about to be produced on a pool worker.
    Dispatch,
    /// One cell's run was produced.
    Task,
    /// A repetition barrier completed: every task of the round joined
    /// and the round's results were committed.
    Barrier,
}

/// In-flight liveness signal from the executor to whoever owns the work.
///
/// Long campaigns execute for arbitrary wall time inside one
/// `CampaignScheduler::execute` call; anything that leases work (the
/// fleet worker) must prove it is still alive *during* that call, not
/// just between work items. The scheduler raises
/// [`ProgressPoint::Dispatch`] from pool workers as each cell starts,
/// [`ProgressPoint::Task`] as each cell's run is produced, and
/// [`ProgressPoint::Barrier`] as repetition barriers complete.
/// Implementations are called from multiple threads concurrently and
/// must be cheap — a tick is an opportunity to renew a lease, not an
/// obligation to do work.
pub trait ProgressHook: Sync {
    /// Signals that execution reached `point` and the caller is alive.
    fn tick(&self, point: ProgressPoint);
}
