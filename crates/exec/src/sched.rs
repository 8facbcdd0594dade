//! Fair-share lane scheduling over one shared work-stealing pool.
//!
//! The [`crate::WorkStealingPool`] executes one indexed batch at a time;
//! multi-campaign operation needs one level above it: *several* logical
//! campaigns, each contributing lanes (ordered task sequences), sharing
//! one pool without any campaign starving the others. [`LaneScheduler`]
//! provides exactly that slice:
//!
//! * **fair-share dispatch** — lanes are interleaved round-robin across
//!   campaigns before they are seeded into the pool, so a campaign with
//!   many lanes cannot park a small campaign behind its whole backlog;
//! * **campaign-scoped cancellation** — every lane carries its campaign's
//!   [`CancellationToken`]; a lane whose token was cancelled is skipped on
//!   the worker (result `None`) instead of executing;
//! * **scheduling accounting** — dispatch rounds, executed and cancelled
//!   lanes, and the pool's local/stolen split accumulate in
//!   [`LaneSchedulerStats`] across rounds, which is what the report layer
//!   surfaces as the scheduler digest.
//!
//! The scheduler is deliberately ignorant of what a "campaign" *is* —
//! `sp-core` builds the actual `CampaignScheduler` on top of this by
//! submitting per-repetition experiment lanes and collecting validated
//! runs; the admission policy (which campaigns are active at all) also
//! lives there, next to the domain knowledge it needs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::pool::WorkStealingPool;

/// Identifier of one campaign within a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

impl std::fmt::Display for CampaignId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmp-{:03}", self.0)
    }
}

/// A shareable cancellation flag scoped to one campaign: cancelling it
/// stops that campaign's not-yet-started lanes without touching any other
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

    /// Requests cancellation. Lanes already executing finish; lanes not
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
    /// A lane is about to execute on a pool worker.
    Dispatch,
    /// One task within a lane finished executing.
    Task,
    /// A repetition barrier completed: every lane of the round joined
    /// and the round's results were committed.
    Barrier,
}

/// In-flight liveness signal from the executor to whoever owns the work.
///
/// Long campaigns execute for arbitrary wall time inside one
/// [`LaneScheduler::dispatch`]-driven loop; anything that leases work
/// (the fleet worker) must prove it is still alive *during* that loop,
/// not just between work items. The scheduler raises
/// [`ProgressPoint::Dispatch`] ticks from pool workers as lanes start;
/// the loop above it raises [`ProgressPoint::Task`] and
/// [`ProgressPoint::Barrier`] as tasks and repetition barriers complete.
/// Implementations are called from multiple threads concurrently and
/// must be cheap — a tick is an opportunity to renew a lease, not an
/// obligation to do work.
pub trait ProgressHook: Sync {
    /// Signals that execution reached `point` and the caller is alive.
    fn tick(&self, point: ProgressPoint);
}

/// [`ProgressHook`] adapter that turns the existing liveness ticks into
/// observability: every tick bumps an `exec.progress.*` counter in the
/// global metrics registry and emits a point event to the installed
/// [`sp_obs::TraceSink`], then forwards to the wrapped hook (if any) so
/// lease renewal keeps working unchanged. Handles are resolved once at
/// construction — a tick is three relaxed atomic ops when no sink is
/// installed.
pub struct TracingProgressHook<'a> {
    inner: Option<&'a dyn ProgressHook>,
    dispatch: sp_obs::Counter,
    task: sp_obs::Counter,
    barrier: sp_obs::Counter,
}

impl<'a> TracingProgressHook<'a> {
    /// A hook that only records (no forwarding).
    pub fn new() -> Self {
        Self::wrap_opt(None)
    }

    /// Wraps an existing hook, recording and forwarding every tick.
    pub fn wrap(inner: &'a dyn ProgressHook) -> Self {
        Self::wrap_opt(Some(inner))
    }

    /// [`wrap`](Self::wrap) over an optional inner hook.
    pub fn wrap_opt(inner: Option<&'a dyn ProgressHook>) -> Self {
        let registry = sp_obs::global();
        TracingProgressHook {
            inner,
            dispatch: registry.counter("exec.progress.dispatch"),
            task: registry.counter("exec.progress.task"),
            barrier: registry.counter("exec.progress.barrier"),
        }
    }
}

impl Default for TracingProgressHook<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressHook for TracingProgressHook<'_> {
    fn tick(&self, point: ProgressPoint) {
        match point {
            ProgressPoint::Dispatch => {
                self.dispatch.incr();
                sp_obs::trace::emit("progress", "dispatch");
            }
            ProgressPoint::Task => {
                self.task.incr();
                sp_obs::trace::emit("progress", "task");
            }
            ProgressPoint::Barrier => {
                self.barrier.incr();
                sp_obs::trace::emit("progress", "barrier");
            }
        }
        if let Some(inner) = self.inner {
            inner.tick(point);
        }
    }
}

/// One schedulable lane: a campaign tag, the campaign's cancellation
/// token, and an opaque payload (the task sequence, for `sp-core`).
#[derive(Debug)]
pub struct Lane<T> {
    /// Which campaign this lane belongs to.
    pub campaign: CampaignId,
    /// The campaign's cancellation token.
    pub token: CancellationToken,
    /// Scheduler-opaque lane payload.
    pub payload: T,
}

/// Counters describing everything a scheduler dispatched so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSchedulerStats {
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Lanes handed to the pool and executed.
    pub lanes_executed: u64,
    /// Lanes skipped because their campaign was cancelled.
    pub lanes_cancelled: u64,
    /// Lanes executed from a worker's own queue (pool accounting).
    pub local: u64,
    /// Lanes executed after being stolen from a peer (pool accounting).
    pub stolen: u64,
}

/// The fair-share lane dispatcher over one shared [`WorkStealingPool`].
pub struct LaneScheduler {
    pool: WorkStealingPool,
    rounds: AtomicU64,
    lanes_executed: AtomicU64,
    lanes_cancelled: AtomicU64,
    local: AtomicU64,
    stolen: AtomicU64,
}

impl LaneScheduler {
    /// Creates a scheduler whose shared pool has `workers` threads
    /// (minimum 1).
    pub fn new(workers: usize) -> Self {
        LaneScheduler {
            pool: WorkStealingPool::new(workers),
            rounds: AtomicU64::new(0),
            lanes_executed: AtomicU64::new(0),
            lanes_cancelled: AtomicU64::new(0),
            local: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }

    /// Worker threads of the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Dispatches one round of lanes over the shared pool.
    ///
    /// Lanes are re-ordered fair-share — round-robin across campaigns in
    /// first-appearance order — before being seeded, then executed by the
    /// work-stealing pool. Results come back **in the order the lanes
    /// were passed in**, with `None` for lanes whose campaign was
    /// cancelled before the lane started. `f` must be pure per lane (it
    /// may read shared state), which keeps results independent of worker
    /// count and steal interleaving.
    pub fn dispatch<T, R, F>(&self, lanes: Vec<Lane<T>>, f: F) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        F: Fn(CampaignId, T) -> R + Sync,
    {
        self.dispatch_hooked(lanes, None, f)
    }

    /// [`dispatch`](Self::dispatch) with an optional [`ProgressHook`]:
    /// the hook receives a [`ProgressPoint::Dispatch`] tick from the pool
    /// worker as each live lane starts, so a lease holder renews its
    /// liveness even while every thread is busy executing. Cancelled
    /// lanes do not tick — skipping work is not progress.
    pub fn dispatch_hooked<T, R, F>(
        &self,
        lanes: Vec<Lane<T>>,
        hook: Option<&dyn ProgressHook>,
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        F: Fn(CampaignId, T) -> R + Sync,
    {
        if lanes.is_empty() {
            return Vec::new();
        }
        let _round_span = sp_obs::trace::span("sched", "round");
        self.rounds.fetch_add(1, Ordering::Relaxed);

        // Fair-share interleave: one lane per campaign per turn, campaigns
        // in first-appearance order, lane order preserved within each
        // campaign. `order[fair_index] = original_index` scatters results
        // back afterwards.
        let order = fair_share_order(&lanes);
        let mut slots: Vec<Option<Lane<T>>> = lanes.into_iter().map(Some).collect();
        let fair: Vec<(usize, Lane<T>)> = order
            .iter()
            .map(|&original| (original, slots[original].take().expect("each lane once")))
            .collect();

        let (results, pool_stats) = self.pool.run_with_stats(fair, |_, (original, lane)| {
            if lane.token.is_cancelled() {
                self.lanes_cancelled.fetch_add(1, Ordering::Relaxed);
                return (original, None);
            }
            if let Some(hook) = hook {
                hook.tick(ProgressPoint::Dispatch);
            }
            self.lanes_executed.fetch_add(1, Ordering::Relaxed);
            (original, Some(f(lane.campaign, lane.payload)))
        });
        self.local
            .fetch_add(pool_stats.local as u64, Ordering::Relaxed);
        self.stolen
            .fetch_add(pool_stats.stolen as u64, Ordering::Relaxed);

        let executed = results.iter().filter(|(_, r)| r.is_some()).count() as u64;
        let cancelled = results.len() as u64 - executed;
        let registry = sp_obs::global();
        registry.counter("exec.sched.rounds").incr();
        registry.counter("exec.sched.lanes_executed").add(executed);
        registry
            .counter("exec.sched.lanes_cancelled")
            .add(cancelled);
        sp_obs::trace::emit_with("sched", "round_done", || {
            format!("executed={executed} cancelled={cancelled}")
        });

        let mut out: Vec<Option<R>> = (0..results.len()).map(|_| None).collect();
        for (original, result) in results {
            out[original] = result;
        }
        out
    }

    /// Snapshot of the accumulated scheduling counters.
    pub fn stats(&self) -> LaneSchedulerStats {
        LaneSchedulerStats {
            rounds: self.rounds.load(Ordering::Relaxed),
            lanes_executed: self.lanes_executed.load(Ordering::Relaxed),
            lanes_cancelled: self.lanes_cancelled.load(Ordering::Relaxed),
            local: self.local.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
        }
    }
}

/// Round-robin interleaving order across campaigns: indices into `lanes`
/// such that consecutive positions cycle through the campaigns (in first
/// appearance order), preserving lane order within each campaign.
fn fair_share_order<T>(lanes: &[Lane<T>]) -> Vec<usize> {
    let mut campaigns: Vec<CampaignId> = Vec::new();
    let mut per_campaign: Vec<Vec<usize>> = Vec::new();
    for (index, lane) in lanes.iter().enumerate() {
        match campaigns.iter().position(|c| *c == lane.campaign) {
            Some(slot) => per_campaign[slot].push(index),
            None => {
                campaigns.push(lane.campaign);
                per_campaign.push(vec![index]);
            }
        }
    }
    let mut order = Vec::with_capacity(lanes.len());
    let mut turn = 0;
    while order.len() < lanes.len() {
        for queue in &per_campaign {
            if let Some(&index) = queue.get(turn) {
                order.push(index);
            }
        }
        turn += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(campaign: u64, token: &CancellationToken, payload: u32) -> Lane<u32> {
        Lane {
            campaign: CampaignId(campaign),
            token: token.clone(),
            payload,
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let sched = LaneScheduler::new(4);
        let token = CancellationToken::new();
        let lanes: Vec<Lane<u32>> = (0..32).map(|i| lane(i % 3, &token, i as u32)).collect();
        let results = sched.dispatch(lanes, |_, payload| payload * 2);
        let expected: Vec<Option<u32>> = (0..32).map(|i| Some(i * 2)).collect();
        assert_eq!(results, expected);
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.lanes_executed, 32);
        assert_eq!(stats.local + stats.stolen, 32);
    }

    #[test]
    fn fair_share_interleaves_campaigns() {
        let token = CancellationToken::new();
        // Campaign 1 contributes 4 lanes, campaign 2 contributes 2.
        let lanes: Vec<Lane<u32>> = vec![
            lane(1, &token, 0),
            lane(1, &token, 1),
            lane(1, &token, 2),
            lane(1, &token, 3),
            lane(2, &token, 4),
            lane(2, &token, 5),
        ];
        let order = fair_share_order(&lanes);
        // One lane per campaign per turn: 1a 2a 1b 2b 1c 1d.
        assert_eq!(order, vec![0, 4, 1, 5, 2, 3]);
    }

    #[test]
    fn cancellation_skips_only_the_cancelled_campaign() {
        let sched = LaneScheduler::new(2);
        let live = CancellationToken::new();
        let doomed = CancellationToken::new();
        doomed.cancel();
        assert!(doomed.is_cancelled());
        let lanes = vec![
            lane(1, &live, 10),
            lane(2, &doomed, 20),
            lane(1, &live, 30),
            lane(2, &doomed, 40),
        ];
        let results = sched.dispatch(lanes, |_, payload| payload);
        assert_eq!(results, vec![Some(10), None, Some(30), None]);
        let stats = sched.stats();
        assert_eq!(stats.lanes_executed, 2);
        assert_eq!(stats.lanes_cancelled, 2);
    }

    #[test]
    fn empty_round_is_free() {
        let sched = LaneScheduler::new(2);
        let results: Vec<Option<u32>> = sched.dispatch(Vec::<Lane<u32>>::new(), |_, p| p);
        assert!(results.is_empty());
        assert_eq!(sched.stats().rounds, 0);
    }

    #[test]
    fn progress_hook_ticks_once_per_executed_lane() {
        struct Counter(AtomicU64);
        impl ProgressHook for Counter {
            fn tick(&self, point: ProgressPoint) {
                assert_eq!(point, ProgressPoint::Dispatch);
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let sched = LaneScheduler::new(3);
        let live = CancellationToken::new();
        let doomed = CancellationToken::new();
        doomed.cancel();
        let lanes = vec![
            lane(1, &live, 1),
            lane(2, &doomed, 2),
            lane(1, &live, 3),
            lane(1, &live, 4),
        ];
        let counter = Counter(AtomicU64::new(0));
        let results = sched.dispatch_hooked(lanes, Some(&counter), |_, p| p);
        assert_eq!(results, vec![Some(1), None, Some(3), Some(4)]);
        // Cancelled lanes are skipped work, not progress: no tick.
        assert_eq!(counter.0.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stats_accumulate_across_rounds() {
        let sched = LaneScheduler::new(2);
        let token = CancellationToken::new();
        for _ in 0..3 {
            sched.dispatch(vec![lane(1, &token, 1), lane(2, &token, 2)], |_, p| p);
        }
        let stats = sched.stats();
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.lanes_executed, 6);
    }
}
