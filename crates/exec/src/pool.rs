//! The work-stealing execution pool.
//!
//! Standalone validation tests "are run in parallel" (§3.2).
//! [`WorkStealingPool`] is the scheduler for *any* indexed task batch — the
//! unit checks and standalone executables of one validation run, the lanes
//! of a campaign: tasks are seeded round-robin into
//! per-worker deques, each worker drains its own queue first and then
//! steals from its peers (oldest-first, so stolen work is the work least
//! likely to be cache-hot on its owner), and results are returned
//! **ordered by task index** regardless of which worker ran what. That
//! deterministic ordering is what lets the campaign engine in `sp-core`
//! guarantee byte-identical summaries across worker counts.
//!
//! The paper's deployment motivates the shape: ">300 runs over sets of
//! pre-defined tests have been performed within the sp-system by the HERA
//! experiments" (§3.3) — a grid of independent, unevenly sized tasks
//! (HERMES validates in a fraction of H1's wall time), which is exactly the
//! load profile work stealing handles well and a fixed pre-partition does
//! not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, TryLockError};

/// Counters describing how a batch was scheduled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed from a worker's own queue.
    pub local: usize,
    /// Tasks executed after being stolen from a peer.
    pub stolen: usize,
}

impl PoolStats {
    /// Total tasks executed.
    pub fn total(&self) -> usize {
        self.local + self.stolen
    }
}

/// A fixed-width work-stealing pool.
///
/// The pool itself is stateless between batches (the calling thread is
/// worker 0 and the other workers are scoped threads spawned per
/// [`run`](Self::run)), so one instance can be reused across campaign
/// repetitions without carrying state over a barrier.
pub struct WorkStealingPool {
    workers: usize,
}

impl WorkStealingPool {
    /// Creates a pool with `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        WorkStealingPool {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every task, in parallel, returning results ordered by
    /// task index (`results[i]` is `f(i, tasks[i])`).
    ///
    /// `f` must be pure per task (it may read shared state): together with
    /// the index ordering this makes the output independent of scheduling,
    /// worker count and steal interleaving.
    pub fn run<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_with_stats(tasks, f).0
    }

    /// [`run`](Self::run), additionally reporting scheduling counters.
    pub fn run_with_stats<T, R, F>(&self, tasks: Vec<T>, f: F) -> (Vec<R>, PoolStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let total = tasks.len();
        if total == 0 {
            return (Vec::new(), PoolStats::default());
        }
        let _batch_span = sp_obs::trace::span("pool", "batch");
        let workers = self.workers.min(total);

        // Seed the per-worker queues round-robin so every worker starts
        // with a fair share; FIFO local ends keep index order as the
        // tendency, which helps the collected results arrive nearly sorted.
        // Owner and thieves both pop the oldest task. A plain mutex per
        // queue suffices: tasks run outside it, so it is held only for one
        // `VecDeque` pop.
        let mut seeded: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (index, task) in tasks.into_iter().enumerate() {
            seeded[index % workers].push_back((index, task));
        }
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> = seeded.into_iter().map(Mutex::new).collect();

        let local_count = AtomicUsize::new(0);
        let stolen_count = AtomicUsize::new(0);
        // A panicking task must not leave its peers spinning on a
        // completion count that will never be reached: the first panic is
        // parked here, every worker bails out, and it is re-raised on the
        // caller thread after the scope joins.
        let abort = AtomicBool::new(false);
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        // One worker's loop; returns the `(index, result)` pairs it ran.
        let work = |me: usize| -> Vec<(usize, R)> {
            let mut done = Vec::new();
            while !abort.load(Ordering::SeqCst) {
                // 1. Own queue first.
                let own = queues[me]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                let (index, task) = match own {
                    Some(next) => {
                        local_count.fetch_add(1, Ordering::Relaxed);
                        next
                    }
                    None => {
                        // 2. Steal from peers, scanning away from ourselves
                        //    so two idle workers don't hammer one victim.
                        let mut stole = None;
                        let mut contended = false;
                        for offset in 1..workers {
                            let victim = (me + offset) % workers;
                            match queues[victim].try_lock() {
                                Ok(mut queue) => stole = queue.pop_front(),
                                // Locked by someone else: it may still hold
                                // tasks, so another sweep is warranted.
                                Err(TryLockError::WouldBlock) => contended = true,
                                Err(TryLockError::Poisoned(queue)) => {
                                    stole = queue.into_inner().pop_front()
                                }
                            }
                            if stole.is_some() {
                                break;
                            }
                        }
                        match stole {
                            Some(next) => {
                                stolen_count.fetch_add(1, Ordering::Relaxed);
                                next
                            }
                            // 3. Every queue (own + all peers) was observed
                            //    empty with no contention. Tasks cannot
                            //    enqueue further tasks, so no new work can
                            //    ever appear: whatever remains is in flight
                            //    on other workers and this worker is done.
                            //    Only a contended (locked) queue — which may
                            //    still hold tasks — warrants another sweep.
                            None if contended => {
                                std::thread::yield_now();
                                continue;
                            }
                            None => break,
                        }
                    }
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index, task))) {
                    Ok(result) => done.push((index, result)),
                    Err(payload) => {
                        let mut slot = panic_slot.lock().expect("panic slot");
                        slot.get_or_insert(payload);
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
            done
        };

        // The calling thread is worker 0: a batch of `workers` spawns
        // `workers - 1` threads, so a one-worker batch spawns none.
        let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let work = &work;
            let peers: Vec<_> = (1..workers)
                .map(|me| scope.spawn(move || work(me)))
                .collect();
            let mut indexed = work(0);
            for peer in peers {
                indexed.extend(peer.join().expect("task panics are caught in the loop"));
            }
            indexed
        });

        if let Some(payload) = panic_slot.into_inner().expect("panic slot") {
            std::panic::resume_unwind(payload);
        }

        assert!(
            indexed.len() == total,
            "every task must produce a result ({} of {total})",
            indexed.len()
        );
        indexed.sort_by_key(|(index, _)| *index);
        let results = indexed.into_iter().map(|(_, r)| r).collect();
        let stats = PoolStats {
            local: local_count.load(Ordering::Relaxed),
            stolen: stolen_count.load(Ordering::Relaxed),
        };
        let registry = sp_obs::global();
        registry.counter("exec.pool.batches").incr();
        registry
            .counter("exec.pool.tasks_local")
            .add(stats.local as u64);
        registry
            .counter("exec.pool.tasks_stolen")
            .add(stats.stolen as u64);
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_task_index() {
        let pool = WorkStealingPool::new(4);
        let tasks: Vec<u64> = (0..100).collect();
        let results = pool.run(tasks, |index, task| {
            assert_eq!(index as u64, task);
            task * 2
        });
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let tasks: Vec<u64> = (0..50).collect();
        let one = WorkStealingPool::new(1).run(tasks.clone(), |i, t| i as u64 + t);
        let eight = WorkStealingPool::new(8).run(tasks, |i, t| i as u64 + t);
        assert_eq!(one, eight);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let results = WorkStealingPool::new(4).run((0..50).collect::<Vec<usize>>(), |_, t| {
            runs[t].fetch_add(1, Ordering::SeqCst);
            t
        });
        assert_eq!(results, (0..50).collect::<Vec<_>>());
        assert!(runs.iter().all(|n| n.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_batch_is_fine() {
        let results = WorkStealingPool::new(4).run(Vec::<u32>::new(), |_, t| t);
        assert!(results.is_empty());
        assert_eq!(WorkStealingPool::new(0).workers(), 1, "clamped");
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        let results = WorkStealingPool::new(0).run(vec![7u32], |index, t| (index, t));
        assert_eq!(results, vec![(0, 7)]);
    }

    #[test]
    fn uneven_tasks_are_stolen() {
        // One long task pins a worker; the rest must migrate to its peers.
        let mut tasks = vec![50u64];
        tasks.extend(std::iter::repeat_n(1u64, 63));
        let pool = WorkStealingPool::new(4);
        let (results, stats) = pool.run_with_stats(tasks, |_, millis| {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            millis
        });
        assert_eq!(results.len(), 64);
        assert_eq!(stats.total(), 64);
        assert!(
            stats.stolen > 0,
            "uneven load must trigger stealing: {stats:?}"
        );
    }

    #[test]
    fn pool_actually_parallelises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        WorkStealingPool::new(8).run((0..16).collect::<Vec<u32>>(), |_, t| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            t
        });
        assert!(peak.load(Ordering::SeqCst) > 1);
    }

    #[test]
    fn one_worker_batch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads =
            WorkStealingPool::new(1).run(vec![1u32, 2, 3], |_, _| std::thread::current().id());
        assert!(threads.iter().all(|id| *id == caller), "{threads:?}");
    }

    #[test]
    fn panics_in_tasks_propagate() {
        let outcome = std::panic::catch_unwind(|| {
            WorkStealingPool::new(2).run(vec![1u32, 2, 3], |_, t| {
                if t == 2 {
                    panic!("task failure");
                }
                t
            })
        });
        assert!(outcome.is_err());
    }
}
