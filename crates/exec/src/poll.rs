//! Polling primitives for pull-model workers.
//!
//! The paper's clients *pull*: a cron job on each machine wakes up, asks
//! the common storage for work, does it, and goes back to sleep (§3.1).
//! Between cron firings a draining worker needs a finer-grained loop —
//! poll the queue, back off while it is empty, quit once the backlog has
//! been drained and stayed drained. This module provides that loop:
//!
//! * [`Backoff`] — bounded exponential backoff with deterministic jitter,
//!   so a fleet of workers polling one shared directory does not hammer
//!   it in lockstep;
//! * [`PollLoop`] — drives a step closure until it reports `Stop` or has
//!   been `Idle` for a configurable number of consecutive polls.
//!
//! The sleep between polls is injected (`PollLoop::run` takes the sleeper
//! as a closure), so unit tests run the whole loop without waiting on a
//! wall clock while real workers pass `std::thread::sleep`.

use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
///
/// Delays start at `base` and double per consecutive idle attempt up to
/// `max`; each delay is then jittered by up to ±25% using an xorshift
/// stream seeded per worker, which de-synchronises workers that went idle
/// at the same instant. [`reset`](Self::reset) drops back to `base` after
/// useful work.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// Creates a backoff. `seed` individualises the jitter stream (use a
    /// hash of the worker name); zero is mapped to a fixed non-zero seed.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            max: max.max(base),
            attempt: 0,
            rng: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// A backoff suitable for draining a shared on-disk queue: 10 ms
    /// base, 500 ms ceiling.
    pub fn for_queue(seed: u64) -> Self {
        Backoff::new(Duration::from_millis(10), Duration::from_millis(500), seed)
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The next idle delay: exponential growth, clamped, jittered.
    fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let nominal = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.max)
            .as_millis() as u64;
        // Jitter in [-25%, +25%] of the nominal delay, at least 1 ms.
        let quarter = (nominal / 4).max(1);
        let jitter = self.next_random() % (2 * quarter + 1);
        Duration::from_millis(nominal.saturating_sub(quarter) + jitter)
    }

    /// Resets the exponential growth after a successful poll.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Bounded retry for transient I/O faults, reusing [`Backoff`] for the
/// inter-attempt delays.
///
/// A preservation fleet lives on imperfect disks: an `EINTR`/`EAGAIN`-class
/// hiccup on a queue read must degrade to a short retry, not to a fenced
/// campaign or — worse — a durable poison mark on valid work. This policy
/// classifies errors (`Interrupted`, `WouldBlock` and `TimedOut` are
/// transient), retries the transient ones a bounded number of times with
/// backoff, and surfaces everything else (and exhausted retries) to the
/// caller untouched.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    backoff: Backoff,
    max_attempts: u32,
    retries: u64,
}

impl RetryPolicy {
    /// Creates a policy performing at most `max_attempts` attempts per
    /// operation (minimum 1; retries = attempts − 1).
    pub fn new(backoff: Backoff, max_attempts: u32) -> Self {
        RetryPolicy {
            backoff,
            max_attempts: max_attempts.max(1),
            retries: 0,
        }
    }

    /// A policy suited to on-disk queue operations: 1 ms base delay,
    /// 50 ms ceiling, 8 attempts. `seed` individualises the jitter.
    pub fn for_disk(seed: u64) -> Self {
        RetryPolicy::new(
            Backoff::new(Duration::from_millis(1), Duration::from_millis(50), seed),
            8,
        )
    }

    /// Whether an I/O error is transient — worth retrying in place.
    /// `Interrupted` (EINTR), `WouldBlock` (EAGAIN) and `TimedOut` are;
    /// hard faults (ENOSPC, EIO, corruption observed as decode failure)
    /// are not.
    fn is_transient(error: &std::io::Error) -> bool {
        matches!(
            error.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    }

    /// Total retries performed over this policy's lifetime (for fleet
    /// accounting).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Runs `op`, retrying transient failures with backoff, sleeping
    /// through `sleep` (injected so tests retry without a wall clock).
    fn run_with_sleep<T>(
        &mut self,
        mut op: impl FnMut() -> std::io::Result<T>,
        mut sleep: impl FnMut(Duration),
    ) -> std::io::Result<T> {
        self.backoff.reset();
        let mut attempt = 1;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(error) if Self::is_transient(&error) && attempt < self.max_attempts => {
                    attempt += 1;
                    self.retries += 1;
                    let delay = self.backoff.next_delay();
                    let registry = sp_obs::global();
                    registry.counter("exec.retry.retries").incr();
                    registry.histogram("exec.retry.backoff_us").observe(delay);
                    sleep(delay);
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Runs `op`, retrying transient failures with backoff on the OS clock.
    pub fn run<T>(&mut self, op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        self.run_with_sleep(op, std::thread::sleep)
    }
}

/// What one poll step observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// Work was found and done: poll again immediately, backoff reset.
    Worked,
    /// Nothing to do right now: sleep per backoff, then poll again.
    Idle,
    /// The loop should terminate now (backlog drained, shutdown signal).
    Stop,
}

/// Accounting of one [`PollLoop::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollStats {
    /// Steps that did work.
    pub worked: u64,
    /// Steps that found nothing.
    pub idle: u64,
    /// Total time slept between idle polls.
    pub slept: Duration,
}

/// Drives a polling worker until it stops or stays idle too long.
#[derive(Debug, Clone)]
pub struct PollLoop {
    backoff: Backoff,
    max_idle_polls: u32,
}

impl PollLoop {
    /// Creates a loop that gives up after `max_idle_polls` *consecutive*
    /// idle polls (minimum 1); any successful poll resets the count.
    pub fn new(backoff: Backoff, max_idle_polls: u32) -> Self {
        PollLoop {
            backoff,
            max_idle_polls: max_idle_polls.max(1),
        }
    }

    /// Runs `step` until it returns [`PollOutcome::Stop`] or the idle
    /// budget runs out, sleeping through `sleep` between idle polls.
    pub fn run(
        &mut self,
        mut step: impl FnMut() -> PollOutcome,
        mut sleep: impl FnMut(Duration),
    ) -> PollStats {
        let mut stats = PollStats::default();
        let mut consecutive_idle = 0u32;
        loop {
            match step() {
                PollOutcome::Worked => {
                    stats.worked += 1;
                    consecutive_idle = 0;
                    self.backoff.reset();
                }
                PollOutcome::Idle => {
                    stats.idle += 1;
                    consecutive_idle += 1;
                    if consecutive_idle >= self.max_idle_polls {
                        return stats;
                    }
                    let delay = self.backoff.next_delay();
                    stats.slept += delay;
                    sleep(delay);
                }
                PollOutcome::Stop => return stats,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_is_bounded() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(200);
        let mut backoff = Backoff::new(base, max, 42);
        let mut last = Duration::ZERO;
        for _ in 0..20 {
            let delay = backoff.next_delay();
            // ±25% jitter around a nominal clamped to [base, max].
            assert!(delay >= base / 2, "{delay:?}");
            assert!(delay <= max + max / 4, "{delay:?}");
            last = delay;
        }
        // After many attempts the delay sits near the ceiling.
        assert!(last >= max - max / 4);
        backoff.reset();
        assert!(backoff.next_delay() <= base + base / 4 + Duration::from_millis(1));
    }

    #[test]
    fn jitter_streams_differ_per_seed() {
        let mk = |seed| {
            let mut b = Backoff::new(Duration::from_millis(100), Duration::from_millis(100), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2), "seeds de-synchronise workers");
        assert_eq!(mk(7), mk(7), "same seed is deterministic");
        // Seed zero is usable (mapped to a non-zero internal state).
        assert_ne!(mk(0), vec![Duration::from_millis(100); 8]);
    }

    #[test]
    fn loop_stops_after_consecutive_idles() {
        let mut outcomes = vec![
            PollOutcome::Idle,
            PollOutcome::Worked,
            PollOutcome::Idle,
            PollOutcome::Idle,
            PollOutcome::Idle,
        ]
        .into_iter();
        let mut slept = Vec::new();
        let stats = PollLoop::new(Backoff::for_queue(3), 3).run(
            || outcomes.next().unwrap_or(PollOutcome::Idle),
            |d| slept.push(d),
        );
        assert_eq!(stats.worked, 1);
        assert_eq!(stats.idle, 4, "stops at the third consecutive idle");
        assert_eq!(slept.len(), 3, "no sleep after the terminal idle");
        assert!(stats.slept > Duration::ZERO);
    }

    #[test]
    fn retry_policy_retries_transient_then_succeeds() {
        let mut policy = RetryPolicy::for_disk(11);
        let mut attempts = 0;
        let mut slept = Vec::new();
        let result = policy.run_with_sleep(
            || {
                attempts += 1;
                if attempts < 4 {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "EINTR",
                    ))
                } else {
                    Ok(attempts)
                }
            },
            |d| slept.push(d),
        );
        assert_eq!(result.unwrap(), 4);
        assert_eq!(policy.retries(), 3);
        assert_eq!(slept.len(), 3, "one sleep per retry");
    }

    #[test]
    fn retry_policy_surfaces_hard_faults_immediately() {
        let mut policy = RetryPolicy::for_disk(11);
        let mut attempts = 0;
        let result: std::io::Result<()> = policy.run_with_sleep(
            || {
                attempts += 1;
                Err(std::io::Error::from_raw_os_error(28)) // ENOSPC
            },
            |_| {},
        );
        assert_eq!(result.unwrap_err().raw_os_error(), Some(28));
        assert_eq!(attempts, 1, "hard faults are not retried");
        assert_eq!(policy.retries(), 0);
    }

    #[test]
    fn retry_policy_bounds_attempts() {
        let mut policy = RetryPolicy::new(Backoff::for_queue(5), 3);
        let mut attempts = 0;
        let result: std::io::Result<()> = policy.run_with_sleep(
            || {
                attempts += 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "EAGAIN",
                ))
            },
            |_| {},
        );
        assert!(RetryPolicy::is_transient(&result.unwrap_err()));
        assert_eq!(attempts, 3, "bounded attempts, then surfaced");
        assert_eq!(policy.retries(), 2);
    }

    #[test]
    fn loop_honours_stop() {
        let mut polls = 0;
        let stats = PollLoop::new(Backoff::for_queue(1), 100).run(
            || {
                polls += 1;
                if polls < 5 {
                    PollOutcome::Worked
                } else {
                    PollOutcome::Stop
                }
            },
            |_| {},
        );
        assert_eq!(stats.worked, 4);
        assert_eq!(stats.idle, 0);
        assert_eq!(polls, 5);
    }
}
