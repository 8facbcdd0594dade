//! Job ids.
//!
//! "Each test-job started in the sp-system is typically assigned a unique
//! ID, and all scripts and input files used in the test as well as all
//! output files are kept. … In addition to this unique ID, validation jobs
//! may be tagged with a description, indicating which software versions
//! were used, and the Unix time stamp of the execution to aid the
//! bookkeeping." (§3.3)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique job identifier (`sp-000042`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sp-{:06}", self.0)
    }
}

/// Thread-safe generator of unique, monotonically increasing job ids.
#[derive(Clone, Debug, Default)]
pub struct JobIdGenerator {
    next: Arc<AtomicU64>,
}

impl JobIdGenerator {
    /// Creates a generator starting at id 1.
    pub fn new() -> Self {
        JobIdGenerator {
            next: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Allocates the next id.
    pub fn allocate(&self) -> JobId {
        JobId(self.next.fetch_add(1, Ordering::SeqCst))
    }

    /// How many ids have been allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next.load(Ordering::SeqCst) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_the_paper() {
        assert_eq!(JobId(42).to_string(), "sp-000042");
        assert_eq!(JobId(1_000_000).to_string(), "sp-1000000");
    }

    #[test]
    fn generator_is_unique_and_monotonic() {
        let gen = JobIdGenerator::new();
        let a = gen.allocate();
        let b = gen.allocate();
        assert!(a < b);
        assert_eq!(gen.allocated(), 2);
    }

    #[test]
    fn generator_is_thread_safe() {
        let gen = JobIdGenerator::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| g.allocate().0).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "no duplicate ids");
    }
}
