//! Job-batch tests.
//!
//! Standalone validation tests "are run in parallel" (§3.2): a queue of
//! [`JobSpec`]s goes through [`WorkStealingPool::run`] and comes back as
//! [`JobResult`]s in submission order, which for ascending job ids is job-id
//! order, whatever the worker count.

#[cfg(test)]
mod tests {
    use crate::job::{JobId, JobResult, JobSpec, JobStatus};
    use crate::pool::WorkStealingPool;

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("job-{id}"),
            tag: "test".into(),
            image_label: "SL6/64bit gcc4.4".into(),
            submitted_at: 0,
            inputs: vec![],
        }
    }

    fn echo_result(s: &JobSpec) -> JobResult {
        JobResult {
            id: s.id,
            status: if s.id.0.is_multiple_of(7) {
                JobStatus::Failed(1)
            } else {
                JobStatus::Succeeded
            },
            log: format!("ran {}", s.name),
            outputs: vec![],
            started_at: 0,
            finished_at: 1,
        }
    }

    fn run_batch(workers: usize, specs: Vec<JobSpec>) -> Vec<JobResult> {
        WorkStealingPool::new(workers).run(specs, |_, s| echo_result(&s))
    }

    #[test]
    fn results_deterministic_across_thread_counts() {
        let specs: Vec<JobSpec> = (1..=30).map(spec).collect();
        let one = run_batch(1, specs.clone());
        let eight = run_batch(8, specs);
        assert_eq!(one, eight);
        for (i, r) in eight.iter().enumerate() {
            assert_eq!(r.id, JobId(i as u64 + 1), "in job-id order");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(4, vec![]).is_empty());
    }

    #[test]
    fn pool_actually_parallelises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let specs: Vec<JobSpec> = (1..=16).map(spec).collect();
        WorkStealingPool::new(8).run(specs, |_, s| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            echo_result(&s)
        });
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "at least two jobs must overlap"
        );
    }
}
