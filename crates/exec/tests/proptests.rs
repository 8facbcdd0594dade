//! Property-based tests for the execution substrate.

use proptest::prelude::*;
use sp_exec::cron::CivilTime;
use sp_exec::{ChainDef, CronSchedule, StageDef, WorkStealingPool};

proptest! {
    /// `next_after` always returns a strictly later, minute-aligned time
    /// that the schedule matches.
    #[test]
    fn cron_next_after_is_future_and_aligned(
        after in 0u64..2_000_000_000,
        minute in 0u32..60,
        hour in 0u32..24,
    ) {
        let expr = format!("{minute} {hour} * * *");
        let cron = CronSchedule::parse(&expr).expect("valid expression");
        let fire = cron.next_after(after).expect("daily schedules always fire");
        prop_assert!(fire > after);
        prop_assert_eq!(fire % 60, 0);
        let civil = CivilTime::from_unix(fire);
        prop_assert_eq!(civil.minute, minute);
        prop_assert_eq!(civil.hour, hour);
        // Firing is within the next 24h + 1min for a daily schedule.
        prop_assert!(fire - after <= 86_400 + 60);
    }

    /// Civil-time decomposition is self-consistent: reconstructing the day
    /// offset from (hour, minute, second) matches the original timestamp.
    #[test]
    fn civil_time_time_of_day(ts in 0u64..4_000_000_000u64) {
        let civil = CivilTime::from_unix(ts);
        prop_assert!(civil.hour < 24 && civil.minute < 60 && civil.second < 60);
        prop_assert!((1..=12).contains(&civil.month));
        prop_assert!((1..=31).contains(&civil.day));
        prop_assert!(civil.weekday < 7);
        let within_day =
            civil.hour as u64 * 3600 + civil.minute as u64 * 60 + civil.second as u64;
        prop_assert_eq!(ts % 86_400, within_day);
    }

    /// Consecutive days advance the weekday by one (mod 7).
    #[test]
    fn weekdays_cycle(day_index in 0u64..40_000) {
        let a = CivilTime::from_unix(day_index * 86_400);
        let b = CivilTime::from_unix((day_index + 1) * 86_400);
        prop_assert_eq!((a.weekday + 1) % 7, b.weekday);
    }

    /// `fires_between` output is sorted, strictly increasing, in range and
    /// consistent with repeated `next_after` stepping.
    #[test]
    fn fires_between_consistent(
        start in 0u64..1_000_000_000,
        span_hours in 1u64..72,
        step in 1u32..30,
    ) {
        let cron = CronSchedule::parse(&format!("*/{step} * * * *")).unwrap();
        let end = start + span_hours * 3600;
        let fires = cron.fires_between(start, end);
        for pair in fires.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        for f in &fires {
            prop_assert!(*f > start && *f <= end);
        }
    }

    /// The pool runs every task exactly once and returns results in task
    /// order, independent of worker count.
    #[test]
    fn pool_run_complete_and_ordered(
        n in 0usize..60,
        workers in 1usize..8,
    ) {
        let tasks: Vec<u64> = (0..n as u64).collect();
        let results = WorkStealingPool::new(workers).run(tasks, |index, task| (index, task));
        prop_assert_eq!(results.len(), n);
        for (i, (index, task)) in results.iter().enumerate() {
            prop_assert_eq!(*index, i);
            prop_assert_eq!(*task, i as u64);
        }
    }

    /// Chain execution: one result per stage; a failing stage's transitive
    /// dependents are all skipped; unrelated stages still run.
    #[test]
    fn chain_failure_propagation(fail_stage in 0usize..6) {
        let chain = ChainDef::full_analysis_chain("prop");
        let fail_name = chain.stages()[fail_stage].name.clone();
        let report = chain.execute(|stage, _| {
            if stage.name == fail_name {
                Err("injected".to_string())
            } else {
                Ok(())
            }
        });
        prop_assert_eq!(report.stages.len(), 6);
        // The linear chain: everything after the failing stage is skipped.
        for (i, (_, status)) in report.stages.iter().enumerate() {
            let failed = matches!(status, sp_exec::StageStatus::Failed(_));
            let skipped = matches!(status, sp_exec::StageStatus::Skipped { .. });
            match i.cmp(&fail_stage) {
                std::cmp::Ordering::Less => prop_assert!(status.succeeded()),
                std::cmp::Ordering::Equal => prop_assert!(failed),
                std::cmp::Ordering::Greater => prop_assert!(skipped),
            }
        }
        prop_assert_eq!(report.skipped_count(), 5 - fail_stage);
    }

    /// Arbitrary DAG construction: declaring stages in dependency order
    /// always validates, and execution visits every stage.
    #[test]
    fn random_dag_chains_execute(edges in prop::collection::vec((1usize..8, 0usize..8), 0..16)) {
        let n = 8;
        let mut stages: Vec<StageDef> = (0..n)
            .map(|i| StageDef::new(format!("s{i}"), &[]))
            .collect();
        for (to, from) in edges {
            // Only forward edges (from < to) keep the graph acyclic.
            if from < to {
                let need = format!("s{from}");
                if !stages[to].needs.contains(&need) {
                    stages[to].needs.push(need);
                }
            }
        }
        let chain = ChainDef::new("dag", stages).expect("forward edges are acyclic");
        let report = chain.execute(|_, _| Ok(1u32));
        prop_assert!(report.all_succeeded());
        prop_assert_eq!(report.outputs.len(), n);
    }
}
