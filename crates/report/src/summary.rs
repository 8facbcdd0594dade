//! Campaign statistics.

use std::collections::BTreeMap;

use sp_core::{CampaignSummary, FleetStats, ScheduleStats};
use sp_store::DigestCacheStats;

use crate::json::JsonValue;
use crate::table::{Align, TextTable};

/// Per-experiment campaign statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentStats {
    /// Number of runs.
    pub runs: usize,
    /// Runs that validated successfully.
    pub successful: usize,
    /// Total tests passed across runs.
    pub tests_passed: usize,
    /// Total tests failed across runs.
    pub tests_failed: usize,
}

/// Computes per-experiment statistics from a campaign summary.
pub fn campaign_stats(summary: &CampaignSummary) -> BTreeMap<String, ExperimentStats> {
    let mut stats: BTreeMap<String, ExperimentStats> = BTreeMap::new();
    for run in &summary.runs {
        let entry = stats
            .entry(run.experiment.clone())
            .or_insert(ExperimentStats {
                runs: 0,
                successful: 0,
                tests_passed: 0,
                tests_failed: 0,
            });
        entry.runs += 1;
        entry.successful += run.successful as usize;
        entry.tests_passed += run.passed;
        entry.tests_failed += run.failed;
    }
    stats
}

/// Renders campaign statistics as a text table.
pub fn render_stats(summary: &CampaignSummary) -> String {
    let stats = campaign_stats(summary);
    let mut table = TextTable::new(&["experiment", "runs", "successful", "passed", "failed"])
        .align(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (experiment, s) in &stats {
        table.row_owned(vec![
            experiment.clone(),
            s.runs.to_string(),
            s.successful.to_string(),
            s.tests_passed.to_string(),
            s.tests_failed.to_string(),
        ]);
    }
    table.render()
}

/// Renders the multi-campaign scheduler digest: admission and completion
/// counters, lane scheduling (including work-steals), and the memo
/// effectiveness the warm state contributed — the readable run digest the
/// `repro-longhaul` driver prints after each phase.
pub fn render_scheduler_stats(
    stats: &ScheduleStats,
    chain_memo: &DigestCacheStats,
    output_memo: &DigestCacheStats,
    build_memo: &DigestCacheStats,
) -> String {
    let mut table = TextTable::new(&["scheduler", "value"]).align(&[Align::Left, Align::Right]);
    table.row_owned(vec![
        "campaigns submitted".into(),
        stats.campaigns_submitted.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns admitted".into(),
        stats.campaigns_admitted.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns completed".into(),
        stats.campaigns_completed.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns cancelled".into(),
        stats.campaigns_cancelled.to_string(),
    ]);
    table.row_owned(vec!["rounds".into(), stats.rounds.to_string()]);
    table.row_owned(vec![
        "lanes executed".into(),
        stats.lanes_executed.to_string(),
    ]);
    table.row_owned(vec![
        "lanes cancelled".into(),
        stats.lanes_cancelled.to_string(),
    ]);
    table.row_owned(vec!["lane steals".into(), stats.lanes_stolen.to_string()]);
    for (label, memo) in [
        ("chain memo", chain_memo),
        ("output memo", output_memo),
        ("build memo", build_memo),
    ] {
        table.row_owned(vec![
            label.into(),
            format!(
                "{} hits / {} misses ({:.0}% hit rate)",
                memo.hits,
                memo.misses,
                memo.hit_rate() * 100.0,
            ),
        ]);
    }
    table.render()
}

/// Renders the cross-process fleet digest: queue accounting from the
/// shared directory plus every worker's published `SPMS` snapshot merged
/// into one total. Each worker counts only its own events, so nothing is
/// double counted however many processes contributed.
pub fn render_fleet_stats(stats: &FleetStats) -> String {
    let mut table = TextTable::new(&["fleet", "value"]).align(&[Align::Left, Align::Right]);
    table.row_owned(vec![
        "queue submissions".into(),
        stats.queue.submissions.to_string(),
    ]);
    table.row_owned(vec![
        "queue completed".into(),
        stats.queue.completed.to_string(),
    ]);
    table.row_owned(vec![
        "leases issued".into(),
        stats.queue.leases_issued.to_string(),
    ]);
    table.row_owned(vec![
        "crash reclaims".into(),
        stats.queue.reclaims.to_string(),
    ]);
    table.row_owned(vec![
        "corrupt records dropped".into(),
        stats.queue.corrupt_dropped.to_string(),
    ]);
    table.row_owned(vec![
        "poisoned submissions".into(),
        stats.queue.poisoned.to_string(),
    ]);
    table.row_owned(vec![
        "quarantined records".into(),
        stats.queue.quarantined.to_string(),
    ]);
    table.row_owned(vec![
        "unreadable records".into(),
        stats.queue.unreadable.to_string(),
    ]);
    table.row_owned(vec!["worker processes".into(), stats.workers.to_string()]);
    table.row_owned(vec![
        "campaigns drained".into(),
        stats.drained.campaigns_drained.to_string(),
    ]);
    table.row_owned(vec![
        "runs executed".into(),
        stats.drained.runs_executed.to_string(),
    ]);
    table.row_owned(vec![
        "drain failures".into(),
        stats.drained.failures.to_string(),
    ]);
    table.row_owned(vec![
        "lease renewals".into(),
        stats.drained.renewals.to_string(),
    ]);
    table.row_owned(vec![
        "io retries".into(),
        stats.drained.io_retries.to_string(),
    ]);
    table.row_owned(vec![
        "publish batches".into(),
        stats.drained.publish_batches.to_string(),
    ]);
    table.row_owned(vec![
        "scheduler rounds".into(),
        stats.drained.sched.rounds.to_string(),
    ]);
    table.row_owned(vec![
        "lanes executed".into(),
        stats.drained.sched.lanes_executed.to_string(),
    ]);
    table.row_owned(vec![
        "lane steals".into(),
        stats.drained.sched.lanes_stolen.to_string(),
    ]);
    table.row_owned(vec![
        "idle polls".into(),
        stats.drained.poll.idle.to_string(),
    ]);
    table.row_owned(vec![
        "time slept".into(),
        format!("{} ms", stats.drained.poll.slept.as_millis()),
    ]);
    table.render()
}

/// Exports the merged fleet digest as JSON, mirroring every row of the
/// text table — including the failure-surface counters (`poisoned`,
/// `quarantined`, `unreadable`, `corrupt_dropped`, `io_retries`) that
/// dashboards need to alert on.
pub fn fleet_stats_json(stats: &FleetStats) -> JsonValue {
    JsonValue::object([
        (
            "queue",
            JsonValue::object([
                ("submissions", stats.queue.submissions.into()),
                ("completed", stats.queue.completed.into()),
                ("leases_issued", stats.queue.leases_issued.into()),
                ("reclaims", stats.queue.reclaims.into()),
                ("corrupt_dropped", stats.queue.corrupt_dropped.into()),
                ("poisoned", stats.queue.poisoned.into()),
                ("quarantined", stats.queue.quarantined.into()),
                ("unreadable", stats.queue.unreadable.into()),
            ]),
        ),
        ("workers", stats.workers.into()),
        (
            "drained",
            JsonValue::object([
                ("campaigns_drained", stats.drained.campaigns_drained.into()),
                ("runs_executed", stats.drained.runs_executed.into()),
                ("failures", stats.drained.failures.into()),
                ("renewals", stats.drained.renewals.into()),
                ("io_retries", stats.drained.io_retries.into()),
                ("publish_batches", stats.drained.publish_batches.into()),
                ("sched_rounds", stats.drained.sched.rounds.into()),
                ("lanes_executed", stats.drained.sched.lanes_executed.into()),
                ("lanes_stolen", stats.drained.sched.lanes_stolen.into()),
                ("idle_polls", stats.drained.poll.idle.into()),
                (
                    "slept_ms",
                    (stats.drained.poll.slept.as_millis() as f64).into(),
                ),
            ]),
        ),
    ])
}

/// Exports a campaign summary as JSON.
pub fn campaign_json(summary: &CampaignSummary) -> JsonValue {
    let runs: Vec<JsonValue> = summary
        .runs
        .iter()
        .map(|r| {
            JsonValue::object([
                ("id", JsonValue::string(r.id.to_string())),
                ("experiment", JsonValue::string(&*r.experiment)),
                ("image", JsonValue::string(&*r.image_label)),
                ("timestamp", (r.timestamp as f64).into()),
                ("passed", r.passed.into()),
                ("failed", r.failed.into()),
                ("skipped", r.skipped.into()),
                ("successful", r.successful.into()),
            ])
        })
        .collect();
    JsonValue::object([
        ("total_runs", summary.total_runs().into()),
        ("successful_runs", summary.successful_runs().into()),
        ("runs", JsonValue::Array(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::campaign::RunRecord;
    use sp_core::RunId;

    fn summary() -> CampaignSummary {
        CampaignSummary {
            runs: vec![
                RunRecord {
                    id: RunId(1),
                    experiment: "h1".into(),
                    image_label: "SL5".into(),
                    timestamp: 100,
                    passed: 440,
                    failed: 0,
                    skipped: 2,
                    successful: false,
                },
                RunRecord {
                    id: RunId(2),
                    experiment: "h1".into(),
                    image_label: "SL6".into(),
                    timestamp: 200,
                    passed: 430,
                    failed: 12,
                    skipped: 0,
                    successful: false,
                },
                RunRecord {
                    id: RunId(3),
                    experiment: "zeus".into(),
                    image_label: "SL5".into(),
                    timestamp: 100,
                    passed: 150,
                    failed: 0,
                    skipped: 0,
                    successful: true,
                },
            ],
            cells: Default::default(),
            image_labels: vec!["SL5".into(), "SL6".into()],
        }
    }

    #[test]
    fn stats_aggregate_per_experiment() {
        let stats = campaign_stats(&summary());
        assert_eq!(stats["h1"].runs, 2);
        assert_eq!(stats["h1"].tests_failed, 12);
        assert_eq!(stats["zeus"].successful, 1);
    }

    #[test]
    fn table_renders() {
        let rendered = render_stats(&summary());
        assert!(rendered.contains("h1"));
        assert!(rendered.contains("zeus"));
        assert!(rendered.contains("12"));
    }

    #[test]
    fn scheduler_digest_renders_counters_and_memo_hits() {
        let stats = ScheduleStats {
            campaigns_submitted: 3,
            campaigns_admitted: 3,
            campaigns_completed: 2,
            campaigns_cancelled: 1,
            rounds: 7,
            lanes_executed: 21,
            lanes_cancelled: 2,
            lanes_local: 15,
            lanes_stolen: 6,
        };
        let memo = DigestCacheStats {
            hits: 9,
            misses: 3,
            entries: 12,
        };
        let rendered = render_scheduler_stats(&stats, &memo, &memo, &memo);
        assert!(rendered.contains("campaigns admitted"));
        assert!(rendered.contains("lane steals"));
        assert!(rendered.contains("9 hits / 3 misses (75% hit rate)"));
        assert!(rendered.contains("campaigns cancelled"));
    }

    #[test]
    fn fleet_digest_renders_merged_counters() {
        use sp_core::WorkerStats;
        let worker = WorkerStats {
            campaigns_drained: 3,
            runs_executed: 21,
            failures: 1,
            renewals: 6,
            sched: ScheduleStats {
                rounds: 9,
                lanes_executed: 18,
                lanes_stolen: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut merged = worker.to_metrics();
        merged.merge(&worker.to_metrics());
        let drained = WorkerStats::from_metrics(&merged);
        assert_eq!(drained.sched.lanes_executed, 36);
        let stats = FleetStats {
            queue: sp_store::QueueStats {
                submissions: 4,
                completed: 4,
                leases_issued: 5,
                reclaims: 1,
                corrupt_dropped: 0,
                poisoned: 1,
                quarantined: 1,
                unreadable: 1,
            },
            workers: 2,
            drained,
        };
        let rendered = render_fleet_stats(&stats);
        assert!(rendered.contains("crash reclaims"));
        assert!(rendered.contains("worker processes"));
        assert!(rendered.contains("campaigns drained"));
        assert!(rendered.contains("poisoned submissions"));
        assert!(rendered.contains("quarantined records"));
        assert!(rendered.contains("unreadable records"));
        assert!(rendered.contains("lease renewals"));
        assert!(rendered.contains("io retries"));
        assert!(rendered.contains("publish batches"));
        assert!(rendered.contains("42"));
    }

    #[test]
    fn fleet_json_carries_failure_surface_counters() {
        use sp_core::WorkerStats;
        let stats = FleetStats {
            queue: sp_store::QueueStats {
                submissions: 4,
                completed: 3,
                leases_issued: 5,
                reclaims: 1,
                corrupt_dropped: 2,
                poisoned: 1,
                quarantined: 1,
                unreadable: 1,
            },
            workers: 2,
            drained: WorkerStats {
                io_retries: 7,
                ..Default::default()
            },
        };
        let json = fleet_stats_json(&stats).render();
        assert!(json.contains("\"poisoned\":1"));
        assert!(json.contains("\"quarantined\":1"));
        assert!(json.contains("\"unreadable\":1"));
        assert!(json.contains("\"corrupt_dropped\":2"));
        assert!(json.contains("\"io_retries\":7"));
        assert!(json.contains("\"workers\":2"));
    }

    #[test]
    fn json_export() {
        let json = campaign_json(&summary()).render();
        assert!(json.contains("\"total_runs\":3"));
        assert!(json.contains("\"successful_runs\":1"));
        assert!(json.contains("spr-000002"));
    }
}
