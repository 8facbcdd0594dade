//! # sp-obs — observability for the sp-system
//!
//! Ozerov & South's §3.3 validation interface needs more than the
//! current state of each cell: operators drilling into "did anything
//! change since the last migration?" need the run *history*, and a fleet
//! under chaos testing needs live visibility into what its schedulers,
//! queues and caches are doing. This crate is that layer:
//!
//! * [`metrics`] — a cheap process-wide registry of named monotonic
//!   counters, gauges and fixed-bucket latency histograms, with
//!   [`MetricsSnapshot`] carrying the same snapshot/merge/wire-codec
//!   posture as the fleet's `WorkerStats`.
//! * [`trace`] — the [`TraceSink`] span/event API the instrumented
//!   components emit into: null by default (one relaxed atomic load per
//!   disabled call site), ring-buffered in memory for drivers and tests.
//! * [`query`] — [`RunHistory`], the read-optimized query engine over
//!   the durable `SPRL` run log (`sp_store::run_log`): secondary indexes
//!   by experiment, image, status and time window, summary dashboards,
//!   single-cell drill-down and regression timelines, restoring
//!   warm-index snapshots byte-identically across restarts.
//!
//! Dependency direction: this crate sits directly above `sp-store` and
//! below everything that does work (`sp-exec`, `sp-core`, `sp-report`).
//! Store-internal components therefore never push here; their existing
//! stats structs are *sampled* into the registry via [`instrument`] from
//! the fleet call sites that can see both.

pub mod metrics;
pub mod query;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use query::{open_history, CellQuery, HistorySource, HistorySummary, RunHistory, StatusChange};
pub use trace::{MemSink, NullSink, Span, TraceEvent, TraceSink};

/// The process-wide metrics registry every instrumented component bumps.
/// Tests that need isolation construct their own [`MetricsRegistry`].
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Sampling adapters mirroring store-internal stats structs into a
/// registry as gauges. The store cannot depend on this crate, so the
/// fleet components that hold both a queue/cache handle and the registry
/// call these at natural sampling points (poll rounds, drain ends).
pub mod instrument {
    use super::metrics::MetricsRegistry;
    use sp_store::wq::QueueStats;
    use sp_store::DigestCacheStats;

    /// Mirrors a [`QueueStats`] reading into `store.wq.*` gauges.
    pub fn sample_queue_stats(registry: &MetricsRegistry, stats: &QueueStats) {
        registry
            .gauge("store.wq.submissions")
            .set(stats.submissions as i64);
        registry
            .gauge("store.wq.completed")
            .set(stats.completed as i64);
        registry
            .gauge("store.wq.leases_issued")
            .set(stats.leases_issued as i64);
        registry
            .gauge("store.wq.reclaims")
            .set(stats.reclaims as i64);
        registry
            .gauge("store.wq.corrupt_dropped")
            .set(stats.corrupt_dropped as i64);
        registry
            .gauge("store.wq.poisoned")
            .set(stats.poisoned as i64);
        registry
            .gauge("store.wq.quarantined")
            .set(stats.quarantined as i64);
    }

    /// Mirrors a memo/cache hit-rate reading into `<prefix>.{hits,misses,
    /// entries}` gauges (prefix e.g. `store.memo.chain`).
    pub fn sample_cache_stats(registry: &MetricsRegistry, prefix: &str, stats: &DigestCacheStats) {
        registry
            .gauge(&format!("{prefix}.hits"))
            .set(stats.hits as i64);
        registry
            .gauge(&format!("{prefix}.misses"))
            .set(stats.misses as i64);
        registry
            .gauge(&format!("{prefix}.entries"))
            .set(stats.entries as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_samplers_mirror_stats() {
        global().counter("lib.test.counter").add(2);
        assert!(global().snapshot().counter("lib.test.counter") >= 2);

        let registry = MetricsRegistry::new();
        let queue_stats = sp_store::wq::QueueStats {
            submissions: 4,
            completed: 3,
            leases_issued: 5,
            reclaims: 1,
            corrupt_dropped: 2,
            poisoned: 1,
            quarantined: 2,
        };
        instrument::sample_queue_stats(&registry, &queue_stats);
        let cache_stats = sp_store::DigestCacheStats {
            hits: 9,
            misses: 3,
            entries: 6,
        };
        instrument::sample_cache_stats(&registry, "store.memo.chain", &cache_stats);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["store.wq.reclaims"], 1);
        assert_eq!(snap.gauges["store.wq.quarantined"], 2);
        assert_eq!(snap.gauges["store.memo.chain.hits"], 9);
        assert_eq!(snap.gauges["store.memo.chain.misses"], 3);
    }
}
