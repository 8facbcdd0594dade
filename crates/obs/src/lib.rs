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
//!   [`MetricsSnapshot`] as the one format in which counters cross
//!   processes (a fleet worker publishes its drain counters as one).
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
//! Store-internal components therefore never push here; readers of their
//! stats structs (queue accounting, memo hit rates) take them from the
//! source.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("lib.test.counter").add(2);
        assert!(global().snapshot().counter("lib.test.counter") >= 2);
    }
}
