//! Timing spans.
//!
//! [`span`] returns a guard that, on drop, records the elapsed wall time
//! into the global registry's latency histogram `<scope>.<name>.us`. The
//! histogram is the span's only record: it appears in every metrics
//! snapshot and dump, and crosses processes inside `SPMS` like any other
//! histogram.

use std::time::Instant;

/// A span guard: measures wall time from construction to drop and records
/// it into the global registry histogram `<scope>.<name>.us`.
#[derive(Debug)]
pub struct Span {
    scope: &'static str,
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        crate::global()
            .histogram(&format!("{}.{}.us", self.scope, self.name))
            .observe(self.start.elapsed());
    }
}

/// Opens a span over the enclosing region; see [`Span`].
pub fn span(scope: &'static str, name: &'static str) -> Span {
    Span {
        scope,
        name,
        start: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_span_lands_in_registry_histogram() {
        {
            let _span = span("test", "region");
        }
        let snap = crate::global().snapshot();
        assert_eq!(snap.histograms["test.region.us"].count, 1);
    }
}
