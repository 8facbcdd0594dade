//! Trace spans and events.
//!
//! A [`TraceSink`] receives a flat stream of [`TraceEvent`]s from
//! instrumented components: the campaign scheduler's rounds, the
//! work-stealing pool, the work queue's lease/publish/quarantine
//! transitions, worker/coordinator lifecycle, and retry/backoff loops.
//! The default sink is a null sink and event construction is guarded by
//! an atomic flag, so a process that never installs a sink pays one
//! relaxed load per call site and builds no strings.
//!
//! [`span`] returns a guard that, on drop, records the elapsed wall time
//! into a latency histogram of the global registry (`<scope>.<name>.us`)
//! and — when a sink is installed — emits a `TraceEvent` carrying the
//! duration. That gives every instrumented region both a cheap always-on
//! aggregate and an optional fine-grained timeline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::{Mutex, RwLock};

/// One trace record: a point event or a completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the Unix epoch at emission.
    pub ts_us: u64,
    /// Component that emitted the event (`"sched"`, `"wq"`, `"worker"`, ...).
    pub scope: &'static str,
    /// Event name within the scope (`"lease"`, `"publish"`, `"retry"`, ...).
    pub name: &'static str,
    /// Free-form detail (ids, counts); empty when the site has none.
    pub detail: String,
    /// Span duration in microseconds; `None` for point events.
    pub duration_us: Option<u64>,
}

/// Receiver of trace events. Implementations must be cheap and
/// non-blocking — sinks run inline on scheduler and queue hot paths.
pub trait TraceSink: Send + Sync {
    /// Delivers one event.
    fn event(&self, event: TraceEvent);
}

/// Sink that drops everything (the default).
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&self, _event: TraceEvent) {}
}

/// Bounded in-memory ring of recent events — the sink used by drivers and
/// tests to inspect what the fleet did.
#[derive(Debug)]
pub struct MemSink {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl MemSink {
    /// A ring that retains the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        MemSink {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the retained events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events.lock().drain(..).collect()
    }
}

impl TraceSink for MemSink {
    fn event(&self, event: TraceEvent) {
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }
}

struct SinkSlot {
    sink: RwLock<Arc<dyn TraceSink>>,
    active: AtomicBool,
}

fn slot() -> &'static SinkSlot {
    static SLOT: std::sync::OnceLock<SinkSlot> = std::sync::OnceLock::new();
    SLOT.get_or_init(|| SinkSlot {
        sink: RwLock::new(Arc::new(NullSink)),
        active: AtomicBool::new(false),
    })
}

/// Installs the process-wide trace sink. Passing a [`NullSink`] (or any
/// sink) replaces the previous one; events emitted concurrently may still
/// reach the old sink.
pub fn set_sink(sink: Arc<dyn TraceSink>) {
    let s = slot();
    *s.sink.write() = sink;
    s.active.store(true, Ordering::Release);
}

/// Restores the default null sink and re-arms the cheap disabled path.
pub fn clear_sink() {
    let s = slot();
    s.active.store(false, Ordering::Release);
    *s.sink.write() = Arc::new(NullSink);
}

/// True when a sink is installed — call sites use this to skip building
/// detail strings on the disabled path.
pub fn enabled() -> bool {
    slot().active.load(Ordering::Acquire)
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

fn deliver(scope: &'static str, name: &'static str, detail: String, duration_us: Option<u64>) {
    let sink = slot().sink.read().clone();
    sink.event(TraceEvent {
        ts_us: now_us(),
        scope,
        name,
        detail,
        duration_us,
    });
}

/// Emits a point event with no detail. One relaxed load when no sink is
/// installed.
pub fn emit(scope: &'static str, name: &'static str) {
    if enabled() {
        deliver(scope, name, String::new(), None);
    }
}

/// Emits a point event whose detail string is built lazily — the closure
/// runs only when a sink is installed.
pub fn emit_with<F: FnOnce() -> String>(scope: &'static str, name: &'static str, detail: F) {
    if enabled() {
        deliver(scope, name, detail(), None);
    }
}

/// A span guard: measures wall time from construction to drop, records it
/// into the global registry histogram `<scope>.<name>.us`, and emits a
/// span event when a sink is installed.
#[derive(Debug)]
pub struct Span {
    scope: &'static str,
    name: &'static str,
    start: Instant,
    detail: String,
}

impl Span {
    /// Attaches detail text shown on the span-close event.
    pub fn with_detail(mut self, detail: String) -> Span {
        self.detail = detail;
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        crate::global()
            .histogram(&format!("{}.{}.us", self.scope, self.name))
            .observe(elapsed);
        if enabled() {
            deliver(
                self.scope,
                self.name,
                std::mem::take(&mut self.detail),
                Some(elapsed.as_micros().min(u64::MAX as u128) as u64),
            );
        }
    }
}

/// Opens a span over the enclosing region; see [`Span`].
pub fn span(scope: &'static str, name: &'static str) -> Span {
    Span {
        scope,
        name,
        start: Instant::now(),
        detail: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink slot is process-global, so exercise every behaviour in a
    // single test to avoid cross-test interference under parallel runs.
    #[test]
    fn sink_lifecycle_events_and_spans() {
        assert!(!enabled());
        // Disabled path: closure must not run.
        emit_with("test", "skipped", || panic!("detail built while disabled"));

        let sink = Arc::new(MemSink::new(4));
        set_sink(sink.clone());
        assert!(enabled());

        emit("test", "point");
        emit_with("test", "detailed", || "seq=7".to_string());
        {
            let _span = span("test", "region").with_detail("campaign=3".into());
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "point");
        assert_eq!(events[0].duration_us, None);
        assert_eq!(events[1].detail, "seq=7");
        let closed = &events[2];
        assert_eq!((closed.scope, closed.name), ("test", "region"));
        assert_eq!(closed.detail, "campaign=3");
        assert!(closed.duration_us.is_some());
        // The span also landed in the global registry histogram.
        let snap = crate::global().snapshot();
        assert_eq!(snap.histograms["test.region.us"].count, 1);

        // Ring keeps only the most recent `capacity` events.
        for _ in 0..10 {
            emit("test", "flood");
        }
        assert_eq!(sink.len(), 4);
        assert!(sink.events().iter().all(|e| e.name == "flood"));
        assert_eq!(sink.drain().len(), 4);
        assert!(sink.is_empty());

        clear_sink();
        assert!(!enabled());
        emit("test", "after-clear");
        assert!(sink.is_empty(), "cleared sink receives nothing");
    }
}
