//! The process-wide metrics registry.
//!
//! A cheap process-wide registry of named **monotonic counters**,
//! **gauges** and **fixed-bucket latency histograms** that any component
//! may bump from any thread and snapshot at any instant. A
//! [`MetricsSnapshot`] is also the one format in which counters cross
//! processes: a fleet worker publishes its end-of-drain counters as an
//! encoded snapshot, and any process merges the published snapshots into
//! the fleet digest.
//!
//! Cost model: a handle ([`Counter`], [`Gauge`], [`Histogram`]) is an
//! `Arc` around atomics — one relaxed RMW per bump, no lock. The registry
//! map is only locked when a handle is first created (or a snapshot is
//! taken), so instrumented hot paths cache their handles.
//!
//! The wire codec is the store's one sealed frame
//! ([`sp_store::frame`]): magic `SPMS`, version, body, SHA-256 over all
//! of it — a snapshot read back from disk or a queue blob is dropped,
//! never trusted, on any mismatch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use sp_store::frame;
use sp_wire as wire;

/// Snapshot-file / blob magic for an encoded [`MetricsSnapshot`].
pub const METRICS_MAGIC: [u8; 4] = *b"SPMS";

/// Upper bounds (microseconds) of the fixed histogram buckets; the last
/// bucket is the overflow bucket (everything above the last bound). The
/// spacing is the usual 1-2-5 latency ladder from 10 µs to 5 s.
pub const BUCKET_BOUNDS_US: [u64; 16] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
    2_000_000, 5_000_000,
];

/// Buckets per histogram: one per bound plus the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A monotonic counter handle. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that goes up and down (queue depths, cache
/// sizes, hit counters mirrored from another subsystem).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram handle.
#[derive(Debug)]
pub struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// A shared fixed-bucket latency histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one observation from a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Snapshot of this histogram alone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum_us: self.0.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

/// The registry: named counters, gauges and histograms with process-wide
/// sharing. Instrumented components obtain their handles once and bump
/// atomics thereafter.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry (tests and scoped consumers; production
    /// instrumentation goes through [`crate::global`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Freezes every metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen, mergeable, wire-codable view of a registry — the shape one
/// process publishes and another merges into a fleet-wide digest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges another snapshot: counters and histograms add, gauges take
    /// the other side's value when present (last writer wins).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// The value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialises the snapshot in the `SPMS` sealed frame.
    pub fn encode(&self) -> Vec<u8> {
        frame::seal(&METRICS_MAGIC, |out| {
            wire::put_u32(out, self.counters.len() as u32);
            for (name, value) in &self.counters {
                wire::put_str(out, name);
                wire::put_u64(out, *value);
            }
            wire::put_u32(out, self.gauges.len() as u32);
            for (name, value) in &self.gauges {
                wire::put_str(out, name);
                wire::put_u64(out, *value as u64);
            }
            wire::put_u32(out, self.histograms.len() as u32);
            for (name, hist) in &self.histograms {
                wire::put_str(out, name);
                wire::put_u64(out, hist.count);
                wire::put_u64(out, hist.sum_us);
                wire::put_u32(out, hist.buckets.len() as u32);
                for bucket in &hist.buckets {
                    wire::put_u64(out, *bucket);
                }
            }
        })
    }

    /// Parses an encoded snapshot. `None` on any structural or frame
    /// mismatch — dropped, never trusted.
    pub fn decode(bytes: &[u8]) -> Option<MetricsSnapshot> {
        let mut cursor = wire::Cursor::new(frame::unseal(&METRICS_MAGIC, bytes)?);
        // Each map is written in name order; any other order is rejected
        // so that a decoded snapshot re-encodes to its input bytes. An
        // entry is at least a length-prefixed name and one u64.
        let mut snapshot = MetricsSnapshot::default();
        for _ in 0..cursor.take_count(4 + 8)? {
            let name = take_next_name(&mut cursor, &snapshot.counters)?;
            let value = cursor.take_u64()?;
            snapshot.counters.insert(name, value);
        }
        for _ in 0..cursor.take_count(4 + 8)? {
            let name = take_next_name(&mut cursor, &snapshot.gauges)?;
            let value = cursor.take_u64()? as i64;
            snapshot.gauges.insert(name, value);
        }
        for _ in 0..cursor.take_count(4 + 8 + 8 + 4)? {
            let name = take_next_name(&mut cursor, &snapshot.histograms)?;
            let count = cursor.take_u64()?;
            let sum_us = cursor.take_u64()?;
            let buckets = (0..cursor.take_count(8)?)
                .map(|_| cursor.take_u64())
                .collect::<Option<Vec<u64>>>()?;
            snapshot.histograms.insert(
                name,
                HistogramSnapshot {
                    buckets,
                    count,
                    sum_us,
                },
            );
        }
        cursor.finished().then_some(snapshot)
    }

    /// Renders the snapshot as sorted `name value` lines — the dump format
    /// the chaos drivers print after a scenario.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} mean_us={:.1}\n",
                hist.count,
                hist.mean_us()
            ));
        }
        out
    }
}

/// Takes a name that must sort after every name already in `map`.
fn take_next_name<V>(cursor: &mut wire::Cursor<'_>, map: &BTreeMap<String, V>) -> Option<String> {
    let name = cursor.take_str()?;
    map.last_key_value()
        .is_none_or(|(last, _)| *last < name)
        .then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_and_snapshot() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("sp.test.counter");
        c.incr();
        c.add(4);
        // A second lookup shares the same atomic.
        registry.counter("sp.test.counter").incr();
        registry.gauge("sp.test.gauge").set(-3);
        let h = registry.histogram("sp.test.us");
        h.observe_us(5);
        h.observe_us(150);
        h.observe(Duration::from_secs(60)); // overflow bucket

        let snap = registry.snapshot();
        assert_eq!(snap.counter("sp.test.counter"), 6);
        assert_eq!(snap.gauges["sp.test.gauge"], -3);
        let hist = &snap.histograms["sp.test.us"];
        assert_eq!(hist.count, 3);
        assert_eq!(hist.buckets[0], 1, "5 µs lands in the first bucket");
        assert_eq!(hist.buckets[BUCKETS - 1], 1, "60 s overflows");
        assert_eq!(snap.counter("sp.absent"), 0);
    }

    #[test]
    fn snapshots_merge_like_worker_stats() {
        let a = MetricsRegistry::new();
        a.counter("shared").add(2);
        a.counter("only_a").add(1);
        a.histogram("lat").observe_us(10);
        let b = MetricsRegistry::new();
        b.counter("shared").add(3);
        b.gauge("depth").set(7);
        b.histogram("lat").observe_us(600_000);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("shared"), 5);
        assert_eq!(merged.counter("only_a"), 1);
        assert_eq!(merged.gauges["depth"], 7);
        let hist = &merged.histograms["lat"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum_us, 600_010);
    }

    #[test]
    fn wire_round_trip_and_tamper_rejection() {
        let registry = MetricsRegistry::new();
        registry.counter("a.b").add(42);
        registry.gauge("g").set(-9);
        registry.histogram("h.us").observe_us(123);
        let snap = registry.snapshot();
        let bytes = snap.encode();
        assert_eq!(MetricsSnapshot::decode(&bytes), Some(snap.clone()));

        // Truncation and bit flips are dropped, never trusted.
        assert_eq!(MetricsSnapshot::decode(&bytes[..bytes.len() - 1]), None);
        assert_eq!(MetricsSnapshot::decode(b""), None);
        for i in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_eq!(MetricsSnapshot::decode(&flipped), None, "flip at {i}");
        }
        assert!(snap.render_text().contains("counter a.b 42"));
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let registry = std::sync::Arc::clone(&registry);
            handles.push(std::thread::spawn(move || {
                let c = registry.counter("hot");
                let h = registry.histogram("hot.us");
                for i in 0..1_000 {
                    c.incr();
                    h.observe_us(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hot"), 4_000);
        assert_eq!(snap.histograms["hot.us"].count, 4_000);
    }
}
