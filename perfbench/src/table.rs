//! The per-layer table a traced run prints: count, total, p50/p99 and share
//! of wall for each layer, an explicit unattributed row, and the tracing
//! overhead.

use crate::util::{quantile, sorted};

struct Row {
    name: String,
    count: u64,
    total_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Part of the partition of wall time (summed into "attributed").
    partition: bool,
    /// Derived from a probe rather than measured around the call.
    estimate: bool,
}

pub struct LayerTable {
    title: String,
    wall_ms: f64,
    /// What "% of wall" divides by when rows run on several threads.
    capacity_ms: f64,
    rows: Vec<Row>,
}

impl LayerTable {
    /// `wall_ms` is the traced wall time; `threads` how many threads the
    /// partition rows may run on at once (their shares divide by
    /// `wall × threads`).
    pub fn new(title: &str, wall_ms: f64, threads: usize) -> Self {
        LayerTable {
            title: title.to_string(),
            wall_ms,
            capacity_ms: wall_ms * threads.max(1) as f64,
            rows: Vec::new(),
        }
    }

    /// A measured row from its samples (ms); `partition` rows must tile
    /// the wall time without overlap.
    pub fn samples(&mut self, name: &str, samples: &[f64], partition: bool) {
        let s = sorted(samples);
        self.rows.push(Row {
            name: name.to_string(),
            count: s.len() as u64,
            total_ms: s.iter().sum(),
            p50_ms: quantile(&s, 0.5),
            p99_ms: quantile(&s, 0.99),
            partition,
            estimate: false,
        });
    }

    /// A row known only by its count and total (no per-call samples; its
    /// percentiles print as `-`).
    pub fn total(&mut self, name: &str, count: u64, total_ms: f64, partition: bool) {
        self.rows.push(Row {
            name: name.to_string(),
            count,
            total_ms,
            p50_ms: f64::NAN,
            p99_ms: f64::NAN,
            partition,
            estimate: false,
        });
    }

    /// A probe-derived estimate: per-call cost × the count the run
    /// performed. Never part of the partition.
    pub fn estimate(&mut self, name: &str, count: u64, per_call_ms: f64) {
        self.rows.push(Row {
            name: name.to_string(),
            count,
            total_ms: per_call_ms * count as f64,
            p50_ms: per_call_ms,
            p99_ms: per_call_ms,
            partition: false,
            estimate: true,
        });
    }

    pub fn unattributed_ms(&self) -> f64 {
        let attributed: f64 = self
            .rows
            .iter()
            .filter(|r| r.partition)
            .map(|r| r.total_ms)
            .sum();
        self.capacity_ms - attributed
    }

    /// Renders the table, with the overhead line comparing the traced wall
    /// time against an untraced run of the same work.
    pub fn render(&self, untraced_wall_ms: f64) -> String {
        let mut out = format!(
            "== per-layer: {} (traced wall {:.1} ms) ==\n{:<40} {:>9} {:>12} {:>10} {:>10} {:>8}\n",
            self.title, self.wall_ms, "layer", "count", "total ms", "p50 ms", "p99 ms", "% wall"
        );
        let ms = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.4}")
            }
        };
        let line = |name: &str, count: String, total: f64, p50: String, p99: String| {
            format!(
                "{:<40} {:>9} {:>12.2} {:>10} {:>10} {:>7.1}%\n",
                name,
                count,
                total,
                p50,
                p99,
                100.0 * total / self.capacity_ms.max(1e-9)
            )
        };
        for row in self.rows.iter().filter(|r| r.partition) {
            out += &line(
                &row.name,
                row.count.to_string(),
                row.total_ms,
                ms(row.p50_ms),
                ms(row.p99_ms),
            );
        }
        out += &line(
            "(unattributed)",
            "-".into(),
            self.unattributed_ms(),
            "-".into(),
            "-".into(),
        );
        let details: Vec<&Row> = self.rows.iter().filter(|r| !r.partition).collect();
        if !details.is_empty() {
            out += "  -- inside the rows above (not summed) --\n";
            for row in details {
                let name = if row.estimate {
                    format!("{} (est.)", row.name)
                } else {
                    row.name.clone()
                };
                out += &line(
                    &name,
                    row.count.to_string(),
                    row.total_ms,
                    ms(row.p50_ms),
                    ms(row.p99_ms),
                );
            }
        }
        let overhead = self.wall_ms - untraced_wall_ms;
        out += &format!(
            "tracing overhead: traced {:.1} ms - untraced {:.1} ms = {:+.1} ms ({:+.2}%)\n",
            self.wall_ms,
            untraced_wall_ms,
            overhead,
            100.0 * overhead / untraced_wall_ms.max(1e-9)
        );
        out
    }
}
