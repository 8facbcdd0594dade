//! The recording `ProgressHook`: per-thread Dispatch, Task and Barrier
//! timestamps, kept in memory while the campaign runs and analysed (and
//! written out) when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sp_exec::{ProgressHook, ProgressPoint};

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub thread: u32,
    pub point: ProgressPoint,
    pub at: Instant,
}

pub struct RecordingHook {
    ticks: Mutex<Vec<Tick>>,
}

impl RecordingHook {
    pub fn new() -> Self {
        RecordingHook {
            ticks: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn ticks(&self) -> Vec<Tick> {
        self.ticks.lock().expect("hook lock poisoned").clone()
    }
}

impl ProgressHook for RecordingHook {
    fn tick(&self, point: ProgressPoint) {
        let tick = Tick {
            thread: THREAD_INDEX.with(|i| *i),
            point,
            at: Instant::now(),
        };
        self.ticks.lock().expect("hook lock poisoned").push(tick);
    }
}

/// One timed pass (a `CampaignScheduler::execute` call) as seen from the
/// driving thread: when it started and ended.
#[derive(Debug, Clone, Copy)]
pub struct PassWindow {
    pub start: Instant,
    pub end: Instant,
}

/// What the ticks say about a sequence of passes.
#[derive(Debug, Default)]
pub struct PassAnalysis {
    /// Execute start → first Dispatch (plan hand-off, pool spin-up).
    pub dispatch_ms: Vec<f64>,
    /// First Dispatch → last Task: lanes executing.
    pub run_phase_ms: Vec<f64>,
    /// Last Task → Barrier: serial ledger commit and reference promotion.
    pub barrier_ms: Vec<f64>,
    /// Barrier → execute returns: report collection.
    pub collect_ms: Vec<f64>,
    /// Per-run time: consecutive ticks on one thread ending in a Task.
    pub run_ms: Vec<f64>,
    /// Sum of per-thread busy time (Dispatch → Task chains), ms.
    pub busy_ms: f64,
    /// Sum of pass wall time, ms.
    pub wall_ms: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Splits `ticks` into the given pass windows and measures each phase.
pub fn analyse(ticks: &[Tick], passes: &[PassWindow]) -> PassAnalysis {
    let mut out = PassAnalysis::default();
    for pass in passes {
        let inside: Vec<&Tick> = ticks
            .iter()
            .filter(|t| t.at >= pass.start && t.at <= pass.end)
            .collect();
        out.wall_ms += ms(pass.start, pass.end);
        let first_dispatch = inside
            .iter()
            .filter(|t| t.point == ProgressPoint::Dispatch)
            .map(|t| t.at)
            .min();
        let last_task = inside
            .iter()
            .filter(|t| t.point == ProgressPoint::Task)
            .map(|t| t.at)
            .max();
        let barrier = inside
            .iter()
            .filter(|t| t.point == ProgressPoint::Barrier)
            .map(|t| t.at)
            .max();
        if let (Some(d), Some(t), Some(b)) = (first_dispatch, last_task, barrier) {
            out.dispatch_ms.push(ms(pass.start, d));
            out.run_phase_ms.push(ms(d, t));
            out.barrier_ms.push(ms(t, b));
            out.collect_ms.push(ms(b, pass.end));
        }
        // Per-thread chains: a lane starts at Dispatch and each Task closes
        // one run; the next run on that thread starts where the last ended.
        let mut last_on_thread: std::collections::BTreeMap<u32, Instant> = Default::default();
        for tick in &inside {
            match tick.point {
                ProgressPoint::Dispatch => {
                    last_on_thread.insert(tick.thread, tick.at);
                }
                ProgressPoint::Task => {
                    if let Some(from) = last_on_thread.insert(tick.thread, tick.at) {
                        let run = ms(from, tick.at);
                        out.run_ms.push(run);
                        out.busy_ms += run;
                    }
                }
                ProgressPoint::Barrier => {}
            }
        }
    }
    out
}

/// Writes the raw ticks (thread, point, µs since the first tick) as TSV.
pub fn write_ticks(path: &Path, ticks: &[Tick]) -> std::io::Result<()> {
    let Some(origin) = ticks.iter().map(|t| t.at).min() else {
        return Ok(());
    };
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tpoint\tus")?;
    for tick in ticks {
        writeln!(
            out,
            "{}\t{:?}\t{:.1}",
            tick.thread,
            tick.point,
            tick.at.saturating_duration_since(origin).as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}
