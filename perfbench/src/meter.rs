//! The metered filesystem: a `StoreFs` decorator over `OsFs` that counts
//! every operation, its bytes and its latency, per operation kind and per
//! queue subdirectory. It changes nothing about what reaches the disk —
//! every `sync_file`/`sync_dir` is a real fsync — so a metered run pays
//! exactly the durability cost an unmetered one does.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sp_store::{OsFs, StoreFs};

/// Operation kinds, in report order.
pub const OPS: [&str; 9] = [
    "read",
    "write",
    "sync_file",
    "sync_dir",
    "rename",
    "hard_link",
    "remove_file",
    "create_dir_all",
    "read_dir",
];

/// Queue subdirectories the breakdown names (anything else is `other`).
pub const SUBDIRS: [&str; 6] = [
    "submissions",
    "leases",
    "reports",
    "workers",
    "tmp",
    "runlog",
];

#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    pub count: u64,
    pub bytes: u64,
    pub ns: u64,
}

#[derive(Debug, Default)]
struct State {
    /// (op, subdir) → totals.
    ops: BTreeMap<(&'static str, &'static str), OpStats>,
    /// Every fsync (file or directory), in nanoseconds.
    fsync_ns: Vec<u64>,
    /// Lease claims and report publishes: (submission seq, when).
    claims: Vec<(u64, Instant)>,
    reports: Vec<(u64, Instant)>,
}

pub struct MeteredFs {
    root: PathBuf,
    /// Count every operation (traced runs); otherwise only lease claims and
    /// report publishes are noted, for the per-campaign latency.
    detailed: AtomicBool,
    state: Mutex<State>,
}

/// A copy of the counters at one moment.
#[derive(Debug, Default, Clone)]
pub struct MeterSnapshot {
    pub ops: BTreeMap<(&'static str, &'static str), OpStats>,
    pub fsync_ns: Vec<u64>,
    pub claims: Vec<(u64, Instant)>,
    pub reports: Vec<(u64, Instant)>,
}

impl MeterSnapshot {
    /// Totals of one op kind (all subdirectories).
    pub fn op(&self, op: &str) -> OpStats {
        self.ops
            .iter()
            .filter(|((o, _), _)| *o == op)
            .fold(OpStats::default(), |acc, (_, s)| add(acc, *s))
    }

    /// Totals of one op kind within one subdirectory.
    pub fn op_in(&self, op: &str, subdir: &str) -> OpStats {
        self.ops
            .get(&(op_name(op), subdir_name(subdir)))
            .copied()
            .unwrap_or_default()
    }

    pub fn fsyncs(&self) -> u64 {
        self.op("sync_file").count + self.op("sync_dir").count
    }

    /// Lease-claim → report-publish latency of every campaign whose claim
    /// and report were both seen, in milliseconds.
    pub fn claim_to_report_ms(&self) -> Vec<f64> {
        let claimed: BTreeMap<u64, Instant> = self.claims.iter().copied().collect();
        self.reports
            .iter()
            .filter_map(|(seq, at)| {
                claimed
                    .get(seq)
                    .map(|from| at.duration_since(*from).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

fn add(a: OpStats, b: OpStats) -> OpStats {
    OpStats {
        count: a.count + b.count,
        bytes: a.bytes + b.bytes,
        ns: a.ns + b.ns,
    }
}

fn op_name(op: &str) -> &'static str {
    OPS.iter().find(|o| **o == op).copied().unwrap_or("other")
}

fn subdir_name(sub: &str) -> &'static str {
    SUBDIRS
        .iter()
        .find(|s| **s == sub)
        .copied()
        .unwrap_or("other")
}

/// `sub-<seq>.…` → seq.
fn submission_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("sub-")?;
    rest[..rest.find('.')?].parse().ok()
}

impl MeteredFs {
    /// Meters operations under `root` (the queue directory); subdirectory
    /// attribution is relative to it.
    pub fn new(root: &Path, detailed: bool) -> Self {
        MeteredFs {
            root: root.to_path_buf(),
            detailed: AtomicBool::new(detailed),
            state: Mutex::new(State::default()),
        }
    }

    pub fn set_detailed(&self, detailed: bool) {
        self.detailed.store(detailed, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> MeterSnapshot {
        let state = self
            .state
            .lock()
            .expect("meter lock poisoned by a panicking fs op");
        MeterSnapshot {
            ops: state.ops.clone(),
            fsync_ns: state.fsync_ns.clone(),
            claims: state.claims.clone(),
            reports: state.reports.clone(),
        }
    }

    fn subdir(&self, path: &Path) -> &'static str {
        path.strip_prefix(&self.root)
            .ok()
            .and_then(|rel| rel.components().next())
            .and_then(|c| c.as_os_str().to_str())
            .map_or("other", subdir_name)
    }

    fn record(&self, op: &'static str, path: &Path, bytes: u64, start: Instant) {
        if !self.detailed.load(Ordering::Relaxed) {
            return;
        }
        let ns = start.elapsed().as_nanos() as u64;
        let sub = self.subdir(path);
        let mut state = self
            .state
            .lock()
            .expect("meter lock poisoned by a panicking fs op");
        let entry = state.ops.entry((op, sub)).or_default();
        entry.count += 1;
        entry.bytes += bytes;
        entry.ns += ns;
        if op == "sync_file" || op == "sync_dir" {
            state.fsync_ns.push(ns);
        }
    }

    /// Notes lease claims (a link into `leases/`) and report publishes (a
    /// rename into `reports/`) for the per-campaign latency.
    fn note_event(&self, target: &Path, sub: &str) {
        let Some(seq) = target
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(submission_seq)
        else {
            return;
        };
        let now = Instant::now();
        let mut state = self
            .state
            .lock()
            .expect("meter lock poisoned by a panicking fs op");
        match sub {
            "leases" => state.claims.push((seq, now)),
            "reports" => state.reports.push((seq, now)),
            _ => {}
        }
    }
}

impl StoreFs for MeteredFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let result = OsFs.read(path);
        let bytes = result.as_ref().map_or(0, |b| b.len() as u64);
        self.record("read", path, bytes, start);
        result
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.write(path, bytes);
        self.record("write", path, bytes.len() as u64, start);
        result
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.sync_file(path);
        self.record("sync_file", path, 0, start);
        result
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.rename(from, to);
        self.record("rename", to, 0, start);
        if result.is_ok() && self.subdir(to) == "reports" {
            self.note_event(to, "reports");
        }
        result
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.hard_link(src, dst);
        self.record("hard_link", dst, 0, start);
        if result.is_ok() && self.subdir(dst) == "leases" {
            self.note_event(dst, "leases");
        }
        result
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.remove_file(path);
        self.record("remove_file", path, 0, start);
        result
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.create_dir_all(path);
        self.record("create_dir_all", path, 0, start);
        result
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsFs.sync_dir(dir);
        self.record("sync_dir", dir, 0, start);
        result
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let start = Instant::now();
        let result = OsFs.read_dir_names(dir);
        self.record("read_dir", dir, 0, start);
        result
    }

    fn exists(&self, path: &Path) -> bool {
        OsFs.exists(path)
    }
}

impl MeterSnapshot {
    /// Adds another interval's counters to this one.
    pub fn merge(&mut self, other: &MeterSnapshot) {
        for (key, stats) in &other.ops {
            let entry = self.ops.entry(*key).or_default();
            *entry = add(*entry, *stats);
        }
        self.fsync_ns.extend_from_slice(&other.fsync_ns);
        self.claims.extend_from_slice(&other.claims);
        self.reports.extend_from_slice(&other.reports);
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        let mut ops = self.ops.clone();
        for (key, before) in &earlier.ops {
            if let Some(now) = ops.get_mut(key) {
                now.count -= before.count;
                now.bytes -= before.bytes;
                now.ns -= before.ns;
            }
        }
        MeterSnapshot {
            ops,
            fsync_ns: self.fsync_ns[earlier.fsync_ns.len()..].to_vec(),
            claims: self.claims[earlier.claims.len()..].to_vec(),
            reports: self.reports[earlier.reports.len()..].to_vec(),
        }
    }
}
