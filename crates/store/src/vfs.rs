//! Injectable filesystem under every durable path.
//!
//! The paper's preservation posture assumes storage is imperfect over
//! decades; this module makes imperfect storage *testable*. [`StoreFs`]
//! abstracts the handful of primitives the durable paths use (whole-file
//! read/write, fsync of files and directories, rename, link-if-absent,
//! remove, listing), [`OsFs`] is the production passthrough, and
//! [`FaultFs`] is a deterministic adversary layered over any inner fs:
//!
//! - **Transient faults** (EINTR/EAGAIN-class) injected at a seeded rate,
//!   so retry policies can be exercised end-to-end;
//! - **Hard faults** (`EIO`, `ENOSPC`) forced at targeted operations, with
//!   *torn* partial writes left behind (a failed write is not a no-op);
//! - **Enumerated crash points**: every fs operation has an index, and the
//!   fault layer can "lose power" at any one of them. After the crash,
//!   [`FaultFs::apply_crash`] replays the storage-stack semantics the
//!   fsync discipline is designed around — data written but never
//!   `fsync`ed may be torn back to an arbitrary prefix, and metadata
//!   operations (create/rename/link/remove) whose parent directory was
//!   never synced may or may not have reached the journal.
//!
//! The adversary is deliberately pessimal where it matters: a rename whose
//! source data was never synced *persists the rename and tears the
//! target* (the classic "zero-length committed file" failure), and is also
//! recorded as a discipline [violation](FaultFs::violations). Correctly
//! disciplined code (stage → `sync_file` → rename → `sync_dir`) never
//! trips it.
//!
//! On top sits [`crash_point_sweep`]: run a workload once over a clean
//! `FaultFs` to enumerate its operations and record every committed state,
//! then replay it once per crash point and verify that recovery observes
//! only bytes that were committed before the crash — or nothing at all.
//! [`standard_crash_sweep`] packages the workload both the test suite and
//! the `repro-fleet` chaos binary gate on: the path workers run — the work
//! queue's batched claim, the run-log append of the claimed cells and the
//! batched publish — plus a warm-state snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::retention::TimeSource;
use crate::run_log::{CellRecord, RunLog, RUN_LOG_DIR};

/// The filesystem primitives every durable path runs on. Implementations
/// must be safe to share across the threads of an in-process fleet.
pub trait StoreFs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes (creating or truncating) a whole file. The bytes are **not**
    /// durable until [`sync_file`](Self::sync_file) returns.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes a file's data to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to` (atomic replacement on POSIX). The *entry*
    /// is not durable until the parent directory is synced.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Links `src` as `dst`, failing with `AlreadyExists` if `dst` exists
    /// (the queue's single-winner claim primitive).
    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory's entries to stable storage — the step that
    /// makes a preceding create/rename/link/remove crash-durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) under `dir`, **sorted** — sorted so the
    /// operation sequence of a directory walk is deterministic, which the
    /// crash-point enumeration depends on.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Whether a path exists (no fault accounting; bookkeeping helper).
    fn exists(&self, path: &Path) -> bool;
}

/// The production filesystem: `std::fs` plus real fsync discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

impl StoreFs for OsFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        std::fs::hard_link(src, dst)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On unix a directory opens like a read-only file and `fsync` on
        // it flushes the entry metadata — the missing half of "rename is
        // committed".
        std::fs::File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        // No portable directory fsync; rely on the file-level sync.
        Ok(())
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort_unstable();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Writes `(stage, target, bytes)` records durably and atomically: every
/// record's bytes are staged and `fsync`ed **individually** (data
/// durability is never batched), all stages are renamed into place in
/// order, and then each distinct parent directory is synced **once** —
/// amortising the directory-entry fsync, the dominant cost of small-record
/// publish storms, across the whole slice. One record is write, fsync,
/// rename, directory sync.
///
/// Atomicity stays per record: because no rename happens before its bytes
/// are synced, a crash mid-slice tears it only at record granularity —
/// some records committed whole, the rest never happened, no third
/// outcome (the crash-point sweep replays power loss at every operation of
/// this sequence to prove it). Records renamed before a later failure are
/// not durable until their parent sync lands; callers treat any `Err` as
/// "nothing here is acknowledged". On failure the stages not yet renamed
/// are removed, best effort.
pub fn write_durable_atomic<B: AsRef<[u8]>>(
    fs: &dyn StoreFs,
    records: &[(PathBuf, PathBuf, B)],
) -> io::Result<()> {
    let mut renamed = 0;
    let published = (|| -> io::Result<()> {
        for (stage, _, bytes) in records {
            fs.write(stage, bytes.as_ref())?;
            fs.sync_file(stage)?;
        }
        for (stage, target, _) in records {
            fs.rename(stage, target)?;
            renamed += 1;
        }
        let mut synced: Vec<&Path> = Vec::new();
        for parent in records.iter().filter_map(|(_, target, _)| target.parent()) {
            if !synced.contains(&parent) {
                fs.sync_dir(parent)?;
                synced.push(parent);
            }
        }
        Ok(())
    })();
    if published.is_err() {
        for (stage, _, _) in &records[renamed..] {
            let _ = fs.remove_file(stage);
        }
    }
    published
}

/// Creates a **complete** record exclusively under the first free name
/// among `candidates`, returning that name's index: stage the bytes and
/// `fsync` the stage once, hard-link it to each candidate in turn until a
/// link succeeds, then remove the stage. A concurrent reader can never
/// observe a half-written record under a candidate name, and each link
/// either commits the whole record or fails with `AlreadyExists` — another
/// writer holds that name. When every candidate is taken the result is
/// that `AlreadyExists`. The parent directory is **not** synced: the
/// caller syncs it once (per record or per batch) before acting on the
/// entry.
pub fn create_durable_exclusive(
    fs: &dyn StoreFs,
    stage: &Path,
    bytes: &[u8],
    candidates: impl IntoIterator<Item = PathBuf>,
) -> io::Result<usize> {
    fs.write(stage, bytes)?;
    fs.sync_file(stage)?;
    let linked = candidates
        .into_iter()
        .enumerate()
        .find_map(|(index, target)| match fs.hard_link(stage, &target) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => None,
            linked => Some(linked.map(|()| index)),
        })
        .unwrap_or_else(|| Err(io::ErrorKind::AlreadyExists.into()));
    fs.remove_file(stage).ok();
    linked
}

/// One store's staging directory for the stage-then-rename/link writes.
/// Staging names are `<pid>-<counter>`, so a crashed or faulted writer's
/// leftovers can be told apart from a live sibling's in-flight stage.
#[derive(Debug, Clone)]
pub(crate) struct StagingDir {
    dir: PathBuf,
}

impl StagingDir {
    /// Creates `dir` if needed and sweeps the staging files of dead
    /// writers from it.
    pub(crate) fn open(fs: &dyn StoreFs, dir: PathBuf) -> io::Result<StagingDir> {
        fs.create_dir_all(&dir)?;
        let staging = StagingDir { dir };
        staging.sweep(fs);
        Ok(staging)
    }

    /// A fresh staging path. The counter is process-global, not per
    /// handle: in-process fleets open several handles onto one directory,
    /// and per-handle counters would collide on the same staging name and
    /// corrupt each other's half-staged records.
    pub(crate) fn next(&self) -> PathBuf {
        static STAGED: AtomicU64 = AtomicU64::new(0);
        self.dir.join(format!(
            "{}-{}",
            std::process::id(),
            STAGED.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Removes staging files whose writing process is dead. A file whose
    /// pid is still alive may be a sibling's in-flight stage and is left
    /// alone; everything else — dead pids, unparseable names — is a leak
    /// (e.g. ENOSPC mid-stage). Best-effort: failures are ignored.
    fn sweep(&self, fs: &dyn StoreFs) {
        for name in fs.read_dir_names(&self.dir).unwrap_or_default() {
            let writer_alive = name
                .split('-')
                .next()
                .and_then(|pid| pid.parse::<u32>().ok())
                .is_some_and(pid_alive);
            if !writer_alive {
                let _ = fs.remove_file(&self.dir.join(&name));
            }
        }
    }
}

/// Whether a process with this pid is currently alive. Uses `/proc` where
/// it exists; without a liveness oracle every staging file is presumed
/// live (leaking a file beats deleting a sibling's in-flight stage).
fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).is_dir()
    } else {
        true
    }
}

/// A hard fault [`FaultFs`] can be told to inject at a targeted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedFault {
    /// EINTR-class: retryable by policy.
    Transient,
    /// `ENOSPC` — disk full, surfaced to the caller.
    Enospc,
    /// `EIO` — media error, surfaced to the caller.
    Eio,
}

impl ForcedFault {
    fn to_error(self) -> io::Error {
        match self {
            ForcedFault::Transient => io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient fault (EINTR-class)",
            ),
            // Raw errno values: `ErrorKind` names for these are not stable
            // across toolchains, the errno mapping is.
            ForcedFault::Enospc => io::Error::from_raw_os_error(28),
            ForcedFault::Eio => io::Error::from_raw_os_error(5),
        }
    }
}

/// Deterministic fault plan for one [`FaultFs`] instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Seed for every random decision (fault draws, torn-write offsets,
    /// crash-persistence coins). Two instances with equal seeds and equal
    /// operation sequences behave identically.
    pub seed: u64,
    /// Probability per operation of an injected transient fault.
    pub io_fault_rate: f64,
    /// Operation index at which the process "loses power": that operation
    /// and every later one fail, and [`FaultFs::apply_crash`] then settles
    /// what survived.
    pub crash_at: Option<u64>,
}

/// One not-yet-directory-synced metadata operation, in the order applied.
#[derive(Debug, Clone)]
enum MetaOp {
    Created {
        path: PathBuf,
    },
    Renamed {
        from: PathBuf,
        to: PathBuf,
        old_target: Option<Vec<u8>>,
        source_unsynced: bool,
    },
    Linked {
        path: PathBuf,
        source_unsynced: bool,
    },
    Removed {
        path: PathBuf,
        bytes: Vec<u8>,
    },
}

#[derive(Default)]
struct FaultState {
    ops: u64,
    rng: u64,
    crashed: bool,
    crash_applied: bool,
    /// Files whose latest data was never `sync_file`d.
    unsynced: BTreeSet<PathBuf>,
    /// Metadata ops not yet covered by a `sync_dir` of their parent,
    /// in global order (dir kept alongside for the sync to clear them).
    pending: Vec<(PathBuf, MetaOp)>,
    /// Every byte-state a path held at a commit point (sync/rename/link).
    history: BTreeMap<PathBuf, Vec<Vec<u8>>>,
    /// fsync-discipline violations observed (rename/link of unsynced data).
    violations: Vec<String>,
    /// A hard fault armed for the next write operation.
    fail_next_write: Option<ForcedFault>,
    /// A hard fault armed for a later read or listing: (the only path
    /// whose reads count, `None` for every read; counted reads still to
    /// pass before it; fault).
    fail_read: Option<(Option<PathBuf>, u64, ForcedFault)>,
}

enum Gate {
    Proceed,
    /// Failure at this very operation: side effects (torn prefix) allowed.
    Fault(io::Error),
    /// The process is already dead: no side effects at all.
    Dead(io::Error),
}

/// A deterministic fault-injecting overlay on another [`StoreFs`].
///
/// Every operation is numbered; faults, torn-write lengths and
/// crash-survival coins are all drawn from one seeded xorshift stream, so
/// a given `(seed, crash_at, workload)` triple replays byte-identically.
pub struct FaultFs {
    inner: Arc<dyn StoreFs>,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// Wraps `inner` under the given fault plan.
    pub fn new(inner: Arc<dyn StoreFs>, config: FaultConfig) -> Self {
        FaultFs {
            inner,
            config,
            state: Mutex::new(FaultState {
                rng: mix_seed(config.seed),
                ..FaultState::default()
            }),
        }
    }

    /// Convenience: faults over the real filesystem.
    pub fn over_os(config: FaultConfig) -> Self {
        Self::new(Arc::new(OsFs), config)
    }

    /// Arms a hard fault for the next *write* operation (reads pass).
    pub fn fail_next_write(&self, fault: ForcedFault) {
        self.state.lock().fail_next_write = Some(fault);
    }

    /// Arms a hard fault for the `nth` read operation from now (1 is the
    /// next), file reads and directory listings alike; writes pass.
    pub fn fail_nth_read(&self, nth: u64, fault: ForcedFault) {
        self.state.lock().fail_read = Some((None, nth.saturating_sub(1), fault));
    }

    /// Arms a hard fault for the `nth` read of `path` from now (1 is the
    /// next read of it): a file read or, for a directory, a listing.
    /// Reads of other paths and every write pass and do not count, so
    /// armed just before an operation, the fault lands on that
    /// operation's read of `path` however often earlier steps read it.
    pub fn fail_nth_read_of(&self, path: &Path, nth: u64, fault: ForcedFault) {
        self.state.lock().fail_read = Some((Some(path.into()), nth.saturating_sub(1), fault));
    }

    /// Operations performed so far — after a clean reference pass, the
    /// number of crash points a sweep must enumerate.
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether the configured crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// fsync-discipline violations observed so far. Empty for correctly
    /// disciplined callers; a rename or link whose source data was never
    /// synced is recorded here (and punished by [`apply_crash`](Self::apply_crash)).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// Every committed byte-state recorded per path (at sync/rename/link
    /// points), for sweep verification.
    pub fn committed_history(&self) -> CommittedHistory {
        CommittedHistory {
            states: self.state.lock().history.clone(),
        }
    }

    fn rand(state: &mut FaultState) -> u64 {
        // xorshift64* — the same generator the exec backoff jitter uses.
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn crash_error() -> io::Error {
        io::Error::other("injected crash: process lost power at this operation")
    }

    /// Numbers the next operation and decides whether it fails.
    /// `read_of` is the path a read or listing reads; `None` is a write.
    fn gate(&self, state: &mut FaultState, read_of: Option<&Path>) -> Gate {
        if state.crashed {
            return Gate::Dead(Self::crash_error());
        }
        let op = state.ops;
        state.ops += 1;
        if self.config.crash_at == Some(op) {
            state.crashed = true;
            return Gate::Fault(Self::crash_error());
        }
        if read_of.is_none() {
            if let Some(fault) = state.fail_next_write.take() {
                return Gate::Fault(fault.to_error());
            }
        } else if let Some((path, pass, fault)) = &mut state.fail_read {
            if path.is_none() || path.as_deref() == read_of {
                if *pass == 0 {
                    let fault = *fault;
                    state.fail_read = None;
                    return Gate::Fault(fault.to_error());
                }
                *pass -= 1;
            }
        }
        if self.config.io_fault_rate > 0.0 {
            let draw = Self::rand(state) as f64 / u64::MAX as f64;
            if draw < self.config.io_fault_rate {
                return Gate::Fault(ForcedFault::Transient.to_error());
            }
        }
        Gate::Proceed
    }

    /// Truncates `path` on the inner fs to a seeded prefix — the bytes
    /// that "made it" before power was lost or the write failed.
    fn tear(&self, state: &mut FaultState, path: &Path) {
        if let Ok(bytes) = self.inner.read(path) {
            let keep = (Self::rand(state) as usize) % (bytes.len() + 1);
            let _ = self.inner.write(path, &bytes[..keep]);
        }
        state.unsynced.remove(path);
    }

    fn record_commit(&self, state: &mut FaultState, path: &Path) {
        if let Ok(bytes) = self.inner.read(path) {
            state
                .history
                .entry(path.to_path_buf())
                .or_default()
                .push(bytes);
        }
    }

    /// Settles the on-disk state after the configured crash point fired:
    /// unsynced file data is torn back to a seeded prefix, and each
    /// pending (never directory-synced) metadata operation either
    /// persisted or rolled back — except a rename/link of unsynced data,
    /// which pessimally persists the name *and* tears the bytes. Call once,
    /// then recover with a fresh filesystem handle.
    pub fn apply_crash(&self) {
        let mut state = self.state.lock();
        if state.crash_applied {
            return;
        }
        state.crash_applied = true;
        let pending = std::mem::take(&mut state.pending);
        for (_dir, op) in pending.into_iter().rev() {
            match op {
                MetaOp::Created { path } => {
                    if state.unsynced.contains(&path) {
                        self.tear(&mut state, &path);
                    } else if Self::rand(&mut state) & 1 == 0 {
                        let _ = self.inner.remove_file(&path);
                    }
                }
                MetaOp::Renamed {
                    from,
                    to,
                    old_target,
                    source_unsynced,
                } => {
                    if source_unsynced {
                        // The journal committed the rename before the data
                        // blocks: a "committed" name holding torn bytes.
                        self.tear(&mut state, &to);
                    } else if Self::rand(&mut state) & 1 == 0 {
                        // Entry update never reached the journal: undo.
                        if let Ok(bytes) = self.inner.read(&to) {
                            let _ = self.inner.write(&from, &bytes);
                        }
                        match old_target {
                            Some(bytes) => {
                                let _ = self.inner.write(&to, &bytes);
                            }
                            None => {
                                let _ = self.inner.remove_file(&to);
                            }
                        }
                    }
                }
                MetaOp::Linked {
                    path,
                    source_unsynced,
                } => {
                    if source_unsynced {
                        self.tear(&mut state, &path);
                    } else if Self::rand(&mut state) & 1 == 0 {
                        let _ = self.inner.remove_file(&path);
                    }
                }
                MetaOp::Removed { path, bytes } => {
                    if Self::rand(&mut state) & 1 == 0 {
                        let _ = self.inner.write(&path, &bytes);
                    }
                }
            }
        }
        let unsynced: Vec<PathBuf> = state.unsynced.iter().cloned().collect();
        for path in unsynced {
            if self.inner.exists(&path) {
                self.tear(&mut state, &path);
            }
        }
        state.unsynced.clear();
    }
}

/// splitmix64 finalizer: spreads nearby seeds across the whole state
/// space (xorshift needs a well-mixed, nonzero start).
fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

fn parent_of(path: &Path) -> PathBuf {
    path.parent().map(Path::to_path_buf).unwrap_or_default()
}

impl StoreFs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.state.lock();
        match self.gate(&mut state, Some(path)) {
            Gate::Proceed => self.inner.read(path),
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        let existed = self.inner.exists(path);
        let track_new = |state: &mut FaultState| {
            if !existed {
                state
                    .pending
                    .push((parent_of(path), MetaOp::Created { path: path.into() }));
            }
            state.unsynced.insert(path.to_path_buf());
        };
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                self.inner.write(path, bytes)?;
                track_new(&mut state);
                Ok(())
            }
            Gate::Fault(e) => {
                // A failed write is not a no-op: a seeded prefix reached
                // the medium (torn write at a byte offset).
                let cut = (Self::rand(&mut state) as usize) % (bytes.len() + 1);
                let _ = self.inner.write(path, &bytes[..cut]);
                track_new(&mut state);
                Err(e)
            }
            Gate::Dead(e) => Err(e),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                self.inner.sync_file(path)?;
                state.unsynced.remove(path);
                self.record_commit(&mut state, path);
                Ok(())
            }
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                let source_unsynced = state.unsynced.remove(from);
                if source_unsynced {
                    state.violations.push(format!(
                        "rename of unsynced data: {} -> {}",
                        from.display(),
                        to.display()
                    ));
                }
                let old_target = if self.inner.exists(to) {
                    self.inner.read(to).ok()
                } else {
                    None
                };
                self.inner.rename(from, to)?;
                state.pending.push((
                    parent_of(to),
                    MetaOp::Renamed {
                        from: from.into(),
                        to: to.into(),
                        old_target,
                        source_unsynced,
                    },
                ));
                if source_unsynced {
                    state.unsynced.insert(to.to_path_buf());
                }
                self.record_commit(&mut state, to);
                Ok(())
            }
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                let source_unsynced = state.unsynced.contains(src);
                if source_unsynced {
                    state.violations.push(format!(
                        "hard link of unsynced data: {} -> {}",
                        src.display(),
                        dst.display()
                    ));
                }
                self.inner.hard_link(src, dst)?;
                state.pending.push((
                    parent_of(dst),
                    MetaOp::Linked {
                        path: dst.into(),
                        source_unsynced,
                    },
                ));
                if source_unsynced {
                    state.unsynced.insert(dst.to_path_buf());
                }
                self.record_commit(&mut state, dst);
                Ok(())
            }
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                let bytes = self.inner.read(path).unwrap_or_default();
                self.inner.remove_file(path)?;
                state.pending.push((
                    parent_of(path),
                    MetaOp::Removed {
                        path: path.into(),
                        bytes,
                    },
                ));
                state.unsynced.remove(path);
                Ok(())
            }
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => self.inner.create_dir_all(path),
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        match self.gate(&mut state, None) {
            Gate::Proceed => {
                self.inner.sync_dir(dir)?;
                state.pending.retain(|(d, _)| d != dir);
                Ok(())
            }
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut state = self.state.lock();
        match self.gate(&mut state, Some(dir)) {
            Gate::Proceed => self.inner.read_dir_names(dir),
            Gate::Fault(e) | Gate::Dead(e) => Err(e),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Every committed byte-state a reference pass recorded, keyed by path
/// (relative after [`relative_to`](Self::relative_to)). A surviving file
/// after crash recovery must match one of these exactly — that is the
/// "committed-before or never-happened, no third outcome" invariant.
#[derive(Debug, Clone, Default)]
pub struct CommittedHistory {
    states: BTreeMap<PathBuf, Vec<Vec<u8>>>,
}

impl CommittedHistory {
    /// Rekeys the history relative to `root`, so committed states from the
    /// reference directory compare against files in a crash-run directory.
    pub fn relative_to(self, root: &Path) -> CommittedHistory {
        CommittedHistory {
            states: self
                .states
                .into_iter()
                .filter_map(|(path, v)| {
                    path.strip_prefix(root)
                        .ok()
                        .map(|rel| (rel.to_path_buf(), v))
                })
                .collect(),
        }
    }

    /// Whether `bytes` is byte-identical to some committed state of `rel`.
    pub fn allows(&self, rel: &Path, bytes: &[u8]) -> bool {
        self.states
            .get(rel)
            .is_some_and(|states| states.iter().any(|s| s == bytes))
    }
}

/// Outcome of a [`crash_point_sweep`]: how many crash points were
/// enumerated and every invariant failure observed (empty = pass).
#[derive(Debug, Clone, Default)]
pub struct CrashSweepOutcome {
    /// Crash points enumerated (operations in the reference pass).
    pub crash_points: u64,
    /// Human-readable invariant failures; empty means the sweep passed.
    pub failures: Vec<String>,
}

impl CrashSweepOutcome {
    /// Whether every crash point recovered cleanly.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `workload` once fault-free to enumerate its operations and record
/// committed states, then once per crash point `k` with power lost at
/// operation `k`, calling `verify` on the settled directory each time.
///
/// `workload` receives the fault layer and a fresh root; it must treat any
/// io error as process death (stop, return its progress so far). `verify`
/// receives the crashed root, the reference [`CommittedHistory`]
/// (root-relative) and the crash run's progress value.
pub fn crash_point_sweep<P>(
    base: &Path,
    workload: impl Fn(Arc<FaultFs>, &Path) -> P,
    verify: impl Fn(&Path, &CommittedHistory, &P) -> Result<(), String>,
) -> CrashSweepOutcome {
    let mut outcome = CrashSweepOutcome::default();
    std::fs::create_dir_all(base).ok();

    // Reference pass: no faults, record everything.
    let reference_root = base.join("reference");
    let fs = Arc::new(FaultFs::over_os(FaultConfig::default()));
    let progress = workload(fs.clone(), &reference_root);
    outcome.crash_points = fs.op_count();
    for violation in fs.violations() {
        outcome.failures.push(format!(
            "reference pass violated fsync discipline: {violation}"
        ));
    }
    let history = fs.committed_history().relative_to(&reference_root);
    if let Err(e) = verify(&reference_root, &history, &progress) {
        outcome
            .failures
            .push(format!("reference pass failed its own verification: {e}"));
    }
    std::fs::remove_dir_all(&reference_root).ok();
    if !outcome.failures.is_empty() {
        return outcome;
    }

    for k in 0..outcome.crash_points {
        let root = base.join(format!("crash-{k}"));
        let fs = Arc::new(FaultFs::over_os(FaultConfig {
            seed: k,
            io_fault_rate: 0.0,
            crash_at: Some(k),
        }));
        let progress = workload(fs.clone(), &root);
        fs.apply_crash();
        for violation in fs.violations() {
            outcome.failures.push(format!(
                "crash point {k}: fsync discipline violated: {violation}"
            ));
        }
        if let Err(e) = verify(&root, &history, &progress) {
            outcome.failures.push(format!("crash point {k}: {e}"));
        }
        std::fs::remove_dir_all(&root).ok();
    }
    outcome
}

/// A fixed clock for deterministic workloads (crash sweeps must not embed
/// wall-clock seconds in lease records, or byte-identity breaks).
#[derive(Debug, Clone, Copy)]
pub struct FixedClock(pub u64);

impl TimeSource for FixedClock {
    fn now_secs(&self) -> u64 {
        self.0
    }
}

/// What the sweep workload managed to commit before the crash.
#[derive(Debug, Clone, Default)]
struct SweepProgress {
    /// `(seq, payload)` of every submission whose `submit` returned `Ok`.
    submitted: Vec<(u64, Vec<u8>)>,
    /// Cell records whose run-log append returned `Ok`.
    logged: Vec<CellRecord>,
    /// Sequence numbers whose batch-flush verdict was `Ok`.
    published: Vec<u64>,
    /// Whether the warm-state snapshot write returned `Ok`.
    snapshot: bool,
    /// The workload stopped before its last step although the filesystem
    /// had not crashed: the sweep would replay a shorter path than the
    /// one it names.
    stopped_early: bool,
}

const SWEEP_REPORT: &[u8] = b"sweep-report-alpha";
const SWEEP_RECOVERED: &[u8] = b"sweep-report-recovered";
/// Submissions the sweep workload enqueues (sequence numbers `1..=3`).
const SWEEP_PLANS: [&[u8]; 3] = [b"sweep-plan-a", b"sweep-plan-b", b"sweep-plan-c"];

fn sweep_snapshot() -> crate::snapshot::Snapshot {
    let mut snapshot = crate::snapshot::Snapshot::new();
    let mut section = crate::snapshot::SnapshotSection::new("sweep-memo");
    section.push(b"k1".to_vec(), b"v1".to_vec());
    section.push(b"k2".to_vec(), b"value-two".to_vec());
    snapshot.sections.push(section);
    snapshot
}

/// The run history the workload logs for submission `seq`, executed under
/// its first lease generation: two cells, every field fixed.
fn sweep_cells(seq: u64) -> Vec<CellRecord> {
    (0..2)
        .map(|i| CellRecord {
            campaign: seq,
            experiment: "sweep".into(),
            group: String::new(),
            image_label: format!("img-{i}"),
            repetition: 0,
            run_id: seq * 10 + i,
            status: CellRecord::STATUS_PASS,
            passed: 1,
            failed: 0,
            skipped: 0,
            timestamp: 1_000 + i,
            worker: "sweeper".into(),
            lease_token: 1,
        })
        .collect()
}

fn sweep_workload(fs: Arc<FaultFs>, root: &Path) -> SweepProgress {
    let mut progress = SweepProgress::default();
    let finished = sweep_steps(fs.clone(), root, &mut progress).is_some();
    progress.stopped_early = !finished && !fs.crashed();
    progress
}

/// The workload's steps, stopping (`None`) at the first that fails: an
/// I/O error is process death. Three submissions; two claimed in one
/// [`try_lease_batch`](crate::wq::WorkQueue::try_lease_batch), their cells
/// appended to `<root>/runlog` as one batch, then flushed by one
/// [`publish_and_release_batch`](crate::wq::WorkQueue::publish_and_release_batch),
/// as workers do; the third held mid-lease across the crash; then a
/// warm-state snapshot. Only `Ok` verdicts count as logged or published.
fn sweep_steps(fs: Arc<FaultFs>, root: &Path, progress: &mut SweepProgress) -> Option<()> {
    use crate::wq::{Lease, WorkQueue};
    let fs: Arc<dyn StoreFs> = fs;
    let queue = WorkQueue::open_with(root, 60, Arc::new(FixedClock(1_000)), fs.clone()).ok()?;
    let log = RunLog::open_with(&root.join(RUN_LOG_DIR), fs.clone()).ok()?;
    for payload in SWEEP_PLANS {
        let seq = queue.submit(payload, 100, 4, 7_000).ok()?;
        progress.submitted.push((seq, payload.to_vec()));
    }
    let leases = queue.try_lease_batch("sweeper", 2, |_| true).ok()?;
    if leases.len() != 2 || leases.iter().any(|lease| lease.token != 1) {
        return None;
    }
    let cells: Vec<CellRecord> = leases.iter().flat_map(|l| sweep_cells(l.seq)).collect();
    log.append_batch(&cells).ok()?;
    progress.logged = cells;
    let items: Vec<(&Lease, &[u8])> = leases.iter().map(|lease| (lease, SWEEP_REPORT)).collect();
    for (lease, verdict) in leases.iter().zip(queue.publish_and_release_batch(&items)) {
        verdict.ok()?;
        progress.published.push(lease.seq);
    }
    queue.lease_next("sweeper").ok()??;
    sweep_snapshot()
        .write_durable(fs.as_ref(), &root.join("warm_state.spws"))
        .ok()?;
    progress.snapshot = true;
    Some(())
}

fn sweep_verify(
    root: &Path,
    history: &CommittedHistory,
    progress: &SweepProgress,
) -> Result<(), String> {
    use crate::wq::WorkQueue;
    if progress.stopped_early {
        return Err("the workload stopped early on a filesystem that had not crashed".into());
    }
    let os = OsFs;
    // 1. No third outcome: every surviving durable record is byte-identical
    //    to a state that was committed in the reference pass. (tmp/ staging
    //    leftovers are exempt — they are garbage by design and swept.)
    for sub in [
        "submissions",
        "leases",
        "reports",
        "poison",
        "workers",
        "runlog/cells",
    ] {
        let dir = root.join(sub);
        for name in os.read_dir_names(&dir).unwrap_or_default() {
            let path = dir.join(&name);
            let bytes = os
                .read(&path)
                .map_err(|e| format!("unreadable survivor {}: {e}", path.display()))?;
            let rel = PathBuf::from(sub).join(&name);
            if !history.allows(&rel, &bytes) {
                return Err(format!(
                    "survivor {} ({} bytes) matches no committed state",
                    rel.display(),
                    bytes.len()
                ));
            }
        }
    }
    let warm = root.join("warm_state.spws");
    if os.exists(&warm) {
        let bytes = os
            .read(&warm)
            .map_err(|e| format!("unreadable warm state: {e}"))?;
        if !history.allows(Path::new("warm_state.spws"), &bytes) {
            return Err("surviving warm state matches no committed state".into());
        }
    }
    if progress.snapshot && !os.exists(&warm) {
        return Err("committed warm-state snapshot lost".into());
    }

    // 2. Recovery: reopen well past every lease expiry and check committed
    //    work survived intact.
    let queue = WorkQueue::open_with(root, 60, Arc::new(FixedClock(5_000)), Arc::new(OsFs))
        .map_err(|e| format!("recovery open failed: {e}"))?;
    if queue.stats().quarantined != 0 {
        return Err(
            "crash recovery quarantined a record: fsync discipline leaked a torn write".into(),
        );
    }
    for (seq, payload) in &progress.submitted {
        match queue.submission_checked(*seq) {
            Ok(Some(sub)) if sub.payload == *payload => {}
            Ok(Some(_)) => {
                return Err(format!(
                    "committed submission {seq} read back different bytes"
                ))
            }
            Ok(None) => return Err(format!("committed submission {seq} lost by the crash")),
            Err(e) => return Err(format!("committed submission {seq} unreadable: {e}")),
        }
    }
    for seq in &progress.published {
        match queue.report(*seq) {
            Some(report) if report == SWEEP_REPORT => {}
            Some(_) => return Err(format!("committed report {seq} read back different bytes")),
            None => return Err(format!("committed report {seq} lost by the crash")),
        }
    }

    // 3. The run history: replay drops no corrupt batch and invents no
    //    record, every acknowledged append survives, and every report that
    //    survived has its cells logged.
    let replay = RunLog::open(&root.join(RUN_LOG_DIR))
        .map_err(|e| format!("run-log reopen failed: {e}"))?
        .replay();
    if replay.corrupt_dropped != 0 || replay.unreadable != 0 {
        return Err(format!(
            "run-log replay dropped {} corrupt and {} unreadable batch(es)",
            replay.corrupt_dropped, replay.unreadable
        ));
    }
    let logged = |record: &CellRecord| replay.records.iter().any(|(_, r)| r == record);
    let workload: Vec<CellRecord> = (1..=SWEEP_PLANS.len() as u64)
        .flat_map(sweep_cells)
        .collect();
    if let Some((seq, record)) = replay.records.iter().find(|(_, r)| !workload.contains(r)) {
        return Err(format!(
            "run-log batch {seq} replayed a record the workload never wrote: {record:?}"
        ));
    }
    if let Some(record) = progress.logged.iter().find(|r| !logged(r)) {
        return Err(format!(
            "acknowledged append of run {} lost by the crash",
            record.run_id
        ));
    }
    for (seq, _) in &progress.submitted {
        if queue.report(*seq).is_some() && !sweep_cells(*seq).iter().all(logged) {
            return Err(format!("report {seq} committed without its cells logged"));
        }
    }

    // 4. Drive the backlog to completion — recovery must always be able to
    //    finish the job.
    while let Some(lease) = queue
        .lease_next("recovery")
        .map_err(|e| format!("recovery lease failed: {e}"))?
    {
        queue
            .publish_and_release_batch(&[(&lease, SWEEP_RECOVERED)])
            .remove(0)
            .map_err(|e| format!("recovery publish failed: {e}"))?;
    }
    if !queue.drained() {
        return Err("recovered queue cannot drain its backlog".into());
    }
    Ok(())
}

/// The crash-point sweep both the store test suite and the `repro-fleet`
/// chaos binary gate on. Its workload runs the worker path: the queue's
/// batched claim, the claimed cells' run-log append, the batched publish,
/// a lease held in flight, then a durable warm-state snapshot; it is
/// crashed at every enumerated operation, recovered, and verified against
/// the committed-before-or-never invariant, for the queue and the run
/// history alike. A workload that stops early without a crash fails the
/// sweep.
pub fn standard_crash_sweep(base: &Path) -> CrashSweepOutcome {
    crash_point_sweep(base, sweep_workload, sweep_verify)
}

/// A test double over the real filesystem that records every operation
/// and the path it named, so a test can pin a durable path's exact op
/// sequence or count its reads, and that fails every read of one path
/// with `EIO`.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct RecordingFs {
    ops: Mutex<Vec<(&'static str, PathBuf)>>,
    /// Reads of this path fail with `EIO` while it is set.
    pub(crate) fail: Mutex<Option<PathBuf>>,
}

#[cfg(test)]
impl RecordingFs {
    fn note(&self, op: &'static str, path: &Path) {
        self.ops.lock().push((op, path.to_path_buf()));
    }

    /// The names of the operations recorded since the last take.
    pub(crate) fn take(&self) -> Vec<&'static str> {
        self.take_ops().into_iter().map(|(op, _)| op).collect()
    }

    /// The operations recorded since the last take, with their paths.
    pub(crate) fn take_ops(&self) -> Vec<(&'static str, PathBuf)> {
        std::mem::take(&mut *self.ops.lock())
    }
}

#[cfg(test)]
impl StoreFs for RecordingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.note("read", path);
        if self.fail.lock().as_deref() == Some(path) {
            return Err(io::Error::from_raw_os_error(5));
        }
        OsFs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.note("write", path);
        OsFs.write(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.note("sync_file", path);
        OsFs.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note("rename", to);
        OsFs.rename(from, to)
    }
    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        self.note("hard_link", dst);
        OsFs.hard_link(src, dst)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.note("remove_file", path);
        OsFs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.note("create_dir_all", path);
        OsFs.create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.note("sync_dir", dir);
        OsFs.sync_dir(dir)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.note("read_dir_names", dir);
        OsFs.read_dir_names(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        OsFs.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sp-vfs-{tag}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn os_fs_roundtrip_and_durable_atomic() {
        let dir = temp_dir("os");
        let fs = OsFs;
        let target = dir.join("record.bin");
        write_durable_atomic(
            &fs,
            &[(dir.join("record.stage"), target.clone(), b"payload")],
        )
        .unwrap();
        assert_eq!(fs.read(&target).unwrap(), b"payload");
        assert!(!fs.exists(&dir.join("record.stage")));
        assert_eq!(fs.read_dir_names(&dir).unwrap(), vec!["record.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_exclusive_creates_have_exactly_one_winner() {
        for _ in 0..16 {
            let dir = temp_dir("race");
            let staging = StagingDir::open(&OsFs, dir.join("tmp")).unwrap();
            let target = dir.join("record");
            let barrier = std::sync::Barrier::new(2);
            let writers = [b"writer-a".as_slice(), b"writer-b".as_slice()];
            let results: Vec<io::Result<usize>> = std::thread::scope(|scope| {
                let handles: Vec<_> = writers
                    .iter()
                    .map(|bytes| {
                        let (staging, target, barrier) = (&staging, &target, &barrier);
                        scope.spawn(move || {
                            let stage = staging.next();
                            barrier.wait();
                            create_durable_exclusive(&OsFs, &stage, bytes, [target.clone()])
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winner = results.iter().position(|r| r.is_ok()).expect("a winner");
            let loser = &results[1 - winner];
            assert_eq!(
                loser.as_ref().unwrap_err().kind(),
                io::ErrorKind::AlreadyExists,
                "the loser learns it lost the name"
            );
            assert_eq!(std::fs::read(&target).unwrap(), writers[winner]);
            assert!(
                OsFs.read_dir_names(&dir.join("tmp")).unwrap().is_empty(),
                "neither writer leaves a staging file behind"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn forced_enospc_tears_the_write_and_surfaces() {
        let dir = temp_dir("enospc");
        let fs = FaultFs::over_os(FaultConfig {
            seed: 7,
            ..FaultConfig::default()
        });
        fs.fail_next_write(ForcedFault::Enospc);
        let path = dir.join("staged");
        let err = fs.write(&path, &[0xAB; 64]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        // The failed write left a torn prefix behind, not a clean absence.
        let leftover = std::fs::read(&path).unwrap();
        assert!(leftover.len() <= 64);
        assert!(leftover.iter().all(|&b| b == 0xAB));
        // Reads are unaffected by the armed write fault.
        let fs2 = FaultFs::over_os(FaultConfig::default());
        fs2.fail_next_write(ForcedFault::Eio);
        assert!(fs2.read(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_path_scoped_read_fault_counts_only_reads_of_its_path() {
        let dir = temp_dir("read-of");
        let (target, other) = (dir.join("target"), dir.join("other"));
        std::fs::write(&target, b"t").unwrap();
        std::fs::write(&other, b"o").unwrap();
        let fs = FaultFs::over_os(FaultConfig::default());
        fs.fail_nth_read_of(&target, 2, ForcedFault::Eio);
        // Writes, listings and reads of other paths pass and do not count.
        fs.write(&other, b"o2").unwrap();
        assert_eq!(fs.read(&other).unwrap(), b"o2");
        assert_eq!(fs.read_dir_names(&dir).unwrap().len(), 2);
        assert_eq!(fs.read(&target).unwrap(), b"t", "the first read passes");
        assert_eq!(fs.read(&other).unwrap(), b"o2");
        let err = fs.read(&target).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "the second read of it fails");
        assert_eq!(fs.read(&target).unwrap(), b"t", "once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_fault_rate_is_deterministic_per_seed() {
        let dir = temp_dir("rate");
        std::fs::write(dir.join("f"), b"x").unwrap();
        let observe = |seed: u64| -> Vec<bool> {
            let fs = FaultFs::over_os(FaultConfig {
                seed,
                io_fault_rate: 0.5,
                crash_at: None,
            });
            (0..64).map(|_| fs.read(&dir.join("f")).is_err()).collect()
        };
        let a = observe(42);
        assert_eq!(a, observe(42), "same seed, same fault pattern");
        assert_ne!(a, observe(43), "different seed, different pattern");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        // Injected faults are EINTR-class (retryable).
        let fs = FaultFs::over_os(FaultConfig {
            seed: 42,
            io_fault_rate: 1.0,
            crash_at: None,
        });
        assert_eq!(
            fs.read(&dir.join("f")).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_kills_every_subsequent_operation() {
        let dir = temp_dir("crash");
        let fs = FaultFs::over_os(FaultConfig {
            seed: 1,
            io_fault_rate: 0.0,
            crash_at: Some(2),
        });
        assert!(fs.write(&dir.join("a"), b"one").is_ok());
        assert!(fs.sync_file(&dir.join("a")).is_ok());
        assert!(fs.write(&dir.join("b"), b"two").is_err(), "op 2 crashes");
        assert!(fs.crashed());
        assert!(
            fs.read(&dir.join("a")).is_err(),
            "dead process: all ops fail"
        );
        fs.apply_crash();
        // Synced data survives the crash intact.
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"one");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_rename_is_a_violation_and_tears_the_target() {
        let dir = temp_dir("tear");
        let fs = FaultFs::over_os(FaultConfig {
            seed: 9,
            io_fault_rate: 0.0,
            crash_at: Some(2),
        });
        // Old write_atomic shape: stage then rename with *no* sync.
        fs.write(&dir.join("stage"), &[0xCD; 128]).unwrap();
        fs.rename(&dir.join("stage"), &dir.join("committed"))
            .unwrap();
        let _ = fs.read(&dir.join("committed")); // op 2: crash
        assert!(fs.crashed());
        assert_eq!(fs.violations().len(), 1);
        fs.apply_crash();
        // Pessimal outcome: the name persisted, the bytes did not.
        let bytes = std::fs::read(dir.join("committed")).unwrap();
        assert!(bytes.len() < 128, "unsynced rename target must be torn");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disciplined_commit_survives_any_crash_point() {
        for crash_at in 0..8 {
            let dir = temp_dir("disc");
            let fs = FaultFs::over_os(FaultConfig {
                seed: crash_at + 1,
                io_fault_rate: 0.0,
                crash_at: Some(crash_at),
            });
            let committed =
                write_durable_atomic(&fs, &[(dir.join("stage"), dir.join("rec"), b"disciplined")])
                    .is_ok();
            fs.apply_crash();
            assert!(fs.violations().is_empty());
            let on_disk = std::fs::read(dir.join("rec")).ok();
            if committed {
                assert_eq!(
                    on_disk.as_deref(),
                    Some(b"disciplined".as_slice()),
                    "crash at {crash_at}: committed record must survive intact"
                );
            } else if let Some(bytes) = on_disk {
                // Not yet committed: the record may exist only if it is
                // already whole (rename of synced data that persisted).
                assert_eq!(
                    bytes, b"disciplined",
                    "crash at {crash_at}: no third outcome — whole or absent"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn committed_history_relativizes_and_matches() {
        let dir = temp_dir("hist");
        let fs = FaultFs::over_os(FaultConfig::default());
        let sub = dir.join("area");
        fs.create_dir_all(&sub).unwrap();
        write_durable_atomic(&fs, &[(sub.join("s"), sub.join("rec"), b"v1")]).unwrap();
        write_durable_atomic(&fs, &[(sub.join("s"), sub.join("rec"), b"v2")]).unwrap();
        let history = fs.committed_history().relative_to(&dir);
        assert!(history.allows(Path::new("area/rec"), b"v1"));
        assert!(history.allows(Path::new("area/rec"), b"v2"));
        assert!(!history.allows(Path::new("area/rec"), b"v3"));
        assert!(!history.allows(Path::new("area/other"), b"v1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
