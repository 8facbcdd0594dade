//! The durable work queue over the common storage directory.
//!
//! The paper's deployment did not run on one machine: a central server held
//! the backlog of validation work and many client machines *pulled* tasks,
//! executed them against their local software environment and reported the
//! results back through the common storage (§3.1). This module is that
//! hand-off substrate: a queue of opaque submissions on disk that N
//! independent OS processes drain concurrently, with crash recovery.
//!
//! ## Layout on disk
//!
//! ```text
//! <root>/submissions/sub-<seq>.spwq        one enqueued unit of work
//! <root>/leases/sub-<seq>.g<token>         lease generations (fencing)
//! <root>/reports/sub-<seq>.g<token>.rep    published results, per token
//! <root>/workers/<holder>.stats            SPMS counter snapshot, sealed record
//! <root>/poison/sub-<seq>.spwp             permanent poison marks
//! <root>/quarantine/...                    records that failed decode
//! <root>/tmp/...                           staging for atomic renames
//! ```
//!
//! ## Durability
//!
//! Every record is sealed in the one [`frame`] and reaches its final name
//! through the full fsync discipline: a record created once (a submission,
//! a lease claim, a poison mark) through [`create_durable_exclusive`], a
//! record replaced in place (a renewal, a release, a report, worker stats)
//! through [`write_durable_atomic`]. Staged bytes are `fsync`ed before the
//! rename/link, and the parent directory is synced before the operation is
//! considered committed — so a record that was ever acknowledged survives
//! power loss whole, and a crash mid-write leaves only staging garbage in
//! `tmp/` (swept on the next
//! [`open`](WorkQueue::open): staging names carry the writer's pid, and
//! files whose pid is no longer alive are removed). All filesystem access
//! goes through an injectable [`StoreFs`], so the same paths run over the
//! deterministic fault layer in tests and chaos harnesses.
//!
//! Work is claimed by [`try_lease_batch`](WorkQueue::try_lease_batch)
//! ([`lease_next`](WorkQueue::lease_next) is its width-1 call) and
//! published by
//! [`publish_and_release_batch`](WorkQueue::publish_and_release_batch).
//! Both amortise the parent-directory fsync — the dominant cost of
//! small-record storms — across a whole batch while leaving per-record
//! durability untouched: every record's bytes are still `fsync`ed before
//! its rename/link, so a crash mid-batch tears the batch only at record
//! granularity (a committed prefix of whole records, never a torn one),
//! and nothing is acknowledged to the caller before the batch's
//! directory sync lands. [`standard_crash_sweep`](crate::vfs::standard_crash_sweep)
//! replays power loss at every operation of these two paths, and of the
//! run-log append workers make between them.
//!
//! ## Leases, heartbeats, fencing
//!
//! A submission is *claimed* by atomically creating the next lease
//! **generation** file `sub-<seq>.g<token>` (staged bytes hard-linked into
//! place, so creation is both exclusive and all-or-nothing); the
//! link-if-absent semantics of the filesystem make each generation number
//! a single-winner race, so two processes can never hold the same token. The holder renews the lease
//! by [`renew`](WorkQueue::renew); a lease whose `expires_at` has
//! been reached (`now >= expires_at` — expiry is inclusive at the
//! boundary) is dead, and the submission becomes claimable again under the
//! *next* generation.
//!
//! The generation number doubles as the **fencing token**: publishing a
//! report records the token it was produced under, and a report is only
//! ever trusted if its token equals the submission's *current highest*
//! generation. A stalled worker whose lease expired and was re-issued can
//! therefore never commit stale results — its batch item in
//! [`publish_and_release_batch`](WorkQueue::publish_and_release_batch) is
//! rejected with [`WqError::StaleLease`], and even a file it managed to
//! write is ignored at collection time because a higher generation exists.
//!
//! Renewal is generation-checked through the same `verify_held` prelude
//! as publish and release, so a renewal attempted after fencing returns
//! the fencing error — it can never resurrect a reclaimed lease.
//!
//! Generations are **dense**: each one is created by an exclusive hard
//! link at `last + 1`, where `last` is the highest generation its claimer
//! found, and no lease file is ever removed or quarantined. So the
//! generations of a submission are exactly `1..=K`, and a handle finds `K`
//! without listing `leases/`: it reads `sub-<seq>.g<K+1>`, `g<K+2>`, …
//! upward from the highest generation it has seen until one is
//! `NotFound`. A probe that fails any other way is an I/O error, never
//! "no generation".
//!
//! Each handle also keeps a **settled** set: submissions whose trusted
//! report sits at a *released* generation. Release is fenced and final, so
//! such a report stays trusted whatever generation comes later, and a
//! claim walk skips settled work without touching the disk. A submission
//! enters the set only when [`report`](WorkQueue::report) reads it so (or
//! when this handle's own publish and release both commit), and
//! leaves it whenever `report` reads nothing trusted — a report torn
//! after it was trusted makes the work claimable again on the same handle.
//!
//! ## Poison marks
//!
//! A submission whose payload is undecodable on *every* machine (it
//! validates its digest but no worker can interpret it) can be marked
//! **poisoned**: a durable `SPWP` record that makes every process —
//! including restarted ones and siblings that never saw the failure —
//! refuse to lease it again. Poison is reserved for
//! environment-independent failures; transient errors are simply
//! released for another worker to retry.
//!
//! ## Trust rules
//!
//! Same posture as the `SPWS` snapshots: every record on disk carries a
//! SHA-256 digest over its bytes, and a record that fails validation —
//! truncated, bit-flipped, wrong magic — is **dropped, never trusted**.
//! Every record is read through one reader that tells three answers
//! apart: absent (`NotFound` only), corrupt (the bytes read but fail
//! their frame or body), and a read fault, which is an error and never
//! either of the others. A
//! corrupt submission is never leased; a corrupt report reads as absent
//! (the work is re-leased and re-executed); a corrupt lease is treated as
//! expired (its generation number stays burned so fencing still holds).
//!
//! Dropping is additionally *graceful, not aborting*: a corrupt
//! submission, report or poison mark is moved into `<root>/quarantine/`
//! (at claim time or by the open-time sweep) where an operator can inspect
//! it, and counted in [`QueueStats::quarantined`]. Lease records are the
//! one exception — their generation numbers are fencing tokens parsed
//! from the file *name*, so a corrupt lease file stays in place, burned.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::frame;
use crate::retention::TimeSource;
use crate::vfs::{create_durable_exclusive, write_durable_atomic, OsFs, StagingDir, StoreFs};
use sp_wire as wire;

/// Record magic for submissions.
const MAGIC_SUBMISSION: [u8; 4] = *b"SPWQ";
/// Record magic for leases.
const MAGIC_LEASE: [u8; 4] = *b"SPWL";
/// Record magic for reports.
const MAGIC_REPORT: [u8; 4] = *b"SPWR";
/// Record magic for worker stats.
const MAGIC_WORKER: [u8; 4] = *b"SPWT";
/// Record magic for poison marks.
const MAGIC_POISON: [u8; 4] = *b"SPWP";
/// Attempts [`WorkQueue::hand_back`] makes before leaving a lease to expire.
const HAND_BACK_ATTEMPTS: usize = 8;

/// Reads "now" from the operating-system clock — the time source a real
/// multi-process fleet shares, since the virtual clock of one process is
/// invisible to its siblings.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemTimeSource;

impl TimeSource for SystemTimeSource {
    fn now_secs(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// Errors from lease-protocol operations (I/O failures are surfaced as
/// [`WqError::Io`]; fencing violations get their own variants so callers
/// can distinguish "retry elsewhere" from "broken disk").
#[derive(Debug)]
pub enum WqError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The operation's fencing token is no longer the submission's current
    /// lease generation — the lease expired and the work was re-issued.
    StaleLease {
        /// Submission the operation addressed.
        seq: u64,
        /// Token the caller holds.
        held: u64,
        /// Current highest generation on disk.
        current: u64,
    },
    /// The lease record on disk does not name the caller as holder (or is
    /// corrupt), so the caller cannot operate on it.
    NotHeld {
        /// Submission the operation addressed.
        seq: u64,
        /// Token the caller claimed to hold.
        token: u64,
    },
    /// The lease was already released; releasing (or renewing) it again is
    /// a protocol error, not a no-op.
    AlreadyReleased {
        /// Submission the operation addressed.
        seq: u64,
        /// Token of the doubly-released lease.
        token: u64,
    },
    /// The lease has expired (`now >= expires_at`): it can no longer be
    /// renewed or used to publish.
    Expired {
        /// Submission the operation addressed.
        seq: u64,
        /// Token of the expired lease.
        token: u64,
    },
}

impl std::fmt::Display for WqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WqError::Io(e) => write!(f, "work-queue I/O failure: {e}"),
            WqError::StaleLease { seq, held, current } => write!(
                f,
                "stale lease on submission {seq}: held token {held}, current generation {current}"
            ),
            WqError::NotHeld { seq, token } => {
                write!(f, "lease {token} on submission {seq} is not held by caller")
            }
            WqError::AlreadyReleased { seq, token } => {
                write!(f, "lease {token} on submission {seq} was already released")
            }
            WqError::Expired { seq, token } => {
                write!(f, "lease {token} on submission {seq} has expired")
            }
        }
    }
}

impl std::error::Error for WqError {}

impl From<std::io::Error> for WqError {
    fn from(e: std::io::Error) -> Self {
        WqError::Io(e)
    }
}

/// One unit of queued work, as read back (digest-validated) from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSubmission {
    /// Queue sequence number (submission order).
    pub seq: u64,
    /// First run id of the range pre-carved for this work at submission.
    pub base_run_id: u64,
    /// Length of the pre-carved run-id range.
    pub total_runs: u64,
    /// Virtual-clock origin the work must execute at, so its timestamps
    /// are independent of which worker picks it up and when.
    pub origin: u64,
    /// Opaque payload (a serialised campaign plan, for `sp-core`).
    pub payload: Vec<u8>,
}

/// A lease held by this process, as returned by
/// [`lease_next`](WorkQueue::lease_next). Carries everything the holder
/// needs to heartbeat, publish and release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The leased submission.
    pub seq: u64,
    /// The fencing token (lease generation) this holder owns.
    pub token: u64,
    /// Holder identity (worker name).
    pub holder: String,
    /// Expiry instant (seconds; the lease is dead once `now >= expires_at`).
    pub expires_at: u64,
}

/// A durable poison mark: the submission is permanently skipped by every
/// worker, current and future. Written once (first marker wins) and never
/// removed by the queue itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonMark {
    /// The poisoned submission.
    pub seq: u64,
    /// Worker that diagnosed the failure.
    pub holder: String,
    /// Human-readable diagnosis (shown in operator digests).
    pub reason: String,
}

/// A lease record as read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LeaseRecord {
    seq: u64,
    token: u64,
    holder: String,
    acquired_at: u64,
    expires_at: u64,
    released: bool,
}

/// Aggregate queue accounting, derived entirely from the directory state —
/// any process can compute it, which is how the fleet driver renders a
/// cross-process digest without shared memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Submissions enqueued and not proven corrupt (an unreadable record
    /// still counts).
    pub submissions: usize,
    /// Submissions with a trusted (current-generation) report.
    pub completed: usize,
    /// Lease generations ever issued across all submissions.
    pub leases_issued: usize,
    /// Re-issues after expiry/crash (generations beyond the first).
    pub reclaims: usize,
    /// Records dropped because their digest or structure did not validate.
    pub corrupt_dropped: usize,
    /// Submissions permanently poisoned (undecodable payloads no worker
    /// will ever lease again).
    pub poisoned: usize,
    /// Records moved to `<root>/quarantine/` because they failed decode
    /// (graceful degradation: inspectable, never trusted, never aborting).
    pub quarantined: usize,
    /// Failed directory listings and record reads. A failed read proves
    /// nothing about the record behind it, so it is neither counted as
    /// corrupt nor skipped silently: a nonzero count says the other
    /// fields are incomplete.
    pub unreadable: usize,
}

/// What one record read found.
enum Found<T> {
    /// The file does not exist (`NotFound`).
    Absent,
    /// The bytes read but fail their frame or body decode.
    Corrupt,
    /// A record that decodes.
    Valid(T),
}

impl<T> Found<T> {
    fn valid(self) -> Option<T> {
        match self {
            Found::Valid(value) => Some(value),
            Found::Absent | Found::Corrupt => None,
        }
    }
}

/// The durable multi-process work queue rooted at one storage directory.
pub struct WorkQueue {
    root: PathBuf,
    time: Arc<dyn TimeSource + Send + Sync>,
    lease_secs: u64,
    fs: Arc<dyn StoreFs>,
    staging: StagingDir,
    /// Highest lease generation this handle has seen, per submission: the
    /// floor the next generation probe starts from.
    generations: Mutex<HashMap<u64, u64>>,
    /// Submissions whose trusted report's generation is released (see the
    /// module docs): claims skip them without I/O.
    settled: Mutex<HashSet<u64>>,
}

impl WorkQueue {
    /// Opens (creating directories as needed) a queue on the OS clock.
    pub fn open(root: impl Into<PathBuf>, lease_secs: u64) -> std::io::Result<Self> {
        Self::open_with_time(root, lease_secs, Arc::new(SystemTimeSource))
    }

    /// Opens a queue on an explicit time source (tests drive lease expiry
    /// deterministically through this; real fleets share the OS clock).
    pub fn open_with_time(
        root: impl Into<PathBuf>,
        lease_secs: u64,
        time: Arc<dyn TimeSource + Send + Sync>,
    ) -> std::io::Result<Self> {
        Self::open_with(root, lease_secs, time, Arc::new(OsFs))
    }

    /// Opens a queue on an explicit time source **and** filesystem — the
    /// injection point for the deterministic fault layer
    /// ([`crate::vfs::FaultFs`]). Opening also recovers the directory:
    /// staging files leaked by dead processes are swept from `tmp/`, and
    /// records that fail decode are quarantined.
    pub fn open_with(
        root: impl Into<PathBuf>,
        lease_secs: u64,
        time: Arc<dyn TimeSource + Send + Sync>,
        fs: Arc<dyn StoreFs>,
    ) -> std::io::Result<Self> {
        let root = root.into();
        for sub in [
            "submissions",
            "leases",
            "reports",
            "workers",
            "poison",
            "quarantine",
        ] {
            fs.create_dir_all(&root.join(sub))?;
        }
        let staging = StagingDir::open(fs.as_ref(), root.join("tmp"))?;
        let queue = WorkQueue {
            root,
            time,
            lease_secs: lease_secs.max(1),
            fs,
            staging,
            generations: Mutex::new(HashMap::new()),
            settled: Mutex::new(HashSet::new()),
        };
        queue.sweep_corrupt();
        Ok(queue)
    }

    /// Quarantines every record that fails decode (see the module-level
    /// trust rules; lease files are exempt — their names carry burned
    /// fencing generations). Best-effort, returns how many were moved.
    ///
    /// Corruption is only ever diagnosed from bytes that were *read
    /// successfully*: a failed read proves nothing about the record — on
    /// a flaky disk it may be perfectly intact — so the entry stays in
    /// place for a later sweep to re-examine. Quarantining on a read
    /// error would lose committed work to a transient fault.
    fn sweep_corrupt(&self) -> usize {
        let mut moved = 0;
        for sub in ["submissions", "reports", "poison"] {
            // Best effort: a failed listing sweeps nothing this time.
            let Ok(names) = self.list(sub) else {
                continue;
            };
            for name in names {
                let path = self.root.join(sub).join(&name);
                let found = match sub {
                    "submissions" => parse_seq(&name, "sub-", ".spwq").map(|seq| {
                        self.read_record(&path, |bytes| decode_submission(seq, bytes).map(drop))
                    }),
                    "reports" => parse_report_name(&name).map(|(seq, token)| {
                        self.read_record(&path, |bytes| {
                            decode_report_bytes(seq, token, bytes).map(drop)
                        })
                    }),
                    _ => parse_seq(&name, "sub-", ".spwp").map(|seq| {
                        self.read_record(&path, |bytes| decode_poison_bytes(seq, bytes).map(drop))
                    }),
                };
                // An unparseable *name* needs no byte evidence.
                if matches!(found, None | Some(Ok(Found::Corrupt))) {
                    moved += self.quarantine_record(sub, &name) as usize;
                }
            }
        }
        moved
    }

    /// Reads one record through its decoder: absent only on `NotFound`,
    /// corrupt when the bytes read but do not decode, and `Err` on any
    /// other failure — a fault proves nothing about the record behind it.
    fn read_record<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> std::io::Result<Found<T>> {
        match self.fs.read(path) {
            Ok(bytes) => Ok(decode(&bytes).map_or(Found::Corrupt, Found::Valid)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Found::Absent),
            Err(e) => Err(e),
        }
    }

    /// Whether a record file exists, whatever its bytes: an exact-path
    /// read, `false` only on `NotFound`.
    fn exists(&self, path: &Path) -> std::io::Result<bool> {
        Ok(!matches!(
            self.read_record(path, |_| Some(()))?,
            Found::Absent
        ))
    }

    /// Moves one record into `quarantine/` (prefixed with its source
    /// directory), syncing both directories. Best-effort.
    fn quarantine_record(&self, sub: &str, name: &str) -> bool {
        let from = self.root.join(sub).join(name);
        let to = self.root.join("quarantine").join(format!("{sub}-{name}"));
        if self.fs.rename(&from, &to).is_err() {
            return false;
        }
        let _ = self.fs.sync_dir(&self.root.join("quarantine"));
        let _ = self.fs.sync_dir(&self.root.join(sub));
        true
    }

    /// The queue's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Lease duration handed to new and renewed leases.
    pub fn lease_secs(&self) -> u64 {
        self.lease_secs
    }

    /// The queue's notion of "now" (seconds on its shared time source).
    /// Exposed so lease holders can derive a renewal cadence from
    /// `expires_at - now_secs()` without guessing at the clock the queue
    /// itself will judge expiry by.
    pub fn now_secs(&self) -> u64 {
        self.time.now_secs()
    }

    // ---- paths -------------------------------------------------------

    fn submission_path(&self, seq: u64) -> PathBuf {
        self.root.join(format!("submissions/sub-{seq:08}.spwq"))
    }

    fn lease_path(&self, seq: u64, token: u64) -> PathBuf {
        self.root.join(format!("leases/sub-{seq:08}.g{token:04}"))
    }

    fn report_path(&self, seq: u64, token: u64) -> PathBuf {
        self.root
            .join(format!("reports/sub-{seq:08}.g{token:04}.rep"))
    }

    fn poison_path(&self, seq: u64) -> PathBuf {
        self.root.join(format!("poison/sub-{seq:08}.spwp"))
    }

    /// Writes `bytes` to a staging file and atomically renames it over
    /// `target` (the readers-see-whole-records guarantee), with the full
    /// durability discipline: the staged bytes are `fsync`ed before the
    /// rename and the target's parent directory is synced after it — only
    /// then is the record committed against power loss. Without the data
    /// sync, a journal that commits the rename before the data blocks can
    /// surface an empty or torn "committed" record after a crash.
    fn write_atomic(&self, target: &Path, bytes: &[u8]) -> std::io::Result<()> {
        write_durable_atomic(
            self.fs.as_ref(),
            &[(self.staging.next(), target.to_path_buf(), bytes)],
        )
    }

    // ---- submissions -------------------------------------------------

    /// Enqueues one unit of work. The sequence number is allocated by
    /// atomically creating the next free submission file, so concurrent
    /// submitters never collide. A failed listing of `submissions/` is an
    /// error, never an empty queue.
    ///
    /// The walk starts past the highest listed submission and skips every
    /// number whose first lease generation exists: a quarantined
    /// submission leaves its leases and reports behind, and new work under
    /// its number would read as complete with another campaign's report.
    /// The record embeds its number, so it is staged once per number it
    /// tries to link; only a submitter racing for the same number makes
    /// it try more than one.
    pub fn submit(
        &self,
        payload: &[u8],
        base_run_id: u64,
        total_runs: u64,
        origin: u64,
    ) -> std::io::Result<u64> {
        let mut seq = self.submission_seqs_checked()?.last().map_or(1, |s| s + 1);
        loop {
            if self.exists(&self.lease_path(seq, 1))? {
                seq += 1;
                continue;
            }
            let record = encode_submission(seq, base_run_id, total_runs, origin, payload);
            match create_durable_exclusive(
                self.fs.as_ref(),
                &self.staging.next(),
                &record,
                [self.submission_path(seq)],
            ) {
                Ok(_) => {
                    self.fs.sync_dir(&self.root.join("submissions"))?;
                    return Ok(seq);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads one submission back, digest-validated. `Err` means the *read
    /// itself* failed (possibly transient — callers with a retry policy
    /// should retry rather than conclude anything about the record),
    /// `Ok(None)` means the record is genuinely absent or failed decode.
    /// The distinction matters because a caller that conflates a
    /// transient `EIO` with corruption would durably poison valid work.
    /// A record whose bytes read fine but fail decode is quarantined as a
    /// side effect: a corrupt submission is never leased, never executed.
    pub fn submission_checked(&self, seq: u64) -> std::io::Result<Option<QueueSubmission>> {
        let path = self.submission_path(seq);
        match self.read_record(&path, |bytes| decode_submission(seq, bytes))? {
            Found::Valid(submission) => Ok(Some(submission)),
            Found::Corrupt => {
                self.quarantine_record("submissions", &format!("sub-{seq:08}.spwq"));
                Ok(None)
            }
            Found::Absent => Ok(None),
        }
    }

    /// Sequence numbers of every submission file present, sorted. This is
    /// a directory listing only — no payloads are read or digest-checked —
    /// so pollers can walk the backlog cheaply and defer the (hashed)
    /// payload read until after they hold a lease. A failed directory
    /// listing is `Err`, not an empty backlog: conflating "the disk
    /// hiccupped" with "no work exists" makes a worker give up on a
    /// backlog it merely failed to list.
    pub fn submission_seqs_checked(&self) -> std::io::Result<Vec<u64>> {
        let mut seqs: Vec<u64> = self
            .list("submissions")?
            .into_iter()
            .filter_map(|name| parse_seq(&name, "sub-", ".spwq"))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    // ---- leases ------------------------------------------------------

    /// How many lease generations `seq` has (including corrupt records:
    /// their numbers stay burned so fencing holds). Generations are dense,
    /// so this is also the highest one: probed upward from the highest
    /// this handle has seen until a read is `NotFound`. Any other read
    /// failure is an error, never "no generation".
    fn generations(&self, seq: u64) -> std::io::Result<u64> {
        let mut highest = self.generations.lock().get(&seq).copied().unwrap_or(0);
        while self.exists(&self.lease_path(seq, highest + 1))? {
            highest += 1;
        }
        self.saw_generation(seq, highest);
        Ok(highest)
    }

    /// Raises the probe floor of `seq` to `token`, known to exist.
    fn saw_generation(&self, seq: u64, token: u64) {
        let mut seen = self.generations.lock();
        let known = seen.entry(seq).or_insert(token);
        *known = (*known).max(token);
    }

    /// Reads one lease generation's record: `Ok(None)` when it is absent
    /// or corrupt, `Err` on any other read failure.
    fn lease(&self, seq: u64, token: u64) -> std::io::Result<Option<LeaseRecord>> {
        Ok(self
            .read_record(&self.lease_path(seq, token), |bytes| {
                decode_lease(seq, token, bytes)
            })?
            .valid())
    }

    /// Whether a lease record is live (held, unreleased, unexpired) at
    /// `now`. Expiry is **inclusive at the boundary**: a lease whose
    /// `expires_at` equals the current second is already dead — the
    /// heartbeat must land strictly before it.
    fn live(record: &LeaseRecord, now: u64) -> bool {
        !record.released && now < record.expires_at
    }

    /// Claims the next available submission for `holder`: the lowest
    /// sequence number that has no trusted report and whose current lease
    /// generation (if any) is released, expired or corrupt. Returns `None`
    /// when nothing is claimable right now (the backlog may still be
    /// incomplete — other workers hold live leases).
    pub fn lease_next(&self, holder: &str) -> std::io::Result<Option<Lease>> {
        Ok(self.try_lease_batch(holder, 1, |_| true)?.pop())
    }

    /// Claims the next lease generation of `seq` for `holder` **without**
    /// syncing `leases/`: the hard link alone arbitrates the exclusivity
    /// race, the sync only makes the entry durable, so callers must not
    /// act on a claim until [`try_lease_batch`](Self::try_lease_batch)
    /// has synced `leases/`. `None` if the submission is settled,
    /// complete, poisoned, corrupt, held live, or lost in a claim race.
    /// The record is created whole ([`create_durable_exclusive`]) because
    /// a half-written lease would read as corrupt, hence reclaimable.
    fn claim(&self, seq: u64, holder: &str) -> std::io::Result<Option<Lease>> {
        if self.is_settled(seq) {
            return Ok(None);
        }
        let current = self.generations(seq)?;
        if self.report_at(seq, current)?.is_some() {
            return Ok(None);
        }
        // A poisoned submission is permanently dead: leasing it would
        // re-run a failure some worker already diagnosed as
        // machine-independent. A failed read of the mark proves nothing,
        // so it surfaces instead of reading as "not poisoned".
        if self.poison(seq)?.is_some() {
            return Ok(None);
        }
        // A corrupt submission is never leased: claiming it would burn
        // lease generations (inflating the reclaim accounting) on work
        // that can never execute; it is quarantined instead. The payload
        // read is paid only on claim attempts, not on every poll — and a
        // *failed* read surfaces as `Err` (retryable), never as corrupt.
        if self.submission_checked(seq)?.is_none() {
            return Ok(None);
        }
        let now = self.now_secs();
        if current > 0 {
            match self.lease(seq, current)? {
                // Live lease held by someone: not claimable.
                Some(record) if Self::live(&record, now) => return Ok(None),
                // Released since the completeness check above: a holder
                // publishes its report before releasing, so look again
                // before issuing a generation the work no longer needs.
                Some(record) if record.released && self.report_at(seq, current)?.is_some() => {
                    return Ok(None)
                }
                // Released, expired, or corrupt: the generation is dead —
                // claim the next one.
                _ => {}
            }
        }
        let token = current + 1;
        let record = LeaseRecord {
            seq,
            token,
            holder: holder.to_string(),
            acquired_at: now,
            expires_at: now + self.lease_secs,
            released: false,
        };
        match create_durable_exclusive(
            self.fs.as_ref(),
            &self.staging.next(),
            &encode_lease(&record),
            [self.lease_path(seq, token)],
        ) {
            Ok(_) => {
                self.saw_generation(seq, token);
                // Close the rest of the publish/release race: between
                // the lease read above and this claim, the previous
                // holder may have published its report *and* released —
                // making its generation look reclaimable while the work
                // is in fact done. Released-generation reports stay
                // trusted (see [`report`](Self::report)), so re-checking
                // here catches it; the claimed generation is handed back
                // released and the submission reads complete. A faulting
                // re-check keeps the claim: the checks above read no
                // report, and failing now would leave the generation held
                // by nobody until it expires.
                if let Ok(Some(_)) = self.report_at(seq, token) {
                    let mut record = record;
                    record.released = true;
                    self.write_atomic(&self.lease_path(seq, token), &encode_lease(&record))?;
                    return Ok(None);
                }
                Ok(Some(Lease {
                    seq,
                    token,
                    holder: record.holder,
                    expires_at: record.expires_at,
                }))
            }
            // Lost the race for this generation: the winner holds it.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Verifies `lease` is still the live, current generation held by its
    /// holder. The common prelude of heartbeat/publish/release.
    fn verify_held(&self, lease: &Lease) -> Result<LeaseRecord, WqError> {
        let current = self.generations(lease.seq)?;
        if current > lease.token {
            return Err(WqError::StaleLease {
                seq: lease.seq,
                held: lease.token,
                current,
            });
        }
        let record = self
            .lease(lease.seq, lease.token)?
            .ok_or(WqError::NotHeld {
                seq: lease.seq,
                token: lease.token,
            })?;
        if record.holder != lease.holder {
            return Err(WqError::NotHeld {
                seq: lease.seq,
                token: lease.token,
            });
        }
        if record.released {
            return Err(WqError::AlreadyReleased {
                seq: lease.seq,
                token: lease.token,
            });
        }
        if self.now_secs() >= record.expires_at {
            return Err(WqError::Expired {
                seq: lease.seq,
                token: lease.token,
            });
        }
        Ok(record)
    }

    /// Renews the lease for another full duration, updating
    /// `lease.expires_at` and returning the new expiry instant. Renewal
    /// is generation-checked: it fails (and renews nothing) once the
    /// lease has expired, was released, or was superseded by a newer
    /// generation — a fenced-away holder gets the fencing error back,
    /// never a resurrected lease. This is the in-flight liveness signal
    /// the executor's progress hook drives at every repetition barrier.
    pub fn renew(&self, lease: &mut Lease) -> Result<u64, WqError> {
        let mut record = self.verify_held(lease)?;
        record.expires_at = self.now_secs() + self.lease_secs;
        self.write_atomic(
            &self.lease_path(lease.seq, lease.token),
            &encode_lease(&record),
        )?;
        lease.expires_at = record.expires_at;
        Ok(record.expires_at)
    }

    /// Releases a lease after its work is done. Double release is a
    /// protocol error ([`WqError::AlreadyReleased`]), as is releasing a
    /// lease another generation has superseded.
    pub fn release(&self, lease: &Lease) -> Result<(), WqError> {
        let mut record = self.verify_held(lease)?;
        record.released = true;
        self.write_atomic(
            &self.lease_path(lease.seq, lease.token),
            &encode_lease(&record),
        )?;
        Ok(())
    }

    /// Releases a lease whose work this holder gives up, best effort:
    /// an I/O fault is retried in place a bounded number of times, since
    /// a hand-back that fails leaves the work stranded until the lease
    /// expires. A protocol verdict (stale, expired, already released)
    /// ends it at once: the lease is no longer this holder's to give.
    pub fn hand_back(&self, lease: &Lease) {
        for _ in 0..HAND_BACK_ATTEMPTS {
            if !matches!(self.release(lease), Err(WqError::Io(_))) {
                return;
            }
        }
    }

    // ---- batched leasing and publication -----------------------------

    /// Claims up to `max` submissions for `holder` in one scan, skipping
    /// any sequence number `want` declines (workers pass their
    /// poisoned/invalid caches as the filter) and, without I/O, any this
    /// handle knows is settled. The claim entries' directory sync is
    /// amortised: each claim's bytes are still individually `fsync`ed before linking —
    /// only entry durability is batched into a single `leases/` sync at
    /// the end, which is safe because nothing depends on a claim until
    /// this call returns (an entry lost with the power before its batch
    /// sync was never executed against, and the work simply re-leases).
    /// A transient fault partway through the scan merely *truncates* the
    /// batch: the claims already won are synced and returned rather than
    /// handed back (releasing them would itself ride the faulty disk, and
    /// an orphaned release strands the work for a whole lease duration) —
    /// the error surfaces only when nothing was claimed. The `leases/`
    /// sync must succeed before any claim may be acted on; if it fails
    /// the claims are handed back ([`hand_back`](Self::hand_back); expiry
    /// reclaims any whose release keeps failing).
    pub fn try_lease_batch(
        &self,
        holder: &str,
        max: usize,
        mut want: impl FnMut(u64) -> bool,
    ) -> std::io::Result<Vec<Lease>> {
        let mut leases: Vec<Lease> = Vec::new();
        if max == 0 {
            return Ok(leases);
        }
        for seq in self.submission_seqs_checked()? {
            if leases.len() >= max {
                break;
            }
            if !want(seq) {
                continue;
            }
            match self.claim(seq, holder) {
                Ok(Some(lease)) => leases.push(lease),
                Ok(None) => {}
                Err(e) if leases.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        if !leases.is_empty() {
            if let Err(e) = self.fs.sync_dir(&self.root.join("leases")) {
                for lease in &leases {
                    self.hand_back(lease);
                }
                return Err(e);
            }
        }
        Ok(leases)
    }

    /// Publishes and releases several held leases as one batch: every
    /// report (and release record) is staged and `fsync`ed individually,
    /// then renamed into place, then the `reports/` directory is synced
    /// **once** for the whole batch (and `leases/` once for the
    /// releases) — one parent-dir fsync per batch instead of one per
    /// record, the dominant cost of the fleet publish path.
    ///
    /// Returns one verdict per item, index-aligned with `items`. An `Ok`
    /// verdict is an acknowledgment that the item's report is durable; a
    /// crash mid-batch therefore degrades to "some records committed
    /// whole, the rest never happened"
    /// ([`standard_crash_sweep`](crate::vfs::standard_crash_sweep)
    /// replays power loss at every operation of this path). Reports
    /// commit strictly before releases; a release that fails after its
    /// report committed is tolerated — the report is what matters, an
    /// unreleased lease simply expires. On a batch-level I/O failure the
    /// verified-but-unacknowledged items all report [`WqError::Io`]:
    /// callers retry each of those as a batch of one (re-publishing a
    /// record that did reach the disk rewrites byte-identical bytes).
    pub fn publish_and_release_batch(&self, items: &[(&Lease, &[u8])]) -> Vec<Result<(), WqError>> {
        let mut out: Vec<Result<(), WqError>> = Vec::with_capacity(items.len());
        let mut reports: Vec<(PathBuf, PathBuf, Vec<u8>)> = Vec::new();
        let mut releases: Vec<(PathBuf, PathBuf, Vec<u8>)> = Vec::new();
        let mut verified: Vec<usize> = Vec::new();
        for (index, (lease, payload)) in items.iter().enumerate() {
            match self.verify_held(lease) {
                Ok(mut record) => {
                    reports.push((
                        self.staging.next(),
                        self.report_path(lease.seq, lease.token),
                        encode_report(lease.seq, lease.token, payload),
                    ));
                    record.released = true;
                    releases.push((
                        self.staging.next(),
                        self.lease_path(lease.seq, lease.token),
                        encode_lease(&record),
                    ));
                    verified.push(index);
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        if verified.is_empty() {
            return out;
        }
        if let Err(e) = write_durable_atomic(self.fs.as_ref(), &reports) {
            // Nothing in this batch is acknowledged: the caller retries.
            let kind = e.kind();
            let message = format!("batched report publish failed: {e}");
            for &index in &verified {
                out[index] = Err(WqError::Io(std::io::Error::new(kind, message.clone())));
            }
            return out;
        }
        // The reports are durable — every verified item is acknowledged
        // regardless of how the releases fare below.
        if write_durable_atomic(self.fs.as_ref(), &releases).is_ok() {
            // Each report now sits at a released generation: settled.
            let mut settled = self.settled.lock();
            settled.extend(verified.iter().map(|&index| items[index].0.seq));
        }
        out
    }

    // ---- reports -----------------------------------------------------

    /// The trusted report payload for a submission, if any. A report is
    /// trusted when its fencing token is the submission's current highest
    /// lease generation, **or** when the lease of its generation was
    /// cleanly *released* — release is itself fenced (it succeeds only
    /// while the lease is live and current), so a released generation
    /// proves its holder completed the protocol before any re-lease.
    /// Reports from superseded *unreleased* generations — a worker that
    /// stalled, lost its lease and wrote anyway — are ignored, as is
    /// anything whose digest fails.
    ///
    /// Reading refreshes this handle's settled set: a report trusted at a
    /// released generation settles the submission, and reading nothing
    /// trusted unsettles it.
    pub fn report(&self, seq: u64) -> Option<Vec<u8>> {
        // A failed probe or read reads as absent here; the claim path
        // sees the error instead.
        self.generations(seq)
            .and_then(|current| self.report_at(seq, current))
            .ok()
            .flatten()
    }

    /// [`report`](Self::report) against generations `1..=current` already
    /// probed by the caller. A failed read is `Err` and leaves the settled
    /// set as it was.
    fn report_at(&self, seq: u64, current: u64) -> std::io::Result<Option<Vec<u8>>> {
        for token in (1..=current).rev() {
            let Some(payload) = self
                .read_record(&self.report_path(seq, token), |bytes| {
                    decode_report_bytes(seq, token, bytes)
                })?
                .valid()
            else {
                continue;
            };
            let released = self
                .lease(seq, token)?
                .is_some_and(|record| record.released);
            if released {
                self.settled.lock().insert(seq);
            }
            if token == current || released {
                return Ok(Some(payload));
            }
        }
        self.settled.lock().remove(&seq);
        Ok(None)
    }

    /// Whether this handle knows `seq` is settled: its trusted report sits
    /// at a released generation. Cache only, no I/O.
    pub fn is_settled(&self, seq: u64) -> bool {
        self.settled.lock().contains(&seq)
    }

    /// Whether every valid submission has reached a terminal state: a
    /// trusted report, or a poison mark (poisoned work will never
    /// complete, so waiting on it would hang the fleet forever). A failed
    /// listing or submission read means "not drained": it proves nothing
    /// about the work behind it.
    pub fn drained(&self) -> bool {
        let Ok(seqs) = self.submission_seqs_checked() else {
            return false;
        };
        seqs.into_iter()
            .all(|seq| match self.submission_checked(seq) {
                Ok(Some(_)) => self.report(seq).is_some() || self.is_poisoned(seq),
                Ok(None) => true,
                Err(_) => false,
            })
    }

    // ---- poison marks ------------------------------------------------

    /// Durably marks a submission as poisoned so no process — including
    /// restarted workers and siblings that never saw the failure — ever
    /// leases it again. First marker wins (the mark is created
    /// exclusively); returns `true` if this call wrote the mark, `false`
    /// if one already existed. Reserved for failures that are provably
    /// machine-independent (an undecodable payload); transient failures
    /// should release the lease instead so another worker can retry.
    pub fn mark_poisoned(&self, seq: u64, holder: &str, reason: &str) -> std::io::Result<bool> {
        let record = encode_poison(seq, holder, reason);
        match create_durable_exclusive(
            self.fs.as_ref(),
            &self.staging.next(),
            &record,
            [self.poison_path(seq)],
        ) {
            Ok(_) => {
                self.fs.sync_dir(&self.root.join("poison"))?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Reads one submission's poison mark, digest-validated: `Ok(None)`
    /// when it is absent or corrupt, `Err` on any other read failure.
    fn poison(&self, seq: u64) -> std::io::Result<Option<PoisonMark>> {
        Ok(self
            .read_record(&self.poison_path(seq), |bytes| {
                decode_poison_bytes(seq, bytes)
            })?
            .valid())
    }

    /// Reads one submission's poison mark, digest-validated (`None` if
    /// absent or corrupt — a corrupt mark is dropped, and the submission
    /// becomes leasable again, which is safe: the worst case is
    /// re-diagnosing and re-marking the same failure). A failed read is
    /// also `None`. That is safe where it is asked: a claim reads the mark
    /// itself and refuses to lease on a fault, and "not poisoned" only
    /// keeps [`drained`](Self::drained) and a worker's backlog check
    /// waiting for the submission, never ends them early.
    pub fn poison_mark(&self, seq: u64) -> Option<PoisonMark> {
        self.poison(seq).ok().flatten()
    }

    /// Whether a valid poison mark exists for `seq`; a failed read is no
    /// mark (see [`poison_mark`](Self::poison_mark)).
    pub fn is_poisoned(&self, seq: u64) -> bool {
        self.poison_mark(seq).is_some()
    }

    // ---- worker stats ------------------------------------------------

    /// Publishes a worker's opaque counter blob (overwriting its previous
    /// one), so the driver can merge per-process stats into a fleet
    /// digest without shared memory. A holder that is empty, starts with
    /// `.` or contains a path separator is `InvalidInput`: the blob must
    /// land at exactly `workers/<holder>.stats`.
    pub fn publish_worker_stats(&self, holder: &str, payload: &[u8]) -> std::io::Result<()> {
        if holder.is_empty() || holder.starts_with('.') || holder.contains(['/', '\\']) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("worker name {holder:?} is not a plain file name"),
            ));
        }
        let record = frame::seal(&MAGIC_WORKER, |body| {
            wire::put_str(body, holder);
            wire::put_bytes(body, payload);
        });
        self.write_atomic(&self.root.join(format!("workers/{holder}.stats")), &record)
    }

    /// All valid worker-stats blobs, sorted by holder name, and how many
    /// reads failed (a failed listing counts once). Only a file named
    /// exactly `<holder>.stats` whose sealed body names the same holder
    /// counts, so a stray copy (`w1.stats.bak`, a file renamed to another
    /// worker's name) is never merged as a second worker; a worker whose
    /// read fails is counted as unreadable, never silently missing.
    pub fn worker_stats(&self) -> (Vec<(String, Vec<u8>)>, usize) {
        let Ok(names) = self.list("workers") else {
            return (Vec::new(), 1);
        };
        let mut out: Vec<(String, Vec<u8>)> = Vec::new();
        let mut unreadable = 0;
        for name in names {
            let Some(stem) = name.strip_suffix(".stats") else {
                continue;
            };
            let path = self.root.join("workers").join(&name);
            match self.read_record(&path, |bytes| decode_worker(stem, bytes)) {
                Ok(found) => out.extend(found.valid()),
                Err(_) => unreadable += 1,
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (out, unreadable)
    }

    // ---- accounting --------------------------------------------------

    /// Derives the queue digest from the directory state. Only bytes that
    /// read fine and fail decode count as a corrupt drop; a listing or
    /// read that fails counts as [`unreadable`](QueueStats::unreadable),
    /// and an unreadable submission still counts as enqueued.
    pub fn stats(&self) -> QueueStats {
        let mut stats = QueueStats::default();
        let mut seqs: Vec<u64> = Vec::new();
        match self.list("submissions") {
            Ok(names) => {
                for name in names {
                    let Some(seq) = parse_seq(&name, "sub-", ".spwq") else {
                        stats.corrupt_dropped += 1;
                        continue;
                    };
                    match self.submission_checked(seq) {
                        Ok(Some(_)) => seqs.push(seq),
                        Ok(None) => stats.corrupt_dropped += 1,
                        Err(_) => {
                            stats.unreadable += 1;
                            seqs.push(seq);
                        }
                    }
                }
            }
            Err(_) => stats.unreadable += 1,
        }
        stats.submissions = seqs.len();
        for &seq in &seqs {
            let Ok(current) = self.generations(seq) else {
                stats.unreadable += 1;
                continue;
            };
            stats.leases_issued += current as usize;
            stats.reclaims += current.saturating_sub(1) as usize;
            for token in 1..=current {
                let path = self.lease_path(seq, token);
                match self.read_record(&path, |bytes| decode_lease(seq, token, bytes)) {
                    Ok(Found::Corrupt) => stats.corrupt_dropped += 1,
                    Ok(_) => {}
                    Err(_) => stats.unreadable += 1,
                }
            }
            match self.report_at(seq, current) {
                Ok(report) => stats.completed += report.is_some() as usize,
                Err(_) => stats.unreadable += 1,
            }
            match self.poison(seq) {
                Ok(mark) => stats.poisoned += mark.is_some() as usize,
                Err(_) => stats.unreadable += 1,
            }
        }
        match self.list("quarantine") {
            Ok(names) => stats.quarantined = names.len(),
            Err(_) => stats.unreadable += 1,
        }
        // A quarantined record *is* a corrupt drop — relocation for
        // inspection doesn't un-drop it, so the counter that operators
        // alarm on keeps seeing it after the move.
        stats.corrupt_dropped += stats.quarantined;
        stats
    }

    /// File names (not paths) under one queue subdirectory, sorted.
    fn list(&self, sub: &str) -> std::io::Result<Vec<String>> {
        self.fs.read_dir_names(&self.root.join(sub))
    }
}

fn encode_submission(
    seq: u64,
    base_run_id: u64,
    total_runs: u64,
    origin: u64,
    payload: &[u8],
) -> Vec<u8> {
    frame::seal(&MAGIC_SUBMISSION, |body| {
        wire::put_u64(body, seq);
        wire::put_u64(body, base_run_id);
        wire::put_u64(body, total_runs);
        wire::put_u64(body, origin);
        wire::put_bytes(body, payload);
    })
}

fn decode_submission(seq: u64, bytes: &[u8]) -> Option<QueueSubmission> {
    let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_SUBMISSION, bytes)?);
    let recorded_seq = cursor.take_u64()?;
    let base_run_id = cursor.take_u64()?;
    let total_runs = cursor.take_u64()?;
    let origin = cursor.take_u64()?;
    let payload = cursor.take_bytes()?;
    (cursor.finished() && recorded_seq == seq).then_some(QueueSubmission {
        seq,
        base_run_id,
        total_runs,
        origin,
        payload,
    })
}

fn encode_lease(record: &LeaseRecord) -> Vec<u8> {
    frame::seal(&MAGIC_LEASE, |body| {
        wire::put_u64(body, record.seq);
        wire::put_u64(body, record.token);
        wire::put_str(body, &record.holder);
        wire::put_u64(body, record.acquired_at);
        wire::put_u64(body, record.expires_at);
        wire::put_u8(body, record.released as u8);
    })
}

/// Decodes (digest-validating) one lease record. The `released` flag must
/// be 0 or 1, so that a decoded record re-encodes to the bytes it came
/// from.
fn decode_lease(seq: u64, token: u64, bytes: &[u8]) -> Option<LeaseRecord> {
    let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_LEASE, bytes)?);
    let record = LeaseRecord {
        seq: cursor.take_u64()?,
        token: cursor.take_u64()?,
        holder: cursor.take_str()?,
        acquired_at: cursor.take_u64()?,
        expires_at: cursor.take_u64()?,
        released: match cursor.take_u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
    };
    (cursor.finished() && record.seq == seq && record.token == token).then_some(record)
}

fn encode_report(seq: u64, token: u64, payload: &[u8]) -> Vec<u8> {
    frame::seal(&MAGIC_REPORT, |body| {
        wire::put_u64(body, seq);
        wire::put_u64(body, token);
        wire::put_bytes(body, payload);
    })
}

/// Decodes (digest-validating) one report record's bytes.
fn decode_report_bytes(seq: u64, token: u64, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_REPORT, bytes)?);
    let recorded_seq = cursor.take_u64()?;
    let recorded_token = cursor.take_u64()?;
    let payload = cursor.take_bytes()?;
    (cursor.finished() && recorded_seq == seq && recorded_token == token).then_some(payload)
}

fn encode_poison(seq: u64, holder: &str, reason: &str) -> Vec<u8> {
    frame::seal(&MAGIC_POISON, |body| {
        wire::put_u64(body, seq);
        wire::put_str(body, holder);
        wire::put_str(body, reason);
    })
}

fn decode_poison_bytes(seq: u64, bytes: &[u8]) -> Option<PoisonMark> {
    let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_POISON, bytes)?);
    let recorded_seq = cursor.take_u64()?;
    let holder = cursor.take_str()?;
    let reason = cursor.take_str()?;
    (cursor.finished() && recorded_seq == seq).then_some(PoisonMark {
        seq,
        holder,
        reason,
    })
}

/// Decodes one worker-stats record filed as `<stem>.stats`: its holder
/// and opaque payload, when the sealed body names that same holder.
fn decode_worker(stem: &str, bytes: &[u8]) -> Option<(String, Vec<u8>)> {
    let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_WORKER, bytes)?);
    let holder = cursor.take_str()?;
    let payload = cursor.take_bytes()?;
    (cursor.finished() && holder == stem).then_some((holder, payload))
}

/// Parses `sub-<seq>.g<token>.rep` report file names.
fn parse_report_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("sub-")?.strip_suffix(".rep")?;
    let (seq, token) = rest.split_once(".g")?;
    Some((seq.parse().ok()?, token.parse().ok()?))
}

/// Parses `<prefix><number><suffix>` file names back to their number.
pub(crate) fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, ForcedFault, RecordingFs};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Seals `body` in the `magic` frame.
    fn encode_record(magic: &[u8; 4], body: &[u8]) -> Vec<u8> {
        frame::seal(magic, |out| out.extend_from_slice(body))
    }

    /// The body of a sealed `magic` frame, copied out.
    fn decode_record(magic: &[u8; 4], bytes: &[u8]) -> Option<Vec<u8>> {
        frame::unseal(magic, bytes).map(<[u8]>::to_vec)
    }

    /// A settable clock for deterministic lease-expiry tests.
    pub(crate) struct TestClock(pub AtomicU64);

    impl TimeSource for TestClock {
        fn now_secs(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    /// Publishes and releases one lease as a batch of one, returning its
    /// verdict.
    fn flush(q: &WorkQueue, lease: &Lease, payload: &[u8]) -> Result<(), WqError> {
        q.publish_and_release_batch(&[(lease, payload)]).remove(0)
    }

    /// Commits a report under `lease` and leaves the lease unreleased:
    /// the state a fault between the two halves of a batch flush leaves
    /// behind. Fenced like a flush item.
    fn publish_unreleased(q: &WorkQueue, lease: &Lease, payload: &[u8]) -> Result<(), WqError> {
        q.verify_held(lease)?;
        let record = encode_report(lease.seq, lease.token, payload);
        q.write_atomic(&q.report_path(lease.seq, lease.token), &record)?;
        Ok(())
    }

    fn queue(lease_secs: u64) -> (WorkQueue, Arc<TestClock>, PathBuf) {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sp-wq-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::SeqCst)
        ));
        let clock = Arc::new(TestClock(AtomicU64::new(1_000)));
        let q = WorkQueue::open_with_time(&dir, lease_secs, clock.clone()).unwrap();
        (q, clock, dir)
    }

    #[test]
    fn submit_roundtrip_and_ordering() {
        let (q, _clock, dir) = queue(60);
        let a = q.submit(b"plan-a", 100, 5, 7_000).unwrap();
        let b = q.submit(b"plan-b", 105, 3, 7_000).unwrap();
        assert!(a < b);
        assert_eq!(q.submission_seqs_checked().unwrap(), vec![a, b]);
        let read = |seq| q.submission_checked(seq).unwrap().unwrap();
        let (sub_a, sub_b) = (read(a), read(b));
        assert_eq!(sub_a.payload, b"plan-a");
        assert_eq!(sub_a.base_run_id, 100);
        assert_eq!(sub_a.total_runs, 5);
        assert_eq!(sub_b.origin, 7_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_publish_release_completes_work() {
        let (q, _clock, dir) = queue(60);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let lease = q.lease_next("w1").unwrap().expect("claimable");
        assert_eq!(lease.seq, seq);
        assert_eq!(lease.token, 1);
        // Held live: nobody else can claim it.
        assert!(q.lease_next("w2").unwrap().is_none());
        flush(&q, &lease, b"result").unwrap();
        assert_eq!(q.report(seq).unwrap(), b"result");
        assert!(q.drained());
        // Complete: not claimable again.
        assert!(q.lease_next("w2").unwrap().is_none());
        let stats = q.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.leases_issued, 1);
        assert_eq!(stats.reclaims, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `hook` once, right after the first read of a report file
    /// that does not exist yet: the moment a claimer has just concluded
    /// the submission is incomplete.
    struct AfterMissingReport {
        hook: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl StoreFs for AfterMissingReport {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            let result = OsFs.read(path);
            if result.is_err() && path.parent().is_some_and(|p| p.ends_with("reports")) {
                if let Some(hook) = self.hook.lock().take() {
                    hook();
                }
            }
            result
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            OsFs.write(path, bytes)
        }
        fn sync_file(&self, path: &Path) -> std::io::Result<()> {
            OsFs.sync_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            OsFs.rename(from, to)
        }
        fn hard_link(&self, src: &Path, dst: &Path) -> std::io::Result<()> {
            OsFs.hard_link(src, dst)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            OsFs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            OsFs.create_dir_all(path)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            OsFs.sync_dir(dir)
        }
        fn read_dir_names(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            OsFs.read_dir_names(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            OsFs.exists(path)
        }
    }

    #[test]
    fn publish_and_release_during_a_claim_issues_no_generation() {
        let (q, clock, dir) = queue(60);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let lease = q.lease_next("w1").unwrap().expect("claimable");
        // w1 publishes and releases just after w2 found no report.
        let holder = WorkQueue::open_with_time(&dir, 60, clock.clone()).unwrap();
        let fs = AfterMissingReport {
            hook: parking_lot::Mutex::new(Some(Box::new(move || {
                flush(&holder, &lease, b"result").unwrap();
            }))),
        };
        let racer = WorkQueue::open_with(&dir, 60, clock, Arc::new(fs)).unwrap();
        assert!(racer.lease_next("w2").unwrap().is_none(), "work is done");
        assert!(racer.fs.exists(&racer.report_path(seq, 1)), "hook ran");
        let stats = q.stats();
        assert_eq!((stats.leases_issued, stats.reclaims), (1, 0));
        assert_eq!(q.report(seq).unwrap(), b"result");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_poison_mark_read_never_leases_poisoned_work() {
        let (q, clock, dir) = queue(60);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        assert!(q.mark_poisoned(seq, "w1", "payload undecodable").unwrap());
        let fs = Arc::new(RecordingFs::default());
        let flaky = WorkQueue::open_with(&dir, 60, clock, fs.clone()).unwrap();
        *fs.fail.lock() = Some(q.poison_path(seq));
        // The mark cannot be read: claiming must surface that or lease
        // nothing, never lease the poisoned submission.
        match flaky.lease_next("w2") {
            Err(err) => assert_eq!(err.raw_os_error(), Some(5)),
            Ok(lease) => assert_eq!(lease, None),
        }
        *fs.fail.lock() = None;
        assert_eq!(flaky.lease_next("w2").unwrap(), None);
        assert_eq!(q.stats().leases_issued, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_generation_probe_is_an_error_not_absence() {
        let (q, clock, dir) = queue(60);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let mut lease = q.lease_next("w1").unwrap().expect("claimable");
        publish_unreleased(&q, &lease, b"result").unwrap();
        let fs = Arc::new(RecordingFs::default());
        let flaky = WorkQueue::open_with(&dir, 60, clock.clone(), fs.clone()).unwrap();
        *fs.fail.lock() = Some(q.lease_path(seq, 1));
        // The probe cannot tell whether generation 1 exists: claiming
        // must surface that, not issue generation 1 again.
        let err = flaky.lease_next("w2").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        *fs.fail.lock() = Some(q.lease_path(seq, 2));
        assert!(matches!(flaky.renew(&mut lease), Err(WqError::Io(_))));
        assert!(matches!(flaky.release(&lease), Err(WqError::Io(_))));
        *fs.fail.lock() = None;
        flaky.release(&lease).unwrap();
        assert_eq!(flaky.report(seq).unwrap(), b"result");
        assert_eq!(q.stats().leases_issued, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flips one byte of `sub-<seq>.spwq` and reopens the queue, whose
    /// open-time sweep quarantines the submission.
    fn quarantine_submission(dir: &Path, seq: u64) {
        let path = dir.join(format!("submissions/sub-{seq:08}.spwq"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        WorkQueue::open(dir, 60).unwrap();
        assert!(!path.exists(), "the sweep quarantined sub-{seq}");
    }

    #[test]
    fn a_new_submission_never_reuses_a_quarantined_number() {
        let (q, _clock, dir) = queue(60);
        q.submit(b"one", 1, 1, 0).unwrap();
        let two = q.submit(b"two", 2, 1, 0).unwrap();
        let lease = q.try_lease_batch("w1", 1, |seq| seq == two).unwrap();
        flush(&q, &lease[0], b"old-report-for-two").unwrap();
        quarantine_submission(&dir, two);
        // Number 2 is burned: its lease and report outlive the record.
        let three = q.submit(b"three", 3, 1, 0).unwrap();
        assert_eq!(three, 3);
        assert_eq!(q.report(three), None);
        assert_eq!(q.submission_checked(two).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_submit_past_burned_numbers_probes_them_and_stages_once() {
        let (q, clock, dir) = queue(60);
        for i in 1..=3_u8 {
            q.submit(&[i], 1, 1, 0).unwrap();
        }
        assert_eq!(q.try_lease_batch("w1", 3, |_| true).unwrap().len(), 3);
        for seq in [2, 3] {
            quarantine_submission(&dir, seq);
        }
        let fs = Arc::new(RecordingFs::default());
        let recorded = WorkQueue::open_with(&dir, 60, clock, fs.clone()).unwrap();
        fs.take();
        assert_eq!(recorded.submit(b"four", 4, 1, 0).unwrap(), 4);
        assert_eq!(
            fs.take(),
            [
                "read_dir_names",
                "read",
                "read",
                "read",
                "write",
                "sync_file",
                "hard_link",
                "remove_file",
                "sync_dir"
            ],
            "one exact-path probe per number, one staged record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_submissions_listing_fails_submit_and_creates_nothing() {
        let (q, clock, dir) = queue(60);
        q.submit(b"one", 1, 1, 0).unwrap();
        let fs = Arc::new(FaultFs::over_os(crate::vfs::FaultConfig::default()));
        let flaky = WorkQueue::open_with(&dir, 60, clock, fs.clone()).unwrap();
        let listing = |sub: &str| OsFs.read_dir_names(&dir.join(sub)).unwrap();
        let before = (listing("submissions"), listing("tmp"));
        fs.fail_nth_read(1, ForcedFault::Eio);
        let err = flaky.submit(b"two", 2, 1, 0).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!((listing("submissions"), listing("tmp")), before);
        assert_eq!(flaky.submit(b"two", 2, 1, 0).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reads_count_as_unreadable_never_as_absence() {
        let (q, clock, dir) = queue(60);
        q.submit(b"one", 1, 1, 0).unwrap();
        q.publish_worker_stats("w1", b"aaa").unwrap();
        q.publish_worker_stats("w2", b"bbb").unwrap();
        let fs = Arc::new(FaultFs::over_os(crate::vfs::FaultConfig::default()));
        let flaky = WorkQueue::open_with(&dir, 60, clock, fs.clone()).unwrap();
        // Read 1 lists workers/, read 2 is w1.stats.
        fs.fail_nth_read(2, ForcedFault::Eio);
        assert_eq!(
            flaky.worker_stats(),
            (vec![("w2".to_string(), b"bbb".to_vec())], 1)
        );
        // Read 1 lists submissions/, read 2 is sub-1, read 3 probes its
        // first lease generation.
        fs.fail_nth_read(3, ForcedFault::Eio);
        let stats = flaky.stats();
        assert_eq!((stats.submissions, stats.unreadable), (1, 1));
        assert_eq!(flaky.stats(), q.stats(), "the fault was transient");
        assert_eq!(q.stats().unreadable, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_a_released_generation_settles_its_report() {
        let (q, _clock, dir) = queue(30);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let lease = q.lease_next("w1").unwrap().expect("claimable");
        publish_unreleased(&q, &lease, b"result").unwrap();
        assert_eq!(q.report(seq).unwrap(), b"result");
        // A later generation could still supersede an unreleased one.
        assert!(!q.is_settled(seq));
        q.release(&lease).unwrap();
        assert_eq!(q.report(seq).unwrap(), b"result");
        assert!(q.is_settled(seq));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Highest lease generation of `seq` per a listing of `leases/`,
    /// asserting the generations are dense.
    fn listed_generations(dir: &Path, seq: u64) -> u64 {
        let prefix = format!("sub-{seq:08}.g");
        let mut tokens: Vec<u64> = OsFs
            .read_dir_names(&dir.join("leases"))
            .unwrap()
            .iter()
            .filter_map(|name| parse_seq(name, &prefix, ""))
            .collect();
        tokens.sort_unstable();
        assert!(
            tokens.iter().copied().eq(1..=tokens.len() as u64),
            "dense: {tokens:?}"
        );
        tokens.len() as u64
    }

    #[test]
    fn probed_generations_and_settled_work_match_a_listing_oracle() {
        for seed in [1_u64, 7, 2013] {
            let (first, clock, dir) = queue(30);
            let seqs: Vec<u64> = (0..6)
                .map(|i| first.submit(&[i], 1, 1, 0).unwrap())
                .collect();
            let mut handles = vec![first];
            for _ in 0..2 {
                handles.push(WorkQueue::open_with_time(&dir, 30, clock.clone()).unwrap());
            }
            let mut held: Vec<Lease> = Vec::new();
            let mut state = seed;
            let mut draw = |n: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % n
            };
            for _ in 0..150 {
                let q = &handles[draw(handles.len())];
                let pick = if held.is_empty() {
                    None
                } else {
                    Some(draw(held.len()))
                };
                match (draw(8), pick) {
                    (0 | 6, _) => {
                        let holder = format!("w{}", draw(3));
                        held.extend(q.lease_next(&holder).unwrap());
                    }
                    (1, _) => {
                        clock.0.fetch_add(16, Ordering::SeqCst);
                    }
                    // A renewal the protocol refuses drops the lease.
                    (2, Some(i)) if q.renew(&mut held[i]).is_err() => {
                        held.swap_remove(i);
                    }
                    (3, Some(i)) => {
                        let lease = held.swap_remove(i);
                        let _ = flush(q, &lease, b"report");
                    }
                    (4, Some(i)) => {
                        let _ = q.release(&held.swap_remove(i));
                    }
                    (5, _) => {
                        let names = OsFs.read_dir_names(&dir.join("leases")).unwrap();
                        if !names.is_empty() {
                            let victim = dir.join("leases").join(&names[draw(names.len())]);
                            let bytes = std::fs::read(&victim).unwrap();
                            std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
                        }
                    }
                    // Published, then the holder stalls before releasing.
                    (7, Some(i)) => {
                        let _ = publish_unreleased(q, &held[i], b"unreleased");
                    }
                    _ => {}
                }
                let fresh = WorkQueue::open_with_time(&dir, 30, clock.clone()).unwrap();
                for q in &handles {
                    for &seq in &seqs {
                        assert_eq!(q.generations(seq).unwrap(), listed_generations(&dir, seq));
                        if q.is_settled(seq) {
                            assert!(fresh.report(seq).is_some(), "settled {seq} is complete");
                        }
                        assert_eq!(q.report(seq), fresh.report(seq));
                    }
                    assert_eq!(q.drained(), fresh.drained());
                    assert_eq!(q.stats(), fresh.stats());
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Drains `depth` submissions with two handles whose claims and
    /// publishes interleave, returning the reads per drained submission.
    fn reads_per_drained(depth: usize) -> f64 {
        let (q, clock, dir) = queue(60);
        for i in 0..depth {
            q.submit(&i.to_le_bytes(), 1, 1, 0).unwrap();
        }
        let fs = Arc::new(RecordingFs::default());
        let handles: Vec<WorkQueue> = (0..2)
            .map(|_| WorkQueue::open_with(&dir, 60, clock.clone(), fs.clone()).unwrap())
            .collect();
        // Count only the drain, not the open-time sweeps.
        fs.take();
        let mut drained = 0;
        loop {
            let claims: Vec<Vec<Lease>> = handles
                .iter()
                .enumerate()
                .map(|(w, h)| h.try_lease_batch(&format!("w{w}"), 4, |_| true).unwrap())
                .collect();
            if claims.iter().all(Vec::is_empty) {
                break;
            }
            for (h, leases) in handles.iter().zip(&claims) {
                let items: Vec<(&Lease, &[u8])> =
                    leases.iter().map(|l| (l, b"report".as_slice())).collect();
                for verdict in h.publish_and_release_batch(&items) {
                    verdict.unwrap();
                    drained += 1;
                }
            }
        }
        assert_eq!(drained, depth);
        let ops = fs.take_ops();
        let lists_of = |sub: &str| {
            ops.iter()
                .filter(|(op, dir)| *op == "read_dir_names" && dir.ends_with(sub))
                .count()
        };
        assert_eq!(lists_of("leases"), 0, "claims list no leases/");
        assert_eq!(lists_of("reports"), 0, "claims list no reports/");
        let reads = ops.iter().filter(|(op, _)| *op == "read").count();
        assert!(handles.iter().all(WorkQueue::drained));
        std::fs::remove_dir_all(&dir).ok();
        reads as f64 / depth as f64
    }

    #[test]
    fn claim_cost_per_submission_does_not_grow_with_backlog_depth() {
        let shallow = reads_per_drained(20);
        let deep = reads_per_drained(100);
        assert!(
            deep <= shallow + 2.0,
            "reads per drained: {shallow} at 20, {deep} at 100"
        );
    }

    #[test]
    fn expired_lease_is_reclaimed_under_next_generation() {
        let (q, clock, dir) = queue(30);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let dead = q.lease_next("w1").unwrap().expect("claimable");
        // w1 crashes; its lease runs out.
        clock.0.fetch_add(31, Ordering::SeqCst);
        let fresh = q.lease_next("w2").unwrap().expect("reclaimable");
        assert_eq!(fresh.seq, seq);
        assert_eq!(fresh.token, 2, "next fencing generation");
        // The zombie cannot publish under its superseded token...
        assert!(matches!(
            flush(&q, &dead, b"stale"),
            Err(WqError::StaleLease {
                held: 1,
                current: 2,
                ..
            })
        ));
        // ...and the fresh holder completes normally.
        flush(&q, &fresh, b"good").unwrap();
        assert_eq!(q.report(seq).unwrap(), b"good");
        assert_eq!(q.stats().reclaims, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_extends_a_live_lease() {
        let (q, clock, dir) = queue(30);
        q.submit(b"work", 1, 1, 0).unwrap();
        let mut lease = q.lease_next("w1").unwrap().unwrap();
        let first_expiry = lease.expires_at;
        clock.0.fetch_add(20, Ordering::SeqCst);
        q.renew(&mut lease).unwrap();
        assert!(lease.expires_at > first_expiry);
        // Renewed: still not claimable 25 s later.
        clock.0.fetch_add(25, Ordering::SeqCst);
        assert!(q.lease_next("w2").unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_report_from_superseded_generation_is_ignored() {
        let (q, clock, dir) = queue(30);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let zombie = q.lease_next("w1").unwrap().unwrap();
        clock.0.fetch_add(30, Ordering::SeqCst); // boundary: dead
        let live = q.lease_next("w2").unwrap().unwrap();
        // Force-write a report file under the zombie's token, bypassing
        // the protocol (simulating a stale commit that raced through).
        let mut body = Vec::new();
        wire::put_u64(&mut body, seq);
        wire::put_u64(&mut body, zombie.token);
        wire::put_bytes(&mut body, b"stale");
        std::fs::write(
            q.report_path(seq, zombie.token),
            encode_record(&MAGIC_REPORT, &body),
        )
        .unwrap();
        // Fencing at read time: the zombie report is not the current
        // generation, so the submission still reads as incomplete.
        assert!(q.report(seq).is_none());
        flush(&q, &live, b"good").unwrap();
        assert_eq!(q.report(seq).unwrap(), b"good");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renew_extends_and_reports_the_new_expiry() {
        let (q, clock, dir) = queue(30);
        q.submit(b"work", 1, 1, 0).unwrap();
        let mut lease = q.lease_next("w1").unwrap().unwrap();
        clock.0.fetch_add(10, Ordering::SeqCst);
        let expiry = q.renew(&mut lease).unwrap();
        assert_eq!(expiry, 1_010 + 30);
        assert_eq!(lease.expires_at, expiry);
        // now_secs is the same clock the queue judges expiry by.
        assert_eq!(q.now_secs(), 1_010);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poison_mark_roundtrip_and_lease_refusal() {
        let (q, _clock, dir) = queue(60);
        let seq = q.submit(b"undecodable", 1, 1, 0).unwrap();
        assert!(!q.is_poisoned(seq));
        assert!(q.mark_poisoned(seq, "w1", "payload undecodable").unwrap());
        // First marker wins; re-marking is a no-op, not an error.
        assert!(!q.mark_poisoned(seq, "w2", "same diagnosis").unwrap());
        let mark = q.poison_mark(seq).unwrap();
        assert_eq!(mark.holder, "w1");
        assert_eq!(mark.reason, "payload undecodable");
        // Poisoned work is never leased again, and the backlog still
        // reads as drained (poison is terminal).
        assert!(q.lease_next("w3").unwrap().is_none());
        assert!(q.drained());
        assert_eq!(q.stats().poisoned, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_poison_mark_is_dropped_and_work_re_leasable() {
        let (q, _clock, dir) = queue(60);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        q.mark_poisoned(seq, "w1", "bad").unwrap();
        let path = q.poison_path(seq);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // The corrupt mark is never trusted: the submission reads
        // unpoisoned and can be leased (worst case: re-diagnosed).
        assert!(!q.is_poisoned(seq));
        assert_eq!(q.stats().poisoned, 0);
        assert!(q.lease_next("w2").unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_stats_roundtrip() {
        let (q, _clock, dir) = queue(60);
        q.publish_worker_stats("w2", b"bbb").unwrap();
        q.publish_worker_stats("w1", b"aaa").unwrap();
        q.publish_worker_stats("w1", b"aaa2").unwrap(); // overwrite
        let (stats, unreadable) = q.worker_stats();
        assert_eq!((stats.len(), unreadable), (2, 0));
        assert_eq!(stats[0], ("w1".to_string(), b"aaa2".to_vec()));
        assert_eq!(stats[1], ("w2".to_string(), b"bbb".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_stats_ignore_stray_copies() {
        let (q, _clock, dir) = queue(60);
        q.publish_worker_stats("w1", b"aaa").unwrap();
        let workers = dir.join("workers");
        // A backup copy, and a copy renamed to another worker's name: the
        // sealed body names w1 in both, so neither is a second worker.
        std::fs::copy(workers.join("w1.stats"), workers.join("w1.stats.bak")).unwrap();
        std::fs::copy(workers.join("w1.stats"), workers.join("w2.stats")).unwrap();
        assert_eq!(
            q.worker_stats(),
            (vec![("w1".to_string(), b"aaa".to_vec())], 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_stats_holder_must_be_a_plain_file_name() {
        let (q, _clock, dir) = queue(60);
        for holder in ["../leases/x", "", ".hidden", "a/b", "a\\b"] {
            let err = q.publish_worker_stats(holder, b"aaa").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{holder:?}");
        }
        assert!(!dir.join("leases/x.stats").exists());
        assert!(q.worker_stats().0.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_framing_rejects_tampering() {
        let record = encode_record(&MAGIC_SUBMISSION, b"body-bytes");
        assert_eq!(
            decode_record(&MAGIC_SUBMISSION, &record).unwrap(),
            b"body-bytes"
        );
        // Wrong magic, truncation, bit flips: all dropped.
        assert!(decode_record(&MAGIC_LEASE, &record).is_none());
        assert!(decode_record(&MAGIC_SUBMISSION, &record[..record.len() - 1]).is_none());
        for i in 0..record.len() {
            let mut flipped = record.clone();
            flipped[i] ^= 0x01;
            assert!(
                decode_record(&MAGIC_SUBMISSION, &flipped).is_none(),
                "flip at {i} must invalidate"
            );
        }
        assert!(decode_record(&MAGIC_SUBMISSION, b"").is_none());
    }

    #[test]
    fn lease_with_released_byte_other_than_0_or_1_is_dropped() {
        let (q, _clock, dir) = queue(30);
        let seq = q.submit(b"work", 1, 1, 0).unwrap();
        let lease = q.lease_next("w1").unwrap().unwrap();
        let path = q.lease_path(seq, lease.token);
        let mut body = decode_record(&MAGIC_LEASE, &std::fs::read(&path).unwrap()).unwrap();
        *body.last_mut().unwrap() = 2;
        std::fs::write(&path, encode_record(&MAGIC_LEASE, &body)).unwrap();
        assert!(matches!(q.lease(seq, lease.token), Ok(None)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The valid body, every truncation, every single-bit flip, `u32::MAX`
    /// stamped at every offset, one trailing byte, and random bodies.
    fn body_variants(body: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..=body.len()).map(|at| body[..at].to_vec()).collect();
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            out.push(flipped);
        }
        for at in 0..body.len() {
            let mut stamped = body.to_vec();
            let end = (at + 4).min(body.len());
            stamped[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
            out.push(stamped);
        }
        out.push([body, &[0]].concat());
        let mut state = 0x2013_1029_u64;
        for len in 0..64 {
            out.push(
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 56) as u8
                    })
                    .collect(),
            );
        }
        out
    }

    /// Re-seals every variant of `valid`'s body so the body parser is
    /// reached: each must be rejected or re-encode to exactly its input.
    fn assert_total<T>(
        magic: &[u8; 4],
        valid: &[u8],
        decode: impl Fn(&[u8]) -> Option<T>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) {
        let body = decode_record(magic, valid).expect("a valid record");
        let mut accepted = 0;
        for variant in body_variants(&body) {
            let record = encode_record(magic, &variant);
            if let Some(value) = decode(&record) {
                assert_eq!(encode(&value), record, "non-canonical body {variant:?}");
                accepted += 1;
            }
        }
        assert!(accepted > 0, "the valid body decodes");
    }

    #[test]
    fn record_body_decoders_are_total() {
        let lease = LeaseRecord {
            seq: 3,
            token: 2,
            holder: "w1".into(),
            acquired_at: 1_000,
            expires_at: 1_030,
            released: true,
        };
        assert_total(
            &MAGIC_LEASE,
            &encode_lease(&lease),
            |bytes| decode_lease(3, 2, bytes),
            encode_lease,
        );
        assert_total(
            &MAGIC_SUBMISSION,
            &encode_submission(3, 100, 5, 7_000, b"plan"),
            |bytes| decode_submission(3, bytes),
            |s| encode_submission(s.seq, s.base_run_id, s.total_runs, s.origin, &s.payload),
        );
        assert_total(
            &MAGIC_REPORT,
            &encode_report(3, 2, b"report"),
            |bytes| decode_report_bytes(3, 2, bytes),
            |payload| encode_report(3, 2, payload),
        );
        assert_total(
            &MAGIC_POISON,
            &encode_poison(3, "w1", "undecodable plan"),
            |bytes| decode_poison_bytes(3, bytes),
            |mark| encode_poison(mark.seq, &mark.holder, &mark.reason),
        );
    }
}
