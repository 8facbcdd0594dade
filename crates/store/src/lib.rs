//! # sp-store — the common storage of the sp-system
//!
//! The validation framework described by Ozerov & South (arXiv:1310.7814)
//! relies on a *common storage* shared by every client machine: the only
//! requirement for a new client (virtual machine, batch or grid worker node)
//! is "to have access to the common sp-system storage where the tests from
//! the experiments as well as the test results are stored".
//!
//! This crate provides that substrate:
//!
//! * [`sha256`] — a self-contained SHA-256 implementation used for content
//!   addressing, the only digest written to disk (kept in-crate to avoid a cryptography dependency; verified
//!   against the NIST test vectors), with a SHA-NI kernel picked at run
//!   time where the CPU has one and the portable scalar kernel elsewhere.
//! * [`object`] — [`ObjectId`] content addresses.
//! * [`content`] — [`ContentStore`], an integrity-checked object store.
//! * [`run_memo`] — [`Memo`], the one memo map (a std `HashMap` with
//!   hit/miss counters and a single validated lookup, [`Memo::serve`]),
//!   and [`RunMemo`], its cell-level use keyed by test, seed, environment
//!   revision and scale, so unchanged validation cells replay their
//!   conserved outputs instead of re-executing chains.
//! * [`digest_cache`] — [`DigestCache`], the same map keyed by package
//!   revision, so unchanged artifacts are not re-packed and re-hashed on
//!   every nightly firing.
//! * [`archive`] — the `SPAR` archive format standing in for the tar-balls
//!   in which compiled package binaries are conserved.
//! * [`shared`] — [`SharedStorage`], the façade every sp-system client
//!   mounts, with the areas the paper describes (artifacts, tests, results,
//!   images), one name → content-address map per area, and the "few shell
//!   variables" interface ([`shared::ShellEnv`]).
//! * [`vault`] — write-once conservation of the *last working image*
//!   (workflow phase iv).
//! * [`retention`] — retention policies over stored runs, with a
//!   [`retention::TimeSource`] so simulated deployments prune in
//!   simulated time.
//! * [`snapshot`] — the versioned `SPWS` warm-state snapshot format:
//!   memo and digest-cache entries conserved alongside the exported
//!   storage, digest-guarded so a restarted system never trusts a
//!   corrupted entry.
//! * [`frame`] — the one sealed frame (magic, version, body, SHA-256)
//!   around every queue record, run-log batch and metrics snapshot.
//! * [`vfs`] — the injectable filesystem under every durable path:
//!   [`StoreFs`] with the production [`OsFs`] (full fsync discipline) and
//!   the deterministic fault-injecting [`FaultFs`] (EIO/ENOSPC, torn
//!   writes, enumerated crash points) plus the crash-point sweep harness.
//! * [`wq`] — the durable multi-process work queue over a storage
//!   directory: digest-guarded submissions, lease generations with
//!   heartbeat/expiry, and fencing tokens so a stalled worker whose lease
//!   was re-issued can never commit stale results.
//! * [`run_log`] — the append-only `SPRL` run-history log next to the
//!   queue: one digest-guarded batch file per append of validated cell
//!   outcomes, created by the queue's staged create, so run history
//!   survives restarts byte-identically.
//!
//! ## Example
//!
//! ```
//! use sp_store::ContentStore;
//!
//! let store = ContentStore::new();
//! let id = store.put(b"validation output".to_vec());
//! // Identical content deduplicates to the same object id.
//! assert_eq!(store.put(b"validation output".to_vec()), id);
//! assert_eq!(store.get(id).unwrap().to_vec(), b"validation output");
//! ```

pub mod archive;
pub mod content;
pub mod digest_cache;
pub mod fnv;
pub mod frame;
mod meta;
pub mod object;
pub mod retention;
pub mod run_log;
pub mod run_memo;
pub mod sha256;
pub mod shared;
pub mod snapshot;
pub mod vault;
pub mod vfs;
pub mod wq;

pub use archive::{Archive, ArchiveEntry};
pub use content::ContentStore;
pub use digest_cache::DigestCache;
pub use fnv::fnv64;
pub use object::ObjectId;
pub use retention::{RetentionPolicy, TimeSource};
pub use run_log::{CellRecord, RunLog, RunLogReplay};
pub use run_memo::{DigestCacheStats, Memo, RunKey, RunMemo};
pub use shared::{ExportSummary, ImportSummary, SharedStorage, StorageArea};
pub use snapshot::{Snapshot, SnapshotError, SnapshotLoadReport, SnapshotSection};
pub use vault::{FrozenImage, FrozenVault};
pub use vfs::{
    create_durable_exclusive, standard_crash_sweep, write_durable_atomic, CommittedHistory,
    CrashSweepOutcome, FaultConfig, FaultFs, FixedClock, ForcedFault, OsFs, StoreFs,
};
pub use wq::{
    Lease, PoisonMark, QueueStats, QueueSubmission, SystemTimeSource, WorkQueue, WqError,
};

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The requested object does not exist in the store.
    NotFound(ObjectId),
    /// Stored bytes no longer hash to their object id.
    Corrupt {
        /// Id under which the object was stored.
        expected: ObjectId,
        /// Hash of the bytes actually found.
        actual: ObjectId,
    },
    /// An archive could not be decoded.
    BadArchive(String),
    /// A frozen image with this label already exists (the vault is
    /// write-once: conserving a "last working image" must never clobber a
    /// previous conservation).
    AlreadyFrozen(String),
    /// No frozen image with this label exists.
    NotFrozen(String),
    /// An archive entry path was rejected (empty, absolute, containing
    /// `..` components, or longer than 65,535 bytes).
    BadPath(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::Corrupt { expected, actual } => {
                write!(f, "object {expected} is corrupt (hashes to {actual})")
            }
            StoreError::BadArchive(msg) => write!(f, "bad archive: {msg}"),
            StoreError::AlreadyFrozen(label) => {
                write!(f, "image '{label}' is already conserved in the vault")
            }
            StoreError::NotFrozen(label) => write!(f, "no frozen image '{label}'"),
            StoreError::BadPath(p) => write!(f, "illegal archive path '{p}'"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StoreError>;
