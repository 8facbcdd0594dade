//! The durable `SPRL` run log: an append-only history of every cell
//! outcome the fleet has ever produced.
//!
//! The work queue records *current* state — a report file per campaign,
//! replaced wholesale, with no memory of when each cell ran, who ran it,
//! or under which lease generation. The run log is the orthogonal,
//! history-preserving record: each validated cell outcome becomes one
//! digest-guarded `SPRL` record streamed through the same
//! [`StoreFs`] seam as the queue, living right next
//! to it (by convention `<store>/runlog/`).
//!
//! ## Durability posture
//!
//! Appends follow the queue's stage→fsync→link discipline exactly: the
//! framed record is staged under `tmp/<pid>-<counter>`, `fsync`ed, then
//! hard-linked to its final `cells/cell-<seq>.sprl` name (the hard link
//! arbitrates concurrent appenders — `AlreadyExists` means another
//! process won that sequence number and the appender retries the next
//! one), and the `cells/` directory is synced before the append returns.
//! Batch appends defer the directory sync to one call for the whole
//! batch. A crash at any point leaves each record either fully committed
//! or absent — never torn: a torn or tampered record fails its SHA-256
//! digest at replay and is **dropped and counted, never misread**.
//!
//! ## Idempotency
//!
//! Workers append cell records *before* publishing the campaign report,
//! so a published report always has its history logged. The cost is that
//! a worker fenced at publish time leaves records for an execution the
//! queue rejected — but cell content is derived deterministically from
//! the campaign (reserved run ids, virtual timestamps), so the eventual
//! winner's records carry identical cell facts and readers dedup by
//! `(campaign, run_id)` keeping the first committed occurrence.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::vfs::{create_durable_exclusive, StagingDir, StoreFs};
use crate::wq::{decode_record, encode_record, parse_seq};
use sp_wire as wire;

/// Record magic for one logged cell outcome.
pub const MAGIC_RUN_CELL: [u8; 4] = *b"SPRL";

/// Conventional run-log directory name next to the work queue.
pub const RUN_LOG_DIR: &str = "runlog";

const CELL_PREFIX: &str = "cell-";
const CELL_SUFFIX: &str = ".sprl";

/// One logged cell outcome: everything the §3.3 validation interface
/// needs to answer "what happened to (experiment, image) in campaign N,
/// repetition R — and who says so".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellRecord {
    /// Queue submission sequence of the campaign this cell ran under.
    pub campaign: u64,
    /// Experiment name (e.g. `"h1"`).
    pub experiment: String,
    /// Validation group within the experiment.
    pub group: String,
    /// Environment image label the cell validated against.
    pub image_label: String,
    /// Zero-based repetition index of this (experiment, image) pair
    /// within the campaign.
    pub repetition: u32,
    /// The run id the cell executed as (unique within a deployment's
    /// reserved id range; the dedup key together with `campaign`).
    pub run_id: u64,
    /// Cell verdict, encoded as [`status codes`](CellRecord::STATUS_PASS).
    pub status: u8,
    /// Tests passed in this cell.
    pub passed: u32,
    /// Tests failed in this cell.
    pub failed: u32,
    /// Tests skipped in this cell.
    pub skipped: u32,
    /// Virtual campaign clock (seconds) when the cell completed —
    /// deterministic, so an interrupted-and-resumed campaign logs the
    /// same timings as an uninterrupted one.
    pub timestamp: u64,
    /// Name of the worker that executed and published the cell.
    pub worker: String,
    /// Lease generation (fencing token) the worker held while executing.
    pub lease_token: u64,
}

impl CellRecord {
    /// `status`: every test in the cell passed.
    pub const STATUS_PASS: u8 = 0;
    /// `status`: passed with skipped tests.
    pub const STATUS_WARNINGS: u8 = 1;
    /// `status`: at least one test failed.
    pub const STATUS_FAIL: u8 = 2;
    /// `status`: the cell never ran.
    pub const STATUS_NOT_RUN: u8 = 3;

    /// Human label for the status code.
    pub fn status_label(&self) -> &'static str {
        match self.status {
            CellRecord::STATUS_PASS => "pass",
            CellRecord::STATUS_WARNINGS => "warnings",
            CellRecord::STATUS_FAIL => "fail",
            _ => "not-run",
        }
    }

    /// The read-side dedup key: one committed outcome per (campaign,
    /// run id) is history, later duplicates are fenced re-executions.
    pub fn dedup_key(&self) -> (u64, u64) {
        (self.campaign, self.run_id)
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(96);
        wire::put_u64(&mut body, self.campaign);
        wire::put_str(&mut body, &self.experiment);
        wire::put_str(&mut body, &self.group);
        wire::put_str(&mut body, &self.image_label);
        wire::put_u32(&mut body, self.repetition);
        wire::put_u64(&mut body, self.run_id);
        wire::put_u32(&mut body, self.status as u32);
        wire::put_u32(&mut body, self.passed);
        wire::put_u32(&mut body, self.failed);
        wire::put_u32(&mut body, self.skipped);
        wire::put_u64(&mut body, self.timestamp);
        wire::put_str(&mut body, &self.worker);
        wire::put_u64(&mut body, self.lease_token);
        body
    }

    /// Frames the record for disk: `SPRL` magic, version, body, SHA-256.
    pub fn encode(&self) -> Vec<u8> {
        encode_record(&MAGIC_RUN_CELL, &self.encode_body())
    }

    /// Parses a framed record. `None` on any digest, magic, version or
    /// structural mismatch — dropped, never trusted.
    pub fn decode(bytes: &[u8]) -> Option<CellRecord> {
        let body = decode_record(&MAGIC_RUN_CELL, bytes)?;
        let mut cursor = wire::Cursor::new(&body);
        let record = CellRecord {
            campaign: cursor.take_u64()?,
            experiment: cursor.take_str()?,
            group: cursor.take_str()?,
            image_label: cursor.take_str()?,
            repetition: cursor.take_u32()?,
            run_id: cursor.take_u64()?,
            status: u8::try_from(cursor.take_u32()?).ok()?,
            passed: cursor.take_u32()?,
            failed: cursor.take_u32()?,
            skipped: cursor.take_u32()?,
            timestamp: cursor.take_u64()?,
            worker: cursor.take_str()?,
            lease_token: cursor.take_u64()?,
        };
        (cursor.finished() && record.status <= CellRecord::STATUS_NOT_RUN).then_some(record)
    }
}

/// Outcome of a full log replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLogReplay {
    /// Committed records in log-sequence order, deduplicated by
    /// `(campaign, run_id)` keeping the first occurrence. The `u64` is
    /// the record's log sequence.
    pub records: Vec<(u64, CellRecord)>,
    /// Records dropped for failing decode (torn tail, bit rot, foreign
    /// magic). Never misread, only counted.
    pub corrupt_dropped: usize,
    /// Later duplicates collapsed by the dedup rule.
    pub duplicates_dropped: usize,
}

/// The append-only run log over a [`StoreFs`].
pub struct RunLog {
    root: PathBuf,
    fs: Arc<dyn StoreFs>,
    staging: StagingDir,
}

impl RunLog {
    /// Opens (creating if needed) a run log rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: &Path) -> std::io::Result<RunLog> {
        RunLog::open_with(dir, Arc::new(crate::vfs::OsFs))
    }

    /// Opens (creating if needed) a run log rooted at `dir` on an
    /// arbitrary [`StoreFs`] — the seam fault injection plugs into.
    pub fn open_with(dir: &Path, fs: Arc<dyn StoreFs>) -> std::io::Result<RunLog> {
        fs.create_dir_all(&dir.join("cells"))?;
        let staging = StagingDir::open(fs.as_ref(), dir.join("tmp"))?;
        Ok(RunLog {
            root: dir.to_path_buf(),
            fs,
            staging,
        })
    }

    /// The log's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one record; returns its log sequence.
    pub fn append(&self, record: &CellRecord) -> std::io::Result<u64> {
        self.append_batch(std::slice::from_ref(record))
            .map(|seqs| seqs[0])
    }

    /// Appends a batch of records with one directory sync for the whole
    /// batch. Returns each record's log sequence. Nothing in the batch is
    /// durable until the call returns.
    pub fn append_batch(&self, records: &[CellRecord]) -> std::io::Result<Vec<u64>> {
        let mut seqs = Vec::with_capacity(records.len());
        self.append_resuming(records, &mut seqs)?;
        Ok(seqs)
    }

    /// [`append_batch`](Self::append_batch) that a retry resumes: `seqs`
    /// holds the sequences of `records[..seqs.len()]`, linked by earlier
    /// attempts, and grows as further records link. A retry after a fault
    /// links only the rest, and the closing directory sync makes the links
    /// of every attempt durable.
    pub fn append_resuming(
        &self,
        records: &[CellRecord],
        seqs: &mut Vec<u64>,
    ) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let cells = self.root.join("cells");
        // Past every record on disk (other appenders' included), and past
        // this batch's own links should the listing fail.
        let listed = self.max_seq().map_or(1, |s| s + 1);
        let mut next = seqs.last().map_or(listed, |last| listed.max(last + 1));
        for record in &records[seqs.len()..] {
            let bytes = record.encode();
            loop {
                let target = cells.join(format!("{CELL_PREFIX}{next:08}{CELL_SUFFIX}"));
                match create_durable_exclusive(
                    self.fs.as_ref(),
                    &self.staging.next(),
                    &target,
                    &bytes,
                ) {
                    Ok(()) => {
                        seqs.push(next);
                        next += 1;
                        break;
                    }
                    // Another appender won this sequence; take the next.
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        self.fs.sync_dir(&cells)
    }

    /// Replays the whole log: committed records in sequence order,
    /// corrupt records dropped and counted, duplicates collapsed.
    pub fn replay(&self) -> RunLogReplay {
        let mut replay = RunLogReplay::default();
        let mut seen = std::collections::BTreeSet::new();
        let cells = self.root.join("cells");
        let names = self.fs.read_dir_names(&cells).unwrap_or_default();
        let mut entries: Vec<(u64, String)> = names
            .into_iter()
            .filter_map(|name| parse_seq(&name, CELL_PREFIX, CELL_SUFFIX).map(|seq| (seq, name)))
            .collect();
        entries.sort_unstable();
        for (seq, name) in entries {
            // A failed *read* proves nothing about the record (it may be
            // intact on a flaky disk) — skip without counting corruption.
            let Ok(bytes) = self.fs.read(&cells.join(&name)) else {
                continue;
            };
            match CellRecord::decode(&bytes) {
                Some(record) => {
                    if seen.insert(record.dedup_key()) {
                        replay.records.push((seq, record));
                    } else {
                        replay.duplicates_dropped += 1;
                    }
                }
                None => replay.corrupt_dropped += 1,
            }
        }
        replay
    }

    /// Highest committed log sequence, `None` when the log is empty.
    pub fn max_seq(&self) -> Option<u64> {
        self.fs
            .read_dir_names(&self.root.join("cells"))
            .unwrap_or_default()
            .iter()
            .filter_map(|name| parse_seq(name, CELL_PREFIX, CELL_SUFFIX))
            .max()
    }

    /// Number of record files currently on disk (committed, pre-dedup).
    pub fn len(&self) -> usize {
        self.fs
            .read_dir_names(&self.root.join("cells"))
            .unwrap_or_default()
            .iter()
            .filter(|name| parse_seq(name, CELL_PREFIX, CELL_SUFFIX).is_some())
            .count()
    }

    /// True when no records have been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for RunLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLog").field("root", &self.root).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sp-runlog-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(run_id: u64, status: u8) -> CellRecord {
        CellRecord {
            campaign: 3,
            experiment: "h1".into(),
            group: "dst-reco".into(),
            image_label: "sl6-x86_64".into(),
            repetition: 1,
            run_id,
            status,
            passed: 11,
            failed: u32::from(status == CellRecord::STATUS_FAIL),
            skipped: u32::from(status == CellRecord::STATUS_WARNINGS),
            timestamp: 86_400,
            worker: "w0".into(),
            lease_token: 2,
        }
    }

    #[test]
    fn record_codec_round_trips_and_rejects_tampering() {
        let record = sample(42, CellRecord::STATUS_WARNINGS);
        let bytes = record.encode();
        assert_eq!(CellRecord::decode(&bytes), Some(record.clone()));
        assert_eq!(record.status_label(), "warnings");

        assert_eq!(CellRecord::decode(&bytes[..bytes.len() - 1]), None);
        assert_eq!(CellRecord::decode(b""), None);
        for i in [0usize, 5, 20, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x80;
            assert_eq!(CellRecord::decode(&flipped), None, "flip at {i}");
        }
        // A record with an out-of-range status code is structural garbage.
        let mut bogus = sample(1, CellRecord::STATUS_PASS);
        bogus.status = 9;
        assert_eq!(CellRecord::decode(&bogus.encode()), None);
    }

    #[test]
    fn append_replay_round_trip_with_dedup() {
        let dir = temp_dir("roundtrip");
        let log = RunLog::open(&dir).unwrap();
        assert!(log.is_empty());
        let a = sample(1, CellRecord::STATUS_PASS);
        let b = sample(2, CellRecord::STATUS_FAIL);
        assert_eq!(log.append(&a).unwrap(), 1);
        assert_eq!(log.append_batch(std::slice::from_ref(&b)).unwrap(), vec![2]);
        // A fenced re-execution re-appends the same (campaign, run_id).
        assert_eq!(log.append(&a).unwrap(), 3);

        // A fresh handle (restart) replays the identical history.
        let reopened = RunLog::open(&dir).unwrap();
        let replay = reopened.replay();
        assert_eq!(replay.records, vec![(1, a), (2, b)]);
        assert_eq!(replay.duplicates_dropped, 1);
        assert_eq!(replay.corrupt_dropped, 0);
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.max_seq(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_append_links_only_the_rest_past_other_appenders() {
        let dir = temp_dir("resume");
        let log = RunLog::open(&dir).unwrap();
        let batch = [
            sample(1, CellRecord::STATUS_PASS),
            sample(2, CellRecord::STATUS_PASS),
            sample(3, CellRecord::STATUS_FAIL),
        ];
        // An attempt that linked the first record, then faulted ...
        let mut seqs = log.append_batch(&batch[..1]).unwrap();
        // ... while another appender took the next sequence.
        let other = CellRecord {
            campaign: 4,
            ..sample(9, CellRecord::STATUS_PASS)
        };
        assert_eq!(log.append(&other).unwrap(), 2);
        log.append_resuming(&batch, &mut seqs).unwrap();
        assert_eq!(seqs, vec![1, 3, 4]);
        let replay = log.replay();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.duplicates_dropped, 0, "no record linked twice");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_dropped_never_misread() {
        let dir = temp_dir("torn");
        let log = RunLog::open(&dir).unwrap();
        log.append_batch(&[
            sample(1, CellRecord::STATUS_PASS),
            sample(2, CellRecord::STATUS_PASS),
        ])
        .unwrap();
        // Simulate a torn tail: truncate the last committed record.
        let tail = dir.join("cells").join("cell-00000002.sprl");
        let bytes = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &bytes[..bytes.len() / 2]).unwrap();

        let replay = RunLog::open(&dir).unwrap().replay();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].1.run_id, 1);
        assert_eq!(replay.corrupt_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_handles_never_collide_on_sequences() {
        let dir = temp_dir("race");
        let log_a = RunLog::open(&dir).unwrap();
        let log_b = RunLog::open(&dir).unwrap();
        // Interleave appends through two handles on one directory: the
        // hard-link claim arbitrates, so all four land under distinct
        // sequences.
        log_a.append(&sample(1, CellRecord::STATUS_PASS)).unwrap();
        log_b.append(&sample(2, CellRecord::STATUS_PASS)).unwrap();
        log_a.append(&sample(3, CellRecord::STATUS_PASS)).unwrap();
        log_b.append(&sample(4, CellRecord::STATUS_PASS)).unwrap();
        let replay = log_a.replay();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(
            replay
                .records
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
