//! The durable `SPRL` run log: an append-only history of every cell
//! outcome the fleet has ever produced.
//!
//! The work queue records *current* state — a report file per campaign,
//! replaced wholesale, with no memory of when each cell ran, who ran it,
//! or under which lease generation. The run log is the orthogonal,
//! history-preserving record: each appended batch of validated cell
//! outcomes becomes one digest-guarded `SPRL` file, streamed through the
//! same [`StoreFs`] seam as the queue and living right next to it (by
//! convention `<store>/runlog/`).
//!
//! ## Layout
//!
//! `cells/cell-<seq>.sprl` holds one batch: the `SPRL` frame (magic,
//! version, body, SHA-256) around the batch's record bodies back to back.
//! Each record body is self-delimiting, so a one-record batch is
//! byte-identical to a single-record file and logs written one record per
//! file replay unchanged. Every record of a batch carries the batch
//! file's sequence and keeps its place within the batch.
//!
//! ## Durability posture
//!
//! The batch is the unit of atomicity. An append is the queue's staged
//! create ([`create_durable_exclusive`]) once per batch: the framed batch
//! is staged under `tmp/<pid>-<counter>` and `fsync`ed, then hard-linked
//! to the first free `cells/cell-<seq>.sprl` name, and the `cells/`
//! directory is synced before the append returns. The hard link
//! arbitrates concurrent appenders: `AlreadyExists` means another handle
//! won that sequence, and the same staged file is linked at the next one. A handle lists
//! `cells/` only at its first append and afterwards keeps a sequence
//! floor, so a batch costs one write, one file fsync, one link and one
//! directory fsync. A crash at any point leaves a batch either fully
//! committed or absent; a torn or tampered batch file fails its digest at
//! replay and is **dropped whole and counted once, never misread**.
//!
//! A fault is never an absence: a failed listing or read is an error to
//! the appender and an `unreadable` count to replay, never "no records".
//!
//! ## Idempotency
//!
//! Workers append cell records *before* publishing the campaign report,
//! so a published report always has its history logged. The cost is that
//! a worker fenced at publish time, or an append retried after its link
//! landed, leaves records for an execution the log already holds — but
//! cell content is derived deterministically from the campaign (reserved
//! run ids, virtual timestamps), so the repeated records carry identical
//! cell facts and readers dedup by `(campaign, run_id)` keeping the first
//! committed occurrence.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::frame;
use crate::vfs::{create_durable_exclusive, StagingDir, StoreFs};
use crate::wq::parse_seq;
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

    fn put_body(&self, body: &mut Vec<u8>) {
        wire::put_u64(body, self.campaign);
        wire::put_str(body, &self.experiment);
        wire::put_str(body, &self.group);
        wire::put_str(body, &self.image_label);
        wire::put_u32(body, self.repetition);
        wire::put_u64(body, self.run_id);
        wire::put_u32(body, self.status as u32);
        wire::put_u32(body, self.passed);
        wire::put_u32(body, self.failed);
        wire::put_u32(body, self.skipped);
        wire::put_u64(body, self.timestamp);
        wire::put_str(body, &self.worker);
        wire::put_u64(body, self.lease_token);
    }

    fn take_body(cursor: &mut wire::Cursor<'_>) -> Option<CellRecord> {
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
        (record.status <= CellRecord::STATUS_NOT_RUN).then_some(record)
    }

    /// Frames the record for disk: `SPRL` magic, version, body, SHA-256.
    /// Equal to the [`encode_batch`](Self::encode_batch) of a one-record
    /// batch.
    pub fn encode(&self) -> Vec<u8> {
        CellRecord::encode_batch(std::slice::from_ref(self))
    }

    /// Parses a framed single record. `None` on any digest, magic,
    /// version or structural mismatch, or when the frame holds more than
    /// one record — dropped, never trusted.
    pub fn decode(bytes: &[u8]) -> Option<CellRecord> {
        let mut records = CellRecord::decode_batch(bytes)?;
        (records.len() == 1).then(|| records.pop()).flatten()
    }

    /// Frames a batch for disk: one `SPRL` frame around the record bodies
    /// back to back.
    pub fn encode_batch(records: &[CellRecord]) -> Vec<u8> {
        frame::seal(&MAGIC_RUN_CELL, |body| {
            for record in records {
                record.put_body(body);
            }
        })
    }

    /// Parses a framed batch of one or more records, in order. `None` on
    /// any digest, magic, version or structural mismatch anywhere in the
    /// frame: a damaged batch is dropped whole, never partly trusted.
    pub fn decode_batch(bytes: &[u8]) -> Option<Vec<CellRecord>> {
        let mut cursor = wire::Cursor::new(frame::unseal(&MAGIC_RUN_CELL, bytes)?);
        let mut records = Vec::new();
        while !cursor.finished() {
            records.push(CellRecord::take_body(&mut cursor)?);
        }
        (!records.is_empty()).then_some(records)
    }
}

/// Outcome of a full log replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLogReplay {
    /// Committed records in log order (batch sequence, then place within
    /// the batch), deduplicated by `(campaign, run_id)` keeping the first
    /// occurrence. The `u64` is the sequence of the record's batch file.
    pub records: Vec<(u64, CellRecord)>,
    /// Batch files dropped for failing decode (torn tail, bit rot,
    /// foreign magic), each counted once however many records it held.
    /// Never misread, only counted.
    pub corrupt_dropped: usize,
    /// Later duplicates collapsed by the dedup rule.
    pub duplicates_dropped: usize,
    /// Failed listings of `cells/` and failed batch-file reads. A failed
    /// read proves nothing about the bytes (they may be intact on a flaky
    /// disk), so it is not corruption — but the replay is incomplete, and
    /// a nonzero count says so.
    pub unreadable: usize,
    /// Highest batch sequence listed, 0 for an empty log — the log's
    /// high-water mark, whether or not that batch read, decoded or held a
    /// record that survived the dedup.
    pub high_water: u64,
}

/// The append-only run log over a [`StoreFs`].
pub struct RunLog {
    root: PathBuf,
    fs: Arc<dyn StoreFs>,
    staging: StagingDir,
    /// The lowest sequence this handle may link next; 0 until its first
    /// append lists `cells/`. Other handles may have linked past it, which
    /// the link's `AlreadyExists` reports. Only a hint, since the link
    /// arbitrates, so it publishes nothing and `Relaxed` suffices.
    floor: AtomicU64,
}

impl RunLog {
    /// Opens (creating if needed) a run log rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: &Path) -> io::Result<RunLog> {
        RunLog::open_with(dir, Arc::new(crate::vfs::OsFs))
    }

    /// Opens (creating if needed) a run log rooted at `dir` on an
    /// arbitrary [`StoreFs`] — the seam fault injection plugs into.
    pub fn open_with(dir: &Path, fs: Arc<dyn StoreFs>) -> io::Result<RunLog> {
        fs.create_dir_all(&dir.join("cells"))?;
        let staging = StagingDir::open(fs.as_ref(), dir.join("tmp"))?;
        Ok(RunLog {
            root: dir.to_path_buf(),
            fs,
            staging,
            floor: AtomicU64::new(0),
        })
    }

    /// The log's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one record; returns its log sequence.
    pub fn append(&self, record: &CellRecord) -> io::Result<u64> {
        self.append_batch(std::slice::from_ref(record))
            .map(|seqs| seqs[0])
    }

    /// Appends a batch of records as one file: one staging write, one
    /// fsync, one hard link and one directory sync, whatever the batch
    /// size. Returns each record's log sequence (the batch file's). The
    /// batch is durable when the call returns and absent if it fails
    /// before the link; a retry after a later failure may log it twice,
    /// which replay's dedup collapses.
    pub fn append_batch(&self, records: &[CellRecord]) -> io::Result<Vec<u64>> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let first = match self.floor.load(Ordering::Relaxed) {
            0 => self.max_seq()?.map_or(1, |s| s + 1),
            floor => floor,
        };
        let cells = self.root.join("cells");
        // A taken sequence was won by another appender; link the next.
        let taken = create_durable_exclusive(
            self.fs.as_ref(),
            &self.staging.next(),
            &CellRecord::encode_batch(records),
            (first..).map(|seq| cells.join(cell_name(seq))),
        )?;
        let seq = first + taken as u64;
        self.floor.fetch_max(seq + 1, Ordering::Relaxed);
        self.fs.sync_dir(&cells)?;
        Ok(vec![seq; records.len()])
    }

    /// Replays the whole log: committed records in log order, corrupt
    /// batch files dropped and counted, duplicates collapsed, and failed
    /// listings or reads counted as [`unreadable`](RunLogReplay::unreadable).
    pub fn replay(&self) -> RunLogReplay {
        let mut replay = RunLogReplay::default();
        let cells = self.root.join("cells");
        let Ok(mut entries) = self.cell_files() else {
            replay.unreadable += 1;
            return replay;
        };
        entries.sort_unstable();
        replay.high_water = entries.last().map_or(0, |(seq, _)| *seq);
        let mut seen = std::collections::HashSet::new();
        for (seq, name) in entries {
            let Ok(bytes) = self.fs.read(&cells.join(&name)) else {
                replay.unreadable += 1;
                continue;
            };
            let Some(batch) = CellRecord::decode_batch(&bytes) else {
                replay.corrupt_dropped += 1;
                continue;
            };
            for record in batch {
                if seen.insert(record.dedup_key()) {
                    replay.records.push((seq, record));
                } else {
                    replay.duplicates_dropped += 1;
                }
            }
        }
        replay
    }

    /// Highest committed log sequence, `None` when the log is empty. A
    /// failed listing is an error, never an empty log.
    pub fn max_seq(&self) -> io::Result<Option<u64>> {
        Ok(self.cell_files()?.into_iter().map(|(seq, _)| seq).max())
    }

    /// `(sequence, file name)` of every batch file in `cells/`, unsorted.
    fn cell_files(&self) -> io::Result<Vec<(u64, String)>> {
        Ok(self
            .fs
            .read_dir_names(&self.root.join("cells"))?
            .into_iter()
            .filter_map(|name| parse_seq(&name, CELL_PREFIX, CELL_SUFFIX).map(|seq| (seq, name)))
            .collect())
    }
}

fn cell_name(seq: u64) -> String {
    format!("{CELL_PREFIX}{seq:08}{CELL_SUFFIX}")
}

impl std::fmt::Debug for RunLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLog").field("root", &self.root).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, ForcedFault, RecordingFs};

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
    fn batch_codec_round_trips_and_one_record_is_a_single_record() {
        let batch = [
            sample(1, CellRecord::STATUS_PASS),
            sample(2, CellRecord::STATUS_FAIL),
        ];
        let bytes = CellRecord::encode_batch(&batch);
        assert_eq!(CellRecord::decode_batch(&bytes), Some(batch.to_vec()));
        // Two records are not a single record.
        assert_eq!(CellRecord::decode(&bytes), None);
        // A one-record batch is byte-identical to the single record.
        let one = CellRecord::encode_batch(&batch[..1]);
        assert_eq!(one, batch[0].encode());
        assert_eq!(CellRecord::decode_batch(&one), Some(batch[..1].to_vec()));
        // An empty frame holds no batch.
        assert_eq!(
            CellRecord::decode_batch(&CellRecord::encode_batch(&[])),
            None
        );
    }

    #[test]
    fn append_replay_round_trip_with_dedup() {
        let dir = temp_dir("roundtrip");
        let log = RunLog::open(&dir).unwrap();
        assert_eq!(log.max_seq().unwrap(), None);
        let a = sample(1, CellRecord::STATUS_PASS);
        let b = sample(2, CellRecord::STATUS_FAIL);
        let c = sample(3, CellRecord::STATUS_WARNINGS);
        assert_eq!(log.append(&a).unwrap(), 1);
        assert_eq!(
            log.append_batch(&[b.clone(), c.clone()]).unwrap(),
            vec![2, 2]
        );
        // A fenced re-execution re-appends the same (campaign, run_id).
        assert_eq!(log.append(&a).unwrap(), 3);

        // A fresh handle (restart) replays the identical history: a batch
        // is one file, its records in batch order under its sequence.
        let reopened = RunLog::open(&dir).unwrap();
        let replay = reopened.replay();
        assert_eq!(replay.records, vec![(1, a), (2, b), (2, c)]);
        assert_eq!(replay.duplicates_dropped, 1);
        assert_eq!(replay.corrupt_dropped, 0);
        assert_eq!(replay.unreadable, 0);
        assert_eq!(reopened.max_seq().unwrap(), Some(3));
        assert_eq!(std::fs::read_dir(dir.join("cells")).unwrap().count(), 3);
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
        // Simulate a torn tail: truncate the two-record batch file.
        let tail = dir.join("cells").join("cell-00000001.sprl");
        let bytes = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &bytes[..bytes.len() / 2]).unwrap();

        // The batch is the unit of atomicity: both records drop, and the
        // torn file counts once.
        let replay = RunLog::open(&dir).unwrap().replay();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_handle_links_past_other_batches_without_relisting() {
        let dir = temp_dir("stale");
        let fs = Arc::new(RecordingFs::default());
        let stale = RunLog::open_with(&dir, fs.clone()).unwrap();
        let batch: Vec<CellRecord> = (1..=16)
            .map(|i| sample(i, CellRecord::STATUS_PASS))
            .collect();
        fs.take();
        assert_eq!(stale.append_batch(&batch[..8]).unwrap(), vec![1; 8]);
        assert_eq!(
            fs.take(),
            [
                "read_dir_names",
                "write",
                "sync_file",
                "hard_link",
                "remove_file",
                "sync_dir"
            ],
            "the first append lists cells/ once"
        );
        // Another handle appends three batches past the stale handle's floor.
        let other = RunLog::open(&dir).unwrap();
        for i in 0..3 {
            other
                .append(&sample(100 + i, CellRecord::STATUS_FAIL))
                .unwrap();
        }
        assert_eq!(stale.append_batch(&batch[8..]).unwrap(), vec![5; 8]);
        assert_eq!(
            fs.take(),
            [
                "write",
                "sync_file",
                "hard_link",
                "hard_link",
                "hard_link",
                "hard_link",
                "remove_file",
                "sync_dir"
            ],
            "one staging write and one fsync; taken sequences cost a link each, no listing"
        );
        let replay = RunLog::open(&dir).unwrap().replay();
        assert_eq!(replay.records.len(), 19);
        assert_eq!(replay.duplicates_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_first_listing_fails_the_append_never_restarts_at_one() {
        let dir = temp_dir("list-fault");
        RunLog::open(&dir)
            .unwrap()
            .append_batch(&[
                sample(1, CellRecord::STATUS_PASS),
                sample(2, CellRecord::STATUS_PASS),
            ])
            .unwrap();
        let fs = Arc::new(FaultFs::over_os(crate::vfs::FaultConfig::default()));
        let log = RunLog::open_with(&dir, fs.clone()).unwrap();
        fs.fail_nth_read(1, ForcedFault::Eio);
        assert_eq!(log.max_seq().unwrap_err().raw_os_error(), Some(5));
        fs.fail_nth_read(1, ForcedFault::Eio);
        let err = log.append(&sample(3, CellRecord::STATUS_FAIL)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "the listing fault surfaces");
        assert_eq!(log.max_seq().unwrap(), Some(1), "nothing was linked");
        // The retry lists again and links straight past the last batch.
        let before = fs.op_count();
        assert_eq!(log.append(&sample(3, CellRecord::STATUS_FAIL)).unwrap(), 2);
        assert_eq!(
            fs.op_count() - before,
            6,
            "list, write, fsync, link, remove, sync"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_read_is_unreadable_never_a_short_history() {
        let dir = temp_dir("read-fault");
        let healthy = RunLog::open(&dir).unwrap();
        for i in 1..=3 {
            healthy.append(&sample(i, CellRecord::STATUS_PASS)).unwrap();
        }
        let fs = Arc::new(FaultFs::over_os(crate::vfs::FaultConfig::default()));
        let log = RunLog::open_with(&dir, fs.clone()).unwrap();

        // The listing fails: nothing replays, and the replay says why.
        fs.fail_nth_read(1, ForcedFault::Eio);
        let replay = log.replay();
        assert!(replay.records.is_empty());
        assert_eq!((replay.unreadable, replay.corrupt_dropped), (1, 0));

        // The second batch file's read fails: two records replay, the gap
        // is counted, and it is not corruption.
        fs.fail_nth_read(3, ForcedFault::Transient);
        let replay = log.replay();
        assert_eq!(
            replay
                .records
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!((replay.unreadable, replay.corrupt_dropped), (1, 0));

        assert_eq!(log.replay().unreadable, 0, "the fault was transient");
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
