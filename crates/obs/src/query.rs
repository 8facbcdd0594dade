//! The read-optimized query engine over the `SPRL` run log.
//!
//! [`RunHistory`] holds the deduplicated cell records of one run log in
//! memory together with secondary indexes — by experiment, by image
//! label, by status, time-ordered, and per cell — so the §3.3 "did
//! anything change since the last migration?" questions are answered
//! without rescanning the log: summary dashboards, single-cell
//! drill-down, and regression timelines.
//!
//! ## The per-cell index
//!
//! A cell is one (experiment, group, image) triple. The cell index maps
//! each cell to its record indexes in *timeline order* — (timestamp,
//! campaign, repetition, run id), then log order — and keeps the cells
//! sorted by key. [`RunHistory::cell_timeline`] is one binary search, and
//! [`RunHistory::status_changes`] and [`RunHistory::regressions`] walk the
//! index in key order instead of regrouping the whole history per call.
//! Each cell's key is built once per index build, not once per record.
//!
//! ## Cold vs warm, byte-identically
//!
//! A history can always be rebuilt **cold** with [`RunHistory::rebuild`]
//! (replay the log, build indexes). [`RunHistory::save_warm`] conserves
//! the records *and* the index postings into the store's digest-guarded
//! `SPWS` snapshot format next to the log; [`RunHistory::open`] restores
//! them without a rebuild. The warm path is trusted only when every entry
//! digest validates, the postings are structurally sound, and the saved
//! high-water mark matches the log on disk — anything else falls back to
//! a cold rebuild, and so does a failed listing of the log. The cell index
//! is not persisted: a warm restore derives it from the restored records,
//! so the snapshot format is the same with or without it. Query results
//! over a warm-restored history are byte-identical to the cold rebuild
//! (property-tested in this crate).
//!
//! A cold rebuild over a log whose listing or batch reads failed is
//! incomplete: [`HistorySummary::unreadable`] counts the failures, and
//! [`RunHistory::save_warm`] refuses to conserve such a history as truth.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use sp_store::run_log::{CellRecord, RunLog};
use sp_store::snapshot::{Snapshot, SnapshotSection};
use sp_store::vfs::StoreFs;
use sp_wire as wire;

/// File name of the warm index snapshot inside the run-log directory.
pub const WARM_INDEX_FILE: &str = "index.spws";

const SECTION_RECORDS: &str = "runlog-records";
const SECTION_POSTINGS: &str = "runlog-postings";
const SECTION_META: &str = "runlog-meta";

/// One cell's identity: (experiment, group, image label).
type CellKey = (String, String, String);

/// Filter over the history. Empty query matches everything; filled
/// fields conjoin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellQuery {
    /// Match this experiment name.
    pub experiment: Option<String>,
    /// Match this image label.
    pub image_label: Option<String>,
    /// Match this status code (see [`CellRecord::STATUS_PASS`] etc.).
    pub status: Option<u8>,
    /// Match this campaign sequence.
    pub campaign: Option<u64>,
    /// Match cells with `timestamp >= since`.
    pub since: Option<u64>,
    /// Match cells with `timestamp <= until`.
    pub until: Option<u64>,
}

impl CellQuery {
    /// The match-everything query.
    pub fn all() -> CellQuery {
        CellQuery::default()
    }

    /// Restricts to one experiment.
    pub fn experiment(mut self, name: &str) -> CellQuery {
        self.experiment = Some(name.to_string());
        self
    }

    /// Restricts to one image label.
    pub fn image(mut self, label: &str) -> CellQuery {
        self.image_label = Some(label.to_string());
        self
    }

    /// Restricts to one status code.
    pub fn status(mut self, status: u8) -> CellQuery {
        self.status = Some(status);
        self
    }

    /// Restricts to one campaign.
    pub fn campaign(mut self, seq: u64) -> CellQuery {
        self.campaign = Some(seq);
        self
    }

    /// Restricts to a time window (inclusive bounds; pass `u64::MAX` /
    /// `0` for open ends).
    pub fn window(mut self, since: u64, until: u64) -> CellQuery {
        self.since = Some(since);
        self.until = Some(until);
        self
    }

    /// Whether `record` satisfies every set filter (the conjunction the
    /// indexed [`RunHistory::query`] must agree with on a linear scan).
    pub fn matches(&self, record: &CellRecord) -> bool {
        self.experiment
            .as_deref()
            .is_none_or(|e| record.experiment == e)
            && self
                .image_label
                .as_deref()
                .is_none_or(|i| record.image_label == i)
            && self.status.is_none_or(|s| record.status == s)
            && self.campaign.is_none_or(|c| record.campaign == c)
            && self.since.is_none_or(|t| record.timestamp >= t)
            && self.until.is_none_or(|t| record.timestamp <= t)
    }
}

/// One status transition in a cell's timeline (see
/// [`RunHistory::regressions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusChange {
    /// Experiment of the cell.
    pub experiment: String,
    /// Validation group of the cell.
    pub group: String,
    /// Image label of the cell.
    pub image_label: String,
    /// The earlier record.
    pub from: CellRecord,
    /// The later record whose status differs.
    pub to: CellRecord,
}

impl StatusChange {
    /// True when the transition worsened (pass → warnings → fail →
    /// not-run; status codes are ordered by severity).
    pub fn is_regression(&self) -> bool {
        self.to.status > self.from.status
    }
}

/// Aggregate view for the summary dashboard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistorySummary {
    /// Cell records in the history (post-dedup).
    pub cells: usize,
    /// Distinct campaigns seen.
    pub campaigns: usize,
    /// Distinct experiments seen.
    pub experiments: usize,
    /// Distinct image labels seen.
    pub images: usize,
    /// Distinct workers that published outcomes.
    pub workers: usize,
    /// Cells per status code, indexed by the code.
    pub by_status: [usize; 4],
    /// Earliest cell timestamp, when any.
    pub first_timestamp: Option<u64>,
    /// Latest cell timestamp, when any.
    pub last_timestamp: Option<u64>,
    /// Corrupt records dropped at replay (cold) or conserved from the
    /// replay that built the warm index.
    pub corrupt_dropped: usize,
    /// Duplicate records collapsed by the dedup rule.
    pub duplicates_dropped: usize,
    /// Failed listings and batch-file reads of the cold rebuild: nonzero
    /// means the history may be missing records.
    pub unreadable: usize,
}

/// How a history instance came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistorySource {
    /// Rebuilt by replaying the log.
    Cold,
    /// Restored from a validated warm index snapshot.
    Warm,
}

/// In-memory, indexed run history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHistory {
    /// (log sequence, record) in log order — the canonical result order
    /// of every query.
    records: Vec<(u64, CellRecord)>,
    by_experiment: BTreeMap<String, Vec<u32>>,
    by_image: BTreeMap<String, Vec<u32>>,
    by_status: BTreeMap<u8, Vec<u32>>,
    /// (timestamp, record index) sorted — the time-window index.
    by_time: Vec<(u64, u32)>,
    /// Each cell's record indexes in timeline order, cells sorted by key.
    by_cell: Vec<(CellKey, Vec<u32>)>,
    /// Distinct campaigns and workers among the records, counted once
    /// per index build so a summary does not recount them.
    distinct: (usize, usize),
    corrupt_dropped: usize,
    duplicates_dropped: usize,
    unreadable: usize,
    /// The log's high-water mark when this history was built: a warm
    /// restore is trusted only while the log's is the same.
    high_water: u64,
    source: HistorySource,
}

impl RunHistory {
    /// Builds a history (with indexes) from already-deduplicated
    /// `(log seq, record)` pairs in log order.
    pub fn from_records(records: Vec<(u64, CellRecord)>) -> RunHistory {
        let high_water = records.last().map_or(0, |(seq, _)| *seq);
        let mut history = RunHistory {
            records,
            by_experiment: BTreeMap::new(),
            by_image: BTreeMap::new(),
            by_status: BTreeMap::new(),
            by_time: Vec::new(),
            by_cell: Vec::new(),
            distinct: (0, 0),
            corrupt_dropped: 0,
            duplicates_dropped: 0,
            unreadable: 0,
            high_water,
            source: HistorySource::Cold,
        };
        history.build_indexes();
        history
    }

    /// Cold path: replays the log and builds every index.
    pub fn rebuild(log: &RunLog) -> RunHistory {
        let replay = log.replay();
        let mut history = RunHistory::from_records(replay.records);
        history.corrupt_dropped = replay.corrupt_dropped;
        history.duplicates_dropped = replay.duplicates_dropped;
        history.unreadable = replay.unreadable;
        history.high_water = replay.high_water;
        history
    }

    /// Opens the history over `log`: restores the warm index snapshot
    /// when present, validated, and exactly as fresh as the log on disk;
    /// otherwise — a failed listing of the log included — rebuilds cold.
    /// Use [`source`](Self::source) to see which path ran.
    pub fn open(log: &RunLog) -> RunHistory {
        RunHistory::open_with(log, Arc::new(sp_store::vfs::OsFs))
    }

    /// [`open`](Self::open) over an explicit [`StoreFs`].
    pub fn open_with(log: &RunLog, fs: Arc<dyn StoreFs>) -> RunHistory {
        let path = log.root().join(WARM_INDEX_FILE);
        if let Ok(bytes) = fs.read(&path) {
            if let Ok(max_seq) = log.max_seq() {
                if let Some(history) = RunHistory::decode_warm(&bytes, max_seq) {
                    return history;
                }
            }
        }
        RunHistory::rebuild(log)
    }

    /// Conserves the records and index postings as a digest-guarded warm
    /// snapshot next to the log, durably and atomically. Fails, writing
    /// nothing, when the history is incomplete (its rebuild counted
    /// unreadable log entries): a short history is never saved as truth.
    pub fn save_warm(&self, log: &RunLog, fs: &dyn StoreFs) -> std::io::Result<()> {
        if self.unreadable != 0 {
            return Err(std::io::Error::other(format!(
                "run history is incomplete: {} unreadable log entries",
                self.unreadable
            )));
        }
        self.to_snapshot()
            .write_durable(fs, &log.root().join(WARM_INDEX_FILE))
    }

    /// Whether this instance was restored warm or rebuilt cold.
    pub fn source(&self) -> HistorySource {
        self.source
    }

    /// The full record list in log order.
    pub fn records(&self) -> &[(u64, CellRecord)] {
        &self.records
    }

    /// Runs a query; results come back in log order (deterministic for a
    /// given log, cold or warm).
    pub fn query(&self, query: &CellQuery) -> Vec<&CellRecord> {
        // Pick the most selective posting list available, then filter the
        // survivors against the whole conjunction.
        let candidates: Vec<u32> = if let Some(exp) = query.experiment.as_deref() {
            self.by_experiment.get(exp).cloned().unwrap_or_default()
        } else if let Some(img) = query.image_label.as_deref() {
            self.by_image.get(img).cloned().unwrap_or_default()
        } else if let Some(status) = query.status {
            self.by_status.get(&status).cloned().unwrap_or_default()
        } else if query.since.is_some() || query.until.is_some() {
            let lo = query.since.unwrap_or(0);
            let hi = query.until.unwrap_or(u64::MAX);
            let start = self.by_time.partition_point(|(ts, _)| *ts < lo);
            let mut hits: Vec<u32> = self.by_time[start..]
                .iter()
                .take_while(|(ts, _)| *ts <= hi)
                .map(|(_, idx)| *idx)
                .collect();
            hits.sort_unstable();
            hits
        } else {
            (0..self.records.len() as u32).collect()
        };
        candidates
            .into_iter()
            .map(|idx| &self.records[idx as usize].1)
            .filter(|record| query.matches(record))
            .collect()
    }

    /// Single-cell drill-down: the full timeline of one (experiment,
    /// group, image) cell, ordered by (timestamp, campaign, repetition,
    /// run id), then log order.
    pub fn cell_timeline(&self, experiment: &str, group: &str, image: &str) -> Vec<&CellRecord> {
        self.by_cell
            .binary_search_by(|((e, g, i), _)| {
                [Name(e), Name(g), Name(i)].cmp(&[Name(experiment), Name(group), Name(image)])
            })
            .map_or_else(
                |_| Vec::new(),
                |at| self.resolve(&self.by_cell[at].1).collect(),
            )
    }

    /// Every status transition, cell by cell, across the whole history —
    /// the regression timeline. Transitions are ordered by cell identity
    /// then time; filter with [`StatusChange::is_regression`] for the
    /// strictly-worsening ones.
    pub fn status_changes(&self) -> Vec<StatusChange> {
        self.transitions(|from, to| from.status != to.status)
    }

    /// The strictly-worsening subset of [`status_changes`](Self::status_changes).
    pub fn regressions(&self) -> Vec<StatusChange> {
        self.transitions(|from, to| to.status > from.status)
    }

    /// Consecutive records of each cell's timeline that satisfy `keep`,
    /// walking the cell index in key order.
    fn transitions(&self, keep: impl Fn(&CellRecord, &CellRecord) -> bool) -> Vec<StatusChange> {
        let mut changes = Vec::new();
        for ((experiment, group, image_label), timeline) in &self.by_cell {
            for pair in timeline.windows(2) {
                let from = &self.records[pair[0] as usize].1;
                let to = &self.records[pair[1] as usize].1;
                if keep(from, to) {
                    changes.push(StatusChange {
                        experiment: experiment.clone(),
                        group: group.clone(),
                        image_label: image_label.clone(),
                        from: from.clone(),
                        to: to.clone(),
                    });
                }
            }
        }
        changes
    }

    /// The records behind a posting list.
    fn resolve<'a>(&'a self, postings: &'a [u32]) -> impl Iterator<Item = &'a CellRecord> + 'a {
        postings.iter().map(|idx| &self.records[*idx as usize].1)
    }

    /// Aggregates the history for the summary dashboard.
    pub fn summary(&self) -> HistorySummary {
        let mut by_status = [0; 4];
        for (status, postings) in &self.by_status {
            by_status[usize::from(*status.min(&3))] += postings.len();
        }
        HistorySummary {
            cells: self.records.len(),
            campaigns: self.distinct.0,
            experiments: self.by_experiment.len(),
            images: self.by_image.len(),
            workers: self.distinct.1,
            by_status,
            first_timestamp: self.by_time.first().map(|(ts, _)| *ts),
            last_timestamp: self.by_time.last().map(|(ts, _)| *ts),
            corrupt_dropped: self.corrupt_dropped,
            duplicates_dropped: self.duplicates_dropped,
            unreadable: self.unreadable,
        }
    }

    /// Canonical byte encoding of a query result — the byte-identity
    /// oracle for cold-vs-warm equivalence: count, then each record's
    /// framed `SPRL` bytes.
    pub fn encode_results(results: &[&CellRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u32(&mut out, results.len() as u32);
        for record in results {
            wire::put_bytes(&mut out, &record.encode());
        }
        out
    }

    // ---- warm persistence -------------------------------------------

    /// Builds every index from `records`. Postings are grouped under
    /// keys borrowed from the records, so each distinct key is cloned
    /// once, not once per record.
    fn build_indexes(&mut self) {
        let records = &self.records;
        let mut by_experiment: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut by_image: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut by_status: BTreeMap<u8, Vec<u32>> = BTreeMap::new();
        let mut by_time = Vec::with_capacity(records.len());
        for (idx, (_, record)) in records.iter().enumerate() {
            let idx = idx as u32;
            by_experiment
                .entry(&record.experiment)
                .or_default()
                .push(idx);
            by_image.entry(&record.image_label).or_default().push(idx);
            by_status.entry(record.status).or_default().push(idx);
            by_time.push((record.timestamp, idx));
        }
        by_time.sort_unstable();
        self.by_experiment = owned_keys(by_experiment);
        self.by_image = owned_keys(by_image);
        self.by_status = by_status;
        self.by_time = by_time;
        self.by_cell = cell_index(records);
        self.distinct = count_distinct(records);
    }

    fn to_snapshot(&self) -> Snapshot {
        let mut records = SnapshotSection::new(SECTION_RECORDS);
        for (seq, record) in &self.records {
            records.push(seq.to_le_bytes().to_vec(), record.encode());
        }
        let mut postings = SnapshotSection::new(SECTION_POSTINGS);
        for (name, list) in &self.by_experiment {
            postings.push(format!("exp/{name}").into_bytes(), encode_postings(list));
        }
        for (name, list) in &self.by_image {
            postings.push(format!("img/{name}").into_bytes(), encode_postings(list));
        }
        for (status, list) in &self.by_status {
            postings.push(
                format!("status/{status}").into_bytes(),
                encode_postings(list),
            );
        }
        let mut time = Vec::with_capacity(self.by_time.len() * 12);
        for (ts, idx) in &self.by_time {
            wire::put_u64(&mut time, *ts);
            wire::put_u32(&mut time, *idx);
        }
        postings.push(b"time".to_vec(), time);

        let mut meta = SnapshotSection::new(SECTION_META);
        let mut counts = Vec::new();
        wire::put_u64(&mut counts, self.records.len() as u64);
        wire::put_u64(&mut counts, self.high_water);
        wire::put_u64(&mut counts, self.corrupt_dropped as u64);
        wire::put_u64(&mut counts, self.duplicates_dropped as u64);
        meta.push(b"counts".to_vec(), counts);

        Snapshot {
            sections: vec![records, postings, meta],
        }
    }

    /// Restores a history from warm-index bytes. `None` on *any* doubt —
    /// dropped entries, structural damage, postings out of range, or a
    /// high-water mark that disagrees with the live log (`log_max_seq`) —
    /// in which case the caller rebuilds cold.
    fn decode_warm(bytes: &[u8], log_max_seq: Option<u64>) -> Option<RunHistory> {
        let (snapshot, report) = Snapshot::decode(bytes).ok()?;
        if report.entries_dropped != 0 {
            return None;
        }
        let meta = snapshot.section(SECTION_META)?;
        let counts = &meta.entries.iter().find(|(k, _)| k == b"counts")?.1;
        let mut cursor = wire::Cursor::new(counts);
        let record_count = cursor.take_u64()? as usize;
        let max_seq = cursor.take_u64()?;
        let corrupt_dropped = cursor.take_u64()? as usize;
        let duplicates_dropped = cursor.take_u64()? as usize;
        if !cursor.finished() || log_max_seq.unwrap_or(0) != max_seq {
            return None;
        }

        let records_section = snapshot.section(SECTION_RECORDS)?;
        if records_section.entries.len() != record_count {
            return None;
        }
        let mut records = Vec::with_capacity(record_count);
        for (key, value) in &records_section.entries {
            let seq = u64::from_le_bytes(key.as_slice().try_into().ok()?);
            records.push((seq, CellRecord::decode(value)?));
        }

        let postings_section = snapshot.section(SECTION_POSTINGS)?;
        let n = records.len() as u32;
        let mut history = RunHistory {
            records,
            by_experiment: BTreeMap::new(),
            by_image: BTreeMap::new(),
            by_status: BTreeMap::new(),
            by_time: Vec::new(),
            by_cell: Vec::new(),
            distinct: (0, 0),
            corrupt_dropped,
            duplicates_dropped,
            unreadable: 0,
            high_water: max_seq,
            source: HistorySource::Warm,
        };
        for (key, value) in &postings_section.entries {
            let key = std::str::from_utf8(key).ok()?;
            if key == "time" {
                let mut cursor = wire::Cursor::new(value);
                while !cursor.finished() {
                    let ts = cursor.take_u64()?;
                    let idx = cursor.take_u32()?;
                    (idx < n).then_some(())?;
                    history.by_time.push((ts, idx));
                }
            } else {
                let list = decode_postings(value, n)?;
                if let Some(name) = key.strip_prefix("exp/") {
                    history.by_experiment.insert(name.to_string(), list);
                } else if let Some(name) = key.strip_prefix("img/") {
                    history.by_image.insert(name.to_string(), list);
                } else if let Some(status) = key.strip_prefix("status/") {
                    history.by_status.insert(status.parse().ok()?, list);
                } else {
                    return None;
                }
            }
        }
        history.by_cell = cell_index(&history.records);
        history.distinct = count_distinct(&history.records);
        Some(history)
    }
}

/// Counts the distinct campaigns and workers of `records`. A campaign's
/// or worker's records mostly follow one another in log order, so only a
/// change of name reaches the sets.
fn count_distinct(records: &[(u64, CellRecord)]) -> (usize, usize) {
    let (mut campaigns, mut workers) = (BTreeSet::new(), BTreeSet::new());
    let (mut campaign, mut worker) = (None, None);
    for (_, record) in records {
        if campaign.replace(record.campaign) != Some(record.campaign) {
            campaigns.insert(record.campaign);
        }
        if worker.replace(record.worker.as_str()) != Some(record.worker.as_str()) {
            workers.insert(record.worker.as_str());
        }
    }
    (campaigns.len(), workers.len())
}

/// A record's place in its cell's timeline; ties keep log order.
fn timeline_key(record: &CellRecord) -> (u64, u64, u32, u64) {
    (
        record.timestamp,
        record.campaign,
        record.repetition,
        record.run_id,
    )
}

/// The per-cell index over `records`: each cell's record indexes in
/// timeline order, cells sorted by key. Records are grouped under keys
/// borrowed from them, so each cell's key is cloned once, not once per
/// record.
fn cell_index(records: &[(u64, CellRecord)]) -> Vec<(CellKey, Vec<u32>)> {
    let mut cells: BTreeMap<[Name<'_>; 3], Vec<u32>> = BTreeMap::new();
    for (idx, (_, record)) in records.iter().enumerate() {
        let key = [&record.experiment, &record.group, &record.image_label].map(|s| Name(s));
        cells.entry(key).or_default().push(idx as u32);
    }
    cells
        .into_iter()
        .map(|([experiment, group, image], mut timeline)| {
            // Stable: equal keys stay in log order.
            timeline.sort_by_key(|idx| timeline_key(&records[*idx as usize].1));
            (
                (experiment.0.into(), group.0.into(), image.0.into()),
                timeline,
            )
        })
        .collect()
}

/// A borrowed name ordered as `str`, except that a comparison with an
/// empty name looks at lengths only. An empty `String` points at address
/// 1, and on an AVX-512 Xeon host with glibc 2.36 a zero-length `memcmp`
/// at that address measured about 140 ns, against 3 ns at a mapped one.
/// The group name of every logged cell is empty, so the index would pay
/// that on most comparisons.
#[derive(PartialEq, Eq)]
struct Name<'a>(&'a str);

impl Ord for Name<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0.is_empty() || other.0.is_empty() {
            self.0.len().cmp(&other.0.len())
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Name<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn owned_keys(postings: BTreeMap<&str, Vec<u32>>) -> BTreeMap<String, Vec<u32>> {
    postings
        .into_iter()
        .map(|(key, list)| (key.to_owned(), list))
        .collect()
}

/// Restores the history for a run log rooted at `dir` (convenience for
/// drivers and report CLIs).
pub fn open_history(dir: &Path) -> std::io::Result<RunHistory> {
    let log = RunLog::open(dir)?;
    Ok(RunHistory::open(&log))
}

fn encode_postings(list: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(list.len() * 4);
    for idx in list {
        wire::put_u32(&mut out, *idx);
    }
    out
}

fn decode_postings(bytes: &[u8], n: u32) -> Option<Vec<u32>> {
    let mut cursor = wire::Cursor::new(bytes);
    let mut list = Vec::with_capacity(bytes.len() / 4);
    while !cursor.finished() {
        let idx = cursor.take_u32()?;
        (idx < n).then_some(())?;
        list.push(idx);
    }
    Some(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_store::vfs::{FaultConfig, FaultFs, ForcedFault};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sp-obs-query-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(
        campaign: u64,
        experiment: &str,
        image: &str,
        run_id: u64,
        status: u8,
        ts: u64,
    ) -> CellRecord {
        CellRecord {
            campaign,
            experiment: experiment.into(),
            group: "reco".into(),
            image_label: image.into(),
            repetition: 0,
            run_id,
            status,
            passed: 5,
            failed: u32::from(status == CellRecord::STATUS_FAIL),
            skipped: 0,
            timestamp: ts,
            worker: "w0".into(),
            lease_token: 1,
        }
    }

    fn sample_history() -> RunHistory {
        RunHistory::from_records(vec![
            (1, record(1, "h1", "sl5", 1, CellRecord::STATUS_PASS, 100)),
            (2, record(1, "zeus", "sl5", 2, CellRecord::STATUS_PASS, 110)),
            (3, record(2, "h1", "sl6", 3, CellRecord::STATUS_FAIL, 200)),
            (
                4,
                record(2, "zeus", "sl6", 4, CellRecord::STATUS_WARNINGS, 210),
            ),
            (5, record(3, "h1", "sl6", 5, CellRecord::STATUS_PASS, 300)),
        ])
    }

    #[test]
    fn queries_filter_and_preserve_log_order() {
        let history = sample_history();
        let all = history.query(&CellQuery::all());
        assert_eq!(all.len(), 5);
        assert_eq!(
            history
                .query(&CellQuery::all().experiment("h1"))
                .iter()
                .map(|r| r.run_id)
                .collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(history.query(&CellQuery::all().image("sl6")).len(), 3);
        assert_eq!(
            history
                .query(&CellQuery::all().status(CellRecord::STATUS_FAIL))
                .iter()
                .map(|r| r.run_id)
                .collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(history.query(&CellQuery::all().campaign(2)).len(), 2);
        assert_eq!(
            history
                .query(&CellQuery::all().window(110, 210))
                .iter()
                .map(|r| r.run_id)
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // Conjunction across index and filter.
        assert_eq!(
            history
                .query(
                    &CellQuery::all()
                        .experiment("h1")
                        .image("sl6")
                        .window(0, 250)
                )
                .iter()
                .map(|r| r.run_id)
                .collect::<Vec<_>>(),
            vec![3]
        );
        assert!(history
            .query(&CellQuery::all().experiment("cdf"))
            .is_empty());
    }

    #[test]
    fn drill_down_timeline_and_regressions() {
        let history = sample_history();
        let timeline = history.cell_timeline("h1", "reco", "sl6");
        assert_eq!(
            timeline.iter().map(|r| r.run_id).collect::<Vec<_>>(),
            vec![3, 5]
        );
        let changes = history.status_changes();
        // h1/sl6 fail→pass (recovery), plus no same-status transitions.
        assert_eq!(changes.len(), 1);
        assert!(!changes[0].is_regression());
        assert!(history.regressions().is_empty());

        let summary = history.summary();
        assert_eq!(summary.cells, 5);
        assert_eq!(summary.campaigns, 3);
        assert_eq!(summary.experiments, 2);
        assert_eq!(summary.images, 2);
        assert_eq!(summary.by_status[CellRecord::STATUS_PASS as usize], 3);
        assert_eq!(summary.by_status[CellRecord::STATUS_FAIL as usize], 1);
        assert_eq!(summary.first_timestamp, Some(100));
        assert_eq!(summary.last_timestamp, Some(300));
    }

    #[test]
    fn a_failed_listing_never_trusts_a_stale_warm_index() {
        let dir = temp_dir("stale-warm");
        let fs = Arc::new(FaultFs::over_os(FaultConfig::default()));
        let log = RunLog::open_with(&dir, fs.clone()).unwrap();
        // A warm index saved over the empty log, then a batch appended.
        RunHistory::rebuild(&log)
            .save_warm(&log, &sp_store::vfs::OsFs)
            .unwrap();
        let records: Vec<CellRecord> = sample_history()
            .records()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        log.append_batch(&records).unwrap();

        // The listing that checks the index's freshness fails once: the
        // history is rebuilt cold from the whole log, never restored warm
        // and empty.
        fs.fail_nth_read(1, ForcedFault::Eio);
        let history = RunHistory::open(&log);
        assert_eq!(history.source(), HistorySource::Cold);
        assert_eq!(history.records().len(), records.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_incomplete_rebuild_is_counted_and_never_saved_warm() {
        let dir = temp_dir("incomplete");
        let fs = Arc::new(FaultFs::over_os(FaultConfig::default()));
        let log = RunLog::open_with(&dir, fs.clone()).unwrap();
        for (_, record) in sample_history().records() {
            log.append(record).unwrap();
        }
        // The third batch file's read fails.
        fs.fail_nth_read(4, ForcedFault::Eio);
        let short = RunHistory::rebuild(&log);
        assert_eq!(short.records().len(), 4);
        assert_eq!(short.summary().unreadable, 1);
        assert_eq!(short.summary().corrupt_dropped, 0);
        assert!(short.save_warm(&log, &sp_store::vfs::OsFs).is_err());
        assert!(!dir.join(WARM_INDEX_FILE).exists());

        let whole = RunHistory::rebuild(&log);
        assert_eq!(whole.summary().unreadable, 0);
        whole.save_warm(&log, &sp_store::vfs::OsFs).unwrap();
        assert_eq!(RunHistory::open(&log).source(), HistorySource::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_ending_in_duplicates_still_opens_warm() {
        let dir = temp_dir("dup-tail");
        let log = RunLog::open(&dir).unwrap();
        let first = record(1, "h1", "sl5", 1, CellRecord::STATUS_PASS, 100);
        log.append(&first).unwrap();
        // A fenced re-execution logs the same cell again, last.
        log.append(&first).unwrap();
        let cold = RunHistory::rebuild(&log);
        assert_eq!(cold.summary().duplicates_dropped, 1);
        cold.save_warm(&log, &sp_store::vfs::OsFs).unwrap();
        let warm = RunHistory::open(&log);
        assert_eq!(warm.source(), HistorySource::Warm);
        assert_eq!(warm.summary(), cold.summary());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_restore_is_byte_identical_and_distrustful() {
        let dir = temp_dir("warm");
        let log = RunLog::open(&dir).unwrap();
        for (_, record) in sample_history().records() {
            log.append(record).unwrap();
        }
        let cold = RunHistory::rebuild(&log);
        cold.save_warm(&log, &sp_store::vfs::OsFs).unwrap();

        let warm = RunHistory::open(&log);
        assert_eq!(warm.source(), HistorySource::Warm);
        for query in [
            CellQuery::all(),
            CellQuery::all().experiment("h1"),
            CellQuery::all().status(CellRecord::STATUS_WARNINGS),
            CellQuery::all().window(150, 250),
        ] {
            assert_eq!(
                RunHistory::encode_results(&cold.query(&query)),
                RunHistory::encode_results(&warm.query(&query)),
            );
        }

        // A log that moved past the warm index invalidates it.
        log.append(&record(4, "h1", "sl7", 9, CellRecord::STATUS_PASS, 400))
            .unwrap();
        let reopened = RunHistory::open(&log);
        assert_eq!(reopened.source(), HistorySource::Cold);
        assert_eq!(reopened.records().len(), 6);

        // A flipped byte in a fresh warm file falls back to cold, never
        // trusts.
        reopened.save_warm(&log, &sp_store::vfs::OsFs).unwrap();
        assert_eq!(RunHistory::open(&log).source(), HistorySource::Warm);
        let path = dir.join(WARM_INDEX_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(RunHistory::open(&log).source(), HistorySource::Cold);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
