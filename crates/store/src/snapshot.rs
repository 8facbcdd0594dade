//! The versioned warm-state snapshot format (`SPWS`).
//!
//! The DPHEP status reports stress that preservation systems must survive
//! restarts and operate for decades, not single sessions. The objects in
//! the content store already survive via [`crate::SharedStorage::export_to_dir`];
//! this module conserves the *warm state* next to them — the
//! [`crate::RunMemo`] and [`crate::DigestCache`] entries a long-running
//! deployment accumulated — so a restarted system replays memoized cells
//! instead of re-earning the caches from scratch.
//!
//! ## Format
//!
//! ```text
//! header : magic "SPWS" | version u32 LE | section count u32 LE
//! section: name (u16-length-prefixed UTF-8) | entry count u32 LE
//! entry  : key (u32-length-prefixed bytes) | value (u32-length-prefixed
//!          bytes) | SHA-256(key ‖ value)
//! ```
//!
//! ## Trust rules
//!
//! A snapshot read from disk is *evidence, not truth*:
//!
//! * the header must carry the magic and a known version — anything else
//!   is a [`SnapshotError`], nothing is loaded;
//! * every entry re-hashes on load; an entry whose digest does not match
//!   its bytes is **dropped, never trusted** (and counted in the
//!   [`SnapshotLoadReport`]) — decoding continues with the next entry;
//! * what an entry *means* is the consumer's problem: the memo importers
//!   in `sp-core` additionally drop entries whose conserved objects are
//!   absent from the content store.

use sp_wire as wire;

use crate::sha256::Sha256;
use crate::RunKey;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SPWS";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Errors that abort a snapshot load entirely (contrast with per-entry
/// digest mismatches, which drop only the entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the `SPWS` magic.
    BadMagic,
    /// The header declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// The byte stream ended (or a length field pointed) outside the
    /// buffer — structural corruption that cannot be resynchronised.
    Truncated,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a warm-state snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (understood: {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated or structurally corrupt"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One named group of `(key, value)` entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotSection {
    /// Section name (e.g. `output-memo`, `digest-cache`).
    pub name: String,
    /// Entries, in writing order.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

impl SnapshotSection {
    /// Creates an empty named section.
    pub fn new(name: impl Into<String>) -> Self {
        SnapshotSection {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Appends one entry.
    pub fn push(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        self.entries.push((key.into(), value.into()));
    }
}

/// What a snapshot load accepted and rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotLoadReport {
    /// Entries whose digest validated.
    pub entries_loaded: usize,
    /// Entries dropped because their digest did not match their bytes.
    pub entries_dropped: usize,
}

impl SnapshotLoadReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: SnapshotLoadReport) {
        self.entries_loaded += other.entries_loaded;
        self.entries_dropped += other.entries_dropped;
    }
}

/// A warm-state snapshot: named sections of digest-guarded entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Sections in writing order.
    pub sections: Vec<SnapshotSection>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// The section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&SnapshotSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Total entries across all sections.
    pub fn entry_count(&self) -> usize {
        self.sections.iter().map(|s| s.entries.len()).sum()
    }

    /// Serialises the snapshot (versioned header, per-entry digests).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entry_count() * 96);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        wire::put_u32(&mut out, SNAPSHOT_VERSION);
        wire::put_u32(&mut out, self.sections.len() as u32);
        for section in &self.sections {
            wire::put_str16(&mut out, &section.name);
            wire::put_u32(&mut out, section.entries.len() as u32);
            for (key, value) in &section.entries {
                wire::put_bytes(&mut out, key);
                wire::put_bytes(&mut out, value);
                out.extend_from_slice(&entry_digest(key, value));
            }
        }
        out
    }

    /// Writes the encoded snapshot durably and atomically to `path`: the
    /// bytes are staged beside the target, `fsync`ed, renamed into place
    /// and the parent directory synced — only then is the snapshot
    /// committed against power loss. The stage name derives from the
    /// target, so concurrent writers of *different* snapshots never
    /// collide (concurrent writers of the same snapshot last-write-win,
    /// which is the same contract the rename itself gives).
    pub fn write_durable(
        &self,
        fs: &dyn crate::vfs::StoreFs,
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        let mut stage = path.as_os_str().to_os_string();
        stage.push(".stage");
        crate::vfs::write_durable_atomic(fs, &[(stage.into(), path.to_path_buf(), self.encode())])
    }

    /// Parses a snapshot, validating every entry's digest. Entries that
    /// fail validation are dropped (and counted); structural corruption —
    /// bad magic, unknown version, truncation — aborts with an error and
    /// loads nothing.
    pub fn decode(bytes: &[u8]) -> Result<(Snapshot, SnapshotLoadReport), SnapshotError> {
        let mut cursor = wire::Cursor::new(bytes);
        let magic = cursor.take(4).ok_or(SnapshotError::Truncated)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = cursor.take_u32().ok_or(SnapshotError::Truncated)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // A section is at least its name length and entry count; an entry
        // at least its two lengths and its digest.
        let section_count = cursor.take_count(2 + 4).ok_or(SnapshotError::Truncated)?;
        let mut snapshot = Snapshot::new();
        let mut report = SnapshotLoadReport::default();
        for _ in 0..section_count {
            let name = cursor.take_str16().ok_or(SnapshotError::Truncated)?;
            let entry_count = cursor
                .take_count(4 + 4 + 32)
                .ok_or(SnapshotError::Truncated)?;
            let mut section = SnapshotSection::new(name);
            for _ in 0..entry_count {
                let key = cursor.take_bytes().ok_or(SnapshotError::Truncated)?;
                let value = cursor.take_bytes().ok_or(SnapshotError::Truncated)?;
                let claimed = cursor.take(32).ok_or(SnapshotError::Truncated)?;
                if entry_digest(&key, &value) == claimed {
                    section.push(key, value);
                    report.entries_loaded += 1;
                } else {
                    report.entries_dropped += 1;
                }
            }
            snapshot.sections.push(section);
        }
        // Every byte must be accounted for: trailing bytes mean a count
        // or length field was corrupted downwards, silently shedding
        // entries with nothing counted as dropped — structural
        // corruption, so nothing is loaded.
        if !cursor.finished() {
            return Err(SnapshotError::Truncated);
        }
        Ok((snapshot, report))
    }
}

/// The digest guarding one entry: SHA-256 over key then value bytes.
fn entry_digest(key: &[u8], value: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(key);
    hasher.update(value);
    hasher.finalize()
}

/// Serialises a [`RunKey`] for use as a snapshot entry key.
pub fn encode_run_key(key: &RunKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.test.len() + key.env_revision.len() + 24);
    wire::put_str(&mut out, &key.test);
    wire::put_u64(&mut out, key.seed);
    wire::put_str(&mut out, &key.env_revision);
    wire::put_f64(&mut out, key.scale());
    out
}

/// Parses a [`RunKey`] serialised by [`encode_run_key`]. `None` on any
/// structural mismatch (such entries are dropped by the importers).
pub fn decode_run_key(bytes: &[u8]) -> Option<RunKey> {
    let mut cursor = wire::Cursor::new(bytes);
    let test = cursor.take_str()?;
    let seed = cursor.take_u64()?;
    let env_revision = cursor.take_str()?;
    let scale = cursor.take_f64()?;
    cursor
        .finished()
        .then(|| RunKey::new(test, seed, env_revision, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snapshot = Snapshot::new();
        let mut a = SnapshotSection::new("digest-cache");
        a.push(b"rev-1".to_vec(), b"id-1".to_vec());
        a.push(b"rev-2".to_vec(), b"id-2".to_vec());
        let mut b = SnapshotSection::new("output-memo");
        b.push(b"key".to_vec(), b"value".to_vec());
        snapshot.sections = vec![a, b];
        snapshot
    }

    #[test]
    fn encode_decode_round_trip() {
        let snapshot = sample();
        let bytes = snapshot.encode();
        let (decoded, report) = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(report.entries_loaded, 3);
        assert_eq!(report.entries_dropped, 0);
        assert_eq!(decoded.section("output-memo").unwrap().entries.len(), 1);
        assert!(decoded.section("ghost").is_none());
    }

    #[test]
    fn batched_guard_digests_are_the_entry_digest() {
        // The wire format is defined by `entry_digest`: the encoded guard
        // of the first entry is exactly that digest.
        let bytes = sample().encode();
        let offset =
            4 + 4 + 4 + 2 + "digest-cache".len() + 4 + 4 + "rev-1".len() + 4 + "id-1".len();
        assert_eq!(
            bytes[offset..offset + 32],
            entry_digest(b"rev-1", b"id-1"),
            "guard digest is SHA-256(key ‖ value)"
        );
    }

    #[test]
    fn corrupted_entry_is_dropped_not_trusted() {
        let snapshot = sample();
        let mut bytes = snapshot.encode();
        // Locate the value bytes of the first entry of the first section
        // from the known layout: 4 magic + 4 version + 4 section count +
        // (2 + len) name + 4 entry count + 4 key-len + key, then value-len.
        let offset = 4 + 4 + 4 + 2 + "digest-cache".len() + 4 + 4 + "rev-1".len() + 4;
        bytes[offset] ^= 0xff;
        let (decoded, report) = Snapshot::decode(&bytes).unwrap();
        assert_eq!(report.entries_dropped, 1, "exactly the corrupted entry");
        assert_eq!(report.entries_loaded, 2);
        // The surviving entries are bit-exact originals.
        assert_eq!(
            decoded.section("digest-cache").unwrap().entries,
            vec![(b"rev-2".to_vec(), b"id-2".to_vec())]
        );
        assert_eq!(decoded.section("output-memo").unwrap().entries.len(), 1);
    }

    #[test]
    fn structural_corruption_aborts() {
        assert_eq!(Snapshot::decode(b"no"), Err(SnapshotError::Truncated));
        assert_eq!(Snapshot::decode(b"nope"), Err(SnapshotError::BadMagic));
        assert_eq!(
            Snapshot::decode(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00"),
            Err(SnapshotError::BadMagic)
        );
        let mut future = sample().encode();
        future[4] = 99; // version field
        assert_eq!(
            Snapshot::decode(&future),
            Err(SnapshotError::UnsupportedVersion(99))
        );
        let truncated = &sample().encode()[..20];
        assert_eq!(Snapshot::decode(truncated), Err(SnapshotError::Truncated));
    }

    #[test]
    fn shrunken_counts_cannot_shed_entries_silently() {
        // Corrupting a count field downwards leaves trailing bytes; the
        // decoder must refuse the whole load rather than return fewer
        // entries with `entries_dropped == 0`.
        let snapshot = sample();
        let mut fewer_sections = snapshot.encode();
        fewer_sections[8] = 1; // section count: 2 -> 1
        assert_eq!(
            Snapshot::decode(&fewer_sections),
            Err(SnapshotError::Truncated)
        );
        let mut fewer_entries = snapshot.encode();
        let entry_count_offset = 4 + 4 + 4 + 2 + "digest-cache".len();
        fewer_entries[entry_count_offset] = 1; // entry count: 2 -> 1
        assert_eq!(
            Snapshot::decode(&fewer_entries),
            Err(SnapshotError::Truncated)
        );
        let mut trailing = snapshot.encode();
        trailing.push(0xab);
        assert_eq!(Snapshot::decode(&trailing), Err(SnapshotError::Truncated));
    }

    #[test]
    fn run_key_round_trip() {
        let key = RunKey::new("h1::chain/nc", 20131029, "SL6/64bit gcc4.4 root5.34", 0.25);
        let bytes = encode_run_key(&key);
        assert_eq!(decode_run_key(&bytes), Some(key));
        assert_eq!(decode_run_key(b"garbage"), None);
        assert_eq!(decode_run_key(&bytes[..bytes.len() - 1]), None);
    }
}
