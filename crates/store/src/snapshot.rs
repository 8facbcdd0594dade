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

use crate::run_memo::RunKey;
use crate::sha256::{BatchDigester, MultilaneDigester, Sha256};

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
        self.encode_with(&MultilaneDigester)
    }

    /// [`encode`](Self::encode) with a caller-supplied [`BatchDigester`]
    /// computing the per-entry guard digests. The entries are independent,
    /// so snapshot export can hand the batch to a pool-backed digester
    /// (e.g. `sp_exec::WorkStealingPool`); digests land in entry order
    /// either way, so the emitted bytes are identical to [`encode`]'s.
    pub fn encode_with(&self, digester: &dyn BatchDigester) -> Vec<u8> {
        let guarded: Vec<Vec<u8>> = self
            .sections
            .iter()
            .flat_map(|s| s.entries.iter())
            .map(|(key, value)| [key.as_slice(), value.as_slice()].concat())
            .collect();
        let inputs: Vec<&[u8]> = guarded.iter().map(|g| g.as_slice()).collect();
        let mut digests = digester.digest_all(&inputs).into_iter();

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
                out.extend_from_slice(&digests.next().expect("one digest per entry"));
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
        crate::vfs::write_durable_atomic(fs, std::path::Path::new(&stage), path, &self.encode())
    }

    /// Parses a snapshot, validating every entry's digest. Entries that
    /// fail validation are dropped (and counted); structural corruption —
    /// bad magic, unknown version, truncation — aborts with an error and
    /// loads nothing.
    pub fn decode(bytes: &[u8]) -> Result<(Snapshot, SnapshotLoadReport), SnapshotError> {
        Self::decode_with(bytes, &MultilaneDigester)
    }

    /// [`decode`](Self::decode) with a caller-supplied [`BatchDigester`]
    /// re-computing the per-entry guard digests. The structure is parsed
    /// first (structural corruption aborts exactly as in [`decode`]), then
    /// every entry's digest is verified in one batch; mismatching entries
    /// are dropped, never trusted.
    pub fn decode_with(
        bytes: &[u8],
        digester: &dyn BatchDigester,
    ) -> Result<(Snapshot, SnapshotLoadReport), SnapshotError> {
        let mut cursor = wire::Cursor::new(bytes);
        let magic = cursor.take(4).ok_or(SnapshotError::Truncated)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = cursor.take_u32().ok_or(SnapshotError::Truncated)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // A parsed-but-unverified entry: key, value, claimed digest.
        type RawEntry = (Vec<u8>, Vec<u8>, [u8; 32]);
        let section_count = cursor.take_u32().ok_or(SnapshotError::Truncated)?;
        let mut raw: Vec<(String, Vec<RawEntry>)> = Vec::new();
        for _ in 0..section_count {
            let name = cursor.take_str16().ok_or(SnapshotError::Truncated)?;
            let entry_count = cursor.take_u32().ok_or(SnapshotError::Truncated)?;
            let mut entries = Vec::new();
            for _ in 0..entry_count {
                let key = cursor.take_bytes().ok_or(SnapshotError::Truncated)?;
                let value = cursor.take_bytes().ok_or(SnapshotError::Truncated)?;
                let digest = cursor.take(32).ok_or(SnapshotError::Truncated)?;
                entries.push((key, value, digest.try_into().expect("32-byte digest")));
            }
            raw.push((name, entries));
        }
        // Every byte must be accounted for: trailing bytes mean a count
        // or length field was corrupted downwards, silently shedding
        // entries with nothing counted as dropped — structural
        // corruption, so nothing is loaded.
        if !cursor.finished() {
            return Err(SnapshotError::Truncated);
        }

        let guarded: Vec<Vec<u8>> = raw
            .iter()
            .flat_map(|(_, entries)| entries.iter())
            .map(|(key, value, _)| [key.as_slice(), value.as_slice()].concat())
            .collect();
        let inputs: Vec<&[u8]> = guarded.iter().map(|g| g.as_slice()).collect();
        let mut computed = digester.digest_all(&inputs).into_iter();

        let mut snapshot = Snapshot::new();
        let mut report = SnapshotLoadReport::default();
        for (name, entries) in raw {
            let mut section = SnapshotSection::new(name);
            for (key, value, claimed) in entries {
                if computed.next().expect("one digest per entry") == claimed {
                    section.push(key, value);
                    report.entries_loaded += 1;
                } else {
                    report.entries_dropped += 1;
                }
            }
            snapshot.sections.push(section);
        }
        Ok((snapshot, report))
    }
}

/// The digest guarding one entry: SHA-256 over key then value bytes. The
/// batched encode/decode paths compute exactly this, four entries per pass.
#[cfg_attr(not(test), allow(dead_code))]
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
    wire::put_u64(&mut out, key.scale().to_bits());
    out
}

/// Parses a [`RunKey`] serialised by [`encode_run_key`]. `None` on any
/// structural mismatch (such entries are dropped by the importers).
pub fn decode_run_key(bytes: &[u8]) -> Option<RunKey> {
    let mut cursor = wire::Cursor::new(bytes);
    let test = cursor.take_str()?;
    let seed = cursor.take_u64()?;
    let env_revision = cursor.take_str()?;
    let scale = f64::from_bits(cursor.take_u64()?);
    cursor
        .finished()
        .then(|| RunKey::new(test, seed, env_revision, scale))
}

/// Length-prefixed little-endian wire helpers shared by the snapshot
/// container and the value serialisers in `sp-core`.
pub mod wire {
    /// Appends a `u32` little-endian.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `u32`-length-prefixed raw bytes.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        put_u32(out, bytes.len() as u32);
        out.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }

    /// Appends a `u16`-length-prefixed UTF-8 string (section names).
    pub fn put_str16(out: &mut Vec<u8>, s: &str) {
        let len = s.len().min(u16::MAX as usize) as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&s.as_bytes()[..len as usize]);
    }

    /// A bounds-checked reader over serialised bytes: every `take_*`
    /// returns `None` instead of reading past the end, so corrupted
    /// length fields surface as decode failures rather than panics.
    pub struct Cursor<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        /// Opens a cursor at the start of `data`.
        pub fn new(data: &'a [u8]) -> Self {
            Cursor { data, pos: 0 }
        }

        /// Takes `n` raw bytes.
        pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            if end > self.data.len() {
                return None;
            }
            let slice = &self.data[self.pos..end];
            self.pos = end;
            Some(slice)
        }

        /// Takes a little-endian `u32`.
        pub fn take_u32(&mut self) -> Option<u32> {
            self.take(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        }

        /// Takes a little-endian `u64`.
        pub fn take_u64(&mut self) -> Option<u64> {
            self.take(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        }

        /// Takes a `u32` element count, rejecting any count the remaining
        /// input cannot hold when each element occupies at least
        /// `min_elem_bytes` on the wire — so a corrupt count fails the
        /// decode instead of sizing an allocation.
        pub fn take_count(&mut self, min_elem_bytes: usize) -> Option<usize> {
            let count = self.take_u32()? as usize;
            let needed = count.checked_mul(min_elem_bytes)?;
            (needed <= self.data.len() - self.pos).then_some(count)
        }

        /// Takes `u32`-length-prefixed bytes.
        pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
            let len = self.take_u32()? as usize;
            self.take(len).map(|b| b.to_vec())
        }

        /// Takes a `u32`-length-prefixed UTF-8 string.
        pub fn take_str(&mut self) -> Option<String> {
            let len = self.take_u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).ok()
        }

        /// Takes a `u16`-length-prefixed UTF-8 string.
        pub fn take_str16(&mut self) -> Option<String> {
            let len = self.take(2)?;
            let len = u16::from_le_bytes(len.try_into().unwrap()) as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).ok()
        }

        /// Whether every byte has been consumed.
        pub fn finished(&self) -> bool {
            self.pos == self.data.len()
        }
    }
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
    fn take_count_rejects_counts_the_input_cannot_hold() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(wire::Cursor::new(&bytes).take_count(1), None);

        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(wire::Cursor::new(&bytes).take_count(4), Some(2));
        assert_eq!(wire::Cursor::new(&bytes).take_count(5), None);
        assert_eq!(wire::Cursor::new(&bytes[..3]).take_count(1), None);
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
        // The wire format is defined by `entry_digest`; the batched
        // encoder must emit byte-identical snapshots.
        let snapshot = sample();
        let bytes = snapshot.encode_with(&MultilaneDigester);
        assert_eq!(bytes, snapshot.encode());
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
