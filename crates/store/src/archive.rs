//! The `SPAR` archive format.
//!
//! The paper stores the binaries resulting from each package compilation "as
//! tar-balls on the common storage within the sp-system". `SPAR` is the
//! stand-in: a deterministic, self-describing container with named entries,
//! Unix modes and a trailing whole-archive checksum.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : 4 bytes  b"SPAR"
//! version : u16      (currently 1)
//! count   : u32      number of entries
//! entry*  : path_len u16 | path utf-8 | mode u32 | data_len u32 | data
//! digest  : 32 bytes SHA-256 of everything before it
//! ```
//!
//! Entries are sorted by path at pack time so that packing is deterministic:
//! the same logical contents always yield the same bytes, hence the same
//! [`ObjectId`](crate::ObjectId) — which is what makes artifact
//! deduplication across validation runs work. Unpacking rejects entries
//! out of path order, so an unpacked archive re-packs to its input bytes.

use std::sync::Arc;

use sp_wire::{self as wire, Cursor};

use crate::{sha256, Result, StoreError};

const MAGIC: &[u8; 4] = b"SPAR";
const VERSION: u16 = 1;

/// A named member of an [`Archive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveEntry {
    /// Relative path inside the archive (`bin/h1rec`, `lib/libh1geom.a`…).
    pub path: String,
    /// Unix permission bits (e.g. `0o755` for executables).
    pub mode: u32,
    /// File contents (shared: a clone is a reference-count bump).
    pub data: Arc<[u8]>,
}

impl ArchiveEntry {
    /// Creates an entry with the default non-executable mode.
    pub fn file(path: impl Into<String>, data: impl Into<Arc<[u8]>>) -> Self {
        ArchiveEntry {
            path: path.into(),
            mode: 0o644,
            data: data.into(),
        }
    }

    /// Creates an executable entry.
    pub fn executable(path: impl Into<String>, data: impl Into<Arc<[u8]>>) -> Self {
        ArchiveEntry {
            path: path.into(),
            mode: 0o755,
            data: data.into(),
        }
    }
}

/// An in-memory archive: the sp-system's "tar-ball".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Archive {
    entries: Vec<ArchiveEntry>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Adds an entry. Paths must be relative and free of `..` components,
    /// and path and data must fit the `u16`/`u32` length fields of the
    /// wire format, so that a packed archive always unpacks to its entries.
    pub fn add(&mut self, entry: ArchiveEntry) -> Result<()> {
        validate_path(&entry.path)?;
        if u32::try_from(entry.data.len()).is_err() {
            return Err(StoreError::BadArchive(format!(
                "entry '{}' holds {} bytes, more than the format's u32 length field",
                entry.path,
                entry.data.len()
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by exact path.
    pub fn entry(&self, path: &str) -> Option<&ArchiveEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// Total payload size in bytes.
    fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Serialises to the `SPAR` wire format. Entries are emitted in path
    /// order for determinism.
    pub fn pack(&self) -> Vec<u8> {
        let mut sorted: Vec<&ArchiveEntry> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));

        let mut buf = Vec::with_capacity(64 + self.payload_bytes());
        buf.extend_from_slice(MAGIC);
        wire::put_u16(&mut buf, VERSION);
        wire::put_u32(&mut buf, sorted.len() as u32);
        for entry in sorted {
            wire::put_u16(&mut buf, entry.path.len() as u16);
            buf.extend_from_slice(entry.path.as_bytes());
            wire::put_u32(&mut buf, entry.mode);
            wire::put_bytes(&mut buf, &entry.data);
        }
        let digest = sha256::digest(&buf);
        buf.extend_from_slice(&digest);
        buf
    }

    /// Decodes a `SPAR` archive, verifying checksum, magic and version.
    /// Every entry must pass [`add`](Self::add)'s checks and follow the
    /// previous one in path order.
    pub fn unpack(data: &[u8]) -> Result<Self> {
        let bad = |msg: &str| StoreError::BadArchive(msg.to_string());
        let Some((body, digest)) = data
            .split_last_chunk::<32>()
            .filter(|(body, _)| body.len() >= MAGIC.len() + 2 + 4)
        else {
            return Err(bad("truncated header"));
        };
        if sha256::digest(body) != *digest {
            return Err(bad("checksum mismatch"));
        }
        let mut cur = Cursor::new(body);
        if cur.take(4).ok_or_else(|| bad("truncated header"))? != MAGIC {
            return Err(bad("bad magic"));
        }
        match cur.take_u16() {
            Some(VERSION) => {}
            Some(version) => {
                return Err(StoreError::BadArchive(format!(
                    "unsupported version {version}"
                )))
            }
            None => return Err(bad("truncated header")),
        }
        // An entry is at least its three length/mode fields.
        let count = cur
            .take_count(2 + 4 + 4)
            .ok_or_else(|| bad("more entries than the archive can hold"))?;
        let mut archive = Archive::new();
        for _ in 0..count {
            let (path, mode, data) = take_entry(&mut cur).ok_or_else(|| bad("truncated entry"))?;
            let path = std::str::from_utf8(path).map_err(|_| bad("non-utf8 path"))?;
            if archive
                .entries
                .last()
                .is_some_and(|last| last.path.as_str() > path)
            {
                return Err(bad("entries out of path order"));
            }
            archive.add(ArchiveEntry {
                path: path.to_string(),
                mode,
                data: data.into(),
            })?;
        }
        if !cur.finished() {
            return Err(bad("trailing bytes after last entry"));
        }
        Ok(archive)
    }
}

/// Takes one entry's raw path, mode and data.
fn take_entry<'a>(cur: &mut Cursor<'a>) -> Option<(&'a [u8], u32, &'a [u8])> {
    let path_len = cur.take_u16()? as usize;
    let path = cur.take(path_len)?;
    let mode = cur.take_u32()?;
    let data_len = cur.take_u32()? as usize;
    Some((path, mode, cur.take(data_len)?))
}

fn validate_path(path: &str) -> Result<()> {
    let reject = |p: &str| Err(StoreError::BadPath(p.to_string()));
    if path.is_empty() || path.starts_with('/') || u16::try_from(path.len()).is_err() {
        return reject(path);
    }
    if path
        .split('/')
        .any(|c| c.is_empty() || c == "." || c == "..")
    {
        return reject(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Archive {
        let mut a = Archive::new();
        a.add(ArchiveEntry::executable("bin/h1rec", &b"\x7fELF..."[..]))
            .unwrap();
        a.add(ArchiveEntry::file("lib/libh1geom.a", &b"!<arch>"[..]))
            .unwrap();
        a.add(ArchiveEntry::file("share/steering.dat", &b"Q2MIN 4.0"[..]))
            .unwrap();
        a
    }

    #[test]
    fn pack_unpack_round_trip() {
        let archive = sample();
        let packed = archive.pack();
        let unpacked = Archive::unpack(&packed).unwrap();
        assert_eq!(unpacked.len(), 3);
        let rec = unpacked.entry("bin/h1rec").unwrap();
        assert_eq!(rec.mode, 0o755);
        assert_eq!(rec.data.as_ref(), b"\x7fELF...");
    }

    #[test]
    fn pack_is_deterministic_under_insertion_order() {
        let mut a = Archive::new();
        a.add(ArchiveEntry::file("b", &b"2"[..])).unwrap();
        a.add(ArchiveEntry::file("a", &b"1"[..])).unwrap();
        let mut b = Archive::new();
        b.add(ArchiveEntry::file("a", &b"1"[..])).unwrap();
        b.add(ArchiveEntry::file("b", &b"2"[..])).unwrap();
        assert_eq!(a.pack(), b.pack());
    }

    #[test]
    fn unpack_rejects_bit_flips() {
        let packed = sample().pack();
        for idx in [0usize, 6, packed.len() / 2, packed.len() - 1] {
            let mut corrupted = packed.clone();
            corrupted[idx] ^= 0x01;
            assert!(
                Archive::unpack(&corrupted).is_err(),
                "flip at {idx} went undetected"
            );
        }
    }

    #[test]
    fn unpack_rejects_truncation() {
        let packed = sample().pack();
        for cut in [0usize, 5, 20, packed.len() - 1] {
            assert!(Archive::unpack(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_escaping_paths() {
        let mut a = Archive::new();
        for bad in ["/abs", "../up", "a/../b", "", "a//b", "./x"] {
            assert!(
                a.add(ArchiveEntry::file(bad, &b""[..])).is_err(),
                "path '{bad}' accepted"
            );
        }
    }

    #[test]
    fn path_lengths_are_bounded_by_the_u16_field() {
        let longest = "p".repeat(usize::from(u16::MAX));
        let mut a = Archive::new();
        a.add(ArchiveEntry::file(longest.clone(), &b"x"[..]))
            .unwrap();
        let unpacked = Archive::unpack(&a.pack()).unwrap();
        assert_eq!(unpacked.entry(&longest).unwrap().data.as_ref(), b"x");

        let too_long = "p".repeat(usize::from(u16::MAX) + 1);
        assert!(Archive::new()
            .add(ArchiveEntry::file(too_long, &b"x"[..]))
            .is_err());
    }

    #[test]
    fn empty_archive_round_trips() {
        let a = Archive::new();
        let unpacked = Archive::unpack(&a.pack()).unwrap();
        assert!(unpacked.is_empty());
    }

    #[test]
    fn payload_bytes_counts_all_entries() {
        assert_eq!(sample().payload_bytes(), 7 + 7 + 9);
    }
}
