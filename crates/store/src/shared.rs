//! The shared-storage façade mounted by every sp-system client.
//!
//! Figure 1 of the paper shows the sp-system storage sitting between the
//! three inputs (experiment software, external dependencies, OS) and the
//! client machines. §3.1 adds the joining rule: *"The only requirement of a
//! new machine is to have access to the common sp-system storage … as well
//! as the ability to run a cron-job on the client."* §4 describes the
//! interface: *"the common storage allows communication between the
//! sp-system and the experiment tests using only a few shell variables.
//! These variables describe for example the location of the input file of
//! the tests, the test outputs and the external software on the client."*
//!
//! [`SharedStorage`] models exactly that: immutable objects in a
//! [`ContentStore`], logical [`StorageArea`]s instead of directory paths,
//! and [`ShellEnv`] as the thin-variable interface handed to each test job.
//!
//! §3.3 keeps every output under the unique ID of the job that made it
//! (*"all scripts and input files used in the test as well as all output
//! files are kept"*). Those names are the storage's mutable bookkeeping,
//! kept apart from the immutable content-addressed objects. Per area a
//! key (`<run>/<test>/<output>` in the results area) is split at its first
//! `/`: a map from the group (`<run>/`) to an ordered map from the rest
//! (`<test>/<output>`) to the [`ObjectId`] of the bytes, so a run's names
//! land as one group. Listings and the exported `<area>.index` files walk
//! groups, then rests, which is full-key order. The runs of a cell name
//! the same rests night after night and mostly point at objects earlier
//! runs named too, so each distinct rest and each named address is held
//! once: a name costs a 16-byte handle to its rest and a 4-byte index.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::meta::Names;
use crate::vfs::{write_durable_atomic, StagingDir};
use crate::{Archive, ContentStore, DigestCache, ObjectId, Result};

/// Logical areas of the common storage, mirroring the directory layout of
/// the DESY deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StorageArea {
    /// Compiled package binaries ("tar-balls").
    Artifacts,
    /// Test definitions and scripts supplied by the experiments.
    Tests,
    /// Outputs of validation jobs (one sub-tree per run/job).
    Results,
    /// Conserved virtual-machine image recipes.
    Images,
}

impl StorageArea {
    /// The area's name: its index file is `<namespace>.index`.
    pub fn namespace(self) -> &'static str {
        match self {
            StorageArea::Artifacts => "artifacts",
            StorageArea::Tests => "tests",
            StorageArea::Results => "results",
            StorageArea::Images => "images",
        }
    }

    /// All areas, in rendering order.
    pub fn all() -> [StorageArea; 4] {
        [
            StorageArea::Artifacts,
            StorageArea::Tests,
            StorageArea::Results,
            StorageArea::Images,
        ]
    }
}

impl std::fmt::Display for StorageArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.namespace())
    }
}

/// The common storage: one shared instance per sp-system deployment.
#[derive(Clone, Default)]
pub struct SharedStorage {
    content: Arc<ContentStore>,
    names: Arc<RwLock<Names>>,
    digests: Arc<DigestCache>,
}

impl SharedStorage {
    /// Creates an empty shared storage.
    pub fn new() -> Self {
        SharedStorage::default()
    }

    /// Direct access to the underlying content store.
    pub fn content(&self) -> &ContentStore {
        &self.content
    }

    /// The digest cache backing [`put_named_cached`](Self::put_named_cached).
    pub fn digest_cache(&self) -> &DigestCache {
        &self.digests
    }

    /// Stores raw bytes under `area/key` and returns the content address.
    pub fn put_named(
        &self,
        area: StorageArea,
        key: &str,
        data: impl AsRef<[u8]> + Into<Arc<[u8]>>,
    ) -> ObjectId {
        let id = self.content.put(data);
        self.name(area, key, id);
        id
    }

    /// Points `area/key` at `id`, replacing any earlier address.
    fn name(&self, area: StorageArea, key: &str, id: ObjectId) {
        self.names.write().insert(area, key, id);
    }

    /// Names objects already in the content store under one group of
    /// `area` — the memoised-replay path, where the bytes were conserved
    /// by an earlier run under a different key. Each `([dir, leaf], id)`
    /// pair names `<group><dir>/<leaf>`; `group` is one segment and its
    /// `/`, such as a run's `spr-000123/`. Presence is checked under one
    /// content-store read, which is released before the group lands in the
    /// name map under one write lock, as one insert when the group is new;
    /// no key text is built. Pairs whose object is absent are skipped;
    /// returns how many names were registered.
    pub fn register_named_many<'a>(
        &self,
        area: StorageArea,
        group: &str,
        names: impl IntoIterator<Item = ([&'a str; 2], ObjectId)>,
    ) -> usize {
        let mut present: Vec<([&str; 2], ObjectId)> = names.into_iter().collect();
        self.content.retain_present(&mut present, |(_, id)| *id);
        let registered = present.len();
        self.names.write().insert_group(area, group, present);
        registered
    }

    /// Stores the bytes `produce` would yield under `area/key`, memoised by
    /// `revision`: if this revision was stored before and its object is
    /// still present, `produce` is **not called** and nothing is re-hashed —
    /// the cached content address is returned directly.
    ///
    /// `revision` must capture every determinant of the produced content
    /// (e.g. package id, version and environment label for a build
    /// artifact); a revision that under-describes its content will happily
    /// serve stale bytes. Entries whose objects were pruned from the
    /// content store are detected and refreshed.
    pub fn put_named_cached(
        &self,
        area: StorageArea,
        key: &str,
        revision: &str,
        produce: impl FnOnce() -> Vec<u8>,
    ) -> ObjectId {
        let served = self.digests.serve(revision, |id| {
            // An object pruned by retention fails validation: the entry is
            // evicted and the bytes are stored again below.
            self.content.contains(id).then_some(id)
        });
        if let Some(id) = served {
            // Keep the name → address mapping fresh for this key even
            // when the bytes were produced under an earlier key.
            self.name(area, key, id);
            return id;
        }
        let id = self.put_named(area, key, produce());
        self.digests.insert(revision.to_string(), id);
        id
    }

    /// Resolves `area/key` to its content address, if registered.
    pub fn lookup(&self, area: StorageArea, key: &str) -> Option<ObjectId> {
        self.names.read().get(area, key)
    }

    /// Fetches the bytes registered under `area/key`.
    pub fn get_named(&self, area: StorageArea, key: &str) -> Option<Result<Arc<[u8]>>> {
        self.lookup(area, key).map(|id| self.content.get(id))
    }

    /// Unpack-verifies every archive registered under `area` whose key
    /// starts with `prefix`, returning the keys that fail (dangling name,
    /// corrupt object, or bytes that no longer decode as an archive).
    pub fn verify_archives(&self, area: StorageArea, prefix: &str) -> Vec<String> {
        let mut failed: Vec<String> = self
            .list(area, prefix)
            .into_iter()
            .filter(|(_, id)| {
                self.content
                    .get(*id)
                    .and_then(|bytes| Archive::unpack(&bytes))
                    .is_err()
            })
            .map(|(key, _)| key)
            .collect();
        failed.sort();
        failed
    }

    /// Lists `(key, object-id)` pairs under `area` with the given prefix,
    /// in key order.
    pub fn list(&self, area: StorageArea, prefix: &str) -> Vec<(String, ObjectId)> {
        self.names.read().list(area, prefix)
    }

    /// How many names `area` holds, counted without building their keys.
    pub fn name_count(&self, area: StorageArea) -> usize {
        self.names.read().len(area)
    }

    /// Materialises every registered object onto the filesystem:
    /// `<dir>/objects/<hex>` for the raw objects plus one `<area>.index`
    /// listing per storage area. This is how a conserved sp-system site
    /// (HTML pages + outputs) becomes browsable outside the process.
    pub fn export_to_dir(&self, dir: &std::path::Path) -> std::io::Result<ExportSummary> {
        self.export_to_dir_fs(dir, &crate::vfs::OsFs)
    }

    /// [`export_to_dir`](Self::export_to_dir) over an injectable
    /// filesystem. Objects are write-once: one already on the medium is
    /// never rewritten, so no crash can tear it (a torn write there would
    /// go unnoticed for years). The new objects, then the indexes, are
    /// each one [`write_durable_atomic`] slice staged under `<dir>/tmp/`.
    pub fn export_to_dir_fs(
        &self,
        dir: &std::path::Path,
        fs: &dyn crate::vfs::StoreFs,
    ) -> std::io::Result<ExportSummary> {
        let objects_dir = dir.join("objects");
        fs.create_dir_all(&objects_dir)?;
        let staging = StagingDir::open(fs, dir.join("tmp"))?;
        let mut seen = std::collections::BTreeSet::new();
        let mut objects = Vec::new();
        let mut indexes = Vec::new();
        for area in StorageArea::all() {
            let mut index = String::new();
            for (key, oid) in self.list(area, "") {
                // A name may outlive its object (retention pruning removes
                // objects, not bookkeeping names): dangling names are left
                // out of the export rather than failing it — the indexes
                // describe what is actually conserved.
                if !self.content.contains(oid) {
                    continue;
                }
                let hex = oid.to_hex();
                index.push_str(&format!("{key} {hex}\n"));
                let path = objects_dir.join(hex);
                if seen.insert(oid) && !fs.exists(&path) {
                    let bytes = self
                        .content
                        .get(oid)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    objects.push((staging.next(), path, bytes));
                }
            }
            let index_path = dir.join(format!("{}.index", area.namespace()));
            indexes.push((staging.next(), index_path, index));
        }
        // Sync `objects/` even when nothing is new: an earlier export that
        // failed may have left its renames there unsynced.
        if objects.is_empty() {
            fs.sync_dir(&objects_dir)?;
        }
        write_durable_atomic(fs, &objects)?;
        write_durable_atomic(fs, &indexes)?;
        Ok(ExportSummary {
            objects_written: objects.len(),
        })
    }

    /// Loads a directory written by [`export_to_dir`](Self::export_to_dir)
    /// back into this storage: every `objects/<hex>` file is re-hashed and
    /// admitted only if its bytes still address to its file name (silent
    /// bit-rot on the preservation medium is *rejected*, not imported),
    /// then the `<area>.index` listings restore the name → address
    /// mappings whose objects survived. An area without an index file is
    /// an empty area; any other failure to read one fails the import.
    pub fn import_from_dir(&self, dir: &std::path::Path) -> std::io::Result<ImportSummary> {
        self.import_from_dir_fs(dir, &crate::vfs::OsFs)
    }

    /// [`import_from_dir`](Self::import_from_dir) over an injectable
    /// filesystem, so restore paths run under the same fault layer as the
    /// write paths in chaos tests.
    pub fn import_from_dir_fs(
        &self,
        dir: &std::path::Path,
        fs: &dyn crate::vfs::StoreFs,
    ) -> std::io::Result<ImportSummary> {
        let objects_dir = dir.join("objects");
        let mut summary = ImportSummary::default();
        if fs.exists(&objects_dir) {
            // One object at a time: read, re-hash, admit only if the bytes
            // still address to the file name (silent bit-rot is rejected,
            // not imported).
            for name in fs.read_dir_names(&objects_dir)? {
                let Some(id) = ObjectId::from_hex(&name) else {
                    summary.objects_rejected += 1;
                    continue;
                };
                let bytes = fs.read(&objects_dir.join(&name))?;
                if ObjectId::for_bytes(&bytes) != id {
                    summary.objects_rejected += 1;
                    continue;
                }
                self.content.put_prehashed(id, bytes);
                summary.objects_loaded += 1;
            }
        }
        for area in StorageArea::all() {
            let index_path = dir.join(format!("{}.index", area.namespace()));
            let index = match fs.read(&index_path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            for line in String::from_utf8_lossy(&index).lines() {
                let Some((key, hex)) = line.rsplit_once(' ') else {
                    summary.names_rejected += 1;
                    continue;
                };
                let restored = ObjectId::from_hex(hex).filter(|id| self.content.contains(*id));
                if let Some(id) = restored {
                    self.name(area, key, id);
                    summary.names_restored += 1;
                } else {
                    // Unparseable address, or the object it names was
                    // rejected above: the name would dangle.
                    summary.names_rejected += 1;
                }
            }
        }
        Ok(summary)
    }

    /// Builds the "few shell variables" environment for a test job.
    ///
    /// `input_key`/`output_key` are `Results`-area keys; `software_root`
    /// names the artifact prefix for the external software installed on the
    /// client.
    pub fn shell_env(&self, input_key: &str, output_key: &str, software_root: &str) -> ShellEnv {
        ShellEnv {
            sp_input: format!("$SP_STORE/results/{input_key}"),
            sp_output: format!("$SP_STORE/results/{output_key}"),
            sp_software: format!("$SP_STORE/artifacts/{software_root}"),
        }
    }
}

/// Result of a filesystem export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportSummary {
    /// Objects this export added to the medium.
    pub objects_written: usize,
}

/// Result of a filesystem import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportSummary {
    /// Objects whose bytes re-hashed to their file name and were admitted.
    pub objects_loaded: usize,
    /// Object files rejected (unparseable name or content-address
    /// mismatch — bit-rot is never imported).
    pub objects_rejected: usize,
    /// Name → address mappings restored from the area indexes.
    pub names_restored: usize,
    /// Index lines skipped (malformed, or naming a rejected object).
    pub names_rejected: usize,
}

/// The thin shell-variable interface between the sp-system and a user test.
///
/// "Using thin layers of scripts, a separation of the user part from the
/// details of the sp-system is possible, allowing already existing user
/// tests to be integrated into the sp-system or tests developed within the
/// sp-system to be ported to other test platforms." (§4)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellEnv {
    /// `$SP_INPUT` — location of the test's input file(s).
    pub sp_input: String,
    /// `$SP_OUTPUT` — where the test must deposit its outputs.
    pub sp_output: String,
    /// `$SP_SOFTWARE` — root of the external software installation.
    pub sp_software: String,
}

impl ShellEnv {
    /// Renders the environment as `KEY=value` lines, the form a thin script
    /// layer would source.
    pub fn render(&self) -> String {
        format!(
            "SP_INPUT={}\nSP_OUTPUT={}\nSP_SOFTWARE={}\n",
            self.sp_input, self.sp_output, self.sp_software
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchiveEntry;

    #[test]
    fn verify_archives_flags_corruption_and_non_archives() {
        let storage = SharedStorage::new();
        let mut good = Archive::new();
        good.add(ArchiveEntry::file("bin/ok", &b"fine"[..]))
            .unwrap();
        storage.put_named(StorageArea::Artifacts, "pkg/good", good.pack());

        let mut doomed = Archive::new();
        doomed
            .add(ArchiveEntry::file("bin/doomed", &b"rot"[..]))
            .unwrap();
        let doomed_id = storage.put_named(StorageArea::Artifacts, "pkg/doomed", doomed.pack());
        storage.content().corrupt_for_test(doomed_id);

        // A name registered over raw, non-archive bytes fails unpack.
        storage.put_named(
            StorageArea::Artifacts,
            "pkg/not-an-archive",
            &b"just bytes"[..],
        );
        // Other areas are out of scope for the artifact sweep.
        storage.put_named(StorageArea::Tests, "t/script", &b"#!/bin/sh"[..]);

        let failed = storage.verify_archives(StorageArea::Artifacts, "");
        assert_eq!(
            failed,
            vec!["pkg/doomed".to_string(), "pkg/not-an-archive".to_string()]
        );
        assert!(storage
            .verify_archives(StorageArea::Artifacts, "pkg/good")
            .is_empty());
    }

    #[test]
    fn named_put_lookup_get() {
        let storage = SharedStorage::new();
        let id = storage.put_named(StorageArea::Tests, "h1/compile/h1rec.sh", &b"#!/bin/sh"[..]);
        assert_eq!(
            storage.lookup(StorageArea::Tests, "h1/compile/h1rec.sh"),
            Some(id)
        );
        let bytes = storage
            .get_named(StorageArea::Tests, "h1/compile/h1rec.sh")
            .unwrap()
            .unwrap();
        assert_eq!(bytes.as_ref(), b"#!/bin/sh");
        // Storing other bytes under the same key moves the name.
        let moved = storage.put_named(StorageArea::Tests, "h1/compile/h1rec.sh", &b"exit 0"[..]);
        assert_ne!(moved, id);
        assert_eq!(
            storage.lookup(StorageArea::Tests, "h1/compile/h1rec.sh"),
            Some(moved)
        );
        assert_eq!(storage.list(StorageArea::Tests, "").len(), 1);
    }

    #[test]
    fn cached_put_skips_producer_on_hit() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let storage = SharedStorage::new();
        let produced = AtomicUsize::new(0);
        let make = || {
            produced.fetch_add(1, Ordering::SeqCst);
            b"tarball-bytes".to_vec()
        };
        let first =
            storage.put_named_cached(StorageArea::Artifacts, "p/1.0/SL6", "p@1.0@SL6", make);
        let second =
            storage.put_named_cached(StorageArea::Artifacts, "p/1.0/SL6", "p@1.0@SL6", make);
        assert_eq!(first, second);
        assert_eq!(
            produced.load(Ordering::SeqCst),
            1,
            "second put served from cache"
        );
        let stats = storage.digest_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different revision misses and produces again.
        storage.put_named_cached(StorageArea::Artifacts, "p/1.1/SL6", "p@1.1@SL6", || {
            b"other".to_vec()
        });
        assert_eq!(produced.load(Ordering::SeqCst), 1);
        assert_eq!(storage.digest_cache().stats().entries, 2);
    }

    #[test]
    fn cached_put_recovers_from_eviction() {
        let storage = SharedStorage::new();
        let id = storage.put_named_cached(StorageArea::Artifacts, "k", "rev", || b"data".to_vec());
        assert!(storage.content().remove(id), "simulate retention pruning");
        let again =
            storage.put_named_cached(StorageArea::Artifacts, "k", "rev", || b"data".to_vec());
        assert_eq!(id, again);
        assert!(storage.content().contains(again), "object restored");
        assert_eq!(storage.digest_cache().stats().misses, 2);
    }

    #[test]
    fn missing_key_is_none() {
        let storage = SharedStorage::new();
        assert!(storage.lookup(StorageArea::Results, "nope").is_none());
        assert!(storage.get_named(StorageArea::Results, "nope").is_none());
    }

    #[test]
    fn archives_round_trip_through_storage() {
        let storage = SharedStorage::new();
        let mut tarball = Archive::new();
        tarball
            .add(ArchiveEntry::executable("bin/zevis", &b"ELF"[..]))
            .unwrap();
        storage.put_named(StorageArea::Artifacts, "zeus/zevis/5.4", tarball.pack());
        let packed = storage
            .get_named(StorageArea::Artifacts, "zeus/zevis/5.4")
            .unwrap()
            .unwrap();
        assert_eq!(Archive::unpack(&packed).unwrap(), tarball);
    }

    #[test]
    fn areas_are_isolated() {
        let storage = SharedStorage::new();
        storage.put_named(StorageArea::Tests, "key", &b"test"[..]);
        storage.put_named(StorageArea::Results, "key", &b"result"[..]);
        let t = storage
            .get_named(StorageArea::Tests, "key")
            .unwrap()
            .unwrap();
        let r = storage
            .get_named(StorageArea::Results, "key")
            .unwrap()
            .unwrap();
        assert_ne!(t, r);
    }

    #[test]
    fn listing_respects_prefix() {
        let storage = SharedStorage::new();
        storage.put_named(StorageArea::Results, "sp-2/a", &b"3"[..]);
        storage.put_named(StorageArea::Results, "sp-1/b", &b"2"[..]);
        storage.put_named(StorageArea::Results, "sp-1/a", &b"1"[..]);
        storage.put_named(StorageArea::Results, "sp-10/a", &b"4"[..]);
        storage.put_named(StorageArea::Tests, "sp-1/c", &b"5"[..]);
        let keys = |prefix: &str| -> Vec<String> {
            storage
                .list(StorageArea::Results, prefix)
                .into_iter()
                .map(|(key, _)| key)
                .collect()
        };
        assert_eq!(keys("sp-1/"), ["sp-1/a", "sp-1/b"], "in key order, scoped");
        assert_eq!(keys(""), ["sp-1/a", "sp-1/b", "sp-10/a", "sp-2/a"]);
        assert!(keys("sp-3").is_empty());
    }

    #[test]
    fn shell_env_contains_three_variables() {
        let storage = SharedStorage::new();
        let env = storage.shell_env("sp-7/in.dat", "sp-7/out", "root/5.34");
        let rendered = env.render();
        assert!(rendered.contains("SP_INPUT=$SP_STORE/results/sp-7/in.dat"));
        assert!(rendered.contains("SP_OUTPUT=$SP_STORE/results/sp-7/out"));
        assert!(rendered.contains("SP_SOFTWARE=$SP_STORE/artifacts/root/5.34"));
        assert_eq!(rendered.lines().count(), 3, "a *few* shell variables");
    }

    #[test]
    fn export_writes_objects_and_indexes() {
        let storage = SharedStorage::new();
        storage.put_named(StorageArea::Results, "run/a", &b"alpha"[..]);
        storage.put_named(StorageArea::Results, "run/b", &b"beta"[..]);
        // Same content twice: deduplicated on disk too.
        storage.put_named(StorageArea::Tests, "t", &b"alpha"[..]);

        let dir = std::env::temp_dir().join(format!("sp-export-{}", std::process::id()));
        let summary = storage.export_to_dir(&dir).unwrap();
        assert_eq!(summary.objects_written, 2, "deduplicated objects");
        let index = std::fs::read_to_string(dir.join("results.index")).unwrap();
        assert!(index.contains("run/a"));
        let oid = storage.lookup(StorageArea::Results, "run/a").unwrap();
        let on_disk = std::fs::read(dir.join("objects").join(oid.to_hex())).unwrap();
        assert_eq!(on_disk, b"alpha");

        // A repeated export costs its increment: the objects are already
        // on the medium, so nothing under `objects/` is written again.
        let fs = crate::vfs::RecordingFs::default();
        let again = storage.export_to_dir_fs(&dir, &fs).unwrap();
        assert_eq!(again.objects_written, 0);
        // `objects/` is still synced: an earlier export that failed
        // before its directory sync may have left unsynced entries there.
        let objects = dir.join("objects");
        let ops = fs.take_ops();
        assert!(ops.contains(&("sync_dir", objects.clone())), "{ops:?}");
        let touched: Vec<_> = ops
            .iter()
            .filter(|(op, path)| matches!(*op, "write" | "rename") && path.starts_with(&objects))
            .collect();
        assert!(touched.is_empty(), "{touched:?}");
        assert_eq!(
            std::fs::read_to_string(dir.join("results.index")).unwrap(),
            index
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_import_round_trip_rejects_bit_rot() {
        let storage = SharedStorage::new();
        storage.put_named(StorageArea::Results, "run/a", &b"alpha"[..]);
        let rotten = storage.put_named(StorageArea::Results, "run/b", &b"beta"[..]);

        let dir = std::env::temp_dir().join(format!("sp-import-{}", std::process::id()));
        storage.export_to_dir(&dir).unwrap();
        // Bit-rot on the preservation medium: flip a byte of one object.
        let path = dir.join("objects").join(rotten.to_hex());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let restored = SharedStorage::new();
        let summary = restored.import_from_dir(&dir).unwrap();
        assert_eq!(summary.objects_loaded, 1);
        assert_eq!(summary.objects_rejected, 1, "rot is rejected, not trusted");
        assert_eq!(summary.names_restored, 1);
        assert_eq!(summary.names_rejected, 1, "the dangling name is skipped");
        assert_eq!(
            restored
                .get_named(StorageArea::Results, "run/a")
                .unwrap()
                .unwrap()
                .as_ref(),
            b"alpha"
        );
        assert!(restored.lookup(StorageArea::Results, "run/b").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_rejects_uppercase_object_names() {
        let storage = SharedStorage::new();
        let id = storage.put_named(StorageArea::Results, "run/a", &b"alpha"[..]);
        let dir = std::env::temp_dir().join(format!("sp-import-upper-{}", std::process::id()));
        storage.export_to_dir(&dir).unwrap();
        // The bytes still hash to the id, but the file name is not the
        // canonical lowercase rendering, so the object is not admitted.
        let objects = dir.join("objects");
        std::fs::rename(
            objects.join(id.to_hex()),
            objects.join(id.to_hex().to_ascii_uppercase()),
        )
        .unwrap();

        let restored = SharedStorage::new();
        let summary = restored.import_from_dir(&dir).unwrap();
        assert_eq!(summary.objects_loaded, 0);
        assert_eq!(summary.objects_rejected, 1);
        assert_eq!(summary.names_rejected, 1, "the name would dangle");
        assert!(!restored.content().contains(id));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_skips_a_missing_index_but_fails_on_a_faulting_one() {
        use crate::vfs::{FaultConfig, FaultFs, ForcedFault};
        let storage = SharedStorage::new();
        storage.put_named(StorageArea::Results, "run/a", &b"alpha"[..]);
        storage.put_named(StorageArea::Tests, "t", &b"script"[..]);
        let dir = std::env::temp_dir().join(format!("sp-import-fault-{}", std::process::id()));
        storage.export_to_dir(&dir).unwrap();

        // No index file: an empty area, not a failed import.
        std::fs::remove_file(dir.join("tests.index")).unwrap();
        let fs = FaultFs::over_os(FaultConfig::default());
        let summary = SharedStorage::new().import_from_dir_fs(&dir, &fs).unwrap();
        assert_eq!(summary.names_restored, 1);

        // An index that cannot be read is not an empty area.
        fs.fail_nth_read_of(&dir.join("results.index"), 1, ForcedFault::Eio);
        let restored = SharedStorage::new();
        let err = restored.import_from_dir_fs(&dir, &fs).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert!(restored.lookup(StorageArea::Results, "run/a").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_named_many_skips_absent_objects() {
        let storage = SharedStorage::new();
        let kept = storage.put_named(StorageArea::Results, "spr-000001/a/result", &b"a"[..]);
        let other = storage.put_named(StorageArea::Results, "spr-000002/c/result", &b"c"[..]);
        let absent = ObjectId::for_bytes(b"never stored");
        let registered = storage.register_named_many(
            StorageArea::Results,
            "spr-000002/",
            [
                (["a", "result"], kept),
                (["b", "result"], absent),
                (["c", "result"], kept),
            ],
        );
        assert_eq!(registered, 2);
        assert_ne!(other, kept);
        assert_eq!(
            storage.lookup(StorageArea::Results, "spr-000002/c/result"),
            Some(kept),
            "a registered name replaces the old address"
        );
        assert_eq!(
            storage.lookup(StorageArea::Results, "spr-000002/a/result"),
            Some(kept)
        );
        assert_eq!(
            storage.lookup(StorageArea::Results, "spr-000002/b/result"),
            None
        );
    }

    #[test]
    fn clones_share_state() {
        let a = SharedStorage::new();
        let b = a.clone();
        a.put_named(StorageArea::Tests, "shared", &b"x"[..]);
        assert!(b.lookup(StorageArea::Tests, "shared").is_some());
    }
}
