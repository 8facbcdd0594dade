//! Integrity-checked, content-addressed object store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{ObjectId, Result, StoreError};

/// An in-memory content-addressed store.
///
/// All sp-system clients share one instance (behind an `Arc`), mirroring the
/// common AFS/dCache area of the DESY deployment. Objects are immutable;
/// `get` re-hashes the stored bytes so that silent corruption is detected at
/// read time rather than propagating into a validation verdict.
pub struct ContentStore {
    objects: RwLock<HashMap<ObjectId, Arc<[u8]>>>,
    /// Running counters, kept separately so read contention stays low.
    stats: RwLock<StoreStats>,
}

/// Operation counters for a [`ContentStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `put` calls that inserted a new object.
    pub inserted: u64,
    /// Number of `put` calls deduplicated against an existing object.
    pub deduplicated: u64,
    /// Number of successful reads.
    pub reads: u64,
    /// Total bytes held (unique objects only).
    pub bytes: u64,
}

impl Default for ContentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ContentStore {
            objects: RwLock::new(HashMap::new()),
            stats: RwLock::new(StoreStats::default()),
        }
    }

    /// Stores `data`, returning its content address. Idempotent: storing the
    /// same bytes twice returns the same id and keeps a single copy. The id
    /// is taken from the borrowed bytes, so a duplicate copies nothing.
    pub fn put(&self, data: impl AsRef<[u8]> + Into<Arc<[u8]>>) -> ObjectId {
        let id = ObjectId::for_bytes(data.as_ref());
        self.insert(id, data);
        id
    }

    /// Stores `data` under a caller-computed content address, skipping the
    /// hash pass [`put`](Self::put) would perform. The caller must have
    /// obtained `id` by hashing exactly these bytes, which is verified in
    /// debug builds.
    pub fn put_prehashed(
        &self,
        id: ObjectId,
        data: impl AsRef<[u8]> + Into<Arc<[u8]>>,
    ) -> ObjectId {
        debug_assert_eq!(
            ObjectId::for_bytes(data.as_ref()),
            id,
            "put_prehashed: id does not address these bytes"
        );
        self.insert(id, data);
        id
    }

    /// Inserts `data` under `id` unless it is already held. The bytes are
    /// converted into the store's shared buffer only for a new object, and
    /// outside the lock.
    fn insert(&self, id: ObjectId, data: impl Into<Arc<[u8]>>) {
        if !self.objects.read().contains_key(&id) {
            let data = data.into();
            let mut objects = self.objects.write();
            if let std::collections::hash_map::Entry::Vacant(entry) = objects.entry(id) {
                let mut stats = self.stats.write();
                stats.inserted += 1;
                stats.bytes += data.len() as u64;
                entry.insert(data);
                return;
            }
        }
        self.stats.write().deduplicated += 1;
    }

    /// Fetches an object, verifying its integrity.
    pub fn get(&self, id: ObjectId) -> Result<Arc<[u8]>> {
        let data = {
            let objects = self.objects.read();
            objects.get(&id).cloned().ok_or(StoreError::NotFound(id))?
        };
        let actual = ObjectId::for_bytes(&data);
        if actual != id {
            return Err(StoreError::Corrupt {
                expected: id,
                actual,
            });
        }
        self.stats.write().reads += 1;
        Ok(data)
    }

    /// Whether `id` is present (no integrity check).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.read().contains_key(&id)
    }

    /// Keeps the items whose object `id` says is present, under one read
    /// of the store (no integrity check).
    pub(crate) fn retain_present<T>(&self, items: &mut Vec<T>, id: impl Fn(&T) -> ObjectId) {
        let objects = self.objects.read();
        items.retain(|item| objects.contains_key(&id(item)));
    }

    /// Number of unique objects held.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.read()
    }

    /// Verifies every stored object, returning the ids that fail to re-hash.
    ///
    /// This is the "fsck" the host IT department would run over the common
    /// storage; it underpins the failure-injection tests.
    pub fn verify_all(&self) -> Vec<ObjectId> {
        self.objects
            .read()
            .iter()
            .filter(|(id, data)| ObjectId::for_bytes(data) != **id)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Deliberately corrupts the stored bytes of `id` (test/failure-injection
    /// hook). Returns `true` if the object existed.
    pub fn corrupt_for_test(&self, id: ObjectId) -> bool {
        let mut objects = self.objects.write();
        match objects.get_mut(&id) {
            Some(data) => {
                let mut raw = data.to_vec();
                match raw.first_mut() {
                    Some(b) => *b ^= 0xff,
                    None => raw.push(0xff),
                }
                *data = raw.into();
                true
            }
            None => false,
        }
    }

    /// Removes an object (used by retention policies). Returns whether it
    /// was present.
    pub fn remove(&self, id: ObjectId) -> bool {
        let mut objects = self.objects.write();
        if let Some(data) = objects.remove(&id) {
            self.stats.write().bytes -= data.len() as u64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = ContentStore::new();
        let id = store.put(&b"binaries"[..]);
        assert_eq!(store.get(id).unwrap().as_ref(), b"binaries");
    }

    #[test]
    fn put_is_deduplicating() {
        let store = ContentStore::new();
        let a = store.put(&b"same"[..]);
        let b = store.put(&b"same"[..]);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deduplicated, 1);
        assert_eq!(stats.bytes, 4);
    }

    #[test]
    fn get_missing_is_not_found() {
        let store = ContentStore::new();
        let id = ObjectId::for_bytes(b"never stored");
        assert_eq!(store.get(id), Err(StoreError::NotFound(id)));
    }

    #[test]
    fn corruption_detected_on_read() {
        let store = ContentStore::new();
        let id = store.put(&b"payload"[..]);
        assert!(store.corrupt_for_test(id));
        match store.get(id) {
            Err(StoreError::Corrupt { expected, actual }) => {
                assert_eq!(expected, id);
                assert_ne!(actual, id);
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn verify_all_finds_corrupt_objects() {
        let store = ContentStore::new();
        let good = store.put(&b"good"[..]);
        let bad = store.put(&b"bad"[..]);
        store.corrupt_for_test(bad);
        let corrupt = store.verify_all();
        assert_eq!(corrupt, vec![bad]);
        assert!(store.get(good).is_ok());
    }

    #[test]
    fn remove_frees_bytes() {
        let store = ContentStore::new();
        let id = store.put(&b"ephemeral"[..]);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert_eq!(store.stats().bytes, 0);
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_puts_are_consistent() {
        use std::sync::Arc;
        let store = Arc::new(ContentStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.put(format!("object-{}-{}", t % 2, i).into_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 2 distinct thread-classes x 100 objects.
        assert_eq!(store.len(), 200);
        assert!(store.verify_all().is_empty());
    }
}
