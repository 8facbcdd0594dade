//! Revision-keyed digest cache over the content store.
//!
//! Content addressing hashes every object on `put`. For build artifacts
//! that is wasted work on the hot path: a nightly campaign re-conserves the
//! *same* package tar-balls for the same `(package, version, environment)`
//! revision hundreds of times, re-packing and re-hashing bytes whose digest
//! cannot have changed. The [`DigestCache`] memoises `revision → ObjectId`,
//! so an unchanged artifact costs one map lookup instead of an archive pack
//! plus a SHA-256 pass.
//!
//! A cache entry is only served while the object it points to is still
//! present in the content store — retention pruning may evict objects, in
//! which case the producer runs again and the entry is refreshed (see
//! [`crate::SharedStorage::put_named_cached`]).

use crate::{Memo, ObjectId};

/// A concurrent `revision → content address` memo.
pub type DigestCache = Memo<String, ObjectId>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DigestCacheStats;

    #[test]
    fn insert_peek_invalidate() {
        let cache = DigestCache::new();
        let id = ObjectId::for_bytes(b"tarball");
        assert_eq!(cache.peek("pkg@1.0@SL6"), None);
        cache.insert("pkg@1.0@SL6".into(), id);
        assert_eq!(cache.peek("pkg@1.0@SL6"), Some(id));
        assert_eq!(cache.serve("pkg@1.0@SL6", |_| None::<ObjectId>), None);
        assert_eq!(cache.peek("pkg@1.0@SL6"), None);
        assert_eq!(cache.serve("pkg@1.0@SL6", Some), None);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = DigestCache::new();
        assert_eq!(cache.serve("r", Some), None);
        cache.insert("r".into(), ObjectId::for_bytes(b"x"));
        assert!(cache.serve("r", Some).is_some());
        assert!(cache.serve("r", Some).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(DigestCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_use_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(DigestCache::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let revision = format!("rev-{}", (t + i) % 50);
                    if cache.serve(&revision, Some).is_none() {
                        let id = ObjectId::for_bytes(revision.as_bytes());
                        cache.insert(revision, id);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 50);
        assert_eq!(stats.hits + stats.misses, 800);
    }
}
