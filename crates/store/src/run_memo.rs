//! Validated memoisation over the content store.
//!
//! A validation cell whose determinants — test identity, campaign seed,
//! environment revision and workload scale — are unchanged must produce
//! bit-identical outputs (§3.3: "ensures reproducibility of previous
//! results"). [`RunMemo`] maps such a [`RunKey`] to whatever production
//! the caller wants to replay (content addresses of the stored outputs,
//! pre-comparison statuses, a build report), so an unchanged (experiment,
//! image, test) cell costs a map lookup instead of a full MC-chain
//! re-execution. [`crate::DigestCache`] applies the same map one level
//! down, to build artifacts keyed by package revision. Both are one type,
//! [`Memo`], on a std `HashMap`.
//!
//! Two trust rules:
//!
//! * a key must capture **every** determinant of the memoised production —
//!   an under-described key happily serves stale results;
//! * an entry is only valid while the objects it points at are still in
//!   the content store. Every lookup therefore goes through
//!   [`Memo::serve`], whose validator re-checks the entry before it is
//!   served; an entry the validator rejects is evicted.
//!
//! Anything *relative* must be decided at replay time and does not belong
//! in a memo under a key that leaves out what it is relative to. The
//! comparison against the current reference run, which evolves as
//! references are promoted, is the main case: a cell key cannot carry its
//! verdict. Keyed by the content addresses of *both* sides — the produced
//! output and the reference it is judged against — a verdict is no longer
//! relative, and `sp-core` memoises it that way.
//!
//! ## Campaign-safe eviction
//!
//! With several campaigns running against one shared system, the
//! read-validate-evict cycle races: campaign A reads an entry, finds its
//! conserved object pruned, and decides to drop the entry — but in the
//! meantime campaign B may have re-executed the cell and inserted a
//! *fresh* entry under the same key. An unconditional eviction would throw
//! B's valid work away. Every entry therefore carries a **generation**,
//! and [`Memo::serve`] only evicts the entry if its generation still
//! matches the one it validated — a stale eviction decision silently
//! loses to a newer insert.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// The determinants of one validation cell's production. Ordered field by
/// field, which is the order warm-state snapshots export memo entries in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey {
    /// Test identifier (experiment-qualified, e.g. `h1/chain/nc`).
    pub test: String,
    /// Campaign base seed (per-test seeds derive deterministically from it).
    pub seed: u64,
    /// Environment / image revision — the *full* label including externals,
    /// so two images differing only in their installed ROOT do not collide.
    pub env_revision: String,
    /// Workload scale factor, stored as raw bits for `Eq`/`Hash`.
    scale_bits: u64,
}

impl RunKey {
    /// Builds a key from the cell determinants.
    pub fn new(
        test: impl Into<String>,
        seed: u64,
        env_revision: impl Into<String>,
        scale: f64,
    ) -> Self {
        RunKey {
            test: test.into(),
            seed,
            env_revision: env_revision.into(),
            scale_bits: scale.to_bits(),
        }
    }

    /// The workload scale factor this key was built with.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

/// Cell-level run memo: `cell determinants → memoised production`.
pub type RunMemo<V> = Memo<RunKey, V>;

/// Counters for memo effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that fell through to the producer (first sight of the key,
    /// or its entry failed validation and was evicted).
    pub misses: u64,
    /// Entries currently memoised.
    pub entries: usize,
}

impl DigestCacheStats {
    /// Fraction of lookups served from the memo.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoised value together with the generation it was inserted at.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    generation: u64,
}

/// A concurrent `key → memoised value` map with hit/miss accounting.
#[derive(Debug)]
pub struct Memo<K, V> {
    entries: RwLock<HashMap<K, Slot<V>>>,
    generations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: RwLock::new(HashMap::new()),
            generations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Looks up the value memoised for `key` without validating it or
    /// touching the counters. Serving goes through [`serve`](Self::serve).
    pub fn peek<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entry(key).map(|(value, _)| value)
    }

    /// Serves the value memoised for `key` if `validate` accepts it.
    ///
    /// The value is read under the read lock, and the lock is released
    /// before `validate` runs, so a validator may read the content store,
    /// compare outputs or even insert into this memo. `Some` from the
    /// validator counts a hit and is returned. `None` counts a miss and
    /// evicts the entry, but only if it still carries the generation that
    /// was validated, so a fresh entry inserted meanwhile survives. An
    /// absent key counts a miss.
    pub fn serve<Q, R>(&self, key: &Q, validate: impl FnOnce(V) -> Option<R>) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some((value, generation)) = self.entry(key) else {
            self.note_miss();
            return None;
        };
        let served = validate(value);
        match served {
            Some(_) => self.note_hit(),
            None => {
                self.invalidate_generation(key, generation);
                self.note_miss();
            }
        }
        served
    }

    /// Records the value of `key` under a fresh generation.
    pub fn insert(&self, key: K, value: V) {
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        self.entries.write().insert(key, Slot { value, generation });
    }

    /// Drops every entry whose key matches `predicate`, returning how many
    /// were removed. Used when a whole determinant class is invalidated at
    /// once — e.g. an experiment definition is replaced, so every cell of
    /// that experiment must re-execute.
    pub fn invalidate_matching(&self, predicate: impl Fn(&K) -> bool) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|key, _| !predicate(key));
        before - entries.len()
    }

    /// Every `(key, value)` pair, sorted by key so that exported warm
    /// state is byte-deterministic. Generations are *not* exported (they
    /// only order concurrent evictions within one process lifetime).
    /// Restoring goes through plain [`insert`](Self::insert), one
    /// validated entry at a time.
    pub fn export_entries(&self) -> Vec<(K, V)>
    where
        K: Ord + Clone,
    {
        let mut entries: Vec<(K, V)> = self
            .entries
            .read()
            .iter()
            .map(|(key, slot)| (key.clone(), slot.value.clone()))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> DigestCacheStats {
        DigestCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.read().len(),
        }
    }

    fn entry<Q>(&self, key: &Q) -> Option<(V, u64)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries
            .read()
            .get(key)
            .map(|slot| (slot.value.clone(), slot.generation))
    }

    fn invalidate_generation<Q>(&self, key: &Q, generation: u64)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut entries = self.entries.write();
        if entries
            .get(key)
            .is_some_and(|slot| slot.generation == generation)
        {
            entries.remove(key);
        }
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_distinguishes_every_determinant() {
        let base = RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 0.5);
        assert_eq!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/cc", 7, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 8, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.26", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 1.0)
        );
        assert_eq!(base.scale(), 0.5);
    }

    #[test]
    fn peek_insert_invalidate_and_stats() {
        let memo: RunMemo<u32> = RunMemo::new();
        let key = RunKey::new("t", 1, "env", 1.0);
        assert_eq!(memo.serve(&key, Some), None, "absent: a miss");
        memo.insert(key.clone(), 42);
        assert_eq!(memo.peek(&key), Some(42));
        assert_eq!(memo.serve(&key, |v| Some(v + 1)), Some(43));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A rejected entry counts a miss and is evicted.
        assert_eq!(memo.serve(&key, |_| None::<u32>), None);
        assert_eq!(memo.peek(&key), None);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 0));
    }

    /// Campaign A serves an entry, finds its conserved object pruned and
    /// rejects it; campaign B re-executes the cell and inserts a fresh
    /// entry in between. A's eviction must lose: the generation it
    /// validated is stale.
    fn stale_eviction_keeps_the_fresh_entry<K: Hash + Eq + Clone>(memo: &Memo<K, u32>, key: K) {
        memo.insert(key.clone(), 1);
        let served = memo.serve(&key, |stale| {
            assert_eq!(stale, 1);
            memo.insert(key.clone(), 2);
            None::<u32>
        });
        assert_eq!(served, None);
        assert_eq!(memo.peek(&key), Some(2), "B's fresh entry survives");
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 1));

        // Rejecting the current generation does evict.
        assert_eq!(memo.serve(&key, |_| None::<u32>), None);
        assert_eq!(memo.peek(&key), None);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn stale_eviction_cannot_drop_a_fresh_entry() {
        stale_eviction_keeps_the_fresh_entry(
            &RunMemo::new(),
            RunKey::new("h1::chain/nc", 1, "env", 1.0),
        );
        // The `String`-keyed shape of `DigestCache`.
        stale_eviction_keeps_the_fresh_entry(&Memo::<String, u32>::new(), "p@1.0@SL6".into());
    }

    #[test]
    fn exported_entries_round_trip_through_insert() {
        let memo: RunMemo<u32> = RunMemo::new();
        memo.insert(RunKey::new("b", 2, "env", 0.5), 20);
        memo.insert(RunKey::new("a", 1, "env", 1.0), 10);
        memo.insert(RunKey::new("a", 0, "env", 1.0), 5);
        let exported = memo.export_entries();
        let keys: Vec<&RunKey> = exported.iter().map(|(key, _)| key).collect();
        assert_eq!(
            keys,
            [
                &RunKey::new("a", 0, "env", 1.0),
                &RunKey::new("a", 1, "env", 1.0),
                &RunKey::new("b", 2, "env", 0.5)
            ]
        );

        let restored: RunMemo<u32> = RunMemo::new();
        for (key, value) in exported {
            restored.insert(key, value);
        }
        assert_eq!(restored.peek(&RunKey::new("a", 1, "env", 1.0)), Some(10));
        assert_eq!(restored.peek(&RunKey::new("b", 2, "env", 0.5)), Some(20));
    }

    #[test]
    fn invalidate_matching_drops_a_key_class() {
        let memo: RunMemo<u32> = RunMemo::new();
        memo.insert(RunKey::new("h1::a", 1, "env", 1.0), 1);
        memo.insert(RunKey::new("h1::b", 1, "env", 1.0), 2);
        memo.insert(RunKey::new("zeus::a", 1, "env", 1.0), 3);
        assert_eq!(memo.invalidate_matching(|k| k.test.starts_with("h1::")), 2);
        assert_eq!(memo.stats().entries, 1);
        assert!(memo.peek(&RunKey::new("zeus::a", 1, "env", 1.0)).is_some());
    }

    #[test]
    fn concurrent_use_is_safe() {
        use std::sync::Arc;
        let memo: Arc<RunMemo<u64>> = Arc::new(RunMemo::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let memo = Arc::clone(&memo);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = RunKey::new(format!("t-{}", (t + i) % 25), i % 3, "env", 1.0);
                    if memo.serve(&key, Some).is_none() {
                        memo.insert(key, t * 1000 + i);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 75, "25 tests x 3 seeds");
        assert_eq!(stats.hits + stats.misses, 800);
    }
}
