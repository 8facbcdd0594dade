//! The storage's names: its mutable bookkeeping metadata.
//!
//! §3.3 keeps every output under the unique ID of the job that made it.
//! [`Names`] holds those names apart from the immutable content-addressed
//! objects, per [`StorageArea`] in key order, so listings are
//! deterministic — important for reproducible report generation.
//!
//! A key is split at its first `/` into a *group* (the first segment and
//! its `/`, or the whole key when it has none) and a *rest*: the results
//! key `spr-000123/h1/compile/h1rec/build.log` is the group `spr-000123/`
//! and the rest `h1/compile/h1rec/build.log`. Each area maps a group to an ordered map from
//! rest to slot, so a run's names are one group, landed with one insert.
//! Walking groups, then rests, is exactly full-key order: a group holds no
//! `/` but its last byte, so no group is a proper prefix of another unless
//! the shorter has no `/` and is a whole key. The runs of a cell name the
//! same `<test>/<output>` rests night after night, so each distinct rest
//! is held once and shared; most names of a memo-served run point at
//! objects earlier runs named too, so each named address is held once. A
//! name costs a 16-byte handle to its rest and a 4-byte slot.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use crate::fnv::{fnv64_extend, FNV64_OFFSET};
use crate::{ObjectId, StorageArea};

/// One area's names: group → rest → slot of [`Names::addresses`].
type Area = BTreeMap<Box<str>, BTreeMap<Arc<str>, u32>>;

/// Every area's names, each mapped to the content address it names.
#[derive(Default)]
pub(crate) struct Names {
    /// One map per area, indexed by `StorageArea as usize`.
    areas: [Area; 4],
    /// Each distinct rest once, by the FNV-1a hash of its text.
    rests: HashMap<u64, Arc<str>>,
    /// Each named content address once, and its slot.
    addresses: Vec<ObjectId>,
    slots: HashMap<ObjectId, u32>,
}

/// Splits `key` into its group and its rest.
fn split(key: &str) -> (&str, &str) {
    match key.find('/') {
        Some(slash) => key.split_at(slash + 1),
        None => (key, ""),
    }
}

/// FNV-1a over `segments` joined with `/`, without joining them.
fn rest_hash(segments: &[&str]) -> u64 {
    segments
        .iter()
        .enumerate()
        .fold(FNV64_OFFSET, |hash, (i, segment)| {
            let hash = if i > 0 {
                fnv64_extend(hash, b"/")
            } else {
                hash
            };
            fnv64_extend(hash, segment.as_bytes())
        })
}

/// Whether `text` is `segments` joined with `/`.
fn joins(mut text: &str, segments: &[&str]) -> bool {
    for (i, segment) in segments.iter().enumerate() {
        if i > 0 {
            let Some(after) = text.strip_prefix('/') else {
                return false;
            };
            text = after;
        }
        let Some(after) = text.strip_prefix(segment) else {
            return false;
        };
        text = after;
    }
    text.is_empty()
}

impl Names {
    /// Points `area/key` at `id`, replacing any earlier address.
    pub(crate) fn insert(&mut self, area: StorageArea, key: &str, id: ObjectId) {
        let (group, rest) = split(key);
        let rest = self.intern(&[rest]);
        let slot = self.slot(id);
        let area = &mut self.areas[area as usize];
        match area.get_mut(group) {
            Some(rests) => {
                rests.insert(rest, slot);
            }
            None => {
                area.insert(group.into(), BTreeMap::from([(rest, slot)]));
            }
        }
    }

    /// Points `area/<group><dir>/<leaf>` at its address for each
    /// `([dir, leaf], id)` pair, with one insert into the area when the
    /// group is new. `group` is one segment and its `/`.
    pub(crate) fn insert_group<'a>(
        &mut self,
        area: StorageArea,
        group: &str,
        names: impl IntoIterator<Item = ([&'a str; 2], ObjectId)>,
    ) {
        assert_eq!(
            group.find('/'),
            Some(group.len() - 1),
            "a group is one segment and its `/`"
        );
        let rests: Vec<(Arc<str>, u32)> = names
            .into_iter()
            .map(|(segments, id)| (self.intern(&segments), self.slot(id)))
            .collect();
        if rests.is_empty() {
            return;
        }
        let area = &mut self.areas[area as usize];
        match area.get_mut(group) {
            Some(held) => held.extend(rests),
            None => {
                area.insert(group.into(), rests.into_iter().collect());
            }
        }
    }

    /// The slot of `id`, holding it if it is new.
    fn slot(&mut self, id: ObjectId) -> u32 {
        let next = u32::try_from(self.addresses.len()).expect("fewer than 2^32 named objects");
        let slot = *self.slots.entry(id).or_insert(next);
        if slot == next {
            self.addresses.push(id);
        }
        slot
    }

    /// The one shared copy of the rest `segments` join with `/`. A hash
    /// collision with another rest only costs a copy of this one.
    fn intern(&mut self, segments: &[&str]) -> Arc<str> {
        let held = self
            .rests
            .entry(rest_hash(segments))
            .or_insert_with(|| segments.join("/").into());
        if joins(held, segments) {
            held.clone()
        } else {
            segments.join("/").into()
        }
    }

    /// The address `area/key` names.
    pub(crate) fn get(&self, area: StorageArea, key: &str) -> Option<ObjectId> {
        let (group, rest) = split(key);
        let slot = *self.areas[area as usize].get(group)?.get(rest)?;
        Some(self.addresses[slot as usize])
    }

    /// How many names `area` holds.
    pub(crate) fn len(&self, area: StorageArea) -> usize {
        self.areas[area as usize].values().map(BTreeMap::len).sum()
    }

    /// `(key, address)` pairs under `area` whose key starts with `prefix`,
    /// in key order.
    pub(crate) fn list(&self, area: StorageArea, prefix: &str) -> Vec<(String, ObjectId)> {
        // A prefix holding a `/` selects its own group and the rests that
        // start with what follows; one without selects every group it
        // starts, whole.
        let (group, rest_prefix) = split(prefix);
        let whole = !group.ends_with('/');
        self.areas[area as usize]
            .range::<str, _>((Bound::Included(group), Bound::Unbounded))
            .take_while(|(held, _)| held.starts_with(group) && (whole || held.len() == group.len()))
            .flat_map(|(held, rests)| {
                rests
                    .range::<str, _>((Bound::Included(rest_prefix), Bound::Unbounded))
                    .take_while(|(rest, _)| rest.starts_with(rest_prefix))
                    .map(|(rest, slot)| {
                        ([&**held, &**rest].concat(), self.addresses[*slot as usize])
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv64;
    use proptest::prelude::*;

    fn id(tag: &str) -> ObjectId {
        ObjectId::for_bytes(tag.as_bytes())
    }

    fn keys(names: &Names, area: StorageArea, prefix: &str) -> Vec<String> {
        names
            .list(area, prefix)
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn set_get_remove() {
        let mut names = Names::default();
        names.insert(StorageArea::Results, "sp-000001", id("ok"));
        assert_eq!(names.get(StorageArea::Results, "sp-000001"), Some(id("ok")));
        names.insert(StorageArea::Results, "sp-000001", id("failed"));
        assert_eq!(
            names.get(StorageArea::Results, "sp-000001"),
            Some(id("failed")),
            "a name is re-pointed, not duplicated"
        );
        assert_eq!(names.list(StorageArea::Results, "").len(), 1);
        // Names are never removed (retention prunes objects, not names):
        // an unset name reads as absent.
        assert_eq!(names.get(StorageArea::Results, "sp-000002"), None);
    }

    #[test]
    fn set_many_sets_each_pair() {
        let mut names = Names::default();
        names.insert(StorageArea::Results, "a", id("old"));
        for (key, tag) in [("a", "1"), ("b", "2"), ("c", "1")] {
            names.insert(StorageArea::Results, key, id(tag));
        }
        assert_eq!(names.get(StorageArea::Results, "a"), Some(id("1")));
        assert_eq!(names.get(StorageArea::Results, "b"), Some(id("2")));
        assert_eq!(names.get(StorageArea::Results, "c"), Some(id("1")));
        assert_eq!(names.list(StorageArea::Results, "").len(), 3);
        assert_eq!(
            names.addresses.len(),
            3,
            "each named address is held once: old, 1, 2"
        );
    }

    #[test]
    fn namespaces_are_isolated() {
        let mut names = Names::default();
        names.insert(StorageArea::Results, "k", id("run-value"));
        names.insert(StorageArea::Tests, "k", id("test-value"));
        assert_eq!(names.get(StorageArea::Results, "k"), Some(id("run-value")));
        assert_eq!(names.get(StorageArea::Tests, "k"), Some(id("test-value")));
        assert_eq!(names.get(StorageArea::Images, "k"), None);
    }

    #[test]
    fn list_is_ordered_and_scoped() {
        let mut names = Names::default();
        names.insert(StorageArea::Results, "b", id("2"));
        names.insert(StorageArea::Results, "a", id("1"));
        names.insert(StorageArea::Tests, "c", id("3"));
        assert_eq!(
            names.list(StorageArea::Results, ""),
            vec![("a".to_string(), id("1")), ("b".to_string(), id("2"))]
        );
    }

    #[test]
    fn prefix_listing() {
        let mut names = Names::default();
        for (key, tag) in [
            ("sp-000001/compile/h1rec", "ok"),
            ("sp-000001/chain/nc-dis", "ok"),
            ("sp-000002/compile/h1rec", "fail"),
            ("sp-0000010/chain", "ok"),
        ] {
            names.insert(StorageArea::Results, key, id(tag));
        }
        assert_eq!(
            keys(&names, StorageArea::Results, "sp-000001/"),
            ["sp-000001/chain/nc-dis", "sp-000001/compile/h1rec"]
        );
        assert!(keys(&names, StorageArea::Results, "sp-000003").is_empty());
    }

    #[test]
    fn empty_prefix_lists_whole_namespace() {
        let mut names = Names::default();
        names.insert(StorageArea::Artifacts, "x", id("1"));
        names.insert(StorageArea::Artifacts, "y", id("2"));
        names.insert(StorageArea::Tests, "z", id("3"));
        assert_eq!(keys(&names, StorageArea::Artifacts, ""), ["x", "y"]);
    }

    #[test]
    fn a_rest_hashes_as_its_joined_text() {
        assert_eq!(
            rest_hash(&["h1/compile", "build.log"]),
            fnv64("h1/compile/build.log")
        );
        assert_eq!(rest_hash(&[""]), fnv64(""));
        assert!(joins("a//b", &["a/", "b"]) && !joins("a/b", &["a", "b", ""]));
    }

    /// One step applied to the grouped names and to a flat oracle.
    #[derive(Debug)]
    enum Op {
        /// Points a key at the address tagged by the byte.
        Insert(String, u8),
        /// Lands a group of rests, each given as two segments.
        Group(String, Vec<(String, String, u8)>),
        /// Re-points the key the index picks among those already named.
        Repoint(usize, u8),
    }

    /// Keys over an alphabet that sorts `/` among its neighbours; it draws
    /// the empty key, keys without `/` and keys ending in `/`.
    const KEY: &str = "[/. 0-]{0,6}";

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (KEY, 0u8..4).prop_map(|(key, tag)| Op::Insert(key, tag)),
            (
                "[. 0-]{0,3}",
                prop::collection::vec(("[/. 0-]{0,3}", "[/. 0-]{0,3}", 0u8..4), 0..6),
            )
                .prop_map(|(segment, rests)| Op::Group(segment + "/", rests)),
            (any::<usize>(), 0u8..4).prop_map(|(pick, tag)| Op::Repoint(pick, tag)),
        ]
    }

    proptest! {
        #[test]
        fn grouped_names_match_a_flat_map(
            ops in prop::collection::vec(op(), 1..40),
            probes in prop::collection::vec(KEY, 0..8),
            cuts in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
        ) {
            let area = StorageArea::Results;
            let tag = |tag: u8| id(&tag.to_string());
            let mut names = Names::default();
            let mut oracle: BTreeMap<String, ObjectId> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(key, t) => {
                        names.insert(area, &key, tag(t));
                        oracle.insert(key, tag(t));
                    }
                    Op::Group(group, rests) => {
                        names.insert_group(
                            area,
                            &group,
                            rests
                                .iter()
                                .map(|(dir, leaf, t)| ([dir.as_str(), leaf.as_str()], tag(*t))),
                        );
                        for (dir, leaf, t) in rests {
                            oracle.insert(format!("{group}{dir}/{leaf}"), tag(t));
                        }
                    }
                    Op::Repoint(pick, t) => {
                        if let Some(key) = oracle.keys().nth(pick % oracle.len().max(1)).cloned() {
                            names.insert(area, &key, tag(t));
                            oracle.insert(key, tag(t));
                        }
                    }
                }
            }
            prop_assert_eq!(names.len(area), oracle.len());
            for key in oracle.keys().chain(&probes) {
                prop_assert_eq!(names.get(area, key), oracle.get(key).copied(), "key {:?}", key);
            }
            let keys: Vec<&String> = oracle.keys().collect();
            let cut = cuts.iter().filter(|_| !keys.is_empty()).map(|(pick, at)| {
                let key = keys[pick % keys.len()];
                key[..at % (key.len() + 1)].to_string()
            });
            for prefix in cut.chain(probes).chain(["".to_string()]) {
                let flat: Vec<(String, ObjectId)> = oracle
                    .range(prefix.clone()..)
                    .take_while(|(key, _)| key.starts_with(&prefix))
                    .map(|(key, id)| (key.clone(), *id))
                    .collect();
                prop_assert_eq!(names.list(area, &prefix), flat, "prefix {:?}", prefix);
            }
            prop_assert!(names.list(StorageArea::Tests, "").is_empty());
        }
    }
}
