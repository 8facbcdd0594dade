//! The storage's names: its mutable bookkeeping metadata.
//!
//! §3.3 keeps every output under the unique ID of the job that made it.
//! [`Names`] holds those names apart from the immutable content-addressed
//! objects: per [`StorageArea`] an ordered map from a key (such as
//! `<run>/<test>/<output>` in the results area) to the [`ObjectId`] of the
//! bytes, so listings are deterministic — important for reproducible
//! report generation. Most names of a memo-served run point at objects
//! earlier runs named too, so each named address is held once and a name
//! costs its key and a 4-byte slot.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::{ObjectId, StorageArea};

/// Every area's names, each mapped to the content address it names.
#[derive(Default)]
pub(crate) struct Names {
    /// One map per area, indexed by `StorageArea as usize`, from key to
    /// a slot of `addresses`.
    areas: [BTreeMap<Box<str>, u32>; 4],
    /// Each named content address once, and its slot.
    addresses: Vec<ObjectId>,
    slots: HashMap<ObjectId, u32>,
}

impl Names {
    /// Points `area/key` at `id`, replacing any earlier address.
    pub(crate) fn insert(&mut self, area: StorageArea, key: Box<str>, id: ObjectId) {
        let next = u32::try_from(self.addresses.len()).expect("fewer than 2^32 named objects");
        let slot = *self.slots.entry(id).or_insert(next);
        if slot == next {
            self.addresses.push(id);
        }
        self.areas[area as usize].insert(key, slot);
    }

    /// The address `area/key` names.
    pub(crate) fn get(&self, area: StorageArea, key: &str) -> Option<ObjectId> {
        let slot = *self.areas[area as usize].get(key)?;
        Some(self.addresses[slot as usize])
    }

    /// `(key, address)` pairs under `area` whose key starts with `prefix`,
    /// in key order.
    pub(crate) fn list(&self, area: StorageArea, prefix: &str) -> Vec<(String, ObjectId)> {
        self.areas[area as usize]
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(key, _)| key.starts_with(prefix))
            .map(|(key, slot)| (key.to_string(), self.addresses[*slot as usize]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        names.insert(StorageArea::Results, "sp-000001".into(), id("ok"));
        assert_eq!(names.get(StorageArea::Results, "sp-000001"), Some(id("ok")));
        names.insert(StorageArea::Results, "sp-000001".into(), id("failed"));
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
        names.insert(StorageArea::Results, "a".into(), id("old"));
        for (key, tag) in [("a", "1"), ("b", "2"), ("c", "1")] {
            names.insert(StorageArea::Results, key.into(), id(tag));
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
        names.insert(StorageArea::Results, "k".into(), id("run-value"));
        names.insert(StorageArea::Tests, "k".into(), id("test-value"));
        assert_eq!(names.get(StorageArea::Results, "k"), Some(id("run-value")));
        assert_eq!(names.get(StorageArea::Tests, "k"), Some(id("test-value")));
        assert_eq!(names.get(StorageArea::Images, "k"), None);
    }

    #[test]
    fn list_is_ordered_and_scoped() {
        let mut names = Names::default();
        names.insert(StorageArea::Results, "b".into(), id("2"));
        names.insert(StorageArea::Results, "a".into(), id("1"));
        names.insert(StorageArea::Tests, "c".into(), id("3"));
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
            names.insert(StorageArea::Results, key.into(), id(tag));
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
        names.insert(StorageArea::Artifacts, "x".into(), id("1"));
        names.insert(StorageArea::Artifacts, "y".into(), id("2"));
        names.insert(StorageArea::Tests, "z".into(), id("3"));
        assert_eq!(keys(&names, StorageArea::Artifacts, ""), ["x", "y"]);
    }
}
