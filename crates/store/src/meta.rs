//! Namespaced key/value bookkeeping metadata.
//!
//! The paper notes that "the common storage allows communication between the
//! sp-system and the experiment tests using only a few shell variables" and
//! that validation jobs are "tagged with a description … and the Unix time
//! stamp of the execution to aid the bookkeeping". [`MetaStore`] is where
//! those small pieces of mutable bookkeeping live, separated from the
//! immutable content-addressed objects.

use std::collections::BTreeMap;

use parking_lot::RwLock;

/// A namespaced key/value store with ordered iteration.
///
/// Keys live under string namespaces (`runs`, `tags`, `images`, …). The
/// underlying map is ordered so listings are deterministic — important for
/// reproducible report generation.
#[derive(Default)]
pub struct MetaStore {
    entries: RwLock<BTreeMap<(String, String), String>>,
}

impl MetaStore {
    /// Creates an empty metadata store.
    pub fn new() -> Self {
        MetaStore::default()
    }

    /// Sets `namespace/key` to `value`, returning the previous value.
    pub fn set(
        &self,
        namespace: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Option<String> {
        self.entries
            .write()
            .insert((namespace.into(), key.into()), value.into())
    }

    /// Sets every `(key, value)` pair under `namespace` while holding the
    /// write lock once, returning how many were set.
    pub fn set_many(
        &self,
        namespace: &str,
        pairs: impl IntoIterator<Item = (String, String)>,
    ) -> usize {
        let mut entries = self.entries.write();
        let mut count = 0;
        for (key, value) in pairs {
            entries.insert((namespace.to_string(), key), value);
            count += 1;
        }
        count
    }

    /// Fetches `namespace/key`.
    pub fn get(&self, namespace: &str, key: &str) -> Option<String> {
        self.entries
            .read()
            .get(&(namespace.to_string(), key.to_string()))
            .cloned()
    }

    /// Removes `namespace/key`, returning the removed value.
    pub fn remove(&self, namespace: &str, key: &str) -> Option<String> {
        self.entries
            .write()
            .remove(&(namespace.to_string(), key.to_string()))
    }

    /// All `(key, value)` pairs in `namespace`, in key order.
    pub fn list(&self, namespace: &str) -> Vec<(String, String)> {
        self.entries
            .read()
            .range((namespace.to_string(), String::new())..)
            .take_while(|((ns, _), _)| ns == namespace)
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect()
    }

    /// All `(key, value)` pairs in `namespace` whose key starts with
    /// `prefix`, in key order.
    pub fn list_prefixed(&self, namespace: &str, prefix: &str) -> Vec<(String, String)> {
        self.entries
            .read()
            .range((namespace.to_string(), prefix.to_string())..)
            .take_while(|((ns, k), _)| ns == namespace && k.starts_with(prefix))
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of entries across all namespaces.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Distinct namespaces currently in use, in order.
    pub fn namespaces(&self) -> Vec<String> {
        let entries = self.entries.read();
        let mut out: Vec<String> = Vec::new();
        for (ns, _) in entries.keys() {
            if out.last().map(String::as_str) != Some(ns.as_str()) {
                out.push(ns.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let meta = MetaStore::new();
        assert_eq!(meta.set("runs", "sp-000001", "ok"), None);
        assert_eq!(meta.get("runs", "sp-000001").as_deref(), Some("ok"));
        assert_eq!(
            meta.set("runs", "sp-000001", "failed").as_deref(),
            Some("ok")
        );
        assert_eq!(meta.remove("runs", "sp-000001").as_deref(), Some("failed"));
        assert!(meta.is_empty());
    }

    #[test]
    fn set_many_sets_each_pair() {
        let meta = MetaStore::new();
        meta.set("results", "a", "old");
        let set = meta.set_many(
            "results",
            [("a".to_string(), "1".to_string()), ("b".into(), "2".into())],
        );
        assert_eq!(set, 2);
        assert_eq!(meta.get("results", "a").as_deref(), Some("1"));
        assert_eq!(meta.get("results", "b").as_deref(), Some("2"));
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn namespaces_are_isolated() {
        let meta = MetaStore::new();
        meta.set("runs", "k", "run-value");
        meta.set("tags", "k", "tag-value");
        assert_eq!(meta.get("runs", "k").as_deref(), Some("run-value"));
        assert_eq!(meta.get("tags", "k").as_deref(), Some("tag-value"));
        assert_eq!(meta.namespaces(), vec!["runs", "tags"]);
    }

    #[test]
    fn list_is_ordered_and_scoped() {
        let meta = MetaStore::new();
        meta.set("runs", "b", "2");
        meta.set("runs", "a", "1");
        meta.set("runz", "c", "3");
        let listed = meta.list("runs");
        assert_eq!(
            listed,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    fn prefix_listing() {
        let meta = MetaStore::new();
        meta.set("results", "sp-000001/compile/h1rec", "ok");
        meta.set("results", "sp-000001/chain/nc-dis", "ok");
        meta.set("results", "sp-000002/compile/h1rec", "fail");
        let run1 = meta.list_prefixed("results", "sp-000001/");
        assert_eq!(run1.len(), 2);
        assert!(run1.iter().all(|(k, _)| k.starts_with("sp-000001/")));
    }

    #[test]
    fn empty_prefix_lists_whole_namespace() {
        let meta = MetaStore::new();
        meta.set("a", "x", "1");
        meta.set("a", "y", "2");
        assert_eq!(meta.list_prefixed("a", "").len(), 2);
    }
}
