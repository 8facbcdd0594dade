//! Layered build plans.
//!
//! A [`BuildPlan`] slices a validated [`DependencyGraph`] into *layers*:
//! every package's dependencies live in strictly earlier layers, so all
//! packages of one layer can build concurrently. This is the schedule the
//! [`ParallelBuilder`](crate::ParallelBuilder) executes.

use std::collections::BTreeMap;

use crate::graph::{DependencyGraph, GraphError, PackageId};

/// A layered, parallelism-ready build schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildPlan {
    order: Vec<PackageId>,
    layers: Vec<Vec<PackageId>>,
}

impl BuildPlan {
    /// Computes the plan for a graph. Fails where
    /// [`DependencyGraph::validate`] would (missing deps, cycles); the
    /// single `topo_order` pass below is that validation.
    pub fn for_graph(graph: &DependencyGraph) -> Result<Self, GraphError> {
        // Longest-path layering: a package's layer is 1 + max layer of its
        // dependencies. Computed over the topological order, so every
        // dependency is already placed when its dependents are visited.
        let order = graph.topo_order()?;
        let mut depth: BTreeMap<&PackageId, usize> = BTreeMap::new();
        let mut layers: Vec<Vec<PackageId>> = Vec::new();
        for id in &order {
            let package = graph.get(id).expect("ordered ids exist");
            let level = package
                .deps
                .iter()
                .map(|dep| depth[dep] + 1)
                .max()
                .unwrap_or(0);
            depth.insert(id, level);
            if layers.len() <= level {
                layers.resize_with(level + 1, Vec::new);
            }
            layers[level].push(id.clone());
        }
        // Members arrive in topological (id-tie-broken) order; keep each
        // layer sorted by id for deterministic scheduling.
        for layer in &mut layers {
            layer.sort_unstable();
        }
        Ok(BuildPlan { order, layers })
    }

    /// The topological order the layering was computed over (dependencies
    /// before dependents, ties broken by id).
    pub fn order(&self) -> &[PackageId] {
        &self.order
    }

    /// The layers, dependencies strictly before dependents.
    pub fn layers(&self) -> &[Vec<PackageId>] {
        &self.layers
    }

    /// Total number of packages scheduled.
    pub fn package_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Package, PackageKind};
    use sp_env::Version;

    fn v1() -> Version {
        Version::new(1, 0, 0)
    }

    fn graph() -> DependencyGraph {
        DependencyGraph::from_packages([
            Package::new("base", v1(), PackageKind::Library),
            Package::new("mid-a", v1(), PackageKind::Library).dep("base"),
            Package::new("mid-b", v1(), PackageKind::Library).dep("base"),
            Package::new("top", v1(), PackageKind::Analysis)
                .dep("mid-a")
                .dep("mid-b"),
            Package::new("island", v1(), PackageKind::Tool),
        ])
        .unwrap()
    }

    #[test]
    fn layers_respect_dependencies() {
        let plan = BuildPlan::for_graph(&graph()).unwrap();
        assert_eq!(plan.layers().len(), 3);
        assert_eq!(plan.package_count(), 5);
        assert_eq!(
            plan.layers()[0],
            vec![PackageId::new("base"), PackageId::new("island")]
        );
        assert_eq!(
            plan.layers()[1],
            vec![PackageId::new("mid-a"), PackageId::new("mid-b")]
        );
        assert_eq!(plan.layers()[2], vec![PackageId::new("top")]);
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut bad = DependencyGraph::new();
        bad.add(Package::new("a", v1(), PackageKind::Library).dep("b"))
            .unwrap();
        assert!(BuildPlan::for_graph(&bad).is_err());
    }

    #[test]
    fn empty_graph_is_an_empty_plan() {
        let plan = BuildPlan::for_graph(&DependencyGraph::new()).unwrap();
        assert!(plan.layers().is_empty());
    }
}
