//! The package model and dependency graph.
//!
//! The sp-system's "automated software build tools" (§3.1 ii) operate over
//! an experiment's software stack: a set of [`Package`]s — each carrying a
//! version, an implementation [`Language`], a size and the [`CodeTrait`]s
//! that decide its fate on a given platform — connected by build-order
//! dependencies into a [`DependencyGraph`]. The graph is validated once at
//! registration (missing dependencies, cycles) so every later traversal can
//! assume a well-formed DAG.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sp_env::{CodeTrait, Version};

/// Unique package name within an experiment stack.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageId(String);

impl PackageId {
    /// Creates an id.
    pub fn new(name: impl Into<String>) -> Self {
        PackageId(name.into())
    }

    /// The name text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for PackageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PackageId {
    fn from(s: &str) -> Self {
        PackageId::new(s)
    }
}

impl From<String> for PackageId {
    fn from(s: String) -> Self {
        PackageId(s)
    }
}

/// Functional role of a package in the stack (the Figure-3 process groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PackageKind {
    /// A core library linked by the rest of the stack.
    Library,
    /// A Monte Carlo event generator.
    Generator,
    /// Detector simulation.
    Simulation,
    /// Event reconstruction / file production.
    Reconstruction,
    /// Physics analysis code.
    Analysis,
    /// Standalone tooling (displays, monitors, archivers).
    Tool,
}

impl PackageKind {
    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            PackageKind::Library => "library",
            PackageKind::Generator => "generator",
            PackageKind::Simulation => "simulation",
            PackageKind::Reconstruction => "reconstruction",
            PackageKind::Analysis => "analysis",
            PackageKind::Tool => "tool",
        }
    }
}

/// Implementation language of a package — HERA-era stacks mix Fortran, C
/// and (in the OO analysis layer) C++.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Language {
    /// FORTRAN 77 / Fortran 9x.
    Fortran,
    /// C.
    C,
    /// C++.
    Cxx,
}

impl Language {
    /// Compiler-style label.
    pub fn label(self) -> &'static str {
        match self {
            Language::Fortran => "fortran",
            Language::C => "c",
            Language::Cxx => "c++",
        }
    }
}

/// One software package of an experiment stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    /// Unique name.
    pub id: PackageId,
    /// Release version.
    pub version: Version,
    /// Functional role.
    pub kind: PackageKind,
    /// Implementation language.
    pub language: Language,
    /// Source size in kLOC (drives the simulated build cost).
    pub kloc: u32,
    /// Build-order dependencies (packages that must be built first).
    pub deps: Vec<PackageId>,
    /// Code traits deciding compile/runtime behaviour per environment.
    pub traits: Vec<CodeTrait>,
}

impl Package {
    /// Creates a package with no dependencies or traits.
    pub fn new(name: impl Into<PackageId>, version: Version, kind: PackageKind) -> Self {
        Package {
            id: name.into(),
            version,
            kind,
            language: Language::C,
            kloc: 10,
            deps: Vec::new(),
            traits: Vec::new(),
        }
    }

    /// Adds a dependency (builder style).
    pub fn dep(mut self, dep: impl Into<PackageId>) -> Self {
        self.deps.push(dep.into());
        self
    }

    /// Adds a code trait (builder style).
    pub fn with_trait(mut self, code_trait: CodeTrait) -> Self {
        self.traits.push(code_trait);
        self
    }

    /// Sets the implementation language (builder style).
    pub fn lang(mut self, language: Language) -> Self {
        self.language = language;
        self
    }

    /// Sets the source size in kLOC (builder style).
    pub fn size_kloc(mut self, kloc: u32) -> Self {
        self.kloc = kloc;
        self
    }

    /// Whether this package requires or codes against the named external.
    pub fn uses_external(&self, name: &str) -> bool {
        self.traits.iter().any(|t| match t {
            CodeTrait::RequiresExternal { name: n, .. }
            | CodeTrait::UsesExternalApi { name: n, .. } => n == name,
            _ => false,
        })
    }

    /// Names of every external this package requires or codes against.
    pub fn externals(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .traits
            .iter()
            .filter_map(|t| match t {
                CodeTrait::RequiresExternal { name, .. }
                | CodeTrait::UsesExternalApi { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Why a dependency graph is not a well-formed DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A package id was added twice.
    Duplicate(PackageId),
    /// A package depends on a package that is not in the graph.
    MissingDependency {
        /// The depending package.
        package: PackageId,
        /// The absent dependency.
        dependency: PackageId,
    },
    /// The dependency relation contains a cycle (one witness listed in
    /// traversal order).
    Cycle(Vec<PackageId>),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Duplicate(id) => write!(f, "package '{id}' declared twice"),
            GraphError::MissingDependency {
                package,
                dependency,
            } => write!(f, "'{package}' depends on unknown package '{dependency}'"),
            GraphError::Cycle(path) => {
                write!(f, "dependency cycle: ")?;
                for (i, id) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{id}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The dependency graph of an experiment's software stack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependencyGraph {
    packages: BTreeMap<PackageId, Package>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Builds a graph from packages and validates it.
    pub fn from_packages(packages: impl IntoIterator<Item = Package>) -> Result<Self, GraphError> {
        let mut graph = DependencyGraph::new();
        for package in packages {
            graph.add(package)?;
        }
        graph.validate()?;
        Ok(graph)
    }

    /// Adds a package. Only uniqueness is checked here — dangling
    /// dependencies are legal until [`validate`](Self::validate), so stacks
    /// can be assembled in any order.
    pub fn add(&mut self, package: Package) -> Result<(), GraphError> {
        if self.packages.contains_key(&package.id) {
            return Err(GraphError::Duplicate(package.id));
        }
        self.packages.insert(package.id.clone(), package);
        Ok(())
    }

    /// Looks up a package.
    pub fn get(&self, id: &PackageId) -> Option<&Package> {
        self.packages.get(id)
    }

    /// Whether the package exists.
    pub fn contains(&self, id: &PackageId) -> bool {
        self.packages.contains_key(id)
    }

    /// All packages, in id order.
    pub fn packages(&self) -> impl Iterator<Item = &Package> {
        self.packages.values()
    }

    /// All package ids, in id order.
    pub fn ids(&self) -> impl Iterator<Item = &PackageId> {
        self.packages.keys()
    }

    /// Number of packages.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Checks that every dependency resolves and the graph is acyclic.
    /// A single ordering pass detects both error kinds.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topo_order().map(|_| ())
    }

    /// A deterministic topological order: dependencies before dependents,
    /// ties broken by package id (Kahn's algorithm over a sorted frontier).
    pub fn topo_order(&self) -> Result<Vec<PackageId>, GraphError> {
        let mut in_degree: BTreeMap<&PackageId, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<&PackageId, Vec<&PackageId>> = BTreeMap::new();
        for package in self.packages.values() {
            in_degree.entry(&package.id).or_insert(0);
            for dep in &package.deps {
                if !self.packages.contains_key(dep) {
                    return Err(GraphError::MissingDependency {
                        package: package.id.clone(),
                        dependency: dep.clone(),
                    });
                }
                *in_degree.entry(&package.id).or_insert(0) += 1;
                dependents.entry(dep).or_default().push(&package.id);
            }
        }

        let mut ready: BTreeSet<&PackageId> = in_degree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut order: Vec<PackageId> = Vec::with_capacity(self.packages.len());
        while let Some(next) = ready.iter().next().copied() {
            ready.remove(next);
            order.push(next.clone());
            for dependent in dependents.get(next).map(Vec::as_slice).unwrap_or(&[]) {
                let d = in_degree.get_mut(dependent).expect("counted above");
                *d -= 1;
                if *d == 0 {
                    ready.insert(dependent);
                }
            }
        }

        if order.len() == self.packages.len() {
            Ok(order)
        } else {
            // Everything not ordered sits on (or behind) a cycle; report the
            // smallest cycle witness found by walking unfinished packages.
            let unfinished: BTreeSet<&PackageId> = in_degree
                .iter()
                .filter(|(_, d)| **d > 0)
                .map(|(id, _)| *id)
                .collect();
            let start: &PackageId = unfinished.iter().next().expect("cycle exists");
            let mut path = vec![start.clone()];
            let mut seen: BTreeSet<&PackageId> = BTreeSet::new();
            let mut current: &PackageId = start;
            loop {
                seen.insert(current);
                let next = self.packages[current]
                    .deps
                    .iter()
                    .find(|d| unfinished.contains(d))
                    .expect("unfinished package has an unfinished dependency");
                path.push(next.clone());
                if seen.contains(next) {
                    // The walk may have started at a package that merely
                    // depends on the cycle; trim that lead-in so the
                    // witness names only packages actually on the cycle.
                    let first = path.iter().position(|p| p == next).expect("just revisited");
                    return Err(GraphError::Cycle(path.split_off(first)));
                }
                current = next;
            }
        }
    }

    /// The set of packages transitively depended on by `roots`, excluding
    /// the roots themselves, in id order. This is "what else must work for
    /// these packages to work" — the relation behind effective runtime
    /// traits and the preparation-phase consolidation.
    pub fn dependency_closure(&self, roots: &[PackageId]) -> Vec<PackageId> {
        self.closure_internal(roots, |pkg| pkg.deps.clone())
    }

    /// The set of packages that transitively depend on `roots`, excluding
    /// the roots themselves, in id order — the rebuild propagation relation.
    pub fn dependents_closure(&self, roots: &[PackageId]) -> Vec<PackageId> {
        let mut dependents: BTreeMap<&PackageId, Vec<PackageId>> = BTreeMap::new();
        for package in self.packages.values() {
            for dep in &package.deps {
                dependents.entry(dep).or_default().push(package.id.clone());
            }
        }
        self.closure_internal(roots, |pkg| {
            dependents.get(&pkg.id).cloned().unwrap_or_default()
        })
    }

    fn closure_internal(
        &self,
        roots: &[PackageId],
        neighbours: impl Fn(&Package) -> Vec<PackageId>,
    ) -> Vec<PackageId> {
        let mut seen: BTreeSet<PackageId> = BTreeSet::new();
        let mut queue: VecDeque<PackageId> = roots
            .iter()
            .filter(|r| self.packages.contains_key(*r))
            .cloned()
            .collect();
        while let Some(id) = queue.pop_front() {
            let Some(package) = self.packages.get(&id) else {
                continue;
            };
            for next in neighbours(package) {
                if self.packages.contains_key(&next) && seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        for root in roots {
            seen.remove(root);
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1() -> Version {
        Version::new(1, 0, 0)
    }

    fn diamond() -> DependencyGraph {
        DependencyGraph::from_packages([
            Package::new("base", v1(), PackageKind::Library),
            Package::new("left", v1(), PackageKind::Library).dep("base"),
            Package::new("right", v1(), PackageKind::Library).dep("base"),
            Package::new("top", v1(), PackageKind::Analysis)
                .dep("left")
                .dep("right"),
        ])
        .expect("diamond is a DAG")
    }

    #[test]
    fn duplicate_rejected() {
        let mut graph = DependencyGraph::new();
        graph
            .add(Package::new("a", v1(), PackageKind::Library))
            .unwrap();
        assert_eq!(
            graph.add(Package::new("a", v1(), PackageKind::Tool)),
            Err(GraphError::Duplicate(PackageId::new("a")))
        );
    }

    #[test]
    fn missing_dependency_caught_by_validate() {
        let mut graph = DependencyGraph::new();
        graph
            .add(Package::new("a", v1(), PackageKind::Library).dep("ghost"))
            .unwrap();
        assert!(matches!(
            graph.validate(),
            Err(GraphError::MissingDependency { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        let mut graph = DependencyGraph::new();
        graph
            .add(Package::new("a", v1(), PackageKind::Library).dep("b"))
            .unwrap();
        graph
            .add(Package::new("b", v1(), PackageKind::Library).dep("c"))
            .unwrap();
        graph
            .add(Package::new("c", v1(), PackageKind::Library).dep("a"))
            .unwrap();
        let err = graph.validate().unwrap_err();
        let GraphError::Cycle(path) = err else {
            panic!("expected cycle, got {err:?}");
        };
        assert!(path.len() >= 3);
    }

    #[test]
    fn cycle_witness_excludes_lead_in_dependents() {
        // "0dep" sorts before the cycle members and merely depends on the
        // cycle; the witness must name only packages on the cycle itself.
        let mut graph = DependencyGraph::new();
        graph
            .add(Package::new("0dep", v1(), PackageKind::Library).dep("a"))
            .unwrap();
        graph
            .add(Package::new("a", v1(), PackageKind::Library).dep("b"))
            .unwrap();
        graph
            .add(Package::new("b", v1(), PackageKind::Library).dep("a"))
            .unwrap();
        let err = graph.validate().unwrap_err();
        let GraphError::Cycle(path) = err else {
            panic!("expected cycle, got {err:?}");
        };
        assert!(!path.contains(&PackageId::new("0dep")), "witness {path:?}");
        assert_eq!(path.first(), path.last(), "witness closes on itself");
    }

    #[test]
    fn self_cycle_detected() {
        let mut graph = DependencyGraph::new();
        graph
            .add(Package::new("a", v1(), PackageKind::Library).dep("a"))
            .unwrap();
        assert!(matches!(graph.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn topo_order_respects_every_edge() {
        let graph = diamond();
        let order = graph.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let position: BTreeMap<&PackageId, usize> =
            order.iter().enumerate().map(|(i, id)| (id, i)).collect();
        for package in graph.packages() {
            for dep in &package.deps {
                assert!(
                    position[dep] < position[&package.id],
                    "{dep} must precede {}",
                    package.id
                );
            }
        }
    }

    #[test]
    fn topo_order_is_deterministic() {
        let graph = diamond();
        assert_eq!(graph.topo_order().unwrap(), graph.topo_order().unwrap());
        // Ties broken by id: base first, then left before right.
        assert_eq!(
            graph.topo_order().unwrap(),
            vec![
                PackageId::new("base"),
                PackageId::new("left"),
                PackageId::new("right"),
                PackageId::new("top"),
            ]
        );
    }

    #[test]
    fn dependency_closure_excludes_roots() {
        let graph = diamond();
        let closure = graph.dependency_closure(&[PackageId::new("top")]);
        assert_eq!(
            closure,
            vec![
                PackageId::new("base"),
                PackageId::new("left"),
                PackageId::new("right"),
            ]
        );
        assert!(graph
            .dependency_closure(&[PackageId::new("base")])
            .is_empty());
        assert!(graph
            .dependency_closure(&[PackageId::new("ghost")])
            .is_empty());
    }

    #[test]
    fn dependents_closure_is_the_reverse_relation() {
        let graph = diamond();
        let closure = graph.dependents_closure(&[PackageId::new("base")]);
        assert_eq!(
            closure,
            vec![
                PackageId::new("left"),
                PackageId::new("right"),
                PackageId::new("top"),
            ]
        );
        assert!(graph
            .dependents_closure(&[PackageId::new("top")])
            .is_empty());
    }

    #[test]
    fn externals_listed() {
        let pkg = Package::new("p", v1(), PackageKind::Analysis)
            .with_trait(CodeTrait::RequiresExternal {
                name: "root".into(),
                req: sp_env::VersionReq::Any,
            })
            .with_trait(CodeTrait::UsesExternalApi {
                name: "root".into(),
                api_level: 5,
            })
            .with_trait(CodeTrait::RequiresExternal {
                name: "gsl".into(),
                req: sp_env::VersionReq::Any,
            });
        assert!(pkg.uses_external("root"));
        assert!(pkg.uses_external("gsl"));
        assert!(!pkg.uses_external("cernlib"));
        assert_eq!(pkg.externals(), vec!["gsl", "root"]);
    }
}
