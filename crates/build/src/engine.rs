//! The simulated automated build system.
//!
//! §3.1 (ii): "a regular, automated build of the experimental software is
//! performed, according to the current prescription of the working
//! environment". The [`BuildEngine`] performs that build for one stack on
//! one environment: every package is compiled in dependency order via the
//! deterministic compatibility relation ([`sp_env::check_compile`]), its
//! build log is captured, and successful builds deposit their binaries as
//! tar-balls in the common storage — "binaries conserved as tar-balls"
//! (Figure 2).
//!
//! Everything is a pure function of `(package, environment, dependency
//! statuses)`, which is what makes validation runs reproducible and
//! thread-count invisible.

use std::collections::BTreeMap;

use sp_env::{check_compile, CompileOutcome, EnvironmentSpec, Severity};
use sp_store::{fnv64, Archive, ArchiveEntry, ObjectId, SharedStorage, StorageArea};

use crate::graph::{DependencyGraph, GraphError, Package, PackageId};

/// Terminal status of one package build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildStatus {
    /// Clean build; artifact conserved.
    Built,
    /// Build succeeded with the given number of warnings; artifact
    /// conserved. Warnings matter: they are how latent bugs whisper before
    /// the data validation catches them shouting.
    BuiltWithWarnings(usize),
    /// Compilation failed; no artifact.
    Failed,
    /// Not attempted because the named dependency produced no artifact.
    SkippedDepFailed(PackageId),
}

impl BuildStatus {
    /// Whether this build produced a usable artifact.
    pub fn has_artifact(&self) -> bool {
        matches!(self, BuildStatus::Built | BuildStatus::BuiltWithWarnings(_))
    }
}

/// The record of one package build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildRecord {
    /// The package.
    pub package: PackageId,
    /// Terminal status.
    pub status: BuildStatus,
    /// Captured compiler/linker log.
    pub log: String,
    /// Content address of the conserved tar-ball, when built.
    pub artifact: Option<ObjectId>,
}

/// The outcome of building one full stack on one environment.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Environment label the stack was built on.
    pub env_label: String,
    /// Topological order the build followed.
    pub order: Vec<PackageId>,
    /// Per-package records.
    pub records: BTreeMap<PackageId, BuildRecord>,
}

impl BuildReport {
    /// Whether every package produced an artifact.
    pub fn all_built(&self) -> bool {
        self.records.values().all(|r| r.status.has_artifact())
    }

    /// Number of packages that produced artifacts.
    pub fn built_count(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.status.has_artifact())
            .count()
    }

    /// Number of failed compilations (skips not included).
    pub fn failed_count(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.status == BuildStatus::Failed)
            .count()
    }

    /// Number of packages skipped over failed dependencies.
    pub fn skipped_count(&self) -> usize {
        self.records
            .values()
            .filter(|r| matches!(r.status, BuildStatus::SkippedDepFailed(_)))
            .count()
    }

    /// `(package, artifact)` pairs for every conserved tar-ball, id order.
    pub fn artifacts(&self) -> impl Iterator<Item = (&PackageId, ObjectId)> {
        self.records
            .iter()
            .filter_map(|(id, r)| r.artifact.map(|a| (id, a)))
    }
}

/// The sequential build engine.
pub struct BuildEngine {
    storage: SharedStorage,
}

impl BuildEngine {
    /// Creates an engine depositing artifacts into `storage`.
    pub fn new(storage: SharedStorage) -> Self {
        BuildEngine { storage }
    }

    /// The storage artifacts are conserved in.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// Builds the whole stack sequentially, in topological order.
    pub fn build_stack(
        &self,
        graph: &DependencyGraph,
        env: &EnvironmentSpec,
    ) -> Result<BuildReport, GraphError> {
        let order = graph.topo_order()?;
        let mut records: BTreeMap<PackageId, BuildRecord> = BTreeMap::new();
        for id in &order {
            let package = graph.get(id).expect("ordered ids exist");
            let record = self.build_package(package, env, &records);
            records.insert(id.clone(), record);
        }
        Ok(BuildReport {
            env_label: env.label(),
            order,
            records,
        })
    }

    /// Builds one package given the records of everything built before it.
    /// Pure in `(package, env, dependency statuses)`; dependency records
    /// must already be present (guaranteed by topological scheduling).
    pub fn build_package(
        &self,
        package: &Package,
        env: &EnvironmentSpec,
        prior: &BTreeMap<PackageId, BuildRecord>,
    ) -> BuildRecord {
        // A dependency without an artifact blocks the build. The first
        // blocked dependency in declaration order is named, so the verdict
        // is independent of scheduling.
        if let Some(dep) = package.deps.iter().find(|dep| {
            !prior
                .get(*dep)
                .map(|r| r.status.has_artifact())
                .unwrap_or(false)
        }) {
            return BuildRecord {
                package: package.id.clone(),
                status: BuildStatus::SkippedDepFailed(dep.clone()),
                log: format!(
                    "sp-build: skipping {} {}: required package '{dep}' has no artifact\n",
                    package.id, package.version
                ),
                artifact: None,
            };
        }

        let outcome = check_compile(&package.traits, env);
        let mut log = format!(
            "sp-build: {} {} [{}] on {}\n",
            package.id,
            package.version,
            package.language.label(),
            env.label()
        );
        for diagnostic in outcome.diagnostics() {
            log.push_str(&format!("{}: {diagnostic}\n", package.id));
        }

        match outcome {
            CompileOutcome::Failure(_) => {
                log.push_str(&format!("sp-build: {} FAILED\n", package.id));
                BuildRecord {
                    package: package.id.clone(),
                    status: BuildStatus::Failed,
                    log,
                    artifact: None,
                }
            }
            outcome => {
                let warnings = outcome
                    .diagnostics()
                    .iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .count();
                let artifact = self.conserve_tarball(package, env);
                log.push_str(&format!(
                    "sp-build: {} ok ({} warnings), tar-ball {}\n",
                    package.id,
                    warnings,
                    artifact.short()
                ));
                let status = if warnings == 0 {
                    BuildStatus::Built
                } else {
                    BuildStatus::BuiltWithWarnings(warnings)
                };
                BuildRecord {
                    package: package.id.clone(),
                    status,
                    log,
                    artifact: Some(artifact),
                }
            }
        }
    }

    /// Packs and conserves the package's simulated binaries. Content is a
    /// pure function of the package and environment, so identical builds
    /// deduplicate to identical content addresses — the property the
    /// reproducibility guarantees rest on.
    ///
    /// Conservation goes through the storage digest cache keyed by the
    /// package *revision* (identity, version, size and environment): a
    /// nightly campaign rebuilding an unchanged package neither re-packs
    /// nor re-hashes the tar-ball, it reuses the memoised content address.
    fn conserve_tarball(&self, package: &Package, env: &EnvironmentSpec) -> ObjectId {
        let revision = package_revision(package, env);
        self.storage.put_named_cached(
            StorageArea::Artifacts,
            &format!("{}/{}/{}", package.id, package.version, env.label()),
            &revision,
            || {
                let mut archive = Archive::new();
                let manifest = format!(
                    "package = {}\nversion = {}\nlanguage = {}\nkind = {}\nbuilt-for = {}\n",
                    package.id,
                    package.version,
                    package.language.label(),
                    package.kind.label(),
                    env.label(),
                );
                archive
                    .add(ArchiveEntry::file("MANIFEST", manifest.into_bytes()))
                    .expect("static path is legal");
                archive
                    .add(ArchiveEntry::executable(
                        format!("bin/{}", package.id),
                        synthetic_binary(package, env),
                    ))
                    .expect("derived path is legal");
                archive.pack()
            },
        )
    }
}

/// The digest-cache key of one package build: every determinant of the
/// conserved tar-ball bytes. Bumping a package version, resizing it, or
/// switching environment changes the revision and forces a real pack+hash.
fn package_revision(package: &Package, env: &EnvironmentSpec) -> String {
    format!(
        "{}@{}+{}+{}+{}kloc@{}",
        package.id,
        package.version,
        package.language.label(),
        package.kind.label(),
        package.kloc,
        env.label(),
    )
}

/// Deterministic pseudo-binary payload sized with the package (~32 bytes
/// per kLOC), keyed on package identity and environment.
fn synthetic_binary(package: &Package, env: &EnvironmentSpec) -> Vec<u8> {
    let mut state = fnv64(&format!(
        "{}/{}/{}",
        package.id,
        package.version,
        env.label()
    ));
    let len = 64 + (package.kloc as usize) * 32;
    let mut bytes = Vec::with_capacity(len);
    while bytes.len() < len {
        // splitmix64 stream.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        bytes.extend_from_slice(&z.to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Language, PackageKind};
    use sp_env::{catalog, Arch, CodeTrait, Version, VersionReq};

    fn v1() -> Version {
        Version::new(1, 0, 0)
    }

    fn stack() -> DependencyGraph {
        DependencyGraph::from_packages([
            Package::new("clean", v1(), PackageKind::Library).lang(Language::Fortran),
            Package::new("warny", v1(), PackageKind::Library)
                .with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 1.0 }),
            Package::new("rootish", v1(), PackageKind::Analysis)
                .dep("clean")
                .with_trait(CodeTrait::RequiresExternal {
                    name: "root".into(),
                    req: VersionReq::Any,
                })
                .with_trait(CodeTrait::UsesExternalApi {
                    name: "root".into(),
                    api_level: 5,
                }),
            Package::new("user", v1(), PackageKind::Tool).dep("rootish"),
        ])
        .unwrap()
    }

    #[test]
    fn clean_stack_fully_builds_and_conserves() {
        let storage = SharedStorage::new();
        let engine = BuildEngine::new(storage.clone());
        let env = catalog::sl5_gcc41(Arch::I686, Version::two(5, 34));
        let report = engine.build_stack(&stack(), &env).unwrap();
        assert!(report.all_built(), "{report:?}");
        assert_eq!(report.built_count(), 4);
        // Every artifact is resolvable in the common storage.
        for (_, artifact) in report.artifacts() {
            assert!(storage.content().contains(artifact));
        }
        assert_eq!(storage.list(StorageArea::Artifacts, "").len(), 4);
    }

    #[test]
    fn warnings_are_counted_not_fatal() {
        let engine = BuildEngine::new(SharedStorage::new());
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let report = engine.build_stack(&stack(), &env).unwrap();
        let warny = &report.records[&PackageId::new("warny")];
        assert_eq!(warny.status, BuildStatus::BuiltWithWarnings(1));
        assert!(warny.status.has_artifact());
        assert!(warny.log.contains("warning"));
    }

    #[test]
    fn failure_propagates_as_skip() {
        let engine = BuildEngine::new(SharedStorage::new());
        // ROOT 6 breaks the API-level-5 package; its dependent is skipped.
        let env = catalog::sl7_gcc48(Version::two(6, 2));
        let report = engine.build_stack(&stack(), &env).unwrap();
        assert_eq!(
            report.records[&PackageId::new("rootish")].status,
            BuildStatus::Failed
        );
        assert_eq!(
            report.records[&PackageId::new("user")].status,
            BuildStatus::SkippedDepFailed(PackageId::new("rootish"))
        );
        assert!(report.records[&PackageId::new("user")].artifact.is_none());
        assert_eq!(report.failed_count(), 1);
        assert_eq!(report.skipped_count(), 1);
        assert!(!report.all_built());
    }

    #[test]
    fn rebuilds_hit_the_digest_cache() {
        let storage = SharedStorage::new();
        let engine = BuildEngine::new(storage.clone());
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        engine.build_stack(&stack(), &env).unwrap();
        let after_first = storage.content().stats();
        let cache_after_first = storage.digest_cache().stats();
        assert_eq!(cache_after_first.hits, 0);
        assert_eq!(cache_after_first.misses, 4, "one per conserved package");

        let report = engine.build_stack(&stack(), &env).unwrap();
        assert!(report.all_built());
        let after_second = storage.content().stats();
        let cache_after_second = storage.digest_cache().stats();
        assert_eq!(
            cache_after_second.hits, 4,
            "unchanged artifacts not re-hashed"
        );
        assert_eq!(
            after_first.inserted + after_first.deduplicated,
            after_second.inserted + after_second.deduplicated,
            "no content-store put at all on the second build"
        );
        // A different environment is a different revision: cache misses.
        engine
            .build_stack(
                &stack(),
                &catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)),
            )
            .unwrap();
        assert!(storage.digest_cache().stats().misses > 4);
    }

    #[test]
    fn identical_builds_share_content_addresses() {
        let storage = SharedStorage::new();
        let engine = BuildEngine::new(storage.clone());
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let first = engine.build_stack(&stack(), &env).unwrap();
        let second = engine.build_stack(&stack(), &env).unwrap();
        assert_eq!(first, second, "builds are reproducible");
        // Different environment: different artifacts.
        let other = engine
            .build_stack(
                &stack(),
                &catalog::sl5_gcc44(Arch::X86_64, Version::two(5, 34)),
            )
            .unwrap();
        let a = first.records[&PackageId::new("clean")].artifact.unwrap();
        let b = other.records[&PackageId::new("clean")].artifact.unwrap();
        assert_ne!(a, b);
    }
}
