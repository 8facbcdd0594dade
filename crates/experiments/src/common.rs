//! Shared experiment-construction helpers.

use std::collections::BTreeMap;

use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
use sp_core::{PreservationLevel, TestKind, TestSuite, ValidationTest};
use sp_env::Version;
use sp_exec::ChainDef;

/// Figure-3 process group for a package kind.
fn group_for(kind: PackageKind) -> &'static str {
    match kind {
        PackageKind::Library => "core libraries",
        PackageKind::Generator => "MC generation",
        PackageKind::Simulation => "simulation",
        PackageKind::Reconstruction => "reconstruction",
        PackageKind::Analysis => "physics analysis",
        PackageKind::Tool => "tools",
    }
}

/// A declarative chain description: name, events, and stage→package pairs.
pub struct ChainSpec<'a> {
    /// Chain name (`nc-dis`).
    pub name: &'a str,
    /// Head-of-chain event count (before campaign scaling).
    pub events: usize,
    /// Stage name → implementing package, for the six standard stages.
    pub stages: [(&'a str, &'a str); 6],
}

impl<'a> ChainSpec<'a> {
    /// The standard six-stage mapping.
    pub fn standard(
        name: &'a str,
        events: usize,
        generator: &'a str,
        simulation: &'a str,
        dst: &'a str,
        microdst: &'a str,
        analysis: &'a str,
    ) -> Self {
        ChainSpec {
            name,
            events,
            stages: [
                ("mcgen", generator),
                ("sim", simulation),
                ("dst", dst),
                ("microdst", microdst),
                ("analysis", analysis),
                ("validation", analysis),
            ],
        }
    }
}

/// Builds the full validation suite for a stack, following the Figure-2
/// structure: one compilation test per package, `unit_checks` quick checks
/// per package, the listed standalone executables, and the analysis chains.
pub fn build_suite(
    experiment: &str,
    level: PreservationLevel,
    graph: &DependencyGraph,
    unit_checks: u32,
    standalone: &[(&str, usize)],
    chains: &[ChainSpec<'_>],
) -> TestSuite {
    let mut suite = TestSuite::new(experiment, level);

    for package in graph.packages() {
        suite
            .add(ValidationTest::new(
                format!("{experiment}/compile/{}", package.id),
                experiment,
                "compilation",
                TestKind::Compile {
                    package: package.id.clone(),
                },
            ))
            .expect("unique compile test ids");
        for check in 0..unit_checks {
            suite
                .add(ValidationTest::new(
                    format!("{experiment}/unit/{}-{check}", package.id),
                    experiment,
                    group_for(package.kind),
                    TestKind::UnitCheck {
                        package: package.id.clone(),
                        check_index: check,
                    },
                ))
                .expect("unique unit test ids");
        }
    }

    for (package, events) in standalone {
        let kind = graph
            .get(&PackageId::new(*package))
            .map(|p| p.kind)
            .unwrap_or(PackageKind::Tool);
        suite
            .add(ValidationTest::new(
                format!("{experiment}/standalone/{package}"),
                experiment,
                group_for(kind),
                TestKind::Standalone {
                    package: PackageId::new(*package),
                    events: *events,
                },
            ))
            .expect("unique standalone test ids");
    }

    for chain in chains {
        let stage_packages: BTreeMap<String, PackageId> = chain
            .stages
            .iter()
            .map(|(stage, pkg)| (stage.to_string(), PackageId::new(*pkg)))
            .collect();
        suite
            .add(ValidationTest::new(
                format!("{experiment}/chain/{}", chain.name),
                experiment,
                "analysis chains",
                TestKind::Chain {
                    chain: ChainDef::full_analysis_chain(chain.name),
                    stage_packages,
                    events: chain.events,
                },
            ))
            .expect("unique chain test ids");
    }

    suite
}

/// Number of tests a suite produces once chains are expanded into their
/// per-stage results — the number the paper's "up to 500 tests" counts.
pub fn expanded_test_count(suite: &TestSuite) -> usize {
    suite
        .tests()
        .iter()
        .map(|t| match &t.kind {
            TestKind::Chain { chain, .. } => chain.len(),
            _ => 1,
        })
        .sum()
}

/// Terse package constructor used by the stack definitions.
pub fn pkg(
    name: &str,
    version: (u16, u16, u16),
    kind: PackageKind,
    kloc: u32,
    deps: &[&str],
) -> Package {
    let mut package =
        Package::new(name, Version::new(version.0, version.1, version.2), kind).size_kloc(kloc);
    for dep in deps {
        package = package.dep(*dep);
    }
    package
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::TestCategory;

    fn small_graph() -> DependencyGraph {
        DependencyGraph::from_packages([
            pkg("base", (1, 0, 0), PackageKind::Library, 20, &[]),
            pkg("gen", (1, 0, 0), PackageKind::Generator, 30, &["base"]),
            pkg("sim", (1, 0, 0), PackageKind::Simulation, 40, &["base"]),
            pkg("ana", (1, 0, 0), PackageKind::Analysis, 25, &["base"]),
        ])
        .unwrap()
    }

    #[test]
    fn suite_structure() {
        let graph = small_graph();
        let chains = [ChainSpec::standard(
            "nc", 1000, "gen", "sim", "ana", "ana", "ana",
        )];
        let suite = build_suite(
            "t",
            PreservationLevel::FullSoftware,
            &graph,
            2,
            &[("ana", 200)],
            &chains,
        );
        let breakdown = suite.breakdown();
        assert_eq!(breakdown.count(TestCategory::Compilation), 4);
        assert_eq!(breakdown.count(TestCategory::UnitCheck), 8);
        assert_eq!(breakdown.count(TestCategory::StandaloneExecutable), 1);
        // 4 compiles + 8 units + 1 standalone + 1 chain = 14 defined tests;
        // expanded, the chain contributes its 6 stages.
        assert_eq!(suite.len(), 14);
        assert_eq!(expanded_test_count(&suite), 19);
    }

    #[test]
    fn groups_follow_package_kinds() {
        assert_eq!(group_for(PackageKind::Generator), "MC generation");
        assert_eq!(group_for(PackageKind::Analysis), "physics analysis");
    }
}
