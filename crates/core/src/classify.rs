//! Root-cause classification of validation failures.
//!
//! "Intervention is then required either by the host of the validation
//! suite or the experiment themselves, depending on the nature of the
//! reported problem." (§3.1 iii)
//!
//! The classifier attributes each failed test to one of the three Figure-1
//! input categories by re-deriving its proximate cause from the
//! compatibility model, then aggregates the votes into a [`Diagnosis`] with
//! an intervention assignee. Latent experiment bugs *surfaced* by an
//! environment change (the "long-standing bugs" of §3.3) are attributed to
//! the experiment software: the environment was the trigger, not the cause.

use std::collections::BTreeMap;

use sp_env::{check_compile, check_runtime, EnvironmentSpec, RuntimeOutcome, Severity};

use crate::experiment::ExperimentDef;
use crate::inputs::{Assignee, InputCategory};
use crate::run::ValidationRun;
use crate::test::FailureKind;

/// The outcome of classifying a failed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Which input category is responsible.
    pub category: InputCategory,
    /// Specific culprit (external name, package name, OS facility).
    pub culprit: String,
    /// Who must intervene.
    pub assignee: Assignee,
    /// Fraction of classified failures explained by this category.
    pub confidence: f64,
    /// Per-failure evidence lines.
    pub evidence: Vec<String>,
}

impl Diagnosis {
    /// One-line rendering for intervention tickets.
    pub fn headline(&self) -> String {
        format!(
            "{} problem ({}), assign to {} [confidence {:.0}%]",
            self.category,
            self.culprit,
            self.assignee,
            self.confidence * 100.0
        )
    }
}

/// A single failure's attributed cause.
#[derive(Debug, Clone, PartialEq)]
struct Attribution {
    category: InputCategory,
    culprit: String,
    evidence: String,
}

/// Classifies a failed validation run against the environment it ran on.
/// Returns `None` for successful runs or when every failure is a secondary
/// (skip/dependency) effect.
pub fn classify(
    experiment: &ExperimentDef,
    run: &ValidationRun,
    env: &EnvironmentSpec,
) -> Option<Diagnosis> {
    let mut attributions: Vec<Attribution> = Vec::new();

    for result in run.failures() {
        let crate::run::TestStatus::Failed(kind) = &result.status else {
            continue;
        };
        // The packages this test exercises directly.
        let packages = experiment
            .suite
            .get(&result.test)
            .map(|t| t.kind.packages().into_iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default();

        let attribution = match kind {
            FailureKind::CompileError => packages
                .first()
                .and_then(|pkg| attribute_compile_failure(experiment, pkg, env)),
            FailureKind::Crash(_) | FailureKind::BadExit(_) | FailureKind::ChainStageFailed(_) => {
                packages
                    .iter()
                    .find_map(|pkg| attribute_runtime_crash(experiment, pkg, env))
            }
            FailureKind::ComparisonFailed(_) => packages
                .iter()
                .find_map(|pkg| attribute_deviation(experiment, pkg, env)),
            // Secondary effects: skip.
            FailureKind::DependencyFailed(_) => None,
        };
        if let Some(a) = attribution {
            attributions.push(a);
        }
    }

    if attributions.is_empty() {
        return None;
    }

    // Majority vote over (category, culprit).
    let mut votes: BTreeMap<(InputCategory, String), usize> = BTreeMap::new();
    for a in &attributions {
        *votes
            .entry((a.category.clone(), a.culprit.clone()))
            .or_insert(0) += 1;
    }
    let ((category, culprit), count) = votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("non-empty attributions");

    let confidence = count as f64 / attributions.len() as f64;
    let assignee = category.default_assignee();
    let evidence: Vec<String> = attributions.into_iter().map(|a| a.evidence).collect();

    Some(Diagnosis {
        category,
        culprit,
        assignee,
        confidence,
        evidence,
    })
}

/// Attributes a compile failure by re-deriving the diagnostics.
fn attribute_compile_failure(
    experiment: &ExperimentDef,
    package: &sp_build::PackageId,
    env: &EnvironmentSpec,
) -> Option<Attribution> {
    let pkg = experiment.graph.get(package)?;
    let outcome = check_compile(&pkg.traits, env);
    let error = outcome
        .diagnostics()
        .iter()
        .find(|d| d.severity == Severity::Error)?;
    let (category, culprit) = match error.code {
        "ext-missing" | "ext-api" => {
            // Name the external from the message ("root API level …").
            let name = error
                .message
                .split_whitespace()
                .next()
                .unwrap_or("external")
                .trim_end_matches(':')
                .to_string();
            (InputCategory::ExternalDependency, name)
        }
        // Compiler-strictness and toolchain errors belong to the OS layer.
        "implicit-decl" | "pre-std-c++" | "f77-ext" | "needs-c++11" => (
            InputCategory::OperatingSystem,
            format!("{} toolchain", env.compiler.label()),
        ),
        _ => (InputCategory::ExperimentSoftware, package.to_string()),
    };
    Some(Attribution {
        category,
        culprit,
        evidence: format!("{package}: {error}"),
    })
}

/// Attributes a runtime crash via the runtime compatibility relation.
fn attribute_runtime_crash(
    experiment: &ExperimentDef,
    package: &sp_build::PackageId,
    env: &EnvironmentSpec,
) -> Option<Attribution> {
    let traits = experiment.effective_runtime_traits(package);
    match check_runtime(&traits, env) {
        RuntimeOutcome::Crash { cause, message } => {
            let (category, culprit) = match cause {
                "legacy-syscall" => (
                    InputCategory::OperatingSystem,
                    format!("{} kernel/glibc interface", env.os.label()),
                ),
                "large-mem" => (
                    InputCategory::OperatingSystem,
                    format!("{} address space", env.arch.label()),
                ),
                _ => (InputCategory::ExperimentSoftware, package.to_string()),
            };
            Some(Attribution {
                category,
                culprit,
                evidence: format!("{package}: {message}"),
            })
        }
        _ => Some(Attribution {
            category: InputCategory::ExperimentSoftware,
            culprit: package.to_string(),
            evidence: format!("{package}: crash not explained by environment model"),
        }),
    }
}

/// Attributes a data-validation deviation: a latent experiment bug
/// triggered by the platform.
fn attribute_deviation(
    experiment: &ExperimentDef,
    package: &sp_build::PackageId,
    env: &EnvironmentSpec,
) -> Option<Attribution> {
    let traits = experiment.effective_runtime_traits(package);
    match check_runtime(&traits, env) {
        RuntimeOutcome::Deviating {
            causes,
            shift_sigma,
        } => {
            // Find which package in the closure carries the deviating trait.
            let culprit = find_trait_carrier(experiment, package, &causes)
                .unwrap_or_else(|| package.to_string());
            Some(Attribution {
                category: InputCategory::ExperimentSoftware,
                culprit: culprit.clone(),
                evidence: format!(
                    "{package}: results shifted by {shift_sigma:.1}σ on {} \
                     (latent bug in {culprit}: {})",
                    env.label(),
                    causes.join(", ")
                ),
            })
        }
        _ => None,
    }
}

/// Locates the package (the test's own or a dependency) carrying any of the
/// deviating trait codes.
fn find_trait_carrier(
    experiment: &ExperimentDef,
    package: &sp_build::PackageId,
    causes: &[&str],
) -> Option<String> {
    let mut candidates = vec![package.clone()];
    candidates.extend(
        experiment
            .graph
            .dependency_closure(std::slice::from_ref(package)),
    );
    for candidate in candidates {
        if let Some(pkg) = experiment.graph.get(&candidate) {
            if pkg.traits.iter().any(|t| causes.contains(&t.code())) {
                return Some(candidate.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preservation::PreservationLevel;
    use crate::run::{RunId, TestResult, TestStatus};
    use crate::suite::TestSuite;
    use crate::test::{TestCategory, TestId, TestKind, ValidationTest};
    use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
    use sp_env::{catalog, CodeTrait, Version, VersionReq};
    use sp_exec::JobId;

    fn experiment() -> ExperimentDef {
        let graph = DependencyGraph::from_packages([
            Package::new("lib64bug", Version::new(1, 0, 0), PackageKind::Library)
                .with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 5.0 }),
            Package::new("oldstyle", Version::new(1, 0, 0), PackageKind::Library)
                .with_trait(CodeTrait::PreStandardCxx),
            Package::new("kandr", Version::new(1, 0, 0), PackageKind::Library)
                .with_trait(CodeTrait::ImplicitFunctionDecl),
            Package::new("rootuser", Version::new(1, 0, 0), PackageKind::Analysis)
                .with_trait(CodeTrait::RequiresExternal {
                    name: "root".into(),
                    req: VersionReq::Any,
                })
                .with_trait(CodeTrait::UsesExternalApi {
                    name: "root".into(),
                    api_level: 5,
                }),
            Package::new("procreader", Version::new(1, 0, 0), PackageKind::Tool)
                .with_trait(CodeTrait::LegacySyscall { breaks_at_abi: 6 }),
            Package::new("ana", Version::new(1, 0, 0), PackageKind::Analysis).dep("lib64bug"),
        ])
        .unwrap();
        let mut suite = TestSuite::new("t", PreservationLevel::FullSoftware);
        for pkg in [
            "lib64bug",
            "oldstyle",
            "kandr",
            "rootuser",
            "procreader",
            "ana",
        ] {
            suite
                .add(ValidationTest::new(
                    format!("t/compile/{pkg}"),
                    "t",
                    "compilation",
                    TestKind::Compile {
                        package: PackageId::new(pkg),
                    },
                ))
                .unwrap();
            suite
                .add(ValidationTest::new(
                    format!("t/run/{pkg}"),
                    "t",
                    "standalone",
                    TestKind::Standalone {
                        package: PackageId::new(pkg),
                        events: 100,
                    },
                ))
                .unwrap();
        }
        ExperimentDef {
            name: "t".into(),
            color: "blue",
            graph,
            suite,
            entry_points: vec![],
        }
    }

    fn run_with_failures(failures: Vec<(&str, FailureKind)>) -> ValidationRun {
        ValidationRun {
            id: RunId(9),
            experiment: "t".into(),
            image_label: "test".into(),
            description: String::new(),
            timestamp: 0,
            results: failures
                .into_iter()
                .map(|(id, kind)| TestResult {
                    test: TestId::new(id),
                    category: TestCategory::Compilation,
                    group: "g".into(),
                    job: JobId(1),
                    status: TestStatus::Failed(kind),
                    outputs: Default::default(),
                    compare: None,
                })
                .collect(),
        }
    }

    #[test]
    fn strictness_failure_is_os_category() {
        let exp = experiment();
        let env = catalog::sl7_gcc48(Version::two(5, 34));
        let run = run_with_failures(vec![("t/compile/oldstyle", FailureKind::CompileError)]);
        let diagnosis = classify(&exp, &run, &env).unwrap();
        assert_eq!(diagnosis.category, InputCategory::OperatingSystem);
        assert_eq!(diagnosis.assignee, Assignee::HostIt);
        assert!(diagnosis.culprit.contains("gcc4.8"));
    }

    #[test]
    fn root6_api_break_is_external_category() {
        let exp = experiment();
        let env = catalog::sl7_gcc48(Version::two(6, 2));
        let run = run_with_failures(vec![("t/compile/rootuser", FailureKind::CompileError)]);
        let diagnosis = classify(&exp, &run, &env).unwrap();
        assert_eq!(diagnosis.category, InputCategory::ExternalDependency);
        assert_eq!(diagnosis.culprit, "root");
        assert_eq!(diagnosis.assignee, Assignee::Joint);
    }

    #[test]
    fn legacy_syscall_crash_is_os_category() {
        let exp = experiment();
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let run = run_with_failures(vec![(
            "t/run/procreader",
            FailureKind::Crash("SIGSEGV".into()),
        )]);
        let diagnosis = classify(&exp, &run, &env).unwrap();
        assert_eq!(diagnosis.category, InputCategory::OperatingSystem);
        assert!(diagnosis.culprit.contains("SL6"));
    }

    #[test]
    fn latent_bug_deviation_is_experiment_category() {
        let exp = experiment();
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        // ana links lib64bug; its histograms shifted on 64-bit.
        let run = run_with_failures(vec![(
            "t/run/ana",
            FailureKind::ComparisonFailed("chi2 p = 1e-9".into()),
        )]);
        let diagnosis = classify(&exp, &run, &env).unwrap();
        assert_eq!(diagnosis.category, InputCategory::ExperimentSoftware);
        assert_eq!(
            diagnosis.culprit, "lib64bug",
            "blames the carrier, not the test"
        );
        assert_eq!(diagnosis.assignee, Assignee::Experiment);
        assert!(diagnosis.evidence[0].contains("latent bug"));
    }

    #[test]
    fn majority_vote_and_confidence() {
        let exp = experiment();
        let env = catalog::sl7_gcc48(Version::two(6, 2));
        let run = run_with_failures(vec![
            ("t/compile/rootuser", FailureKind::CompileError),
            ("t/compile/oldstyle", FailureKind::CompileError),
            ("t/compile/kandr", FailureKind::CompileError),
        ]);
        // oldstyle -> OS, kandr -> OS, rootuser -> external.
        // Majority: OS with 2/3.
        let diagnosis = classify(&exp, &run, &env).unwrap();
        assert_eq!(diagnosis.category, InputCategory::OperatingSystem);
        assert!((diagnosis.confidence - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(diagnosis.evidence.len(), 3);
    }

    #[test]
    fn successful_run_has_no_diagnosis() {
        let exp = experiment();
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let run = run_with_failures(vec![]);
        assert!(classify(&exp, &run, &env).is_none());
    }

    #[test]
    fn dependency_failures_are_not_scored() {
        let exp = experiment();
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let run = run_with_failures(vec![(
            "t/run/ana",
            FailureKind::DependencyFailed("lib64bug".into()),
        )]);
        assert!(classify(&exp, &run, &env).is_none());
    }

    #[test]
    fn headline_reads_well() {
        let diagnosis = Diagnosis {
            category: InputCategory::ExternalDependency,
            culprit: "root".into(),
            assignee: Assignee::Joint,
            confidence: 1.0,
            evidence: vec![],
        };
        assert_eq!(
            diagnosis.headline(),
            "external software dependencies problem (root), assign to host IT + experiment [confidence 100%]"
        );
    }
}
