//! The validation-test taxonomy.
//!
//! Figure 2 of the paper structures the H1 tests into package compilations
//! (binaries conserved as tar-balls) and validation tests, the latter
//! spanning quick per-package checks, standalone executables run in
//! parallel, and sequential multi-stage analysis chains ending in a
//! validation of the results.

use std::collections::BTreeMap;
use std::sync::Arc;

use sp_build::PackageId;
use sp_exec::ChainDef;

/// Unique test identifier within an experiment suite. The text is
/// shared: every result of the test holds the registered experiment's
/// copy, so recording a result bumps a count instead of copying the id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TestId(pub Arc<str>);

impl TestId {
    /// Creates an id.
    pub fn new(id: impl Into<Arc<str>>) -> Self {
        TestId(id.into())
    }

    /// The id text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TestId {
    fn from(s: &str) -> Self {
        TestId::new(s)
    }
}

impl From<String> for TestId {
    fn from(s: String) -> Self {
        TestId::new(s)
    }
}

/// Coarse test category — the rows of the Figure-2 outline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TestCategory {
    /// Compilation of one package (artifact stored as a tar-ball).
    Compilation,
    /// A quick per-package correctness check (runs in parallel).
    UnitCheck,
    /// A standalone executable with a real workload (runs in parallel).
    StandaloneExecutable,
    /// A sequential multi-stage analysis chain.
    AnalysisChain,
    /// Comparison of produced data against the reference run.
    DataValidation,
}

impl TestCategory {
    /// All categories in Figure-2 order.
    pub fn all() -> [TestCategory; 5] {
        [
            TestCategory::Compilation,
            TestCategory::UnitCheck,
            TestCategory::StandaloneExecutable,
            TestCategory::AnalysisChain,
            TestCategory::DataValidation,
        ]
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            TestCategory::Compilation => "package compilation",
            TestCategory::UnitCheck => "unit check",
            TestCategory::StandaloneExecutable => "standalone executable",
            TestCategory::AnalysisChain => "analysis chain",
            TestCategory::DataValidation => "data validation",
        }
    }

    /// Whether tests of this category may run in parallel with each other
    /// (§3.2: standalone tests run in parallel; chains run sequentially).
    pub fn parallelisable(self) -> bool {
        !matches!(self, TestCategory::AnalysisChain)
    }
}

/// What a test does when executed.
#[derive(Debug, Clone, PartialEq)]
pub enum TestKind {
    /// Compile one package.
    Compile {
        /// The package to compile.
        package: PackageId,
    },
    /// Run a quick deterministic check of one package's numerics.
    UnitCheck {
        /// The package under test.
        package: PackageId,
        /// Which of the package's checks this is (a package may have
        /// several).
        check_index: u32,
    },
    /// Run a standalone executable over a seeded mini-workload.
    Standalone {
        /// The executable's package.
        package: PackageId,
        /// Number of events to process.
        events: usize,
    },
    /// Run a full analysis chain; each stage is implemented by a package.
    Chain {
        /// The chain structure.
        chain: ChainDef,
        /// Stage name → implementing package.
        stage_packages: BTreeMap<String, PackageId>,
        /// Number of events to generate at the head of the chain.
        events: usize,
    },
}

impl TestKind {
    /// The category this kind belongs to.
    pub fn category(&self) -> TestCategory {
        match self {
            TestKind::Compile { .. } => TestCategory::Compilation,
            TestKind::UnitCheck { .. } => TestCategory::UnitCheck,
            TestKind::Standalone { .. } => TestCategory::StandaloneExecutable,
            TestKind::Chain { .. } => TestCategory::AnalysisChain,
        }
    }

    /// Packages this test exercises directly.
    pub fn packages(&self) -> Vec<&PackageId> {
        match self {
            TestKind::Compile { package }
            | TestKind::UnitCheck { package, .. }
            | TestKind::Standalone { package, .. } => vec![package],
            TestKind::Chain { stage_packages, .. } => stage_packages.values().collect(),
        }
    }
}

/// How a test failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The package did not compile.
    CompileError,
    /// A dependency failed, so the test could not run.
    DependencyFailed(String),
    /// The executable crashed.
    Crash(String),
    /// Non-zero exit code.
    BadExit(i32),
    /// Output comparison against the reference failed, with the detail of
    /// the [`CompareOutcome::Differs`](crate::CompareOutcome::Differs) that
    /// decided it (one shared text).
    ComparisonFailed(Arc<str>),
    /// A chain stage failed.
    ChainStageFailed(String),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::CompileError => write!(f, "compile error"),
            FailureKind::DependencyFailed(d) => write!(f, "dependency failed: {d}"),
            FailureKind::Crash(m) => write!(f, "crash: {m}"),
            FailureKind::BadExit(c) => write!(f, "exit code {c}"),
            FailureKind::ComparisonFailed(m) => write!(f, "comparison failed: {m}"),
            FailureKind::ChainStageFailed(s) => write!(f, "chain stage '{s}' failed"),
        }
    }
}

/// One validation test as defined by an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationTest {
    /// Unique id within the experiment (`h1/compile/h1rec`).
    pub id: TestId,
    /// Owning experiment.
    pub experiment: String,
    /// What the test does.
    pub kind: TestKind,
    /// Process group for the Figure-3 matrix rows (`MC chain`,
    /// `DST production`, …), shared with every result of the test.
    pub group: Arc<str>,
}

impl ValidationTest {
    /// Creates a test.
    pub fn new(
        id: impl Into<TestId>,
        experiment: impl Into<String>,
        group: impl Into<Arc<str>>,
        kind: TestKind,
    ) -> Self {
        ValidationTest {
            id: id.into(),
            experiment: experiment.into(),
            kind,
            group: group.into(),
        }
    }

    /// The test's category.
    pub fn category(&self) -> TestCategory {
        self.kind.category()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_exec::StageDef;

    #[test]
    fn categories_match_kinds() {
        let compile = TestKind::Compile {
            package: PackageId::new("h1rec"),
        };
        assert_eq!(compile.category(), TestCategory::Compilation);
        let chain = TestKind::Chain {
            chain: ChainDef::new("c", vec![StageDef::new("gen", &[])]).unwrap(),
            stage_packages: BTreeMap::new(),
            events: 100,
        };
        assert_eq!(chain.category(), TestCategory::AnalysisChain);
    }

    #[test]
    fn chains_are_sequential_others_parallel() {
        assert!(!TestCategory::AnalysisChain.parallelisable());
        assert!(TestCategory::Compilation.parallelisable());
        assert!(TestCategory::StandaloneExecutable.parallelisable());
    }

    #[test]
    fn packages_extracted() {
        let mut stage_packages = BTreeMap::new();
        stage_packages.insert("gen".to_string(), PackageId::new("django"));
        stage_packages.insert("sim".to_string(), PackageId::new("h1sim"));
        let chain = TestKind::Chain {
            chain: ChainDef::new(
                "c",
                vec![StageDef::new("gen", &[]), StageDef::new("sim", &["gen"])],
            )
            .unwrap(),
            stage_packages,
            events: 100,
        };
        let pkgs = chain.packages();
        assert_eq!(pkgs.len(), 2);
    }

    #[test]
    fn failure_kinds_display() {
        assert_eq!(FailureKind::CompileError.to_string(), "compile error");
        assert_eq!(FailureKind::BadExit(139).to_string(), "exit code 139");
        assert_eq!(
            FailureKind::ChainStageFailed("sim".into()).to_string(),
            "chain stage 'sim' failed"
        );
    }

    #[test]
    fn test_construction() {
        let t = ValidationTest::new(
            "h1/compile/h1rec",
            "h1",
            "compilation",
            TestKind::Compile {
                package: PackageId::new("h1rec"),
            },
        );
        assert_eq!(t.id.as_str(), "h1/compile/h1rec");
        assert_eq!(t.category(), TestCategory::Compilation);
    }
}
