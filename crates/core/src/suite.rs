//! Test suites and the Figure-2 breakdown.
//!
//! "As a first step, the number and nature of the experimental tests is
//! surveyed, the level of which reflects the DPHEP preservation level aimed
//! at \[by\] the participating collaboration." (§3.2)

use std::collections::BTreeMap;

use crate::preservation::PreservationLevel;
use crate::test::{TestCategory, TestId, ValidationTest};

/// The validation-test suite of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSuite {
    /// Owning experiment.
    pub experiment: String,
    /// Targeted preservation level (drives the required categories).
    pub level: PreservationLevel,
    tests: Vec<ValidationTest>,
}

impl TestSuite {
    /// Creates an empty suite.
    pub fn new(experiment: impl Into<String>, level: PreservationLevel) -> Self {
        TestSuite {
            experiment: experiment.into(),
            level,
            tests: Vec::new(),
        }
    }

    /// Adds a test. Ids must be unique; duplicates are rejected.
    pub fn add(&mut self, test: ValidationTest) -> Result<(), DuplicateTest> {
        if self.tests.iter().any(|t| t.id == test.id) {
            return Err(DuplicateTest(test.id));
        }
        self.tests.push(test);
        Ok(())
    }

    /// All tests in insertion order.
    pub fn tests(&self) -> &[ValidationTest] {
        &self.tests
    }

    /// Number of tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Looks up a test by id.
    pub fn get(&self, id: &TestId) -> Option<&ValidationTest> {
        self.tests.iter().find(|t| &t.id == id)
    }

    /// Tests of one category.
    pub fn by_category(&self, category: TestCategory) -> impl Iterator<Item = &ValidationTest> {
        self.tests.iter().filter(move |t| t.category() == category)
    }

    /// The Figure-2 survey: test counts per category.
    pub fn breakdown(&self) -> SuiteBreakdown {
        let mut counts: BTreeMap<TestCategory, usize> = BTreeMap::new();
        for test in &self.tests {
            *counts.entry(test.category()).or_insert(0) += 1;
        }
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        for test in &self.tests {
            *groups.entry(test.group.to_string()).or_insert(0) += 1;
        }
        SuiteBreakdown {
            experiment: self.experiment.clone(),
            level: self.level,
            total: self.tests.len(),
            by_category: counts,
            by_group: groups,
        }
    }

    /// Whether the suite covers every category its preservation level
    /// requires.
    pub fn covers_level(&self) -> bool {
        self.level
            .required_test_categories()
            .iter()
            .all(|c| self.by_category(*c).next().is_some() || *c == TestCategory::DataValidation)
    }

    /// Distinct process groups, in order (the Figure-3 rows for this
    /// experiment).
    pub fn groups(&self) -> Vec<String> {
        let mut groups: Vec<String> = Vec::new();
        for test in &self.tests {
            if !groups.iter().any(|group| **group == *test.group) {
                groups.push(test.group.to_string());
            }
        }
        groups
    }
}

/// Error: a test id was added twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateTest(pub TestId);

impl std::fmt::Display for DuplicateTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "duplicate test id '{}'", self.0)
    }
}

impl std::error::Error for DuplicateTest {}

/// The per-category and per-group survey of a suite (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteBreakdown {
    /// Experiment name.
    pub experiment: String,
    /// Preservation level aimed at.
    pub level: PreservationLevel,
    /// Total number of tests.
    pub total: usize,
    /// Counts per category.
    pub by_category: BTreeMap<TestCategory, usize>,
    /// Counts per process group.
    pub by_group: BTreeMap<String, usize>,
}

impl SuiteBreakdown {
    /// Count for a category (0 if absent).
    pub fn count(&self, category: TestCategory) -> usize {
        self.by_category.get(&category).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::TestKind;
    use sp_build::PackageId;

    fn compile_test(id: &str, pkg: &str) -> ValidationTest {
        ValidationTest::new(
            id,
            "h1",
            "compilation",
            TestKind::Compile {
                package: PackageId::new(pkg),
            },
        )
    }

    #[test]
    fn add_and_lookup() {
        let mut suite = TestSuite::new("h1", PreservationLevel::FullSoftware);
        suite
            .add(compile_test("h1/compile/h1rec", "h1rec"))
            .unwrap();
        assert_eq!(suite.len(), 1);
        assert!(suite.get(&TestId::new("h1/compile/h1rec")).is_some());
        assert!(suite.get(&TestId::new("nope")).is_none());
    }

    #[test]
    fn duplicates_rejected() {
        let mut suite = TestSuite::new("h1", PreservationLevel::FullSoftware);
        suite.add(compile_test("t", "a")).unwrap();
        assert!(suite.add(compile_test("t", "b")).is_err());
        assert_eq!(suite.len(), 1);
    }

    #[test]
    fn breakdown_counts() {
        let mut suite = TestSuite::new("h1", PreservationLevel::FullSoftware);
        suite.add(compile_test("c1", "a")).unwrap();
        suite.add(compile_test("c2", "b")).unwrap();
        suite
            .add(ValidationTest::new(
                "u1",
                "h1",
                "unit",
                TestKind::UnitCheck {
                    package: PackageId::new("a"),
                    check_index: 0,
                },
            ))
            .unwrap();
        let breakdown = suite.breakdown();
        assert_eq!(breakdown.total, 3);
        assert_eq!(breakdown.count(TestCategory::Compilation), 2);
        assert_eq!(breakdown.count(TestCategory::UnitCheck), 1);
        assert_eq!(breakdown.count(TestCategory::AnalysisChain), 0);
        assert_eq!(breakdown.by_group["compilation"], 2);
    }

    #[test]
    fn groups_in_insertion_order() {
        let mut suite = TestSuite::new("h1", PreservationLevel::FullSoftware);
        suite.add(compile_test("c1", "a")).unwrap();
        suite
            .add(ValidationTest::new(
                "u1",
                "h1",
                "MC chain",
                TestKind::UnitCheck {
                    package: PackageId::new("a"),
                    check_index: 0,
                },
            ))
            .unwrap();
        assert_eq!(suite.groups(), vec!["compilation", "MC chain"]);
    }
}
