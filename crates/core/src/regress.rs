//! Run-to-run regression analysis.
//!
//! "If a test fails, any differences compared to the last successful test
//! are examined and problems identified." (§3.1 iii). The
//! [`RegressionReport`] is that examination: which tests newly broke, which
//! recovered, which keep failing, and what changed in between.

use std::collections::BTreeMap;

use crate::run::{TestStatus, ValidationRun};
use crate::test::TestId;

/// The status transition of one test between two runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Passed before, fails now — the regression the framework exists to
    /// catch.
    NewFailure {
        /// Status in the current run.
        now: TestStatus,
    },
    /// Failed before, passes now.
    Fixed,
    /// Failed in both runs.
    StillFailing,
    /// Passed in both runs.
    StillPassing,
    /// Not present in the earlier run (new test).
    Added {
        /// Status in the current run.
        now: TestStatus,
    },
    /// Present before, absent now (removed test).
    Removed,
}

/// Comparison of a run against a baseline run.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// Baseline run id (display form).
    pub baseline: String,
    /// Current run id (display form).
    pub current: String,
    /// Per-test transitions.
    pub transitions: BTreeMap<TestId, Transition>,
}

impl RegressionReport {
    /// Builds the report from a baseline and a current run.
    pub fn between(baseline: &ValidationRun, current: &ValidationRun) -> Self {
        let base: BTreeMap<&TestId, &TestStatus> = baseline
            .results
            .iter()
            .map(|r| (&r.test, &r.status))
            .collect();
        let cur: BTreeMap<&TestId, &TestStatus> = current
            .results
            .iter()
            .map(|r| (&r.test, &r.status))
            .collect();

        let mut transitions = BTreeMap::new();
        for (test, status) in &cur {
            let transition = match base.get(*test) {
                None => Transition::Added {
                    now: (*status).clone(),
                },
                Some(before) => match (before.is_pass(), status.is_pass()) {
                    (true, true) => Transition::StillPassing,
                    (true, false) => Transition::NewFailure {
                        now: (*status).clone(),
                    },
                    (false, true) => Transition::Fixed,
                    (false, false) => Transition::StillFailing,
                },
            };
            transitions.insert((*test).clone(), transition);
        }
        for test in base.keys() {
            if !cur.contains_key(*test) {
                transitions.insert((*test).clone(), Transition::Removed);
            }
        }

        RegressionReport {
            baseline: baseline.id.to_string(),
            current: current.id.to_string(),
            transitions,
        }
    }

    /// Tests that newly broke.
    fn new_failures(&self) -> Vec<&TestId> {
        self.transitions
            .iter()
            .filter(|(_, t)| matches!(t, Transition::NewFailure { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// Tests that recovered.
    pub fn fixed(&self) -> Vec<&TestId> {
        self.transitions
            .iter()
            .filter(|(_, t)| matches!(t, Transition::Fixed))
            .map(|(id, _)| id)
            .collect()
    }

    /// Tests failing in both runs.
    fn still_failing(&self) -> Vec<&TestId> {
        self.transitions
            .iter()
            .filter(|(_, t)| matches!(t, Transition::StillFailing))
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether the current run introduces no regressions.
    pub fn is_clean(&self) -> bool {
        self.new_failures().is_empty()
    }

    /// One-paragraph text summary for reports and intervention tickets.
    pub fn summary(&self) -> String {
        format!(
            "{} vs {}: {} new failures, {} fixed, {} still failing, {} unchanged",
            self.current,
            self.baseline,
            self.new_failures().len(),
            self.fixed().len(),
            self.still_failing().len(),
            self.transitions
                .values()
                .filter(|t| matches!(t, Transition::StillPassing))
                .count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{RunId, TestResult};
    use crate::test::{FailureKind, TestCategory};
    use sp_exec::JobId;

    fn run(id: u64, statuses: &[(&str, bool)]) -> ValidationRun {
        ValidationRun {
            id: RunId(id),
            experiment: "h1".into(),
            image_label: "SL6".into(),
            description: String::new(),
            timestamp: id,
            results: statuses
                .iter()
                .map(|(test, ok)| TestResult {
                    test: TestId::new(*test),
                    category: TestCategory::Compilation,
                    group: "g".into(),
                    job: JobId(1),
                    status: if *ok {
                        TestStatus::Passed
                    } else {
                        TestStatus::Failed(FailureKind::CompileError)
                    },
                    outputs: Default::default(),
                    compare: None,
                })
                .collect(),
        }
    }

    #[test]
    fn transitions_classified() {
        let baseline = run(1, &[("a", true), ("b", true), ("c", false), ("gone", true)]);
        let current = run(2, &[("a", true), ("b", false), ("c", false), ("new", true)]);
        let report = RegressionReport::between(&baseline, &current);

        assert_eq!(
            report.transitions[&TestId::new("a")],
            Transition::StillPassing
        );
        assert!(matches!(
            report.transitions[&TestId::new("b")],
            Transition::NewFailure { .. }
        ));
        assert_eq!(
            report.transitions[&TestId::new("c")],
            Transition::StillFailing
        );
        assert!(matches!(
            report.transitions[&TestId::new("new")],
            Transition::Added { .. }
        ));
        assert_eq!(
            report.transitions[&TestId::new("gone")],
            Transition::Removed
        );

        assert_eq!(report.new_failures(), vec![&TestId::new("b")]);
        assert!(!report.is_clean());
    }

    #[test]
    fn fixed_detected() {
        let baseline = run(1, &[("a", false)]);
        let current = run(2, &[("a", true)]);
        let report = RegressionReport::between(&baseline, &current);
        assert_eq!(report.fixed(), vec![&TestId::new("a")]);
        assert!(report.is_clean());
    }

    #[test]
    fn summary_counts() {
        let baseline = run(1, &[("a", true), ("b", true)]);
        let current = run(2, &[("a", true), ("b", false)]);
        let report = RegressionReport::between(&baseline, &current);
        let summary = report.summary();
        assert!(summary.contains("1 new failures"));
        assert!(summary.contains("1 unchanged"));
    }

    #[test]
    fn identical_runs_are_clean() {
        let a = run(1, &[("a", true), ("b", false)]);
        let b = run(2, &[("a", true), ("b", false)]);
        let report = RegressionReport::between(&a, &b);
        assert!(report.is_clean());
        assert_eq!(report.still_failing().len(), 1);
    }
}
