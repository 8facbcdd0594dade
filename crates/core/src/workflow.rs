//! The four-phase sp-system life cycle (§3.1 i–iv).
//!
//! 1. **Preparation**: consolidate the software, migrate the OS, remove
//!    unnecessary externals, define the tests.
//! 2. **Operation**: regular automated builds and validation; new OS and
//!    software versions integrated under expert supervision.
//! 3. **Analysis**: a failed validation is examined against the last
//!    successful test; intervention is routed to the host IT or the
//!    experiment.
//! 4. **Freeze**: "the last working virtual image is conserved and
//!    constitutes the last version of the experimental software and
//!    environment" — with the paper's warning that a frozen system "is
//!    unlikely to persist in a useful manner much beyond this point".

use sp_env::EnvironmentSpec;
use sp_store::{FrozenImage, FrozenVault, ObjectId, StoreError};

use crate::classify::Diagnosis;
use crate::run::ValidationRun;

/// The phase of an experiment's preservation programme.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// §3.1 (i): consolidation and test definition.
    Preparation,
    /// §3.1 (ii): regular builds and validation.
    Operation,
    /// §3.1 (iii): failure analysis and intervention.
    Analysis {
        /// The diagnosis awaiting intervention.
        diagnosis: Diagnosis,
    },
    /// §3.1 (iv): conserved; the programme has ended.
    Frozen {
        /// Vault label of the conserved image.
        label: String,
    },
}

impl Phase {
    /// Phase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Preparation => "preparation",
            Phase::Operation => "operation",
            Phase::Analysis { .. } => "analysis",
            Phase::Frozen { .. } => "frozen",
        }
    }
}

/// Errors from illegal phase transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The requested transition is not legal from the current phase.
    WrongPhase {
        /// Current phase name.
        current: &'static str,
        /// Attempted action.
        action: &'static str,
    },
    /// Preparation cannot complete while consolidation problems remain.
    NotConsolidated(Vec<String>),
    /// Freezing requires at least one successful validation run.
    NothingValidated,
    /// The vault rejected the freeze.
    Vault(StoreError),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::WrongPhase { current, action } => {
                write!(f, "cannot {action} while in phase '{current}'")
            }
            WorkflowError::NotConsolidated(problems) => {
                write!(f, "stack not consolidated: {}", problems.join("; "))
            }
            WorkflowError::NothingValidated => {
                write!(f, "no successful validation run to conserve")
            }
            WorkflowError::Vault(e) => write!(f, "vault error: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// An intervention ticket opened during the analysis phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Intervention {
    /// The diagnosis that opened it.
    pub diagnosis: Diagnosis,
    /// Unix timestamp opened.
    pub opened_at: u64,
    /// Unix timestamp resolved (None while open).
    pub resolved_at: Option<u64>,
}

/// Drives one experiment's preservation programme through the four phases.
pub struct MigrationManager {
    experiment: String,
    phase: Phase,
    interventions: Vec<Intervention>,
    /// (timestamp, phase-name) history for the bookkeeping pages.
    history: Vec<(u64, &'static str)>,
    /// The last validated environment + run, eligible for conservation.
    last_good: Option<(EnvironmentSpec, ValidationRun)>,
}

impl MigrationManager {
    /// Starts a programme in the preparation phase.
    pub fn new(experiment: impl Into<String>, now: u64) -> Self {
        MigrationManager {
            experiment: experiment.into(),
            phase: Phase::Preparation,
            interventions: Vec::new(),
            history: vec![(now, "preparation")],
            last_good: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// The experiment this programme belongs to.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// All interventions, open and resolved.
    pub fn interventions(&self) -> &[Intervention] {
        &self.interventions
    }

    /// Open interventions.
    pub fn open_interventions(&self) -> impl Iterator<Item = &Intervention> {
        self.interventions
            .iter()
            .filter(|i| i.resolved_at.is_none())
    }

    /// Phase history as (timestamp, phase-name) pairs.
    pub fn history(&self) -> &[(u64, &'static str)] {
        &self.history
    }

    /// Completes preparation. `problems` are the outstanding consolidation
    /// findings (from `sp_build::prune::consolidate`); preparation only
    /// completes once they are empty.
    pub fn complete_preparation(
        &mut self,
        problems: Vec<String>,
        now: u64,
    ) -> Result<(), WorkflowError> {
        if self.phase != Phase::Preparation {
            return Err(WorkflowError::WrongPhase {
                current: self.phase.name(),
                action: "complete preparation",
            });
        }
        if !problems.is_empty() {
            return Err(WorkflowError::NotConsolidated(problems));
        }
        self.enter(Phase::Operation, now);
        Ok(())
    }

    /// Feeds a completed validation run (with its environment and optional
    /// diagnosis) into the state machine.
    ///
    /// * In **operation**, a successful run is recorded as the latest good
    ///   state; a failed run moves to **analysis** with its diagnosis.
    /// * In **analysis**, a successful run resolves the open interventions
    ///   and returns to **operation**; further failures update the open
    ///   diagnosis.
    pub fn on_run(
        &mut self,
        env: &EnvironmentSpec,
        run: &ValidationRun,
        diagnosis: Option<Diagnosis>,
        now: u64,
    ) -> Result<(), WorkflowError> {
        match (&self.phase, run.is_successful()) {
            (Phase::Operation, true) => {
                self.last_good = Some((env.clone(), run.clone()));
                Ok(())
            }
            (Phase::Operation, false) => {
                let diagnosis = diagnosis.unwrap_or_else(|| Diagnosis {
                    category: crate::inputs::InputCategory::ExperimentSoftware,
                    culprit: "unclassified".into(),
                    assignee: crate::inputs::Assignee::Experiment,
                    confidence: 0.0,
                    evidence: vec!["no attribution possible".into()],
                });
                self.interventions.push(Intervention {
                    diagnosis: diagnosis.clone(),
                    opened_at: now,
                    resolved_at: None,
                });
                self.enter(Phase::Analysis { diagnosis }, now);
                Ok(())
            }
            (Phase::Analysis { .. }, true) => {
                for intervention in &mut self.interventions {
                    if intervention.resolved_at.is_none() {
                        intervention.resolved_at = Some(now);
                    }
                }
                self.last_good = Some((env.clone(), run.clone()));
                self.enter(Phase::Operation, now);
                Ok(())
            }
            (Phase::Analysis { .. }, false) => {
                if let Some(diagnosis) = diagnosis {
                    self.enter(Phase::Analysis { diagnosis }, now);
                }
                Ok(())
            }
            (phase, _) => Err(WorkflowError::WrongPhase {
                current: phase.name(),
                action: "process a validation run",
            }),
        }
    }

    /// §3.1 (iv): conserves the last working image into the vault and ends
    /// the programme. Returns the vault label.
    pub fn freeze(
        &mut self,
        vault: &FrozenVault,
        reason: &str,
        artifacts: Vec<ObjectId>,
        now: u64,
    ) -> Result<String, WorkflowError> {
        if !matches!(self.phase, Phase::Operation | Phase::Analysis { .. }) {
            return Err(WorkflowError::WrongPhase {
                current: self.phase.name(),
                action: "freeze",
            });
        }
        let Some((env, run)) = &self.last_good else {
            return Err(WorkflowError::NothingValidated);
        };
        let label = format!(
            "{}-{}-final",
            self.experiment,
            env.label().replace([' ', '/'], "-")
        );
        let recipe_id = ObjectId::for_bytes(env.recipe().as_bytes());
        vault
            .freeze(FrozenImage {
                label: label.clone(),
                recipe: recipe_id,
                artifacts,
                frozen_at: now,
                description: format!(
                    "{reason}; last validated run {} ({} tests passed)",
                    run.id,
                    run.passed()
                ),
            })
            .map_err(WorkflowError::Vault)?;
        self.enter(
            Phase::Frozen {
                label: label.clone(),
            },
            now,
        );
        Ok(label)
    }

    fn enter(&mut self, phase: Phase, now: u64) {
        self.history.push((now, phase.name()));
        self.phase = phase;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Assignee, InputCategory};
    use crate::run::{RunId, TestResult, TestStatus};
    use crate::test::{FailureKind, TestCategory, TestId};
    use sp_env::{catalog, Version};
    use sp_exec::JobId;

    fn run(ok: bool) -> ValidationRun {
        ValidationRun {
            id: RunId(1),
            experiment: "h1".into(),
            image_label: "SL6/64bit gcc4.4".into(),
            description: String::new(),
            timestamp: 0,
            results: vec![TestResult {
                test: TestId::new("t"),
                category: TestCategory::Compilation,
                group: "g".into(),
                job: JobId(1),
                status: if ok {
                    TestStatus::Passed
                } else {
                    TestStatus::Failed(FailureKind::CompileError)
                },
                outputs: Default::default(),
                compare: None,
            }],
        }
    }

    fn diagnosis() -> Diagnosis {
        Diagnosis {
            category: InputCategory::OperatingSystem,
            culprit: "gcc4.8 toolchain".into(),
            assignee: Assignee::HostIt,
            confidence: 1.0,
            evidence: vec![],
        }
    }

    #[test]
    fn full_lifecycle() {
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let vault = FrozenVault::new();
        let mut mgr = MigrationManager::new("h1", 100);
        assert_eq!(mgr.phase().name(), "preparation");

        // Cannot leave preparation with open problems.
        assert!(matches!(
            mgr.complete_preparation(vec!["unused external: mysql".into()], 110),
            Err(WorkflowError::NotConsolidated(_))
        ));
        mgr.complete_preparation(vec![], 120).unwrap();
        assert_eq!(mgr.phase().name(), "operation");

        // Successful run in operation stays in operation.
        mgr.on_run(&env, &run(true), None, 130).unwrap();
        assert_eq!(mgr.phase().name(), "operation");

        // Failed run -> analysis with an intervention.
        mgr.on_run(&env, &run(false), Some(diagnosis()), 140)
            .unwrap();
        assert_eq!(mgr.phase().name(), "analysis");
        assert_eq!(mgr.open_interventions().count(), 1);

        // Recovery resolves the intervention.
        mgr.on_run(&env, &run(true), None, 150).unwrap();
        assert_eq!(mgr.phase().name(), "operation");
        assert_eq!(mgr.open_interventions().count(), 0);
        assert_eq!(mgr.interventions().len(), 1);

        // Freeze conserves into the vault.
        let label = mgr
            .freeze(&vault, "person-power ended", vec![], 200)
            .unwrap();
        assert_eq!(label, "h1-SL6-64bit-gcc4.4-final");
        assert_eq!(mgr.phase().name(), "frozen");
        let frozen = vault.get(&label).unwrap();
        assert!(frozen.description.contains("person-power ended"));

        // Nothing works after freezing.
        assert!(mgr.on_run(&env, &run(true), None, 210).is_err());
        assert!(mgr.freeze(&vault, "again", vec![], 220).is_err());
    }

    #[test]
    fn freeze_requires_a_good_run() {
        let vault = FrozenVault::new();
        let mut mgr = MigrationManager::new("zeus", 0);
        mgr.complete_preparation(vec![], 1).unwrap();
        assert!(matches!(
            mgr.freeze(&vault, "early freeze", vec![], 2),
            Err(WorkflowError::NothingValidated)
        ));
    }

    #[test]
    fn cannot_run_during_preparation() {
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let mut mgr = MigrationManager::new("hermes", 0);
        assert!(mgr.on_run(&env, &run(true), None, 1).is_err());
    }

    #[test]
    fn history_records_transitions() {
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let mut mgr = MigrationManager::new("h1", 0);
        mgr.complete_preparation(vec![], 1).unwrap();
        mgr.on_run(&env, &run(false), Some(diagnosis()), 2).unwrap();
        mgr.on_run(&env, &run(true), None, 3).unwrap();
        let names: Vec<&str> = mgr.history().iter().map(|(_, n)| *n).collect();
        assert_eq!(
            names,
            vec!["preparation", "operation", "analysis", "operation"]
        );
    }

    #[test]
    fn failure_without_diagnosis_still_opens_intervention() {
        let env = catalog::sl6_gcc44(Version::two(5, 34));
        let mut mgr = MigrationManager::new("h1", 0);
        mgr.complete_preparation(vec![], 1).unwrap();
        mgr.on_run(&env, &run(false), None, 2).unwrap();
        assert_eq!(mgr.open_interventions().count(), 1);
        let intervention = mgr.open_interventions().next().unwrap();
        assert_eq!(intervention.diagnosis.culprit, "unclassified");
    }
}
