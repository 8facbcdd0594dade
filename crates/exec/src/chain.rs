//! DAG-structured analysis chains.
//!
//! "Whereas some of these tests examine the results of stand alone
//! executables and are run in parallel, many are run sequentially and form
//! discrete parts in one of several full analysis chains: from MC
//! generation and simulation, through multi-level file production and
//! ending with a full physics analysis and subsequent validation of the
//! results." (§3.2)
//!
//! A [`ChainDef`] declares named stages with dependencies; the executor
//! runs stages in dependency order, feeding each stage the outputs of its
//! prerequisites and skipping everything downstream of a failure — the
//! behaviour a real multi-stage production exhibits when an intermediate
//! file is missing.

use std::collections::BTreeMap;

/// One stage of a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDef {
    /// Stage name, unique within the chain (`mcgen`, `sim`, `dst`, …).
    pub name: String,
    /// Names of stages whose outputs this stage consumes.
    pub needs: Vec<String>,
}

impl StageDef {
    /// Creates a stage with dependencies.
    pub fn new(name: impl Into<String>, needs: &[&str]) -> Self {
        StageDef {
            name: name.into(),
            needs: needs.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Errors validating a chain definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Two stages share a name.
    DuplicateStage(String),
    /// A stage needs an undeclared stage.
    UnknownStage {
        /// The declaring stage.
        stage: String,
        /// The missing prerequisite.
        needs: String,
    },
    /// The stage graph is cyclic.
    Cycle,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::DuplicateStage(s) => write!(f, "duplicate stage '{s}'"),
            ChainError::UnknownStage { stage, needs } => {
                write!(f, "stage '{stage}' needs unknown stage '{needs}'")
            }
            ChainError::Cycle => write!(f, "stage graph is cyclic"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A validated chain definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDef {
    /// Chain name (`nc-dis-chain`).
    pub name: String,
    stages: Vec<StageDef>,
    /// Execution order (indices into `stages`), dependency-consistent.
    order: Vec<usize>,
}

impl ChainDef {
    /// Validates and builds a chain.
    pub fn new(name: impl Into<String>, stages: Vec<StageDef>) -> Result<Self, ChainError> {
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, stage) in stages.iter().enumerate() {
            if index.insert(stage.name.as_str(), i).is_some() {
                return Err(ChainError::DuplicateStage(stage.name.clone()));
            }
        }
        for stage in &stages {
            for need in &stage.needs {
                if !index.contains_key(need.as_str()) {
                    return Err(ChainError::UnknownStage {
                        stage: stage.name.clone(),
                        needs: need.clone(),
                    });
                }
            }
        }
        // Kahn's algorithm; stable order by declaration index.
        let n = stages.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, stage) in stages.iter().enumerate() {
            for need in &stage.needs {
                indegree[i] += 1;
                dependents[index[need.as_str()]].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&i) = ready.first() {
            ready.remove(0);
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push(d);
                    ready.sort_unstable();
                }
            }
        }
        if order.len() != n {
            return Err(ChainError::Cycle);
        }
        Ok(ChainDef {
            name: name.into(),
            stages,
            order,
        })
    }

    /// The canonical H1-style full analysis chain of the paper:
    /// MC generation → detector simulation → (multi-level) file production
    /// → physics analysis → validation of the results.
    pub fn full_analysis_chain(name: impl Into<String>) -> Self {
        ChainDef::new(
            name,
            vec![
                StageDef::new("mcgen", &[]),
                StageDef::new("sim", &["mcgen"]),
                StageDef::new("dst", &["sim"]),
                StageDef::new("microdst", &["dst"]),
                StageDef::new("analysis", &["microdst"]),
                StageDef::new("validation", &["analysis"]),
            ],
        )
        .expect("static chain is valid")
    }

    /// Stages in declaration order.
    pub fn stages(&self) -> &[StageDef] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Executes the chain. For each stage in dependency order, `run_stage`
    /// receives the stage and the accumulated outputs of its prerequisites;
    /// it returns either a stage output value or an error string. Stages
    /// downstream of a failure are skipped.
    pub fn execute<T, F>(&self, mut run_stage: F) -> ChainReport<T>
    where
        T: Clone,
        F: FnMut(&StageDef, &BTreeMap<String, T>) -> Result<T, String>,
    {
        let mut outputs: BTreeMap<String, T> = BTreeMap::new();
        let mut statuses: Vec<(String, StageStatus)> = Vec::with_capacity(self.len());
        let mut failed: BTreeMap<String, String> = BTreeMap::new();

        for &idx in &self.order {
            let stage = &self.stages[idx];
            // If any prerequisite did not succeed, skip.
            if let Some(bad) = stage.needs.iter().find(|n| !outputs.contains_key(*n)) {
                let cause = failed
                    .get(bad.as_str())
                    .cloned()
                    .unwrap_or_else(|| "prerequisite skipped".to_string());
                statuses.push((
                    stage.name.clone(),
                    StageStatus::Skipped {
                        missing: bad.clone(),
                        cause,
                    },
                ));
                failed.insert(stage.name.clone(), format!("skipped: needs {bad}"));
                continue;
            }
            let needed: BTreeMap<String, T> = stage
                .needs
                .iter()
                .map(|n| (n.clone(), outputs[n.as_str()].clone()))
                .collect();
            match run_stage(stage, &needed) {
                Ok(value) => {
                    outputs.insert(stage.name.clone(), value);
                    statuses.push((stage.name.clone(), StageStatus::Succeeded));
                }
                Err(message) => {
                    failed.insert(stage.name.clone(), message.clone());
                    statuses.push((stage.name.clone(), StageStatus::Failed(message)));
                }
            }
        }

        // Report stages in declaration order.
        let by_name: BTreeMap<String, StageStatus> = statuses.into_iter().collect();
        let stage_status: Vec<(String, StageStatus)> = self
            .stages
            .iter()
            .map(|s| (s.name.clone(), by_name[s.name.as_str()].clone()))
            .collect();
        ChainReport {
            chain: self.name.clone(),
            stages: stage_status,
            outputs,
        }
    }
}

/// Status of one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageStatus {
    /// Produced its output.
    Succeeded,
    /// Ran and failed with the given message.
    Failed(String),
    /// Not run: prerequisite `missing` unavailable.
    Skipped {
        /// Name of the missing prerequisite.
        missing: String,
        /// Why it was missing.
        cause: String,
    },
}

impl StageStatus {
    /// Whether the stage produced output.
    pub fn succeeded(&self) -> bool {
        matches!(self, StageStatus::Succeeded)
    }
}

/// Result of executing a chain.
#[derive(Debug, Clone)]
pub struct ChainReport<T> {
    /// Chain name.
    pub chain: String,
    /// Per-stage status in declaration order.
    pub stages: Vec<(String, StageStatus)>,
    /// Outputs of the successful stages.
    pub outputs: BTreeMap<String, T>,
}

impl<T> ChainReport<T> {
    /// Whether every stage succeeded.
    pub fn all_succeeded(&self) -> bool {
        self.stages.iter().all(|(_, s)| s.succeeded())
    }

    /// Number of skipped stages.
    pub fn skipped_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|(_, s)| matches!(s, StageStatus::Skipped { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_chain_has_six_stages() {
        let chain = ChainDef::full_analysis_chain("h1-nc");
        assert_eq!(chain.len(), 6);
        let names: Vec<&str> = chain.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["mcgen", "sim", "dst", "microdst", "analysis", "validation"]
        );
    }

    #[test]
    fn validation_rejects_duplicates_unknowns_cycles() {
        assert!(matches!(
            ChainDef::new("c", vec![StageDef::new("a", &[]), StageDef::new("a", &[])]),
            Err(ChainError::DuplicateStage(_))
        ));
        assert!(matches!(
            ChainDef::new("c", vec![StageDef::new("a", &["ghost"])]),
            Err(ChainError::UnknownStage { .. })
        ));
        assert!(matches!(
            ChainDef::new(
                "c",
                vec![StageDef::new("a", &["b"]), StageDef::new("b", &["a"])]
            ),
            Err(ChainError::Cycle)
        ));
    }

    #[test]
    fn execute_threads_outputs_through() {
        let chain = ChainDef::full_analysis_chain("h1-nc");
        let report = chain.execute(|stage, inputs| {
            let upstream: usize = inputs.values().sum();
            Ok(upstream + stage.name.len())
        });
        assert!(report.all_succeeded());
        // mcgen=5, sim=5+3=8, dst=8+3=11, microdst=11+8=19,
        // analysis=19+8=27, validation=27+10=37.
        assert_eq!(report.outputs["validation"], 37);
    }

    #[test]
    fn failure_skips_downstream_only() {
        let chain = ChainDef::new(
            "mixed",
            vec![
                StageDef::new("gen", &[]),
                StageDef::new("sim", &["gen"]),
                StageDef::new("ana", &["sim"]),
                StageDef::new("independent", &[]),
            ],
        )
        .unwrap();
        let report = chain.execute(|stage, _| {
            if stage.name == "sim" {
                Err("segfault in geometry init".to_string())
            } else {
                Ok(1)
            }
        });
        assert!(!report.all_succeeded());
        assert_eq!(report.skipped_count(), 1);
        let by_name: BTreeMap<&str, &StageStatus> =
            report.stages.iter().map(|(n, s)| (n.as_str(), s)).collect();
        assert!(by_name["gen"].succeeded());
        assert!(matches!(by_name["sim"], StageStatus::Failed(_)));
        assert!(matches!(by_name["ana"], StageStatus::Skipped { .. }));
        assert!(by_name["independent"].succeeded());
    }

    #[test]
    fn skip_cascades_transitively() {
        let chain = ChainDef::full_analysis_chain("h1-nc");
        let report = chain.execute(|stage, _| {
            if stage.name == "mcgen" {
                Err("generator license expired".to_string())
            } else {
                Ok(0)
            }
        });
        assert_eq!(report.skipped_count(), 5, "everything downstream skips");
    }

    #[test]
    fn diamond_dependencies() {
        let chain = ChainDef::new(
            "diamond",
            vec![
                StageDef::new("src", &[]),
                StageDef::new("left", &["src"]),
                StageDef::new("right", &["src"]),
                StageDef::new("merge", &["left", "right"]),
            ],
        )
        .unwrap();
        let report = chain.execute(|stage, inputs| {
            Ok(match stage.name.as_str() {
                "src" => 1,
                "merge" => inputs["left"] + inputs["right"],
                _ => inputs["src"] * 10,
            })
        });
        assert_eq!(report.outputs["merge"], 20);
    }

    #[test]
    fn empty_chain() {
        let chain = ChainDef::new("empty", vec![]).unwrap();
        let report = chain.execute(|_, _| Ok(0));
        assert!(report.all_succeeded());
        assert!(report.is_empty_report());
    }

    impl<T> ChainReport<T> {
        fn is_empty_report(&self) -> bool {
            self.stages.is_empty() && self.outputs.is_empty()
        }
    }
}
