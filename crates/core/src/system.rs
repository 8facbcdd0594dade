//! The sp-system itself.
//!
//! [`SpSystem`] ties the substrates together: virtual-machine images
//! ([`sp_env`]), the automated build system ([`sp_build`]), job execution
//! ([`sp_exec`]), the toy physics chain ([`sp_hep`]) and the common storage
//! ([`sp_store`]). One call to [`SpSystem::run_validation`] performs what
//! §3.1 (ii) describes: a regular build of the experimental software
//! according to the current prescription of the working environment,
//! followed by the validation tests, with every output kept in the common
//! storage and compared against the last successful run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sp_build::{BuildEngine, BuildReport, BuildStatus, GraphError, PackageId, ParallelBuilder};
use sp_env::{
    check_runtime, CodeTrait, EnvironmentSpec, ImageError, RuntimeOutcome, VmImage, VmImageId,
};
use sp_exec::{
    Client, ClientError, ClientKind, CronSchedule, JobId, JobIdGenerator, StageStatus,
    VirtualClock, WorkStealingPool,
};
use sp_hep::{
    hist_io, reconstruct, Analysis, DetectorSim, Event, EventGenerator, GeneratorConfig,
    MicroEvent, SelectionCuts, SmearingConstants,
};
use sp_store::snapshot::{decode_run_key, encode_run_key};
use sp_store::{
    fnv64, DigestCacheStats, FrozenVault, ObjectId, RetentionPolicy, RunKey, RunMemo,
    SharedStorage, Snapshot, SnapshotError, SnapshotSection, StorageArea,
};

use crate::warm;

use crate::compare::{Comparator, CompareOutcome, TestOutput};
use crate::experiment::ExperimentDef;
use crate::ledger::RunLedger;
use crate::run::{RunId, TestResult, TestStatus, ValidationRun};
use crate::test::{FailureKind, TestCategory, TestKind, ValidationTest};

/// Errors from system-level operations.
#[derive(Debug)]
pub enum SystemError {
    /// No experiment registered under this name.
    UnknownExperiment(String),
    /// No image with this id.
    UnknownImage(VmImageId),
    /// The image spec failed coherence validation.
    Image(Vec<ImageError>),
    /// A client failed the joining requirements.
    Client(ClientError),
    /// The experiment's dependency graph is invalid.
    Graph(GraphError),
    /// A submitted campaign names an experiment another submitted campaign
    /// already covers. Concurrent campaigns must be experiment-disjoint —
    /// references, memo cells and ledger lanes are all per-experiment, and
    /// disjointness is what makes each campaign's summary byte-identical
    /// to running it alone.
    CampaignConflict(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::UnknownExperiment(name) => write!(f, "unknown experiment '{name}'"),
            SystemError::UnknownImage(id) => write!(f, "unknown image {id}"),
            SystemError::Image(errors) => {
                write!(f, "invalid image spec: ")?;
                for e in errors {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            SystemError::Client(e) => write!(f, "client rejected: {e}"),
            SystemError::Graph(e) => write!(f, "invalid package graph: {e}"),
            SystemError::CampaignConflict(experiment) => write!(
                f,
                "experiment '{experiment}' is already covered by a submitted campaign"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// Per-run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Campaign base seed. Test seeds derive from this and the test id, so
    /// they are stable across runs of the same campaign — which is what
    /// makes run-to-run output comparison meaningful.
    pub seed: u64,
    /// Workload scale factor (1.0 = nominal event counts).
    pub scale: f64,
    /// Worker threads for builds and parallel tests.
    pub threads: usize,
    /// Run description ("indicating which software versions were used").
    pub description: String,
    /// Serve unchanged cells from the system's run memo: a test whose
    /// determinants — id, campaign seed, environment revision (full image
    /// label including externals) and scale — match an earlier execution
    /// replays that execution's conserved outputs instead of re-running
    /// the MC chain. Comparisons against the reference are always
    /// recomputed (references evolve between runs), so memoized results
    /// are byte-identical to uncached ones.
    pub memoize: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 20131029, // the paper's arXiv date
            scale: 1.0,
            threads: 4,
            description: String::new(),
            memoize: false,
        }
    }
}

/// The sp-system: storage, images, clients, experiments, bookkeeping.
///
/// Every piece of mutable state lives behind interior mutability (atomics
/// for the id counters, `parking_lot` locks for the registries), so a
/// shared `&SpSystem` is all a worker thread needs: the campaign engine
/// dispatches [`run_validation`](Self::run_validation) calls from many
/// workers concurrently, and registration remains possible between
/// campaigns without exclusive ownership.
pub struct SpSystem {
    storage: SharedStorage,
    vault: FrozenVault,
    clock: VirtualClock,
    job_ids: JobIdGenerator,
    run_ids: AtomicU64,
    images: RwLock<Vec<Arc<VmImage>>>,
    clients: RwLock<Vec<Client>>,
    experiments: RwLock<BTreeMap<String, Arc<RegisteredExperiment>>>,
    ledger: RunLedger,
    /// Memoised chain-test productions, keyed by (test, seed, env, scale).
    chain_memo: RunMemo<MemoizedChain>,
    /// Memoised unit-check / standalone outputs (content address of the
    /// encoded [`TestOutput`]), same key space.
    output_memo: RunMemo<ObjectId>,
    /// Memoised §3.1 (ii) build reports: the regular build is a pure
    /// function of (experiment stack, environment), so repeated cells
    /// reuse the report instead of re-simulating the whole stack build.
    build_memo: RunMemo<Arc<BuildReport>>,
}

impl Default for SpSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl SpSystem {
    /// Creates an empty system with a fresh clock.
    pub fn new() -> Self {
        Self::with_clock(VirtualClock::starting_at(sp_exec::clock::ERA_2013))
    }

    /// Creates a system on an existing (possibly shared) clock.
    pub fn with_clock(clock: VirtualClock) -> Self {
        SpSystem {
            storage: SharedStorage::new(),
            vault: FrozenVault::new(),
            clock,
            job_ids: JobIdGenerator::new(),
            run_ids: AtomicU64::new(1),
            images: RwLock::new(Vec::new()),
            clients: RwLock::new(Vec::new()),
            experiments: RwLock::new(BTreeMap::new()),
            ledger: RunLedger::new(),
            chain_memo: RunMemo::new(),
            output_memo: RunMemo::new(),
            build_memo: RunMemo::new(),
        }
    }

    /// Effectiveness counters of the chain-run memo (each hit is one full
    /// MC chain whose re-execution was skipped).
    pub fn chain_memo_stats(&self) -> DigestCacheStats {
        self.chain_memo.stats()
    }

    /// Effectiveness counters of the unit-check / standalone output memo.
    pub fn output_memo_stats(&self) -> DigestCacheStats {
        self.output_memo.stats()
    }

    /// Effectiveness counters of the build-report memo.
    pub fn build_memo_stats(&self) -> DigestCacheStats {
        self.build_memo.stats()
    }

    /// The common storage.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The frozen-image vault.
    pub fn vault(&self) -> &FrozenVault {
        &self.vault
    }

    /// The system clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The run ledger.
    pub fn ledger(&self) -> &RunLedger {
        &self.ledger
    }

    /// Registered images (snapshot in registration order).
    pub fn images(&self) -> Vec<Arc<VmImage>> {
        self.images.read().clone()
    }

    /// Registered clients (snapshot in registration order).
    pub fn clients(&self) -> Vec<Client> {
        self.clients.read().clone()
    }

    /// Registered experiments (snapshot in name order).
    pub fn experiments(&self) -> impl Iterator<Item = Arc<ExperimentDef>> {
        self.experiments
            .read()
            .values()
            .map(|registered| Arc::clone(&registered.def))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Looks up an experiment by name.
    pub fn experiment(&self, name: &str) -> Option<Arc<ExperimentDef>> {
        self.registered(name)
            .map(|registered| Arc::clone(&registered.def))
    }

    fn registered(&self, name: &str) -> Option<Arc<RegisteredExperiment>> {
        self.experiments.read().get(name).cloned()
    }

    /// Builds and registers a VM image from a spec, conserving its recipe
    /// in the common storage. Returns the image id.
    pub fn register_image(&self, spec: EnvironmentSpec) -> Result<VmImageId, SystemError> {
        let mut images = self.images.write();
        let id = VmImageId(images.len() as u32 + 1);
        let image = VmImage::build(id, spec, self.clock.now()).map_err(SystemError::Image)?;
        self.storage.put_named(
            StorageArea::Images,
            &id.to_string(),
            image.spec.recipe().into_bytes(),
        );
        images.push(Arc::new(image));
        Ok(id)
    }

    /// Looks up an image.
    pub fn image(&self, id: VmImageId) -> Option<Arc<VmImage>> {
        self.images.read().iter().find(|i| i.id == id).cloned()
    }

    /// Registers a client machine, enforcing the §3.1 requirements (common
    /// storage access + cron capability).
    pub fn register_client(
        &self,
        name: &str,
        kind: ClientKind,
        schedule: CronSchedule,
        has_storage_access: bool,
        can_run_cron: bool,
    ) -> Result<(), SystemError> {
        let client = Client::register(name, kind, schedule, has_storage_access, can_run_cron)
            .map_err(SystemError::Client)?;
        self.clients.write().push(client);
        Ok(())
    }

    /// Registers an experiment: validates its graph, resolves every
    /// package's effective runtime traits, and conserves the test
    /// definitions (thin script layers) in the common storage.
    /// Re-registering a name replaces the definition together with its
    /// trait table and invalidates every memoised cell of that experiment —
    /// the memo keys capture environment and workload but not the
    /// definition itself, so stale entries must not survive it.
    pub fn register_experiment(&self, def: ExperimentDef) -> Result<(), SystemError> {
        def.graph.validate().map_err(SystemError::Graph)?;
        if self.experiments.read().contains_key(&def.name) {
            let cell_prefix = format!("{}::", def.name);
            let build_key = format!("build/{}", def.name);
            self.chain_memo
                .invalidate_matching(|k| k.test.starts_with(&cell_prefix));
            self.output_memo
                .invalidate_matching(|k| k.test.starts_with(&cell_prefix));
            self.build_memo.invalidate_matching(|k| k.test == build_key);
        }
        for test in def.suite.tests() {
            let env = self.storage.shell_env(
                &format!("{}/input", test.id),
                &format!("{}/output", test.id),
                "externals",
            );
            let script = format!(
                "#!/bin/sh\n# sp-system test {} ({})\n{}exec run-test\n",
                test.id,
                test.category().label(),
                env.render()
            );
            self.storage
                .put_named(StorageArea::Tests, test.id.as_str(), script.into_bytes());
        }
        self.experiments
            .write()
            .insert(def.name.clone(), Arc::new(RegisteredExperiment::new(def)));
        Ok(())
    }

    /// Reserves `count` consecutive run ids, returning the first. The
    /// campaign engine pre-assigns ids to planned tasks so that parallel
    /// execution hands out exactly the ids sequential execution would.
    pub fn reserve_run_ids(&self, count: u64) -> RunId {
        RunId(self.run_ids.fetch_add(count, Ordering::SeqCst))
    }

    /// Moves the run-id cursor forward so the next reservation starts at
    /// `next` or later (never backwards). The fleet worker calls this
    /// when executing a plan whose id range was pre-carved on the
    /// coordinator, so local reservations cannot collide with handed-off
    /// ranges.
    pub fn advance_run_ids_past(&self, next: u64) {
        self.run_ids.fetch_max(next, Ordering::SeqCst);
    }

    /// Runs the full validation of one experiment on one image: the §3.1
    /// (ii) regular build plus all validation tests, with bookkeeping.
    pub fn run_validation(
        &self,
        experiment_name: &str,
        image_id: VmImageId,
        config: &RunConfig,
    ) -> Result<ValidationRun, SystemError> {
        let run_id = self.reserve_run_ids(1);
        let run = self.execute_run_with_id(experiment_name, image_id, config, run_id)?;
        self.ledger.record(run.clone());
        Ok(run)
    }

    /// The execution core of [`run_validation`](Self::run_validation) with
    /// a caller-assigned run id and **no ledger commit**: the run summary
    /// is conserved in the common storage, but recording (and reference
    /// promotion) is left to the caller. The campaign engine uses this to
    /// batch a whole repetition's runs into one
    /// [`RunLedger::commit_batch`] while controlling reference-promotion
    /// order explicitly. The run is stamped with the current clock time.
    pub fn execute_run_with_id(
        &self,
        experiment_name: &str,
        image_id: VmImageId,
        config: &RunConfig,
        run_id: RunId,
    ) -> Result<ValidationRun, SystemError> {
        self.execute_run_at(experiment_name, image_id, config, run_id, self.clock.now())
    }

    /// [`execute_run_with_id`](Self::execute_run_with_id) with an explicit
    /// timestamp. The campaign scheduler runs N campaigns concurrently,
    /// each on its own virtual timeline (`origin + repetition × interval`);
    /// stamping runs from that timeline instead of the live shared clock is
    /// what keeps every campaign's summary byte-identical to executing it
    /// alone.
    pub fn execute_run_at(
        &self,
        experiment_name: &str,
        image_id: VmImageId,
        config: &RunConfig,
        run_id: RunId,
        timestamp: u64,
    ) -> Result<ValidationRun, SystemError> {
        let registered = self
            .registered(experiment_name)
            .ok_or_else(|| SystemError::UnknownExperiment(experiment_name.to_string()))?;
        let experiment = &*registered.def;
        let image = self
            .image(image_id)
            .ok_or(SystemError::UnknownImage(image_id))?;
        let env = &image.spec;

        // §3.1 (ii): the regular, automated build — a pure function of
        // (experiment stack, environment), so memoized cells reuse the
        // report as long as every conserved artifact is still present.
        let build = self.build_stack(experiment, env, config)?;
        let env_label = env.full_label();
        let ctx = RunContext {
            experiment: &registered,
            env,
            env_label: &env_label,
            build: &build,
            config,
            run_id,
        };

        // Execute the suite: compile results come from the build report;
        // unit checks and standalone executables run in parallel on the
        // pool; chains run sequentially. Job ids are allocated in suite
        // order, and each package's runtime behaviour is checked once.
        let mut results: Vec<TestResult> = Vec::new();
        let mut parallel_tests: Vec<(JobId, &ValidationTest, &PackageId)> = Vec::new();
        let mut runtime: HashMap<&PackageId, RuntimeOutcome> = HashMap::new();
        for test in experiment.suite.tests() {
            match &test.kind {
                TestKind::Compile { package } => {
                    results.push(self.compile_result(test, package, &build, run_id));
                }
                TestKind::UnitCheck { package, .. } | TestKind::Standalone { package, .. } => {
                    runtime
                        .entry(package)
                        .or_insert_with(|| check_runtime(registered.runtime_traits(package), env));
                    parallel_tests.push((self.job_ids.allocate(), test, package));
                }
                TestKind::Chain { .. } => {
                    // Chains execute after the parallel batch (sequential
                    // by §3.2); handled below.
                }
            }
        }

        // The names of memo-served outputs under this run, registered with
        // one metadata write once the suite is done.
        let mut served: Vec<(String, ObjectId)> = Vec::new();
        let tasks: Vec<_> = parallel_tests
            .into_iter()
            .map(|(job, test, package)| (job, test, &runtime[package]))
            .collect();
        let parallel = WorkStealingPool::new(config.threads)
            .run(tasks, |_, (job, test, outcome)| {
                self.run_parallel_test(&ctx, test, job, outcome)
            });
        for (result, name) in parallel {
            results.push(result);
            served.extend(name);
        }

        // Sequential chains.
        for test in experiment.suite.tests() {
            if let TestKind::Chain {
                chain,
                stage_packages,
                events,
            } = &test.kind
            {
                results.extend(self.run_chain_test(
                    &ctx,
                    test,
                    chain,
                    stage_packages,
                    *events,
                    &mut served,
                ));
            }
        }
        self.storage
            .register_named_many(StorageArea::Results, served);

        results.sort_by(|a, b| a.test.cmp(&b.test));
        let run = ValidationRun {
            id: run_id,
            experiment: experiment_name.to_string(),
            image_label: env.label(),
            description: if config.description.is_empty() {
                format!("{} @ {}", experiment_name, ctx.env_label)
            } else {
                config.description.clone()
            },
            timestamp,
            results,
        };

        // Bookkeeping: run summary into the common storage. The ledger
        // commit (which promotes successful runs to reference status) is
        // the caller's responsibility.
        let summary = format!(
            "run {} experiment {} image {} time {}\npassed {} failed {} skipped {}\ndigest {}\n",
            run.id,
            run.experiment,
            run.image_label,
            run.timestamp,
            run.passed(),
            run.failed(),
            run.skipped(),
            run.digest().to_hex(),
        );
        self.storage.put_named(
            StorageArea::Results,
            &format!("{run_id}/SUMMARY"),
            summary.into_bytes(),
        );
        Ok(run)
    }

    /// Runs (or, for memoized configs, replays) the §3.1 (ii) stack build.
    fn build_stack(
        &self,
        experiment: &ExperimentDef,
        env: &EnvironmentSpec,
        config: &RunConfig,
    ) -> Result<Arc<BuildReport>, SystemError> {
        let memo_key = config.memoize.then(|| {
            // The report does not depend on seed or scale; key the cell by
            // stack identity and environment revision only.
            RunKey::new(
                format!("build/{}", experiment.name),
                0,
                env.full_label(),
                1.0,
            )
        });
        if let Some(key) = &memo_key {
            // A pruned conserved tar-ball fails validation: rebuild (which
            // re-conserves it) and refresh the entry.
            let served = self.build_memo.serve(key, |report| {
                self.build_artifacts_present(&report).then_some(report)
            });
            if let Some(report) = served {
                return Ok(report);
            }
        }
        let builder = ParallelBuilder::new(BuildEngine::new(self.storage.clone()), config.threads);
        let report = Arc::new(
            builder
                .build_stack(&experiment.graph, env)
                .map_err(SystemError::Graph)?,
        );
        if let Some(key) = memo_key {
            self.build_memo.insert(key, Arc::clone(&report));
        }
        Ok(report)
    }

    /// Whether every artifact a memoised build report points at is still
    /// conserved in the content store.
    fn build_artifacts_present(&self, report: &BuildReport) -> bool {
        report
            .records
            .values()
            .filter_map(|record| record.artifact)
            .all(|oid| self.storage.content().contains(oid))
    }

    /// Builds the result of a compilation test from the build report.
    fn compile_result(
        &self,
        test: &ValidationTest,
        package: &sp_build::PackageId,
        build: &BuildReport,
        run_id: RunId,
    ) -> TestResult {
        let record = build.records.get(package);
        let (status, log) = match record {
            None => (
                TestStatus::Failed(FailureKind::CompileError),
                format!("package '{package}' is not part of the stack\n"),
            ),
            Some(r) => {
                let status = match &r.status {
                    BuildStatus::Built => TestStatus::Passed,
                    BuildStatus::BuiltWithWarnings(n) => TestStatus::PassedWithWarnings(*n),
                    BuildStatus::Failed => TestStatus::Failed(FailureKind::CompileError),
                    BuildStatus::SkippedDepFailed(dep) => {
                        TestStatus::Skipped(format!("dependency '{dep}' failed"))
                    }
                };
                (status, r.log.clone())
            }
        };
        let log_id = self.store_output(run_id, test, "build.log", log.into_bytes());
        let mut outputs = vec![("build.log".to_string(), log_id)];
        if let Some(artifact) = record.and_then(|r| r.artifact) {
            outputs.push(("tarball".to_string(), artifact));
        }
        TestResult {
            test: test.id.clone(),
            category: TestCategory::Compilation,
            group: test.group.clone(),
            job: self.job_ids.allocate(),
            status,
            outputs,
            compare: None,
        }
    }

    /// Runs one unit-check or standalone test (called from the pool) with
    /// its package's runtime outcome. A memo-served test also returns the
    /// name its conserved output must be registered under for this run.
    fn run_parallel_test(
        &self,
        ctx: &RunContext<'_>,
        test: &ValidationTest,
        job: JobId,
        runtime: &RuntimeOutcome,
    ) -> (TestResult, Option<(String, ObjectId)>) {
        let RunContext {
            experiment,
            env_label,
            build,
            config,
            run_id,
            ..
        } = *ctx;
        let experiment = &*experiment.def;
        let package = match &test.kind {
            TestKind::UnitCheck { package, .. } | TestKind::Standalone { package, .. } => package,
            _ => unreachable!("parallel tests are unit checks or standalone"),
        };
        let make = |status: TestStatus,
                    outputs: Vec<(String, ObjectId)>,
                    compare: Option<CompareOutcome>| TestResult {
            test: test.id.clone(),
            category: test.category(),
            group: test.group.clone(),
            job,
            status,
            outputs,
            compare,
        };

        // The executable must exist.
        let built = build
            .records
            .get(package)
            .map(|r| r.status.has_artifact())
            .unwrap_or(false);
        if !built {
            let status = TestStatus::Skipped(format!("artifact for '{package}' missing"));
            return (make(status, Vec::new(), None), None);
        }

        // Runtime behaviour of the package (with its dependencies).
        let deviation = match runtime {
            RuntimeOutcome::Crash { message, .. } => {
                let status = TestStatus::Failed(FailureKind::Crash(message.clone()));
                return (make(status, Vec::new(), None), None);
            }
            RuntimeOutcome::Deviating { shift_sigma, .. } => *shift_sigma,
            RuntimeOutcome::Nominal => 0.0,
        };

        // Digest-first memo: an unchanged (test, seed, env, scale) cell has
        // a bit-identical output, so serve its conserved object and skip
        // production, serialisation and hashing — the comparison against
        // the (possibly evolved) reference is recomputed below either way.
        let memo_key = config
            .memoize
            .then(|| cell_key(&experiment.name, test, config, env_label));
        // A pruned object fails validation and falls through to a run.
        let served = memo_key.as_ref().and_then(|key| {
            self.output_memo.serve(key, |oid| {
                self.storage.content().contains(oid).then_some(oid)
            })
        });
        if let Some(oid) = served {
            let (status, compare) =
                self.compare_stored_output(&experiment.name, test.id.as_str(), "result", oid);
            let name = (format!("{run_id}/{}/result", test.id), oid);
            let result = make(status, vec![("result".to_string(), oid)], compare);
            return (result, Some(name));
        }

        let output = match &test.kind {
            TestKind::UnitCheck {
                package,
                check_index,
            } => unit_check_output(package, *check_index, deviation),
            TestKind::Standalone { events, .. } => {
                let events = scaled_events(*events, config.scale);
                let seed = fnv64(test.id.as_str()) ^ config.seed;
                let analysis =
                    sp_hep::run_chain(&GeneratorConfig::hera_nc(), events, seed, deviation);
                TestOutput::Numbers(vec![
                    ("total".into(), analysis.total as f64),
                    ("selected".into(), analysis.selected as f64),
                    (
                        "mean_log10_q2".into(),
                        analysis
                            .histograms
                            .get("q2")
                            .map(|h| h.mean())
                            .unwrap_or(0.0),
                    ),
                    (
                        "mean_e_prime".into(),
                        analysis
                            .histograms
                            .get("e_prime")
                            .map(|h| h.mean())
                            .unwrap_or(0.0),
                    ),
                ])
            }
            _ => unreachable!(),
        };

        // Serialise and content-address in one pass (no second hash in the
        // store), then remember the cell for future campaigns.
        let mut encoded = Vec::new();
        let digest = output.encode_and_digest(&mut encoded);
        let oid = self.storage.put_named_prehashed(
            StorageArea::Results,
            &format!("{run_id}/{}/result", test.id),
            digest,
            encoded,
        );
        if let Some(key) = memo_key {
            self.output_memo.insert(key, oid);
        }
        let outputs = vec![("result".to_string(), oid)];
        let (status, compare) =
            self.compare_to_reference(&experiment.name, test.id.as_str(), "result", oid, &output);
        (make(status, outputs, compare), None)
    }

    /// Serves a chain test from the memo, re-registering its conserved
    /// outputs under the new run id and recomputing the validation-stage
    /// comparison against the *current* reference (references evolve
    /// between runs, so the verdict is never memoised). The outputs' names
    /// under the new run id are appended to `served`. Returns `None` when
    /// any memoised object has been pruned from the content store — the
    /// entry can no longer be replayed and must be invalidated.
    fn replay_chain_test(
        &self,
        experiment: &ExperimentDef,
        test: &ValidationTest,
        memo: &MemoizedChain,
        run_id: RunId,
        served: &mut Vec<(String, ObjectId)>,
    ) -> Option<Vec<TestResult>> {
        let content = self.storage.content();
        for stage in &memo.stages {
            for (_, oid) in &stage.outputs {
                if !content.contains(*oid) {
                    return None;
                }
            }
        }
        let hist_id = memo
            .stages
            .iter()
            .find(|s| s.stage == "analysis")
            .and_then(|s| s.outputs.iter().find(|(name, _)| name == "histograms"))
            .map(|(_, id)| *id);
        let results = memo
            .stages
            .iter()
            .map(|stage| {
                served.extend(stage.outputs.iter().map(|(name, oid)| {
                    (format!("{run_id}/{}/{}/{name}", test.id, stage.stage), *oid)
                }));
                let (status, compare) = if stage.stage == "validation"
                    && !matches!(stage.status, TestStatus::Skipped(_))
                {
                    self.validation_stage_outcome(experiment, test, hist_id)
                } else {
                    (stage.status.clone(), None)
                };
                TestResult {
                    test: stage.test.clone(),
                    category: stage.category,
                    group: test.group.clone(),
                    job: self.job_ids.allocate(),
                    status,
                    outputs: stage.outputs.clone(),
                    compare,
                }
            })
            .collect();
        Some(results)
    }

    /// Resolves the validation stage of a chain test: digest-first
    /// comparison of the analysis histograms against the current
    /// reference. Shared by live execution and memoised replay so both
    /// produce identical statuses and verdicts.
    fn validation_stage_outcome(
        &self,
        experiment: &ExperimentDef,
        test: &ValidationTest,
        hist_id: Option<ObjectId>,
    ) -> (TestStatus, Option<CompareOutcome>) {
        let Some(hist_id) = hist_id else {
            return (
                TestStatus::Failed(FailureKind::DependencyFailed(
                    "analysis-output-missing".to_string(),
                )),
                None,
            );
        };
        let analysis_test_id = format!("{}/analysis", test.id);
        self.compare_stored_output(&experiment.name, &analysis_test_id, "histograms", hist_id)
    }

    /// Runs a full analysis chain, producing one result per stage. A
    /// memo-served chain appends its outputs' names to `served`.
    fn run_chain_test(
        &self,
        ctx: &RunContext<'_>,
        test: &ValidationTest,
        chain: &sp_exec::ChainDef,
        stage_packages: &BTreeMap<String, PackageId>,
        events: usize,
        served: &mut Vec<(String, ObjectId)>,
    ) -> Vec<TestResult> {
        let RunContext {
            experiment: registered,
            env,
            env_label,
            build,
            config,
            run_id,
        } = *ctx;
        let experiment = &*registered.def;
        // Digest-first memo: an unchanged (test, seed, env, scale) cell
        // produced bit-identical stage outputs, so replay them instead of
        // re-running the whole generation → simulation → analysis chain.
        let memo_key = config
            .memoize
            .then(|| cell_key(&experiment.name, test, config, env_label));
        // A pruned conserved object fails the replay: re-execute.
        let replayed = memo_key.as_ref().and_then(|key| {
            self.chain_memo.serve(key, |memo| {
                self.replay_chain_test(experiment, test, &memo, run_id, served)
            })
        });
        if let Some(results) = replayed {
            return results;
        }

        let events = scaled_events(events, config.scale);
        let seed = fnv64(test.id.as_str()) ^ config.seed;
        // All chains run the NC workload regardless of their physics name:
        // validation power comes from populated control distributions, and
        // the NC selection keeps every histogram filled. (A CC-configured
        // generator would leave the NC-oriented selection empty and make
        // the comparison vacuous.)
        let generator_config = GeneratorConfig::hera_nc();

        // Total numeric deviation across every stage package: a latent bug
        // anywhere in the chain shifts the final distributions.
        let mut total_deviation = 0.0;
        let mut crash: BTreeMap<&str, String> = BTreeMap::new();
        for (stage, package) in stage_packages {
            match check_runtime(registered.runtime_traits(package), env) {
                RuntimeOutcome::Crash { message, .. } => {
                    crash.insert(stage.as_str(), message);
                }
                RuntimeOutcome::Deviating { shift_sigma, .. } => total_deviation += shift_sigma,
                RuntimeOutcome::Nominal => {}
            }
        }

        /// Data flowing between chain stages.
        #[derive(Clone)]
        enum StageData {
            Events(Vec<Event>),
            Reco(Vec<sp_hep::RecoEvent>),
            Done,
        }

        let mut stage_outputs: BTreeMap<String, Vec<(String, ObjectId)>> = BTreeMap::new();
        let mut validation_compare: Option<CompareOutcome> = None;

        let report = chain.execute(|stage, inputs| {
            // Stage prerequisites: the implementing package must be built
            // and must not crash at run time.
            if let Some(package) = stage_packages.get(&stage.name) {
                let built = build
                    .records
                    .get(package)
                    .map(|r| r.status.has_artifact())
                    .unwrap_or(false);
                if !built {
                    return Err(format!("dep:{package}"));
                }
            }
            if let Some(message) = crash.get(stage.name.as_str()) {
                return Err(format!("crash:{message}"));
            }

            let mut outputs: Vec<(String, ObjectId)> = Vec::new();
            let data = match stage.name.as_str() {
                "mcgen" => {
                    let generated: Vec<Event> = EventGenerator::new(generator_config.clone(), seed)
                        .take(events)
                        .collect();
                    let bytes = sp_hep::write_dst(&generated);
                    outputs.push((
                        "gen.dst".to_string(),
                        self.store_stage_output(run_id, test, &stage.name, "gen.dst", bytes),
                    ));
                    StageData::Events(generated)
                }
                "sim" => {
                    let StageData::Events(generated) = &inputs["mcgen"] else {
                        return Err("bad upstream data".to_string());
                    };
                    let sim =
                        DetectorSim::new(SmearingConstants::V2_SL5).with_deviation(total_deviation);
                    let simulated: Vec<Event> = generated
                        .iter()
                        .map(|ev| sim.simulate(ev, seed ^ ev.id))
                        .collect();
                    StageData::Events(simulated)
                }
                "dst" => {
                    let StageData::Events(simulated) = &inputs["sim"] else {
                        return Err("bad upstream data".to_string());
                    };
                    let bytes = sp_hep::write_dst(simulated);
                    outputs.push((
                        "events.dst".to_string(),
                        self.store_stage_output(run_id, test, &stage.name, "events.dst", bytes),
                    ));
                    StageData::Events(simulated.clone())
                }
                "microdst" => {
                    let StageData::Events(simulated) = &inputs["dst"] else {
                        return Err("bad upstream data".to_string());
                    };
                    let reco: Vec<sp_hep::RecoEvent> = simulated
                        .iter()
                        .map(|ev| reconstruct(ev, &generator_config))
                        .collect();
                    let micro: Vec<MicroEvent> = reco
                        .iter()
                        .filter_map(|r| {
                            let k = r.kinematics?;
                            Some(MicroEvent {
                                id: r.id,
                                process: r.process,
                                q2: k.q2,
                                x: k.x,
                                y: k.y,
                                e_prime: r.electron.map(|e| e.e).unwrap_or(0.0),
                            })
                        })
                        .collect();
                    let bytes = sp_hep::write_micro_dst(&micro);
                    outputs.push((
                        "events.microdst".to_string(),
                        self.store_stage_output(
                            run_id,
                            test,
                            &stage.name,
                            "events.microdst",
                            bytes,
                        ),
                    ));
                    StageData::Reco(reco)
                }
                "analysis" => {
                    let StageData::Reco(reco) = &inputs["microdst"] else {
                        return Err("bad upstream data".to_string());
                    };
                    let mut analysis = Analysis::new(SelectionCuts::default());
                    for event in reco {
                        analysis.process(event);
                    }
                    let result = analysis.finish();
                    let mut payload = b"H".to_vec();
                    hist_io::encode_set_with(&result.histograms, &mut |b| {
                        payload.extend_from_slice(b)
                    });
                    let oid = self.storage.put_named(
                        StorageArea::Results,
                        &format!("{run_id}/{}/{}/histograms", test.id, stage.name),
                        payload,
                    );
                    outputs.push(("histograms".to_string(), oid));
                    StageData::Done
                }
                "validation" => {
                    // Compare the analysis histograms to the reference,
                    // digest-first: equal content addresses prove
                    // bit-identity without decoding either histogram set.
                    let analysis_test_id = format!("{}/analysis", test.id);
                    let stored = stage_outputs
                        .get("analysis")
                        .and_then(|outs| outs.iter().find(|(n, _)| n == "histograms"))
                        .map(|(_, id)| *id);
                    let Some(hist_id) = stored else {
                        return Err("dep:analysis-output-missing".to_string());
                    };
                    match self.compare_stored_to_reference(
                        &experiment.name,
                        &analysis_test_id,
                        "histograms",
                        hist_id,
                    ) {
                        Ok(None) => {
                            validation_compare = None; // first run: becomes reference
                            StageData::Done
                        }
                        Ok(Some(outcome)) => {
                            let passed = outcome.passed();
                            let detail = match &outcome {
                                CompareOutcome::Differs { detail } => detail.clone(),
                                _ => String::new(),
                            };
                            validation_compare = Some(outcome);
                            if !passed {
                                return Err(format!("cmp:{detail}"));
                            }
                            StageData::Done
                        }
                        Err(detail) => return Err(format!("cmp:{detail}")),
                    }
                }
                other => return Err(format!("unknown stage '{other}'")),
            };
            stage_outputs.insert(stage.name.clone(), outputs);
            Ok(data)
        });

        // Convert per-stage statuses into test results.
        let results: Vec<TestResult> = report
            .stages
            .iter()
            .map(|(stage_name, status)| {
                let test_id = crate::test::TestId::new(format!("{}/{stage_name}", test.id));
                let category = if stage_name == "validation" {
                    TestCategory::DataValidation
                } else {
                    TestCategory::AnalysisChain
                };
                let status = match status {
                    StageStatus::Succeeded => TestStatus::Passed,
                    StageStatus::Failed(message) => {
                        TestStatus::Failed(parse_stage_error(message, stage_name))
                    }
                    StageStatus::Skipped { missing, .. } => {
                        TestStatus::Skipped(format!("upstream stage '{missing}' unavailable"))
                    }
                };
                let compare = if stage_name == "validation" {
                    validation_compare.clone()
                } else {
                    None
                };
                TestResult {
                    test: test_id,
                    category,
                    group: test.group.clone(),
                    job: self.job_ids.allocate(),
                    status,
                    outputs: stage_outputs.get(stage_name).cloned().unwrap_or_default(),
                    compare,
                }
            })
            .collect();
        if let Some(key) = memo_key {
            self.chain_memo
                .insert(key, MemoizedChain::from_results(&results, &test.id));
        }
        results
    }

    /// Compares a fresh output against the experiment's reference, deciding
    /// the test status. Digest-first: when the fresh output's content
    /// address equals the reference's, the outputs are bit-identical and
    /// neither the reference bytes nor the comparator run is needed.
    fn compare_to_reference(
        &self,
        experiment: &str,
        test_id: &str,
        output_name: &str,
        output_id: ObjectId,
        output: &TestOutput,
    ) -> (TestStatus, Option<CompareOutcome>) {
        let Some(reference_id) = self
            .ledger
            .reference_output_id(experiment, test_id, output_name)
        else {
            return (TestStatus::Passed, None);
        };
        let comparator = Comparator::default_for(output);
        if let Some(outcome) = comparator.compare_by_id(output_id, reference_id) {
            return (TestStatus::Passed, Some(outcome));
        }
        let Some(reference) = self.decode_stored_output(reference_id) else {
            // The reference object is gone or unreadable: treat like the
            // first run (the fresh output becomes the new reference).
            return (TestStatus::Passed, None);
        };
        let outcome = comparator.compare(output, &reference);
        (status_from_outcome(&outcome), Some(outcome))
    }

    /// Digest-first comparison of a *stored* output (identified by content
    /// address) against the reference. `Ok(None)` means no reference exists
    /// yet; `Err` carries a detail message when the stored output cannot be
    /// decoded for a deep comparison.
    fn compare_stored_to_reference(
        &self,
        experiment: &str,
        test_id: &str,
        output_name: &str,
        output_id: ObjectId,
    ) -> Result<Option<CompareOutcome>, String> {
        let Some(reference_id) = self
            .ledger
            .reference_output_id(experiment, test_id, output_name)
        else {
            return Ok(None);
        };
        if output_id == reference_id {
            // Bit-identical by content address: the paper's "compared
            // bit-for-bit against any earlier run" collapses to an id
            // check — nothing is decoded, no histogram χ² runs.
            return Ok(Some(CompareOutcome::Identical));
        }
        let current = self
            .decode_stored_output(output_id)
            .ok_or_else(|| format!("{output_name} output unreadable"))?;
        let Some(reference) = self.decode_stored_output(reference_id) else {
            return Ok(None);
        };
        Ok(Some(
            Comparator::default_for(&current).compare(&current, &reference),
        ))
    }

    /// [`compare_stored_to_reference`](Self::compare_stored_to_reference)
    /// folded into a test status + comparison verdict.
    fn compare_stored_output(
        &self,
        experiment: &str,
        test_id: &str,
        output_name: &str,
        output_id: ObjectId,
    ) -> (TestStatus, Option<CompareOutcome>) {
        match self.compare_stored_to_reference(experiment, test_id, output_name, output_id) {
            Ok(None) => (TestStatus::Passed, None),
            Ok(Some(outcome)) => (status_from_outcome(&outcome), Some(outcome)),
            Err(detail) => (
                TestStatus::Failed(FailureKind::ComparisonFailed(detail)),
                None,
            ),
        }
    }

    /// Fetches and decodes a stored [`TestOutput`] by content address.
    fn decode_stored_output(&self, id: ObjectId) -> Option<TestOutput> {
        let bytes = self.storage.content().get(id).ok()?;
        TestOutput::from_bytes(&bytes)
    }

    fn store_output(
        &self,
        run_id: RunId,
        test: &ValidationTest,
        name: &str,
        bytes: Vec<u8>,
    ) -> ObjectId {
        self.storage.put_named(
            StorageArea::Results,
            &format!("{run_id}/{}/{name}", test.id),
            bytes,
        )
    }

    fn store_stage_output(
        &self,
        run_id: RunId,
        test: &ValidationTest,
        stage: &str,
        name: &str,
        bytes: impl Into<std::sync::Arc<[u8]>>,
    ) -> ObjectId {
        self.storage.put_named(
            StorageArea::Results,
            &format!("{run_id}/{}/{stage}/{name}", test.id),
            bytes,
        )
    }

    /// Prunes the run history under `policy`, deciding ages against the
    /// system's **virtual clock** — the clock the runs were stamped by —
    /// rather than a caller-supplied constant that can silently drift
    /// from simulated time. See [`RunLedger::prune`] for the guarantees
    /// (references always survive; shared objects are never removed).
    pub fn prune_runs(&self, policy: &RetentionPolicy) -> crate::ledger::PruneReport {
        self.ledger
            .prune_at(policy, &self.clock, self.storage.content())
    }

    /// Serialises the warm state — the three run memos, the digest cache
    /// and the system counters (run-id cursor, clock) — into the versioned
    /// `SPWS` snapshot format, to be conserved alongside the exported
    /// storage. A restarted system that imports this replays memoized
    /// cells instead of re-earning its caches over weeks of nightlies.
    pub fn export_warm_state(&self) -> Vec<u8> {
        let mut snapshot = Snapshot::new();

        let mut system = SnapshotSection::new(warm::SECTION_SYSTEM);
        system.push(
            b"run-ids".to_vec(),
            warm::encode_u64_value(self.run_ids.load(Ordering::SeqCst)),
        );
        system.push(b"clock".to_vec(), warm::encode_u64_value(self.clock.now()));
        snapshot.sections.push(system);

        let mut digests = SnapshotSection::new(warm::SECTION_DIGEST_CACHE);
        for (revision, id) in self.storage.digest_cache().export_entries() {
            digests.push(revision.into_bytes(), warm::encode_object_id(id));
        }
        snapshot.sections.push(digests);

        let mut outputs = SnapshotSection::new(warm::SECTION_OUTPUT_MEMO);
        for (key, id) in self.output_memo.export_entries() {
            outputs.push(encode_run_key(&key), warm::encode_object_id(id));
        }
        snapshot.sections.push(outputs);

        let mut chains = SnapshotSection::new(warm::SECTION_CHAIN_MEMO);
        for (key, chain) in self.chain_memo.export_entries() {
            chains.push(encode_run_key(&key), warm::encode_chain(&chain));
        }
        snapshot.sections.push(chains);

        let mut builds = SnapshotSection::new(warm::SECTION_BUILD_MEMO);
        for (key, report) in self.build_memo.export_entries() {
            builds.push(encode_run_key(&key), warm::encode_build_report(&report));
        }
        snapshot.sections.push(builds);

        let mut references = SnapshotSection::new(warm::SECTION_LEDGER_REFS);
        for (experiment, tests) in self.ledger.export_references() {
            references.push(
                experiment.into_bytes(),
                warm::encode_reference_tests(&tests),
            );
        }
        snapshot.sections.push(references);

        snapshot.encode()
    }

    /// Restores warm state exported by
    /// [`export_warm_state`](Self::export_warm_state). The objects the
    /// memo entries point at must already be in the content store (import
    /// the storage first); trust is earned in layers and anything that
    /// fails a layer is dropped, never served:
    ///
    /// 1. the snapshot container validates its versioned header and every
    ///    entry's digest (bit-rot drops the entry);
    /// 2. every key and value must decode structurally;
    /// 3. every content address a memo entry references must resolve in
    ///    the content store.
    ///
    /// The run-id cursor and the clock only ever move forward (a snapshot
    /// can never make a live system reuse ids or travel back in time).
    pub fn import_warm_state(&self, bytes: &[u8]) -> Result<WarmRestoreReport, SnapshotError> {
        let (snapshot, load) = Snapshot::decode(bytes)?;
        let mut report = WarmRestoreReport {
            snapshot: load,
            ..WarmRestoreReport::default()
        };
        let content = self.storage.content();

        if let Some(section) = snapshot.section(warm::SECTION_SYSTEM) {
            for (key, value) in &section.entries {
                let Some(value) = warm::decode_u64_value(value) else {
                    report.entries_rejected += 1;
                    continue;
                };
                match key.as_slice() {
                    b"run-ids" => {
                        self.run_ids.fetch_max(value, Ordering::SeqCst);
                    }
                    b"clock" => {
                        self.clock.advance_to(value);
                        report.clock_restored = true;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_DIGEST_CACHE) {
            for (key, value) in &section.entries {
                let revision = String::from_utf8(key.clone()).ok();
                let id = warm::decode_object_id(value);
                match (revision, id) {
                    (Some(revision), Some(id)) if content.contains(id) => {
                        self.storage.digest_cache().insert(revision, id);
                        report.digest_cache_entries += 1;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_OUTPUT_MEMO) {
            for (key, value) in &section.entries {
                match (decode_run_key(key), warm::decode_object_id(value)) {
                    (Some(key), Some(id)) if content.contains(id) => {
                        self.output_memo.insert(key, id);
                        report.output_memo_entries += 1;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_CHAIN_MEMO) {
            for (key, value) in &section.entries {
                match (decode_run_key(key), warm::decode_chain(value)) {
                    (Some(key), Some(chain))
                        if chain
                            .stages
                            .iter()
                            .flat_map(|s| &s.outputs)
                            .all(|(_, oid)| content.contains(*oid)) =>
                    {
                        self.chain_memo.insert(key, chain);
                        report.chain_memo_entries += 1;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_BUILD_MEMO) {
            for (key, value) in &section.entries {
                match (decode_run_key(key), warm::decode_build_report(value)) {
                    (Some(key), Some(build)) if self.build_artifacts_present(&build) => {
                        self.build_memo.insert(key, build);
                        report.build_memo_entries += 1;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_LEDGER_REFS) {
            for (key, value) in &section.entries {
                let experiment = String::from_utf8(key.clone()).ok();
                let tests = warm::decode_reference_tests(value);
                let (Some(experiment), Some(mut tests)) = (experiment, tests) else {
                    report.entries_rejected += 1;
                    continue;
                };
                // Per-test trust: a reference whose conserved outputs were
                // pruned (or rotted) from the content store cannot be
                // compared against — drop exactly those tests, keep the
                // rest. Absorption never overwrites a reference a live
                // run already promoted.
                let before = tests.len();
                tests.retain(|_, outputs| outputs.iter().all(|(_, oid)| content.contains(*oid)));
                report.entries_rejected += before - tests.len();
                report.ledger_reference_entries +=
                    self.ledger.absorb_references(vec![(experiment, tests)]);
            }
        }

        Ok(report)
    }

    /// Exports the whole preservable state to a directory: the common
    /// storage (objects + area indexes, via
    /// [`SharedStorage::export_to_dir`]) plus the warm state as
    /// `warm_state.spws` next to it.
    pub fn export_to_dir(&self, dir: &std::path::Path) -> std::io::Result<SystemExportSummary> {
        self.export_to_dir_fs(dir, &sp_store::vfs::OsFs)
    }

    /// [`export_to_dir`](Self::export_to_dir) over an injectable
    /// filesystem. The warm-state snapshot is written with the full
    /// stage → `fsync` → rename → directory-sync discipline
    /// ([`sp_store::vfs::write_durable_atomic`]), so a crash mid-export
    /// leaves either the previous snapshot or the new one — never a torn
    /// file that would silently cold-start the next restart.
    pub fn export_to_dir_fs(
        &self,
        dir: &std::path::Path,
        fs: &dyn sp_store::vfs::StoreFs,
    ) -> std::io::Result<SystemExportSummary> {
        let storage = self.storage.export_to_dir_fs(dir, fs)?;
        let warm_state = self.export_warm_state();
        let warm_state_bytes = warm_state.len();
        let target = dir.join(WARM_STATE_FILE);
        let mut stage = target.as_os_str().to_os_string();
        stage.push(".stage");
        sp_store::vfs::write_durable_atomic(
            fs,
            std::path::Path::new(&stage),
            &target,
            &warm_state,
        )?;
        Ok(SystemExportSummary {
            storage,
            warm_state_bytes,
        })
    }

    /// Imports a directory written by [`export_to_dir`](Self::export_to_dir):
    /// content objects first (re-hashed, bit-rot rejected), then the warm
    /// state on top of them. A missing or structurally corrupt
    /// `warm_state.spws` degrades to a cold restart — the storage import
    /// still stands, and the reason is reported, not swallowed.
    pub fn import_from_dir(&self, dir: &std::path::Path) -> std::io::Result<SystemImportSummary> {
        self.import_from_dir_fs(dir, &sp_store::vfs::OsFs)
    }

    /// [`import_from_dir`](Self::import_from_dir) over an injectable
    /// filesystem, so restart/restore paths run under the same fault layer
    /// as the export paths in chaos tests.
    pub fn import_from_dir_fs(
        &self,
        dir: &std::path::Path,
        fs: &dyn sp_store::vfs::StoreFs,
    ) -> std::io::Result<SystemImportSummary> {
        let storage = self.storage.import_from_dir_fs(dir, fs)?;
        let (warm, warm_state_error) = match fs.read(&dir.join(WARM_STATE_FILE)) {
            Ok(bytes) => match self.import_warm_state(&bytes) {
                Ok(report) => (report, None),
                Err(error) => (WarmRestoreReport::default(), Some(error.to_string())),
            },
            Err(_) => (
                WarmRestoreReport::default(),
                Some("warm state file missing".into()),
            ),
        };
        Ok(SystemImportSummary {
            storage,
            warm,
            warm_state_error,
        })
    }

    /// The "fsck" pass over the common storage: re-hashes every conserved
    /// object and unpack-verifies every artifact tar-ball. Returns what
    /// failed — content addresses that no longer re-hash, and artifact
    /// keys whose archives no longer decode — so the host IT department's
    /// nightly integrity job has one call to make.
    pub fn verify_storage(&self) -> StorageVerification {
        StorageVerification {
            corrupt_objects: self.storage.content().verify_all(),
            bad_archives: self.storage.verify_archives(StorageArea::Artifacts, ""),
        }
    }

    /// Exports the "successfully validated recipe of the latest
    /// configuration" (§3.1): the environment recipe of the image the last
    /// successful run executed on, plus the content addresses of every
    /// artifact tar-ball it produced. "If a production system is required,
    /// then this recipe should be deployed on a suitable resource at the
    /// time: an institute cluster, grid, cloud, sky, quantum computer, and
    /// so on."
    pub fn export_production_recipe(&self, experiment_name: &str) -> Option<ProductionRecipe> {
        let run = self.ledger.latest_successful(experiment_name)?;
        let image = self
            .images
            .read()
            .iter()
            .find(|i| i.label() == run.image_label)
            .cloned()?;
        let mut artifacts: Vec<(String, ObjectId)> = Vec::new();
        for result in &run.results {
            for (name, oid) in &result.outputs {
                if name == "tarball" {
                    artifacts.push((result.test.as_str().to_string(), *oid));
                }
            }
        }
        Some(ProductionRecipe {
            experiment: experiment_name.to_string(),
            validated_by: run.id,
            environment: image.spec.recipe(),
            artifacts,
        })
    }
}

/// An experiment as registered: the definition plus what every run of it
/// would otherwise re-derive per test. Stored as one value, so
/// re-registration replaces both at once.
struct RegisteredExperiment {
    def: Arc<ExperimentDef>,
    /// [`ExperimentDef::effective_runtime_traits`] of every package in the
    /// stack.
    runtime_traits: HashMap<PackageId, Vec<CodeTrait>>,
}

impl RegisteredExperiment {
    fn new(def: ExperimentDef) -> Self {
        let runtime_traits = def
            .graph
            .packages()
            .map(|pkg| (pkg.id.clone(), def.effective_runtime_traits(&pkg.id)))
            .collect();
        RegisteredExperiment {
            def: Arc::new(def),
            runtime_traits,
        }
    }

    /// The effective runtime traits of `package` (none for a package
    /// outside the stack, as for the definition).
    fn runtime_traits(&self, package: &PackageId) -> &[CodeTrait] {
        self.runtime_traits.get(package).map_or(&[], Vec::as_slice)
    }
}

/// What every test of one run reads, resolved once per run.
#[derive(Clone, Copy)]
struct RunContext<'a> {
    experiment: &'a RegisteredExperiment,
    env: &'a EnvironmentSpec,
    /// `env.full_label()`, the environment part of every memo key.
    env_label: &'a str,
    build: &'a BuildReport,
    config: &'a RunConfig,
    run_id: RunId,
}

/// What [`SpSystem::verify_storage`] found wrong with the common storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageVerification {
    /// Content addresses whose stored bytes no longer re-hash to them.
    pub corrupt_objects: Vec<ObjectId>,
    /// Artifact keys whose registered archives fail to unpack-verify.
    pub bad_archives: Vec<String>,
}

impl StorageVerification {
    /// Whether the storage verified clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt_objects.is_empty() && self.bad_archives.is_empty()
    }
}

/// File name of the warm-state snapshot inside an exported directory.
pub const WARM_STATE_FILE: &str = "warm_state.spws";

/// What a warm-state restore accepted, per layer of trust.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmRestoreReport {
    /// Container-level accounting (digest-validated vs dropped entries).
    pub snapshot: sp_store::SnapshotLoadReport,
    /// Digest-cache entries restored (object present).
    pub digest_cache_entries: usize,
    /// Output-memo entries restored (object present).
    pub output_memo_entries: usize,
    /// Chain-memo entries restored (every stage output present).
    pub chain_memo_entries: usize,
    /// Build-memo entries restored (every artifact present).
    pub build_memo_entries: usize,
    /// Ledger reference tests restored (every output present), so the
    /// first post-restore run compares instead of bootstrapping.
    pub ledger_reference_entries: usize,
    /// Entries that passed the container digest but failed decoding or
    /// referenced absent objects — dropped, never trusted.
    pub entries_rejected: usize,
    /// Whether the clock was moved forward to the snapshot's time.
    pub clock_restored: bool,
}

impl WarmRestoreReport {
    /// Total memo/cache entries restored across all sections.
    pub fn entries_restored(&self) -> usize {
        self.digest_cache_entries
            + self.output_memo_entries
            + self.chain_memo_entries
            + self.build_memo_entries
            + self.ledger_reference_entries
    }
}

/// Result of [`SpSystem::export_to_dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemExportSummary {
    /// The storage export (objects written, areas indexed).
    pub storage: sp_store::ExportSummary,
    /// Size of the serialised warm-state snapshot in bytes.
    pub warm_state_bytes: usize,
}

/// Result of [`SpSystem::import_from_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemImportSummary {
    /// The storage import (objects admitted/rejected, names restored).
    pub storage: sp_store::ImportSummary,
    /// The warm-state restore report.
    pub warm: WarmRestoreReport,
    /// Why the warm state (if any) could not be restored; `None` on
    /// success. The import degrades to a cold restart in that case.
    pub warm_state_error: Option<String>,
}

/// One memoised chain-stage production: everything deterministic given
/// the cell key (test, seed, environment revision, scale). The job id and
/// the validation-stage comparison are recomputed at replay time — the
/// former is per-run, the latter depends on the evolving reference state.
#[derive(Clone)]
pub(crate) struct MemoizedStage {
    /// Chain stage name (`mcgen`, `sim`, …, `validation`).
    pub(crate) stage: String,
    /// Stage-qualified test id (`<chain test>/<stage>`).
    pub(crate) test: crate::test::TestId,
    pub(crate) category: TestCategory,
    pub(crate) status: TestStatus,
    /// Conserved outputs: name → content address in the common storage.
    pub(crate) outputs: Vec<(String, ObjectId)>,
}

/// The memoised production of one whole chain test, in stage-report order.
#[derive(Clone)]
pub(crate) struct MemoizedChain {
    pub(crate) stages: Vec<MemoizedStage>,
}

impl MemoizedChain {
    fn from_results(results: &[TestResult], chain_test: &crate::test::TestId) -> Self {
        let prefix = format!("{chain_test}/");
        MemoizedChain {
            stages: results
                .iter()
                .map(|r| MemoizedStage {
                    stage: r
                        .test
                        .as_str()
                        .strip_prefix(&prefix)
                        .unwrap_or(r.test.as_str())
                        .to_string(),
                    test: r.test.clone(),
                    category: r.category,
                    status: r.status.clone(),
                    outputs: r.outputs.clone(),
                })
                .collect(),
        }
    }
}

/// A deployable description of the last validated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionRecipe {
    /// Experiment this recipe preserves.
    pub experiment: String,
    /// The validation run that certified it.
    pub validated_by: RunId,
    /// The environment recipe (OS, arch, compiler, externals).
    pub environment: String,
    /// `(compile-test id, tar-ball content address)` for every package.
    pub artifacts: Vec<(String, ObjectId)>,
}

impl ProductionRecipe {
    /// Renders the recipe as the text file a deployment script would
    /// consume.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# sp-system production recipe for {}\n# certified by validation run {}\n{}",
            self.experiment, self.validated_by, self.environment
        );
        for (test, oid) in &self.artifacts {
            out.push_str(&format!("artifact = {} {}\n", test, oid.to_hex()));
        }
        out
    }
}

/// Deterministic unit-check numbers: a pure function of (package, check,
/// deviation). A deviating platform shifts every reported number by a
/// relative `1e-3 · σ`, far outside the comparator's `1e-9` tolerance.
fn unit_check_output(
    package: &sp_build::PackageId,
    check_index: u32,
    deviation: f64,
) -> TestOutput {
    let h = fnv64(&format!("{package}/{check_index}"));
    let base1 = (h % 100_000) as f64 / 100.0;
    let base2 = ((h >> 20) % 100_000) as f64 / 1000.0;
    let factor = 1.0 + deviation * 1e-3;
    TestOutput::Numbers(vec![
        ("checksum".into(), base1 * factor),
        ("mean".into(), base2 * factor),
        ("entries".into(), ((h >> 40) % 10_000) as f64),
    ])
}

/// The memo key of one (experiment, test) cell. Test ids are
/// conventionally experiment-prefixed, but nothing enforces that, and the
/// produced outputs depend on experiment-specific runtime traits — so the
/// key carries the experiment name explicitly rather than trusting the
/// convention.
fn cell_key(
    experiment: &str,
    test: &ValidationTest,
    config: &RunConfig,
    env_label: &str,
) -> RunKey {
    RunKey::new(
        format!("{experiment}::{}", test.id),
        config.seed,
        env_label,
        config.scale,
    )
}

/// Folds a comparison outcome into the resulting test status.
fn status_from_outcome(outcome: &CompareOutcome) -> TestStatus {
    if outcome.passed() {
        TestStatus::Passed
    } else {
        let detail = match outcome {
            CompareOutcome::Differs { detail } => detail.clone(),
            _ => String::new(),
        };
        TestStatus::Failed(FailureKind::ComparisonFailed(detail))
    }
}

/// Scales an event count, keeping a sane minimum.
fn scaled_events(events: usize, scale: f64) -> usize {
    ((events as f64 * scale).round() as usize).max(10)
}

/// Parses the prefixed stage-error convention into a failure kind.
fn parse_stage_error(message: &str, stage_name: &str) -> FailureKind {
    if let Some(pkg) = message.strip_prefix("dep:") {
        FailureKind::DependencyFailed(pkg.to_string())
    } else if let Some(msg) = message.strip_prefix("crash:") {
        FailureKind::Crash(msg.to_string())
    } else if let Some(detail) = message.strip_prefix("cmp:") {
        FailureKind::ComparisonFailed(detail.to_string())
    } else {
        FailureKind::ChainStageFailed(stage_name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preservation::PreservationLevel;
    use crate::suite::TestSuite;
    use crate::test::ValidationTest;
    use sp_build::{DependencyGraph, Package, PackageId, PackageKind};
    use sp_env::{catalog, Arch, CodeTrait, Version};
    use sp_exec::{ChainDef, CronSchedule};

    /// A small but complete experiment: a clean library, a 64-bit-latent
    /// buggy library, an analysis linking the buggy library, and a chain.
    fn tiny_experiment() -> ExperimentDef {
        let graph = DependencyGraph::from_packages([
            Package::new("util", Version::new(1, 0, 0), PackageKind::Library),
            Package::new("legacy", Version::new(1, 0, 0), PackageKind::Library)
                .with_trait(CodeTrait::PointerSizeAssumption { shift_sigma: 6.0 }),
            Package::new("mcgen-pkg", Version::new(2, 0, 0), PackageKind::Generator).dep("util"),
            Package::new("sim-pkg", Version::new(2, 0, 0), PackageKind::Simulation).dep("util"),
            Package::new(
                "reco-pkg",
                Version::new(2, 0, 0),
                PackageKind::Reconstruction,
            )
            .dep("legacy"),
            Package::new("ana-pkg", Version::new(2, 0, 0), PackageKind::Analysis).dep("util"),
        ])
        .unwrap();
        let mut suite = TestSuite::new("tiny", PreservationLevel::FullSoftware);
        for pkg in [
            "util",
            "legacy",
            "mcgen-pkg",
            "sim-pkg",
            "reco-pkg",
            "ana-pkg",
        ] {
            suite
                .add(ValidationTest::new(
                    format!("tiny/compile/{pkg}"),
                    "tiny",
                    "compilation",
                    TestKind::Compile {
                        package: PackageId::new(pkg),
                    },
                ))
                .unwrap();
        }
        suite
            .add(ValidationTest::new(
                "tiny/unit/util-0",
                "tiny",
                "unit checks",
                TestKind::UnitCheck {
                    package: PackageId::new("util"),
                    check_index: 0,
                },
            ))
            .unwrap();
        suite
            .add(ValidationTest::new(
                "tiny/unit/legacy-0",
                "tiny",
                "unit checks",
                TestKind::UnitCheck {
                    package: PackageId::new("legacy"),
                    check_index: 0,
                },
            ))
            .unwrap();
        suite
            .add(ValidationTest::new(
                "tiny/standalone/ana",
                "tiny",
                "analysis",
                TestKind::Standalone {
                    package: PackageId::new("ana-pkg"),
                    events: 150,
                },
            ))
            .unwrap();
        let mut stage_packages = BTreeMap::new();
        for (stage, pkg) in [
            ("mcgen", "mcgen-pkg"),
            ("sim", "sim-pkg"),
            ("dst", "reco-pkg"),
            ("microdst", "reco-pkg"),
            ("analysis", "ana-pkg"),
            ("validation", "ana-pkg"),
        ] {
            stage_packages.insert(stage.to_string(), PackageId::new(pkg));
        }
        suite
            .add(ValidationTest::new(
                "tiny/chain/nc",
                "tiny",
                "MC chain",
                TestKind::Chain {
                    chain: ChainDef::full_analysis_chain("nc"),
                    stage_packages,
                    events: 2500,
                },
            ))
            .unwrap();
        ExperimentDef {
            name: "tiny".into(),
            color: "blue",
            graph,
            suite,
            entry_points: vec![PackageId::new("ana-pkg")],
        }
    }

    fn config() -> RunConfig {
        RunConfig {
            scale: 1.0,
            threads: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn first_run_on_reference_platform_is_green() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let run = system.run_validation("tiny", image, &config()).unwrap();
        assert!(
            run.is_successful(),
            "failures: {:?}",
            run.failures().collect::<Vec<_>>()
        );
        // 6 compiles + 2 unit + 1 standalone + 6 chain stages.
        assert_eq!(run.results.len(), 15);
        assert!(system.ledger().has_reference("tiny"));
    }

    #[test]
    fn second_identical_run_is_bit_identical() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let first = system.run_validation("tiny", image, &config()).unwrap();
        let second = system.run_validation("tiny", image, &config()).unwrap();
        assert!(second.is_successful());
        assert_eq!(first.digest(), second.digest(), "reproducibility");
        // The second run compared against the first and found identity.
        let compared: Vec<_> = second
            .results
            .iter()
            .filter(|r| matches!(r.compare, Some(CompareOutcome::Identical)))
            .collect();
        assert!(!compared.is_empty());
    }

    #[test]
    fn memoized_runs_are_digest_identical_to_uncached() {
        let build = || {
            let system = SpSystem::new();
            let image = system
                .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
                .unwrap();
            system.register_experiment(tiny_experiment()).unwrap();
            (system, image)
        };
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };

        let (memo_system, image) = build();
        let first = memo_system
            .run_validation("tiny", image, &memo_config)
            .unwrap();
        let second = memo_system
            .run_validation("tiny", image, &memo_config)
            .unwrap();
        assert_eq!(first.digest(), second.digest());
        // The second run compared digest-first and found identity.
        assert!(second
            .results
            .iter()
            .any(|r| matches!(r.compare, Some(CompareOutcome::Identical))));
        let chain_stats = memo_system.chain_memo_stats();
        assert_eq!((chain_stats.hits, chain_stats.misses), (1, 1));
        assert!(memo_system.output_memo_stats().hits > 0);

        // Byte-identical to an uncached twin, run for run.
        let (plain_system, plain_image) = build();
        let plain: Vec<ValidationRun> = (0..2)
            .map(|_| {
                plain_system
                    .run_validation("tiny", plain_image, &config())
                    .unwrap()
            })
            .collect();
        for (reference, memoized) in plain.iter().zip([&first, &second]) {
            assert_eq!(reference.digest(), memoized.digest());
        }

        // The memo-served run names exactly the objects a live run of the
        // same cell names, under the same keys.
        let names = |system: &SpSystem, run: &ValidationRun| {
            system
                .storage()
                .list(StorageArea::Results, &format!("{}/", run.id))
        };
        let served = names(&memo_system, &second);
        assert_eq!(served, names(&plain_system, &plain[1]));
        for key in [
            "tiny/unit/util-0/result",
            "tiny/chain/nc/analysis/histograms",
        ] {
            let key = format!("{}/{key}", second.id);
            assert!(served.iter().any(|(name, _)| *name == key), "{key}");
        }
    }

    #[test]
    fn reregistering_with_a_legacy_syscall_crashes_the_unit_check() {
        // The same stack, with `util` now calling an interface every
        // catalogue OS has dropped.
        let broken = || {
            let mut def = tiny_experiment();
            def.graph = DependencyGraph::from_packages(def.graph.packages().cloned().map(|p| {
                if p.id == PackageId::new("util") {
                    p.with_trait(CodeTrait::LegacySyscall { breaks_at_abi: 0 })
                } else {
                    p
                }
            }))
            .unwrap();
            def
        };
        for memoize in [true, false] {
            let system = SpSystem::new();
            let image = system
                .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
                .unwrap();
            system.register_experiment(tiny_experiment()).unwrap();
            let run_config = RunConfig {
                memoize,
                ..config()
            };
            let status = |run: &ValidationRun| {
                run.results
                    .iter()
                    .find(|r| r.test.as_str() == "tiny/unit/util-0")
                    .map(|r| r.status.clone())
                    .unwrap()
            };
            let before = system.run_validation("tiny", image, &run_config).unwrap();
            assert_eq!(status(&before), TestStatus::Passed, "memoize {memoize}");

            system.register_experiment(broken()).unwrap();
            let after = system.run_validation("tiny", image, &run_config).unwrap();
            assert!(
                matches!(status(&after), TestStatus::Failed(FailureKind::Crash(_))),
                "memoize {memoize}: {:?}",
                status(&after)
            );
            // The library unaffected by the new trait still passes.
            let legacy = after
                .results
                .iter()
                .find(|r| r.test.as_str() == "tiny/unit/legacy-0")
                .unwrap();
            assert!(legacy.status.is_pass(), "memoize {memoize}");
        }
    }

    #[test]
    fn reregistering_an_experiment_invalidates_its_memo() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };
        system.run_validation("tiny", image, &memo_config).unwrap();
        assert!(system.chain_memo_stats().entries > 0);
        assert!(system.output_memo_stats().entries > 0);
        assert!(system.build_memo_stats().entries > 0);

        // Replacing the definition must drop every memoised cell of the
        // experiment: the next run re-executes under the new definition.
        system.register_experiment(tiny_experiment()).unwrap();
        assert_eq!(system.chain_memo_stats().entries, 0);
        assert_eq!(system.output_memo_stats().entries, 0);
        assert_eq!(system.build_memo_stats().entries, 0);
        let hits_before = system.chain_memo_stats().hits;
        system.run_validation("tiny", image, &memo_config).unwrap();
        assert_eq!(
            system.chain_memo_stats().hits,
            hits_before,
            "post-replacement run must not be served from the memo"
        );
    }

    #[test]
    fn memo_recovers_from_pruned_objects() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };
        let first = system.run_validation("tiny", image, &memo_config).unwrap();
        // Evict one conserved chain output (as a retention policy would).
        let (_, victim) = first
            .results
            .iter()
            .find(|r| r.test.as_str().ends_with("chain/nc/mcgen"))
            .and_then(|r| r.outputs.first())
            .expect("chain stage output conserved");
        assert!(system.storage().content().remove(*victim));

        let second = system.run_validation("tiny", image, &memo_config).unwrap();
        assert_eq!(first.digest(), second.digest(), "re-execution reproduces");
        assert!(
            system.storage().content().contains(*victim),
            "the pruned object was re-conserved"
        );
        let stats = system.chain_memo_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "a stale entry must not count as a hit"
        );
    }

    #[test]
    fn verify_storage_flags_rot_in_objects_and_tarballs() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        system.run_validation("tiny", image, &config()).unwrap();
        assert!(
            system.verify_storage().is_clean(),
            "a fresh validation run conserves clean storage"
        );

        // Rot one conserved artifact tar-ball: the object sweep and the
        // archive sweep must both name it.
        let (key, oid) = system
            .storage()
            .list(StorageArea::Artifacts, "")
            .into_iter()
            .next()
            .expect("a validation run conserves artifacts");
        assert!(system.storage().content().corrupt_for_test(oid));
        let verification = system.verify_storage();
        assert!(verification.corrupt_objects.contains(&oid));
        assert!(verification.bad_archives.contains(&key));
        assert!(!verification.is_clean());
    }

    #[test]
    fn warm_state_restart_replays_memoized_cells() {
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };

        // A long-lived system earns its warm state...
        let original = SpSystem::new();
        let image = original
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        original.register_experiment(tiny_experiment()).unwrap();
        let first = original
            .run_validation("tiny", image, &memo_config)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("sp-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let exported = original.export_to_dir(&dir).unwrap();
        assert!(exported.warm_state_bytes > 0);

        // ...and a restarted system (fresh process: definitions re-created
        // from code, state imported from the preservation medium) replays
        // the memoized cells instead of re-running the chains.
        let restarted = SpSystem::new();
        let summary = restarted.import_from_dir(&dir).unwrap();
        assert!(summary.warm_state_error.is_none(), "{summary:?}");
        assert!(summary.warm.entries_restored() > 0);
        assert!(summary.warm.clock_restored);
        assert_eq!(summary.warm.entries_rejected, 0);
        assert_eq!(restarted.clock().now(), original.clock().now());
        let image = restarted
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        restarted.register_experiment(tiny_experiment()).unwrap();

        let replayed = restarted
            .run_validation("tiny", image, &memo_config)
            .unwrap();
        assert!(
            restarted.chain_memo_stats().hits > 0,
            "chain cells must replay from the restored memo"
        );
        assert!(restarted.output_memo_stats().hits > 0);
        assert!(restarted.build_memo_stats().hits > 0);
        assert_eq!(
            replayed.digest(),
            first.digest(),
            "the replayed run is byte-identical to the original"
        );
        assert!(
            replayed.id > first.id,
            "the restored run-id cursor never reuses ids"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_codec_generation_warm_entries_are_dropped_cleanly() {
        // A snapshot written by the previous codec generation: the
        // container is valid (header + per-entry digests check out), but
        // the section values lack the [VALUE_TAG, VALUE_VERSION] header —
        // raw 32-byte object ids, raw little-endian counters. Import must
        // reject every such entry (never misread one) and leave the
        // restored system cold but consistent.
        let oid = ObjectId::for_bytes(b"old-generation-output");
        let key = RunKey::new("tiny::tiny/unit/util-0", 7, "SL5", 1.0);

        let mut snapshot = sp_store::Snapshot::new();
        let mut system = SnapshotSection::new("system");
        system.push(b"run-ids".to_vec(), 500u64.to_le_bytes().to_vec());
        snapshot.sections.push(system);
        let mut outputs = SnapshotSection::new("output-memo");
        outputs.push(encode_run_key(&key), oid.0.to_vec());
        snapshot.sections.push(outputs);
        let mut digests = SnapshotSection::new("digest-cache");
        digests.push(b"pkg@1.0@SL5".to_vec(), oid.0.to_vec());
        snapshot.sections.push(digests);
        let bytes = snapshot.encode();

        let restarted = SpSystem::new();
        // The referenced object exists, so presence checks cannot be what
        // rejects the entries — the codec version is.
        restarted
            .storage()
            .content()
            .put(&b"old-generation-output"[..]);
        let before = restarted.run_ids.load(Ordering::SeqCst);
        let report = restarted.import_warm_state(&bytes).unwrap();
        assert_eq!(report.snapshot.entries_dropped, 0, "container is intact");
        assert_eq!(report.entries_rejected, 3, "all v1 values rejected");
        assert_eq!(report.output_memo_entries, 0);
        assert_eq!(report.digest_cache_entries, 0);
        assert_eq!(
            restarted.run_ids.load(Ordering::SeqCst),
            before,
            "an unversioned counter must not move the run-id cursor"
        );
        assert_eq!(restarted.output_memo_stats().entries, 0);
        assert_eq!(restarted.storage().digest_cache().peek("pkg@1.0@SL5"), None);
    }

    #[test]
    fn restored_ledger_references_make_the_first_run_compare() {
        // A system earns a reference, checkpoints, and restarts. The
        // restored ledger must carry the reference map: the first
        // post-restore run of the experiment reports comparisons against
        // the pre-restart reference instead of bootstrapping a new one.
        let original = SpSystem::new();
        let image = original
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        original.register_experiment(tiny_experiment()).unwrap();
        let first = original.run_validation("tiny", image, &config()).unwrap();
        assert!(first.is_successful());
        let dir = std::env::temp_dir().join(format!("sp-ledger-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        original.export_to_dir(&dir).unwrap();

        let restarted = SpSystem::new();
        let summary = restarted.import_from_dir(&dir).unwrap();
        assert!(summary.warm_state_error.is_none(), "{summary:?}");
        assert!(
            summary.warm.ledger_reference_entries > 0,
            "the reference map must restore: {summary:?}"
        );
        assert!(
            restarted.ledger().has_reference("tiny"),
            "references exist before any post-restore run"
        );
        let image = restarted
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        restarted.register_experiment(tiny_experiment()).unwrap();

        let replayed = restarted.run_validation("tiny", image, &config()).unwrap();
        let compared = replayed
            .results
            .iter()
            .filter(|r| r.compare.is_some())
            .count();
        assert!(
            compared > 0,
            "the first post-restore run must compare, not bootstrap"
        );
        assert!(
            replayed
                .results
                .iter()
                .any(|r| matches!(r.compare, Some(CompareOutcome::Identical))),
            "an unchanged platform reproduces the pre-restart reference bit-for-bit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_warm_state_entries_are_dropped_not_trusted() {
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };
        let original = SpSystem::new();
        let image = original
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        original.register_experiment(tiny_experiment()).unwrap();
        original
            .run_validation("tiny", image, &memo_config)
            .unwrap();

        let mut bytes = original.export_warm_state();
        // Flip one byte deep inside the payload (past the header): either
        // an entry digest stops matching or a decode fails — in both
        // cases the affected entry is dropped, the rest load.
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0xff;

        let restarted = SpSystem::new();
        // Objects first (the memo importers validate against them).
        for (_, oid) in original.storage().list(sp_store::StorageArea::Results, "") {
            if let Ok(data) = original.storage().content().get(oid) {
                restarted.storage().content().put(data);
            }
        }
        for (_, oid) in original
            .storage()
            .list(sp_store::StorageArea::Artifacts, "")
        {
            if let Ok(data) = original.storage().content().get(oid) {
                restarted.storage().content().put(data);
            }
        }
        match restarted.import_warm_state(&bytes) {
            Ok(report) => {
                let clean = original.export_warm_state();
                let (clean_snapshot, _) = sp_store::Snapshot::decode(&clean).unwrap();
                let total = clean_snapshot.entry_count();
                assert!(
                    report.snapshot.entries_dropped + report.entries_rejected > 0,
                    "the corrupted entry must be rejected somewhere: {report:?}"
                );
                assert!(
                    report.snapshot.entries_loaded <= total,
                    "nothing can be fabricated"
                );
            }
            Err(_) => {
                // Structural corruption (a length field): the whole load
                // aborts and the system stays cold — also never trusting
                // the corrupted bytes.
                assert_eq!(restarted.chain_memo_stats().entries, 0);
            }
        }
    }

    #[test]
    fn prune_runs_uses_the_virtual_clock() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        for _ in 0..3 {
            system.clock().advance(86_400);
            system.run_validation("tiny", image, &config()).unwrap();
        }
        // An aggressive age-based policy decided against the *virtual*
        // clock: after advancing simulated time far beyond the failure
        // window, old runs prune without the caller passing any "now".
        system.clock().advance(365 * 86_400);
        let report = system.prune_runs(&sp_store::RetentionPolicy::pruning(1, 1, 0));
        assert!(report.dropped > 0, "{report:?}");
        assert!(system.ledger().has_reference("tiny"));
    }

    #[test]
    fn migration_to_64bit_finds_the_latent_bug() {
        let system = SpSystem::new();
        let sl5_32 = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        let sl6_64 = system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();

        // Establish the 32-bit reference.
        let reference = system.run_validation("tiny", sl5_32, &config()).unwrap();
        assert!(reference.is_successful());

        // Migrate: the legacy library's pointer bug must surface.
        let migrated = system.run_validation("tiny", sl6_64, &config()).unwrap();
        assert!(!migrated.is_successful());
        let failed: Vec<String> = migrated
            .failures()
            .map(|r| r.test.as_str().to_string())
            .collect();
        // The unit check on the buggy library fails...
        assert!(
            failed.iter().any(|t| t.contains("legacy")),
            "legacy unit check should fail: {failed:?}"
        );
        // ...and the chain validation stage sees shifted histograms
        // (reco-pkg links legacy, deviating the whole chain).
        assert!(
            failed.iter().any(|t| t.contains("chain/nc")),
            "chain should fail validation: {failed:?}"
        );
        // Compile tests still pass (with warnings) on SL6.
        let compile_ok = migrated
            .by_category(TestCategory::Compilation)
            .all(|r| r.status.is_pass());
        assert!(compile_ok, "the bug is invisible to compilation");
    }

    #[test]
    fn diagnosis_blames_the_experiment_package() {
        let system = SpSystem::new();
        let sl5_32 = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        let sl6_64 = system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        system.run_validation("tiny", sl5_32, &config()).unwrap();
        let migrated = system.run_validation("tiny", sl6_64, &config()).unwrap();

        let experiment = system.experiment("tiny").unwrap();
        let env = system.image(sl6_64).unwrap().spec.clone();
        let diagnosis = crate::classify(&experiment, &migrated, &env).unwrap();
        assert_eq!(
            diagnosis.category,
            crate::inputs::InputCategory::ExperimentSoftware
        );
        assert_eq!(diagnosis.culprit, "legacy");
    }

    #[test]
    fn unknown_experiment_and_image_error() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        assert!(matches!(
            system.run_validation("ghost", image, &config()),
            Err(SystemError::UnknownExperiment(_))
        ));
        system.register_experiment(tiny_experiment()).unwrap();
        assert!(matches!(
            system.run_validation("tiny", VmImageId(99), &config()),
            Err(SystemError::UnknownImage(_))
        ));
    }

    #[test]
    fn incoherent_image_rejected() {
        let system = SpSystem::new();
        let bad = sp_env::EnvironmentSpec::new(
            sp_env::OsRelease::SL6,
            Arch::I686,
            sp_env::Compiler::GCC44,
        );
        assert!(matches!(
            system.register_image(bad),
            Err(SystemError::Image(_))
        ));
    }

    #[test]
    fn client_requirements_enforced() {
        let system = SpSystem::new();
        assert!(system
            .register_client(
                "vm-sl6",
                ClientKind::VirtualMachine {
                    image_label: "SL6/64bit gcc4.4".into()
                },
                CronSchedule::nightly(),
                true,
                true,
            )
            .is_ok());
        assert!(matches!(
            system.register_client(
                "island",
                ClientKind::BatchNode,
                CronSchedule::nightly(),
                false,
                true,
            ),
            Err(SystemError::Client(_))
        ));
        assert_eq!(system.clients().len(), 1);
    }

    #[test]
    fn production_recipe_export() {
        let system = SpSystem::new();
        // No experiment, no recipe.
        assert!(system.export_production_recipe("tiny").is_none());

        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        // No successful run yet, still no recipe.
        assert!(system.export_production_recipe("tiny").is_none());

        let run = system.run_validation("tiny", image, &config()).unwrap();
        assert!(run.is_successful());
        let recipe = system.export_production_recipe("tiny").unwrap();
        assert_eq!(recipe.validated_by, run.id);
        assert!(recipe.environment.contains("os = SL5"));
        assert!(recipe.environment.contains("compiler = gcc4.1"));
        // One artifact per package in the tiny stack.
        assert_eq!(recipe.artifacts.len(), 6);
        // Every artifact resolves in the common storage.
        for (_, oid) in &recipe.artifacts {
            assert!(system.storage().content().contains(*oid));
        }
        let rendered = recipe.render();
        assert!(rendered.contains("# sp-system production recipe for tiny"));
    }

    #[test]
    fn outputs_are_kept_in_common_storage() {
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let run = system.run_validation("tiny", image, &config()).unwrap();
        // Every declared output object exists in storage.
        for result in &run.results {
            for (name, oid) in &result.outputs {
                assert!(
                    system.storage().content().contains(*oid),
                    "output {name} of {} missing",
                    result.test
                );
            }
        }
        // The run summary is stored too.
        assert!(system
            .storage()
            .lookup(StorageArea::Results, &format!("{}/SUMMARY", run.id))
            .is_some());
    }

    /// `ValidationRun::digest` and the SUMMARY bytes of a fixed sequence
    /// of runs — live and memo-served, green and failing — are pinned to
    /// values recorded before the hex encoder, the runtime-trait table and
    /// the batched name registration were introduced. Any change to a
    /// digest byte, a status or the summary format shows up here.
    #[test]
    fn golden_run_digests_and_summaries() {
        let system = SpSystem::new();
        let sl5_32 = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        let sl6_64 = system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let memo_config = RunConfig {
            memoize: true,
            ..config()
        };
        let expected = [
            "run spr-000001 experiment tiny image SL5/32bit gcc4.1 time 1356998400\npassed 15 failed 0 skipped 0\ndigest c0201377d67bce534285817d508671fc354e09200f85898d3308b2428a925bcd\n",
            "run spr-000002 experiment tiny image SL6/64bit gcc4.4 time 1356998400\npassed 13 failed 2 skipped 0\ndigest e86ee5a488fed4c1c32e531133c63400f2a03e9640741a80cf632bf5158f4b61\n",
            "run spr-000003 experiment tiny image SL5/32bit gcc4.1 time 1356998400\npassed 15 failed 0 skipped 0\ndigest c0201377d67bce534285817d508671fc354e09200f85898d3308b2428a925bcd\n",
            "run spr-000004 experiment tiny image SL6/64bit gcc4.4 time 1356998400\npassed 13 failed 2 skipped 0\ndigest e86ee5a488fed4c1c32e531133c63400f2a03e9640741a80cf632bf5158f4b61\n",
        ];
        for (image, expected) in [sl5_32, sl6_64, sl5_32, sl6_64].into_iter().zip(expected) {
            let run = system.run_validation("tiny", image, &memo_config).unwrap();
            let summary = system
                .storage()
                .get_named(StorageArea::Results, &format!("{}/SUMMARY", run.id))
                .unwrap()
                .unwrap();
            let summary = std::str::from_utf8(&summary).unwrap();
            assert_eq!(summary, expected);
            assert!(summary.ends_with(&format!("digest {}\n", run.digest().to_hex())));
        }
        assert_eq!(system.chain_memo_stats().hits, 2, "runs 3 and 4 replayed");
    }
}
