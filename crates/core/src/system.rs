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
use sp_hep::{hist_io, GeneratorConfig};
use sp_store::snapshot::{decode_run_key, encode_run_key};
use sp_store::{
    fnv64, DigestCacheStats, FrozenVault, Memo, ObjectId, RetentionPolicy, RunKey, RunMemo,
    SharedStorage, Snapshot, SnapshotError, SnapshotSection, StorageArea,
};

use crate::warm;

use crate::compare::{Comparator, CompareOutcome, TestOutput};
use crate::experiment::ExperimentDef;
use crate::ledger::{RunLedger, TestOutputs};
use crate::run::{DigestedRun, RunId, TestResult, TestStatus, ValidationRun};
use crate::test::{FailureKind, TestCategory, TestId, TestKind, ValidationTest};

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
    /// the MC chain. Comparisons against the reference are judged against
    /// the *current* reference (references evolve between runs); one whose
    /// (output, reference) address pair was compared before is served
    /// from the verdict memo. Memoized results are byte-identical to
    /// uncached ones.
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
    chain_memo: RunMemo<Arc<MemoizedChain>>,
    /// Memoised unit-check / standalone outputs (the one `result`: the
    /// content address of the encoded [`TestOutput`]), same key space.
    /// Every result the entry serves shares its slice.
    output_memo: RunMemo<TestOutputs>,
    /// Memoised §3.1 (ii) builds: the regular build is a pure function of
    /// (experiment stack, environment), so repeated cells reuse the report
    /// and its compile-test outputs instead of re-simulating the build.
    build_memo: RunMemo<Arc<StackBuild>>,
    /// Memoised comparisons, keyed by (produced output, reference) content
    /// address: the comparator is chosen by the output and both sides are
    /// decoded from those bytes, so the address pair decides the outcome.
    /// Not part of the exported warm state.
    verdict_memo: Memo<(ObjectId, ObjectId), CompareOutcome>,
    /// The last judged run of each (experiment, image) cell and its
    /// digest, served to the next run of the cell whose results hash the
    /// same text. Exact for every run, memoized or not; not part of the
    /// exported warm state.
    digest_memo: Memo<(String, VmImageId), Arc<DigestedRun>>,
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
            verdict_memo: Memo::new(),
            digest_memo: Memo::new(),
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

    /// Effectiveness counters of the verdict memo (each hit is one
    /// comparison against the reference that was not decoded and re-run).
    pub fn verdict_memo_stats(&self) -> DigestCacheStats {
        self.verdict_memo.stats()
    }

    /// Effectiveness counters of the run-digest memo (each hit is one run
    /// whose digest text was not hashed again).
    pub fn digest_memo_stats(&self) -> DigestCacheStats {
        self.digest_memo.stats()
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
    ///
    /// A run is two phases: `produce` (build, execute, conserve; nothing
    /// reads the reference) and `judge` (compare against the current
    /// reference and conserve the run summary). This is their composition,
    /// stamped with the current clock time and recorded in the ledger; the
    /// campaign scheduler runs the phases apart, producing every cell of a
    /// repetition in parallel and judging each experiment's cells in task
    /// order, each campaign on its own virtual timeline.
    pub fn run_validation(
        &self,
        experiment_name: &str,
        image_id: VmImageId,
        config: &RunConfig,
    ) -> Result<ValidationRun, SystemError> {
        let run_id = self.reserve_run_ids(1);
        let produced = self.produce(experiment_name, image_id, config, run_id, self.clock.now())?;
        let run = self.judge(produced);
        self.ledger.record(&run);
        Ok(run)
    }

    /// The produce phase of a run: the §3.1 (ii) stack build, unit checks,
    /// standalone executables and MC chains (memo-served or executed),
    /// with every output conserved and named under `run_id`. It never
    /// reads the experiment's reference, so any number of runs of one
    /// experiment may produce at once; each comparison the run owes is
    /// left as a [`Verdict`] for [`judge`](Self::judge).
    pub(crate) fn produce(
        &self,
        experiment_name: &str,
        image_id: VmImageId,
        config: &RunConfig,
        run_id: RunId,
        timestamp: u64,
    ) -> Result<ProducedRun, SystemError> {
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
        };

        // Execute the suite: compile results come from the build report;
        // unit checks and standalone executables run in parallel on the
        // pool; chains run sequentially. Job ids are allocated in suite
        // order, and each package's runtime behaviour is checked once.
        let mut results: Vec<(TestResult, Option<Verdict>)> = Vec::new();
        let mut parallel_tests: Vec<(JobId, &ValidationTest, &PackageId)> = Vec::new();
        let mut runtime: HashMap<&PackageId, RuntimeOutcome> = HashMap::new();
        for test in experiment.suite.tests() {
            match &test.kind {
                TestKind::Compile { package } => {
                    results.push((self.compile_result(test, package, &build), None));
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

        let tasks: Vec<_> = parallel_tests
            .into_iter()
            .map(|(job, test, package)| (job, test, &runtime[package]))
            .collect();
        results.extend(
            WorkStealingPool::new(config.threads).run(tasks, |_, (job, test, outcome)| {
                self.run_parallel_test(&ctx, test, job, outcome)
            }),
        );

        // Sequential chains.
        for test in experiment.suite.tests() {
            if let TestKind::Chain {
                chain,
                stage_packages,
                events,
            } = &test.kind
            {
                results.extend(self.run_chain_test(&ctx, test, chain, stage_packages, *events));
            }
        }

        results.sort_by(|a, b| a.0.test.cmp(&b.0.test));
        // Split by hand: collecting in place would keep the pairs' larger
        // allocation alive in every run the ledger holds.
        let mut verdicts = Vec::new();
        let mut tests = Vec::with_capacity(results.len());
        for (index, (result, verdict)) in results.into_iter().enumerate() {
            tests.push(result);
            verdicts.extend(verdict.map(|verdict| (index, verdict)));
        }
        // Every output the run conserved, executed or memo-served, is named
        // `<run>/<test>/<output>`: one group, landed with one metadata
        // write. A compile test's tar-ball is the build's artifact and is
        // named there.
        let served = tests.iter().flat_map(|result| {
            result
                .outputs
                .iter()
                .filter(|(name, _)| &**name != "tarball")
                .map(|(name, oid)| ([result.test.as_str(), &**name], *oid))
        });
        self.storage
            .register_named_many(StorageArea::Results, &format!("{run_id}/"), served);
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
            results: tests,
        };
        Ok(ProducedRun {
            run,
            image: image_id,
            verdicts,
            memoize: config.memoize,
        })
    }

    /// The judge phase of a run: resolves every [`Verdict`] the produced
    /// run owes against the experiment's *current* reference, then
    /// conserves the run summary, whose counts and digest depend on those
    /// verdicts. The ledger commit (which promotes successful runs to
    /// reference status) is the caller's responsibility, so runs of one
    /// experiment must be judged and promoted in task order.
    pub(crate) fn judge(&self, produced: ProducedRun) -> ValidationRun {
        let ProducedRun {
            mut run,
            image,
            verdicts,
            memoize,
        } = produced;
        let references = self.ledger.reference_output_ids(
            &run.experiment,
            verdicts
                .iter()
                .map(|(index, verdict)| (*index, &verdict.test_id, verdict.output_name)),
        );
        for ((index, verdict), reference) in verdicts.into_iter().zip(references) {
            let (status, compare) = self.compare_output(&verdict, reference, memoize);
            let result = &mut run.results[index];
            result.status = status;
            result.compare = compare;
        }

        // Bookkeeping: run summary into the common storage.
        let summary = format!(
            "run {} experiment {} image {} time {}\npassed {} failed {} skipped {}\ndigest {}\n",
            run.id,
            run.experiment,
            run.image_label,
            run.timestamp,
            run.passed(),
            run.failed(),
            run.skipped(),
            self.run_digest(image, &run).to_hex(),
        );
        self.storage.put_named(
            StorageArea::Results,
            &format!("{}/SUMMARY", run.id),
            summary.into_bytes(),
        );
        run
    }

    /// [`ValidationRun::digest`] of `run`, judged on `image`. The digest
    /// of the cell's last judged run is served when `run`'s results hash
    /// the same text; otherwise `run` is hashed and becomes the cell's
    /// last run.
    pub fn run_digest(&self, image: VmImageId, run: &ValidationRun) -> ObjectId {
        let cell = (run.experiment.clone(), image);
        if let Some(digest) = self.digest_memo.serve(&cell, |last| last.digest_of(run)) {
            return digest;
        }
        let digested = DigestedRun::of(run);
        let digest = digested.digest;
        self.digest_memo.insert(cell, Arc::new(digested));
        digest
    }

    /// Runs (or, for memoized configs, replays) the §3.1 (ii) stack build.
    fn build_stack(
        &self,
        experiment: &ExperimentDef,
        env: &EnvironmentSpec,
        config: &RunConfig,
    ) -> Result<Arc<StackBuild>, SystemError> {
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
            let served = self.build_memo.serve(key, |build| {
                self.build_artifacts_present(&build.report).then_some(build)
            });
            if let Some(build) = served {
                return Ok(build);
            }
        }
        let builder = ParallelBuilder::new(BuildEngine::new(self.storage.clone()), config.threads);
        let report = builder
            .build_stack(&experiment.graph, env)
            .map_err(SystemError::Graph)?;
        let build = Arc::new(StackBuild::new(report));
        if let Some(key) = memo_key {
            self.build_memo.insert(key, Arc::clone(&build));
        }
        Ok(build)
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

    /// Builds the result of a compilation test from the stack build: the
    /// package's shared outputs, with its build log conserved (again, if
    /// retention pruned it).
    fn compile_result(
        &self,
        test: &ValidationTest,
        package: &sp_build::PackageId,
        build: &StackBuild,
    ) -> TestResult {
        let missing;
        let (status, log, outputs) = match build.report.records.get(package) {
            None => {
                missing = format!("package '{package}' is not part of the stack\n");
                let outputs = compile_outputs(&missing, None);
                let status = TestStatus::Failed(FailureKind::CompileError);
                (status, missing.as_str(), outputs)
            }
            Some(r) => {
                let status = match &r.status {
                    BuildStatus::Built => TestStatus::Passed,
                    BuildStatus::BuiltWithWarnings(n) => TestStatus::PassedWithWarnings(*n),
                    BuildStatus::Failed => TestStatus::Failed(FailureKind::CompileError),
                    BuildStatus::SkippedDepFailed(dep) => {
                        TestStatus::Skipped(format!("dependency '{dep}' failed"))
                    }
                };
                let outputs = build.compile_outputs[package].clone();
                (status, r.log.as_str(), outputs)
            }
        };
        let log_id = outputs[0].1;
        let content = self.storage.content();
        if !content.contains(log_id) {
            content.put_prehashed(log_id, log.as_bytes());
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
    /// its package's runtime outcome. A test that produced an output also
    /// returns the comparison it owes.
    fn run_parallel_test(
        &self,
        ctx: &RunContext<'_>,
        test: &ValidationTest,
        job: JobId,
        runtime: &RuntimeOutcome,
    ) -> (TestResult, Option<Verdict>) {
        let RunContext {
            experiment,
            env_label,
            build,
            config,
            ..
        } = *ctx;
        let experiment = &*experiment.def;
        let package = match &test.kind {
            TestKind::UnitCheck { package, .. } | TestKind::Standalone { package, .. } => package,
            _ => unreachable!("parallel tests are unit checks or standalone"),
        };
        let make = |status: TestStatus, outputs: TestOutputs| TestResult {
            test: test.id.clone(),
            category: test.category(),
            group: test.group.clone(),
            job,
            status,
            outputs,
            compare: None,
        };
        let verdict = |oid: ObjectId, fresh: Option<TestOutput>| Verdict {
            test_id: test.id.clone(),
            output_name: "result",
            oid,
            fresh,
        };

        // The executable must exist.
        let built = build
            .report
            .records
            .get(package)
            .map(|r| r.status.has_artifact())
            .unwrap_or(false);
        if !built {
            let status = TestStatus::Skipped(format!("artifact for '{package}' missing"));
            return (make(status, TestOutputs::default()), None);
        }

        // Runtime behaviour of the package (with its dependencies).
        let deviation = match runtime {
            RuntimeOutcome::Crash { message, .. } => {
                let status = TestStatus::Failed(FailureKind::Crash(message.clone()));
                return (make(status, TestOutputs::default()), None);
            }
            RuntimeOutcome::Deviating { shift_sigma, .. } => *shift_sigma,
            RuntimeOutcome::Nominal => 0.0,
        };

        // Digest-first memo: an unchanged (test, seed, env, scale) cell has
        // a bit-identical output, so serve its conserved object and skip
        // production, serialisation and hashing — the comparison against
        // the (possibly evolved) reference is judged either way.
        let memo_key = config
            .memoize
            .then(|| cell_key(&experiment.name, test, config, env_label));
        // A pruned object fails validation and falls through to a run.
        let served = memo_key.as_ref().and_then(|key| {
            self.output_memo.serve(key, |outputs| {
                self.storage
                    .content()
                    .contains(outputs[0].1)
                    .then_some(outputs)
            })
        });
        if let Some(outputs) = served {
            let oid = outputs[0].1;
            return (make(TestStatus::Passed, outputs), Some(verdict(oid, None)));
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
        let oid = self.storage.content().put_prehashed(digest, encoded);
        let outputs = result_outputs(oid);
        if let Some(key) = memo_key {
            self.output_memo.insert(key, outputs.clone());
        }
        let result = make(TestStatus::Passed, outputs);
        (result, Some(verdict(oid, Some(output))))
    }

    /// Builds a chain test's results from its production, one per stage
    /// in stage-report order, allocating their job ids. Executed and
    /// memo-served chains both come through here. Each stage keeps its
    /// recorded status; a validation stage recorded as `Passed` is a
    /// placeholder whose comparison of the analysis histograms is left to
    /// be judged against the *current* reference (references evolve
    /// between runs, so the production never records a verdict).
    fn chain_results(
        &self,
        test: &ValidationTest,
        chain: &MemoizedChain,
    ) -> Vec<(TestResult, Option<Verdict>)> {
        // The validation stage compares the analysis stage's histograms,
        // kept under the analysis stage's test id.
        let histograms = chain
            .stages
            .iter()
            .find(|s| s.stage == "analysis")
            .and_then(|s| {
                let (_, oid) = s.outputs.iter().find(|(name, _)| &**name == "histograms")?;
                Some((&s.test, *oid))
            });
        chain
            .stages
            .iter()
            .map(|stage| {
                let judged = stage.stage == "validation" && stage.status == TestStatus::Passed;
                let (status, verdict) = match histograms {
                    Some((test_id, oid)) if judged => {
                        let verdict = Verdict {
                            test_id: test_id.clone(),
                            output_name: "histograms",
                            oid,
                            fresh: None,
                        };
                        (TestStatus::Passed, Some(verdict))
                    }
                    // Only a restored warm-state entry can record a passed
                    // validation stage without analysis histograms.
                    None if judged => (
                        TestStatus::Failed(FailureKind::DependencyFailed(
                            "analysis-output-missing".to_string(),
                        )),
                        None,
                    ),
                    _ => (stage.status.clone(), None),
                };
                let result = TestResult {
                    test: stage.test.clone(),
                    category: stage.category,
                    group: test.group.clone(),
                    job: self.job_ids.allocate(),
                    status,
                    outputs: stage.outputs.clone(),
                    compare: None,
                };
                (result, verdict)
            })
            .collect()
    }

    /// Runs a full analysis chain, producing one result per stage; the
    /// validation stage's comparison is left to be judged. An unchanged
    /// cell replays its memoised production instead.
    fn run_chain_test(
        &self,
        ctx: &RunContext<'_>,
        test: &ValidationTest,
        chain: &sp_exec::ChainDef,
        stage_packages: &BTreeMap<String, PackageId>,
        events: usize,
    ) -> Vec<(TestResult, Option<Verdict>)> {
        let RunContext {
            experiment: registered,
            env,
            env_label,
            build,
            config,
        } = *ctx;
        let experiment = &*registered.def;
        // Digest-first memo: an unchanged (test, seed, env, scale) cell
        // produced bit-identical stage outputs, so replay them instead of
        // re-running the whole generation → simulation → analysis chain.
        let memo_key = config
            .memoize
            .then(|| cell_key(&experiment.name, test, config, env_label));
        // A pruned conserved object fails the replay: re-execute.
        let content = self.storage.content();
        let replayed = memo_key.as_ref().and_then(|key| {
            self.chain_memo
                .serve(key, |memo| memo.outputs_present(content).then_some(memo))
        });
        if let Some(memo) = replayed {
            return self.chain_results(test, &memo);
        }

        let events = scaled_events(events, config.scale);
        let seed = fnv64(test.id.as_str()) ^ config.seed;

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

        // Plan: no stage's outcome depends on event data, so decide every
        // one before making any event. A stage fails when its package is
        // not built or crashes at run time, when it is not a known stage,
        // or when its upstream data stage is not among its needs; stages
        // downstream of a failure are skipped.
        let mut analysis_planned = false;
        let plan = chain.execute(|stage, _: &BTreeMap<String, ()>| {
            if let Some(package) = stage_packages.get(&stage.name) {
                let built = build
                    .report
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
            if stage.name == "validation" {
                // The analysis histograms are compared to the reference
                // when the run is judged.
                if !analysis_planned {
                    return Err("dep:analysis-output-missing".to_string());
                }
                return Ok(());
            }
            let Some(data_stage) = sp_hep::Stage::from_name(&stage.name) else {
                return Err(format!("unknown stage '{}'", stage.name));
            };
            if let Some(upstream) = data_stage.upstream() {
                if !stage.needs.iter().any(|need| need == upstream.name()) {
                    return Err(format!("upstream stage '{}' not needed", upstream.name()));
                }
            }
            analysis_planned |= data_stage == sp_hep::Stage::Analysis;
            Ok(())
        });

        // Stream: one pass over the events through the last data stage
        // that succeeded (they form a prefix of the pipeline, since each
        // needs its upstream). All chains run the NC workload regardless
        // of their physics name: validation power comes from populated
        // control distributions, and the NC selection keeps every
        // histogram filled. (A CC-configured generator would leave the
        // NC-oriented selection empty and make the comparison vacuous.)
        let last = sp_hep::Stage::ALL
            .into_iter()
            .take_while(|stage| plan.outputs.contains_key(stage.name()))
            .last();
        let mut stage_outputs: BTreeMap<&str, TestOutputs> = BTreeMap::new();
        if let Some(last) = last {
            let output = sp_hep::stream_chain(
                &GeneratorConfig::hera_nc(),
                events,
                seed,
                total_deviation,
                last,
                true,
            );
            let files = [
                ("mcgen", "gen.dst", output.gen_dst),
                ("dst", "events.dst", output.events_dst),
                ("microdst", "events.microdst", output.micro_dst),
            ];
            for (stage, name, bytes) in files {
                if let Some(bytes) = bytes {
                    stage_outputs.insert(stage, Arc::from([(name.into(), content.put(bytes))]));
                }
            }
            if let Some(result) = output.analysis {
                let mut payload = b"H".to_vec();
                hist_io::encode_set_with(&result.histograms, &mut |b| payload.extend_from_slice(b));
                stage_outputs.insert(
                    "analysis",
                    Arc::from([("histograms".into(), content.put(payload))]),
                );
            }
        }

        // Record the plan's per-stage statuses with the stage files; a
        // succeeded validation stage is a placeholder `Passed` until judged.
        let production = MemoizedChain {
            stages: plan
                .stages
                .iter()
                .map(|(stage_name, status)| MemoizedStage {
                    test: TestId::new(format!("{}/{stage_name}", test.id)),
                    category: if stage_name == "validation" {
                        TestCategory::DataValidation
                    } else {
                        TestCategory::AnalysisChain
                    },
                    status: match status {
                        StageStatus::Succeeded => TestStatus::Passed,
                        StageStatus::Failed(message) => {
                            TestStatus::Failed(parse_stage_error(message, stage_name))
                        }
                        StageStatus::Skipped { missing, .. } => {
                            TestStatus::Skipped(format!("upstream stage '{missing}' unavailable"))
                        }
                    },
                    outputs: stage_outputs
                        .remove(stage_name.as_str())
                        .unwrap_or_default(),
                    stage: stage_name.clone(),
                })
                .collect(),
        };
        let results = self.chain_results(test, &production);
        if let Some(key) = memo_key {
            self.chain_memo.insert(key, Arc::new(production));
        }
        results
    }

    /// Judges one output against the experiment's reference output
    /// `reference_id` (as resolved when the run's judging began), deciding
    /// the test status. Digest-first: when the output's content address
    /// equals the reference's, the outputs are bit-identical and nothing
    /// is decoded, no histogram χ² runs. Otherwise, for a `memoize` run, a
    /// comparison of the same (output, reference) address pair is served
    /// from the verdict memo while both objects are still in the content
    /// store. Failing that, the current output is the fresh one or, for a
    /// conserved output, the decoded stored object, and a completed
    /// comparison is memoised for a `memoize` run; an undecodable output
    /// fails. No reference (or an unreadable one) passes and makes this
    /// output the next reference; neither of those verdicts is memoised.
    fn compare_output(
        &self,
        verdict: &Verdict,
        reference_id: Option<ObjectId>,
        memoize: bool,
    ) -> (TestStatus, Option<CompareOutcome>) {
        let Some(reference_id) = reference_id else {
            return (TestStatus::Passed, None);
        };
        if verdict.oid == reference_id {
            return (TestStatus::Passed, Some(CompareOutcome::Identical));
        }
        let key = (verdict.oid, reference_id);
        if memoize {
            let content = self.storage.content();
            let served = self.verdict_memo.serve(&key, |outcome| {
                (content.contains(verdict.oid) && content.contains(reference_id)).then_some(outcome)
            });
            if let Some(outcome) = served {
                return (status_from_outcome(&outcome), Some(outcome));
            }
        }
        let stored;
        let current = match &verdict.fresh {
            Some(output) => output,
            None => {
                let Some(output) = self.decode_stored_output(verdict.oid) else {
                    let detail = format!("{} output unreadable", verdict.output_name);
                    return (
                        TestStatus::Failed(FailureKind::ComparisonFailed(detail.into())),
                        None,
                    );
                };
                stored = output;
                &stored
            }
        };
        let Some(reference) = self.decode_stored_output(reference_id) else {
            return (TestStatus::Passed, None);
        };
        let outcome = Comparator::default_for(current).compare(current, &reference);
        if memoize {
            self.verdict_memo.insert(key, outcome.clone());
        }
        (status_from_outcome(&outcome), Some(outcome))
    }

    /// Fetches and decodes a stored [`TestOutput`] by content address.
    fn decode_stored_output(&self, id: ObjectId) -> Option<TestOutput> {
        let bytes = self.storage.content().get(id).ok()?;
        TestOutput::from_bytes(&bytes)
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
    /// Entries [`import_warm_state`](Self::import_warm_state) would reject
    /// against the content store (objects retention pruned) are left out.
    pub fn export_warm_state(&self) -> Vec<u8> {
        let content = self.storage.content();
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
            if content.contains(id) {
                digests.push(revision.into_bytes(), warm::encode_object_id(id));
            }
        }
        snapshot.sections.push(digests);

        let mut results = SnapshotSection::new(warm::SECTION_OUTPUT_MEMO);
        for (key, outputs) in self.output_memo.export_entries() {
            if content.contains(outputs[0].1) {
                results.push(encode_run_key(&key), warm::encode_object_id(outputs[0].1));
            }
        }
        snapshot.sections.push(results);

        let mut chains = SnapshotSection::new(warm::SECTION_CHAIN_MEMO);
        for (key, chain) in self.chain_memo.export_entries() {
            if chain.outputs_present(content) {
                chains.push(encode_run_key(&key), warm::encode_chain(&chain));
            }
        }
        snapshot.sections.push(chains);

        let mut builds = SnapshotSection::new(warm::SECTION_BUILD_MEMO);
        for (key, build) in self.build_memo.export_entries() {
            if self.build_artifacts_present(&build.report) {
                let report = warm::encode_build_report(&build.report);
                builds.push(encode_run_key(&key), report);
            }
        }
        snapshot.sections.push(builds);

        let mut references = SnapshotSection::new(warm::SECTION_LEDGER_REFS);
        for (experiment, mut tests) in self.ledger.export_references() {
            tests.retain(|_, outputs| outputs_conserved(content, outputs));
            let tests = warm::encode_reference_tests(&tests);
            references.push(experiment.into_bytes(), tests);
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
                        self.output_memo.insert(key, result_outputs(id));
                        report.output_memo_entries += 1;
                    }
                    _ => report.entries_rejected += 1,
                }
            }
        }

        if let Some(section) = snapshot.section(warm::SECTION_CHAIN_MEMO) {
            for (key, value) in &section.entries {
                match (decode_run_key(key), warm::decode_chain(value)) {
                    (Some(key), Some(chain)) if chain.outputs_present(content) => {
                        self.chain_memo.insert(key, Arc::new(chain));
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
                        self.build_memo
                            .insert(key, Arc::new(StackBuild::new(build)));
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
                tests.retain(|_, outputs| outputs_conserved(content, outputs));
                report.entries_rejected += before - tests.len();
                report.ledger_reference_entries +=
                    self.ledger.absorb_references(vec![(experiment, tests)]);
            }
        }

        Ok(report)
    }

    /// Exports the whole preservable state to a directory: the common
    /// storage (write-once objects + area indexes, via
    /// [`SharedStorage::export_to_dir`]) plus the warm state as
    /// `warm_state.spws` next to it. A re-export adds only new objects.
    pub fn export_to_dir(&self, dir: &std::path::Path) -> std::io::Result<SystemExportSummary> {
        self.export_to_dir_fs(dir, &sp_store::vfs::OsFs)
    }

    /// [`export_to_dir`](Self::export_to_dir) over an injectable
    /// filesystem. Every file is written with the full stage → `fsync` →
    /// rename → directory-sync discipline
    /// ([`sp_store::vfs::write_durable_atomic`]), so a crash mid-export
    /// leaves each as the previous checkpoint or the new one — never a
    /// torn file that would silently cold-start the next restart.
    pub fn export_to_dir_fs(
        &self,
        dir: &std::path::Path,
        fs: &dyn sp_store::vfs::StoreFs,
    ) -> std::io::Result<SystemExportSummary> {
        let storage = self.storage.export_to_dir_fs(dir, fs)?;
        let warm_state = self.export_warm_state();
        let warm_state_bytes = warm_state.len();
        let target = dir.join(WARM_STATE_FILE);
        let stage = dir.join(format!("{WARM_STATE_FILE}.stage"));
        sp_store::vfs::write_durable_atomic(fs, &[(stage, target, &warm_state[..])])?;
        Ok(SystemExportSummary {
            storage,
            warm_state_bytes,
        })
    }

    /// Imports a directory written by [`export_to_dir`](Self::export_to_dir):
    /// content objects first (re-hashed, bit-rot rejected), then the warm
    /// state on top of them. A missing or structurally corrupt
    /// `warm_state.spws` degrades to a cold restart — the storage import
    /// still stands, and the reason is reported, not swallowed. Any other
    /// failure to read it fails the import.
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
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => (
                WarmRestoreReport::default(),
                Some("warm state file missing".into()),
            ),
            Err(error) => return Err(error),
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
            for (name, oid) in result.outputs.iter() {
                if &**name == "tarball" {
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

/// A run that is built, executed and conserved but not yet judged: what
/// [`SpSystem::produce`] returns and [`SpSystem::judge`] consumes. Every
/// result that compares against the reference holds a placeholder
/// status until its verdict is resolved.
pub(crate) struct ProducedRun {
    run: ValidationRun,
    /// The image the run was produced on.
    image: VmImageId,
    /// The comparisons the run owes, each with the index of the result
    /// it decides.
    verdicts: Vec<(usize, Verdict)>,
    /// The run's [`RunConfig::memoize`]: whether judging may read and
    /// fill the verdict memo.
    memoize: bool,
}

/// One comparison against the experiment's reference that a produced run
/// owes.
struct Verdict {
    /// The test id and output name the reference is kept under.
    test_id: TestId,
    output_name: &'static str,
    /// Content address of the produced output.
    oid: ObjectId,
    /// The output itself when this run produced it, compared without
    /// decoding it back; `None` for a conserved output (memo-served, or a
    /// chain's analysis histograms), compared by content address first.
    fresh: Option<TestOutput>,
}

/// What every test of one run reads, resolved once per run.
#[derive(Clone, Copy)]
struct RunContext<'a> {
    experiment: &'a RegisteredExperiment,
    env: &'a EnvironmentSpec,
    /// `env.full_label()`, the environment part of every memo key.
    env_label: &'a str,
    build: &'a StackBuild,
    config: &'a RunConfig,
}

/// A §3.1 (ii) stack build with each package's compile-test outputs (its
/// build log and, when built, its tar-ball), shared by every run the
/// build serves.
pub(crate) struct StackBuild {
    report: BuildReport,
    compile_outputs: HashMap<PackageId, TestOutputs>,
}

impl StackBuild {
    fn new(report: BuildReport) -> Self {
        let compile_outputs = report
            .records
            .values()
            .map(|r| (r.package.clone(), compile_outputs(&r.log, r.artifact)))
            .collect();
        StackBuild {
            report,
            compile_outputs,
        }
    }
}

/// A compile test's outputs: its build log and, when built, its tar-ball.
fn compile_outputs(log: &str, artifact: Option<ObjectId>) -> TestOutputs {
    let log = ("build.log".into(), ObjectId::for_bytes(log.as_bytes()));
    match artifact {
        Some(artifact) => Arc::from([log, ("tarball".into(), artifact)]),
        None => Arc::from([log]),
    }
}

/// A unit check's or standalone executable's one output.
fn result_outputs(oid: ObjectId) -> TestOutputs {
    Arc::from([("result".into(), oid)])
}

/// Whether every output in `outputs` is still in the content store.
fn outputs_conserved(content: &sp_store::ContentStore, outputs: &TestOutputs) -> bool {
    outputs.iter().all(|(_, oid)| content.contains(*oid))
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
/// the validation-stage comparison are decided at replay time — the
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
    pub(crate) outputs: TestOutputs,
}

/// The memoised production of one whole chain test, in stage-report order.
#[derive(Clone)]
pub(crate) struct MemoizedChain {
    pub(crate) stages: Vec<MemoizedStage>,
}

impl MemoizedChain {
    /// Whether every stage output is still in the content store; a pruned
    /// object means the production can no longer be replayed.
    fn outputs_present(&self, content: &sp_store::ContentStore) -> bool {
        self.stages
            .iter()
            .all(|stage| outputs_conserved(content, &stage.outputs))
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

/// Folds a comparison outcome into the resulting test status. A failed
/// status shares the outcome's detail text.
fn status_from_outcome(outcome: &CompareOutcome) -> TestStatus {
    match outcome {
        CompareOutcome::Differs { detail } => {
            TestStatus::Failed(FailureKind::ComparisonFailed(Arc::clone(detail)))
        }
        CompareOutcome::Identical | CompareOutcome::WithinTolerance { .. } => TestStatus::Passed,
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
    use sp_exec::{ChainDef, CronSchedule, StageDef};

    /// A small but complete experiment: a clean library, a 64-bit-latent
    /// buggy library, an analysis linking the buggy library, and a chain.
    fn tiny_experiment() -> ExperimentDef {
        tiny_experiment_with_chain(ChainDef::full_analysis_chain("nc"))
    }

    /// [`tiny_experiment`] with `chain` as its chain test.
    fn tiny_experiment_with_chain(chain: ChainDef) -> ExperimentDef {
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
                    chain,
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
    fn a_data_stage_missing_its_upstream_need_fails_without_a_panic() {
        // `sim` consumes `mcgen`'s events but does not declare it.
        let chain = ChainDef::new(
            "odd",
            vec![
                StageDef::new("mcgen", &[]),
                StageDef::new("sim", &[]),
                StageDef::new("dst", &["sim"]),
            ],
        )
        .unwrap();
        let system = SpSystem::new();
        let image = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        system
            .register_experiment(tiny_experiment_with_chain(chain))
            .unwrap();
        let run = system.run_validation("tiny", image, &config()).unwrap();
        let stage = |name: &str| {
            run.results
                .iter()
                .find(|r| r.test.as_str() == format!("tiny/chain/nc/{name}"))
                .unwrap()
        };
        assert_eq!(stage("mcgen").status, TestStatus::Passed);
        assert_eq!(stage("mcgen").outputs.len(), 1, "gen.dst is written");
        assert_eq!(
            stage("sim").status,
            TestStatus::Failed(FailureKind::ChainStageFailed("sim".to_string()))
        );
        assert!(matches!(stage("dst").status, TestStatus::Skipped(_)));
        assert!(stage("dst").outputs.is_empty());
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
    fn memo_served_results_share_their_names_and_outputs() {
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
        let second = system.run_validation("tiny", image, &memo_config).unwrap();
        assert_eq!(first.results.len(), second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert!(
                Arc::ptr_eq(&a.test.0, &b.test.0),
                "{} copied its id",
                a.test
            );
            assert!(
                Arc::ptr_eq(&a.group, &b.group),
                "{} copied its group",
                a.test
            );
            assert!(
                Arc::ptr_eq(&a.outputs, &b.outputs),
                "{} copied its outputs",
                a.test
            );
        }
        // A suite test's result holds the registered definition's id and
        // group.
        let def = system.experiment("tiny").unwrap();
        for test in def.suite.tests() {
            let result = second.results.iter().find(|r| r.test == test.id);
            if let Some(result) = result {
                assert!(Arc::ptr_eq(&result.test.0, &test.id.0));
                assert!(Arc::ptr_eq(&result.group, &test.group));
            }
        }
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
    fn memoized_chain_keeps_its_recorded_validation_status() {
        // The chain's validation stage runs its own package, which calls an
        // interface every catalogue OS has dropped: it crashes on every run.
        let crashing = || {
            let mut def = tiny_experiment();
            let validator = Package::new("val-pkg", Version::new(1, 0, 0), PackageKind::Analysis)
                .dep("util")
                .with_trait(CodeTrait::LegacySyscall { breaks_at_abi: 0 });
            def.graph =
                DependencyGraph::from_packages(def.graph.packages().cloned().chain([validator]))
                    .unwrap();
            let mut suite = TestSuite::new("tiny", PreservationLevel::FullSoftware);
            for test in def.suite.tests() {
                let mut test = test.clone();
                if let TestKind::Chain { stage_packages, .. } = &mut test.kind {
                    stage_packages.insert("validation".to_string(), PackageId::new("val-pkg"));
                }
                suite.add(test).unwrap();
            }
            def.suite = suite;
            def
        };
        let runs = |memoize: bool| {
            let system = SpSystem::new();
            let image = system
                .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
                .unwrap();
            system.register_experiment(crashing()).unwrap();
            let run_config = RunConfig {
                memoize,
                ..config()
            };
            let runs: Vec<ValidationRun> = (0..2)
                .map(|_| system.run_validation("tiny", image, &run_config).unwrap())
                .collect();
            (runs, system.chain_memo_stats().hits)
        };
        let validation = |run: &ValidationRun| {
            run.results
                .iter()
                .find(|r| r.test.as_str() == "tiny/chain/nc/validation")
                .map(|r| r.status.clone())
                .unwrap()
        };

        let (plain, _) = runs(false);
        let (memoized, hits) = runs(true);
        assert_eq!(hits, 1, "the second memoized run replays the chain");
        for (plain, memoized) in plain.iter().zip(&memoized) {
            assert!(
                matches!(validation(plain), TestStatus::Failed(FailureKind::Crash(_))),
                "{:?}",
                validation(plain)
            );
            assert_eq!(validation(memoized), validation(plain));
            assert_eq!(memoized.digest(), plain.digest());
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
    fn directory_import_tells_a_missing_warm_state_from_a_faulting_one() {
        use sp_store::{FaultConfig, FaultFs, ForcedFault};
        let original = SpSystem::new();
        original
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        let dir = std::env::temp_dir().join(format!("sp-warm-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        original.export_to_dir(&dir).unwrap();
        let warm_state = dir.join(WARM_STATE_FILE);

        // A warm state that cannot be read is not a missing one.
        let fs = FaultFs::over_os(FaultConfig::default());
        fs.fail_nth_read_of(&warm_state, 1, ForcedFault::Eio);
        let err = SpSystem::new().import_from_dir_fs(&dir, &fs).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));

        // A missing one degrades to a cold restart over the storage.
        std::fs::remove_file(&warm_state).unwrap();
        let restarted = SpSystem::new();
        let summary = restarted.import_from_dir_fs(&dir, &fs).unwrap();
        assert_eq!(
            summary.warm_state_error.as_deref(),
            Some("warm state file missing")
        );
        assert_eq!(summary.storage.names_restored, 1);
        std::fs::remove_dir_all(&dir).ok();
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

    /// A system with the tiny experiment's 32-bit reference run, and the
    /// 64-bit image the latent bug fails on (memoize as given).
    fn migrating_system(memoize: bool) -> (SpSystem, VmImageId, RunConfig) {
        let system = SpSystem::new();
        let sl5_32 = system
            .register_image(catalog::sl5_gcc41(Arch::I686, Version::two(5, 34)))
            .unwrap();
        let sl6_64 = system
            .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
            .unwrap();
        system.register_experiment(tiny_experiment()).unwrap();
        let config = RunConfig {
            memoize,
            ..config()
        };
        let reference = system.run_validation("tiny", sl5_32, &config).unwrap();
        assert!(reference.is_successful());
        (system, sl6_64, config)
    }

    /// The results whose comparison was decoded and run (neither absent
    /// nor identical by address).
    fn compared_apart(run: &ValidationRun) -> Vec<&TestResult> {
        run.results
            .iter()
            .filter(|r| matches!(&r.compare, Some(c) if *c != CompareOutcome::Identical))
            .collect()
    }

    /// The detail text of a result's failed comparison status.
    fn failed_detail(result: &TestResult) -> &Arc<str> {
        match &result.status {
            TestStatus::Failed(FailureKind::ComparisonFailed(detail)) => detail,
            other => panic!("{} did not fail its comparison: {other:?}", result.test),
        }
    }

    #[test]
    fn a_failing_comparison_is_a_verdict_memo_hit_on_the_second_night() {
        let (system, sl6_64, config) = migrating_system(true);
        let first = system.run_validation("tiny", sl6_64, &config).unwrap();
        let compared = compared_apart(&first).len() as u64;
        assert!(
            first.failures().any(|r| r.compare.is_some()),
            "the migration fails a comparison"
        );
        let stats = system.verdict_memo_stats();
        assert_eq!((stats.hits, stats.misses), (0, compared));
        assert_eq!(stats.entries as u64, compared);

        let second = system.run_validation("tiny", sl6_64, &config).unwrap();
        let stats = system.verdict_memo_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (compared, compared),
            "every comparison of the second night is served"
        );
        assert_eq!(second.digest(), first.digest());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!((&a.status, &a.compare), (&b.status, &b.compare));
        }
    }

    #[test]
    fn a_failed_comparison_keeps_one_detail_text() {
        let (system, sl6_64, config) = migrating_system(true);
        let nights: Vec<ValidationRun> = (0..3)
            .map(|_| system.run_validation("tiny", sl6_64, &config).unwrap())
            .collect();
        let failed = |run: &ValidationRun| -> Vec<(Arc<str>, Arc<str>)> {
            run.failures()
                .filter_map(|r| match &r.compare {
                    Some(CompareOutcome::Differs { detail }) => {
                        Some((Arc::clone(failed_detail(r)), Arc::clone(detail)))
                    }
                    _ => None,
                })
                .collect()
        };
        let (second, third) = (failed(&nights[1]), failed(&nights[2]));
        assert!(!second.is_empty());
        assert_eq!(second.len(), third.len());
        for ((status, compare), (later_status, later_compare)) in second.iter().zip(&third) {
            assert!(Arc::ptr_eq(status, compare), "status copied its detail");
            assert!(
                Arc::ptr_eq(compare, later_compare) && Arc::ptr_eq(status, later_status),
                "a memo hit hands out the memo's text"
            );
        }
    }

    #[test]
    fn memo_off_runs_neither_read_nor_fill_the_verdict_memo() {
        let (system, sl6_64, config) = migrating_system(false);
        for _ in 0..2 {
            let run = system.run_validation("tiny", sl6_64, &config).unwrap();
            assert!(!compared_apart(&run).is_empty());
        }
        let stats = system.verdict_memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn a_verdict_whose_objects_were_removed_is_not_served() {
        // Night 1 judges (and, memo on, memoises) the failing histogram
        // comparison; night 2 is produced, one side of that comparison is
        // removed from the content store, and the night is judged.
        let night = |memoize: bool, remove_reference: bool| {
            let (system, sl6_64, config) = migrating_system(memoize);
            let first = system.run_validation("tiny", sl6_64, &config).unwrap();
            let run_id = system.reserve_run_ids(1);
            let produced = system
                .produce("tiny", sl6_64, &config, run_id, system.clock().now())
                .unwrap();
            let (index, verdict) = produced
                .verdicts
                .iter()
                .find(|(_, verdict)| verdict.output_name == "histograms")
                .expect("the chain owes a histogram comparison");
            let reference = system
                .ledger()
                .reference_output_ids("tiny", [(*index, &verdict.test_id, "histograms")])[0]
                .expect("the 32-bit run is the reference");
            assert_ne!(verdict.oid, reference, "the comparison fails");
            let victim = if remove_reference {
                reference
            } else {
                verdict.oid
            };
            assert!(system.storage().content().remove(victim));
            let key = (verdict.oid, reference);
            let judged = system.judge(produced);
            let others = compared_apart(&first).len() as u64 - 1;
            let stats = system.verdict_memo_stats();
            if memoize {
                assert_eq!(stats.hits, others, "every other pair is served");
                assert!(system.verdict_memo.peek(&key).is_none(), "evicted");
            }
            judged
        };
        for remove_reference in [false, true] {
            let memoized = night(true, remove_reference);
            let plain = night(false, remove_reference);
            for (a, b) in memoized.results.iter().zip(&plain.results) {
                assert_eq!(
                    (&a.status, &a.compare),
                    (&b.status, &b.compare),
                    "{} (reference removed: {remove_reference})",
                    a.test
                );
            }
            let validation = memoized
                .results
                .iter()
                .find(|r| r.test.as_str() == "tiny/chain/nc/validation")
                .unwrap();
            if remove_reference {
                assert_eq!(validation.status, TestStatus::Passed);
            } else {
                assert_eq!(&**failed_detail(validation), "histograms output unreadable");
            }
            assert_eq!(validation.compare, None, "{validation:?}");
        }
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
            for (name, oid) in result.outputs.iter() {
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

    /// One run of a four-test suite, in one of seven variants: the base run,
    /// or a run that differs from it in one glyph (`X`), one status of the
    /// same glyph (`w` with another count), one output address, one test
    /// id, or its result count (one result fewer or one more). Test ids
    /// and outputs are the suite's shared ones or, when `fresh`, equal
    /// text in new allocations.
    fn digest_memo_run(
        id: u64,
        experiment: &str,
        variant: u8,
        which: usize,
        fresh: bool,
        shared: &[(TestId, TestOutputs)],
    ) -> ValidationRun {
        let mut results: Vec<TestResult> = shared
            .iter()
            .map(|(test, outputs)| TestResult {
                test: if fresh {
                    TestId::new(test.as_str())
                } else {
                    test.clone()
                },
                category: TestCategory::Compilation,
                group: "compilation".into(),
                job: JobId(id),
                status: TestStatus::PassedWithWarnings(1),
                outputs: if fresh {
                    outputs.iter().cloned().collect()
                } else {
                    Arc::clone(outputs)
                },
                compare: None,
            })
            .collect();
        let k = which % results.len();
        match variant {
            1 => results[k].status = TestStatus::Failed(FailureKind::CompileError),
            2 => results[k].status = TestStatus::PassedWithWarnings(7),
            3 => {
                let mut outputs = results[k].outputs.to_vec();
                outputs[0].1 = ObjectId::for_bytes(b"another output");
                results[k].outputs = outputs.into();
            }
            4 => results[k].test = TestId::new(format!("{}-renamed", results[k].test)),
            5 => {
                results.remove(k);
            }
            6 => results.push(TestResult {
                test: TestId::new("zz-extra"),
                ..results[k].clone()
            }),
            _ => {}
        }
        ValidationRun {
            id: RunId(id),
            experiment: experiment.into(),
            image_label: "SL6/64bit gcc4.4".into(),
            description: String::new(),
            timestamp: id,
            results,
        }
    }

    proptest::proptest! {
        /// Whatever sequence of runs a few (experiment, image) cells judge,
        /// the digest in each conserved SUMMARY is the run's own
        /// `ValidationRun::digest`: the digest memo serves a cell's last
        /// digest only to a run whose results hash the same text.
        #[test]
        fn served_digests_equal_hashed_digests(
            steps in proptest::collection::vec(
                (0usize..4, 0u8..7, 0usize..4, proptest::bool::ANY),
                1..40,
            ),
        ) {
            let system = SpSystem::new();
            let shared: Vec<(TestId, TestOutputs)> = (0..4)
                .map(|i| {
                    let outputs: TestOutputs = (0..2)
                        .map(|j| {
                            let name: Arc<str> = ["log", "histograms"][j].into();
                            (name, ObjectId::for_bytes(format!("t{i}-{j}").as_bytes()))
                        })
                        .collect();
                    (TestId::new(format!("t{i}")), outputs)
                })
                .collect();
            for (id, (cell, variant, which, fresh)) in steps.into_iter().enumerate() {
                let experiment = ["a", "b"][cell / 2];
                let image = VmImageId(cell as u32 % 2);
                let id = id as u64 + 1;
                let run = digest_memo_run(id, experiment, variant, which, fresh, &shared);
                let expected = run.digest();
                let judged = system.judge(ProducedRun {
                    run,
                    image,
                    verdicts: Vec::new(),
                    memoize: false,
                });
                let summary = system
                    .storage()
                    .get_named(StorageArea::Results, &format!("{}/SUMMARY", judged.id))
                    .unwrap()
                    .unwrap();
                let summary = std::str::from_utf8(&summary).unwrap();
                proptest::prop_assert!(
                    summary.ends_with(&format!("digest {}\n", expected.to_hex())),
                    "{}", summary
                );
            }
        }
    }

    #[test]
    fn an_unchanged_cell_is_served_its_digest() {
        let system = SpSystem::new();
        let shared: Vec<(TestId, TestOutputs)> = vec![(
            TestId::new("t0"),
            Arc::from([("log".into(), ObjectId::for_bytes(b"t0"))]),
        )];
        let image = VmImageId(1);
        for (variant, fresh) in [(0, false), (0, false), (0, true), (1, false), (1, true)] {
            let run = digest_memo_run(1, "a", variant, 0, fresh, &shared);
            assert_eq!(system.run_digest(image, &run), run.digest());
        }
        let stats = system.digest_memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 2, 1));
    }
}
