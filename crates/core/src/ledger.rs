//! Run bookkeeping over the common storage.
//!
//! The ledger records every validation run, resolves the *reference* run a
//! new run must be compared against ("any differences compared to the last
//! successful test are examined", §3.1 iii), and serves the queries the
//! script-based web pages of §3.3 need ("record and display available
//! validation runs for a given description").
//!
//! ## How a logged run is kept
//!
//! Every run is kept under its unique id (§3.3), so what one logged run
//! holds is what a nightly deployment grows by. Most of a
//! [`ValidationRun`]'s results repeat what every run of its experiment
//! holds: each result's test id, category and group. A logged run is
//! therefore its id, strings and timestamp plus
//!
//! - a **shape**: one header (test id, category, group) per result, shared
//!   by every logged run of the experiment whose results carry the same
//!   headers in the same order;
//! - one 40-byte **row** per result: the job, the shared [`TestOutputs`]
//!   slice and an outcome that holds the common cases (passed without a
//!   comparison, passed identical to the reference) inline and boxes the
//!   rare ones.
//!
//! [`runs`](RunLedger::runs), [`get`](RunLedger::get) and
//! [`latest_successful`](RunLedger::latest_successful) rebuild exact
//! [`ValidationRun`]s; [`prune`](RunLedger::prune),
//! [`retract_range`](RunLedger::retract_range) and the success checks read
//! the rows. The campaign scheduler packs each run in its judge lane, so
//! the round barrier only appends.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sp_exec::JobId;
use sp_store::ObjectId;

use crate::compare::CompareOutcome;
use crate::run::{RunId, TestResult, TestStatus, ValidationRun};
use crate::test::{TestCategory, TestId};

/// Named output objects of one test (name → content address pairs). The
/// slice and its names are shared: a memo-served result holds the slice
/// its memo entry holds, and promoting a result to reference status
/// copies no output.
pub type TestOutputs = Arc<[(Arc<str>, ObjectId)]>;

/// A captured copy of one experiment's references (`None` = the
/// experiment had no references), restorable via
/// [`RunLedger::restore_reference_state`].
pub type ReferenceState = Option<TestReferences>;

/// One experiment's references: for every test a successful run of it
/// had, in test-id order, the outputs of the last such run.
///
/// A nightly experiment promotes runs with the same tests every time, so
/// the test ids are one slice shared by every promotion and captured
/// state while they stay the same, and a run whose results list exactly
/// these tests (the steady state) is promoted, and its comparisons
/// resolved, by position: a pointer compare per test instead of a map
/// walk by test-id text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestReferences {
    tests: Arc<[TestId]>,
    outputs: Vec<TestOutputs>,
}

impl TestReferences {
    /// Builds the references from `(test, outputs)` pairs in strictly
    /// increasing test-id order.
    fn from_sorted(entries: impl IntoIterator<Item = (TestId, TestOutputs)>) -> Self {
        let (tests, outputs): (Vec<TestId>, Vec<TestOutputs>) = entries.into_iter().unzip();
        TestReferences {
            tests: tests.into(),
            outputs,
        }
    }

    fn entries(&self) -> impl Iterator<Item = (&TestId, &TestOutputs)> {
        self.tests.iter().zip(&self.outputs)
    }

    /// The references as a map, to merge other tests into.
    fn by_test(&self) -> BTreeMap<TestId, TestOutputs> {
        self.entries()
            .map(|(test, outputs)| (test.clone(), Arc::clone(outputs)))
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The outputs of `test`, looked up at `position` first (where it is
    /// when the references hold the same tests as the asking run), then
    /// by binary search.
    fn get(&self, position: usize, test: &TestId) -> Option<&TestOutputs> {
        let index = match self.tests.get(position) {
            Some(held) if held == test => position,
            _ => self
                .tests
                .binary_search_by(|held| held.as_str().cmp(test.as_str()))
                .ok()?,
        };
        Some(&self.outputs[index])
    }

    /// Makes every result's outputs the reference of its test, in result
    /// order.
    fn promote(&mut self, results: &[TestResult]) {
        let same_tests = self.tests.len() == results.len()
            && self
                .tests
                .iter()
                .zip(results)
                .all(|(test, r)| *test == r.test);
        if same_tests {
            for (outputs, r) in self.outputs.iter_mut().zip(results) {
                *outputs = Arc::clone(&r.outputs);
            }
            return;
        }
        let mut merged = self.by_test();
        for r in results {
            // Keyed by the run's own id, so the next run of the same
            // tests promotes by position.
            merged.remove(&r.test);
            merged.insert(r.test.clone(), Arc::clone(&r.outputs));
        }
        *self = TestReferences::from_sorted(merged);
    }

    /// Adds the tests of `tests` it does not hold yet, returning how many.
    fn absorb(&mut self, tests: BTreeMap<String, TestOutputs>) -> usize {
        let mut merged = self.by_test();
        let before = merged.len();
        for (test, outputs) in tests {
            merged.entry(TestId::new(test)).or_insert(outputs);
        }
        let absorbed = merged.len() - before;
        *self = TestReferences::from_sorted(merged);
        absorbed
    }

    /// The references as a map from test-id text.
    fn to_map(&self) -> BTreeMap<String, TestOutputs> {
        self.entries()
            .map(|(test, outputs)| (test.as_str().to_string(), Arc::clone(outputs)))
            .collect()
    }
}

/// What identifies one result within its experiment's suite.
struct Header {
    test: TestId,
    category: TestCategory,
    group: Arc<str>,
}

impl Header {
    fn of(result: &TestResult) -> Self {
        Header {
            test: result.test.clone(),
            category: result.category,
            group: Arc::clone(&result.group),
        }
    }

    /// Whether `result` carries this header (`Arc<str>` equality checks
    /// the pointer first, so a suite's own strings compare in O(1)).
    fn fits(&self, result: &TestResult) -> bool {
        self.test == result.test && self.category == result.category && self.group == result.group
    }
}

/// A result's status and comparison verdict: the two cases nearly every
/// result of a nightly run has inline, the rest boxed.
enum Outcome {
    /// [`TestStatus::Passed`], not compared.
    Passed,
    /// [`TestStatus::Passed`], compared [`CompareOutcome::Identical`].
    PassedIdentical,
    /// Any other status and comparison.
    Other(Box<(TestStatus, Option<CompareOutcome>)>),
}

impl Outcome {
    fn of(result: &TestResult) -> Self {
        match (&result.status, &result.compare) {
            (TestStatus::Passed, None) => Outcome::Passed,
            (TestStatus::Passed, Some(CompareOutcome::Identical)) => Outcome::PassedIdentical,
            (status, compare) => Outcome::Other(Box::new((status.clone(), compare.clone()))),
        }
    }

    fn is_pass(&self) -> bool {
        match self {
            Outcome::Passed | Outcome::PassedIdentical => true,
            Outcome::Other(other) => other.0.is_pass(),
        }
    }

    fn unpack(&self) -> (TestStatus, Option<CompareOutcome>) {
        match self {
            Outcome::Passed => (TestStatus::Passed, None),
            Outcome::PassedIdentical => (TestStatus::Passed, Some(CompareOutcome::Identical)),
            Outcome::Other(other) => (**other).clone(),
        }
    }
}

/// What one result of a logged run holds beyond its header.
struct Row {
    job: JobId,
    outputs: TestOutputs,
    outcome: Outcome,
}

/// A run as the ledger keeps it: a shape shared with the experiment's
/// other runs and one row per result (see the module docs).
pub(crate) struct LoggedRun {
    id: RunId,
    experiment: String,
    image_label: String,
    description: String,
    timestamp: u64,
    shape: Arc<[Header]>,
    rows: Box<[Row]>,
}

impl LoggedRun {
    fn is_successful(&self) -> bool {
        self.rows.iter().all(|row| row.outcome.is_pass())
    }

    /// Content addresses of every output the run holds.
    fn output_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.rows
            .iter()
            .flat_map(|row| row.outputs.iter().map(|(_, oid)| *oid))
    }

    /// The exact run that was packed.
    fn unpack(&self) -> ValidationRun {
        ValidationRun {
            id: self.id,
            experiment: self.experiment.clone(),
            image_label: self.image_label.clone(),
            description: self.description.clone(),
            timestamp: self.timestamp,
            results: self
                .shape
                .iter()
                .zip(self.rows.iter())
                .map(|(header, row)| {
                    let (status, compare) = row.outcome.unpack();
                    TestResult {
                        test: header.test.clone(),
                        category: header.category,
                        group: Arc::clone(&header.group),
                        job: row.job,
                        status,
                        outputs: Arc::clone(&row.outputs),
                        compare,
                    }
                })
                .collect(),
        }
    }
}

/// In-memory run ledger with per-test reference-output tracking.
#[derive(Default)]
pub struct RunLedger {
    runs: RwLock<Vec<LoggedRun>>,
    /// experiment → its references (per test, the outputs of the last
    /// successful run that had it).
    references: RwLock<BTreeMap<String, TestReferences>>,
    /// experiment → the shapes its runs were packed over, newest last.
    shapes: Mutex<BTreeMap<String, Vec<Arc<[Header]>>>>,
}

impl RunLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RunLedger::default()
    }

    /// Records a completed run. If the run validated successfully, its
    /// outputs become the new reference for the experiment.
    pub fn record(&self, run: &ValidationRun) {
        self.promote(run);
        let logged = self.pack(run);
        self.runs.write().push(logged);
    }

    /// Promotes a successful run's outputs to reference status *without*
    /// appending it to the run log. No-op for failed runs.
    ///
    /// This is the half of [`record`](Self::record) the parallel campaign
    /// engine needs mid-repetition: an experiment lane must update its
    /// references in image order (the next run of the same experiment
    /// compares against them), while the run log itself is appended once
    /// per repetition so the recording order stays deterministic across
    /// worker counts.
    pub fn promote(&self, run: &ValidationRun) {
        promote_into(&mut self.references.write(), run);
    }

    /// Packs a run into the form the ledger keeps, over the experiment's
    /// shape for its headers (a new shape if no earlier run had them). The
    /// campaign scheduler packs in each judge lane, so the barrier only
    /// [`append`](Self::append)s.
    pub(crate) fn pack(&self, run: &ValidationRun) -> LoggedRun {
        LoggedRun {
            id: run.id,
            experiment: run.experiment.clone(),
            image_label: run.image_label.clone(),
            description: run.description.clone(),
            timestamp: run.timestamp,
            shape: self.shape_of(run),
            rows: run
                .results
                .iter()
                .map(|result| Row {
                    job: result.job,
                    outputs: Arc::clone(&result.outputs),
                    outcome: Outcome::of(result),
                })
                .collect(),
        }
    }

    /// The shape of `run`'s results, shared with every run of its
    /// experiment that had the same headers.
    fn shape_of(&self, run: &ValidationRun) -> Arc<[Header]> {
        let fits = |shape: &[Header]| {
            shape.len() == run.results.len()
                && shape
                    .iter()
                    .zip(&run.results)
                    .all(|(header, result)| header.fits(result))
        };
        let mut shapes = self.shapes.lock();
        let known = match shapes.get_mut(run.experiment.as_str()) {
            Some(known) => known,
            None => shapes.entry(run.experiment.clone()).or_default(),
        };
        if let Some(shape) = known.iter().rev().find(|shape| fits(shape)) {
            return Arc::clone(shape);
        }
        // A shape only this cache holds belongs to no run any more.
        known.retain(|shape| Arc::strong_count(shape) > 1);
        let shape: Arc<[Header]> = run.results.iter().map(Header::of).collect();
        known.push(Arc::clone(&shape));
        shape
    }

    /// Appends runs packed by [`pack`](Self::pack) under one write lock,
    /// without touching the references.
    pub(crate) fn append(&self, runs: Vec<LoggedRun>) {
        if runs.is_empty() {
            return;
        }
        self.runs.write().extend(runs);
    }

    /// Removes every logged run whose id falls in `[first, first+count)`,
    /// returning how many were retracted.
    ///
    /// This is the fencing-rollback primitive of the fleet worker: a
    /// campaign executed under a lease that was fenced away mid-flight
    /// has already logged its repetitions locally, but as far as the
    /// queue is concerned those runs never happened — another worker owns
    /// (and will re-log) the same pre-reserved id range. Retracting them
    /// keeps the local invariant that each reserved range appears in the
    /// ledger exactly once, so re-leasing your own fenced-away campaign
    /// is indistinguishable from leasing a stranger's.
    pub fn retract_range(&self, first: RunId, count: u64) -> usize {
        if count == 0 {
            return 0;
        }
        let end = first.0.saturating_add(count);
        let mut runs = self.runs.write();
        let before = runs.len();
        runs.retain(|run| run.id.0 < first.0 || run.id.0 >= end);
        before - runs.len()
    }

    /// Captures one experiment's current reference map. The campaign
    /// scheduler snapshots this before dispatching a repetition: lanes
    /// promote references *as they run* (the next run of the same
    /// experiment must compare against them), so a repetition discarded by
    /// cancellation needs its promotions rolled back — references of a
    /// run that officially never happened must not leak into later work.
    pub fn reference_state(&self, experiment: &str) -> ReferenceState {
        self.references.read().get(experiment).cloned()
    }

    /// Restores an experiment's reference map to a previously captured
    /// [`reference_state`](Self::reference_state) (`None` removes it).
    pub fn restore_reference_state(&self, experiment: &str, state: ReferenceState) {
        let mut refs = self.references.write();
        match state {
            Some(references) => {
                refs.insert(experiment.to_string(), references);
            }
            None => {
                refs.remove(experiment);
            }
        }
    }

    /// Snapshot of the whole reference map — one `(experiment, test map)`
    /// pair per experiment, in name order — for the warm-state exporter.
    /// Together with [`absorb_references`](Self::absorb_references) this
    /// is what lets a restarted system compare its first post-restore run
    /// of each experiment against the pre-restart reference instead of
    /// bootstrapping a new one.
    pub fn export_references(&self) -> Vec<(String, BTreeMap<String, TestOutputs>)> {
        self.references
            .read()
            .iter()
            .map(|(experiment, tests)| (experiment.clone(), tests.to_map()))
            .collect()
    }

    /// Restores reference entries exported by
    /// [`export_references`](Self::export_references). Entries merge
    /// test-wise into the current map but **never overwrite** a reference
    /// a live run has already promoted — on a restarted system the
    /// snapshot only fills gaps, it cannot travel a reference back in
    /// time. Returns how many test references were absorbed.
    pub fn absorb_references(
        &self,
        entries: Vec<(String, BTreeMap<String, TestOutputs>)>,
    ) -> usize {
        let mut refs = self.references.write();
        entries
            .into_iter()
            .map(|(experiment, tests)| refs.entry(experiment).or_default().absorb(tests))
            .sum()
    }

    /// Content addresses of named reference outputs of one experiment, one
    /// per `(position, test id, output name)` triple in `outputs` (`None`
    /// where the experiment has no such reference), all resolved under one
    /// read of the references. A run's judge phase resolves every
    /// comparison it owes through one call: only the run's own experiment
    /// lane promotes that experiment's references, so none can move in
    /// between. The position is the test's index among the run's results,
    /// where the references hold it when they hold the run's tests.
    pub(crate) fn reference_output_ids<'a>(
        &self,
        experiment: &str,
        outputs: impl IntoIterator<Item = (usize, &'a TestId, &'a str)>,
    ) -> Vec<Option<ObjectId>> {
        let references = self.references.read();
        let tests = references.get(experiment);
        outputs
            .into_iter()
            .map(|(position, test, output_name)| {
                tests?
                    .get(position, test)?
                    .iter()
                    .find(|(name, _)| **name == *output_name)
                    .map(|(_, id)| *id)
            })
            .collect()
    }

    /// Whether an experiment has any reference at all (false before its
    /// first successful run).
    pub fn has_reference(&self, experiment: &str) -> bool {
        self.references
            .read()
            .get(experiment)
            .map(|t| !t.is_empty())
            .unwrap_or(false)
    }

    /// Total number of recorded runs.
    pub fn run_count(&self) -> usize {
        self.runs.read().len()
    }

    /// All runs (rebuilt) in recording order.
    pub fn runs(&self) -> Vec<ValidationRun> {
        self.runs.read().iter().map(LoggedRun::unpack).collect()
    }

    /// The most recent *successful* run of an experiment (any image).
    pub fn latest_successful(&self, experiment: &str) -> Option<ValidationRun> {
        self.runs
            .read()
            .iter()
            .rev()
            .find(|r| r.experiment == experiment && r.is_successful())
            .map(LoggedRun::unpack)
    }

    /// Looks up a run by id.
    pub fn get(&self, id: RunId) -> Option<ValidationRun> {
        self.runs
            .read()
            .iter()
            .find(|r| r.id == id)
            .map(LoggedRun::unpack)
    }

    /// [`prune`](Self::prune) with "now" read from a
    /// [`sp_store::TimeSource`] — in simulations the `sp-exec` virtual
    /// clock, so age-based retention rules are decided in simulated time,
    /// against the same clock the runs were stamped by.
    pub fn prune_at(
        &self,
        policy: &sp_store::RetentionPolicy,
        time: &impl sp_store::TimeSource,
        storage: &sp_store::ContentStore,
    ) -> PruneReport {
        self.prune(policy, time.now_secs(), storage)
    }

    /// Applies a retention policy (§3.3 keeps everything; a pruning host
    /// IT department would not): drops expired runs from the ledger and
    /// removes their now-unreferenced output objects from `storage`.
    /// Reference outputs and outputs shared with kept runs always survive.
    pub fn prune(
        &self,
        policy: &sp_store::RetentionPolicy,
        now: u64,
        storage: &sp_store::ContentStore,
    ) -> PruneReport {
        use std::collections::BTreeSet;

        let mut runs = self.runs.write();
        let references = self.references.read();

        // Reference object ids are sacrosanct.
        let mut protected: BTreeSet<ObjectId> = BTreeSet::new();
        for tests in references.values() {
            for outputs in &tests.outputs {
                protected.extend(outputs.iter().map(|(_, oid)| *oid));
            }
        }

        // The reference run of an experiment is its most recent successful
        // run — the one whose outputs were promoted into the reference map.
        let mut reference_runs: BTreeSet<RunId> = BTreeSet::new();
        {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for run in runs.iter().rev() {
                if run.is_successful() && seen.insert(run.experiment.as_str()) {
                    reference_runs.insert(run.id);
                }
            }
        }

        let records: Vec<sp_store::retention::RetentionRecord> = runs
            .iter()
            .map(|run| sp_store::retention::RetentionRecord {
                key: run.id.to_string(),
                timestamp: run.timestamp,
                successful: run.is_successful(),
                is_reference: reference_runs.contains(&run.id),
            })
            .collect();
        let (kept_keys, dropped_keys) = policy.apply(&records, now);
        let kept: BTreeSet<&String> = kept_keys.iter().collect();

        // Objects still needed: everything referenced by a kept run.
        let mut needed = protected;
        for run in runs.iter().filter(|r| kept.contains(&r.id.to_string())) {
            needed.extend(run.output_ids());
        }

        let mut objects_removed = 0usize;
        runs.retain(|run| {
            if kept.contains(&run.id.to_string()) {
                return true;
            }
            for oid in run.output_ids() {
                if !needed.contains(&oid) && storage.remove(oid) {
                    objects_removed += 1;
                }
            }
            false
        });

        PruneReport {
            kept: kept_keys.len(),
            dropped: dropped_keys.len(),
            objects_removed,
        }
    }
}

/// Makes a successful run's outputs its experiment's reference (no-op for
/// a failed run).
fn promote_into(refs: &mut BTreeMap<String, TestReferences>, run: &ValidationRun) {
    if !run.is_successful() {
        return;
    }
    // Every run after an experiment's first promotes into existing
    // references, so look up before allocating a key.
    let tests = match refs.get_mut(run.experiment.as_str()) {
        Some(tests) => tests,
        None => refs.entry(run.experiment.clone()).or_default(),
    };
    tests.promote(&run.results);
}

/// Result of a ledger pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneReport {
    /// Runs kept.
    pub kept: usize,
    /// Runs dropped from the ledger.
    pub dropped: usize,
    /// Storage objects removed (not shared with any kept run or reference).
    pub objects_removed: usize,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use sp_store::{ContentStore, RetentionPolicy};

    use super::*;
    use crate::test::FailureKind;

    /// The reference address of test `t1`'s `log` output, through the
    /// judge phase's resolver.
    fn reference_log(ledger: &RunLedger, experiment: &str) -> Option<ObjectId> {
        ledger.reference_output_ids(experiment, [(0, &TestId::new("t1"), "log")])[0]
    }

    fn run(id: u64, experiment: &str, image: &str, ok: bool) -> ValidationRun {
        ValidationRun {
            id: RunId(id),
            experiment: experiment.into(),
            image_label: image.into(),
            description: format!("{experiment} @ root 5.34"),
            timestamp: 1_000 + id,
            results: vec![TestResult {
                test: TestId::new("t1"),
                category: TestCategory::Compilation,
                group: "compilation".into(),
                job: JobId(id),
                status: if ok {
                    TestStatus::Passed
                } else {
                    TestStatus::Failed(FailureKind::CompileError)
                },
                outputs: Arc::from([(
                    "log".into(),
                    ObjectId::for_bytes(format!("out-{id}").as_bytes()),
                )]),
                compare: None,
            }],
        }
    }

    #[test]
    fn successful_runs_become_reference() {
        let ledger = RunLedger::new();
        assert!(!ledger.has_reference("h1"));
        ledger.record(&run(1, "h1", "SL5", true));
        assert!(ledger.has_reference("h1"));
        let output = reference_log(&ledger, "h1");
        assert_eq!(output, Some(ObjectId::for_bytes(b"out-1")));
    }

    #[test]
    fn failed_runs_do_not_update_reference() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        ledger.record(&run(2, "h1", "SL6", false));
        let output = reference_log(&ledger, "h1");
        assert_eq!(output, Some(ObjectId::for_bytes(b"out-1")), "still run 1");
    }

    #[test]
    fn reference_ids_resolve_each_pair_in_order() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        let (t1, t2) = (TestId::new("t1"), TestId::new("t2"));
        let ids = ledger.reference_output_ids(
            "h1",
            [
                (0, &t1, "log"),
                (0, &t1, "histograms"),
                (0, &t2, "log"),
                (5, &t1, "log"),
            ],
        );
        let log = Some(ObjectId::for_bytes(b"out-1"));
        assert_eq!(ids, [log, None, None, log]);
        assert_eq!(
            ledger.reference_output_ids("zeus", [(0, &t1, "log")]),
            [None]
        );
        assert!(ledger.reference_output_ids("h1", []).is_empty());
    }

    proptest! {
        /// Promoting runs whose tests vary (the same tests, fewer, more,
        /// or renamed ones, each as the suite's ids or equal fresh text)
        /// keeps the references a plain map promotion keeps, and every
        /// `(position, test, output)` lookup answers as a map lookup,
        /// whether the position is the test's own or any other.
        #[test]
        fn references_resolve_like_a_map(
            promotions in prop::collection::vec(
                (prop::collection::vec(0u8..12, 0..8), any::<bool>(), any::<u8>()),
                1..6,
            ),
            lookups in prop::collection::vec((0usize..10, 0u8..14, 0u8..3), 0..24),
        ) {
            let names = ["log", "histograms", "result"];
            let suite: Vec<TestId> =
                (0..14).map(|t| TestId::new(format!("h1/t{t:02}"))).collect();
            let ledger = RunLedger::new();
            let mut oracle: BTreeMap<String, TestOutputs> = BTreeMap::new();
            for (id, (tests, fresh, salt)) in promotions.into_iter().enumerate() {
                let mut tests: Vec<u8> = tests;
                tests.sort();
                tests.dedup();
                let results: Vec<TestResult> = tests
                    .iter()
                    .map(|t| {
                        let test = &suite[usize::from(*t)];
                        let count = usize::from(t.wrapping_add(salt) % 4).min(3);
                        let outputs: TestOutputs = names[..count]
                            .iter()
                            .map(|name| {
                                let text = format!("{id}-{t}-{name}");
                                (Arc::from(*name), ObjectId::for_bytes(text.as_bytes()))
                            })
                            .collect();
                        TestResult {
                            test: if fresh { TestId::new(test.as_str()) } else { test.clone() },
                            category: TestCategory::Compilation,
                            group: "compilation".into(),
                            job: JobId(id as u64),
                            status: TestStatus::Passed,
                            outputs,
                            compare: None,
                        }
                    })
                    .collect();
                for r in &results {
                    oracle.insert(r.test.as_str().to_string(), Arc::clone(&r.outputs));
                }
                ledger.promote(&ValidationRun {
                    id: RunId(id as u64),
                    experiment: "h1".into(),
                    image_label: "SL5".into(),
                    description: String::new(),
                    timestamp: id as u64,
                    results,
                });
                let exported = vec![("h1".to_string(), oracle.clone())];
                prop_assert_eq!(&ledger.export_references(), &exported);
            }
            let asked: Vec<(usize, &TestId, &str)> = lookups
                .iter()
                .map(|(position, test, name)| {
                    (*position, &suite[usize::from(*test)], names[usize::from(*name)])
                })
                .collect();
            let expected: Vec<Option<ObjectId>> = asked
                .iter()
                .map(|(_, test, name)| {
                    let outputs = oracle.get(test.as_str())?;
                    outputs.iter().find(|(n, _)| **n == **name).map(|(_, id)| *id)
                })
                .collect();
            prop_assert_eq!(ledger.reference_output_ids("h1", asked.iter().copied()), expected);
            prop_assert!(ledger
                .reference_output_ids("zeus", asked.iter().copied())
                .iter()
                .all(Option::is_none));
        }
    }

    #[test]
    fn references_are_per_experiment() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        assert!(!ledger.has_reference("zeus"));
        assert!(reference_log(&ledger, "zeus").is_none());
    }

    #[test]
    fn queries() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        ledger.record(&run(2, "h1", "SL6", false));
        ledger.record(&run(3, "zeus", "SL6", true));
        assert_eq!(ledger.run_count(), 3);
        assert_eq!(ledger.latest_successful("h1").unwrap().id, RunId(1));
        assert!(ledger.get(RunId(2)).is_some());
        assert!(ledger.get(RunId(99)).is_none());
    }

    /// Packs and appends runs the way the campaign scheduler's judge lanes
    /// and barrier do, without promoting them.
    fn append_all(ledger: &RunLedger, runs: &[ValidationRun]) {
        ledger.append(runs.iter().map(|run| ledger.pack(run)).collect());
    }

    #[test]
    fn promote_then_append_matches_sequential_record() {
        let sequential = RunLedger::new();
        let batched = RunLedger::new();
        let runs = vec![
            run(1, "h1", "SL5", true),
            run(2, "zeus", "SL5", true),
            run(3, "h1", "SL6", false),
            run(4, "h1", "SL5", true),
        ];
        for r in &runs {
            sequential.record(r);
            batched.promote(r);
        }
        append_all(&batched, &runs);
        assert_eq!(batched.runs(), sequential.runs());
        for experiment in ["h1", "zeus"] {
            assert_eq!(
                batched.reference_state(experiment),
                sequential.reference_state(experiment),
                "promotion in batch order must equal sequential promotion"
            );
            assert_eq!(
                batched.latest_successful(experiment).map(|r| r.id),
                sequential.latest_successful(experiment).map(|r| r.id)
            );
        }
    }

    #[test]
    fn append_logs_without_promoting() {
        let ledger = RunLedger::new();
        append_all(
            &ledger,
            &[run(1, "h1", "SL5", true), run(2, "h1", "SL5", true)],
        );
        assert_eq!(ledger.run_count(), 2);
        assert!(
            !ledger.has_reference("h1"),
            "append must leave references untouched"
        );
        append_all(&ledger, &[]);
        assert_eq!(ledger.run_count(), 2);
    }

    #[test]
    fn promote_updates_references_without_logging() {
        let ledger = RunLedger::new();
        ledger.promote(&run(1, "h1", "SL5", true));
        assert!(ledger.has_reference("h1"));
        assert_eq!(
            ledger.run_count(),
            0,
            "promotion does not append to the log"
        );
        ledger.promote(&run(2, "h1", "SL6", false));
        assert_eq!(
            reference_log(&ledger, "h1"),
            Some(ObjectId::for_bytes(b"out-1")),
            "failures don't promote"
        );
    }

    #[test]
    fn reference_state_round_trips_and_rolls_back() {
        let ledger = RunLedger::new();
        // No references yet: the captured state is `None`, and restoring
        // it after a promotion removes the leaked entry.
        let before = ledger.reference_state("h1");
        assert!(before.is_none());
        ledger.promote(&run(1, "h1", "SL5", true));
        assert!(ledger.has_reference("h1"));
        ledger.restore_reference_state("h1", before);
        assert!(!ledger.has_reference("h1"), "promotion rolled back");

        // With an existing reference: restore brings back exactly the
        // captured outputs, not the later promotion's.
        ledger.promote(&run(1, "h1", "SL5", true));
        let captured = ledger.reference_state("h1");
        ledger.promote(&run(2, "h1", "SL6", true));
        assert_eq!(
            reference_log(&ledger, "h1"),
            Some(ObjectId::for_bytes(b"out-2"))
        );
        ledger.restore_reference_state("h1", captured);
        assert_eq!(
            reference_log(&ledger, "h1"),
            Some(ObjectId::for_bytes(b"out-1")),
            "restored to the captured state"
        );
    }

    #[test]
    fn exported_references_absorb_without_clobbering_live_state() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        ledger.record(&run(2, "zeus", "SL5", true));
        let exported = ledger.export_references();
        assert_eq!(exported.len(), 2);

        // A cold ledger absorbs everything.
        let restored = RunLedger::new();
        assert_eq!(restored.absorb_references(exported.clone()), 2);
        assert_eq!(restored.reference_state("h1"), ledger.reference_state("h1"));
        assert!(restored.has_reference("zeus"));

        // A ledger that already promoted a *newer* reference keeps it:
        // the snapshot fills gaps, it never travels references back.
        let live = RunLedger::new();
        live.record(&run(9, "h1", "SL6", true));
        let newer = live.reference_state("h1");
        assert_eq!(live.absorb_references(exported), 1, "only zeus is new");
        assert_eq!(live.reference_state("h1"), newer);
        assert!(live.has_reference("zeus"));
    }

    #[test]
    fn retract_range_removes_exactly_the_fenced_ids() {
        let ledger = RunLedger::new();
        append_all(
            &ledger,
            &[
                run(10, "h1", "SL5", true),
                run(11, "h1", "SL6", true),
                run(12, "zeus", "SL5", true),
                run(13, "zeus", "SL6", true),
            ],
        );
        assert_eq!(ledger.retract_range(RunId(11), 2), 2);
        let remaining: Vec<u64> = ledger.runs().iter().map(|r| r.id.0).collect();
        assert_eq!(remaining, vec![10, 13]);
        // Empty and non-overlapping ranges retract nothing.
        assert_eq!(ledger.retract_range(RunId(11), 0), 0);
        assert_eq!(ledger.retract_range(RunId(500), 10), 0);
        assert_eq!(ledger.run_count(), 2);
    }

    #[test]
    fn latest_successful_moves_forward() {
        let ledger = RunLedger::new();
        ledger.record(&run(1, "h1", "SL5", true));
        ledger.record(&run(2, "h1", "SL5", true));
        assert_eq!(ledger.latest_successful("h1").unwrap().id, RunId(2));
    }

    #[test]
    fn a_row_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 40);
    }

    #[test]
    fn runs_with_equal_headers_share_one_shape() {
        let ledger = RunLedger::new();
        // Equal headers in fresh strings still share the first run's shape.
        ledger.record(&run(1, "h1", "SL5", true));
        ledger.record(&run(2, "h1", "SL6", false));
        let mut regrouped = run(3, "h1", "SL5", true);
        regrouped.results[0].group = "checks".into();
        ledger.record(&regrouped);
        ledger.record(&run(4, "zeus", "SL5", true));
        let runs = ledger.runs.read();
        assert!(Arc::ptr_eq(&runs[0].shape, &runs[1].shape));
        assert!(
            !Arc::ptr_eq(&runs[0].shape, &runs[2].shape),
            "group differs"
        );
        assert!(
            !Arc::ptr_eq(&runs[0].shape, &runs[3].shape),
            "experiment differs"
        );
        drop(runs);

        // A shape no logged run holds leaves the cache when the next new
        // shape arrives.
        ledger.retract_range(RunId(3), 1);
        let mut renamed = run(5, "h1", "SL5", true);
        renamed.results[0].test = TestId::new("t2");
        ledger.record(&renamed);
        assert_eq!(ledger.shapes.lock()["h1"].len(), 2);
    }

    /// Status number `kind`: every [`TestStatus`] and [`FailureKind`]
    /// variant.
    fn any_status(kind: u8) -> TestStatus {
        match kind % 9 {
            0 => TestStatus::Passed,
            1 => TestStatus::PassedWithWarnings(kind.into()),
            2 => TestStatus::Failed(FailureKind::CompileError),
            3 => TestStatus::Failed(FailureKind::DependencyFailed("base".into())),
            4 => TestStatus::Failed(FailureKind::Crash("SIGSEGV".into())),
            5 => TestStatus::Failed(FailureKind::BadExit(-i32::from(kind))),
            6 => TestStatus::Failed(FailureKind::ComparisonFailed("chi2 = 9.1".into())),
            7 => TestStatus::Failed(FailureKind::ChainStageFailed("reco".into())),
            _ => TestStatus::Skipped("dependency failed".into()),
        }
    }

    fn any_compare(kind: u8) -> Option<CompareOutcome> {
        match kind % 4 {
            0 => None,
            1 => Some(CompareOutcome::Identical),
            2 => Some(CompareOutcome::WithinTolerance {
                detail: "worst p = 0.43".into(),
            }),
            _ => Some(CompareOutcome::Differs {
                detail: "chi2 = 9.1".into(),
            }),
        }
    }

    /// The headers of shape `variant`: 1 differs from 0 only in one group,
    /// 2 only in one category, 3 drops a result and 4 renames a test.
    fn headers(variant: u8) -> Vec<(&'static str, TestCategory, &'static str)> {
        let mut headers = vec![
            ("compile/base", TestCategory::Compilation, "compilation"),
            ("check/io", TestCategory::UnitCheck, "checks"),
            ("exe/fit", TestCategory::StandaloneExecutable, "executables"),
            ("chain/dst", TestCategory::DataValidation, "chains"),
        ];
        match variant % 5 {
            1 => headers[2].2 = "checks",
            2 => headers[1].1 = TestCategory::StandaloneExecutable,
            3 => drop(headers.pop()),
            4 => headers[3].0 = "chain/mudst",
            _ => {}
        }
        headers
    }

    /// [`RunLedger::prune`] over a plain run list.
    fn oracle_prune(
        runs: &mut Vec<ValidationRun>,
        protected: BTreeSet<ObjectId>,
        policy: &RetentionPolicy,
        now: u64,
        storage: &ContentStore,
    ) -> PruneReport {
        let mut seen = BTreeSet::new();
        let mut reference_runs = BTreeSet::new();
        for run in runs.iter().rev() {
            if run.is_successful() && seen.insert(run.experiment.clone()) {
                reference_runs.insert(run.id);
            }
        }
        let records: Vec<sp_store::retention::RetentionRecord> = runs
            .iter()
            .map(|run| sp_store::retention::RetentionRecord {
                key: run.id.to_string(),
                timestamp: run.timestamp,
                successful: run.is_successful(),
                is_reference: reference_runs.contains(&run.id),
            })
            .collect();
        let (kept, dropped) = policy.apply(&records, now);
        let outputs = |run: &ValidationRun| -> Vec<ObjectId> {
            let outputs = run.results.iter().flat_map(|result| result.outputs.iter());
            outputs.map(|(_, oid)| *oid).collect()
        };
        let (keep, drop): (Vec<_>, Vec<_>) = std::mem::take(runs)
            .into_iter()
            .partition(|run| kept.contains(&run.id.to_string()));
        let mut needed = protected;
        needed.extend(keep.iter().flat_map(outputs));
        let mut objects_removed = 0;
        for oid in drop.iter().flat_map(outputs) {
            if !needed.contains(&oid) && storage.remove(oid) {
                objects_removed += 1;
            }
        }
        *runs = keep;
        PruneReport {
            kept: kept.len(),
            dropped: dropped.len(),
            objects_removed,
        }
    }

    proptest! {
        /// Runs logged through `record` and the judge lane's `pack` +
        /// `append` read back exactly as a plain `Vec` of the same runs,
        /// through every query, retraction and pruning.
        #[test]
        fn logged_runs_read_back_like_a_plain_run_list(
            experiments in 1usize..=3,
            ops in prop::collection::vec(
                (
                    0usize..3,
                    0u8..5,
                    any::<bool>(),
                    any::<bool>(),
                    any::<bool>(),
                    any::<bool>(),
                    prop::collection::vec((any::<u8>(), 0u8..4, 0u8..4), 4),
                ),
                1..24,
            ),
            retract in (0u64..26, 0u64..6),
            policy in (0usize..6, 0usize..4, 0u64..40),
            now in 0u64..60,
        ) {
            let storage = ContentStore::new();
            let oracle_storage = ContentStore::new();
            let mut objects = Vec::new();
            let mut conserve = |bytes: String| {
                let oid = storage.put(bytes.clone().into_bytes());
                oracle_storage.put(bytes.into_bytes());
                objects.push(oid);
                oid
            };
            let shared: Vec<TestOutputs> = (0..2)
                .map(|i| Arc::from([("hist".into(), conserve(format!("shared-{i}")))]))
                .collect();
            let mut suite: BTreeMap<&str, Arc<str>> = BTreeMap::new();

            let ledger = RunLedger::new();
            let mut oracle: Vec<ValidationRun> = Vec::new();
            let mut lane: Vec<LoggedRun> = Vec::new();
            let flush = |lane: &mut Vec<LoggedRun>| ledger.append(std::mem::take(lane));
            for (id, (experiment, variant, recorded, flush_after, fresh, passes, specs)) in
                ops.into_iter().enumerate()
            {
                let experiment = ["h1", "zeus", "hermes"][experiment % experiments];
                // The suite's own strings, or equal text in fresh ones.
                let mut text = |text: &'static str| -> Arc<str> {
                    if fresh {
                        Arc::from(text)
                    } else {
                        Arc::clone(suite.entry(text).or_insert_with(|| Arc::from(text)))
                    }
                };
                let mut results = Vec::new();
                for (i, ((test, category, group), (status, compare, outputs))) in
                    headers(variant).into_iter().zip(specs).enumerate()
                {
                    let status = match (passes, status % 2) {
                        (true, 0) => TestStatus::Passed,
                        (true, _) => TestStatus::PassedWithWarnings(status.into()),
                        (false, _) => any_status(status),
                    };
                    let outputs = match outputs {
                        0 | 1 => Arc::clone(&shared[usize::from(outputs)]),
                        2 => TestOutputs::default(),
                        _ => Arc::from([("log".into(), conserve(format!("out-{id}-{i}")))]),
                    };
                    results.push(TestResult {
                        test: TestId(text(test)),
                        category,
                        group: text(group),
                        job: JobId((id * 10 + i) as u64),
                        status,
                        outputs,
                        compare: any_compare(compare),
                    });
                }
                let run = ValidationRun {
                    id: RunId(id as u64),
                    experiment: experiment.into(),
                    image_label: format!("SL{}", id % 3 + 4),
                    description: format!("{experiment} pass {id}"),
                    timestamp: 2 * id as u64,
                    results,
                };
                if recorded {
                    flush(&mut lane);
                    ledger.record(&run);
                } else {
                    ledger.promote(&run);
                    lane.push(ledger.pack(&run));
                }
                oracle.push(run);
                if flush_after {
                    flush(&mut lane);
                }
            }
            flush(&mut lane);

            prop_assert_eq!(ledger.run_count(), oracle.len());
            prop_assert_eq!(&ledger.runs(), &oracle);
            for id in 0..=oracle.len() as u64 {
                let expected = oracle.iter().find(|run| run.id.0 == id).cloned();
                prop_assert_eq!(ledger.get(RunId(id)), expected);
            }
            for experiment in ["h1", "zeus", "hermes"] {
                let expected = oracle
                    .iter()
                    .rev()
                    .find(|run| run.experiment == experiment && run.is_successful())
                    .cloned();
                prop_assert_eq!(ledger.latest_successful(experiment), expected);
            }

            let (first, count) = retract;
            let before = oracle.len();
            oracle.retain(|run| run.id.0 < first || run.id.0 >= first + count);
            prop_assert_eq!(ledger.retract_range(RunId(first), count), before - oracle.len());
            prop_assert_eq!(&ledger.runs(), &oracle);

            let (keep_last, keep_successful, failed_max_age) = policy;
            let policy = RetentionPolicy::pruning(keep_last, keep_successful, failed_max_age);
            let protected: BTreeSet<ObjectId> = ledger
                .export_references()
                .iter()
                .flat_map(|(_, tests)| tests.values())
                .flat_map(|outputs| outputs.iter().map(|(_, oid)| *oid))
                .collect();
            let expected = oracle_prune(&mut oracle, protected, &policy, now, &oracle_storage);
            prop_assert_eq!(ledger.prune(&policy, now, &storage), expected);
            prop_assert_eq!(&ledger.runs(), &oracle);
            for oid in objects {
                prop_assert_eq!(storage.contains(oid), oracle_storage.contains(oid));
            }
        }
    }
}
