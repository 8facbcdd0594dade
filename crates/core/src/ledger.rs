//! Run bookkeeping over the common storage.
//!
//! The ledger records every validation run, resolves the *reference* run a
//! new run must be compared against ("any differences compared to the last
//! successful test are examined", §3.1 iii), and serves the queries the
//! script-based web pages of §3.3 need ("record and display available
//! validation runs for a given description").

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use sp_store::ObjectId;

use crate::run::{RunId, ValidationRun};

/// Named output objects of one test (name → content address pairs). The
/// slice and its names are shared: a memo-served result holds the slice
/// its memo entry holds, and promoting a result to reference status
/// copies no output.
pub type TestOutputs = Arc<[(Arc<str>, ObjectId)]>;

/// A captured copy of one experiment's reference map (`None` = the
/// experiment had no references), restorable via
/// [`RunLedger::restore_reference_state`].
pub type ReferenceState = Option<BTreeMap<String, TestOutputs>>;

/// In-memory run ledger with per-test reference-output tracking.
#[derive(Default)]
pub struct RunLedger {
    runs: RwLock<Vec<ValidationRun>>,
    /// experiment → (test id string → reference outputs) from the last
    /// successful run of that experiment.
    references: RwLock<BTreeMap<String, BTreeMap<String, TestOutputs>>>,
}

impl RunLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RunLedger::default()
    }

    /// Records a completed run. If the run validated successfully, its
    /// outputs become the new reference for the experiment.
    pub fn record(&self, run: ValidationRun) {
        self.promote(&run);
        self.runs.write().push(run);
    }

    /// Promotes a successful run's outputs to reference status *without*
    /// appending it to the run log. No-op for failed runs.
    ///
    /// This is the half of [`record`](Self::record) the parallel campaign
    /// engine needs mid-repetition: an experiment lane must update its
    /// references in image order (the next run of the same experiment
    /// compares against them), while the run log itself is appended once
    /// per repetition via [`log_batch`](Self::log_batch) so the recording
    /// order stays deterministic across worker counts.
    pub fn promote(&self, run: &ValidationRun) {
        promote_into(&mut self.references.write(), run);
    }

    /// Records a whole batch of runs under a single lock acquisition per
    /// map (one for the references, one for the run log), instead of one
    /// per run. Reference promotion follows batch order, so committing a
    /// campaign repetition's runs in task order reproduces exactly the
    /// reference state sequential execution would have left behind.
    pub fn commit_batch(&self, runs: Vec<ValidationRun>) {
        if runs.is_empty() {
            return;
        }
        {
            let mut refs = self.references.write();
            for run in &runs {
                promote_into(&mut refs, run);
            }
        }
        self.runs.write().extend(runs);
    }

    /// Appends a batch of runs to the run log under a single lock
    /// acquisition **without touching the references** — the append half
    /// of [`commit_batch`](Self::commit_batch), for callers (the campaign
    /// engine) that already promoted each run via
    /// [`promote`](Self::promote) in dependency order and would only
    /// redo that work.
    pub fn log_batch(&self, runs: Vec<ValidationRun>) {
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
            Some(map) => {
                refs.insert(experiment.to_string(), map);
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
            .map(|(experiment, tests)| (experiment.clone(), tests.clone()))
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
        let mut absorbed = 0;
        for (experiment, tests) in entries {
            let entry = refs.entry(experiment).or_default();
            for (test, outputs) in tests {
                if let std::collections::btree_map::Entry::Vacant(slot) = entry.entry(test) {
                    slot.insert(outputs);
                    absorbed += 1;
                }
            }
        }
        absorbed
    }

    /// Content addresses of named reference outputs of one experiment, one
    /// per `(test id, output name)` pair in `outputs` (`None` where the
    /// experiment has no such reference), all resolved under one read of
    /// the references. A run's judge phase resolves every comparison it
    /// owes through one call: only the run's own experiment lane promotes
    /// that experiment's references, so none can move in between.
    pub(crate) fn reference_output_ids<'a>(
        &self,
        experiment: &str,
        outputs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Vec<Option<ObjectId>> {
        let references = self.references.read();
        let tests = references.get(experiment);
        outputs
            .into_iter()
            .map(|(test_id, output_name)| {
                tests?
                    .get(test_id)?
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

    /// All runs (cloned) in recording order.
    pub fn runs(&self) -> Vec<ValidationRun> {
        self.runs.read().clone()
    }

    /// The most recent *successful* run of an experiment (any image).
    pub fn latest_successful(&self, experiment: &str) -> Option<ValidationRun> {
        self.runs
            .read()
            .iter()
            .rev()
            .find(|r| r.experiment == experiment && r.is_successful())
            .cloned()
    }

    /// Looks up a run by id.
    pub fn get(&self, id: RunId) -> Option<ValidationRun> {
        self.runs.read().iter().find(|r| r.id == id).cloned()
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
            for outputs in tests.values() {
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
            for result in &run.results {
                needed.extend(result.outputs.iter().map(|(_, oid)| *oid));
            }
        }

        let mut objects_removed = 0usize;
        runs.retain(|run| {
            if kept.contains(&run.id.to_string()) {
                return true;
            }
            for result in &run.results {
                for (_, oid) in result.outputs.iter() {
                    if !needed.contains(oid) && storage.remove(*oid) {
                        objects_removed += 1;
                    }
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
fn promote_into(refs: &mut BTreeMap<String, BTreeMap<String, TestOutputs>>, run: &ValidationRun) {
    if !run.is_successful() {
        return;
    }
    // Every run after an experiment's first overwrites existing entries,
    // so look up before allocating a key.
    let tests = match refs.get_mut(run.experiment.as_str()) {
        Some(tests) => tests,
        None => refs.entry(run.experiment.clone()).or_default(),
    };
    for result in &run.results {
        match tests.get_mut(result.test.as_str()) {
            Some(outputs) => *outputs = result.outputs.clone(),
            None => {
                tests.insert(result.test.as_str().to_string(), result.outputs.clone());
            }
        }
    }
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
    use super::*;
    use crate::run::{TestResult, TestStatus};
    use crate::test::{FailureKind, TestCategory, TestId};
    use sp_exec::JobId;

    /// The reference address of test `t1`'s `log` output, through the
    /// judge phase's resolver.
    fn reference_log(ledger: &RunLedger, experiment: &str) -> Option<ObjectId> {
        ledger.reference_output_ids(experiment, [("t1", "log")])[0]
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
        ledger.record(run(1, "h1", "SL5", true));
        assert!(ledger.has_reference("h1"));
        let output = reference_log(&ledger, "h1");
        assert_eq!(output, Some(ObjectId::for_bytes(b"out-1")));
    }

    #[test]
    fn failed_runs_do_not_update_reference() {
        let ledger = RunLedger::new();
        ledger.record(run(1, "h1", "SL5", true));
        ledger.record(run(2, "h1", "SL6", false));
        let output = reference_log(&ledger, "h1");
        assert_eq!(output, Some(ObjectId::for_bytes(b"out-1")), "still run 1");
    }

    #[test]
    fn reference_ids_resolve_each_pair_in_order() {
        let ledger = RunLedger::new();
        ledger.record(run(1, "h1", "SL5", true));
        let ids = ledger.reference_output_ids(
            "h1",
            [
                ("t1", "log"),
                ("t1", "histograms"),
                ("t2", "log"),
                ("t1", "log"),
            ],
        );
        let log = Some(ObjectId::for_bytes(b"out-1"));
        assert_eq!(ids, [log, None, None, log]);
        assert_eq!(ledger.reference_output_ids("zeus", [("t1", "log")]), [None]);
        assert!(ledger.reference_output_ids("h1", []).is_empty());
    }

    #[test]
    fn references_are_per_experiment() {
        let ledger = RunLedger::new();
        ledger.record(run(1, "h1", "SL5", true));
        assert!(!ledger.has_reference("zeus"));
        assert!(reference_log(&ledger, "zeus").is_none());
    }

    #[test]
    fn queries() {
        let ledger = RunLedger::new();
        ledger.record(run(1, "h1", "SL5", true));
        ledger.record(run(2, "h1", "SL6", false));
        ledger.record(run(3, "zeus", "SL6", true));
        assert_eq!(ledger.run_count(), 3);
        assert_eq!(ledger.latest_successful("h1").unwrap().id, RunId(1));
        assert!(ledger.get(RunId(2)).is_some());
        assert!(ledger.get(RunId(99)).is_none());
    }

    #[test]
    fn commit_batch_matches_sequential_record() {
        let sequential = RunLedger::new();
        let batched = RunLedger::new();
        let runs = vec![
            run(1, "h1", "SL5", true),
            run(2, "zeus", "SL5", true),
            run(3, "h1", "SL6", false),
            run(4, "h1", "SL5", true),
        ];
        for r in runs.clone() {
            sequential.record(r);
        }
        batched.commit_batch(runs);
        assert_eq!(batched.run_count(), sequential.run_count());
        for experiment in ["h1", "zeus"] {
            assert_eq!(
                batched.reference_state(experiment),
                sequential.reference_state(experiment),
                "batch-order promotion must equal sequential promotion"
            );
            assert_eq!(
                batched.latest_successful(experiment).map(|r| r.id),
                sequential.latest_successful(experiment).map(|r| r.id)
            );
        }
        batched.commit_batch(Vec::new());
        assert_eq!(batched.run_count(), 4, "empty batch is a no-op");
    }

    #[test]
    fn log_batch_appends_without_promoting() {
        let ledger = RunLedger::new();
        ledger.log_batch(vec![run(1, "h1", "SL5", true), run(2, "h1", "SL5", true)]);
        assert_eq!(ledger.run_count(), 2);
        assert!(
            !ledger.has_reference("h1"),
            "log_batch must leave references untouched"
        );
        ledger.log_batch(Vec::new());
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
        ledger.record(run(1, "h1", "SL5", true));
        ledger.record(run(2, "zeus", "SL5", true));
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
        live.record(run(9, "h1", "SL6", true));
        let newer = live.reference_state("h1");
        assert_eq!(live.absorb_references(exported), 1, "only zeus is new");
        assert_eq!(live.reference_state("h1"), newer);
        assert!(live.has_reference("zeus"));
    }

    #[test]
    fn retract_range_removes_exactly_the_fenced_ids() {
        let ledger = RunLedger::new();
        ledger.log_batch(vec![
            run(10, "h1", "SL5", true),
            run(11, "h1", "SL6", true),
            run(12, "zeus", "SL5", true),
            run(13, "zeus", "SL6", true),
        ]);
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
        ledger.record(run(1, "h1", "SL5", true));
        ledger.record(run(2, "h1", "SL5", true));
        assert_eq!(ledger.latest_successful("h1").unwrap().id, RunId(2));
    }
}
