//! Validation runs and their results.
//!
//! "Each test-job started in the sp-system is typically assigned a unique
//! ID, and all scripts and input files used in the test as well as all
//! output files are kept. This allows the validation of all versions
//! against each other and ensures reproducibility of previous results. In
//! addition to this unique ID, validation jobs may be tagged with a
//! description, indicating which software versions were used, and the Unix
//! time stamp of the execution to aid the bookkeeping." (§3.3)

use std::sync::Arc;

use sp_exec::JobId;
use sp_store::sha256::Sha256;
use sp_store::ObjectId;

use crate::compare::CompareOutcome;
use crate::ledger::TestOutputs;
use crate::test::{FailureKind, TestCategory, TestId};

/// Unique identifier of a validation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spr-{:06}", self.0)
    }
}

/// Terminal status of one test within a run.
#[derive(Debug, Clone, PartialEq)]
pub enum TestStatus {
    /// Everything fine, outputs compatible with the reference.
    Passed,
    /// Passed, but the build/run produced `usize` warnings.
    PassedWithWarnings(usize),
    /// Failed.
    Failed(FailureKind),
    /// Not run (dependency failures, missing artifacts).
    Skipped(String),
}

impl TestStatus {
    /// Whether the test counts as successful.
    pub fn is_pass(&self) -> bool {
        matches!(self, TestStatus::Passed | TestStatus::PassedWithWarnings(_))
    }

    /// Single-character glyph for matrix cells.
    pub fn glyph(&self) -> char {
        match self {
            TestStatus::Passed => '+',
            TestStatus::PassedWithWarnings(_) => 'w',
            TestStatus::Failed(_) => 'X',
            TestStatus::Skipped(_) => '-',
        }
    }
}

/// The result of one test in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResult {
    /// Which test.
    pub test: TestId,
    /// Its category (denormalised for reporting).
    pub category: TestCategory,
    /// Process group (Figure-3 row), shared with the test definition.
    pub group: Arc<str>,
    /// The job that executed it.
    pub job: JobId,
    /// Terminal status.
    pub status: TestStatus,
    /// Output objects kept in the common storage.
    pub outputs: TestOutputs,
    /// Comparison verdict against the reference run, if one existed.
    pub compare: Option<CompareOutcome>,
}

/// One complete validation run of an experiment suite on one image.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRun {
    /// Unique run id.
    pub id: RunId,
    /// Experiment name.
    pub experiment: String,
    /// Image configuration label the run executed on.
    pub image_label: String,
    /// Description tag ("which software versions were used").
    pub description: String,
    /// Unix timestamp of execution.
    pub timestamp: u64,
    /// Per-test results, in test-id order.
    pub results: Vec<TestResult>,
}

impl ValidationRun {
    /// Number of passing tests.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.status.is_pass()).count()
    }

    /// Number of failed tests.
    pub fn failed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.status, TestStatus::Failed(_)))
            .count()
    }

    /// Number of skipped tests.
    pub fn skipped(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.status, TestStatus::Skipped(_)))
            .count()
    }

    /// Whether the whole run validated ("If the validation is successful,
    /// no further action must be taken").
    pub fn is_successful(&self) -> bool {
        self.results.iter().all(|r| r.status.is_pass())
    }

    /// The failed results.
    pub fn failures(&self) -> impl Iterator<Item = &TestResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.status, TestStatus::Failed(_)))
    }

    /// Results belonging to one category.
    pub fn by_category(&self, category: TestCategory) -> impl Iterator<Item = &TestResult> {
        self.results.iter().filter(move |r| r.category == category)
    }

    /// A deterministic digest over the run's test statuses and outputs,
    /// used for "validation of all versions against each other": two runs
    /// with equal digests produced bit-identical outcomes.
    ///
    /// The hashed text is one line per result, `<test>=<glyph>` followed by
    /// `:<output>@<hex address>` per output. It is streamed through a stack
    /// buffer into the hasher, never built whole.
    pub fn digest(&self) -> ObjectId {
        let mut text = DigestText::new();
        for r in &self.results {
            text.push(r.test.as_str().as_bytes());
            text.push(b"=");
            text.push(r.status.glyph().encode_utf8(&mut [0; 4]).as_bytes());
            for (name, id) in r.outputs.iter() {
                text.push(b":");
                text.push(name.as_bytes());
                text.push(b"@");
                text.push(&sp_store::sha256::hex(&id.0));
            }
            text.push(b"\n");
        }
        text.finish()
    }
}

/// The text [`ValidationRun::digest`] hashes, fed to SHA-256 through a
/// fixed stack buffer: most pushes are a few bytes, so they cost a copy
/// rather than a hasher call each.
struct DigestText {
    hasher: Sha256,
    buf: [u8; 1024],
    len: usize,
}

impl DigestText {
    fn new() -> Self {
        DigestText {
            hasher: Sha256::new(),
            buf: [0; 1024],
            len: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.hasher.update(&self.buf[..self.len]);
            self.len = 0;
            if bytes.len() > self.buf.len() {
                self.hasher.update(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn finish(mut self) -> ObjectId {
        self.hasher.update(&self.buf[..self.len]);
        ObjectId(self.hasher.finalize())
    }
}

/// What [`ValidationRun::digest`] read of the last run judged in one
/// (experiment, image) cell: each result's test id, status glyph and
/// outputs, with the digest they hash to. A nightly cell repeats its run,
/// so the next run whose results [`match`](Self::digest_of) is served this
/// digest instead of hashing its text again.
pub(crate) struct DigestedRun {
    results: Box<[(TestId, char, TestOutputs)]>,
    pub(crate) digest: ObjectId,
}

impl DigestedRun {
    /// Hashes `run` and keeps what its digest read.
    pub(crate) fn of(run: &ValidationRun) -> Self {
        DigestedRun {
            results: run
                .results
                .iter()
                .map(|r| (r.test.clone(), r.status.glyph(), Arc::clone(&r.outputs)))
                .collect(),
            digest: run.digest(),
        }
    }

    /// The digest of `run` if its results hash the same text: equal test
    /// ids, glyphs and outputs, in the same order. A memo-served result
    /// shares its id and output slice with the last run's, so this is
    /// mostly pointer compares.
    pub(crate) fn digest_of(&self, run: &ValidationRun) -> Option<ObjectId> {
        let same = self.results.len() == run.results.len()
            && self
                .results
                .iter()
                .zip(&run.results)
                .all(|((test, glyph, outputs), r)| {
                    *glyph == r.status.glyph()
                        && *test == r.test
                        && (Arc::ptr_eq(outputs, &r.outputs) || **outputs == *r.outputs)
                });
        same.then_some(self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, status: TestStatus) -> TestResult {
        TestResult {
            test: TestId::new(id),
            category: TestCategory::Compilation,
            group: "compilation".into(),
            job: JobId(1),
            status,
            outputs: TestOutputs::default(),
            compare: None,
        }
    }

    fn run_with(statuses: Vec<TestStatus>) -> ValidationRun {
        ValidationRun {
            id: RunId(1),
            experiment: "h1".into(),
            image_label: "SL6/64bit gcc4.4".into(),
            description: "h1 @ root 5.34".into(),
            timestamp: 1_383_000_000,
            results: statuses
                .into_iter()
                .enumerate()
                .map(|(i, s)| result(&format!("t{i}"), s))
                .collect(),
        }
    }

    #[test]
    fn run_id_format() {
        assert_eq!(RunId(7).to_string(), "spr-000007");
    }

    #[test]
    fn counting_and_success() {
        let run = run_with(vec![
            TestStatus::Passed,
            TestStatus::PassedWithWarnings(3),
            TestStatus::Failed(FailureKind::CompileError),
            TestStatus::Skipped("dep".into()),
        ]);
        assert_eq!(run.passed(), 2);
        assert_eq!(run.failed(), 1);
        assert_eq!(run.skipped(), 1);
        assert!(!run.is_successful());
        assert_eq!(run.failures().count(), 1);

        let good = run_with(vec![TestStatus::Passed, TestStatus::PassedWithWarnings(1)]);
        assert!(good.is_successful());
    }

    #[test]
    fn digest_is_sensitive_to_status() {
        let a = run_with(vec![TestStatus::Passed, TestStatus::Passed]);
        let b = run_with(vec![
            TestStatus::Passed,
            TestStatus::Failed(FailureKind::CompileError),
        ]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
    }

    #[test]
    fn digest_is_sensitive_to_outputs() {
        let mut a = run_with(vec![TestStatus::Passed]);
        let mut b = a.clone();
        a.results[0].outputs = Arc::from([("hist".into(), ObjectId::for_bytes(b"one"))]);
        b.results[0].outputs = Arc::from([("hist".into(), ObjectId::for_bytes(b"two"))]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn glyphs() {
        assert_eq!(TestStatus::Passed.glyph(), '+');
        assert_eq!(TestStatus::PassedWithWarnings(1).glyph(), 'w');
        assert_eq!(TestStatus::Failed(FailureKind::CompileError).glyph(), 'X');
        assert_eq!(TestStatus::Skipped("x".into()).glyph(), '-');
    }
}
