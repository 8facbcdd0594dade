//! Codecs for the warm-state snapshot (`SPWS`) sections.
//!
//! [`crate::SpSystem`] keeps three run memos (chain productions, output
//! content addresses, build reports) plus the storage digest cache. This
//! module serialises their *values* into the length-prefixed wire format
//! of [`sp_store::snapshot`]; the snapshot container contributes the
//! versioned header and the per-entry digests that make a restart never
//! trust a corrupted entry.
//!
//! Decoders are total: any structural mismatch yields `None` and the
//! importer drops the entry (counted as rejected) instead of guessing.
//!
//! ## Value versioning
//!
//! Every section *value* starts with the two-byte header
//! `[VALUE_TAG, VALUE_VERSION]`. Version 2 re-keyed the in-memory memos on
//! fast hashes; the on-disk values still carry full keys and SHA-256
//! addresses, but the header lets a build drop (never misread) entries
//! written by a different codec generation. The tag byte `0xF7` cannot
//! begin any realistic v1 value — v1 values started with a raw digest
//! byte, a stage/test count (≥ 247 stages would be required) or a string
//! length — and the decoders additionally fail on the length mismatch the
//! two extra bytes induce, so v1 entries are rejected deterministically.
//! The snapshot *container* version is unchanged (its layout is
//! identical); this header versions only what the values mean.

use std::collections::BTreeMap;
use std::sync::Arc;

use sp_build::{BuildReport, BuildStatus, PackageId};
use sp_store::snapshot::wire::{self, Cursor};
use sp_store::ObjectId;

use crate::run::TestStatus;
use crate::system::{MemoizedChain, MemoizedStage};
use crate::test::{FailureKind, TestCategory, TestId};

/// Section holding system counters (run-id cursor, clock).
pub(crate) const SECTION_SYSTEM: &str = "system";
/// Section holding digest-cache entries (`revision → ObjectId`).
pub(crate) const SECTION_DIGEST_CACHE: &str = "digest-cache";
/// Section holding output-memo entries (`RunKey → ObjectId`).
pub(crate) const SECTION_OUTPUT_MEMO: &str = "output-memo";
/// Section holding chain-memo entries (`RunKey → MemoizedChain`).
pub(crate) const SECTION_CHAIN_MEMO: &str = "chain-memo";
/// Section holding build-memo entries (`RunKey → BuildReport`).
pub(crate) const SECTION_BUILD_MEMO: &str = "build-memo";
/// Section holding the run ledger's reference map (`experiment → per-test
/// reference outputs`), so the first post-restore run of each experiment
/// has something to compare against instead of bootstrapping.
pub(crate) const SECTION_LEDGER_REFS: &str = "ledger-references";

/// First byte of every versioned section value.
pub(crate) const VALUE_TAG: u8 = 0xF7;
/// Current value codec version.
pub(crate) const VALUE_VERSION: u8 = 2;

fn put_value_header(out: &mut Vec<u8>) {
    out.push(VALUE_TAG);
    out.push(VALUE_VERSION);
}

fn take_value_header(cursor: &mut Cursor<'_>) -> Option<()> {
    (cursor.take(2)? == [VALUE_TAG, VALUE_VERSION]).then_some(())
}

// ---- plain u64 values (system counters) ------------------------------

pub(crate) fn encode_u64_value(v: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    put_value_header(&mut out);
    wire::put_u64(&mut out, v);
    out
}

pub(crate) fn decode_u64_value(bytes: &[u8]) -> Option<u64> {
    let mut cursor = Cursor::new(bytes);
    take_value_header(&mut cursor)?;
    let v = cursor.take_u64()?;
    cursor.finished().then_some(v)
}

// ---- object ids ------------------------------------------------------

pub(crate) fn encode_object_id(id: ObjectId) -> Vec<u8> {
    let mut out = Vec::with_capacity(34);
    put_value_header(&mut out);
    out.extend_from_slice(&id.0);
    out
}

pub(crate) fn decode_object_id(bytes: &[u8]) -> Option<ObjectId> {
    let mut cursor = Cursor::new(bytes);
    take_value_header(&mut cursor)?;
    let id = take_object_id(&mut cursor)?;
    cursor.finished().then_some(id)
}

fn put_object_id(out: &mut Vec<u8>, id: ObjectId) {
    out.extend_from_slice(&id.0);
}

fn take_object_id(cursor: &mut Cursor<'_>) -> Option<ObjectId> {
    cursor
        .take(32)
        .and_then(|raw| raw.try_into().ok().map(ObjectId))
}

// ---- test statuses ---------------------------------------------------

fn put_status(out: &mut Vec<u8>, status: &TestStatus) {
    match status {
        TestStatus::Passed => out.push(0),
        TestStatus::PassedWithWarnings(n) => {
            out.push(1);
            wire::put_u64(out, *n as u64);
        }
        TestStatus::Failed(kind) => {
            out.push(2);
            put_failure(out, kind);
        }
        TestStatus::Skipped(reason) => {
            out.push(3);
            wire::put_str(out, reason);
        }
    }
}

fn take_status(cursor: &mut Cursor<'_>) -> Option<TestStatus> {
    Some(match cursor.take(1)?[0] {
        0 => TestStatus::Passed,
        1 => TestStatus::PassedWithWarnings(cursor.take_u64()? as usize),
        2 => TestStatus::Failed(take_failure(cursor)?),
        3 => TestStatus::Skipped(cursor.take_str()?),
        _ => return None,
    })
}

fn put_failure(out: &mut Vec<u8>, kind: &FailureKind) {
    match kind {
        FailureKind::CompileError => out.push(0),
        FailureKind::DependencyFailed(s) => {
            out.push(1);
            wire::put_str(out, s);
        }
        FailureKind::Crash(s) => {
            out.push(2);
            wire::put_str(out, s);
        }
        FailureKind::BadExit(code) => {
            out.push(3);
            wire::put_u64(out, *code as i64 as u64);
        }
        FailureKind::ComparisonFailed(s) => {
            out.push(4);
            wire::put_str(out, s);
        }
        FailureKind::ChainStageFailed(s) => {
            out.push(5);
            wire::put_str(out, s);
        }
    }
}

fn take_failure(cursor: &mut Cursor<'_>) -> Option<FailureKind> {
    Some(match cursor.take(1)?[0] {
        0 => FailureKind::CompileError,
        1 => FailureKind::DependencyFailed(cursor.take_str()?),
        2 => FailureKind::Crash(cursor.take_str()?),
        3 => FailureKind::BadExit(cursor.take_u64()? as i64 as i32),
        4 => FailureKind::ComparisonFailed(cursor.take_str()?),
        5 => FailureKind::ChainStageFailed(cursor.take_str()?),
        _ => return None,
    })
}

fn put_category(out: &mut Vec<u8>, category: TestCategory) {
    out.push(match category {
        TestCategory::Compilation => 0,
        TestCategory::UnitCheck => 1,
        TestCategory::StandaloneExecutable => 2,
        TestCategory::AnalysisChain => 3,
        TestCategory::DataValidation => 4,
    });
}

fn take_category(cursor: &mut Cursor<'_>) -> Option<TestCategory> {
    Some(match cursor.take(1)?[0] {
        0 => TestCategory::Compilation,
        1 => TestCategory::UnitCheck,
        2 => TestCategory::StandaloneExecutable,
        3 => TestCategory::AnalysisChain,
        4 => TestCategory::DataValidation,
        _ => return None,
    })
}

// ---- chain memo ------------------------------------------------------

pub(crate) fn encode_chain(chain: &MemoizedChain) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + chain.stages.len() * 96);
    put_value_header(&mut out);
    wire::put_u32(&mut out, chain.stages.len() as u32);
    for stage in &chain.stages {
        wire::put_str(&mut out, &stage.stage);
        wire::put_str(&mut out, stage.test.as_str());
        put_category(&mut out, stage.category);
        put_status(&mut out, &stage.status);
        wire::put_u32(&mut out, stage.outputs.len() as u32);
        for (name, oid) in &stage.outputs {
            wire::put_str(&mut out, name);
            put_object_id(&mut out, *oid);
        }
    }
    out
}

pub(crate) fn decode_chain(bytes: &[u8]) -> Option<MemoizedChain> {
    let mut cursor = Cursor::new(bytes);
    take_value_header(&mut cursor)?;
    // A stage: two length-prefixed strings, a category byte, a status
    // byte and an output count — at least 14 bytes.
    let stage_count = cursor.take_count(14)?;
    let mut stages = Vec::with_capacity(stage_count);
    for _ in 0..stage_count {
        let stage = cursor.take_str()?;
        let test = TestId::new(cursor.take_str()?);
        let category = take_category(&mut cursor)?;
        let status = take_status(&mut cursor)?;
        // An output: a length-prefixed name and a 32-byte object id.
        let output_count = cursor.take_count(36)?;
        let mut outputs = Vec::with_capacity(output_count);
        for _ in 0..output_count {
            let name = cursor.take_str()?;
            let oid = take_object_id(&mut cursor)?;
            outputs.push((name, oid));
        }
        stages.push(MemoizedStage {
            stage,
            test,
            category,
            status,
            outputs,
        });
    }
    cursor.finished().then_some(MemoizedChain { stages })
}

// ---- ledger references -----------------------------------------------

/// Serialises one experiment's reference map: `test id → named outputs`.
pub(crate) fn encode_reference_tests(
    tests: &BTreeMap<String, crate::ledger::TestOutputs>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + tests.len() * 96);
    put_value_header(&mut out);
    wire::put_u32(&mut out, tests.len() as u32);
    for (test, outputs) in tests {
        wire::put_str(&mut out, test);
        wire::put_u32(&mut out, outputs.len() as u32);
        for (name, oid) in outputs {
            wire::put_str(&mut out, name);
            put_object_id(&mut out, *oid);
        }
    }
    out
}

/// Parses one experiment's reference map serialised by
/// [`encode_reference_tests`]. `None` on any structural mismatch.
pub(crate) fn decode_reference_tests(
    bytes: &[u8],
) -> Option<BTreeMap<String, crate::ledger::TestOutputs>> {
    let mut cursor = Cursor::new(bytes);
    take_value_header(&mut cursor)?;
    let test_count = cursor.take_u32()?;
    let mut tests = BTreeMap::new();
    for _ in 0..test_count {
        let test = cursor.take_str()?;
        // An output: a length-prefixed name and a 32-byte object id.
        let output_count = cursor.take_count(36)?;
        let mut outputs = Vec::with_capacity(output_count);
        for _ in 0..output_count {
            let name = cursor.take_str()?;
            let oid = take_object_id(&mut cursor)?;
            outputs.push((name, oid));
        }
        tests.insert(test, outputs);
    }
    cursor.finished().then_some(tests)
}

// ---- build memo ------------------------------------------------------

fn put_build_status(out: &mut Vec<u8>, status: &BuildStatus) {
    match status {
        BuildStatus::Built => out.push(0),
        BuildStatus::BuiltWithWarnings(n) => {
            out.push(1);
            wire::put_u64(out, *n as u64);
        }
        BuildStatus::Failed => out.push(2),
        BuildStatus::SkippedDepFailed(dep) => {
            out.push(3);
            wire::put_str(out, dep.as_str());
        }
    }
}

fn take_build_status(cursor: &mut Cursor<'_>) -> Option<BuildStatus> {
    Some(match cursor.take(1)?[0] {
        0 => BuildStatus::Built,
        1 => BuildStatus::BuiltWithWarnings(cursor.take_u64()? as usize),
        2 => BuildStatus::Failed,
        3 => BuildStatus::SkippedDepFailed(PackageId::new(cursor.take_str()?)),
        _ => return None,
    })
}

pub(crate) fn encode_build_report(report: &BuildReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + report.records.len() * 128);
    put_value_header(&mut out);
    wire::put_str(&mut out, &report.env_label);
    wire::put_u32(&mut out, report.order.len() as u32);
    for package in &report.order {
        wire::put_str(&mut out, package.as_str());
    }
    wire::put_u32(&mut out, report.records.len() as u32);
    for (package, record) in &report.records {
        wire::put_str(&mut out, package.as_str());
        put_build_status(&mut out, &record.status);
        wire::put_str(&mut out, &record.log);
        match record.artifact {
            Some(oid) => {
                out.push(1);
                put_object_id(&mut out, oid);
            }
            None => out.push(0),
        }
    }
    out
}

pub(crate) fn decode_build_report(bytes: &[u8]) -> Option<Arc<BuildReport>> {
    let mut cursor = Cursor::new(bytes);
    take_value_header(&mut cursor)?;
    let env_label = cursor.take_str()?;
    let order_count = cursor.take_count(4)?;
    let mut order = Vec::with_capacity(order_count);
    for _ in 0..order_count {
        order.push(PackageId::new(cursor.take_str()?));
    }
    let record_count = cursor.take_u32()?;
    let mut records = BTreeMap::new();
    for _ in 0..record_count {
        let package = PackageId::new(cursor.take_str()?);
        let status = take_build_status(&mut cursor)?;
        let log = cursor.take_str()?;
        let artifact = match cursor.take(1)?[0] {
            0 => None,
            1 => Some(take_object_id(&mut cursor)?),
            _ => return None,
        };
        records.insert(
            package.clone(),
            sp_build::BuildRecord {
                package,
                status,
                log,
                artifact,
            },
        );
    }
    cursor.finished().then(|| {
        Arc::new(BuildReport {
            env_label,
            order,
            records,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_header_guards_every_codec() {
        // Every encoder leads with the versioned header...
        let id = ObjectId::for_bytes(b"artifact");
        let chain = MemoizedChain { stages: vec![] };
        let refs: BTreeMap<String, crate::ledger::TestOutputs> = BTreeMap::new();
        let report = BuildReport {
            env_label: "SL6".into(),
            order: vec![],
            records: BTreeMap::new(),
        };
        for bytes in [
            encode_u64_value(42),
            encode_object_id(id),
            encode_chain(&chain),
            encode_reference_tests(&refs),
            encode_build_report(&report),
        ] {
            assert_eq!(&bytes[..2], &[VALUE_TAG, VALUE_VERSION]);
        }
        // ...and every decoder rejects v1-shaped values (no header): a raw
        // 32-byte digest, a raw little-endian counter, raw count-prefixed
        // aggregates. Rejection, not misreads.
        assert_eq!(decode_object_id(&id.0), None);
        assert_eq!(decode_u64_value(&42u64.to_le_bytes()), None);
        let mut v1_chain = Vec::new();
        wire::put_u32(&mut v1_chain, 0);
        assert!(decode_chain(&v1_chain).is_none());
        assert!(decode_reference_tests(&v1_chain).is_none());
        let mut v1_report = Vec::new();
        wire::put_str(&mut v1_report, "SL6");
        wire::put_u32(&mut v1_report, 0);
        wire::put_u32(&mut v1_report, 0);
        assert!(decode_build_report(&v1_report).is_none());
        // A future version bump is likewise dropped, not guessed at.
        let mut future = encode_object_id(id);
        future[1] = VALUE_VERSION + 1;
        assert_eq!(decode_object_id(&future), None);
    }

    #[test]
    fn u64_value_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(decode_u64_value(&encode_u64_value(v)), Some(v));
        }
        let bytes = encode_u64_value(7);
        assert_eq!(decode_u64_value(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_u64_value(b""), None);
    }

    #[test]
    fn chain_round_trip() {
        let chain = MemoizedChain {
            stages: vec![
                MemoizedStage {
                    stage: "mcgen".into(),
                    test: TestId::new("h1/chain/nc/mcgen"),
                    category: TestCategory::AnalysisChain,
                    status: TestStatus::Passed,
                    outputs: vec![("gen.dst".into(), ObjectId::for_bytes(b"dst"))],
                },
                MemoizedStage {
                    stage: "validation".into(),
                    test: TestId::new("h1/chain/nc/validation"),
                    category: TestCategory::DataValidation,
                    status: TestStatus::Failed(FailureKind::ComparisonFailed("chi2".into())),
                    outputs: vec![],
                },
            ],
        };
        let bytes = encode_chain(&chain);
        let decoded = decode_chain(&bytes).expect("round trip");
        assert_eq!(decoded.stages.len(), 2);
        assert_eq!(decoded.stages[0].stage, "mcgen");
        assert_eq!(decoded.stages[0].outputs, chain.stages[0].outputs);
        assert_eq!(decoded.stages[1].status, chain.stages[1].status);
        assert!(
            decode_chain(&bytes[..bytes.len() - 1]).is_none(),
            "truncation rejected"
        );
        assert!(decode_chain(b"").is_none());
    }

    #[test]
    fn statuses_round_trip() {
        let statuses = [
            TestStatus::Passed,
            TestStatus::PassedWithWarnings(7),
            TestStatus::Failed(FailureKind::CompileError),
            TestStatus::Failed(FailureKind::DependencyFailed("lib".into())),
            TestStatus::Failed(FailureKind::Crash("segv".into())),
            TestStatus::Failed(FailureKind::BadExit(-3)),
            TestStatus::Failed(FailureKind::ChainStageFailed("sim".into())),
            TestStatus::Skipped("no artifact".into()),
        ];
        for status in &statuses {
            let mut bytes = Vec::new();
            put_status(&mut bytes, status);
            let mut cursor = Cursor::new(&bytes);
            assert_eq!(take_status(&mut cursor).as_ref(), Some(status));
            assert!(cursor.finished());
        }
    }

    #[test]
    fn reference_map_round_trip() {
        let mut tests: BTreeMap<String, crate::ledger::TestOutputs> = BTreeMap::new();
        tests.insert(
            "h1/unit/util-0".into(),
            vec![("result".into(), ObjectId::for_bytes(b"r0"))],
        );
        tests.insert(
            "h1/chain/nc/analysis".into(),
            vec![
                ("histograms".into(), ObjectId::for_bytes(b"h")),
                ("events.dst".into(), ObjectId::for_bytes(b"d")),
            ],
        );
        let bytes = encode_reference_tests(&tests);
        assert_eq!(decode_reference_tests(&bytes), Some(tests));
        assert!(decode_reference_tests(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_reference_tests(b"junk").is_none());
    }

    #[test]
    fn build_report_round_trip() {
        let mut records = BTreeMap::new();
        records.insert(
            PackageId::new("lib"),
            sp_build::BuildRecord {
                package: PackageId::new("lib"),
                status: BuildStatus::BuiltWithWarnings(2),
                log: "warning: ...".into(),
                artifact: Some(ObjectId::for_bytes(b"tarball")),
            },
        );
        records.insert(
            PackageId::new("ana"),
            sp_build::BuildRecord {
                package: PackageId::new("ana"),
                status: BuildStatus::SkippedDepFailed(PackageId::new("lib")),
                log: String::new(),
                artifact: None,
            },
        );
        let report = BuildReport {
            env_label: "SL6/64bit gcc4.4".into(),
            order: vec![PackageId::new("lib"), PackageId::new("ana")],
            records,
        };
        let bytes = encode_build_report(&report);
        let decoded = decode_build_report(&bytes).expect("round trip");
        assert_eq!(*decoded, report);
        assert!(decode_build_report(&bytes[..10]).is_none());
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let mut huge = Vec::new();
        put_value_header(&mut huge);
        wire::put_u32(&mut huge, u32::MAX);
        huge.extend_from_slice(&[0; 8]);
        assert!(decode_chain(&huge).is_none());

        // An inner output count too large for its stage's remaining bytes.
        let mut stage = Vec::new();
        put_value_header(&mut stage);
        wire::put_u32(&mut stage, 1);
        wire::put_str(&mut stage, "mcgen");
        wire::put_str(&mut stage, "t");
        put_category(&mut stage, TestCategory::AnalysisChain);
        put_status(&mut stage, &TestStatus::Passed);
        wire::put_u32(&mut stage, u32::MAX);
        assert!(decode_chain(&stage).is_none());

        let mut refs = Vec::new();
        put_value_header(&mut refs);
        wire::put_u32(&mut refs, 1);
        wire::put_str(&mut refs, "test");
        wire::put_u32(&mut refs, u32::MAX);
        assert!(decode_reference_tests(&refs).is_none());

        let mut report = Vec::new();
        put_value_header(&mut report);
        wire::put_str(&mut report, "SL6");
        wire::put_u32(&mut report, u32::MAX);
        assert!(decode_build_report(&report).is_none());
    }
}
