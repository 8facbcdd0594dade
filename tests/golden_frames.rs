//! Golden encodings of every sealed record kind: magic, u32 version 1,
//! body, SHA-256 over all of it. Each record is built from fixed inputs
//! through the public API and compared byte for byte with the bytes
//! pinned here, so queue directories, run logs and worker stats written
//! by an earlier build keep decoding after an upgrade. A change to any
//! pinned string is a change of the on-disk format.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sp_obs::{MetricsRegistry, MetricsSnapshot};
use sp_store::{CellRecord, FixedClock, WorkQueue};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cell(run_id: u64, status: u8) -> CellRecord {
    CellRecord {
        campaign: 3,
        experiment: "h1".into(),
        group: "dst-reco".into(),
        image_label: "sl6-x86_64".into(),
        repetition: 1,
        run_id,
        status,
        passed: 11,
        failed: 1,
        skipped: 0,
        timestamp: 86_400,
        worker: "w0".into(),
        lease_token: 2,
    }
}

/// Asserts `bytes` equal the pinned hex, naming the record kind.
fn assert_pinned(kind: &str, bytes: &[u8], pinned: &str) {
    assert_eq!(hex(bytes), pinned, "{kind} encoding changed");
}

fn read(dir: &Path, rel: &str) -> Vec<u8> {
    std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn queue_records_keep_their_bytes() {
    let dir = temp_dir("queue");
    let queue = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).unwrap();
    let seq = queue.submit(b"golden-plan", 100, 5, 7_000).unwrap();
    let lease = queue.lease_next("w1").unwrap().expect("claimable");
    for verdict in queue.publish_and_release_batch(&[(&lease, b"golden-report".as_slice())]) {
        verdict.unwrap();
    }
    let poisoned = queue.submit(b"undecodable", 105, 1, 7_000).unwrap();
    assert!(queue
        .mark_poisoned(poisoned, "w1", "payload undecodable")
        .unwrap());
    queue.publish_worker_stats("w1", b"golden-stats").unwrap();
    assert_eq!((seq, poisoned), (1, 2));

    assert_pinned("SPWQ", &read(&dir, "submissions/sub-00000001.spwq"), SPWQ);
    assert_pinned("SPWL", &read(&dir, "leases/sub-00000001.g0001"), SPWL);
    assert_pinned("SPWR", &read(&dir, "reports/sub-00000001.g0001.rep"), SPWR);
    assert_pinned("SPWT", &read(&dir, "workers/w1.stats"), SPWT);
    assert_pinned("SPWP", &read(&dir, "poison/sub-00000002.spwp"), SPWP);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_log_records_keep_their_bytes() {
    let single = cell(42, CellRecord::STATUS_FAIL);
    assert_pinned("SPRL", &single.encode(), SPRL_SINGLE);
    let batch = [
        cell(7, CellRecord::STATUS_PASS),
        cell(8, CellRecord::STATUS_WARNINGS),
    ];
    assert_pinned("SPRL batch", &CellRecord::encode_batch(&batch), SPRL_BATCH);
    assert_eq!(CellRecord::decode(&single.encode()), Some(single));
}

#[test]
fn metrics_snapshots_keep_their_bytes() {
    let registry = MetricsRegistry::new();
    registry.counter("fleet.campaigns_drained").add(3);
    registry.gauge("fleet.depth").set(-2);
    registry.histogram("fleet.claim_us").observe_us(150);
    let snapshot = registry.snapshot();
    let bytes = snapshot.encode();
    assert_pinned("SPMS", &bytes, SPMS);
    assert_eq!(MetricsSnapshot::decode(&bytes), Some(snapshot));
}

const SPWQ: &str = concat!(
    "5350575101000000010000000000000064000000000000000500000000000000",
    "581b0000000000000b000000676f6c64656e2d706c616e878b8ef5f9add91a81",
    "9c788cd4089043a8c05a616db20f6d3fea4b611332dafc",
);
const SPWL: &str = concat!(
    "5350574c0100000001000000000000000100000000000000020000007731e803",
    "000000000000240400000000000001a63127b7d3727ee757553c54143e308272",
    "cce6160ad732182c7eda0de0607480",
);
const SPWR: &str = concat!(
    "5350575201000000010000000000000001000000000000000d000000676f6c64",
    "656e2d7265706f7274504a03057b96e2425aab8009457454af7fda467d7ab514",
    "bebb39022fe4e9e618",
);
const SPWT: &str = concat!(
    "53505754010000000200000077310c000000676f6c64656e2d737461747368d8",
    "a24418bd88f7a2fb2a8d3a2fad66506d9df574e4359085b4bb435198d0d0",
);
const SPWP: &str = concat!(
    "53505750010000000200000000000000020000007731130000007061796c6f61",
    "6420756e6465636f6461626c65741a9751e72d814be1d603162ea38ffe14eac6",
    "19b121c6a285e7f269746ea2de",
);
const SPRL_SINGLE: &str = concat!(
    "5350524c010000000300000000000000020000006831080000006473742d7265",
    "636f0a000000736c362d7838365f3634010000002a0000000000000002000000",
    "0b00000001000000000000008051010000000000020000007730020000000000",
    "00002ccaf9de0909316901e65940fe39ab893ab21887421d136cbf4811ff3019",
    "3957",
);
const SPRL_BATCH: &str = concat!(
    "5350524c010000000300000000000000020000006831080000006473742d7265",
    "636f0a000000736c362d7838365f363401000000070000000000000000000000",
    "0b00000001000000000000008051010000000000020000007730020000000000",
    "00000300000000000000020000006831080000006473742d7265636f0a000000",
    "736c362d7838365f3634010000000800000000000000010000000b0000000100",
    "00000000000080510100000000000200000077300200000000000000c1694545",
    "f5ba8edddd1c300100e1284d232db21be515ada844fe21a2f26043f8",
);
const SPMS: &str = concat!(
    "53504d53010000000100000017000000666c6565742e63616d706169676e735f",
    "647261696e65640300000000000000010000000b000000666c6565742e646570",
    "7468feffffffffffffff010000000e000000666c6565742e636c61696d5f7573",
    "0100000000000000960000000000000011000000000000000000000000000000",
    "0000000000000000000000000000000000000000010000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000b80efc2e",
    "9a40a21a1483fdc43326253907ceb9cc4bef150e6d5a70d02976c370",
);
