//! Every `pub` decoder of bytes read from disk or from another process is
//! total. Each one is fed random bytes and truncated, bit-flipped and
//! count-stamped versions of valid encodings; formats behind a checksum
//! are also re-sealed after mutation, because a checksum anyone can
//! recompute must not be what keeps the body parser safe. Each decode
//! must return a rejection or a value that re-encodes to exactly its
//! input, never panic, and hold at most `BYTES_PER_INPUT_BYTE * len +
//! FIXED_ALLOWANCE` heap bytes at once — measured by the counting
//! allocator below, so no allocation is sized by an untrusted count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sp_core::fleet::*;
use sp_core::*;
use sp_hep::dst::envelope_checksum;
use sp_hep::hist_io::{decode_set, encode_set};
use sp_hep::*;
use sp_obs::{MetricsRegistry, MetricsSnapshot};
use sp_store::snapshot::{decode_run_key, encode_run_key};
use sp_store::{Archive, ArchiveEntry, CellRecord, RunKey, Snapshot, SnapshotSection};

/// Forwards to the system allocator, tracking per thread the heap bytes
/// held and their peak since the last reset. (The default `realloc` goes
/// through `alloc` and `dealloc`, so it is counted too.)
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the bookkeeping only touches
// const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as i64));
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BYTES_PER_INPUT_BYTE: usize = 32;
const FIXED_ALLOWANCE: usize = 16 << 10;

/// The trailer a forger recomputes so that a mutated body reaches the
/// parser: none, the DST/µDST envelope checksum, or SHA-256 of everything
/// before it (`SPAR`, and the `sp_store::frame` seal of `SPRL` and
/// `SPMS`).
type Seal = Option<fn(&[u8]) -> [u8; 32]>;

/// Applies `mutate` to the body of `sealed` and seals the result again.
fn reseal(seal: Seal, sealed: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let Some(trailer) = seal else {
        let mut bytes = sealed.to_vec();
        mutate(&mut bytes);
        return bytes;
    };
    let mut body = sealed[..sealed.len().saturating_sub(32)].to_vec();
    mutate(&mut body);
    let trailer = trailer(&body);
    body.extend_from_slice(&trailer);
    body
}

/// Random, truncated, bit-flipped and count-stamped versions of `valid`,
/// raw and re-sealed, plus the valid encodings themselves.
fn fuzz_inputs(valid: &[Vec<u8>], seal: Seal, mut state: u64) -> Vec<Vec<u8>> {
    // splitmix64
    let mut rng = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut inputs = valid.to_vec();
    for v in valid {
        // Every cut point of short inputs, an even spread of long ones.
        let points: Vec<usize> = (0..200).map(|i| i * v.len() / 200).collect();
        for seal in [None, seal] {
            for &at in &points {
                inputs.push(reseal(seal, v, |b| b.truncate(at)));
                for stamp in [u32::MAX, 0x8000_0000, 0xffff, rng() as u32] {
                    inputs.push(reseal(seal, v, |b| {
                        let (at, end) = (at.min(b.len()), (at + 4).min(b.len()));
                        b[at..end].copy_from_slice(&stamp.to_le_bytes()[..end - at]);
                    }));
                }
            }
            for _ in 0..200 {
                let bit = rng() as usize;
                inputs.push(reseal(seal, v, |b| {
                    if let Some(n) = b.len().checked_sub(1) {
                        b[(bit >> 3) % (n + 1)] ^= 1 << (bit & 7);
                    }
                }));
            }
            inputs.push(reseal(seal, v, |b| b.push(0)));
        }
        // A valid header and a random tail, raw and re-sealed.
        for _ in 0..50 {
            let mut input = v[..rng() as usize % (v.len().min(16) + 1)].to_vec();
            input.extend((0..rng() % 256).map(|_| rng() as u8));
            inputs.push(reseal(seal, &input, |_| {}));
            inputs.push(input);
        }
    }
    for _ in 0..100 {
        inputs.push((0..rng() % 300).map(|_| rng() as u8).collect());
    }
    inputs
}

/// Asserts the totality property of `decode` over the fuzz inputs derived
/// from `valid`, and that every valid encoding is accepted.
fn check_total<T>(
    name: &str,
    valid: &[Vec<u8>],
    seal: Seal,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    assert!(!valid.is_empty());
    for v in valid {
        assert!(decode(v).is_some(), "{name} rejected a valid encoding");
    }
    for input in fuzz_inputs(valid, seal, sp_store::fnv64(name)) {
        let head = &input[..input.len().min(48)];
        let start = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(start));
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&input)));
        let peak = (PEAK.with(Cell::get) - start) as usize;
        let Ok(decoded) = outcome else {
            panic!("{name} panicked on {}-byte input {head:02x?}", input.len());
        };
        let budget = BYTES_PER_INPUT_BYTE * input.len() + FIXED_ALLOWANCE;
        assert!(
            peak <= budget,
            "{name} held {peak} heap bytes for a {}-byte input {head:02x?}",
            input.len()
        );
        if let Some(value) = decoded {
            assert!(
                encode(&value) == input,
                "{name} accepted {head:02x?}, which does not re-encode to itself"
            );
        }
    }
}

fn hists() -> HistogramSet {
    let mut q2 = Histogram1D::new("q2", 20, 0.0, 100.0);
    q2.fill_weighted(55.0, 2.5);
    q2.fill(-1.0);
    let mut y = Histogram1D::new("y", 4, 0.0, 1.0);
    y.fill(0.3);
    [q2, y].into_iter().collect()
}

fn config() -> CampaignConfig {
    let run = RunConfig {
        seed: 20131029,
        scale: 0.25,
        description: "fleet".into(),
        ..RunConfig::default()
    };
    let options = CampaignOptions {
        image_parallel: true,
        ..CampaignOptions::default()
    };
    let images = vec![sp_env::VmImageId(1), sp_env::VmImageId(3)];
    let experiments = vec!["h1".into(), "zeus".into()];
    CampaignConfig {
        experiments,
        images,
        repetitions: 4,
        run,
        interval_secs: 86_400,
        options,
    }
}

fn report() -> CampaignReport {
    // Tickets are handed out only by a scheduler.
    let empty = CampaignConfig {
        experiments: Vec::new(),
        images: Vec::new(),
        ..config()
    };
    let ticket = CampaignScheduler::new(&SpSystem::new(), 1)
        .submit(empty)
        .unwrap();
    let run = RunRecord {
        id: RunId(42),
        experiment: "h1".into(),
        image_label: "SL6".into(),
        timestamp: 1_383_004_800,
        passed: 10,
        failed: 1,
        skipped: 2,
        successful: false,
    };
    let cells = [
        ("SL5", CellStatus::Pass),
        ("SL6", CellStatus::Fail),
        ("SL7", CellStatus::NotRun),
    ]
    .map(|(image, status)| (("h1".into(), "chain".into(), image.into()), status));
    let summary = CampaignSummary {
        runs: vec![
            run.clone(),
            RunRecord {
                successful: true,
                ..run
            },
        ],
        cells: BTreeMap::from(cells),
        image_labels: vec!["SL5".into(), "SL6".into()],
    };
    CampaignReport {
        ticket,
        summary,
        completed_repetitions: 2,
        cancelled: true,
    }
}

const DST: Seal = Some(envelope_checksum);
const SHA256: Seal = Some(sp_store::sha256::digest);

#[test]
fn read_dst_is_total() {
    let events: Vec<_> = EventGenerator::new(GeneratorConfig::hera_nc(), 7)
        .take(3)
        .collect();
    let valid = [write_dst(&[]), write_dst(&events)];
    let (decode, encode) = (|b: &[u8]| read_dst(b).ok(), |v: &Vec<_>| write_dst(v));
    check_total("read_dst", &valid, DST, decode, encode);
}

#[test]
fn read_micro_dst_is_total() {
    let records: Vec<MicroEvent> = EventGenerator::new(GeneratorConfig::hera_nc(), 8)
        .take(4)
        .map(|e| MicroEvent {
            id: e.id,
            process: e.process,
            q2: e.truth.q2,
            x: e.truth.x,
            y: e.truth.y,
            e_prime: 27.5,
        })
        .collect();
    let valid = [write_micro_dst(&[]), write_micro_dst(&records)];
    let (decode, encode) = (
        |b: &[u8]| read_micro_dst(b).ok(),
        |v: &Vec<_>| write_micro_dst(v),
    );
    check_total("read_micro_dst", &valid, DST, decode, encode);
}

#[test]
fn decode_set_is_total() {
    let valid = [encode_set(&HistogramSet::new()), encode_set(&hists())];
    let decode = |b: &[u8]| decode_set(b).ok();
    check_total("decode_set", &valid, None, decode, encode_set);
}

#[test]
fn archive_unpack_is_total() {
    let mut archive = Archive::new();
    for (path, data) in [
        ("bin/h1rec", &b"\x7fELF"[..]),
        ("lib/libh1.a", b"!<arch>"),
        ("x", b""),
    ] {
        archive.add(ArchiveEntry::file(path, data)).unwrap();
    }
    let valid = [Archive::new().pack(), archive.pack()];
    let decode = |b: &[u8]| Archive::unpack(b).ok();
    check_total("Archive::unpack", &valid, SHA256, decode, Archive::pack);
}

#[test]
fn test_output_from_bytes_is_total() {
    let valid: Vec<Vec<u8>> = [
        TestOutput::YesNo(true),
        TestOutput::YesNo(false),
        TestOutput::ExitCode(-3),
        TestOutput::Text("cut-flow: 120 -> 87".into()),
        TestOutput::Numbers(vec![("n".into(), 1.5), ("mean q2".into(), 22.0)]),
        TestOutput::Histograms(hists()),
    ]
    .iter()
    .map(TestOutput::to_bytes)
    .collect();
    let (decode, encode) = (TestOutput::from_bytes, TestOutput::to_bytes);
    check_total("TestOutput::from_bytes", &valid, None, decode, encode);
}

#[test]
fn snapshot_decode_is_total() {
    let mut memo = SnapshotSection::new("output-memo");
    memo.push(b"key-1".to_vec(), b"value-1".to_vec());
    memo.push(Vec::new(), b"v".to_vec());
    let sections = vec![memo, SnapshotSection::new("digest-cache")];
    let valid = [Snapshot::new().encode(), Snapshot { sections }.encode()];
    // Dropping an entry whose digest fails is the format's trust rule, so
    // only a load that dropped nothing must re-encode to its input.
    let decode = |b: &[u8]| {
        let (snapshot, report) = Snapshot::decode(b).ok()?;
        (report.entries_dropped == 0).then_some(snapshot)
    };
    check_total("Snapshot::decode", &valid, None, decode, Snapshot::encode);
}

#[test]
fn decode_run_key_is_total() {
    let valid = [
        encode_run_key(&RunKey::new("h1/chain/nc", 7, "SL6/gcc4.4/root5.34", 0.5)),
        encode_run_key(&RunKey::new("", 0, "", 1.0)),
    ];
    let (decode, encode) = (decode_run_key, encode_run_key);
    check_total("decode_run_key", &valid, None, decode, encode);
}

#[test]
fn cell_record_decode_is_total() {
    let valid: Vec<_> = run_log_cells(3, &report(), "client-a", 2)
        .iter()
        .map(CellRecord::encode)
        .collect();
    let (decode, encode) = (CellRecord::decode, CellRecord::encode);
    check_total("CellRecord::decode", &valid, SHA256, decode, encode);
}

#[test]
fn cell_batch_decode_is_total() {
    let cells = run_log_cells(3, &report(), "client-a", 2);
    assert!(cells.len() > 1, "the fixture logs a multi-record batch");
    let valid = [
        CellRecord::encode_batch(&cells[..1]),
        CellRecord::encode_batch(&cells),
    ];
    let decode = CellRecord::decode_batch;
    let encode = |records: &Vec<CellRecord>| CellRecord::encode_batch(records);
    check_total("CellRecord::decode_batch", &valid, SHA256, decode, encode);
}

#[test]
fn metrics_snapshot_decode_is_total() {
    let registry = MetricsRegistry::new();
    registry.counter("exec.pool.batches").add(3);
    registry.counter("store.wq.leases_issued").incr();
    registry.gauge("fleet.workers").set(-2);
    registry.histogram("core.run_ms").observe_us(1_250);
    registry.histogram("core.barrier_ms").observe_us(40);
    let valid = [
        MetricsSnapshot::default().encode(),
        registry.snapshot().encode(),
    ];
    let (decode, encode) = (MetricsSnapshot::decode, MetricsSnapshot::encode);
    check_total("MetricsSnapshot::decode", &valid, SHA256, decode, encode);
}

#[test]
fn decode_campaign_config_is_total() {
    let valid = [encode_campaign_config(&config())];
    let (decode, encode) = (decode_campaign_config, encode_campaign_config);
    check_total("decode_campaign_config", &valid, None, decode, encode);
}

#[test]
fn decode_campaign_report_is_total() {
    let mut report = report();
    let full = encode_campaign_report(&report);
    report.summary.runs.clear();
    report.summary.cells.clear();
    report.summary.image_labels.clear();
    let valid = [full, encode_campaign_report(&report)];
    let (decode, encode) = (
        |b: &[u8]| decode_campaign_report(b, report.ticket),
        encode_campaign_report,
    );
    check_total("decode_campaign_report", &valid, None, decode, encode);
}
