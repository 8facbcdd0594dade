//! Digest-path microbenches: raw SHA-256 throughput (scalar and
//! four-lane), the fast non-cryptographic hash, one-pass `TestOutput`
//! encode+digest, and digest-first vs deep comparison.
//!
//! `sha256_throughput` measures the optimised hasher on the same payload
//! sizes as the `content_store` benches, so regressions in the compression
//! core are visible independently of store locking.
//! `sha256_multilane` hashes four independent equal-size payloads through
//! the interleaved message schedule; its bytes/sec covers all four lanes,
//! so the multilane speedup is its throughput over the scalar group's.
//! `fasthash_throughput` is the hot-path key hash on the same sizes, and
//! the comparison pair quantifies what the digest-first fast path saves:
//! `compare_deep` decodes two identical histogram sets and runs the full
//! χ² sweep, `compare_digest_first` resolves the same question from two
//! content addresses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sp_core::{Comparator, TestOutput};
use sp_hep::Histogram1D;
use sp_store::sha256::{digest4, Sha256};
use sp_store::{fasthash, ObjectId};

fn payload(size: usize) -> Vec<u8> {
    (0..size).map(|i| (i * 31 % 251) as u8).collect()
}

fn bench_sha256_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_digest");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = payload(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("sha256_throughput", size),
            &data,
            |b, data| b.iter(|| Sha256::digest_of(data)),
        );
    }
    group.finish();
}

fn bench_sha256_multilane(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_digest");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let lanes: Vec<Vec<u8>> = (0..4)
            .map(|l| (0..size).map(|i| ((i * 31 + l * 97) % 251) as u8).collect())
            .collect();
        // Four payloads per iteration: the throughput figure counts all
        // four lanes' bytes, making it directly comparable to the scalar
        // `sha256_throughput` rate.
        group.throughput(Throughput::Bytes(4 * size as u64));
        group.bench_with_input(
            BenchmarkId::new("sha256_multilane", size),
            &lanes,
            |b, lanes| b.iter(|| digest4([&lanes[0], &lanes[1], &lanes[2], &lanes[3]])),
        );
    }
    group.finish();
}

fn bench_fasthash_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_digest");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = payload(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("fasthash_throughput", size),
            &data,
            |b, data| b.iter(|| fasthash::hash128(data)),
        );
    }
    group.finish();
}

fn histogram_output() -> TestOutput {
    let mut set = Vec::new();
    for name in ["q2", "x", "y", "e_prime"] {
        let mut hist = Histogram1D::new(name, 100, 0.0, 100.0);
        for i in 0..4000 {
            hist.fill((i % 1000) as f64 / 10.0);
        }
        set.push(hist);
    }
    TestOutput::Histograms(set.into_iter().collect())
}

fn bench_encode_digest(c: &mut Criterion) {
    let numbers = TestOutput::Numbers(
        (0..32)
            .map(|i| (format!("counter_{i}"), i as f64 * 1.25))
            .collect(),
    );
    let histograms = histogram_output();
    let mut group = c.benchmark_group("store_digest");
    let mut scratch = Vec::new();
    group.bench_function("encode_digest_numbers", |b| {
        b.iter(|| numbers.encode_and_digest(&mut scratch))
    });
    group.bench_function("encode_digest_histograms", |b| {
        b.iter(|| histograms.encode_and_digest(&mut scratch))
    });
    // The fresh-allocation shape: same encode internals, but a new Vec
    // per call instead of the reusable scratch buffer.
    group.bench_function("to_bytes_then_hash_histograms", |b| {
        b.iter(|| ObjectId::for_bytes(&histograms.to_bytes()))
    });
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    let output = histogram_output();
    let mut encoded = Vec::new();
    let id = output.encode_and_digest(&mut encoded);
    let reference = TestOutput::from_bytes(&encoded).expect("round trip");
    let reference_id = reference.digest();
    let comparator = Comparator::default_for(&output);

    let mut group = c.benchmark_group("store_digest");
    group.bench_function("compare_digest_first", |b| {
        b.iter(|| {
            comparator
                .compare_by_id(id, reference_id)
                .expect("identical")
        })
    });
    group.bench_function("compare_deep", |b| {
        // What every comparison cost before the fast path: decode the
        // stored reference and run the full histogram sweep.
        b.iter(|| {
            let decoded = TestOutput::from_bytes(&encoded).expect("decodes");
            comparator.compare(&output, &decoded)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256_throughput,
    bench_sha256_multilane,
    bench_fasthash_throughput,
    bench_encode_digest,
    bench_compare
);
criterion_main!(benches);
