//! Common-storage throughput: content-addressed put/get and archive
//! pack/unpack at artifact-typical sizes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sp_store::{Archive, ArchiveEntry, ContentStore};

fn payload(size: usize) -> Arc<[u8]> {
    (0..size).map(|i| (i * 31 % 251) as u8).collect()
}

fn bench_content_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("content_store");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = payload(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("put", size), &data, |b, data| {
            let store = ContentStore::new();
            b.iter(|| store.put(data.clone()))
        });
        let store = ContentStore::new();
        let id = store.put(data.clone());
        group.bench_with_input(BenchmarkId::new("get_verified", size), &id, |b, id| {
            b.iter(|| store.get(*id).unwrap())
        });
    }
    group.finish();
}

fn bench_archive(c: &mut Criterion) {
    let mut archive = Archive::new();
    for i in 0..32 {
        archive
            .add(ArchiveEntry::file(format!("lib/obj{i}.o"), payload(4096)))
            .unwrap();
    }
    let packed = archive.pack();
    let mut group = c.benchmark_group("archive");
    group.throughput(Throughput::Bytes(packed.len() as u64));
    group.bench_function("pack_32x4k", |b| b.iter(|| archive.pack()));
    group.bench_function("unpack_32x4k", |b| {
        b.iter(|| Archive::unpack(&packed).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_content_store, bench_archive);
criterion_main!(benches);
