//! Ablation micro-benches for the POS-Tree: build cost vs. chunk size,
//! point-edit cost (copy-on-write splice vs. full rebuild), and diff cost.
//!
//! These back the design choices DESIGN.md calls out: the cyclic
//! polynomial leaf pattern, the cheap cid-based index pattern P′ (index
//! levels rebuild at metadata cost), and the 4 KB default chunk size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fb_bench::random_bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::ChunkerConfig;
use forkbase_pos::tree::{Blob, Map};
use forkbase_pos::WriteBatch;

fn build_blob(c: &mut Criterion) {
    let data = random_bytes(1024 * 1024, 3);
    let mut group = c.benchmark_group("pos_build_blob_1MB");
    group.throughput(Throughput::Bytes(data.len() as u64));
    let cfg = ChunkerConfig::default();
    group.bench_function("CyclicPoly", |b| {
        b.iter(|| {
            let store = MemStore::new();
            Blob::build(&store, &cfg, &data)
        });
    });
    group.finish();
}

fn chunk_size_sensitivity(c: &mut Criterion) {
    let data = random_bytes(1024 * 1024, 4);
    let mut group = c.benchmark_group("pos_chunk_size");
    group.throughput(Throughput::Bytes(data.len() as u64));
    for bits in [10u32, 12, 14] {
        let cfg = ChunkerConfig::with_leaf_bits(bits);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}B", 1 << bits)),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let store = MemStore::new();
                    Blob::build(&store, cfg, &data)
                });
            },
        );
    }
    group.finish();
}

fn splice_vs_rebuild(c: &mut Criterion) {
    let data = random_bytes(4 * 1024 * 1024, 5);
    let cfg = ChunkerConfig::default();
    let store = MemStore::new();
    let blob = Blob::build(&store, &cfg, &data);

    let mut group = c.benchmark_group("pos_point_edit_4MB");
    group.bench_function("splice", |b| {
        b.iter(|| {
            blob.splice(&store, &cfg, 2_000_000, 16, b"copy on write!!!")
                .expect("splice")
        });
    });
    group.bench_function("full_rebuild", |b| {
        let mut edited = data.clone();
        edited[2_000_000..2_000_016].copy_from_slice(b"copy on write!!!");
        b.iter(|| Blob::build(&store, &cfg, &edited));
    });
    group.finish();
}

fn map_ops(c: &mut Criterion) {
    let cfg = ChunkerConfig::default();
    let store = MemStore::new();
    let map = Map::build(
        &store,
        &cfg,
        (0..100_000).map(|i| (format!("k{i:08}"), format!("value-{i}"))),
    );

    let mut group = c.benchmark_group("pos_map_100k");
    group.bench_function("get", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            map.get(&store, format!("k{i:08}").as_bytes())
        });
    });
    // Write benches cycle their values so steady-state iterations
    // deduplicate against earlier rounds: chunking/hashing/splicing cost
    // is all still paid, but the store stops growing — measurements
    // reflect the write path, not allocator aging under unbounded
    // retained garbage.
    group.bench_function("put_one", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            map.put(
                &store,
                &cfg,
                format!("k{:08}", i % 100_000),
                format!("updated-{}", i % 512),
            )
            .expect("put")
        });
    });

    // Batched writes: the same per-edit work as `put_one`, amortized into
    // a single multi-range splice per batch. Keys stride through the map
    // so edits spread across many leaves (the worst case for reuse).
    for (label, batch) in [
        ("put_batch_10", 10usize),
        ("put_batch_1k", 1_000),
        ("put_batch_100k", 100_000),
    ] {
        group.bench_function(label, |b| {
            let stride = 100_000 / batch;
            let mut round = 0usize;
            b.iter(|| {
                round += 1;
                let mut wb = WriteBatch::with_capacity(batch);
                for j in 0..batch {
                    wb.put(
                        format!("k{:08}", (j * stride) % 100_000),
                        format!("updated-{}-{j}", round % 4),
                    );
                }
                map.apply(&store, &cfg, wb).expect("apply")
            });
        });
    }

    let edited = map.put(&store, &cfg, "k00050000", "EDITED").expect("put");
    group.bench_function("diff_one_change", |b| {
        b.iter(|| {
            forkbase_pos::sorted_diff(
                &store,
                forkbase_pos::TreeType::Map,
                map.root(),
                edited.root(),
            )
            .expect("diff")
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = build_blob, chunk_size_sensitivity, splice_vs_rebuild, map_ops
}
criterion_main!(benches);
