//! Micro-benches for the hash primitives: SHA-256 throughput and the
//! chunker's cyclic-polynomial rolling hash (the paper reports the rolling
//! hash at ~20% of POS-Tree build cost, motivating the P′ cid-pattern for
//! index nodes).
//!
//! The `rolling_scan` and `chunker_split` groups compare the per-byte
//! reference (one `CyclicPoly::roll` per byte) against the block scanner
//! and the production split. Their `dyn_per_byte` / `naive_dyn` ids date
//! from when the reference went through a trait object; they are kept so
//! the committed results stay comparable. `sha256_compress` compares the
//! unrolled compression function against the retained straight-line one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fb_bench::random_bytes;
use forkbase_crypto::chunker::{split_positions, split_positions_reference};
use forkbase_crypto::{hash_bytes, sha256_naive, ChunkerConfig, CyclicPoly};

fn sha256_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let data = random_bytes(size, 1);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| hash_bytes(data));
        });
    }
    group.finish();
}

/// Optimized (SHA-NI when available, else unrolled scalar) vs
/// retained-naive SHA-256 compression, same 64 KB input.
fn sha256_compress_ablation(c: &mut Criterion) {
    let data = random_bytes(64 * 1024, 1);
    let mut group = c.benchmark_group("sha256_compress");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("optimized", |b| b.iter(|| hash_bytes(&data)));
    group.bench_function("naive", |b| b.iter(|| sha256_naive(&data)));
    group.finish();
}

fn rolling_hashes(c: &mut Criterion) {
    let data = random_bytes(256 * 1024, 2);
    let mut group = c.benchmark_group("rolling_hash");
    group.throughput(Throughput::Bytes(data.len() as u64));

    group.bench_function("cyclic_poly", |b| {
        let mut h = CyclicPoly::new(48);
        b.iter(|| {
            h.reset();
            let mut acc = 0u64;
            for &byte in &data {
                acc ^= h.roll(byte);
            }
            acc
        });
    });
    group.finish();
}

/// One full boundary scan over 256 KB with the leaf pattern mask, per
/// byte and per slice.
fn rolling_scan_tiers(c: &mut Criterion) {
    let data = random_bytes(256 * 1024, 2);
    let mask = (1u64 << 12) - 1; // default leaf pattern
    let mut group = c.benchmark_group("rolling_scan");
    group.throughput(Throughput::Bytes(data.len() as u64));

    // The per-byte reference: one `roll` call per byte.
    group.bench_function("dyn_per_byte/CyclicPoly", |b| {
        let mut h = CyclicPoly::new(48);
        b.iter(|| {
            h.reset();
            let mut hits = 0u32;
            for &byte in &data {
                let v = h.roll(byte);
                hits += (h.primed() && v & mask == 0) as u32;
            }
            hits
        });
    });
    // The block scan: whole slices per call.
    group.bench_function("block/CyclicPoly", |b| {
        let mut s = CyclicPoly::new(48);
        b.iter(|| {
            s.reset();
            let mut hits = 0u32;
            let mut off = 0usize;
            while let Some(n) = s.scan_boundary(&data[off..], mask) {
                hits += 1;
                off += n;
            }
            hits
        });
    });
    group.finish();
}

/// End-to-end chunking (boundary positions over 1 MB): the production
/// entry point vs the per-byte reference oracle.
fn chunker_split(c: &mut Criterion) {
    let data = random_bytes(1024 * 1024, 3);
    let cfg = ChunkerConfig::default();
    let mut group = c.benchmark_group("chunker_split");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("block", |b| b.iter(|| split_positions(&data, &cfg)));
    group.bench_function("naive_dyn", |b| {
        b.iter(|| split_positions_reference(&data, &cfg))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = sha256_throughput, sha256_compress_ablation, rolling_hashes,
              rolling_scan_tiers, chunker_split
}
criterion_main!(benches);
