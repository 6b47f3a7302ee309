//! The flat hot-state tier, measured: YCSB-C (100% reads) and YCSB-A
//! (50/50 read/update), zipf 0.99, through the *same* `hot_get`/`hot_put`
//! engine surface with the tier on vs off:
//!
//! * `tree_cached` — tier off: every read is a committed POS-Tree map
//!   lookup over the PR-5 sharded chunk cache, every update a
//!   synchronous `commit_map_batch` (encode + hash + store round trip).
//!   This is the cached-tree path the repo has benched since PR 5, now
//!   at the engine surface.
//! * `hot` — tier on: reads are flat hash-map hits, updates land in the
//!   tier and reach the tree in group commits: a writer that finds the
//!   queue full seals it as a round built on a thread of its own, and
//!   the next seal (or the flush between samples) commits it.
//!
//! Both variants run over a durable `LogStore` in a temp dir with the
//! default cache, preloaded with the same working set, serving the same
//! deterministic schedules — the delta is purely what the flat tier
//! buys over walking the authenticated tree for latest-state access.
//! `scripts/bench.sh` assembles `BENCH_hot.json` with the derived
//! hot-vs-tree speedups; CI gates YCSB-C ≥ 5× and YCSB-A ≥ 3×.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fb_workload::{Op, YcsbConfig, YcsbGen};
use forkbase_core::{ForkBase, HotTierConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One engine key holds the whole flat state; YCSB keys are subkeys.
const STATE_KEY: &str = "bench/state";
const N_KEYS: usize = 10_000;
const VALUE_SIZE: usize = 100;
const ZIPF_S: f64 = 0.99;

fn bench_root() -> PathBuf {
    let root = std::env::temp_dir().join(format!("forkbase-bench-hot-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("bench root");
    root
}

fn fresh_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    bench_root().join(format!("run-{}", N.fetch_add(1, Ordering::Relaxed)))
}

/// A durable engine with the default read cache; `hot` picks the tier.
fn open(dir: &PathBuf, hot: HotTierConfig) -> ForkBase {
    ForkBase::open_with(
        dir,
        forkbase_crypto::ChunkerConfig::default(),
        forkbase_chunk::Durability::Os,
        forkbase_chunk::CacheConfig::default(),
        hot,
    )
    .expect("open")
}

/// Preload every subkey, then force everything into the committed tree
/// (and, for the hot variant, leave the flat index warm — the workload
/// is *latest-state* access, which is exactly what the tier holds).
fn preload(db: &ForkBase, n_keys: usize) {
    let mut gen = YcsbGen::new(YcsbConfig {
        n_keys,
        value_size: VALUE_SIZE,
        ..YcsbConfig::default()
    });
    for start in (0..n_keys).step_by(1024) {
        let entries: Vec<_> = (start..(start + 1024).min(n_keys))
            .map(|i| (YcsbGen::key(i), Some(gen.value())))
            .collect();
        db.hot_put_many(STATE_KEY, entries).expect("preload");
    }
    db.flush_hot().expect("preload flush");
}

/// Deterministic op schedule shared by both variants.
fn schedule(n_keys: usize, read_ratio: f64, ops: usize) -> Vec<Op> {
    let mut gen = YcsbGen::new(YcsbConfig {
        n_keys,
        read_ratio,
        value_size: VALUE_SIZE,
        zipf: ZIPF_S,
        seed: 0x407,
    });
    (0..ops).map(|_| gen.next_op()).collect()
}

fn run_ops(db: &ForkBase, schedule: &[Op]) -> usize {
    let mut hits = 0usize;
    for op in schedule {
        match op {
            Op::Read(k) => {
                hits += usize::from(db.hot_get(STATE_KEY, k).expect("read").is_some());
            }
            Op::Write(k, v) => {
                db.hot_put(STATE_KEY, k.clone(), v.clone()).expect("write");
            }
        }
    }
    hits
}

fn hot_tier(c: &mut Criterion) {
    let n_keys = fb_bench::scaled(N_KEYS);
    let ops_per_iter = fb_bench::scaled(4096);
    let read_sched = schedule(n_keys, 1.0, ops_per_iter);
    let mixed_sched = schedule(n_keys, 0.5, ops_per_iter);

    let tree_dir = fresh_dir();
    let tree = open(&tree_dir, HotTierConfig::disabled());
    preload(&tree, n_keys);

    let hot_dir = fresh_dir();
    let hot = open(&hot_dir, HotTierConfig::on());
    preload(&hot, n_keys);

    let mut group = c.benchmark_group("hot_tier");
    group.throughput(Throughput::Elements(ops_per_iter as u64));

    group.bench_function("ycsbc_tree_cached", |b| {
        b.iter(|| run_ops(&tree, &read_sched))
    });
    group.bench_function("ycsbc_hot", |b| b.iter(|| run_ops(&hot, &read_sched)));

    group.bench_function("ycsba_tree_cached", |b| {
        b.iter(|| run_ops(&tree, &mixed_sched))
    });
    group.bench_function("ycsba_hot", |b| {
        b.iter(|| run_ops(&hot, &mixed_sched));
        // Quiesce between samples so queue depth from one sample never
        // bleeds backpressure into the next — each sample pays for its
        // own publishing.
        hot.flush_hot().expect("inter-sample flush");
    });
    group.finish();

    if let Some(stats) = hot.hot_stats() {
        eprintln!(
            "hot-bench: hits {} misses {} writes {} published {} rounds {}",
            stats.hits, stats.misses, stats.writes, stats.published, stats.publish_rounds
        );
    }

    drop(tree);
    drop(hot);
    std::fs::remove_dir_all(tree_dir).ok();
    std::fs::remove_dir_all(hot_dir).ok();
}

fn teardown(_c: &mut Criterion) {
    std::fs::remove_dir_all(bench_root()).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = hot_tier, teardown
}
criterion_main!(benches);
