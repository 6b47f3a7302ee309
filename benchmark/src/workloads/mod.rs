//! The five workloads and what they share: the [`Workload`] interface the
//! harness drives, the engine configuration, and seeded input helpers.

mod cluster_tcp;
mod collab_fork_merge;
mod kv_mixed;
mod ledger_blocks;
mod two_client;
mod wiki_edit;

use crate::trace::TracedStore;
use forkbase_chunk::{
    CacheConfig, ChunkStore, Durability, LogConfig, LogStore, ShardedCache, StoreStats,
};
use forkbase_core::{ChunkerConfig, ForkBase, HotTierConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Name and one-line reason of every workload, in run order. The reasons
/// are repeated in `BENCHMARK.json`; a test keeps the two in step.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "kv_mixed",
        "2 clients, 50/50 get/put of 256 B strings, zipf over 100k keys that fit the cache: core commit pipeline and LogStore group commit",
    ),
    (
        "wiki_edit",
        "1 client edits and reads old versions of 2048 x 64 KiB pages, twice the chunk cache: pos update/read, crypto, LogStore reads on cache misses",
    ),
    (
        "ledger_blocks",
        "1 client commits 64-txn blocks on a 50k-account state map through the hot tier and ChainStore, with forks: write amplification and checkpoints",
    ),
    (
        "collab_fork_merge",
        "1 client forks, edits, diffs and merges a 200k-record in-memory dataset: pos diff/merge and fork-on-demand, LogStore bypassed",
    ),
    (
        "cluster_tcp",
        "2 connections get/put 16 KiB blobs on a 2-node loopback-TCP cluster over in-memory stores: wire codec, routing and remote-chunk cache",
    ),
];

/// How much of the full-size workload to run: 1 for measurements, 20 for
/// `--smoke` and the harness's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub div: u64,
}

impl Scale {
    pub const FULL: Scale = Scale { div: 1 };
    pub const SMOKE: Scale = Scale { div: 20 };

    pub fn of(self, full: u64) -> u64 {
        (full / self.div).max(1)
    }
}

/// How a pass assembles the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// Inject [`TracedStore`] under the engine (the traced pass).
    pub traced: bool,
    /// `cluster_tcp` only: the same cluster on `Transport::InProcess`.
    pub inproc: bool,
}

/// What one segment of the measured phase did.
#[derive(Default)]
pub struct SegmentOut {
    /// Time spent generating the segment's operations (outside `wall_ns`).
    pub gen_ns: u64,
    /// A hash of the generated operations: equal hashes, equal inputs.
    pub schedule_hash: u64,
    /// Wall time from the first client starting to the last one finishing.
    pub wall_ns: u64,
    /// Sum over clients of the time each spent in its operation loop.
    pub client_ns: u64,
    /// Per-operation latencies; a failed operation has none.
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    pub failed: u64,
}

impl SegmentOut {
    /// Record one operation: its latency if the model accepted the
    /// result, a failure otherwise.
    pub fn record(&mut self, is_read: bool, ns: u64, ok: bool) {
        if !ok {
            self.failed += 1;
        } else if is_read {
            self.reads_ns.push(ns);
        } else {
            self.writes_ns.push(ns);
        }
    }

    /// The one client's operation loop took `wall_ns`.
    pub fn single_client(&mut self, wall_ns: u64) {
        self.wall_ns = wall_ns;
        self.client_ns = wall_ns;
    }
}

/// What the correctness oracle found after the measured phase.
#[derive(Default, Debug)]
pub struct OracleOut {
    pub checked: u64,
    pub failed: u64,
    /// Durable workloads: time to reopen the store, and what it replayed.
    pub reopen_ms: f64,
    pub reopen_replayed_chunks: u64,
}

impl OracleOut {
    /// Count one comparison with the model.
    pub fn check(&mut self, ok: bool) {
        self.checked += 1;
        self.failed += u64::from(!ok);
    }
}

/// Named numbers: engine counters on their way to per-layer metrics.
pub type Extras = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// The load phase, timed by the harness as `setup_s`: open a fresh
    /// engine (under `dir` when durable) and preload it. Comes once,
    /// before the first segment.
    fn load(&mut self, dir: &Path, mode: Mode) -> Result<(), String>;

    /// Run segment `idx` (0 is the warm-up): generate its operations from
    /// the seed and the model, then execute them in a closed loop.
    fn segment(&mut self, idx: u64) -> SegmentOut;

    /// `(store().stored_bytes(), logical bytes handed to the engine)`.
    fn bytes(&self) -> (u64, u64);

    /// Read everything back and compare with the model; with `reopen`,
    /// durable workloads also checkpoint, drop, reopen and re-verify.
    fn verify(&mut self, reopen: bool) -> Result<OracleOut, String>;

    /// The engine's own counters as they stand (`store.*`, `cache.*`,
    /// `hot.*`, `remote.*`; the harness takes differences over the
    /// measured phase), and `gauge.*` values, which it takes as they are.
    fn counters(&mut self, out: &mut Extras);

    /// Background work a deployment runs now and then, timed once after
    /// the oracle on a real durable instance (`ledger_blocks` prunes its
    /// side chains); reported by per-layer metric name.
    fn maintenance(&mut self, _out: &mut Extras) {}

    /// Change one value of the model, so that [`verify`](Self::verify)
    /// must fail (`--self-test`).
    fn corrupt_model(&mut self);
}

/// Rounds of an untraced run of workload `name`. Each round is a fresh
/// engine loaded with inputs of its own sub-seed; `setup_s` and
/// `stored_bytes_per_user_byte` are medians over the rounds and their
/// latencies are pooled, so what one seed's data happens to look like,
/// and what the shared host was doing for a few seconds, weigh less.
///
/// A round is short — eight segments at `--seconds 10` — because the
/// sandbox's VM backs about the first 1 GB of memory a process touches
/// quickly and every page after that ten times slower, heap and page
/// cache alike: a round that touches more than about 0.8 GB measures the
/// VM, not the engine. The workloads whose runs disagree most on the
/// shared host get more rounds.
pub fn rounds(name: &str) -> u64 {
    match name {
        "kv_mixed" => kv_mixed::ROUNDS,
        "wiki_edit" => wiki_edit::ROUNDS,
        "ledger_blocks" => ledger_blocks::ROUNDS,
        "collab_fork_merge" => collab_fork_merge::ROUNDS,
        "cluster_tcp" => cluster_tcp::ROUNDS,
        _ => 1,
    }
}

/// The engine configuration workload `name` pins, for the result file.
pub fn config(name: &str) -> &'static str {
    match name {
        "kv_mixed" | "wiki_edit" => DURABLE_CONFIG,
        "ledger_blocks" => ledger_blocks::CONFIG,
        "collab_fork_merge" => collab_fork_merge::CONFIG,
        "cluster_tcp" => cluster_tcp::CONFIG,
        _ => "",
    }
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_mixed" => Box::new(kv_mixed::KvMixed::new(seed, scale)),
        "wiki_edit" => Box::new(wiki_edit::WikiEdit::new(seed, scale)),
        "ledger_blocks" => Box::new(ledger_blocks::LedgerBlocks::new(seed, scale)),
        "collab_fork_merge" => Box::new(collab_fork_merge::CollabForkMerge::new(seed, scale)),
        "cluster_tcp" => Box::new(cluster_tcp::ClusterTcp::new(seed, scale)),
        _ => return None,
    })
}

/// A durable engine with the repository's defaults (`Durability::Batch
/// {512, 10 ms}`, 64 MiB cache, default chunker) — never read from the
/// environment. Untraced, this is exactly `ForkBase::open_with`; traced,
/// the same stack is assembled by hand with [`TracedStore`] on top, which
/// costs the handle its `commit_checkpoint` (the engine no longer knows
/// its store is a `LogStore`).
pub struct Durable {
    pub db: ForkBase,
    pub tiers: Tiers,
}

/// The cache and log under a durable engine, for their counters.
pub struct Tiers {
    pub cache: Arc<ShardedCache>,
    pub log: Arc<LogStore>,
}

impl Tiers {
    /// The tiers of a handle that was opened with `open_with`.
    pub fn of(db: &ForkBase) -> Tiers {
        Tiers {
            cache: db.chunk_cache().expect("default cache is on").clone(),
            log: db.durable_store().expect("opened durably").clone(),
        }
    }
}

pub const DURABLE_CONFIG: &str =
    "Durability::Batch{512,10ms}, CacheConfig::default()=64MiB, ChunkerConfig::default(), LogConfig::default()";

pub fn open_durable(dir: &Path, hot: HotTierConfig, traced: bool) -> Result<Durable, String> {
    let cfg = ChunkerConfig::default();
    if !traced {
        let db = ForkBase::open_with(dir, cfg, Durability::default(), CacheConfig::default(), hot)
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let tiers = Tiers::of(&db);
        return Ok(Durable { db, tiers });
    }
    let log = Arc::new(
        LogStore::open_with(dir, LogConfig::default(), Durability::default())
            .map_err(|e| format!("open {}: {e}", dir.display()))?,
    );
    let cache = Arc::new(ShardedCache::new(
        log.clone() as Arc<dyn ChunkStore>,
        CacheConfig::default(),
    ));
    let db = ForkBase::with_store_hot(TracedStore::wrap(cache.clone()), cfg, hot);
    Ok(Durable {
        db,
        tiers: Tiers { cache, log },
    })
}

/// The store counters every workload reports.
pub fn store_counters(s: &StoreStats, out: &mut Extras) {
    out.insert("store.puts", s.puts as f64);
    out.insert("store.dedup_hits", s.dedup_hits as f64);
    out.insert("store.io_errors", s.io_errors as f64);
}

/// Store and cache counters, and the log's size, of a durable workload.
pub fn durable_counters(db: &ForkBase, tiers: &Tiers, user_bytes: u64, out: &mut Extras) {
    let s = db.store().stats();
    store_counters(&s, out);
    let (hits, misses) = tiers.cache.hit_miss();
    out.insert("cache.hits", hits as f64);
    out.insert("cache.misses", misses as f64);
    out.insert("cache.evictions", s.cache_evictions as f64);
    out.insert(
        "gauge.log_bytes_per_user_byte",
        dir_bytes(tiers.log.dir()) as f64 / user_bytes.max(1) as f64,
    );
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The seeded generator for one purpose (`stream`) of one run.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(stream)))
}

/// splitmix64's finaliser: a cheap, well-mixed 64-bit hash.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fast content hash for comparing what the engine returned with what
/// the model expects without holding every old version in memory.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = (lane.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    let mut h = data.len() as u64;
    for &byte in blocks.remainder() {
        h = (h.rotate_left(5) ^ byte as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    lanes.iter().fold(h, |acc, l| mix64(acc ^ l))
}

/// `len` printable bytes that are a pure function of `(id, version)`, and
/// start with both so a reader can tell which version it got.
pub fn versioned_value(id: u64, version: u64, len: usize) -> String {
    let mut s = String::with_capacity(len + 16);
    s.push_str(&format!("{id:08}:{version:010}:"));
    let mut x = mix64(id.wrapping_mul(0x1_0000_0001).wrapping_add(version));
    while s.len() < len {
        x = mix64(x);
        s.extend((0..16).map(|i| char::from(b"0123456789abcdef"[(x >> (4 * i)) as usize & 15])));
    }
    s.truncate(len);
    s
}

/// The `(id, version)` a [`versioned_value`] claims, if it is one: the
/// whole value must match what those two generate.
pub fn parse_versioned(value: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(value).ok()?;
    let id: u64 = text.get(0..8)?.parse().ok()?;
    let version: u64 = text.get(9..19)?.parse().ok()?;
    (versioned_value(id, version, value.len()).as_bytes() == value).then_some((id, version))
}

/// Skewed choice over `n` items: rank 0 is the most popular, and ranks
/// are scattered over the id space so popularity is not id order.
pub struct Skew {
    zipf: fb_workload::Zipf,
    n: u64,
}

impl Skew {
    pub fn new(n: u64, s: f64) -> Skew {
        Skew {
            zipf: fb_workload::Zipf::new(n as usize, s),
            n,
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        // An odd multiplier permutes 0..n only when n is a power of two;
        // for any n, adding a fixed offset modulo n still does.
        (self.zipf.sample(rng) as u64 + self.n / 3) % self.n
    }
}

/// Time `f`, returning its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Fold a value into a running schedule hash.
pub fn fold_hash(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_values_parse_back_and_reject_edits() {
        let v = versioned_value(42, 7, 256);
        assert_eq!(v.len(), 256);
        assert_eq!(parse_versioned(v.as_bytes()), Some((42, 7)));
        let mut bad = v.into_bytes();
        bad[200] ^= 1;
        assert_eq!(parse_versioned(&bad), None);
        assert_eq!(parse_versioned(b"short"), None);
    }

    #[test]
    fn content_hash_sees_every_byte() {
        let a = vec![5u8; 1000];
        for i in [0, 31, 32, 511, 992, 999] {
            let mut b = a.clone();
            b[i] ^= 0x40;
            assert_ne!(content_hash(&a), content_hash(&b), "byte {i}");
        }
        assert_ne!(content_hash(&a[..999]), content_hash(&a));
    }

    #[test]
    fn workload_names_are_unique_and_buildable() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: why is one short line");
            assert!(build(name, 1, Scale::SMOKE).is_some(), "{name} builds");
        }
        assert!(build("nope", 1, Scale::SMOKE).is_none());
    }
}
