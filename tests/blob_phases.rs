//! Phase tables of builds and splices, read off the engine's own probes
//! (`forkbase_pos::metrics`' phase timers and fetch counters and
//! `forkbase_crypto::metrics`' byte counters).
//!
//! All tests here are measurements, not checks, so they are ignored by
//! default:
//!
//! ```sh
//! cargo test --release --test blob_phases -- --ignored --nocapture --test-threads 1
//! ```
//!
//! * `page_build_phases` builds 2,048 wiki-text pages of 64 KiB, as the
//!   `wiki_edit` load does, into a `MemStore`.
//! * `cluster_put_phases` puts 16 KiB blobs over a two-node loopback-TCP
//!   cluster, as `cluster_tcp`'s puts do; the store phase includes the
//!   round trips.
//! * `map_import_phases` builds the 200,000-record dataset of
//!   `collab_fork_merge` as one map (row layout), three times.
//! * `dataset_import_phases` imports the same 200,000 records through
//!   `Dataset::import`, row and column layout, five times each, and
//!   prints what collecting the items took apart from the builder's
//!   phases; the remainder is the import's own per-record work outside
//!   the builds, and its commit.
//! * `map_batch_phases` applies that load's contiguous 200- and
//!   100-record batches to the imported map.
//! * `page_splice_phases` applies `wiki_edit`'s 64–256-byte edits to
//!   64 KiB pages.
//! * `ledger_block_phases` commits `ledger_blocks`' blocks of 64 state
//!   updates on a 50,000-account durable `ChainStore` and adds the log's
//!   side of each block: the checkpoint round's `write` and `fdatasync`,
//!   the bytes the log's writer thread wrote ahead of it and the bytes
//!   the checkpoint wrote itself (`LogStore`'s round counters). It also
//!   times the block's three calls (`state_put_many`, `flush_state`,
//!   `append_block`), counts the bytes the store accepted per block, and
//!   prints the hot tier's publish rounds, edits per round and the
//!   hash-pool jobs its round builds ran. It reads the block loop's time on
//!   a CPU and waiting on a runqueue per block
//!   (`/proc/thread-self/schedstat`), for every block and for the blocks
//!   that commit a round.
//!
//! Each prints, per operation, the median of every phase in µs, the scan
//! rate, the bytes each scanner and SHA-256 saw, and the leaves fetched
//! (those fetched to warm a splice's rolling window apart). A Blob build
//! reads the Blob timers; the others read the timers of everything a
//! `LeafBuilder` cuts, whose scan phase also holds a splice's seeks and
//! leaf fetches.

use bytes::Bytes;
use fb_workload::{EditKind, PageEditGen};
use forkbase::chain::{ChainConfig, ChainStore};
use forkbase::chunk::MemStore;
use forkbase::cluster::{Cluster, Partitioning};
use forkbase::collab::{Dataset, Layout};
use forkbase::core::HotTierConfig;
use forkbase::crypto::metrics as crypto_metrics;
use forkbase::pos::metrics::{self as pos_metrics, PosMetrics};
use forkbase::pos::{Blob, Map};
use forkbase::{ChunkerConfig, ForkBase};
use std::time::Instant;

struct Phases {
    /// Which timers the operation fills: `[scan, hash, store]`.
    timers: fn(&PosMetrics) -> [u64; 3],
    rows: Vec<[u64; 4]>,
    lane: u64,
    scalar: u64,
    sha: u64,
    leaf_gets: u64,
    seed_fetches: u64,
    bytes: u64,
}

impl Phases {
    fn new(timers: fn(&PosMetrics) -> [u64; 3]) -> Phases {
        Phases {
            timers,
            rows: Vec::new(),
            lane: 0,
            scalar: 0,
            sha: 0,
            leaf_gets: 0,
            seed_fetches: 0,
            bytes: 0,
        }
    }

    fn blob() -> Phases {
        Phases::new(|m| [m.blob_scan_ns, m.blob_hash_ns, m.blob_store_ns])
    }

    fn items() -> Phases {
        Phases::new(|m| [m.item_scan_ns, m.item_hash_ns, m.item_store_ns])
    }

    /// Run `op` over `len` user bytes and record what the probes saw.
    fn record(&mut self, len: usize, op: impl FnOnce()) {
        let (pos, crypto) = (pos_metrics::snapshot(), crypto_metrics::snapshot());
        let start = Instant::now();
        op();
        let total = start.elapsed().as_nanos() as u64;
        let pos = pos_metrics::snapshot().since(pos);
        let crypto = crypto_metrics::snapshot().since(crypto);
        let [scan, hash, store] = (self.timers)(&pos);
        self.rows.push([scan, hash, store, total]);
        self.lane += crypto.lane_scan_bytes;
        self.scalar += crypto.scalar_scan_bytes;
        self.sha += crypto.sha256_bytes;
        self.leaf_gets += pos.leaf_gets;
        self.seed_fetches += pos.seed_fetches;
        self.bytes += len as u64;
    }

    fn print(&self, what: &str) {
        let median = |i: usize| {
            let mut v: Vec<u64> = self.rows.iter().map(|r| r[i]).collect();
            v.sort_unstable();
            v[v.len() / 2] as f64 / 1e3
        };
        let n = self.rows.len() as u64;
        let [scan, hash, store, total] = [0, 1, 2, 3].map(median);
        println!(
            "{what}: {n} ops, median µs: scan {scan:.1}, leaf hash {hash:.1}, index+store {store:.1}, \
             total {total:.1}; scan {:.0} MB/s; per op: lane-scanned {} B, scalar-scanned {} B, \
             SHA-256 {} B, leaf gets {:.2} (seed {:.2})",
            self.bytes as f64 / n as f64 / scan,
            self.lane / n,
            self.scalar / n,
            self.sha / n,
            self.leaf_gets as f64 / n as f64,
            self.seed_fetches as f64 / n as f64,
        );
    }
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn page_build_phases() {
    let mut text = fb_workload::PageEditGen::new(1, 0.9, 64);
    let pages: Vec<String> = (0..2048).map(|_| text.initial_page(64 << 10)).collect();
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let mut phases = Phases::blob();
    for page in &pages {
        phases.record(page.len(), || {
            Blob::build(&store, &cfg, page.as_bytes());
        });
    }
    phases.print("64 KiB page build");
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn cluster_put_phases() {
    let cluster = Cluster::builder(2)
        .partitioning(Partitioning::TwoLayer)
        .tcp()
        .build()
        .expect("cluster");
    let mut text = fb_workload::PageEditGen::new(2, 0.9, 64);
    let mut phases = Phases::blob();
    for i in 0..4096u32 {
        let blob = text.initial_page(16 << 10);
        phases.record(blob.len(), || {
            cluster
                .put_blob(format!("blob{:03}", i % 256), blob.as_bytes())
                .expect("put");
        });
    }
    phases.print("16 KiB cluster_tcp put");
}

/// `collab_fork_merge`'s dataset, row layout: primary key to encoded record.
fn dataset(seed: u64) -> Vec<(String, bytes::Bytes)> {
    fb_workload::DatasetGen::new(seed)
        .records(200_000)
        .into_iter()
        .map(|r| {
            let row = r.encode();
            (r.pk, row)
        })
        .collect()
}

fn user_bytes(rows: &[(String, bytes::Bytes)]) -> usize {
    rows.iter().map(|(k, v)| k.len() + v.len()).sum()
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn map_import_phases() {
    let rows = dataset(1);
    let cfg = ChunkerConfig::default();
    let mut phases = Phases::items();
    for _ in 0..3 {
        let store = MemStore::new();
        phases.record(user_bytes(&rows), || {
            Map::build(&store, &cfg, rows.iter().cloned());
        });
    }
    phases.print("200k-record map import");
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn dataset_import_phases() {
    let records = fb_workload::DatasetGen::new(1).records(200_000);
    for layout in [Layout::Row, Layout::Column] {
        // Per import: [whole, collect, scan, hash, store, remainder] ns.
        let mut cols = vec![Vec::new(); 6];
        for _ in 0..5 {
            let db = ForkBase::in_memory();
            let pos = pos_metrics::snapshot();
            let start = Instant::now();
            Dataset::import(&db, "sales", layout, &records).expect("import");
            let whole = start.elapsed().as_nanos() as u64;
            let m = pos_metrics::snapshot().since(pos);
            let phases = [
                m.item_collect_ns,
                m.item_scan_ns,
                m.item_hash_ns,
                m.item_store_ns,
            ];
            let remainder = whole.saturating_sub(phases.iter().sum());
            for (col, v) in cols
                .iter_mut()
                .zip([whole].iter().chain(&phases).chain([&remainder]))
            {
                col.push(*v);
            }
        }
        let (whole, min, max) = spread(&mut cols[0]);
        let ms: Vec<f64> = cols.iter_mut().map(|v| spread(v).0 as f64 / 1e6).collect();
        println!(
            "200k-record {layout:?} import: 5 imports, median ms: whole {:.1} ({:.1}–{:.1}), \
             collect {:.1}, scan {:.1}, leaf hash {:.1}, index+store {:.1}, remainder {:.1}",
            whole as f64 / 1e6,
            min as f64 / 1e6,
            max as f64 / 1e6,
            ms[1],
            ms[2],
            ms[3],
            ms[4],
            ms[5],
        );
    }
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn map_batch_phases() {
    let rows = dataset(1);
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let mut map = Map::build(&store, &cfg, rows.iter().cloned());
    let mut gen = fb_workload::DatasetGen::new(2);
    for size in [200, 100] {
        let mut phases = Phases::items();
        for _ in 0..1000 {
            let batch: Vec<(String, Option<bytes::Bytes>)> = gen
                .modifications_range(rows.len(), size)
                .into_iter()
                .map(|(_, r)| {
                    let row = r.encode();
                    (r.pk, Some(row))
                })
                .collect();
            let len = batch
                .iter()
                .map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len()));
            phases.record(len.sum(), || {
                map = map.update(&store, &cfg, batch).expect("update");
            });
        }
        phases.print(&format!("{size}-record contiguous batch"));
    }
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn page_splice_phases() {
    let mut text = PageEditGen::new(3, 0.9, 64);
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let mut pages: Vec<(String, Blob)> = (0..256)
        .map(|_| {
            let page = text.initial_page(64 << 10);
            let blob = Blob::build(&store, &cfg, page.as_bytes());
            (page, blob)
        })
        .collect();
    // Edit sizes of 64, 128 and 256 bytes, as the `wiki_edit` load mixes them.
    let mut texts: Vec<PageEditGen> = [64, 128, 256]
        .iter()
        .map(|&size| PageEditGen::new(4 + size as u64, 0.9, size))
        .collect();
    let mut phases = Phases::items();
    for i in 0..4096usize {
        let (page, blob) = &mut pages[i * 7 % 256];
        let edit = texts[i % 3].next_edit(page.len());
        let (at, text, remove) = match &edit {
            EditKind::InPlace { at, text } => (*at, text.clone(), text.len()),
            EditKind::Insert { at, text } => (*at, text.clone(), 0),
        };
        PageEditGen::apply(page, &edit);
        phases.record(text.len(), || {
            *blob = blob
                .splice(&store, &cfg, at as u64, remove as u64, text.as_bytes())
                .expect("splice");
        });
    }
    phases.print("64 KiB page splice");
}

/// The calling thread's time on a CPU and waiting on a runqueue so far,
/// in ns; `None` where the kernel does not expose them.
fn schedstat() -> Option<[u64; 2]> {
    let line = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = line.split_whitespace().map(str::parse::<u64>);
    Some([fields.next()?.ok()?, fields.next()?.ok()?])
}

/// `v`'s p50/p80/p90/p95 (nearest rank) and sum, in µs and ms; "n/a"
/// when it is empty.
fn percentiles(v: &mut [u64]) -> String {
    if v.is_empty() {
        return "n/a".into();
    }
    v.sort_unstable();
    let at = |p: usize| v[(v.len() * p).div_ceil(100).max(1) - 1] as f64 / 1e3;
    let sum = v.iter().sum::<u64>() as f64 / 1e6;
    format!(
        "{:.0}/{:.0}/{:.0}/{:.0} µs (sum {sum:.1} ms)",
        at(50),
        at(80),
        at(90),
        at(95)
    )
}

/// Median, minimum and maximum of `v`.
fn spread(v: &mut [u64]) -> (u64, u64, u64) {
    v.sort_unstable();
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

#[test]
#[ignore = "measurement; run with --ignored --nocapture"]
fn ledger_block_phases() {
    const ACCOUNTS: u64 = 50_000;
    const BLOCKS: u64 = 600;
    let dir = std::env::temp_dir().join(format!("forkbase-ledger-phases-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // `ledger_blocks`' engine: default log and cache, the hot tier on.
    // `flush_state` journals each block's state; every 32nd block
    // (`4 × publish_batch` edits) seals a round, which a build thread
    // builds and the next seal commits.
    let chain = ChainStore::open_with(
        &dir,
        ChainConfig {
            hot: HotTierConfig::on(),
            ..ChainConfig::default()
        },
    )
    .expect("open");
    let account = |a: u64| Bytes::from(format!("acct{a:08}"));
    // 100 bytes: the account and version, then pseudo-random hex digits.
    let value = |a: u64, version: u64| {
        let mut v = format!("{a:08}:{version:010}:");
        let mut x = a << 32 | version;
        while v.len() < 100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push_str(&format!("{:016x}", x));
        }
        v.truncate(100);
        Bytes::from(v)
    };
    let preload = (0..ACCOUNTS).map(|a| (account(a), Some(value(a, 0))));
    chain.state_put_many(preload).expect("preload");
    chain.flush_state().expect("flush");
    let mut tip = chain
        .append_block(None, b"genesis", "slot-0")
        .expect("genesis");
    let log = chain.db().durable_store().expect("durable").clone();

    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    // Per block: [scan, hash, index+store, write, fdatasync, total,
    // state_put_many, flush_state, append_block] ns, then [leaves, ahead,
    // checkpoint, fsyncs, writeback starts, bytes stored].
    let (mut times, mut counts) = (vec![Vec::new(); 9], vec![Vec::new(); 6]);
    // `flush_state` of the blocks that committed a round, ns.
    let mut committing = Vec::new();
    // The block loop's [on-CPU, runqueue wait] per block, ns: every
    // block, and the blocks that committed a round.
    let (mut sched, mut sched_committing) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let hot_before = chain.db().hot_stats().expect("tier on");
    for number in 1..=BLOCKS {
        let updates: Vec<(Bytes, Option<Bytes>)> = (0..64)
            .map(|_| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = (rng >> 33) % ACCOUNTS;
                (account(a), Some(value(a, number)))
            })
            .collect();
        let body = vec![number as u8; 4096];
        let pos = pos_metrics::snapshot();
        let before = [
            log.caller_write_ns(),
            log.caller_fsync_ns(),
            log.writer_bytes_written(),
            log.caller_bytes_written(),
            log.fsync_count(),
            log.writeback_starts(),
        ];
        let stored = chain.db().store().stored_bytes();
        let rounds = chain.db().hot_stats().expect("tier on").publish_rounds;
        let sched_before = schedstat();
        let start = Instant::now();
        chain.state_put_many(updates).expect("updates");
        let put_done = Instant::now();
        chain.flush_state().expect("flush");
        let flush_done = Instant::now();
        tip = chain
            .append_block(Some(tip), &body, format!("slot-{number}"))
            .expect("append");
        let end = Instant::now();
        let sched_after = schedstat();
        let total = (end - start).as_nanos() as u64;
        let calls = [put_done - start, flush_done - put_done, end - flush_done]
            .map(|d| d.as_nanos() as u64);
        let stored = chain.db().store().stored_bytes() - stored;
        let committed = chain.db().hot_stats().expect("tier on").publish_rounds > rounds;
        if committed {
            committing.push(calls[1]);
        }
        if let (Some(before), Some(after)) = (sched_before, sched_after) {
            for i in 0..2 {
                sched[i].push(after[i] - before[i]);
                if committed {
                    sched_committing[i].push(after[i] - before[i]);
                }
            }
        }
        let pos = pos_metrics::snapshot().since(pos);
        let after = [
            log.caller_write_ns(),
            log.caller_fsync_ns(),
            log.writer_bytes_written(),
            log.caller_bytes_written(),
            log.fsync_count(),
            log.writeback_starts(),
        ];
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let row = [
            pos.item_scan_ns,
            pos.item_hash_ns,
            pos.item_store_ns,
            d[0],
            d[1],
            total,
            calls[0],
            calls[1],
            calls[2],
        ];
        for (col, v) in times.iter_mut().zip(row) {
            col.push(v);
        }
        for (col, v) in counts
            .iter_mut()
            .zip([pos.leaf_puts, d[2], d[3], d[4], d[5], stored])
        {
            col.push(v);
        }
    }
    assert!(!log.poisoned());
    let hot = chain.db().hot_stats().expect("tier on");
    let us: Vec<f64> = times.iter_mut().map(|v| spread(v).0 as f64 / 1e3).collect();
    // A block during which the log takes far more than the block's own
    // bytes shares its fsync with a publish round's leaves.
    let carried = (0..counts[1].len())
        .filter(|&i| counts[1][i] + counts[2][i] > 256 << 10)
        .count();
    let [leaves, ahead, checkpoint, fsyncs, starts, stored] =
        [0, 1, 2, 3, 4, 5].map(|i| spread(&mut counts[i]));
    println!(
        "ledger block: {BLOCKS} blocks, median µs: splice scan {:.1}, leaf hash {:.1}, \
         index+store {:.1}, checkpoint write {:.1}, fdatasync {:.1}, block total {:.1}",
        us[0], us[1], us[2], us[3], us[4], us[5]
    );
    println!(
        "ledger block calls, median µs: state_put_many {:.1}, flush_state {:.1}, \
         append_block {:.1}; bytes stored per block {} ({}–{})",
        us[6], us[7], us[8], stored.0, stored.1, stored.2
    );
    let (rounds, edits, ns) = (
        hot.publish_rounds - hot_before.publish_rounds,
        hot.published - hot_before.published,
        hot.publish_ns - hot_before.publish_ns,
    );
    println!(
        "ledger block hot tier: {rounds} rounds, {edits} edits, {:.1} edits and {:.0} µs per round; \
         journaled {} edits in {} bytes; {carried} blocks' log writes topped 256 KiB",
        edits as f64 / rounds.max(1) as f64,
        ns as f64 / 1e3 / rounds.max(1) as f64,
        hot.journaled - hot_before.journaled,
        hot.journal_bytes - hot_before.journal_bytes
    );
    let pool = (
        hot.pool_jobs - hot_before.pool_jobs,
        hot.pool_bytes - hot_before.pool_bytes,
    );
    println!(
        "ledger block hot tier: pool workers ran {} jobs and {} bytes for its builds, {:.1} jobs and {:.0} bytes per round",
        pool.0,
        pool.1,
        pool.0 as f64 / rounds.max(1) as f64,
        pool.1 as f64 / rounds.max(1) as f64
    );
    let [on_cpu, wait] = &mut sched;
    println!(
        "ledger block loop, p50/p80/p90/p95 per block: on-CPU {}, runqueue wait {}",
        percentiles(on_cpu),
        percentiles(wait)
    );
    let [on_cpu, wait] = &mut sched_committing;
    println!(
        "ledger block loop, blocks that committed a round: on-CPU {}, runqueue wait {}",
        percentiles(on_cpu),
        percentiles(wait)
    );
    if !committing.is_empty() {
        let (mid, lo, hi) = spread(&mut committing);
        println!(
            "ledger block: {} blocks committed a round; their flush_state median {:.1} µs ({:.1}–{:.1})",
            committing.len(),
            mid as f64 / 1e3,
            lo as f64 / 1e3,
            hi as f64 / 1e3
        );
    }
    println!(
        "ledger block, per block as median (min–max): leaves put {} ({}–{}), \
         bytes written ahead {} ({}–{}), bytes written at the checkpoint {} ({}–{}), \
         fsyncs {} ({}–{}), writeback starts {} ({}–{})",
        leaves.0,
        leaves.1,
        leaves.2,
        ahead.0,
        ahead.1,
        ahead.2,
        checkpoint.0,
        checkpoint.1,
        checkpoint.2,
        fsyncs.0,
        fsyncs.1,
        fsyncs.2,
        starts.0,
        starts.1,
        starts.2
    );
    drop(chain);
    std::fs::remove_dir_all(&dir).ok();
}
