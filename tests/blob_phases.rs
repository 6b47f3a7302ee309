//! Phase tables of a Blob build, read off the engine's own probes
//! (`forkbase_pos::metrics`' Blob phase timers and `forkbase_crypto::metrics`'
//! byte counters).
//!
//! Both tests are measurements, not checks, so they are ignored by default:
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
//!
//! Each prints, per operation, the median of every phase in µs, the scan
//! rate, and the bytes each scanner and SHA-256 saw.

use forkbase::chunk::MemStore;
use forkbase::cluster::{Cluster, Partitioning};
use forkbase::crypto::metrics as crypto_metrics;
use forkbase::pos::{metrics as pos_metrics, Blob};
use forkbase::ChunkerConfig;
use std::time::Instant;

struct Phases {
    rows: Vec<[u64; 4]>,
    lane: u64,
    scalar: u64,
    sha: u64,
    bytes: u64,
}

impl Phases {
    fn new() -> Phases {
        Phases {
            rows: Vec::new(),
            lane: 0,
            scalar: 0,
            sha: 0,
            bytes: 0,
        }
    }

    /// Run `op` over `len` user bytes and record what the probes saw.
    fn record(&mut self, len: usize, op: impl FnOnce()) {
        let (pos, crypto) = (pos_metrics::snapshot(), crypto_metrics::snapshot());
        let start = Instant::now();
        op();
        let total = start.elapsed().as_nanos() as u64;
        let pos = pos_metrics::snapshot().since(pos);
        let crypto = crypto_metrics::snapshot().since(crypto);
        self.rows
            .push([pos.blob_scan_ns, pos.blob_hash_ns, pos.blob_store_ns, total]);
        self.lane += crypto.lane_scan_bytes;
        self.scalar += crypto.scalar_scan_bytes;
        self.sha += crypto.sha256_bytes;
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
             SHA-256 {} B",
            self.bytes as f64 / n as f64 / scan,
            self.lane / n,
            self.scalar / n,
            self.sha / n,
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
    let mut phases = Phases::new();
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
    let mut phases = Phases::new();
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
