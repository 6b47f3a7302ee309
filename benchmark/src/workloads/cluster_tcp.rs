//! `cluster_tcp`: two client connections, 50 % `get_blob` / 50 %
//! `put_blob` of 16 KiB blobs over a uniform choice of 256 keys, on a
//! two-node cluster with two-layer partitioning over loopback TCP and
//! in-memory node stores.
//!
//! Half of every blob's chunks live on the other node, so the wire (frame
//! codec, pooled client, per-connection server threads), the two-layer
//! routing and the remote-chunk cache dominate. Run again on
//! `Transport::InProcess` (the traced run does), the same schedule gives
//! the wire's cost by subtraction. The two clients follow
//! [`two_client`](super::two_client).

use super::two_client::{schedule_hash, VersionedKeys, VersionedOp};
use super::{store_counters, timed, Extras, Mode, OracleOut, Scale, SegmentOut, Workload};
use crate::trace::{self, Kind, TracedStore};
use forkbase_chunk::{ChunkStore, MemStore, StoreStats};
use forkbase_cluster::{Cluster, Partitioning};
use rand::Rng;
use std::path::Path;
use std::sync::Arc;

const NODES: usize = 2;
const KEYS: u64 = 256;
const BLOB_LEN: usize = 16 << 10;
/// Operations per client per segment (about 0.15 s on the 2-core host).
const SEGMENT_OPS: u64 = 1_000;
/// A round is 16 000 operations (about 1.3 s), whose puts fill the node
/// stores with 0.13 GB; six rounds, as the two clients, two server
/// threads and the host's other tenants share two cores.
pub const ROUNDS: u64 = 6;
/// The engine configuration this workload pins, for the result file.
pub const CONFIG: &str = "Cluster::builder(2).partitioning(TwoLayer).tcp(): MemStore nodes, default remote-chunk cache, TcpConfig::default()";
const SAMPLE_EVERY: u64 = 8;

pub struct ClusterTcp {
    seed: u64,
    scale: Scale,
    model: VersionedKeys,
    cluster: Option<Cluster>,
}

impl ClusterTcp {
    pub fn new(seed: u64, scale: Scale) -> ClusterTcp {
        ClusterTcp {
            seed,
            scale,
            model: VersionedKeys::new("blob", scale.of(KEYS), BLOB_LEN),
            cluster: None,
        }
    }

    fn generate(&mut self, idx: u64) -> Vec<Vec<VersionedOp>> {
        let n = self.model.len();
        self.model
            .generate(self.seed, idx, self.scale.of(SEGMENT_OPS), |rng| {
                rng.gen_range(0..n)
            })
    }

    /// Every node's counters, summed.
    fn node_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        let cluster = self.cluster.as_ref().expect("loaded");
        for s in cluster.node_stats().unwrap_or_default() {
            total.merge(&s);
        }
        total
    }
}

impl Workload for ClusterTcp {
    fn load(&mut self, _dir: &Path, mode: Mode) -> Result<(), String> {
        assert_eq!(
            self.model.ops_done, 0,
            "load comes before the first segment"
        );
        let mut builder = Cluster::builder(NODES).partitioning(Partitioning::TwoLayer);
        if mode.traced {
            builder = builder.stores(
                (0..NODES)
                    .map(|_| TracedStore::wrap(Arc::new(MemStore::new()) as Arc<dyn ChunkStore>))
                    .collect(),
            );
        }
        if !mode.inproc {
            builder = builder.tcp();
        }
        let cluster = builder.build().map_err(|e| format!("cluster: {e}"))?;
        for k in 0..self.model.len() {
            let _s = trace::span(Kind::ClusterPut);
            cluster
                .put_blob(
                    self.model.names[k as usize].clone(),
                    self.model.current(k).as_bytes(),
                )
                .map_err(|e| format!("preload: {e}"))?;
        }
        self.model.count_preload();
        self.cluster = Some(cluster);
        Ok(())
    }

    fn segment(&mut self, idx: u64) -> SegmentOut {
        let (plans, gen_ns) = timed(|| self.generate(idx));
        let cluster = self.cluster.as_ref().expect("loaded");
        let mut out = self.model.run(
            &plans,
            SAMPLE_EVERY,
            (Kind::ClusterGet, |key| cluster.get_blob(key).ok()),
            (Kind::ClusterPut, |key, value: &str| {
                cluster.put_blob(key, value.as_bytes()).is_ok()
            }),
        );
        out.gen_ns = gen_ns;
        out.schedule_hash = schedule_hash(&plans);
        out
    }

    fn bytes(&self) -> (u64, u64) {
        (self.node_stats().stored_bytes, self.model.user_bytes)
    }

    fn verify(&mut self, _reopen: bool) -> Result<OracleOut, String> {
        let cluster = self.cluster.as_ref().expect("loaded");
        let mut out = OracleOut::default();
        for k in 0..self.model.len() {
            let got = cluster.get_blob(self.model.names[k as usize].clone());
            out.check(matches!(got, Ok(b) if self.model.accepts_current(k, &b)));
        }
        Ok(out)
    }

    fn counters(&mut self, out: &mut Extras) {
        let s = self.node_stats();
        store_counters(&s, out);
        // A node's cache counters are its servlet's remote-chunk cache.
        out.insert("remote.hits", s.cache_hits as f64);
        out.insert("remote.misses", s.cache_misses as f64);
    }

    fn corrupt_model(&mut self) {
        self.model.versions[0] += 1;
    }
}
