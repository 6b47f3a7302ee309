//! The request dispatcher and the cluster facade.

use crate::builder::ClusterBuilder;
use crate::master::Master;
use crate::net::ChunkServer;
use crate::service::ChunkService;
use crate::servlet::Servlet;
use bytes::Bytes;
use forkbase_chunk::StoreStats;
use forkbase_core::{Result, Value};
use forkbase_crypto::Digest;
use forkbase_pos::builder;
use std::sync::Arc;

/// A ForkBase cluster: master + dispatcher + N servlets, assembled by
/// [`ClusterBuilder`] over either the in-process or the TCP transport.
pub struct Cluster {
    master: Master,
    servlets: Vec<Arc<Servlet>>,
    /// One [`ChunkService`] endpoint per node for cluster-level stats
    /// collection — the servlets themselves in-process, dedicated TCP
    /// clients otherwise (so [`node_stats`](Self::node_stats) exercises
    /// the same wire peers use).
    endpoints: Vec<Arc<dyn ChunkService>>,
    /// The per-node TCP servers; empty under the in-process transport.
    /// Declared last so clients (inside servlets/endpoints) drop first.
    servers: Vec<ChunkServer>,
}

impl Cluster {
    /// Start configuring a cluster of `nodes` servlets. See
    /// [`ClusterBuilder`] for the knobs; `Cluster::builder(n).build()`
    /// gives two-layer partitioning over in-process MemStore nodes.
    pub fn builder(nodes: usize) -> ClusterBuilder {
        ClusterBuilder::new(nodes)
    }

    pub(crate) fn from_parts(
        master: Master,
        servlets: Vec<Arc<Servlet>>,
        endpoints: Vec<Arc<dyn ChunkService>>,
        servers: Vec<ChunkServer>,
    ) -> Cluster {
        Cluster {
            master,
            servlets,
            endpoints,
            servers,
        }
    }

    /// The master's topology view.
    pub fn master(&self) -> &Master {
        &self.master
    }

    /// Whether this cluster's nodes talk over TCP.
    pub fn is_networked(&self) -> bool {
        !self.servers.is_empty()
    }

    /// The servlet a key routes to (layer 1).
    pub(crate) fn servlet_for(&self, key: &[u8]) -> &Arc<Servlet> {
        &self.servlets[self.master.servlet_of(key)]
    }

    /// Per-node merged stats — local storage counters plus each
    /// servlet's remote-cache hits/misses and observed transport
    /// errors. Over TCP this is a `STATS` request to every node (the
    /// command peers use), so a dead node surfaces as `Err` rather than
    /// a row of zeros.
    pub fn node_stats(&self) -> Result<Vec<StoreStats>> {
        self.endpoints.iter().map(|e| e.stats()).collect()
    }

    /// Store a blob value for `key` (chunks placed per the partitioning
    /// policy).
    pub fn put_blob(&self, key: impl Into<Bytes>, data: &[u8]) -> Result<Digest> {
        let key = key.into();
        let servlet = self.servlet_for(&key);
        let blob = servlet.db().new_blob(data);
        servlet.db().put(key, None, Value::Blob(blob))
    }

    /// Read back a blob value.
    pub fn get_blob(&self, key: impl Into<Bytes>) -> Result<Vec<u8>> {
        let key = key.into();
        let servlet = self.servlet_for(&key);
        let obj = servlet.db().get(key, None)?;
        let blob = obj.value(servlet.db().store())?.as_blob()?;
        blob.read_all(servlet.db().store())
            .ok_or(forkbase_core::FbError::KeyNotFound)
    }

    /// §4.6.1 — re-balanced POS-Tree construction: the home servlet is
    /// overloaded, so a helper servlet performs the (compute-intensive)
    /// tree construction; the home servlet then commits the FObject
    /// referencing the built tree and updates its branch table.
    pub fn put_blob_offloaded(
        &self,
        key: impl Into<Bytes>,
        data: &[u8],
        helper: usize,
    ) -> Result<Digest> {
        let key = key.into();
        let home = self.servlet_for(&key);
        let helper = &self.servlets[helper % self.servlets.len()];
        // Tree construction happens with the helper's compute and store
        // view; chunks land in the shared pool either way.
        let root = builder::build_blob(helper.db().store(), helper.db().cfg(), data);
        // The home servlet serializes the branch-table update.
        let blob = forkbase_pos::Blob::from_root(root);
        home.db().put(key, None, Value::Blob(blob))
    }

    /// Per-node local storage in bytes — the Fig. 15 distribution.
    pub fn per_node_bytes(&self) -> Vec<u64> {
        self.servlets.iter().map(|s| s.local_bytes()).collect()
    }

    /// Imbalance ratio: max node bytes / mean node bytes (1.0 = perfectly
    /// even).
    pub fn imbalance(&self) -> f64 {
        let bytes = self.per_node_bytes();
        let max = *bytes.iter().max().unwrap_or(&0) as f64;
        let mean = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::Partitioning;

    fn payload(i: usize, len: usize) -> Vec<u8> {
        let mut state = i as u64 + 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn put_get_across_servlets() {
        let cluster = Cluster::builder(4).build().expect("cluster");
        for i in 0..50 {
            let key = format!("key-{i}");
            let data = payload(i, 10_000);
            cluster.put_blob(key.clone(), &data).expect("put");
            assert_eq!(cluster.get_blob(key).expect("get"), data, "key {i}");
        }
    }

    #[test]
    fn two_layer_balances_skewed_workload() {
        // The Fig. 15 effect: a few hot keys, many versions. Under 1LP
        // the hot keys' servlets hold all their data; under 2LP the
        // chunks scatter.
        let run = |p: Partitioning| {
            let cluster = Cluster::builder(8)
                .partitioning(p)
                .build()
                .expect("cluster");
            for version in 0..30 {
                for hot in 0..3 {
                    let key = format!("hot-page-{hot}");
                    let data = payload(hot * 1000 + version, 60_000);
                    cluster.put_blob(key, &data).expect("put");
                }
            }
            cluster.imbalance()
        };
        let one_layer = run(Partitioning::OneLayer);
        let two_layer = run(Partitioning::TwoLayer);
        assert!(
            one_layer > 2.0,
            "1LP should be badly imbalanced, got {one_layer:.2}"
        );
        assert!(
            two_layer < 1.5,
            "2LP should be near-even, got {two_layer:.2}"
        );
    }

    #[test]
    fn offloaded_construction_equivalent() {
        let cluster = Cluster::builder(4).build().expect("cluster");
        let data = payload(7, 100_000);
        let key = "offloaded";
        let home = cluster.master().servlet_of(key.as_bytes());
        let helper = (home + 1) % 4;
        cluster
            .put_blob_offloaded(key, &data, helper)
            .expect("offloaded put");
        assert_eq!(cluster.get_blob(key).expect("get"), data);
    }

    #[test]
    fn single_servlet_cluster_degenerates_to_embedded() {
        let cluster = Cluster::builder(1).build().expect("cluster");
        cluster.put_blob("k", b"embedded mode").expect("put");
        assert_eq!(cluster.get_blob("k").expect("get"), b"embedded mode");
    }

    #[test]
    fn parallel_clients() {
        let cluster = Arc::new(Cluster::builder(4).build().expect("cluster"));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}-k{i}");
                        cluster
                            .put_blob(key.clone(), &payload(t * 100 + i, 2000))
                            .expect("put");
                        assert!(cluster.get_blob(key).is_ok());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
    }

    #[test]
    fn durable_cluster_nodes_survive_reopen() {
        use forkbase_chunk::{Durability, LogConfig, LogStore};
        let base = std::env::temp_dir().join(format!(
            "forkbase-cluster-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&base).ok();
        let open_pool = || -> Vec<Arc<dyn forkbase_chunk::ChunkStore>> {
            (0..3)
                .map(|id| {
                    Arc::new(
                        LogStore::open_with(
                            base.join(format!("node-{id}")),
                            LogConfig::default(),
                            Durability::Always,
                        )
                        .expect("open node store"),
                    ) as Arc<dyn forkbase_chunk::ChunkStore>
                })
                .collect()
        };
        let data = payload(42, 30_000);
        let uid = {
            let cluster = Cluster::builder(3)
                .stores(open_pool())
                .build()
                .expect("cluster");
            cluster.put_blob("doc", &data).expect("put");
            assert_eq!(cluster.get_blob("doc").expect("get"), data);
            cluster
                .servlet_for(b"doc")
                .db()
                .head("doc", None)
                .expect("head")
        }; // every node store dropped: the "cluster restart"

        // A fresh cluster over the same directories serves the version
        // by uid — the chunks were scattered across the durable nodes
        // and all survived.
        let cluster = Cluster::builder(3)
            .stores(open_pool())
            .build()
            .expect("cluster");
        let servlet = cluster.servlet_for(b"doc");
        let obj = servlet.db().get_version("doc", uid).expect("recovered");
        let blob = obj
            .value(servlet.db().store())
            .expect("decode")
            .as_blob()
            .expect("blob");
        assert_eq!(
            blob.read_all(servlet.db().store()).expect("read"),
            data,
            "blob reassembles across durable nodes"
        );
        drop(cluster);
        std::fs::remove_dir_all(base).ok();
    }

    #[test]
    fn cluster_wide_dedup_under_2lp() {
        let cluster = Cluster::builder(4).build().expect("cluster");
        let data = payload(1, 50_000);
        // The same content written under keys homed at different
        // servlets deduplicates because chunks route by cid.
        let total_chunks = || -> u64 {
            let stats = cluster.node_stats().expect("stats");
            stats.iter().map(|s| s.stored_chunks).sum()
        };
        cluster.put_blob("key-a", &data).expect("put");
        let after_first = total_chunks();
        cluster.put_blob("key-b", &data).expect("put");
        let added = total_chunks() - after_first;
        // Only meta chunks (and possibly nothing else) are new.
        assert!(added <= 2, "cross-key dedup: {added} new chunks");
    }

    #[test]
    fn node_stats_cover_every_node() {
        let cluster = Cluster::builder(4).build().expect("cluster");
        for i in 0..20 {
            cluster
                .put_blob(format!("k{i}"), &payload(i, 20_000))
                .expect("put");
        }
        let stats = cluster.node_stats().expect("stats");
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.stored_chunks > 0));
        assert_eq!(stats.iter().map(|s| s.io_errors).sum::<u64>(), 0);
    }

    #[test]
    fn tcp_cluster_round_trips_blobs() {
        let cluster = Cluster::builder(3).tcp().build().expect("tcp cluster");
        assert!(cluster.is_networked());
        for i in 0..10 {
            let key = format!("wire-{i}");
            let data = payload(i, 30_000);
            cluster.put_blob(key.clone(), &data).expect("put");
            assert_eq!(cluster.get_blob(key).expect("get"), data, "key {i}");
        }
        // Chunks really scattered across the nodes' stores.
        let stats = cluster.node_stats().expect("stats over the wire");
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.stored_chunks > 0), "{stats:?}");
        assert_eq!(stats.iter().map(|s| s.io_errors).sum::<u64>(), 0);
    }
}
