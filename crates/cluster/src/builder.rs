//! [`ClusterBuilder`] — the one way to assemble a [`Cluster`].
//!
//! Every deployment axis is a builder knob: node count or explicit
//! per-node stores, partitioning policy, chunker configuration,
//! remote-cache sizing, and — the axis that makes the cluster real —
//! the [`Transport`] servlets use to reach each other's chunk storage.

use crate::dispatch::Cluster;
use crate::master::{Master, Partitioning};
use crate::net::{ChunkServer, TcpChunkClient, TcpConfig};
use crate::service::{ChunkService, StoreService};
use crate::servlet::Servlet;
use forkbase_chunk::{CacheConfig, ChunkStore, MemStore};
use forkbase_core::{FbError, Result};
use forkbase_crypto::ChunkerConfig;
use std::net::TcpListener;
use std::sync::Arc;

/// How servlets reach each other's chunk storage.
#[derive(Clone, Copy, Debug, Default)]
pub enum Transport {
    /// Direct in-process handles — zero-cost routing, the single-machine
    /// and test path.
    #[default]
    InProcess,
    /// Loopback TCP: every node binds a [`ChunkServer`] on an ephemeral
    /// `127.0.0.1` port and peers dial it with [`TcpChunkClient`]s, a
    /// few sockets each. Same chunks, same stats, real wire.
    Tcp(TcpConfig),
}

/// Builder for a [`Cluster`]. Start from [`Cluster::builder`].
///
/// ```
/// use forkbase_cluster::{Cluster, Partitioning, Transport};
///
/// let cluster = Cluster::builder(4)
///     .partitioning(Partitioning::TwoLayer)
///     .transport(Transport::InProcess)
///     .build()
///     .unwrap();
/// cluster.put_blob("key", b"value").unwrap();
/// ```
pub struct ClusterBuilder {
    nodes: usize,
    partitioning: Partitioning,
    cfg: ChunkerConfig,
    stores: Option<Vec<Arc<dyn ChunkStore>>>,
    cache: CacheConfig,
    transport: Transport,
}

impl ClusterBuilder {
    /// A builder for `nodes` servlets with two-layer partitioning,
    /// default chunking, per-node [`MemStore`]s, the default
    /// remote-chunk cache, and the in-process transport.
    pub fn new(nodes: usize) -> ClusterBuilder {
        ClusterBuilder {
            nodes,
            partitioning: Partitioning::TwoLayer,
            cfg: ChunkerConfig::default(),
            stores: None,
            cache: CacheConfig::default(),
            transport: Transport::InProcess,
        }
    }

    /// Key → servlet / chunk → node policy (default:
    /// [`Partitioning::TwoLayer`]).
    pub fn partitioning(mut self, partitioning: Partitioning) -> ClusterBuilder {
        self.partitioning = partitioning;
        self
    }

    /// Content-defined chunking configuration for every servlet.
    pub fn chunker(mut self, cfg: ChunkerConfig) -> ClusterBuilder {
        self.cfg = cfg;
        self
    }

    /// Caller-provided per-node chunk stores — one per servlet, so this
    /// also fixes the node count. This is how a cluster runs on disk:
    /// hand it one [`LogStore`](forkbase_chunk::LogStore) per node (or
    /// any mix of backends).
    pub fn stores(mut self, stores: Vec<Arc<dyn ChunkStore>>) -> ClusterBuilder {
        self.nodes = stores.len();
        self.stores = Some(stores);
        self
    }

    /// Per-servlet remote-chunk cache sizing ([`CacheConfig::disabled`]
    /// for uncached pool reads).
    pub fn cache(mut self, cache: CacheConfig) -> ClusterBuilder {
        self.cache = cache;
        self
    }

    /// How servlets reach each other (default: [`Transport::InProcess`]).
    pub fn transport(mut self, transport: Transport) -> ClusterBuilder {
        self.transport = transport;
        self
    }

    /// Shorthand for `transport(Transport::Tcp(TcpConfig::default()))`.
    pub fn tcp(self) -> ClusterBuilder {
        self.transport(Transport::Tcp(TcpConfig::default()))
    }

    /// Assemble the cluster. Fails with [`FbError::Io`] if a TCP
    /// endpoint cannot bind; the in-process transport cannot fail.
    pub fn build(self) -> Result<Cluster> {
        if self.nodes == 0 {
            return Err(FbError::Io("cluster needs at least one node".into()));
        }
        let stores: Vec<Arc<dyn ChunkStore>> = match self.stores {
            Some(stores) => stores,
            None => (0..self.nodes)
                .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
                .collect(),
        };
        let n = stores.len();
        let master = Master::new(n, self.partitioning);

        match self.transport {
            Transport::InProcess => {
                // One shared pool of direct store handles; every servlet
                // sees the same endpoints.
                let pool: Vec<Arc<dyn ChunkService>> = stores
                    .iter()
                    .map(|s| Arc::new(StoreService::new(s.clone())) as Arc<dyn ChunkService>)
                    .collect();
                let servlets: Vec<Arc<Servlet>> = (0..n)
                    .map(|id| {
                        Arc::new(Servlet::with_cache(
                            id,
                            self.partitioning,
                            stores[id].clone(),
                            pool.clone(),
                            self.cfg.clone(),
                            self.cache,
                        ))
                    })
                    .collect();
                // Per-node stats endpoints are the servlets themselves.
                let endpoints: Vec<Arc<dyn ChunkService>> = servlets
                    .iter()
                    .map(|s| s.clone() as Arc<dyn ChunkService>)
                    .collect();
                Ok(Cluster::from_parts(master, servlets, endpoints, Vec::new()))
            }
            Transport::Tcp(tcp) => {
                // Bind every listener first so all peer addresses are
                // known before any servlet is built; clients dial
                // lazily, so nothing connects until the servers run.
                let listeners: Vec<TcpListener> = (0..n)
                    .map(|_| {
                        TcpListener::bind("127.0.0.1:0")
                            .map_err(|e| FbError::Io(format!("bind cluster node: {e}")))
                    })
                    .collect::<Result<_>>()?;
                let addrs: Vec<std::net::SocketAddr> = listeners
                    .iter()
                    .map(|l| {
                        l.local_addr()
                            .map_err(|e| FbError::Io(format!("local addr: {e}")))
                    })
                    .collect::<Result<_>>()?;
                let servlets: Vec<Arc<Servlet>> = (0..n)
                    .map(|id| {
                        // A node's own pool entry short-circuits to its
                        // local store; only peers cross the wire.
                        let pool: Vec<Arc<dyn ChunkService>> = (0..n)
                            .map(|j| {
                                if j == id {
                                    Arc::new(StoreService::new(stores[id].clone()))
                                        as Arc<dyn ChunkService>
                                } else {
                                    Arc::new(TcpChunkClient::new(addrs[j], tcp))
                                        as Arc<dyn ChunkService>
                                }
                            })
                            .collect();
                        Arc::new(Servlet::with_cache(
                            id,
                            self.partitioning,
                            stores[id].clone(),
                            pool,
                            self.cfg.clone(),
                            self.cache,
                        ))
                    })
                    .collect();
                let servers: Vec<ChunkServer> = listeners
                    .into_iter()
                    .zip(&servlets)
                    .map(|(listener, servlet)| {
                        ChunkServer::start(listener, servlet.clone())
                            .map_err(|e| FbError::Io(format!("start cluster node: {e}")))
                    })
                    .collect::<Result<_>>()?;
                // Stats endpoints cross the wire too: node_stats() is
                // served by the same stats opcode peers use.
                let endpoints: Vec<Arc<dyn ChunkService>> = addrs
                    .iter()
                    .map(|&addr| Arc::new(TcpChunkClient::new(addr, tcp)) as Arc<dyn ChunkService>)
                    .collect();
                Ok(Cluster::from_parts(master, servlets, endpoints, servers))
            }
        }
    }
}
