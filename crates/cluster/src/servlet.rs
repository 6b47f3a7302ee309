//! A servlet: one ForkBase execution unit with its co-located chunk
//! storage (§4.1).

use crate::master::Partitioning;
use crate::service::ChunkService;
use crate::store2l::TwoLayerStore;
use forkbase_chunk::{Chunk, ChunkStore, PutOutcome, StoreStats};
use forkbase_core::ForkBase;
use forkbase_crypto::{ChunkerConfig, Digest};
use std::sync::Arc;

/// One node of the cluster: servlet + local chunk storage. The storage
/// is any [`ChunkStore`], so a node can run in memory or on disk
/// (e.g. a [`LogStore`](forkbase_chunk::LogStore) per node). Under
/// two-layer partitioning the servlet's pool view routes data chunks to
/// their owning node through [`ChunkService`] endpoints — in-process
/// handles or TCP clients, the servlet cannot tell — and caches remote
/// chunks (§4.6) by default.
///
/// A servlet is itself a [`ChunkService`]: the endpoint peers talk to
/// when they route a chunk here. Service requests are answered from the
/// *local* storage only (the requester already did the routing), while
/// [`stats`](ChunkService::stats) reports the merged node view — local
/// store counters plus this servlet's remote-cache hits/misses and any
/// transport errors it has observed.
pub struct Servlet {
    db: ForkBase,
    local: Arc<dyn ChunkStore>,
    /// Typed handle to the two-layer view (its merged stats); `None`
    /// under one-layer partitioning.
    view2l: Option<Arc<TwoLayerStore>>,
}

impl Servlet {
    /// Build servlet `id` with the default remote-chunk cache. Under
    /// two-layer partitioning the servlet routes data chunks across
    /// `pool` (its own entry must be `pool[id]`); under one-layer it
    /// uses only `local`.
    pub fn new(
        id: usize,
        partitioning: Partitioning,
        local: Arc<dyn ChunkStore>,
        pool: Vec<Arc<dyn ChunkService>>,
        cfg: ChunkerConfig,
    ) -> Servlet {
        let mut view2l = None;
        let store: Arc<dyn ChunkStore> = match partitioning {
            Partitioning::OneLayer => local.clone(),
            Partitioning::TwoLayer => {
                let view = Arc::new(TwoLayerStore::new(local.clone(), pool, id));
                view2l = Some(view.clone());
                view
            }
        };
        Servlet {
            db: ForkBase::with_store(store, cfg),
            local,
            view2l,
        }
    }

    /// The engine instance this servlet executes requests on.
    pub(crate) fn db(&self) -> &ForkBase {
        &self.db
    }

    /// Bytes held on this node's local storage (per-node storage
    /// distribution, Fig. 15).
    pub(crate) fn local_bytes(&self) -> u64 {
        self.local.stats().stored_bytes
    }
}

/// The service endpoint other nodes (and the cluster's stats collector)
/// reach this servlet through — directly in-process, or as the backend
/// of a [`ChunkServer`](crate::net::ChunkServer) over TCP.
impl ChunkService for Servlet {
    fn get(&self, cid: &Digest) -> forkbase_core::Result<Option<Chunk>> {
        Ok(self.local.get(cid))
    }

    fn get_many(&self, cids: &[Digest]) -> forkbase_core::Result<Vec<Option<Chunk>>> {
        Ok(self.local.get_many(cids))
    }

    fn put(&self, chunk: Chunk) -> forkbase_core::Result<PutOutcome> {
        Ok(self.local.put(chunk))
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> forkbase_core::Result<Vec<PutOutcome>> {
        Ok(self.local.put_many(chunks))
    }

    /// The node's merged view: local storage counters, plus the
    /// remote-cache tier and transport errors when running two-layer.
    fn stats(&self) -> forkbase_core::Result<StoreStats> {
        Ok(match &self.view2l {
            Some(view) => view.stats(),
            None => self.local.stats(),
        })
    }
}
