//! The servlet-side chunk store implementing layer 2 of the partitioning
//! scheme: meta chunks pinned to the local node, data chunks routed by
//! cid across the whole pool, and a servlet-local cache for the chunks
//! fetched from *remote* nodes — "each servlet may cache the frequently
//! accessed remote chunks" (§4.6).
//!
//! The pool entries are [`ChunkService`] endpoints, not concrete stores:
//! the same view runs over the in-process transport
//! ([`StoreService`](crate::service::StoreService)) or over TCP
//! ([`TcpChunkClient`](crate::net::TcpChunkClient)). A remote node that
//! cannot be reached is *not* reported as "chunk absent" silently — the
//! failure is counted in this view's `StoreStats::io_errors` (mirroring
//! the durable [`LogStore`](forkbase_chunk::LogStore)'s read-failure
//! contract) so [`Cluster::node_stats`](crate::Cluster::node_stats) makes
//! a degraded peer visible.

use crate::service::ChunkService;
use forkbase_chunk::{
    CacheConfig, Chunk, ChunkCache, ChunkStore, ChunkType, PutOutcome, StoreStats,
};
use forkbase_crypto::Digest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A view over the cluster-wide chunk pool from one servlet, addressed
/// through the transport-agnostic [`ChunkService`] API.
pub struct TwoLayerStore {
    /// This servlet's co-located storage (meta chunks live here).
    local: Arc<dyn ChunkStore>,
    /// Every node's service endpoint, indexable by cid hash. Entry
    /// `local_idx` serves `local` directly — a servlet never pays the
    /// wire to reach its own storage.
    pool: Vec<Arc<dyn ChunkService>>,
    /// Which pool entry is this servlet's own node (cache decisions need
    /// to know whether a routed chunk is remote).
    local_idx: usize,
    /// Sharded cache over chunks fetched from remote nodes. Local chunks
    /// are never cached — they are already one local read away.
    remote_cache: Option<ChunkCache>,
    /// Transport/service failures observed by this view. Folded into
    /// `stats().io_errors`.
    io_errors: AtomicU64,
}

impl TwoLayerStore {
    /// A view with `local` as the co-located storage (which pool entry
    /// `local_idx` must serve) and the default remote-chunk cache.
    pub fn new(
        local: Arc<dyn ChunkStore>,
        pool: Vec<Arc<dyn ChunkService>>,
        local_idx: usize,
    ) -> TwoLayerStore {
        Self::with_cache(local, pool, local_idx, CacheConfig::default())
    }

    /// A view with explicit remote-cache sizing
    /// ([`CacheConfig::disabled`] turns caching off).
    pub(crate) fn with_cache(
        local: Arc<dyn ChunkStore>,
        pool: Vec<Arc<dyn ChunkService>>,
        local_idx: usize,
        cache: CacheConfig,
    ) -> TwoLayerStore {
        assert!(!pool.is_empty());
        assert!(local_idx < pool.len(), "local_idx must index the pool");
        TwoLayerStore {
            local,
            pool,
            local_idx,
            remote_cache: cache.enabled.then(|| ChunkCache::new(&cache)),
            io_errors: AtomicU64::new(0),
        }
    }

    fn node_of(&self, cid: &Digest) -> usize {
        (cid.prefix_u64() % self.pool.len() as u64) as usize
    }

    fn is_remote(&self, node: usize) -> bool {
        self.local_idx != node
    }

    fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep a chunk that lives on (or was just sent to) `node` in the
    /// remote-chunk cache, if `node` is not this servlet's own.
    fn cache_if_remote(&self, node: usize, chunk: &Chunk) {
        if self.is_remote(node) {
            if let Some(cache) = &self.remote_cache {
                cache.insert(chunk.clone());
            }
        }
    }

    /// Drop every cached remote chunk (the nodes are unaffected).
    pub fn clear_remote_cache(&self) {
        if let Some(cache) = &self.remote_cache {
            cache.clear();
        }
    }

    /// Transport/service failures this view has observed — reads that
    /// answered "absent" and puts that fell back to the local store
    /// (also folded into `stats().io_errors`).
    pub fn transport_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// The non-empty per-node shares of a batch, this servlet's own node
    /// last: its service answers on the spot, and by then every remote
    /// node's request should be on the wire. The remote nodes stay in
    /// index order, so every caller takes its sockets in the same order
    /// and two batches never wait on each other's.
    fn remotes_first(&self, by_node: Vec<Vec<usize>>) -> Vec<(usize, Vec<usize>)> {
        let mut shares: Vec<(usize, Vec<usize>)> = by_node
            .into_iter()
            .enumerate()
            .filter(|(_, slots)| !slots.is_empty())
            .collect();
        shares.sort_by_key(|(node, _)| !self.is_remote(*node));
        shares
    }

    /// Fetch from the owning node, filling the remote cache when the
    /// owner is not this servlet's node. A transport failure counts as
    /// an io_error and reads as absent, like a failed durable read.
    fn fetch_routed(&self, cid: &Digest) -> Option<Chunk> {
        let node = self.node_of(cid);
        let chunk = match self.pool[node].get(cid) {
            Ok(found) => found?,
            Err(_) => {
                self.record_io_error();
                return None;
            }
        };
        self.cache_if_remote(node, &chunk);
        Some(chunk)
    }
}

impl ChunkStore for TwoLayerStore {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        // Meta chunks are local; data chunks live at their cid's node.
        // Local-first covers both without knowing the type up front.
        if let Some(chunk) = self.local.get(cid) {
            return Some(chunk);
        }
        if let Some(cache) = &self.remote_cache {
            if let Some(chunk) = cache.get(cid) {
                return Some(chunk);
            }
        }
        self.fetch_routed(cid)
    }

    /// Batched get: local probes first, then the remote cache, then one
    /// [`get_many`](ChunkService::get_many) per owning node for whatever
    /// is left — over TCP that is one request frame per node, however
    /// many cids the batch carries, and every node's request is on the
    /// wire before the first reply is waited for: a batch spanning R
    /// remote nodes costs one round trip, not R.
    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        let mut out: Vec<Option<Chunk>> = Vec::with_capacity(cids.len());
        let mut by_node: Vec<Vec<usize>> = vec![Vec::new(); self.pool.len()];
        for (i, cid) in cids.iter().enumerate() {
            let found = self
                .local
                .get(cid)
                .or_else(|| self.remote_cache.as_ref().and_then(|cache| cache.get(cid)));
            if found.is_none() {
                by_node[self.node_of(cid)].push(i);
            }
            out.push(found);
        }
        let shares: Vec<(usize, Vec<usize>, Vec<Digest>)> = self
            .remotes_first(by_node)
            .into_iter()
            .map(|(node, slots)| {
                let node_cids = slots.iter().map(|&i| cids[i]).collect();
                (node, slots, node_cids)
            })
            .collect();
        let started: Vec<_> = shares
            .iter()
            .map(|(node, _, node_cids)| self.pool[*node].start_get_many(node_cids))
            .collect();
        for ((node, slots, _), request) in shares.iter().zip(started) {
            match request.wait() {
                Ok(fetched) if fetched.len() == slots.len() => {
                    for (&slot, chunk) in slots.iter().zip(fetched) {
                        if let Some(chunk) = &chunk {
                            self.cache_if_remote(*node, chunk);
                        }
                        out[slot] = chunk;
                    }
                }
                _ => self.record_io_error(), // the slots stay None
            }
        }
        out
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        if chunk.ty() == ChunkType::Meta {
            return self.local.put(chunk);
        }
        let node = self.node_of(&chunk.cid());
        match self.pool[node].put(chunk.clone()) {
            Ok(outcome) => {
                // Write-through for remote-routed chunks: this servlet
                // just built them, so it is the likeliest next reader.
                self.cache_if_remote(node, &chunk);
                outcome
            }
            Err(_) => {
                // The owning node is unreachable. Acking Stored with the
                // chunk held only in the evictable cache would turn a
                // transient blip into silent data loss — so the chunk
                // falls back into the local store (content-addressed:
                // any node may hold it) where it stays durable and
                // readable through the local-first get path, and the
                // failure is latched in io_errors.
                self.record_io_error();
                self.local.put(chunk)
            }
        }
    }

    /// Batched put, the mirror of [`get_many`](Self::get_many): meta
    /// chunks go to the local store, data chunks in one
    /// [`put_many`](ChunkService::put_many) per owning node — over TCP one
    /// request frame per node instead of one blocking round trip per
    /// chunk, all of them sent before this servlet stores its own share
    /// and only then waited for. Write-through and the dead-node fallback
    /// are those of [`put`](Self::put), taken per node: a node that
    /// cannot be reached costs one io_error and its share of the batch
    /// lands locally.
    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        let mut out = vec![PutOutcome::Stored; chunks.len()];
        let mut by_node: Vec<Vec<usize>> = vec![Vec::new(); self.pool.len()];
        let mut meta: Vec<usize> = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            match chunk.ty() {
                ChunkType::Meta => meta.push(i),
                _ => by_node[self.node_of(&chunk.cid())].push(i),
            }
        }
        let batch_of =
            |slots: &[usize]| -> Vec<Chunk> { slots.iter().map(|&i| chunks[i].clone()).collect() };
        let put_locally = |slots: &[usize], out: &mut [PutOutcome]| {
            if !slots.is_empty() {
                for (&i, outcome) in slots.iter().zip(self.local.put_many(batch_of(slots))) {
                    out[i] = outcome;
                }
            }
        };
        let shares = self.remotes_first(by_node);
        let started: Vec<_> = shares
            .iter()
            .map(|(node, slots)| self.pool[*node].start_put_many(batch_of(slots)))
            .collect();
        put_locally(&meta, &mut out);
        let mut fallen: Vec<usize> = Vec::new();
        for ((node, slots), request) in shares.iter().zip(started) {
            match request.wait() {
                Ok(outcomes) if outcomes.len() == slots.len() => {
                    for (&i, outcome) in slots.iter().zip(outcomes) {
                        out[i] = outcome;
                        self.cache_if_remote(*node, &chunks[i]);
                    }
                }
                _ => {
                    self.record_io_error();
                    fallen.extend(slots);
                }
            }
        }
        put_locally(&fallen, &mut out);
        out
    }

    fn contains(&self, cid: &Digest) -> bool {
        if self.local.contains(cid)
            || self
                .remote_cache
                .as_ref()
                .is_some_and(|cache| cache.contains(cid))
        {
            return true;
        }
        // The wire has no existence-only opcode, so this pays a full
        // fetch — route it through fetch_routed so the chunk lands in
        // the remote cache and a following get doesn't pay it again.
        self.fetch_routed(cid).is_some()
    }

    fn stats(&self) -> StoreStats {
        // The servlet's view: its local storage (pool-wide stats are the
        // cluster's to aggregate), plus this view's remote-cache tier
        // and transport failures. Only the cache_*/io_error fields are
        // added: every view-level get was already counted by the local
        // probe, so folding cache hits into `gets`/`get_hits` (what
        // `fold_stats` does for a cache layered in front of one store)
        // would double-count requests.
        let mut stats = self.local.stats();
        if let Some(cache) = &self.remote_cache {
            let (hits, misses) = cache.hit_miss();
            stats.cache_hits += hits;
            stats.cache_misses += misses;
            stats.cache_evictions += cache.evictions();
        }
        stats.io_errors += self.io_errors.load(Ordering::Relaxed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::StoreService;
    use bytes::Bytes;
    use forkbase_chunk::{LogStore, MemStore};

    fn stores(n: usize) -> Vec<Arc<dyn ChunkStore>> {
        (0..n)
            .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
            .collect()
    }

    fn services(stores: &[Arc<dyn ChunkStore>]) -> Vec<Arc<dyn ChunkService>> {
        stores
            .iter()
            .map(|s| Arc::new(StoreService::new(s.clone())) as Arc<dyn ChunkService>)
            .collect()
    }

    fn view(stores: &[Arc<dyn ChunkStore>], local_idx: usize) -> TwoLayerStore {
        TwoLayerStore::new(stores[local_idx].clone(), services(stores), local_idx)
    }

    #[test]
    fn meta_chunks_stay_local() {
        let nodes = stores(4);
        let store = view(&nodes, 1);
        let meta = Chunk::new(ChunkType::Meta, Bytes::from_static(b"an fobject"));
        store.put(meta.clone());
        assert!(nodes[1].contains(&meta.cid()), "meta pinned to local node");
        assert_eq!(store.get(&meta.cid()), Some(meta));
    }

    #[test]
    fn data_chunks_route_by_cid() {
        let nodes = stores(4);
        let store = view(&nodes, 0);
        for i in 0..400u32 {
            store.put(Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()));
        }
        let counts: Vec<u64> = nodes.iter().map(|n| n.stats().stored_chunks).collect();
        // node 0 also holds nothing extra (no meta written); all spread.
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 400);
        for c in &counts {
            assert!(*c > 50, "each node holds a share: {counts:?}");
        }
    }

    #[test]
    fn chunks_visible_from_any_servlet_view() {
        let nodes = stores(3);
        let view_a = view(&nodes, 0);
        let view_b = view(&nodes, 2);
        let chunk = Chunk::new(ChunkType::Map, Bytes::from_static(b"shared"));
        view_a.put(chunk.clone());
        assert_eq!(view_b.get(&chunk.cid()), Some(chunk), "pool is shared");
    }

    #[test]
    fn remote_chunks_cached_after_first_fetch() {
        let nodes = stores(4);
        let store = view(&nodes, 0);
        // Find a chunk that routes to a *remote* node.
        let chunk = (0u32..)
            .map(|i| Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()))
            .find(|c| (c.cid().prefix_u64() % 4) != 0)
            .expect("remote-routed chunk");
        let owner = (chunk.cid().prefix_u64() % 4) as usize;
        // Insert via the owner directly (another servlet wrote it), so
        // this view's first read is a genuine remote fetch.
        nodes[owner].put(chunk.clone());

        let gets_before = nodes[owner].stats().gets;
        assert_eq!(store.get(&chunk.cid()), Some(chunk.clone()));
        assert_eq!(store.get(&chunk.cid()), Some(chunk.clone()));
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        assert_eq!(
            nodes[owner].stats().gets,
            gets_before + 1,
            "only the first read crossed to the remote node"
        );
        // The cache tier shows up in the servlet-view stats — without
        // inflating the request counters (each of the 3 view gets was
        // already counted once by the local-store probe).
        let stats = store.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.gets, 3, "no double-counted get requests");
    }

    #[test]
    fn local_chunks_are_never_cached() {
        let nodes = stores(2);
        let store = view(&nodes, 1);
        let chunk = (0u32..)
            .map(|i| Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()))
            .find(|c| (c.cid().prefix_u64() % 2) == 1)
            .expect("locally-routed chunk");
        store.put(chunk.clone());
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        assert_eq!(
            store.stats().cache_hits,
            0,
            "local reads bypass the remote cache"
        );
    }

    #[test]
    fn get_many_equals_sequential_gets() {
        let nodes = stores(3);
        let store = view(&nodes, 0);
        let uncached = TwoLayerStore::with_cache(
            nodes[0].clone(),
            services(&nodes),
            0,
            CacheConfig::disabled(),
        );
        let mut cids = Vec::new();
        for i in 0..60u32 {
            let c = Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec());
            cids.push(c.cid());
            store.put(c);
        }
        let meta = Chunk::new(ChunkType::Meta, Bytes::from_static(b"local meta"));
        cids.push(meta.cid());
        store.put(meta);
        cids.push(Chunk::new(ChunkType::Blob, Bytes::from_static(b"absent")).cid());

        let batched = store.get_many(&cids);
        let sequential: Vec<_> = cids.iter().map(|c| uncached.get(c)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(batched.iter().filter(|c| c.is_none()).count(), 1);
    }

    #[test]
    fn mixed_pool_of_mem_and_log_nodes() {
        // One node of the pool is a durable LogStore: chunks routed to it
        // land on disk, everything stays mutually visible.
        let dir = std::env::temp_dir().join(format!(
            "forkbase-2l-mixed-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let durable = Arc::new(LogStore::open(&dir).expect("open"));
        let nodes: Vec<Arc<dyn ChunkStore>> = vec![
            Arc::new(MemStore::new()),
            durable.clone() as Arc<dyn ChunkStore>,
        ];
        let store = view(&nodes, 0);
        let mut cids = Vec::new();
        for i in 0..100u32 {
            let c = Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec());
            cids.push(c.cid());
            store.put(c);
        }
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        assert!(
            durable.stats().stored_chunks > 20,
            "the durable node holds its share"
        );
        drop(store);
        drop(nodes);
        drop(durable);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A service that always fails — the "node unreachable" case.
    struct DeadService;
    impl ChunkService for DeadService {
        fn get(&self, _: &Digest) -> forkbase_core::Result<Option<Chunk>> {
            Err(forkbase_core::FbError::Io("node down".into()))
        }
        fn put(&self, _: Chunk) -> forkbase_core::Result<PutOutcome> {
            Err(forkbase_core::FbError::Io("node down".into()))
        }
        fn stats(&self) -> forkbase_core::Result<StoreStats> {
            Err(forkbase_core::FbError::Io("node down".into()))
        }
    }

    #[test]
    fn dead_node_counts_io_errors_instead_of_lying() {
        let nodes = stores(2);
        let mut pool = services(&nodes);
        pool[1] = Arc::new(DeadService);
        let store = TwoLayerStore::new(nodes[0].clone(), pool, 0);
        // Two chunks routed to the dead node: one we put (must survive
        // the failed wire), one never written anywhere (reads absent).
        let mut routed = (0u32..)
            .map(|i| Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()))
            .filter(|c| (c.cid().prefix_u64() % 2) == 1);
        let chunk = routed.next().expect("chunk routed to node 1");
        let absent = routed.next().expect("second chunk routed to node 1");

        // The put fails over the "wire" but must not ack a chunk that
        // exists nowhere durable: it falls back to the local store and
        // stays readable even with the cache gone.
        assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
        assert!(nodes[0].contains(&chunk.cid()), "fallback landed locally");
        store.clear_remote_cache();
        assert_eq!(store.get(&chunk.cid()), Some(chunk.clone()));
        assert!(store.contains(&chunk.cid()));
        assert_eq!(store.transport_errors(), 1, "only the failed put");

        // A chunk the pool never held: reads fail over the wire, answer
        // absent, and every failure is counted.
        assert_eq!(store.get(&absent.cid()), None);
        assert!(!store.contains(&absent.cid()));
        assert_eq!(store.transport_errors(), 3, "put + get + contains");
        assert_eq!(store.stats().io_errors, 3);
    }

    #[test]
    fn contains_fills_the_remote_cache() {
        let nodes = stores(2);
        let store = view(&nodes, 0);
        let chunk = (0u32..)
            .map(|i| Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()))
            .find(|c| (c.cid().prefix_u64() % 2) == 1)
            .expect("remote-routed chunk");
        nodes[1].put(chunk.clone());
        assert!(store.contains(&chunk.cid()));
        // The existence check already paid the transfer; the follow-up
        // get is served from the remote cache, not the wire again.
        let gets_before = nodes[1].stats().gets;
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        assert_eq!(nodes[1].stats().gets, gets_before, "no second fetch");
    }
}
