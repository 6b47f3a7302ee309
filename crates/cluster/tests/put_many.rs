//! `TwoLayerStore::put_many`: the batched put is the sequential put, only
//! cheaper on the wire.
//!
//! * **equivalence** — a batch (data chunks for every node, meta chunks,
//!   duplicates) stored through `put_many` leaves every node holding what
//!   a `put` loop leaves it holding, answers the same outcomes, and does
//!   so identically over the in-process and the TCP transport (the
//!   transport-equivalence contract of `wire.rs`, extended to the batched
//!   write path);
//! * **round trips** — a whole blob put crosses to each remote node at
//!   most once, counted by a `ChunkService` that counts requests;
//! * **failure** — an unreachable node costs one io_error per batch and
//!   its share of the batch stays durable and readable in the local
//!   store, exactly the fallback of the single put.

use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore, PutOutcome, StoreStats};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use forkbase_cluster::TwoLayerStore;
use forkbase_core::{FbError, ForkBase, Value};
use forkbase_crypto::{ChunkerConfig, Digest};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn mem_nodes(n: usize) -> Vec<Arc<dyn ChunkStore>> {
    (0..n)
        .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
        .collect()
}

fn in_process(nodes: &[Arc<dyn ChunkStore>]) -> Vec<Arc<dyn ChunkService>> {
    nodes
        .iter()
        .map(|s| Arc::new(StoreService::new(s.clone())) as Arc<dyn ChunkService>)
        .collect()
}

/// Every node but `local_idx` behind a loopback TCP server. The servers
/// must outlive the returned pool.
fn over_tcp(
    nodes: &[Arc<dyn ChunkStore>],
    local_idx: usize,
) -> (Vec<Arc<dyn ChunkService>>, Vec<ChunkServer>) {
    let mut servers = Vec::new();
    let pool = nodes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let backend = Arc::new(StoreService::new(s.clone()));
            if i == local_idx {
                return backend as Arc<dyn ChunkService>;
            }
            let server = ChunkServer::bind("127.0.0.1:0", backend).expect("bind");
            let client = TcpChunkClient::new(server.addr(), TcpConfig::default());
            servers.push(server);
            Arc::new(client) as Arc<dyn ChunkService>
        })
        .collect();
    (pool, servers)
}

/// Chunk `seed` of the batch: every fifth one a meta chunk, and seeds
/// repeat, so batches carry duplicates.
fn chunk_of(seed: u8) -> Chunk {
    let ty = if seed.is_multiple_of(5) {
        ChunkType::Meta
    } else {
        ChunkType::Blob
    };
    Chunk::new(ty, vec![seed; 1 + seed as usize % 7])
}

fn stats_of(nodes: &[Arc<dyn ChunkStore>]) -> Vec<StoreStats> {
    nodes.iter().map(|n| n.stats()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn put_many_equals_a_put_loop_on_either_transport(
        seeds in prop::collection::vec(0u8..40, 1..60),
        nodes in 2usize..5,
        local_idx in 0usize..2,
    ) {
        let chunks: Vec<Chunk> = seeds.iter().map(|&s| chunk_of(s)).collect();

        let looped_nodes = mem_nodes(nodes);
        let looped = TwoLayerStore::new(
            looped_nodes[local_idx].clone(), in_process(&looped_nodes), local_idx);
        let expected: Vec<PutOutcome> = chunks.iter().map(|c| looped.put(c.clone())).collect();

        let inproc_nodes = mem_nodes(nodes);
        let inproc = TwoLayerStore::new(
            inproc_nodes[local_idx].clone(), in_process(&inproc_nodes), local_idx);
        prop_assert_eq!(&inproc.put_many(chunks.clone()), &expected);
        prop_assert_eq!(stats_of(&inproc_nodes), stats_of(&looped_nodes));

        let tcp_nodes = mem_nodes(nodes);
        let (pool, _servers) = over_tcp(&tcp_nodes, local_idx);
        let tcp = TwoLayerStore::new(tcp_nodes[local_idx].clone(), pool, local_idx);
        prop_assert_eq!(&tcp.put_many(chunks.clone()), &expected);
        prop_assert_eq!(stats_of(&tcp_nodes), stats_of(&looped_nodes));

        for view in [&looped, &inproc, &tcp] {
            prop_assert_eq!(view.transport_errors(), 0);
            for c in &chunks {
                prop_assert_eq!(view.get(&c.cid()), Some(c.clone()));
            }
        }
    }
}

/// Counts the requests that reach a node, whatever they carry.
struct Counting {
    inner: StoreService,
    requests: AtomicU64,
}

impl Counting {
    fn tick(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }
}

impl ChunkService for Counting {
    fn get(&self, cid: &Digest) -> forkbase_core::Result<Option<Chunk>> {
        self.tick();
        self.inner.get(cid)
    }
    fn get_many(&self, cids: &[Digest]) -> forkbase_core::Result<Vec<Option<Chunk>>> {
        self.tick();
        self.inner.get_many(cids)
    }
    fn put(&self, chunk: Chunk) -> forkbase_core::Result<PutOutcome> {
        self.tick();
        self.inner.put(chunk)
    }
    fn put_many(&self, chunks: Vec<Chunk>) -> forkbase_core::Result<Vec<PutOutcome>> {
        self.tick();
        self.inner.put_many(chunks)
    }
    fn stats(&self) -> forkbase_core::Result<StoreStats> {
        self.inner.stats()
    }
}

#[test]
fn a_blob_put_crosses_to_each_remote_node_at_most_once() {
    let nodes = mem_nodes(3);
    let counters: Vec<Arc<Counting>> = nodes
        .iter()
        .map(|s| {
            Arc::new(Counting {
                inner: StoreService::new(s.clone()),
                requests: AtomicU64::new(0),
            })
        })
        .collect();
    let pool = counters
        .iter()
        .map(|c| c.clone() as Arc<dyn ChunkService>)
        .collect();
    let view = Arc::new(TwoLayerStore::new(nodes[0].clone(), pool, 0));
    let db = ForkBase::with_store(view, ChunkerConfig::with_leaf_bits(8));

    // ~250 leaves and two index levels, spread over all three nodes.
    let data: Vec<u8> = (0..64_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let blob = db.new_blob(&data);
    db.put("page", None, Value::Blob(blob)).expect("put");

    for (node, counter) in counters.iter().enumerate().skip(1) {
        assert!(
            nodes[node].stats().stored_chunks > 20,
            "node {node} got its share"
        );
        assert_eq!(
            counter.requests.load(Ordering::Relaxed),
            1,
            "one put_many carried node {node}'s whole share"
        );
    }
    let read = db
        .get_value("page", None)
        .expect("get")
        .as_blob()
        .expect("blob");
    assert_eq!(read.read_all(db.store()).expect("read"), data);
}

/// A node that cannot be reached.
struct Dead;

impl ChunkService for Dead {
    fn get(&self, _: &Digest) -> forkbase_core::Result<Option<Chunk>> {
        Err(FbError::Io("node down".into()))
    }
    fn put(&self, _: Chunk) -> forkbase_core::Result<PutOutcome> {
        Err(FbError::Io("node down".into()))
    }
    fn put_many(&self, _: Vec<Chunk>) -> forkbase_core::Result<Vec<PutOutcome>> {
        Err(FbError::Io("node down".into()))
    }
    fn stats(&self) -> forkbase_core::Result<StoreStats> {
        Err(FbError::Io("node down".into()))
    }
}

#[test]
fn a_dead_node_costs_one_io_error_and_its_share_lands_locally() {
    let nodes = mem_nodes(2);
    let mut pool = in_process(&nodes);
    pool[1] = Arc::new(Dead);
    let view = TwoLayerStore::new(nodes[0].clone(), pool, 0);

    let chunks: Vec<Chunk> = (0u32..40)
        .map(|i| Chunk::new(ChunkType::Blob, Bytes::from(i.to_le_bytes().to_vec())))
        .collect();
    let dead_share = chunks
        .iter()
        .filter(|c| c.cid().prefix_u64() % 2 == 1)
        .count();
    assert!(dead_share > 5, "the dead node owns a share of the batch");

    let outcomes = view.put_many(chunks.clone());
    assert_eq!(outcomes, vec![PutOutcome::Stored; chunks.len()]);
    assert_eq!(view.transport_errors(), 1, "one failed request, one error");
    assert_eq!(nodes[0].stats().stored_chunks, chunks.len() as u64);
    // Durable where it fell, not merely cached: readable with the cache gone.
    view.clear_remote_cache();
    for c in &chunks {
        assert_eq!(view.get(&c.cid()), Some(c.clone()));
    }
    assert_eq!(view.transport_errors(), 1, "local-first reads never dial");
}
