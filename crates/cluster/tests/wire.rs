//! Integration suite for the cluster wire.
//!
//! Three hazard classes, mirroring the LogStore torn-tail suite one
//! layer up:
//!
//! * **framing** — a TCP read boundary can fall on *any* byte, so the
//!   RESP decoder is swept across every split and truncation offset of
//!   chunk-service requests and replies, and every single-bit flip of a
//!   put request and of a get reply must end in a protocol error, an
//!   error reply or the identical chunks — never a chunk stored or
//!   returned under a cid it does not hash to;
//! * **transport equivalence** — the in-process and TCP transports are
//!   the same cluster observed through different wires: an identical
//!   request schedule must produce identical digests, identical blob
//!   reads, and identical per-node stats deltas;
//! * **failure** — a killed server surfaces as `FbError::Io` promptly
//!   (no hang on in-flight or subsequent requests), and a server
//!   restarted on the same address is picked up by the same client
//!   without reconstruction.

use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore, StoreStats};
use forkbase_cluster::net::proto::{self, Request};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use forkbase_cluster::{Cluster, Partitioning, Transport};
use forkbase_core::FbError;
use forkbase_crypto::resp::{Commands, RespDecoder, RespValue};
use forkbase_crypto::Digest;
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sample_chunks() -> Vec<Chunk> {
    vec![
        Chunk::new(ChunkType::Blob, &b"first payload"[..]),
        Chunk::new(ChunkType::Map, Bytes::new()),
        Chunk::new(ChunkType::Blob, (0u8..=255).collect::<Vec<u8>>()),
    ]
}

/// Every kind of request, back to back, as one client would send them.
fn sample_requests() -> Vec<Request> {
    let chunks = sample_chunks();
    let cids: Vec<Digest> = chunks.iter().map(|c| c.cid()).collect();
    vec![
        Request::Get(cids[0]),
        Request::PutMany(chunks.clone()),
        Request::Stats,
        Request::Put(chunks[2].clone()),
        Request::GetMany(cids),
    ]
}

fn request_stream(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for req in requests {
        req.encode(&mut wire).expect("encodes");
    }
    wire
}

/// The replies a node holding the sample chunks gives to the sample
/// requests, back to back, with one fetch of a chunk nobody holds.
fn reply_stream() -> (Vec<u8>, usize) {
    let store = Arc::new(MemStore::new());
    let service = StoreService::new(store as Arc<dyn ChunkStore>);
    let mut requests = sample_requests();
    requests.push(Request::Get(
        Chunk::new(ChunkType::Blob, &b"absent"[..]).cid(),
    ));
    let mut wire = Vec::new();
    for req in &requests {
        req.clone().answer(&service, &mut wire).expect("answers");
    }
    (wire, requests.len())
}

/// Hand `bytes` to the decoder the way a socket would: as the source of
/// its reads, until they are all taken.
fn feed(decoder: &mut RespDecoder, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        decoder.read_from(&mut bytes).expect("slice read");
    }
}

/// Decoded requests, as the server decodes them.
fn drain_requests(decoder: &mut RespDecoder) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(argv) = decoder.next_command().expect("valid stream") {
        out.push(Request::decode(&argv).expect("valid request"));
    }
    out
}

fn drain_replies(decoder: &mut RespDecoder) -> Vec<RespValue> {
    let mut out = Vec::new();
    while let Some(value) = decoder.next_value().expect("valid stream") {
        out.push(value);
    }
    out
}

#[test]
fn frames_survive_a_split_at_every_byte_offset() {
    let requests = sample_requests();
    let stream = request_stream(&requests);
    let (replies, n_replies) = reply_stream();
    for split in 0..=stream.len() {
        let mut decoder = RespDecoder::new();
        feed(&mut decoder, &stream[..split]);
        let mut got = drain_requests(&mut decoder);
        feed(&mut decoder, &stream[split..]);
        got.extend(drain_requests(&mut decoder));
        assert_eq!(got, requests, "split at byte {split}");
    }
    let mut whole = RespDecoder::new();
    feed(&mut whole, &replies);
    let expected = drain_replies(&mut whole);
    assert_eq!(expected.len(), n_replies);
    for split in 0..=replies.len() {
        let mut decoder = RespDecoder::new();
        feed(&mut decoder, &replies[..split]);
        let mut got = drain_replies(&mut decoder);
        feed(&mut decoder, &replies[split..]);
        got.extend(drain_replies(&mut decoder));
        assert_eq!(got, expected, "split at byte {split}");
    }
}

#[test]
fn frames_survive_byte_at_a_time_delivery() {
    let requests = sample_requests();
    let stream = request_stream(&requests);
    let mut decoder = RespDecoder::new();
    let mut got = Vec::new();
    for byte in &stream {
        feed(&mut decoder, std::slice::from_ref(byte));
        got.extend(drain_requests(&mut decoder));
    }
    assert_eq!(got, requests);

    let (replies, n_replies) = reply_stream();
    let mut decoder = RespDecoder::new();
    let mut got = Vec::new();
    for byte in &replies {
        feed(&mut decoder, std::slice::from_ref(byte));
        got.extend(drain_replies(&mut decoder));
    }
    assert_eq!(got.len(), n_replies);
}

#[test]
fn truncation_at_every_offset_reads_as_incomplete_then_completes() {
    let requests = sample_requests();
    let stream = request_stream(&requests);
    for cut in 0..stream.len() {
        let mut decoder = RespDecoder::new();
        feed(&mut decoder, &stream[..cut]);
        let complete = drain_requests(&mut decoder);
        // Whatever decoded is a strict prefix of the real requests —
        // never an invented or reordered one.
        assert!(complete.len() < requests.len(), "cut at {cut}");
        assert_eq!(complete[..], requests[..complete.len()], "cut at {cut}");
        // The rest of the bytes finish the job.
        feed(&mut decoder, &stream[cut..]);
        let mut all = complete;
        all.extend(drain_requests(&mut decoder));
        assert_eq!(all, requests, "resumed after cut at {cut}");
    }
}

/// What the server makes of `bytes`: each decoded command run as the
/// server runs it, against a fresh node. Returns the node and each
/// request that decoded, with whether it was answered with an error
/// reply; a protocol error or a message still incomplete (a length
/// flipped upwards, which a real connection ends at its timeout) ends
/// the stream.
fn serve_bytes(bytes: &[u8]) -> (Arc<MemStore>, Vec<(Request, bool)>) {
    let store = Arc::new(MemStore::new());
    let service: Arc<dyn ChunkService> =
        Arc::new(StoreService::new(store.clone() as Arc<dyn ChunkStore>));
    let mut decoder = RespDecoder::new();
    decoder.feed(bytes);
    let mut served = Vec::new();
    while let Ok(Some(argv)) = decoder.next_command() {
        let mut out = Vec::new();
        service.run(vec![argv.clone()], &mut out);
        match Request::decode(&argv) {
            Ok(req) => served.push((req, out[0] == b'-')),
            Err(_) => assert_eq!(out[0], b'-', "an undecodable request is answered -ERR"),
        }
    }
    (store, served)
}

#[test]
fn a_flipped_bit_never_stores_or_returns_a_chunk_under_a_wrong_cid() {
    let chunks = sample_chunks();
    let cids: Vec<Digest> = chunks.iter().map(|c| c.cid()).collect();

    // A CPUTMANY request, every bit flipped in turn, served as a server
    // serves it.
    let pristine = request_stream(&[Request::PutMany(chunks.clone())]);
    for bit in 0..pristine.len() * 8 {
        let mut bent = pristine.clone();
        bent[bit / 8] ^= 1 << (bit % 8);
        let (store, served) = serve_bytes(&bent);
        for (req, errored) in &served {
            // Decoded and answered: only ever identical chunks. (A count
            // flipped downwards stores the batch's first chunks; the
            // writer, short of answers, closes the socket and keeps the
            // whole batch itself.)
            let identical = match req {
                Request::PutMany(got) => got.iter().all(|c| chunks.contains(c)),
                _ => false,
            };
            assert!(*errored || identical, "bit {bit}: served {req:?}");
        }
        // The node holds nothing but the identical chunks.
        let held = chunks.iter().filter(|c| store.contains(&c.cid())).count() as u64;
        assert_eq!(store.stats().stored_chunks, held, "bit {bit}");
    }

    // A CGETMANY reply with an absent slot, every bit flipped in turn,
    // read as the client reads it.
    let mut asked = cids.clone();
    asked.insert(1, Chunk::new(ChunkType::Blob, &b"absent"[..]).cid());
    let store = Arc::new(MemStore::new());
    store.put_many(chunks.clone());
    let service = StoreService::new(store as Arc<dyn ChunkStore>);
    let mut reply = Vec::new();
    Request::GetMany(asked.clone())
        .answer(&service, &mut reply)
        .expect("answers");
    let mut want: Vec<Option<Chunk>> = chunks.iter().cloned().map(Some).collect();
    want.insert(1, None);
    for bit in 0..reply.len() * 8 {
        let mut bent = reply.clone();
        bent[bit / 8] ^= 1 << (bit % 8);
        let mut decoder = RespDecoder::new();
        decoder.feed(&bent);
        if let Ok(Some(value)) = decoder.next_value() {
            if let Ok(found) = proto::decode_found(&asked, value) {
                assert_eq!(found, want, "bit {bit}");
            }
        }
    }
}

#[test]
fn killed_server_surfaces_io_quickly_and_restart_recovers() {
    let store = Arc::new(MemStore::new());
    let backend = Arc::new(StoreService::new(store.clone() as Arc<dyn ChunkStore>));
    let mut server = ChunkServer::bind("127.0.0.1:0", backend.clone()).expect("bind");
    let addr = server.addr();
    let client = TcpChunkClient::new(
        addr,
        TcpConfig {
            connections: 2,
            ..TcpConfig::default()
        },
    );

    let chunk = Chunk::new(ChunkType::Blob, &b"survives restarts"[..]);
    client.put(chunk.clone()).expect("put while alive");
    assert_eq!(client.get(&chunk.cid()).expect("get"), Some(chunk.clone()));

    server.stop();
    drop(server);

    // Every pooled connection fails fast — an error, not a hang.
    let start = Instant::now();
    for _ in 0..4 {
        match client.get(&chunk.cid()) {
            Err(FbError::Io(_)) => {}
            other => panic!("expected Io error from killed server, got {other:?}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "dead-server errors must be prompt, took {:?}",
        start.elapsed()
    );

    // Same address, same backing store: the client's lazy re-dial picks
    // the restarted server up without being rebuilt.
    let listener = TcpListener::bind(addr).expect("rebind same addr");
    let _server = ChunkServer::start(listener, backend).expect("restart");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.get(&chunk.cid()) {
            Ok(found) => {
                assert_eq!(found, Some(chunk));
                break;
            }
            // A pooled connection that died mid-teardown may eat one
            // more error; retry until the re-dial lands.
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("client never recovered after restart: {e:?}"),
        }
    }
}

/// One step of a deterministic cluster schedule.
#[derive(Clone, Debug)]
enum ClusterOp {
    /// Write a blob under key `key % KEYS` with seeded content.
    PutBlob { key: usize, seed: usize, len: usize },
    /// Read a key back (may be absent — both transports must agree).
    GetBlob { key: usize },
    /// Offloaded construction via a helper servlet.
    PutOffloaded {
        key: usize,
        seed: usize,
        helper: usize,
    },
}

const KEYS: usize = 8;

fn payload(seed: usize, len: usize) -> Vec<u8> {
    let mut state = seed as u64 + 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn op_strategy() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        4 => (0usize..KEYS, 0usize..1000, 512usize..16_384)
            .prop_map(|(key, seed, len)| ClusterOp::PutBlob { key, seed, len }),
        3 => (0usize..KEYS).prop_map(|key| ClusterOp::GetBlob { key }),
        1 => (0usize..KEYS, 0usize..1000, 0usize..8)
            .prop_map(|(key, seed, helper)| ClusterOp::PutOffloaded { key, seed, helper }),
    ]
}

/// Drive `ops` against a cluster; every observable goes into the trace.
fn run_schedule(cluster: &Cluster, ops: &[ClusterOp]) -> (Vec<String>, Vec<StoreStats>) {
    let mut trace = Vec::with_capacity(ops.len());
    for op in ops {
        let step = match op {
            ClusterOp::PutBlob { key, seed, len } => {
                let uid = cluster
                    .put_blob(format!("key-{key}"), &payload(*seed, *len))
                    .expect("put");
                format!("put:{uid}")
            }
            ClusterOp::GetBlob { key } => match cluster.get_blob(format!("key-{key}")) {
                Ok(data) => format!("get:{}b:{:?}", data.len(), &data[..data.len().min(8)]),
                Err(e) => format!("get:err:{e:?}"),
            },
            ClusterOp::PutOffloaded { key, seed, helper } => {
                let uid = cluster
                    .put_blob_offloaded(format!("key-{key}"), &payload(*seed, 4096), *helper)
                    .expect("offloaded put");
                format!("off:{uid}")
            }
        };
        trace.push(step);
    }
    (trace, cluster.node_stats().expect("node stats"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The api_redesign contract: the transport is invisible. The same
    /// schedule against an in-process cluster and a TCP cluster yields
    /// bit-identical version digests, identical read results, and
    /// identical per-node stats (routing, dedup, caching, and io_error
    /// accounting all agree).
    #[test]
    fn tcp_and_in_process_transports_are_equivalent(
        ops in prop::collection::vec(op_strategy(), 1..25),
        nodes in 2usize..5,
    ) {
        let inproc = Cluster::builder(nodes)
            .partitioning(Partitioning::TwoLayer)
            .build()
            .expect("in-process cluster");
        let tcp = Cluster::builder(nodes)
            .partitioning(Partitioning::TwoLayer)
            .transport(Transport::Tcp(TcpConfig::default()))
            .build()
            .expect("tcp cluster");
        prop_assert!(!inproc.is_networked());
        prop_assert!(tcp.is_networked());

        let (trace_a, stats_a) = run_schedule(&inproc, &ops);
        let (trace_b, stats_b) = run_schedule(&tcp, &ops);

        prop_assert_eq!(trace_a, trace_b, "observable behavior diverged");
        prop_assert_eq!(stats_a, stats_b, "per-node stats deltas diverged");
    }
}
