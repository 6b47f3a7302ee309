//! Integration suite for the cluster wire.
//!
//! Three hazard classes, mirroring the LogStore torn-tail suite one
//! layer up:
//!
//! * **framing** — a TCP read boundary can fall on *any* byte, so the
//!   decoder is swept across every split and truncation offset, and a
//!   single flipped byte anywhere in a frame must never decode into a
//!   frame;
//! * **transport equivalence** — the in-process and TCP transports are
//!   the same cluster observed through different wires: an identical
//!   request schedule must produce identical digests, identical blob
//!   reads, and identical per-node stats deltas;
//! * **failure** — a killed server surfaces as `FbError::Io` promptly
//!   (no hang on in-flight or subsequent requests), and a server
//!   restarted on the same address is picked up by the same client
//!   without reconstruction.

use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore, StoreStats};
use forkbase_cluster::net::frame::{encode, FrameDecoder};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use forkbase_cluster::{Cluster, Partitioning, Transport};
use forkbase_core::FbError;
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sample_frames() -> Vec<(u8, Vec<u8>)> {
    vec![
        (0x01, b"first payload".to_vec()),
        (0x02, Vec::new()),
        (0x7f, (0u8..=255).collect()),
    ]
}

fn stream_of(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|(op, p)| encode(*op, p).expect("encodes"))
        .collect()
}

/// Hand `bytes` to the decoder the way a socket would: as the source of
/// its reads, until they are all taken.
fn feed(decoder: &mut FrameDecoder, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        decoder.read_from(&mut bytes).expect("slice read");
    }
}

fn drain(decoder: &mut FrameDecoder) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some(frame) = decoder.next_frame().expect("valid stream") {
        out.push((frame.opcode, frame.payload.to_vec()));
    }
    out
}

#[test]
fn frames_survive_a_split_at_every_byte_offset() {
    let frames = sample_frames();
    let stream = stream_of(&frames);
    for split in 0..=stream.len() {
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        feed(&mut decoder, &stream[..split]);
        got.extend(drain(&mut decoder));
        feed(&mut decoder, &stream[split..]);
        got.extend(drain(&mut decoder));
        assert_eq!(got, frames, "split at byte {split}");
    }
}

#[test]
fn frames_survive_byte_at_a_time_delivery() {
    let frames = sample_frames();
    let stream = stream_of(&frames);
    let mut decoder = FrameDecoder::new();
    let mut got = Vec::new();
    for byte in &stream {
        feed(&mut decoder, std::slice::from_ref(byte));
        got.extend(drain(&mut decoder));
    }
    assert_eq!(got, frames);
}

#[test]
fn truncation_at_every_offset_reads_as_incomplete_then_completes() {
    let frames = sample_frames();
    let stream = stream_of(&frames);
    for cut in 0..stream.len() {
        let mut decoder = FrameDecoder::new();
        feed(&mut decoder, &stream[..cut]);
        let complete = drain(&mut decoder);
        assert!(
            complete.len() <= frames.len(),
            "cut at {cut} produced too many frames"
        );
        // Whatever decoded is a strict prefix of the real frames —
        // never an invented or reordered frame.
        assert_eq!(complete[..], frames[..complete.len()], "cut at {cut}");
        // The rest of the bytes finish the job.
        feed(&mut decoder, &stream[cut..]);
        let mut all = complete;
        all.extend(drain(&mut decoder));
        assert_eq!(all, frames, "resumed after cut at {cut}");
    }
}

#[test]
fn single_byte_corruption_never_yields_a_frame() {
    let (opcode, payload) = (0x03u8, b"checksummed payload".to_vec());
    let pristine = encode(opcode, &payload).expect("encodes");
    for offset in 0..pristine.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = pristine.clone();
            corrupt[offset] ^= flip;
            let mut decoder = FrameDecoder::new();
            feed(&mut decoder, &corrupt);
            match decoder.next_frame() {
                // Detected: bad magic, bad length, or bad checksum.
                Err(_) => {}
                // A corrupted length field can claim a longer frame —
                // that reads as incomplete, which a real connection
                // resolves by the checksum failing once more bytes
                // arrive (or the peer timing out), never by a frame.
                Ok(None) => {}
                Ok(Some(frame)) => panic!(
                    "byte {offset} ^ {flip:#04x} decoded as a frame \
                     (opcode {:#04x}, {} bytes)",
                    frame.opcode,
                    frame.payload.len()
                ),
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
