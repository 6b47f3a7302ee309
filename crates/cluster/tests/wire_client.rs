//! The request path of the cluster wire, pinned from outside the crate.
//!
//! * **a wedged, late or confused peer** — a scripted peer that accepts
//!   and never answers, answers after its caller gave up, or answers
//!   under somebody else's request id: the request ends in
//!   `FbError::Io` within `response_timeout`, the socket is closed
//!   rather than pooled, and the next request gets its own answer on a
//!   fresh connection;
//! * **bounded frames** — a batch of over three frame budgets
//!   round-trips in both directions as several frames, counted at the
//!   server (requests) and off a raw socket (reply frames);
//! * **scatter, then gather** — a batch spanning three remote nodes has
//!   all three requests in flight at once: the backends only answer once
//!   every one of them holds a request;
//! * **one `put_many`, one group commit** — a durable node behind a
//!   `ChunkServer` pays a wire `put_many` with one fsync, and ends with
//!   the stats of the same batch put in process;
//! * **counted** — one blob put on two nodes is exactly one request
//!   frame to the remote one;
//! * **bytes off a socket never panic** — arbitrary bytes and every
//!   single-byte mutation of valid frames, at every split offset,
//!   through `FrameDecoder`, `decode_request` and `decode_response`.

use bytes::Bytes;
use forkbase_chunk::{
    Chunk, ChunkStore, ChunkType, Durability, LogConfig, LogStore, MemStore, PutOutcome, StoreStats,
};
use forkbase_cluster::net::frame::{self, Frame, FrameDecoder, FRAME_BUDGET, MAGIC};
use forkbase_cluster::net::proto::{self, Request, Response};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use forkbase_cluster::{Partitioning, Servlet, TwoLayerStore};
use forkbase_core::{FbError, ForkBase, Value};
use forkbase_crypto::{ChunkerConfig, Digest};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn blob(seed: u32, len: usize) -> Chunk {
    let bytes: Vec<u8> = (0..len)
        .map(|i| (seed as usize).wrapping_mul(31).wrapping_add(i * 7) as u8)
        .collect();
    Chunk::new(ChunkType::Blob, [&seed.to_le_bytes()[..], &bytes].concat())
}

fn mem_service() -> (Arc<MemStore>, Arc<StoreService>) {
    let store = Arc::new(MemStore::new());
    let service = Arc::new(StoreService::new(store.clone() as Arc<dyn ChunkStore>));
    (store, service)
}

// ---------------------------------------------------------------------
// A wedged, late or confused peer
// ---------------------------------------------------------------------

/// What a scripted peer does with the `n`th request it reads.
#[derive(Clone, Copy)]
enum Script {
    /// Read it and never answer.
    Silence,
    /// Answer after a pause.
    After(Duration),
    /// Answer at once, under a request id that is off by this much.
    Misnumbered(u64),
    /// Answer at once and correctly.
    Promptly,
}

/// A peer that speaks the wire over a real socket but answers by script.
/// Its answers are the truth of a `MemStore`; only their timing and
/// numbering are scripted.
struct ScriptedPeer {
    addr: SocketAddr,
    accepted: Arc<AtomicU64>,
    closed: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ScriptedPeer {
    /// Serve `conns` connections, then stop accepting.
    fn start(conns: usize, script: impl Fn(u64) -> Script + Send + Sync + 'static) -> ScriptedPeer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepted = Arc::new(AtomicU64::new(0));
        let closed = Arc::new(AtomicU64::new(0));
        let (acc, cls) = (accepted.clone(), closed.clone());
        let accept_thread = std::thread::spawn(move || {
            let (_, backend) = mem_service();
            let requests = AtomicU64::new(0);
            std::thread::scope(|s| {
                for stream in listener.incoming().take(conns) {
                    let stream = stream.expect("accept");
                    acc.fetch_add(1, Ordering::SeqCst);
                    let (backend, requests, script, cls) = (&backend, &requests, &script, &cls);
                    s.spawn(move || {
                        let _ = serve_by_script(stream, &**backend, requests, script);
                        cls.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        ScriptedPeer {
            addr,
            accepted,
            closed,
            accept_thread: Some(accept_thread),
        }
    }

    fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Block until `n` of the peer's connections have ended.
    fn wait_closed(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.closed.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "peer still holds a live socket");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Join the peer: every connection it was to serve has been
    /// accepted and has ended.
    fn finish(mut self) {
        self.accept_thread
            .take()
            .expect("running")
            .join()
            .expect("peer");
    }
}

fn serve_by_script(
    mut stream: TcpStream,
    backend: &dyn ChunkService,
    requests: &AtomicU64,
    script: &dyn Fn(u64) -> Script,
) -> std::io::Result<()> {
    let mut decoder = FrameDecoder::new();
    loop {
        while let Some(frame) = decoder.next_frame().expect("the client sends valid frames") {
            let (req_id, req) =
                proto::decode_request(frame.opcode, &frame.payload).expect("valid request");
            let resp = match req {
                Request::Get(cid) => Response::Get(backend.get(&cid).expect("mem")),
                Request::Put(chunk) => Response::Put(backend.put(chunk).expect("mem")),
                other => panic!("unscripted request {other:?}"),
            };
            let answer_id = match script(requests.fetch_add(1, Ordering::SeqCst)) {
                Script::Silence => continue,
                Script::After(pause) => {
                    std::thread::sleep(pause);
                    req_id
                }
                Script::Misnumbered(by) => req_id + by,
                Script::Promptly => req_id,
            };
            let mut out = Vec::new();
            proto::encode_response(answer_id, &resp, &mut out).expect("encodes");
            stream.write_all(&out)?;
        }
        if decoder.read_from(&mut stream)? == 0 {
            return Ok(());
        }
    }
}

fn impatient(addr: SocketAddr, response_timeout: Duration) -> TcpChunkClient {
    TcpChunkClient::new(
        addr,
        TcpConfig {
            connections: 1,
            response_timeout,
            ..TcpConfig::default()
        },
    )
}

#[test]
fn a_peer_that_never_answers_costs_the_timeout_and_its_socket() {
    let peer = ScriptedPeer::start(2, |_| Script::Silence);
    let timeout = Duration::from_millis(200);
    let client = impatient(peer.addr, timeout);
    let cid = blob(1, 10).cid();
    for round in 1..=2u64 {
        let asked = Instant::now();
        match client.get(&cid) {
            Err(FbError::Io(_)) => {}
            other => panic!("expected Io from a wedged peer, got {other:?}"),
        }
        let took = asked.elapsed();
        assert!(took >= timeout, "gave up early: {took:?}");
        assert!(took < Duration::from_secs(5), "hung: {took:?}");
        // The socket was closed, not pooled: the peer sees it end, and
        // the next request had to dial again.
        peer.wait_closed(round);
        assert_eq!(peer.accepted(), round);
    }
    drop(client);
    peer.finish();
}

#[test]
fn a_reply_that_comes_too_late_is_never_somebody_elses_answer() {
    // Request 0 is answered long after its caller gave up; request 1 at
    // once.
    let peer = ScriptedPeer::start(2, |n| match n {
        0 => Script::After(Duration::from_millis(600)),
        _ => Script::Promptly,
    });
    let client = impatient(peer.addr, Duration::from_millis(150));
    let (first, second) = (blob(1, 100), blob(2, 100));
    match client.put(first.clone()) {
        Err(FbError::Io(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    // Were the late `Put` reply still readable, this get would meet it.
    assert_eq!(client.get(&second.cid()).expect("own answer"), None);
    assert_eq!(client.put(second.clone()).expect("put"), PutOutcome::Stored);
    assert_eq!(client.get(&second.cid()).expect("get"), Some(second));
    assert_eq!(peer.accepted(), 2, "the timed-out socket was not reused");
    drop(client);
    peer.finish();
}

#[test]
fn an_answer_under_a_foreign_request_id_closes_the_socket() {
    let peer = ScriptedPeer::start(2, |n| match n {
        0 => Script::Misnumbered(7),
        _ => Script::Promptly,
    });
    let client = impatient(peer.addr, Duration::from_secs(5));
    let chunk = blob(3, 64);
    match client.put(chunk.clone()) {
        Err(FbError::Io(msg)) => assert!(msg.contains("answered request"), "{msg}"),
        other => panic!("expected Io for a foreign req_id, got {other:?}"),
    }
    peer.wait_closed(1);
    // The peer did store it; the fresh connection reads it back.
    assert_eq!(client.get(&chunk.cid()).expect("get"), Some(chunk));
    assert_eq!(peer.accepted(), 2);
    drop(client);
    peer.finish();
}

// ---------------------------------------------------------------------
// Bounded frames
// ---------------------------------------------------------------------

#[test]
fn a_batch_of_three_budgets_travels_as_several_frames_each_way() {
    let (store, backend) = mem_service();
    let server = ChunkServer::bind("127.0.0.1:0", backend).expect("bind");
    let client = TcpChunkClient::new(server.addr(), TcpConfig::default());

    let each = 192 << 10;
    let chunks: Vec<Chunk> = (0..(3 * FRAME_BUDGET / each + 4) as u32)
        .map(|i| blob(i, each))
        .collect();
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    assert!(total > 3 * FRAME_BUDGET);

    // Client to server: the client cuts the batch into request frames.
    let outcomes = client.put_many(chunks.clone()).expect("put_many");
    assert_eq!(outcomes, vec![PutOutcome::Stored; chunks.len()]);
    let put_frames = server.counters().requests;
    assert!(put_frames >= 3, "{put_frames} request frames");
    assert_eq!(store.stats().stored_chunks, chunks.len() as u64);

    // Server to client: one request, and the server cuts the reply.
    let mut cids: Vec<Digest> = chunks.iter().map(|c| c.cid()).collect();
    cids.insert(5, blob(u32::MAX, 9).cid());
    let found = client.get_many(&cids).expect("get_many");
    assert_eq!(server.counters().requests, put_frames + 1);
    assert_eq!(found.len(), cids.len());
    assert_eq!(found[5], None);
    let fetched: Vec<Chunk> = found.into_iter().flatten().collect();
    assert_eq!(fetched, chunks);

    // The reply frames, counted off a raw socket.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut request = Vec::new();
    proto::encode_request(9, &Request::GetMany(cids.clone()), &mut request).expect("encodes");
    raw.write_all(&request).expect("send");
    let mut decoder = FrameDecoder::new();
    let (mut frames, mut answered) = (0, 0);
    while answered < cids.len() {
        let Some(frame) = decoder.next_frame().expect("valid") else {
            assert_ne!(decoder.read_from(&mut raw).expect("read"), 0, "early EOF");
            continue;
        };
        assert!(frame.payload.len() <= FRAME_BUDGET + 16);
        match proto::decode_response(frame.opcode, &frame.payload) {
            Some((9, Response::GetMany(run))) => answered += run.len(),
            other => panic!("not a run of the reply: {other:?}"),
        }
        frames += 1;
    }
    assert_eq!(answered, cids.len());
    assert!(frames >= 3, "{frames} reply frames");
}

// ---------------------------------------------------------------------
// Scatter, then gather
// ---------------------------------------------------------------------

/// Backends that answer a batched call only once `parties` of them hold
/// one — a batch sent to one node at a time never gets past the first.
struct Rendezvous {
    parties: usize,
    inside: Mutex<usize>,
    all_in: Condvar,
}

impl Rendezvous {
    fn meet(&self) -> forkbase_core::Result<()> {
        let mut inside = self.inside.lock().expect("rendezvous lock");
        *inside += 1;
        self.all_in.notify_all();
        let (mut inside, timeout) = self
            .all_in
            .wait_timeout_while(inside, Duration::from_secs(5), |n| *n % self.parties != 0)
            .expect("rendezvous lock");
        if timeout.timed_out() {
            *inside -= 1;
            return Err(FbError::Io("the other nodes were never asked".into()));
        }
        Ok(())
    }
}

struct MeetingNode {
    inner: StoreService,
    rendezvous: Arc<Rendezvous>,
}

impl ChunkService for MeetingNode {
    fn get(&self, cid: &Digest) -> forkbase_core::Result<Option<Chunk>> {
        self.inner.get(cid)
    }
    fn get_many(&self, cids: &[Digest]) -> forkbase_core::Result<Vec<Option<Chunk>>> {
        self.rendezvous.meet()?;
        self.inner.get_many(cids)
    }
    fn put(&self, chunk: Chunk) -> forkbase_core::Result<PutOutcome> {
        self.inner.put(chunk)
    }
    fn put_many(&self, chunks: Vec<Chunk>) -> forkbase_core::Result<Vec<PutOutcome>> {
        self.rendezvous.meet()?;
        self.inner.put_many(chunks)
    }
    fn stats(&self) -> forkbase_core::Result<StoreStats> {
        self.inner.stats()
    }
}

#[test]
fn a_batch_reaches_every_remote_node_before_it_waits_for_any() {
    const NODES: usize = 4;
    let rendezvous = Arc::new(Rendezvous {
        parties: NODES - 1,
        inside: Mutex::new(0),
        all_in: Condvar::new(),
    });
    let stores: Vec<Arc<dyn ChunkStore>> = (0..NODES)
        .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
        .collect();
    let mut servers = Vec::new();
    let pool: Vec<Arc<dyn ChunkService>> = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            let inner = StoreService::new(store.clone());
            if i == 0 {
                return Arc::new(inner) as Arc<dyn ChunkService>;
            }
            let node = Arc::new(MeetingNode {
                inner,
                rendezvous: rendezvous.clone(),
            });
            let server = ChunkServer::bind("127.0.0.1:0", node).expect("bind");
            let client = TcpChunkClient::new(server.addr(), TcpConfig::default());
            servers.push(server);
            Arc::new(client) as Arc<dyn ChunkService>
        })
        .collect();
    let view = TwoLayerStore::new(stores[0].clone(), pool, 0);

    let chunks: Vec<Chunk> = (0..64).map(|i| blob(i, 40)).collect();
    for (node, store) in stores.iter().enumerate() {
        let share = chunks
            .iter()
            .filter(|c| c.cid().prefix_u64() % NODES as u64 == node as u64)
            .count();
        assert!(share > 4, "node {node} owns a share");
        assert_eq!(store.stats().stored_chunks, 0);
    }

    let outcomes = view.put_many(chunks.clone());
    assert_eq!(outcomes, vec![PutOutcome::Stored; chunks.len()]);
    assert_eq!(view.transport_errors(), 0, "every node was reached at once");
    let held: u64 = stores.iter().map(|s| s.stats().stored_chunks).sum();
    assert_eq!(held, chunks.len() as u64);

    view.clear_remote_cache();
    let cids: Vec<Digest> = chunks.iter().map(|c| c.cid()).collect();
    let found: Vec<Chunk> = view.get_many(&cids).into_iter().flatten().collect();
    assert_eq!(found, chunks);
    assert_eq!(view.transport_errors(), 0);
}

// ---------------------------------------------------------------------
// One put_many, one group commit
// ---------------------------------------------------------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "forkbase-wire-client-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn a_wire_put_many_is_one_group_commit_on_a_durable_node() {
    let base = scratch_dir("durable");
    let durable_servlet = |name: &str| {
        let log = Arc::new(
            LogStore::open_with(base.join(name), LogConfig::default(), Durability::Always)
                .expect("open"),
        );
        let servlet = Arc::new(Servlet::new(
            0,
            Partitioning::OneLayer,
            log.clone() as Arc<dyn ChunkStore>,
            Vec::new(),
            ChunkerConfig::default(),
        ));
        (log, servlet)
    };
    let chunks: Vec<Chunk> = (0..8).map(|i| blob(i, 500)).collect();

    let (wired_log, wired) = durable_servlet("wired");
    let server = ChunkServer::bind("127.0.0.1:0", wired).expect("bind");
    let client = TcpChunkClient::new(server.addr(), TcpConfig::default());
    let before = wired_log.fsync_count();
    let over_the_wire = client.put_many(chunks.clone()).expect("put_many");
    assert_eq!(wired_log.fsync_count() - before, 1, "one batch, one fsync");

    let (direct_log, direct) = durable_servlet("direct");
    let before = direct_log.fsync_count();
    let in_process = direct.put_many(chunks).expect("put_many");
    assert_eq!(direct_log.fsync_count() - before, 1);

    assert_eq!(over_the_wire, in_process);
    assert_eq!(wired_log.stats(), direct_log.stats());
    drop((client, server, wired_log, direct_log, direct));
    std::fs::remove_dir_all(base).ok();
}

// ---------------------------------------------------------------------
// Counted
// ---------------------------------------------------------------------

#[test]
fn one_blob_put_is_one_request_frame_to_the_remote_node() {
    let stores: Vec<Arc<dyn ChunkStore>> = (0..2)
        .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
        .collect();
    let remote = Arc::new(StoreService::new(stores[1].clone()));
    let server = ChunkServer::bind("127.0.0.1:0", remote).expect("bind");
    let pool: Vec<Arc<dyn ChunkService>> = vec![
        Arc::new(StoreService::new(stores[0].clone())),
        Arc::new(TcpChunkClient::new(server.addr(), TcpConfig::default())),
    ];
    let view = Arc::new(TwoLayerStore::new(stores[0].clone(), pool, 0));
    let db = ForkBase::with_store(view, ChunkerConfig::default());

    // What `Cluster::put_blob` does on the key's home servlet.
    let data: Vec<u8> = (0..16u32 << 10)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect();
    let value = Value::Blob(db.new_blob(&data));
    db.put("blob-key", None, value).expect("put");

    assert!(stores[1].stats().stored_chunks >= 1, "a share went remote");
    assert_eq!(
        server.counters().requests,
        1,
        "the whole remote share in one frame"
    );
    assert_eq!(server.counters().connections, 1);
}

// ---------------------------------------------------------------------
// Bytes off a socket never panic
// ---------------------------------------------------------------------

/// Every kind of message, as the frames it is sent in.
fn valid_frames() -> Vec<Vec<u8>> {
    let (a, b) = (blob(1, 90), Chunk::new(ChunkType::Map, &b"bb"[..]));
    let mut frames = Vec::new();
    for req in [
        Request::Get(a.cid()),
        Request::GetMany(vec![a.cid(), b.cid()]),
        Request::Put(a.clone()),
        Request::PutMany(vec![a.clone(), b.clone()]),
        Request::Stats,
    ] {
        let mut out = Vec::new();
        proto::encode_request(11, &req, &mut out).expect("encodes");
        frames.push(out);
    }
    for resp in [
        Response::Get(Some(a.clone())),
        Response::GetMany(vec![Some(a.clone()), None, Some(b.clone())]),
        Response::Put(PutOutcome::Stored),
        Response::PutMany(vec![PutOutcome::Stored, PutOutcome::Deduplicated]),
        Response::Stats(StoreStats::default()),
        Response::Err("no".into()),
    ] {
        let mut out = Vec::new();
        proto::encode_response(12, &resp, &mut out).expect("encodes");
        frames.push(out);
    }
    frames
}

/// The frames a decoder yields for `stream` delivered in two reads'
/// worth, split at `split`; a framing error ends the stream, as it ends
/// a connection.
fn frames_through(stream: &[u8], split: usize) -> Vec<Frame> {
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    for mut part in [&stream[..split], &stream[split..]] {
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) if part.is_empty() => break,
                Ok(None) => {
                    decoder.read_from(&mut part).expect("slice read");
                }
                Err(_) => return frames,
            }
        }
    }
    frames
}

/// Push a body through both message decoders. Whatever chunk comes out
/// must carry the cid of its own bytes.
fn decode_both_ways(opcode: u8, payload: &Bytes) {
    let honest = |chunk: &Chunk| assert!(chunk.verify(), "a chunk under a cid not its own");
    match proto::decode_request(opcode, payload) {
        Some((_, Request::Put(chunk))) => honest(&chunk),
        Some((_, Request::PutMany(chunks))) => chunks.iter().for_each(honest),
        _ => {}
    }
    match proto::decode_response(opcode, payload) {
        Some((_, Response::Get(Some(chunk)))) => honest(&chunk),
        Some((_, Response::GetMany(slots))) => slots.iter().flatten().for_each(honest),
        _ => {}
    }
}

const OPCODES: [u8; 12] = [
    proto::OP_GET,
    proto::OP_GET_MANY,
    proto::OP_PUT,
    proto::OP_PUT_MANY,
    proto::OP_STATS,
    proto::OP_GET | proto::OP_RESP,
    proto::OP_GET_MANY | proto::OP_RESP,
    proto::OP_PUT | proto::OP_RESP,
    proto::OP_PUT_MANY | proto::OP_RESP,
    proto::OP_STATS | proto::OP_RESP,
    proto::OP_ERR,
    0x7E,
];

/// Garbage, garbage behind a good magic word, and garbage behind a good
/// frame.
fn hostile_stream() -> impl Strategy<Value = Vec<u8>> {
    let garbage = || prop::collection::vec(any::<u8>(), 0..300);
    prop_oneof![
        2 => garbage(),
        2 => garbage().prop_map(|g| [&MAGIC.to_le_bytes()[..], &g].concat()),
        1 => (0usize..11, garbage()).prop_map(|(which, g)| [&valid_frames()[which][..], &g].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(stream in hostile_stream()) {
        for split in 0..=stream.len() {
            for frame in frames_through(&stream, split) {
                decode_both_ways(frame.opcode, &frame.payload);
            }
        }
        // And straight into the message decoders, past the checksum.
        let body = Bytes::from(stream);
        for opcode in OPCODES {
            decode_both_ways(opcode, &body);
        }
    }

    #[test]
    fn a_mutated_frame_never_yields_a_frame(
        which in 0usize..11,
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let pristine = &valid_frames()[which];
        let mut bent = pristine.clone();
        let at = at % bent.len();
        bent[at] ^= xor;
        for split in 0..=bent.len() {
            let frames = frames_through(&bent, split);
            prop_assert!(frames.is_empty(), "byte {at} ^ {xor:#04x}, split {split}: {frames:?}");
        }
        // The same damage met past the checksum: the body is refused or
        // decodes to chunks that are what their cids say.
        let body_at = frame::HEADER_LEN;
        if (body_at + 1..bent.len() - 4).contains(&at) {
            let payload = Bytes::from(bent[body_at + 1..bent.len() - 4].to_vec());
            decode_both_ways(bent[body_at], &payload);
        }
    }
}
