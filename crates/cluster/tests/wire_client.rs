//! The request path of the cluster wire, pinned from outside the crate.
//!
//! * **a wedged, late or confused peer** — a scripted peer that accepts
//!   and never answers, answers after its caller gave up, or answers
//!   with a reply of the wrong shape: the request ends in `FbError::Io`
//!   within `response_timeout`, the socket is closed rather than
//!   pooled, and the next request gets its own answer on a fresh
//!   connection;
//! * **bounded requests** — a put batch of over three budgets travels
//!   as several requests, counted at the server, and its get_many as
//!   one;
//! * **a put changed in flight** — the server refuses it and the writer
//!   keeps the chunk in its own store;
//! * **scatter, then gather** — a batch spanning three remote nodes has
//!   all three requests in flight at once: the backends only answer once
//!   every one of them holds a request;
//! * **one `put_many`, one group commit** — a durable node behind a
//!   `ChunkServer` pays a wire `put_many` with one fsync, and ends with
//!   the stats of the same batch put in process;
//! * **counted** — one blob put on two nodes is exactly one request to
//!   the remote one;
//! * **bytes off a socket never panic** — arbitrary bytes and every
//!   single-byte mutation of valid messages, at every split offset,
//!   through `RespDecoder`, `Request::decode` and the reply decoders,
//!   and no chunk comes out under a cid it does not hash to.

use bytes::Bytes;
use forkbase_chunk::{
    Chunk, ChunkStore, ChunkType, Durability, LogConfig, LogStore, MemStore, PutOutcome, StoreStats,
};
use forkbase_cluster::net::client::BATCH_BUDGET;
use forkbase_cluster::net::proto::{self, Request};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use forkbase_cluster::{Partitioning, Servlet, TwoLayerStore};
use forkbase_core::{FbError, ForkBase, Value};
use forkbase_crypto::resp::{self, RespDecoder, RespValue};
use forkbase_crypto::{ChunkerConfig, Digest};
use proptest::prelude::*;
use std::io::{Read, Write};
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
    /// Answer at once with a reply of the wrong shape: an integer.
    WrongShape,
    /// Answer at once and correctly.
    Promptly,
}

/// A peer that speaks the wire over a real socket but answers by script.
/// Its answers are the truth of a `MemStore`; only their timing and
/// shape are scripted.
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
    let mut decoder = RespDecoder::new();
    loop {
        while let Some(argv) = decoder.next_command().expect("the client sends valid RESP") {
            let req = Request::decode(&argv).expect("valid request");
            assert!(
                matches!(req, Request::Get(_) | Request::Put(_)),
                "unscripted {req:?}"
            );
            let mut out = Vec::new();
            req.answer(backend, &mut out).expect("mem");
            match script(requests.fetch_add(1, Ordering::SeqCst)) {
                Script::Silence => continue,
                Script::After(pause) => std::thread::sleep(pause),
                Script::WrongShape => {
                    out.clear();
                    resp::put_header(&mut out, b':', 7);
                }
                Script::Promptly => {}
            }
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
fn a_reply_of_the_wrong_shape_closes_the_socket() {
    let peer = ScriptedPeer::start(2, |n| match n {
        0 => Script::WrongShape,
        _ => Script::Promptly,
    });
    let client = impatient(peer.addr, Duration::from_secs(5));
    let chunk = blob(3, 64);
    match client.put(chunk.clone()) {
        Err(FbError::Io(msg)) => assert!(msg.contains("Int(7)"), "{msg}"),
        other => panic!("expected Io for a reply of the wrong shape, got {other:?}"),
    }
    peer.wait_closed(1);
    // The peer did store it; the fresh connection reads it back.
    assert_eq!(client.get(&chunk.cid()).expect("get"), Some(chunk));
    assert_eq!(peer.accepted(), 2);
    drop(client);
    peer.finish();
}

// ---------------------------------------------------------------------
// Bounded requests
// ---------------------------------------------------------------------

#[test]
fn a_put_batch_over_the_budget_travels_as_several_requests() {
    let (store, backend) = mem_service();
    let server = ChunkServer::bind("127.0.0.1:0", backend).expect("bind");
    let client = TcpChunkClient::new(server.addr(), TcpConfig::default());

    let each = 192 << 10;
    let chunks: Vec<Chunk> = (0..(3 * BATCH_BUDGET / each + 4) as u32)
        .map(|i| blob(i, each))
        .collect();
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    assert!(total > 3 * BATCH_BUDGET);

    // The client cuts the batch into requests.
    let outcomes = client.put_many(chunks.clone()).expect("put_many");
    assert_eq!(outcomes, vec![PutOutcome::Stored; chunks.len()]);
    let puts = server.counters().requests;
    assert!(puts >= 4, "{puts} requests");
    assert_eq!(store.stats().stored_chunks, chunks.len() as u64);

    // The whole batch comes back as the one reply to one request.
    let mut cids: Vec<Digest> = chunks.iter().map(|c| c.cid()).collect();
    cids.insert(5, blob(u32::MAX, 9).cid());
    let found = client.get_many(&cids).expect("get_many");
    assert_eq!(server.counters().requests, puts + 1);
    assert_eq!(found.len(), cids.len());
    assert_eq!(found[5], None);
    let fetched: Vec<Chunk> = found.into_iter().flatten().collect();
    assert_eq!(fetched, chunks);
}

// ---------------------------------------------------------------------
// A put changed in flight
// ---------------------------------------------------------------------

/// Relays one connection to `to`, flipping one bit of the client's
/// bytes at offset `at` on the way.
fn flipping_relay(to: std::net::SocketAddr, at: usize) -> (std::net::SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let relay = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("accept");
        let mut server = TcpStream::connect(to).expect("connect");
        let mut back = server.try_clone().expect("clone");
        let mut reply_to = client.try_clone().expect("clone");
        let replies = std::thread::spawn(move || {
            let _ = std::io::copy(&mut back, &mut reply_to);
        });
        let (mut seen, mut buf) = (0, [0u8; 4096]);
        while let Ok(n @ 1..) = client.read(&mut buf) {
            if (seen..seen + n).contains(&at) {
                buf[at - seen] ^= 0x10;
            }
            seen += n;
            if server.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = server.shutdown(std::net::Shutdown::Both);
        let _ = replies.join();
    });
    (addr, relay)
}

#[test]
fn a_put_changed_in_flight_is_refused_and_kept_by_its_writer() {
    let stores: Vec<Arc<dyn ChunkStore>> = (0..2)
        .map(|_| Arc::new(MemStore::new()) as Arc<dyn ChunkStore>)
        .collect();
    let remote = Arc::new(StoreService::new(stores[1].clone()));
    let server = ChunkServer::bind("127.0.0.1:0", remote).expect("bind");
    let chunk = (0u32..)
        .map(|i| blob(i, 600))
        .find(|c| c.cid().prefix_u64() % 2 == 1)
        .expect("a chunk owned by node 1");
    // The flipped byte lies in the chunk's payload, 100 bytes before
    // the request's end.
    let mut request = Vec::new();
    Request::Put(chunk.clone())
        .encode(&mut request)
        .expect("encodes");
    let (relay_addr, relay) = flipping_relay(server.addr(), request.len() - 100);
    let pool: Vec<Arc<dyn ChunkService>> = vec![
        Arc::new(StoreService::new(stores[0].clone())),
        Arc::new(TcpChunkClient::new(relay_addr, TcpConfig::default())),
    ];
    let view = TwoLayerStore::new(stores[0].clone(), pool, 0);

    assert_eq!(view.put(chunk.clone()), PutOutcome::Stored);
    assert_eq!(server.counters().requests, 1, "the put reached the node");
    assert_eq!(stores[1].stats().stored_chunks, 0, "and was refused there");
    assert!(stores[0].contains(&chunk.cid()), "the writer kept it");
    assert_eq!(view.transport_errors(), 0, "a refusal is no lost peer");
    assert_eq!(view.refused_puts(), 1);
    assert_eq!(view.stats().refused_puts, 1);
    assert_eq!(view.stats().io_errors, 0);
    view.clear_remote_cache();
    assert_eq!(view.get(&chunk.cid()), Some(chunk));
    drop(view);
    relay.join().expect("relay");
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
        "the whole remote share in one request"
    );
    assert_eq!(server.counters().connections, 1);
}

// ---------------------------------------------------------------------
// Bytes off a socket never panic
// ---------------------------------------------------------------------

/// Every kind of message: requests, then the replies a node gives.
fn valid_messages() -> Vec<Vec<u8>> {
    let (a, b) = (blob(1, 90), Chunk::new(ChunkType::Map, &b"bb"[..]));
    let requests = [
        Request::Get(a.cid()),
        Request::GetMany(vec![a.cid(), b.cid()]),
        Request::Put(a.clone()),
        Request::PutMany(vec![a.clone(), b.clone()]),
        Request::Stats,
    ];
    let mut messages = Vec::new();
    for req in &requests {
        let mut out = Vec::new();
        req.encode(&mut out).expect("encodes");
        messages.push(out);
    }
    let (_, node) = mem_service();
    node.put(a.clone()).expect("mem");
    for req in [
        Request::Get(a.cid()),
        Request::GetMany(vec![a.cid(), blob(9, 9).cid(), a.cid()]),
        Request::Put(b.clone()),
        Request::PutMany(vec![a.clone(), b.clone()]),
        Request::Stats,
    ] {
        let mut out = Vec::new();
        req.answer(&*node, &mut out).expect("answers");
        messages.push(out);
    }
    let mut refusal = Vec::new();
    resp::put_error(&mut refusal, "ERR no");
    messages.push(refusal);
    messages
}

/// Push one decoded message through every decoder the wire has. No
/// chunk may come out under a cid it does not hash to: a put's chunks
/// carry the cids they were sent with, a fetched chunk the cid asked.
fn decode_every_way(argv: Option<Vec<Bytes>>, value: Option<RespValue>) {
    if let Some(argv) = argv {
        match Request::decode(&argv) {
            Ok(Request::Put(chunk)) => assert_eq!(argv[1][..], chunk.cid().as_bytes()[..]),
            Ok(Request::PutMany(chunks)) => {
                for (chunk, cid) in chunks.iter().zip(argv[1..].iter().step_by(2)) {
                    assert_eq!(cid[..], chunk.cid().as_bytes()[..]);
                }
            }
            _ => {}
        }
    }
    let Some(value) = value else { return };
    let asked: Vec<Digest> = [blob(1, 90).cid(), blob(9, 9).cid(), blob(1, 90).cid()].into();
    for n in 1..=asked.len() {
        if let Ok(found) = proto::decode_found(&asked[..n], value.clone()) {
            for (slot, cid) in found.iter().zip(&asked) {
                assert!(slot.as_ref().is_none_or(|c| c.cid() == *cid));
            }
        }
        let _ = proto::decode_outcomes(n, value.clone());
    }
    let _ = proto::decode_found(&asked[..1], RespValue::Array(vec![value.clone()]));
    let _ = proto::decode_stats(value);
}

/// Everything a decoder yields for `stream` delivered in two reads'
/// worth, split at `split`, read as requests and as replies; a protocol
/// error ends the stream, as it ends a connection.
fn decode_through(stream: &[u8], split: usize) -> usize {
    let mut yielded = 0;
    let (mut commands, mut values) = (RespDecoder::new(), RespDecoder::new());
    for part in [&stream[..split], &stream[split..]] {
        commands.feed(part);
        values.feed(part);
        while let Ok(Some(argv)) = commands.next_command() {
            decode_every_way(Some(argv), None);
            yielded += 1;
        }
        while let Ok(Some(value)) = values.next_value() {
            decode_every_way(None, Some(value));
            yielded += 1;
        }
    }
    yielded
}

/// Garbage, garbage behind a good header, and garbage behind a good
/// message.
fn hostile_stream() -> impl Strategy<Value = Vec<u8>> {
    let garbage = || prop::collection::vec(any::<u8>(), 0..300);
    let messages = valid_messages().len();
    prop_oneof![
        2 => garbage(),
        2 => garbage().prop_map(|g| [&b"*3\r\n$8\r\nCPUTMANY\r\n$32\r\n"[..], &g].concat()),
        1 => (0..messages, garbage())
            .prop_map(|(which, g)| [&valid_messages()[which][..], &g].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(stream in hostile_stream()) {
        for split in 0..=stream.len() {
            decode_through(&stream, split);
        }
    }

    #[test]
    fn a_mutated_message_never_yields_a_chunk_under_a_wrong_cid(
        which in 0usize..11,
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bent = valid_messages()[which].clone();
        let at = at % bent.len();
        bent[at] ^= xor;
        for split in 0..=bent.len() {
            decode_through(&bent, split);
        }
    }
}
