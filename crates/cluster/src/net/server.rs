//! The servlet-side TCP endpoint: a blocking thread-per-connection
//! server loop over any [`ChunkService`] backend.
//!
//! Each accepted connection gets one handler thread that decodes frames,
//! executes requests against the backend, and writes the response back
//! in one `write`. Requests on one connection are served one after
//! another; concurrency comes from connections (the client keeps a few
//! per peer and uses each for one request at a time), matching the
//! `LogStore` writer-thread precedent of plain background threads over
//! an async runtime.

use super::frame::{self, FrameDecoder};
use super::proto::{self, Request, Response};
use crate::service::ChunkService;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Shared server state: the stop latch and the live connections that
/// must be torn down on shutdown. Keyed by connection id so each
/// handler removes its own entry when the connection closes — the
/// shutdown handle is a dup'd fd, and keeping it past the connection's
/// life would leak one fd per client ever accepted.
struct Shared {
    stop: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    accepted: AtomicU64,
    requests: AtomicU64,
}

/// What a [`ChunkServer`] has seen on its wire so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded and executed.
    pub requests: u64,
}

/// A running chunk-service endpoint. Dropping (or [`stop`]ping) it
/// closes the listener and every open connection; in-flight requests on
/// a dying connection surface as I/O errors at the client.
///
/// [`stop`]: ChunkServer::stop
pub struct ChunkServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChunkServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// `backend` until [`stop`](Self::stop)/drop.
    pub fn bind(addr: &str, backend: Arc<dyn ChunkService>) -> std::io::Result<ChunkServer> {
        Self::start(TcpListener::bind(addr)?, backend)
    }

    /// Serve `backend` on an already-bound listener.
    pub fn start(
        listener: TcpListener,
        backend: Arc<dyn ChunkService>,
    ) -> std::io::Result<ChunkServer> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("fb-chunk-server-{}", addr.port()))
            .spawn(move || accept_loop(listener, backend, accept_shared))?;
        Ok(ChunkServer {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted and request frames served since the start.
    pub fn counters(&self) -> WireCounters {
        WireCounters {
            connections: self.shared.accepted.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every open connection, and join the accept
    /// loop. Idempotent.
    pub fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection; the loop
        // re-checks the latch first thing.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.shared.conns.lock().expect("conns lock").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChunkServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, backend: Arc<dyn ChunkService>, shared: Arc<Shared>) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").insert(id, clone);
        }
        let backend = Arc::clone(&backend);
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("fb-chunk-conn".into())
            .spawn(move || {
                let _ = serve_conn(stream, &*backend, &conn_shared.requests);
                // The connection is done: drop its shutdown handle too,
                // closing the dup'd fd.
                conn_shared.conns.lock().expect("conns lock").remove(&id);
            });
    }
    // Handler threads exit on their own when their stream is shut down
    // (stop()) or the peer disconnects.
}

/// Execute one request against the backend.
fn execute(backend: &dyn ChunkService, req: Request) -> Response {
    let executed = match req {
        Request::Get(cid) => backend.get(&cid).map(Response::Get),
        Request::GetMany(cids) => backend.get_many(&cids).map(Response::GetMany),
        Request::Put(chunk) => backend.put(chunk).map(Response::Put),
        Request::PutMany(chunks) => backend.put_many(chunks).map(Response::PutMany),
        Request::Stats => backend.stats().map(Response::Stats),
    };
    executed.unwrap_or_else(|e| Response::Err(e.to_string()))
}

/// One connection's serve loop: read → decode → execute → respond.
/// Returns (dropping the connection) on EOF, I/O failure, or the first
/// malformed frame — after corruption the stream offset is untrusted.
fn serve_conn(
    mut stream: TcpStream,
    backend: &dyn ChunkService,
    requests: &AtomicU64,
) -> std::io::Result<()> {
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    loop {
        while let Some(frame) = decoder.next_frame().map_err(|e| invalid(e.to_string()))? {
            let (req_id, req) = proto::decode_request(frame.opcode, &frame.payload)
                .ok_or_else(|| invalid("malformed request payload".into()))?;
            requests.fetch_add(1, Ordering::Relaxed);
            let resp = execute(backend, req);
            frame::recycle(&mut out);
            if let Err(e) = proto::encode_response(req_id, &resp, &mut out) {
                // What was found does not fit the wire: say so instead
                // of leaving the caller to its timeout.
                out.clear();
                proto::encode_response(req_id, &Response::Err(e.to_string()), &mut out)
                    .map_err(|e| invalid(e.to_string()))?;
            }
            stream.write_all(&out)?;
        }
        if decoder.read_from(&mut stream)? == 0 {
            return Ok(()); // clean EOF
        }
    }
}
