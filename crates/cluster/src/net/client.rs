//! The client side of the cluster wire: a [`ChunkService`] over a small
//! pool of TCP connections, each used by one request at a time.
//!
//! A request checks a socket out of the pool — the most recently used
//! idle one, a freshly dialled one while fewer than
//! [`TcpConfig::connections`] exist, otherwise whichever is put back
//! first — writes its frame, reads frames on the calling thread until
//! its own request id answers, and puts the socket back. That is one
//! `write`, the peer's work and one `read`: no reader thread, no
//! hand-off between threads, and as many requests in flight as there
//! are sockets (the server answers a connection's requests one after
//! another anyway). A `get_many` or `put_many` batch is one frame each
//! way however many chunks it carries, up to
//! [`FRAME_BUDGET`]; a larger one goes as
//! several round trips on the same socket.
//!
//! A socket that saw any error, a timeout or a frame that is not the
//! answer to the request in hand is closed, never pooled: a killed peer
//! surfaces as [`FbError::Io`] on the request that met it, a reply that
//! comes after its caller gave up has no socket left to be read from,
//! and the next request dials afresh — which is also how a restarted
//! peer is picked up.

use super::frame::{self, FrameDecoder, FRAME_BUDGET};
use super::proto::{self, Request, Response};
use crate::service::{ChunkService, Completion};
use forkbase_chunk::{Chunk, PutOutcome, StoreStats};
use forkbase_core::{FbError, Result};
use forkbase_crypto::Digest;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Tuning for the TCP transport.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Sockets per peer, at most. Each carries one request at a time,
    /// so this is also how many requests to one peer can be in flight;
    /// a further caller waits for a socket to come back.
    pub connections: usize,
    /// Dial timeout for one connection attempt.
    pub connect_timeout: Duration,
    /// The sockets' read and write timeout: how long a request waits on
    /// a peer that accepted the connection and then wedged before it
    /// gives up with [`FbError::Io`].
    pub response_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            connections: 4,
            connect_timeout: Duration::from_secs(5),
            response_timeout: Duration::from_secs(30),
        }
    }
}

/// Most cids one `get_many` request frame carries.
const CIDS_PER_FRAME: usize = FRAME_BUDGET / Digest::LEN;

/// One established connection and the buffers that live with it.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The request frame being written; kept for its capacity.
    out: Vec<u8>,
}

/// The sockets of one client.
#[derive(Default)]
struct Pool {
    /// Connections nobody is using, most recently used last.
    idle: Vec<Conn>,
    /// Connections that exist or are being dialled: `idle` plus the
    /// checked-out ones.
    open: usize,
}

/// Encode `req` into `buf` as one frame and hand it to `dst` whole.
fn write_request(
    dst: &mut impl Write,
    buf: &mut Vec<u8>,
    req_id: u64,
    req: &Request,
) -> Result<()> {
    frame::recycle(buf);
    proto::encode_request(req_id, req, buf)?;
    dst.write_all(buf)
        .map_err(|e| FbError::Io(format!("write request: {e}")))
}

/// A [`ChunkService`] talking to one remote node over TCP.
pub struct TcpChunkClient {
    addr: SocketAddr,
    cfg: TcpConfig,
    pool: Mutex<Pool>,
    /// Signalled whenever a socket is put back or closed.
    freed: Condvar,
    next_req_id: AtomicU64,
}

/// A checked-out connection with (after [`send`](Flight::send)) a
/// request in flight on it. Dropping it closes the socket; only
/// [`land`](Flight::land) puts it back in the pool — so every early
/// return on an error path closes.
struct Flight<'a> {
    client: &'a TcpChunkClient,
    conn: Option<Conn>,
    req_id: u64,
}

impl Flight<'_> {
    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("present until land or drop")
    }

    /// Write `req` under a fresh request id.
    fn send(&mut self, req: &Request) -> Result<()> {
        self.req_id = self.client.next_req_id.fetch_add(1, Ordering::Relaxed);
        let req_id = self.req_id;
        let Conn { stream, out, .. } = self.conn();
        write_request(stream, out, req_id, req)
    }

    /// Read the next frame, which must answer the request in flight.
    fn recv(&mut self) -> Result<Response> {
        let (addr, req_id) = (self.client.addr, self.req_id);
        let fail = |what: &dyn std::fmt::Display| FbError::Io(format!("node {addr}: {what}"));
        let Conn {
            stream, decoder, ..
        } = self.conn();
        let frame = loop {
            if let Some(frame) = decoder.next_frame().map_err(|e| fail(&e))? {
                break frame;
            }
            if decoder.read_from(stream).map_err(|e| fail(&e))? == 0 {
                return Err(fail(&"connection lost"));
            }
        };
        match proto::decode_response(frame.opcode, &frame.payload) {
            Some((id, Response::Err(msg))) if id == req_id => Err(fail(&msg)),
            Some((id, resp)) if id == req_id => Ok(resp),
            Some((id, _)) => Err(fail(&format_args!("answered request {id}, not {req_id}"))),
            None => Err(fail(&"malformed reply")),
        }
    }

    /// The exchange is over and the stream is in step: pool the socket.
    fn land(mut self) {
        let conn = self.conn.take().expect("present until land or drop");
        self.client.lock_pool().idle.push(conn);
        self.client.freed.notify_one();
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        if self.conn.take().is_some() {
            self.client.forget_one();
        }
    }
}

impl TcpChunkClient {
    /// A client for the node at `addr`. No connection is made until the
    /// first request.
    pub fn new(addr: SocketAddr, cfg: TcpConfig) -> TcpChunkClient {
        TcpChunkClient {
            addr,
            cfg,
            pool: Mutex::new(Pool::default()),
            freed: Condvar::new(),
            next_req_id: AtomicU64::new(1),
        }
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Pool> {
        // Every update leaves the pool consistent, so a panic elsewhere
        // while it was held is no reason to fail here (or in a `Drop`).
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One connection fewer exists (closed, or never established).
    fn forget_one(&self) {
        self.lock_pool().open -= 1;
        self.freed.notify_one();
    }

    fn dial(&self) -> Result<Conn> {
        let addr = self.addr;
        let fail = |what: &str, e: std::io::Error| FbError::Io(format!("{what} {addr}: {e}"));
        let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)
            .map_err(|e| fail("connect", e))?;
        let _ = stream.set_nodelay(true);
        let timeout = Some(self.cfg.response_timeout);
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| fail("set timeouts for", e))?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
        })
    }

    /// Take a connection for exclusive use: the most recently used idle
    /// one, else a new one while under the limit, else wait for one.
    fn check_out(&self) -> Result<Flight<'_>> {
        let mut pool = self.lock_pool();
        let conn = loop {
            if let Some(conn) = pool.idle.pop() {
                break Some(conn);
            }
            if pool.open < self.cfg.connections.max(1) {
                pool.open += 1;
                break None;
            }
            pool = self
                .freed
                .wait(pool)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(pool);
        let conn = match conn {
            Some(conn) => conn,
            None => self.dial().inspect_err(|_| self.forget_one())?,
        };
        Ok(Flight {
            client: self,
            conn: Some(conn),
            req_id: 0,
        })
    }

    /// Check a socket out and write `req` on it.
    fn start(&self, req: &Request) -> Result<Flight<'_>> {
        let mut flight = self.check_out()?;
        flight.send(req)?;
        Ok(flight)
    }

    /// One round trip.
    fn call(&self, req: &Request) -> Result<Response> {
        let mut flight = self.start(req)?;
        let resp = flight.recv()?;
        flight.land();
        Ok(resp)
    }

    fn unexpected(&self) -> FbError {
        FbError::Io(format!("node {}: response type mismatch", self.addr))
    }

    /// A fetched chunk must hash to the cid it was requested under —
    /// the wire inherits the store's tamper evidence.
    fn verify(&self, chunk: Chunk, cid: &Digest) -> Result<Chunk> {
        if chunk.cid() == *cid {
            Ok(chunk)
        } else {
            Err(FbError::Corrupt(format!(
                "node {} returned chunk {} for requested cid {}",
                self.addr,
                chunk.cid().short_hex(),
                cid.short_hex()
            )))
        }
    }
}

/// Cut `chunks` into runs of at most [`FRAME_BUDGET`] encoded bytes (a
/// run takes at least one chunk), one `put_many` frame each.
fn put_frames(chunks: Vec<Chunk>) -> Vec<Vec<Chunk>> {
    let mut frames: Vec<Vec<Chunk>> = Vec::new();
    // Bytes in the last run; "full" before there is one, so the first
    // chunk opens it.
    let mut bytes = FRAME_BUDGET;
    for chunk in chunks {
        let len = proto::sized_chunk_len(&chunk);
        if bytes + len > FRAME_BUDGET {
            frames.push(Vec::new());
            bytes = 0;
        }
        bytes += len;
        frames.last_mut().expect("pushed above").push(chunk);
    }
    frames
}

impl ChunkService for TcpChunkClient {
    fn get(&self, cid: &Digest) -> Result<Option<Chunk>> {
        match self.call(&Request::Get(*cid))? {
            Response::Get(found) => found.map(|c| self.verify(c, cid)).transpose(),
            _ => Err(self.unexpected()),
        }
    }

    fn get_many(&self, cids: &[Digest]) -> Result<Vec<Option<Chunk>>> {
        self.start_get_many(cids).wait()
    }

    fn put(&self, chunk: Chunk) -> Result<PutOutcome> {
        match self.call(&Request::Put(chunk))? {
            Response::Put(outcome) => Ok(outcome),
            _ => Err(self.unexpected()),
        }
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Result<Vec<PutOutcome>> {
        self.start_put_many(chunks).wait()
    }

    /// The first request frame goes out now. The completion reads its
    /// reply — as many frames as the server cut it into — and, for a
    /// batch of more cids than one frame carries, plays the remaining
    /// frames one round trip at a time.
    fn start_get_many<'a>(&'a self, cids: &'a [Digest]) -> Completion<'a, Vec<Option<Chunk>>> {
        let mut runs = cids.chunks(CIDS_PER_FRAME);
        let Some(mut run) = runs.next() else {
            return Completion::ready(Ok(Vec::new()));
        };
        let started = self.start(&Request::GetMany(run.to_vec()));
        Completion::deferred(move || {
            let mut flight = started?;
            let mut found = Vec::with_capacity(cids.len());
            let mut run_end = run.len();
            loop {
                while found.len() < run_end {
                    let Response::GetMany(part) = flight.recv()? else {
                        return Err(self.unexpected());
                    };
                    if part.is_empty() || found.len() + part.len() > run_end {
                        return Err(self.unexpected());
                    }
                    for chunk in part {
                        let cid = &cids[found.len()];
                        found.push(chunk.map(|c| self.verify(c, cid)).transpose()?);
                    }
                }
                let Some(next) = runs.next() else { break };
                run = next;
                run_end += run.len();
                flight.send(&Request::GetMany(run.to_vec()))?;
            }
            flight.land();
            Ok(found)
        })
    }

    /// The first frame goes out now; the completion reads its reply and
    /// plays the frames of a batch over the budget one round trip at a
    /// time.
    fn start_put_many(&self, chunks: Vec<Chunk>) -> Completion<'_, Vec<PutOutcome>> {
        let total = chunks.len();
        let mut frames = put_frames(chunks).into_iter();
        let Some(first) = frames.next() else {
            return Completion::ready(Ok(Vec::new()));
        };
        let mut asked = first.len();
        let started = self.start(&Request::PutMany(first));
        Completion::deferred(move || {
            let mut flight = started?;
            let mut outcomes = Vec::with_capacity(total);
            loop {
                match flight.recv()? {
                    Response::PutMany(part) if part.len() == asked => outcomes.extend(part),
                    _ => return Err(self.unexpected()),
                }
                let Some(next) = frames.next() else { break };
                asked = next.len();
                flight.send(&Request::PutMany(next))?;
            }
            flight.land();
            Ok(outcomes)
        })
    }

    fn stats(&self) -> Result<StoreStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(self.unexpected()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::ChunkType;

    /// Counts `write` calls; takes whatever it is given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_is_one_write() {
        let chunks: Vec<Chunk> = (0..8u8)
            .map(|i| Chunk::new(ChunkType::Blob, vec![i; 2048]))
            .collect();
        let req = Request::PutMany(chunks);
        let (mut dst, mut buf) = (CountingWriter::default(), Vec::new());
        write_request(&mut dst, &mut buf, 41, &req).expect("writes");
        assert_eq!(dst.writes, 1, "header, body and checksum leave together");

        let mut dec = FrameDecoder::new();
        let mut wire = &dst.bytes[..];
        while !wire.is_empty() {
            dec.read_from(&mut wire).expect("slice read");
        }
        let frame = dec.next_frame().expect("valid").expect("complete");
        assert_eq!(
            proto::decode_request(frame.opcode, &frame.payload),
            Some((41, req))
        );
        assert_eq!(dec.buffered(), 0, "and it is exactly one frame");
    }

    #[test]
    fn put_frames_respect_the_budget_and_keep_order() {
        assert!(put_frames(Vec::new()).is_empty());
        let chunks: Vec<Chunk> = (0..40u8)
            .map(|i| Chunk::new(ChunkType::Blob, vec![i; FRAME_BUDGET / 10]))
            .collect();
        let frames = put_frames(chunks.clone());
        assert!(frames.len() >= 4);
        for frame in &frames {
            let bytes: usize = frame.iter().map(proto::sized_chunk_len).sum();
            assert!(!frame.is_empty() && bytes <= FRAME_BUDGET);
        }
        assert_eq!(frames.concat(), chunks);
        // A chunk over the budget still travels, alone.
        let big = Chunk::new(ChunkType::Blob, vec![1u8; FRAME_BUDGET + 1]);
        let small = Chunk::new(ChunkType::Blob, vec![2u8; 10]);
        let frames = put_frames(vec![small.clone(), big.clone(), small.clone()]);
        assert_eq!(frames, vec![vec![small.clone()], vec![big], vec![small]]);
    }
}
