//! The client side of the cluster wire: a [`ChunkService`] over a small
//! pool of TCP connections, each used by one request at a time.
//!
//! A request checks a socket out of the pool — the most recently used
//! idle one, a freshly dialled one while fewer than
//! [`TcpConfig::connections`] exist, otherwise the next one put back —
//! writes its RESP command, reads the one reply on the calling thread,
//! and puts the socket back. That is one `write`, the peer's work and
//! one `read`: no reader thread, no hand-off between threads, and as
//! many requests in flight as there are sockets (the server answers a
//! connection's requests one after another anyway). Callers that find
//! every socket taken wait in line: sockets go to them in the order
//! they came, and a caller arriving later never takes one first. A
//! `get_many` or `put_many` batch is one request each way however many
//! chunks it carries, up to a budget of 4 MiB; a larger one goes as
//! several round trips on the same socket.
//!
//! A socket that saw any error, a timeout, an error reply or a reply of
//! the wrong shape is closed, never pooled: a killed peer surfaces as
//! [`FbError::Io`] on the request that met it, a reply that comes after
//! its caller gave up has no socket left to be read from, and the next
//! request dials afresh — which is also how a restarted peer is picked
//! up.

use super::proto::{self, Request};
use crate::service::{ChunkService, Completion};
use forkbase_chunk::{Chunk, PutOutcome, StoreStats};
use forkbase_core::{FbError, Result};
use forkbase_crypto::resp::{RespDecoder, RespValue};
use forkbase_crypto::Digest;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
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

/// Most chunk bytes one `CPUTMANY` request carries (a request takes at
/// least one chunk), and, as cids, one `CGETMANY` request.
pub const BATCH_BUDGET: usize = 4 << 20;

/// Most cids one `CGETMANY` request carries.
const CIDS_PER_REQUEST: usize = BATCH_BUDGET / Digest::LEN;

/// One established connection and the buffers that live with it.
struct Conn {
    stream: TcpStream,
    decoder: RespDecoder,
    /// The request being written; kept for its capacity.
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
    /// Callers waiting for a socket, first come first; each sleeps on
    /// its own condvar until it is first in line and a socket is free.
    waiting: VecDeque<Arc<Condvar>>,
}

impl Pool {
    /// A socket is idle, or another may be dialled.
    fn has_room(&self, limit: usize) -> bool {
        !self.idle.is_empty() || self.open < limit
    }

    /// A socket came back or went away: tell the caller first in line.
    fn wake_first(&self) {
        if let Some(first) = self.waiting.front() {
            first.notify_one();
        }
    }
}

/// Encode `req` into `buf` and hand it to `dst` whole. The buffer lives
/// as long as its connection: it keeps what an ordinary request needs
/// and gives back what a rare huge batch grew it to.
fn write_request(dst: &mut impl Write, buf: &mut Vec<u8>, req: &Request) -> Result<()> {
    buf.clear();
    buf.shrink_to(64 << 10);
    req.encode(buf)?;
    dst.write_all(buf)
        .map_err(|e| FbError::Io(format!("write request: {e}")))
}

/// A [`ChunkService`] talking to one remote node over TCP.
pub struct TcpChunkClient {
    addr: SocketAddr,
    cfg: TcpConfig,
    pool: Mutex<Pool>,
}

/// A checked-out connection. Dropping it closes the socket; only
/// [`land`](Flight::land) puts it back in the pool — so every early
/// return on an error path closes.
struct Flight<'a> {
    client: &'a TcpChunkClient,
    conn: Option<Conn>,
}

impl Flight<'_> {
    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("present until land or drop")
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        let Conn { stream, out, .. } = self.conn();
        write_request(stream, out, req)
    }

    /// Read the reply to the request in flight and `decode` it.
    fn recv<T>(&mut self, decode: impl FnOnce(RespValue) -> Result<T>) -> Result<T> {
        let addr = self.client.addr;
        let fail = |what: &dyn std::fmt::Display| FbError::Io(format!("node {addr}: {what}"));
        let Conn {
            stream, decoder, ..
        } = self.conn();
        let reply = loop {
            if let Some(value) = decoder.next_value().map_err(|e| fail(&e))? {
                break value;
            }
            if decoder.read_from(stream).map_err(|e| fail(&e))? == 0 {
                return Err(fail(&"connection lost"));
            }
        };
        decode(reply).map_err(|e| match e {
            FbError::Io(what) => fail(&what),
            other => other,
        })
    }

    /// The exchange is over and the stream is in step: pool the socket.
    fn land(mut self) {
        let conn = self.conn.take().expect("present until land or drop");
        let mut pool = self.client.lock_pool();
        pool.idle.push(conn);
        pool.wake_first();
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
        }
    }

    /// Callers waiting for a socket.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        self.lock_pool().waiting.len()
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
        let mut pool = self.lock_pool();
        pool.open -= 1;
        pool.wake_first();
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
            decoder: RespDecoder::new(),
            out: Vec::new(),
        })
    }

    /// Take a connection for exclusive use: the most recently used idle
    /// one, else a new one while under the limit. A caller that finds
    /// neither, or finds others already waiting, joins the end of the
    /// line.
    fn check_out(&self) -> Result<Flight<'_>> {
        let limit = self.cfg.connections.max(1);
        let mut pool = self.lock_pool();
        if !pool.waiting.is_empty() || !pool.has_room(limit) {
            let turn = Arc::new(Condvar::new());
            pool.waiting.push_back(Arc::clone(&turn));
            while !(pool.has_room(limit)
                && pool.waiting.front().is_some_and(|f| Arc::ptr_eq(f, &turn)))
            {
                pool = turn
                    .wait(pool)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            pool.waiting.pop_front();
        }
        let conn = pool.idle.pop();
        if conn.is_none() {
            pool.open += 1;
        }
        // Two sockets may have come back while the first in line slept.
        if pool.has_room(limit) {
            pool.wake_first();
        }
        drop(pool);
        let conn = match conn {
            Some(conn) => conn,
            None => self.dial().inspect_err(|_| self.forget_one())?,
        };
        Ok(Flight {
            client: self,
            conn: Some(conn),
        })
    }

    /// Check a socket out and write `req` on it.
    fn start(&self, req: &Request) -> Result<Flight<'_>> {
        let mut flight = self.check_out()?;
        flight.send(req)?;
        Ok(flight)
    }

    /// One round trip; `decode` reads the reply.
    fn call<T>(&self, req: &Request, decode: impl FnOnce(RespValue) -> Result<T>) -> Result<T> {
        let mut flight = self.start(req)?;
        let answer = flight.recv(decode)?;
        flight.land();
        Ok(answer)
    }
}

/// Cut `chunks` into runs of at most [`BATCH_BUDGET`] bytes (a run
/// takes at least one chunk), one `CPUTMANY` request each.
fn put_frames(chunks: Vec<Chunk>) -> Vec<Vec<Chunk>> {
    let mut frames: Vec<Vec<Chunk>> = Vec::new();
    // Bytes in the last run; "full" before there is one, so the first
    // chunk opens it.
    let mut bytes = BATCH_BUDGET;
    for chunk in chunks {
        let len = proto::sized_chunk_len(&chunk);
        if bytes + len > BATCH_BUDGET {
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
        let mut found = self.call(&Request::Get(*cid), |reply| {
            proto::decode_found(std::slice::from_ref(cid), RespValue::Array(vec![reply]))
        })?;
        Ok(found.pop().flatten())
    }

    fn get_many(&self, cids: &[Digest]) -> Result<Vec<Option<Chunk>>> {
        self.start_get_many(cids).wait()
    }

    fn put(&self, chunk: Chunk) -> Result<PutOutcome> {
        let outcomes = self.call(&Request::Put(chunk), |reply| {
            proto::decode_outcomes(1, RespValue::Array(vec![reply]))
        })?;
        Ok(outcomes[0])
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Result<Vec<PutOutcome>> {
        self.start_put_many(chunks).wait()
    }

    /// The first request goes out now. The completion reads its reply
    /// and, for a batch of more cids than one request carries, plays
    /// the remaining requests one round trip at a time.
    fn start_get_many<'a>(&'a self, cids: &'a [Digest]) -> Completion<'a, Vec<Option<Chunk>>> {
        let mut runs = cids.chunks(CIDS_PER_REQUEST);
        let Some(mut run) = runs.next() else {
            return Completion::ready(Ok(Vec::new()));
        };
        let started = self.start(&Request::GetMany(run.to_vec()));
        Completion::deferred(move || {
            let mut flight = started?;
            let mut found = Vec::with_capacity(cids.len());
            loop {
                found.extend(flight.recv(|reply| proto::decode_found(run, reply))?);
                let Some(next) = runs.next() else { break };
                run = next;
                flight.send(&Request::GetMany(run.to_vec()))?;
            }
            flight.land();
            Ok(found)
        })
    }

    /// The first request goes out now; the completion reads its reply
    /// and plays the requests of a batch over the budget one round trip
    /// at a time.
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
                outcomes.extend(flight.recv(|reply| proto::decode_outcomes(asked, reply))?);
                let Some(next) = frames.next() else { break };
                asked = next.len();
                flight.send(&Request::PutMany(next))?;
            }
            flight.land();
            Ok(outcomes)
        })
    }

    fn stats(&self) -> Result<StoreStats> {
        self.call(&Request::Stats, proto::decode_stats)
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
        write_request(&mut dst, &mut buf, &req).expect("writes");
        assert_eq!(dst.writes, 1, "the whole command leaves at once");

        let mut dec = RespDecoder::new();
        dec.feed(&dst.bytes);
        let argv = dec.next_command().expect("valid").expect("complete");
        assert_eq!(Request::decode(&argv).expect("decodes"), req);
        assert_eq!(dec.buffered(), 0, "and it is exactly one message");
    }

    #[test]
    fn put_frames_respect_the_budget_and_keep_order() {
        assert!(put_frames(Vec::new()).is_empty());
        let chunks: Vec<Chunk> = (0..40u8)
            .map(|i| Chunk::new(ChunkType::Blob, vec![i; BATCH_BUDGET / 10]))
            .collect();
        let frames = put_frames(chunks.clone());
        assert!(frames.len() >= 4);
        for frame in &frames {
            let bytes: usize = frame.iter().map(proto::sized_chunk_len).sum();
            assert!(!frame.is_empty() && bytes <= BATCH_BUDGET);
        }
        assert_eq!(frames.concat(), chunks);
        // A chunk over the budget still travels, alone.
        let big = Chunk::new(ChunkType::Blob, vec![1u8; BATCH_BUDGET + 1]);
        let small = Chunk::new(ChunkType::Blob, vec![2u8; 10]);
        let frames = put_frames(vec![small.clone(), big.clone(), small.clone()]);
        assert_eq!(frames, vec![vec![small.clone()], vec![big], vec![small]]);
    }
}
