//! The RESP2 TCP server: the workspace's one thread-per-connection
//! [`Server`] over a shared [`RedisLite`].
//!
//! Each connection's handler thread decodes commands, dispatches them
//! through [`RedisLite::execute`] / [`RedisLite::pipeline`] — the same
//! single entry point the in-process API uses — and writes the replies
//! back. Replies for one socket read are buffered and flushed together,
//! so a pipelined batch of N commands pays one `pipeline()` dispatch (one
//! lock hold, one batched AOF append) and one response write, not N of
//! each.
//!
//! A bad *command* (unknown name, wrong arity, non-integer index) gets a
//! `-ERR` reply and the connection lives on; a bad *protocol* message
//! (malformed framing) gets a final `-ERR Protocol error` reply and the
//! connection is dropped, because the stream offset can no longer be
//! trusted — exactly Redis's split of the two failure modes. Both kinds
//! of command count as requests in [`Server::counters`].

use crate::resp::{self, RespDecoder};
use crate::{Cmd, RedisLite, Reply};
use forkbase_crypto::serve::{Handler, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// A running RESP2 endpoint: `RespServer::bind(addr, db)` serves an
/// `Arc<RedisLite>` until stopped or dropped.
pub type RespServer = Server<RedisLite>;

impl Handler for RedisLite {
    const NAME: &'static str = "redislite";

    /// One connection's serve loop: read → decode every complete command
    /// → dispatch as one batch → flush every reply in one write. Returns
    /// (dropping the connection) on EOF, I/O failure, or the first
    /// protocol error — after corruption the stream offset is untrusted.
    fn serve(&self, mut stream: TcpStream, requests: &AtomicU64) -> std::io::Result<()> {
        let mut decoder = RespDecoder::new();
        let mut rbuf = vec![0u8; 64 * 1024];
        let mut wbuf = Vec::new();
        loop {
            let n = stream.read(&mut rbuf)?;
            if n == 0 {
                return Ok(()); // clean EOF
            }
            decoder.feed(&rbuf[..n]);
            // Drain everything this read completed before dispatching, so
            // a pipelined burst becomes one batch.
            let mut batch: Vec<Result<Cmd, String>> = Vec::new();
            let proto_err = loop {
                match decoder.next_command() {
                    Ok(Some(argv)) => batch.push(resp::parse_command(&argv)),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
            wbuf.clear();
            dispatch(self, batch, &mut wbuf);
            if let Some(e) = proto_err {
                // Answer what decoded cleanly, then the fatal error, then
                // hang up — the Redis protocol-error contract.
                resp::encode_reply(&Reply::Err(format!("ERR {e}")), &mut wbuf);
                stream.write_all(&wbuf)?;
                let _ = stream.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ));
            }
            if !wbuf.is_empty() {
                stream.write_all(&wbuf)?;
            }
        }
    }
}

/// Dispatch one decoded batch and encode its replies in order. Parse
/// failures turn into in-place `-ERR` replies; the parsed commands run
/// as one `pipeline()` call when the batch holds more than one, so
/// pipelined writes ride the batched-AOF fast path.
fn dispatch(db: &RedisLite, batch: Vec<Result<Cmd, String>>, out: &mut Vec<u8>) {
    let mut cmds = Vec::with_capacity(batch.len());
    let errors: Vec<Option<String>> = batch
        .into_iter()
        .map(|item| item.map(|cmd| cmds.push(cmd)).err())
        .collect();
    let mut replies = match cmds.len() {
        0 => Vec::new(),
        1 => vec![db.execute(cmds.pop().expect("one command"))],
        _ => db.pipeline(cmds),
    }
    .into_iter();
    for error in errors {
        let reply = error.map_or_else(|| replies.next().expect("a reply per command"), Reply::Err);
        resp::encode_reply(&reply, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn counters_count_every_decoded_command() {
        let db = Arc::new(RedisLite::new());
        let mut server = RespServer::bind("127.0.0.1:0", Arc::clone(&db)).expect("bind");
        const N: usize = 16;
        let mut out = Vec::new();
        for i in 0..N {
            let argv: Vec<Bytes> = if i == N / 2 {
                vec![Bytes::from_static(b"NOSUCHCMD")]
            } else {
                vec![
                    Bytes::from_static(b"SET"),
                    Bytes::from(format!("k{i}")),
                    Bytes::from_static(b"v"),
                ]
            };
            resp::encode_command(&argv, &mut out);
        }
        // One write: the server sees the whole pipeline in one or a few
        // reads, and answers every command in order.
        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        sock.write_all(&out).expect("write");
        let mut decoder = RespDecoder::new();
        let mut replies = Vec::new();
        let mut rbuf = [0u8; 4096];
        while replies.len() < N {
            match decoder.next_value().expect("well-formed reply") {
                Some(value) => replies.push(resp::reply_from_value(value).expect("reply")),
                None => {
                    let n = sock.read(&mut rbuf).expect("read");
                    assert!(n > 0, "server hung up after {} replies", replies.len());
                    decoder.feed(&rbuf[..n]);
                }
            }
        }
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(
                matches!(reply, Reply::Err(_)),
                i == N / 2,
                "reply {i}: {reply:?}"
            );
        }
        let seen = server.counters();
        assert_eq!((seen.connections, seen.requests), (1, N as u64));
        server.stop();
    }
}
