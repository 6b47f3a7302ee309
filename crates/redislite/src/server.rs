//! The RESP2 TCP server: the workspace's one thread-per-connection
//! [`Server`] over a shared [`RedisLite`].
//!
//! Every connection runs the workspace's one RESP loop
//! ([`forkbase_crypto::resp`]): it decodes every command a socket read
//! completed and hands them here as one batch, which is dispatched
//! through [`RedisLite::execute`] / [`RedisLite::pipeline`] — the same
//! single entry point the in-process API uses. Replies for one socket
//! read are buffered and flushed together,
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

use crate::resp;
use crate::{Cmd, RedisLite, Reply};
use bytes::Bytes;
use forkbase_crypto::resp::Commands;
use forkbase_crypto::serve::Server;

/// A running RESP2 endpoint: `RespServer::bind(addr, db)` serves an
/// `Arc<RedisLite>` until stopped or dropped.
pub type RespServer = Server<RedisLite>;

impl Commands for RedisLite {
    const NAME: &'static str = "redislite";

    fn run(&self, batch: Vec<Vec<Bytes>>, out: &mut Vec<u8>) {
        let batch = batch.iter().map(|argv| resp::parse_command(argv)).collect();
        dispatch(self, batch, out);
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
    use crate::resp::RespDecoder;
    use std::io::{Read, Write};
    use std::net::TcpStream;
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
