//! The cluster's network transport: the [`ChunkService`] API over TCP.
//!
//! Three layers, each testable on its own:
//!
//! * [`frame`] — length-prefixed binary frames
//!   (`[magic][len][opcode][payload][checksum]`), written in place into
//!   the buffer that is sent, with an incremental, torn-read-safe
//!   [`FrameDecoder`] that reads the socket into the buffer a frame is
//!   handed out from;
//! * [`proto`] — request/response messages (get / get_many / put /
//!   put_many / stats), every payload led by a client-chosen request id
//!   so a caller knows its own answer from a stray one;
//! * [`server`] / [`client`] — a blocking thread-per-connection
//!   [`ChunkServer`] on the servlet side, and a [`TcpChunkClient`] on
//!   the caller side that keeps a few sockets per peer and uses each
//!   for one request at a time: write the frame, read the reply, on the
//!   calling thread.
//!
//! The in-process transport
//! ([`StoreService`](crate::service::StoreService)) remains the test
//! and single-machine path; the transport-equivalence suite holds the
//! two to identical behavior on identical request schedules.
//!
//! [`ChunkService`]: crate::service::ChunkService
//! [`FrameDecoder`]: frame::FrameDecoder
//! [`ChunkServer`]: server::ChunkServer
//! [`TcpChunkClient`]: client::TcpChunkClient

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{TcpChunkClient, TcpConfig};
pub use frame::{Frame, FrameDecoder, FrameError};
pub use server::{ChunkServer, WireCounters};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ChunkService, StoreService};
    use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore, PutOutcome};
    use std::sync::Arc;

    fn loopback_pair() -> (ChunkServer, TcpChunkClient, Arc<MemStore>) {
        let store = Arc::new(MemStore::new());
        let backend = Arc::new(StoreService::new(store.clone() as Arc<dyn ChunkStore>));
        let server = ChunkServer::bind("127.0.0.1:0", backend).expect("bind");
        let client = TcpChunkClient::new(server.addr(), TcpConfig::default());
        (server, client, store)
    }

    #[test]
    fn round_trip_over_loopback() {
        let (_server, client, store) = loopback_pair();
        let chunk = Chunk::new(ChunkType::Blob, &b"over the wire"[..]);
        assert_eq!(client.put(chunk.clone()).expect("put"), PutOutcome::Stored);
        assert_eq!(
            client.put(chunk.clone()).expect("dedup put"),
            PutOutcome::Deduplicated
        );
        assert_eq!(client.get(&chunk.cid()).expect("get"), Some(chunk.clone()));
        let absent = Chunk::new(ChunkType::Blob, &b"absent"[..]).cid();
        assert_eq!(client.get(&absent).expect("absent get"), None);
        assert_eq!(store.stats().stored_chunks, 1);
        // Stats cross the wire too.
        let remote = client.stats().expect("stats");
        assert_eq!(remote.stored_chunks, 1);
        assert_eq!(remote.puts, 2);
    }

    #[test]
    fn batched_ops_over_loopback() {
        let (_server, client, _store) = loopback_pair();
        let chunks: Vec<Chunk> = (0..100u32)
            .map(|i| Chunk::new(ChunkType::Map, i.to_le_bytes().to_vec()))
            .collect();
        let outcomes = client.put_many(chunks.clone()).expect("put_many");
        assert!(outcomes.iter().all(|o| *o == PutOutcome::Stored));
        let mut cids: Vec<_> = chunks.iter().map(|c| c.cid()).collect();
        cids.push(Chunk::new(ChunkType::Map, &b"missing"[..]).cid());
        let fetched = client.get_many(&cids).expect("get_many");
        assert_eq!(fetched.len(), 101);
        for (slot, chunk) in fetched.iter().zip(&chunks) {
            assert_eq!(slot.as_ref(), Some(chunk));
        }
        assert_eq!(fetched[100], None);
    }

    #[test]
    fn more_callers_than_sockets_take_turns() {
        let (_server, client, _store) = loopback_pair();
        let client = Arc::new(client);
        // More threads than pooled sockets: callers wait for a socket
        // and every reply goes to the request that asked.
        std::thread::scope(|s| {
            for t in 0..16u32 {
                let client = Arc::clone(&client);
                s.spawn(move || {
                    for i in 0..50u32 {
                        let chunk =
                            Chunk::new(ChunkType::Blob, (t * 1000 + i).to_le_bytes().to_vec());
                        client.put(chunk.clone()).expect("put");
                        assert_eq!(
                            client.get(&chunk.cid()).expect("get"),
                            Some(chunk),
                            "thread {t} op {i}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn connect_to_dead_port_is_an_error_not_a_hang() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let client = TcpChunkClient::new(addr, TcpConfig::default());
        let cid = Chunk::new(ChunkType::Blob, &b"x"[..]).cid();
        match client.get(&cid) {
            Err(forkbase_core::FbError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
