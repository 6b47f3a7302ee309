//! The cluster's network transport: the [`ChunkService`] API over TCP,
//! spoken in RESP2 — the workspace's one wire codec
//! ([`forkbase_crypto::resp`]).
//!
//! Two layers, each testable on its own:
//!
//! * [`proto`] — the chunk service's commands (`CGET`, `CGETMANY`,
//!   `CPUT`, `CPUTMANY`, `STATS`) as RESP arrays of bulks, their
//!   replies, and the integrity rule that makes a put tamper-evident: a
//!   put carries the cid its writer computed, and the server refuses a
//!   chunk that does not hash to it;
//! * [`server`] / [`client`] — a [`ChunkServer`] on the servlet side,
//!   the workspace's one thread-per-connection server
//!   ([`forkbase_crypto::serve`]) running the one RESP loop over this
//!   command set, and a [`TcpChunkClient`] on the caller side that keeps
//!   a few sockets per peer and uses each for one request at a time:
//!   write the command, read the reply, on the calling thread.
//!
//! The in-process transport
//! ([`StoreService`](crate::service::StoreService)) remains the test
//! and single-machine path; the transport-equivalence suite holds the
//! two to identical behavior on identical request schedules.
//!
//! [`ChunkService`]: crate::service::ChunkService
//! [`ChunkServer`]: server::ChunkServer
//! [`TcpChunkClient`]: client::TcpChunkClient

pub mod client;
pub mod proto;
pub mod server;

pub use client::{TcpChunkClient, TcpConfig};
pub use server::ChunkServer;

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

    /// A node that records the payload of every put it is asked for and
    /// holds each put until its gate opens.
    struct Gated {
        inner: StoreService,
        open: std::sync::Mutex<bool>,
        puts: std::sync::Mutex<Vec<Vec<u8>>>,
        changed: std::sync::Condvar,
    }

    impl ChunkService for Gated {
        fn get(&self, cid: &forkbase_crypto::Digest) -> forkbase_core::Result<Option<Chunk>> {
            self.inner.get(cid)
        }
        fn put(&self, chunk: Chunk) -> forkbase_core::Result<PutOutcome> {
            self.puts.lock().unwrap().push(chunk.payload().to_vec());
            self.changed.notify_all();
            let open = self.open.lock().unwrap();
            drop(self.changed.wait_while(open, |open| !*open).unwrap());
            self.inner.put(chunk)
        }
        fn stats(&self) -> forkbase_core::Result<forkbase_chunk::StoreStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn waiting_callers_get_the_socket_in_arrival_order() {
        let node = Arc::new(Gated {
            inner: StoreService::new(Arc::new(MemStore::new())),
            open: std::sync::Mutex::new(false),
            puts: std::sync::Mutex::new(Vec::new()),
            changed: std::sync::Condvar::new(),
        });
        let server = ChunkServer::bind("127.0.0.1:0", node.clone()).expect("bind");
        let client = TcpChunkClient::new(
            server.addr(),
            TcpConfig {
                connections: 1,
                ..TcpConfig::default()
            },
        );
        let chunk = |name: &str| Chunk::new(ChunkType::Blob, name.as_bytes().to_vec());
        let put = |chunk: Chunk| client.put(chunk).expect("put");
        let (held, late) = (chunk("held"), chunk("late"));
        std::thread::scope(|s| {
            s.spawn(|| {
                // Once the node holds this thread's put, three callers
                // queue behind it, one at a time, so their order of
                // arrival is known; then the put is let through.
                let puts = node.puts.lock().unwrap();
                drop(node.changed.wait_while(puts, |p| p.is_empty()).unwrap());
                for (queued, name) in ["first", "second", "third"].into_iter().enumerate() {
                    s.spawn(move || put(chunk(name)));
                    while client.waiting() == queued {
                        std::thread::yield_now();
                    }
                }
                *node.open.lock().unwrap() = true;
                node.changed.notify_all();
            });
            // When the held put returns, its socket is idle and the
            // first in line is only being woken: a caller arriving now
            // — this thread again — still takes its place behind the
            // three.
            put(held);
            put(late);
        });
        let order: Vec<String> = node
            .puts
            .lock()
            .unwrap()
            .iter()
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .collect();
        assert_eq!(order, ["held", "first", "second", "third", "late"]);
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
