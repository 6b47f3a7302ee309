//! The client's socket pool under contention — alone in its test binary,
//! because it counts the threads of the process.
//!
//! Eight threads push 500 mixed `get` / `put` / `get_many` / `put_many`
//! each through one `TcpChunkClient` that may keep two sockets. Every
//! reply must be the answer to its own request (checked by content), the
//! server must have accepted at most two connections, and the only
//! threads the exchange may leave behind are the server's connection
//! handlers: the client reads its replies on its callers' threads.

use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore, PutOutcome};
use forkbase_cluster::net::{ChunkServer, TcpChunkClient, TcpConfig};
use forkbase_cluster::service::{ChunkService, StoreService};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: u32 = 8;
const OPS: u32 = 500;

/// Chunk `n` of thread `t`'s operation `i`: unique, and telling by content.
fn chunk(t: u32, i: u32, n: u32) -> Chunk {
    let tag = format!("thread {t} op {i} chunk {n} ");
    Chunk::new(
        ChunkType::Blob,
        tag.repeat(1 + (i % 40) as usize).into_bytes(),
    )
}

/// Threads of this process, from `/proc/self/status`.
fn live_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn eight_threads_share_two_sockets_and_every_reply_is_its_callers() {
    let store = Arc::new(MemStore::new());
    let backend = Arc::new(StoreService::new(store.clone() as Arc<dyn ChunkStore>));
    let server = ChunkServer::bind("127.0.0.1:0", backend).expect("bind");
    let client = TcpChunkClient::new(
        server.addr(),
        TcpConfig {
            connections: 2,
            ..TcpConfig::default()
        },
    );
    let threads_before = live_threads();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = &client;
            s.spawn(move || {
                for i in 0..OPS {
                    let batch: Vec<Chunk> = (0..3).map(|n| chunk(t, i, n)).collect();
                    match i % 4 {
                        0 => {
                            let stored = client.put(batch[0].clone()).expect("put");
                            assert_eq!(stored, PutOutcome::Stored, "thread {t} op {i}");
                        }
                        1 => {
                            // What this thread put one operation ago.
                            let mine = chunk(t, i - 1, 0);
                            let got = client.get(&mine.cid()).expect("get");
                            assert_eq!(got, Some(mine), "thread {t} op {i}");
                        }
                        2 => {
                            let stored = client.put_many(batch).expect("put_many");
                            assert_eq!(stored, vec![PutOutcome::Stored; 3], "thread {t} op {i}");
                        }
                        _ => {
                            // The batch of one operation ago, and a
                            // chunk nobody ever put.
                            let mut want: Vec<Option<Chunk>> =
                                (0..3).map(|n| Some(chunk(t, i - 1, n))).collect();
                            want.insert(1, None);
                            let mut cids: Vec<_> =
                                (0..3).map(|n| chunk(t, i - 1, n).cid()).collect();
                            cids.insert(1, chunk(t, i, 99).cid());
                            let got = client.get_many(&cids).expect("get_many");
                            assert_eq!(got, want, "thread {t} op {i}");
                        }
                    }
                }
            });
        }
    });

    let seen = server.counters();
    assert_eq!(seen.requests, u64::from(THREADS * OPS));
    assert!(
        (1..=2).contains(&seen.connections),
        "{} connections accepted for a pool of 2",
        seen.connections
    );
    // The callers are joined; what the exchange added to the process is
    // one handler thread per accepted connection on the server — and
    // nothing on the client. A scoped thread counts as joined once its
    // closure has returned, a moment before the thread itself has left
    // the process, so the count is given that moment to settle.
    let settled = |before: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let after = live_threads()?;
            if after == before + seen.connections || Instant::now() > deadline {
                return Some(after);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    if let (Some(before), Some(after)) = (threads_before, threads_before.and_then(settled)) {
        assert_eq!(
            after - before,
            seen.connections,
            "the client spawned a thread"
        );
    }
    assert_eq!(store.stats().stored_chunks, u64::from(THREADS * OPS));
}
