//! A ForkBase cluster whose nodes talk over real loopback TCP (§4.1 /
//! §4.6): three servlets, two-layer partitioning, every cross-node
//! chunk crossing the wire as a RESP command (`CPUTMANY`, `CGETMANY`, …)
//! whose chunks are checked against their cids at the far end.
//!
//! Run with `cargo run --example cluster_tcp`.

use forkbase::cluster::{Cluster, Partitioning};

fn main() {
    // --- In-process baseline: the same API, zero-cost routing -----------
    let local = Cluster::builder(3)
        .partitioning(Partitioning::TwoLayer)
        .build()
        .expect("in-process cluster");
    local.put_blob("report", b"quarterly numbers").expect("put");
    println!(
        "in-process cluster: {:?}",
        String::from_utf8(local.get_blob("report").expect("get")).expect("utf8")
    );

    // --- The same cluster over TCP ---------------------------------------
    // Each node binds a ChunkServer on an ephemeral loopback port; peers
    // reach it through TcpChunkClients that pool a few sockets per peer.
    // The transport is invisible to the API.
    let cluster = Cluster::builder(3)
        .partitioning(Partitioning::TwoLayer)
        .tcp()
        .build()
        .expect("tcp cluster");
    assert!(cluster.is_networked());

    // A multi-chunk blob: its data chunks scatter across all three nodes
    // by cid, so writing and reading it exercises the wire.
    let data: Vec<u8> = (0..200_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect();
    let uid = cluster.put_blob("big-page", &data).expect("put over tcp");
    println!("tcp cluster: committed big-page, uid = {}", uid.short_hex());

    let back = cluster.get_blob("big-page").expect("get over tcp");
    assert_eq!(back, data, "content-addressed round trip over the wire");
    println!(
        "tcp cluster: read back {} bytes, byte-identical",
        back.len()
    );

    // --- Per-node observability over the same wire -----------------------
    // node_stats() sends the STATS command peers use, so a degraded node
    // would surface here as Err / a nonzero io_errors count.
    println!("\nper-node stats (over the STATS command):");
    for (id, stats) in cluster.node_stats().expect("stats").iter().enumerate() {
        println!(
            "  node {id}: {} chunks, {} KB, {} gets, {} io_errors, cache {}h/{}m",
            stats.stored_chunks,
            stats.stored_bytes / 1024,
            stats.gets,
            stats.io_errors,
            stats.cache_hits,
            stats.cache_misses,
        );
    }

    let bytes = cluster.per_node_bytes();
    println!(
        "\nstorage balance (two-layer partitioning): {bytes:?} (imbalance {:.2}x)",
        cluster.imbalance()
    );
}
