//! The flat hot-state tier, end to end:
//!
//! 1. open an engine with the tier on — `hot_put`/`hot_get` serve
//!    latest-state point access from a flat hash-map index, and
//!    the edits reach the versioned POS-Tree in rounds the calls cut,
//! 2. show the tier and the tree agreeing: `flush_hot` publishes
//!    everything, and the committed Map answers the same reads.
//!
//! A ledger's account state on the tier — per-block writes, one publish
//! per block, a durable reopen — is part 4 of `examples/chainstore.rs`.
//!
//! Run with: `cargo run --example hot_state`

use forkbase::{ForkBase, HotTierConfig};

fn main() {
    // ---- 1. the raw hot surface -----------------------------------------
    let db = ForkBase::in_memory_hot(HotTierConfig::on());
    for i in 0..1_000u32 {
        db.hot_put("accounts", format!("acct/{i:04}"), format!("balance={i}"))
            .expect("hot put");
    }
    // Writes are visible to hot_get immediately — before any tree work.
    let v = db.hot_get("accounts", b"acct/0042").expect("hot get");
    assert_eq!(v.as_deref(), Some(&b"balance=42"[..]));

    // ---- 2. publish, then read the same state from the committed tree --
    db.flush_hot().expect("flush");
    let map = db
        .get_value("accounts", None)
        .expect("committed head")
        .as_map()
        .expect("state map");
    assert_eq!(
        map.get(db.store(), b"acct/0042"),
        v,
        "hot tier and committed tree agree"
    );
    let stats = db.hot_stats().expect("tier on");
    println!(
        "hot tier: {} writes, {} published over {} publish rounds, {} hits",
        stats.writes, stats.published, stats.publish_rounds, stats.hits
    );
}
