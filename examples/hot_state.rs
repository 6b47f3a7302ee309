//! The flat hot-state tier, end to end:
//!
//! 1. open an engine with the tier on — `hot_put`/`hot_get` serve
//!    latest-state point access from a flat hash-map index while
//!    a background publisher drains edits into the versioned POS-Tree,
//! 2. show the tier and the tree agreeing: `flush_hot` publishes
//!    everything, and the committed Map answers the same reads,
//! 3. run an Ethereum-ish account-state ledger on `HotStateBackend` —
//!    per-block mutations at hot speed, one state-root publication per
//!    block boundary — and verify the chain plus the tamper-evident
//!    state history.
//!
//! Run with: `cargo run --example hot_state`

use forkbase::ledger::{verify_hot_state, HotStateBackend, LedgerNode, StateBackend, Transaction};
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

    // ---- 3. a hot-backed ledger -----------------------------------------
    let mut node = LedgerNode::new(HotStateBackend::in_memory(), 25);
    for block in 0..20u32 {
        for t in 0..25u32 {
            let acct = format!("acct/{:03}", (block * 7 + t * 13) % 100);
            node.submit(Transaction::put(
                "bank",
                acct,
                format!("block {block} txn {t}"),
            ));
        }
    }
    node.flush();
    println!(
        "ledger: height {} | {} txns | chain verifies: {}",
        node.height(),
        node.txns_committed(),
        node.verify_chain()
    );
    assert!(node.verify_chain(), "hash chain intact");

    // Every block boundary published a state root; the whole version
    // chain of the state Map is recomputable and tamper-evident.
    let verified = verify_hot_state(node.backend_mut()).expect("verify");
    println!("state history: {verified} versions verified tamper-evident");

    // The analytical queries of §6.2.3 work over the published state.
    let history = node.backend_mut().state_scan("bank", b"acct/001");
    println!("acct/001 has {} distinct historical values", history.len());
    assert!(!history.is_empty(), "acct/001 was written");
}
