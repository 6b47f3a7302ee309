//! Block-chain storage on the version DAG (the `chainstore` scenario):
//!
//! 1. open a durable [`ChainStore`] and append a parent-linked chain
//!    (each block id is a content-addressed header: it commits to the
//!    body, the parent link, the height and the metadata),
//! 2. fork a side chain — tips are fork-on-conflict heads, so the store
//!    tracks both for free,
//! 3. read long history back through the level-batched parent walk
//!    (`follow_parents` / `iter_range`),
//! 4. keep tip state (balances, the canonical tip pointer) on the
//!    hot-tier-fronted `state_*` surface,
//! 5. checkpoint, "crash", reopen — both tips survive,
//! 6. prune the side chain and reclaim its space with in-place GC.
//!
//! Run with: `cargo run --example chainstore`

use forkbase::chain::{ChainConfig, ChainStore};
use forkbase::chunk::Durability;
use forkbase::HotTierConfig;

fn body(lineage: &str, i: u64) -> Vec<u8> {
    // Varied content so side-chain bodies don't deduplicate away to
    // nothing and GC has something to reclaim.
    let mut v = format!("{lineage} block {i}: ").into_bytes();
    let mut state = i.wrapping_mul(0x9e3779b97f4a7c15) ^ lineage.len() as u64;
    while v.len() < 4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.extend_from_slice(&state.to_le_bytes());
    }
    v
}

fn main() {
    let dir = std::env::temp_dir().join(format!("chainstore-example-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (main_tip, side_tip);
    {
        // ---- 1. append the main chain ------------------------------------
        let chain = ChainStore::open_with(
            &dir,
            ChainConfig {
                durability: Durability::Always,
                hot: HotTierConfig::on(),
                ..Default::default()
            },
        )
        .expect("open durable chain store");

        let genesis = chain
            .append_block(None, &body("main", 0), "slot-0")
            .expect("genesis");
        // Bulk sync: one group-commit round for the whole batch.
        let ids = chain
            .append_batch(
                Some(genesis),
                (1..=60u64).map(|i| (body("main", i), format!("slot-{i}").into())),
            )
            .expect("append batch");
        main_tip = *ids.last().expect("non-empty batch");

        // ---- 2. a fork: a competing block at slot 31 ---------------------
        let fork_point = ids[29]; // height 30
        let mut side = chain
            .append_block(Some(fork_point), &body("side", 31), "slot-31'")
            .expect("side chain");
        for i in 32..=40u64 {
            side = chain
                .append_block(Some(side), &body("side", i), format!("slot-{i}'"))
                .expect("side chain");
        }
        side_tip = side;

        let best = chain.best_tip().expect("best tip").expect("non-empty");
        println!(
            "[build] {} tips after the fork; best tip height {} (main wins)",
            chain.tips().len(),
            chain.header(best).expect("header").height,
        );
        assert_eq!(best, main_tip);

        // ---- 3. long-history reads ---------------------------------------
        let recent = chain.follow_parents(main_tip, 10).expect("walk");
        println!(
            "[read ] last {} headers: heights {}..={}, {} bytes/body",
            recent.len(),
            recent.last().expect("tail").height,
            recent[0].height,
            recent[0].body_len,
        );
        let window = chain.iter_range(main_tip, 20, 29).expect("range");
        assert_eq!(window.len(), 10);
        assert!(window.windows(2).all(|w| w[1].height == w[0].height + 1));
        println!(
            "[read ] iter_range(20..=29): {} headers, ascending",
            window.len()
        );

        // ---- 4. tip state through the hot tier ---------------------------
        chain.state_put("tip", main_tip.to_hex()).expect("state");
        chain.state_put("balance/alice", "1000").expect("state");
        chain.state_put("balance/bob", "250").expect("state");
        chain.flush_state().expect("persist hot state");

        // ---- 5. checkpoint, then "crash" ---------------------------------
        chain.checkpoint().expect("checkpoint");
    }

    // ---- reopen: tips and state recovered from the directory alone ------
    let chain = ChainStore::open_with(
        &dir,
        ChainConfig {
            durability: Durability::Always,
            hot: HotTierConfig::on(),
            ..Default::default()
        },
    )
    .expect("reopen");
    let mut tips = chain.tips();
    tips.sort();
    let mut expect = vec![main_tip, side_tip];
    expect.sort();
    assert_eq!(tips, expect, "both tips survive the crash");
    let tip_ptr = chain.state_get(b"tip").expect("state").expect("present");
    assert_eq!(tip_ptr.as_ref(), main_tip.to_hex().as_bytes());
    println!(
        "[crash] reopen: {} tips recovered, tip pointer intact",
        tips.len()
    );

    // ---- 6. prune the side chain and reclaim its space -------------------
    let report = chain.prune_side_chains(&[main_tip]).expect("prune");
    let gc = report.gc.expect("durable instance compacts in place");
    println!(
        "[prune] {} tip retired; GC kept {} chunks, reclaimed {} bytes",
        report.tips_retired, gc.live_chunks, gc.dropped_bytes,
    );
    assert_eq!(chain.tips(), vec![main_tip]);
    // The shared prefix (heights 0..=30) is still reachable from the
    // retained tip; the side chain's exclusive blocks are gone.
    assert!(chain.header(main_tip).is_ok());
    assert!(chain.iter_range(main_tip, 0, 5).is_ok());
    assert!(chain.header(side_tip).is_err(), "side chain reclaimed");

    std::fs::remove_dir_all(&dir).ok();
    println!("[done ] chainstore scenario complete");
}
