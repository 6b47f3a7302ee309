//! Equivalence proptests for the hot tier: a hot-tier-fronted engine
//! must be observationally identical to the synchronous tree-only path.
//!
//! Two `ForkBase` handles run the same randomized op schedule — one with
//! the tier on (writes land in the flat hash map and are published
//! asynchronously), one with it off (every hot op degrades to a
//! synchronous `commit_map_batch`/map read). The schedule mixes hot
//! writes with everything else the handle can do to a state key: tree
//! writes, whole-value puts, listing branches, forking the default
//! branch and editing and merging the fork, renaming or removing the
//! default branch, checkpoint and restore. Every op must come out the
//! same on both, after **every** op the visible state must agree, and
//! after a final flush the committed map root cids of every branch must
//! be byte-identical: POS-Tree history-independence means identical
//! content ⇒ identical roots, regardless of how writes were batched into
//! publish rounds along the way.
//!
//! The `FB_HOT_TIER` CI matrix leg varies the round size rather than
//! skipping anything: leg `0` runs an aggressive config (2-edit batches,
//! so a writer seals a round every 16 edits and staged rounds constantly
//! race the checks), leg `1` (and local runs) the `on()` defaults where
//! all publishing happens inside `flush_hot`/drains. Both legs must pass.

use bytes::Bytes;
use forkbase_core::{
    ChunkerConfig, ForkBase, HotTierConfig, MemStore, Resolver, Value, WriteBatch,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Engine keys the schedule spreads over: enough for cross-key batching
/// in one publish round, few enough that each sees real contention.
const KEYS: [&str; 3] = ["state/a", "state/b", "state/c"];

fn hot_cfg() -> HotTierConfig {
    match std::env::var("FB_HOT_TIER").as_deref() {
        Ok("0") => HotTierConfig {
            enabled: true,
            publish_batch: 2,
            ..HotTierConfig::on()
        },
        _ => HotTierConfig::on(),
    }
}

type Edits = Vec<(String, Option<String>)>;

#[derive(Clone, Debug)]
enum HotOp {
    /// `hot_put` on KEYS[i].
    Put(usize, String, String),
    /// `hot_delete` on KEYS[i].
    Del(usize, String),
    /// `flush_hot`: forces a full publish + quiescent point.
    Flush,
    /// A direct tree write through `commit_map_batch` — exercises the
    /// drain + invalidate coordination path.
    TreeBatch(usize, Edits),
    /// A whole-value `put` of a Map on the default branch.
    PutWhole(usize, Vec<(String, String)>),
    /// `list_tagged_branches`: every branch and what it holds.
    Branches(usize),
    /// Fork the default branch to `side` — it must take pending hot
    /// edits along.
    Fork(usize),
    /// Edit `side` through `commit_map_batch`.
    EditSide(usize, Edits),
    /// `merge_branches(master <- side)`.
    MergeSide(usize),
    /// Rename the default branch away (to a name of this op's own).
    RenameDefault(usize, u32),
    /// Remove the default branch.
    RemoveDefault(usize),
    /// `checkpoint()`, `restore` from it, and list every key's branches
    /// in the restored instance.
    Checkpoint,
}

fn key_idx() -> impl Strategy<Value = usize> {
    0usize..KEYS.len()
}

fn subkey() -> impl Strategy<Value = String> {
    // A tiny subkey space so puts, deletes, and tree writes constantly
    // collide on the same entries.
    "[a-d]"
}

fn edits() -> impl Strategy<Value = Edits> {
    prop::collection::vec((subkey(), prop::option::of("[a-z]{0,6}")), 1..4)
}

fn hot_op() -> impl Strategy<Value = HotOp> {
    prop_oneof![
        12 => (key_idx(), subkey(), "[a-z]{0,6}").prop_map(|(k, s, v)| HotOp::Put(k, s, v)),
        4 => (key_idx(), subkey()).prop_map(|(k, s)| HotOp::Del(k, s)),
        2 => Just(HotOp::Flush),
        4 => (key_idx(), edits()).prop_map(|(k, edits)| HotOp::TreeBatch(k, edits)),
        2 => (key_idx(), prop::collection::vec((subkey(), "[a-z]{0,6}"), 0..3))
            .prop_map(|(k, pairs)| HotOp::PutWhole(k, pairs)),
        2 => key_idx().prop_map(HotOp::Branches),
        2 => key_idx().prop_map(HotOp::Fork),
        2 => (key_idx(), edits()).prop_map(|(k, edits)| HotOp::EditSide(k, edits)),
        2 => key_idx().prop_map(HotOp::MergeSide),
        1 => (key_idx(), any::<u32>()).prop_map(|(k, n)| HotOp::RenameDefault(k, n)),
        1 => key_idx().prop_map(HotOp::RemoveDefault),
        1 => Just(HotOp::Checkpoint),
    ]
}

fn batch(edits: &Edits) -> WriteBatch {
    edits
        .iter()
        .map(|(sk, v)| (sk.clone(), v.clone().map(Bytes::from)))
        .collect()
}

/// One engine under test and the store it sits on (`restore` needs it).
struct Instance {
    db: ForkBase,
    store: Arc<MemStore>,
}

impl Instance {
    fn new(hot: HotTierConfig) -> Instance {
        let store = Arc::new(MemStore::new());
        let db = ForkBase::with_store_hot(store.clone(), ChunkerConfig::default(), hot);
        Instance { db, store }
    }
}

/// What `list_tagged_branches` shows of one key, by content: the two
/// engines group the same writes into different versions, so uids differ
/// where map root cids may not.
fn branches(db: &ForkBase, key: &str) -> String {
    let listed = db.list_tagged_branches(key).map(|branches| {
        let root_of = |(name, uid)| {
            let value = db
                .get_version(key, uid)
                .and_then(|obj| obj.value(db.store()));
            (
                name,
                value.map(|v| v.as_map().expect("state keys hold maps").root()),
            )
        };
        branches.into_iter().map(root_of).collect::<Vec<_>>()
    });
    format!("{listed:?}")
}

/// Run `op`; what it returns is everything of its outcome that the tier
/// may not change — errors, and content instead of uids.
fn apply(instance: &Instance, op: &HotOp) -> String {
    let db = &instance.db;
    let outcome = |result: forkbase_core::Result<()>| format!("{result:?}");
    match op {
        HotOp::Put(k, sk, v) => outcome(db.hot_put(KEYS[*k], sk.clone(), v.clone())),
        HotOp::Del(k, sk) => outcome(db.hot_delete(KEYS[*k], sk.clone())),
        HotOp::Flush => outcome(db.flush_hot()),
        HotOp::TreeBatch(k, edits) => outcome(
            db.commit_map_batch(KEYS[*k], None, batch(edits))
                .map(|_| ()),
        ),
        HotOp::PutWhole(k, pairs) => {
            let map = db.new_map(pairs.iter().cloned());
            outcome(db.put(KEYS[*k], None, Value::Map(map)).map(|_| ()))
        }
        HotOp::Branches(k) => branches(db, KEYS[*k]),
        HotOp::Fork(k) => outcome(db.fork(KEYS[*k], "master", "side")),
        HotOp::EditSide(k, edits) => outcome(
            db.commit_map_batch(KEYS[*k], Some("side"), batch(edits))
                .map(|_| ()),
        ),
        HotOp::MergeSide(k) => outcome(
            db.merge_branches(KEYS[*k], "master", "side", &Resolver::TakeTheirs)
                .map(|_| ()),
        ),
        HotOp::RenameDefault(k, n) => {
            outcome(db.rename_branch(KEYS[*k], "master", &format!("was-{n}")))
        }
        HotOp::RemoveDefault(k) => outcome(db.remove_branch(KEYS[*k], "master")),
        HotOp::Checkpoint => {
            let restored = ForkBase::restore(
                instance.store.clone(),
                ChunkerConfig::default(),
                db.checkpoint(),
            )
            .expect("restore");
            let keys = restored.list_keys();
            let listed = |key: &Bytes| {
                let key = std::str::from_utf8(key).expect("keys are text");
                (key.to_string(), branches(&restored, key))
            };
            format!("{:?}", keys.iter().map(listed).collect::<Vec<_>>())
        }
    }
}

/// Committed map root cid for one engine key (`None`: never committed).
fn committed_root(db: &ForkBase, key: &str) -> Option<forkbase_crypto::Digest> {
    let value = db.get_value(key, None).ok()?;
    Some(value.as_map().expect("state keys hold maps").root())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core contract: identical reads at every step, identical
    /// committed roots at the end.
    #[test]
    fn hot_on_and_off_agree_at_every_step(
        ops in prop::collection::vec(hot_op(), 1..60)
    ) {
        let (hot, cold) = (Instance::new(hot_cfg()), Instance::new(HotTierConfig::disabled()));
        prop_assert!(hot.db.hot_enabled());
        prop_assert!(!cold.db.hot_enabled());

        for op in &ops {
            prop_assert_eq!(apply(&hot, op), apply(&cold, op), "outcome of {:?}", op);
            let (hot, cold) = (&hot.db, &cold.db);
            // Full-state probe after every single op: any subkey the
            // schedule can touch must read identically right now, no
            // matter where the publisher is in its cycle.
            for key in KEYS {
                for sk in [b"a".as_ref(), b"b", b"c", b"d"] {
                    let h = hot.hot_get(key, sk).expect("hot read");
                    let c = cold.hot_get(key, sk).expect("cold read");
                    prop_assert_eq!(h, c, "key {} subkey {:?} after {:?}", key, sk, op);
                }
            }
        }

        // Quiesce the publisher, then the *committed* trees must be
        // byte-identical: same content ⇒ same root cid (history
        // independence), even though the hot engine grouped writes into
        // arbitrary publish rounds.
        let (hot, cold) = (&hot.db, &cold.db);
        hot.flush_hot().expect("final flush");
        for key in KEYS {
            prop_assert_eq!(
                committed_root(hot, key),
                committed_root(cold, key),
                "committed root for {}",
                key
            );
            prop_assert_eq!(branches(hot, key), branches(cold, key), "branches of {}", key);
        }
    }

    /// Threaded variant: disjoint per-thread subkey ranges on one engine
    /// key, so publisher rounds interleave with concurrent writers. The
    /// final committed root must still match a tree-only engine fed the
    /// same (deterministically re-ordered) writes.
    #[test]
    fn concurrent_hot_writers_converge_to_tree_root(
        per_thread in prop::collection::vec(
            prop::collection::vec("[a-z]{0,6}", 1..12),
            2..4,
        )
    ) {
        let hot = std::sync::Arc::new(ForkBase::in_memory_hot(hot_cfg()));
        let cold = ForkBase::in_memory();

        std::thread::scope(|s| {
            for (t, writes) in per_thread.iter().enumerate() {
                let hot = std::sync::Arc::clone(&hot);
                s.spawn(move || {
                    for (i, v) in writes.iter().enumerate() {
                        let sk = format!("t{t}/k{i}");
                        hot.hot_put("state/conc", sk, v.clone()).expect("hot put");
                    }
                });
            }
        });
        hot.flush_hot().expect("flush");

        let mut wb = WriteBatch::new();
        for (t, writes) in per_thread.iter().enumerate() {
            for (i, v) in writes.iter().enumerate() {
                wb.put(Bytes::from(format!("t{t}/k{i}")), Bytes::from(v.clone()));
            }
        }
        cold.commit_map_batch("state/conc", None, wb).expect("tree batch");

        prop_assert_eq!(
            committed_root(&hot, "state/conc"),
            committed_root(&cold, "state/conc"),
            "disjoint-key concurrent writes converge"
        );
        // And every entry reads back identically through both paths.
        for (t, writes) in per_thread.iter().enumerate() {
            for (i, v) in writes.iter().enumerate() {
                let sk = format!("t{t}/k{i}");
                prop_assert_eq!(
                    hot.hot_get("state/conc", sk.as_bytes()).expect("hot read"),
                    Some(Bytes::from(v.clone()))
                );
            }
        }
    }
}
