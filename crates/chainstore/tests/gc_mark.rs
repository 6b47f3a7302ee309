//! The GC mark that fetches no leaf, against the mark that fetched every
//! chunk.
//!
//! `gc::live_set` fetches meta chunks, tree roots and index nodes only: a
//! leaf is named by its parent's entry, so the mark asks the store
//! whether it holds the leaf instead of reading it. The live set must be
//! the old mark's, chunk for chunk — on random histories of every value
//! type with forks, merges, branch removals and conflicting heads, and on
//! the chain scenario's fork trees with retired tips — and a mark must
//! cost exactly one get per meta chunk and index node.

use chainstore::{BlockId, ChainStore};
use forkbase_core::fobject::FObject;
use forkbase_core::gc::live_set;
use forkbase_core::{ForkBase, Resolver, Value, WriteBatch, DEFAULT_BRANCH};
use forkbase_crypto::fx::FxHashSet;
use forkbase_crypto::Digest;
use forkbase_pos::IndexNode;

/// The mark as it was: every chunk of every reachable tree fetched.
fn fetch_everything_mark(db: &ForkBase) -> (FxHashSet<Digest>, usize) {
    let store = db.store();
    let mut live = FxHashSet::default();
    let mut versions = 0;
    let snap = db.snapshot_branches();
    let mut stack: Vec<Digest> = snap.heads().collect();
    while let Some(uid) = stack.pop() {
        if !live.insert(uid) {
            continue;
        }
        let obj = FObject::load(store, uid).expect("meta chunk");
        versions += 1;
        stack.extend(obj.bases.iter().copied());
        let Some((ty, root)) = obj.value(store).expect("value").tree_root() else {
            continue;
        };
        let mut tree = vec![root];
        while let Some(cid) = tree.pop() {
            if !live.insert(cid) {
                continue;
            }
            let chunk = store.get(&cid).expect("tree chunk");
            if chunk.ty().is_index() {
                let node = IndexNode::parse(chunk.payload().clone(), ty.is_sorted());
                tree.extend(node.expect("index node").entries().map(|e| *e.cid));
            }
        }
    }
    (live, versions)
}

fn assert_same_mark(db: &ForkBase) {
    let (live, versions) = live_set(db).expect("mark");
    let (want, want_versions) = fetch_everything_mark(db);
    assert_eq!(versions, want_versions);
    assert_eq!(live.len(), want.len());
    assert!(live == want, "the live sets differ");
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

fn bytes_of(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64).map(|i| mix(seed, i) as u8).collect()
}

/// A value of every kind and size: primitives, single-leaf trees and
/// trees several index levels tall.
fn value(db: &ForkBase, r: u64) -> Value {
    let n = match r % 3 {
        0 => r % 20,
        1 => r % 600,
        _ => 2_000 + r % 6_000,
    };
    let key = |i: u64| format!("k{:06}", mix(r, i) % 50_000);
    match (r >> 8) % 6 {
        0 => Value::Int(r as i64),
        1 => Value::Blob(db.new_blob(&bytes_of(n as usize * 20, r))),
        2 => Value::Map(db.new_map((0..n).map(|i| (key(i), format!("v{}", mix(r, i) % 97))))),
        3 => Value::Set(db.new_set((0..n).map(key))),
        4 => Value::List(db.new_list((0..n).map(|i| format!("e{}", mix(r, i))))),
        _ => Value::String(format!("s{r}")),
    }
}

/// A random history over three keys: puts of every value type, Map
/// batches, forks, merges (conflicting ones fail and change nothing),
/// branch removals and untagged conflicting heads.
fn random_history(seed: u64) -> ForkBase {
    let db = ForkBase::in_memory();
    let mut branches: Vec<(String, String)> = Vec::new();
    for step in 0..40u64 {
        let r = mix(seed, step);
        let key = format!("key{}", r % 3);
        let on = branches
            .iter()
            .filter(|(k, _)| *k == key)
            .nth((r >> 4) as usize % 3)
            .map(|(_, b)| b.clone());
        match (r >> 12) % 8 {
            0..=2 => {
                db.put(key.as_str(), on.as_deref(), value(&db, r))
                    .expect("put");
            }
            3 => {
                let mut batch = WriteBatch::new();
                for i in 0..(r % 40) {
                    batch.put(format!("k{:06}", mix(r, i) % 50_000), format!("b{i}"));
                }
                // A key holding no Map refuses the batch.
                let _ = db.commit_map_batch(key.as_str(), on.as_deref(), batch);
            }
            4 if db.head(key.as_str(), None).is_ok() => {
                let name = format!("br{step}");
                db.fork(key.as_str(), DEFAULT_BRANCH, &name).expect("fork");
                branches.push((key, name));
            }
            5 if on.is_some() => {
                let branch = on.expect("a branch");
                let _ =
                    db.merge_branches(key.as_str(), DEFAULT_BRANCH, &branch, &Resolver::TakeOurs);
                if r.is_multiple_of(2) {
                    db.remove_branch(key.as_str(), &branch).expect("remove");
                    branches.retain(|(k, b)| !(*k == key && *b == branch));
                }
            }
            6 => {
                let base = db.head(key.as_str(), None).ok();
                db.put_conflict(key.as_str(), base, value(&db, r ^ 1))
                    .expect("conflicting head");
            }
            _ => {
                // Built and never committed: garbage neither mark keeps.
                db.new_blob(&bytes_of((r % 50_000) as usize, r));
            }
        }
    }
    db
}

#[test]
fn random_histories_mark_the_same_live_set() {
    for seed in 0..12 {
        assert_same_mark(&random_history(seed));
    }
}

#[test]
fn chain_fork_trees_mark_the_same_live_set() {
    for seed in 0..6u64 {
        let chain = ChainStore::in_memory();
        let mut ids: Vec<BlockId> = Vec::new();
        for i in 0..30u64 {
            let r = mix(seed, i);
            // A fresh genesis one time in eight, else a child of any
            // earlier block; bodies from a few bytes to many leaves.
            let parent =
                (i > 0 && !r.is_multiple_of(8)).then(|| ids[(r >> 3) as usize % ids.len()]);
            let body = bytes_of((r >> 16) as usize % 40_000, r);
            ids.push(
                chain
                    .append_block(parent, &body, format!("m{i}"))
                    .expect("append"),
            );
        }
        assert_same_mark(chain.db());
        let tips = chain.tips();
        let retained: Vec<BlockId> = tips.iter().copied().step_by(2).collect();
        chain.prune_side_chains(&retained).expect("prune");
        assert_same_mark(chain.db());
    }
}

/// On a `MemStore`, whose `get` is what `stats().gets` counts, a mark
/// gets each meta chunk and each index node once and nothing else. Every
/// value here is a primitive or a tree with index levels, so that no
/// root is a leaf (a leaf root is fetched: only the fetch says it is
/// one).
#[test]
fn a_mark_gets_meta_chunks_and_index_nodes_only() {
    let db = ForkBase::in_memory();
    for i in 0..6u64 {
        let big_blob = Value::Blob(db.new_blob(&bytes_of(150_000, i)));
        let big_map = Value::Map(
            db.new_map((0..8_000u64).map(|j| (format!("k{j:06}"), format!("v{}", mix(i, j))))),
        );
        db.put("doc", None, big_blob).expect("put");
        db.put("table", None, big_map).expect("put");
        db.put("n", None, Value::Int(i as i64)).expect("put");
    }
    db.fork("doc", DEFAULT_BRANCH, "draft").expect("fork");
    db.put(
        "doc",
        Some("draft"),
        Value::Blob(db.new_blob(&bytes_of(90_000, 99))),
    )
    .expect("put");

    let before = db.store().stats().gets;
    let (live, _) = live_set(&db).expect("mark");
    let gets = db.store().stats().gets - before;

    let kinds: Vec<_> = live
        .iter()
        .map(|cid| db.store().get(cid).expect("live").ty())
        .collect();
    let fetched = kinds
        .iter()
        .filter(|t| t.is_index() || !t.is_leaf())
        .count();
    let leaves = kinds.len() - fetched;
    assert!(leaves > 100, "{leaves} leaves in the live set");
    assert_eq!(
        gets, fetched as u64,
        "{gets} gets for {fetched} meta and index chunks"
    );
}
