//! How many chunk reads a commit costs, counted with the store's
//! `StoreStats::gets`.
//!
//! A value commit needs only its parent's uid and depth (§3.3: the uid
//! hashes key, data, depth, bases and context). Each key's branch table
//! remembers the uid and depth of the last version this process
//! published, so a value put onto that version reads nothing; any other
//! parent (a head after reopen, `restore` or `fork_version`, a base named
//! by the caller) is read once, as before. The reads saved must not
//! change a single uid: a chain built warm equals the same chain built
//! on an instance restored before every commit, where the hint is always
//! cold.

use bytes::Bytes;
use forkbase_chunk::{CacheConfig, Durability};
use forkbase_core::{
    ChunkStore, ChunkerConfig, Commit, Digest, FbError, ForkBase, HotTierConfig, MemStore, Payload,
    Target, Value,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `items` appended to `key` as one untagged chain onto `base`, in one
/// `commit_all`: an untagged commit, then chained ones.
fn append(
    db: &ForkBase,
    key: String,
    base: Option<Digest>,
    items: impl IntoIterator<Item = (Value, Bytes)>,
) -> Result<Vec<Digest>, FbError> {
    let mut target = Target::Untagged { base };
    let commits: Vec<Commit<'_>> = items
        .into_iter()
        .map(|(value, context)| Commit {
            target: std::mem::replace(&mut target, Target::Chained),
            context,
            ..Commit::untagged(key.clone(), None, Payload::Value(value))
        })
        .collect();
    db.commit_all(&commits)
}

fn mem() -> (Arc<MemStore>, ForkBase) {
    let store = Arc::new(MemStore::new());
    let db = ForkBase::with_store(store.clone(), ChunkerConfig::default());
    (store, db)
}

/// The store gets `f` costs.
fn gets<T>(db: &ForkBase, f: impl FnOnce() -> T) -> (T, u64) {
    let before = db.store().stats().gets;
    let out = f();
    (out, db.store().stats().gets - before)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "forkbase-commit-reads-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn open(dir: &PathBuf) -> ForkBase {
    let (cfg, hot) = (ChunkerConfig::default(), HotTierConfig::default());
    ForkBase::open_with(dir, cfg, Durability::Always, CacheConfig::default(), hot).expect("open")
}

#[test]
fn a_value_put_on_a_warm_key_reads_nothing() {
    let (_store, db) = mem();
    db.put("k", None, Value::Int(0)).expect("put");
    for i in 1..5 {
        let (uid, n) = gets(&db, || db.put("k", None, Value::Int(i)).expect("put"));
        assert_eq!(n, 0, "put {i} onto the head this process published");
        assert_eq!(db.get_version("k", uid).expect("version").depth, i as u64);
    }

    // A branch forked off that head starts warm too.
    db.fork("k", "master", "dev").expect("fork");
    let (uid, n) = gets(&db, || {
        db.put("k", Some("dev"), Value::Int(9)).expect("put")
    });
    assert_eq!(n, 0, "first put on a branch forked off the published head");
    assert_eq!(db.get_version("k", uid).expect("version").depth, 5);

    // Untagged commits onto the version just published: a fork-on-conflict
    // put, and a chain appended onto its tip.
    let (tip, n) = gets(&db, || {
        db.put_conflict("k", Some(uid), Value::Int(10))
            .expect("put")
    });
    assert_eq!(n, 0, "untagged put onto the published version");
    let items = (0..3).map(|i| (Value::Int(i), Bytes::from("ctx")));
    let (chain, n) = gets(&db, || {
        append(&db, "k".into(), Some(tip), items).expect("append")
    });
    assert_eq!(n, 0, "chain appended onto the published tip");
    let last = *chain.last().expect("three uids");
    assert_eq!(db.get_version("k", last).expect("version").depth, 9);

    // Master's head is no longer the version published last: read once.
    let (_, n) = gets(&db, || db.put("k", None, Value::Int(11)).expect("put"));
    assert_eq!(n, 1, "put onto a head another commit left behind");
}

#[test]
fn a_base_named_by_the_caller_is_read_once() {
    let (_store, db) = mem();
    let v0 = db.put_conflict("k", None, Value::Int(0)).expect("put");
    db.put_conflict("k", Some(v0), Value::Int(1)).expect("put");
    let (uid, n) = gets(&db, || {
        db.put_conflict("k", Some(v0), Value::Int(2)).expect("put")
    });
    assert_eq!(n, 1, "a base other than the version published last");
    assert_eq!(db.get_version("k", uid).expect("version").depth, 1);
    assert_eq!(db.list_untagged_branches("k").expect("list").len(), 2);
}

#[test]
fn first_put_after_reopen_reads_its_parent_once() {
    let dir = temp_dir("reopen");
    {
        let db = open(&dir);
        for i in 0..3 {
            db.put("k", None, Value::Int(i)).expect("put");
        }
        db.commit_checkpoint().expect("checkpoint");
    }
    let db = open(&dir);
    let (uid, n) = gets(&db, || db.put("k", None, Value::Int(3)).expect("put"));
    assert_eq!(n, 1, "the head loaded from the checkpoint is read once");
    assert_eq!(db.get_version("k", uid).expect("version").depth, 3);
    let (_, n) = gets(&db, || db.put("k", None, Value::Int(4)).expect("put"));
    assert_eq!(n, 0, "then the key is warm");
    drop(db);
    std::fs::remove_dir_all(&dir).expect("rm");
}

#[test]
fn first_put_after_restore_reads_its_parent_once() {
    let (store, db) = mem();
    for i in 0..3 {
        db.put("k", None, Value::Int(i)).expect("put");
    }
    let checkpoint = db.checkpoint();
    drop(db);
    let db = ForkBase::restore(store, ChunkerConfig::default(), checkpoint).expect("restore");
    let (uid, n) = gets(&db, || db.put("k", None, Value::Int(3)).expect("put"));
    assert_eq!(n, 1, "a restored head is read once");
    assert_eq!(db.get_version("k", uid).expect("version").depth, 3);
    let (_, n) = gets(&db, || db.put("k", None, Value::Int(4)).expect("put"));
    assert_eq!(n, 0, "then the key is warm");
}

#[test]
fn first_put_after_fork_version_reads_its_parent_once() {
    let (_store, db) = mem();
    let v0 = db.put("k", None, Value::Int(0)).expect("put");
    for i in 1..4 {
        db.put("k", None, Value::Int(i)).expect("put");
    }
    db.fork_version("k", v0, "old").expect("fork_version");
    let (uid, n) = gets(&db, || {
        db.put("k", Some("old"), Value::Int(9)).expect("put")
    });
    assert_eq!(n, 1, "a branch made at an older version reads it once");
    assert_eq!(db.get_version("k", uid).expect("version").depth, 1);
    let (_, n) = gets(&db, || {
        db.put("k", Some("old"), Value::Int(10)).expect("put")
    });
    assert_eq!(n, 0, "then the branch is warm");
}

#[test]
fn a_base_of_another_key_is_still_not_found() {
    let (_store, db) = mem();
    let a = db.put("a", None, Value::Int(0)).expect("put");
    db.put("b", None, Value::Int(0)).expect("put");
    db.put("b", None, Value::Int(1)).expect("put");
    assert_eq!(
        db.put_conflict("b", Some(a), Value::Int(2)),
        Err(FbError::VersionNotFound(a))
    );
}

#[test]
fn a_collected_version_is_not_a_base_however_recent() {
    let dir = temp_dir("gc");
    let db = open(&dir);
    db.put("keep", None, Value::Int(0)).expect("put");
    let lone = db
        .put_conflict("k", None, Value::String("x".repeat(64)))
        .expect("put");
    assert_eq!(db.retire_untagged_heads("k", &[lone]).expect("retire"), 1);
    forkbase_core::gc::compact_in_place(&db).expect("compact");
    assert_eq!(
        db.put_conflict("k", Some(lone), Value::Int(1)),
        Err(FbError::VersionNotFound(lone))
    );
    drop(db);
    std::fs::remove_dir_all(&dir).expect("rm");
}

#[derive(Clone, Debug)]
enum Op {
    /// Put to key `.0` on master (`false`) or dev (`true`).
    Put(usize, bool),
    /// Fork dev off master.
    Fork(usize),
    /// Fork-on-conflict put onto the uid returned last for the key, or
    /// onto the `.1`-th one before it.
    Conflict(usize, usize),
    /// Append `.1` versions onto the uid returned last for the key.
    Chain(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..2, any::<bool>()).prop_map(|(k, dev)| Op::Put(k, dev)),
        1 => (0usize..2).prop_map(Op::Fork),
        2 => (0usize..2, 0usize..3).prop_map(|(k, back)| Op::Conflict(k, back)),
        1 => (0usize..2, 1usize..4).prop_map(|(k, n)| Op::Chain(k, n)),
    ]
}

/// `op` on `db`; `seen[key]` holds the uids returned for each key so far.
fn apply(
    db: &ForkBase,
    op: &Op,
    value: i64,
    seen: &mut [Vec<Digest>],
) -> Result<Vec<Digest>, FbError> {
    let key = |k: usize| format!("key-{k}");
    let back = |k: usize, n: usize, seen: &[Vec<Digest>]| {
        seen[k].len().checked_sub(1 + n).map(|i| seen[k][i])
    };
    let out = match *op {
        Op::Put(k, dev) => db
            .put(key(k), dev.then_some("dev"), Value::Int(value))
            .map(|uid| vec![uid]),
        Op::Fork(k) => db.fork(key(k), "master", "dev").map(|()| vec![]),
        Op::Conflict(k, n) => db
            .put_conflict(key(k), back(k, n, seen), Value::Int(value))
            .map(|uid| vec![uid]),
        Op::Chain(k, n) => {
            let items = (0..n as i64).map(|i| (Value::Int(value + i), Bytes::from("c")));
            append(db, key(k), back(k, 0, seen), items)
        }
    };
    let k = match *op {
        Op::Put(k, _) | Op::Fork(k) | Op::Conflict(k, _) | Op::Chain(k, _) => k,
    };
    seen[k].extend(out.iter().flatten().copied());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm and cold build the same versions, uid for uid and depth for
    /// depth, and the warm side reads no more than the cold one.
    #[test]
    fn warm_chains_match_chains_restored_before_every_commit(
        ops in prop::collection::vec(op(), 1..16),
    ) {
        let (_, warm) = mem();
        let (cold_store, mut cold) = mem();
        let (mut warm_seen, mut cold_seen) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        for (i, op) in ops.iter().enumerate() {
            let checkpoint = cold.checkpoint();
            let store: Arc<dyn ChunkStore> = cold_store.clone();
            cold = ForkBase::restore(store, ChunkerConfig::default(), checkpoint).expect("restore");
            let (w, w_gets) = gets(&warm, || apply(&warm, op, i as i64, &mut warm_seen));
            let (c, c_gets) = gets(&cold, || apply(&cold, op, i as i64, &mut cold_seen));
            prop_assert_eq!(&w, &c, "op {} {:?}", i, op);
            prop_assert!(w_gets <= c_gets, "op {} {:?}: {} > {} gets", i, op, w_gets, c_gets);
            for uid in w.iter().flatten() {
                let depth = |db: &ForkBase| {
                    (0..2)
                        .find_map(|k| db.get_version(format!("key-{k}"), *uid).ok())
                        .expect("version")
                        .depth
                };
                prop_assert_eq!(depth(&warm), depth(&cold));
            }
        }
    }
}
