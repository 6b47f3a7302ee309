//! Concurrent commit pipeline equivalence suite.
//!
//! The sharded branch map + optimistic-CAS publish path (§4.5.1) must be
//! observationally equivalent to *some* sequential interleaving of the
//! same commits: disjoint-key writers land exactly the chains a
//! sequential run produces (content-derived uids make this checkable
//! bit-for-bit), overlapping writers serialize onto one chain with zero
//! lost updates, and `commit_map_batch`'s merge-on-conflict keeps every
//! subkey from every racing batch, and a merge into a branch keeps every
//! commit that reached the branch while it was being built. The property
//! tests pin the batched entry points (`put_many`, `commit_all` over
//! every target and payload) to the same commits issued one at a time.
//!
//! CI runs this with `RUST_TEST_THREADS=8` so the writer threads really
//! overlap on multi-core runners, once per `FB_HOT_TIER` leg: with `1`
//! the merge races and the two-branch put race run behind the hot tier,
//! so the pipeline's hot sync is in the race too.

use bytes::Bytes;
use forkbase_core::{
    verify_history, Commit, Digest, ForkBase, HotTierConfig, Payload, Resolver, Target, Value,
    WriteBatch,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread;

const WRITERS: usize = 8;
const ROUNDS: usize = 25;

/// The hot tier of this CI leg: on for `FB_HOT_TIER=1`.
fn hot_tier() -> HotTierConfig {
    match std::env::var("FB_HOT_TIER").as_deref() {
        Ok("1") => HotTierConfig::on(),
        _ => HotTierConfig::disabled(),
    }
}

/// Disjoint-key writers: every thread owns its own key, so no CAS ever
/// fails and the final heads must be bit-identical to a sequential run
/// of the same per-key chains (uids are content-derived).
#[test]
fn disjoint_key_writers_match_sequential_run() {
    let db = Arc::new(ForkBase::in_memory());
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for i in 0..ROUNDS {
                    db.put(
                        format!("key-{t}"),
                        None,
                        Value::Int((t * ROUNDS + i) as i64),
                    )
                    .expect("put");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer ok");
    }

    // Replay the same chains sequentially on a fresh engine.
    let seq = ForkBase::in_memory();
    for t in 0..WRITERS {
        for i in 0..ROUNDS {
            seq.put(
                format!("key-{t}"),
                None,
                Value::Int((t * ROUNDS + i) as i64),
            )
            .expect("put");
        }
    }
    for t in 0..WRITERS {
        let key = format!("key-{t}");
        assert_eq!(
            db.head(key.clone(), None).expect("head"),
            seq.head(key.clone(), None).expect("head"),
            "disjoint-key chain {t} diverged from the sequential run"
        );
        assert_eq!(db.get(key, None).expect("get").depth as usize, ROUNDS - 1);
    }
}

/// Overlapping writers on one key: every commit must land on the single
/// serialized chain — final depth counts all of them, every returned uid
/// is distinct, and exactly one untagged head remains.
#[test]
fn overlapping_writers_lose_no_updates() {
    let db = Arc::new(ForkBase::in_memory());
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                (0..ROUNDS)
                    .map(|i| {
                        db.put("hot", None, Value::Int((t * ROUNDS + i) as i64))
                            .expect("put")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut uids = HashSet::new();
    for h in handles {
        for uid in h.join().expect("writer ok") {
            assert!(uids.insert(uid), "two commits produced the same uid");
        }
    }
    assert_eq!(uids.len(), WRITERS * ROUNDS);
    let head = db.get("hot", None).expect("get");
    assert_eq!(
        head.depth as usize,
        WRITERS * ROUNDS - 1,
        "depth counts every commit: zero lost updates"
    );
    assert_eq!(db.list_untagged_branches("hot").expect("list").len(), 1);
}

/// Writers racing on one key across two branches: a commit stages the
/// head with the depth its branch table remembers, and one that loses
/// the CAS re-encodes from the head it observed, which another thread
/// published and which may be the other branch's. Every branch head's
/// depth must still count every version on it, and its whole history
/// must verify.
#[test]
fn racing_puts_re_encode_from_the_observed_head() {
    let db = Arc::new(ForkBase::in_memory_hot(hot_tier()));
    db.put("race", None, Value::Int(-1)).expect("genesis");
    db.fork("race", "master", "dev").expect("fork");
    let start = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let (db, start) = (Arc::clone(&db), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    let branch = if i % 2 == 0 { "master" } else { "dev" };
                    let value = Value::Int((t * ROUNDS + i) as i64);
                    db.put("race", Some(branch), value).expect("put");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer ok");
    }
    let on_master = WRITERS * ROUNDS.div_ceil(2);
    let on_dev = WRITERS * (ROUNDS / 2);
    for (branch, puts) in [("master", on_master), ("dev", on_dev)] {
        let head = db.get("race", Some(branch)).expect("get");
        // The genesis version plus every put: depth is versions - 1.
        assert_eq!(
            head.depth as usize, puts,
            "{branch} lost or skipped a depth"
        );
        let uid = db.head("race", Some(branch)).expect("head");
        let evidence = verify_history(db.store(), uid).expect("history verifies");
        assert_eq!(
            evidence.verified_versions,
            puts + 1,
            "{branch}: one version per put"
        );
    }
}

/// Racing `commit_map_batch` calls over disjoint subkey sets: the
/// merge-on-conflict path must keep every subkey from every batch.
#[test]
fn concurrent_map_batches_keep_every_subkey() {
    let db = Arc::new(ForkBase::in_memory());
    db.put("m", None, Value::Map(db.new_map([("genesis", "0")])))
        .expect("put");
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for round in 0..4 {
                    let mut wb = forkbase_pos::WriteBatch::new();
                    for s in 0..5 {
                        wb.put(format!("t{t}-r{round}-s{s}"), format!("v{t}.{round}.{s}"));
                    }
                    db.commit_map_batch("m", None, wb).expect("commit");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer ok");
    }

    let map = db.get_value("m", None).expect("get").as_map().expect("map");
    for t in 0..WRITERS {
        for round in 0..4 {
            for s in 0..5 {
                let k = format!("t{t}-r{round}-s{s}");
                assert_eq!(
                    map.get(db.store(), k.as_bytes()),
                    Some(bytes::Bytes::from(format!("v{t}.{round}.{s}"))),
                    "subkey {k} lost in a conflicting batch merge"
                );
            }
        }
    }
    assert_eq!(
        map.get(db.store(), b"genesis"),
        Some(bytes::Bytes::from_static(b"0"))
    );
}

/// Racing batches that also contend on one hot subkey: own subkeys all
/// survive, and the hot subkey holds exactly one of the written values.
#[test]
fn contended_map_batches_serialize_hot_subkey() {
    let db = Arc::new(ForkBase::in_memory());
    db.put("m", None, Value::Map(db.new_map([("hot", "init")])))
        .expect("put");
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let mut wb = forkbase_pos::WriteBatch::new();
                wb.put("hot", format!("w{t}")).put(format!("own-{t}"), "1");
                db.commit_map_batch("m", None, wb).expect("commit");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer ok");
    }

    let map = db.get_value("m", None).expect("get").as_map().expect("map");
    for t in 0..WRITERS {
        assert!(
            map.get(db.store(), format!("own-{t}").as_bytes()).is_some(),
            "own subkey of writer {t} lost"
        );
    }
    let hot = map.get(db.store(), b"hot").expect("hot present");
    let winners: Vec<bytes::Bytes> = (0..WRITERS)
        .map(|t| bytes::Bytes::from(format!("w{t}")))
        .collect();
    assert!(
        winners.contains(&hot),
        "hot subkey holds a value no writer wrote: {hot:?}"
    );
}

const MERGE_ROUNDS: usize = 200;

fn one_edit(subkey: String) -> WriteBatch {
    let mut wb = WriteBatch::new();
    wb.put(subkey, "1");
    wb
}

/// `MERGE_ROUNDS` rounds of `merge_branches(master <- dev)` against one
/// `write` to master each, both released by the same barrier. Every
/// acknowledged write must end up in master's history — a merge that read
/// the head, merged, and then set the head over a commit that landed in
/// between would leave that commit acknowledged and unreachable. Returns
/// the engine for checks on what the writes stored.
fn race_merges_against(write: impl Fn(&ForkBase, usize) -> Digest + Sync) -> ForkBase {
    let db = ForkBase::in_memory_hot(hot_tier());
    db.put("k", None, Value::Map(db.new_map([("genesis", "0")])))
        .expect("put");
    db.fork("k", "master", "dev").expect("fork");
    let start = Barrier::new(2);
    let acknowledged = thread::scope(|s| {
        s.spawn(|| {
            for round in 0..MERGE_ROUNDS {
                db.commit_map_batch("k", Some("dev"), one_edit(format!("dev-{round}")))
                    .expect("dev commit");
                start.wait();
                db.merge_branches("k", "master", "dev", &Resolver::Fail)
                    .expect("merge");
                start.wait();
            }
        });
        let writer = s.spawn(|| {
            (0..MERGE_ROUNDS)
                .map(|round| {
                    start.wait();
                    let uid = write(&db, round);
                    start.wait();
                    uid
                })
                .collect::<Vec<_>>()
        });
        writer.join().expect("writer ok")
    });

    let head = db.head("k", None).expect("head");
    for (round, uid) in acknowledged.into_iter().enumerate() {
        assert_eq!(
            db.lca("k", head, uid).expect("lca"),
            Some(uid),
            "the commit acknowledged in round {round} is not in master's history"
        );
    }
    verify_history(db.store(), head).expect("master's history verifies");
    db
}

/// A `commit_map_batch` on master racing each merge: afterwards master
/// holds every subkey either side wrote.
#[test]
fn merge_racing_map_batches_loses_no_commit() {
    let db = race_merges_against(|db, round| {
        db.hot_put("k", format!("hot-{round}"), "1")
            .expect("hot put");
        db.commit_map_batch("k", None, one_edit(format!("master-{round}")))
            .expect("master commit")
    });
    let map = db.get_value("k", None).expect("get").as_map().expect("map");
    for round in 0..MERGE_ROUNDS {
        for side in ["master", "hot", "dev"] {
            let subkey = format!("{side}-{round}");
            assert!(
                map.get(db.store(), subkey.as_bytes()).is_some(),
                "subkey {subkey} lost"
            );
        }
    }
}

/// A whole-value `put` on master racing each merge.
#[test]
fn merge_racing_puts_loses_no_commit() {
    race_merges_against(|db, round| {
        let value = Value::Map(db.new_map([(format!("put-{round}"), "1")]));
        db.put("k", None, value).expect("put")
    });
}

/// One commit of a generated batch, before the versions it names exist.
#[derive(Clone, Debug)]
enum Op {
    /// A whole Map value to `(key, branch)`.
    Put(usize, usize, Vec<(String, String)>),
    /// Map edits to `(key, branch)`.
    Edit(usize, usize, Vec<(String, Option<String>)>),
    /// Merge the prelude head of the key's other branch into `(key, branch)`.
    Merge(usize, usize),
    /// An untagged chain of these contexts: the first on a fresh lineage
    /// or on the key's prelude version, the rest each on the one before.
    Chain(usize, bool, Vec<String>),
}

const KEYS: [&str; 2] = ["a", "b"];
const BRANCHES: [&str; 2] = ["master", "dev"];

fn op() -> impl Strategy<Value = Op> {
    let slot = || (0..KEYS.len(), 0..BRANCHES.len());
    let subkey = || "[a-c]";
    prop_oneof![
        (
            slot(),
            prop::collection::vec((subkey(), "[a-z]{0,4}"), 0..3)
        )
            .prop_map(|((k, b), pairs)| Op::Put(k, b, pairs)),
        (
            slot(),
            prop::collection::vec((subkey(), prop::option::of("[a-z]{0,4}")), 1..3)
        )
            .prop_map(|((k, b), edits)| Op::Edit(k, b, edits)),
        slot().prop_map(|(k, b)| Op::Merge(k, b)),
        (
            0..KEYS.len(),
            any::<bool>(),
            prop::collection::vec("[a-z]{0,4}", 1..4)
        )
            .prop_map(|(k, fresh, contexts)| Op::Chain(k, fresh, contexts)),
    ]
}

/// Two diverged branches per key, so merges have work: returns each
/// key's `[master, dev]` heads (content-derived: the same on every
/// engine).
fn prelude(db: &ForkBase) -> Vec<[Digest; 2]> {
    KEYS.iter()
        .map(|key| {
            db.put(*key, None, Value::Map(db.new_map([("a", "0"), ("b", "0")])))
                .expect("put");
            db.fork(*key, "master", "dev").expect("fork");
            let mut edit = WriteBatch::new();
            edit.put("a", "master");
            let master = db.commit_map_batch(*key, None, edit).expect("commit");
            let mut edit = WriteBatch::new();
            edit.put("b", "dev");
            let dev = db
                .commit_map_batch(*key, Some("dev"), edit)
                .expect("commit");
            [master, dev]
        })
        .collect()
}

fn commits<'a>(db: &ForkBase, heads: &[[Digest; 2]], ops: &[Op]) -> Vec<Commit<'a>> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Put(k, b, pairs) => {
                let map = db.new_map(pairs.iter().cloned());
                out.push(Commit::branch(
                    KEYS[*k],
                    Some(BRANCHES[*b]),
                    Payload::Value(Value::Map(map)),
                ));
            }
            Op::Edit(k, b, edits) => {
                let edits = edits
                    .iter()
                    .map(|(sk, v)| (sk.clone(), v.clone().map(Bytes::from)));
                out.push(Commit::branch(
                    KEYS[*k],
                    Some(BRANCHES[*b]),
                    Payload::MapEdits(edits.collect()),
                ));
            }
            Op::Merge(k, b) => out.push(Commit::branch(
                KEYS[*k],
                Some(BRANCHES[*b]),
                Payload::Merge {
                    reference: heads[*k][1 - *b],
                    resolver: &Resolver::TakeOurs,
                },
            )),
            Op::Chain(k, fresh, contexts) => {
                let base = (!fresh).then_some(heads[*k][0]);
                let mut target = Target::Untagged { base };
                for context in contexts {
                    let value = Payload::Value(Value::String(context.clone()));
                    out.push(Commit {
                        target: std::mem::replace(&mut target, Target::Chained),
                        context: context.clone().into(),
                        ..Commit::untagged(KEYS[*k], None, value)
                    });
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One `commit_all` over every target and payload is the same commits
    /// issued one at a time: the same uid for each, the same tagged and
    /// untagged heads afterwards.
    #[test]
    fn commit_all_matches_one_commit_at_a_time(ops in prop::collection::vec(op(), 1..12)) {
        let batched = ForkBase::in_memory();
        let heads = prelude(&batched);
        let uids_batch = batched
            .commit_all(&commits(&batched, &heads, &ops))
            .expect("commit_all");

        let seq = ForkBase::in_memory();
        prop_assert_eq!(&prelude(&seq), &heads);
        let mut uids_seq: Vec<Digest> = Vec::new();
        for mut commit in commits(&seq, &heads, &ops) {
            // Alone, "the commit before" has to be named.
            if let Target::Chained = commit.target {
                commit.target = Target::Untagged { base: uids_seq.last().copied() };
            }
            uids_seq.push(seq.commit(commit).expect("commit"));
        }

        prop_assert_eq!(uids_batch, uids_seq, "per-commit uids diverge");
        for key in KEYS {
            prop_assert_eq!(
                batched.list_tagged_branches(key).expect("tagged"),
                seq.list_tagged_branches(key).expect("tagged")
            );
            prop_assert_eq!(
                batched.list_untagged_branches(key).expect("untagged"),
                seq.list_untagged_branches(key).expect("untagged")
            );
        }
    }

    /// `put_many` is equivalent to issuing the same puts sequentially:
    /// same returned uids (duplicate keys chain in batch order), same
    /// final heads and values.
    #[test]
    fn put_many_matches_sequential_puts(
        entries in prop::collection::vec(("[a-d]{1,2}", "[a-z]{0,8}"), 1..24)
    ) {
        let batched = ForkBase::in_memory();
        let uids_batch = batched
            .put_many(None, entries.iter().map(|(k, v)| (k.clone(), Value::String(v.clone()))))
            .expect("put_many");

        let seq = ForkBase::in_memory();
        let uids_seq: Vec<_> = entries
            .iter()
            .map(|(k, v)| seq.put(k.clone(), None, Value::String(v.clone())).expect("put"))
            .collect();

        prop_assert_eq!(uids_batch, uids_seq, "per-entry uids diverge");
        for (k, _) in &entries {
            prop_assert_eq!(
                batched.head(k.clone(), None).expect("head"),
                seq.head(k.clone(), None).expect("head")
            );
            prop_assert_eq!(
                batched.get_value(k.clone(), None).expect("get"),
                seq.get_value(k.clone(), None).expect("get")
            );
        }
    }

    /// A batch of untagged commits on one base is equivalent to
    /// sequential `put_conflict` calls: same uids and the same set of
    /// untagged heads per key.
    #[test]
    fn untagged_batch_matches_sequential(
        values in prop::collection::vec("[a-z]{1,8}", 1..12)
    ) {
        let batched = ForkBase::in_memory();
        let base_b = batched.put_conflict("k", None, Value::Int(0)).expect("genesis");
        let commits: Vec<Commit<'_>> = values
            .iter()
            .map(|v| Commit::untagged("k", Some(base_b), Payload::Value(Value::String(v.clone()))))
            .collect();
        let uids_batch = batched.commit_all(&commits).expect("untagged batch");

        let seq = ForkBase::in_memory();
        let base_s = seq.put_conflict("k", None, Value::Int(0)).expect("genesis");
        prop_assert_eq!(base_b, base_s);
        let uids_seq: Vec<_> = values
            .iter()
            .map(|v| seq.put_conflict("k", Some(base_s), Value::String(v.clone())).expect("put"))
            .collect();

        prop_assert_eq!(uids_batch, uids_seq);
        let mut heads_b = batched.list_untagged_branches("k").expect("list");
        let mut heads_s = seq.list_untagged_branches("k").expect("list");
        heads_b.sort();
        heads_s.sort();
        prop_assert_eq!(heads_b, heads_s);
    }
}
