//! Property tests on the engine: branch semantics, uid stability, and
//! the key-value model equivalence on the default branch.

use forkbase_core::{Commit, Digest, FbError, ForkBase, Payload, Target, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// A guarded put (§4.5.1) of `value` to key `k`'s `branch`.
fn guarded(branch: Option<&str>, value: Value, guard: Digest) -> Commit<'_> {
    Commit {
        guard: Some(guard),
        ..Commit::branch("k", branch, Payload::Value(value))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §3.1: with only the default branch, ForkBase behaves as a plain
    /// key-value store (last write wins).
    #[test]
    fn default_branch_is_kv_store(
        writes in prop::collection::vec(("[a-c]{1,3}", "[a-z]{0,12}"), 1..60)
    ) {
        let db = ForkBase::in_memory();
        let mut model: HashMap<String, String> = HashMap::new();
        for (k, v) in &writes {
            db.put(k.clone(), None, Value::String(v.clone())).expect("put");
            model.insert(k.clone(), v.clone());
        }
        for (k, v) in &model {
            let got = db.get_value(k.clone(), None).expect("get");
            prop_assert_eq!(got, Value::String(v.clone()));
        }
        // Version chains have the right depth: number of writes - 1.
        let mut write_counts: HashMap<&String, u64> = HashMap::new();
        for (k, _) in &writes {
            *write_counts.entry(k).or_default() += 1;
        }
        for (k, count) in write_counts {
            let obj = db.get(k.clone(), None).expect("get");
            prop_assert_eq!(obj.depth, count - 1, "depth counts prior versions");
        }
    }

    /// uids are injective over (value, history): re-putting an identical
    /// value yields a different uid (the base changed), while identical
    /// (value, base, depth) commits collide.
    #[test]
    fn uid_reflects_value_and_history(v in "[a-z]{1,12}") {
        let db = ForkBase::in_memory();
        let u1 = db.put("k", None, Value::String(v.clone())).expect("put");
        let u2 = db.put("k", None, Value::String(v.clone())).expect("put");
        prop_assert_ne!(u1, u2, "same value, different history");

        // A fresh database reproduces u1 exactly (content-derived ids).
        let db2 = ForkBase::in_memory();
        let u1_again = db2.put("k", None, Value::String(v)).expect("put");
        prop_assert_eq!(u1, u1_again);
    }

    /// Forked branches evolve independently; the fork point stays the LCA.
    #[test]
    fn fork_isolation(
        master_writes in prop::collection::vec("[a-z]{1,8}", 1..8),
        branch_writes in prop::collection::vec("[a-z]{1,8}", 1..8),
    ) {
        let db = ForkBase::in_memory();
        let fork_point = db.put("k", None, Value::String("base".into())).expect("put");
        db.fork("k", "master", "dev").expect("fork");

        for w in &master_writes {
            db.put("k", None, Value::String(w.clone())).expect("put");
        }
        for w in &branch_writes {
            db.put("k", Some("dev"), Value::String(w.clone())).expect("put");
        }

        let m = db.get_value("k", None).expect("get");
        let d = db.get_value("k", Some("dev")).expect("get");
        prop_assert_eq!(m, Value::String(master_writes.last().expect("non-empty").clone()));
        prop_assert_eq!(d, Value::String(branch_writes.last().expect("non-empty").clone()));

        let lca = db
            .lca(
                "k",
                db.head("k", None).expect("head"),
                db.head("k", Some("dev")).expect("head"),
            )
            .expect("lca");
        prop_assert_eq!(lca, Some(fork_point));
    }

    /// Guarded puts serialize: exactly one of two guards against the same
    /// head can win.
    #[test]
    fn guarded_put_serializes(v1 in "[a-z]{1,6}", v2 in "[A-Z]{1,6}") {
        let db = ForkBase::in_memory();
        let head = db.put("k", None, Value::String("init".into())).expect("put");
        let r1 = db.commit(guarded(None, Value::String(v1), head));
        let r2 = db.commit(guarded(None, Value::String(v2), head));
        prop_assert!(r1.is_ok());
        let guard_failed = matches!(r2, Err(FbError::GuardFailed { .. }));
        prop_assert!(guard_failed);
    }

    /// What a guarded put reports is part of its contract: the branch
    /// when there is no head to guard, both uids when the guard is stale
    /// — whichever side of the commit pipeline notices.
    #[test]
    fn guarded_put_error_values(v in "[a-z]{1,6}") {
        let db = ForkBase::in_memory();
        let stale = db.put("other", None, Value::Int(0)).expect("put");
        let value = || Value::String(v.clone());
        prop_assert_eq!(
            db.commit(guarded(None, value(), stale)),
            Err(FbError::BranchNotFound("master".into()))
        );
        let head = db.put("k", None, value()).expect("put");
        prop_assert_eq!(
            db.commit(guarded(Some("dev"), value(), head)),
            Err(FbError::BranchNotFound("dev".into()))
        );
        prop_assert_eq!(
            db.commit(guarded(None, value(), stale)),
            Err(FbError::GuardFailed { expected: stale, actual: head })
        );
        // Two puts guarded on one head in one batch: the second meets
        // the first, not the head, and the batch moves nothing.
        let on_head = |s: &str| guarded(None, Value::String(s.into()), head);
        let result = db.commit_all(&[on_head("a"), on_head("b")]);
        let met_first = matches!(
            result,
            Err(FbError::GuardFailed { expected, actual }) if expected == head && actual != head
        );
        prop_assert!(met_first);
        prop_assert_eq!(db.head("k", None), Ok(head), "a failed guard moves nothing");
    }

    /// A `Target::Chained` run is a loop of untagged commits, each on
    /// the uid before it: the same uids, the same single new head.
    #[test]
    fn chained_commits_match_linked_untagged_commits(
        fresh in any::<bool>(),
        items in prop::collection::vec(("[a-z]{0,6}", "[a-z]{0,6}"), 0..8),
    ) {
        let chained = ForkBase::in_memory();
        let looped = ForkBase::in_memory();
        let mut base = None;
        if !fresh {
            base = Some(chained.put_conflict("k", None, Value::Int(0)).expect("genesis"));
            prop_assert_eq!(looped.put_conflict("k", None, Value::Int(0)), Ok(base.expect("set")));
        }
        let untagged = |base, (v, c): &(String, String)| Commit {
            context: c.clone().into(),
            ..Commit::untagged("k", base, Payload::Value(Value::String(v.clone())))
        };
        let mut target = Target::Untagged { base };
        let commits: Vec<Commit<'_>> = items
            .iter()
            .map(|item| Commit {
                target: std::mem::replace(&mut target, Target::Chained),
                ..untagged(None, item)
            })
            .collect();
        let uids = chained.commit_all(&commits).expect("chained commits");
        let mut parent = base;
        for (item, uid) in items.iter().zip(&uids) {
            let linked = looped.commit(untagged(parent, item)).expect("untagged commit");
            prop_assert_eq!(linked, *uid);
            parent = Some(linked);
        }
        prop_assert_eq!(uids.len(), items.len());
        prop_assert_eq!(
            chained.list_untagged_branches("k").ok(),
            looped.list_untagged_branches("k").ok()
        );
    }

    /// FoC puts accumulate untagged heads; merging them all restores a
    /// single head.
    #[test]
    fn foc_heads_merge_to_one(n in 2usize..6) {
        let db = ForkBase::in_memory();
        let base = db.put_conflict("k", None, Value::Int(0)).expect("genesis");
        for i in 0..n {
            db.put_conflict("k", Some(base), Value::Int(i as i64 + 1)).expect("put");
        }
        let heads = db.list_untagged_branches("k").expect("list");
        prop_assert_eq!(heads.len(), n);
        let merged = db
            .merge_versions("k", &heads, &forkbase_pos::Resolver::TakeOurs)
            .expect("merge");
        prop_assert_eq!(db.list_untagged_branches("k").expect("list"), vec![merged]);
    }
}
