//! Cross-crate integration: the engine over persistent and distributed
//! chunk stores, end-to-end fork/merge workflows, and tamper evidence.

use forkbase::chunk::LogStore;
use forkbase::core::{verify_history, FObject};
use forkbase::{ChunkerConfig, ForkBase, Resolver, Value, WriteBatch, DEFAULT_BRANCH};
use std::sync::Arc;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "forkbase-int-{tag}-{}-{}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos()
    ))
}

#[test]
fn versions_survive_store_reopen() {
    let path = temp_path("reopen");
    let (uid, blob_content) = {
        let store = Arc::new(LogStore::open(&path).expect("open"));
        let db = ForkBase::with_store(store.clone(), ChunkerConfig::default());
        let blob = db.new_blob(b"durable content across restarts");
        let uid = db.put("doc", None, Value::Blob(blob)).expect("put");
        store.sync().expect("sync");
        (uid, b"durable content across restarts".to_vec())
    };

    // Reopen the log: chunks (and hence versions) are recoverable by uid.
    let store = Arc::new(LogStore::open(&path).expect("reopen"));
    let obj = FObject::load(store.as_ref(), uid).expect("version recovered");
    let blob = obj
        .value(store.as_ref())
        .expect("decode")
        .as_blob()
        .expect("blob");
    assert_eq!(blob.read_all(store.as_ref()).expect("read"), blob_content);
    // Full tamper-evidence verification passes on the recovered store.
    verify_history(store.as_ref(), uid).expect("verifies");
    std::fs::remove_dir_all(path).ok();
}

#[test]
fn full_restart_with_checkpoint() {
    // Beyond chunk durability: the branch tables themselves survive a
    // restart via checkpoint/restore, and the reopened instance is fully
    // functional (reads, branch ops, new writes, conflict detection).
    let path = temp_path("ckpt");
    let checkpoint = {
        let store = Arc::new(LogStore::open(&path).expect("open"));
        let db = ForkBase::with_store(store.clone(), ChunkerConfig::default());
        db.put("doc", None, Value::String("v1".into()))
            .expect("put");
        db.fork("doc", DEFAULT_BRANCH, "feature").expect("fork");
        db.put("doc", Some("feature"), Value::String("feature work".into()))
            .expect("put");
        let base = db
            .put_conflict("counter", None, Value::Int(0))
            .expect("genesis");
        db.put_conflict("counter", Some(base), Value::Int(1))
            .expect("w1");
        db.put_conflict("counter", Some(base), Value::Int(2))
            .expect("w2");
        let cid = db.checkpoint();
        store.sync().expect("sync");
        cid
    };

    let store = Arc::new(LogStore::open(&path).expect("reopen"));
    let db = ForkBase::restore(store, ChunkerConfig::default(), checkpoint).expect("restore");

    // Tagged branches recovered.
    assert_eq!(
        db.get_value("doc", Some("feature")).expect("get"),
        Value::String("feature work".into())
    );
    assert_eq!(
        db.get_value("doc", None).expect("get"),
        Value::String("v1".into())
    );
    // Untagged (fork-on-conflict) heads recovered, conflict still visible.
    assert_eq!(db.list_untagged_branches("counter").expect("list").len(), 2);
    // The instance accepts new work continuing the recovered history.
    db.put("doc", Some("feature"), Value::String("post-restart".into()))
        .expect("put");
    let obj = db.get("doc", Some("feature")).expect("get");
    assert_eq!(obj.depth, 2, "history depth continues across restart");
    // And the whole recovered + extended history verifies.
    verify_history(db.store(), obj.uid()).expect("verifies");
    std::fs::remove_dir_all(path).ok();
}

#[test]
fn gc_reclaims_only_unreachable_data() {
    use forkbase::core::gc;

    let path = temp_path("gc");
    let keep: Vec<u8> = (0..150_000u32).flat_map(|i| i.to_le_bytes()).collect();
    let scrap: Vec<u8> = (0..150_000u32)
        .flat_map(|i| (i ^ 0xDEAD_BEEF).to_le_bytes())
        .collect();
    let head = {
        let db = ForkBase::open(&path).expect("open");
        db.put("data", None, Value::Blob(db.new_blob(&keep)))
            .expect("put");
        db.fork("data", DEFAULT_BRANCH, "experiment").expect("fork");
        db.put("data", Some("experiment"), Value::Blob(db.new_blob(&scrap)))
            .expect("put");
        db.remove_branch("data", "experiment").expect("remove");

        let report = gc::compact_in_place(&db).expect("gc");
        assert!(
            report.dropped_bytes > 400_000,
            "experiment data reclaimed ({}B dropped)",
            report.dropped_bytes
        );
        db.head("data", None).expect("head")
    };
    // The kept branch round-trips from the compacted segments.
    let db = ForkBase::open(&path).expect("reopen");
    assert_eq!(db.head("data", None).expect("head"), head);
    let blob = db.get_value("data", None).expect("v").as_blob().expect("b");
    assert_eq!(blob.read_all(db.store()).expect("read"), keep);
    verify_history(db.store(), head).expect("verifies");
    drop(db);
    std::fs::remove_dir_all(path).ok();
}

#[test]
fn collaborative_fork_merge_workflow() {
    // Two teams fork a shared config map, work independently, then merge
    // both branches back.
    let db = ForkBase::in_memory();
    let map = db.new_map([("timeout", "30"), ("retries", "3"), ("host", "prod")]);
    db.put("config", None, Value::Map(map)).expect("put");

    db.fork("config", DEFAULT_BRANCH, "team-a").expect("fork");
    db.fork("config", DEFAULT_BRANCH, "team-b").expect("fork");

    let edit = |branch: &str, key: &str, value: &str| {
        let map = db
            .get_value("config", Some(branch))
            .expect("get")
            .as_map()
            .expect("map");
        let map = map
            .put(db.store(), db.cfg(), key.to_string(), value.to_string())
            .expect("map put");
        db.put("config", Some(branch), Value::Map(map))
            .expect("put");
    };
    edit("team-a", "timeout", "60");
    edit("team-b", "retries", "5");
    edit("team-b", "pool", "16");

    db.merge_branches("config", DEFAULT_BRANCH, "team-a", &Resolver::Fail)
        .expect("merge a");
    db.merge_branches("config", DEFAULT_BRANCH, "team-b", &Resolver::Fail)
        .expect("merge b");

    let merged = db
        .get_value("config", None)
        .expect("get")
        .as_map()
        .expect("map");
    let get = |k: &str| {
        String::from_utf8(merged.get(db.store(), k.as_bytes()).expect("hit").to_vec())
            .expect("utf8")
    };
    assert_eq!(get("timeout"), "60");
    assert_eq!(get("retries"), "5");
    assert_eq!(get("pool"), "16");
    assert_eq!(get("host"), "prod");

    // The merged history is fully verifiable.
    let head = db.head("config", None).expect("head");
    let report = verify_history(db.store(), head).expect("verifies");
    assert!(report.verified_versions >= 5);
}

#[test]
fn fork_on_conflict_workflow_with_resolution() {
    // Decentralized counters: two sites update the same base concurrently,
    // the conflict is detected via the UB-table and resolved by aggregate.
    let db = ForkBase::in_memory();
    let base = db
        .put_conflict("counter", None, Value::Int(100))
        .expect("genesis");

    let site_a = db
        .put_conflict("counter", Some(base), Value::Int(130))
        .expect("site a");
    let site_b = db
        .put_conflict("counter", Some(base), Value::Int(95))
        .expect("site b");

    let heads = db.list_untagged_branches("counter").expect("list");
    assert_eq!(heads.len(), 2, "conflict detected");

    let merged = db
        .merge_versions("counter", &heads, &Resolver::Aggregate)
        .expect("merge");
    assert_eq!(
        db.list_untagged_branches("counter").expect("list"),
        vec![merged],
        "conflict resolved to a single head"
    );
    let value = db
        .get_version("counter", merged)
        .expect("get")
        .value(db.store())
        .expect("decode");
    assert_eq!(value, Value::Int(125), "100 + 30 - 5");

    // LCA of the two sites is the common base.
    assert_eq!(db.lca("counter", site_a, site_b).expect("lca"), Some(base));
}

#[test]
fn dedup_across_keys_and_branches() {
    // The same large content stored under many keys/branches costs one
    // set of chunks (§2.1: cross-dataset dedup).
    let db = ForkBase::in_memory();
    let content: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();

    db.put("copy-1", None, Value::Blob(db.new_blob(&content)))
        .expect("put");
    let after_one = db.store().stats().stored_bytes;
    for i in 2..=5 {
        db.put(
            format!("copy-{i}"),
            None,
            Value::Blob(db.new_blob(&content)),
        )
        .expect("put");
    }
    let after_five = db.store().stats().stored_bytes;
    let overhead = after_five - after_one;
    assert!(
        overhead < after_one / 20,
        "4 more copies cost {overhead}B over {after_one}B — dedup failed"
    );
}

#[test]
fn access_control_gates_branch_writes() {
    use forkbase::{AccessControl, Permission};
    // The Figure 1 scenario: admin A owns master, admin B owns a branch.
    let mut acl = AccessControl::deny_by_default();
    acl.allow("admin-a", None, Some("master"), Permission::Write);
    acl.allow("admin-b", None, Some("exp"), Permission::Write);
    acl.allow("admin-a", None, None, Permission::Read);
    acl.allow("admin-b", None, None, Permission::Read);

    let db = ForkBase::in_memory();
    // Application-side enforcement (the view layer of Fig. 1).
    let guarded_put = |user: &str, branch: &str, value: Value| -> forkbase::Result<()> {
        if !acl.check(user, "doc", branch, Permission::Write) {
            return Err(forkbase::FbError::AccessDenied(format!(
                "{user} on {branch}"
            )));
        }
        let b = if branch == DEFAULT_BRANCH {
            None
        } else {
            Some(branch)
        };
        db.put("doc", b, value).map(|_| ())
    };

    guarded_put("admin-a", "master", Value::Int(1)).expect("a writes master");
    db.fork("doc", DEFAULT_BRANCH, "exp").expect("fork");
    guarded_put("admin-b", "exp", Value::Int(2)).expect("b writes exp");
    let err = guarded_put("admin-b", "master", Value::Int(3)).expect_err("b blocked");
    assert!(matches!(err, forkbase::FbError::AccessDenied(_)));
}

#[test]
fn primitive_types_round_trip_through_engine() {
    let db = ForkBase::in_memory();
    let tuple = Value::Tuple(vec![
        bytes::Bytes::from("field-1"),
        bytes::Bytes::from("field-2"),
    ]);
    for (key, value) in [
        ("b", Value::Bool(true)),
        ("i", Value::Int(-99)),
        ("s", Value::String("primitive".into())),
        ("t", tuple.clone()),
    ] {
        db.put(key, None, value.clone()).expect("put");
        assert_eq!(db.get_value(key, None).expect("get"), value);
    }
    // Primitive meta chunks embed the value: a Get needs exactly one
    // chunk fetch (the "Get-X-Meta is fast" effect in Table 3).
    let gets_before = db.store().stats().gets;
    db.get_value("t", None).expect("get");
    assert_eq!(db.store().stats().gets - gets_before, 1);
}

#[test]
fn batched_map_commit_end_to_end() {
    // The batch write path through the facade: a WriteBatch applied as
    // one splice and committed as one version, equal in root cid to the
    // sequential put/del fold, with history verifiable afterwards.
    let db = ForkBase::in_memory();
    let base = db.new_map((0..2000).map(|i| (format!("k{i:05}"), format!("v{i}"))));
    db.put("ledger", None, Value::Map(base)).expect("put");

    let mut wb = WriteBatch::new();
    for i in (0..2000).step_by(7) {
        wb.put(format!("k{i:05}"), format!("batched-{i}"));
    }
    wb.delete("k00003").put("zzz", "tail").delete("k00003");
    let uid = db.commit_map_batch("ledger", None, wb).expect("commit");

    // Same edits, folded sequentially over the same base map.
    let mut seq = db
        .get_version("ledger", db.get("ledger", None).expect("head").bases[0])
        .expect("base version")
        .value(db.store())
        .expect("value")
        .as_map()
        .expect("map");
    for i in (0..2000).step_by(7) {
        seq = seq
            .put(
                db.store(),
                db.cfg(),
                format!("k{i:05}"),
                format!("batched-{i}"),
            )
            .expect("put");
    }
    seq = seq.del(db.store(), db.cfg(), "k00003").expect("del");
    seq = seq.put(db.store(), db.cfg(), "zzz", "tail").expect("put");
    seq = seq.del(db.store(), db.cfg(), "k00003").expect("del");

    let committed = db
        .get_value("ledger", None)
        .expect("get")
        .as_map()
        .expect("map");
    assert_eq!(committed.root(), seq.root(), "batch == sequential fold");
    assert_eq!(
        committed.get(db.store(), b"zzz").expect("tail").as_ref(),
        b"tail"
    );
    assert!(committed.get(db.store(), b"k00003").is_none());

    // The committed version chains onto the previous head and verifies.
    let obj = db.get("ledger", None).expect("get");
    assert_eq!(obj.uid(), uid);
    assert_eq!(obj.depth, 1);
    verify_history(db.store(), uid).expect("tamper-evident history");
}

#[test]
fn put_many_over_persistent_store() {
    let path = temp_path("put-many");
    {
        let store = Arc::new(LogStore::open(&path).expect("open"));
        let db = ForkBase::with_store(store.clone(), ChunkerConfig::default());
        db.put_many(
            None,
            (0..50).map(|i| (format!("key-{i:02}"), Value::Int(i))),
        )
        .expect("put_many");
        store.sync().expect("sync");
        let cp = db.checkpoint();
        store.sync().expect("sync");
        std::fs::write(path.with_extension("cp"), cp.as_bytes()).expect("save cp");
    }
    let store = Arc::new(LogStore::open(&path).expect("reopen"));
    let cp_bytes = std::fs::read(path.with_extension("cp")).expect("read cp");
    let cp = forkbase::Digest::from_slice(&cp_bytes).expect("digest");
    let db = ForkBase::restore(store, ChunkerConfig::default(), cp).expect("restore");
    for i in (0..50).step_by(9) {
        assert_eq!(
            db.get_value(format!("key-{i:02}"), None).expect("get"),
            Value::Int(i)
        );
    }
    std::fs::remove_file(path.with_extension("cp")).ok();
    std::fs::remove_dir_all(path).ok();
}
