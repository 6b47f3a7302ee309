//! Concurrency tests for the engine.
//!
//! §4.5.1: "Concurrent updates on a tagged branch are serialized by the
//! servlet." These tests drive the engine from many threads and check the
//! serialization guarantees — and, critically, that no code path
//! self-deadlocks on the branch-table lock (a regression test for a real
//! bug: `put` once re-acquired the non-reentrant lock inside `commit`).

use forkbase_core::{ForkBase, Resolver, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Run `f` on a fresh engine but fail the test if it wedges — turns a
/// deadlock into a failure instead of a hung suite.
fn with_deadline<F: FnOnce(Arc<ForkBase>) + Send + 'static>(secs: u64, f: F) {
    let db = Arc::new(ForkBase::in_memory());
    let handle = thread::spawn(move || f(db));
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "test body did not finish within {secs}s — deadlock?"
        );
        thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("test body panicked");
}

#[test]
fn single_put_does_not_deadlock() {
    // The minimal regression: the first Put ever issued must return.
    with_deadline(30, |db| {
        db.put("k", None, Value::Int(1)).expect("put");
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(1));
    });
}

#[test]
fn concurrent_puts_same_branch_serialize() {
    with_deadline(120, |db| {
        let threads = 8;
        let per_thread = 50;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        db.put("shared", None, Value::Int((t * 1000 + i) as i64))
                            .expect("put");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        // All puts linearized onto one chain: depth counts every commit.
        let head = db.get("shared", None).expect("get");
        assert_eq!(head.depth as usize, threads * per_thread - 1);
        // Exactly one untagged head (no accidental forks through M3).
        assert_eq!(db.list_untagged_branches("shared").expect("list").len(), 1);
    });
}

#[test]
fn concurrent_guarded_puts_exactly_one_winner() {
    with_deadline(60, |db| {
        let base = db.put("k", None, Value::Int(0)).expect("put");
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    if db
                        .put_guarded("k", None, Value::Int(t as i64 + 1), base)
                        .is_ok()
                    {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(
            wins.load(Ordering::SeqCst),
            1,
            "compare-and-swap semantics: one winner"
        );
    });
}

#[test]
fn concurrent_foc_puts_all_become_heads() {
    with_deadline(60, |db| {
        let base = db.put_conflict("k", None, Value::Int(0)).expect("genesis");
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    db.put_conflict("k", Some(base), Value::Int(t as i64 + 1))
                        .expect("put")
                })
            })
            .collect();
        let mut heads: Vec<_> = handles.into_iter().map(|h| h.join().expect("ok")).collect();
        heads.sort();
        let mut listed = db.list_untagged_branches("k").expect("list");
        listed.sort();
        assert_eq!(listed, heads, "every concurrent writer forked a head");

        // The application resolves the conflict by merging them all.
        let merged = db
            .merge_versions("k", &listed, &Resolver::Aggregate)
            .expect("merge");
        assert_eq!(db.list_untagged_branches("k").expect("list"), vec![merged]);
    });
}

#[test]
fn concurrent_forks_and_puts_across_branches() {
    with_deadline(120, |db| {
        db.put("doc", None, Value::String("base".into()))
            .expect("put");
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    let branch = format!("user-{t}");
                    db.fork("doc", "master", &branch).expect("fork");
                    for i in 0..20 {
                        db.put("doc", Some(&branch), Value::String(format!("u{t} v{i}")))
                            .expect("put");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(
            db.list_tagged_branches("doc").expect("list").len(),
            9,
            "master + 8 user branches"
        );
        // Branch isolation held under concurrency.
        assert_eq!(
            db.get_value("doc", None).expect("get"),
            Value::String("base".into())
        );
        for t in 0..8 {
            assert_eq!(
                db.get_value("doc", Some(&format!("user-{t}")))
                    .expect("get"),
                Value::String(format!("u{t} v19"))
            );
        }
    });
}

#[test]
fn readers_run_against_writers() {
    with_deadline(120, |db| {
        db.put("k", None, Value::Int(0)).expect("put");
        let stop = Arc::new(AtomicUsize::new(0));
        let writer = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 1i64;
                while stop.load(Ordering::Relaxed) == 0 {
                    db.put("k", None, Value::Int(i)).expect("put");
                    i += 1;
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    let mut last = -1i64;
                    for _ in 0..500 {
                        let v = db.get_value("k", None).expect("get").as_int().expect("int");
                        assert!(v >= last, "branch head must move forward, {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader ok");
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().expect("writer ok");
    });
}

#[test]
fn concurrent_distinct_keys_are_independent() {
    with_deadline(120, |db| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("k{t}");
                        db.put(key.clone(), None, Value::Int(i)).expect("put");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(db.list_keys().len(), 8);
        for t in 0..8 {
            assert_eq!(
                db.get_value(format!("k{t}"), None).expect("get"),
                Value::Int(49)
            );
        }
    });
}

/// `commit_checkpoint` from many threads at once, each after a `put` of
/// its own: checkpoints are serialized, capture and root record together,
/// so the log's last root is the last capture — which saw every put,
/// since each thread's puts come before its own last checkpoint. A crash
/// right after the last acknowledgement reopens to exactly the live
/// tables.
#[test]
fn reopen_restores_the_last_acknowledged_checkpoint() {
    use forkbase_chunk::{CacheConfig, Durability};
    let dir = std::env::temp_dir().join(format!(
        "forkbase-ckpt-race-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos()
    ));
    std::fs::remove_dir_all(&dir).ok();
    // `Always`, hot tier off: no background thread, so forgetting the
    // handle is a crash.
    let open = || {
        ForkBase::open_with(
            &dir,
            Default::default(),
            Durability::Always,
            CacheConfig::default(),
            Default::default(),
        )
        .expect("open")
    };
    let db = Arc::new(open());
    let acknowledged: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let mut last = None;
                    for i in 0..16 {
                        db.put(format!("k{t}"), None, Value::Int(i)).expect("put");
                        db.put("shared", None, Value::Int(t * 100 + i))
                            .expect("put");
                        last = Some(db.commit_checkpoint().expect("checkpoint"));
                    }
                    last.expect("16 checkpoints")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    let live = db.snapshot_branches();
    let root = db.durable_store().expect("durable").root().expect("a root");
    assert!(
        acknowledged.contains(&root),
        "the root is some thread's last checkpoint"
    );
    assert_eq!(db.checkpoints_committed(), 64);
    std::mem::forget(Arc::into_inner(db).expect("threads joined"));

    let db = open();
    assert_eq!(db.durable_store().expect("durable").root(), Some(root));
    assert_eq!(db.snapshot_branches(), live, "nothing acknowledged is lost");
    for t in 0..4 {
        assert_eq!(
            db.get_value(format!("k{t}"), None).expect("restored"),
            Value::Int(15)
        );
    }
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}
