//! The recovery point is a root record in the chunk log.
//!
//! 1. **Crash sweep** — a log that ends `[… checkpoint A][root A] …
//!    [checkpoint B][root B]` is truncated (and, separately, has one byte
//!    flipped) at every offset of the last `[checkpoint B][root B]`
//!    window; `ForkBase::open` restores exactly A's branch tables — B's
//!    only from the undamaged log — and every restored head's history
//!    verifies. The `LogStore`-level twin, with rotations, is
//!    `logstore_recovery.rs`.
//! 2. **One fsync per block** — a block commit (hot writes, flush,
//!    block append) fsyncs the log once and nothing else.
//! 3. **Old directories** — a `HEAD` file left by a build that kept the
//!    recovery point beside the log is ignored.

use forkbase_chunk::{CacheConfig, Durability};
use forkbase_core::{
    verify_history, BranchSnapshot, ChunkerConfig, ForkBase, HotTierConfig, Value, WriteBatch,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "forkbase-rootrec-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("ls") {
        let p = entry.expect("entry").path();
        std::fs::copy(&p, dst.join(p.file_name().expect("name"))).expect("copy");
    }
}

/// `Always`, no hot tier, no flusher thread: nothing writes behind the
/// test's back, and a `mem::forget` of the handle is a crash.
fn open(dir: &Path) -> ForkBase {
    ForkBase::open_with(
        dir,
        ChunkerConfig::default(),
        Durability::Always,
        CacheConfig::default(),
        HotTierConfig::default(),
    )
    .expect("open")
}

/// Open `dir`, check it holds exactly `want`, and verify the history of
/// every head it restored.
fn assert_restores(dir: &Path, want: &BranchSnapshot, what: &str) {
    let db = open(dir);
    let got = db.snapshot_branches();
    assert_eq!(&got, want, "{what}");
    for (_, tagged, untagged) in &got.entries {
        for head in tagged.iter().map(|(_, h)| h).chain(untagged) {
            verify_history(db.store(), *head).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

#[test]
fn open_restores_a_or_b_at_every_cut_of_the_last_window() {
    let dir = temp_dir("sweep");
    let db = open(&dir);
    db.put("doc", None, Value::String("v1".into()))
        .expect("put");
    db.put("cfg", None, Value::Int(1)).expect("put");
    db.fork("doc", "master", "draft").expect("fork");
    db.commit_checkpoint().expect("checkpoint A");
    let a = db.snapshot_branches();

    db.put("doc", Some("draft"), Value::String("v2".into()))
        .expect("put");
    db.put("cfg", None, Value::Int(2)).expect("put");
    db.put("new", None, Value::Blob(db.new_blob(&[7u8; 10_000])))
        .expect("put");
    let base = db.head("doc", None).expect("head");
    db.put_conflict("doc", Some(base), Value::String("side".into()))
        .expect("untagged head");
    let b_cid = db.commit_checkpoint().expect("checkpoint B");
    let b = db.snapshot_branches();
    assert_ne!(a, b);
    let ckpt_len = db.store().get(&b_cid).expect("checkpoint B").len() as u64;
    std::mem::forget(db); // crash: no clean close, no snapshot

    assert_restores(&dir, &b, "undamaged log");
    assert!(
        !dir.join("snapshot.idx").exists(),
        "a session that appended nothing leaves no snapshot: the sweep is over the log alone"
    );
    let seg = dir.join("seg-000000.log");
    let len = std::fs::metadata(&seg).expect("meta").len();
    let window = len - (41 + ckpt_len) - (41 + 32)..len;

    for off in window {
        let scratch = temp_dir("sweep-cut");
        copy_store(&dir, &scratch);
        std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("seg-000000.log"))
            .expect("open")
            .set_len(off)
            .expect("truncate");
        assert_restores(&scratch, &a, &format!("cut at {off} of {len}"));
        std::fs::remove_dir_all(&scratch).ok();

        let scratch = temp_dir("sweep-flip");
        copy_store(&dir, &scratch);
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes[off as usize] ^= 0x01;
        std::fs::write(scratch.join("seg-000000.log"), bytes).expect("write");
        assert_restores(&scratch, &a, &format!("flip at {off} of {len}"));
        std::fs::remove_dir_all(&scratch).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_block_commit_is_one_fsync() {
    let dir = temp_dir("fsync");
    // Nothing but the commit barrier itself may sync: no size or time
    // window on the log, no publish timer on the hot tier.
    let db = ForkBase::open_with(
        &dir,
        ChunkerConfig::default(),
        Durability::Batch {
            max_records: usize::MAX,
            interval: Duration::from_secs(3600),
        },
        CacheConfig::default(),
        HotTierConfig {
            enabled: true,
            publish_batch: 1 << 20,
            publish_interval: Duration::from_secs(3600),
        },
    )
    .expect("open");
    let account = |i: u32| format!("account-{i:06}");
    let preload = (0..20_000u32).map(|i| (account(i).into(), Some(vec![1u8; 100].into())));
    db.hot_put_many("state", preload).expect("preload");
    db.flush_hot().expect("flush");
    let mut tip = db
        .put_conflict("blocks", None, Value::String("genesis".into()))
        .expect("genesis");

    let log = db.durable_store().expect("durable").clone();
    for block in 1..=5u32 {
        let before = (log.fsync_count(), db.checkpoints_committed());
        let updates = (0..64u32).map(|t| {
            let value = vec![block as u8; 100];
            (
                account((block * 7919 + t * 311) % 20_000).into(),
                Some(value.into()),
            )
        });
        db.hot_put_many("state", updates).expect("state writes");
        db.flush_hot().expect("flush");
        assert_eq!(
            log.root(),
            Some(db.checkpoint()),
            "the root is that checkpoint"
        );
        tip = db
            .put_conflict(
                "blocks",
                Some(tip),
                Value::Blob(db.new_blob(&[block as u8; 4096])),
            )
            .expect("append block");
        assert_eq!(
            (
                log.fsync_count() - before.0,
                db.checkpoints_committed() - before.1
            ),
            (1, 1),
            "block {block}: one checkpoint, one fsync"
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_head_file_is_ignored() {
    let dir = temp_dir("stale-head");
    let db = open(&dir);
    db.put("k", None, Value::Int(1)).expect("put");
    let old = db.commit_checkpoint().expect("checkpoint");
    db.put("k", None, Value::Int(2)).expect("put");
    let mut batch = WriteBatch::new();
    batch.put("field", "value");
    db.commit_map_batch("m", None, batch).expect("map");
    db.commit_checkpoint().expect("checkpoint");
    let want = db.snapshot_branches();
    drop(db);

    // What an older build would have left: a ref file naming a checkpoint
    // the log has since moved past — and, separately, garbage.
    for head in [old.to_hex(), "not a cid".to_string()] {
        std::fs::write(dir.join("HEAD"), head).expect("write HEAD");
        assert_restores(&dir, &want, "stale HEAD");
    }
    std::fs::remove_dir_all(&dir).ok();
}
