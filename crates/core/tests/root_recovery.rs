//! The recovery point is a root record in the chunk log.
//!
//! 1. **Crash sweep** — a log that ends `[… checkpoint A][root A] …
//!    [checkpoint B][root B]` is truncated (and, separately, has one byte
//!    flipped) at every offset of the last `[checkpoint B][root B]`
//!    window; `ForkBase::open` restores exactly A's branch tables — B's
//!    only from the undamaged log — and every restored head's history
//!    verifies. The `LogStore`-level twin, with rotations, is
//!    `logstore_recovery.rs`.
//!    The same sweep runs over a checkpoint that lists hot-tier journal
//!    Blobs (`persist_hot`): every cut recovers exactly A's state.
//! 2. **One fsync per block** — a block commit (hot writes, flush,
//!    block append) fsyncs the log once and nothing else; with
//!    `persist_hot` as the barrier, too, and no publish round runs.
//! 3. **Old directories** — a `HEAD` file left by a build that kept the
//!    recovery point beside the log is ignored.

use bytes::Bytes;
use forkbase_chunk::{CacheConfig, Durability};
use forkbase_core::{
    verify_history, BranchSnapshot, ChunkerConfig, ForkBase, HotTierConfig, Value, WriteBatch,
};
use std::collections::BTreeMap;
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

/// `Always`, the hot tier on with a queue no test fills: only
/// `persist_hot` and explicit barriers write.
fn open_held(dir: &Path) -> ForkBase {
    ForkBase::open_with(
        dir,
        ChunkerConfig::default(),
        Durability::Always,
        CacheConfig::default(),
        HotTierConfig {
            enabled: true,
            publish_batch: 1 << 20,
            ..HotTierConfig::on()
        },
    )
    .expect("open")
}

type Model = BTreeMap<Bytes, Option<Bytes>>;

/// Block `n`'s state writes: overwrites of earlier accounts, fresh
/// ones, and one delete.
fn block_edits(n: u32) -> Vec<(Bytes, Option<Bytes>)> {
    (0..24u32)
        .map(|t| {
            let account = Bytes::from(format!("acct{:04}", (n * 13 + t * 7) % 90));
            let value = (t != 5).then(|| Bytes::from(format!("block{n}-txn{t}")));
            (account, value)
        })
        .collect()
}

/// Every account the model knows reads as the model says, and the
/// state key's history verifies.
fn assert_state(db: &ForkBase, model: &Model, what: &str) {
    for (account, value) in model {
        let got = db.hot_get("state", account).expect("read");
        assert_eq!(&got, value, "{what}: {account:?}");
    }
    let head = db.head("state", None).expect("state head");
    verify_history(db.store(), head).unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn a_journal_listing_root_survives_every_cut_of_its_window() {
    let dir = temp_dir("journal-sweep");
    let db = open_held(&dir);
    let mut model = Model::new();
    let preload: Vec<_> = (0..90u32)
        .map(|a| (Bytes::from(format!("acct{a:04}")), Some(Bytes::from("0"))))
        .collect();
    model.extend(preload.iter().cloned());
    db.hot_put_many("state", preload).expect("preload");
    db.flush_hot().expect("flush");
    for n in 1..=2 {
        let edits = block_edits(n);
        model.extend(edits.iter().cloned());
        db.hot_put_many("state", edits).expect("block");
        db.persist_hot().expect("persist A");
    }
    let a = model.clone();
    let edits = block_edits(3);
    model.extend(edits.iter().cloned());
    db.hot_put_many("state", edits).expect("block");
    db.persist_hot().expect("persist B");
    let log = db.durable_store().expect("durable").clone();
    let b_cid = log.root().expect("root B");
    let b_chunk = db.store().get(&b_cid).expect("checkpoint B");
    let listed = BranchSnapshot::decode(b_chunk.payload()).expect("decode");
    assert_eq!(
        listed.journal.len(),
        3,
        "B lists the journal of every block"
    );
    assert_eq!(db.hot_stats().expect("tier on").published, 90);
    let ckpt_len = b_chunk.len() as u64;
    std::mem::forget(db); // crash: no drain, no clean close

    let seg = dir.join("seg-000000.log");
    let len = std::fs::metadata(&seg).expect("meta").len();
    let scratch = temp_dir("journal-sweep-whole");
    copy_store(&dir, &scratch);
    assert_state(&open(&scratch), &model, "undamaged log");
    std::fs::remove_dir_all(&scratch).ok();
    let window = len - (41 + ckpt_len) - (41 + 32)..len;
    for off in window {
        let scratch = temp_dir("journal-sweep-cut");
        copy_store(&dir, &scratch);
        std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("seg-000000.log"))
            .expect("open")
            .set_len(off)
            .expect("truncate");
        assert_state(&open(&scratch), &a, &format!("cut at {off} of {len}"));
        std::fs::remove_dir_all(&scratch).ok();

        let scratch = temp_dir("journal-sweep-flip");
        copy_store(&dir, &scratch);
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes[off as usize] ^= 0x01;
        std::fs::write(scratch.join("seg-000000.log"), bytes).expect("write");
        assert_state(&open(&scratch), &a, &format!("flip at {off} of {len}"));
        std::fs::remove_dir_all(&scratch).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Five blocks of `ledger_blocks`' loop — 64 state writes, the barrier
/// (`persist_hot`, or `flush_hot`), a 4 KiB block — each of which must
/// be one checkpoint and one fsync. Nothing but the barrier itself may
/// sync: no size or time window on the log, no publish timer on the hot
/// tier.
fn one_fsync_per_block(dir: &Path, persist: bool) -> ForkBase {
    let db = ForkBase::open_with(
        dir,
        ChunkerConfig::default(),
        Durability::Batch {
            max_records: usize::MAX,
            interval: Duration::from_secs(3600),
        },
        CacheConfig::default(),
        HotTierConfig {
            enabled: true,
            publish_batch: 1 << 20,
            ..HotTierConfig::on()
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
        if persist {
            db.persist_hot().expect("persist");
        } else {
            db.flush_hot().expect("flush");
            assert_eq!(
                log.root(),
                Some(db.checkpoint()),
                "the root is that checkpoint"
            );
        }
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
    db
}

#[test]
fn a_block_commit_is_one_fsync() {
    let dir = temp_dir("fsync");
    drop(one_fsync_per_block(&dir, false));
    std::fs::remove_dir_all(&dir).ok();
}

/// With `persist_hot` as the barrier the blocks' state is journaled and
/// no publish round runs: the preload's is the only one.
#[test]
fn a_persisted_block_commit_is_one_fsync() {
    let dir = temp_dir("persist-fsync");
    let db = one_fsync_per_block(&dir, true);
    let stats = db.hot_stats().expect("tier on");
    assert_eq!((stats.publish_rounds, stats.journaled), (1, 5 * 64));
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
