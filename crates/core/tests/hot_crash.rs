//! Crash test for the hot tier's loss contract: a child process writes
//! through the hot surface, flushes a prefix, leaves a window of edits
//! pending, and dies via `abort()` — no destructors, no drain. The
//! parent reopens and checks:
//!
//! * everything acknowledged by `flush_hot` survives (the flush
//!   checkpointed it), and
//! * the unflushed window is lost exactly and whole: no clock publishes
//!   a round on its own, so none of the window reached the recovery
//!   point, and no window subkey reads torn.
//!
//! The persist leg does the same with `persist_hot` as the barrier: the
//! child persists after each of its blocks, so every block's state is
//! durable only as a journal Blob (the sixth persist seals a round that
//! is still staged at the crash). The parent checks that every persisted
//! edit is there after the replay, that the window is lost whole, and
//! that the state key's history verifies.
//!
//! The `FB_HOT_TIER` env var (CI persistence-job matrix) picks the leg:
//! `1`/unset runs the tier on, `0` runs the tier off, where `hot_put` is
//! a synchronous tree commit and the recovery point is the last explicit
//! `commit_checkpoint`. Both legs lose exactly the window.

use bytes::Bytes;
use forkbase_core::{verify_history, ForkBase, HotTierConfig};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::sync::Mutex;

/// Subkeys flushed (or checkpointed) before the crash window opens.
const FLUSHED: usize = 64;
/// Subkeys written after the flush, still pending at abort time.
const WINDOW: usize = 24;
const STATE_KEY: &str = "eth/state";

fn hot_on() -> bool {
    std::env::var("FB_HOT_TIER").as_deref() != Ok("0")
}

fn open(dir: &std::path::Path) -> ForkBase {
    // 16-edit batches: a persist seals a round once 64 edits wait, and a
    // persist of 12 edits journals them.
    let hot = if hot_on() {
        HotTierConfig {
            publish_batch: 16,
            ..HotTierConfig::on()
        }
    } else {
        HotTierConfig::disabled()
    };
    ForkBase::open_with(
        dir,
        forkbase_crypto::ChunkerConfig::default(),
        forkbase_chunk::Durability::Always,
        forkbase_chunk::CacheConfig::default(),
        hot,
    )
    .expect("open")
}

fn subkey(i: usize) -> Bytes {
    Bytes::from(format!("acct/{i:06}"))
}

fn value(i: usize) -> Bytes {
    Bytes::from(format!("balance-{i}-{}", "x".repeat(i % 7)))
}

/// Child mode: only active when `FORKBASE_HOT_KILL_DIR` is set.
#[test]
fn child_writer() {
    let Some(dir) = std::env::var_os("FORKBASE_HOT_KILL_DIR") else {
        return;
    };
    let db = open(std::path::Path::new(&dir));
    for i in 0..FLUSHED {
        db.hot_put(STATE_KEY, subkey(i), value(i)).expect("hot put");
    }
    if hot_on() {
        // The durability point the parent will hold us to.
        db.flush_hot().expect("flush");
    } else {
        // Tier off: writes were synchronous tree commits; the recovery
        // point is the explicit checkpoint.
        db.commit_checkpoint().expect("checkpoint");
    }
    for i in FLUSHED..FLUSHED + WINDOW {
        db.hot_put(STATE_KEY, subkey(i), value(i)).expect("hot put");
    }
    // Die with the window pending: no Drop, no drain, no clean close.
    std::process::abort();
}

/// Blocks the persist leg's child persists before its window.
const BLOCKS: usize = 8;

/// Block `n`'s state writes: 12 accounts, some written before, and one
/// delete.
fn block(n: usize) -> Vec<(Bytes, Option<Bytes>)> {
    (0..12)
        .map(|t| {
            let i = (n * 5 + t * 3) % 40;
            (subkey(i), (t != 4).then(|| value(n * 100 + t)))
        })
        .collect()
}

/// What the persisted blocks leave in the state.
fn persisted_state() -> BTreeMap<Bytes, Option<Bytes>> {
    (0..BLOCKS).flat_map(block).collect()
}

/// Child mode of the persist leg: only active when
/// `FORKBASE_HOT_PERSIST_DIR` is set.
#[test]
fn child_persister() {
    let Some(dir) = std::env::var_os("FORKBASE_HOT_PERSIST_DIR") else {
        return;
    };
    let db = open(std::path::Path::new(&dir));
    for n in 0..BLOCKS {
        db.hot_put_many(STATE_KEY, block(n)).expect("hot put");
        db.persist_hot().expect("persist");
    }
    if let Some(stats) = db.hot_stats() {
        assert_eq!(stats.published, 0, "every block was journaled");
    }
    for i in FLUSHED..FLUSHED + WINDOW {
        db.hot_put(STATE_KEY, subkey(i), value(i)).expect("hot put");
    }
    std::process::abort();
}

/// Held by each crash test for its whole run. A child that aborts
/// leaves its "test … " line open on the shared stdout, and the line
/// must close with its own parent's verdict, not the other test's.
static ONE_CRASH_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run `child` in a fresh directory and return the directory once it
/// has died by `abort()`. A `quiet` child's stdout is discarded.
fn crash_child(child: &str, env: &str, quiet: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "forkbase-hot-kill-{child}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos()
    ));
    std::fs::remove_dir_all(&dir).ok();

    let exe = std::env::current_exe().expect("own binary");
    let mut command = Command::new(exe);
    command
        .args([child, "--exact", "--nocapture", "--test-threads=1"])
        .env(env, &dir);
    if quiet {
        command.stdout(Stdio::null());
    }
    let status = command.status().expect("spawn child");
    assert!(
        !status.success(),
        "the child must die by abort, not exit cleanly"
    );
    dir
}

/// The window's subkeys each read as written or not at all; returns how
/// many are gone.
fn window_lost(db: &ForkBase) -> usize {
    let mut lost = 0;
    for i in FLUSHED..FLUSHED + WINDOW {
        match db.hot_get(STATE_KEY, &subkey(i)).expect("read") {
            Some(v) => assert_eq!(v, value(i), "window subkey {i} must not be torn"),
            None => lost += 1,
        }
    }
    lost
}

#[test]
fn kill_after_persist_loses_at_most_the_window() {
    let _alone = ONE_CRASH_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let dir = crash_child("child_persister", "FORKBASE_HOT_PERSIST_DIR", true);
    let db = open(&dir);
    for (subkey, value) in persisted_state() {
        let got = db.hot_get(STATE_KEY, &subkey).expect("read");
        assert_eq!(got, value, "persisted {subkey:?} must survive the crash");
    }
    // Nothing published the window: it is lost whole, with the tier on
    // as with it off.
    assert_eq!(window_lost(&db), WINDOW);
    let head = db.head(STATE_KEY, None).expect("state head");
    verify_history(db.store(), head).expect("the replayed state verifies");
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn kill_loses_exactly_the_unflushed_window() {
    let _alone = ONE_CRASH_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let dir = crash_child("child_writer", "FORKBASE_HOT_KILL_DIR", false);

    let db = open(&dir);

    // The flushed prefix is the hard guarantee: zero loss.
    for i in 0..FLUSHED {
        assert_eq!(
            db.hot_get(STATE_KEY, &subkey(i)).expect("read"),
            Some(value(i)),
            "flushed subkey {i} must survive the crash"
        );
    }

    // The window: reopen restores the last checkpoint, taken before the
    // window opened, with the tier on as with it off — the whole window
    // is lost, exactly.
    assert_eq!(window_lost(&db), WINDOW, "the recovery point is the flush");

    // The survivor is a fully functional engine: writes, flush, and a
    // clean reopen all keep working.
    db.hot_put(STATE_KEY, subkey(999_999), Bytes::from_static(b"alive"))
        .expect("post-crash write");
    db.flush_hot().expect("post-crash flush");
    db.commit_checkpoint().expect("post-crash checkpoint");
    drop(db);
    let db = open(&dir);
    assert_eq!(
        db.hot_get(STATE_KEY, &subkey(999_999)).expect("read"),
        Some(Bytes::from_static(b"alive"))
    );
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}
