//! Durability and space reclamation, end to end:
//!
//! 1. open a durable engine (`ForkBase::open`: a segmented, group-commit
//!    log-structured chunk store),
//! 2. commit a checkpoint (durable branch refs, like git's packed-refs,
//!    named by a root record in the chunk log),
//! 3. "crash" and reopen the instance from the directory alone — branch
//!    heads and data both recover,
//! 4. abandon a branch, then reclaim its space by **in-place** GC
//!    compaction (live chunks rewritten into fresh segments, dead
//!    segments deleted).
//!
//! Run with: `cargo run --example persistence_and_gc`

use forkbase::chunk::{CacheConfig, Durability};
use forkbase::core::{gc, verify_history};
use forkbase::{ChunkerConfig, ForkBase, HotTierConfig, Value};

fn main() {
    let dir = std::env::temp_dir().join(format!("forkbase-example-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // ---- 1. a session over durable storage ------------------------------
    {
        // Durability::Always: every acknowledged put is fsynced (group
        // commit shares the fsyncs), so even an abrupt kill loses
        // nothing acknowledged.
        let db = ForkBase::open_with(
            &dir,
            ChunkerConfig::default(),
            Durability::Always,
            CacheConfig::default(),
            HotTierConfig::default(),
        )
        .expect("open durable engine");

        let report = db.new_blob(b"Q3 results: revenue up 4%, churn down 0.5%");
        db.put("report", None, Value::Blob(report)).expect("put");
        db.fork("report", "master", "draft-ideas").expect("fork");
        // A large abandoned draft. (Varied content — constant bytes would
        // deduplicate into a single chunk and leave nothing to reclaim.)
        let mut draft = Vec::with_capacity(200_000);
        let mut state = 99u64;
        while draft.len() < 200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            draft.extend_from_slice(&state.to_le_bytes());
        }
        db.put(
            "report",
            Some("draft-ideas"),
            Value::Blob(db.new_blob(&draft)),
        )
        .expect("put");

        // Checkpoint: branch tables into the store, their cid into a
        // root record behind them. This is the whole recovery point.
        let cid = db.commit_checkpoint().expect("checkpoint");
        println!(
            "session 1: wrote 2 branches, checkpoint = {}",
            cid.short_hex()
        );
    } // <- everything in memory is dropped here: the "crash"

    // ---- 2. reopen from the directory alone ------------------------------
    let db = ForkBase::open(&dir).expect("reopen");
    let branches = db.list_tagged_branches("report").expect("list");
    println!(
        "session 2: recovered {} branches of 'report': {:?}",
        branches.len(),
        branches.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    let store = db.durable_store().expect("durable").clone();
    let reopen = store.reopen_stats();
    println!(
        "           reopen replayed {} chunks ({} bytes scanned); {} came from the index snapshot",
        reopen.replayed_chunks, reopen.bytes_scanned, reopen.snapshot_chunks
    );
    let head = db.head("report", None).expect("head");
    let evidence = verify_history(db.store(), head).expect("verify");
    println!(
        "           tamper-evidence check passed over {} versions / {} chunks",
        evidence.verified_versions, evidence.verified_chunks
    );

    // ---- 3. abandon the draft branch and compact in place ----------------
    db.remove_branch("report", "draft-ideas").expect("remove");
    let report = gc::compact_in_place(&db).expect("gc");
    println!(
        "gc (in place): kept {} versions / {} chunks ({} KB); reclaimed {} chunks ({} KB)",
        report.live_versions,
        report.live_chunks,
        report.live_bytes / 1024,
        report.dropped_chunks,
        report.dropped_bytes / 1024,
    );
    assert!(report.dropped_bytes > 150_000, "the draft was reclaimed");

    // The same open store keeps serving after its segments were rewritten.
    let text = db
        .get_value("report", None)
        .expect("get")
        .as_blob()
        .expect("blob")
        .read_all(db.store())
        .expect("read");
    println!(
        "compacted store serves: {:?}",
        String::from_utf8_lossy(&text)
    );

    // And one more restart proves the compacted layout reopens clean.
    drop(db);
    let db = ForkBase::open(&dir).expect("reopen compacted");
    assert_eq!(
        db.get_value("report", None)
            .expect("get")
            .as_blob()
            .expect("blob")
            .read_all(db.store())
            .expect("read"),
        text
    );
    println!("session 3: compacted store reopened clean");

    drop(db);
    std::fs::remove_dir_all(dir).ok();
}
