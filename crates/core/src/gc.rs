//! Garbage collection: mark what is live, repack the log around it.
//!
//! Chunks are immutable and content-addressed, so ForkBase never deletes
//! one in place; like git's repack, a durable instance reclaims space by
//! rewriting its *live* chunks into fresh log segments and dropping the
//! old ones ([`compact_in_place`]). A chunk is live when it is reachable
//! from any branch head (tagged or untagged) of any key: meta chunks via
//! the `bases` hash chain — removing a branch never truncates the
//! history of versions still reachable elsewhere — and, for chunkable
//! values, every node of the version's POS-Tree.
//!
//! Garbage arises from removed branches whose exclusive versions nothing
//! else references (M14 keeps the versions in the store, so until a
//! compaction they cost space), from superseded checkpoint chunks, and
//! from objects built but never committed (e.g. abandoned client edits).
//!
//! [`live_set`] is the mark on its own, for any store:
//!
//! ```
//! use forkbase_core::{gc, ForkBase, Value};
//!
//! let db = ForkBase::in_memory();
//! db.put("k", None, Value::String("v".into())).unwrap();
//! let (live, versions) = gc::live_set(&db).unwrap();
//! assert_eq!(versions, 1);
//! let stored = db.store().stats().stored_chunks;
//! assert_eq!(live.len() as u64, stored, "everything is reachable");
//! ```

use crate::checkpoint::BranchSnapshot;
use crate::error::{FbError, Result};
use crate::fobject::FObject;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::fx::FxHashSet;
use forkbase_crypto::Digest;
use forkbase_pos::{IndexNode, TreeType};

use crate::db::ForkBase;

/// What a compaction pass found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Distinct reachable versions (meta chunks) kept.
    pub live_versions: usize,
    /// Chunks kept.
    pub live_chunks: u64,
    /// Bytes kept.
    pub live_bytes: u64,
    /// Chunks reclaimed.
    pub dropped_chunks: u64,
    /// Bytes reclaimed.
    pub dropped_bytes: u64,
}

/// The live set of an instance: every chunk reachable from any branch
/// head of any key — the meta chunks of the heads and of their whole
/// derivation history, and every chunk of each version's value tree. The
/// count of distinct live versions is returned alongside the cid set.
///
/// Only meta chunks, tree roots and index nodes are fetched: a leaf is
/// named by its parent's entry, so the mark only checks that the store
/// holds it.
///
/// The hot-tier journal Blobs the recovery point lists are live too: a
/// reopen replays them.
pub fn live_set(db: &ForkBase) -> Result<(FxHashSet<Digest>, usize)> {
    let store = db.store();
    let snap = db.snapshot_branches();
    // A head may appear in several branch tables; the `live` set
    // deduplicates it like any other version.
    let mut stack: Vec<Digest> = snap.heads().collect();
    let (mut live, mut versions) = (FxHashSet::default(), 0usize);
    while let Some(uid) = stack.pop() {
        if !live.insert(uid) {
            continue;
        }
        let obj = FObject::load(store, uid)?;
        versions += 1;
        stack.extend(obj.bases.iter().copied());
        if let Some((ty, root)) = obj.value(store)?.tree_root() {
            mark_tree(store, ty, root, &mut live)?;
        }
    }
    if let Some(root) = db.durable_store().and_then(|log| log.root()) {
        let chunk = store.get(&root).ok_or(FbError::VersionNotFound(root))?;
        for blob in BranchSnapshot::decode(chunk.payload())?.journal {
            mark_tree(store, TreeType::Blob, blob, &mut live)?;
        }
    }
    Ok((live, versions))
}

/// Add every chunk of the `ty` tree at `root` to `live`.
fn mark_tree(
    store: &dyn ChunkStore,
    ty: TreeType,
    root: Digest,
    live: &mut FxHashSet<Digest>,
) -> Result<()> {
    let mut tree = vec![root];
    while let Some(cid) = tree.pop() {
        if !live.insert(cid) {
            continue;
        }
        let chunk = store.get(&cid).ok_or(FbError::VersionNotFound(cid))?;
        if !chunk.ty().is_index() {
            continue;
        }
        let node = IndexNode::parse(chunk.payload().clone(), ty.is_sorted())
            .ok_or_else(|| FbError::Corrupt("bad index chunk".into()))?;
        for e in node.entries() {
            if node.level() > 1 {
                tree.push(*e.cid);
            } else if live.insert(*e.cid) && !store.contains(e.cid) {
                return Err(FbError::VersionNotFound(*e.cid));
            }
        }
    }
    Ok(())
}

/// Compact a durable instance **in place**: rewrite every live chunk
/// into fresh [`LogStore`](forkbase_chunk::LogStore) segments and delete
/// the old segment files, reclaiming the space of unreachable versions
/// without copying to a second store or reopening. The instance stays
/// fully usable afterwards; a fresh checkpoint is committed first so the
/// recovery point (and its chunk) survive the compaction. That
/// checkpoint publishes every pending hot-tier edit first, so it lists
/// no journal Blob; [`live_set`] would keep any it listed.
///
/// **Quiesce writers first.** The live set is computed from the branch
/// heads *before* the rewrite; a put that commits between the walk and
/// the segment swap would store chunks the compaction then deletes. Run
/// this like any offline repack: no concurrent writers (a read racing
/// the swap can at worst observe a spurious, counted read error).
///
/// Errors with [`FbError::Io`] when `db` was not opened durably
/// ([`ForkBase::open`]/[`ForkBase::open_with`]).
pub fn compact_in_place(db: &ForkBase) -> Result<GcReport> {
    let store = db
        .durable_store()
        .cloned()
        .ok_or_else(|| FbError::Io("not a durable instance (use ForkBase::open)".into()))?;
    // The checkpoint chunk is a GC root the branch walk cannot see (it
    // is named by the log's root record, not by any version), so commit
    // it first and pin it explicitly: `compact_retain` carries the root
    // record over only with its chunk. Going through the handle also
    // publishes any pending hot-tier edits first — compaction must not
    // race a hot-tier round over chunks it is about to retire.
    let checkpoint = db.commit_checkpoint()?;
    let (mut live, live_versions) = live_set(db)?;
    live.insert(checkpoint);
    let stats = store.compact_retain(&live)?;
    // Reclaimed chunks must not linger in the read tier: a cached dead
    // chunk would keep serving (harmless for correctness — content is
    // immutable — but it would misreport reclamation and pin memory).
    if let Some(cache) = db.chunk_cache() {
        cache.clear();
    }
    Ok(GcReport {
        live_versions,
        live_chunks: stats.kept_chunks,
        live_bytes: stats.kept_bytes,
        dropped_chunks: stats.dropped_chunks,
        dropped_bytes: stats.dropped_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DEFAULT_BRANCH;
    use crate::value::Value;
    use crate::verify::verify_history;
    use forkbase_chunk::{Chunk, ChunkStore, ChunkType, MemStore};
    use std::sync::Arc;

    /// What a repack around [`live_set`] would keep and drop: the live
    /// versions, a store holding the live chunks and nothing else, and
    /// dropped = stored − live.
    fn mark(db: &ForkBase) -> (GcReport, Arc<MemStore>) {
        let (live, live_versions) = live_set(db).expect("mark");
        let kept = Arc::new(MemStore::new());
        for cid in &live {
            kept.put(db.store().get(cid).expect("a live chunk is stored"));
        }
        let (all, live) = (db.store().stats(), kept.stats());
        let report = GcReport {
            live_versions,
            live_chunks: live.stored_chunks,
            live_bytes: live.stored_bytes,
            dropped_chunks: all.stored_chunks - live.stored_chunks,
            dropped_bytes: all.stored_bytes - live.stored_bytes,
        };
        (report, kept)
    }

    fn blob_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn everything_reachable_nothing_dropped() {
        let db = ForkBase::in_memory();
        for i in 0..10 {
            db.put("k", None, Value::Int(i)).expect("put");
        }
        db.put("k2", None, Value::Blob(db.new_blob(&blob_bytes(50_000, 1))))
            .expect("put");

        let (report, _) = mark(&db);
        assert_eq!(report.live_versions, 11, "10 versions of k + 1 of k2");
        assert_eq!(report.dropped_chunks, 0);
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn removed_branch_versions_are_garbage() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::String("base".into()))
            .expect("put");
        db.fork("k", DEFAULT_BRANCH, "scratch").expect("fork");
        // Exclusive work on the scratch branch: a large blob.
        let blob = db.new_blob(&blob_bytes(100_000, 2));
        db.put("k", Some("scratch"), Value::Blob(blob))
            .expect("put");
        db.remove_branch("k", "scratch").expect("remove");

        let (report, target) = mark(&db);
        // The scratch blob (many chunks) is unreachable now.
        assert!(
            report.dropped_bytes > 50_000,
            "scratch branch data must be dropped, dropped {}B",
            report.dropped_bytes
        );
        // master's version verifies from the live chunks alone.
        let head = db.head("k", None).expect("head");
        verify_history(target.as_ref(), head).expect("live history intact");
    }

    #[test]
    fn shared_history_survives_branch_removal() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "b").expect("fork");
        db.put("k", Some("b"), Value::Int(1)).expect("put");
        db.remove_branch("k", DEFAULT_BRANCH)
            .expect("remove master");

        let (_, target) = mark(&db);
        // v0 is branch b's ancestor: reachable through bases even though
        // the branch that created it is gone.
        assert!(target.contains(&v0), "shared ancestor kept");
        let b_head = db.head("k", Some("b")).expect("head");
        verify_history(target.as_ref(), b_head).expect("full chain intact");
    }

    #[test]
    fn unreferenced_chunks_dropped() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        // Abandoned client-side work: chunks never referenced by a commit.
        db.store()
            .put(Chunk::new(ChunkType::Blob, blob_bytes(5000, 3)));
        db.new_blob(&blob_bytes(20_000, 4)); // built, never committed

        let (report, _) = mark(&db);
        assert!(report.dropped_chunks >= 2);
        assert!(report.dropped_bytes >= 25_000 - 100);
    }

    #[test]
    fn untagged_heads_and_ancestors_are_roots() {
        let db = ForkBase::in_memory();
        let base = db.put_conflict("k", None, Value::Int(0)).expect("genesis");
        db.put_conflict("k", Some(base), Value::Int(1)).expect("w1");
        db.put_conflict("k", Some(base), Value::Int(2)).expect("w2");

        let (report, _) = mark(&db);
        assert_eq!(report.live_versions, 3, "base + both conflict heads");
        assert_eq!(report.dropped_chunks, 0);
    }

    #[test]
    fn in_place_compaction_reclaims_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-gc-inplace-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let data = blob_bytes(60_000, 9);
        {
            let db = ForkBase::open(&dir).expect("open");
            db.put("doc", None, Value::Blob(db.new_blob(&data)))
                .expect("put");
            db.fork("doc", DEFAULT_BRANCH, "scratch").expect("fork");
            db.put(
                "doc",
                Some("scratch"),
                Value::Blob(db.new_blob(&blob_bytes(120_000, 10))),
            )
            .expect("put");
            db.remove_branch("doc", "scratch").expect("remove");

            let report = compact_in_place(&db).expect("gc");
            assert!(
                report.dropped_bytes > 60_000,
                "scratch blob reclaimed: {report:?}"
            );
            // Everything still serves from the compacted segments.
            let head = db.head("doc", None).expect("head");
            verify_history(db.store(), head).expect("intact after compaction");
            // And new writes land fine.
            db.put("doc", None, Value::String("post-gc".into()))
                .expect("put");
            db.commit_checkpoint().expect("checkpoint");
        }
        // Reopen: the compacted store + checkpoint restore the state.
        let db = ForkBase::open(&dir).expect("reopen");
        assert_eq!(
            db.get_value("doc", None).expect("get"),
            Value::String("post-gc".into())
        );
        let store = db.durable_store().expect("durable").clone();
        assert!(!store.poisoned());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Compaction deletes the segments that held the root record; it must
    /// have re-appended it first, or a reopen with no checkpoint in
    /// between would come up empty.
    #[test]
    fn in_place_compaction_carries_the_recovery_point() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-gc-root-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let db = ForkBase::open(&dir).expect("open");
        db.put(
            "doc",
            None,
            Value::Blob(db.new_blob(&blob_bytes(60_000, 3))),
        )
        .expect("put");
        db.fork("doc", DEFAULT_BRANCH, "scratch").expect("fork");
        db.put("doc", Some("scratch"), Value::Int(7)).expect("put");
        db.put("cfg", None, Value::Int(1)).expect("put");
        db.remove_branch("doc", "scratch").expect("remove");
        compact_in_place(&db).expect("gc");
        let live = db.snapshot_branches();
        let root = db.durable_store().expect("durable").root();
        drop(db);

        // Once from the snapshot compaction wrote, once from the log.
        for from_log in [false, true] {
            if from_log {
                std::fs::remove_file(dir.join("snapshot.idx")).expect("snapshot");
            }
            let db = ForkBase::open(&dir).expect("reopen");
            let log = db.durable_store().expect("durable");
            assert_eq!(log.reopen_stats().used_snapshot, !from_log);
            assert_eq!(log.root(), root);
            assert_eq!(db.snapshot_branches(), live, "from_log {from_log}");
            let head = db.head("doc", None).expect("head");
            verify_history(db.store(), head).expect("intact");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn in_place_compaction_requires_durable_instance() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        assert!(matches!(
            compact_in_place(&db).expect_err("not durable"),
            FbError::Io(_)
        ));
    }

    #[test]
    fn compacted_store_round_trips_through_restore() {
        let db = ForkBase::in_memory();
        let data = blob_bytes(60_000, 5);
        db.put("doc", None, Value::Blob(db.new_blob(&data)))
            .expect("put");
        db.fork("doc", DEFAULT_BRANCH, "draft").expect("fork");
        db.put("doc", Some("draft"), Value::String("draft note".into()))
            .expect("put");
        db.remove_branch("doc", "draft").expect("remove");

        // Keep the live chunks only, checkpoint into that store, reopen.
        let (_, target) = mark(&db);
        let db2 = ForkBase::restore(target.clone(), db.cfg().clone(), {
            // The checkpoint must live in the *target* store.
            let chunk = db.snapshot_branches().to_chunk();
            let cid = chunk.cid();
            target.put(chunk);
            cid
        })
        .expect("restore");

        let blob = db2
            .get_value("doc", None)
            .expect("get")
            .as_blob()
            .expect("blob");
        assert_eq!(blob.read_all(db2.store()).expect("read"), data);
    }
}
