//! The flat hot-state tier in front of the POS-Tree.
//!
//! Both Sonic Labs forkless-DB papers (see PAPERS.md) win by serving
//! *latest* state from a flat hash-shaped index and demoting the Merkle
//! structure to an asynchronously maintained authentication sidecar.
//! This module is that split for ForkBase:
//!
//! * **Hot state** — per engine key, a persistent
//!   [`Hamt`] from subkey to latest value
//!   (`None` = tombstone). Point reads and writes are pure in-memory
//!   hash operations: no chunk fetch, no tree traversal, no hashing of
//!   content. `Clone` of a key's trie is an O(1) isolated snapshot.
//! * **Pending queue** — every hot write is also enqueued (bounded, with
//!   backpressure once the queue holds `8 × publish_batch` edits).
//! * **Publisher** — a background thread group-publishes the queue into
//!   the POS-Tree whenever `publish_batch` edits are pending or
//!   `publish_interval` elapses: one map-edits [`Commit`] per key, the
//!   whole round as one pass of the commit pipeline
//!   ([`crate::commit`]). It then advances the durable recovery point
//!   so a crash loses at most the edits still queued — the *publish
//!   window*.
//!
//! The POS-Tree stays the versioned, tamper-evident substrate: every
//! publish round is ordinary map commits with hash-chained `FObject`
//! versions, so history, diff, merge and `verify_history` keep working
//! unchanged. The tier knows nothing of the rest of the API.
//! [`ForkBase`](crate::ForkBase) keeps the two in step at exactly two
//! points — before a commit writes a key's default branch (`drain_key`
//! and `invalidate`) and before a branch table is read (`drain_key`, or
//! `publish_all`) — and the publisher commits through the `Engine`
//! underneath the handle, so it never meets that coordination itself.

use crate::commit::{Commit, Payload};
use crate::db::Engine;
use crate::error::{FbError, Result};
use bytes::Bytes;
use forkbase_crypto::fx::FxHashMap;
use forkbase_pos::Hamt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hot-tier configuration for [`ForkBase::open_with`](crate::ForkBase::open_with).
#[derive(Debug, Clone)]
pub struct HotTierConfig {
    /// Front the engine with the hot tier. Off by default — the tier
    /// trades a bounded publish window of crash loss for hash-map-speed
    /// point access, and that trade must be opted into.
    pub enabled: bool,
    /// Pending-edit count that triggers an immediate publish round. The
    /// queue accepts up to 8× this before writers block (backpressure).
    pub publish_batch: usize,
    /// Maximum time a pending edit waits before a publish round picks it
    /// up, batch full or not. This bounds the crash-loss window on
    /// durable instances.
    pub publish_interval: Duration,
}

impl HotTierConfig {
    /// The tier enabled with default batching (512-edit rounds, 20 ms
    /// interval).
    pub fn on() -> Self {
        HotTierConfig {
            enabled: true,
            publish_batch: 512,
            publish_interval: Duration::from_millis(20),
        }
    }

    /// The tier disabled: hot methods run write-through/read-through on
    /// the POS-Tree synchronously. Same results, tree speed, no loss
    /// window.
    pub fn disabled() -> Self {
        HotTierConfig {
            enabled: false,
            ..Self::on()
        }
    }
}

impl Default for HotTierConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A snapshot of the hot tier's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotTierStats {
    /// `hot_get`s answered from the flat index (tombstones included).
    pub hits: u64,
    /// `hot_get`s that fell through to the committed POS-Tree.
    pub misses: u64,
    /// Edits accepted by `hot_put`/`hot_put_many`/`hot_delete`.
    pub writes: u64,
    /// Edits published into the POS-Tree so far.
    pub published: u64,
    /// Publish rounds (group commits) run so far.
    pub publish_rounds: u64,
    /// Edits currently pending (enqueued, not yet published).
    pub pending: u64,
}

type HotMap = Hamt<Option<Bytes>>;

/// Pending (unpublished) edits, guarded by one mutex with two condvars:
/// `work` wakes the publisher, `room` wakes writers blocked on
/// backpressure and drain/flush callers waiting out an in-flight round.
struct Pending {
    edits: FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>>,
    total: usize,
    /// Keys currently being published (their edits are out of `edits`
    /// but not yet in the tree), refcounted: the publisher and a
    /// concurrent `flush` can each have a round in flight for the same
    /// key. Drains must wait the count down to zero, or a subsequent
    /// tree access could observe a head about to move.
    inflight: FxHashMap<Bytes, u32>,
    /// First publish error, if any. A poisoned tier fails all further
    /// hot writes/flushes — the flat index may be ahead of a tree that
    /// can no longer accept it.
    poisoned: Option<String>,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: HotTierConfig,
    /// key → its latest-state trie. Slots are never removed by readers;
    /// tree writes invalidate by removing the whole slot.
    state: RwLock<FxHashMap<Bytes, Arc<RwLock<HotMap>>>>,
    pending: Mutex<Pending>,
    work: Condvar,
    room: Condvar,
    stop: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    published: AtomicU64,
    publish_rounds: AtomicU64,
}

impl Shared {
    fn queue_cap(&self) -> usize {
        self.cfg.publish_batch.saturating_mul(8).max(1)
    }

    fn slot(&self, key: &Bytes) -> Arc<RwLock<HotMap>> {
        if let Some(s) = self.state.read().expect("state lock").get(key) {
            return Arc::clone(s);
        }
        Arc::clone(
            self.state
                .write()
                .expect("state lock")
                .entry(key.clone())
                .or_default(),
        )
    }

    fn poison_err(msg: &str) -> FbError {
        FbError::Io(format!("hot tier poisoned by publish failure: {msg}"))
    }

    /// Take the whole queue, marking every taken key in-flight. Caller
    /// must clear `inflight` (and notify `room`) when done.
    fn take_all(p: &mut Pending) -> FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>> {
        let work = std::mem::take(&mut p.edits);
        p.total = 0;
        for key in work.keys() {
            *p.inflight.entry(key.clone()).or_insert(0) += 1;
        }
        work
    }

    /// Publish a taken batch — one map-edits commit per key, all in one
    /// pass of the commit pipeline — and clear its in-flight marks. An
    /// error poisons the tier and is returned.
    ///
    /// `checkpoint` says who owns the recovery point: the background
    /// publisher and per-key drains pass `true` and end in a checkpoint,
    /// taken before the marks clear (a crash loses at most the edits
    /// still queued); `flush` passes `false` and checkpoints once
    /// itself, after its last round.
    fn publish_work(
        &self,
        work: FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>>,
        checkpoint: bool,
    ) -> Result<()> {
        let edits: usize = work.values().map(Vec::len).sum();
        let commits: Vec<Commit<'_>> = work
            .into_iter()
            .map(|(key, edits)| {
                Commit::branch(key, None, Payload::MapEdits(edits.into_iter().collect()))
            })
            .collect();
        let mut result = self.engine.commit_all(&commits).map(|_| ());
        if result.is_ok() {
            self.published.fetch_add(edits as u64, Ordering::Relaxed);
            if checkpoint {
                result = self.checkpoint_if_durable();
            }
        }
        let mut p = self.pending.lock().expect("pending lock");
        for commit in &commits {
            release_inflight(&mut p, &commit.key);
        }
        match &result {
            Err(e) => {
                p.poisoned.get_or_insert_with(|| e.to_string());
            }
            Ok(()) => {
                self.publish_rounds.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(p);
        self.room.notify_all();
        result
    }

    /// Advance the durable recovery point so published edits survive a
    /// crash. `commit_checkpoint` appends the checkpoint and its root
    /// record to the log and fsyncs it (forcing out any
    /// `Durability::Batch`-deferred records with them); on in-memory
    /// instances this is a no-op.
    fn checkpoint_if_durable(&self) -> Result<()> {
        if self.engine.durable.is_some() {
            self.engine.commit_checkpoint()?;
        }
        Ok(())
    }
}

/// The running hot tier owned by a [`ForkBase`](crate::ForkBase) handle:
/// shared state plus the publisher thread. Dropping it stops the
/// publisher and drains every pending edit into the tree (clean close
/// loses nothing).
pub(crate) struct HotTier {
    shared: Arc<Shared>,
    publisher: Option<JoinHandle<()>>,
}

impl HotTier {
    /// Spawn the tier over a shared engine. `None` when disabled.
    pub(crate) fn spawn(engine: Arc<Engine>, cfg: HotTierConfig) -> Option<HotTier> {
        if !cfg.enabled {
            return None;
        }
        let shared = Arc::new(Shared {
            engine,
            cfg,
            state: RwLock::new(FxHashMap::default()),
            pending: Mutex::new(Pending {
                edits: FxHashMap::default(),
                total: 0,
                inflight: FxHashMap::default(),
                poisoned: None,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            stop: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_rounds: AtomicU64::new(0),
        });
        let bg = Arc::clone(&shared);
        let publisher = std::thread::Builder::new()
            .name("fb-hot-publish".into())
            .spawn(move || publisher_loop(bg))
            .expect("spawn hot publisher");
        Some(HotTier {
            shared,
            publisher: Some(publisher),
        })
    }

    /// Point read: flat index first (hit even on tombstones), committed
    /// tree on miss.
    pub(crate) fn get(&self, key: &Bytes, subkey: &[u8]) -> Result<Option<Bytes>> {
        let slot = self
            .shared
            .state
            .read()
            .expect("state lock")
            .get(key)
            .cloned();
        if let Some(slot) = slot {
            if let Some(v) = slot.read().expect("slot lock").get(subkey) {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v.clone());
            }
        }
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        self.shared.engine.map_get_latest(key, subkey)
    }

    /// Apply a batch of edits to the flat index and enqueue them for
    /// publication. Visible to [`get`](Self::get) immediately; blocks
    /// only when the pending queue is at capacity.
    pub(crate) fn put_many(&self, key: &Bytes, entries: Vec<(Bytes, Option<Bytes>)>) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let n = entries.len();
        {
            let slot = self.shared.slot(key);
            let mut map = slot.write().expect("slot lock");
            for (sk, v) in &entries {
                map.insert(sk.clone(), v.clone());
            }
        }
        let cap = self.shared.queue_cap();
        let mut p = self.shared.pending.lock().expect("pending lock");
        if let Some(msg) = &p.poisoned {
            return Err(Shared::poison_err(msg));
        }
        while p.total >= cap && !self.shared.stop.load(Ordering::Acquire) {
            self.shared.work.notify_one();
            p = self.shared.room.wait(p).expect("pending lock");
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
        }
        p.edits.entry(key.clone()).or_default().extend(entries);
        p.total += n;
        self.shared.writes.fetch_add(n as u64, Ordering::Relaxed);
        let trigger = p.total >= self.shared.cfg.publish_batch;
        drop(p);
        if trigger {
            self.shared.work.notify_one();
        }
        Ok(())
    }

    /// Synchronously publish `key`'s pending edits (waiting out an
    /// in-flight round that includes the key). Used before any tree
    /// access to the key's default branch. No-op when nothing is
    /// pending.
    pub(crate) fn drain_key(&self, key: &Bytes) -> Result<()> {
        let mut p = self.shared.pending.lock().expect("pending lock");
        loop {
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            if !p.inflight.contains_key(key) {
                break;
            }
            p = self.shared.room.wait(p).expect("pending lock");
        }
        let Some(edits) = p.edits.remove(key) else {
            return Ok(());
        };
        p.total -= edits.len();
        p.inflight.insert(key.clone(), 1);
        drop(p);
        self.shared.room.notify_all();
        let work = FxHashMap::from_iter([(key.clone(), edits)]);
        self.shared.publish_work(work, true)
    }

    /// Remove `key`'s flat-index state (called after a direct tree write
    /// makes it stale; subsequent reads fall through until re-warmed by
    /// writes).
    pub(crate) fn invalidate(&self, key: &Bytes) {
        self.shared.state.write().expect("state lock").remove(key);
    }

    /// Publish everything pending at call time (waiting out in-flight
    /// rounds), then checkpoint on durable instances — exactly once,
    /// however many rounds the publishing took.
    pub(crate) fn flush(&self) -> Result<()> {
        self.publish_all()?;
        self.shared.checkpoint_if_durable()
    }

    /// [`flush`](Self::flush) without the checkpoint, for a caller that
    /// is about to take one itself.
    pub(crate) fn publish_all(&self) -> Result<()> {
        loop {
            let work = {
                let mut p = self.shared.pending.lock().expect("pending lock");
                if let Some(msg) = &p.poisoned {
                    return Err(Shared::poison_err(msg));
                }
                if p.edits.is_empty() {
                    if p.inflight.is_empty() {
                        return Ok(());
                    }
                    let q = self.shared.room.wait(p).expect("pending lock");
                    drop(q);
                    continue;
                }
                Shared::take_all(&mut p)
            };
            self.shared.room.notify_all();
            self.shared.publish_work(work, false)?;
        }
    }

    pub(crate) fn stats(&self) -> HotTierStats {
        let pending = self.shared.pending.lock().expect("pending lock").total as u64;
        HotTierStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            writes: self.shared.writes.load(Ordering::Relaxed),
            published: self.shared.published.load(Ordering::Relaxed),
            publish_rounds: self.shared.publish_rounds.load(Ordering::Relaxed),
            pending,
        }
    }

    /// O(1) snapshot of one key's flat state.
    pub(crate) fn snapshot(&self, key: &Bytes) -> Option<HotMap> {
        let slot = self
            .shared
            .state
            .read()
            .expect("state lock")
            .get(key)
            .cloned()?;
        let snap = slot.read().expect("slot lock").clone();
        Some(snap)
    }
}

impl Drop for HotTier {
    fn drop(&mut self) {
        // Set `stop` under the pending lock: the publisher checks it with
        // the lock held and only lets go of the lock inside `wait`, so it
        // either sees the flag or is already waiting when the notify
        // lands. Stored outside the lock, the flag could slip in between
        // its check and its wait, and it would sleep a whole interval.
        // (A poisoned lock still excludes; Drop must not panic on it.)
        let guard = self.shared.pending.lock();
        self.shared.stop.store(true, Ordering::Release);
        drop(guard);
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        if let Some(handle) = self.publisher.take() {
            let _ = handle.join();
        }
        // Clean close loses nothing: publish what is still queued.
        // Errors are unreportable from Drop — they stay recorded in
        // `poisoned` for post-mortems.
        let _ = self.flush();
    }
}

/// Drop one in-flight reference for `key`, removing the mark when the
/// last concurrent round for it completes.
fn release_inflight(p: &mut Pending, key: &Bytes) {
    if let Some(n) = p.inflight.get_mut(key) {
        *n -= 1;
        if *n == 0 {
            p.inflight.remove(key);
        }
    }
}

fn publisher_loop(shared: Arc<Shared>) {
    let mut p = shared.pending.lock().expect("pending lock");
    while !shared.stop.load(Ordering::Acquire) {
        if p.total < shared.cfg.publish_batch {
            let (q, _timeout) = shared
                .work
                .wait_timeout(p, shared.cfg.publish_interval)
                .expect("pending lock");
            p = q;
        }
        if p.total == 0 {
            continue;
        }
        let work = Shared::take_all(&mut p);
        drop(p);
        shared.room.notify_all();
        // Publish errors poison the tier (inside publish_work); the
        // loop keeps running so drains/flushes can observe the poison
        // instead of hanging on inflight marks.
        let _ = shared.publish_work(work, true);
        p = shared.pending.lock().expect("pending lock");
    }
    // What is still queued is for `Drop` to publish, once it has joined
    // this thread.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ForkBase;
    use crate::value::Value;

    fn hot_db(publish_batch: usize, interval_ms: u64) -> ForkBase {
        ForkBase::in_memory_hot(HotTierConfig {
            enabled: true,
            publish_batch,
            publish_interval: Duration::from_millis(interval_ms),
        })
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn hot_writes_visible_immediately_and_after_flush() {
        let db = hot_db(1024, 1000); // big batch, long interval: we flush
        db.hot_put("acct", "alice", "100").unwrap();
        db.hot_put("acct", "bob", "50").unwrap();
        assert_eq!(db.hot_get("acct", b"alice").unwrap(), Some(b("100")));
        db.flush_hot().unwrap();
        // Committed in the tree now.
        let map = db.get_value("acct", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"alice").unwrap().as_ref(), b"100");
        assert_eq!(map.get(db.store(), b"bob").unwrap().as_ref(), b"50");
        let stats = db.hot_stats().unwrap();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.published, 2);
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn tombstones_shadow_committed_values() {
        let db = hot_db(1024, 1000);
        db.hot_put("k", "a", "v1").unwrap();
        db.flush_hot().unwrap();
        db.hot_delete("k", "a").unwrap();
        // Deleted in the hot tier even though the tree still has it.
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        db.flush_hot().unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        assert_eq!(
            db.get_value("k", None)
                .unwrap()
                .as_map()
                .unwrap()
                .get(db.store(), b"a"),
            None
        );
    }

    #[test]
    fn tree_read_observes_earlier_hot_puts() {
        let db = hot_db(1 << 20, 10_000); // publisher effectively idle
        db.hot_put("k", "x", "1").unwrap();
        // get() must drain the pending edit first (read-your-writes).
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"x").unwrap().as_ref(), b"1");
    }

    #[test]
    fn tree_write_invalidates_hot_state() {
        let db = hot_db(1024, 1000);
        db.hot_put("k", "a", "hot").unwrap();
        db.flush_hot().unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("hot")));
        // Direct tree write replaces the whole map value.
        let map = db.new_map([("a", "tree")]);
        db.put("k", None, Value::Map(map)).unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("tree")));
    }

    /// Every reader of a key's branch table sees earlier `hot_put`s, not
    /// only the ones that read the default branch by name.
    #[test]
    fn branch_listings_and_checkpoints_observe_earlier_hot_puts() {
        let store = Arc::new(forkbase_chunk::MemStore::new());
        let db = ForkBase::with_store_hot(
            store.clone(),
            Default::default(),
            HotTierConfig {
                enabled: true,
                publish_batch: 1 << 20,
                publish_interval: Duration::from_secs(3600),
            },
        );
        db.hot_put("k", "a", "1").unwrap();
        db.flush_hot().unwrap();
        db.hot_put("k", "a", "2").unwrap();
        let listed = db.list_tagged_branches("k").unwrap();
        assert_eq!(
            listed,
            vec![("master".to_string(), db.head("k", None).unwrap())]
        );

        db.hot_put("k", "a", "3").unwrap();
        db.hot_put("fresh", "x", "y").unwrap();
        assert_eq!(db.list_keys(), vec![b("fresh"), b("k")]);
        db.hot_put("k", "a", "4").unwrap();
        let restored = ForkBase::restore(store, Default::default(), db.checkpoint()).unwrap();
        assert_eq!(restored.hot_get("k", b"a").unwrap(), Some(b("4")));
        assert_eq!(restored.hot_get("fresh", b"x").unwrap(), Some(b("y")));
    }

    /// The flat index describes the default branch: once that is renamed
    /// away or removed, nothing of it may still be served.
    #[test]
    fn renaming_or_removing_the_default_branch_drops_hot_state() {
        for remove in [false, true] {
            let db = hot_db(1 << 20, 3_600_000);
            db.hot_put("k", "a", "1").unwrap();
            if remove {
                db.fork("k", "master", "kept").unwrap();
                db.remove_branch("k", "master").unwrap();
            } else {
                db.rename_branch("k", "master", "kept").unwrap();
            }
            assert_eq!(db.hot_get("k", b"a").unwrap(), None, "remove: {remove}");
            let kept = db.get_value("k", Some("kept")).unwrap().as_map().unwrap();
            assert_eq!(kept.get(db.store(), b"a"), Some(b("1")));
        }
    }

    #[test]
    fn background_publisher_drains_without_flush() {
        let db = hot_db(4, 5);
        for i in 0..64 {
            db.hot_put("k", format!("sk{i}"), "v").unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = db.hot_stats().unwrap();
            if s.published == 64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "publisher stalled: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 64);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let db = hot_db(2, 1);
        // Cap is 16 (8×2); writing far past it must not grow pending
        // unboundedly and everything must land.
        for i in 0..500 {
            db.hot_put("k", format!("sk{i:03}"), "v").unwrap();
            assert!(db.hot_stats().unwrap().pending <= 16);
        }
        db.flush_hot().unwrap();
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 500);
    }

    #[test]
    fn drop_drains_fully() {
        let dir = tempdir();
        {
            let db = ForkBase::open_with(
                &dir,
                forkbase_crypto::ChunkerConfig::default(),
                forkbase_chunk::Durability::Always,
                forkbase_chunk::CacheConfig::default(),
                HotTierConfig {
                    enabled: true,
                    publish_batch: 1 << 20,
                    publish_interval: Duration::from_secs(3600),
                },
            )
            .unwrap();
            for i in 0..32 {
                db.hot_put("k", format!("sk{i}"), "v").unwrap();
            }
            // No flush: Drop must publish + checkpoint.
        }
        let db = ForkBase::open(&dir).unwrap();
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every commit barrier moves the recovery point exactly once: a
    /// checkpoint is a chunk and a log fsync, and taking it per publish
    /// round *and* on the way out doubled (tripled, for
    /// `commit_checkpoint`) the cost of a block boundary.
    #[test]
    fn commit_barriers_checkpoint_exactly_once() {
        let dir = tempdir();
        let db = ForkBase::open_with(
            &dir,
            forkbase_crypto::ChunkerConfig::default(),
            forkbase_chunk::Durability::Always,
            forkbase_chunk::CacheConfig::default(),
            HotTierConfig {
                enabled: true,
                publish_batch: 1 << 20,
                publish_interval: Duration::from_secs(3600),
            },
        )
        .unwrap();
        let checkpoints_of = |barrier: &dyn Fn() -> Result<()>| {
            for key in ["a", "b", "c"] {
                db.hot_put(key, "sk", "v").unwrap();
            }
            let before = db.checkpoints_committed();
            barrier().unwrap();
            db.checkpoints_committed() - before
        };
        assert_eq!(checkpoints_of(&|| db.flush_hot()), 1, "flush_hot");
        assert_eq!(
            checkpoints_of(&|| db.get_value("a", None).map(|_| ())),
            1,
            "drain before a tree read"
        );
        assert_eq!(
            checkpoints_of(&|| db.commit_checkpoint().map(|_| ())),
            1,
            "commit_checkpoint"
        );
        assert_eq!(checkpoints_of(&|| Ok(())), 0, "no barrier, no checkpoint");
        assert_eq!(db.hot_stats().unwrap().pending, 3);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Drop` used to set `stop` and notify without the pending lock, so
    /// the flag could land between the publisher's check and its wait —
    /// and the drop then slept out the publish interval (here: an hour).
    #[test]
    fn drop_never_waits_out_the_publish_interval() {
        for _ in 0..200 {
            let db = hot_db(1 << 20, 3_600_000);
            let start = std::time::Instant::now();
            drop(db);
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "drop took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let db = hot_db(1024, 1000);
        db.hot_put("k", "a", "1").unwrap();
        let snap = db.hot_snapshot("k").unwrap();
        db.hot_put("k", "a", "2").unwrap();
        db.hot_put("k", "b", "3").unwrap();
        assert_eq!(snap.get(b"a"), Some(&Some(b("1"))));
        assert_eq!(snap.get(b"b"), None);
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("2")));
    }

    #[test]
    fn disabled_tier_is_synchronous_write_through() {
        let db = ForkBase::in_memory();
        assert!(!db.hot_enabled());
        assert!(db.hot_stats().is_none());
        db.hot_put("k", "a", "v").unwrap();
        // Committed immediately, no flush needed.
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"a").unwrap().as_ref(), b"v");
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("v")));
        db.hot_delete("k", "a").unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
    }

    fn tempdir() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fb_hot_test_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
