//! The ForkBase handle: the full API surface of Table 1 (M1–M17).
//!
//! | Group | Methods |
//! |-------|---------|
//! | Get   | [`get`](ForkBase::get) (M1), [`get_version`](ForkBase::get_version) (M2) |
//! | Put   | [`put`](ForkBase::put) (M3), [`put_conflict`](ForkBase::put_conflict) (M4), [`commit`](ForkBase::commit)`(Commit { guard, .. })` (guarded put, §4.5.1) |
//! | Merge | [`merge_branches`](ForkBase::merge_branches) (M5), [`merge_with_version`](ForkBase::merge_with_version) (M6), [`merge_versions`](ForkBase::merge_versions) (M7) |
//! | View  | [`list_keys`](ForkBase::list_keys) (M8), [`list_tagged_branches`](ForkBase::list_tagged_branches) (M9), [`list_untagged_branches`](ForkBase::list_untagged_branches) (M10) |
//! | Fork  | [`fork`](ForkBase::fork) (M11), [`fork_version`](ForkBase::fork_version) (M12), [`rename_branch`](ForkBase::rename_branch) (M13), [`remove_branch`](ForkBase::remove_branch) (M14) |
//! | Track | [`track`](ForkBase::track) (M15), [`track_version`](ForkBase::track_version) (M16), [`lca`](ForkBase::lca) (M17) |
//!
//! [`ForkBase`] is the one engine type. Every write verb builds a
//! [`Commit`] and hands it to the pipeline in [`crate::commit`]; every
//! read of a branch table goes through one accessor. Those are the two
//! places the optional hot tier ([`crate::hot`]) is brought in step with
//! the tree, so no method of the handle can observe it behind.

use crate::branch::{BranchSlot, ShardedBranchMap};
use crate::checkpoint::BranchSnapshot;
use crate::commit::{Commit, Payload, Target};
use crate::error::{FbError, Result};
use crate::fobject::FObject;
use crate::history;
use crate::hot::{self, HotTier, HotTierConfig, HotTierStats};
use crate::value::Value;
use bytes::Bytes;
use forkbase_chunk::{
    CacheConfig, ChunkStore, ChunkType, Durability, LogConfig, LogStore, MemStore, ShardedCache,
};
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::{Blob, List, Map, Resolver, Set, WriteBatch};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The branch written when no branch is given (§3.1).
pub const DEFAULT_BRANCH: &str = "master";

/// What a handle and its hot tier share: the chunk store, the branch
/// tables, and the commit pipeline over them
/// ([`commit_all`](Engine::commit_all), in [`crate::commit`]). Nothing
/// here knows the hot tier — its rounds commit through it without
/// meeting the tier itself.
pub(crate) struct Engine {
    pub(crate) store: Arc<dyn ChunkStore>,
    pub(crate) cfg: ChunkerConfig,
    /// Per-key branch-head slots behind striped locks (§4.5 branch
    /// tables). Commits serialize per key, never across keys.
    pub(crate) branches: ShardedBranchMap,
    /// The backing [`LogStore`] of a durable instance.
    pub(crate) durable: Option<Arc<LogStore>>,
    /// The read-tier chunk cache when one was configured at open.
    cache: Option<Arc<ShardedCache>>,
    /// Serializes [`commit_checkpoint`](Self::commit_checkpoint): the
    /// hot tier checkpoints after its drains and persists while flushes
    /// and callers checkpoint too, and the root records must enter the
    /// log in the order the branch tables were captured (an older capture
    /// landing last would be the one a reopen restores).
    ckpt_lock: Mutex<()>,
    /// Recovery points committed by this instance.
    checkpoints: AtomicU64,
}

impl Engine {
    /// The version `uid` of `key` (M2).
    pub(crate) fn version(&self, key: &Bytes, uid: Digest) -> Result<FObject> {
        let obj = FObject::load(self.store.as_ref(), uid)?;
        if obj.key != *key {
            return Err(FbError::VersionNotFound(uid));
        }
        Ok(obj)
    }

    /// Latest committed value of `subkey` inside the Map at `key`'s
    /// default-branch head — the hot tier's fall-through read. A missing
    /// key, branch or subkey is `Ok(None)`; only store/decode failures
    /// (or a non-Map head) error.
    pub(crate) fn map_get_latest(&self, key: &Bytes, subkey: &[u8]) -> Result<Option<Bytes>> {
        let head = self
            .branches
            .get(key)
            .and_then(|slot| slot.read().head(DEFAULT_BRANCH));
        let Some(uid) = head else { return Ok(None) };
        let store = self.store.as_ref();
        let map = FObject::load(store, uid)?.value(store)?.as_map()?;
        Ok(map.get(store, subkey))
    }

    /// Every key's branch table as a canonical snapshot. Each slot is
    /// read consistently; under concurrent writers the snapshot as a
    /// whole is some interleaving of their per-key publishes (the same
    /// guarantee readers get). With a `journal` to list, each key's hot
    /// mark is read with its heads.
    fn snapshot_branches(&self, journal: Vec<Digest>) -> BranchSnapshot {
        let (mut entries, mut marks) = (Vec::new(), Vec::new());
        self.branches.for_each(|key, table| {
            entries.push((key.clone(), table.tagged_branches(), table.untagged_heads()));
            if !journal.is_empty() && table.hot_mark() > 0 {
                marks.push((key.clone(), table.hot_mark()));
            }
        });
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        marks.sort();
        BranchSnapshot {
            entries,
            journal,
            marks,
        }
    }

    fn checkpoint(&self, journal: Vec<Digest>) -> Digest {
        let chunk = self.snapshot_branches(journal).to_chunk();
        let cid = chunk.cid();
        self.store.put(chunk);
        cid
    }

    /// Checkpoint the branch tables and make that the recovery point:
    /// the checkpoint chunk and a root record naming it are appended to
    /// the chunk log behind everything written so far and fsynced with it
    /// ([`LogStore::sync_root`]) — one `write`, one fsync. `journal`
    /// names the hot tier's journal Blobs to list; it is called before
    /// the tables are read, so its list can only be too long.
    pub(crate) fn commit_checkpoint(
        &self,
        journal: impl FnOnce() -> Vec<Digest>,
    ) -> Result<Digest> {
        let log = self
            .durable
            .as_ref()
            .ok_or_else(|| FbError::Io("not a durable instance (use ForkBase::open)".into()))?;
        let _serialized = self.ckpt_lock.lock().expect("checkpoint lock");
        let chunk = self.snapshot_branches(journal()).to_chunk();
        let cid = chunk.cid();
        log.sync_root(chunk)?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(cid)
    }
}

/// The branch tables a checkpoint chunk holds, and the checkpoint itself
/// (for its journal list).
fn load_branches(
    store: &dyn ChunkStore,
    checkpoint: Digest,
) -> Result<(ShardedBranchMap, BranchSnapshot)> {
    let chunk = store
        .get(&checkpoint)
        .ok_or(FbError::VersionNotFound(checkpoint))?;
    if chunk.ty() != ChunkType::Checkpoint {
        return Err(FbError::Corrupt(format!(
            "cid {} is not a checkpoint chunk",
            checkpoint.short_hex()
        )));
    }
    let branches = ShardedBranchMap::new();
    let mut snap = BranchSnapshot::decode(chunk.payload())?;
    for (key, tagged, untagged) in std::mem::take(&mut snap.entries) {
        let slot = branches.slot(&key);
        let mut table = slot.write();
        for (name, head) in tagged {
            table.set_head(&name, head);
        }
        for head in untagged {
            table.record_version(head, &[]);
        }
    }
    Ok((branches, snap))
}

/// An embedded ForkBase instance: one servlet plus one chunk storage
/// (§4.1: "when used as an embedded storage, only one servlet and one
/// chunk storage are instantiated"), fronted by an optional flat
/// hot-state tier (see [`crate::hot`]).
///
/// With the tier on, `hot_*` writes to a key's **default branch** sit in
/// the flat index until a round commits them. Every other method
/// sees them committed: a write to the default branch first publishes
/// the key's pending edits and drops its flat entries (the write makes
/// them stale), and a read of a key's branch table first publishes them
/// — whole-table reads (`list_keys`, `checkpoint`) publish every key's.
/// Version reads by uid never touch the tier.
pub struct ForkBase {
    core: Arc<Engine>,
    hot: Option<HotTier>,
}

impl ForkBase {
    /// In-memory instance with default chunking parameters and the hot
    /// tier off.
    pub fn in_memory() -> ForkBase {
        Self::in_memory_hot(HotTierConfig::default())
    }

    /// In-memory instance with an explicit hot-tier configuration.
    pub fn in_memory_hot(hot: HotTierConfig) -> ForkBase {
        Self::with_store_hot(Arc::new(MemStore::new()), ChunkerConfig::default(), hot)
    }

    /// Instance over an arbitrary chunk store (persistent, partitioned,
    /// replicated, …), hot tier off.
    pub fn with_store(store: Arc<dyn ChunkStore>, cfg: ChunkerConfig) -> ForkBase {
        Self::with_store_hot(store, cfg, HotTierConfig::default())
    }

    /// [`with_store`](Self::with_store) with an explicit hot-tier
    /// configuration.
    pub fn with_store_hot(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        hot: HotTierConfig,
    ) -> ForkBase {
        Self::assemble(store, cfg, ShardedBranchMap::new(), None, None, hot)
    }

    /// Open (or create) a durable instance in directory `path` over a
    /// segmented [`LogStore`] with default chunking, sizing,
    /// [`Durability`], the default read-tier chunk cache
    /// ([`CacheConfig::default`] — on), and the hot tier off. If the
    /// log holds a root record (written by
    /// [`commit_checkpoint`](Self::commit_checkpoint)), all branch
    /// heads are restored from the checkpoint the last intact one names,
    /// and the hot-tier journal it lists is published into the tree
    /// ([`persist_hot`](Self::persist_hot)).
    pub fn open(path: impl AsRef<Path>) -> Result<ForkBase> {
        Self::open_with(
            path,
            ChunkerConfig::default(),
            Durability::default(),
            CacheConfig::default(),
            HotTierConfig::default(),
        )
    }

    /// [`open`](Self::open) with explicit chunking configuration,
    /// durability policy, read-tier cache sizing (pass
    /// [`CacheConfig::disabled`] for raw `LogStore` reads), and
    /// hot-tier configuration (pass [`HotTierConfig::default`] for the
    /// tree-only engine).
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: ChunkerConfig,
        durability: Durability,
        cache: CacheConfig,
        hot: HotTierConfig,
    ) -> Result<ForkBase> {
        let log = Arc::new(LogStore::open_with(path, LogConfig::default(), durability)?);
        let cache = cache
            .enabled
            .then(|| Arc::new(ShardedCache::new(log.clone() as Arc<dyn ChunkStore>, cache)));
        let store: Arc<dyn ChunkStore> = match &cache {
            Some(cache) => cache.clone(),
            None => log.clone(),
        };
        let (branches, snap) = match log.root() {
            Some(checkpoint) => load_branches(store.as_ref(), checkpoint)?,
            None => Default::default(),
        };
        let db = Self::assemble(store, cfg, branches, Some(log), cache, hot);
        hot::replay_journal(&db.core, &snap.journal, &snap.marks)?;
        Ok(db)
    }

    /// Reopen an instance from a store plus the cid of a checkpoint
    /// taken with [`checkpoint`](Self::checkpoint), hot tier off. All
    /// branch heads, tagged and untagged, are restored; the data itself
    /// was already in the store.
    pub fn restore(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        checkpoint: Digest,
    ) -> Result<ForkBase> {
        let (branches, snap) = load_branches(store.as_ref(), checkpoint)?;
        let hot = HotTierConfig::default();
        let db = Self::assemble(store, cfg, branches, None, None, hot);
        hot::replay_journal(&db.core, &snap.journal, &snap.marks)?;
        Ok(db)
    }

    fn assemble(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        branches: ShardedBranchMap,
        durable: Option<Arc<LogStore>>,
        cache: Option<Arc<ShardedCache>>,
        hot: HotTierConfig,
    ) -> ForkBase {
        let core = Arc::new(Engine {
            store,
            cfg,
            branches,
            durable,
            cache,
            ckpt_lock: Mutex::new(()),
            checkpoints: AtomicU64::new(0),
        });
        let hot = HotTier::new(Arc::clone(&core), hot);
        ForkBase { core, hot }
    }

    /// How many times [`commit_checkpoint`](Self::commit_checkpoint) has
    /// moved this instance's recovery point (the hot tier's included).
    /// Each one costs a checkpoint chunk and a log fsync, so this is the
    /// number to watch when a commit barrier seems slow.
    pub fn checkpoints_committed(&self) -> u64 {
        self.core.checkpoints.load(Ordering::Relaxed)
    }

    /// The backing [`LogStore`] when this instance was opened durably.
    pub fn durable_store(&self) -> Option<&Arc<LogStore>> {
        self.core.durable.as_ref()
    }

    /// The read-tier chunk cache when one was configured at open.
    pub fn chunk_cache(&self) -> Option<&Arc<ShardedCache>> {
        self.core.cache.as_ref()
    }

    /// (cache hits, cache misses) of the read tier, if caching is on.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.core.cache.as_ref().map(|c| c.hit_miss())
    }

    /// The underlying chunk store.
    pub fn store(&self) -> &dyn ChunkStore {
        self.core.store.as_ref()
    }

    /// The chunking configuration.
    pub fn cfg(&self) -> &ChunkerConfig {
        &self.core.cfg
    }

    // ---- chunkable value constructors -----------------------------------

    /// Build a Blob in this instance's store.
    pub fn new_blob(&self, data: &[u8]) -> Blob {
        Blob::build(self.store(), self.cfg(), data)
    }

    /// Build a Blob from an owned/shared buffer: leaf payloads are
    /// zero-copy slices of `data`, skipping the up-front copy
    /// [`new_blob`](Self::new_blob) pays for borrowed input.
    pub fn new_blob_bytes(&self, data: impl Into<Bytes>) -> Blob {
        Blob::build_bytes(self.store(), self.cfg(), data)
    }

    /// Build a List in this instance's store.
    pub fn new_list<I, B>(&self, elems: I) -> List
    where
        I: IntoIterator<Item = B>,
        B: Into<Bytes>,
    {
        List::build(self.store(), self.cfg(), elems)
    }

    /// Build a Map in this instance's store.
    pub fn new_map<I, K, V>(&self, pairs: I) -> Map
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<Bytes>,
        V: Into<Bytes>,
    {
        Map::build(self.store(), self.cfg(), pairs)
    }

    /// Build a Set in this instance's store.
    pub fn new_set<I, K>(&self, elems: I) -> Set
    where
        I: IntoIterator<Item = K>,
        K: Into<Bytes>,
    {
        Set::build(self.store(), self.cfg(), elems)
    }

    // ---- Hot/tree coordination: the two places it happens ----------------

    /// Before `key`'s default branch is written, renamed or removed
    /// through the tree: publish the key's pending hot edits (so the
    /// write derives from them) and drop its flat entries (the write
    /// makes them stale).
    fn sync_write(&self, key: &Bytes, branch: &str) -> Result<()> {
        if let (Some(hot), DEFAULT_BRANCH) = (&self.hot, branch) {
            hot.drain_key(key)?;
            hot.invalidate(key);
        }
        Ok(())
    }

    /// The branch tables, for reading: `key`'s pending hot edits — every
    /// key's for `None` — are published first, so what is read contains
    /// each `hot_*` write that came before.
    fn tables(&self, key: Option<&Bytes>) -> Result<&ShardedBranchMap> {
        if let Some(hot) = &self.hot {
            match key {
                Some(key) => hot.drain_key(key)?,
                None => hot.publish_all()?,
            }
        }
        Ok(&self.core.branches)
    }

    /// [`tables`](Self::tables) of every key, for the reads that cannot
    /// fail. A tier poisoned by a failed publish has nothing more it
    /// can commit (and says so on every `hot_*` write, flush and
    /// per-key read); the tables then hold what was committed.
    fn all_tables(&self) -> &ShardedBranchMap {
        self.tables(None).unwrap_or(&self.core.branches)
    }

    // ---- Commit: every write verb is one of these ------------------------

    /// Run one [`Commit`] through the pipeline ([`crate::commit`]) and
    /// return the uid it yields.
    pub fn commit(&self, commit: Commit<'_>) -> Result<Digest> {
        Ok(self.commit_all(std::slice::from_ref(&commit))?[0])
    }

    /// Run a batch of [`Commit`]s through the pipeline as one pass —
    /// one store round for all their meta chunks — and return their
    /// uids in order. Commits to the same branch of the same key chain
    /// in batch order; the result is what issuing them one at a time
    /// would give, uid for uid.
    pub fn commit_all(&self, commits: &[Commit<'_>]) -> Result<Vec<Digest>> {
        for commit in commits {
            if let Target::Branch(branch) = commit.target {
                self.sync_write(&commit.key, branch)?;
            }
        }
        self.core.commit_all(commits)
    }

    /// M3: write a new version to a tagged branch (default branch when
    /// `branch` is `None`). The default branch is created implicitly;
    /// other branches must exist (create them with [`fork`](Self::fork)).
    pub fn put(&self, key: impl Into<Bytes>, branch: Option<&str>, value: Value) -> Result<Digest> {
        self.commit(Commit::branch(key, branch, Payload::Value(value)))
    }

    /// Batched M3: one new version for **each** of `entries`, as one
    /// [`commit_all`](Self::commit_all). A missing non-default branch
    /// fails the whole batch before any head moves; duplicate keys chain
    /// in batch order.
    pub fn put_many<I, K>(&self, branch: Option<&str>, entries: I) -> Result<Vec<Digest>>
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<Bytes>,
    {
        let commits: Vec<Commit<'_>> = entries
            .into_iter()
            .map(|(key, value)| Commit::branch(key, branch, Payload::Value(value)))
            .collect();
        self.commit_all(&commits)
    }

    /// Transactional Map batch commit: apply `batch` to the Map at the
    /// branch head of `key` as one multi-range splice and commit the
    /// result as a new version. A missing key starts from an empty map
    /// on the default branch. Racing batches are merged, not lost: each
    /// keeps its own edits and the other's.
    pub fn commit_map_batch(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        batch: WriteBatch,
    ) -> Result<Digest> {
        self.commit(Commit::branch(key, branch, Payload::MapEdits(batch)))
    }

    /// M4: fork-on-conflict put — derive a new untagged version from
    /// `base` (or start a fresh untagged lineage with `None`). Concurrent
    /// puts against the same base create conflicting heads, visible via
    /// [`list_untagged_branches`](Self::list_untagged_branches).
    pub fn put_conflict(
        &self,
        key: impl Into<Bytes>,
        base: Option<Digest>,
        value: Value,
    ) -> Result<Digest> {
        self.commit(Commit::untagged(key, base, Payload::Value(value)))
    }

    // ---- Merge (M5–M7) ----------------------------------------------------

    /// M5: merge another branch into `target`; only `target`'s head moves.
    pub fn merge_branches(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        reference: &str,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        let reference = self.head(key.clone(), Some(reference))?;
        self.merge_with_version(key, target, reference, resolver)
    }

    /// M6: merge a specific version into a tagged branch. A commit that
    /// reaches the branch while the merge is being built is merged
    /// with, not overwritten.
    pub fn merge_with_version(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        reference: Digest,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let payload = Payload::Merge {
            reference,
            resolver,
        };
        self.commit(Commit::branch(key, Some(target), payload))
    }

    /// M7: merge a collection of (typically untagged) heads into one new
    /// untagged head, logically replacing the inputs.
    pub fn merge_versions(
        &self,
        key: impl Into<Bytes>,
        uids: &[Digest],
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        let (&first, rest) = uids.split_first().ok_or(FbError::KeyNotFound)?;
        rest.iter().try_fold(first, |merged, &reference| {
            let payload = Payload::Merge {
                reference,
                resolver,
            };
            self.commit(Commit::untagged(key.clone(), Some(merged), payload))
        })
    }

    // ---- Get (M1, M2) ----------------------------------------------------

    /// M1: read the head version of a tagged branch (default branch when
    /// `None`).
    pub fn get(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<FObject> {
        let uid = self.head(key, branch)?;
        FObject::load(self.store(), uid)
    }

    /// The head uid of a tagged branch.
    pub fn head(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Digest> {
        let key = key.into();
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        let slot = self.slot(&key)?;
        let head = slot.read().head(branch);
        head.ok_or_else(|| FbError::BranchNotFound(branch.to_string()))
    }

    /// `key`'s branch table, hot edits published.
    fn slot(&self, key: &Bytes) -> Result<BranchSlot> {
        self.tables(Some(key))?.get(key).ok_or(FbError::KeyNotFound)
    }

    /// M2: read a specific version by uid (works for both tagged and
    /// untagged lineages).
    pub fn get_version(&self, key: impl Into<Bytes>, uid: Digest) -> Result<FObject> {
        self.core.version(&key.into(), uid)
    }

    /// Convenience: decode the head value of a branch.
    pub fn get_value(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Value> {
        let obj = self.get(key, branch)?;
        obj.value(self.store())
    }

    // ---- View (M8–M10) ---------------------------------------------------

    /// M8: every key with at least one branch.
    pub fn list_keys(&self) -> Vec<Bytes> {
        self.all_tables().keys()
    }

    /// M9: tagged branch names and head uids of a key.
    pub fn list_tagged_branches(&self, key: impl Into<Bytes>) -> Result<Vec<(String, Digest)>> {
        let out = self.slot(&key.into())?.read().tagged_branches();
        Ok(out)
    }

    /// M10: untagged (fork-on-conflict) heads of a key. A single entry
    /// means no conflict.
    pub fn list_untagged_branches(&self, key: impl Into<Bytes>) -> Result<Vec<Digest>> {
        let out = self.slot(&key.into())?.read().untagged_heads();
        Ok(out)
    }

    // ---- Fork (M11–M14) ---------------------------------------------------

    /// M11: create a tagged branch from an existing branch's head.
    pub fn fork(&self, key: impl Into<Bytes>, from: &str, new_branch: &str) -> Result<()> {
        let slot = self.slot(&key.into())?;
        let mut table = slot.write();
        if table.has_branch(new_branch) {
            return Err(FbError::BranchExists(new_branch.to_string()));
        }
        let head = table
            .head(from)
            .ok_or_else(|| FbError::BranchNotFound(from.to_string()))?;
        table.set_head(new_branch, head);
        Ok(())
    }

    /// M12: create a tagged branch at a (possibly non-head) version,
    /// making history modifiable (§3.3: "to change a historical version, a
    /// new branch can be created at that version").
    pub fn fork_version(&self, key: impl Into<Bytes>, uid: Digest, new_branch: &str) -> Result<()> {
        let key = key.into();
        self.core.version(&key, uid)?;
        let slot = self.tables(Some(&key))?.slot(&key);
        let mut table = slot.write();
        if table.has_branch(new_branch) {
            return Err(FbError::BranchExists(new_branch.to_string()));
        }
        table.set_head(new_branch, uid);
        Ok(())
    }

    /// M13: rename a tagged branch.
    pub fn rename_branch(&self, key: impl Into<Bytes>, from: &str, to: &str) -> Result<()> {
        let key = key.into();
        self.sync_write(&key, from)?;
        let slot = self.slot(&key)?;
        let mut table = slot.write();
        if table.has_branch(to) {
            return Err(FbError::BranchExists(to.to_string()));
        }
        if !table.rename(from, to) {
            return Err(FbError::BranchNotFound(from.to_string()));
        }
        Ok(())
    }

    /// M14: remove a tagged branch. Versions stay in the store (they may
    /// be shared with other branches and histories). If no other tagged
    /// branch names the removed head, it is also retired from the
    /// UB-table, so the branch's exclusive versions become unreachable
    /// and a later [`gc`](crate::gc) pass can reclaim them. Heads created
    /// purely by fork-on-conflict are unaffected — they are never tagged,
    /// so this path cannot retire them.
    pub fn remove_branch(&self, key: impl Into<Bytes>, branch: &str) -> Result<()> {
        let key = key.into();
        self.sync_write(&key, branch)?;
        let slot = self.slot(&key)?;
        let mut table = slot.write();
        let head = table
            .remove_branch(branch)
            .ok_or_else(|| FbError::BranchNotFound(branch.to_string()))?;
        let still_named = table.tagged_branches().iter().any(|(_, h)| *h == head);
        if !still_named {
            table.retire_untagged(head);
        }
        Ok(())
    }

    /// Retire fork-on-conflict heads from `key`'s UB-table without
    /// recording successors — the complement of
    /// [`remove_branch`](Self::remove_branch) for *untagged* lineages.
    /// Versions stay in the store; retiring a head only stops naming it
    /// as a leaf of the derivation graph, so the lineage's exclusive
    /// versions become reclaimable by a later [`gc`](crate::gc) pass. A
    /// head that is also the head of a tagged branch is skipped (the
    /// tagged ref still names it), as is a digest that is not currently
    /// an untagged head. Returns how many heads were actually retired.
    pub fn retire_untagged_heads(&self, key: impl Into<Bytes>, heads: &[Digest]) -> Result<usize> {
        let slot = self.slot(&key.into())?;
        let mut table = slot.write();
        let tagged: Vec<Digest> = table.tagged_branches().iter().map(|(_, h)| *h).collect();
        let retired = heads
            .iter()
            .filter(|head| !tagged.contains(head) && table.retire_untagged(**head))
            .count();
        Ok(retired)
    }

    // ---- Track (M15–M17) --------------------------------------------------

    /// M15: versions of a branch within `[min_dist, max_dist]` hops from
    /// the head.
    pub fn track(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<history::TrackedVersion>> {
        let head = self.head(key, branch)?;
        history::track(self.store(), head, min_dist, max_dist)
    }

    /// M16: versions within a distance range from an arbitrary version.
    pub fn track_version(
        &self,
        key: impl Into<Bytes>,
        uid: Digest,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<history::TrackedVersion>> {
        self.core.version(&key.into(), uid)?;
        history::track(self.store(), uid, min_dist, max_dist)
    }

    /// M17: the least common ancestor of two versions of the same key.
    pub fn lca(&self, key: impl Into<Bytes>, a: Digest, b: Digest) -> Result<Option<Digest>> {
        let key = key.into();
        self.core.version(&key, a)?;
        self.core.version(&key, b)?;
        history::lca(self.store(), a, b)
    }

    // ---- Checkpoint / restore (engine extension) --------------------------

    /// Capture every key's branch table as a canonical snapshot. Each
    /// slot is read consistently; under concurrent writers the snapshot
    /// as a whole is some interleaving of their per-key publishes (the
    /// same guarantee readers get).
    pub fn snapshot_branches(&self) -> BranchSnapshot {
        self.all_tables();
        self.core.snapshot_branches(Vec::new())
    }

    /// Persist the branch tables as a checkpoint chunk and return its cid
    /// — the one piece of state to keep outside the store (cf. git refs).
    pub fn checkpoint(&self) -> Digest {
        self.all_tables();
        let journal = self.journal();
        self.core.checkpoint(journal)
    }

    /// Checkpoint the branch tables into the store **and** make it the
    /// recovery point: a root record naming the checkpoint is appended
    /// to the chunk log and the log is fsynced, so a later
    /// [`open`](Self::open) of the same directory restores every branch
    /// head. Requires a durable instance.
    pub fn commit_checkpoint(&self) -> Result<Digest> {
        self.tables(None)?;
        self.core.commit_checkpoint(|| self.journal())
    }

    /// The hot tier's journal Blobs a checkpoint taken now must list.
    fn journal(&self) -> Vec<Digest> {
        self.hot
            .as_ref()
            .map(HotTier::journal_roots)
            .unwrap_or_default()
    }

    // ---- Hot-tier surface --------------------------------------------------

    /// Whether this handle fronts the engine with a hot tier.
    pub fn hot_enabled(&self) -> bool {
        self.hot.is_some()
    }

    /// Latest value of `subkey` under `key`'s default branch: answered
    /// from the hot tier when it knows the subkey (including
    /// tombstones), falling through to the committed POS-Tree map for
    /// cold entries. With the tier off this *is* the tree read.
    pub fn hot_get(&self, key: impl Into<Bytes>, subkey: &[u8]) -> Result<Option<Bytes>> {
        let key = key.into();
        match &self.hot {
            Some(hot) => hot.get(&key, subkey),
            None => self.core.map_get_latest(&key, subkey),
        }
    }

    /// Write `subkey = value` into `key`'s latest state. With the tier
    /// on, the write lands in the flat index immediately (visible to
    /// [`hot_get`](Self::hot_get) before any tree work) and reaches the
    /// POS-Tree in the next round a call cuts (see [`crate::hot`]): a
    /// barrier such as [`flush_hot`](Self::flush_hot), or a seal by
    /// [`persist_hot`](Self::persist_hot) or by a writer that finds the
    /// queue full. With the tier off it is a synchronous one-edit
    /// [`commit_map_batch`](Self::commit_map_batch).
    pub fn hot_put(
        &self,
        key: impl Into<Bytes>,
        subkey: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<()> {
        self.hot_put_many(key, [(subkey.into(), Some(value.into()))])
    }

    /// Batched [`hot_put`](Self::hot_put): `None` values are deletes.
    /// One enqueue (and, with the tier off, one tree splice) for the
    /// whole batch.
    pub fn hot_put_many(
        &self,
        key: impl Into<Bytes>,
        entries: impl IntoIterator<Item = (Bytes, Option<Bytes>)>,
    ) -> Result<()> {
        let key = key.into();
        let entries: Vec<(Bytes, Option<Bytes>)> = entries.into_iter().collect();
        if entries.is_empty() {
            return Ok(());
        }
        match &self.hot {
            Some(hot) => hot.put_many(&key, entries),
            None => self
                .commit_map_batch(key, None, entries.into_iter().collect())
                .map(|_| ()),
        }
    }

    /// Delete `subkey` from `key`'s latest state (a tombstone in the hot
    /// tier until published).
    pub fn hot_delete(&self, key: impl Into<Bytes>, subkey: impl Into<Bytes>) -> Result<()> {
        self.hot_put_many(key, [(subkey.into(), None)])
    }

    /// Publish every pending hot edit into the POS-Tree and, on a
    /// durable instance, [`commit_checkpoint`](Self::commit_checkpoint)
    /// the result. When this returns, every `hot_put` that happened
    /// before the call is committed (crash-recoverable on durable
    /// instances); per-key uids are readable via [`head`](Self::head).
    /// On a durable instance with the tier on, a crash loses exactly the
    /// edits accepted since the last `flush_hot` or `persist_hot`.
    /// With the tier off the writes were synchronous, and only the
    /// checkpoint is left to take.
    pub fn flush_hot(&self) -> Result<()> {
        match &self.hot {
            Some(hot) => hot.flush(),
            None if self.core.durable.is_some() => {
                self.core.commit_checkpoint(Vec::new).map(|_| ())
            }
            None => Ok(()),
        }
    }

    /// The hot tier's durability barrier without the publish. When this
    /// returns, every `hot_*` write that happened before the call
    /// survives a crash, as after [`flush_hot`](Self::flush_hot); the
    /// tree catches up in the background. On a durable instance with the
    /// tier on, the edits accepted since the last persist are encoded
    /// once into a journal Blob and one checkpoint lists it — one
    /// `write`, one fsync, no tree work — and a reopen publishes what the
    /// tree did not hold yet. The tree work goes in rounds the persists
    /// cut: once `4 × publish_batch` edits wait, a persist seals them, a
    /// thread of the round's own builds their trees in the background,
    /// and the persist that seals the next round stores and commits them
    /// (see [`crate::hot`]) — so the same calls store the same bytes. A
    /// persist with at least `publish_batch` new edits publishes them
    /// instead, as `flush_hot` does. In memory, or with the tier off
    /// (where `hot_put` is already a tree commit), this is `flush_hot`.
    ///
    /// Barriers that read or checkpoint the tree — [`flush_hot`](Self::flush_hot),
    /// [`checkpoint`](Self::checkpoint),
    /// [`commit_checkpoint`](Self::commit_checkpoint) — still publish
    /// everything first.
    pub fn persist_hot(&self) -> Result<()> {
        match &self.hot {
            Some(hot) => hot.persist(),
            None => self.flush_hot(),
        }
    }

    /// Hot-tier counters (hits/misses/writes/published/pending), or
    /// `None` with the tier off.
    pub fn hot_stats(&self) -> Option<HotTierStats> {
        self.hot.as_ref().map(|h| h.stats())
    }
}

#[cfg(test)]
impl ForkBase {
    /// The hot tier itself, for its own tests.
    pub(crate) fn hot_tier(&self) -> Option<&HotTier> {
        self.hot.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_default_branch() {
        let db = ForkBase::in_memory();
        let uid = db.put("k", None, Value::String("v1".into())).expect("put");
        let obj = db.get("k", None).expect("get");
        assert_eq!(obj.uid(), uid);
        assert_eq!(
            obj.value(db.store()).expect("value"),
            Value::String("v1".into())
        );
        assert_eq!(obj.depth, 0);
        assert!(obj.bases.is_empty());
    }

    #[test]
    fn versions_chain_through_bases() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        let v1 = db.put("k", None, Value::Int(1)).expect("put");
        let obj1 = db.get("k", None).expect("get");
        assert_eq!(obj1.uid(), v1);
        assert_eq!(obj1.bases, vec![v0]);
        assert_eq!(obj1.depth, 1);
    }

    #[test]
    fn kv_compliance_when_only_default_branch() {
        // §3.1: "the data model is compliant to the basic key-value model
        // when only the default branch is used".
        let db = ForkBase::in_memory();
        for i in 0..20 {
            db.put("counter", None, Value::Int(i)).expect("put");
        }
        assert_eq!(db.get_value("counter", None).expect("get"), Value::Int(19));
    }

    #[test]
    fn missing_key_and_branch_errors() {
        let db = ForkBase::in_memory();
        assert_eq!(
            db.get("nope", None).expect_err("missing"),
            FbError::KeyNotFound
        );
        db.put("k", None, Value::Int(1)).expect("put");
        assert!(matches!(
            db.get("k", Some("feature")).expect_err("missing branch"),
            FbError::BranchNotFound(_)
        ));
        assert!(matches!(
            db.put("k", Some("feature"), Value::Int(2))
                .expect_err("missing branch"),
            FbError::BranchNotFound(_)
        ));
    }

    #[test]
    fn fork_on_demand_isolates_branches() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::String("base".into()))
            .expect("put");
        db.fork("k", DEFAULT_BRANCH, "feature").expect("fork");
        db.put("k", Some("feature"), Value::String("feature work".into()))
            .expect("put");

        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("base".into()),
            "master unaffected by feature work"
        );
        assert_eq!(
            db.get_value("k", Some("feature")).expect("get"),
            Value::String("feature work".into())
        );
        let branches = db.list_tagged_branches("k").expect("list");
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn fork_duplicate_name_rejected() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "b").expect("fork");
        assert!(matches!(
            db.fork("k", DEFAULT_BRANCH, "b").expect_err("dup"),
            FbError::BranchExists(_)
        ));
    }

    #[test]
    fn fork_version_reopens_history() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork_version("k", v0, "old").expect("fork");
        assert_eq!(db.get_value("k", Some("old")).expect("get"), Value::Int(0));
        // The historical branch is modifiable.
        db.put("k", Some("old"), Value::Int(100)).expect("put");
        assert_eq!(
            db.get_value("k", Some("old")).expect("get"),
            Value::Int(100)
        );
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(1));
    }

    #[test]
    fn rename_and_remove_branch() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "a").expect("fork");
        db.rename_branch("k", "a", "b").expect("rename");
        assert!(db.get("k", Some("a")).is_err());
        assert!(db.get("k", Some("b")).is_ok());
        db.remove_branch("k", "b").expect("remove");
        assert!(db.get("k", Some("b")).is_err());
        // Removing a branch never deletes versions.
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(1));
    }

    #[test]
    fn guarded_put_detects_races() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        // Someone else writes first.
        let v1 = db.put("k", None, Value::Int(1)).expect("put");
        let guarded = |value, guard| {
            db.commit(Commit {
                guard: Some(guard),
                ..Commit::branch("k", None, Payload::Value(value))
            })
        };
        let err = guarded(Value::Int(99), v0).expect_err("stale guard");
        assert_eq!(
            err,
            FbError::GuardFailed {
                expected: v0,
                actual: v1
            }
        );
        // With the current head it succeeds.
        guarded(Value::Int(2), v1).expect("guarded put");
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn fork_on_conflict_creates_untagged_heads() {
        let db = ForkBase::in_memory();
        let v0 = db.put_conflict("k", None, Value::Int(0)).expect("genesis");
        assert_eq!(db.list_untagged_branches("k").expect("list"), vec![v0]);

        // Two concurrent updates against the same base (Figure 3b).
        let w1 = db.put_conflict("k", Some(v0), Value::Int(1)).expect("w1");
        let w2 = db.put_conflict("k", Some(v0), Value::Int(2)).expect("w2");
        let heads = db.list_untagged_branches("k").expect("list");
        assert_eq!(heads.len(), 2, "conflict detected");
        assert!(heads.contains(&w1) && heads.contains(&w2));

        // Merge resolves back to a single head.
        let merged = db
            .merge_versions("k", &heads, &Resolver::Aggregate)
            .expect("merge");
        assert_eq!(db.list_untagged_branches("k").expect("list"), vec![merged]);
        let obj = db.get_version("k", merged).expect("get");
        assert_eq!(
            obj.value(db.store()).expect("value"),
            Value::Int(3),
            "0+1+2 deltas"
        );
        assert_eq!(obj.bases.len(), 2);
    }

    #[test]
    fn map_branch_merge() {
        let db = ForkBase::in_memory();
        let m = db.new_map([("a", "1"), ("b", "2")]);
        db.put("cfg", None, Value::Map(m)).expect("put");
        db.fork("cfg", DEFAULT_BRANCH, "team-x").expect("fork");

        // master edits key a; team-x edits key b.
        let head = db.get("cfg", None).expect("get");
        let m1 = head.value(db.store()).expect("v").as_map().expect("map");
        let m1 = m1
            .put(db.store(), db.cfg(), "a", "master-edit")
            .expect("put");
        db.put("cfg", None, Value::Map(m1)).expect("put");

        let head = db.get("cfg", Some("team-x")).expect("get");
        let m2 = head.value(db.store()).expect("v").as_map().expect("map");
        let m2 = m2
            .put(db.store(), db.cfg(), "b", "teamx-edit")
            .expect("put");
        db.put("cfg", Some("team-x"), Value::Map(m2)).expect("put");

        let merged_uid = db
            .merge_branches("cfg", DEFAULT_BRANCH, "team-x", &Resolver::Fail)
            .expect("merge");
        let obj = db.get("cfg", None).expect("get");
        assert_eq!(obj.uid(), merged_uid);
        let map = obj.value(db.store()).expect("v").as_map().expect("map");
        assert_eq!(
            map.get(db.store(), b"a").expect("a").as_ref(),
            b"master-edit"
        );
        assert_eq!(
            map.get(db.store(), b"b").expect("b").as_ref(),
            b"teamx-edit"
        );
        // Reference branch head unchanged (M5: only the first branch's
        // head is updated).
        let ref_obj = db.get("cfg", Some("team-x")).expect("get");
        assert_ne!(ref_obj.uid(), merged_uid);
    }

    #[test]
    fn merge_conflict_surfaces() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::String("base".into()))
            .expect("put");
        db.fork("k", DEFAULT_BRANCH, "other").expect("fork");
        db.put("k", None, Value::String("ours".into()))
            .expect("put");
        db.put("k", Some("other"), Value::String("theirs".into()))
            .expect("put");
        let err = db
            .merge_branches("k", DEFAULT_BRANCH, "other", &Resolver::Fail)
            .expect_err("conflict");
        assert!(matches!(err, FbError::MergeConflict(_)));
        // choose-one resolves it.
        db.merge_branches("k", DEFAULT_BRANCH, "other", &Resolver::TakeTheirs)
            .expect("resolved");
        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("theirs".into())
        );
    }

    /// A meta chunk is bytes off the store: one whose type tag says Map
    /// over a payload that is no tree root must fail the commits that
    /// read it, not panic in them.
    #[test]
    fn commits_onto_a_mistyped_version_error() {
        let db = ForkBase::in_memory();
        let v0 = db
            .put("k", None, Value::Map(db.new_map([("a", "1")])))
            .expect("put");
        db.put("k", None, Value::Map(db.new_map([("a", "2")])))
            .expect("put");
        let mut bad = FObject::new("k", &Value::Int(7), vec![v0], 1, "");
        bad.vtype = crate::value::ValueType::Map;
        let chunk = bad.to_chunk();
        let bad_uid = chunk.cid();
        db.store().put(chunk);
        db.fork_version("k", bad_uid, "bad").expect("fork");

        for (target, reference) in [("master", "bad"), ("bad", "master")] {
            let err = db
                .merge_branches("k", target, reference, &Resolver::TakeOurs)
                .expect_err("mistyped version");
            assert!(matches!(err, FbError::Corrupt(_)), "{target}: {err:?}");
        }
        let mut wb = WriteBatch::new();
        wb.put("b", "3");
        let err = db
            .commit_map_batch("k", Some("bad"), wb)
            .expect_err("mistyped version");
        assert!(matches!(err, FbError::Corrupt(_)), "{err:?}");
        assert_eq!(db.head("k", Some("bad")).expect("head"), bad_uid);
    }

    /// `Target::Chained` names the untagged commit before it in the
    /// batch; with none there, the batch is refused whole.
    #[test]
    fn chained_without_a_predecessor_is_refused() {
        let db = ForkBase::in_memory();
        let chained = |key: &'static str| Commit {
            target: Target::Chained,
            ..Commit::untagged(key, None, Payload::Value(Value::Int(1)))
        };
        let first = || Commit::untagged("k", None, Payload::Value(Value::Int(0)));
        let tagged = || Commit::branch("k", None, Payload::Value(Value::Int(0)));
        for batch in [
            vec![chained("k")],
            vec![first(), chained("other")],
            vec![tagged(), chained("k")],
        ] {
            assert_eq!(db.commit_all(&batch), Err(FbError::KeyNotFound));
        }
        assert!(db.list_keys().is_empty());
        let uids = db.commit_all(&[first(), chained("k")]).expect("chain");
        assert_eq!(db.list_untagged_branches("k").expect("list"), uids[1..]);
    }

    #[test]
    fn fast_forward_merge() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(0)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "ahead").expect("fork");
        db.put("k", Some("ahead"), Value::Int(1)).expect("put");
        db.put("k", Some("ahead"), Value::Int(2)).expect("put");
        // master hasn't moved: merging "ahead" is a fast-forward commit.
        db.merge_branches("k", DEFAULT_BRANCH, "ahead", &Resolver::Fail)
            .expect("ff merge");
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn track_walks_history() {
        let db = ForkBase::in_memory();
        let mut uids = Vec::new();
        for i in 0..5 {
            uids.push(db.put("k", None, Value::Int(i)).expect("put"));
        }
        let all = db.track("k", None, 0, 10).expect("track");
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].uid, uids[4], "distance 0 is the head");
        assert_eq!(all[4].uid, uids[0], "distance 4 is genesis");

        let window = db.track("k", None, 1, 2).expect("track");
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].uid, uids[3]);
        assert_eq!(window[1].uid, uids[2]);
    }

    #[test]
    fn lca_of_forked_branches() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(0)).expect("put");
        let fork_point = db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "b").expect("fork");
        let a_head = db.put("k", None, Value::Int(2)).expect("put");
        let b_head = db.put("k", Some("b"), Value::Int(3)).expect("put");
        assert_eq!(db.lca("k", a_head, b_head).expect("lca"), Some(fork_point));
    }

    #[test]
    fn list_keys_sorted() {
        let db = ForkBase::in_memory();
        db.put("zebra", None, Value::Int(1)).expect("put");
        db.put("apple", None, Value::Int(2)).expect("put");
        let keys = db.list_keys();
        assert_eq!(keys, vec![Bytes::from("apple"), Bytes::from("zebra")]);
    }

    #[test]
    fn get_version_checks_key() {
        let db = ForkBase::in_memory();
        let uid = db.put("k1", None, Value::Int(1)).expect("put");
        assert!(db.get_version("k2", uid).is_err());
        assert!(db.get_version("k1", uid).is_ok());
    }

    #[test]
    fn put_many_advances_all_heads_atomically() {
        let db = ForkBase::in_memory();
        let uids = db
            .put_many(None, (0..10).map(|i| (format!("key-{i}"), Value::Int(i))))
            .expect("put_many");
        assert_eq!(uids.len(), 10);
        for i in 0..10 {
            assert_eq!(
                db.get_value(format!("key-{i}"), None).expect("get"),
                Value::Int(i)
            );
        }
        // Duplicate keys in one batch chain versions.
        let uids = db
            .put_many(None, [("dup", Value::Int(1)), ("dup", Value::Int(2))])
            .expect("put_many");
        let obj = db.get("dup", None).expect("get");
        assert_eq!(obj.uid(), uids[1]);
        assert_eq!(obj.bases, vec![uids[0]]);
        assert_eq!(db.get_value("dup", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn put_many_missing_branch_moves_no_heads() {
        let db = ForkBase::in_memory();
        db.put("a", None, Value::Int(0)).expect("put");
        let err = db
            .put_many(
                Some("nope"),
                [("a", Value::Int(1)), ("never-written", Value::Int(2))],
            )
            .expect_err("missing branch");
        assert!(matches!(err, FbError::BranchNotFound(_)));
        assert_eq!(db.get_value("a", None).expect("get"), Value::Int(0));
        assert_eq!(
            db.get("never-written", None).expect_err("untouched"),
            FbError::KeyNotFound
        );
    }

    #[test]
    fn commit_map_batch_single_splice_version() {
        let db = ForkBase::in_memory();
        let m = db.new_map([("a", "1"), ("b", "2")]);
        db.put("cfg", None, Value::Map(m)).expect("put");

        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("c", "3").delete("a").put("b", "2-edited");
        let uid = db.commit_map_batch("cfg", None, wb).expect("commit");

        let obj = db.get("cfg", None).expect("get");
        assert_eq!(obj.uid(), uid);
        assert_eq!(obj.depth, 1, "one committed version for the whole batch");
        let map = obj.value(db.store()).expect("v").as_map().expect("map");
        assert!(map.get(db.store(), b"a").is_none());
        assert_eq!(map.get(db.store(), b"b").expect("b").as_ref(), b"2-edited");
        assert_eq!(map.get(db.store(), b"c").expect("c").as_ref(), b"3");
    }

    #[test]
    fn commit_map_batch_creates_key_on_default_branch() {
        let db = ForkBase::in_memory();
        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("x", "1");
        db.commit_map_batch("fresh", None, wb).expect("commit");
        let map = db
            .get_value("fresh", None)
            .expect("get")
            .as_map()
            .expect("map");
        assert_eq!(map.get(db.store(), b"x").expect("x").as_ref(), b"1");

        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("y", "2");
        assert!(matches!(
            db.commit_map_batch("fresh", Some("ghost"), wb)
                .expect_err("branch"),
            FbError::BranchNotFound(_)
        ));
    }

    #[test]
    fn commit_map_batch_rejects_non_map() {
        let db = ForkBase::in_memory();
        db.put("s", None, Value::String("text".into()))
            .expect("put");
        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("k", "v");
        assert!(matches!(
            db.commit_map_batch("s", None, wb).expect_err("type"),
            FbError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn open_restores_checkpointed_branches() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-db-open-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = ForkBase::open_with(
                &dir,
                ChunkerConfig::default(),
                forkbase_chunk::Durability::Always,
                CacheConfig::default(),
                HotTierConfig::default(),
            )
            .expect("open");
            assert!(db.durable_store().is_some());
            assert!(db.chunk_cache().is_some(), "cache defaults on");
            db.put("k", None, Value::String("v1".into())).expect("put");
            db.fork("k", DEFAULT_BRANCH, "feature").expect("fork");
            db.put("k", Some("feature"), Value::Int(7)).expect("put");
            db.commit_checkpoint().expect("checkpoint");
        }
        let db = ForkBase::open(&dir).expect("reopen");
        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("v1".into())
        );
        assert_eq!(
            db.get_value("k", Some("feature")).expect("get"),
            Value::Int(7)
        );
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_without_checkpoint_starts_empty_but_keeps_chunks() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-db-nockpt-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let uid = {
            let db = ForkBase::open(&dir).expect("open");
            let uid = db.put("k", None, Value::Int(1)).expect("put");
            db.durable_store().expect("durable").sync().expect("sync");
            uid
        };
        // No commit_checkpoint: branch heads are gone, but versions are
        // still reachable by uid (chunk durability is independent).
        let db = ForkBase::open(&dir).expect("reopen");
        assert_eq!(
            db.get("k", None).expect_err("no heads"),
            FbError::KeyNotFound
        );
        assert_eq!(
            db.get_version("k", uid)
                .expect("version durable")
                .value(db.store())
                .expect("value"),
            Value::Int(1)
        );
        assert!(matches!(
            ForkBase::in_memory().commit_checkpoint().expect_err("mem"),
            FbError::Io(_)
        ));
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A direct tree write can move a key's head after a staged round was
    /// built on it (a drain on one thread, a sealing persist on another,
    /// then the write): the round's guarded commit fails, and its edits
    /// are spliced onto the moved head instead of poisoning the tier.
    #[test]
    fn a_staged_round_splices_onto_a_head_moved_under_it() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-db-staged-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let hot = HotTierConfig {
            enabled: true,
            publish_batch: 8, // a persist with 32 queued edits seals them
            ..HotTierConfig::on()
        };
        let db = ForkBase::open_with(
            &dir,
            ChunkerConfig::default(),
            forkbase_chunk::Durability::Always,
            CacheConfig::default(),
            hot,
        )
        .expect("open");
        let sk = |i: u32| Bytes::from(format!("sk{i:02}"));
        db.hot_put("k", sk(99), "base").expect("hot put");
        db.flush_hot().expect("a head to build on");
        for block in 0..8u32 {
            let edits = (block * 4..block * 4 + 4).map(|i| (sk(i), Some(Bytes::from("hot"))));
            db.hot_put_many("k", edits).expect("hot put");
            db.persist_hot().expect("persist");
        }
        std::thread::sleep(std::time::Duration::from_millis(200)); // let the round's build end
        let mut direct = WriteBatch::new();
        direct.put(sk(40), "tree");
        let edits = Payload::MapEdits(direct);
        db.core
            .commit_all(&[Commit::branch("k", None, edits)])
            .expect("direct write");
        db.flush_hot()
            .expect("the round splices onto the moved head");
        let map = db.get_value("k", None).expect("get").as_map().expect("map");
        assert_eq!(map.len(db.store()), 34);
        assert_eq!(map.get(db.store(), b"sk40"), Some(Bytes::from("tree")));
        assert_eq!(map.get(db.store(), b"sk31"), Some(Bytes::from("hot")));
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batched_updates_retain_final_version_only() {
        // §3.5: "when multiple updates of the same object are batched,
        // ForkBase only retains the final version" — modelled by clients
        // chaining edits on the value before a single Put.
        let db = ForkBase::in_memory();
        let blob = db.new_blob(b"start");
        let blob = blob.append(db.store(), db.cfg(), b" middle").expect("edit");
        let blob = blob.append(db.store(), db.cfg(), b" end").expect("edit");
        db.put("doc", None, Value::Blob(blob)).expect("put");
        let obj = db.get("doc", None).expect("get");
        assert_eq!(obj.depth, 0, "one committed version");
        assert_eq!(
            obj.value(db.store())
                .expect("v")
                .as_blob()
                .expect("b")
                .read_all(db.store())
                .expect("read"),
            b"start middle end"
        );
    }
}
