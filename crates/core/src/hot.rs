//! The flat hot-state tier in front of the POS-Tree.
//!
//! Both Sonic Labs forkless-DB papers (see PAPERS.md) win by serving
//! *latest* state from a flat hash-shaped index and demoting the Merkle
//! structure to an asynchronously maintained authentication sidecar.
//! This module is that split for ForkBase:
//!
//! * **Hot state** — per engine key, a hash map from subkey to latest
//!   value (`None` = tombstone). Point reads and writes are one table
//!   probe: no chunk fetch, no tree traversal, no hashing of content.
//! * **Pending queue** — every hot write is also enqueued. The queue
//!   holds up to `8 × publish_batch` edits; a writer that finds it full
//!   seals a round itself (see staged rounds) instead of waiting.
//! * **Publish rounds** — the barriers publish the queue into the
//!   POS-Tree: [`ForkBase::flush_hot`](crate::ForkBase::flush_hot), the
//!   drain before a tree access to a key, a checkpoint and a clean
//!   close. A round is one map-edits [`Commit`] per key, the whole round
//!   as one pass of the commit pipeline ([`crate::commit`]). A round
//!   takes the queue only while no other round is in flight, so a key's
//!   edits reach the tree in the order they came. No clock and no count
//!   cuts a round: on a durable instance, a crash loses exactly the
//!   edits accepted since the last barrier or persist.
//! * **Persisted journal** — on a durable instance,
//!   [`ForkBase::persist_hot`](crate::ForkBase::persist_hot) makes the
//!   accepted edits durable without publishing them: the edits accepted
//!   since the last persist are encoded once into a journal Blob, and a
//!   checkpoint listing every journal Blob the tree does not yet hold is
//!   committed (one `write`, one fsync). A reopen replays the listed
//!   journals into the tree.
//! * **Staged rounds** — queued edits reach the tree in rounds the calls
//!   cut: once half the queue is waiting, a persist *seals* it, and so
//!   does a writer that finds the queue full. The seal starts a thread of
//!   the round's own (`fb-hot-build`) that builds the round's trees into
//!   a private overlay, off the caller's path, where consecutive blocks
//!   share their rewritten leaves; the next seal joins that thread,
//!   stores the chunks and commits the trees (any barrier that needs the
//!   round first does so itself). A round whose build fails, or whose
//!   thread could not be started, commits as map edits. Which edits a
//!   round holds, and when its chunks reach the store, therefore follow
//!   the caller's calls and never the build's timing: the same calls
//!   store the same bytes. The build hashes and scans under the hash
//!   pool's background budget
//!   ([`background`](forkbase_crypto::parallel::background)): on a
//!   2-core host it works on its own thread and never wakes a pool
//!   worker onto the callers' core.
//!
//! Every accepted edit is numbered. A key's branch table keeps a *hot
//! mark* that moves with its head: the key's edits numbered below it are
//! in the head. A checkpoint lists each journal Blob holding an edit
//! still queued or in a round in flight — captured before the branch
//! tables, so a list can only be too long — together with each key's
//! mark, read under the same lock as its head. Replay skips the edits
//! below their key's mark: those are exactly the edits the checkpoint's
//! heads already hold, so a direct tree write after them (which first
//! publishes them, moving the mark) is never overwritten by a replay.
//!
//! The POS-Tree stays the versioned, tamper-evident substrate: every
//! publish round is ordinary map commits with hash-chained `FObject`
//! versions, so history, diff, merge and `verify_history` keep working
//! unchanged. The tier knows nothing of the rest of the API.
//! [`ForkBase`](crate::ForkBase) keeps the two in step at exactly two
//! points — before a commit writes a key's default branch (`drain_key`
//! and `invalidate`) and before a branch table is read (`drain_key`, or
//! `publish_all`) — and rounds commit through the `Engine` underneath
//! the handle, so they never meet that coordination themselves.

use crate::commit::{Commit, Payload};
use crate::db::{Engine, DEFAULT_BRANCH};
use crate::error::{FbError, Result};
use crate::value::Value;
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint, put_bytes, put_varint};
use forkbase_chunk::{Chunk, ChunkStore, PutOutcome, StoreStats};
use forkbase_crypto::fx::FxHashMap;
use forkbase_crypto::Digest;
use forkbase_pos::{Blob, Map, WriteBatch};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hot-tier configuration for [`ForkBase::open_with`](crate::ForkBase::open_with).
#[derive(Debug, Clone)]
pub struct HotTierConfig {
    /// Front the engine with the hot tier. Off by default — on a durable
    /// instance the tier trades the edits accepted since the last
    /// `persist_hot` or `flush_hot`, which a crash loses, for
    /// hash-map-speed point access, and that trade must be opted into.
    pub enabled: bool,
    /// The tier's one size. The queue holds up to 8× this many edits
    /// before a writer seals a round itself; a persist seals a round once
    /// 4× this many wait; and a persist of this many new edits or more
    /// publishes them instead of journaling them.
    pub publish_batch: usize,
    /// Read by nothing: calls cut every round, never a clock.
    #[deprecated(note = "calls cut every hot-tier round; this field does nothing")]
    #[doc(hidden)]
    pub publish_interval: Duration,
}

impl HotTierConfig {
    /// The tier enabled with 512-edit batches.
    #[allow(deprecated)]
    pub fn on() -> Self {
        HotTierConfig {
            enabled: true,
            publish_batch: 512,
            publish_interval: Duration::ZERO,
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
    /// Wall time spent in publish rounds so far, in ns.
    pub publish_ns: u64,
    /// Edits written into journal Blobs by `persist_hot`.
    pub journaled: u64,
    /// Encoded bytes of those journal Blobs.
    pub journal_bytes: u64,
    /// Hash-pool jobs that pool workers ran for the builds of staged
    /// rounds, and the bytes they scanned and hashed. Each build adds its
    /// own when it ends.
    pub pool_jobs: u64,
    /// See [`pool_jobs`](Self::pool_jobs).
    pub pool_bytes: u64,
}

type HotMap = FxHashMap<Bytes, Option<Bytes>>;

/// One key's queued edits; `first` and `last` are the numbers of the
/// first and the last of them.
struct Queued {
    first: u64,
    last: u64,
    edits: Vec<(Bytes, Option<Bytes>)>,
}

/// What a publish round took: per key, its queued edits.
type Round = FxHashMap<Bytes, Queued>;

/// An accepted edit as a journal holds it: key, subkey, value.
type JournalEdit = (Bytes, Bytes, Option<Bytes>);

/// A round's trees, built into an [`Overlay`] and not stored yet: per
/// key, the head they were built on and the new map root; the chunks in
/// the order they were made; and how long building took, in ns.
struct Built {
    roots: FxHashMap<Bytes, (Digest, Digest)>,
    chunks: Vec<Chunk>,
    ns: u64,
}

/// The round the last seal took (see the module docs), on its way to
/// the tree, and the thread building its trees — `None` if none could
/// be started. Its keys are in flight until it is committed.
struct Staged {
    round: Arc<Round>,
    build: Option<JoinHandle<Result<Built>>>,
}

impl Staged {
    /// The round, with its trees once its build has ended. A build that
    /// failed (or panicked, or never ran) leaves none: committing the
    /// round's edits as map edits meets its error again and poisons the
    /// tier, as any round would.
    fn join(self) -> (Arc<Round>, Option<Built>) {
        let built = self.build.and_then(|build| build.join().ok());
        (self.round, built.and_then(Result::ok))
    }
}

/// The durable side of the tier: what the next persist writes, and the
/// journal Blobs the tree does not hold yet.
#[derive(Default)]
struct Journal {
    /// Accepted edits the tree may not hold yet, with their numbers,
    /// oldest first — on durable instances.
    edits: VecDeque<(u64, JournalEdit)>,
    /// Edits numbered below this were persisted (journaled, or published
    /// instead).
    persisted: u64,
    /// Journal Blobs, oldest first: root, and the number past its last
    /// edit.
    blobs: Vec<(Digest, u64)>,
}

/// Pending (unpublished) edits, guarded by one mutex; its condvar
/// `landed` wakes the callers that wait out a round in flight.
#[derive(Default)]
struct Pending {
    edits: FxHashMap<Bytes, Queued>,
    total: usize,
    /// The number the next accepted edit gets.
    next: u64,
    /// Keys currently being published (their edits are out of `edits`
    /// but not yet in the tree), each with the number of the first edit
    /// its round took. At most one round holds a key. Drains wait for
    /// the key to leave, or a subsequent tree access could observe a
    /// head about to move.
    inflight: FxHashMap<Bytes, u64>,
    staged: Option<Staged>,
    journal: Journal,
    /// First publish error, if any. A poisoned tier fails all further
    /// hot writes/flushes — the flat index may be ahead of a tree that
    /// can no longer accept it.
    poisoned: Option<String>,
}

impl Pending {
    /// Every edit numbered below this is in the tree: none of them is
    /// queued or in a round still in flight.
    fn floor(&self) -> u64 {
        let queued = self.edits.values().map(|q| q.first);
        queued
            .chain(self.inflight.values().copied())
            .fold(self.next, u64::min)
    }

    /// Forget the journal edits the tree holds, and the journal Blobs
    /// all of whose edits it holds.
    fn trim_journal(&mut self) {
        let floor = self.floor();
        let j = &mut self.journal;
        while j.edits.front().is_some_and(|e| e.0 < floor) {
            j.edits.pop_front();
        }
        j.blobs.retain(|&(_, end)| end > floor);
    }
}

struct Shared {
    engine: Arc<Engine>,
    cfg: HotTierConfig,
    /// key → its latest-state map. Slots are never removed by readers;
    /// tree writes invalidate by removing the whole slot.
    state: RwLock<FxHashMap<Bytes, Arc<RwLock<HotMap>>>>,
    pending: Mutex<Pending>,
    landed: Condvar,
    /// Serializes persists, so journal Blobs are listed in edit order.
    persist_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    published: AtomicU64,
    publish_rounds: AtomicU64,
    publish_ns: AtomicU64,
    journaled: AtomicU64,
    journal_bytes: AtomicU64,
    pool_jobs: AtomicU64,
    pool_bytes: AtomicU64,
}

impl Shared {
    fn queue_cap(&self) -> usize {
        self.cfg.publish_batch.saturating_mul(8).max(1)
    }

    /// Queued edits at which a persist seals a round: half the queue, so
    /// the round filling up stays clear of a full queue (which would let
    /// a writer cut the round instead).
    fn seal_at(&self) -> usize {
        (self.queue_cap() / 2).max(1)
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
    /// must publish the round (which clears `inflight`), and take only
    /// while no round is in flight: two rounds holding one key race to
    /// its head, and the one taken first, publishing last, would put its
    /// older edits over the newer ones.
    fn take_all(p: &mut Pending) -> Round {
        let work = std::mem::take(&mut p.edits);
        p.total = 0;
        for (key, queued) in &work {
            p.inflight.insert(key.clone(), queued.first);
        }
        work
    }

    /// Once the queue holds `at` edits, commit the round staged before
    /// (joining its build) and stage the queue as the next one, with its
    /// trees building on a thread of their own.
    fn seal(self: &Arc<Self>, at: usize) -> Result<()> {
        let mut p = self.pending.lock().expect("pending lock");
        loop {
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            if p.total < at {
                return Ok(());
            }
            if let Some(staged) = p.staged.take() {
                drop(p);
                self.commit_staged(staged)?;
                p = self.pending.lock().expect("pending lock");
            } else if !p.inflight.is_empty() {
                p = self.landed.wait(p).expect("pending lock");
            } else {
                let round = Arc::new(Shared::take_all(&mut p));
                let build = self.spawn_build(&round);
                p.staged = Some(Staged { round, build });
                return Ok(());
            }
        }
    }

    /// Start building `round`'s trees on a thread of its own, under the
    /// hash pool's background budget: no caller waits on the build until
    /// the round is committed. `None` if no thread could be started.
    fn spawn_build(self: &Arc<Self>, round: &Arc<Round>) -> Option<JoinHandle<Result<Built>>> {
        let (shared, round) = (Arc::clone(self), Arc::clone(round));
        let build = move || {
            forkbase_crypto::parallel::background(|| {
                let built = shared.build(&round);
                shared.count_pool_work();
                built
            })
        };
        let thread = std::thread::Builder::new().name("fb-hot-build".into());
        thread.spawn(build).ok()
    }

    /// Commit a staged round, with the trees its build made if it made
    /// them.
    fn commit_staged(&self, staged: Staged) -> Result<()> {
        let (round, built) = staged.join();
        self.publish_work(&round, false, built)
    }

    /// Publish a taken batch — one commit per key, all in one pass of
    /// the commit pipeline — and clear its in-flight marks. An error
    /// poisons the tier and is returned. A key whose tree `built` holds
    /// commits that map, guarded by the head it was built on; any other
    /// key, and every key once a guard fails (a direct tree write moved
    /// a head after the round was built), commits its edits as map
    /// edits, which splice onto the head as it stands.
    ///
    /// `checkpoint` says who owns the recovery point: per-key drains pass
    /// `true` and end in a checkpoint, taken before the marks clear;
    /// `flush`, persists and seals pass `false` and checkpoint once
    /// themselves, after their last round, if at all.
    fn publish_work(&self, work: &Round, checkpoint: bool, built: Option<Built>) -> Result<()> {
        let start = Instant::now();
        let edits: usize = work.values().map(|q| q.edits.len()).sum();
        let (roots, build_ns) = match built {
            Some(built) => {
                self.engine.store.put_many(built.chunks);
                (built.roots, built.ns)
            }
            None => (FxHashMap::default(), 0),
        };
        let marks: Vec<u64> = work.values().map(|queued| queued.last + 1).collect();
        let commits = |roots: &FxHashMap<Bytes, (Digest, Digest)>| -> Vec<Commit<'_>> {
            let commit = |(key, queued): (&Bytes, &Queued)| match roots.get(key) {
                Some(&(head, root)) => Commit {
                    guard: Some(head),
                    ..Commit::branch(
                        key.clone(),
                        None,
                        Payload::Value(Value::Map(Map::from_root(root))),
                    )
                },
                None => {
                    let batch = queued.edits.iter().cloned().collect();
                    Commit::branch(key.clone(), None, Payload::MapEdits(batch))
                }
            };
            work.iter().map(commit).collect()
        };
        let mut result = self.engine.commit_all_marked(&commits(&roots), &marks);
        if let (Err(FbError::GuardFailed { .. }), false) = (&result, roots.is_empty()) {
            result = self
                .engine
                .commit_all_marked(&commits(&FxHashMap::default()), &marks);
        }
        let mut result = result.map(|_| ());
        if result.is_ok() {
            self.published.fetch_add(edits as u64, Ordering::Relaxed);
            if checkpoint {
                result = self.checkpoint_if_durable();
            }
        }
        let mut p = self.pending.lock().expect("pending lock");
        for key in work.keys() {
            p.inflight.remove(key);
        }
        match &result {
            Err(e) => {
                p.poisoned.get_or_insert_with(|| e.to_string());
            }
            Ok(()) => {
                p.trim_journal();
                self.publish_rounds.fetch_add(1, Ordering::Relaxed);
                let ns = start.elapsed().as_nanos() as u64 + build_ns;
                self.publish_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
        drop(p);
        self.landed.notify_all();
        result
    }

    /// Advance the durable recovery point so published edits survive a
    /// crash. `commit_checkpoint` appends the checkpoint and its root
    /// record to the log and fsyncs it (forcing out any
    /// `Durability::Batch`-deferred records with them); on in-memory
    /// instances this is a no-op. The checkpoint lists the journal
    /// Blobs the tree does not hold yet.
    fn checkpoint_if_durable(&self) -> Result<()> {
        if self.engine.durable.is_some() {
            self.engine.commit_checkpoint(|| self.journal_roots())?;
        }
        Ok(())
    }

    /// Add the pool jobs the calling build thread has run: it runs
    /// nothing else, so its thread's counters are its build's.
    fn count_pool_work(&self) {
        let ran = forkbase_crypto::metrics::snapshot();
        self.pool_jobs.fetch_add(ran.pool_jobs, Ordering::Relaxed);
        self.pool_bytes.fetch_add(ran.pool_bytes, Ordering::Relaxed);
    }

    /// The roots of the journal Blobs holding an edit the tree may not
    /// hold yet, oldest first — what a checkpoint taken now must list.
    fn journal_roots(&self) -> Vec<Digest> {
        let mut p = self.pending.lock().expect("pending lock");
        p.trim_journal();
        p.journal.blobs.iter().map(|&(root, _)| root).collect()
    }

    /// A staged round's trees, each key's edits spliced onto its
    /// default-branch head exactly as a map-edits commit would, into an
    /// [`Overlay`]: the store gains nothing until the round is
    /// committed. A key without a head is left to commit as map edits:
    /// no guard can say that it still has none.
    fn build(&self, work: &Round) -> Result<Built> {
        let start = Instant::now();
        let engine = &self.engine;
        let overlay = Overlay::new(engine.store.as_ref());
        let mut roots = FxHashMap::default();
        for (key, queued) in work {
            let slot = engine.branches.get(key);
            let Some(head) = slot.and_then(|s| s.read().head(DEFAULT_BRANCH)) else {
                continue;
            };
            let base = engine.version(key, head)?.value(&overlay)?.as_map()?;
            let edits: WriteBatch = queued.edits.iter().cloned().collect();
            let map = base.apply(&overlay, &engine.cfg, edits)?;
            roots.insert(key.clone(), (head, map.root()));
        }
        Ok(Built {
            roots,
            chunks: overlay.into_chunks(),
            ns: start.elapsed().as_nanos() as u64,
        })
    }
}

/// A chunk store that keeps what is put into it and reads everything
/// else from the store beneath, in which a staged round builds its
/// trees.
struct Overlay<'a> {
    base: &'a dyn ChunkStore,
    /// The chunks put, in order, and each one's place by cid.
    added: Mutex<(Vec<Chunk>, FxHashMap<Digest, usize>)>,
}

impl<'a> Overlay<'a> {
    fn new(base: &'a dyn ChunkStore) -> Self {
        Overlay {
            base,
            added: Mutex::default(),
        }
    }

    fn into_chunks(self) -> Vec<Chunk> {
        self.added.into_inner().expect("overlay lock").0
    }

    fn added(&self, cid: &Digest) -> Option<Chunk> {
        let added = self.added.lock().expect("overlay lock");
        added.1.get(cid).map(|&i| added.0[i].clone())
    }
}

impl ChunkStore for Overlay<'_> {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.added(cid).or_else(|| self.base.get(cid))
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        let mut out: Vec<Option<Chunk>> = cids.iter().map(|cid| self.added(cid)).collect();
        let missing: Vec<Digest> = (cids.iter().zip(&out))
            .filter(|(_, got)| got.is_none())
            .map(|(cid, _)| *cid)
            .collect();
        if !missing.is_empty() {
            let mut found = self.base.get_many(&missing).into_iter();
            for got in out.iter_mut().filter(|got| got.is_none()) {
                *got = found.next().flatten();
            }
        }
        out
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        let mut added = self.added.lock().expect("overlay lock");
        let (chunks, at) = &mut *added;
        if at.contains_key(&chunk.cid()) {
            return PutOutcome::Deduplicated;
        }
        at.insert(chunk.cid(), chunks.len());
        chunks.push(chunk);
        PutOutcome::Stored
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.added.lock().expect("overlay lock").1.contains_key(cid) || self.base.contains(cid)
    }

    fn stats(&self) -> StoreStats {
        self.base.stats()
    }
}

/// The running hot tier owned by a [`ForkBase`](crate::ForkBase) handle.
/// Dropping it publishes every pending edit into the tree (clean close
/// loses nothing).
pub(crate) struct HotTier {
    shared: Arc<Shared>,
}

impl HotTier {
    /// The tier over a shared engine. `None` when disabled.
    pub(crate) fn new(engine: Arc<Engine>, cfg: HotTierConfig) -> Option<HotTier> {
        if !cfg.enabled {
            return None;
        }
        let shared = Arc::new(Shared {
            engine,
            cfg,
            state: RwLock::new(FxHashMap::default()),
            pending: Mutex::new(Pending::default()),
            landed: Condvar::new(),
            persist_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_rounds: AtomicU64::new(0),
            publish_ns: AtomicU64::new(0),
            journaled: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            pool_jobs: AtomicU64::new(0),
            pool_bytes: AtomicU64::new(0),
        });
        Some(HotTier { shared })
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

    /// Enqueue a batch of edits for publication and apply it to the flat
    /// index. Visible to [`get`](Self::get) once this returns `Ok`. A
    /// writer that finds the queue full first seals it as a round (see
    /// the module docs). A write the queue refuses (poisoned tier) never
    /// reaches the flat index. Both are written under the pending lock,
    /// so concurrent writers of one subkey land in the flat index and
    /// the queue in the same order.
    pub(crate) fn put_many(&self, key: &Bytes, entries: Vec<(Bytes, Option<Bytes>)>) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let n = entries.len();
        let cap = self.shared.queue_cap();
        let mut p = self.shared.pending.lock().expect("pending lock");
        loop {
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            if p.total < cap {
                break;
            }
            drop(p);
            self.shared.seal(cap)?;
            p = self.shared.pending.lock().expect("pending lock");
        }
        {
            let slot = self.shared.slot(key);
            let mut map = slot.write().expect("slot lock");
            for (sk, v) in &entries {
                map.insert(sk.clone(), v.clone());
            }
        }
        let first = p.next;
        p.next += n as u64;
        if self.shared.engine.durable.is_some() {
            let journal = (first..).zip(entries.iter());
            let journal = journal.map(|(n, (sk, v))| (n, (key.clone(), sk.clone(), v.clone())));
            p.journal.edits.extend(journal);
        }
        let queued = p.edits.entry(key.clone()).or_insert_with(|| Queued {
            first,
            last: first,
            edits: Vec::new(),
        });
        queued.last = first + n as u64 - 1;
        queued.edits.extend(entries);
        p.total += n;
        self.shared.writes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Synchronously publish `key`'s pending edits (waiting out an
    /// in-flight round that includes the key, and committing a staged
    /// one). Used before any tree access to the key's default branch.
    /// No-op when nothing is pending.
    pub(crate) fn drain_key(&self, key: &Bytes) -> Result<()> {
        let mut p = self.shared.pending.lock().expect("pending lock");
        loop {
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            if !p.inflight.contains_key(key) {
                break;
            }
            if let Some(staged) = p.staged.take() {
                drop(p);
                self.shared.commit_staged(staged)?;
                p = self.shared.pending.lock().expect("pending lock");
                continue;
            }
            p = self.shared.landed.wait(p).expect("pending lock");
        }
        let Some(queued) = p.edits.remove(key) else {
            return Ok(());
        };
        p.total -= queued.edits.len();
        p.inflight.insert(key.clone(), queued.first);
        drop(p);
        let work = FxHashMap::from_iter([(key.clone(), queued)]);
        self.shared.publish_work(&work, true, None)
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

    /// Make every edit accepted before the call durable without
    /// publishing it (see the module docs): journal the edits accepted
    /// since the last persist into one Blob, seal a round once half the
    /// queue waits, and commit one checkpoint that lists every journal
    /// Blob the tree may not hold yet. A persist with at least
    /// `publish_batch` new edits publishes them instead, as
    /// [`flush`](Self::flush) does; so does every persist of an
    /// in-memory instance.
    pub(crate) fn persist(&self) -> Result<()> {
        let shared = &self.shared;
        if shared.engine.durable.is_none() {
            return self.flush();
        }
        let _one = shared.persist_lock.lock().expect("persist lock");
        let edits = {
            let mut p = shared.pending.lock().expect("pending lock");
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            let next = p.next;
            let persisted = std::mem::replace(&mut p.journal.persisted, next);
            if next - persisted >= shared.cfg.publish_batch as u64 {
                drop(p);
                return self.flush();
            }
            p.trim_journal();
            let skip = p.journal.edits.partition_point(|e| e.0 < persisted);
            p.journal.edits.range(skip..).cloned().collect::<Vec<_>>()
        };
        if let Some(&(first, _)) = edits.first() {
            let bytes = encode_journal(&edits);
            let engine = &shared.engine;
            let root = Blob::build(engine.store.as_ref(), &engine.cfg, &bytes).root();
            let (n, size) = (edits.len() as u64, bytes.len() as u64);
            let mut p = shared.pending.lock().expect("pending lock");
            p.journal.blobs.push((root, first + n));
            drop(p);
            shared.journaled.fetch_add(n, Ordering::Relaxed);
            shared.journal_bytes.fetch_add(size, Ordering::Relaxed);
        }
        shared.seal(shared.seal_at())?;
        shared.checkpoint_if_durable()
    }

    /// What a checkpoint taken now must list: see
    /// [`Shared::journal_roots`].
    pub(crate) fn journal_roots(&self) -> Vec<Digest> {
        self.shared.journal_roots()
    }

    /// [`flush`](Self::flush) without the checkpoint, for a caller that
    /// is about to take one itself.
    pub(crate) fn publish_all(&self) -> Result<()> {
        let shared = &self.shared;
        loop {
            let mut p = shared.pending.lock().expect("pending lock");
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
            if let Some(staged) = p.staged.take() {
                drop(p);
                shared.commit_staged(staged)?;
            } else if !p.inflight.is_empty() {
                drop(shared.landed.wait(p).expect("pending lock"));
            } else if p.edits.is_empty() {
                return Ok(());
            } else {
                let work = Shared::take_all(&mut p);
                drop(p);
                shared.publish_work(&work, false, None)?;
            }
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
            publish_ns: self.shared.publish_ns.load(Ordering::Relaxed),
            journaled: self.shared.journaled.load(Ordering::Relaxed),
            journal_bytes: self.shared.journal_bytes.load(Ordering::Relaxed),
            pool_jobs: self.shared.pool_jobs.load(Ordering::Relaxed),
            pool_bytes: self.shared.pool_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for HotTier {
    fn drop(&mut self) {
        // Clean close loses nothing: publish what is still queued or
        // staged. Errors are unreportable from Drop — they stay recorded
        // in `poisoned` for post-mortems. A poisoned tier commits no
        // staged round, but the round's build still ends with the handle.
        let _ = self.flush();
        let staged = self
            .shared
            .pending
            .lock()
            .ok()
            .and_then(|mut p| p.staged.take());
        if let Some(staged) = staged {
            staged.join();
        }
    }
}

/// A journal Blob's bytes: the number of its first edit (the others
/// follow on), then runs of one key's consecutive edits — `[key][count]`,
/// and per edit `[subkey][0]` for a delete or `[subkey][1][value]`.
fn encode_journal(edits: &[(u64, JournalEdit)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + edits.len() * 120);
    put_varint(&mut out, edits.first().map_or(0, |e| e.0));
    for run in edits.chunk_by(|a, b| a.1 .0 == b.1 .0) {
        put_bytes(&mut out, &run[0].1 .0);
        put_varint(&mut out, run.len() as u64);
        for (_, (_, subkey, value)) in run {
            put_bytes(&mut out, subkey);
            match value {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    put_bytes(&mut out, v);
                }
            }
        }
    }
    out
}

/// The first edit's number and the edits of a journal Blob's bytes.
fn decode_journal(bytes: &[u8]) -> Option<(u64, Vec<JournalEdit>)> {
    let mut pos = 0;
    let first = get_varint(bytes, &mut pos)?;
    let mut edits = Vec::new();
    while pos < bytes.len() {
        let key = Bytes::copy_from_slice(get_bytes(bytes, &mut pos)?);
        for _ in 0..get_varint(bytes, &mut pos)? {
            let subkey = Bytes::copy_from_slice(get_bytes(bytes, &mut pos)?);
            let tag = *bytes.get(pos)?;
            pos += 1;
            let value = match tag {
                0 => None,
                1 => Some(Bytes::copy_from_slice(get_bytes(bytes, &mut pos)?)),
                _ => return None,
            };
            edits.push((key.clone(), subkey, value));
        }
    }
    Some((first, edits))
}

/// Publish the edits of the journal Blobs `journal` lists, oldest
/// first, skipping each key's edits numbered below its entry in `marks`
/// (the checkpoint's heads hold those) — one map-edits commit per key.
/// Reopen and restore call this before anything else touches the tree.
/// A key whose head is not a Map is skipped: its edits failed to
/// publish live too (poisoning the tier), and no tree ever held them.
pub(crate) fn replay_journal(
    engine: &Engine,
    journal: &[Digest],
    marks: &[(Bytes, u64)],
) -> Result<()> {
    let store = engine.store.as_ref();
    let marks: FxHashMap<&Bytes, u64> = marks.iter().map(|(key, mark)| (key, *mark)).collect();
    let mut per_key: FxHashMap<Bytes, WriteBatch> = FxHashMap::default();
    for &root in journal {
        let bytes = Blob::from_root(root)
            .read_all(store)
            .ok_or(FbError::VersionNotFound(root))?;
        let (first, edits) = decode_journal(&bytes)
            .ok_or_else(|| FbError::Corrupt(format!("bad journal {}", root.short_hex())))?;
        for (n, (key, subkey, value)) in (first..).zip(edits) {
            if n < marks.get(&key).copied().unwrap_or(0) {
                continue;
            }
            let batch = per_key.entry(key).or_default();
            match value {
                Some(value) => batch.put(subkey, value),
                None => batch.delete(subkey),
            };
        }
    }
    for (key, batch) in per_key {
        match engine.commit_all(&[Commit::branch(key, None, Payload::MapEdits(batch))]) {
            Ok(_) | Err(FbError::TypeMismatch { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ForkBase;
    use crate::value::Value;

    fn hot_db(publish_batch: usize) -> ForkBase {
        ForkBase::in_memory_hot(HotTierConfig {
            publish_batch,
            ..HotTierConfig::on()
        })
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn hot_writes_visible_immediately_and_after_flush() {
        let db = hot_db(1024); // a big queue: we flush
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
        let db = hot_db(1024);
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
        let db = hot_db(1 << 20); // no seal
        db.hot_put("k", "x", "1").unwrap();
        // get() must drain the pending edit first (read-your-writes).
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"x").unwrap().as_ref(), b"1");
    }

    #[test]
    fn tree_write_invalidates_hot_state() {
        let db = hot_db(1024);
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
                ..HotTierConfig::on()
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
            let db = hot_db(1 << 20);
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

    /// A flush's round and a staged round never hold one key at once:
    /// the round taken first, publishing last, would put the older value
    /// over the newer one, and the flush would return with the tree
    /// behind the writes it covers. Nine writes fill the 8-edit queue,
    /// so the ninth seals a round before the flush takes its own.
    #[test]
    fn a_flush_never_leaves_the_tree_behind_a_keys_writes() {
        let db = hot_db(1);
        for i in 0..500u32 {
            for j in 0..9 {
                db.hot_put("k", "a", format!("{}", 9 * i + j)).unwrap();
            }
            db.flush_hot().unwrap();
            let map = db.get_value("k", None).unwrap().as_map().unwrap();
            let want = b(&format!("{}", 9 * i + 8));
            assert_eq!(map.get(db.store(), b"a"), Some(want), "round {i}");
        }
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let db = hot_db(2);
        // Cap is 16 (8×2); a writer that finds the queue full seals it,
        // so writing far past it never grows pending past the cap, and
        // everything lands.
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
                    ..HotTierConfig::on()
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
                ..HotTierConfig::on()
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

    /// A write the tier refuses must not be served. A String head makes
    /// the flush's map edits fail and poison the tier, so a later
    /// `hot_put` to the key returns `Err`; reading its subkey must then
    /// fail as it does with the tier off, not return the refused value.
    #[test]
    fn a_hot_write_that_fails_is_never_read() {
        for enabled in [false, true] {
            let db = ForkBase::in_memory_hot(HotTierConfig {
                enabled,
                publish_batch: 1 << 20,
                ..HotTierConfig::on()
            });
            db.put("k", None, Value::String("s".into())).unwrap();
            if enabled {
                db.hot_put("k", "a", "1").unwrap();
                assert!(db.flush_hot().is_err());
            }
            assert!(db.hot_put("k", "b", "2").is_err(), "enabled: {enabled}");
            assert!(db.hot_get("k", b"b").is_err(), "enabled: {enabled}");
        }
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

    /// A durable instance with 64-edit batches.
    fn durable(dir: &std::path::Path, enabled: bool) -> ForkBase {
        ForkBase::open_with(
            dir,
            forkbase_crypto::ChunkerConfig::default(),
            forkbase_chunk::Durability::Always,
            forkbase_chunk::CacheConfig::default(),
            HotTierConfig {
                enabled,
                publish_batch: 64,
                ..HotTierConfig::on()
            },
        )
        .unwrap()
    }

    /// The journal list of the recovery point.
    fn listed(db: &ForkBase) -> Vec<Digest> {
        let root = db.durable_store().unwrap().root().unwrap();
        let chunk = db.store().get(&root).unwrap();
        crate::BranchSnapshot::decode(chunk.payload())
            .unwrap()
            .journal
    }

    fn edits(tag: &str, range: std::ops::Range<u32>) -> Vec<(Bytes, Option<Bytes>)> {
        range
            .map(|i| (b(&format!("sk{i:03}")), Some(b(&format!("{tag}{i}")))))
            .collect()
    }

    fn read(db: &ForkBase, key: &str, i: u32) -> Option<Bytes> {
        db.hot_get(key, format!("sk{i:03}").as_bytes()).unwrap()
    }

    /// A persist is one checkpoint and no tree work; a crash after it
    /// loses nothing it covered, and a clean close leaves no journal.
    #[test]
    fn persisted_edits_survive_a_crash_without_a_publish() {
        let dir = tempdir();
        let db = durable(&dir, true);
        db.hot_put_many("k", edits("a", 0..40)).unwrap();
        let before = db.checkpoints_committed();
        db.persist_hot().unwrap();
        db.hot_put_many("k", [(b("sk005"), None)]).unwrap();
        db.persist_hot().unwrap();
        let stats = db.hot_stats().unwrap();
        assert_eq!((stats.published, stats.journaled), (0, 41));
        assert_eq!(db.checkpoints_committed() - before, 2);
        assert_eq!(listed(&db).len(), 2);
        db.hot_put_many("k", edits("lost", 0..3)).unwrap(); // never persisted
        std::mem::forget(db); // crash: no drain, no clean close

        let db = durable(&dir, true);
        assert_eq!(read(&db, "k", 5), None);
        for i in (0..40).filter(|&i| i != 5) {
            let want = [b(&format!("a{i}")), b(&format!("lost{i}"))];
            assert!(want.contains(&read(&db, "k", i).unwrap()), "sk{i}");
        }
        for i in 3..40 {
            assert_eq!(read(&db, "k", i), (i != 5).then(|| b(&format!("a{i}"))));
        }
        drop(db);
        let db = durable(&dir, false);
        assert!(
            listed(&db).is_empty(),
            "a clean close publishes the journal"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A round that put part of a journal in the tree before the crash,
    /// and a direct tree write after it: replay skips what the heads
    /// hold, so it neither repeats the round nor undoes the write — and
    /// replaying twice gives the same state.
    #[test]
    fn replay_skips_what_the_heads_hold() {
        let dir = tempdir();
        let db = durable(&dir, true);
        db.hot_put_many("k", edits("a", 0..4)).unwrap();
        db.hot_put_many("other", edits("o", 0..4)).unwrap();
        db.persist_hot().unwrap();
        // A tree read of "k" publishes its edits alone; "other" stays
        // queued, so the journal stays listed.
        db.get_value("k", None).unwrap();
        assert_eq!(listed(&db).len(), 1);
        let mut batch = forkbase_pos::WriteBatch::new();
        batch.put("sk001", "tree");
        db.commit_map_batch("k", None, batch).unwrap();
        db.hot_put_many("k", edits("b", 2..3)).unwrap();
        db.persist_hot().unwrap();
        assert_eq!(listed(&db).len(), 2);
        std::mem::forget(db);

        for _ in 0..2 {
            // Tier off: replay publishes at open, and no checkpoint
            // follows, so the next open replays the same list again.
            let db = durable(&dir, false);
            assert_eq!(listed(&db).len(), 2);
            assert_eq!(read(&db, "k", 0), Some(b("a0")));
            assert_eq!(read(&db, "k", 1), Some(b("tree")));
            assert_eq!(read(&db, "k", 2), Some(b("b2")));
            for i in 0..4 {
                assert_eq!(read(&db, "other", i), Some(b(&format!("o{i}"))));
            }
            let head = db.head("k", None).unwrap();
            crate::verify_history(db.store(), head).unwrap();
            std::mem::forget(db);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An edit the tier accepted for a key whose head is no Map can be
    /// persisted before a round fails on it. Reopening must not
    /// fail on it: the key reads as it does with the tier off, and the
    /// other keys' persisted edits are there.
    #[test]
    fn a_persisted_edit_that_cannot_publish_does_not_block_reopen() {
        let dir = tempdir();
        let db = durable(&dir, true);
        db.put("s", None, Value::String("text".into())).unwrap();
        db.hot_put("s", "a", "1").unwrap();
        db.hot_put_many("k", edits("a", 0..3)).unwrap();
        db.persist_hot().unwrap();
        std::mem::forget(db);
        let db = durable(&dir, true);
        assert!(db.hot_get("s", b"a").is_err());
        assert_eq!(read(&db, "k", 2), Some(b("a2")));
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_every_persisted_edit() {
        let dir = tempdir();
        let db = durable(&dir, true);
        db.hot_put_many("k", edits("a", 0..30)).unwrap();
        db.persist_hot().unwrap();
        db.hot_put_many("k", edits("b", 10..20)).unwrap();
        db.persist_hot().unwrap();
        assert_eq!(listed(&db).len(), 2);
        crate::gc::compact_in_place(&db).unwrap();
        assert!(listed(&db).is_empty(), "compaction publishes first");
        std::mem::forget(db);
        let db = durable(&dir, true);
        for i in 0..30 {
            let tag = if (10..20).contains(&i) { "b" } else { "a" };
            assert_eq!(read(&db, "k", i), Some(b(&format!("{tag}{i}"))));
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Persists seal a round once half the queue waits; the publisher
    /// builds it and the persist that seals the next one commits it. So
    /// what the store holds after each persist follows the calls alone,
    /// however the publisher is scheduled, and a crash after any persist
    /// loses none of its edits.
    #[test]
    fn staged_rounds_follow_the_persists_not_the_publisher() {
        // publish_batch 8: the queue holds 64, a seal takes 32 — every
        // 8th block of 4 edits.
        let run = |dir: &std::path::Path, slow: bool| {
            let db = ForkBase::open_with(
                dir,
                forkbase_crypto::ChunkerConfig::default(),
                forkbase_chunk::Durability::Always,
                forkbase_chunk::CacheConfig::default(),
                HotTierConfig {
                    enabled: true,
                    publish_batch: 8,
                    ..HotTierConfig::on()
                },
            )
            .unwrap();
            let mut seen = Vec::new();
            for n in 0..20u32 {
                let at = n % 10 * 4;
                db.hot_put_many("k", edits(&format!("b{n}-"), at..at + 4))
                    .unwrap();
                db.persist_hot().unwrap();
                if slow {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let stats = db.hot_stats().unwrap();
                seen.push((db.store().stored_bytes(), stats.publish_rounds));
            }
            std::mem::forget(db); // crash
            seen
        };
        let (fast, slow) = (tempdir(), tempdir());
        let seen = run(&fast, false);
        assert_eq!(
            seen,
            run(&slow, true),
            "the same calls store the same bytes"
        );
        let rounds: Vec<u64> = seen.iter().map(|s| s.1).collect();
        assert_eq!(rounds, [[0; 15].as_slice(), &[1; 5]].concat());

        let db = durable(&fast, true);
        for i in 0..40u32 {
            let n = 10 + i / 4; // the last block to write sk{i}
            assert_eq!(read(&db, "k", i), Some(b(&format!("b{n}-{i}"))), "sk{i}");
        }
        let head = db.head("k", None).unwrap();
        crate::verify_history(db.store(), head).unwrap();
        drop(db);
        for dir in [fast, slow] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A staged round is built on its own thread inside the hash pool's
    /// background budget: on a 2-lane host no pool worker runs a job for
    /// it, where the same build on a caller's thread fans out. Both make
    /// the same trees of the same chunks, in the same order, and
    /// committing the round stores them.
    #[test]
    fn the_publishers_staged_build_keeps_to_its_own_core() {
        let dir = tempdir();
        let db = durable(&dir, true);
        let value = |i: u32, tag: &str| {
            let mut v = format!("{tag}{i}:");
            let mut x = u64::from(i) << 8 | tag.len() as u64;
            while v.len() < 100 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push_str(&format!("{x:016x}"));
            }
            v.truncate(100);
            b(&v)
        };
        // 20,000 entries of 100 B: a round of 256 edits spread over them
        // rewrites about 1 MB of leaves, past both of the pool's
        // thresholds.
        let map = db.new_map((0..20_000u32).map(|i| (format!("sk{i:05}"), value(i, "v"))));
        db.put("k", None, Value::Map(map)).unwrap();
        // Eight blocks of 32 edits: the eighth persist seals the round.
        for n in 0..8u32 {
            let block = (0..32u32)
                .map(|j| (n * 32 + j) * 7919 % 20_000)
                .map(|i| (b(&format!("sk{i:05}")), Some(value(i, &format!("b{n}-")))));
            db.hot_put_many("k", block).unwrap();
            db.persist_hot().unwrap();
        }
        let shared = &db.hot_tier().unwrap().shared;
        let staged = shared.pending.lock().unwrap().staged.take();
        let (work, built) = staged.expect("the eighth persist sealed").join();
        let built = built.expect("the build made the round's trees");

        let before = forkbase_crypto::metrics::snapshot();
        let control = shared.build(&work).unwrap();
        let caller = forkbase_crypto::metrics::snapshot().since(before);
        let cids = |b: &Built| b.chunks.iter().map(Chunk::cid).collect::<Vec<_>>();
        let (roots, chunks) = (built.roots.clone(), cids(&built));
        // Committed before any assert: a tier whose round is in flight
        // and not staged would wait for it forever when dropped.
        shared.publish_work(&work, false, Some(built)).unwrap();
        assert_eq!(roots, control.roots);
        assert_eq!(chunks, cids(&control));
        let lanes = forkbase_crypto::parallel::lanes();
        if lanes > 1 {
            assert!(
                caller.pool_jobs > 0,
                "a caller's build fans out: {caller:?}"
            );
        }
        let stats = db.hot_stats().unwrap();
        if lanes <= 2 {
            assert_eq!((stats.pool_jobs, stats.pool_bytes), (0, 0));
        }
        assert_eq!(stats.publish_rounds, 1);
        assert!(control.chunks.iter().all(|c| db.store().contains(&c.cid())));
        let head = db.head("k", None).unwrap();
        crate::verify_history(db.store(), head).unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Calls cut every round, so one call sequence stores the same bytes
    /// however slowly it runs: no clock adds a round between the calls.
    #[test]
    fn a_call_sequence_stores_the_same_bytes_however_slowly_it_runs() {
        let run = |pause: Duration| {
            let db = ForkBase::in_memory_hot(HotTierConfig::on());
            for n in 0..8u32 {
                db.hot_put_many("k", edits(&format!("b{n}-"), n * 8..n * 8 + 16))
                    .unwrap();
                std::thread::sleep(pause);
            }
            db.flush_hot().unwrap();
            (db.head("k", None).unwrap(), db.store().stored_bytes())
        };
        assert_eq!(run(Duration::ZERO), run(Duration::from_millis(50)));
    }

    /// A persist of `publish_batch` new edits or more publishes them
    /// instead of journaling them; in memory and with the tier off a
    /// persist is `flush_hot`.
    #[test]
    fn a_large_or_undurable_persist_publishes() {
        let dir = tempdir();
        let db = durable(&dir, true);
        db.hot_put_many("k", edits("a", 0..64)).unwrap();
        db.persist_hot().unwrap();
        let stats = db.hot_stats().unwrap();
        assert_eq!((stats.published, stats.journaled), (64, 0));
        assert!(listed(&db).is_empty());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();

        let db = hot_db(1 << 20);
        db.hot_put("k", "a", "1").unwrap();
        db.persist_hot().unwrap();
        assert_eq!(db.hot_stats().unwrap().published, 1);
        let db = ForkBase::in_memory();
        db.hot_put("k", "a", "1").unwrap();
        db.persist_hot().unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("1")));
    }

    #[test]
    fn journal_bytes_round_trip() {
        let edits: Vec<JournalEdit> = vec![
            (b("k"), b("a"), Some(b("1"))),
            (b("k"), b("b"), None),
            (b("other"), b("a"), Some(Bytes::new())),
            (b("k"), b("a"), Some(b("2"))),
        ];
        let numbered: Vec<_> = (41..).zip(edits.iter().cloned()).collect();
        let bytes = encode_journal(&numbered);
        assert_eq!(decode_journal(&bytes), Some((41, edits)));
        for cut in 1..bytes.len() {
            assert_ne!(decode_journal(&bytes[..cut]).map(|j| j.1.len()), Some(4));
        }
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
