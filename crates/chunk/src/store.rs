//! The chunk storage interface (§4.4): a key-value store where the key is a
//! cid and the value is the chunk bytes.

use crate::chunk::Chunk;
use forkbase_crypto::Digest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a `put`: whether bytes were written or the chunk already
/// existed (content-based deduplication, §4.4 — "when a Put-Chunk request
/// contains an existing cid, the storage can respond immediately").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// New chunk persisted.
    Stored,
    /// Identical chunk already present; nothing written.
    Deduplicated,
}

/// Abstract chunk storage. Implementations must be thread-safe; servlets
/// and benchmark drivers share stores across threads.
pub trait ChunkStore: Send + Sync {
    /// Fetch a chunk by cid.
    fn get(&self, cid: &Digest) -> Option<Chunk>;

    /// Fetch many chunks at once; element `i` answers `cids[i]`.
    /// Semantically identical to mapping [`get`](Self::get), but
    /// implementations with per-request overhead (index locks, cache
    /// probes, remote nodes) batch it — the cache tier resolves all of a
    /// batch's misses with **one** backing call.
    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        cids.iter().map(|cid| self.get(cid)).collect()
    }

    /// Store a chunk; dedups on existing cid.
    fn put(&self, chunk: Chunk) -> PutOutcome;

    /// Store many chunks at once; element `i` answers `chunks[i]`.
    /// Semantically identical to mapping [`put`](Self::put), but
    /// implementations with per-request overhead batch it — the durable
    /// log store enqueues the whole batch under **one** commit-lock
    /// acquisition and acknowledges it with one group-commit round, so
    /// N batched puts pay one fsync instead of up to N.
    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        chunks.into_iter().map(|c| self.put(c)).collect()
    }

    /// Membership test without fetching the payload.
    fn contains(&self, cid: &Digest) -> bool;

    /// Storage statistics snapshot.
    fn stats(&self) -> StoreStats;

    /// Total payload bytes held (after deduplication).
    fn stored_bytes(&self) -> u64 {
        self.stats().stored_bytes
    }
}

/// Counters every store maintains. `stored_*` reflect post-dedup state;
/// `put_*`/`get_*` count requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct chunks held.
    pub stored_chunks: u64,
    /// Payload bytes held (post-dedup).
    pub stored_bytes: u64,
    /// Put requests observed.
    pub puts: u64,
    /// Puts answered by deduplication.
    pub dedup_hits: u64,
    /// Payload bytes that deduplication avoided writing.
    pub dedup_bytes: u64,
    /// Get requests observed.
    pub gets: u64,
    /// Gets that found the chunk.
    pub get_hits: u64,
    /// Reads or commits that failed with an I/O error (or an on-disk cid
    /// mismatch). Persistent stores surface failures here instead of
    /// silently reporting a present chunk as absent.
    pub io_errors: u64,
    /// Gets answered by a chunk cache tier without touching the backing
    /// store. Zero for stores without a cache in front.
    pub cache_hits: u64,
    /// Gets the cache tier had to forward to the backing store.
    pub cache_misses: u64,
    /// Entries the cache tier evicted to stay under its byte budget.
    pub cache_evictions: u64,
}

impl StoreStats {
    /// Add `other`'s counters into `self` (aggregation across
    /// partitions, replicas, or cluster nodes).
    pub fn merge(&mut self, other: &StoreStats) {
        self.stored_chunks += other.stored_chunks;
        self.stored_bytes += other.stored_bytes;
        self.puts += other.puts;
        self.dedup_hits += other.dedup_hits;
        self.dedup_bytes += other.dedup_bytes;
        self.gets += other.gets;
        self.get_hits += other.get_hits;
        self.io_errors += other.io_errors;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
    }
}

/// Shared atomic counters backing [`StoreStats`].
#[derive(Default)]
pub struct StatCounters {
    pub stored_chunks: AtomicU64,
    pub stored_bytes: AtomicU64,
    pub puts: AtomicU64,
    pub dedup_hits: AtomicU64,
    pub dedup_bytes: AtomicU64,
    pub gets: AtomicU64,
    pub get_hits: AtomicU64,
    pub io_errors: AtomicU64,
}

impl StatCounters {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            stored_chunks: self.stored_chunks.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_bytes: self.dedup_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_hits: self.get_hits.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            ..StoreStats::default()
        }
    }

    /// Record a put that stored new bytes.
    pub fn record_store(&self, bytes: u64) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.stored_chunks.fetch_add(1, Ordering::Relaxed);
        self.stored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a put answered by dedup.
    pub fn record_dedup(&self, bytes: u64) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        self.dedup_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a get and whether it hit.
    pub fn record_get(&self, hit: bool) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.get_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a failed read/commit.
    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Blanket impl so `Arc<S>` can be used wherever a store is expected.
impl<S: ChunkStore + ?Sized> ChunkStore for Arc<S> {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        (**self).get(cid)
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        (**self).get_many(cids)
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        (**self).put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        (**self).put_many(chunks)
    }

    fn contains(&self, cid: &Digest) -> bool {
        (**self).contains(cid)
    }

    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
}
