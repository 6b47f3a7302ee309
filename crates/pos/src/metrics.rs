//! Per-thread counters of the tree layer's work: index nodes and entries
//! parsed, chunks fetched and chunks stored, leaves and index nodes apart.
//!
//! Always on. Each thread counts its own calls, so a test or a bench that
//! takes a [`snapshot`] before and after an operation reads exactly what
//! that operation did, however many other threads are at work. Fetches
//! are counted where the tree readers get a chunk (the cursor's one fetch
//! helper and `Blob`'s batched leaf reads), stores where the builder hands
//! chunks to `put` / `put_many` — whether or not the store already held
//! them. A from-scratch Blob build also times its three phases: the
//! boundary scan, the leaf hashes and the index levels with the store;
//! every other build and splice (all that a `LeafBuilder` cuts) times the
//! same three.

use forkbase_chunk::Chunk;
use std::cell::Cell;
use std::time::Instant;

/// What the calling thread's tree operations have done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PosMetrics {
    /// Index nodes parsed ([`IndexNode::parse`](crate::entry::IndexNode::parse)),
    /// the one-entry parent a cursor puts above a root leaf included.
    pub index_nodes_parsed: u64,
    /// Entries of those nodes.
    pub index_entries_parsed: u64,
    /// Index chunks fetched.
    pub index_gets: u64,
    /// Leaf chunks fetched.
    pub leaf_gets: u64,
    /// Index chunks handed to the store.
    pub index_puts: u64,
    /// Leaf chunks handed to the store.
    pub leaf_puts: u64,
    /// Nanoseconds Blob builds spent placing leaf boundaries
    /// ([`split_positions`](forkbase_crypto::split_positions)).
    pub blob_scan_ns: u64,
    /// Nanoseconds Blob builds spent hashing their leaves.
    pub blob_hash_ns: u64,
    /// Nanoseconds Blob builds spent on index levels and store puts.
    pub blob_store_ns: u64,
    /// Nanoseconds element builds and splices spent placing leaf
    /// boundaries: the boundary scan, and also a build's encoding of its
    /// elements and a splice's seeks and leaf fetches.
    pub item_scan_ns: u64,
    /// Nanoseconds element builds and splices spent hashing their leaves
    /// (joining the batches handed to the hash pool included).
    pub item_hash_ns: u64,
    /// Nanoseconds element builds and splices spent on index levels and
    /// store puts.
    pub item_store_ns: u64,
    /// Leaves a splice fetched in front of its first edited leaf to warm
    /// the rolling window.
    pub seed_fetches: u64,
}

impl PosMetrics {
    /// What was done between `before` and `self`.
    pub fn since(self, before: PosMetrics) -> PosMetrics {
        PosMetrics {
            index_nodes_parsed: self.index_nodes_parsed - before.index_nodes_parsed,
            index_entries_parsed: self.index_entries_parsed - before.index_entries_parsed,
            index_gets: self.index_gets - before.index_gets,
            leaf_gets: self.leaf_gets - before.leaf_gets,
            index_puts: self.index_puts - before.index_puts,
            leaf_puts: self.leaf_puts - before.leaf_puts,
            blob_scan_ns: self.blob_scan_ns - before.blob_scan_ns,
            blob_hash_ns: self.blob_hash_ns - before.blob_hash_ns,
            blob_store_ns: self.blob_store_ns - before.blob_store_ns,
            item_scan_ns: self.item_scan_ns - before.item_scan_ns,
            item_hash_ns: self.item_hash_ns - before.item_hash_ns,
            item_store_ns: self.item_store_ns - before.item_store_ns,
            seed_fetches: self.seed_fetches - before.seed_fetches,
        }
    }
}

thread_local! {
    static COUNTS: Cell<PosMetrics> = Cell::default();
}

/// The calling thread's counters.
pub fn snapshot() -> PosMetrics {
    COUNTS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut PosMetrics)) {
    COUNTS.with(|c| {
        let mut m = c.get();
        f(&mut m);
        c.set(m);
    });
}

/// One index node of `entries` entries parsed.
pub(crate) fn parsed(entries: usize) {
    bump(|m| {
        m.index_nodes_parsed += 1;
        m.index_entries_parsed += entries as u64;
    });
}

/// `(index nodes, leaves)` among `chunks`.
fn split(chunks: &[Chunk]) -> (u64, u64) {
    let index = chunks.iter().filter(|c| c.ty().is_index()).count() as u64;
    (index, chunks.len() as u64 - index)
}

/// `chunk` fetched.
pub(crate) fn got(chunk: &Chunk) {
    let (index, leaf) = split(std::slice::from_ref(chunk));
    bump(|m| (m.index_gets, m.leaf_gets) = (m.index_gets + index, m.leaf_gets + leaf));
}

/// `chunks` handed to the store.
pub(crate) fn stored(chunks: &[Chunk]) {
    let (index, leaf) = split(chunks);
    bump(|m| (m.index_puts, m.leaf_puts) = (m.index_puts + index, m.leaf_puts + leaf));
}

/// One leaf fetched to warm a splice's rolling window.
pub(crate) fn seed_fetched() {
    bump(|m| m.seed_fetches += 1);
}

/// The phases of one build or splice — boundary scan, leaf hash, index
/// levels + store — lapped as it goes.
pub(crate) struct PhaseClock {
    lap: Instant,
    ns: [u64; 3],
}

impl PhaseClock {
    pub(crate) fn start() -> PhaseClock {
        PhaseClock {
            lap: Instant::now(),
            ns: [0; 3],
        }
    }

    /// Close `phase` (0 scan, 1 leaf hash, 2 index+store) now.
    pub(crate) fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.ns[phase] += (now - self.lap).as_nanos() as u64;
        self.lap = now;
    }

    /// Close the index+store phase: `[scan, hash, store]` in nanoseconds.
    pub(crate) fn stop(mut self) -> [u64; 3] {
        self.lap(2);
        self.ns
    }
}

/// One Blob build's phases ([`PhaseClock::stop`]).
pub(crate) fn blob_phases([scan, hash, store]: [u64; 3]) {
    bump(|m| {
        m.blob_scan_ns += scan;
        m.blob_hash_ns += hash;
        m.blob_store_ns += store;
    });
}

/// One build's or splice's phases through a `LeafBuilder`.
pub(crate) fn item_phases([scan, hash, store]: [u64; 3]) {
    bump(|m| {
        m.item_scan_ns += scan;
        m.item_hash_ns += hash;
        m.item_store_ns += store;
    });
}
