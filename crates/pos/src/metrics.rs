//! Per-thread counters of the tree layer's work: index nodes and entries
//! parsed, chunks fetched and chunks stored, leaves and index nodes apart.
//!
//! Always on. Each thread counts its own calls, so a test or a bench that
//! takes a [`snapshot`] before and after an operation reads exactly what
//! that operation did, however many other threads are at work. Fetches
//! are counted where the tree readers get a chunk (the cursor's one fetch
//! helper and `Blob`'s batched leaf reads), stores where the builder hands
//! chunks to `put` / `put_many` — whether or not the store already held
//! them.

use forkbase_chunk::Chunk;
use std::cell::Cell;

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
