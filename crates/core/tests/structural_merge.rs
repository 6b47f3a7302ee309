//! The structural merge through the commit pipeline.
//!
//! A `commit_map_batch` that loses its publish race rebases: the map it
//! already spliced is merged onto the head that won, its own edits
//! winning (`merge3_sorted` with `Resolver::TakeOurs`). When the two
//! batches touched parts of the map far enough apart, that merge adopts
//! the winner's leaves by cid, so the rebase puts no leaf at all — and
//! the map it publishes is still both batches applied to the base, bit
//! for bit.
//!
//! The race is forced, not hoped for: the store parks the first commit
//! inside its splice's `put_many` (its head is already read) until the
//! second commit has published — a rendezvous, no sleeps.
//!
//! CI runs this file next to the POS-Tree's own `structural_merge`.

use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkType, PutOutcome, StoreStats};
use forkbase_core::{ChunkStore, ChunkerConfig, Digest, ForkBase, MemStore, Value, WriteBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gate {
    Open,
    /// The next `put_many` parks its caller.
    Armed,
    /// A caller is parked.
    Holding,
    Released,
}

/// A [`MemStore`] with a one-shot gate in `put_many` and a count of the
/// leaf chunks put.
struct RendezvousStore {
    inner: MemStore,
    gate: Mutex<Gate>,
    moved: Condvar,
    leaf_puts: AtomicU64,
}

impl RendezvousStore {
    fn new() -> RendezvousStore {
        RendezvousStore {
            inner: MemStore::new(),
            gate: Mutex::new(Gate::Open),
            moved: Condvar::new(),
            leaf_puts: AtomicU64::new(0),
        }
    }

    fn set(&self, gate: Gate) {
        *self.gate.lock().expect("gate") = gate;
        self.moved.notify_all();
    }

    fn wait_for(&self, gate: Gate) {
        let held = self.gate.lock().expect("gate");
        let (held, waited) = self
            .moved
            .wait_timeout_while(held, Duration::from_secs(10), |g| *g != gate)
            .expect("gate");
        assert!(!waited.timed_out(), "waited for {gate:?}, still {held:?}");
    }

    fn leaf_puts(&self) -> u64 {
        self.leaf_puts.load(Ordering::Relaxed)
    }
}

impl ChunkStore for RendezvousStore {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.inner.get(cid)
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        if matches!(chunk.ty(), ChunkType::Map | ChunkType::Set) {
            self.leaf_puts.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        let out = chunks.into_iter().map(|c| self.put(c)).collect();
        let armed = {
            let mut gate = self.gate.lock().expect("gate");
            let armed = *gate == Gate::Armed;
            if armed {
                *gate = Gate::Holding;
            }
            armed
        };
        if armed {
            self.moved.notify_all();
            self.wait_for(Gate::Released);
        }
        out
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.inner.contains(cid)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

fn pk(i: usize) -> String {
    format!("pk{i:08}")
}

fn batch(from: usize, n: usize, tag: &str) -> WriteBatch {
    let mut wb = WriteBatch::with_capacity(n);
    for i in from..from + n {
        wb.put(pk(i), format!("{tag}-{i}"));
    }
    wb
}

#[test]
fn a_lost_race_between_disjoint_batches_rebases_without_a_leaf_put() {
    let store = Arc::new(RendezvousStore::new());
    let db = ForkBase::with_store(store.clone(), ChunkerConfig::default());
    let rows = (0..20_000).map(|i| (pk(i), Bytes::from(vec![b'r'; 90 + i % 20])));
    let base = db.new_map(rows);
    db.put("m", None, Value::Map(base)).expect("base");

    store.set(Gate::Armed);
    let (loser, winner, rebase_leaf_puts) = thread::scope(|s| {
        // Reads the head, splices, and parks in the splice's put_many.
        let loser = s.spawn(|| db.commit_map_batch("m", None, batch(2_000, 100, "a")));
        store.wait_for(Gate::Holding);
        let winner = db
            .commit_map_batch("m", None, batch(15_000, 200, "b"))
            .expect("winner");
        let before = store.leaf_puts();
        store.set(Gate::Released);
        let loser = loser.join().expect("loser thread").expect("loser");
        (loser, winner, store.leaf_puts() - before)
    });

    // The first commit lost, and went on top of the one that won.
    assert_eq!(db.head("m", None).expect("head"), loser);
    let version = db.get_version("m", loser).expect("version");
    assert_eq!(version.bases, vec![winner]);
    assert_eq!(rebase_leaf_puts, 0, "the rebase re-chunked leaves");

    let mut both = batch(2_000, 100, "a");
    both.extend(batch(15_000, 200, "b").into_edits());
    let expected = base.apply(db.store(), db.cfg(), both).expect("both");
    let merged = db.get_value("m", None).expect("head value");
    assert_eq!(merged.as_map().expect("map").root(), expected.root());
}
