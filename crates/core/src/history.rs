//! Derivation-graph traversal: Track (M15/M16) and LCA (M17).

use crate::error::Result;
use crate::fobject::FObject;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::fx::{FxHashMap, FxHashSet};
use forkbase_crypto::Digest;
use std::collections::BinaryHeap;

/// A version reached while walking history.
#[derive(Clone, Debug)]
pub struct TrackedVersion {
    /// The version's uid.
    pub uid: Digest,
    /// Hops from the starting version.
    pub distance: u64,
    /// The decoded FObject.
    pub object: FObject,
}

/// Breadth-first walk of the derivation graph from `start`, following
/// `bases` links, returning versions whose distance lies in
/// `[min_dist, max_dist]`. Results are ordered by distance (then uid for
/// determinism).
///
/// The walk is level-batched: every version at distance *d* is fetched
/// with one [`get_many`](ChunkStore::get_many), so a cache/backing tier
/// with per-request overhead answers each BFS frontier in a single
/// round instead of one `get` per version.
pub fn track(
    store: &dyn ChunkStore,
    start: Digest,
    min_dist: u64,
    max_dist: u64,
) -> Result<Vec<TrackedVersion>> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<Digest> = FxHashSet::default();
    let mut frontier: Vec<Digest> = vec![start];
    seen.insert(start);
    let mut dist = 0u64;

    while !frontier.is_empty() && dist <= max_dist {
        let mut next: Vec<Digest> = Vec::new();
        for (uid, chunk) in frontier.iter().zip(store.get_many(&frontier)) {
            let obj = match chunk {
                Some(c) => FObject::decode_verified(&c, *uid)?,
                None => return Err(crate::error::FbError::VersionNotFound(*uid)),
            };
            if dist < max_dist {
                for &base in &obj.bases {
                    if seen.insert(base) {
                        next.push(base);
                    }
                }
            }
            if dist >= min_dist {
                out.push(TrackedVersion {
                    uid: *uid,
                    distance: dist,
                    object: obj,
                });
            }
        }
        frontier = next;
        dist += 1;
    }
    out.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.uid.cmp(&b.uid)));
    Ok(out)
}

/// The least common ancestor of two versions: the *deepest* version
/// reachable from both via `bases` links (§3.2, §4.5.2 — "the most recent
/// version where they start to fork"). Returns `None` for disjoint
/// histories.
///
/// Both histories are walked together, deepest version first, each
/// version passing on to its bases which of `a` and `b` it descends from;
/// a version is deeper than its bases, so by the time one is taken off
/// the heap everything that descends from it has been, and the first one
/// reached from both sides is the answer. Only versions at least as deep
/// as the answer are loaded — a merge of two heads that forked a few
/// versions ago costs those few versions, not the object's history.
pub fn lca(store: &dyn ChunkStore, a: Digest, b: Digest) -> Result<Option<Digest>> {
    const BOTH: u8 = 0b11;
    struct Seen {
        /// Which of `a` (bit 0) and `b` (bit 1) this version is known to
        /// be an ancestor of, and how much of that its bases have heard.
        from: u8,
        passed_on: u8,
        depth: u64,
        bases: Vec<Digest>,
    }
    let mut seen: FxHashMap<Digest, Seen> = FxHashMap::default();
    let mut heap: BinaryHeap<(u64, Digest)> = BinaryHeap::new();
    let reach = |seen: &mut FxHashMap<Digest, Seen>, uid: Digest, from: u8| -> Result<u64> {
        if let Some(s) = seen.get_mut(&uid) {
            s.from |= from;
            return Ok(s.depth);
        }
        let obj = FObject::load(store, uid)?;
        seen.insert(
            uid,
            Seen {
                from,
                passed_on: 0,
                depth: obj.depth,
                bases: obj.bases,
            },
        );
        Ok(obj.depth)
    };
    heap.push((reach(&mut seen, a, 0b01)?, a));
    heap.push((reach(&mut seen, b, 0b10)?, b));
    while let Some((_, uid)) = heap.pop() {
        let s = seen.get_mut(&uid).expect("on the heap, so seen");
        if s.from == BOTH {
            return Ok(Some(uid));
        }
        // Re-queued only to pass on a side it had not heard of when it
        // was first taken off (depths a writer got wrong).
        if s.passed_on == s.from {
            continue;
        }
        s.passed_on = s.from;
        let (from, bases) = (s.from, s.bases.clone());
        for base in bases {
            heap.push((reach(&mut seen, base, from)?, base));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use forkbase_chunk::MemStore;
    use std::sync::Arc;

    /// Commit a chain of versions directly into a store.
    fn chain(store: &Arc<MemStore>, key: &str, n: u64) -> Vec<Digest> {
        let mut uids = Vec::new();
        let mut base: Option<Digest> = None;
        for i in 0..n {
            let obj = FObject::new(
                key.to_string(),
                &Value::Int(i as i64),
                base.into_iter().collect(),
                i,
                "",
            );
            let chunk = obj.to_chunk();
            let uid = chunk.cid();
            forkbase_chunk::ChunkStore::put(store.as_ref(), chunk);
            uids.push(uid);
            base = Some(uid);
        }
        uids
    }

    #[test]
    fn track_linear_chain() {
        let store = Arc::new(MemStore::new());
        let uids = chain(&store, "k", 10);
        let head = *uids.last().expect("non-empty");

        let all = track(store.as_ref(), head, 0, 100).expect("track");
        assert_eq!(all.len(), 10);
        for (i, tv) in all.iter().enumerate() {
            assert_eq!(tv.distance, i as u64);
            assert_eq!(tv.uid, uids[9 - i]);
        }

        let window = track(store.as_ref(), head, 2, 4).expect("track");
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].distance, 2);
    }

    #[test]
    fn track_does_not_fetch_beyond_range() {
        let store = Arc::new(MemStore::new());
        let uids = chain(&store, "k", 50);
        let head = *uids.last().expect("non-empty");
        let gets_before = forkbase_chunk::ChunkStore::stats(store.as_ref()).gets;
        track(store.as_ref(), head, 0, 3).expect("track");
        let gets = forkbase_chunk::ChunkStore::stats(store.as_ref()).gets - gets_before;
        assert!(gets <= 5, "fetched {gets} objects for a range of 4");
    }

    #[test]
    fn lca_diamond() {
        let store = Arc::new(MemStore::new());
        let base_uids = chain(&store, "k", 3);
        let fork_point = base_uids[2];

        // Two branches off the fork point, then check their LCA.
        let mk = |val: i64, bases: Vec<Digest>, depth: u64| {
            let obj = FObject::new("k", &Value::Int(val), bases, depth, "");
            let chunk = obj.to_chunk();
            let uid = chunk.cid();
            forkbase_chunk::ChunkStore::put(store.as_ref(), chunk);
            uid
        };
        let left = mk(100, vec![fork_point], 3);
        let left2 = mk(101, vec![left], 4);
        let right = mk(200, vec![fork_point], 3);

        assert_eq!(
            lca(store.as_ref(), left2, right).expect("lca"),
            Some(fork_point)
        );
        assert_eq!(lca(store.as_ref(), left, left).expect("lca"), Some(left));
        // Ancestor relationship: LCA is the ancestor itself.
        assert_eq!(
            lca(store.as_ref(), left2, fork_point).expect("lca"),
            Some(fork_point)
        );
    }

    #[test]
    fn lca_does_not_fetch_beyond_the_fork_point() {
        let store = Arc::new(MemStore::new());
        let trunk = chain(&store, "k", 200);
        let mk = |val: i64, base: Digest, depth: u64| {
            let chunk = FObject::new("k", &Value::Int(val), vec![base], depth, "").to_chunk();
            let uid = chunk.cid();
            forkbase_chunk::ChunkStore::put(store.as_ref(), chunk);
            uid
        };
        let left = mk(-1, mk(-2, trunk[199], 200), 201);
        let right = mk(-3, trunk[199], 200);
        let gets_before = forkbase_chunk::ChunkStore::stats(store.as_ref()).gets;
        assert_eq!(
            lca(store.as_ref(), left, right).expect("lca"),
            Some(trunk[199])
        );
        let gets = forkbase_chunk::ChunkStore::stats(store.as_ref()).gets - gets_before;
        assert!(
            gets <= 5,
            "fetched {gets} objects to find a fork point 2 hops back"
        );
    }

    #[test]
    fn lca_disjoint_histories() {
        let store = Arc::new(MemStore::new());
        let a = chain(&store, "a", 2);
        let b = chain(&store, "b", 2);
        assert_eq!(lca(store.as_ref(), a[1], b[1]).expect("lca"), None);
    }

    #[test]
    fn lca_picks_deepest_common_ancestor() {
        let store = Arc::new(MemStore::new());
        let mk = |val: i64, bases: Vec<Digest>, depth: u64| {
            let obj = FObject::new("k", &Value::Int(val), bases, depth, "");
            let chunk = obj.to_chunk();
            let uid = chunk.cid();
            forkbase_chunk::ChunkStore::put(store.as_ref(), chunk);
            uid
        };
        // g0 <- g1 <- L, R ; both g0 and g1 are common, g1 is deeper.
        let g0 = mk(0, vec![], 0);
        let g1 = mk(1, vec![g0], 1);
        let l = mk(2, vec![g1], 2);
        let r = mk(3, vec![g1], 2);
        assert_eq!(lca(store.as_ref(), l, r).expect("lca"), Some(g1));
    }
}
