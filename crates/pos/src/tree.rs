//! Public handles for the four chunkable types.
//!
//! A handle is just a root cid (plus the type); all data lives in the
//! chunk store. Reads fetch only the chunks they need; writes produce a
//! *new* handle, never mutating existing chunks (copy-on-write).

use crate::batch::WriteBatch;
use crate::builder::{build_blob, build_items};
use crate::error::TreeResult;
use crate::iter::ItemIter;
use crate::leaf::Item;
use crate::metrics;
use crate::scan::{get_by_key, get_by_pos, total_count, TreeCursor};
use crate::types::TreeType;
use crate::update::{sort_last_wins, splice_blob, splice_list, update_sorted, Edit};
use bytes::Bytes;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::{ChunkerConfig, Digest};

/// What every handle has: re-attaching to a root, the root, and the
/// element count, read off the root chunk alone.
macro_rules! handle_basics {
    ($handle:ident, $ty:expr) => {
        impl $handle {
            /// Re-attach to an existing root.
            pub fn from_root(root: Digest) -> $handle {
                $handle { root }
            }

            /// The root cid.
            pub fn root(&self) -> Digest {
                self.root
            }

            /// Number of elements (bytes, for a Blob).
            pub fn len(&self, store: &dyn ChunkStore) -> u64 {
                total_count(store, self.root, $ty).unwrap_or(0)
            }

            /// True if there is no element.
            pub fn is_empty(&self, store: &dyn ChunkStore) -> bool {
                self.len(store) == 0
            }
        }
    };
}

handle_basics!(Blob, TreeType::Blob);
handle_basics!(List, TreeType::List);
handle_basics!(Map, TreeType::Map);
handle_basics!(Set, TreeType::Set);

/// A byte-sequence object backed by a POS-Tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Blob {
    root: Digest,
}

impl Blob {
    /// Build from raw bytes.
    pub fn build(store: &dyn ChunkStore, cfg: &ChunkerConfig, data: &[u8]) -> Blob {
        Blob {
            root: build_blob(store, cfg, data),
        }
    }

    /// Build from a shared buffer: every leaf payload is a zero-copy
    /// slice of `data`, so the build's only byte-level work is the
    /// boundary scan and the cid hashing.
    pub fn build_bytes(
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        data: impl Into<Bytes>,
    ) -> Blob {
        Blob {
            root: crate::builder::build_blob_bytes(store, cfg, data.into()),
        }
    }

    /// Read the entire content: [`read_range`](Self::read_range) over
    /// the whole blob, so the leaf cids come off a cursor (index nodes
    /// only) and the leaves with one [`get_many`](ChunkStore::get_many).
    pub fn read_all(&self, store: &dyn ChunkStore) -> Option<Vec<u8>> {
        self.read_range(store, 0, u64::MAX)
    }

    /// Read `len` bytes starting at `start` (clamped to the object). The
    /// leaves covering the range are prefetched with one batched
    /// [`get_many`](ChunkStore::get_many).
    pub fn read_range(&self, store: &dyn ChunkStore, start: u64, len: u64) -> Option<Vec<u8>> {
        let mut cur = TreeCursor::new(store, self.root, TreeType::Blob)?;
        let start = start.min(cur.total());
        let end = start.saturating_add(len).min(cur.total());
        // (leaf start offset, cid) of the covering run.
        let mut covering: Vec<(u64, Digest)> = Vec::new();
        cur.seek_pos(start, 0)?;
        while cur.pos() < end {
            cur.descend_to(0)?;
            covering.push((cur.pos(), *cur.entry()?.cid));
            cur.advance();
        }
        let cids: Vec<Digest> = covering.iter().map(|(_, cid)| *cid).collect();
        let mut out = Vec::with_capacity((end - start) as usize);
        for ((leaf_start, _), chunk) in covering.iter().zip(store.get_many(&cids)) {
            let chunk = chunk?;
            metrics::got(&chunk);
            let from = start.saturating_sub(*leaf_start) as usize;
            let to = ((end - leaf_start) as usize).min(chunk.len());
            out.extend_from_slice(chunk.payload().get(from..to)?);
        }
        Some(out)
    }

    /// Replace `remove` bytes at `start` with `insert`; returns the new
    /// blob (copy-on-write). [`crate::TreeError::MissingChunk`] indicates
    /// a missing/corrupt chunk in the version being spliced.
    pub fn splice(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        start: u64,
        remove: u64,
        insert: &[u8],
    ) -> TreeResult<Blob> {
        Ok(Blob {
            root: splice_blob(store, cfg, self.root, start, remove, insert)?,
        })
    }

    /// Append bytes at the end.
    pub fn append(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        data: &[u8],
    ) -> TreeResult<Blob> {
        let len = self.len(store);
        self.splice(store, cfg, len, 0, data)
    }

    /// Remove `len` bytes at `start`.
    pub fn remove(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        start: u64,
        len: u64,
    ) -> TreeResult<Blob> {
        self.splice(store, cfg, start, len, &[])
    }

    /// Insert bytes at `start` without removing anything.
    pub fn insert(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        start: u64,
        data: &[u8],
    ) -> TreeResult<Blob> {
        self.splice(store, cfg, start, 0, data)
    }
}

/// A position-indexed sequence of byte-string elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct List {
    root: Digest,
}

impl List {
    /// Build from an element sequence.
    pub fn build<I, B>(store: &dyn ChunkStore, cfg: &ChunkerConfig, elems: I) -> List
    where
        I: IntoIterator<Item = B>,
        B: Into<Bytes>,
    {
        List {
            root: build_items(
                store,
                cfg,
                TreeType::List,
                elems.into_iter().map(|b| Item::list(b.into())),
            ),
        }
    }

    /// Fetch the element at `idx`.
    pub fn get(&self, store: &dyn ChunkStore, idx: u64) -> Option<Bytes> {
        get_by_pos(store, self.root, TreeType::List, idx).map(|i| i.value)
    }

    /// Iterate all elements.
    pub fn iter<'s>(&self, store: &'s dyn ChunkStore) -> impl Iterator<Item = Bytes> + 's {
        ItemIter::new(store, self.root, TreeType::List)
            .into_iter()
            .flatten()
            .map(|i| i.value)
    }

    /// Replace `remove` elements at `start` with `insert`.
    /// [`crate::TreeError::MissingChunk`] indicates a missing/corrupt
    /// chunk in the version being spliced.
    pub fn splice<I, B>(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        start: u64,
        remove: u64,
        insert: I,
    ) -> TreeResult<List>
    where
        I: IntoIterator<Item = B>,
        B: Into<Bytes>,
    {
        let items: Vec<Item> = insert.into_iter().map(|b| Item::list(b.into())).collect();
        Ok(List {
            root: splice_list(store, cfg, self.root, start, remove, &items)?,
        })
    }

    /// Append one element.
    pub fn push(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        elem: impl Into<Bytes>,
    ) -> TreeResult<List> {
        let len = self.len(store);
        self.splice(store, cfg, len, 0, [elem.into()])
    }
}

/// A sorted key → value mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Map {
    root: Digest,
}

impl Map {
    /// Build from key/value pairs (any order; duplicate keys last-wins).
    pub fn build<I, K, V>(store: &dyn ChunkStore, cfg: &ChunkerConfig, pairs: I) -> Map
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<Bytes>,
        V: Into<Bytes>,
    {
        let mut items: Vec<Item> = pairs.into_iter().map(|(k, v)| Item::map(k, v)).collect();
        sort_last_wins(&mut items, |i| &i.key);
        Map {
            root: build_items(store, cfg, TreeType::Map, items),
        }
    }

    /// Point lookup.
    pub fn get(&self, store: &dyn ChunkStore, key: &[u8]) -> Option<Bytes> {
        get_by_key(store, self.root, TreeType::Map, key).map(|i| i.value)
    }

    /// Iterate entries in key order.
    pub fn iter<'s>(&self, store: &'s dyn ChunkStore) -> impl Iterator<Item = (Bytes, Bytes)> + 's {
        ItemIter::new(store, self.root, TreeType::Map)
            .into_iter()
            .flatten()
            .map(|i| (i.key, i.value))
    }

    /// Iterate entries with key ≥ `from`.
    pub fn iter_from<'s>(
        &self,
        store: &'s dyn ChunkStore,
        from: &[u8],
    ) -> impl Iterator<Item = (Bytes, Bytes)> + 's {
        ItemIter::seek(store, self.root, TreeType::Map, from)
            .into_iter()
            .flatten()
            .map(|i| (i.key, i.value))
    }

    /// Apply a batch of edits: `Some(value)` puts, `None` deletes.
    /// Duplicate keys collapse last-wins; the whole batch is one
    /// multi-range splice.
    pub fn update<I, K>(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        edits: I,
    ) -> TreeResult<Map>
    where
        I: IntoIterator<Item = (K, Option<Bytes>)>,
        K: Into<Bytes>,
    {
        self.apply(store, cfg, edits.into_iter().collect())
    }

    /// Apply a [`WriteBatch`] in a single splice, returning the new map
    /// (copy-on-write). Bit-identical to folding the batch's edits through
    /// sequential [`put`](Self::put)/[`del`](Self::del) calls.
    pub fn apply(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        batch: WriteBatch,
    ) -> TreeResult<Map> {
        Ok(Map {
            root: update_sorted(store, cfg, TreeType::Map, self.root, batch.into_edits())?,
        })
    }

    /// Insert or replace one entry.
    pub fn put(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> TreeResult<Map> {
        self.update(store, cfg, [(key.into(), Some(value.into()))])
    }

    /// Remove one entry.
    pub fn del(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        key: impl Into<Bytes>,
    ) -> TreeResult<Map> {
        self.update(store, cfg, [(key.into(), None)])
    }
}

/// A sorted set of byte-string elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Set {
    root: Digest,
}

impl Set {
    /// Build from elements (any order, duplicates collapse).
    pub fn build<I, K>(store: &dyn ChunkStore, cfg: &ChunkerConfig, elems: I) -> Set
    where
        I: IntoIterator<Item = K>,
        K: Into<Bytes>,
    {
        let mut items: Vec<Item> = elems.into_iter().map(Item::set).collect();
        sort_last_wins(&mut items, |i| &i.key);
        Set {
            root: build_items(store, cfg, TreeType::Set, items),
        }
    }

    /// Membership test.
    pub fn contains(&self, store: &dyn ChunkStore, key: &[u8]) -> bool {
        get_by_key(store, self.root, TreeType::Set, key).is_some()
    }

    /// Iterate elements in order.
    pub fn iter<'s>(&self, store: &'s dyn ChunkStore) -> impl Iterator<Item = Bytes> + 's {
        ItemIter::new(store, self.root, TreeType::Set)
            .into_iter()
            .flatten()
            .map(|i| i.key)
    }

    /// Apply a [`WriteBatch`] (built with
    /// [`insert`](WriteBatch::insert)/[`delete`](WriteBatch::delete)) in a
    /// single splice, returning the new set (copy-on-write).
    pub fn apply(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        batch: WriteBatch,
    ) -> TreeResult<Set> {
        Ok(Set {
            root: update_sorted(store, cfg, TreeType::Set, self.root, batch.into_edits())?,
        })
    }

    /// Insert an element.
    pub fn insert(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        key: impl Into<Bytes>,
    ) -> TreeResult<Set> {
        self.apply(
            store,
            cfg,
            WriteBatch::from_iter([Edit::Put(Item::set(key.into()))]),
        )
    }

    /// Remove an element.
    pub fn remove(
        &self,
        store: &dyn ChunkStore,
        cfg: &ChunkerConfig,
        key: impl Into<Bytes>,
    ) -> TreeResult<Set> {
        self.apply(store, cfg, WriteBatch::from_iter([Edit::Del(key.into())]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::MemStore;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn blob_read_write() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(40_000, 1);
        let blob = Blob::build(&store, &cfg, &data);
        assert_eq!(blob.len(&store), 40_000);
        assert_eq!(blob.read_all(&store).expect("read"), data);
        assert_eq!(
            blob.read_range(&store, 10_000, 100).expect("read"),
            &data[10_000..10_100]
        );
        assert_eq!(
            blob.read_range(&store, 39_990, 100).expect("read"),
            &data[39_990..]
        );
    }

    #[test]
    fn blob_paper_example() {
        // Figure 4 of the paper: remove 10 bytes from the beginning, then
        // append.
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let blob = Blob::build(&store, &cfg, b"0123456789my value");
        let blob = blob.remove(&store, &cfg, 0, 10).expect("remove");
        let blob = blob.append(&store, &cfg, b" some more").expect("append");
        assert_eq!(blob.read_all(&store).expect("read"), b"my value some more");
    }

    #[test]
    fn map_point_ops() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let map = Map::build(&store, &cfg, [("b", "2"), ("a", "1")]);
        assert_eq!(map.len(&store), 2);
        assert_eq!(map.get(&store, b"a").expect("hit").as_ref(), b"1");

        let map2 = map.put(&store, &cfg, "c", "3").expect("put");
        assert_eq!(map2.len(&store), 3);
        assert_eq!(map.len(&store), 2, "previous version untouched");

        let map3 = map2.del(&store, &cfg, "a").expect("del");
        assert_eq!(map3.len(&store), 2);
        assert!(map3.get(&store, b"a").is_none());
    }

    #[test]
    fn map_build_accepts_unsorted_with_duplicates() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let map = Map::build(&store, &cfg, [("z", "1"), ("a", "2"), ("z", "3")]);
        assert_eq!(map.len(&store), 2);
        assert_eq!(map.get(&store, b"z").expect("hit").as_ref(), b"3");
    }

    #[test]
    fn map_iter_from() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let map = Map::build(
            &store,
            &cfg,
            (0..500).map(|i| (format!("k{i:04}"), format!("v{i}"))),
        );
        let tail: Vec<_> = map.iter_from(&store, b"k0490").collect();
        assert_eq!(tail.len(), 10);
        assert_eq!(tail[0].0.as_ref(), b"k0490");
    }

    #[test]
    fn set_ops() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let set = Set::build(&store, &cfg, ["apple", "banana", "apple"]);
        assert_eq!(set.len(&store), 2);
        assert!(set.contains(&store, b"apple"));
        assert!(!set.contains(&store, b"cherry"));

        let set2 = set.insert(&store, &cfg, "cherry").expect("insert");
        assert!(set2.contains(&store, b"cherry"));
        let set3 = set2.remove(&store, &cfg, "apple").expect("remove");
        assert!(!set3.contains(&store, b"apple"));
        assert_eq!(set3.len(&store), 2);
    }

    #[test]
    fn map_apply_batch_equals_sequential_edits() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let map = Map::build(
            &store,
            &cfg,
            (0..500).map(|i| (format!("k{i:04}"), format!("v{i}"))),
        );

        let mut wb = WriteBatch::new();
        wb.put("k0000", "overwritten")
            .delete("k0250")
            .put("k0250", "resurrected")
            .put("zzz", "appended")
            .delete("k0499")
            .delete("not-present");
        let batched = map.apply(&store, &cfg, wb).expect("apply");

        let sequential = map
            .put(&store, &cfg, "k0000", "overwritten")
            .and_then(|m| m.del(&store, &cfg, "k0250"))
            .and_then(|m| m.put(&store, &cfg, "k0250", "resurrected"))
            .and_then(|m| m.put(&store, &cfg, "zzz", "appended"))
            .and_then(|m| m.del(&store, &cfg, "k0499"))
            .and_then(|m| m.del(&store, &cfg, "not-present"))
            .expect("sequential");
        assert_eq!(batched.root(), sequential.root());
        assert_eq!(
            batched.get(&store, b"k0250").expect("hit").as_ref(),
            b"resurrected",
            "last edit on the key wins"
        );
    }

    #[test]
    fn set_apply_batch() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let set = Set::build(&store, &cfg, ["a", "b", "c"]);
        let mut wb = WriteBatch::new();
        wb.insert("d").delete("a").insert("a");
        let set2 = set.apply(&store, &cfg, wb).expect("apply");
        assert!(set2.contains(&store, b"a"), "re-inserted after delete");
        assert!(set2.contains(&store, b"d"));
        assert_eq!(set2.len(&store), 4);
    }

    #[test]
    fn identical_maps_share_root() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let a = Map::build(&store, &cfg, [("x", "1"), ("y", "2")]);
        let b = Map::build(&store, &cfg, [("y", "2"), ("x", "1")]);
        assert_eq!(a.root(), b.root(), "same content, same identity");
    }

    #[test]
    fn list_push_and_get() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let mut list = List::build(&store, &cfg, ["a", "b"]);
        list = list.push(&store, &cfg, "c").expect("push");
        assert_eq!(list.len(&store), 3);
        assert_eq!(list.get(&store, 2).expect("hit").as_ref(), b"c");
        let all: Vec<_> = list.iter(&store).collect();
        assert_eq!(all.len(), 3);
    }
}
