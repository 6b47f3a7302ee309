//! Tree walking: the pruned root-to-leaf cursor every reader, diff and
//! splice navigates with, plus counting and point lookups.

use crate::entry::{encode_index_payload, EntryRef, IndexEntry, IndexNode};
use crate::leaf::{count_items, decode_items, find_item, last_key, Item};
use crate::metrics;
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkStore};
use forkbase_crypto::Digest;

/// Fetch a chunk for a tree reader, counting it as a leaf or an index
/// get ([`metrics`]).
pub(crate) fn fetch(store: &dyn ChunkStore, cid: &Digest) -> Option<Chunk> {
    let chunk = store.get(cid)?;
    metrics::got(&chunk);
    Some(chunk)
}

/// One index node on a [`TreeCursor`]'s path, read in place.
struct Frame {
    node: IndexNode,
    /// Children already passed in the direction of travel; the current
    /// child is the next one. Equal to `node.len()` only in the root
    /// frame, when the cursor is at its end.
    idx: usize,
    /// Elements passed before this node's first child.
    start: u64,
}

impl Frame {
    /// The `i`-th child in the direction of travel.
    fn child(&self, rev: bool, i: usize) -> Option<EntryRef<'_>> {
        let i = if rev {
            self.node.len().checked_sub(i + 1)?
        } else {
            i
        };
        self.node.entry(i)
    }

    /// Elements passed before the current child.
    fn pos(&self, rev: bool) -> u64 {
        let n = &self.node;
        self.start
            + if rev {
                n.total() - n.before(n.len() - self.idx)
            } else {
                n.before(self.idx)
            }
    }

    /// Stand on the child holding the node's element `off` (counted in
    /// the direction of travel); past the last child if there is none.
    fn seek(&mut self, rev: bool, off: u64) {
        let n = &self.node;
        self.idx = match n.total().checked_sub(off.saturating_add(1)) {
            Some(back) if rev => n.len() - 1 - n.find(back),
            None if rev => n.len(),
            _ => n.find(off),
        };
    }
}

/// A position in a POS-Tree held as the root-to-node path of index
/// nodes, so that moving costs chunk fetches only for the nodes a move
/// actually enters — "only the relevant nodes are fetched instead of the
/// entire tree" (§4.3.1). Each node is read in place ([`IndexNode`]):
/// the cursor lends out its entries as borrows of the node's payload.
///
/// The cursor stands on the **current entry**: a child of the deepest
/// node on the path, at [`level`](Self::level) (0 = a leaf). It is lazy:
/// [`advance`](Self::advance) steps to the next entry without entering
/// it, so a caller that can judge a whole subtree by its entry (equal
/// cids in a diff, an old group boundary in a splice) never fetches it;
/// [`descend`](Self::descend) enters it one level at a time.
///
/// Positions are element offsets (bytes for Blob); every node is
/// identified by the offset of its first element. A root that is a single
/// leaf is presented as one level-0 entry under a synthetic parent, and
/// the canonical empty leaf as no entry at all. A reverse cursor
/// ([`new_rev`](Self::new_rev)) travels from the last element to the
/// first with every offset counted from the end.
pub struct TreeCursor<'s> {
    store: &'s dyn ChunkStore,
    ty: TreeType,
    root: Digest,
    height: u64,
    rev: bool,
    /// Root first; `frames[i]` is a node of level `height.max(1) - i`.
    frames: Vec<Frame>,
}

impl<'s> TreeCursor<'s> {
    /// A cursor on the first entry under the root. Fetches the root chunk
    /// only.
    pub fn new(store: &'s dyn ChunkStore, root: Digest, ty: TreeType) -> Option<Self> {
        Self::open(store, root, ty, false)
    }

    /// A reverse cursor on the last entry under the root.
    pub fn new_rev(store: &'s dyn ChunkStore, root: Digest, ty: TreeType) -> Option<Self> {
        Self::open(store, root, ty, true)
    }

    fn open(store: &'s dyn ChunkStore, root: Digest, ty: TreeType, rev: bool) -> Option<Self> {
        let chunk = fetch(store, &root)?;
        let node = if chunk.ty().is_index() {
            IndexNode::parse(chunk.payload().clone(), ty.is_sorted())
                .filter(|n| n.level() > 0 && !n.is_empty())?
        } else {
            // A root leaf: one entry (none for the canonical empty leaf)
            // under a synthetic parent whose level is the tree's height, 0.
            let count = count_items(ty, chunk.payload())?;
            let key = if ty.is_sorted() && count > 0 {
                last_key(ty, chunk.payload())?
            } else {
                Bytes::new()
            };
            let leaf = (count > 0).then_some(IndexEntry {
                cid: root,
                count,
                key,
            });
            let payload = encode_index_payload(0, leaf.as_slice(), ty.is_sorted());
            IndexNode::parse(Bytes::from(payload), ty.is_sorted())?
        };
        Some(TreeCursor {
            store,
            ty,
            root,
            height: node.level(),
            rev,
            frames: vec![Frame {
                node,
                idx: 0,
                start: 0,
            }],
        })
    }

    /// Tree height: 0 = the root is a leaf.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Total element count (bytes for Blob).
    pub fn total(&self) -> u64 {
        self.frames[0].node.total()
    }

    fn top(&self) -> &Frame {
        self.frames.last().expect("the root frame is never popped")
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.frames
            .last_mut()
            .expect("the root frame is never popped")
    }

    /// Level of the current entry: 0 = a leaf.
    pub fn level(&self) -> u64 {
        self.height.max(1) - self.frames.len() as u64
    }

    /// True once every entry has been passed.
    pub fn at_end(&self) -> bool {
        self.frames.len() == 1 && self.frames[0].idx == self.frames[0].node.len()
    }

    /// The current entry, borrowed from its node; `None` at the end.
    pub fn entry(&self) -> Option<EntryRef<'_>> {
        let f = self.top();
        f.child(self.rev, f.idx)
    }

    /// Elements passed before the current entry ([`total`](Self::total)
    /// at the end).
    pub fn pos(&self) -> u64 {
        self.top().pos(self.rev)
    }

    /// The current entry's chunk (a leaf when [`level`](Self::level) is
    /// 0).
    pub fn chunk(&self) -> Option<Chunk> {
        fetch(self.store, self.entry()?.cid)
    }

    /// Enter the current entry's node; its first child becomes current.
    /// `None` if the chunk is missing or is not the index node its parent
    /// describes: another level, no entries, or counts that do not sum
    /// to the parent entry's.
    pub fn descend(&mut self) -> Option<()> {
        let level = self.level();
        let count = self.entry()?.count;
        let chunk = self.chunk().filter(|c| c.ty().is_index())?;
        let node = IndexNode::parse(chunk.payload().clone(), self.ty.is_sorted())
            .filter(|n| level > 0 && n.level() == level && !n.is_empty() && n.total() == count)?;
        let start = self.pos();
        self.frames.push(Frame {
            node,
            idx: 0,
            start,
        });
        Some(())
    }

    /// Descend until the current entry is at `floor` (or the end).
    pub fn descend_to(&mut self, floor: u64) -> Option<()> {
        while !self.at_end() && self.level() > floor {
            self.descend()?;
        }
        Some(())
    }

    /// Step past the current entry's whole subtree without entering it.
    /// The next entry may sit at a higher level: the cursor climbs out of
    /// every node it finishes.
    pub fn advance(&mut self) {
        while self.entry().is_some() {
            let root_only = self.frames.len() == 1;
            let f = self.top_mut();
            f.idx += 1;
            if f.idx < f.node.len() || root_only {
                return;
            }
            self.frames.pop();
        }
    }

    /// Step to the leaf before the current entry's first element; `false`
    /// (cursor unmoved) at the first leaf.
    pub fn prev_leaf(&mut self) -> Option<bool> {
        match self.pos().checked_sub(1) {
            Some(pos) => self.seek_pos(pos, 0).map(|()| true),
            None => Some(false),
        }
    }

    /// Depth of the frame whose children are level-`level` subtrees;
    /// `None` for a level this tree does not have.
    fn depth_of(&self, level: u64) -> Option<usize> {
        usize::try_from(self.height.max(1).checked_sub(level)?).ok()
    }

    /// True if the cursor stands at the first element of a level-`level`
    /// subtree: the current entry is the first child under its
    /// level-`level` ancestor (trivially so when it is itself at `level`
    /// or above).
    pub fn starts(&self, level: u64) -> bool {
        self.depth_of(level)
            .is_some_and(|d| self.frames.iter().skip(d).all(|f| f.idx == 0))
    }

    /// `(cid, element count)` of the level-`level` subtree the cursor
    /// stands at the first element of, if there is one at or above the
    /// current entry.
    pub fn start_of(&self, level: u64) -> Option<(Digest, u64)> {
        let depth = self.depth_of(level)?;
        if depth > self.frames.len() || self.at_end() || !self.starts(level) {
            return None;
        }
        match depth.checked_sub(1) {
            Some(d) => {
                let f = &self.frames[d];
                f.child(self.rev, f.idx).map(|e| (*e.cid, e.count))
            }
            None => (self.height > 0).then(|| (self.root, self.total())),
        }
    }

    /// Step past the level-`level` subtree the cursor is in.
    pub fn skip_subtree(&mut self, level: u64) {
        match self.depth_of(level) {
            Some(depth) if depth > 0 => {
                self.frames.truncate(depth);
                self.advance();
            }
            _ => {
                self.frames.truncate(1);
                let f = self.top_mut();
                f.idx = f.node.len();
            }
        }
    }

    /// Step `l` and `r`, which stand on entries of the same level, past
    /// every entry that follows in both their nodes with equal cids, one
    /// cid compare each, stopping before either node's last entry
    /// (leaving a node is [`advance`](Self::advance)'s job). With
    /// `reserved`, an entry is passed only if that leaves more than
    /// `reserved` elements unpassed on both sides.
    ///
    /// Each step is the one `skip_common`'s loop would take: a node whose
    /// first child has been passed starts no higher subtree, so the
    /// current level is the only one the two cursors can share.
    pub(crate) fn skip_equal_run(l: &mut Self, r: &mut TreeCursor<'_>, reserved: Option<u64>) {
        if l.level() != r.level() {
            return;
        }
        let (l_total, r_total) = (l.total(), r.total());
        let (l_rev, r_rev) = (l.rev, r.rev);
        let (lf, rf) = (l.top_mut(), r.top_mut());
        while lf.idx + 1 < lf.node.len() && rf.idx + 1 < rf.node.len() {
            let (Some(a), Some(b)) = (lf.child(l_rev, lf.idx), rf.child(r_rev, rf.idx)) else {
                return;
            };
            let fits = |f: &Frame, rev: bool, total: u64| {
                reserved.is_none_or(|keep| f.pos(rev) + a.count + keep < total)
            };
            if a.cid != b.cid || !fits(lf, l_rev, l_total) || !fits(rf, r_rev, r_total) {
                return;
            }
            lf.idx += 1;
            rf.idx += 1;
        }
    }

    /// Move to the level-`floor` entry holding the element at offset
    /// `pos` — the end if there is none. Climbs only as far as the
    /// nearest node on the path that holds `pos`, so nearby seeks cost
    /// nearby fetches.
    pub fn seek_pos(&mut self, pos: u64, floor: u64) -> Option<()> {
        while self.frames.len() > 1
            && (self.level() < floor
                || pos < self.top().start
                || pos - self.top().start >= self.top().node.total())
        {
            self.frames.pop();
        }
        loop {
            let rev = self.rev;
            let f = self.top_mut();
            f.seek(rev, pos - f.start);
            if self.at_end() || self.level() <= floor {
                return Some(());
            }
            self.descend()?;
        }
    }

    /// Move a forward cursor on a sorted tree to the first leaf whose
    /// last key is `>= key` — the end if `key` is beyond every leaf.
    /// Forward only: `key` must not sort before the elements already
    /// passed. Each node on the way is binary-searched on its keys in
    /// place.
    pub fn seek_key(&mut self, key: &[u8]) -> Option<()> {
        debug_assert!(!self.rev && self.ty.is_sorted());
        while self.frames.len() > 1 && self.top().node.lower_bound(key) == self.top().node.len() {
            self.frames.pop();
        }
        loop {
            let f = self.top_mut();
            f.idx = f.node.lower_bound(key);
            if self.at_end() || self.level() == 0 {
                return Some(());
            }
            self.descend()?;
        }
    }

    /// Of the node holding the current entry: the offset of its first
    /// element and its children before the current one.
    pub(crate) fn siblings_before(&self) -> (u64, impl Iterator<Item = EntryRef<'_>>) {
        debug_assert!(!self.rev);
        let f = self.top();
        (f.start, f.node.entries().take(f.idx))
    }
}

/// A flattened view of a tree's leaf level.
#[derive(Clone, Debug)]
pub struct TreeScan {
    /// One entry per leaf chunk, in order.
    pub leaf_entries: Vec<IndexEntry>,
    /// Tree height: 0 = root is a leaf.
    pub height: u64,
}

/// Collect every leaf entry of the tree at `root`, for tests and tools;
/// every reader walks a [`TreeCursor`] to where it needs to be. Only
/// index chunks are fetched. An empty tree reports its canonical empty
/// leaf.
pub fn scan_tree(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> Option<TreeScan> {
    let mut cur = TreeCursor::new(store, root, ty)?;
    let mut leaf_entries = Vec::new();
    while !cur.at_end() {
        cur.descend_to(0)?;
        leaf_entries.push(cur.entry()?.to_owned());
        cur.advance();
    }
    if leaf_entries.is_empty() {
        leaf_entries.push(IndexEntry {
            cid: root,
            count: 0,
            key: Bytes::new(),
        });
    }
    Some(TreeScan {
        leaf_entries,
        height: cur.height(),
    })
}

/// Total element count by reading only the root chunk.
pub fn total_count(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> Option<u64> {
    TreeCursor::new(store, root, ty).map(|cur| cur.total())
}

/// Point lookup by key in a sorted tree. Fetches one chunk per level.
pub fn get_by_key(store: &dyn ChunkStore, root: Digest, ty: TreeType, key: &[u8]) -> Option<Item> {
    let mut cur = TreeCursor::new(store, root, ty)?;
    cur.seek_key(key)?;
    find_item(ty, cur.chunk()?.payload(), key)
}

/// Point lookup by element position (any tree type). Descends via subtree
/// counts.
pub fn get_by_pos(store: &dyn ChunkStore, root: Digest, ty: TreeType, pos: u64) -> Option<Item> {
    let mut cur = TreeCursor::new(store, root, ty)?;
    cur.seek_pos(pos, 0)?;
    let items = decode_items(ty, cur.chunk()?.payload())?;
    // Copied out, so the caller's item does not keep the leaf alive.
    let item = items.get(usize::try_from(pos - cur.pos()).ok()?)?;
    Some(Item::map(item.key.to_vec(), item.value.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_blob, build_items};
    use crate::leaf::Item;
    use forkbase_chunk::MemStore;
    use forkbase_crypto::ChunkerConfig;

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

    fn leaf_total(scan: &TreeScan) -> u64 {
        scan.leaf_entries.iter().map(|e| e.count).sum()
    }

    #[test]
    fn scan_counts_match() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(50_000, 11);
        let root = build_blob(&store, &cfg, &data);
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(leaf_total(&scan), data.len() as u64);
        assert_eq!(
            total_count(&store, root, TreeType::Blob),
            Some(data.len() as u64)
        );
        assert!(scan.leaf_entries.len() > 10, "should have many leaves");
    }

    #[test]
    fn get_by_key_finds_all() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..2000)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        let root = build_items(&store, &cfg, TreeType::Map, items.clone());
        for i in (0..2000).step_by(97) {
            let key = format!("k{i:06}");
            let item = get_by_key(&store, root, TreeType::Map, key.as_bytes()).expect("present");
            assert_eq!(item.value.as_ref(), format!("v{i}").as_bytes());
        }
        assert!(get_by_key(&store, root, TreeType::Map, b"missing").is_none());
        assert!(get_by_key(&store, root, TreeType::Map, b"zzzz").is_none());
    }

    #[test]
    fn get_by_pos_matches_order() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..500).map(|i| Item::list(format!("elem{i}"))).collect();
        let root = build_items(&store, &cfg, TreeType::List, items.clone());
        for i in [0usize, 1, 100, 250, 499] {
            let item = get_by_pos(&store, root, TreeType::List, i as u64).expect("present");
            assert_eq!(item, items[i]);
        }
        assert!(get_by_pos(&store, root, TreeType::List, 500).is_none());
    }

    /// A deep List: tiny leaves under a fanout of ~4.
    fn deep_list(store: &MemStore, n: usize) -> (Digest, ChunkerConfig) {
        let cfg = ChunkerConfig {
            leaf_bits: 5,
            index_bits: 2,
            ..ChunkerConfig::default()
        };
        let items = (0..n).map(|i| Item::list(format!("element-{i}")));
        (build_items(store, &cfg, TreeType::List, items), cfg)
    }

    #[test]
    fn cursor_walk_matches_scan_in_both_directions() {
        let store = MemStore::new();
        let (root, _) = deep_list(&store, 3000);
        let scan = scan_tree(&store, root, TreeType::List).expect("scan");
        assert!(scan.height >= 3);
        for rev in [false, true] {
            let mut cur = TreeCursor::open(&store, root, TreeType::List, rev).expect("open");
            let mut expected: Vec<&IndexEntry> = scan.leaf_entries.iter().collect();
            if rev {
                expected.reverse();
            }
            let mut pos = 0;
            for e in expected {
                cur.descend_to(0).expect("descend");
                let here = cur.entry().map(EntryRef::to_owned);
                assert_eq!((here.as_ref(), cur.pos(), cur.level()), (Some(e), pos, 0));
                pos += e.count;
                cur.advance();
            }
            assert!(cur.at_end());
            assert_eq!((cur.pos(), cur.total()), (3000, 3000));
        }
    }

    #[test]
    fn cursor_seeks_fetch_only_what_they_enter() {
        let store = MemStore::new();
        let (root, _) = deep_list(&store, 3000);
        let mut cur = TreeCursor::new(&store, root, TreeType::List).expect("open");
        let gets = || store.stats().gets;

        let before = gets();
        cur.seek_pos(1500, 0).expect("seek");
        assert_eq!(
            gets() - before,
            cur.height() - 1,
            "one node per level below the root"
        );
        let leaf = cur.entry().expect("a leaf").to_owned();
        assert!(cur.pos() <= 1500 && 1500 < cur.pos() + leaf.count);

        // The previous leaf and back: same node or a neighbour, never
        // the whole path again.
        let (here, before) = (cur.pos(), gets());
        assert_eq!(cur.prev_leaf(), Some(true));
        assert_eq!(cur.pos() + cur.entry().expect("a leaf").count, here);
        cur.seek_pos(here, 0).expect("seek");
        assert_eq!(cur.entry().map(EntryRef::to_owned), Some(leaf));
        assert!(gets() - before <= 2 * (cur.height() - 1));

        // A seek above the leaves stops there, at the node's first element.
        cur.seek_pos(1500, 1).expect("seek");
        assert_eq!(cur.level(), 1);
        assert!(cur.pos() <= here && cur.starts(1) && !cur.starts(cur.height()));

        // Stepping over a subtree never enters it.
        let before = gets();
        let count = cur.entry().expect("a node").count;
        let at = cur.pos();
        cur.skip_subtree(1);
        assert_eq!((cur.pos(), gets()), (at + count, before));

        cur.seek_pos(3000, 0).expect("seek");
        assert!(cur.at_end());
        assert_eq!(cur.prev_leaf(), Some(true));
        assert_eq!(cur.pos() + cur.entry().expect("last leaf").count, 3000);
    }

    #[test]
    fn cursor_reports_subtree_starts() {
        let store = MemStore::new();
        let (root, _) = deep_list(&store, 3000);
        let mut cur = TreeCursor::new(&store, root, TreeType::List).expect("open");
        let h = cur.height();
        // At the very first leaf the cursor starts every level, the root
        // included.
        cur.descend_to(0).expect("descend");
        assert_eq!(cur.start_of(h), Some((root, 3000)));
        for level in 0..=h {
            assert!(cur.starts(level));
            assert!(cur.start_of(level).is_some());
        }
        assert_eq!(cur.start_of(h + 1), None);
        // One leaf on, it starts that leaf only.
        cur.advance();
        cur.descend_to(0).expect("descend");
        assert!(cur.start_of(0).is_some());
        assert_eq!(cur.start_of(1), None);
    }

    #[test]
    fn cursor_rejects_a_node_that_is_not_what_its_parent_says() {
        let store = MemStore::new();
        let (root, _) = deep_list(&store, 3000);
        // The same tree in a store that lacks one index node.
        let mut cur = TreeCursor::new(&store, root, TreeType::List).expect("open");
        let broken = MemStore::new();
        let missing = *cur.entry().expect("first child").cid;
        let mut stack = vec![root];
        while let Some(cid) = stack.pop() {
            let chunk = store.get(&cid).expect("present");
            if chunk.ty().is_index() {
                let node = IndexNode::parse(chunk.payload().clone(), false).expect("parse");
                stack.extend(node.entries().map(|e| *e.cid));
            }
            if cid != missing {
                broken.put(chunk);
            }
        }
        let mut cur2 = TreeCursor::new(&broken, root, TreeType::List).expect("root is there");
        assert_eq!(cur2.descend(), None);
        assert_eq!(get_by_pos(&broken, root, TreeType::List, 0), None);
        // A leaf is not an index node.
        cur.descend_to(0).expect("descend");
        assert_eq!(cur.descend(), None);
    }

    #[test]
    fn single_leaf_scan() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_blob(&store, &cfg, b"small");
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(scan.height, 0);
        assert_eq!(scan.leaf_entries.len(), 1);
        assert_eq!(leaf_total(&scan), 5);
    }

    #[test]
    fn empty_tree_scan() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_blob(&store, &cfg, b"");
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(leaf_total(&scan), 0);
        assert_eq!(scan.leaf_entries.len(), 1, "canonical empty leaf");
    }
}
