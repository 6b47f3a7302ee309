//! Structural diff between two POS-Trees (§4.3: "comparing two trees can be
//! done efficiently by recursively comparing the cids").
//!
//! Because identical content yields identical chunks, a diff only needs to
//! look inside chunks that differ. Two [`TreeCursor`]s walk the trees in
//! lockstep; wherever both stand at the start of a subtree with the same
//! cid they step over it — at the **highest** level that is true, so a
//! shared region costs one comparison per subtree, not per leaf — and
//! they descend only where the cids differ. A diff of `D` changed
//! elements fetches O(D · log N) chunks, none of them from a shared
//! subtree.
//!
//! **Shared entries pass a run at a time.** Inside an index node whose
//! cid differs, the entries before and after the edit are mostly shared.
//! Once the walk has stepped over one equal-cid entry, both cursors stand
//! past the first child of their nodes, so no subtree above the current
//! level can start there: the per-entry loop could only find the current
//! level, entry after entry. `TreeCursor::skip_equal_run` takes those
//! same steps directly — one cid compare per entry, `reserved` checked
//! for each, stopping before either node's last entry so that leaving a
//! node stays with the loop. It fetches nothing the loop would not.
//!
//! **Only what differs is materialised.** The leaves of a differing
//! region are merge-joined as raw element spans (the splice's
//! [`RawItemCursor`](crate::leaf::RawItemCursor)): keys compared as byte
//! slices, values of equal keys by their bytes. An entry becomes
//! [`Bytes`] slices of its leaf only when it differs; a leaf that does
//! not decode cleanly fails the diff.

use crate::leaf::{raw_items_of, RawItem};
use crate::scan::TreeCursor;
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::Digest;
use std::cmp::Ordering;

/// One differing key between two sorted trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// The key.
    pub key: Bytes,
    /// Value on the left side (`None` = absent).
    pub left: Option<Bytes>,
    /// Value on the right side (`None` = absent).
    pub right: Option<Bytes>,
}

/// Keys that differ between two sorted trees (Map or Set; for Set the
/// values are empty byte strings), in key order.
pub fn sorted_diff(
    store: &dyn ChunkStore,
    ty: TreeType,
    left: Digest,
    right: Digest,
) -> Option<Vec<DiffEntry>> {
    debug_assert!(ty.is_sorted());
    if left == right {
        return Some(Vec::new());
    }
    let mut l = Side::new(store, left, ty)?;
    let mut r = Side::new(store, right, ty)?;
    let mut out = Vec::new();
    loop {
        // Both sides between leaves: what they stand on can be compared
        // by cid before anything is fetched.
        if l.between_leaves() && r.between_leaves() {
            skip_common(&mut l.cursor, &mut r.cursor, None)?;
        }
        let order = match (l.peek()?, r.peek()?) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) => l.bytes(a.key).cmp(r.bytes(b.key)),
        };
        match order {
            Ordering::Less => out.push(l.pass_alone(true)),
            Ordering::Greater => out.push(r.pass_alone(false)),
            Ordering::Equal => {
                let (a, b) = (l.pass(), r.pass());
                if l.bytes(a.value) != r.bytes(b.value) {
                    out.push(DiffEntry {
                        key: l.slice(a.key),
                        left: Some(l.slice(a.value)),
                        right: Some(r.slice(b.value)),
                    });
                }
            }
        }
    }
    Some(out)
}

/// One side of a sorted diff: its cursor, and the leaf the cursor last
/// passed as raw element spans with the next unmatched one.
struct Side<'s> {
    ty: TreeType,
    /// Stands on the entry after the leaf `items` came from.
    cursor: TreeCursor<'s>,
    leaf: Bytes,
    items: Vec<RawItem>,
    next: usize,
}

impl<'s> Side<'s> {
    fn new(store: &'s dyn ChunkStore, root: Digest, ty: TreeType) -> Option<Self> {
        Some(Side {
            ty,
            cursor: TreeCursor::new(store, root, ty)?,
            leaf: Bytes::new(),
            items: Vec::new(),
            next: 0,
        })
    }

    /// True when the last leaf is used up: the next item is the first of
    /// whatever the cursor stands on.
    fn between_leaves(&self) -> bool {
        self.next == self.items.len()
    }

    /// The next unmatched item, decoding the leaf under the cursor when
    /// the last one is used up. The outer `None` is a storage error (a
    /// missing chunk, a leaf that does not decode cleanly), the inner one
    /// the end of the tree.
    #[allow(clippy::option_option)]
    fn peek(&mut self) -> Option<Option<RawItem>> {
        while self.between_leaves() {
            if self.cursor.at_end() {
                return Some(None);
            }
            self.cursor.descend_to(0)?;
            self.leaf = self.cursor.chunk()?.payload().clone();
            raw_items_of(self.ty, &self.leaf, &mut self.items)?;
            self.next = 0;
            self.cursor.advance();
        }
        Some(Some(self.items[self.next]))
    }

    /// Step past the item [`peek`](Self::peek) returned.
    fn pass(&mut self) -> RawItem {
        let item = self.items[self.next];
        self.next += 1;
        item
    }

    /// Step past the peeked item, a key only this side holds.
    fn pass_alone(&mut self, on_left: bool) -> DiffEntry {
        let item = self.pass();
        let value = Some(self.slice(item.value));
        let (left, right) = if on_left {
            (value, None)
        } else {
            (None, value)
        };
        DiffEntry {
            key: self.slice(item.key),
            left,
            right,
        }
    }

    fn bytes(&self, (start, end): (usize, usize)) -> &[u8] {
        &self.leaf[start..end]
    }

    /// A zero-copy slice of the leaf.
    fn slice(&self, (start, end): (usize, usize)) -> Bytes {
        self.leaf.slice(start..end)
    }
}

/// Step both cursors over every subtree they both stand at the start of
/// (same cid at the same level — the highest such level first, then the
/// run of equal entries behind it), descending the side that stands
/// higher wherever there is none, until they stand on two different
/// leaves or one is at its end.
///
/// With `reserved`, a subtree is stepped over only if that leaves more
/// than `reserved` elements unpassed on both sides.
pub(crate) fn skip_common(
    l: &mut TreeCursor,
    r: &mut TreeCursor,
    reserved: Option<u64>,
) -> Option<()> {
    while !l.at_end() && !r.at_end() {
        let (ll, rl) = (l.level(), r.level());
        let fits = |cur: &TreeCursor, count: u64| {
            reserved.is_none_or(|keep| cur.pos() + count + keep < cur.total())
        };
        let common = (ll.max(rl)..=l.height().min(r.height()))
            .rev()
            .find(|&level| match (l.start_of(level), r.start_of(level)) {
                (Some((a, count)), Some((b, _))) => a == b && fits(l, count) && fits(r, count),
                _ => false,
            });
        match common {
            Some(level) => {
                l.skip_subtree(level);
                r.skip_subtree(level);
                TreeCursor::skip_equal_run(l, r, reserved);
            }
            None if ll == 0 && rl == 0 => break,
            None => {
                if ll >= rl {
                    l.descend()?;
                }
                if rl >= ll {
                    r.descend()?;
                }
            }
        }
    }
    Some(())
}

/// Summary of the differing region between two unsorted trees
/// (Blob/List), in element coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeDiff {
    /// First differing element position (same in both sides).
    pub start: u64,
    /// Length of the differing region on the left side.
    pub left_len: u64,
    /// Length of the differing region on the right side.
    pub right_len: u64,
}

/// Locate the differing region between two Blobs at byte precision.
/// Returns `None` (inner) if the blobs are identical.
pub fn blob_diff_summary(
    store: &dyn ChunkStore,
    left: Digest,
    right: Digest,
) -> Option<Option<RangeDiff>> {
    if left == right {
        return Some(None);
    }
    // Common prefix of whole subtrees, from the front.
    let mut l = TreeCursor::new(store, left, TreeType::Blob)?;
    let mut r = TreeCursor::new(store, right, TreeType::Blob)?;
    skip_common(&mut l, &mut r, None)?;
    let prefix_bytes = l.pos();
    // Common suffix of whole subtrees, from the back, leaving at least
    // one byte (so one leaf) of each side's rest out of it.
    let mut l_back = TreeCursor::new_rev(store, left, TreeType::Blob)?;
    let mut r_back = TreeCursor::new_rev(store, right, TreeType::Blob)?;
    skip_common(&mut l_back, &mut r_back, Some(prefix_bytes))?;
    let suffix_bytes = l_back.pos();

    // Refine to byte precision inside the first/last differing leaves.
    let mid_l = read_middle(&mut l, suffix_bytes)?;
    let mid_r = read_middle(&mut r, suffix_bytes)?;
    let mut head = 0usize;
    while head < mid_l.len() && head < mid_r.len() && mid_l[head] == mid_r[head] {
        head += 1;
    }
    let mut tail = 0usize;
    while tail < mid_l.len() - head
        && tail < mid_r.len() - head
        && mid_l[mid_l.len() - 1 - tail] == mid_r[mid_r.len() - 1 - tail]
    {
        tail += 1;
    }

    Some(Some(RangeDiff {
        start: prefix_bytes + head as u64,
        left_len: (mid_l.len() - head - tail) as u64,
        right_len: (mid_r.len() - head - tail) as u64,
    }))
}

/// The bytes from the cursor's leaf up to the last `suffix` bytes (a
/// leaf boundary).
fn read_middle(cur: &mut TreeCursor, suffix: u64) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    while cur.pos() + suffix < cur.total() {
        cur.descend_to(0)?;
        out.extend_from_slice(cur.chunk()?.payload());
        cur.advance();
    }
    Some(out)
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

    fn build_map(store: &MemStore, pairs: &[(&str, &str)]) -> Digest {
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let mut sorted: Vec<_> = pairs.to_vec();
        sorted.sort();
        build_items(
            store,
            &cfg,
            TreeType::Map,
            sorted
                .into_iter()
                .map(|(k, v)| Item::map(k.to_string(), v.to_string())),
        )
    }

    #[test]
    fn identical_trees_diff_empty() {
        let store = MemStore::new();
        let a = build_map(&store, &[("a", "1"), ("b", "2")]);
        let b = build_map(&store, &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert!(sorted_diff(&store, TreeType::Map, a, b)
            .expect("diff")
            .is_empty());
    }

    #[test]
    fn diff_finds_all_change_kinds() {
        let store = MemStore::new();
        let a = build_map(&store, &[("a", "1"), ("b", "2"), ("c", "3")]);
        let b = build_map(&store, &[("a", "1"), ("b", "CHANGED"), ("d", "4")]);
        let mut diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        diff.sort_by(|x, y| x.key.cmp(&y.key));
        assert_eq!(diff.len(), 3);
        assert_eq!(diff[0].key.as_ref(), b"b");
        assert_eq!(diff[0].left.as_deref(), Some(&b"2"[..]));
        assert_eq!(diff[0].right.as_deref(), Some(&b"CHANGED"[..]));
        assert_eq!(diff[1].key.as_ref(), b"c");
        assert_eq!(diff[1].right, None);
        assert_eq!(diff[2].key.as_ref(), b"d");
        assert_eq!(diff[2].left, None);
    }

    #[test]
    fn diff_on_large_maps_is_chunk_local() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..20_000)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        let a = build_items(&store, &cfg, TreeType::Map, items.clone());
        let mut edited = items;
        edited[10_000] = Item::map("k010000", "EDITED");
        let b = build_items(&store, &cfg, TreeType::Map, edited);

        let gets_before = store.stats().gets;
        let diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        let gets = store.stats().gets - gets_before;
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].key.as_ref(), b"k010000");
        // A point edit touches the two root-to-leaf paths — one chunk
        // per level and side — and, where the new value moved a leaf
        // boundary, the leaf behind it.
        let height = TreeCursor::new(&store, a, TreeType::Map)
            .expect("open")
            .height();
        assert!(height >= 2, "a tree with index levels to prune");
        assert!(gets <= 2 * (height + 1) + 2, "diff fetched {gets} chunks");
    }

    #[test]
    fn blob_diff_locates_edit() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(60_000, 5);
        let mut edited = data.clone();
        edited[30_000] = edited[30_000].wrapping_add(1);

        let a = build_blob(&store, &cfg, &data);
        let b = build_blob(&store, &cfg, &edited);
        let d = blob_diff_summary(&store, a, b)
            .expect("diff")
            .expect("differs");
        assert_eq!(d.start, 30_000);
        assert_eq!(d.left_len, 1);
        assert_eq!(d.right_len, 1);
    }

    #[test]
    fn blob_diff_insert() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(40_000, 6);
        let mut longer = data.clone();
        longer.splice(20_000..20_000, b"INSERTED".iter().copied());

        let a = build_blob(&store, &cfg, &data);
        let b = build_blob(&store, &cfg, &longer);
        let d = blob_diff_summary(&store, a, b)
            .expect("diff")
            .expect("differs");
        assert_eq!(d.start, 20_000);
        assert_eq!(d.left_len, 0);
        assert_eq!(d.right_len, 8);
    }

    #[test]
    fn blob_diff_identical_is_none() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let a = build_blob(&store, &cfg, b"same");
        let b = build_blob(&store, &cfg, b"same");
        assert_eq!(blob_diff_summary(&store, a, b), Some(None));
    }

    #[test]
    fn diff_works_across_different_keys_of_same_type() {
        // Diff between objects stored under different db keys (paper: Diff
        // "returns the differences between two FObjects of the same types
        // (they could be of different keys)").
        let store = MemStore::new();
        let a = build_map(&store, &[("x", "1")]);
        let b = build_map(&store, &[("y", "2")]);
        let diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        assert_eq!(diff.len(), 2);
    }
}
