//! Localized, copy-on-write tree updates (§4.3.3).
//!
//! "When updating an existing POS-Tree, only affected nodes are
//! reconstructed … no subsequent chunks are involved during the
//! reconstruction, because the boundary pattern of the last merged chunk is
//! preserved."
//!
//! The splice algorithm:
//! 1. Walk a [`TreeCursor`] from the root to the leaf holding the first
//!    affected position: one index chunk per level, nothing else.
//! 2. If the leaf warms the rolling window by itself, go on: when the
//!    old bytes in front of the first edit (or in front of the leaf's
//!    last element, which is always scanned) number at least `window`
//!    and the `α·2^q` cap does not fall inside them, step 3 re-feeds them
//!    unscanned, and [`LeafChunker::skip_clean`](forkbase_crypto::LeafChunker::skip_clean)
//!    re-warms the window with their last `window` bytes — whatever was
//!    in it before. Otherwise warm the window with the bytes preceding
//!    the rebuild point (the tail of the previous leaf,
//!    [`TreeCursor::prev_leaf`]) so boundary decisions match a
//!    from-scratch build. Only an edit within a window of its leaf's
//!    start pays that fetch.
//! 3. Re-chunk through the affected region, applying the edits. Fresh
//!    elements are queued and scanned as one run each
//!    (`LeafBuilder::queue_item`; a run of 1 KiB or more in sixteen
//!    lanes); untouched old elements are re-fed through
//!    [`LeafBuilder::append_old_run`] / [`LeafBuilder::append_old_blob`],
//!    which scan only the bytes an edit can reach. A pattern hit at byte
//!    `p` is a function of the `window` bytes ending at `p` and nothing
//!    else (the window is never reset at a cut), so an old byte with
//!    `window` unchanged old bytes behind it hits exactly where it hit in
//!    the old tree — and the old tree says where that was: a leaf ends at
//!    the first element containing a hit, so only a leaf's *last* element
//!    can contain one. A hit can therefore hide in two places only:
//!    (a) within `window` bytes after the last fresh or removed byte, and
//!    (b) inside the old leaf's last element. The rest is adopted
//!    unscanned as zero-copy rope spans. The forced `α·2^q` cut is the
//!    exception: it counts bytes from the previous cut, which an edit
//!    moves, so when the cap would land inside a known-clean stretch the
//!    builder falls back to scanning that stretch for the exact position.
//! 4. Once past the last edit, stop at the first chunk cut that coincides
//!    with an old leaf boundary *and* lies at least one rolling-hash window
//!    beyond the last fresh or removed byte ([`LeafBuilder::realigned`];
//!    the builder keeps that distance itself, the splice only reports
//!    removals) — from there on, old and new boundary decisions provably
//!    agree, so the leaves that follow stay where they are, unread.
//! 5. Hand the index levels one patch (`Patch`) per re-chunked region
//!    (the old leaves it covered → the leaves that replace them).
//!    `build_index_levels` regroups, level by level, only the nodes on
//!    the paths to the patches and reaches the same root a from-scratch
//!    build over the new leaf list would: work per splice is
//!    O(edited leaves · height), not O(tree).
//!
//! # Multi-range splice
//!
//! [`update_sorted`] is a **multi-range** splice: one call applies an
//! arbitrary batch of keyed edits, re-chunking each affected region
//! exactly once. The batch is first normalized ([`normalize_edits`]:
//! sorted by key, duplicate keys last-wins), then the splice alternates
//! between two modes:
//!
//! * **seek** — while the chunk stream is realigned with the old tree
//!   (trivially so before the first edit), the cursor seeks the leaf
//!   holding the next edit's key ([`TreeCursor::seek_key`], climbing only
//!   as far as the nearest common ancestor);
//! * **re-chunk** — leaves overlapping a run of consecutive edits are
//!   walked as raw spans and merge-applied; once the boundary stream
//!   provably realigns (step 4 above) the region is closed and the splice
//!   seeks the next edit cluster.
//!
//! So a batch with `k` well-separated edit clusters touches `O(k)` leaf
//! regions and never looks at what lies between them — the tree is
//! spliced **once** per batch, never once per edit. Fresh leaves produced
//! across all regions are hashed as a single batch at
//! [`LeafBuilder::finish`] (parallel cid computation on multi-core hosts),
//! and the index levels are patched once at the end. This is what makes
//! [`WriteBatch`](crate::batch::WriteBatch) application orders of
//! magnitude cheaper per edit than a `put` loop.
//!
//! Because leaf boundaries are pure functions of content, the spliced tree
//! is bit-identical to a from-scratch build of the edited content — the
//! property the `history_independence` and batch-equivalence proptests pin
//! down.

use crate::builder::{build_index_levels, LeafBuilder, Patch};
use crate::error::{TreeError, TreeResult};
use crate::leaf::{raw_items_of, Item, RawItem};
use crate::metrics;
use crate::scan::TreeCursor;
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::{ChunkerConfig, Digest};
use std::ops::Range;

/// A keyed edit against a sorted tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Insert or replace the item at `item.key`.
    Put(Item),
    /// Remove the key if present.
    Del(Bytes),
}

impl Edit {
    /// The key this edit addresses.
    pub fn key(&self) -> &[u8] {
        match self {
            Edit::Put(item) => &item.key,
            Edit::Del(key) => key,
        }
    }
}

/// Sort edits by key, last-wins on duplicates.
pub fn normalize_edits(mut edits: Vec<Edit>) -> Vec<Edit> {
    sort_last_wins(&mut edits, Edit::key);
    edits
}

/// Sort `v` by `key`, stably, and collapse equal keys in place to the
/// last of them. Input already in key order is one pass: no sort.
pub(crate) fn sort_last_wins<T>(v: &mut Vec<T>, key: impl Fn(&T) -> &[u8]) {
    if !v.is_sorted_by(|a, b| key(a) <= key(b)) {
        v.sort_by(|a, b| key(a).cmp(key(b)));
    }
    // `dedup_by` keeps the first of a run: move each later one into it.
    v.dedup_by(|later, kept| {
        let same = key(later) == key(kept);
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

/// Warm the builder's rolling window for a region that starts at the
/// cursor's leaf, whose first `prefix` bytes the builder re-feeds before
/// it scans anything. When they warm the window by themselves
/// ([`LeafBuilder::warms_itself`]) nothing is fetched; otherwise the
/// tail of the leaves in front is ([`seed_before`]).
fn seed_unless_warm(
    cur: &mut TreeCursor,
    window: usize,
    lb: &mut LeafBuilder,
    prefix: usize,
) -> Option<()> {
    if lb.warms_itself(prefix) {
        return Some(());
    }
    seed_before(cur, window, lb)
}

/// The bytes of an old leaf of elements `items` that a region re-feeds
/// before it scans anything, when its first `untouched` elements come
/// before the first edit: up to that edit, or up to the leaf's last
/// element, which is scanned whatever happens (the skip rule's (b)).
fn clean_prefix(items: &[RawItem], untouched: usize) -> usize {
    let last = items.len().saturating_sub(1);
    items.get(untouched.min(last)).map_or(0, |r| r.span.0)
}

/// Feed the last `window` bytes preceding the cursor's leaf into the
/// builder's rolling window; the cursor comes back to where it was.
fn seed_before(cur: &mut TreeCursor, window: usize, lb: &mut LeafBuilder) -> Option<()> {
    let here = cur.pos();
    // Tails of the preceding leaves, nearest first.
    let mut tails: Vec<Bytes> = Vec::new();
    let mut got = 0usize;
    while got < window && cur.prev_leaf()? {
        let chunk = cur.chunk()?;
        metrics::seed_fetched();
        let keep = chunk.len().min(window - got);
        tails.push(chunk.payload().slice(chunk.len() - keep..));
        got += keep;
    }
    let seed: Vec<u8> = tails.iter().rev().flat_map(|t| t.iter().copied()).collect();
    lb.seed(&seed);
    cur.seek_pos(here, 0)
}

/// The re-chunked regions of a splice: the old leaves each covered (as
/// an element range) and the builder's leaf count when it closed.
type Regions = Vec<(Range<u64>, usize)>;

/// Queue the puts among `edits` as fresh elements (deletes of keys the
/// tree does not hold are no-ops).
fn append_puts(lb: &mut LeafBuilder, edits: &[Edit]) {
    for e in edits {
        if let Edit::Put(item) = e {
            lb.queue_item(item);
        }
    }
}

/// Hash the splice's fresh leaves, patch them over the old tree under
/// `cur` — one [`Patch`] per region, the last one taking the leaf the
/// builder still had pending — and hand the store everything new
/// (`build_index_levels` says in how many batches).
fn finish_splice(
    lb: LeafBuilder,
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    cur: TreeCursor,
    regions: Regions,
) -> Option<Digest> {
    let (entries, fresh, clock) = lb.finish_unstored();
    let last = regions.len() - 1;
    let mut entries = entries.into_iter();
    let mut taken = 0usize;
    let patches = regions
        .into_iter()
        .enumerate()
        .map(|(i, (old, upto))| {
            let n = if i == last { usize::MAX } else { upto - taken };
            taken = upto;
            Patch {
                old,
                new: entries.by_ref().take(n).collect(),
            }
        })
        .collect();
    let root = build_index_levels(store, cfg, ty, Some(cur), patches, fresh);
    metrics::item_phases(clock.stop());
    root
}

/// Apply a batch of keyed edits to a sorted tree in one multi-range
/// splice; returns the new root. [`TreeError::MissingChunk`] indicates a
/// missing/corrupt chunk in the tree being updated.
pub fn update_sorted(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    root: Digest,
    edits: Vec<Edit>,
) -> TreeResult<Digest> {
    update_sorted_inner(store, cfg, ty, root, edits).ok_or(TreeError::MissingChunk { root })
}

fn update_sorted_inner(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    root: Digest,
    edits: Vec<Edit>,
) -> Option<Digest> {
    debug_assert!(ty.is_sorted());
    if edits.is_empty() {
        return Some(root);
    }
    let edits = normalize_edits(edits);
    let mut cur = TreeCursor::new(store, root, ty)?;
    let mut lb = LeafBuilder::new(store, cfg, ty);
    let mut regions = Regions::new();
    let mut edit_i = 0usize;
    // Scratch for the current leaf's element spans, reused across leaves.
    let mut raw_items: Vec<RawItem> = Vec::new();

    if cur.total() == 0 {
        // Empty tree: all edits are trailing inserts.
        append_puts(&mut lb, &edits);
        regions.push((0..0, 0));
        edit_i = edits.len();
    }
    while let Some(edit) = edits.get(edit_i) {
        // One region: from the first leaf that can hold the edit (past
        // every key: the last leaf, which trailing inserts merge into) to
        // where the chunk stream realigns short of the next edit's leaf.
        seek_leaf(&mut cur, edit.key())?;
        let start = cur.pos();
        let mut first_leaf = true;
        let end = loop {
            // Merge-apply edits through one leaf. The old payload is
            // walked as raw byte spans: untouched elements are compared
            // by key slice and adopted in whole runs
            // ([`LeafBuilder::append_old_run`]) — no per-item
            // decode/re-encode or `Bytes` refcounting, and no boundary
            // scan beyond the bytes the edits can reach.
            let chunk = cur.chunk()?;
            let payload = chunk.payload();
            raw_items_of(ty, payload, &mut raw_items)?;
            let key_of = |r: &RawItem| &payload[r.key.0..r.key.1];
            if std::mem::take(&mut first_leaf) {
                let untouched = raw_items.partition_point(|r| key_of(r) < edit.key());
                let prefix = clean_prefix(&raw_items, untouched);
                seed_unless_warm(&mut cur, cfg.window, &mut lb, prefix)?;
            }
            let mut i = 0usize;
            while i < raw_items.len() {
                let item_key = key_of(&raw_items[i]);
                // Edits up to this element's key: puts go in fresh; an
                // edit *at* the key (unique — the batch is normalized)
                // also drops the old element.
                let mut dropped = false;
                while edit_i < edits.len() && edits[edit_i].key() <= item_key {
                    dropped = edits[edit_i].key() == item_key;
                    match &edits[edit_i] {
                        Edit::Put(e) => lb.queue_item(e),
                        Edit::Del(_) if dropped => lb.mark_removed(),
                        Edit::Del(_) => {} // key not present
                    }
                    edit_i += 1;
                }
                if dropped {
                    i += 1;
                    continue;
                }
                // Untouched run: every element strictly before the next
                // edit's key.
                let run_end = match edits.get(edit_i) {
                    Some(e) => i + raw_items[i..].partition_point(|r| key_of(r) < e.key()),
                    None => raw_items.len(),
                };
                lb.append_old_run(payload, &raw_items[i..run_end]);
                i = run_end;
            }
            cur.advance();
            if cur.at_end() {
                append_puts(&mut lb, &edits[edit_i..]);
                edit_i = edits.len();
                break cur.pos();
            }
            if lb.realigned() {
                // The leaves from here on stand — unless the next edit
                // lands in the very next one, which keeps the region open.
                let here = cur.pos();
                let Some(next) = edits.get(edit_i) else {
                    break here;
                };
                seek_leaf(&mut cur, next.key())?;
                if cur.pos() != here {
                    break here;
                }
            }
            cur.descend_to(0)?;
        };
        regions.push((start..end, lb.leaves()));
    }

    finish_splice(lb, store, cfg, ty, cur, regions)
}

/// Move `cur` forward to the leaf an edit at `key` lands in: the first
/// leaf whose last key is `>= key`, or the last leaf when `key` is beyond
/// them all. The tree must not be empty.
fn seek_leaf(cur: &mut TreeCursor, key: &[u8]) -> Option<()> {
    cur.seek_key(key)?;
    if cur.at_end() {
        cur.prev_leaf()?;
    }
    Some(())
}

/// Replace `remove` bytes at `start` with `insert` in a Blob tree.
/// Out-of-range `start`/`remove` are clamped to the object.
/// [`TreeError::MissingChunk`] indicates a missing/corrupt chunk in the
/// tree being spliced.
pub fn splice_blob(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    root: Digest,
    start: u64,
    remove: u64,
    insert: &[u8],
) -> TreeResult<Digest> {
    splice_blob_inner(store, cfg, root, start, remove, insert)
        .ok_or(TreeError::MissingChunk { root })
}

fn splice_blob_inner(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    root: Digest,
    start: u64,
    remove: u64,
    insert: &[u8],
) -> Option<Digest> {
    let mut cur = TreeCursor::new(store, root, TreeType::Blob)?;
    let total = cur.total();
    let start = start.min(total);
    let mut to_remove = remove.min(total - start);
    let mut lb = LeafBuilder::new(store, cfg, TreeType::Blob);

    let mut old = 0..0;
    if total == 0 {
        // Empty object: there is no leaf to insert into.
        lb.append_blob(insert);
    } else {
        // The leaf containing `start`. A pure append (`start == total`)
        // must still re-chunk the last leaf: it ends without a boundary
        // pattern, so appended bytes merge into it.
        cur.seek_pos(start.min(total - 1), 0)?;
        old.start = cur.pos();
        let mut inserted = false;
        while let Some(count) = cur.entry().map(|e| e.count) {
            if inserted && to_remove >= count {
                // Whole leaf (or subtree) falls inside the removal: drop
                // it unread.
                to_remove -= count;
                lb.mark_removed();
                cur.advance();
                continue;
            }
            if inserted && to_remove == 0 && lb.realigned() {
                break;
            }
            cur.descend_to(0)?;
            let chunk = cur.chunk()?;
            let payload = chunk.payload();
            let mut j = 0usize;
            if !inserted {
                j = (start - cur.pos()) as usize;
                // A pure append scans the leaf's last byte.
                let prefix = j.min(payload.len() - 1);
                seed_unless_warm(&mut cur, cfg.window, &mut lb, prefix)?;
                lb.append_old_blob(payload, 0..j);
                lb.append_blob(insert);
                inserted = true;
            }
            if to_remove > 0 {
                let rm = (to_remove as usize).min(payload.len() - j);
                j += rm;
                to_remove -= rm as u64;
                lb.mark_removed();
            }
            lb.append_old_blob(payload, j..payload.len());
            cur.advance();
        }
        old.end = cur.pos();
    }

    let regions = vec![(old, lb.leaves())];
    finish_splice(lb, store, cfg, TreeType::Blob, cur, regions)
}

/// Replace `remove` elements at position `start` with `insert` in a List
/// tree. Out-of-range values are clamped.
/// [`TreeError::MissingChunk`] indicates a missing/corrupt chunk in the
/// tree being spliced.
pub fn splice_list(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    root: Digest,
    start: u64,
    remove: u64,
    insert: &[Item],
) -> TreeResult<Digest> {
    splice_list_inner(store, cfg, root, start, remove, insert)
        .ok_or(TreeError::MissingChunk { root })
}

fn splice_list_inner(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    root: Digest,
    start: u64,
    remove: u64,
    insert: &[Item],
) -> Option<Digest> {
    let mut cur = TreeCursor::new(store, root, TreeType::List)?;
    let total = cur.total();
    let start = start.min(total);
    let mut to_remove = remove.min(total - start);
    let mut lb = LeafBuilder::new(store, cfg, TreeType::List);

    let mut old = 0..0;
    let mut inserted = false;
    if total > 0 {
        // Appends re-chunk the final (pattern-less) leaf.
        cur.seek_pos(start.min(total - 1), 0)?;
        old.start = cur.pos();
        // Scratch for the current leaf's element spans, reused across
        // leaves.
        let mut raw_items: Vec<RawItem> = Vec::new();
        let mut first_leaf = true;
        while let Some(count) = cur.entry().map(|e| e.count) {
            if inserted && to_remove >= count {
                to_remove -= count;
                lb.mark_removed();
                cur.advance();
                continue;
            }
            if inserted && to_remove == 0 && lb.realigned() {
                break;
            }
            // Walk the old payload as raw byte spans: untouched elements
            // are adopted in whole runs ([`LeafBuilder::append_old_run`])
            // — no per-element decode/re-encode or `Bytes` refcounting;
            // removals skip a span without materializing the items at all.
            cur.descend_to(0)?;
            let chunk = cur.chunk()?;
            let payload = chunk.payload();
            raw_items_of(TreeType::List, payload, &mut raw_items)?;
            if std::mem::take(&mut first_leaf) {
                let prefix = clean_prefix(&raw_items, (start - cur.pos()) as usize);
                seed_unless_warm(&mut cur, cfg.window, &mut lb, prefix)?;
            }
            let n = raw_items.len();
            let mut pos = cur.pos();
            let mut i = 0usize;
            while i < n {
                if !inserted && pos == start {
                    for ins in insert {
                        lb.queue_item(ins);
                    }
                    inserted = true;
                }
                if inserted && to_remove > 0 {
                    // Removal run: drop as much of it as this leaf holds.
                    let rm = (to_remove as usize).min(n - i);
                    i += rm;
                    pos += rm as u64;
                    to_remove -= rm as u64;
                    lb.mark_removed();
                    continue;
                }
                // Untouched run: up to the insertion point, else to leaf
                // end.
                let left = n - i;
                let run_end = if !inserted && start < pos + left as u64 {
                    i + (start - pos) as usize
                } else {
                    n
                };
                if run_end > i {
                    lb.append_old_run(payload, &raw_items[i..run_end]);
                    pos += (run_end - i) as u64;
                    i = run_end;
                }
            }
            cur.advance();
        }
        old.end = cur.pos();
    }
    if !inserted {
        for ins in insert {
            lb.queue_item(ins);
        }
    }

    let regions = vec![(old, lb.leaves())];
    finish_splice(lb, store, cfg, TreeType::List, cur, regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_blob, build_items};
    use crate::scan::scan_tree;
    use forkbase_chunk::MemStore;
    use proptest::prelude::*;

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

    fn map_items(n: usize) -> Vec<Item> {
        (0..n)
            .map(|i| Item::map(format!("k{i:06}"), format!("value-{i}")))
            .collect()
    }

    /// The crucial invariant: a spliced tree is bit-identical to a
    /// from-scratch build of the edited content.
    #[test]
    fn blob_splice_equals_rebuild() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(120_000, 1);
        let root = build_blob(&store, &cfg, &data);

        for (start, remove, insert) in [
            (0u64, 0u64, &b"prefix!"[..]),
            (60_000, 100, &b"middle edit"[..]),
            (60_000, 0, &b""[..]),
            (119_000, 5_000, &b"tail replaced"[..]), // clamped removal
            (120_000, 0, &b"appended"[..]),
            (0, 120_000, &b"everything replaced"[..]),
            (0, 0, &b""[..]), // no-op
        ] {
            let spliced = splice_blob(&store, &cfg, root, start, remove, insert).expect("splice");
            let mut expected = data.clone();
            let s = (start as usize).min(expected.len());
            let r = (remove as usize).min(expected.len() - s);
            expected.splice(s..s + r, insert.iter().copied());
            let rebuilt = build_blob(&store, &cfg, &expected);
            assert_eq!(
                spliced, rebuilt,
                "splice(start={start}, remove={remove}) must equal rebuild"
            );
        }
    }

    #[test]
    fn blob_splice_reuses_most_chunks() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(500_000, 2);
        let root = build_blob(&store, &cfg, &data);
        let before = store.stats().stored_chunks;

        splice_blob(&store, &cfg, root, 250_000, 10, b"small edit").expect("splice");
        let added = store.stats().stored_chunks - before;
        let total_leaves = scan_tree(&store, root, TreeType::Blob)
            .expect("scan")
            .leaf_entries
            .len() as u64;
        assert!(
            added < total_leaves / 10,
            "edit added {added} chunks out of {total_leaves} leaves"
        );
    }

    /// The skip rule's whole point: a small edit scans the insert, one
    /// window on either side of it (the seed before, the straddling
    /// windows after) and the old leaf's last byte — not the leaf.
    #[test]
    fn small_blob_edit_scans_only_what_it_can_reach() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(64 << 10, 5);
        let root = build_blob(&store, &cfg, &data);
        // Edit the middle of the largest leaf.
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        let (li, best) = (0..scan.leaf_entries.len())
            .map(|i| (i, scan.leaf_entries[i].count))
            .max_by_key(|&(_, count)| count)
            .expect("leaves");
        let before: u64 = scan.leaf_entries[..li].iter().map(|e| e.count).sum();
        let at = before + best / 2;
        assert!(best > 4096, "the largest leaf is a big one: {best}");
        let insert = pseudo_random(100, 6);
        let before = forkbase_crypto::metrics::snapshot();
        let spliced = splice_blob(&store, &cfg, root, at, 100, &insert).expect("splice");
        let counted = forkbase_crypto::metrics::snapshot().since(before);
        // A splice keeps the scalar scanner: the lane kernel sees nothing.
        assert_eq!(counted.lane_scan_bytes, 0);
        let scanned = counted.scalar_scan_bytes as usize;
        assert!(
            scanned <= insert.len() + 2 * cfg.window + 1,
            "scanned {scanned} bytes of a {best}-byte leaf"
        );
        let mut expected = data.clone();
        expected.splice(at as usize..at as usize + 100, insert.iter().copied());
        assert_eq!(spliced, build_blob(&store, &cfg, &expected));
    }

    #[test]
    fn map_update_equals_rebuild() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items = map_items(5000);
        let root = build_items(&store, &cfg, TreeType::Map, items.clone());

        // Mixed batch: replace, delete, insert (front, middle, back).
        let edits = vec![
            Edit::Put(Item::map("k000000", "REPLACED")),
            Edit::Del(Bytes::from("k002500")),
            Edit::Put(Item::map("k0025001", "INSERTED-MID")),
            Edit::Put(Item::map("zzz-appended", "TAIL")),
            Edit::Del(Bytes::from("not-present")),
        ];
        let new_root = update_sorted(&store, &cfg, TreeType::Map, root, edits).expect("update");

        let mut model: std::collections::BTreeMap<Bytes, Bytes> =
            items.into_iter().map(|i| (i.key, i.value)).collect();
        model.insert(Bytes::from("k000000"), Bytes::from("REPLACED"));
        model.remove(&Bytes::from("k002500")[..]);
        model.insert(Bytes::from("k0025001"), Bytes::from("INSERTED-MID"));
        model.insert(Bytes::from("zzz-appended"), Bytes::from("TAIL"));
        let rebuilt = build_items(
            &store,
            &cfg,
            TreeType::Map,
            model.into_iter().map(|(k, v)| Item { key: k, value: v }),
        );
        assert_eq!(new_root, rebuilt);
    }

    #[test]
    fn map_update_on_empty_tree() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let empty = build_items(&store, &cfg, TreeType::Map, std::iter::empty());
        let edits = vec![
            Edit::Put(Item::map("b", "2")),
            Edit::Put(Item::map("a", "1")),
            Edit::Del(Bytes::from("c")),
        ];
        let root = update_sorted(&store, &cfg, TreeType::Map, empty, edits).expect("update");
        let rebuilt = build_items(
            &store,
            &cfg,
            TreeType::Map,
            vec![Item::map("a", "1"), Item::map("b", "2")],
        );
        assert_eq!(root, rebuilt);
    }

    #[test]
    fn map_delete_everything_yields_empty() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let items = map_items(50);
        let root = build_items(&store, &cfg, TreeType::Map, items.clone());
        let edits: Vec<Edit> = items.iter().map(|i| Edit::Del(i.key.clone())).collect();
        let new_root = update_sorted(&store, &cfg, TreeType::Map, root, edits).expect("update");
        let empty = build_items(&store, &cfg, TreeType::Map, std::iter::empty());
        assert_eq!(new_root, empty);
    }

    #[test]
    fn duplicate_edits_last_wins() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_items(&store, &cfg, TreeType::Map, map_items(10));
        let edits = vec![
            Edit::Put(Item::map("k000005", "first")),
            Edit::Put(Item::map("k000005", "second")),
        ];
        let new_root = update_sorted(&store, &cfg, TreeType::Map, root, edits).expect("update");
        let item =
            crate::scan::get_by_key(&store, new_root, TreeType::Map, b"k000005").expect("found");
        assert_eq!(item.value.as_ref(), b"second");
    }

    #[test]
    fn list_splice_equals_rebuild() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..3000)
            .map(|i| Item::list(format!("element-{i}")))
            .collect();
        let root = build_items(&store, &cfg, TreeType::List, items.clone());

        for (start, remove, insert_n) in [
            (0u64, 0u64, 3usize),
            (1500, 10, 2),
            (2999, 1, 0),
            (3000, 0, 5),
            (0, 3000, 1),
        ] {
            let insert: Vec<Item> = (0..insert_n)
                .map(|i| Item::list(format!("NEW-{i}")))
                .collect();
            let new_root = splice_list(&store, &cfg, root, start, remove, &insert).expect("splice");
            let mut expected = items.clone();
            let s = (start as usize).min(expected.len());
            let r = (remove as usize).min(expected.len() - s);
            expected.splice(s..s + r, insert);
            let rebuilt = build_items(&store, &cfg, TreeType::List, expected);
            assert_eq!(
                new_root, rebuilt,
                "list splice(start={start}, remove={remove})"
            );
        }
    }

    #[test]
    fn spread_edits_realign_between_clusters() {
        // Two edits far apart: the splice must skip the unaffected middle.
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items = map_items(20_000);
        let root = build_items(&store, &cfg, TreeType::Map, items.clone());
        let before = store.stats().stored_chunks;

        let edits = vec![
            Edit::Put(Item::map("k000100", "edit-A")),
            Edit::Put(Item::map("k019900", "edit-B")),
        ];
        let new_root = update_sorted(&store, &cfg, TreeType::Map, root, edits).expect("update");
        let added = store.stats().stored_chunks - before;

        // Verify correctness against rebuild.
        let mut model: std::collections::BTreeMap<Bytes, Bytes> =
            items.into_iter().map(|i| (i.key, i.value)).collect();
        model.insert(Bytes::from("k000100"), Bytes::from("edit-A"));
        model.insert(Bytes::from("k019900"), Bytes::from("edit-B"));
        let rebuilt = build_items(
            &store,
            &cfg,
            TreeType::Map,
            model.into_iter().map(|(k, v)| Item { key: k, value: v }),
        );
        assert_eq!(new_root, rebuilt);

        let leaves = scan_tree(&store, root, TreeType::Map)
            .expect("scan")
            .leaf_entries
            .len() as u64;
        assert!(
            added < leaves / 4,
            "two point edits added {added} chunks of {leaves} leaves"
        );
    }

    #[test]
    fn missing_chunk_surfaces_as_error() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_items(&store, &cfg, TreeType::Map, map_items(100));
        // Same root against an empty store: every chunk is missing.
        let empty_store = MemStore::new();
        let result = update_sorted(
            &empty_store,
            &cfg,
            TreeType::Map,
            root,
            vec![Edit::Del(Bytes::from("k000001"))],
        );
        assert_eq!(result, Err(TreeError::MissingChunk { root }));
    }

    /// `normalize_edits` as it was before ordered input skipped the sort:
    /// a stable sort, then last-wins into a fresh vector.
    fn normalize_by_sorting(mut edits: Vec<Edit>) -> Vec<Edit> {
        edits.sort_by(|a, b| a.key().cmp(b.key()));
        let mut out: Vec<Edit> = Vec::new();
        for e in edits {
            match out.last_mut() {
                Some(last) if last.key() == e.key() => *last = e,
                _ => out.push(e),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random, sorted, reversed and duplicate-heavy batches normalize
        /// exactly as the sort-every-time version did.
        #[test]
        fn normalize_matches_sorting_every_batch(
            draws in prop::collection::vec((0u8..40, any::<bool>()), 0..64),
            order in 0u8..4,
        ) {
            let mut keys: Vec<u8> = draws.iter().map(|&(k, _)| k).collect();
            match order {
                1 => keys.sort(),
                2 => keys.sort_by(|a, b| b.cmp(a)),
                3 => keys.iter_mut().for_each(|k| *k %= 3),
                _ => {}
            }
            // Each edit carries its batch position, so "last wins" shows.
            let edits: Vec<Edit> = keys
                .iter()
                .zip(&draws)
                .enumerate()
                .map(|(i, (&k, &(_, put)))| {
                    let key = vec![b'k', k];
                    if put {
                        Edit::Put(Item::map(key, vec![i as u8]))
                    } else {
                        Edit::Del(Bytes::from(key))
                    }
                })
                .collect();
            prop_assert_eq!(normalize_edits(edits.clone()), normalize_by_sorting(edits));
        }
    }

    #[test]
    fn empty_edit_batch_is_identity() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_items(&store, &cfg, TreeType::Map, map_items(100));
        assert_eq!(
            update_sorted(&store, &cfg, TreeType::Map, root, vec![]),
            Ok(root)
        );
    }
}
