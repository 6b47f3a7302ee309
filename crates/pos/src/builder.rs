//! Bottom-up POS-Tree construction — Algorithm 1 of the paper.
//!
//! [`LeafBuilder`] streams elements into leaf chunks, cutting where the
//! rolling-hash pattern fires (or at the forced `α·2^q` cap). The emitted
//! leaf entries then pass through the index-level regroup
//! ([`build_from_entries`] from scratch, `build_index_levels` over an old
//! tree), which groups them with the cid-based pattern P′, level by
//! level, until a single root remains.
//!
//! # Copy-free leaf assembly
//!
//! A pending leaf is a **rope**: a list of `Bytes` spans. Content adopted
//! from an existing buffer — fresh elements, encoded into a queue of
//! their own and fed as one run (a build from scratch, a splice's puts
//! and inserts), an old leaf's untouched region during a splice
//! ([`append_old_run`](LeafBuilder::append_old_run),
//! [`append_old_blob`](LeafBuilder::append_old_blob)) — enters the
//! rope as a zero-copy slice of that buffer. Only elements fed one at a
//! time ([`append_item`](LeafBuilder::append_item)) and Blob inserts pass
//! through a small stitch buffer. The ropes are handed to
//! [`Chunk::new_batch_ropes`], which hashes straight over the spans, so a
//! leaf whose content is one borrowed run is never copied at all.
//!
//! A splice (§4.3.3 "only affected nodes are reconstructed") builds only
//! the leaves of the regions it re-chunks: before each region it calls
//! [`LeafBuilder::seed`] to warm the rolling window with the bytes that
//! precede the rebuild point, so boundary decisions match a from-scratch
//! build exactly. Leaves outside the regions are never handed to the
//! builder — the regions reach the index levels as patches (`Patch`)
//! over the old tree.
//!
//! # Path-local index levels
//!
//! Level `k` of the new tree is level `k` of the old tree with some
//! ranges of old entries replaced (level 0: the re-chunked leaves). Which
//! entries end a level-`k+1` node is decided by P′ of the entry's own
//! cid; the only state a group carries is its length, for the fanout cap.
//! So the regroup restarts, with an empty group, at the start of the old
//! node holding the first replaced entry, runs through the replacement
//! and on over the old entries behind it, and stops at the first cut
//! that falls on an old node's end: from there on a from-scratch build
//! would see the old build's state and the old build's input. The nodes
//! it produced replace the old nodes it walked — the next level's
//! patches. A build from scratch is the same regroup with no old tree.
//!
//! # Edit-local re-chunking
//!
//! Old-leaf bytes re-fed through [`append_old_run`](LeafBuilder::append_old_run)
//! / [`append_old_blob`](LeafBuilder::append_old_blob) are mostly *not*
//! re-scanned. Whether the pattern fires at byte `p` depends only on the
//! `window` bytes ending at `p`, so an old byte whose window holds nothing
//! but unchanged old bytes hits in the new stream exactly where it hit in
//! the old one — and the old tree recorded where that was: a leaf ends at
//! the first element containing a hit, so no element of an old leaf but
//! its **last** contains one. That leaves two places a hit can hide:
//! (a) the `window` bytes after the last fresh or removed byte, whose
//! windows straddle the edit, and (b) the old leaf's last element.
//! Everything else is adopted through [`LeafChunker::skip_clean`]. The
//! forced `α·2^q` cut is the one boundary that is not a function of
//! content — it counts bytes from the previous cut, which an edit moves —
//! so when the cap would fall inside a clean stretch `skip_clean` refuses
//! and that stretch is scanned for the exact forced-cut position instead.
//! The builder keeps the distance to the last edit itself
//! ([`realigned`](LeafBuilder::realigned) reads it), so callers only
//! report removals ([`mark_removed`](LeafBuilder::mark_removed)).
//!
//! # Hashing overlaps the walk
//!
//! A leaf's cid depends on nothing but its own bytes, and its rope is
//! owned `Bytes`, so a cut leaf can be hashed while the caller is still
//! walking towards the next cut. Whenever the leaves cut so far hold
//! [`ASYNC_BATCH_BYTES`] the builder hands their ropes to the hash pool
//! as one job ([`Chunk::spawn_batch_ropes`] — the worker also copies the
//! multi-span ropes into payloads) and goes on;
//! [`finish`](LeafBuilder::finish) hashes what is left
//! itself and joins the jobs in order. Batches are that coarse because a
//! parked worker takes as long to start as 70 KB take to hash. A build
//! that never collects that much, and every build on a host with one
//! hardware thread, hashes one batch at the end. Which thread hashes a
//! leaf changes nothing about the leaf, so splices, merges and builds
//! from scratch — they all cut through this builder — keep their roots.

use crate::entry::{encode_index_payload, IndexEntry};
use crate::leaf::{encode_item, Item, RawItem};
use crate::metrics::{self, PhaseClock};
use crate::scan::TreeCursor;
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::codec::varint_len;
use forkbase_chunk::{Chunk, ChunkStore};
use forkbase_crypto::chunker::LANE_SCAN_MIN;
use forkbase_crypto::parallel::{self, Task, ASYNC_BATCH_BYTES, PARALLEL_THRESHOLD_BYTES};
use forkbase_crypto::{ChunkerConfig, Digest, LeafChunker};
use std::ops::Range;

/// A leaf the builder has cut: leaf cids are independent of each other,
/// so they are computed in batches (on the hash pool, or in
/// [`LeafBuilder::finish`], parallel on multi-core hosts) instead of once
/// per cut. `rope` is empty once a batch has taken it.
struct PendingLeaf {
    rope: Vec<Bytes>,
    count: u64,
    key: Bytes,
}

/// Where the pending leaf's last key currently lives. Keys inside the
/// open stitch buffer are tracked as plain offsets (no `Bytes` refcount
/// per item); they are resolved to a zero-copy slice when the stitch
/// segment freezes.
enum LastKey {
    None,
    /// Byte range within the open stitch buffer.
    Stitch(usize, usize),
    /// Already-frozen bytes (a slice of a rope span).
    Frozen(Bytes),
}

/// Streaming builder for the leaf level of a POS-Tree.
pub struct LeafBuilder<'s> {
    store: &'s dyn ChunkStore,
    ty: TreeType,
    chunker: LeafChunker,
    window: usize,
    /// Old-leaf bytes re-fed since the last fresh or removed byte,
    /// saturating; `usize::MAX` while there has been no edit at all.
    since_edit: usize,
    /// Frozen rope spans of the pending (uncut) leaf, in content order.
    spans: Vec<Bytes>,
    /// Open segment receiving freshly encoded elements; frozen into
    /// `spans` when a borrowed span arrives or the leaf cuts.
    stitch: Vec<u8>,
    /// Fresh elements [queued](Self::queue_item) and not fed yet, behind
    /// the bytes the rolling window held when the first was queued.
    queue: Vec<u8>,
    /// The queued elements, as spans of `queue`.
    queued: Vec<RawItem>,
    /// Total encoded bytes pending (spans + stitch).
    pending_len: usize,
    count: u64,
    last_key: LastKey,
    entries: Vec<PendingLeaf>,
    /// Jobs hashing the ropes of `entries[..handed]`, in entry order.
    hashing: Vec<Task<Vec<Chunk>>>,
    handed: usize,
    /// Bytes in the ropes of `entries[handed..]`.
    unhashed: usize,
    /// Set by `finish`: what is cut from now on stays on this thread.
    finishing: bool,
    /// The build's phases ([`metrics`]), scan from here on.
    clock: PhaseClock,
}

impl<'s> LeafBuilder<'s> {
    /// Start building leaves of type `ty` into `store`.
    pub fn new(store: &'s dyn ChunkStore, cfg: &ChunkerConfig, ty: TreeType) -> Self {
        LeafBuilder {
            store,
            ty,
            chunker: LeafChunker::new(cfg),
            window: cfg.window,
            since_edit: usize::MAX,
            spans: Vec::new(),
            stitch: Vec::new(),
            queue: Vec::new(),
            queued: Vec::new(),
            pending_len: 0,
            count: 0,
            last_key: LastKey::None,
            entries: Vec::new(),
            hashing: Vec::new(),
            handed: 0,
            unhashed: 0,
            finishing: false,
            clock: PhaseClock::start(),
        }
    }

    /// Encoded bytes in the pending (uncut) leaf.
    pub fn pending_bytes(&mut self) -> usize {
        self.flush_queue();
        self.pending_len
    }

    /// True when the chunk stream has provably rejoined the old tree's:
    /// the last cut fell where the re-fed old leaf ended, at least one
    /// rolling window past the last fresh or removed byte. From here on
    /// old and new boundary decisions agree, so a splice may leave the
    /// leaves that follow where they are. Only meaningful right after an
    /// old leaf has been re-fed to its end.
    pub fn realigned(&self) -> bool {
        // Nothing is queued a window past the last fresh byte, so the
        // pending length is exact.
        self.since_edit >= self.window && self.pending_len == 0
    }

    /// True when `prefix` untouched old bytes, re-fed at the start of a
    /// region (the start of an old leaf, between chunks) before anything
    /// is scanned, determine the rolling window by themselves: there are
    /// at least `window` of them and [`LeafChunker::skip_clean`] takes
    /// them whole. Its re-warm then overwrites whatever a
    /// [`seed`](Self::seed) would have put there, so a splice need not
    /// fetch the bytes in front of the region.
    pub(crate) fn warms_itself(&self, prefix: usize) -> bool {
        prefix >= self.window && self.chunker.skips(prefix)
    }

    /// Record that old bytes were dropped at the current position: the
    /// old bytes that follow no longer see the window they used to.
    pub fn mark_removed(&mut self) {
        self.since_edit = 0;
    }

    /// Freeze the open stitch segment into a rope span, resolving a
    /// stitch-relative key to a zero-copy slice of the frozen bytes.
    fn freeze_stitch(&mut self) {
        if self.stitch.is_empty() {
            return;
        }
        let frozen = Bytes::from(std::mem::take(&mut self.stitch));
        if let LastKey::Stitch(s, e) = self.last_key {
            self.last_key = LastKey::Frozen(frozen.slice(s..e));
        }
        self.spans.push(frozen);
    }

    /// Append a borrowed span to the pending leaf's rope.
    fn push_span(&mut self, span: Bytes) {
        self.freeze_stitch();
        self.pending_len += span.len();
        self.spans.push(span);
    }

    /// Warm the rolling window with the `bytes` that immediately precede
    /// the position the builder will continue from. Must be called
    /// between chunks (no leaf pending); pass the last `window` bytes (or fewer
    /// if the object is shorter) of the preceding encoded content.
    pub fn seed(&mut self, bytes: &[u8]) {
        self.flush_queue();
        debug_assert!(self.pending_len == 0, "seed only between chunks");
        self.chunker.reset();
        self.chunker.feed(bytes);
        self.chunker.cut();
    }

    /// Leaves cut so far.
    pub(crate) fn leaves(&mut self) -> usize {
        self.flush_queue();
        self.entries.len()
    }

    /// Batches of cut leaves handed to the hash pool so far (test
    /// accessor; always 0 on a host with one hardware thread).
    pub fn batches_handed(&mut self) -> usize {
        self.flush_queue();
        self.hashing.len()
    }

    /// Queue one fresh element (List/Set/Map trees), in the order
    /// [`append_item`](Self::append_item) requires. Queued elements are
    /// fed as one run when anything else is appended or read off the
    /// builder, so a splice's consecutive puts and inserts are scanned
    /// together — across old leaf boundaries too, since dropped old
    /// elements feed nothing.
    pub(crate) fn queue_item(&mut self, item: &Item) {
        debug_assert!(self.ty != TreeType::Blob, "use append_blob for Blob trees");
        if self.queued.is_empty() {
            self.queue.clear();
            self.chunker.context(&mut self.queue);
        }
        let raw = encode_raw(self.ty, item, &mut self.queue);
        self.queued.push(raw);
        self.since_edit = 0;
    }

    /// Feed the queued elements, if any, as one run adopted into the
    /// ropes as zero-copy slices of the queue.
    ///
    /// Bit-identical to calling [`append_item`](Self::append_item) per
    /// element, but the run is scanned as a whole instead of one `feed`
    /// per element: a pattern hit inside element `j` is mapped to `j`'s
    /// end (elements never span chunks). A run of at least
    /// [`LANE_SCAN_MIN`] bytes is scanned once, in the sixteen lanes
    /// where they run, behind the bytes the queue starts with — what the
    /// rolling window held — and cut in one walk
    /// ([`LeafChunker::feed_elements`]). A shorter one goes through the
    /// slice-level scanner ([`LeafChunker::feed_bytewise`]), resuming
    /// after each cut. For the ~22-byte elements of a metadata map this
    /// is ~5× less chunker overhead than a feed per element — the
    /// difference between paying per *byte* and paying per *element*.
    /// Every byte is scanned: nothing is known about fresh content. Bytes
    /// re-fed from an old leaf go through
    /// [`append_old_run`](Self::append_old_run), which pays per byte an
    /// *edit can reach* instead.
    fn flush_queue(&mut self) {
        let (Some(first), Some(last)) = (self.queued.first(), self.queued.last()) else {
            return;
        };
        let (from, len) = (first.span.0, last.span.1 - first.span.0);
        let src = Bytes::from(std::mem::take(&mut self.queue));
        let items = std::mem::take(&mut self.queued);
        if len < LANE_SCAN_MIN {
            self.feed_run(&src, &items, &(0..0));
        } else {
            let cuts = self.chunker.feed_elements(&src, from, &items, |r| r.span.1);
            let mut i = 0usize;
            for j in cuts {
                self.adopt(&src, &items[i..=j]);
                self.close_leaf();
                i = j + 1;
            }
            self.adopt(&src, &items[i..]);
        }
        self.queued = items;
        self.queued.clear();
    }

    /// Append one element (List/Set/Map trees). For sorted types the caller
    /// must append in non-decreasing key order.
    pub fn append_item(&mut self, item: &Item) {
        debug_assert!(self.ty != TreeType::Blob, "use append_blob for Blob trees");
        self.flush_queue();
        let start = self.stitch.len();
        encode_item(self.ty, item, &mut self.stitch);
        self.chunker.feed(&self.stitch[start..]);
        self.pending_len += self.stitch.len() - start;
        self.count += 1;
        self.since_edit = 0;
        if self.ty.is_sorted() {
            debug_assert!(
                self.pending_last_key() <= &item.key[..],
                "sorted builder fed out of order"
            );
            // The key's bytes sit right behind its length varint in the
            // encoding just written.
            let koff = start + varint_len(item.key.len() as u64);
            self.last_key = LastKey::Stitch(koff, koff + item.key.len());
        }
        if self.chunker.boundary() {
            self.cut();
        }
    }

    /// Re-feed a run of untouched elements of an **old leaf** during a
    /// splice. `leaf` must be that leaf's whole payload and `items` a
    /// contiguous run of its elements; the bytes are adopted as zero-copy
    /// slices of `leaf`.
    ///
    /// Bit-identical to fresh elements fed the same bytes, but only two
    /// stretches of the run are scanned (the module docs
    /// give the argument): (a) what lies within `window` bytes of the
    /// last fresh or removed byte and (b) the leaf's last element, if the
    /// run reaches it. The rest goes through
    /// [`LeafChunker::skip_clean`] — unless the forced `α·2^q` cut would
    /// fall inside it, in which case `skip_clean` refuses and the stretch
    /// is scanned after all, for the exact position of the forced cut.
    pub fn append_old_run(&mut self, leaf: &Bytes, items: &[RawItem]) {
        let (Some(first), Some(last)) = (items.first(), items.last()) else {
            return;
        };
        self.flush_queue();
        // (b): only a run that reaches the leaf's end carries the element
        // the leaf was cut on.
        let clean_to = if last.span.1 == leaf.len() {
            last.span.0
        } else {
            last.span.1
        };
        let clean = first.span.0 + self.window.saturating_sub(self.since_edit)..clean_to;
        self.feed_run(leaf, items, &clean);
        self.since_edit = self.since_edit.saturating_add(last.span.1 - first.span.0);
    }

    /// Feed `items` (contiguous spans of `src`) to the chunker and adopt
    /// them into the rope; `clean` is the byte range of `src` known to
    /// hold no pattern hit.
    fn feed_run(&mut self, src: &Bytes, items: &[RawItem], clean: &Range<usize>) {
        debug_assert!(self.ty != TreeType::Blob, "use append_blob for Blob trees");
        let Some(last) = items.last() else { return };
        let run_end = last.span.1;
        let mut i = 0usize;
        while i < items.len() {
            let start = items[i].span.0;
            let hit = self.scan_to_boundary(src, start, run_end, clean);
            let j = match hit {
                // Boundary (pattern or size cap) at byte `p`: extend it
                // to the end of the element containing it and cut there,
                // exactly like the per-element path.
                Some(p) => {
                    let j = i + items[i..].partition_point(|r| r.span.1 < p);
                    self.chunker.feed(&src[p..items[j].span.1]);
                    j
                }
                // No boundary in the rest of the run: adopt it whole.
                None => items.len() - 1,
            };
            self.adopt(src, &items[i..=j]);
            if hit.is_some() {
                self.cut();
            }
            i = j + 1;
        }
    }

    /// Adopt `run`, contiguous elements of `src` the chunker has been
    /// fed, into the pending leaf as one zero-copy span.
    fn adopt(&mut self, src: &Bytes, run: &[RawItem]) {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return;
        };
        self.push_span(src.slice(first.span.0..last.span.1));
        self.count += run.len() as u64;
        if self.ty.is_sorted() {
            self.last_key = LastKey::Frozen(src.slice(last.key.0..last.key.1));
        }
    }

    /// Run `buf[pos..end]` through the chunker up to its first boundary
    /// and return the boundary's offset in `buf`, or `None` with
    /// everything consumed. `clean` is the stretch of `buf` known to hold
    /// no pattern hit: it is skipped unscanned unless the size cap falls
    /// inside it, in which case the scan goes on to find the forced cut.
    fn scan_to_boundary(
        &mut self,
        buf: &[u8],
        mut pos: usize,
        end: usize,
        clean: &Range<usize>,
    ) -> Option<usize> {
        while pos < end {
            let stop = if pos < clean.start {
                clean.start.min(end)
            } else if pos < clean.end {
                let stop = clean.end.min(end);
                if self.chunker.skip_clean(&buf[pos..stop]) {
                    pos = stop;
                    continue;
                }
                end
            } else {
                end
            };
            match self.chunker.feed_bytewise(&buf[pos..stop]) {
                Some(n) => return Some(pos + n),
                None => pos = stop,
            }
        }
        None
    }

    /// The pending leaf's current last key (empty when nothing pending).
    fn pending_last_key(&self) -> &[u8] {
        match &self.last_key {
            LastKey::None => &[],
            LastKey::Stitch(s, e) => &self.stitch[*s..*e],
            LastKey::Frozen(b) => b,
        }
    }

    /// Append fresh bytes to a Blob tree; every byte is an element, so a
    /// boundary can fall on any byte. The chunker scans `data` slice-at-a-
    /// time ([`LeafChunker::feed_bytewise`]) and reports the exact cut
    /// position, so the whole input is processed by block instead of one
    /// `feed` call per byte. The bytes are copied through the stitch
    /// buffer.
    pub fn append_blob(&mut self, data: &[u8]) {
        debug_assert!(self.ty == TreeType::Blob);
        self.flush_queue();
        let mut off = 0usize;
        while off < data.len() {
            let hit = self.chunker.feed_bytewise(&data[off..]);
            let n = hit.unwrap_or(data.len() - off);
            self.stitch.extend_from_slice(&data[off..off + n]);
            self.pending_len += n;
            self.count += n as u64;
            self.since_edit = 0;
            off += n;
            if hit.is_some() {
                self.cut();
            }
        }
    }

    /// Re-feed `leaf[range]`, an untouched stretch of an **old Blob
    /// leaf**, during a splice; `leaf` must be that leaf's whole payload.
    /// The bytes enter the ropes as zero-copy slices of `leaf`, and — as
    /// in [`append_old_run`](Self::append_old_run), with every byte an
    /// element — only the `window` bytes after the last fresh or removed
    /// byte and the leaf's last byte are scanned, unless the size cap
    /// falls in between.
    pub fn append_old_blob(&mut self, leaf: &Bytes, range: Range<usize>) {
        debug_assert!(self.ty == TreeType::Blob);
        self.flush_queue();
        let clean_to = if range.end == leaf.len() {
            range.end.saturating_sub(1)
        } else {
            range.end
        };
        let clean = range.start + self.window.saturating_sub(self.since_edit)..clean_to;
        let mut off = range.start;
        while off < range.end {
            let hit = self.scan_to_boundary(leaf, off, range.end, &clean);
            let end = hit.unwrap_or(range.end);
            self.push_span(leaf.slice(off..end));
            self.count += (end - off) as u64;
            off = end;
            if hit.is_some() {
                self.cut();
            }
        }
        self.since_edit = self.since_edit.saturating_add(range.len());
    }

    /// Flush the pending leaf (if any), hash every fresh leaf, store them
    /// as one [`ChunkStore::put_many`] batch and return the leaf entry
    /// list.
    pub fn finish(self) -> Vec<IndexEntry> {
        let store = self.store;
        let (entries, fresh, clock) = self.finish_unstored();
        metrics::stored(&fresh);
        store.put_many(fresh);
        metrics::item_phases(clock.stop());
        entries
    }

    /// Flush the pending leaf (if any), hash every leaf not handed to the
    /// pool yet, and return the leaf entry list together with the leaf
    /// chunks, **not yet stored**: `build_index_levels` hands them to the
    /// store with the index chunks; the caller then
    /// [stops](PhaseClock::stop) the returned clock. The remaining cids
    /// are computed as one batch straight over the payload
    /// ropes ([`Chunk::new_batch_ropes`], parallel on multi-core hosts)
    /// while the pool finishes the batches it was handed (module docs);
    /// single-span leaves are never re-materialized.
    pub(crate) fn finish_unstored(mut self) -> (Vec<IndexEntry>, Vec<Chunk>, PhaseClock) {
        // The last cut's leaves stay here: this thread has nothing else
        // left to do.
        self.flush_queue();
        self.clock.lap(0);
        self.finishing = true;
        if self.pending_len > 0 {
            self.cut();
        }
        let rest = Chunk::new_batch_ropes(self.ty.leaf_chunk(), self.take_ropes());
        // Joined from the back: a batch the pool has not started is
        // hashed here ([`Task::join`]) while it gets on with the ones
        // before.
        let mut batches: Vec<Vec<Chunk>> = self.hashing.into_iter().rev().map(Task::join).collect();
        batches.reverse();
        let chunks: Vec<Chunk> = batches.into_iter().flatten().chain(rest).collect();
        let entries = self
            .entries
            .into_iter()
            .zip(&chunks)
            .map(|(p, chunk)| IndexEntry {
                cid: chunk.cid(),
                count: p.count,
                key: p.key,
            })
            .collect();
        self.clock.lap(1);
        (entries, chunks, self.clock)
    }

    /// The ropes not handed to the pool yet, out of their entries.
    fn take_ropes(&mut self) -> Vec<Vec<Bytes>> {
        let ropes = self.entries[self.handed..]
            .iter_mut()
            .map(|p| std::mem::take(&mut p.rope))
            .collect();
        self.handed = self.entries.len();
        self.unhashed = 0;
        ropes
    }

    /// End the pending leaf here and start a new chunk.
    fn cut(&mut self) {
        self.close_leaf();
        self.chunker.cut();
    }

    /// End the pending leaf here, leaving the chunker as it is.
    fn close_leaf(&mut self) {
        self.freeze_stitch();
        let rope = std::mem::take(&mut self.spans);
        let key = match std::mem::replace(&mut self.last_key, LastKey::None) {
            LastKey::Frozen(b) => b,
            // freeze_stitch resolved any stitch-relative key above.
            LastKey::Stitch(..) => unreachable!("stitch key resolved at freeze"),
            LastKey::None => Bytes::new(),
        };
        self.entries.push(PendingLeaf {
            rope,
            count: self.count,
            key,
        });
        self.unhashed += self.pending_len;
        self.count = 0;
        self.pending_len = 0;
        // Size first: a small build must not be what starts the pool.
        if self.unhashed >= ASYNC_BATCH_BYTES && !self.finishing && parallel::lanes() > 1 {
            let ropes = self.take_ropes();
            self.hashing
                .push(Chunk::spawn_batch_ropes(self.ty.leaf_chunk(), ropes));
        }
    }
}

/// Build the index levels over `entries` (Algorithm 1's outer loop) and
/// return the root cid. An empty entry list produces the canonical empty
/// leaf chunk for the type.
pub fn build_from_entries(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    entries: Vec<IndexEntry>,
) -> Digest {
    build_scratch(store, cfg, ty, entries, Vec::new())
}

/// [`build_from_entries`] with the leaf chunks `entries` refers to that
/// are not in the store yet ([`LeafBuilder::finish_unstored`]).
fn build_scratch(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    entries: Vec<IndexEntry>,
    fresh: Vec<Chunk>,
) -> Digest {
    let all = Patch {
        old: 0..0,
        new: entries,
    };
    build_index_levels(store, cfg, ty, None, vec![all], fresh)
        .expect("a build from scratch reads no chunk")
}

/// A run of consecutive old entries of one tree level and the new entries
/// that take its place. `old` is in element offsets and falls on entry
/// boundaries of that level.
pub(crate) struct Patch {
    pub old: Range<u64>,
    pub new: Vec<IndexEntry>,
}

/// Build the index levels of the tree whose leaves are those of the old
/// tree under `old` with `patches` (sorted, disjoint, each covering at
/// least one old leaf unless the old tree is empty) applied, and return
/// its root — bit-identical to a from-scratch build over the same leaves
/// (the module docs give the argument), at the cost of the nodes on the
/// paths to the patches. `None` when a chunk of the old tree is missing
/// or corrupt.
///
/// `fresh` holds the leaf chunks of the patches, not in the store yet.
/// When they total at least [`PARALLEL_THRESHOLD_BYTES`] they go to the
/// store in a [`ChunkStore::put_many`] of their own before any index
/// level is built, so a `LogStore` can write them while the levels are
/// grouped and hashed; the index chunks follow in a second one. A smaller
/// build hands its leaves and index chunks over as one batch: one
/// commit-lock acquisition on a `LogStore`, one request per owning node
/// on a cluster.
pub(crate) fn build_index_levels(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    mut old: Option<TreeCursor<'_>>,
    mut patches: Vec<Patch>,
    mut fresh: Vec<Chunk>,
) -> Option<Digest> {
    debug_assert!(!patches.is_empty());
    if fresh.iter().map(Chunk::len).sum::<usize>() >= PARALLEL_THRESHOLD_BYTES {
        metrics::stored(&fresh);
        store.put_many(std::mem::take(&mut fresh));
    }
    // `patches` describe level `level`; build upwards until a level has
    // one entry — the root, exactly where a from-scratch build stops.
    let mut level = 0u64;
    loop {
        let added: usize = patches.iter().map(|p| p.new.len()).sum();
        let replaced: u64 = patches.iter().map(|p| p.old.end - p.old.start).sum();
        // Old entries of this level outside the patches; the old tree has
        // no level above its root.
        let kept = match &old {
            Some(cur) if cur.height() >= level => cur.total() - replaced,
            _ => 0,
        };
        let root = match (added, kept) {
            (0, 0) => {
                let chunk = Chunk::new(ty.leaf_chunk(), Bytes::new());
                let cid = chunk.cid();
                metrics::stored(std::slice::from_ref(&chunk));
                store.put(chunk);
                return Some(cid);
            }
            (1, 0) => patches.iter().find_map(|p| p.new.first()).map(|e| e.cid),
            // Nothing but removals: one untouched old entry may be all
            // that is left of this level.
            (0, _) => {
                let cur = old.as_mut()?;
                let gap = patches
                    .iter()
                    .fold(0, |gap, p| if p.old.start == gap { p.old.end } else { gap });
                cur.seek_pos(gap, level)?;
                cur.entry().filter(|e| e.count == kept).map(|e| *e.cid)
            }
            _ => None,
        };
        if let Some(root) = root {
            metrics::stored(&fresh);
            store.put_many(fresh);
            return Some(root);
        }
        level += 1;
        let cur = old.as_mut().filter(|cur| cur.height() >= level);
        patches = regroup(cfg, ty, level, cur, patches, &mut fresh)?;
    }
}

/// The open group of a level regroup and the nodes it has closed.
struct Grouper<'a> {
    /// The P′ mask, taken once per regroup.
    index_mask: u64,
    ty: TreeType,
    level: u64,
    max_fanout: usize,
    fresh: &'a mut Vec<Chunk>,
    group: Vec<IndexEntry>,
    closed: Vec<IndexEntry>,
}

impl Grouper<'_> {
    /// Add the next child; close the group at the P′ pattern or the cap.
    fn push(&mut self, e: IndexEntry) {
        let cut = e.cid.prefix_u64() & self.index_mask == 0;
        self.group.push(e);
        if cut || self.group.len() >= self.max_fanout {
            self.close();
        }
    }

    fn close(&mut self) {
        let node = emit_index(self.fresh, self.ty, self.level, &mut self.group);
        self.closed.push(node);
    }

    /// Close the open group, if any, and hand over the nodes closed
    /// since the last call.
    fn take(&mut self) -> Vec<IndexEntry> {
        if !self.group.is_empty() {
            self.close();
        }
        std::mem::take(&mut self.closed)
    }
}

/// One level of [`build_index_levels`]: group the level below (`old`'s
/// entries at `level - 1` with `patches` applied) into level-`level`
/// nodes, touching only the old nodes a patch can reach, and return the
/// patches this makes at `level`. `old` is `None` above the old tree's
/// root (and in a build from scratch): then there is nothing outside the
/// patches.
fn regroup(
    cfg: &ChunkerConfig,
    ty: TreeType,
    level: u64,
    mut old: Option<&mut TreeCursor<'_>>,
    patches: Vec<Patch>,
    fresh: &mut Vec<Chunk>,
) -> Option<Vec<Patch>> {
    let floor = level - 1;
    let mut g = Grouper {
        index_mask: cfg.index_mask(),
        ty,
        level,
        max_fanout: cfg.max_index_fanout(),
        fresh,
        group: Vec::new(),
        closed: Vec::new(),
    };
    let mut out = Vec::new();
    let mut patches = patches.into_iter().peekable();
    while let Some(first) = patches.peek() {
        // Restart where the old build's group was empty: at the start of
        // the old node holding the first replaced entry.
        let mut start = first.old.start;
        if let Some(cur) = old.as_deref_mut() {
            cur.seek_pos(start, floor)?;
            let (node_start, before) = cur.siblings_before();
            start = node_start;
            before.for_each(|e| g.push(e.to_owned()));
        }
        let end = loop {
            let patch = patches.next().expect("peeked, or left at a patch");
            patch.new.into_iter().for_each(|e| g.push(e));
            let Some(cur) = old.as_deref_mut() else {
                if patches.peek().is_some() {
                    continue;
                }
                break patch.old.end;
            };
            // The old entries behind the patch, up to the next patch or
            // to where the groups fall back into the old ones: a cut on
            // an old node's end (P′ is a function of the child alone and
            // the cap counts from the cut).
            cur.seek_pos(patch.old.end, floor)?;
            let rejoined = loop {
                if patches.peek().is_some_and(|p| p.old.start == cur.pos()) {
                    break false;
                }
                if cur.at_end() || (g.group.is_empty() && cur.starts(level)) {
                    break true;
                }
                cur.descend_to(floor)?;
                g.push(cur.entry()?.to_owned());
                cur.advance();
            };
            if rejoined {
                break cur.pos();
            }
        };
        out.push(Patch {
            old: start..end,
            new: g.take(),
        });
    }
    Some(out)
}

/// Encode `group` as one index chunk of `level`, queue it on `fresh` (the
/// build's `put_many` batch) and return the entry that points at it.
fn emit_index(
    fresh: &mut Vec<Chunk>,
    ty: TreeType,
    level: u64,
    group: &mut Vec<IndexEntry>,
) -> IndexEntry {
    let payload = encode_index_payload(level, group, ty.is_sorted());
    let chunk = Chunk::new(ty.index_chunk(), payload);
    let cid = chunk.cid();
    fresh.push(chunk);
    let count = group.iter().map(|e| e.count).sum();
    let key = group.last().map(|e| e.key.clone()).unwrap_or_default();
    group.clear();
    IndexEntry { cid, count, key }
}

/// Build a complete tree from an element stream.
///
/// Elements are encoded into the builder's queue (for sorted types the
/// caller supplies them in key order, exactly as
/// [`LeafBuilder::append_item`] requires) and fed as one run per hash
/// batch's worth ([`ASYNC_BATCH_BYTES`]): the boundary scan pays per byte
/// instead of per element, in sixteen lanes where they run, every leaf
/// payload is a zero-copy slice of the queue, and the pool hashes the
/// leaves cut so far while the next stretch is encoded and scanned.
/// Bit-identical to the retained element-at-a-time path
/// ([`build_items_itemwise`]) — the `build_equivalence` proptests pin
/// that down.
pub fn build_items(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    items: impl IntoIterator<Item = Item>,
) -> Digest {
    if ty == TreeType::Blob {
        // Blob "items" are byte runs; concatenate and take the blob path.
        let mut buf = Vec::new();
        for item in items {
            buf.extend_from_slice(&item.value);
        }
        return build_blob_bytes(store, cfg, Bytes::from(buf));
    }
    let mut lb = LeafBuilder::new(store, cfg, ty);
    #[cfg(debug_assertions)]
    let mut prev_key = Bytes::new();
    for item in items {
        #[cfg(debug_assertions)]
        if ty.is_sorted() {
            debug_assert!(prev_key <= item.key, "sorted build fed out of order");
            prev_key = item.key.clone();
        }
        lb.queue_item(&item);
        if lb.queue.len() >= ASYNC_BATCH_BYTES {
            lb.flush_queue();
        }
    }
    let (entries, fresh, clock) = lb.finish_unstored();
    let root = build_scratch(store, cfg, ty, entries, fresh);
    metrics::item_phases(clock.stop());
    root
}

/// Encode `item` onto `buf` and return where its bytes and key landed.
fn encode_raw(ty: TreeType, item: &Item, buf: &mut Vec<u8>) -> RawItem {
    let start = buf.len();
    encode_item(ty, item, buf);
    let koff = start + varint_len(item.key.len() as u64);
    let end = buf.len();
    RawItem {
        span: (start, end),
        key: if ty.is_sorted() {
            (koff, koff + item.key.len())
        } else {
            (0, 0)
        },
        // A Map entry's value is its last bytes.
        value: if ty == TreeType::Map {
            (end - item.value.len(), end)
        } else {
            (0, 0)
        },
    }
}

/// The retained element-at-a-time build path: one chunker feed per
/// element, payloads copied through the stitch buffer. This is the
/// provably-unchanged baseline the run-scanning path
/// ([`build_items`]) is benchmarked and equivalence-tested against.
pub fn build_items_itemwise(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    items: impl IntoIterator<Item = Item>,
) -> Digest {
    let mut lb = LeafBuilder::new(store, cfg, ty);
    if ty == TreeType::Blob {
        for item in items {
            lb.append_blob(&item.value);
        }
    } else {
        for item in items {
            lb.append_item(&item);
        }
    }
    let entries = lb.finish();
    build_from_entries(store, cfg, ty, entries)
}

/// Build a Blob tree from raw bytes.
///
/// The borrowed input is copied into a shared buffer once up front and
/// then takes the zero-copy path — prefer [`build_blob_bytes`] when the
/// caller already owns a `Bytes`.
pub fn build_blob(store: &dyn ChunkStore, cfg: &ChunkerConfig, data: &[u8]) -> Digest {
    build_blob_bytes(store, cfg, Bytes::copy_from_slice(data))
}

/// Build a Blob tree from a shared buffer. Every leaf payload is a
/// zero-copy slice of `data`, and the build's two byte-level passes are
/// the boundary scan ([`split_positions`](forkbase_crypto::split_positions),
/// sixteen SIMD lanes where the CPU has them, thread lanes too on large
/// inputs) and the leaf cids as one rope batch.
///
/// Memory tradeoff: stored leaves alias `data`'s allocation. For fresh
/// content the slices sum to the buffer, so nothing extra is pinned; a
/// *highly deduplicated* build (most chunks already in the store) can
/// leave a few retained leaves pinning the whole input buffer until a GC
/// compaction, which unshares payloads ([`Chunk::unshared`]).
pub fn build_blob_bytes(store: &dyn ChunkStore, cfg: &ChunkerConfig, data: Bytes) -> Digest {
    let mut clock = PhaseClock::start();
    let cuts = forkbase_crypto::split_positions(&data, cfg);
    clock.lap(0);
    let ropes: Vec<Vec<Bytes>> = {
        let mut prev = 0usize;
        cuts.iter()
            .map(|&c| {
                let span = data.slice(prev..c);
                prev = c;
                vec![span]
            })
            .collect()
    };
    let chunks = Chunk::new_batch_ropes(TreeType::Blob.leaf_chunk(), ropes);
    let mut prev = 0usize;
    let entries: Vec<IndexEntry> = chunks
        .iter()
        .zip(&cuts)
        .map(|(chunk, &c)| {
            let count = (c - prev) as u64;
            prev = c;
            IndexEntry {
                cid: chunk.cid(),
                count,
                key: Bytes::new(),
            }
        })
        .collect();
    clock.lap(1);
    let root = build_scratch(store, cfg, TreeType::Blob, entries, chunks);
    metrics::blob_phases(clock.stop());
    root
}

/// The retained copy-through-the-stitch-buffer Blob build — the baseline
/// [`build_blob_bytes`] is benchmarked and equivalence-tested against.
pub fn build_blob_itemwise(store: &dyn ChunkStore, cfg: &ChunkerConfig, data: &[u8]) -> Digest {
    let mut lb = LeafBuilder::new(store, cfg, TreeType::Blob);
    lb.append_blob(data);
    build_from_entries(store, cfg, TreeType::Blob, lb.finish())
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
    fn identical_content_identical_root() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(100_000, 1);
        let r1 = build_blob(&store, &cfg, &data);
        let r2 = build_blob(&store, &cfg, &data);
        assert_eq!(r1, r2);
    }

    #[test]
    fn blob_build_counts_its_bytes_and_phases() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(64 * 1024, 9);
        let (pos, crypto) = (metrics::snapshot(), forkbase_crypto::metrics::snapshot());
        build_blob(&store, &cfg, &data);
        let pos = metrics::snapshot().since(pos);
        let crypto = forkbase_crypto::metrics::snapshot().since(crypto);
        // 64 KiB is a whole number of lane steps: where the kernel scans,
        // it scans every byte and the scalar scanner none.
        let len = data.len() as u64;
        let lanes = forkbase_crypto::lanes::scans(cfg.window, data.len());
        assert_eq!(crypto.lane_scan_bytes, if lanes { len } else { 0 });
        assert_eq!(crypto.scalar_scan_bytes, if lanes { 0 } else { len });
        // Every leaf once, then the index node over them.
        assert!(crypto.sha256_bytes > data.len() as u64, "{crypto:?}");
        assert!(pos.blob_scan_ns > 0 && pos.blob_hash_ns > 0 && pos.blob_store_ns > 0);
    }

    /// A `MemStore` that records, per `put_many`, how many leaf and
    /// index chunks the batch held.
    #[derive(Default)]
    struct Batches {
        inner: MemStore,
        seen: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Batches {
        fn take(&self) -> Vec<(usize, usize)> {
            std::mem::take(&mut self.seen.lock().expect("batches"))
        }
    }

    impl ChunkStore for Batches {
        fn get(&self, cid: &Digest) -> Option<Chunk> {
            self.inner.get(cid)
        }

        fn put(&self, chunk: Chunk) -> forkbase_chunk::PutOutcome {
            self.inner.put(chunk)
        }

        fn put_many(&self, chunks: Vec<Chunk>) -> Vec<forkbase_chunk::PutOutcome> {
            let index = chunks.iter().filter(|c| c.ty().is_index()).count();
            let mut seen = self.seen.lock().expect("batches");
            seen.push((chunks.len() - index, index));
            self.inner.put_many(chunks)
        }

        fn contains(&self, cid: &Digest) -> bool {
            self.inner.contains(cid)
        }

        fn stats(&self) -> forkbase_chunk::StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_large_build_stores_its_leaves_before_its_index() {
        let store = Batches::default();
        let cfg = ChunkerConfig::default();
        let small = pseudo_random(PARALLEL_THRESHOLD_BYTES - 8192, 11);
        build_blob(&store, &cfg, &small);
        let batches = store.take();
        assert_eq!(batches.len(), 1, "under the threshold: {batches:?}");
        assert!(batches[0].0 > 1 && batches[0].1 > 0, "{batches:?}");

        let large = pseudo_random(2 * PARALLEL_THRESHOLD_BYTES, 12);
        build_blob(&store, &cfg, &large);
        let batches = store.take();
        assert_eq!(batches.len(), 2, "leaves, then index: {batches:?}");
        assert!(batches[0].0 > 1 && batches[0].1 == 0, "{batches:?}");
        assert!(batches[1].0 == 0 && batches[1].1 > 0, "{batches:?}");
    }

    #[test]
    fn a_splice_stores_its_leaves_before_its_index_only_when_they_are_large() {
        let store = Batches::default();
        let cfg = ChunkerConfig::default();
        let key = |i: u32| format!("acct{i:08}");
        let map = crate::Map::build(
            &store,
            &cfg,
            (0..50_000u32).map(|i| (key(i), Bytes::from(vec![i as u8; 100]))),
        );
        store.take();
        // Four scattered edits: four leaves, far under the threshold.
        let edits = |n: u32, v: u8| {
            (0..n)
                .map(|t| (key(t * 49_999 / n), Some(Bytes::from(vec![v; 100]))))
                .collect::<Vec<_>>()
        };
        let map = map.update(&store, &cfg, edits(4, 1)).expect("update");
        let batches = store.take();
        assert_eq!(batches.len(), 1, "{batches:?}");
        assert!(batches[0].0 >= 4 && batches[0].1 > 0, "{batches:?}");
        // A block's worth: 64 scattered leaves, well over it.
        map.update(&store, &cfg, edits(64, 2)).expect("update");
        let batches = store.take();
        assert_eq!(batches.len(), 2, "{batches:?}");
        assert!(batches[0].0 >= 64 && batches[0].1 == 0, "{batches:?}");
        assert!(batches[1].0 == 0 && batches[1].1 > 0, "{batches:?}");
    }

    #[test]
    fn different_content_different_root() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(50_000, 2);
        let mut edited = data.clone();
        edited[25_000] ^= 1;
        assert_ne!(
            build_blob(&store, &cfg, &data),
            build_blob(&store, &cfg, &edited)
        );
    }

    #[test]
    fn empty_blob_builds_canonical_root() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let r1 = build_blob(&store, &cfg, b"");
        let r2 = build_items(&store, &cfg, TreeType::Blob, std::iter::empty());
        assert_eq!(r1, r2);
        assert!(store.contains(&r1));
    }

    #[test]
    fn small_object_is_single_leaf() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_blob(&store, &cfg, b"tiny");
        let chunk = store.get(&root).expect("stored");
        assert_eq!(chunk.ty(), forkbase_chunk::ChunkType::Blob);
        assert_eq!(chunk.payload().as_ref(), b"tiny");
    }

    #[test]
    fn large_object_builds_index_levels() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8); // small chunks → deep tree
        let data = pseudo_random(200_000, 3);
        let root = build_blob(&store, &cfg, &data);
        let chunk = store.get(&root).expect("stored");
        assert!(chunk.ty().is_index(), "root should be an index node");
    }

    #[test]
    fn shared_prefix_shares_chunks() {
        let store_a = MemStore::new();
        let store_b = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let base = pseudo_random(100_000, 4);
        let mut appended = base.clone();
        appended.extend_from_slice(&pseudo_random(1000, 5));

        build_blob(&store_a, &cfg, &base);
        let before = store_a.stats().stored_chunks;
        build_blob(&store_a, &cfg, &appended);
        let added = store_a.stats().stored_chunks - before;

        build_blob(&store_b, &cfg, &appended);
        let solo = store_b.stats().stored_chunks;

        // Appending re-uses almost all leaf chunks: only the tail leaf,
        // the new data, and the index spine change.
        assert!(
            added < solo / 4,
            "append stored {added} new chunks vs {solo} for a fresh build"
        );
    }

    #[test]
    fn map_build_sorted_items() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let items: Vec<Item> = (0..1000)
            .map(|i| Item::map(format!("key{i:05}"), format!("value{i}")))
            .collect();
        let r1 = build_items(&store, &cfg, TreeType::Map, items.clone());
        let r2 = build_items(&store, &cfg, TreeType::Map, items);
        assert_eq!(r1, r2);
    }

    #[test]
    fn leaf_sizes_respect_cap() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let data = pseudo_random(300_000, 9);
        let mut lb = LeafBuilder::new(&store, &cfg, TreeType::Blob);
        lb.append_blob(&data);
        let entries = lb.finish();
        for e in &entries {
            let chunk = store.get(&e.cid).expect("stored");
            assert!(chunk.len() <= cfg.max_leaf_size());
        }
        let total: u64 = entries.iter().map(|e| e.count).sum();
        assert_eq!(total, data.len() as u64);
    }
}
