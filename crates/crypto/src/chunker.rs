//! Content-defined chunk boundary detection (§4.3.2–4.3.3).
//!
//! A POS-Tree leaf node ends where the rolling hash of the trailing `k`
//! bytes satisfies `P & (2^q − 1) == 0`; an index node ends where a child's
//! cid satisfies `cid & (2^r − 1) == 0`. Both patterns are pure functions of
//! content, which is what makes the tree structure history-independent and
//! therefore deduplicatable. To bound node size, a chunk is forcefully cut
//! once it grows to `α ×` the expected size (probability of a forced cut is
//! `(1/e)^α`, §4.3.3).
//!
//! The rolling hash is always the cyclic polynomial ([`CyclicPoly`]).
//!
//! # Hits, then one cut walk
//!
//! [`split_positions`] (a whole blob at once) finds every pattern hit
//! first — with the sixteen-lane kernel of [`crate::lanes`] where the CPU
//! has `avx512f`, else with the block scanner of [`CyclicPoly`] — and then
//! places the cuts in one walk. Splices and element-at-a-time builds feed
//! a [`LeafChunker`], which scans whole slices per call; a run of whole
//! fresh elements of at least [`LANE_SCAN_MIN`] bytes goes through
//! [`LeafChunker::feed_elements`], the same hits-then-walk with the cuts
//! moved to element ends.
//!
//! # Reference oracle
//!
//! [`split_positions_reference`] shares no code with either path: one
//! [`CyclicPoly::roll`] per byte and the cut rule written out. The
//! equivalence tests hold every fast path to it.

use crate::digest::Digest;
use crate::rolling::CyclicPoly;
use std::ops::Range;

/// Parameters controlling pattern detection for both tree levels.
#[derive(Clone, Debug)]
pub struct ChunkerConfig {
    /// Rolling hash window size `k` in bytes.
    pub window: usize,
    /// Leaf pattern bits `q`: expected leaf size is `2^q` bytes.
    pub leaf_bits: u32,
    /// Index pattern bits `r`: expected index fanout is `2^r` entries.
    pub index_bits: u32,
    /// Forced-split factor α: a leaf is cut at `α·2^q` bytes, an index node
    /// at `α·2^r` entries, regardless of pattern.
    pub max_factor: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        // Paper defaults: 4 KB chunks for both leaf and index nodes, α = 8.
        ChunkerConfig {
            window: 48,
            leaf_bits: 12,
            index_bits: 7,
            max_factor: 8,
        }
    }
}

impl ChunkerConfig {
    /// Config with an expected leaf size of `2^leaf_bits` bytes and
    /// otherwise default parameters.
    pub fn with_leaf_bits(leaf_bits: u32) -> Self {
        ChunkerConfig {
            leaf_bits,
            ..Default::default()
        }
    }

    /// Expected (average) leaf chunk size in bytes.
    pub fn expected_leaf_size(&self) -> usize {
        1usize << self.leaf_bits
    }

    /// Hard cap on leaf chunk size in bytes.
    pub fn max_leaf_size(&self) -> usize {
        self.max_factor << self.leaf_bits
    }

    /// Hard cap on index node fanout.
    pub fn max_index_fanout(&self) -> usize {
        self.max_factor << self.index_bits
    }

    /// Refuse a config no scanner or regroup can run, with one message:
    /// a window of 0 bytes has no hash, `leaf_bits ≥ 64` would shift the
    /// leaf mask to 0 and make every primed byte a boundary, a forced-cut
    /// factor of 0 would cut nothing, and an `index_bits` of 0 or ≥ 64
    /// would make every entry close its own index node, so a level never
    /// shrinks and a tree build never ends. The caps `max_factor << bits`
    /// must not shift bits out either: a cap of 0 never lets a cut walk
    /// or an index level advance.
    fn check(&self) {
        let cap_bits = self.max_factor.leading_zeros();
        assert!(
            self.window >= 1
                && self.leaf_bits < 64
                && self.max_factor >= 1
                && (1..64).contains(&self.index_bits)
                && cap_bits >= self.leaf_bits.max(self.index_bits),
            "ChunkerConfig out of range: window {} (must be >= 1), leaf_bits {} (must be < 64), \
             max_factor {} (must be >= 1), index_bits {} (must be in 1..=63), and \
             max_factor << leaf_bits / index_bits must fit in a usize",
            self.window,
            self.leaf_bits,
            self.max_factor,
            self.index_bits
        );
    }

    /// The leaf pattern mask `2^q − 1`: a byte ends a leaf where the
    /// primed rolling hash `P & mask == 0`. Every scanner and cut walk
    /// starts here, so it checks the config first.
    pub fn leaf_mask(&self) -> u64 {
        self.check();
        (1u64 << self.leaf_bits) - 1
    }

    /// The index pattern mask `2^r − 1` of P′ (§4.3.3). A level regroup
    /// takes it once, so it checks the config first.
    pub fn index_mask(&self) -> u64 {
        self.check();
        (1u64 << self.index_bits) - 1
    }

    /// The index-node split pattern P′ (§4.3.3): fires when the child cid's
    /// low `r` bits are zero. A pure function of the entry, so index-node
    /// boundaries are content-defined too. A loop over many entries takes
    /// [`index_mask`](Self::index_mask) once instead.
    pub fn index_boundary(&self, cid: &Digest) -> bool {
        cid.prefix_u64() & self.index_mask() == 0
    }
}

/// Streaming leaf-boundary detector.
///
/// The POS-Tree builder appends one element at a time ([`feed`](Self::feed))
/// and asks [`boundary`](Self::boundary) afterwards, which implements the
/// rule that a pattern occurring *inside* an element extends the chunk to
/// the element end (elements never span chunks, §4.3.2). Byte-granular
/// streams (Blob trees) should use [`feed_bytewise`](Self::feed_bytewise),
/// which scans whole slices and reports the exact cut position.
///
/// The rolling window is deliberately **not** reset at a cut: the pattern at
/// any byte position is a function of the trailing `window` bytes only,
/// independent of where the previous cut fell. This is what localizes the
/// effect of an edit to O(1) chunks.
pub struct LeafChunker {
    /// Boxed: its lookup tables are 4 KB inline. The indirection is paid
    /// once per slice-level call, never per byte.
    hash: Box<CyclicPoly>,
    q_mask: u64,
    max_len: usize,
    window: usize,
    cur_len: usize,
    /// Bytes run through pattern detection since construction — what a
    /// splice pays per edit, as opposed to what [`skip_clean`](Self::skip_clean)
    /// let it adopt unscanned.
    scanned: usize,
    /// A pattern fired at some byte of the current chunk. §4.3.2: "if a
    /// pattern occurs in the middle of an element, the chunk boundary is
    /// extended to cover the whole element" — so the hit is remembered
    /// until the element ends and [`boundary`](Self::boundary) is consulted.
    pattern_pending: bool,
}

impl LeafChunker {
    /// Build a detector from `cfg`.
    pub fn new(cfg: &ChunkerConfig) -> Self {
        let q_mask = cfg.leaf_mask();
        LeafChunker {
            hash: Box::new(CyclicPoly::new(cfg.window)),
            q_mask,
            max_len: cfg.max_leaf_size(),
            window: cfg.window,
            cur_len: 0,
            scanned: 0,
            pattern_pending: false,
        }
    }

    /// Roll `bytes` (one element) into the detector, remembering whether
    /// the pattern fired at any byte of the element.
    #[inline]
    pub fn feed(&mut self, bytes: &[u8]) {
        self.pattern_pending |= self.hash.feed_detect(bytes, self.q_mask);
        self.cur_len += bytes.len();
        self.scanned += bytes.len();
    }

    /// Advance over `bytes` the caller knows to contain **no pattern
    /// hit**, without running detection: the length counter moves on and
    /// the detector is re-warmed with the trailing `window` bytes, which
    /// is all its state ever depends on (the window is never reset at a
    /// cut, so a hit at byte `p` is a function of the `window` bytes
    /// ending at `p` alone). Afterwards the chunker is indistinguishable
    /// from one that was [`feed`](Self::feed)-ed the same bytes.
    ///
    /// Returns `false` — with nothing consumed — when the forced `α·2^q`
    /// cap would be reached inside `bytes`: where the cap lands depends
    /// on where the previous cut fell, not on content, so the caller has
    /// to fall back to scanning ([`feed_bytewise`](Self::feed_bytewise)
    /// reports the exact forced-cut position).
    #[inline]
    pub fn skip_clean(&mut self, bytes: &[u8]) -> bool {
        if !self.skips(bytes.len()) {
            return false;
        }
        let tail = &bytes[bytes.len().saturating_sub(self.window)..];
        self.hash.feed_detect(tail, self.q_mask);
        self.cur_len += bytes.len();
        true
    }

    /// True when [`skip_clean`](Self::skip_clean) would take `len` bytes
    /// now: the size cap does not fall inside them.
    pub fn skips(&self, len: usize) -> bool {
        self.cur_len + len < self.max_len
    }

    /// Append the bytes the rolling window holds to `out`, oldest first:
    /// the last `window` bytes fed since the last [`reset`](Self::reset),
    /// or all of them if fewer — the context a run given to
    /// [`feed_elements`](Self::feed_elements) must follow.
    pub fn context(&self, out: &mut Vec<u8>) {
        self.hash.window_bytes(out);
    }

    /// Feed a run of whole elements at once: bit-identical to one
    /// [`feed`](Self::feed) per element with a [`cut`](Self::cut) wherever
    /// [`boundary`](Self::boundary) says, and returns the indices of the
    /// elements a chunk ends on.
    ///
    /// `data[..from]` must be [`context`](Self::context) and the run is
    /// `data[from..]`; `elems` are its elements in order, `end` gives each
    /// one's end in `data`, and the last one ends at `data.len()`. The
    /// run is scanned once for every hit ([`split_positions`]' hit scan,
    /// sixteen lanes where they run, warmed up on the context and
    /// primed as the stream is). One walk then places the cuts: from the
    /// previous cut, the first hit or the `α·2^q` cap, whichever comes
    /// first, moved to the end of the element holding it. The chunker
    /// resumes from the run's tail: its window re-warmed with the last
    /// `window` bytes of the run, its chunk holding what follows the last
    /// cut. Call it between elements, never with a chunk that is due a
    /// cut.
    pub fn feed_elements<T>(
        &mut self,
        data: &[u8],
        from: usize,
        elems: &[T],
        end: impl Fn(&T) -> usize,
    ) -> Vec<usize> {
        debug_assert!(!self.boundary(), "feed_elements at an uncut boundary");
        debug_assert!({
            let mut ctx = Vec::new();
            self.context(&mut ctx);
            ctx == data[..from]
        });
        let mut cuts = Vec::new();
        let Some(last) = elems.last() else {
            return cuts;
        };
        debug_assert_eq!(end(last), data.len());
        let mut hits = hits_after(data, from, self.window, self.q_mask)
            .into_iter()
            .peekable();
        let (mut i, mut prev) = (0usize, from);
        let mut cap = from + (self.max_len - self.cur_len);
        loop {
            while hits.next_if(|&h| h <= prev).is_some() {}
            let due = hits.peek().map_or(cap, |&h| h.min(cap));
            // A step, not a binary search: the cut is a leaf's worth of
            // elements on, and the walk passes each element once.
            let Some(j) = elems[i..].iter().position(|e| end(e) >= due) else {
                break;
            };
            let (j, e) = (i + j, &elems[i + j]);
            cuts.push(j);
            prev = end(e);
            cap = prev + self.max_len;
            i = j + 1;
        }
        self.cur_len = if cuts.is_empty() {
            self.cur_len + data.len() - from
        } else {
            data.len() - prev
        };
        let tail = &data[data.len().saturating_sub(self.window).max(from)..];
        self.hash.feed_detect(tail, self.q_mask);
        cuts
    }

    /// Feed a byte-granular stream (every byte is an element, Blob
    /// semantics): consume bytes from `data` until the first boundary —
    /// pattern hit or forced `α·2^q` cap — and return `Some(n)` with `n`
    /// bytes consumed and the boundary falling exactly after them. The
    /// caller should then [`cut`](Self::cut) and re-feed the remainder.
    /// Returns `None` with all of `data` consumed and no boundary.
    #[inline]
    pub fn feed_bytewise(&mut self, data: &[u8]) -> Option<usize> {
        if data.is_empty() {
            return None;
        }
        // Fail loudly on contract misuse (calling again without `cut`, or
        // mixing with an oversized `feed`) instead of returning `Some(0)`
        // forever or underflowing `room`.
        assert!(
            self.cur_len < self.max_len,
            "feed_bytewise called at an uncut boundary (len {} >= max {})",
            self.cur_len,
            self.max_len
        );
        let room = self.max_len - self.cur_len;
        let take = data.len().min(room);
        let hit = self.hash.scan_boundary(&data[..take], self.q_mask);
        self.scanned += hit.unwrap_or(take);
        match hit {
            Some(n) => {
                self.cur_len += n;
                self.pattern_pending = true;
                Some(n)
            }
            None => {
                self.cur_len += take;
                if self.cur_len >= self.max_len && !data.is_empty() {
                    Some(take)
                } else {
                    None
                }
            }
        }
    }

    /// True if the current position ends a chunk: either the pattern
    /// occurred somewhere in the chunk (ending it at the current element
    /// boundary), or the chunk hit the forced cap.
    pub fn boundary(&self) -> bool {
        self.pattern_hit() || self.forced()
    }

    /// True if the boundary is due to the rolling-hash pattern.
    pub fn pattern_hit(&self) -> bool {
        self.cur_len > 0 && self.pattern_pending
    }

    /// True if the boundary is due to the `α·2^q` size cap.
    pub fn forced(&self) -> bool {
        self.cur_len >= self.max_len
    }

    /// Bytes fed since the last cut.
    pub fn current_len(&self) -> usize {
        self.cur_len
    }

    /// Bytes run through the scalar scanner ([`feed`](Self::feed) and
    /// [`feed_bytewise`](Self::feed_bytewise)) since construction;
    /// [`feed_elements`](Self::feed_elements) counts its bytes as
    /// [`split_positions`] does.
    pub fn scanned_bytes(&self) -> usize {
        self.scanned
    }

    /// Start a new chunk. Only the length counter and pending pattern
    /// reset; the rolling window keeps its content so boundaries stay
    /// content-defined.
    pub fn cut(&mut self) {
        self.cur_len = 0;
        self.pattern_pending = false;
    }

    /// Full reset (new object).
    pub fn reset(&mut self) {
        self.hash.reset();
        self.cur_len = 0;
        self.pattern_pending = false;
    }
}

impl Drop for LeafChunker {
    fn drop(&mut self) {
        crate::metrics::scalar_scanned(self.scanned);
    }
}

/// Split `data` byte-wise (Blob semantics) and return the chunk end
/// positions (exclusive). The final position is always `data.len()`.
///
/// Every pattern hit is found first ([`pattern_hits`]), then one walk
/// places the cuts. That is bit-identical to cutting while scanning
/// because the rolling window is **never reset at a cut** (see
/// [`LeafChunker::cut`]): whether the pattern fires at byte `p` depends
/// only on the `window` bytes ending at `p`, not on where any previous cut
/// fell. Only the forced `α·2^q` cuts depend on the previous cut, and the
/// walk places those.
pub fn split_positions(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    let hits = pattern_hits(data, cfg);
    let (max, end) = (cfg.max_leaf_size(), data.len());
    // From `prev`, the cut is the first hit within `max` bytes, else a
    // forced cut at `prev + max`, else the end of input.
    let mut cuts = Vec::with_capacity(hits.len() + end / max + 1);
    let mut hits = hits.into_iter().peekable();
    let mut prev = 0usize;
    while prev < end {
        while hits.next_if(|&h| h <= prev).is_some() {}
        prev = match hits.peek() {
            Some(&h) if h - prev <= max => h,
            _ => end.min(prev + max),
        };
        cuts.push(prev);
    }
    cuts
}

/// Inputs at least this long are scanned by the sixteen-lane kernel
/// ([`crate::lanes`]) where it runs; below it the lanes' warm-up is too
/// large a share of the work and the scalar scanner wins.
pub const LANE_SCAN_MIN: usize = 1024;

/// Inputs at least this long fan the hit scan out over the worker pool;
/// below it the wake-up of a parked worker costs more than it saves.
const PARALLEL_SCAN_MIN: usize = 512 * 1024;

/// Every position `p` in `data` where the leaf pattern fires on byte
/// `p − 1` with the scanner primed, in order — the hits
/// [`split_positions`] places its cuts from.
///
/// The sixteen-lane kernel scans where it runs (`avx512f`, a window of at
/// most [`lanes::MAX_WINDOW`](crate::lanes::MAX_WINDOW))
/// and the input is at least [`LANE_SCAN_MIN`] long; otherwise the
/// scalar scanner does. Above 512 KiB on a multi-core host the input is
/// also split into one segment per worker-pool lane, each scanned the same
/// way after warming up on the `window` bytes before it.
pub fn pattern_hits(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    hits_after(data, 0, cfg.window, cfg.leaf_mask())
}

/// The hits of a run that follows bytes already fed: every `p` in
/// `from + 1 ..= data.len()` where the pattern fires on byte `p − 1`, with
/// `data[..from]` the bytes fed before the run — all of them since the
/// scanner started, or at least its last `window`. A hit is never
/// reported inside those bytes. [`LeafChunker::feed_elements`] places its
/// cuts from these.
pub fn pattern_hits_after(data: &[u8], from: usize, cfg: &ChunkerConfig) -> Vec<usize> {
    hits_after(data, from, cfg.window, cfg.leaf_mask())
}

/// The hits of `data[from..]` — every `p` in `from + 1 ..= data.len()` —
/// with `data[..from]` as the bytes fed before it: [`pattern_hits`]' scan,
/// each segment warmed up on the `window` bytes before it.
fn hits_after(data: &[u8], from: usize, window: usize, mask: u64) -> Vec<usize> {
    let len = data.len() - from;
    // Size gate first: a below-threshold input must not be the thing that
    // materializes the worker pool.
    let lanes = if len < PARALLEL_SCAN_MIN {
        1
    } else {
        crate::parallel::lanes()
    };
    if lanes <= 1 {
        let mut hits = Vec::new();
        segment_hits(data, from..data.len(), window, mask, &mut hits);
        return hits;
    }
    let seg = len.div_ceil(lanes);
    let mut hit_lists: Vec<Vec<usize>> = vec![Vec::new(); len.div_ceil(seg)];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = hit_lists
        .iter_mut()
        .enumerate()
        .map(|(i, hits)| {
            let range = from + i * seg..(from + (i + 1) * seg).min(data.len());
            Box::new(move || segment_hits(data, range, window, mask, hits))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    crate::pool::run_scoped(tasks);
    hit_lists.concat()
}

/// The hits of `data[range]`: the lane kernel where it takes the range,
/// else the scalar scanner.
fn segment_hits(data: &[u8], range: Range<usize>, window: usize, mask: u64, hits: &mut Vec<usize>) {
    if !crate::lanes::scans(window, range.len()) {
        return scalar_hits_into(data, range, window, mask, hits);
    }
    let done = crate::lanes::scan(data, range.clone(), window, mask, hits);
    if done < range.end {
        // The tail under one lane step: one more step over the range's
        // last `LANES · STEP` bytes, keeping the hits past the first scan.
        let step = crate::lanes::LANES * crate::lanes::STEP;
        let first = hits.len();
        crate::lanes::scan(data, range.end - step..range.end, window, mask, hits);
        let seen = hits[first..].partition_point(|&h| h <= done);
        hits.drain(first..first + seen);
    }
}

/// [`pattern_hits`] through the scalar scanner alone, whatever the CPU —
/// the path hosts without `avx512f` take.
pub fn scalar_pattern_hits(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    let mask = cfg.leaf_mask();
    let mut hits = Vec::new();
    scalar_hits_into(data, 0..data.len(), cfg.window, mask, &mut hits);
    hits
}

/// Push every hit in `data[range]` found by the scalar scanner, warmed up
/// on the `window` bytes before `range` (fewer at the input's start, where
/// the scanner is then unprimed until byte `window`, as in a stream).
pub(crate) fn scalar_hits_into(
    data: &[u8],
    range: Range<usize>,
    window: usize,
    mask: u64,
    hits: &mut Vec<usize>,
) {
    if range.is_empty() {
        return;
    }
    let mut scanner = CyclicPoly::new(window);
    scanner.feed_detect(&data[range.start.saturating_sub(window)..range.start], mask);
    let mut pos = range.start;
    while let Some(n) = scanner.scan_boundary(&data[pos..range.end], mask) {
        pos += n;
        hits.push(pos);
    }
    crate::metrics::scalar_scanned(range.len());
}

/// [`split_positions`] the plain way — the equivalence oracle for every
/// faster path. One [`CyclicPoly::roll`] per byte; a chunk ends at a byte
/// where the primed hash matches the mask or where it reaches `α·2^q`
/// bytes, and the last chunk ends at the end of input.
pub fn split_positions_reference(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    let (mask, max) = (cfg.leaf_mask(), cfg.max_leaf_size());
    let mut hash = CyclicPoly::new(cfg.window);
    let mut cuts = Vec::new();
    let mut prev = 0usize;
    for (i, &b) in data.iter().enumerate() {
        let v = hash.roll(b);
        if (hash.primed() && v & mask == 0) || i + 1 - prev >= max {
            prev = i + 1;
            cuts.push(prev);
        }
    }
    if prev < data.len() {
        cuts.push(data.len());
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn split_covers_input_exactly() {
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(100_000, 7);
        let cuts = split_positions(&data, &cfg);
        assert_eq!(*cuts.last().unwrap(), data.len());
        let mut prev = 0;
        for &c in &cuts {
            assert!(c > prev, "cut positions strictly increase");
            prev = c;
        }
    }

    #[test]
    fn parallel_split_matches_serial() {
        // Above 512 KiB the scan fans out over thread lanes (each running
        // the lane kernel where it can); the serial reference must agree.
        for (bits, window, len, seed) in [
            (8u32, 48usize, 2_000_000usize, 41u64),
            (12, 48, 3_000_000, 42),
            (10, 7, 1_500_000, 43),
            (9, 64, 600_000, 44),
            (12, 48, 100_000, 45), // below the parallel threshold
        ] {
            let mut cfg = ChunkerConfig::with_leaf_bits(bits);
            cfg.window = window;
            let data = pseudo_random(len, seed);
            assert_eq!(
                split_positions(&data, &cfg),
                split_positions_reference(&data, &cfg),
                "bits={bits} window={window} len={len}"
            );
        }
        // Zero-entropy input: forced cuts only, exercising the
        // hits-interleaved-with-forced derivation walk.
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let data = vec![0xAAu8; 2_000_000];
        assert_eq!(
            split_positions(&data, &cfg),
            split_positions_reference(&data, &cfg)
        );
    }

    #[test]
    #[should_panic(expected = "ChunkerConfig out of range: window 0")]
    fn zero_window_is_refused_up_front() {
        let cfg = ChunkerConfig {
            window: 0,
            ..Default::default()
        };
        split_positions(&pseudo_random(10_000, 5), &cfg);
    }

    #[test]
    #[should_panic(expected = "leaf_bits 64 (must be < 64)")]
    fn leaf_bits_past_the_mask_are_refused() {
        LeafChunker::new(&ChunkerConfig::with_leaf_bits(64));
    }

    #[test]
    #[should_panic(expected = "ChunkerConfig out of range")]
    fn index_bits_of_zero_are_refused() {
        let cfg = ChunkerConfig {
            index_bits: 0,
            ..Default::default()
        };
        cfg.index_boundary(&Digest::ZERO);
    }

    #[test]
    #[should_panic(expected = "ChunkerConfig out of range")]
    fn index_bits_of_64_are_refused() {
        let cfg = ChunkerConfig {
            index_bits: 64,
            ..Default::default()
        };
        cfg.index_boundary(&Digest::ZERO);
    }

    #[test]
    #[should_panic(expected = "ChunkerConfig out of range")]
    fn an_index_cap_shifted_past_usize_is_refused() {
        // 8 << 61 wraps to a fanout cap of 0.
        let cfg = ChunkerConfig {
            index_bits: 61,
            ..Default::default()
        };
        cfg.index_boundary(&Digest::ZERO);
    }

    #[test]
    fn split_is_deterministic() {
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(200_000, 99);
        assert_eq!(split_positions(&data, &cfg), split_positions(&data, &cfg));
    }

    #[test]
    fn split_matches_reference_pipeline() {
        for (bits, window, seed) in [
            (8u32, 48usize, 1u64),
            (10, 7, 2),
            (12, 64, 3),
            (9, 1, 4),
            (8, 4, 5),
            (10, 16, 6),
            (9, 47, 7),
            (6, 48, 8),
            (7, 64, 9),
        ] {
            let mut cfg = ChunkerConfig::with_leaf_bits(bits);
            cfg.window = window;
            let data = pseudo_random(150_000, seed);
            assert_eq!(
                split_positions(&data, &cfg),
                split_positions_reference(&data, &cfg),
                "bits={bits} window={window}"
            );
        }
    }

    #[test]
    fn average_chunk_size_near_target() {
        let cfg = ChunkerConfig::with_leaf_bits(10); // expect ~1KB
        let data = pseudo_random(2_000_000, 3);
        let cuts = split_positions(&data, &cfg);
        let avg = data.len() as f64 / cuts.len() as f64;
        assert!(
            (500.0..2200.0).contains(&avg),
            "average chunk size {avg} too far from 1024"
        );
    }

    #[test]
    fn max_size_is_enforced() {
        let cfg = ChunkerConfig::with_leaf_bits(8); // avg 256B, max 2048B
        let data = pseudo_random(500_000, 13);
        let cuts = split_positions(&data, &cfg);
        let mut prev = 0;
        for &c in &cuts {
            assert!(c - prev <= cfg.max_leaf_size());
            prev = c;
        }
    }

    #[test]
    fn repeated_content_hits_forced_cap() {
        // Zero-entropy content never matches the pattern (or always does);
        // with the fixed table, constant 0xAA never matches, so every chunk
        // is exactly max size — the degenerate case §4.3.3 discusses.
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let data = vec![0xAAu8; 50_000];
        let cuts = split_positions(&data, &cfg);
        let mut prev = 0;
        for (i, &c) in cuts.iter().enumerate() {
            if i + 1 < cuts.len() {
                assert_eq!(c - prev, cfg.max_leaf_size(), "all full-size");
            }
            prev = c;
        }
    }

    #[test]
    fn boundaries_are_content_local() {
        // Changing a byte should only move boundaries within a window-sized
        // neighbourhood: cuts far after the edit are identical.
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(300_000, 21);
        let mut edited = data.clone();
        edited[1000] ^= 0xFF;

        let a = split_positions(&data, &cfg);
        let b = split_positions(&edited, &cfg);

        // All cuts beyond the edit position + max chunk + window must agree.
        let horizon = 1000 + cfg.max_leaf_size() + cfg.window + 1;
        let tail_a: Vec<_> = a.iter().filter(|&&c| c > horizon).collect();
        let tail_b: Vec<_> = b.iter().filter(|&&c| c > horizon).collect();
        assert_eq!(tail_a, tail_b, "edit must not shift distant boundaries");
    }

    #[test]
    fn index_boundary_rate() {
        let cfg = ChunkerConfig {
            index_bits: 6,
            ..Default::default()
        };
        let mut hits = 0;
        let n = 20_000;
        for i in 0..n {
            let d = crate::hash_bytes(&(i as u64).to_le_bytes());
            if cfg.index_boundary(&d) {
                hits += 1;
            }
        }
        let expected = n as f64 / 64.0;
        let ratio = hits as f64 / expected;
        assert!(
            (0.6..1.4).contains(&ratio),
            "hits {hits}, expected {expected}"
        );
    }

    #[test]
    fn element_aligned_feeding_never_splits_elements() {
        // Feeding multi-byte elements: boundary() is only consulted between
        // elements, so chunks end exactly at element ends by construction.
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let mut chunker = LeafChunker::new(&cfg);
        let elem = pseudo_random(37, 5);
        let mut lens = Vec::new();
        let mut cur = 0usize;
        for _ in 0..10_000 {
            chunker.feed(&elem);
            cur += elem.len();
            if chunker.boundary() {
                lens.push(cur);
                cur = 0;
                chunker.cut();
            }
        }
        for l in lens {
            assert_eq!(l % 37, 0, "chunk length must be a multiple of element size");
        }
    }

    /// `feed` against one `roll` per byte and the element rule written
    /// out: a hit anywhere in an element, or the cap reached, ends the
    /// chunk at the element's end.
    #[test]
    fn element_feed_matches_reference() {
        for window in [1usize, 4, 16, 47, 48, 64] {
            let mut cfg = ChunkerConfig::with_leaf_bits(7);
            cfg.window = window;
            let mask = cfg.leaf_mask();
            let mut fast = LeafChunker::new(&cfg);
            let mut hash = CyclicPoly::new(window);
            let data = pseudo_random(60_000, 31 + window as u64);
            let (mut off, mut len, mut chunk) = (0usize, 1usize, 0usize);
            while off < data.len() {
                let end = (off + len).min(data.len());
                fast.feed(&data[off..end]);
                let mut fired = false;
                for &b in &data[off..end] {
                    let v = hash.roll(b);
                    fired |= hash.primed() && v & mask == 0;
                }
                chunk += end - off;
                let boundary = fired || chunk >= cfg.max_leaf_size();
                assert_eq!(fast.boundary(), boundary, "w={window} at {off}");
                assert_eq!(fast.current_len(), chunk);
                if boundary {
                    fast.cut();
                    chunk = 0;
                }
                off = end;
                len = len % 97 + 13;
            }
        }
    }

    #[test]
    fn bytewise_feed_respects_forced_cap_exactly() {
        let cfg = ChunkerConfig::with_leaf_bits(6);
        let mut chunker = LeafChunker::new(&cfg);
        // Content that never fires the pattern: forced cuts only.
        let data = vec![0xAAu8; 4 * cfg.max_leaf_size() + 5];
        let mut off = 0;
        let mut cuts = Vec::new();
        while off < data.len() {
            match chunker.feed_bytewise(&data[off..]) {
                Some(n) => {
                    off += n;
                    cuts.push(off);
                    chunker.cut();
                }
                None => break,
            }
        }
        assert_eq!(
            cuts,
            vec![
                cfg.max_leaf_size(),
                2 * cfg.max_leaf_size(),
                3 * cfg.max_leaf_size(),
                4 * cfg.max_leaf_size()
            ]
        );
    }

    /// `skip_clean` over a hit-free stretch must leave the chunker in the
    /// state `feed` would have: same length, same hits on everything fed
    /// afterwards. Checked with stretches shorter than, equal to and
    /// longer than the window.
    #[test]
    fn skip_clean_matches_feed_on_clean_stretches() {
        for (bits, window) in [
            (6u32, 1usize),
            (6, 4),
            (6, 5),
            (7, 16),
            (8, 47),
            (8, 48),
            (10, 64),
        ] {
            let mut cfg = ChunkerConfig::with_leaf_bits(bits);
            cfg.window = window;
            let data = pseudo_random(80_000, bits as u64 * 7 + window as u64);
            let cuts = split_positions_reference(&data, &cfg);
            let (mut fed, mut skipped) = (LeafChunker::new(&cfg), LeafChunker::new(&cfg));
            let mut prev = 0usize;
            for &c in &cuts {
                // No hit in a chunk before its last byte. Skip a varying
                // share of that stretch, feed the rest.
                let clean_end = prev + (c - 1 - prev) * (c % 4) / 3;
                fed.feed(&data[prev..clean_end]);
                assert!(!fed.boundary(), "stretch was not clean");
                assert!(skipped.skip_clean(&data[prev..clean_end]));
                assert_eq!(fed.current_len(), skipped.current_len());
                let a = fed.feed_bytewise(&data[clean_end..c]);
                let b = skipped.feed_bytewise(&data[clean_end..c]);
                assert_eq!(a, b, "bits={bits} w={window} at {c}");
                assert_eq!(fed.current_len(), skipped.current_len());
                fed.cut();
                skipped.cut();
                prev = c;
            }
            assert!(skipped.scanned_bytes() < fed.scanned_bytes());
        }
    }

    #[test]
    fn skip_clean_refuses_at_the_cap() {
        let cfg = ChunkerConfig::with_leaf_bits(6);
        let max = cfg.max_leaf_size();
        let data = vec![0xAAu8; max];
        let mut chunker = LeafChunker::new(&cfg);
        chunker.feed(&data[..10]);
        assert!(!chunker.skip_clean(&data[..max - 10]), "cap reached");
        assert_eq!(chunker.current_len(), 10, "a refusal consumes nothing");
        assert!(chunker.skip_clean(&data[..max - 11]));
        assert_eq!(chunker.feed_bytewise(&data[..5]), Some(1), "forced cut");
    }

    #[test]
    fn empty_input_has_no_cuts() {
        let cfg = ChunkerConfig::default();
        assert!(split_positions(&[], &cfg).is_empty());
    }
}
