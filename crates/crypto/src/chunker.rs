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
//! # Fast and reference paths
//!
//! [`LeafChunker::new`] routes pattern detection through the devirtualized
//! block scanner ([`crate::rolling::RollingScanner`]): the rolling-hash
//! implementation is selected once at construction, and whole slices are
//! scanned per call with a bounds-check-free inner loop.
//! [`LeafChunker::new_reference`] retains the original per-byte
//! `Box<dyn RollingHash>` pipeline; it is the baseline the equivalence
//! proptests and the `crypto_micro` benches compare against, and the
//! `naive-baseline` cargo feature makes [`new`](LeafChunker::new) produce
//! it so whole-system A/B runs need no code changes.

use crate::digest::Digest;
use crate::rolling::{RollingHash, RollingKind, RollingScanner};

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
    /// Which rolling hash implements `P`.
    pub rolling: RollingKind,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        // Paper defaults: 4 KB chunks for both leaf and index nodes, α = 8.
        ChunkerConfig {
            window: 48,
            leaf_bits: 12,
            index_bits: 7,
            max_factor: 8,
            rolling: RollingKind::CyclicPoly,
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

    /// Expected index node fanout (entries per node).
    pub fn expected_index_fanout(&self) -> usize {
        1usize << self.index_bits
    }

    /// Hard cap on index node fanout.
    pub fn max_index_fanout(&self) -> usize {
        self.max_factor << self.index_bits
    }

    /// The index-node split pattern P′ (§4.3.3): fires when the child cid's
    /// low `r` bits are zero. A pure function of the entry, so index-node
    /// boundaries are content-defined too.
    #[inline]
    pub fn index_boundary(&self, cid: &Digest) -> bool {
        let mask = (1u64 << self.index_bits) - 1;
        cid.prefix_u64() & mask == 0
    }
}

/// Pattern-detection backend: the devirtualized block scanner, or the
/// retained per-byte-through-a-vtable reference pipeline. The scanner is
/// boxed to keep the variants similar in size (its lookup tables are 4 KB
/// inline); the indirection is paid once per slice-level call, never per
/// byte.
enum Detector {
    Fast(Box<RollingScanner>),
    Reference(Box<dyn RollingHash + Send>),
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
    detector: Detector,
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
    /// Build a detector from `cfg`, using the devirtualized block scanner
    /// (unless the `naive-baseline` feature routes it to the reference
    /// pipeline).
    pub fn new(cfg: &ChunkerConfig) -> Self {
        if cfg!(feature = "naive-baseline") {
            Self::new_reference(cfg)
        } else {
            Self::with_detector(
                cfg,
                Detector::Fast(Box::new(cfg.rolling.scanner(cfg.window))),
            )
        }
    }

    /// Build a detector running the retained naive pipeline: one virtual
    /// [`RollingHash::roll`] call per byte. Kept as the provably-unchanged
    /// baseline for equivalence tests and benchmarks.
    pub fn new_reference(cfg: &ChunkerConfig) -> Self {
        Self::with_detector(cfg, Detector::Reference(cfg.rolling.build(cfg.window)))
    }

    fn with_detector(cfg: &ChunkerConfig, detector: Detector) -> Self {
        LeafChunker {
            detector,
            q_mask: (1u64 << cfg.leaf_bits) - 1,
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
        let fired = match &mut self.detector {
            Detector::Fast(s) => s.feed_detect(bytes, self.q_mask),
            Detector::Reference(h) => {
                let mut fired = false;
                for &b in bytes {
                    let v = h.roll(b);
                    fired |= h.primed() && v & self.q_mask == 0;
                }
                fired
            }
        };
        self.pattern_pending |= fired;
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
        if self.cur_len + bytes.len() >= self.max_len {
            return false;
        }
        let tail = &bytes[bytes.len().saturating_sub(self.window)..];
        match &mut self.detector {
            Detector::Fast(s) => {
                s.feed_detect(tail, self.q_mask);
            }
            Detector::Reference(h) => {
                for &b in tail {
                    h.roll(b);
                }
            }
        }
        self.cur_len += bytes.len();
        true
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
        let hit = match &mut self.detector {
            Detector::Fast(s) => s.scan_boundary(&data[..take], self.q_mask),
            Detector::Reference(h) => {
                let mut hit = None;
                for (i, &b) in data[..take].iter().enumerate() {
                    let v = h.roll(b);
                    if h.primed() && v & self.q_mask == 0 {
                        hit = Some(i + 1);
                        break;
                    }
                }
                hit
            }
        };
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

    /// Bytes run through pattern detection ([`feed`](Self::feed) and
    /// [`feed_bytewise`](Self::feed_bytewise)) since construction.
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
        match &mut self.detector {
            Detector::Fast(s) => s.reset(),
            Detector::Reference(h) => h.reset(),
        }
        self.cur_len = 0;
        self.pattern_pending = false;
    }
}

/// Split `data` byte-wise (Blob semantics) and return the chunk end
/// positions (exclusive). The final position is always `data.len()`.
pub fn split_positions(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    split_with(LeafChunker::new(cfg), data)
}

/// Minimum input size before [`split_positions_parallel`] fans the hit
/// scan out over the worker pool; below this the serial scan wins.
const PARALLEL_SCAN_MIN: usize = 512 * 1024;

/// [`split_positions`], with the pattern scan parallelized across the
/// persistent worker pool — bit-identical results.
///
/// This exploits a structural property of the chunker: the rolling window
/// is **never reset at a cut** (see [`LeafChunker::cut`]), so whether the
/// pattern fires at byte `p` depends only on the `window` bytes ending at
/// `p` — not on where any previous cut fell. The input is therefore split
/// into segments, each lane warms a private scanner with the `window`
/// bytes preceding its segment and collects every pattern-hit position,
/// and the cut positions (pattern hits interleaved with forced `α·2^q`
/// cuts, which *do* depend on the previous cut) are derived from the
/// merged hit list in one cheap sequential walk.
pub fn split_positions_parallel(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    let window = cfg.window;
    // Size/config gates first: a below-threshold input must not be the
    // thing that materializes the worker pool.
    if cfg!(feature = "naive-baseline") || data.len() < PARALLEL_SCAN_MIN || window == 0 {
        return split_positions(data, cfg);
    }
    let lanes = crate::pool::parallelism();
    if lanes <= 1 {
        return split_positions(data, cfg);
    }
    let mask = (1u64 << cfg.leaf_bits) - 1;
    let seg = data.len().div_ceil(lanes).max(window);
    let bounds: Vec<(usize, usize)> = (0..lanes)
        .map(|i| (i * seg, ((i + 1) * seg).min(data.len())))
        .filter(|(s, e)| s < e)
        .collect();

    let mut hit_lists: Vec<Vec<usize>> = vec![Vec::new(); bounds.len()];
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = hit_lists
            .iter_mut()
            .zip(&bounds)
            .map(|(hits, &(s, e))| {
                Box::new(move || {
                    let mut scanner = cfg.rolling.scanner(window);
                    // Warm the window with the bytes preceding the
                    // segment (empty for the first): hashes — and the
                    // primed condition — then match the streaming scan
                    // exactly. Warm-up hits belong to the previous lane.
                    let warm_from = s.saturating_sub(window);
                    scanner.feed_detect(&data[warm_from..s], mask);
                    let mut pos = s;
                    while pos < e {
                        match scanner.scan_boundary(&data[pos..e], mask) {
                            Some(n) => {
                                pos += n;
                                hits.push(pos);
                            }
                            None => break,
                        }
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        crate::pool::run_scoped(tasks);
    }

    // Derive cuts: scanning from `prev`, the boundary is the first
    // pattern hit within `max` bytes, else a forced cut at `prev + max`,
    // else the end-of-input flush.
    let max = cfg.max_leaf_size();
    let hits: Vec<usize> = hit_lists.concat();
    let mut cuts = Vec::with_capacity(hits.len() + data.len() / max + 1);
    let mut prev = 0usize;
    let mut hi = 0usize;
    while prev < data.len() {
        while hi < hits.len() && hits[hi] <= prev {
            hi += 1;
        }
        match hits.get(hi) {
            Some(&h) if h - prev <= max => {
                cuts.push(h);
                prev = h;
            }
            _ => {
                if data.len() - prev <= max {
                    cuts.push(data.len());
                    prev = data.len();
                } else {
                    cuts.push(prev + max);
                    prev += max;
                }
            }
        }
    }
    cuts
}

/// [`split_positions`] through the retained naive per-byte pipeline —
/// the equivalence oracle for the block scanner.
pub fn split_positions_reference(data: &[u8], cfg: &ChunkerConfig) -> Vec<usize> {
    split_with(LeafChunker::new_reference(cfg), data)
}

fn split_with(mut chunker: LeafChunker, data: &[u8]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        match chunker.feed_bytewise(&data[off..]) {
            Some(n) => {
                off += n;
                cuts.push(off);
                chunker.cut();
            }
            None => {
                off = data.len();
            }
        }
    }
    if cuts.last() != Some(&data.len()) && !data.is_empty() {
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
                split_positions_parallel(&data, &cfg),
                split_positions(&data, &cfg),
                "bits={bits} window={window} len={len}"
            );
        }
        // Zero-entropy input: forced cuts only, exercising the
        // hits-interleaved-with-forced derivation walk.
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let data = vec![0xAAu8; 2_000_000];
        assert_eq!(
            split_positions_parallel(&data, &cfg),
            split_positions(&data, &cfg)
        );
        assert!(split_positions_parallel(&[], &cfg).is_empty());
    }

    #[test]
    fn split_is_deterministic() {
        let cfg = ChunkerConfig::default();
        let data = pseudo_random(200_000, 99);
        assert_eq!(split_positions(&data, &cfg), split_positions(&data, &cfg));
    }

    #[test]
    fn split_matches_reference_pipeline() {
        for (bits, window, seed) in [(8u32, 48usize, 1u64), (10, 7, 2), (12, 64, 3), (9, 1, 4)] {
            let mut cfg = ChunkerConfig::with_leaf_bits(bits);
            cfg.window = window;
            for kind in [
                RollingKind::CyclicPoly,
                RollingKind::RabinKarp,
                RollingKind::MovingSum,
            ] {
                cfg.rolling = kind;
                let data = pseudo_random(150_000, seed);
                assert_eq!(
                    split_positions(&data, &cfg),
                    split_positions_reference(&data, &cfg),
                    "bits={bits} window={window} {kind:?}"
                );
            }
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

    #[test]
    fn element_feed_matches_reference() {
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let mut fast = LeafChunker::new(&cfg);
        let mut reference = LeafChunker::new_reference(&cfg);
        let data = pseudo_random(60_000, 31);
        let mut off = 0usize;
        let mut len = 1usize;
        while off < data.len() {
            let end = (off + len).min(data.len());
            fast.feed(&data[off..end]);
            reference.feed(&data[off..end]);
            assert_eq!(fast.boundary(), reference.boundary(), "at {off}");
            assert_eq!(fast.current_len(), reference.current_len());
            if fast.boundary() {
                fast.cut();
                reference.cut();
            }
            off = end;
            len = len % 97 + 13;
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
    /// afterwards. Checked per detector and rolling hash, with stretches
    /// shorter than, equal to and longer than the window.
    #[test]
    fn skip_clean_matches_feed_on_clean_stretches() {
        for kind in [
            RollingKind::CyclicPoly,
            RollingKind::RabinKarp,
            RollingKind::MovingSum,
        ] {
            for (bits, window) in [(6u32, 5usize), (8, 48), (10, 64)] {
                let mut cfg = ChunkerConfig::with_leaf_bits(bits);
                cfg.window = window;
                cfg.rolling = kind;
                let data = pseudo_random(80_000, bits as u64 * 7 + window as u64);
                let cuts = split_positions_reference(&data, &cfg);
                for reference in [false, true] {
                    let make = || {
                        if reference {
                            LeafChunker::new_reference(&cfg)
                        } else {
                            LeafChunker::new(&cfg)
                        }
                    };
                    let (mut fed, mut skipped) = (make(), make());
                    let mut prev = 0usize;
                    for &c in &cuts {
                        // No hit in a chunk before its last byte. Skip a
                        // varying share of that stretch, feed the rest.
                        let clean_end = prev + (c - 1 - prev) * (c % 4) / 3;
                        fed.feed(&data[prev..clean_end]);
                        assert!(!fed.boundary(), "{kind:?}: stretch was not clean");
                        assert!(skipped.skip_clean(&data[prev..clean_end]));
                        assert_eq!(fed.current_len(), skipped.current_len());
                        let a = fed.feed_bytewise(&data[clean_end..c]);
                        let b = skipped.feed_bytewise(&data[clean_end..c]);
                        assert_eq!(
                            a, b,
                            "{kind:?} bits={bits} w={window} ref={reference} at {c}"
                        );
                        assert_eq!(fed.current_len(), skipped.current_len());
                        fed.cut();
                        skipped.cut();
                        prev = c;
                    }
                    assert!(skipped.scanned_bytes() < fed.scanned_bytes());
                }
            }
        }
    }

    #[test]
    fn skip_clean_refuses_at_the_cap() {
        let cfg = ChunkerConfig::with_leaf_bits(6);
        let max = cfg.max_leaf_size();
        let data = vec![0xAAu8; max];
        for mut chunker in [LeafChunker::new(&cfg), LeafChunker::new_reference(&cfg)] {
            chunker.feed(&data[..10]);
            assert!(!chunker.skip_clean(&data[..max - 10]), "cap reached");
            assert_eq!(chunker.current_len(), 10, "a refusal consumes nothing");
            assert!(chunker.skip_clean(&data[..max - 11]));
            assert_eq!(chunker.feed_bytewise(&data[..5]), Some(1), "forced cut");
        }
    }

    #[test]
    fn empty_input_has_no_cuts() {
        let cfg = ChunkerConfig::default();
        assert!(split_positions(&[], &cfg).is_empty());
    }
}
