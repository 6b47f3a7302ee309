//! The sixteen-lane pattern-hit kernel: every position where the cyclic
//! polynomial fires over a run of bytes, sixteen lanes at a time in two
//! AVX-512 registers of 8 × u64.
//!
//! The scalar scanner pays two table lookups per byte, one for the
//! incoming and one for the retiring byte. The kernel pays one. With
//! `T` the byte table and `s` the 1-bit left rotation, let
//! `Q_j = s(Q_{j−1}) ⊕ T[x_j]` (the hash of every byte so far, never
//! retiring one). Because `s` distributes over ⊕, the window hash is
//!
//! ```text
//! P_j = Q_j ⊕ s^k(Q_{j−k})        (k = window, s^k = rotate by k mod 64)
//! ```
//!
//! so the retiring term is read back from a ring of the lane's own last
//! `k` values of `Q` instead of re-rolling the window byte by byte.
//!
//! Each lane owns one contiguous segment. Before its first byte it warms
//! up on the `k` bytes just before the segment (bytes before the input's
//! start contribute nothing), which fills its ring. A position `p < k`
//! has fewer than `k` bytes behind it, so the scanner there is not
//! primed and its hits are dropped — the priming rule of
//! [`CyclicPoly::primed`](crate::CyclicPoly::primed). Lanes step
//! eight bytes per data gather, so they cover a multiple of 128 bytes;
//! the caller scans the rest, with one more step over the last 128 bytes
//! or with the scalar scanner. The crate README's
//! "Lanes" section has the bound that keeps every gather inside the
//! input.

use crate::chunker::ChunkerConfig;
use crate::rolling::BYTE_TABLE;

/// Lanes the kernel runs at once.
pub const LANES: usize = 16;
/// Bytes a lane consumes per data gather (one u64 word).
pub const STEP: usize = 8;
/// The largest window the kernel takes: its ring holds `window × LANES`
/// u64s, 32 KiB at this bound. Larger windows take the scalar scanner.
pub const MAX_WINDOW: usize = 256;

/// True when the CPU runs the kernel (`avx512f`, detected at runtime).
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the kernel can scan with a `window`-byte window: the CPU
/// has it and the window fits the ring.
fn runs(window: usize) -> bool {
    window <= MAX_WINDOW && available()
}

/// True when [`split_positions`](crate::split_positions) hands a run of
/// `len` bytes, scanned with a `window`-byte window, to the kernel: the
/// kernel runs and `len` is at least
/// [`LANE_SCAN_MIN`](crate::chunker::LANE_SCAN_MIN).
pub fn scans(window: usize, len: usize) -> bool {
    len >= crate::chunker::LANE_SCAN_MIN && runs(window)
}

/// Every pattern hit of `data` under `cfg`, the kernel covering all it
/// can whatever the input's size (the scalar scanner takes the remainder
/// under one lane step), or `None` where the kernel cannot run. The
/// production path is [`pattern_hits`](crate::chunker::pattern_hits),
/// which leaves short inputs to the scalar scanner; this entry point
/// exists so the kernel can be tested at every length.
pub fn pattern_hits(data: &[u8], cfg: &ChunkerConfig) -> Option<Vec<usize>> {
    let mask = cfg.leaf_mask();
    if !runs(cfg.window) {
        return None;
    }
    let mut hits = Vec::new();
    let done = scan(data, 0..data.len(), cfg.window, mask, &mut hits);
    crate::chunker::scalar_hits_into(data, done..data.len(), cfg.window, mask, &mut hits);
    Some(hits)
}

/// Push, in order, every hit `p` (the pattern fires on byte `p − 1`)
/// with `p` in `range.start + 1 ..= end`, where `end` is the returned
/// position: `range.start` plus the largest multiple of `LANES × STEP`
/// that fits in the range. The caller scans `end..range.end` itself.
/// The caller checks that the kernel runs under its config.
pub(crate) fn scan(
    data: &[u8],
    range: std::ops::Range<usize>,
    window: usize,
    mask: u64,
    hits: &mut Vec<usize>,
) -> usize {
    assert!(available() && range.end <= data.len() && (1..=MAX_WINDOW).contains(&window));
    let seg = (range.end.saturating_sub(range.start) / (LANES * STEP)) * STEP;
    if seg == 0 {
        return range.start;
    }
    let starts: [usize; LANES] = std::array::from_fn(|lane| range.start + lane * seg);
    let mut ring = vec![0u64; window * LANES];
    let mut q = [0u64; LANES];
    // Warm up on the `window` bytes before each segment, the lanes side by
    // side; ring slot `t` holds each lane's `Q` after byte `start − window + t`.
    for (t, slot) in ring.chunks_exact_mut(LANES).enumerate() {
        for ((q, cell), &s) in q.iter_mut().zip(slot).zip(&starts) {
            if let Some(p) = (s + t).checked_sub(window) {
                *q = q.rotate_left(1) ^ BYTE_TABLE[data[p] as usize];
            }
            *cell = *q;
        }
    }
    let first = hits.len();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above checked `avx512f`; `seg` is a multiple of
    // `STEP`; `starts[LANES − 1] + seg = range.start + LANES·seg ≤
    // range.end ≤ data.len()` (README "Lanes"); `ring` holds `window`
    // slots of `LANES`.
    unsafe {
        avx512::scan(data, &starts, seg, window, mask, &q, &mut ring, hits)
    };
    hits[first..].sort_unstable();
    crate::metrics::lane_scanned(LANES * seg);
    range.start + LANES * seg
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BYTE_TABLE, LANES, STEP};
    use std::arch::x86_64::*;

    /// The kernel's main loop: lane `i` scans `starts[i] .. starts[i] + seg`
    /// with `q[i]` and `ring[.. + i]` warmed up. Hits are pushed in step
    /// order, lanes interleaved.
    ///
    /// # Safety
    /// `avx512f` must be available. The bounds of the gathers and of the
    /// ring accesses are asserted on entry.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn scan(
        data: &[u8],
        starts: &[usize; LANES],
        seg: usize,
        window: usize,
        mask: u64,
        q: &[u64; LANES],
        ring: &mut [u64],
        hits: &mut Vec<usize>,
    ) {
        // Every lane's last data gather ends at `starts[lane] + seg`, and
        // ring slots run `0..window`: these asserts are what the raw
        // accesses below rely on.
        assert!(seg.is_multiple_of(STEP) && starts.iter().all(|&s| s + seg <= data.len()));
        assert_eq!(ring.len(), window * LANES);
        let base = data.as_ptr() as *const i64;
        let table = BYTE_TABLE.as_ptr() as *const i64;
        let off = [0, 8].map(|h| _mm512_loadu_si512(starts[h..].as_ptr() as *const __m512i));
        let mut qv = [0, 8].map(|h| _mm512_loadu_si512(q[h..].as_ptr() as *const __m512i));
        let k_rot = _mm512_set1_epi64((window % 64) as i64);
        let mask_v = _mm512_set1_epi64(mask as i64);
        let byte = _mm512_set1_epi64(0xff);
        let ring = ring.as_mut_ptr();
        let mut slot = 0usize;
        for t0 in (0..seg).step_by(STEP) {
            // One u64 of each lane's next eight bytes.
            let at = _mm512_set1_epi64(t0 as i64);
            let mut words = off.map(|o| _mm512_i64gather_epi64::<1>(_mm512_add_epi64(o, at), base));
            // Bit `16·b + lane` set: the pattern fired on the lane's byte
            // `t0 + b`. Hits are rare, so they are read out once per word.
            let mut fired = 0u128;
            for b in 0..STEP {
                for h in 0..2 {
                    let x = _mm512_and_si512(words[h], byte);
                    words[h] = _mm512_srli_epi64::<8>(words[h]);
                    let tx = _mm512_i64gather_epi64::<8>(x, table);
                    qv[h] = _mm512_xor_si512(_mm512_rol_epi64::<1>(qv[h]), tx);
                    let cell = ring.add(slot * LANES + h * 8) as *mut __m512i;
                    let old = _mm512_loadu_si512(cell);
                    _mm512_storeu_si512(cell, qv[h]);
                    let p = _mm512_xor_si512(qv[h], _mm512_rolv_epi64(old, k_rot));
                    let m = _mm512_testn_epi64_mask(p, mask_v) as u128;
                    fired |= m << (LANES * b + 8 * h);
                }
                slot += 1;
                if slot == window {
                    slot = 0;
                }
            }
            while fired != 0 {
                let bit = fired.trailing_zeros() as usize;
                fired &= fired - 1;
                let p = starts[bit % LANES] + t0 + bit / LANES + 1;
                if p >= window {
                    hits.push(p);
                }
            }
        }
    }
}
