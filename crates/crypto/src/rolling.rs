//! The rolling hash of content-defined chunking (§4.3.2).
//!
//! The pattern that ends a POS-Tree leaf node is
//! `P(b₁…b_k) & (2^q − 1) == 0` where `P` is a rolling hash over a window of
//! `k` bytes. The paper implements `P` as the cyclic polynomial rolling hash
//! (Cohen 1997) and reports it as ~20% of POS-Tree build cost, which
//! motivates the cheaper cid-based pattern P′ for index nodes. [`CyclicPoly`]
//! is that hash and the only one: it is part of the content → cid mapping,
//! so every store must use the same one.
//!
//! # Per byte and per slice
//!
//! * [`CyclicPoly::roll`] consumes one byte. It is the reference step:
//!   [`split_positions_reference`](crate::split_positions_reference) and
//!   the equivalence tests loop over it.
//! * [`CyclicPoly::scan_boundary`] / [`CyclicPoly::feed_detect`] consume
//!   whole slices. A scan splits into a short warm-up region (outgoing
//!   bytes come from the ring buffer) and a steady-state loop in which
//!   both the incoming and the outgoing byte are read from the input
//!   slice itself — no ring buffer writes, no modulo, no bounds checks
//!   (paired slice iterators), and a precomputed outgoing-byte table that
//!   folds the rotation of the retiring byte into one lookup.
//!
//! Both produce bit-identical hash sequences; the equivalence proptests
//! in `tests/equivalence.rs` pin that down.

/// Deterministic per-byte randomization table.
///
/// `h` in the paper maps a byte to a pseudo-random integer; we derive the
/// table from splitmix64 with a fixed seed so chunk boundaries — and hence
/// every cid in the system — are stable across runs and platforms.
const fn byte_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut i = 0;
    while i < 256 {
        // splitmix64 step
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// [`byte_table`], computed at compile time for the lane kernel.
pub(crate) static BYTE_TABLE: [u64; 256] = byte_table();

/// Cyclic polynomial rolling hash (buzhash).
///
/// `P(b₁…b_k) = s^{k−1}(h(b₁)) ⊕ … ⊕ s⁰(h(b_k))` where `s` is a 1-bit left
/// rotation. Updated recursively per the paper:
/// `P(b₁…b_k) = s(P(b₀…b_{k−1})) ⊕ s^k(h(b₀)) ⊕ h(b_k)`.
pub struct CyclicPoly {
    table: [u64; 256],
    /// `table[b].rotate_left(k mod 64)` — the retiring byte's full
    /// contribution, precomputed for the steady-state block loop.
    table_out: [u64; 256],
    window: usize,
    buf: Vec<u8>,
    /// Next slot in the circular buffer.
    pos: usize,
    consumed: usize,
    hash: u64,
    /// `k mod 64`, precomputed for the `s^k` rotation of the outgoing byte.
    k_rot: u32,
}

impl CyclicPoly {
    /// Create with window size `k` (must be ≥ 1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window must be at least 1 byte");
        let table = byte_table();
        let k_rot = (k % 64) as u32;
        let mut table_out = [0u64; 256];
        for (out, &t) in table_out.iter_mut().zip(table.iter()) {
            *out = t.rotate_left(k_rot);
        }
        CyclicPoly {
            table,
            table_out,
            window: k,
            buf: vec![0u8; k],
            pos: 0,
            consumed: 0,
            hash: 0,
            k_rot,
        }
    }

    /// Reset to the empty state (no bytes consumed).
    pub fn reset(&mut self) {
        self.pos = 0;
        self.consumed = 0;
        self.hash = 0;
        self.buf.fill(0);
    }

    /// Consume one byte and return the hash of the current window; once
    /// `window` bytes have been consumed the oldest falls out.
    #[inline]
    pub fn roll(&mut self, byte: u8) -> u64 {
        let incoming = self.table[byte as usize];
        if self.consumed >= self.window {
            let outgoing = self.table[self.buf[self.pos] as usize];
            self.hash = self.hash.rotate_left(1) ^ outgoing.rotate_left(self.k_rot) ^ incoming;
        } else {
            self.hash = self.hash.rotate_left(1) ^ incoming;
        }
        self.buf[self.pos] = byte;
        self.pos += 1;
        if self.pos == self.window {
            self.pos = 0;
        }
        self.consumed += 1;
        self.hash
    }

    /// True once a full window has been consumed, i.e. the hash value is
    /// meaningful for boundary detection.
    pub fn primed(&self) -> bool {
        self.consumed >= self.window
    }

    /// Append the bytes the window holds to `out`, oldest first: the last
    /// `window` bytes consumed, or every byte consumed if fewer.
    pub fn window_bytes(&self, out: &mut Vec<u8>) {
        if self.primed() {
            out.extend_from_slice(&self.buf[self.pos..]);
            out.extend_from_slice(&self.buf[..self.pos]);
        } else {
            out.extend_from_slice(&self.buf[..self.consumed]);
        }
    }

    /// Consume bytes from `data` until the first position where the hash
    /// is primed and `hash & mask == 0`. Returns `Some(n)` — `n` bytes
    /// consumed, the pattern firing on the `n`-th — or `None` with the
    /// whole slice consumed and no hit.
    ///
    /// The steady-state loop is unrolled four ways. A step
    /// `h_j = s(h_{j-1}) ^ a_j` (with `a_j` the combined retiring/incoming
    /// contribution) chains one rotate and one xor per byte. Because the
    /// 1-bit rotation `s` distributes over xor, four steps collapse
    /// algebraically:
    ///
    /// ```text
    /// h_{j+4} = s⁴(h_j) ^ s³(a_{j+1}) ^ s²(a_{j+2}) ^ s(a_{j+3}) ^ a_{j+4}
    /// ```
    ///
    /// so the carried chain becomes one `rotate_left(4)` plus a xor-tree
    /// per **four** bytes, with the intermediate hashes `h_{j+1..j+3}`
    /// (needed for the boundary check) computed off the critical path.
    #[inline]
    pub fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        let k = self.window;
        if let Some(hit) = self.warm_up(data, mask) {
            return Some(hit);
        }
        if data.len() <= k {
            return None;
        }
        let n = data.len() - k;
        let out = &data[..n];
        let inc = &data[k..];
        let mut hash = self.hash;
        let mut hit = None;
        let mut j = 0usize;
        let blocks = n & !3;
        for (o, i) in out[..blocks]
            .chunks_exact(4)
            .zip(inc[..blocks].chunks_exact(4))
        {
            let o: [u8; 4] = o.try_into().expect("chunk of 4");
            let i: [u8; 4] = i.try_into().expect("chunk of 4");
            let a1 = self.table_out[o[0] as usize] ^ self.table[i[0] as usize];
            let a2 = self.table_out[o[1] as usize] ^ self.table[i[1] as usize];
            let a3 = self.table_out[o[2] as usize] ^ self.table[i[2] as usize];
            let a4 = self.table_out[o[3] as usize] ^ self.table[i[3] as usize];
            let h1 = hash.rotate_left(1) ^ a1;
            let h2 = hash.rotate_left(2) ^ a1.rotate_left(1) ^ a2;
            let h3 = hash.rotate_left(3) ^ (a1.rotate_left(2) ^ a2.rotate_left(1)) ^ a3;
            let h4 = hash.rotate_left(4)
                ^ (a1.rotate_left(3) ^ a2.rotate_left(2))
                ^ (a3.rotate_left(1) ^ a4);
            if (h1 & mask == 0) | (h2 & mask == 0) | (h3 & mask == 0) | (h4 & mask == 0) {
                let (step, at_hash) = if h1 & mask == 0 {
                    (1, h1)
                } else if h2 & mask == 0 {
                    (2, h2)
                } else if h3 & mask == 0 {
                    (3, h3)
                } else {
                    (4, h4)
                };
                hash = at_hash;
                hit = Some(k + j + step);
                break;
            }
            hash = h4;
            j += 4;
        }
        if hit.is_none() {
            for (&o, &i) in out[j..].iter().zip(&inc[j..n]) {
                hash = self.step(hash, o, i);
                j += 1;
                if hash & mask == 0 {
                    hit = Some(k + j);
                    break;
                }
            }
        }
        self.commit(hash, &data[..hit.unwrap_or(data.len())]);
        hit
    }

    /// Consume **all** of `data`, returning whether the pattern
    /// (`primed && hash & mask == 0`) fired at any byte. Unlike
    /// [`scan_boundary`](Self::scan_boundary) this never stops early —
    /// it backs the element-at-a-time feed, where a mid-element hit only
    /// extends the chunk to the element end (§4.3.2).
    #[inline]
    pub fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool {
        let k = self.window;
        let mut fired = false;
        for &b in &data[..data.len().min(k)] {
            let v = self.roll(b);
            fired |= self.primed() && v & mask == 0;
        }
        if data.len() <= k {
            return fired;
        }
        let mut hash = self.hash;
        for (&out, &inc) in data[..data.len() - k].iter().zip(&data[k..]) {
            hash = self.step(hash, out, inc);
            fired |= hash & mask == 0;
        }
        self.commit(hash, data);
        fired
    }

    /// The warm-up prologue of a scan: roll the first `min(k, len)` bytes
    /// through the per-byte step (the retiring byte, if any, lives in the
    /// ring buffer), returning an early hit.
    #[inline]
    fn warm_up(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        let warm = data.len().min(self.window);
        for (i, &b) in data[..warm].iter().enumerate() {
            let v = self.roll(b);
            if self.primed() && v & mask == 0 {
                return Some(i + 1);
            }
        }
        None
    }

    /// One steady-state step: `out` retires, `inc` enters.
    #[inline]
    fn step(&self, hash: u64, out: u8, inc: u8) -> u64 {
        hash.rotate_left(1) ^ self.table_out[out as usize] ^ self.table[inc as usize]
    }

    /// Commit a steady-state run over `scanned` (which includes the
    /// `window` warm-up bytes): the final hash, the bytes consumed past
    /// the warm-up, and the last `window` bytes as the ring's content,
    /// oldest first.
    #[inline]
    fn commit(&mut self, hash: u64, scanned: &[u8]) {
        let k = self.window;
        self.hash = hash;
        self.consumed += scanned.len() - k;
        self.buf.copy_from_slice(&scanned[scanned.len() - k..]);
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining property of a rolling hash: the value after consuming a
    /// stream depends only on the final window, not on prior content.
    fn window_only_property(window: usize) {
        let mut h = CyclicPoly::new(window);
        let tail: Vec<u8> = (0..window as u32).map(|i| (i * 31 + 7) as u8).collect();

        let mut v1 = 0;
        for &b in b"some long irrelevant prefix data ......."
            .iter()
            .chain(&tail)
        {
            v1 = h.roll(b);
        }

        h.reset();
        let mut v2 = 0;
        for &b in b"completely different prefix!!".iter().chain(&tail) {
            v2 = h.roll(b);
        }
        assert_eq!(v1, v2, "hash must depend only on the last {window} bytes");
    }

    #[test]
    fn cyclic_poly_depends_only_on_window() {
        for window in [1, 4, 7, 16, 47, 48, 64] {
            window_only_property(window);
        }
    }

    #[test]
    fn window_bytes_are_the_last_bytes_consumed() {
        for window in [1usize, 5, 48] {
            let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
            for len in [0, 1, window - 1, window, window + 1, 3 * window + 2, 200] {
                // Rolled byte by byte and fed as one slice (the steady-state
                // commit rewrites the ring): same bytes either way.
                let (mut rolled, mut fed) = (CyclicPoly::new(window), CyclicPoly::new(window));
                data[..len].iter().for_each(|&b| {
                    rolled.roll(b);
                });
                fed.feed_detect(&data[..len], 0);
                let want = &data[len.saturating_sub(window)..len];
                for h in [&rolled, &fed] {
                    let mut got = Vec::new();
                    h.window_bytes(&mut got);
                    assert_eq!(got, want, "window {window} len {len}");
                }
            }
        }
    }

    #[test]
    fn primed_after_full_window() {
        let mut h = CyclicPoly::new(4);
        assert!(!h.primed());
        for b in 0..3u8 {
            h.roll(b);
            assert!(!h.primed());
        }
        h.roll(3);
        assert!(h.primed());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = CyclicPoly::new(8);
        let first: Vec<u64> = (0..20u8).map(|b| h.roll(b)).collect();
        h.reset();
        let second: Vec<u64> = (0..20u8).map(|b| h.roll(b)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn different_windows_give_different_hashes() {
        let data = b"abcdefghijklmnopqrstuvwxyz";
        let run = |k: usize| {
            let mut h = CyclicPoly::new(k);
            let mut v = 0;
            for &b in data {
                v = h.roll(b);
            }
            v
        };
        assert_ne!(run(8), run(9));
    }

    #[test]
    fn boundary_rate_is_near_expected() {
        // With q mask bits, boundaries should fire with rate ≈ 2^-q.
        let q = 8u32; // expect ~1/256
        let mask = (1u64 << q) - 1;
        let n = 1_000_000usize;
        for window in [16, 48, 64] {
            let mut h = CyclicPoly::new(window);
            let mut hits = 0usize;
            let mut state: u64 = 42;
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let byte = (state >> 33) as u8;
                let v = h.roll(byte);
                if h.primed() && v & mask == 0 {
                    hits += 1;
                }
            }
            let expected = n as f64 / 256.0;
            let ratio = hits as f64 / expected;
            assert!(
                (0.7..1.3).contains(&ratio),
                "window {window}: hit rate off: {hits} vs expected {expected}"
            );
        }
    }

    #[test]
    fn byte_table_is_deterministic() {
        assert_eq!(byte_table(), byte_table());
        // Spot-check a couple of entries so accidental changes to the seed
        // (which would change every cid in the system) are caught.
        let t = byte_table();
        assert_ne!(t[0], t[1]);
        assert_ne!(t[0], 0);
    }

    /// Reference per-byte scan, for comparing against block scans.
    fn scan_per_byte(h: &mut CyclicPoly, data: &[u8], mask: u64) -> Option<usize> {
        for (i, &b) in data.iter().enumerate() {
            let v = h.roll(b);
            if h.primed() && v & mask == 0 {
                return Some(i + 1);
            }
        }
        None
    }

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
    fn block_scan_matches_per_byte_scan() {
        let mask = (1u64 << 9) - 1;
        for window in [1usize, 4, 7, 16, 47, 48, 64, 65] {
            let data = pseudo_random(20_000, window as u64 * 31 + 5);
            let mut naive = CyclicPoly::new(window);
            let mut fast = CyclicPoly::new(window);

            // Drive both through the same sequence of chunk scans.
            let mut off = 0usize;
            loop {
                let a = scan_per_byte(&mut naive, &data[off..], mask);
                let b = fast.scan_boundary(&data[off..], mask);
                assert_eq!(a, b, "w={window} at {off}");
                match a {
                    Some(n) => off += n,
                    None => break,
                }
            }
            assert_eq!(naive.consumed, fast.consumed);
        }
    }

    #[test]
    fn feed_detect_matches_per_byte_feed() {
        let mask = (1u64 << 7) - 1;
        for window in [1usize, 4, 16, 47, 48, 64] {
            let data = pseudo_random(30_000, 77 + window as u64);
            let mut naive = CyclicPoly::new(window);
            let mut fast = CyclicPoly::new(window);
            // Feed in uneven element-sized pieces.
            let mut off = 0usize;
            let mut piece = 1usize;
            while off < data.len() {
                let end = (off + piece).min(data.len());
                let slice = &data[off..end];
                let mut fired_naive = false;
                for &b in slice {
                    let v = naive.roll(b);
                    fired_naive |= naive.primed() && v & mask == 0;
                }
                let fired_fast = fast.feed_detect(slice, mask);
                assert_eq!(fired_naive, fired_fast, "w={window} off={off} len={piece}");
                off = end;
                piece = piece % 193 + 17; // vary element sizes
            }
        }
    }

    #[test]
    fn block_scan_handles_tiny_and_empty_slices() {
        let mask = (1u64 << 4) - 1;
        let mut s = CyclicPoly::new(48);
        assert_eq!(s.scan_boundary(&[], mask), None);
        assert!(!s.feed_detect(&[], mask));
        // Singles across the warm boundary.
        let data = pseudo_random(200, 3);
        let mut naive = CyclicPoly::new(48);
        for &b in &data {
            let a = scan_per_byte(&mut naive, std::slice::from_ref(&b), mask);
            let f = s.scan_boundary(std::slice::from_ref(&b), mask);
            assert_eq!(a, f);
        }
    }
}
