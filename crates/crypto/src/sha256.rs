//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! ForkBase uses SHA-256 as the default chunk hash function (§4.2.1). No
//! cryptographic crates are available offline, so the compression function is
//! implemented here directly; it is validated against the FIPS 180-4 /
//! NIST CAVP test vectors in the unit tests below.
//!
//! Three compression paths are compiled:
//!
//! * SHA-NI (x86-64 only) — the hardware `sha256rnds2`/`sha256msg*`
//!   instructions, selected at runtime when the CPU reports the `sha`
//!   feature. Processes any number of blocks per call with the state held
//!   in registers throughout.
//! * `compress_fast` — fully unrolled 64 rounds with a rolling 16-word
//!   message schedule computed on the fly and no register shuffling (the
//!   round macro permutes its arguments instead). The portable fallback
//!   for [`Sha256`].
//! * `compress_naive` — the original straight-line loop, retained as
//!   the reference implementation ([`Sha256Naive`]) that the equivalence
//!   tests hold [`Sha256`] to.
//!
//! `update` feeds whole 64-byte blocks straight from the caller's slice —
//! the internal buffer is touched only for partial blocks, so
//! [`crate::hash_parts`] hashes scattered parts without materializing
//! their concatenation.

use crate::digest::Digest;

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One application of the SHA-256 compression function — optimized form.
///
/// All 64 rounds are unrolled by macro. Instead of rotating eight
/// variables through each other every round (eight moves the optimizer
/// must see through), the round macro is invoked with its arguments
/// cyclically permuted, so a round is exactly the two temporaries the
/// spec requires. The message schedule lives in a 16-word ring computed
/// on the fly, halving the schedule's cache footprint versus the 64-word
/// array.
#[inline]
pub(crate) fn compress_fast(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (slot, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *slot = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round: t1/t2 per FIPS 180-4 §6.2.2; the caller permutes the
    // variable order so no data moves between rounds.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $i:expr, $wi:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(K[$i])
                .wrapping_add($wi);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }

    // Next schedule word for round $i ≥ 16, updating the 16-word ring.
    macro_rules! schedule {
        ($i:expr) => {{
            let w15 = w[($i + 1) & 15];
            let w2 = w[($i + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[$i & 15] = w[$i & 15]
                .wrapping_add(s0)
                .wrapping_add(w[($i + 9) & 15])
                .wrapping_add(s1);
            w[$i & 15]
        }};
    }

    // Eight rounds with the canonical permutation cycle.
    macro_rules! round8 {
        ($base:expr, $wi:ident) => {
            round!(a, b, c, d, e, f, g, h, $base, $wi!($base));
            round!(h, a, b, c, d, e, f, g, $base + 1, $wi!($base + 1));
            round!(g, h, a, b, c, d, e, f, $base + 2, $wi!($base + 2));
            round!(f, g, h, a, b, c, d, e, $base + 3, $wi!($base + 3));
            round!(e, f, g, h, a, b, c, d, $base + 4, $wi!($base + 4));
            round!(d, e, f, g, h, a, b, c, $base + 5, $wi!($base + 5));
            round!(c, d, e, f, g, h, a, b, $base + 6, $wi!($base + 6));
            round!(b, c, d, e, f, g, h, a, $base + 7, $wi!($base + 7));
        };
    }

    macro_rules! w_direct {
        ($i:expr) => {
            w[$i & 15]
        };
    }
    macro_rules! w_scheduled {
        ($i:expr) => {
            schedule!($i)
        };
    }

    round8!(0, w_direct);
    round8!(8, w_direct);
    round8!(16, w_scheduled);
    round8!(24, w_scheduled);
    round8!(32, w_scheduled);
    round8!(40, w_scheduled);
    round8!(48, w_scheduled);
    round8!(56, w_scheduled);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One application of the SHA-256 compression function — the original
/// straight-line reference, retained as the naive baseline.
pub(crate) fn compress_naive(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// True when the CPU executes the SHA-NI path. `is_x86_feature_detected!`
/// caches its own probe, so this is a couple of relaxed atomic loads.
#[cfg(target_arch = "x86_64")]
#[inline]
fn sha_ni_available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// Compress a run of whole 64-byte blocks with the SHA-NI instructions,
/// keeping the state in registers across blocks.
///
/// Register layout follows Intel's reference flow: the state is carried
/// as two ABEF/CDGH vectors, the message is byte-swapped into big-endian
/// words, and each 4-round step is one `sha256rnds2` pair; from round 16
/// on the next schedule vector is produced by `sha256msg1` +
/// aligned-add + `sha256msg2`.
///
/// # Safety
/// Caller must ensure the CPU supports `sha`, `sse4.1` and `ssse3`
/// (checked via [`sha_ni_available`]) and that `blocks.len() % 64 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(blocks.len() % 64, 0);

    let shuf = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);

    // DCBA / HGFE word order in memory → ABEF / CDGH vectors.
    let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1); // CDAB
    let st1 = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B); // EFGH
    let mut state0 = _mm_alignr_epi8(tmp, st1, 8); // ABEF
    let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0); // CDGH

    for block in blocks.chunks_exact(64) {
        let abef_save = state0;
        let cdgh_save = state1;

        macro_rules! k4 {
            ($i:expr) => {
                _mm_loadu_si128(K.as_ptr().add($i).cast())
            };
        }
        // Four rounds from the schedule vector `$m` (+ round constants).
        macro_rules! rounds4 {
            ($m:expr, $i:expr) => {{
                let mut msg = _mm_add_epi32($m, k4!($i));
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                msg = _mm_shuffle_epi32(msg, 0x0E);
                state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            }};
        }
        // Produce the next schedule vector into `$m0` from the previous
        // four, then run its rounds.
        macro_rules! gen4 {
            ($m0:ident, $m1:ident, $m2:ident, $m3:ident, $i:expr) => {{
                $m0 = _mm_sha256msg1_epu32($m0, $m1);
                let t = _mm_alignr_epi8($m3, $m2, 4); // w[i-7] lane source
                $m0 = _mm_add_epi32($m0, t);
                $m0 = _mm_sha256msg2_epu32($m0, $m3);
                rounds4!($m0, $i);
            }};
        }

        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), shuf);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), shuf);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), shuf);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), shuf);

        rounds4!(msg0, 0);
        rounds4!(msg1, 4);
        rounds4!(msg2, 8);
        rounds4!(msg3, 12);
        gen4!(msg0, msg1, msg2, msg3, 16);
        gen4!(msg1, msg2, msg3, msg0, 20);
        gen4!(msg2, msg3, msg0, msg1, 24);
        gen4!(msg3, msg0, msg1, msg2, 28);
        gen4!(msg0, msg1, msg2, msg3, 32);
        gen4!(msg1, msg2, msg3, msg0, 36);
        gen4!(msg2, msg3, msg0, msg1, 40);
        gen4!(msg3, msg0, msg1, msg2, 44);
        gen4!(msg0, msg1, msg2, msg3, 48);
        gen4!(msg1, msg2, msg3, msg0, 52);
        gen4!(msg2, msg3, msg0, msg1, 56);
        gen4!(msg3, msg0, msg1, msg2, 60);

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);
    }

    // ABEF / CDGH → DCBA / HGFE memory order.
    let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
    let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
    let out0 = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
    let out1 = _mm_alignr_epi8(st1, tmp, 8); // HGFE
    _mm_storeu_si128(state.as_mut_ptr().cast(), out0);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), out1);
}

/// Incremental SHA-256 hasher, monomorphized over the compression
/// function (`NAIVE = false` → SHA-NI when available, else
/// `compress_fast`; `true` → `compress_naive`).
///
/// Use through the [`Sha256`] / [`Sha256Naive`] aliases:
///
/// ```
/// use forkbase_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256Core<const NAIVE: bool> {
    state: [u32; 8],
    /// Partially filled message block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

/// The production hasher (optimized compression).
pub type Sha256 = Sha256Core<false>;

/// The retained reference hasher (original compression function), the
/// equivalence oracle for [`Sha256`].
pub type Sha256Naive = Sha256Core<true>;

impl<const NAIVE: bool> Default for Sha256Core<NAIVE> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const NAIVE: bool> Sha256Core<NAIVE> {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Sha256Core {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, block: &[u8; 64]) {
        self.compress_many(block);
    }

    /// Compress a run of whole 64-byte blocks (`data.len() % 64 == 0`).
    /// The SHA-NI path keeps the state in registers for the entire run.
    fn compress_many(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        if NAIVE {
            for block in data.chunks_exact(64) {
                let arr: &[u8; 64] = block.try_into().expect("64-byte block");
                compress_naive(&mut self.state, arr);
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if sha_ni_available() {
            // Safety: feature presence checked the line above; length
            // invariant asserted on entry.
            unsafe { compress_blocks_shani(&mut self.state, data) };
            return;
        }
        for block in data.chunks_exact(64) {
            let arr: &[u8; 64] = block.try_into().expect("64-byte block");
            compress_fast(&mut self.state, arr);
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partial block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input, no copies, one dispatch
        // for the entire run.
        let full = input.len() - input.len() % 64;
        if full > 0 {
            let (blocks, rest) = input.split_at(full);
            self.compress_many(blocks);
            input = rest;
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finish the computation and return the digest. The hasher is consumed;
    /// clone it first if the running state must be kept.
    pub fn finalize(mut self) -> Digest {
        crate::metrics::hashed(self.total_len);
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len > 56 {
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..56].fill(0);
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 through the retained naive compression function —
/// the equivalence oracle for `compress_fast`.
pub fn sha256_naive(data: &[u8]) -> Digest {
    let mut h = Sha256Naive::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        sha256(data).to_hex()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(
            hex(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        // Feed in awkward pieces to exercise buffering paths.
        for piece in [1usize, 3, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(piece) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "piece size {piece}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding edge cases.
        for len in 0..=130usize {
            let data = vec![0xa5u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn fast_compress_matches_naive_compress() {
        let mut state = 0x243f6a8885a308d3u64; // deterministic block source
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for _ in 0..500 {
            let mut block = [0u8; 64];
            for b in block.iter_mut() {
                *b = next();
            }
            let mut s1 = H0;
            let mut s2 = H0;
            compress_fast(&mut s1, &block);
            compress_naive(&mut s2, &block);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn naive_and_fast_hashers_agree() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 1000, 4096, 100_000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(sha256(&data), sha256_naive(&data), "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b"ab"), sha256(b"a"));
        assert_ne!(sha256(&[0u8]), sha256(&[0u8, 0u8]));
    }
}
