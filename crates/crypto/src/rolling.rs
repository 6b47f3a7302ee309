//! Rolling hash functions for content-defined chunking (§4.3.2).
//!
//! The pattern that ends a POS-Tree leaf node is
//! `P(b₁…b_k) & (2^q − 1) == 0` where `P` is a rolling hash over a window of
//! `k` bytes. The paper implements `P` as the cyclic polynomial rolling hash
//! (Cohen 1997) and reports it as ~20% of POS-Tree build cost, which
//! motivates the cheaper cid-based pattern P′ for index nodes. We provide
//! the paper's cyclic polynomial plus the two alternatives it mentions
//! (Rabin–Karp and moving sum) behind a single trait so the choice can be
//! benchmarked (`crypto_micro` ablation bench).
//!
//! # Two execution tiers
//!
//! * **Reference tier** — [`RollingHash::roll`], one byte per call,
//!   usually through `Box<dyn RollingHash>` ([`RollingKind::build`]).
//!   This is the naive baseline the optimized path is validated against
//!   (`--features naive-baseline` routes production through it).
//! * **Block tier** — [`RollingHash::scan_boundary`] /
//!   [`RollingHash::feed_detect`] consume whole slices. Concrete types
//!   are reached through the [`RollingScanner`] enum, so the
//!   implementation choice is decided **once per slice** (and the enum is
//!   constructed once per chunker), never per byte. Inside a slice the
//!   scan splits into a short warm-up region (outgoing bytes come from
//!   the ring buffer) and a steady-state loop in which both the incoming
//!   and the outgoing byte are read from the input slice itself — no ring
//!   buffer writes, no modulo, no bounds checks (paired slice iterators),
//!   and a precomputed outgoing-byte table that folds the per-byte
//!   `rotate`/`multiply` of the retiring byte into one lookup.
//!
//! Both tiers produce bit-identical hash sequences; the equivalence
//! proptests in `tests/equivalence.rs` pin that down.

/// A rolling hash over a fixed-size window of bytes.
///
/// Implementations are fed one byte at a time with [`roll`](Self::roll);
/// once at least `window` bytes have been consumed the oldest byte falls out
/// of the active set automatically. Slice-at-a-time consumers should prefer
/// [`scan_boundary`](Self::scan_boundary) and
/// [`feed_detect`](Self::feed_detect), which concrete implementations
/// override with block-oriented loops.
pub trait RollingHash {
    /// Reset to the empty state (no bytes consumed).
    fn reset(&mut self);

    /// Consume one byte and return the hash of the current window.
    fn roll(&mut self, byte: u8) -> u64;

    /// Number of bytes consumed since the last reset.
    fn consumed(&self) -> usize;

    /// Window size `k` in bytes.
    fn window(&self) -> usize;

    /// True once a full window has been consumed, i.e. the hash value is
    /// meaningful for boundary detection.
    fn primed(&self) -> bool {
        self.consumed() >= self.window()
    }

    /// Consume bytes from `data` until the first position where the hash
    /// is primed and `hash & mask == 0`. Returns `Some(n)` — `n` bytes
    /// consumed, the pattern firing on the `n`-th — or `None` with the
    /// whole slice consumed and no hit.
    ///
    /// The default is the per-byte reference loop (monomorphized when
    /// called on a concrete type); implementations override it with a
    /// block-oriented scan.
    fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize>
    where
        Self: Sized,
    {
        for (i, &b) in data.iter().enumerate() {
            let h = self.roll(b);
            if self.primed() && h & mask == 0 {
                return Some(i + 1);
            }
        }
        None
    }

    /// Consume **all** of `data`, returning whether the pattern
    /// (`primed && hash & mask == 0`) fired at any byte. Unlike
    /// [`scan_boundary`](Self::scan_boundary) this never stops early —
    /// it backs the element-at-a-time feed, where a mid-element hit only
    /// extends the chunk to the element end (§4.3.2).
    fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool
    where
        Self: Sized,
    {
        let mut fired = false;
        for &b in data {
            let h = self.roll(b);
            fired |= self.primed() && h & mask == 0;
        }
        fired
    }
}

/// Which rolling hash to use; an ablation knob for the chunker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RollingKind {
    /// Cyclic polynomial ("buzhash"), the paper's choice.
    CyclicPoly,
    /// Rabin–Karp polynomial hash.
    RabinKarp,
    /// Moving sum — cheapest, weakest randomness.
    MovingSum,
}

impl RollingKind {
    /// Instantiate the selected hash behind a trait object. This is the
    /// retained naive-baseline construction: every
    /// [`roll`](RollingHash::roll) goes through a virtual call. Production code
    /// uses [`scanner`](Self::scanner) instead.
    pub fn build(self, k: usize) -> Box<dyn RollingHash + Send> {
        match self {
            RollingKind::CyclicPoly => Box::new(CyclicPoly::new(k)),
            RollingKind::RabinKarp => Box::new(RabinKarp::new(k)),
            RollingKind::MovingSum => Box::new(MovingSum::new(k)),
        }
    }

    /// Instantiate the selected hash as a [`RollingScanner`]: enum
    /// dispatch happens here (and once per slice call), after which every
    /// inner loop runs monomorphized on the concrete type.
    pub fn scanner(self, k: usize) -> RollingScanner {
        match self {
            RollingKind::CyclicPoly => RollingScanner::CyclicPoly(CyclicPoly::new(k)),
            RollingKind::RabinKarp => RollingScanner::RabinKarp(RabinKarp::new(k)),
            RollingKind::MovingSum => RollingScanner::MovingSum(MovingSum::new(k)),
        }
    }
}

/// Devirtualized rolling-hash dispatcher. One `match` per *slice-level*
/// operation selects the concrete implementation; the per-byte inner
/// loops below it are fully monomorphized.
pub enum RollingScanner {
    /// Cyclic polynomial ("buzhash").
    CyclicPoly(CyclicPoly),
    /// Rabin–Karp polynomial hash.
    RabinKarp(RabinKarp),
    /// Moving sum.
    MovingSum(MovingSum),
}

macro_rules! dispatch {
    ($self:expr, $h:ident => $e:expr) => {
        match $self {
            RollingScanner::CyclicPoly($h) => $e,
            RollingScanner::RabinKarp($h) => $e,
            RollingScanner::MovingSum($h) => $e,
        }
    };
}

impl RollingScanner {
    /// See [`RollingHash::reset`].
    pub fn reset(&mut self) {
        dispatch!(self, h => h.reset())
    }

    /// See [`RollingHash::window`].
    pub fn window(&self) -> usize {
        dispatch!(self, h => h.window())
    }

    /// See [`RollingHash::consumed`].
    pub fn consumed(&self) -> usize {
        dispatch!(self, h => h.consumed())
    }

    /// See [`RollingHash::scan_boundary`].
    #[inline]
    pub fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        dispatch!(self, h => h.scan_boundary(data, mask))
    }

    /// See [`RollingHash::feed_detect`].
    #[inline]
    pub fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool {
        dispatch!(self, h => h.feed_detect(data, mask))
    }
}

/// Deterministic per-byte randomization table shared by the hashes.
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

// ---------------------------------------------------------------------------
// Shared block-scan engine
// ---------------------------------------------------------------------------

/// Internal hook set letting the three hashes share one block-scan engine.
///
/// `combine` folds one steady-state step: `table_out` already carries the
/// full contribution of the retiring byte (`s^k(h(b))` for cyclic poly,
/// `h(b)·B^k` for Rabin–Karp), so a step is one lookup per byte end plus
/// the combine arithmetic — no ring-buffer access, no rotation of the
/// outgoing value.
trait BlockScan: RollingHash + Sized {
    /// Incoming-byte randomization `h(b)`.
    fn tbl_in(&self, b: u8) -> u64;
    /// Retiring-byte contribution, fully precomputed.
    fn tbl_out(&self, b: u8) -> u64;
    /// One steady-state update.
    fn combine(hash: u64, out: u64, inc: u64) -> u64;
    /// Current hash value.
    fn hash(&self) -> u64;
    /// Commit block-scan results: `processed` steady-state bytes were
    /// consumed and `tail` holds the final window content (length `k`,
    /// oldest byte first).
    fn commit(&mut self, hash: u64, processed: usize, tail: &[u8]);
}

/// Shared warm-up prologue of the boundary scans: roll the first
/// `min(k, len)` bytes through the reference per-byte step (the retiring
/// byte, if any, lives in the ring buffer), returning an early hit.
#[inline]
fn scan_warm_up<H: BlockScan>(h: &mut H, data: &[u8], mask: u64) -> Option<usize> {
    let warm = data.len().min(h.window());
    for (i, &b) in data[..warm].iter().enumerate() {
        let v = h.roll(b);
        if h.primed() && v & mask == 0 {
            return Some(i + 1);
        }
    }
    None
}

/// Shared epilogue of the boundary scans: commit the steady-state result
/// (final hash, bytes consumed, final window content) back into the
/// scanner and pass the hit through.
#[inline]
fn scan_commit<H: BlockScan>(
    h: &mut H,
    hash: u64,
    hit: Option<usize>,
    data: &[u8],
) -> Option<usize> {
    let k = h.window();
    let end = hit.unwrap_or(data.len());
    h.commit(hash, end - k, &data[end - k..end]);
    hit
}

/// Block implementation of [`RollingHash::scan_boundary`].
///
/// Phase 1 is the shared warm-up ([`scan_warm_up`]). Phase 2 walks paired
/// slice iterators `(data[j], data[j+k])`, which the compiler turns into
/// a bounds-check-free loop; the scanner is provably primed throughout
/// phase 2 because at least `k` bytes precede it.
#[inline]
fn scan_boundary_block<H: BlockScan>(h: &mut H, data: &[u8], mask: u64) -> Option<usize> {
    let k = h.window();
    if let Some(hit) = scan_warm_up(h, data, mask) {
        return Some(hit);
    }
    if data.len() <= k {
        return None;
    }
    let mut hash = h.hash();
    let mut hit = None;
    for (j, (&out, &inc)) in data[..data.len() - k].iter().zip(&data[k..]).enumerate() {
        hash = H::combine(hash, h.tbl_out(out), h.tbl_in(inc));
        if hash & mask == 0 {
            hit = Some(k + j + 1);
            break;
        }
    }
    scan_commit(h, hash, hit, data)
}

/// Block implementation of [`RollingHash::feed_detect`]: same two-phase
/// structure but always consumes the whole slice, OR-accumulating the
/// pattern hit branchlessly.
#[inline]
fn feed_detect_block<H: BlockScan>(h: &mut H, data: &[u8], mask: u64) -> bool {
    let k = h.window();
    let warm = data.len().min(k);
    let mut fired = false;
    for &b in &data[..warm] {
        let v = h.roll(b);
        fired |= h.primed() && v & mask == 0;
    }
    if data.len() <= k {
        return fired;
    }
    let mut hash = h.hash();
    for (&out, &inc) in data[..data.len() - k].iter().zip(&data[k..]) {
        hash = H::combine(hash, h.tbl_out(out), h.tbl_in(inc));
        fired |= hash & mask == 0;
    }
    h.commit(hash, data.len() - k, &data[data.len() - k..]);
    fired
}

// ---------------------------------------------------------------------------
// Cyclic polynomial
// ---------------------------------------------------------------------------

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
}

impl RollingHash for CyclicPoly {
    fn reset(&mut self) {
        self.pos = 0;
        self.consumed = 0;
        self.hash = 0;
        self.buf.fill(0);
    }

    #[inline]
    fn roll(&mut self, byte: u8) -> u64 {
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

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        scan_boundary_cyclic4(self, data, mask)
    }

    #[inline]
    fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool {
        feed_detect_block(self, data, mask)
    }
}

/// 4-way unrolled steady-state scan for the cyclic polynomial.
///
/// The generic block loop's throughput is bounded by its loop-carried
/// dependency: `h_j = s(h_{j-1}) ^ a_j` (with `a_j` the combined
/// retiring/incoming contribution) chains one rotate and one xor per
/// byte. Because the 1-bit rotation `s` distributes over xor, four steps
/// collapse algebraically:
///
/// ```text
/// h_{j+4} = s⁴(h_j) ^ s³(a_{j+1}) ^ s²(a_{j+2}) ^ s(a_{j+3}) ^ a_{j+4}
/// ```
///
/// so the carried chain becomes one `rotate_left(4)` plus a xor-tree per
/// **four** bytes, with the intermediate hashes `h_{j+1..j+3}` (needed
/// for the boundary check) computed off the critical path. Produces
/// bit-identical hash sequences — the equivalence proptests and golden
/// cid pins cover this path.
#[inline]
fn scan_boundary_cyclic4(h: &mut CyclicPoly, data: &[u8], mask: u64) -> Option<usize> {
    let k = h.window;
    if let Some(hit) = scan_warm_up(h, data, mask) {
        return Some(hit);
    }
    if data.len() <= k {
        return None;
    }
    let n = data.len() - k;
    let out = &data[..n];
    let inc = &data[k..];
    let mut hash = h.hash;
    let mut hit = None;
    let mut j = 0usize;
    let blocks = n & !3;
    for (o, i) in out[..blocks]
        .chunks_exact(4)
        .zip(inc[..blocks].chunks_exact(4))
    {
        let o: [u8; 4] = o.try_into().expect("chunk of 4");
        let i: [u8; 4] = i.try_into().expect("chunk of 4");
        let a1 = h.table_out[o[0] as usize] ^ h.table[i[0] as usize];
        let a2 = h.table_out[o[1] as usize] ^ h.table[i[1] as usize];
        let a3 = h.table_out[o[2] as usize] ^ h.table[i[2] as usize];
        let a4 = h.table_out[o[3] as usize] ^ h.table[i[3] as usize];
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
            hash = hash.rotate_left(1) ^ h.table_out[o as usize] ^ h.table[i as usize];
            j += 1;
            if hash & mask == 0 {
                hit = Some(k + j);
                break;
            }
        }
    }
    scan_commit(h, hash, hit, data)
}

impl BlockScan for CyclicPoly {
    #[inline]
    fn tbl_in(&self, b: u8) -> u64 {
        self.table[b as usize]
    }

    #[inline]
    fn tbl_out(&self, b: u8) -> u64 {
        self.table_out[b as usize]
    }

    #[inline]
    fn combine(hash: u64, out: u64, inc: u64) -> u64 {
        hash.rotate_left(1) ^ out ^ inc
    }

    #[inline]
    fn hash(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn commit(&mut self, hash: u64, processed: usize, tail: &[u8]) {
        self.hash = hash;
        self.consumed += processed;
        self.buf.copy_from_slice(tail);
        self.pos = 0;
    }
}

// ---------------------------------------------------------------------------
// Rabin–Karp
// ---------------------------------------------------------------------------

/// Rabin–Karp rolling hash: `P = Σ h(bᵢ)·B^{k−i} (mod 2^64)`.
pub struct RabinKarp {
    table: [u64; 256],
    /// `table[b]·B^k` — the retiring byte's contribution, precomputed.
    table_out: [u64; 256],
    window: usize,
    buf: Vec<u8>,
    pos: usize,
    consumed: usize,
    hash: u64,
    /// `B^k mod 2^64`, the multiplier for the outgoing byte.
    b_pow_k: u64,
}

/// The Rabin–Karp base; any odd constant works mod 2^64.
const RK_BASE: u64 = 0x100_0000_01b3;

impl RabinKarp {
    /// Create with window size `k` (must be ≥ 1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window must be at least 1 byte");
        let mut b_pow_k: u64 = 1;
        for _ in 0..k {
            b_pow_k = b_pow_k.wrapping_mul(RK_BASE);
        }
        let table = byte_table();
        let mut table_out = [0u64; 256];
        for (out, &t) in table_out.iter_mut().zip(table.iter()) {
            *out = t.wrapping_mul(b_pow_k);
        }
        RabinKarp {
            table,
            table_out,
            window: k,
            buf: vec![0u8; k],
            pos: 0,
            consumed: 0,
            hash: 0,
            b_pow_k,
        }
    }
}

impl RollingHash for RabinKarp {
    fn reset(&mut self) {
        self.pos = 0;
        self.consumed = 0;
        self.hash = 0;
        self.buf.fill(0);
    }

    #[inline]
    fn roll(&mut self, byte: u8) -> u64 {
        let incoming = self.table[byte as usize];
        if self.consumed >= self.window {
            let outgoing = self.table[self.buf[self.pos] as usize];
            self.hash = self
                .hash
                .wrapping_mul(RK_BASE)
                .wrapping_sub(outgoing.wrapping_mul(self.b_pow_k))
                .wrapping_add(incoming);
        } else {
            self.hash = self.hash.wrapping_mul(RK_BASE).wrapping_add(incoming);
        }
        self.buf[self.pos] = byte;
        self.pos += 1;
        if self.pos == self.window {
            self.pos = 0;
        }
        self.consumed += 1;
        self.hash
    }

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        scan_boundary_block(self, data, mask)
    }

    #[inline]
    fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool {
        feed_detect_block(self, data, mask)
    }
}

impl BlockScan for RabinKarp {
    #[inline]
    fn tbl_in(&self, b: u8) -> u64 {
        self.table[b as usize]
    }

    #[inline]
    fn tbl_out(&self, b: u8) -> u64 {
        self.table_out[b as usize]
    }

    #[inline]
    fn combine(hash: u64, out: u64, inc: u64) -> u64 {
        hash.wrapping_mul(RK_BASE)
            .wrapping_sub(out)
            .wrapping_add(inc)
    }

    #[inline]
    fn hash(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn commit(&mut self, hash: u64, processed: usize, tail: &[u8]) {
        self.hash = hash;
        self.consumed += processed;
        self.buf.copy_from_slice(tail);
        self.pos = 0;
    }
}

// ---------------------------------------------------------------------------
// Moving sum
// ---------------------------------------------------------------------------

/// Moving sum rolling hash: `P = Σ h(bᵢ) (mod 2^64)`. The cheapest update
/// but boundary positions correlate with byte values, so its chunk-size
/// distribution is the least uniform of the three.
pub struct MovingSum {
    table: [u64; 256],
    window: usize,
    buf: Vec<u8>,
    pos: usize,
    consumed: usize,
    hash: u64,
}

impl MovingSum {
    /// Create with window size `k` (must be ≥ 1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window must be at least 1 byte");
        MovingSum {
            table: byte_table(),
            window: k,
            buf: vec![0u8; k],
            pos: 0,
            consumed: 0,
            hash: 0,
        }
    }
}

impl RollingHash for MovingSum {
    fn reset(&mut self) {
        self.pos = 0;
        self.consumed = 0;
        self.hash = 0;
        self.buf.fill(0);
    }

    #[inline]
    fn roll(&mut self, byte: u8) -> u64 {
        let incoming = self.table[byte as usize];
        if self.consumed >= self.window {
            let outgoing = self.table[self.buf[self.pos] as usize];
            self.hash = self.hash.wrapping_sub(outgoing).wrapping_add(incoming);
        } else {
            self.hash = self.hash.wrapping_add(incoming);
        }
        self.buf[self.pos] = byte;
        self.pos += 1;
        if self.pos == self.window {
            self.pos = 0;
        }
        self.consumed += 1;
        self.hash
    }

    fn consumed(&self) -> usize {
        self.consumed
    }

    fn window(&self) -> usize {
        self.window
    }

    #[inline]
    fn scan_boundary(&mut self, data: &[u8], mask: u64) -> Option<usize> {
        scan_boundary_block(self, data, mask)
    }

    #[inline]
    fn feed_detect(&mut self, data: &[u8], mask: u64) -> bool {
        feed_detect_block(self, data, mask)
    }
}

impl BlockScan for MovingSum {
    #[inline]
    fn tbl_in(&self, b: u8) -> u64 {
        self.table[b as usize]
    }

    #[inline]
    fn tbl_out(&self, b: u8) -> u64 {
        // The retiring contribution is the plain table value.
        self.table[b as usize]
    }

    #[inline]
    fn combine(hash: u64, out: u64, inc: u64) -> u64 {
        hash.wrapping_sub(out).wrapping_add(inc)
    }

    #[inline]
    fn hash(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn commit(&mut self, hash: u64, processed: usize, tail: &[u8]) {
        self.hash = hash;
        self.consumed += processed;
        self.buf.copy_from_slice(tail);
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining property of a rolling hash: the value after consuming a
    /// stream depends only on the final window, not on prior content.
    fn window_only_property(mut h: impl RollingHash, window: usize) {
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
        window_only_property(CyclicPoly::new(16), 16);
        window_only_property(CyclicPoly::new(48), 48);
        window_only_property(CyclicPoly::new(64), 64);
        window_only_property(CyclicPoly::new(7), 7);
    }

    #[test]
    fn rabin_karp_depends_only_on_window() {
        window_only_property(RabinKarp::new(16), 16);
        window_only_property(RabinKarp::new(48), 48);
    }

    #[test]
    fn moving_sum_depends_only_on_window() {
        window_only_property(MovingSum::new(16), 16);
        window_only_property(MovingSum::new(48), 48);
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
        for kind in [RollingKind::CyclicPoly, RollingKind::RabinKarp] {
            let mut h = kind.build(48);
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
                "{kind:?}: hit rate off: {hits} vs expected {expected}"
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
    fn scan_per_byte(h: &mut dyn RollingHash, data: &[u8], mask: u64) -> Option<usize> {
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
        for kind in [
            RollingKind::CyclicPoly,
            RollingKind::RabinKarp,
            RollingKind::MovingSum,
        ] {
            for window in [1usize, 7, 48, 64, 65] {
                let data = pseudo_random(20_000, window as u64 * 31 + 5);
                let mut naive = kind.build(window);
                let mut fast = kind.scanner(window);

                // Drive both through the same sequence of chunk scans.
                let mut off_naive = 0usize;
                let mut off_fast = 0usize;
                loop {
                    let a = scan_per_byte(naive.as_mut(), &data[off_naive..], mask);
                    let b = fast.scan_boundary(&data[off_fast..], mask);
                    assert_eq!(a, b, "{kind:?} w={window} at {off_naive}");
                    match a {
                        Some(n) => {
                            off_naive += n;
                            off_fast += n;
                        }
                        None => break,
                    }
                }
                assert_eq!(naive.consumed(), fast.consumed());
            }
        }
    }

    #[test]
    fn feed_detect_matches_per_byte_feed() {
        let mask = (1u64 << 7) - 1;
        for kind in [
            RollingKind::CyclicPoly,
            RollingKind::RabinKarp,
            RollingKind::MovingSum,
        ] {
            let data = pseudo_random(30_000, 77);
            let mut naive = kind.build(48);
            let mut fast = kind.scanner(48);
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
                assert_eq!(fired_naive, fired_fast, "{kind:?} off={off} len={piece}");
                off = end;
                piece = piece % 193 + 17; // vary element sizes
            }
        }
    }

    #[test]
    fn block_scan_handles_tiny_and_empty_slices() {
        let mask = (1u64 << 4) - 1;
        let mut s = RollingKind::CyclicPoly.scanner(48);
        assert_eq!(s.scan_boundary(&[], mask), None);
        assert!(!s.feed_detect(&[], mask));
        // Singles across the warm boundary.
        let data = pseudo_random(200, 3);
        let mut naive = RollingKind::CyclicPoly.build(48);
        for &b in &data {
            let a = scan_per_byte(naive.as_mut(), std::slice::from_ref(&b), mask);
            let f = s.scan_boundary(std::slice::from_ref(&b), mask);
            assert_eq!(a, f);
        }
    }
}
