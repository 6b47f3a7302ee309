//! A run of whole elements scanned once, behind the bytes fed before it,
//! against the per-byte reference scanner.
//!
//! `LeafChunker::feed_elements` takes a run that follows the chunker's
//! `context` (the bytes its rolling window holds), finds every hit of the
//! run in one scan — sixteen lanes where the kernel runs, warmed up on the
//! context and primed as the stream is — places the cuts at element ends
//! in one walk, and resumes the chunker from the run's tail. Two things
//! are held to one `CyclicPoly::roll` per byte over the whole stream:
//!
//! * the hits (`pattern_hits_after`): exactly the stream's hits inside the
//!   run, none inside the context;
//! * the cuts of the whole stream — elements fed one at a time before the
//!   run, the run, elements fed one at a time after it — under the
//!   element rule (a hit anywhere in an element, or the `α·2^q` cap
//!   reached, ends the chunk at the element's end), and the chunk length
//!   left pending.
//!
//! Inputs: every run length 0..=4096 (across `LANE_SCAN_MIN`), contexts of
//! 0..=`window` bytes (the whole stream so far, or the tail of a longer
//! one), windows 1/16/47/48/64, elements of 1 to 299 bytes, caps of one,
//! two and eight expected leaves.

use forkbase_crypto::chunker::{pattern_hits_after, LANE_SCAN_MIN};
use forkbase_crypto::{lanes, ChunkerConfig, CyclicPoly, LeafChunker};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random bytes with constant stretches, so that forced cuts happen too.
fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let n = (1 + rng.below(200)).min(len - out.len());
        if rng.below(4) == 0 {
            let b = rng.next() as u8;
            out.extend(std::iter::repeat_n(b, n));
        } else {
            out.extend((0..n).map(|_| rng.next() as u8));
        }
    }
    out
}

/// Element ends (exclusive, relative to the stretch) of `len` bytes cut
/// into elements of 1..=`max_elem` bytes.
fn elements(rng: &mut Rng, len: usize, max_elem: usize) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < len {
        at = (at + 1 + rng.below(max_elem)).min(len);
        ends.push(at);
    }
    ends
}

/// The oracle: one `roll` per byte of `stream`, `(hits, cuts, pending)`
/// under the element rule with elements ending at `ends`.
fn reference(
    stream: &[u8],
    ends: &[usize],
    cfg: &ChunkerConfig,
) -> (Vec<usize>, Vec<usize>, usize) {
    let (mask, max) = (cfg.leaf_mask(), cfg.max_leaf_size());
    let mut h = CyclicPoly::new(cfg.window);
    let (mut hits, mut cuts) = (Vec::new(), Vec::new());
    let (mut at, mut prev, mut fired) = (0usize, 0usize, false);
    for &end in ends {
        while at < end {
            let v = h.roll(stream[at]);
            at += 1;
            if h.primed() && v & mask == 0 {
                hits.push(at);
                fired = true;
            }
        }
        if fired || end - prev >= max {
            cuts.push(end);
            prev = end;
            fired = false;
        }
    }
    (hits, cuts, stream.len() - prev)
}

/// Feed `ends` (elements of `stream`, from `from`) one at a time.
fn feed_each(
    ch: &mut LeafChunker,
    stream: &[u8],
    from: usize,
    ends: &[usize],
    cuts: &mut Vec<usize>,
) {
    let mut at = from;
    for &end in ends {
        ch.feed(&stream[at..end]);
        at = end;
        if ch.boundary() {
            cuts.push(end);
            ch.cut();
        }
    }
}

/// One stream: `prefix` bytes fed element by element, a `run`-byte run
/// through `feed_elements`, then a suffix element by element.
fn check(cfg: &ChunkerConfig, rng: &mut Rng, prefix: usize, run: usize, max_elem: usize) {
    let suffix = rng.below(300);
    let stream = bytes(rng, prefix + run + suffix);
    let shift = |ends: Vec<usize>, by: usize| ends.into_iter().map(move |e| e + by);
    let pre: Vec<usize> = elements(rng, prefix, max_elem);
    let mid: Vec<usize> = shift(elements(rng, run, max_elem), prefix).collect();
    let post: Vec<usize> = shift(elements(rng, suffix, max_elem), prefix + run).collect();
    let all: Vec<usize> = pre.iter().chain(&mid).chain(&post).copied().collect();
    let (want_hits, want_cuts, want_pending) = reference(&stream, &all, cfg);
    let what = format!(
        "window {} leaf_bits {} max_factor {} prefix {prefix} run {run} max_elem {max_elem}",
        cfg.window, cfg.leaf_bits, cfg.max_factor
    );

    let mut ch = LeafChunker::new(cfg);
    let mut cuts = Vec::new();
    feed_each(&mut ch, &stream, 0, &pre, &mut cuts);
    // The run behind the window's bytes, as a splice's queue holds it.
    let mut buf = Vec::new();
    ch.context(&mut buf);
    let from = buf.len();
    assert_eq!(from, prefix.min(cfg.window), "context length: {what}");
    buf.extend_from_slice(&stream[prefix..prefix + run]);
    let to_buf = |p: usize| p - prefix + from;

    let run_hits: Vec<usize> = want_hits
        .iter()
        .filter(|&&h| h > prefix && h <= prefix + run)
        .map(|&h| to_buf(h))
        .collect();
    assert_eq!(
        pattern_hits_after(&buf, from, cfg),
        run_hits,
        "hits: {what}"
    );

    let ends: Vec<usize> = mid.iter().map(|&e| to_buf(e)).collect();
    for j in ch.feed_elements(&buf, from, &ends, |&e| e) {
        cuts.push(mid[j]);
    }
    feed_each(&mut ch, &stream, prefix + run, &post, &mut cuts);
    assert_eq!(cuts, want_cuts, "cuts: {what}");
    assert_eq!(ch.current_len(), want_pending, "pending: {what}");
}

#[test]
fn runs_behind_a_context_match_the_reference() {
    if lanes::available() {
        println!(
            "context_run: avx512f present, runs of {LANE_SCAN_MIN}+ bytes take the lane kernel"
        );
    } else {
        println!("context_run: no avx512f on this CPU, every run takes the scalar hit path");
    }
    for window in [1usize, 16, 47, 48, 64] {
        let mut rng = Rng(window as u64 * 0x9E37_79B9);
        for run in 0..=4096usize {
            let cfg = ChunkerConfig {
                window,
                max_factor: [1, 2, 8][run / 3 % 3],
                ..ChunkerConfig::with_leaf_bits([4, 6, 9][run % 3])
            };
            // Contexts of every length up to the window: the whole stream
            // when shorter, else the tail of a stream up to ~600 bytes
            // longer, whose pending chunk the run continues.
            let ctx = run % (window + 1);
            let prefix = if ctx < window {
                ctx
            } else {
                window + rng.below(600)
            };
            let max_elem = 1 + run * 7 % 299;
            check(&cfg, &mut rng, prefix, run, max_elem);
        }
    }
}
