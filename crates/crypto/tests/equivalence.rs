//! Equivalence suite: the block scanner, the lane kernel and the optimized
//! SHA-256 must be **byte-identical** to the per-byte reference on every
//! input — boundaries, cids and digests are the system's identity,
//! so history-independence has to be proved, not assumed.
//!
//! Three input families are exercised, per the failure modes that matter:
//!
//! * random bytes — the common case,
//! * wiki-like text — low-entropy structured content with repeated words,
//! * adversarial — all-zero / constant / short-period content where the
//!   pattern never (or pathologically often) fires and every chunk ends
//!   at the forced `α·2^q` cap, plus boundary-dense content built by
//!   planting window-sized snippets that are known to fire.
//!
//! A golden-pin test locks today's concrete boundary positions and
//! digests; it fails if *either* path silently changes, catching cid
//! drift that a relative-equivalence test alone would miss.

use forkbase_crypto::chunker::{split_positions, split_positions_reference};
use forkbase_crypto::{
    hash_bytes, hash_parts, hash_parts_naive, sha256, sha256_naive, ChunkerConfig, CyclicPoly,
    LeafChunker,
};
use proptest::prelude::*;

/// The windows the tests aim at: the smallest, two short ones, the
/// default and the one below it, and `k mod 64 = 0`, where the retiring
/// byte's rotation wraps to none.
const WINDOWS: [usize; 6] = [1, 4, 16, 47, 48, 64];

/// Small leaf/window parameters so even short inputs cross many
/// boundaries and the forced cap. Half the draws take one of [`WINDOWS`],
/// half any window up to 69.
fn cfg_strategy() -> impl Strategy<Value = ChunkerConfig> {
    let window = prop_oneof![(0..WINDOWS.len()).prop_map(|i| WINDOWS[i]), 1usize..70];
    (4u32..9, window).prop_map(|(leaf_bits, window)| {
        let mut cfg = ChunkerConfig::with_leaf_bits(leaf_bits);
        cfg.window = window;
        cfg
    })
}

/// Wiki-like text: sentences of dictionary words with markup fragments.
fn wiki_text(words: &[u8], len: usize) -> Vec<u8> {
    const DICT: [&str; 12] = [
        "the", "storage", "engine", "fork", "branch", "merge", "chunk", "tree", "version",
        "tamper", "evidence", "state",
    ];
    const MARKUP: [&str; 4] = ["== ", " ==\n", "[[", "]]"];
    let mut out = Vec::with_capacity(len + 16);
    let mut i = 0usize;
    while out.len() < len {
        let w = words.get(i % words.len().max(1)).copied().unwrap_or(0) as usize;
        out.extend_from_slice(DICT[w % DICT.len()].as_bytes());
        if w.is_multiple_of(13) {
            out.extend_from_slice(MARKUP[w % MARKUP.len()].as_bytes());
        } else {
            out.push(b' ');
        }
        i += 1;
    }
    out.truncate(len);
    out
}

/// Period-`p` repeating content (degenerate for content-defined chunking).
fn periodic(p: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i % p.max(1)) * 37 + 11) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_equivalence_random(
        cfg in cfg_strategy(),
        data in prop::collection::vec(any::<u8>(), 0..30_000),
    ) {
        let fast = split_positions(&data, &cfg);
        let naive = split_positions_reference(&data, &cfg);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn split_equivalence_wiki_like(
        cfg in cfg_strategy(),
        words in prop::collection::vec(any::<u8>(), 1..300),
        len in 0usize..40_000,
    ) {
        let data = wiki_text(&words, len);
        prop_assert_eq!(
            split_positions(&data, &cfg),
            split_positions_reference(&data, &cfg)
        );
    }

    #[test]
    fn split_equivalence_adversarial(
        cfg in cfg_strategy(),
        len in 0usize..30_000,
        fill in any::<u8>(),
        period in 1usize..100,
    ) {
        // Constant fill: the pattern either never fires or fires on every
        // primed byte; both paths must agree on the resulting forced cuts.
        let constant = vec![fill; len];
        prop_assert_eq!(
            split_positions(&constant, &cfg),
            split_positions_reference(&constant, &cfg)
        );
        // Short-period content repeats window contents pathologically.
        let cyclic = periodic(period, len);
        prop_assert_eq!(
            split_positions(&cyclic, &cfg),
            split_positions_reference(&cyclic, &cfg)
        );
    }

    #[test]
    fn split_equivalence_pattern_dense(
        cfg in cfg_strategy(),
        data in prop::collection::vec(any::<u8>(), 500..20_000),
        plant_stride in 50usize..500,
    ) {
        // Plant copies of a window-sized snippet that fires the pattern
        // (found by scanning the data itself), creating boundary-dense
        // input with hits at controlled, possibly overlapping offsets.
        let cuts = split_positions_reference(&data, &cfg);
        let mut dense = data.clone();
        if let Some(&first_cut) = cuts.first() {
            if first_cut >= cfg.window && first_cut < dense.len() {
                let snippet: Vec<u8> = dense[first_cut - cfg.window..first_cut].to_vec();
                let mut at = 0usize;
                while at + snippet.len() <= dense.len() {
                    dense[at..at + snippet.len()].copy_from_slice(&snippet);
                    at += plant_stride;
                }
            }
        }
        prop_assert_eq!(
            split_positions(&dense, &cfg),
            split_positions_reference(&dense, &cfg)
        );
    }

    #[test]
    fn element_feed_equivalence(
        cfg in cfg_strategy(),
        elements in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 0..300),
    ) {
        // The element-at-a-time path (List/Set/Map builders): boundary
        // decisions after every element must match one `roll` per byte
        // and the element rule — a hit anywhere in an element, or the cap
        // reached, ends the chunk at the element's end.
        let mask = cfg.leaf_mask();
        let mut fast = LeafChunker::new(&cfg);
        let mut hash = CyclicPoly::new(cfg.window);
        let mut chunk = 0usize;
        for (i, elem) in elements.iter().enumerate() {
            fast.feed(elem);
            let mut fired = false;
            for &b in elem {
                let v = hash.roll(b);
                fired |= hash.primed() && v & mask == 0;
            }
            chunk += elem.len();
            let boundary = fired || chunk >= cfg.max_leaf_size();
            prop_assert_eq!(fast.boundary(), boundary, "element {}", i);
            prop_assert_eq!(fast.current_len(), chunk);
            if boundary {
                fast.cut();
                chunk = 0;
            }
        }
    }

    #[test]
    fn sha256_equivalence(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        pieces in prop::collection::vec(1usize..600, 1..20),
    ) {
        // One-shot.
        prop_assert_eq!(sha256(&data), sha256_naive(&data));
        // Incremental with arbitrary piece sizes must match too.
        let mut fast = forkbase_crypto::Sha256::new();
        let mut naive = forkbase_crypto::Sha256Naive::new();
        let mut off = 0usize;
        let mut i = 0usize;
        while off < data.len() {
            let end = (off + pieces[i % pieces.len()]).min(data.len());
            fast.update(&data[off..end]);
            naive.update(&data[off..end]);
            off = end;
            i += 1;
        }
        prop_assert_eq!(fast.finalize(), naive.finalize());
    }

    #[test]
    fn hash_parts_equivalence(
        parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..12),
    ) {
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let concat: Vec<u8> = parts.iter().flatten().copied().collect();
        let d = hash_parts(&refs);
        prop_assert_eq!(d, hash_parts_naive(&refs));
        prop_assert_eq!(d, sha256(&concat));
        prop_assert_eq!(d, hash_bytes(&concat));
    }
}

// ---------------------------------------------------------------------------
// Golden pins — concrete values captured from the seed implementation
// (pre-optimization). Any drift in boundaries or digests fails here even
// if fast and reference paths drift *together*.
// ---------------------------------------------------------------------------

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

fn fnv_positions(cuts: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for c in cuts {
        h ^= *c as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn golden_split_positions() {
    // (window, leaf_bits, seed, expected cut count, fnv over positions) —
    // captured from the seed (naive) implementation before optimization.
    for (w, bits, seed, n, fnv) in [
        (48usize, 10u32, 7u64, 196usize, 0x0275d8e527bcbeeeu64),
        (1, 8, 8, 747, 0xd37590e48bd671ad),
        (7, 9, 9, 377, 0x8048d9ec7c306741),
        (64, 11, 10, 100, 0x8ee4548417a832a2),
        (65, 11, 11, 88, 0x91e186f1917a96af),
        (100, 12, 12, 69, 0x4cdba081da36f5d5),
    ] {
        let mut cfg = ChunkerConfig::with_leaf_bits(bits);
        cfg.window = w;
        let data = pseudo_random(200_000, seed);
        for (name, cuts) in [
            ("fast", split_positions(&data, &cfg)),
            ("reference", split_positions_reference(&data, &cfg)),
        ] {
            assert_eq!(cuts.len(), n, "{name} w={w} bits={bits}: cut count drifted");
            assert_eq!(
                fnv_positions(&cuts),
                fnv,
                "{name} w={w} bits={bits}: cut positions drifted"
            );
        }
    }
}

#[test]
fn golden_sha256_digests() {
    for (len, expect) in [
        (
            0usize,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            1,
            "4c94485e0c21ae6c41ce1dfe7b6bfaceea5ab68e40a2476f50208e526f506080",
        ),
        (
            55,
            "75ae897259d178ba780635ffc105e33fad92b371f26280e00b088473f7f915ec",
        ),
        (
            56,
            "f376c019f7c15627ac980a1785c843a621bfb44d465a396822450a9bd74e6893",
        ),
        (
            63,
            "4a545e5d2a6e97d03478d03c06e44ded77aa909cab9bde666ceee1f8892d14c0",
        ),
        (
            64,
            "2a62bebe04c31a48b214c8549b468242c2353cc1a3df43fade3a4b1680923f0f",
        ),
        (
            65,
            "a7224fe7393097a4d9ac02c50aa65f4b529d0c9cb95e35a8e4fef93d685d7aec",
        ),
        (
            1000,
            "a969b2167e7788fc0dd331e1d291faa3c8ba0f1db761ff51e78957f133f5c75a",
        ),
        (
            100_000,
            "cfb42edaa03f9d4277ca2d9129ac529e8643f84103991b545877125c3bab75a7",
        ),
    ] {
        let data = pseudo_random(len, 42);
        assert_eq!(hash_bytes(&data).to_hex(), expect, "len {len}");
        assert_eq!(sha256_naive(&data).to_hex(), expect, "naive len {len}");
    }
}

/// Batched and pooled hashing are the serial hash, whichever side of a
/// threshold a batch falls on: totals one byte below, at and one byte
/// above `ASYNC_BATCH_BYTES` and `PARALLEL_THRESHOLD_BYTES`, as
/// contiguous payloads, as ropes, and as a job spawned on the pool —
/// joined after a worker took it and joined before one could.
#[test]
fn batch_hashing_equivalence_around_the_thresholds() {
    use forkbase_crypto::parallel::{spawn, ASYNC_BATCH_BYTES, PARALLEL_THRESHOLD_BYTES};
    use forkbase_crypto::{hash_tagged_batch, hash_tagged_parts_batch, Digest};

    for threshold in [ASYNC_BATCH_BYTES, PARALLEL_THRESHOLD_BYTES] {
        for total in [threshold - 1, threshold, threshold + 1] {
            // 37 payloads of uneven size that sum to `total`.
            let mut sizes: Vec<usize> = (0..36).map(|i| total / 40 + i * 13).collect();
            sizes.push(total - sizes.iter().sum::<usize>());
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, len)| pseudo_random(*len, (total + i) as u64))
                .collect();
            assert_eq!(payloads.iter().map(Vec::len).sum::<usize>(), total);
            let want: Vec<Digest> = payloads
                .iter()
                .map(|p| hash_parts_naive(&[&[6u8], p]))
                .collect();

            let whole: Vec<(u8, &[u8])> = payloads.iter().map(|p| (6u8, p.as_slice())).collect();
            assert_eq!(hash_tagged_batch(&whole), want, "batch of {total}");

            let ropes: Vec<Vec<&[u8]>> = payloads
                .iter()
                .map(|p| {
                    let (a, rest) = p.split_at(p.len() / 3);
                    let (b, c) = rest.split_at(rest.len() / 2);
                    vec![a, b, c]
                })
                .collect();
            let parts: Vec<(u8, &[&[u8]])> = ropes.iter().map(|r| (6u8, r.as_slice())).collect();
            assert_eq!(hash_tagged_parts_batch(&parts), want, "ropes of {total}");

            for let_it_start in [true, false] {
                let owned = payloads.clone();
                let job = spawn(move || -> Vec<Digest> {
                    owned.iter().map(|p| hash_parts(&[&[6u8], p])).collect()
                });
                if let_it_start {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                assert_eq!(job.join(), want, "spawned, {total}, started {let_it_start}");
            }
        }
    }
}
