//! Golden root cids captured from the seed implementation, before the
//! chunking/hashing hot path was devirtualized and block-vectorized.
//! These pin the whole pipeline end to end: rolling-hash boundaries,
//! leaf/index encoding, and SHA-256 cids. If any layer's output drifts,
//! every stored object's identity silently changes — this test makes
//! that loud.

use forkbase_chunk::MemStore;
use forkbase_crypto::ChunkerConfig;
use forkbase_pos::tree::{Blob, List, Map, Set};

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
fn golden_blob_roots() {
    for (bits, seed, len, expect) in [
        (
            12u32,
            1u64,
            300_000usize,
            "854984d9858e092db45655d95b768e282d0f0fc536a4c60afc3e8a4fef640b94",
        ),
        (
            8,
            2,
            100_000,
            "c93e57fdb75359b7d3722bda073caefe054c53ef87f839c7d358d46ddeb9238c",
        ),
    ] {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(bits);
        let data = pseudo_random(len, seed);
        let blob = Blob::build(&store, &cfg, &data);
        assert_eq!(
            blob.root().to_hex(),
            expect,
            "blob root drifted: bits={bits}"
        );
    }
}

#[test]
fn golden_map_root() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::with_leaf_bits(7);
    let map = Map::build(
        &store,
        &cfg,
        (0..5000).map(|i| (format!("k{i:06}"), format!("v-{i}"))),
    );
    assert_eq!(
        map.root().to_hex(),
        "cbfa7a412addc8ae8d1985d6fabfb95265fcd761b9ff238ef539cf98d7b5b132"
    );
}

/// From-scratch Set/List pins, captured from the element-at-a-time build
/// path before from-scratch builds were routed through the run-scanning
/// encoder — together with the Blob/Map pins above, all four chunkable
/// types' full build pipelines (encoding, boundaries, cids) are nailed
/// down.
#[test]
fn golden_set_and_list_roots() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::with_leaf_bits(7);
    let set = Set::build(&store, &cfg, (0..4000).map(|i| format!("member-{i:05}")));
    assert_eq!(
        set.root().to_hex(),
        "d07e3893310636a24f2c4f87a44cb90199a2654d4e0bdb3a2ba010e55659b332"
    );
    let list = List::build(
        &store,
        &cfg,
        (0..4000).map(|i| format!("list-element-{i:05}")),
    );
    assert_eq!(
        list.root().to_hex(),
        "233226312b764d7e6848fd3c77dd034af849b4bfad8d38f7f2fc98f06bfb8470"
    );

    let cfg2 = ChunkerConfig::with_leaf_bits(9);
    let set2 = Set::build(&store, &cfg2, (0..20_000).map(|i| format!("s{i:07}")));
    assert_eq!(
        set2.root().to_hex(),
        "e0843cb95aa6a591a45292975138e7eadb52f4aadac706193be653a37fa7da5a"
    );
    let list2 = List::build(&store, &cfg2, (0..20_000).map(|i| format!("v{i:07}")));
    assert_eq!(
        list2.root().to_hex(),
        "c4dbbc8922bb837541b77c806b737b32fa1422db373cc72dc880be8b389a294c"
    );
}

/// Map builds and splices sized around the two hashing thresholds
/// (`forkbase_crypto::parallel`): 50-byte elements, so 2 600 / 2 650 of
/// them straddle `ASYNC_BATCH_BYTES` (the leaf builder hands the pool its
/// first batch) and 5 200 / 5 300 straddle `PARALLEL_THRESHOLD_BYTES`
/// (a single batch splits across lanes). Roots captured at the commit
/// before the builder handed anything to the pool, when every leaf of a
/// build was hashed in one batch at the end: who hashes a leaf, and
/// when, must not show in any cid.
#[test]
fn golden_roots_do_not_depend_on_how_leaf_hashing_is_batched() {
    use forkbase_crypto::parallel::{lanes, ASYNC_BATCH_BYTES, PARALLEL_THRESHOLD_BYTES};
    use forkbase_pos::builder::{build_from_entries, LeafBuilder};
    use forkbase_pos::{Item, TreeType, WriteBatch};

    let cfg = ChunkerConfig::default();
    let items =
        |n: usize| (0..n).map(|i| Item::map(format!("k{i:07}"), pseudo_random(40, i as u64)));
    for (n, built, spliced) in [
        (
            2_000usize,
            "1fb86ebf106dbfeccfe2aa6805ea0b28c6226dc6b22d80a138670653777755d8",
            "c410d2aa184b6f4dee4cf5a620e5b64c2d77423bacd96a35b86231bf665adb56",
        ),
        (
            2_600,
            "a615bf09d23ae3f43de51e247f5164acb23c73b3a4f5a96afb81cbc628438b5f",
            "f6d81f1ed16d354598f6a124811f349ac10048c8412a76c7d720f6cb2b54843d",
        ),
        (
            2_650,
            "8bfe8f17870e7295a7eabac33305f9a9e4a0755b479be07b6f7ad04a76e74ba9",
            "3e8ec76afb70a195c2888cd08e735490c57a135b732c39d464a90fc6b536cfae",
        ),
        (
            4_000,
            "3dd382d513f08bba5102e866237c5bfecb2517f263826f6b8419231a99d60329",
            "5df9dbbd6fa6bff6bca9a9f9dada38af69f61eac370159aae3303a60d6e855dd",
        ),
        (
            5_200,
            "3693b5f3cfb9ef917fb4e0e5a50148570032a5641c14fbae8d49431cba03cd54",
            "4afd20fc69bcca7b4d6fdef555972f214e0a2871c273f74c859cd6da9935a4dc",
        ),
        (
            5_300,
            "bc669e0fd531ee13e88117b9ac7d6a0126187401dff94dae0e9963d6ee61ba31",
            "994a75f21cecdfae1ae7ed66f50b6f92f18550493474dfcb546c1f4a78fd73f7",
        ),
        (
            20_000,
            "bda67bf3a2d1934fee859c5c85228231450dc72acae6b1b9ac59542501c71afc",
            "308744cd29606c295f255c901f2bb844f8818bddd9974d6b373eb64b2b4dda10",
        ),
    ] {
        // Element by element through the builder, counting what it hands
        // over: 0, 1 and many batches.
        let store = MemStore::new();
        let mut lb = LeafBuilder::new(&store, &cfg, TreeType::Map);
        items(n).for_each(|item| lb.append_item(&item));
        let handed = lb.batches_handed();
        let cut_bytes = n * 50 - lb.pending_bytes();
        let expect = if lanes() > 1 {
            cut_bytes / ASYNC_BATCH_BYTES
        } else {
            0
        };
        // A batch closes on the first cut at or past the threshold, so
        // long builds hand over a little less often than every 128 KiB.
        assert!(
            handed <= expect && handed >= expect * 9 / 10,
            "{n} elements: {handed} batches handed, {expect} thresholds crossed"
        );
        let root = build_from_entries(&store, &cfg, TreeType::Map, lb.finish());
        assert_eq!(root.to_hex(), built, "itemwise build of {n}");

        // The run-scanning build and a splice that re-cuts every leaf.
        let map = Map::build(&store, &cfg, items(n).map(|i| (i.key, i.value)));
        assert_eq!(map.root().to_hex(), built, "build of {n}");
        let mut wb = WriteBatch::new();
        for i in (0..n).step_by(50) {
            wb.put(format!("k{i:07}"), pseudo_random(41, i as u64));
        }
        let edited = map.apply(&store, &cfg, wb).expect("splice");
        assert_eq!(edited.root().to_hex(), spliced, "splice over {n}");
    }
    // The sizes above are on the sides of the thresholds they claim.
    const {
        assert!(2_600 * 50 < ASYNC_BATCH_BYTES && ASYNC_BATCH_BYTES < 2_650 * 50);
        assert!(5_200 * 50 < PARALLEL_THRESHOLD_BYTES && PARALLEL_THRESHOLD_BYTES < 5_300 * 50);
    }
}
