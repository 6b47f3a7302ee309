//! Equivalence proptests for the run-scanning from-scratch build path.
//!
//! `build_items`/`build_blob_bytes` pre-encode the input and drive the
//! slice-level boundary scanner over it, assembling leaves as zero-copy
//! ropes. These tests pin that the result is **bit-identical** (same root
//! cid, hence same chunks) to the retained element-at-a-time path
//! (`build_items_itemwise`/`build_blob_itemwise`) for all four chunkable
//! types, across chunker configurations small enough to force multi-leaf,
//! multi-level trees. `list_fresh_runs_equal_itemwise_build` holds List
//! splices that insert long runs of fresh elements to the same oracle.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::ChunkerConfig;
use forkbase_pos::builder::{
    build_blob_bytes, build_blob_itemwise, build_items, build_items_itemwise,
};
use forkbase_pos::leaf::Item;
use forkbase_pos::types::TreeType;
use forkbase_pos::{metrics, splice_list};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Small chunks so even modest inputs span multiple leaves and levels.
fn cfg() -> ChunkerConfig {
    let mut cfg = ChunkerConfig::with_leaf_bits(6);
    cfg.index_bits = 3;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_run_scan_equals_itemwise(
        pairs in prop::collection::vec(("[a-f]{1,8}", "[a-z]{0,24}"), 0..120),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let sorted: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let items: Vec<Item> = sorted
            .iter()
            .map(|(k, v)| Item::map(k.clone(), v.clone()))
            .collect();
        let run_scan = build_items(&store, &cfg, TreeType::Map, items.clone());
        let itemwise = build_items_itemwise(&store, &cfg, TreeType::Map, items);
        prop_assert_eq!(run_scan, itemwise);
    }

    #[test]
    fn set_run_scan_equals_itemwise(
        keys in prop::collection::vec("[a-h]{1,10}", 0..150),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let sorted: BTreeSet<String> = keys.iter().cloned().collect();
        let items: Vec<Item> = sorted.iter().map(|k| Item::set(k.clone())).collect();
        let run_scan = build_items(&store, &cfg, TreeType::Set, items.clone());
        let itemwise = build_items_itemwise(&store, &cfg, TreeType::Set, items);
        prop_assert_eq!(run_scan, itemwise);
    }

    #[test]
    fn list_run_scan_equals_itemwise(
        elems in prop::collection::vec("[a-z]{0,16}", 0..150),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let items: Vec<Item> = elems.iter().map(|e| Item::list(e.clone())).collect();
        let run_scan = build_items(&store, &cfg, TreeType::List, items.clone());
        let itemwise = build_items_itemwise(&store, &cfg, TreeType::List, items);
        prop_assert_eq!(run_scan, itemwise);
    }

    #[test]
    fn blob_zero_copy_equals_copy_path(
        data in prop::collection::vec(any::<u8>(), 0..6000),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let shared = build_blob_bytes(&store, &cfg, Bytes::from(data.clone()));
        let copied = build_blob_itemwise(&store, &cfg, &data);
        prop_assert_eq!(shared, copied);

        // Feeding the same content as arbitrarily segmented blob items
        // must also agree: segmentation never changes boundaries.
        let mut positions: Vec<usize> = cuts
            .iter()
            .map(|c| (*c as usize) % (data.len() + 1))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let mut items: Vec<Item> = Vec::new();
        let mut prev = 0usize;
        for p in positions.into_iter().chain([data.len()]) {
            items.push(Item::list(Bytes::copy_from_slice(&data[prev..p])));
            prev = p;
        }
        let segmented = build_items(&store, &cfg, TreeType::Blob, items.clone());
        prop_assert_eq!(segmented, copied);
        let segmented_itemwise = build_items_itemwise(&store, &cfg, TreeType::Blob, items);
        prop_assert_eq!(segmented_itemwise, copied);
    }

    #[test]
    fn default_config_map_equivalence(
        pairs in prop::collection::vec(("[a-p]{1,12}", "[a-z]{0,40}"), 0..80),
    ) {
        // The paper-default 4 KB leaves: most content lands in one leaf,
        // exercising the single-leaf / flush-ended path.
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let sorted: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let items: Vec<Item> = sorted
            .iter()
            .map(|(k, v)| Item::map(k.clone(), v.clone()))
            .collect();
        let run_scan = build_items(&store, &cfg, TreeType::Map, items.clone());
        let itemwise = build_items_itemwise(&store, &cfg, TreeType::Map, items);
        prop_assert_eq!(run_scan, itemwise);
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn element(&mut self) -> Item {
        let len = self.below(120);
        Item::list((0..len).map(|_| self.below(256) as u8).collect::<Bytes>())
    }
}

/// List splices that insert up to 60 fresh elements of up to 120 bytes
/// and remove up to 8 — so at least a fifth of them feed a run of 1 KiB
/// or more (counted by the lane kernel's bytes where it runs) — at any
/// position, a leaf's first `window` bytes included (counted by the seed
/// fetches they cost), and appends, under caps of one, two and eight
/// expected leaves. Each result must equal the element-at-a-time build
/// (`build_items_itemwise`: one `append_item` per element, none of the
/// run walk) and the run-scanning build of the same content.
#[test]
fn list_fresh_runs_equal_itemwise_build() {
    let mut rng = Rng(11);
    let (cases, mut long_runs, mut seeded) = (160, 0, 0);
    let lanes_run = forkbase_crypto::lanes::available();
    for case in 0..cases {
        let cfg = ChunkerConfig {
            window: [16, 47, 48, 64][rng.below(4)],
            leaf_bits: 6 + rng.below(4) as u32,
            index_bits: 3,
            max_factor: [1, 2, 8][rng.below(3)],
        };
        let store = MemStore::new();
        let mut model: Vec<Item> = (0..100 + rng.below(600)).map(|_| rng.element()).collect();
        let root = build_items(&store, &cfg, TreeType::List, model.clone());
        let at = if rng.below(8) == 0 {
            model.len()
        } else {
            rng.below(model.len())
        };
        let remove = rng.below(9).min(model.len() - at);
        let insert: Vec<Item> = (0..rng.below(61)).map(|_| rng.element()).collect();
        model.splice(at..at + remove, insert.iter().cloned());

        let (crypto, pos) = (forkbase_crypto::metrics::snapshot(), metrics::snapshot());
        let spliced =
            splice_list(&store, &cfg, root, at as u64, remove as u64, &insert).expect("splice");
        let crypto = forkbase_crypto::metrics::snapshot().since(crypto);
        seeded += usize::from(metrics::snapshot().since(pos).seed_fetches > 0);
        long_runs += usize::from(crypto.lane_scan_bytes > 0);

        let itemwise = build_items_itemwise(&store, &cfg, TreeType::List, model.clone());
        assert_eq!(spliced, itemwise, "case {case}: splice vs itemwise build");
        assert_eq!(spliced, build_items(&store, &cfg, TreeType::List, model));
    }
    println!("{long_runs} of {cases} splices scanned a run in lanes, {seeded} fetched a seed");
    if lanes_run {
        assert!(
            long_runs * 5 >= cases,
            "{long_runs} of {cases} cases scanned a long run"
        );
    }
    assert!(
        seeded * 10 >= cases && seeded < cases,
        "{seeded} of {cases} cases fetched a seed"
    );
}
