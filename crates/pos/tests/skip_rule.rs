//! The edit-local re-chunking rule, attacked where it could go wrong.
//!
//! A splice re-scans old-leaf bytes only (a) within one rolling window of
//! the last fresh or removed byte and (b) inside the old leaf's last
//! element, and scans a known-clean stretch after all when the forced
//! `α·2^q` cut would land in it. If any of that is off by one element or
//! one byte, a boundary is missed and the spliced root differs from the
//! root of a from-scratch build over the same content. So: every rolling
//! hash, leaf sizes 2^6–2^12, caps α ∈ {1, 2, 8}, all four tree types,
//! and edit schedules aimed at the edges — the first and last element of
//! a leaf, within `window` bytes of a leaf boundary, deletes of the
//! element a leaf was cut on, length-changing puts, pure appends, and
//! zero-entropy inserts that push a leaf over the cap.
//!
//! Edits are drawn as small integer tuples and decoded against the leaf
//! layout of the tree they are applied to (the layout is not known when
//! the inputs are generated). CI runs this file in the default and the
//! `naive-baseline` leg: the `Reference` detector has its own
//! `skip_clean` arm.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::{ChunkerConfig, Digest, RollingKind};
use forkbase_pos::builder::{build_blob, build_items};
use forkbase_pos::scan::scan_tree;
use forkbase_pos::types::TreeType;
use forkbase_pos::{splice_blob, splice_list, update_sorted, Edit, Item};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `(rolling, leaf_bits, max_factor index, window index)`.
type CfgDraw = (u8, u32, u8, u8);
/// `(leaf, where in the leaf, what to do, a size, content seed)`.
type EditDraw = (u8, u8, u8, u16, u64);

fn cfg_strategy() -> impl Strategy<Value = CfgDraw> {
    (0u8..3, 6u32..13, 0u8..3, 0u8..3)
}

fn edits_strategy() -> impl Strategy<Value = Vec<Vec<EditDraw>>> {
    let edit = (any::<u8>(), 0u8..6, 0u8..6, any::<u16>(), any::<u64>());
    prop::collection::vec(prop::collection::vec(edit, 1..6), 1..4)
}

fn cfg_of((rolling, leaf_bits, factor, window): CfgDraw) -> ChunkerConfig {
    ChunkerConfig {
        window: [4, 16, 48][window as usize],
        leaf_bits,
        index_bits: 3,
        max_factor: [1, 2, 8][factor as usize],
        rolling: [
            RollingKind::CyclicPoly,
            RollingKind::RabinKarp,
            RollingKind::MovingSum,
        ][rolling as usize],
    }
}

fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// A value whose length depends on the seed: replacing one with another
/// changes the element's length.
fn value(seed: u64) -> Bytes {
    Bytes::from(pseudo_random(4 + (seed % 37) as usize, seed))
}

/// Fresh content of the size the draw asks for: mostly small, sometimes
/// about a window, sometimes zero-entropy and larger than the leaf cap —
/// the pattern never fires in it, so only the forced cut can end it.
fn fresh(cfg: &ChunkerConfig, size: u16, seed: u64) -> Vec<u8> {
    match size % 8 {
        0 => Vec::new(),
        1..=4 => pseudo_random(1 + (size as usize >> 3) % 40, seed),
        5 => pseudo_random(cfg.window + (size as usize >> 3) % 3 - 1, seed),
        6 => pseudo_random(cfg.expected_leaf_size() / 2, seed),
        _ => vec![0xAA; cfg.max_leaf_size() + (size as usize >> 3) % 64],
    }
}

/// Element (or, for a Blob, byte) counts per leaf.
fn leaf_counts(store: &MemStore, root: Digest, ty: TreeType) -> Vec<u64> {
    let scan = scan_tree(store, root, ty).expect("scan");
    scan.leaf_entries.iter().map(|e| e.count).collect()
}

/// The position the draw points at: leaf `leaf`, then the first, second,
/// last or second-last position of it, the position one past its end, or
/// one `delta` positions either side of the leaf's edge. Returns a
/// position in `0..=total`.
fn aim(counts: &[u64], leaf: u8, spot: u8, delta: u64) -> u64 {
    let total: u64 = counts.iter().sum();
    if counts.is_empty() {
        return 0;
    }
    let li = leaf as usize % counts.len();
    let start: u64 = counts[..li].iter().sum();
    let end = start + counts[li];
    let pos = match spot {
        0 => start,
        1 => start + 1,
        2 => end.saturating_sub(1),
        3 => end,
        4 => end.saturating_sub(1 + delta),
        _ => start + delta,
    };
    pos.min(total)
}

/// Enough fresh content for roughly `leaves` leaves.
fn base_len(cfg: &ChunkerConfig, leaves: usize) -> usize {
    cfg.expected_leaf_size() * leaves
}

fn sorted_case(ty: TreeType, cfg_draw: CfgDraw, seed: u64, rounds: Vec<Vec<EditDraw>>) {
    let cfg = cfg_of(cfg_draw);
    let store = MemStore::new();
    let item = |k: &Bytes, v: &Bytes| match ty {
        TreeType::Map => Item::map(k.clone(), v.clone()),
        _ => Item::set(k.clone()),
    };
    // ~30-byte elements, about six leaves' worth.
    let n = (base_len(&cfg, 6) / 30).max(8);
    let mut model: BTreeMap<Bytes, Bytes> = (0..n)
        .map(|i| {
            let v = if ty == TreeType::Map {
                value(seed ^ i as u64)
            } else {
                Bytes::new()
            };
            (Bytes::from(format!("k{i:07}")), v)
        })
        .collect();
    let mut root = build_items(&store, &cfg, ty, model.iter().map(|(k, v)| item(k, v)));

    for round in rounds {
        let counts = leaf_counts(&store, root, ty);
        let keys: Vec<Bytes> = model.keys().cloned().collect();
        let mut edits = Vec::new();
        for (leaf, spot, action, size, eseed) in round {
            let pos = aim(&counts, leaf, spot, 1 + size as u64 % 3) as usize;
            let at = keys.get(pos.min(keys.len().saturating_sub(1))).cloned();
            let v = if ty == TreeType::Map {
                Bytes::from(fresh(&cfg, size, eseed))
            } else {
                Bytes::new()
            };
            let edit = match (action, at) {
                // Delete the element aimed at.
                (0 | 1, Some(k)) => Edit::Del(k),
                // Replace it (Map: with a value of another length).
                (2, Some(k)) => Edit::Put(item(&k, &v)),
                // Insert right behind it.
                (3 | 4, Some(k)) => {
                    let mut nk = k.to_vec();
                    nk.extend_from_slice(format!("+{}", eseed % 3).as_bytes());
                    Edit::Put(item(&Bytes::from(nk), &v))
                }
                // Append past the end (or into an emptied tree).
                _ => Edit::Put(item(&Bytes::from(format!("z{:05}", eseed % 1000)), &v)),
            };
            edits.push(edit);
        }
        // The model applies the batch in order, so a later edit of the
        // same key wins — as `normalize_edits` promises.
        for e in &edits {
            match e {
                Edit::Put(i) => model.insert(i.key.clone(), i.value.clone()),
                Edit::Del(k) => model.remove(k),
            };
        }
        root = update_sorted(&store, &cfg, ty, root, edits).expect("update");
        let rebuilt = build_items(&store, &cfg, ty, model.iter().map(|(k, v)| item(k, v)));
        assert_eq!(root, rebuilt, "{ty:?} {cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn map_splice_equals_rebuild(
        cfg in cfg_strategy(), seed in any::<u64>(), rounds in edits_strategy(),
    ) {
        sorted_case(TreeType::Map, cfg, seed, rounds);
    }

    #[test]
    fn set_splice_equals_rebuild(
        cfg in cfg_strategy(), seed in any::<u64>(), rounds in edits_strategy(),
    ) {
        sorted_case(TreeType::Set, cfg, seed, rounds);
    }

    #[test]
    fn list_splice_equals_rebuild(
        cfg_draw in cfg_strategy(), seed in any::<u64>(), rounds in edits_strategy(),
    ) {
        let cfg = cfg_of(cfg_draw);
        let store = MemStore::new();
        let n = (base_len(&cfg, 6) / 24).max(8);
        let mut model: Vec<Bytes> = (0..n).map(|i| value(seed ^ i as u64)).collect();
        let build = |model: &[Bytes]| {
            build_items(&store, &cfg, TreeType::List, model.iter().cloned().map(Item::list))
        };
        let mut root = build(&model);
        // One splice per draw: a list splice is a single range.
        for (leaf, spot, action, size, eseed) in rounds.into_iter().flatten() {
            let counts = leaf_counts(&store, root, TreeType::List);
            let start = aim(&counts, leaf, spot, 1 + size as u64 % 3) as usize;
            let remove = match action {
                0 => 0,
                1 | 2 => 1,
                3 => 1 + size as usize % 4,
                // Across whole leaves.
                4 => counts.get(leaf as usize % counts.len().max(1)).map_or(0, |c| *c as usize + 2),
                _ => 0,
            }
            .min(model.len() - start);
            let insert: Vec<Bytes> = (0..(eseed % 4) as u16)
                .map(|i| Bytes::from(fresh(&cfg, size.rotate_left(i as u32 * 3), eseed ^ i as u64)))
                .collect();
            let items: Vec<Item> = insert.iter().cloned().map(Item::list).collect();
            root = splice_list(&store, &cfg, root, start as u64, remove as u64, &items)
                .expect("splice");
            model.splice(start..start + remove, insert);
            prop_assert_eq!(root, build(&model), "List {:?}", cfg);
        }
    }

    #[test]
    fn blob_splice_equals_rebuild(
        cfg_draw in cfg_strategy(), seed in any::<u64>(), rounds in edits_strategy(),
    ) {
        let cfg = cfg_of(cfg_draw);
        let store = MemStore::new();
        let mut model = pseudo_random(base_len(&cfg, 8), seed);
        let mut root = build_blob(&store, &cfg, &model);
        for (leaf, spot, action, size, eseed) in rounds.into_iter().flatten() {
            let counts = leaf_counts(&store, root, TreeType::Blob);
            // Within a window of the leaf's edge, either side of it.
            let delta = 1 + eseed % (cfg.window as u64 + 2);
            let start = aim(&counts, leaf, spot, delta) as usize;
            let remove = match action {
                0 | 1 => 0,
                2 => 1,
                3 => size as usize % (cfg.window + 2),
                4 => cfg.expected_leaf_size() + size as usize % 50,
                _ => 3 * cfg.max_leaf_size(),
            }
            .min(model.len() - start);
            let insert = fresh(&cfg, size, eseed);
            root = splice_blob(&store, &cfg, root, start as u64, remove as u64, &insert)
                .expect("splice");
            model.splice(start..start + remove, insert);
            prop_assert_eq!(root, build_blob(&store, &cfg, &model), "Blob {:?}", cfg);
        }
    }
}
