//! The path-local POS-Tree, attacked where it could go wrong.
//!
//! Splice, diff and merge no longer look at a tree as a flat leaf list:
//! a `TreeCursor` walks to the edits, the index levels are regrouped
//! only around the patches (restart at the start of the old node holding
//! the first patched child, stop at the first cut that falls on an old
//! node's end, carry the fanout cap in between), and a diff steps over
//! equal subtrees at the highest level it can. If any of that is off by
//! one node, the spliced root differs from a from-scratch build over the
//! same content, or the diff misses or invents a key. So: all four tree
//! types, tiny leaves under index fanouts of 2–8 expected and caps
//! α ∈ {1, 2, 8} (trees 4–9 levels high, where caps, root splits and root
//! collapses all happen), and edit batches that are clustered, scattered,
//! appending, or empty whole nodes.
//!
//! The second half counts chunk fetches on a default-config 200 000-entry
//! map: a point edit must cost a root-to-leaf path, not the tree.
//!
//! CI runs this file in the default and the `naive-baseline` leg.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::builder::{build_blob, build_items};
use forkbase_pos::scan::scan_tree;
use forkbase_pos::types::TreeType;
use forkbase_pos::{
    blob_diff_summary, merge3_blob, merge3_sorted, sorted_diff, splice_blob, splice_list,
    update_sorted, Blob, ChunkStore, DiffEntry, Edit, Item, ItemIter, Map, Resolver,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `(index_bits, max_factor index, leaf_bits)`.
type CfgDraw = (u32, u8, u32);
/// `(kind, anchor, length, content seed)`.
type BatchDraw = (u8, u16, u8, u64);
type Model = BTreeMap<Bytes, Bytes>;

fn cfg_strategy() -> impl Strategy<Value = CfgDraw> {
    (1u32..4, 0u8..3, 5u32..8)
}

fn batches_strategy() -> impl Strategy<Value = Vec<BatchDraw>> {
    prop::collection::vec((0u8..4, any::<u16>(), any::<u8>(), any::<u64>()), 1..6)
}

fn cfg_of((index_bits, factor, leaf_bits): CfgDraw) -> ChunkerConfig {
    ChunkerConfig {
        window: 8,
        leaf_bits,
        index_bits,
        max_factor: [1, 2, 8][factor as usize],
        ..ChunkerConfig::default()
    }
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

fn bytes_of(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64).map(|i| mix(seed, i) as u8).collect()
}

fn value(seed: u64) -> Bytes {
    Bytes::from(bytes_of(2 + (seed % 11) as usize, seed))
}

/// The positions a batch touches, out of `n`, and whether it removes
/// them: a contiguous run, a scatter, the end, or a quarter to all of the
/// elements from the anchor on (which empties leaves, index nodes and —
/// at "all" — the tree).
fn aim((kind, anchor, len, seed): BatchDraw, n: usize) -> (Vec<usize>, bool) {
    let at = anchor as usize % n.max(1);
    match kind {
        _ if n == 0 => (vec![0; 1 + len as usize % 8], false),
        0 => ((at..n.min(at + 1 + len as usize % 24)).collect(), false),
        1 => {
            let picks = (0..1 + len as u64 % 12).map(|i| (mix(seed, i) % n as u64) as usize);
            (picks.collect(), false)
        }
        2 => (vec![n; 1 + len as usize % 40], false),
        _ => (
            (at..n.min(at + n * (1 + len as usize % 4) / 4)).collect(),
            true,
        ),
    }
}

/// Decode a batch into keyed edits against the model's current keys.
fn sorted_edits(ty: TreeType, model: &Model, draw: BatchDraw) -> Vec<Edit> {
    let keys: Vec<&Bytes> = model.keys().collect();
    let (targets, removing) = aim(draw, keys.len());
    let seed = draw.3;
    let item = |k: Bytes, s: u64| match ty {
        TreeType::Map => Item::map(k, value(s)),
        _ => Item::set(k),
    };
    targets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let s = mix(seed, i as u64);
            match keys.get(t) {
                // Past the end: a new largest key.
                None => Edit::Put(item(Bytes::from(format!("z{:08}", s % 100_000_000)), s)),
                Some(&k) if removing || s.is_multiple_of(4) => Edit::Del(k.clone()),
                // A new key right behind the one aimed at.
                Some(&k) if s % 4 == 1 => {
                    let mut nk = k.to_vec();
                    nk.extend_from_slice(format!("+{}", s % 5).as_bytes());
                    Edit::Put(item(Bytes::from(nk), s))
                }
                Some(&k) => Edit::Put(item(k.clone(), s)),
            }
        })
        .collect()
}

fn apply(model: &mut Model, edits: &[Edit]) {
    for e in edits {
        match e {
            Edit::Put(i) => model.insert(i.key.clone(), i.value.clone()),
            Edit::Del(k) => model.remove(k),
        };
    }
}

fn build_sorted(store: &MemStore, cfg: &ChunkerConfig, ty: TreeType, model: &Model) -> Digest {
    let items = model.iter().map(|(k, v)| Item {
        key: k.clone(),
        value: v.clone(),
    });
    build_items(store, cfg, ty, items)
}

/// The diff the slow way: a merge-join of two full iterations.
fn naive_diff(store: &MemStore, ty: TreeType, left: Digest, right: Digest) -> Vec<DiffEntry> {
    let mut l = ItemIter::new(store, left, ty).expect("left").peekable();
    let mut r = ItemIter::new(store, right, ty).expect("right").peekable();
    let mut out = Vec::new();
    loop {
        let order = match (l.peek(), r.peek()) {
            (None, None) => return out,
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (Some(a), Some(b)) => a.key.cmp(&b.key),
        };
        let a = (order.is_le()).then(|| l.next().expect("peeked"));
        let b = (order.is_ge()).then(|| r.next().expect("peeked"));
        if a.as_ref().map(|i| &i.value) != b.as_ref().map(|i| &i.value) {
            out.push(DiffEntry {
                key: a.as_ref().or(b.as_ref()).expect("one side").key.clone(),
                left: a.map(|i| i.value),
                right: b.map(|i| i.value),
            });
        }
    }
}

/// Enough ~10-byte elements for a tree of height 3 or more.
fn elements(cfg: &ChunkerConfig) -> u64 {
    600 << (cfg.index_bits - 1 + cfg.leaf_bits - 5)
}

fn height(store: &MemStore, root: Digest, ty: TreeType) -> u64 {
    scan_tree(store, root, ty).expect("scan").height
}

fn sorted_case(ty: TreeType, cfg_draw: CfgDraw, seed: u64, batches: Vec<BatchDraw>) {
    let cfg = cfg_of(cfg_draw);
    let store = MemStore::new();
    let mut model: Model = (0..elements(&cfg))
        .map(|i| {
            let v = if ty == TreeType::Map {
                value(seed ^ i)
            } else {
                Bytes::new()
            };
            (Bytes::from(format!("k{i:05}")), v)
        })
        .collect();
    let mut root = build_sorted(&store, &cfg, ty, &model);
    assert!(height(&store, root, ty) >= 3, "deep enough to matter");

    for pair in batches.chunks(2) {
        // Splice: the first batch of the pair, applied to the head.
        let base_model = model.clone();
        let base = root;
        let ours_edits = sorted_edits(ty, &model, pair[0]);
        apply(&mut model, &ours_edits);
        root = update_sorted(&store, &cfg, ty, base, ours_edits).expect("update");
        assert_eq!(
            root,
            build_sorted(&store, &cfg, ty, &model),
            "splice {ty:?} {cfg:?} {:?}",
            pair[0]
        );
        // Diff: pruned walk == full merge-join, both directions.
        assert_eq!(
            sorted_diff(&store, ty, base, root).expect("diff"),
            naive_diff(&store, ty, base, root)
        );
        assert_eq!(
            sorted_diff(&store, ty, root, base).expect("diff"),
            naive_diff(&store, ty, root, base)
        );

        // Merge: the second batch forks off the same base; ours wins
        // where both changed a key.
        let Some(&theirs_draw) = pair.get(1) else {
            continue;
        };
        let mut theirs_model = base_model.clone();
        let theirs_edits = sorted_edits(ty, &base_model, theirs_draw);
        apply(&mut theirs_model, &theirs_edits);
        let theirs = update_sorted(&store, &cfg, ty, base, theirs_edits).expect("update");
        assert_eq!(theirs, build_sorted(&store, &cfg, ty, &theirs_model));
        let merged = merge3_sorted(&store, &cfg, ty, base, root, theirs, &Resolver::TakeOurs)
            .expect("merge")
            .root;
        for (k, theirs_v) in &theirs_model {
            if base_model.get(k) == model.get(k) {
                model.insert(k.clone(), theirs_v.clone());
            }
        }
        for k in base_model.keys() {
            if !theirs_model.contains_key(k) && base_model.get(k) == model.get(k) {
                model.remove(k);
            }
        }
        root = merged;
        assert_eq!(
            root,
            build_sorted(&store, &cfg, ty, &model),
            "merge {ty:?} {cfg:?} {pair:?}"
        );
    }
}

/// A splice drawn for a sequence of `n` elements: `(start, remove,
/// number of elements to insert)`.
fn range_of(draw: BatchDraw, n: usize) -> (usize, usize, usize) {
    let (targets, removing) = aim(draw, n);
    let start = targets.first().copied().unwrap_or(0).min(n);
    let (len, seed) = (targets.len(), draw.3);
    match draw.0 {
        _ if removing => (start, len.min(n - start), (seed % 3) as usize),
        // Appending.
        2 => (n, 0, len),
        // Clustered / scattered: replace a few, insert a few.
        _ => (start, (len / 2).min(n - start), (seed % 7) as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_splice_diff_merge(
        cfg in cfg_strategy(), seed in any::<u64>(), batches in batches_strategy(),
    ) {
        sorted_case(TreeType::Map, cfg, seed, batches);
    }

    #[test]
    fn set_splice_diff_merge(
        cfg in cfg_strategy(), seed in any::<u64>(), batches in batches_strategy(),
    ) {
        sorted_case(TreeType::Set, cfg, seed, batches);
    }

    #[test]
    fn list_splice_equals_rebuild(
        cfg_draw in cfg_strategy(), seed in any::<u64>(), batches in batches_strategy(),
    ) {
        let cfg = cfg_of(cfg_draw);
        let store = MemStore::new();
        let mut model: Vec<Bytes> = (0..elements(&cfg)).map(|i| value(seed ^ i)).collect();
        let build = |model: &[Bytes]| {
            build_items(&store, &cfg, TreeType::List, model.iter().cloned().map(Item::list))
        };
        let mut root = build(&model);
        prop_assert!(height(&store, root, TreeType::List) >= 3, "deep enough to matter");
        for draw in batches {
            let (start, remove, n_insert) = range_of(draw, model.len());
            let insert: Vec<Bytes> = (0..n_insert as u64).map(|i| value(mix(draw.3, i))).collect();
            let items: Vec<Item> = insert.iter().cloned().map(Item::list).collect();
            root = splice_list(&store, &cfg, root, start as u64, remove as u64, &items)
                .expect("splice");
            model.splice(start..start + remove, insert);
            prop_assert_eq!(root, build(&model), "List {:?} {:?}", cfg, draw);
        }
    }

    #[test]
    fn blob_splice_diff_merge(
        cfg_draw in cfg_strategy(), seed in any::<u64>(), batches in batches_strategy(),
    ) {
        let cfg = cfg_of(cfg_draw);
        let store = MemStore::new();
        let mut model = bytes_of(10 * elements(&cfg) as usize, seed);
        let mut root = build_blob(&store, &cfg, &model);
        prop_assert!(height(&store, root, TreeType::Blob) >= 3, "deep enough to matter");
        for draw in batches {
            // Element positions are bytes: scale the draw up.
            let (start, remove, n_insert) = range_of(draw, model.len() / 16);
            let (start, remove) = (start * 16, remove * 16);
            let insert = bytes_of(n_insert * 9, draw.3);
            let (base, base_model) = (root, model.clone());
            root = splice_blob(&store, &cfg, base, start as u64, remove as u64, &insert)
                .expect("splice");
            model.splice(start..start + remove, insert.iter().copied());
            prop_assert_eq!(root, build_blob(&store, &cfg, &model), "Blob {:?} {:?}", cfg, draw);

            // The diff summary brackets the change, and reading the
            // bracketed range back through the cursor matches the model.
            let Some(d) = blob_diff_summary(&store, base, root).expect("diff") else {
                prop_assert_eq!(&base_model, &model);
                continue;
            };
            let (s, ll, rl) = (d.start as usize, d.left_len as usize, d.right_len as usize);
            prop_assert_eq!(&base_model[..s], &model[..s]);
            prop_assert_eq!(&base_model[s + ll..], &model[s + rl..]);
            prop_assert!(ll <= remove + insert.len() && rl <= remove + insert.len());
            let read = Blob::from_root(root).read_range(&store, d.start, d.right_len);
            prop_assert_eq!(read.expect("read"), &model[s..s + rl]);

            // Merge with a disjoint edit at the far end of the base.
            let far = if s > base_model.len() / 2 { 0 } else { base_model.len() };
            if far == s || (far == 0 && s < 8) || (far > 0 && s + ll + 8 > far) {
                continue;
            }
            let theirs = splice_blob(&store, &cfg, base, far as u64, 0, b"THEIRS").expect("splice");
            let merged = merge3_blob(&store, &cfg, base, root, theirs).expect("disjoint");
            let mut both = model.clone();
            let at = if far == 0 { 0 } else { both.len() };
            both.splice(at..at, b"THEIRS".iter().copied());
            prop_assert_eq!(merged, build_blob(&store, &cfg, &both));
        }
    }
}

/// A default-config map of `n` ~100-byte records.
fn big_map(store: &MemStore, cfg: &ChunkerConfig, n: usize) -> Map {
    Map::build(
        store,
        cfg,
        (0..n).map(|i| (format!("pk{i:08}"), bytes_of(90 + i % 20, i as u64))),
    )
}

/// `(diff gets, update gets, height)` of a point edit in the middle of an
/// `n`-entry map.
fn point_edit_gets(n: usize) -> (u64, u64, u64) {
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let map = big_map(&store, &cfg, n);
    let key = format!("pk{:08}", n / 2);

    let before = store.stats().gets;
    let edited = map.put(&store, &cfg, key.clone(), "edited").expect("put");
    let update = store.stats().gets - before;

    let before = store.stats().gets;
    let diff = sorted_diff(&store, TreeType::Map, map.root(), edited.root()).expect("diff");
    let diff_gets = store.stats().gets - before;
    assert_eq!(diff.len(), 1);
    assert_eq!(diff[0].key.as_ref(), key.as_bytes());
    (diff_gets, update, height(&store, map.root(), TreeType::Map))
}

#[test]
fn point_edits_cost_a_path_not_the_tree() {
    let sizes = [500, 20_000, 200_000].map(point_edit_gets);
    // Two root-to-leaf paths for the diff; one path and the leaf in front
    // (its tail warms the rolling window) for the update.
    let (diff, update, _) = sizes[2];
    assert!(diff <= 12, "diff fetched {diff} chunks");
    assert!(update <= 12, "update fetched {update} chunks");
    // Ten times the entries cost the extra levels and nothing else: one
    // chunk per level for the update, one per level and side for the
    // diff.
    for pair in sizes.windows(2) {
        let ((d0, u0, h0), (d1, u1, h1)) = (pair[0], pair[1]);
        assert!(
            d1 <= d0 + 2 * (h1 - h0),
            "diff {d0} -> {d1}, height {h0} -> {h1}"
        );
        assert!(
            u1 <= u0 + (h1 - h0),
            "update {u0} -> {u1}, height {h0} -> {h1}"
        );
    }
    assert!(
        sizes[2].2 > sizes[0].2,
        "the sizes span more than one height"
    );
}

#[test]
fn clustered_batch_and_merge_stay_path_local() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let base = big_map(&store, &cfg, 200_000);
    let leaves = scan_tree(&store, base.root(), TreeType::Map)
        .expect("scan")
        .leaf_entries
        .len() as u64;
    let batch = |from: usize, n: usize, tag: &str| {
        (from..from + n)
            .map(|i| (format!("pk{i:08}"), Some(Bytes::from(format!("{tag}-{i}")))))
            .collect::<Vec<_>>()
    };

    let before = store.stats().gets;
    let ours = base
        .update(&store, &cfg, batch(50_000, 200, "ours"))
        .expect("update");
    let theirs = base
        .update(&store, &cfg, batch(150_000, 100, "theirs"))
        .expect("update");
    let merged = merge3_sorted(
        &store,
        &cfg,
        TreeType::Map,
        base.root(),
        ours.root(),
        theirs.root(),
        &Resolver::Fail,
    )
    .expect("merge");
    let gets = store.stats().gets - before;
    assert!(
        gets < leaves / 20,
        "two batches and a merge fetched {gets} chunks of a {leaves}-leaf tree"
    );
    let both = base
        .update(
            &store,
            &cfg,
            batch(50_000, 200, "ours")
                .into_iter()
                .chain(batch(150_000, 100, "theirs")),
        )
        .expect("update");
    assert_eq!(merged.root, both.root());
    assert_eq!(store.get(&merged.root).map(|c| c.cid()), Some(both.root()));
}
