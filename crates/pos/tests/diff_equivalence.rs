//! The diff by span, attacked where it could go wrong.
//!
//! `sorted_diff` steps both cursors over a run of shared index entries
//! one cid compare at a time, and merge-joins the leaves of a differing
//! region as raw element spans, making `Bytes` of an entry only when it
//! differs; `blob_diff_summary` walks the same runs from both ends, the
//! back walk keeping `reserved` bytes clear of the front one. If a run
//! passes an entry it has not compared or ignores `reserved`, a value
//! goes uncompared, or a leaf that does not decode cleanly is read as far
//! as it goes, a diff misses or invents a key, brackets the wrong bytes,
//! or answers where it must fail. So: Map and Set, leaves of 32–128
//! bytes under index fanouts of 2–8 expected and caps α ∈ {1, 2, 8},
//! each side of a diff edited by clusters half the tree apart or within
//! one leaf, values or keys resized so that leaf boundaries move, inserts
//! and deletes that change counts, bulk edits that add or remove a level,
//! down to a single leaf or an empty tree — every diff compared, both
//! ways, with a full decode and merge-join of the two trees. Then Blobs,
//! random and periodic (where whole runs of leaves repeat and only
//! `reserved` stops the back walk), edited anywhere, in the first or the
//! last leaf, by a duplicated range or a cut, against a byte-by-byte
//! prefix and suffix compare.
//!
//! The last part counts the chunks a diff of two disjoint clusters on a
//! default-config 200 000-entry map fetches — in the store, and split into
//! leaves and index nodes by the tree layer's counters — and feeds the
//! diff and the merge a truncated leaf.
//!
//! CI runs this file in the default and the `naive-baseline` leg.

use bytes::Bytes;
use forkbase_chunk::{MemStore, PutOutcome, StoreStats};
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::builder::{build_blob, build_items};
use forkbase_pos::leaf::decode_items;
use forkbase_pos::metrics;
use forkbase_pos::scan::scan_tree;
use forkbase_pos::types::TreeType;
use forkbase_pos::{
    blob_diff_summary, merge3_sorted, sorted_diff, Chunk, ChunkStore, DiffEntry, Edit, Item, Map,
    MergeError, RangeDiff, Resolver, TreeError,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};

type Model = BTreeMap<Bytes, Bytes>;

// ---------------------------------------------------------------------
// Content
// ---------------------------------------------------------------------

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

fn bytes_of(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64).map(|i| mix(seed, i) as u8).collect()
}

fn value(ty: TreeType, seed: u64) -> Bytes {
    match ty {
        TreeType::Map => Bytes::from(bytes_of(2 + (seed % 11) as usize, seed)),
        _ => Bytes::new(),
    }
}

/// `(leaf_bits, index_bits, max_factor index)`.
type CfgDraw = (u32, u32, u8);

fn cfg_of((leaf_bits, index_bits, factor): CfgDraw) -> ChunkerConfig {
    ChunkerConfig {
        window: 8,
        leaf_bits,
        index_bits,
        max_factor: [1, 2, 8][factor as usize],
        ..ChunkerConfig::default()
    }
}

/// Enough ~10-byte elements for a tree of height 3 or more.
fn elements(cfg: &ChunkerConfig) -> u64 {
    600 << (cfg.index_bits - 1 + cfg.leaf_bits - 5)
}

fn height(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> u64 {
    scan_tree(store, root, ty).expect("scan").height
}

// ---------------------------------------------------------------------
// The references
// ---------------------------------------------------------------------

/// Every item of the tree at `root` the slow way: each leaf `scan_tree`
/// lists, fetched and decoded whole.
fn all_items(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> Vec<Item> {
    let scan = scan_tree(store, root, ty).expect("scan");
    scan.leaf_entries
        .iter()
        .flat_map(|e| {
            let leaf = store.get(&e.cid).expect("leaf");
            decode_items(ty, leaf.payload()).expect("decode")
        })
        .collect()
}

/// The sorted diff the slow way: a merge-join of two full decodes.
fn naive_diff(store: &dyn ChunkStore, ty: TreeType, left: Digest, right: Digest) -> Vec<DiffEntry> {
    let (l, r) = (all_items(store, left, ty), all_items(store, right, ty));
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < l.len() || j < r.len() {
        let order = match (l.get(i), r.get(j)) {
            (Some(a), Some(b)) => a.key.cmp(&b.key),
            (Some(_), None) => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        };
        let a = order.is_le().then(|| {
            i += 1;
            &l[i - 1]
        });
        let b = order.is_ge().then(|| {
            j += 1;
            &r[j - 1]
        });
        if a.map(|x| &x.value) != b.map(|x| &x.value) {
            out.push(DiffEntry {
                key: a.or(b).expect("one side").key.clone(),
                left: a.map(|x| x.value.clone()),
                right: b.map(|x| x.value.clone()),
            });
        }
    }
    out
}

/// The blob summary the slow way: the longest common prefix, then the
/// longest common suffix of what is left.
fn naive_summary(a: &[u8], b: &[u8]) -> Option<RangeDiff> {
    if a == b {
        return None;
    }
    let p = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (ra, rb) = (&a[p..], &b[p..]);
    let s = ra
        .iter()
        .rev()
        .zip(rb.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    Some(RangeDiff {
        start: p as u64,
        left_len: (ra.len() - s) as u64,
        right_len: (rb.len() - s) as u64,
    })
}

// ---------------------------------------------------------------------
// Sorted diffs
// ---------------------------------------------------------------------

/// One edit shape: `(kind, anchor, length, seed)`. Kinds: two clusters
/// half the tree apart, a few edits within one leaf, a resized run,
/// deletes plus inserts elsewhere, then the bulk kinds — twice the
/// elements appended (a level more), all but an eighth deleted (a level
/// less), all but one to three deleted (a single leaf), all deleted.
type ShapeDraw = (u8, u16, u8, u64);

fn shape_edits(ty: TreeType, model: &Model, (kind, anchor, len, seed): ShapeDraw) -> Vec<Edit> {
    let keys: Vec<&Bytes> = model.keys().collect();
    let n = keys.len();
    let run = 1 + len as usize % 24;
    let item = |key: Bytes, s: u64| Item {
        key,
        value: value(ty, s),
    };
    let fresh = |j: usize| Bytes::from(format!("z{:02}{j:06}", seed % 100));
    if n == 0 {
        return (0..run)
            .map(|j| Edit::Put(item(fresh(j), seed ^ j as u64)))
            .collect();
    }
    // A new key right behind the `i`-th.
    let behind = |i: usize, tag: &str| {
        let mut k = keys[i % n].to_vec();
        k.extend_from_slice(tag.as_bytes());
        Bytes::from(k)
    };
    // A changed value (Map), a new key behind (Set), or a delete.
    let mixed = |i: usize| {
        let s = mix(seed, i as u64);
        match s % 3 {
            0 if ty == TreeType::Map => vec![Edit::Put(item(keys[i].clone(), s))],
            0 | 1 => vec![Edit::Put(item(behind(i, &format!("+{}", s % 3)), s))],
            _ => vec![Edit::Del(keys[i].clone())],
        }
    };
    let at = anchor as usize % n;
    let span = |from: usize, len: usize| from..n.min(from + len);
    match kind % 8 {
        0 => span(at, run)
            .chain(span((at + n / 2) % n, run))
            .flat_map(mixed)
            .collect(),
        1 => (0..1 + len as usize % 3)
            .flat_map(|j| mixed((at + j) % n))
            .collect(),
        // Longer or emptied values, or each key swapped for a longer one.
        2 => span(at, 4 * run)
            .flat_map(|i| match ty {
                TreeType::Map => {
                    let vlen = if seed % 2 == 0 { 0 } else { 24 + i % 16 };
                    let value = Bytes::from(bytes_of(vlen, seed ^ i as u64));
                    vec![Edit::Put(Item {
                        key: keys[i].clone(),
                        value,
                    })]
                }
                _ => vec![
                    Edit::Del(keys[i].clone()),
                    Edit::Put(item(behind(i, "~resized~key~"), 0)),
                ],
            })
            .collect(),
        3 => span(at, run)
            .map(|i| Edit::Del(keys[i].clone()))
            .chain(
                (0..run).map(|j| Edit::Put(item(behind(at + n / 3 + j, "+new"), seed ^ j as u64))),
            )
            .collect(),
        4 => (0..2 * n)
            .map(|j| Edit::Put(item(fresh(j), seed ^ j as u64)))
            .collect(),
        5 => keys[n / 8..]
            .iter()
            .map(|&k| Edit::Del(k.clone()))
            .collect(),
        6 => keys[(1 + len as usize % 3).min(n)..]
            .iter()
            .map(|&k| Edit::Del(k.clone()))
            .collect(),
        _ => keys.iter().map(|&k| Edit::Del(k.clone())).collect(),
    }
}

fn apply(model: &mut Model, edits: &[Edit]) {
    for e in edits {
        match e {
            Edit::Put(i) => model.insert(i.key.clone(), i.value.clone()),
            Edit::Del(k) => model.remove(k),
        };
    }
}

fn build(store: &dyn ChunkStore, cfg: &ChunkerConfig, ty: TreeType, model: &Model) -> Digest {
    let items = model.iter().map(|(k, v)| Item {
        key: k.clone(),
        value: v.clone(),
    });
    build_items(store, cfg, ty, items)
}

/// What the cases of one test reached.
#[derive(Default)]
struct Tally {
    cases: Cell<u32>,
    tall: Cell<u32>,
    level_change: Cell<u32>,
    single_leaf: Cell<u32>,
    empty: Cell<u32>,
}

fn bump(c: &Cell<u32>, on: bool) {
    c.set(c.get() + u32::from(on));
}

fn diff_case(
    ty: TreeType,
    cfg_draw: CfgDraw,
    seed: u64,
    [left_shapes, right_shapes]: [&[ShapeDraw]; 2],
    tally: &Tally,
) {
    let cfg = cfg_of(cfg_draw);
    let store = MemStore::new();
    let base: Model = (0..elements(&cfg))
        .map(|i| (Bytes::from(format!("k{i:05}")), value(ty, seed ^ i)))
        .collect();
    let side = |shapes: &[ShapeDraw]| {
        let mut model = base.clone();
        for &shape in shapes {
            let edits = shape_edits(ty, &model, shape);
            apply(&mut model, &edits);
        }
        model
    };
    let (left_model, right_model) = (side(left_shapes), side(right_shapes));
    let left = build(&store, &cfg, ty, &left_model);
    let right = build(&store, &cfg, ty, &right_model);
    for (a, b) in [(left, right), (right, left)] {
        assert_eq!(
            sorted_diff(&store, ty, a, b).expect("diff"),
            naive_diff(&store, ty, a, b),
            "{ty:?} {cfg:?}"
        );
    }

    let heights = [height(&store, left, ty), height(&store, right, ty)];
    let sizes = [left_model.len(), right_model.len()];
    bump(&tally.cases, true);
    bump(&tally.tall, heights.iter().any(|&h| h >= 3));
    bump(&tally.level_change, heights[0] != heights[1]);
    bump(
        &tally.single_leaf,
        (0..2).any(|i| heights[i] == 0 && sizes[i] > 0),
    );
    bump(&tally.empty, sizes.contains(&0) && sizes != [0, 0]);
}

fn shape() -> impl Strategy<Value = ShapeDraw> {
    // Bulk kinds (4–7) one time in seven.
    let kind = prop_oneof![6 => 0u8..4, 1 => 4u8..8];
    (kind, any::<u16>(), any::<u8>(), any::<u64>())
}

const CASES: u32 = 96;

/// [`diff_case`] over generated draws, then a check that the cases
/// reached what they are meant to.
fn run_diffs(ty: TreeType) {
    let tally = Tally::default();
    let strategy = (
        (5u32..8, 1u32..4, 0u8..3),
        any::<u64>(),
        prop::collection::vec(shape(), 0..3),
        prop::collection::vec(shape(), 1..3),
    );
    let mut rng = TestRng::from_name(&format!("diff equivalence {ty:?}"));
    for case in 0..CASES {
        let draw = strategy.generate(&mut rng);
        let (cfg, seed, left, right) = draw.clone();
        let run = || diff_case(ty, cfg, seed, [&left, &right], &tally);
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            eprintln!("{ty:?} case {case} failed with inputs {draw:?}");
            std::panic::resume_unwind(panic);
        }
    }
    let counts = [
        &tally.cases,
        &tally.tall,
        &tally.level_change,
        &tally.single_leaf,
        &tally.empty,
    ]
    .map(Cell::get);
    println!("{ty:?}: [cases, height >= 3, level change, single leaf, empty] = {counts:?}");
    assert!(
        counts[1..].iter().all(|&c| c > 0),
        "every kind of case reached: {counts:?}"
    );
}

#[test]
fn map_diff_equals_full_merge_join() {
    run_diffs(TreeType::Map);
}

#[test]
fn set_diff_equals_full_merge_join() {
    run_diffs(TreeType::Set);
}

// ---------------------------------------------------------------------
// Blob diffs
// ---------------------------------------------------------------------

/// `(periodic, edit kind, anchor, length, seed)`.
type BlobDraw = (bool, u8, u16, u8, u64);

/// Random bytes, or a block of about three leaves repeated: runs of
/// equal leaves (and index entries) that a walk from either end can
/// pass.
fn blob_content(cfg: &ChunkerConfig, periodic: bool, seed: u64) -> Vec<u8> {
    let len = 10 * elements(cfg) as usize;
    if !periodic {
        return bytes_of(len, seed);
    }
    let block = bytes_of(3 << cfg.leaf_bits, seed);
    block.iter().copied().cycle().take(len).collect()
}

/// Edit `data`: a few bytes replaced anywhere, in the first leaf or in
/// the last leaf, a range duplicated right behind itself (an insert
/// that could sit at several offsets), a range cut out, or the end
/// extended.
fn blob_edit(cfg: &ChunkerConfig, data: &mut Vec<u8>, (_, kind, anchor, len, seed): BlobDraw) {
    let n = data.len();
    let leaf = 1usize << cfg.leaf_bits;
    let small = 1 + len as usize % 9;
    let replace = |data: &mut Vec<u8>, at: usize| {
        let at = at.min(data.len());
        let cut = small.min(data.len() - at) / 2;
        data.splice(at..at + cut, bytes_of(small, seed));
    };
    match kind % 6 {
        0 => replace(data, anchor as usize % n),
        1 => replace(data, anchor as usize % leaf.min(n)),
        2 => replace(data, n - 1 - anchor as usize % leaf.min(n)),
        3 => {
            let width = (1 + len as usize % 4) * leaf;
            let at = anchor as usize % n;
            let copy = data[at..n.min(at + width)].to_vec();
            data.splice(at..at, copy);
        }
        4 => {
            let at = anchor as usize % n;
            data.drain(at..n.min(at + (1 + len as usize % 4) * leaf));
        }
        _ => data.extend(bytes_of(small * leaf / 4, seed)),
    }
}

fn blob_case(cfg_draw: CfgDraw, draws: &[BlobDraw]) {
    let cfg = cfg_of(cfg_draw);
    let store = MemStore::new();
    let (periodic, _, _, _, seed) = draws[0];
    let base = blob_content(&cfg, periodic, seed);
    let mut edited = base.clone();
    for &draw in draws {
        blob_edit(&cfg, &mut edited, draw);
    }
    let (a, b) = (
        build_blob(&store, &cfg, &base),
        build_blob(&store, &cfg, &edited),
    );
    for ((a, a_bytes), (b, b_bytes)) in [((a, &base), (b, &edited)), ((b, &edited), (a, &base))] {
        let got = blob_diff_summary(&store, a, b).expect("diff");
        let want = naive_summary(a_bytes, b_bytes);
        let (Some(got), Some(want)) = (got, want) else {
            assert_eq!(got, want, "{cfg:?}");
            continue;
        };
        let (s, ll, rl) = (
            got.start as usize,
            got.left_len as usize,
            got.right_len as usize,
        );
        assert_eq!(&a_bytes[..s], &b_bytes[..s], "{got:?} {cfg:?}");
        assert_eq!(&a_bytes[s + ll..], &b_bytes[s + rl..], "{got:?} {cfg:?}");
        assert_eq!((ll, rl), (want.left_len as usize, want.right_len as usize));
        // Only an insert or a delete can sit at several offsets; there
        // the summary may name an earlier one than the byte compare.
        assert!(
            got.start == want.start || ((ll == 0 || rl == 0) && got.start < want.start),
            "{got:?} vs {want:?}, {cfg:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn blob_summary_equals_byte_compare(
        cfg in (5u32..8, 1u32..4, 0u8..3),
        draws in prop::collection::vec((any::<bool>(), 0u8..6, any::<u16>(), any::<u8>(), any::<u64>()), 1..4),
    ) {
        blob_case(cfg, &draws);
    }
}

// ---------------------------------------------------------------------
// A 200 000-entry map: chunk counts and a truncated leaf
// ---------------------------------------------------------------------

fn pk(i: usize) -> String {
    format!("pk{i:08}")
}

fn batch(from: usize, n: usize, tag: &str) -> Vec<(String, Option<Bytes>)> {
    (from..from + n)
        .map(|i| (pk(i), Some(Bytes::from(format!("{tag}-{i}")))))
        .collect()
}

fn records(n: usize) -> impl Iterator<Item = (String, Vec<u8>)> {
    (0..n).map(|i| (pk(i), bytes_of(90 + i % 20, i as u64)))
}

/// The chunks a diff of two branches that each changed one cluster
/// fetches: the two root-to-leaf paths into each cluster and the leaves
/// that differ, nothing shared. Pinned to the count of the per-entry
/// walk that decoded whole leaves, which fetched exactly these chunks.
#[test]
fn a_diff_of_disjoint_clusters_fetches_what_differs_and_no_more() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let base = Map::build(&store, &cfg, records(200_000));
    let ours = base
        .update(&store, &cfg, batch(50_000, 200, "ours"))
        .expect("ours");
    let theirs = base
        .update(&store, &cfg, batch(150_000, 100, "theirs"))
        .expect("theirs");
    for (a, b) in [(ours.root(), theirs.root()), (theirs.root(), ours.root())] {
        let (before, counted) = (store.stats().gets, metrics::snapshot());
        let diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        let gets = store.stats().gets - before;
        let split = metrics::snapshot().since(counted);
        assert_eq!(diff.len(), 300);
        assert_eq!(gets, GETS, "diff fetched {gets} chunks");
        assert_eq!(
            (split.index_gets, split.leaf_gets),
            (INDEX_GETS, GETS - INDEX_GETS),
            "{split:?}"
        );
    }
}

/// [`a_diff_of_disjoint_clusters_fetches_what_differs_and_no_more`]'s
/// counts: all chunks, and the index nodes among them.
const GETS: u64 = 17;
const INDEX_GETS: u64 = 6;

/// A store that serves one chunk with its last byte cut off.
struct Truncating {
    inner: MemStore,
    victim: Digest,
}

impl ChunkStore for Truncating {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        let chunk = self.inner.get(cid)?;
        if *cid != self.victim {
            return Some(chunk);
        }
        let payload = chunk.payload();
        Some(Chunk::new(chunk.ty(), payload.slice(0..payload.len() - 1)))
    }
    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.inner.put(chunk)
    }
    fn contains(&self, cid: &Digest) -> bool {
        self.inner.contains(cid)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn a_truncated_leaf_in_a_differing_region_fails_the_diff_and_the_merge() {
    let inner = MemStore::new();
    let cfg = ChunkerConfig::default();
    let base = Map::build(&inner, &cfg, records(20_000));
    // Two edits a record apart: the merge cannot go by cid.
    let ours = base
        .update(&inner, &cfg, batch(10_000, 1, "ours"))
        .expect("ours");
    let theirs = base
        .update(&inner, &cfg, batch(10_001, 40, "theirs"))
        .expect("theirs");
    let leaves = |root| {
        scan_tree(&inner, root, TreeType::Map)
            .expect("scan")
            .leaf_entries
            .into_iter()
            .map(|e| e.cid)
    };
    let shared: HashSet<Digest> = leaves(base.root()).collect();
    let victim = leaves(theirs.root())
        .find(|cid| !shared.contains(cid))
        .expect("a leaf of their own");
    let store = Truncating { inner, victim };
    let (base, ours, theirs) = (base.root(), ours.root(), theirs.root());

    for (a, b) in [(base, theirs), (theirs, base), (ours, theirs)] {
        assert_eq!(sorted_diff(&store, TreeType::Map, a, b), None);
    }
    let untouched = sorted_diff(&store, TreeType::Map, base, ours).expect("diff");
    assert_eq!(untouched.len(), 1);
    assert_eq!(
        merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail
        ),
        Err(MergeError::Corrupt(TreeError::MissingChunk {
            root: theirs
        }))
    );
}
