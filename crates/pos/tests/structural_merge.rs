//! The structural merge, attacked where it could go wrong.
//!
//! `merge3_sorted` merges two sides whose leaf regions lie at least
//! `window` elements apart by cid: ours, with their changed leaves
//! patched in and the index levels regrouped on the paths to the
//! patches. If the walk misplaces a region, the gap rule lets two regions
//! through whose chunking interacts, or their offsets are not moved by
//! what ours added and removed ahead of them, the merged root is not the
//! from-scratch build of the three-way merge. So: Map and Set, leaves of
//! 32–128 bytes under index fanouts of 2–8 expected and caps
//! α ∈ {1, 2, 8}, windows shorter and longer than an element, and their
//! clusters placed against ours — anywhere, in the same leaf, in the next
//! leaf, one leaf on, `window − 1` and `window` elements on, before and
//! after — with inserts and deletes that move counts, and bulk edits
//! that add or remove a tree level. Every merge is compared with the
//! three-way model and with the key-level merge (two diffs and a splice,
//! put together here from the public pieces): the same root, or the
//! same conflicts.
//!
//! The second half counts chunk gets and puts by chunk type on a
//! default-config 200 000-entry map, off the tree layer's per-thread
//! counters ([`forkbase_pos::metrics`]): merging two disjoint clusters
//! fetches and puts no leaf.
//!
//! CI runs this file in the default and the `naive-baseline` leg.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::builder::build_items;
use forkbase_pos::metrics;
use forkbase_pos::scan::scan_tree;
use forkbase_pos::types::TreeType;
use forkbase_pos::{
    merge3_sorted, sorted_diff, update_sorted, ChunkStore, Conflict, Edit, Item, Map, MergeError,
    MergeOutcome, Resolver,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

fn build(store: &dyn ChunkStore, cfg: &ChunkerConfig, ty: TreeType, model: &Model) -> Digest {
    let items = model.iter().map(|(k, v)| Item {
        key: k.clone(),
        value: v.clone(),
    });
    build_items(store, cfg, ty, items)
}

fn apply(model: &mut Model, edits: &[Edit]) {
    for e in edits {
        match e {
            Edit::Put(i) => model.insert(i.key.clone(), i.value.clone()),
            Edit::Del(k) => model.remove(k),
        };
    }
}

// ---------------------------------------------------------------------
// The two references
// ---------------------------------------------------------------------

/// Fail, TakeOurs, TakeTheirs, or a custom hook keeping the larger value.
fn resolver(kind: u8) -> Resolver {
    match kind {
        0 => Resolver::Fail,
        1 => Resolver::TakeOurs,
        2 => Resolver::TakeTheirs,
        _ => Resolver::Custom(Box::new(|c: &Conflict| resolve(3, c))),
    }
}

#[allow(clippy::option_option)]
fn resolve(kind: u8, c: &Conflict) -> Option<Option<Bytes>> {
    match kind {
        0 => None,
        1 => Some(c.ours.clone()),
        2 => Some(c.theirs.clone()),
        _ => Some(c.ours.clone().max(c.theirs.clone())),
    }
}

/// The three-way merge key by key: the merged model and the number of
/// conflicts resolved, or the conflicts left.
fn model_merge(
    base: &Model,
    ours: &Model,
    theirs: &Model,
    kind: u8,
) -> Result<(Model, usize), Vec<Conflict>> {
    let keys: BTreeSet<&Bytes> = base
        .keys()
        .chain(ours.keys())
        .chain(theirs.keys())
        .collect();
    let (mut merged, mut conflicts, mut resolved) = (Model::new(), Vec::new(), 0);
    for k in keys {
        let (b, o, t) = (base.get(k), ours.get(k), theirs.get(k));
        let value = if o == t || t == b {
            o.cloned()
        } else if o == b {
            t.cloned()
        } else {
            let c = Conflict {
                key: k.clone(),
                base: b.cloned(),
                ours: o.cloned(),
                theirs: t.cloned(),
            };
            match resolve(kind, &c) {
                Some(v) => {
                    resolved += 1;
                    v
                }
                None => {
                    conflicts.push(c);
                    continue;
                }
            }
        };
        if let Some(v) = value {
            merged.insert(k.clone(), v);
        }
    }
    if conflicts.is_empty() {
        Ok((merged, resolved))
    } else {
        Err(conflicts)
    }
}

/// The key-level merge: both diffs merge-joined, theirs and the
/// resolver's decisions spliced onto ours.
fn key_level_merge(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    [base, ours, theirs]: [Digest; 3],
    kind: u8,
) -> Result<MergeOutcome, Vec<Conflict>> {
    let d_ours = sorted_diff(store, ty, base, ours).expect("diff ours");
    let d_theirs = sorted_diff(store, ty, base, theirs).expect("diff theirs");
    let edit = |key: Bytes, value: Option<Bytes>| match value {
        Some(value) => Edit::Put(Item { key, value }),
        None => Edit::Del(key),
    };
    let (mut edits, mut conflicts, mut resolved) = (Vec::new(), Vec::new(), 0);
    let mut d_ours = d_ours.into_iter().peekable();
    for t in d_theirs {
        while d_ours.next_if(|o| o.key < t.key).is_some() {}
        match d_ours.next_if(|o| o.key == t.key) {
            None => edits.push(edit(t.key, t.right)),
            Some(o) if o.right == t.right => {}
            Some(o) => {
                let c = Conflict {
                    key: t.key,
                    base: o.left,
                    ours: o.right,
                    theirs: t.right,
                };
                match resolve(kind, &c) {
                    Some(value) => {
                        resolved += 1;
                        if value != c.ours {
                            edits.push(edit(c.key, value));
                        }
                    }
                    None => conflicts.push(c),
                }
            }
        }
    }
    if !conflicts.is_empty() {
        return Err(conflicts);
    }
    let root = update_sorted(store, cfg, ty, ours, edits).expect("splice");
    Ok(MergeOutcome { root, resolved })
}

// ---------------------------------------------------------------------
// Drawing the two sides
// ---------------------------------------------------------------------

/// `(leaf_bits, index_bits, max_factor index, window index)`.
type CfgDraw = (u32, u32, u8, u8);
/// One cluster: `(anchor, length, kind, seed)`. Kinds: modify, insert,
/// delete, a mix, a bulk append (a level more), a bulk delete (a level
/// less).
type ClusterDraw = (u16, u8, u8, u64);
/// One of their clusters: `(shape, which of ours it is placed against,
/// cluster)`.
type PlacedDraw = (u8, u8, ClusterDraw);

fn cfg_of((leaf_bits, index_bits, factor, window): CfgDraw) -> ChunkerConfig {
    ChunkerConfig {
        window: [4, 8, 16, 48][window as usize],
        leaf_bits,
        index_bits,
        max_factor: [1, 2, 8][factor as usize],
        ..ChunkerConfig::default()
    }
}

/// Enough elements of 7–19 bytes for a tree of height 3 or more.
fn elements(cfg: &ChunkerConfig) -> u64 {
    600 << (cfg.index_bits - 1 + cfg.leaf_bits - 5)
}

/// The base elements a cluster starting at `at` touches.
fn span((_, len, kind, _): ClusterDraw, at: usize, n: usize) -> Range<usize> {
    let at = at.min(n - 1);
    match kind % 6 {
        4 => n - 1..n,
        5 => at..n.min(at + 3 * n / 4),
        _ => at..n.min(at + 1 + len as usize % 24),
    }
}

/// The edits of a cluster over `span` of the base `keys`.
fn cluster_edits(ty: TreeType, keys: &[Bytes], span: Range<usize>, draw: ClusterDraw) -> Vec<Edit> {
    let (_, _, kind, seed) = draw;
    let n = keys.len() as u64;
    let item = |k: Bytes, s: u64| Item {
        key: k,
        value: value(ty, s),
    };
    if kind % 6 == 4 {
        let fresh = (0..2 * n).map(|j| Bytes::from(format!("z{:02}{j:06}", seed % 100)));
        return fresh.map(|k| Edit::Put(item(k, seed ^ n))).collect();
    }
    span.map(|i| {
        let s = mix(seed, i as u64);
        let k = keys[i].clone();
        let op = match kind % 6 {
            0 if ty == TreeType::Map => 0,
            0 | 1 => 1,
            2 | 5 => 2,
            _ => s % 3,
        };
        match op {
            0 => Edit::Put(item(k, s)),
            1 => {
                let mut nk = k.to_vec();
                nk.extend_from_slice(format!("+{}", s % 3).as_bytes());
                Edit::Put(item(Bytes::from(nk), s))
            }
            _ => Edit::Del(k),
        }
    })
    .collect()
}

/// Where one of their clusters starts, placed against the span `of` one
/// of ours over the base leaves that start at `starts`: anywhere, in the
/// same leaf, the next leaf, one leaf on, `window − 1` or `window`
/// elements after the leaf `of` ends in, or the same four before the leaf
/// it starts in (the cluster then ends there).
fn place(
    shape: u8,
    of: &Range<usize>,
    draw: ClusterDraw,
    starts: &[usize],
    window: usize,
    n: usize,
) -> usize {
    let leaf_of = |pos: usize| starts.partition_point(|&s| s <= pos) - 1;
    let start_of = |leaf: usize| starts.get(leaf).copied();
    let end_of = |leaf: usize| starts.get(leaf + 1).copied().unwrap_or(n);
    let (first, last) = (leaf_of(of.start), leaf_of(of.end - 1));
    let anywhere = draw.0 as usize % n;
    let len = span(draw, 0, n).len();
    // A cluster ending at `end` (inclusive) starts `len - 1` before it.
    let ending_at = |end: Option<usize>| end.map(|e| (e + 1).saturating_sub(len));
    let gap_after = |g: usize| starts.iter().copied().find(|&s| s >= end_of(last) + g);
    let gap_before = |g: usize| {
        let bound = starts[first].checked_sub(g)?;
        let leaf = (0..first).rev().find(|&l| end_of(l) <= bound)?;
        Some(end_of(leaf) - 1)
    };
    let at = match shape % 10 {
        0 => None,
        1 => Some(starts[first] + anywhere % (end_of(first) - starts[first])),
        2 => start_of(last + 1),
        3 => start_of(last + 2),
        4 => gap_after(window - 1),
        5 => gap_after(window),
        6 => ending_at(first.checked_sub(1).map(|l| end_of(l) - 1)),
        7 => ending_at(first.checked_sub(2).map(|l| end_of(l) - 1)),
        8 => ending_at(gap_before(window - 1)),
        _ => ending_at(gap_before(window)),
    };
    at.unwrap_or(anywhere)
}

/// What the runs of one test saw, so that it can say its cases reached
/// what they are meant to.
#[derive(Default)]
struct Tally {
    cases: Cell<u32>,
    /// Merges that touched no leaf: the structural path ran.
    structural: Cell<u32>,
    /// Merges the key-level path took.
    key_level: Cell<u32>,
    conflicts: Cell<u32>,
    tall: Cell<u32>,
}

fn bump(c: &Cell<u32>) {
    c.set(c.get() + 1);
}

fn merge_case(
    ty: TreeType,
    cfg_draw: CfgDraw,
    seed: u64,
    ours_draws: &[ClusterDraw],
    theirs_draws: &[PlacedDraw],
    kind: u8,
    tally: &Tally,
) {
    let cfg = cfg_of(cfg_draw);
    let store = MemStore::new();
    let base_model: Model = (0..elements(&cfg))
        .map(|i| (Bytes::from(format!("k{i:05}")), value(ty, seed ^ i)))
        .collect();
    let base = build(&store, &cfg, ty, &base_model);
    let scan = scan_tree(&store, base, ty).expect("scan");
    let starts: Vec<usize> = scan
        .leaf_entries
        .iter()
        .scan(0, |at, e| {
            let start = *at;
            *at += e.count as usize;
            Some(start)
        })
        .collect();
    let keys: Vec<Bytes> = base_model.keys().cloned().collect();
    let n = keys.len();

    // Ours: clusters anywhere.
    let mut spans = Vec::new();
    let mut ours_edits = Vec::new();
    for &draw in ours_draws {
        let s = span(draw, draw.0 as usize % n, n);
        ours_edits.extend(cluster_edits(ty, &keys, s.clone(), draw));
        spans.push(s);
    }
    // Theirs: each cluster placed against one of ours.
    let mut theirs_edits = Vec::new();
    for &(shape, which, draw) in theirs_draws {
        let of = &spans[which as usize % spans.len()];
        let at = place(shape, of, draw, &starts, cfg.window, n);
        theirs_edits.extend(cluster_edits(ty, &keys, span(draw, at, n), draw));
    }
    let (mut ours_model, mut theirs_model) = (base_model.clone(), base_model.clone());
    apply(&mut ours_model, &ours_edits);
    apply(&mut theirs_model, &theirs_edits);
    let ours = update_sorted(&store, &cfg, ty, base, ours_edits).expect("ours");
    let theirs = update_sorted(&store, &cfg, ty, base, theirs_edits).expect("theirs");
    assert_eq!(ours, build(&store, &cfg, ty, &ours_model));
    assert_eq!(theirs, build(&store, &cfg, ty, &theirs_model));

    let before = metrics::snapshot();
    let got = merge3_sorted(&store, &cfg, ty, base, ours, theirs, &resolver(kind));
    let traffic = metrics::snapshot().since(before);
    let key_level = key_level_merge(&store, &cfg, ty, [base, ours, theirs], kind);
    let model = model_merge(&base_model, &ours_model, &theirs_model, kind);

    bump(&tally.cases);
    if scan.height >= 3 {
        bump(&tally.tall);
    }
    match (got, key_level, model) {
        (Ok(got), Ok(key_level), Ok((merged, resolved))) => {
            assert_eq!(got, key_level, "merge vs key-level, {:?}", cfg);
            assert_eq!(got.root, build(&store, &cfg, ty, &merged), "merge vs model");
            assert_eq!(got.resolved, resolved);
            if traffic.leaf_gets == 0 && traffic.leaf_puts == 0 && traffic.index_puts > 0 {
                bump(&tally.structural);
            } else if traffic.leaf_gets > 0 {
                bump(&tally.key_level);
            }
        }
        (Err(MergeError::Conflicts(got)), Err(key_level), Err(model)) => {
            assert_eq!(&got, &key_level);
            assert_eq!(&got, &model);
            bump(&tally.conflicts);
        }
        (got, key_level, model) => {
            panic!("outcomes differ: merge {got:?}, key-level {key_level:?}, model {model:?}")
        }
    }
}

fn cluster() -> impl Strategy<Value = ClusterDraw> {
    // Bulk kinds (4, 5) one time in eight.
    let kind = prop_oneof![7 => 0u8..4, 1 => 4u8..6];
    (any::<u16>(), any::<u8>(), kind, any::<u64>())
}

const CASES: u32 = 96;

/// [`merge_case`] over generated draws, then a check that the cases
/// reached what they are meant to.
fn run_merges(ty: TreeType) {
    let tally = Tally::default();
    // Anywhere half the time, else against one of ours.
    let shape = prop_oneof![1 => Just(0u8), 1 => 1u8..10];
    let strategy = (
        (5u32..8, 1u32..4, 0u8..3, 0u8..4),
        any::<u64>(),
        prop::collection::vec(cluster(), 1..4),
        prop::collection::vec((shape, any::<u8>(), cluster()), 1..4),
        0u8..4,
    );
    let mut rng = TestRng::from_name(&format!("structural merge {ty:?}"));
    for case in 0..CASES {
        let draw = strategy.generate(&mut rng);
        let (cfg, seed, ours, theirs, kind) = draw.clone();
        let run = || merge_case(ty, cfg, seed, &ours, &theirs, kind, &tally);
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            eprintln!("{ty:?} case {case} failed with inputs {draw:?}");
            std::panic::resume_unwind(panic);
        }
    }
    let counts = [
        tally.cases.get(),
        tally.structural.get(),
        tally.key_level.get(),
        tally.conflicts.get(),
        tally.tall.get(),
    ];
    println!("{ty:?}: [cases, structural, key-level, conflicts, height >= 3] = {counts:?}");
    let [cases, structural, key_level, conflicts, tall] = counts;
    assert!(
        structural >= cases / 5,
        "the structural path ran: {counts:?}"
    );
    assert!(key_level > 0, "collisions fell back: {counts:?}");
    // A Set element has no value to disagree on.
    assert!(
        conflicts > 0 || ty == TreeType::Set,
        "conflicts: {counts:?}"
    );
    assert!(tall > 0, "some trees have height 3 or more: {counts:?}");
}

#[test]
fn map_structural_merge_equals_key_level_and_model() {
    run_merges(TreeType::Map);
}

#[test]
fn set_structural_merge_equals_key_level_and_model() {
    run_merges(TreeType::Set);
}

// ---------------------------------------------------------------------
// Chunk traffic on a 200 000-entry map
// ---------------------------------------------------------------------

fn pk(i: usize) -> String {
    format!("pk{i:08}")
}

fn batch(from: usize, n: usize, tag: &str) -> Vec<(String, Option<Bytes>)> {
    (from..from + n)
        .map(|i| (pk(i), Some(Bytes::from(format!("{tag}-{i}")))))
        .collect()
}

#[test]
fn disjoint_clusters_merge_without_a_leaf_fetched_or_put() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let base = Map::build(
        &store,
        &cfg,
        (0..200_000).map(|i| (pk(i), bytes_of(90 + i % 20, i as u64))),
    );
    let height = scan_tree(&store, base.root(), TreeType::Map)
        .expect("scan")
        .height;
    let ours = base
        .update(&store, &cfg, batch(50_000, 100, "ours"))
        .expect("ours");
    let theirs = base
        .update(&store, &cfg, batch(150_000, 200, "theirs"))
        .expect("theirs");
    let both = base
        .update(
            &store,
            &cfg,
            batch(50_000, 100, "ours")
                .into_iter()
                .chain(batch(150_000, 200, "theirs")),
        )
        .expect("both");
    // There is nothing to resolve, so the resolver is never asked.
    let never = Resolver::Custom(Box::new(|c: &Conflict| panic!("asked to resolve {c:?}")));

    for (ours, theirs) in [(ours, theirs), (theirs, ours)] {
        let before = metrics::snapshot();
        let merged = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base.root(),
            ours.root(),
            theirs.root(),
            &never,
        )
        .expect("merge");
        let t = metrics::snapshot().since(before);
        println!("height {height}: {t:?}");
        assert_eq!(merged.root, both.root());
        assert_eq!((t.leaf_gets, t.leaf_puts), (0, 0), "{t:?}");
        assert!(
            t.index_gets <= 2 * 3 * (height + 1),
            "{} index gets at height {height}",
            t.index_gets
        );
        assert!(t.index_puts <= height + 1, "{t:?}");
    }
}

/// The same two clusters closer than the gap rule allows go the
/// key-level way: leaves are read, and the root is still the one both
/// batches make.
#[test]
fn clusters_in_one_leaf_take_the_key_level_path() {
    let store = MemStore::new();
    let cfg = ChunkerConfig::default();
    let base = Map::build(
        &store,
        &cfg,
        (0..20_000).map(|i| (pk(i), bytes_of(90 + i % 20, i as u64))),
    );
    let ours = base
        .update(&store, &cfg, batch(10_000, 1, "ours"))
        .expect("ours");
    let theirs = base
        .update(&store, &cfg, batch(10_001, 1, "theirs"))
        .expect("theirs");
    let before = metrics::snapshot();
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
    assert!(metrics::snapshot().since(before).leaf_gets > 0);
    let both = base
        .update(
            &store,
            &cfg,
            batch(10_000, 1, "ours")
                .into_iter()
                .chain(batch(10_001, 1, "theirs")),
        )
        .expect("both");
    assert_eq!(merged.root, both.root());
}
