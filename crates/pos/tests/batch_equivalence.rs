//! Batch-equivalence proptests: applying a [`WriteBatch`] in one
//! multi-range splice is **bit-identical** (same root cid) to folding the
//! same edits through sequential `put`/`del` calls — including duplicate
//! keys (last buffered edit wins) and deletes interleaved with puts.
//!
//! Sequential folding must also collapse duplicates last-wins for the
//! comparison to be meaningful, which is exactly what replaying edits in
//! buffer order does: a later edit on the same key overwrites the earlier
//! one's effect.
//!
//! `fresh_runs_equal_itemwise_build` holds splices with long runs of
//! fresh elements — scanned in one pass, in sixteen lanes where the CPU
//! has them — to the element-at-a-time build of the same content.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::ChunkerConfig;
use forkbase_pos::builder::{build_items, build_items_itemwise};
use forkbase_pos::tree::{Map, Set};
use forkbase_pos::{metrics, update_sorted, Edit, Item, TreeType, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Small chunks so even modest inputs span multiple leaves and levels.
fn cfg() -> ChunkerConfig {
    let mut cfg = ChunkerConfig::with_leaf_bits(6);
    cfg.index_bits = 3;
    cfg
}

fn key_strategy() -> impl Strategy<Value = String> {
    // A narrow key space on purpose: duplicate keys and delete-then-put
    // interleavings show up in almost every generated batch.
    "[a-d]{1,4}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_batch_equals_sequential_fold(
        initial in prop::collection::vec((key_strategy(), "[a-z]{0,10}"), 0..50),
        script in prop::collection::vec(
            (key_strategy(), prop::option::of("[a-z]{0,10}")),
            1..40
        ),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let base = Map::build(&store, &cfg, initial.iter().map(|(k, v)| (k.clone(), v.clone())));

        // One WriteBatch, one splice.
        let mut wb = WriteBatch::new();
        for (k, v) in &script {
            match v {
                Some(v) => { wb.put(k.clone(), v.clone()); }
                None => { wb.delete(k.clone()); }
            }
        }
        let batched = base.apply(&store, &cfg, wb).expect("apply");

        // The same edits folded through sequential point writes, in
        // buffer order — later duplicates overwrite earlier ones.
        let mut sequential = base;
        for (k, v) in &script {
            sequential = match v {
                Some(v) => sequential.put(&store, &cfg, k.clone(), v.clone()).expect("put"),
                None => sequential.del(&store, &cfg, k.clone()).expect("del"),
            };
        }
        prop_assert_eq!(batched.root(), sequential.root());

        // And both agree with the model.
        let mut model: BTreeMap<String, String> = initial.iter().cloned().collect();
        for (k, v) in &script {
            match v {
                Some(v) => { model.insert(k.clone(), v.clone()); }
                None => { model.remove(k); }
            }
        }
        let rebuilt = Map::build(&store, &cfg, model.iter().map(|(k, v)| (k.clone(), v.clone())));
        prop_assert_eq!(batched.root(), rebuilt.root());
    }

    #[test]
    fn map_duplicate_keys_last_wins(
        key in key_strategy(),
        values in prop::collection::vec(prop::option::of("[a-z]{0,10}"), 2..8),
        base in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 0..30),
    ) {
        // Every edit in the batch hits the SAME key; only the last one
        // may survive.
        let store = MemStore::new();
        let cfg = cfg();
        let map = Map::build(&store, &cfg, base.iter().map(|(k, v)| (k.clone(), v.clone())));

        let mut wb = WriteBatch::new();
        for v in &values {
            match v {
                Some(v) => { wb.put(key.clone(), v.clone()); }
                None => { wb.delete(key.clone()); }
            }
        }
        let batched = map.apply(&store, &cfg, wb).expect("apply");

        let last = values.last().expect("non-empty");
        let expected = match last {
            Some(v) => map.put(&store, &cfg, key.clone(), v.clone()).expect("put"),
            None => map.del(&store, &cfg, key.clone()).expect("del"),
        };
        prop_assert_eq!(batched.root(), expected.root());
        prop_assert_eq!(
            batched.get(&store, key.as_bytes()).map(|b| b.to_vec()),
            last.clone().map(String::into_bytes)
        );
    }

    #[test]
    fn set_batch_equals_sequential_fold(
        initial in prop::collection::vec(key_strategy(), 0..40),
        script in prop::collection::vec((key_strategy(), any::<bool>()), 1..30),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let base = Set::build(&store, &cfg, initial.iter().cloned());

        let mut wb = WriteBatch::new();
        for (k, insert) in &script {
            if *insert {
                wb.insert(k.clone());
            } else {
                wb.delete(k.clone());
            }
        }
        let batched = base.apply(&store, &cfg, wb).expect("apply");

        let mut sequential = base;
        for (k, insert) in &script {
            sequential = if *insert {
                sequential.insert(&store, &cfg, k.clone()).expect("insert")
            } else {
                sequential.remove(&store, &cfg, k.clone()).expect("remove")
            };
        }
        prop_assert_eq!(batched.root(), sequential.root());
    }

    #[test]
    fn large_spread_batch_equals_rebuild(
        seed in any::<u64>(),
        edits in 1usize..400,
    ) {
        // Batches striding across a larger map: the multi-range splice
        // must reuse the untouched regions and still land bit-identically
        // on the from-scratch build.
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let n = 3000u64;
        let items: Vec<(String, String)> =
            (0..n).map(|i| (format!("k{i:06}"), format!("v{i}"))).collect();
        let map = Map::build(&store, &cfg, items.iter().map(|(k, v)| (k.clone(), v.clone())));

        let mut model: BTreeMap<String, String> = items.into_iter().collect();
        let mut wb = WriteBatch::new();
        let mut state = seed | 1;
        for e in 0..edits {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("k{:06}", (state >> 33) % (n + 50)); // some misses
            if state.is_multiple_of(3) {
                wb.delete(key.clone());
                model.remove(&key);
            } else {
                let val = format!("edit-{e}");
                wb.put(key.clone(), val.clone());
                model.insert(key, val);
            }
        }
        let batched = map.apply(&store, &cfg, wb).expect("apply");
        let rebuilt = Map::build(&store, &cfg, model.iter().map(|(k, v)| (k.clone(), v.clone())));
        prop_assert_eq!(batched.root(), rebuilt.root());
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

    fn bytes(&mut self, len: usize) -> Bytes {
        (0..len).map(|_| self.below(256) as u8).collect()
    }
}

/// Map and Set splices of clusters of up to 60 fresh elements of up to
/// ~160 bytes each — so at least a fifth of the cases feed a run of
/// 1 KiB or more (counted by the lane kernel's bytes where it runs) —
/// aimed anywhere in a leaf, its first `window` bytes included (counted
/// by the seed fetches they cost), under caps of one, two and eight
/// expected leaves. Each result must equal the element-at-a-time build
/// (`build_items_itemwise`: one `append_item` per element, none of the
/// run walk) and the run-scanning build of the same content.
#[test]
fn fresh_runs_equal_itemwise_build() {
    let mut rng = Rng(7);
    let (cases, mut long_runs, mut seeded) = (160, 0, 0);
    let lanes_run = forkbase_crypto::lanes::available();
    for case in 0..cases {
        let ty = [TreeType::Map, TreeType::Set][case % 2];
        let cfg = ChunkerConfig {
            window: [16, 47, 48, 64][rng.below(4)],
            leaf_bits: 6 + rng.below(4) as u32,
            index_bits: 3,
            max_factor: [1, 2, 8][rng.below(3)],
        };
        let item = |rng: &mut Rng, key: String| {
            let len = 1 + rng.below(120);
            match ty {
                TreeType::Map => Item::map(key, rng.bytes(len)),
                _ => Item::set(format!("{key}~{}", "s".repeat(len))),
            }
        };
        let store = MemStore::new();
        let n = 100 + rng.below(600);
        let mut model: BTreeMap<Bytes, Item> = BTreeMap::new();
        for i in 0..n {
            let it = item(&mut rng, format!("k{:06}", i * 4));
            model.insert(it.key.clone(), it);
        }
        let root = build_items(&store, &cfg, ty, model.values().cloned());

        // One or two clusters: replace, insert behind, or drop each key.
        let mut edits = Vec::new();
        for _ in 0..1 + rng.below(2) {
            let at = rng.below(n);
            for i in at..(at + 1 + rng.below(60)).min(n) {
                let old = model.keys().nth(i).expect("in range").clone();
                // An insert leaves the old key in place, so it ends the run
                // of fresh elements; a delete does not.
                match rng.below(16) {
                    0 => edits.push(Edit::Del(old)),
                    1 => {
                        let key = format!("k{:06}+", i * 4);
                        edits.push(Edit::Put(item(&mut rng, key)));
                    }
                    _ if ty == TreeType::Set => edits.push(Edit::Put(Item::set(old))),
                    _ => {
                        let len = 1 + rng.below(150);
                        edits.push(Edit::Put(Item::map(old, rng.bytes(len))));
                    }
                }
            }
        }
        for e in normalize(&edits) {
            match e {
                Edit::Put(it) => model.insert(it.key.clone(), it.clone()),
                Edit::Del(k) => model.remove(k),
            };
        }

        let (crypto, pos) = (forkbase_crypto::metrics::snapshot(), metrics::snapshot());
        let spliced = update_sorted(&store, &cfg, ty, root, edits).expect("splice");
        let crypto = forkbase_crypto::metrics::snapshot().since(crypto);
        seeded += usize::from(metrics::snapshot().since(pos).seed_fetches > 0);
        long_runs += usize::from(crypto.lane_scan_bytes > 0);

        let itemwise = build_items_itemwise(&store, &cfg, ty, model.values().cloned());
        assert_eq!(spliced, itemwise, "case {case}: splice vs itemwise build");
        assert_eq!(
            spliced,
            build_items(&store, &cfg, ty, model.values().cloned())
        );
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

/// `edits` in key order, last wins.
fn normalize(edits: &[Edit]) -> Vec<&Edit> {
    let mut by_key: BTreeMap<&[u8], &Edit> = BTreeMap::new();
    for e in edits {
        by_key.insert(e.key(), e);
    }
    by_key.into_values().collect()
}
