//! Property tests on the chain scenario: arbitrary fork trees round-trip
//! through append/read/walk across a durable reopen, and pruning never
//! reclaims a chunk reachable from a retained tip.

use chainstore::{BlockId, ChainStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh scratch directory (removed by the caller when done).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "chainstore-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Decode a raw draw into a fork tree: node 0 is a genesis; each later
/// node is either a fresh genesis (1 in 8) or a child of an earlier node.
fn decode_tree(draws: &[u64]) -> Vec<Option<usize>> {
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(draws.len() + 1);
    parents.push(None);
    for (i, d) in draws.iter().enumerate() {
        let i = i + 1;
        if d % 8 == 0 {
            parents.push(None);
        } else {
            parents.push(Some((d / 8) as usize % i));
        }
    }
    parents
}

/// Unique per-node body (index-salted so no two nodes share a uid).
fn body(i: usize) -> Vec<u8> {
    format!("node {i} body {}", "ab".repeat(24 + i % 7)).into_bytes()
}

fn meta(i: usize) -> String {
    format!("meta-{i}")
}

/// Append the decoded tree, returning each node's id.
fn build(chain: &ChainStore, parents: &[Option<usize>]) -> Vec<BlockId> {
    let mut ids: Vec<BlockId> = Vec::with_capacity(parents.len());
    for (i, p) in parents.iter().enumerate() {
        let id = chain
            .append_block(p.map(|j| ids[j]), &body(i), meta(i))
            .expect("append");
        ids.push(id);
    }
    ids
}

/// Model tips: nodes nobody links to as parent.
fn model_tips(parents: &[Option<usize>], ids: &[BlockId]) -> Vec<BlockId> {
    let mut has_child = vec![false; parents.len()];
    for p in parents.iter().flatten() {
        has_child[*p] = true;
    }
    let mut tips: Vec<BlockId> = ids
        .iter()
        .zip(&has_child)
        .filter(|(_, c)| !**c)
        .map(|(id, _)| *id)
        .collect();
    tips.sort();
    tips
}

/// The root-ward path from node `i` (inclusive), as model indices.
fn model_path(parents: &[Option<usize>], mut i: usize) -> Vec<usize> {
    let mut path = vec![i];
    while let Some(p) = parents[i] {
        path.push(p);
        i = p;
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary fork trees round-trip: every header and body reads back
    /// exactly, tips match the model, and `follow_parents` reproduces
    /// each tip's root-ward path — all again after a checkpoint +
    /// durable reopen.
    #[test]
    fn fork_trees_round_trip_across_durable_reopen(
        draws in prop::collection::vec(any::<u64>(), 0..36)
    ) {
        let parents = decode_tree(&draws);
        let dir = scratch("roundtrip");
        let ids = {
            let chain = ChainStore::open(&dir).expect("open");
            let ids = build(&chain, &parents);
            chain.checkpoint().expect("checkpoint");
            ids
        };

        let chain = ChainStore::open(&dir).expect("reopen");
        let mut tips = chain.tips();
        tips.sort();
        prop_assert_eq!(tips, model_tips(&parents, &ids), "tips survive reopen");

        let mut heights = vec![0u64; parents.len()];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                heights[i] = heights[*p] + 1;
            }
            let h = chain.header(ids[i]).expect("header");
            prop_assert_eq!(h.id, ids[i]);
            prop_assert_eq!(h.parent, p.map(|j| ids[j]));
            prop_assert_eq!(h.height, heights[i]);
            prop_assert_eq!(h.meta.as_ref(), meta(i).as_bytes());
            prop_assert_eq!(h.body_len as usize, body(i).len());
            prop_assert_eq!(chain.body(ids[i]).expect("body"), body(i));
        }

        for (i, p) in parents.iter().enumerate() {
            // Tip or not, a walk from any node reproduces its path.
            let _ = p;
            let walked = chain
                .follow_parents(ids[i], parents.len() + 1)
                .expect("walk");
            let want: Vec<BlockId> =
                model_path(&parents, i).into_iter().map(|j| ids[j]).collect();
            let got: Vec<BlockId> = walked.iter().map(|h| h.id).collect();
            prop_assert_eq!(got, want, "root-ward walk from node {}", i);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pruning with an arbitrary retained subset of tips never reclaims
    /// a chunk reachable from a retained tip: every retained chain still
    /// reads back byte-exact (headers and bodies) after the in-place GC,
    /// while the retired tips' own blocks are gone from disk.
    #[test]
    fn prune_never_reclaims_retained_chains(
        draws in prop::collection::vec(any::<u64>(), 4..32),
        keep_bits in any::<u64>(),
    ) {
        let parents = decode_tree(&draws);
        let dir = scratch("prune");
        let chain = ChainStore::open(&dir).expect("open");
        let ids = build(&chain, &parents);

        let tips = model_tips(&parents, &ids);
        // Retain a non-empty subset (bit i of the draw keeps tip i;
        // tip 0 is always kept so the live set is never empty).
        let retained: Vec<BlockId> = tips
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || keep_bits >> (i % 64) & 1 == 1)
            .map(|(_, id)| *id)
            .collect();
        let doomed: Vec<BlockId> = tips
            .iter()
            .filter(|t| !retained.contains(t))
            .copied()
            .collect();

        let report = chain.prune_side_chains(&retained).expect("prune");
        prop_assert_eq!(report.tips_retired, doomed.len());
        prop_assert_eq!(report.gc.is_some(), !doomed.is_empty(),
            "durable prune compacts exactly when something was retired");

        let mut left = chain.tips();
        left.sort();
        let mut want = retained.clone();
        want.sort();
        prop_assert_eq!(left, want, "only retained tips remain");

        // Everything reachable from a retained tip is intact.
        let idx_of = |id: &BlockId| ids.iter().position(|x| x == id).expect("known");
        for tip in &retained {
            for j in model_path(&parents, idx_of(tip)) {
                let h = chain.header(ids[j]).expect("retained chain header");
                prop_assert_eq!(h.meta.as_ref(), meta(j).as_bytes());
                prop_assert_eq!(chain.body(ids[j]).expect("retained chain body"), body(j));
            }
        }
        // A retired tip's own meta chunk is exclusive to it, so the GC
        // reclaimed it from disk.
        for tip in &doomed {
            prop_assert!(chain.header(*tip).is_err(), "retired tip reclaimed");
        }
        // The compaction carried the recovery point into the fresh
        // segments: with no checkpoint after it, a reopen restores every
        // retained tip and serves its chain. (Nothing retired, nothing
        // compacted, and this test never checkpointed.)
        drop(chain);
        let chain = ChainStore::open(&dir).expect("reopen");
        if !doomed.is_empty() {
            let mut left = chain.tips();
            left.sort();
            prop_assert_eq!(left, want, "retained tips survive the reopen");
            for tip in &retained {
                let j = idx_of(tip);
                prop_assert_eq!(chain.body(ids[j]).expect("body after reopen"), body(j));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
