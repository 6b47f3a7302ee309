//! The fixed-size chunking strawman of the `ablation_chunking` bench,
//! tested here because bench targets are `test = false`.

#[path = "../benches/fixed/mod.rs"]
mod fixed;

use fixed::{dedup_fixed, dedup_pattern, fixed_split_positions, DedupStats};
use forkbase_crypto::ChunkerConfig;

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
fn fixed_split_covers_input() {
    let cuts = fixed_split_positions(&[0u8; 10_000], 4096);
    assert_eq!(cuts, vec![4096, 8192, 10_000]);
    assert_eq!(fixed_split_positions(&[0u8; 4096], 4096), vec![4096]);
    assert!(fixed_split_positions(&[], 4096).is_empty());
}

#[test]
fn identical_versions_fully_dedup() {
    let data = pseudo_random(100_000, 1);
    let cfg = ChunkerConfig::default();
    let s = dedup_pattern(&data, &data, &cfg);
    assert_eq!(s.shared_chunks, s.total_chunks);
    assert_eq!(s.new_bytes, 0);
    let s = dedup_fixed(&data, &data, 4096);
    assert_eq!(s.shared_chunks, s.total_chunks);
}

/// The boundary-shifting problem, measured: a 10-byte insertion in the
/// middle of 1MB destroys reuse for fixed-size chunking but leaves
/// pattern-based chunking nearly fully deduplicated.
#[test]
fn middle_insert_boundary_shift() {
    let old = pseudo_random(1_000_000, 42);
    let mut new = old.clone();
    let at = new.len() / 2;
    for (i, b) in b"0123456789".iter().enumerate() {
        new.insert(at + i, *b);
    }

    let fixed = dedup_fixed(&old, &new, 4096);
    let pattern = dedup_pattern(&old, &new, &ChunkerConfig::default());

    // Fixed-size: everything after the insert shifts — at most the
    // chunks before the edit dedup, i.e. about half.
    assert!(
        fixed.reuse_ratio() < 0.6,
        "fixed reuse {} should collapse after middle insert",
        fixed.reuse_ratio()
    );
    // Pattern-based: only the O(1) chunks around the edit change.
    assert!(
        pattern.reuse_ratio() > 0.9,
        "pattern reuse {} should stay high",
        pattern.reuse_ratio()
    );
    assert!(pattern.new_bytes < fixed.new_bytes);
}

/// Appends are the friendly case for both strategies: prefix chunks
/// dedup under fixed-size splitting too.
#[test]
fn append_preserves_reuse_for_both() {
    let old = pseudo_random(500_000, 17);
    let mut new = old.clone();
    new.extend_from_slice(&pseudo_random(10_000, 18));

    let fixed = dedup_fixed(&old, &new, 4096);
    let pattern = dedup_pattern(&old, &new, &ChunkerConfig::default());
    assert!(fixed.reuse_ratio() > 0.9, "fixed {}", fixed.reuse_ratio());
    assert!(
        pattern.reuse_ratio() > 0.9,
        "pattern {}",
        pattern.reuse_ratio()
    );
}

#[test]
fn reuse_ratio_edge_cases() {
    assert_eq!(DedupStats::default().reuse_ratio(), 1.0);
    let s = DedupStats {
        total_chunks: 4,
        shared_chunks: 1,
        new_bytes: 100,
    };
    assert!((s.reuse_ratio() - 0.25).abs() < 1e-9);
}
