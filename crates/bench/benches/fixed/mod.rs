//! Fixed-size chunking — the strawman §4.3 argues against.
//!
//! "One simple solution is to have fixed-size nodes, which eliminates the
//! effect from insertion order. However, such an approach introduces
//! another issue, called boundary-shifting problem, when an insertion
//! occurs in the middle of the structure."
//!
//! This module implements that baseline so the boundary-shifting problem
//! can be *measured*: after a middle-of-object insertion, every chunk after
//! the edit point shifts under fixed-size splitting (near-zero reuse),
//! whereas pattern-based splitting re-localizes within O(1) chunks. The
//! `ablation_chunking` bench target quantifies the difference;
//! `tests/fixed_chunking.rs` tests it.

use forkbase_crypto::{hash_bytes, split_positions, ChunkerConfig};

/// Split `data` into fixed `size`-byte chunks and return the end positions
/// (exclusive). The last chunk may be short. Mirrors the signature of
/// [`split_positions`] so the two strategies are
/// interchangeable in measurements.
pub fn fixed_split_positions(data: &[u8], size: usize) -> Vec<usize> {
    assert!(size > 0, "chunk size must be positive");
    let mut cuts: Vec<usize> = (1..=data.len() / size).map(|i| i * size).collect();
    if cuts.last() != Some(&data.len()) && !data.is_empty() {
        cuts.push(data.len());
    }
    cuts
}

/// How two versions of an object share chunks under a given splitting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Chunks in the new version.
    pub total_chunks: usize,
    /// Chunks of the new version already present in the old version
    /// (deduplicated away by a content-addressed store).
    pub shared_chunks: usize,
    /// Bytes of the new version that need new storage.
    pub new_bytes: usize,
}

impl DedupStats {
    /// Fraction of the new version's chunks reused from the old one.
    pub fn reuse_ratio(&self) -> f64 {
        if self.total_chunks == 0 {
            return 1.0;
        }
        self.shared_chunks as f64 / self.total_chunks as f64
    }
}

/// Compare chunkings of `old` and `new` produced by `cuts_of` and report
/// how much of `new` a content-addressed store would deduplicate.
///
/// Chunks are identified by content (hashed), exactly as a cid-keyed store
/// would see them.
pub fn dedup_between<F>(old: &[u8], new: &[u8], mut cuts_of: F) -> DedupStats
where
    F: FnMut(&[u8]) -> Vec<usize>,
{
    use std::collections::HashSet;
    let mut old_chunks = HashSet::new();
    let mut start = 0;
    for end in cuts_of(old) {
        old_chunks.insert(hash_bytes(&old[start..end]));
        start = end;
    }
    let mut stats = DedupStats::default();
    let mut start = 0;
    for end in cuts_of(new) {
        let h = hash_bytes(&new[start..end]);
        stats.total_chunks += 1;
        if old_chunks.contains(&h) {
            stats.shared_chunks += 1;
        } else {
            stats.new_bytes += end - start;
        }
        start = end;
    }
    stats
}

/// Convenience: dedup stats for pattern-based (POS) splitting.
pub fn dedup_pattern(old: &[u8], new: &[u8], cfg: &ChunkerConfig) -> DedupStats {
    dedup_between(old, new, |d| split_positions(d, cfg))
}

/// Convenience: dedup stats for fixed-size splitting.
pub fn dedup_fixed(old: &[u8], new: &[u8], size: usize) -> DedupStats {
    dedup_between(old, new, |d| fixed_split_positions(d, size))
}
