//! Ablation — the boundary-shifting problem (§4.3 motivation).
//!
//! The paper rejects fixed-size chunking because "an insertion occurs in
//! the middle of the structure" shifts every subsequent boundary,
//! destroying deduplication. This harness measures that directly: build a
//! version, apply a small edit (insert / delete / overwrite) at varying
//! positions, and report how many chunks of the new version a
//! content-addressed store must newly persist under
//!
//! * fixed-size splitting (the strawman),
//! * pattern-based splitting (POS, the paper's design),
//!
//! plus the chunk-size sensitivity of both (q = 10, 12, 14).

mod fixed;

use fb_bench::*;
use fixed::{dedup_fixed, dedup_pattern};
use forkbase_crypto::ChunkerConfig;

enum Edit {
    Insert,
    Delete,
    Overwrite,
}

fn edited(old: &[u8], at: usize, edit: &Edit) -> Vec<u8> {
    let mut new = old.to_vec();
    match edit {
        Edit::Insert => {
            for (i, b) in b"0123456789".iter().enumerate() {
                new.insert(at + i, *b);
            }
        }
        Edit::Delete => {
            new.drain(at..at + 10);
        }
        Edit::Overwrite => {
            for b in &mut new[at..at + 10] {
                *b ^= 0x5A;
            }
        }
    }
    new
}

fn main() {
    banner(
        "Ablation",
        "boundary shifting: fixed-size vs pattern-based chunking",
    );
    let size = scaled(2_000_000);
    let old = random_bytes(size, 11);
    let cfg = ChunkerConfig::default(); // 4KB expected leaves

    header(&[
        "edit",
        "position",
        "fixed reuse",
        "POS reuse",
        "fixed new KB",
        "POS new KB",
    ]);
    for (name, edit) in [
        ("insert10B", Edit::Insert),
        ("delete10B", Edit::Delete),
        ("xor10B", Edit::Overwrite),
    ] {
        for frac in [0.05, 0.5, 0.95] {
            let at = (size as f64 * frac) as usize;
            let new = edited(&old, at, &edit);
            let fixed = dedup_fixed(&old, &new, 4096);
            let pos = dedup_pattern(&old, &new, &cfg);
            row(&[
                name.to_string(),
                format!("{:.0}%", frac * 100.0),
                format!("{:.1}%", fixed.reuse_ratio() * 100.0),
                format!("{:.1}%", pos.reuse_ratio() * 100.0),
                format!("{:.1}", fixed.new_bytes as f64 / 1e3),
                format!("{:.1}", pos.new_bytes as f64 / 1e3),
            ]);
        }
    }
    println!(
        "\npaper shape check: overwrites dedup under both; inserts/deletes collapse fixed-size\n\
         reuse to roughly the prefix before the edit, while POS stays near 100%."
    );

    // Chunk-size sensitivity: the same middle insert under different q.
    println!();
    header(&["q (leaf bits)", "avg chunk", "POS reuse", "POS new KB"]);
    let at = size / 2;
    let new = edited(&old, at, &Edit::Insert);
    for q in [10u32, 12, 14] {
        let cfg = ChunkerConfig::with_leaf_bits(q);
        let stats = dedup_pattern(&old, &new, &cfg);
        let cuts = forkbase_crypto::chunker::split_positions(&old, &cfg);
        row(&[
            q.to_string(),
            format!("{}B", size / cuts.len().max(1)),
            format!("{:.1}%", stats.reuse_ratio() * 100.0),
            format!("{:.1}", stats.new_bytes as f64 / 1e3),
        ]);
    }
    println!(
        "\nsmaller chunks localize edits better (less new data per edit) at the cost of\n\
         more index entries and more rolling-hash boundary checks."
    );
}
