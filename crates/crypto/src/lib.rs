//! Hash primitives underpinning the ForkBase storage engine.
//!
//! ForkBase (Wang et al., VLDB 2018) identifies every chunk by a
//! cryptographic hash of its content (`cid = H(chunk.bytes)`, §4.2.1) and
//! finds chunk boundaries with a rolling hash over the object content
//! (§4.3.2). This crate provides both from scratch:
//!
//! * [`sha256`](mod@sha256) — a FIPS 180-4 SHA-256 implementation (the paper's default
//!   `H`). No external crypto crates are used.
//! * [`Digest`] — the 32-byte content identifier type used across the
//!   workspace.
//! * [`rolling`] — the cyclic-polynomial rolling hash from the paper
//!   (Cohen, "Recursive hashing functions for n-grams"), the only leaf
//!   pattern hash: it is part of the content → cid mapping.
//! * [`chunker`] — the pattern-detection parameters (`q`, `r`, window size,
//!   forced-split factor α) of §4.3.2–4.3.3 packaged as a reusable
//!   configuration, a streaming boundary detector, and the per-byte
//!   reference oracle [`split_positions_reference`].
//! * [`lanes`] — the sixteen-lane AVX-512 kernel that finds the pattern
//!   hits of a blob or of a run of fresh tree elements, bit-identical to
//!   the scalar scanner.
//! * [`fx`] — a fast non-cryptographic hasher for in-memory tables (the
//!   FxHash algorithm), used where HashDoS resistance is irrelevant.
//! * [`metrics`] — per-thread counters of bytes scanned and hashed.
//!
//! It is also the lowest crate of the workspace, so it holds the plumbing
//! that several crates share: the hashing worker pool behind
//! [`parallel`], the [`fx`] hasher, [`resp`] — RESP2, the one wire
//! codec, with its incremental decoder and the per-connection loop —
//! and [`serve`], the one thread-per-connection TCP server that runs
//! that loop for the cluster's chunk service and `redislite`'s Redis
//! front alike.
//!
//! The oracles the equivalence tests compare against are compiled in
//! every build and never on a production path: [`split_positions_reference`]
//! for the chunker and [`Sha256Naive`] / [`sha256_naive`] /
//! [`hash_parts_naive`] for SHA-256.

pub mod chunker;
pub mod digest;
pub mod fx;
pub mod lanes;
pub mod metrics;
pub mod parallel;
pub(crate) mod pool;
pub mod resp;
pub mod rolling;
pub mod serve;
pub mod sha256;

pub use chunker::{
    pattern_hits, split_positions, split_positions_reference, ChunkerConfig, LeafChunker,
};
pub use digest::Digest;
pub use parallel::{hash_tagged_batch, hash_tagged_parts_batch};
pub use rolling::CyclicPoly;
pub use sha256::{sha256, sha256_naive, Sha256, Sha256Naive};

/// Convenience: hash `bytes` with the engine's default hash function
/// (SHA-256) and return the 32-byte digest.
pub fn hash_bytes(bytes: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize()
}

/// Convenience: hash the concatenation of several byte slices without
/// materializing it. `update` consumes whole 64-byte blocks directly from
/// each part, so nothing beyond a partial trailing block is ever copied.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// [`hash_parts`] through the retained naive SHA-256 — the equivalence
/// oracle for the optimized compression function.
pub fn hash_parts_naive(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256Naive::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}
