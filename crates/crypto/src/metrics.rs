//! Per-thread counters of the byte-level work of a build: bytes through
//! the boundary scan, the lane kernel and the scalar scanner apart, and
//! bytes hashed by SHA-256.
//!
//! Always on, in `forkbase_pos::metrics`' shape: each thread counts its
//! own calls, so a [`snapshot`] before and after an operation reads
//! exactly what that operation did on the calling thread, however many
//! other threads are at work. Work a caller hands to the worker pool (a
//! hash batch or a scan above the thread-lane threshold) is counted on the
//! worker that did it. Every counter is bumped once per call, never per
//! byte or block.

use std::cell::Cell;

/// What the calling thread's hashing and scanning have done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoMetrics {
    /// Bytes scanned for pattern hits by the sixteen-lane kernel. A
    /// run's tail under one lane step is scanned with the run's last step
    /// again, so a run can count up to 127 bytes more than it holds.
    pub lane_scan_bytes: u64,
    /// Bytes scanned for pattern hits by the scalar scanner: a
    /// [`LeafChunker`](crate::LeafChunker)'s
    /// [`scanned_bytes`](crate::LeafChunker::scanned_bytes), counted when it
    /// is dropped, plus the scalar hit path of
    /// [`split_positions`](crate::split_positions).
    pub scalar_scan_bytes: u64,
    /// Bytes hashed by [`Sha256`](crate::Sha256), counted at `finalize`.
    pub sha256_bytes: u64,
}

impl CryptoMetrics {
    /// What was done between `before` and `self`.
    pub fn since(self, before: CryptoMetrics) -> CryptoMetrics {
        CryptoMetrics {
            lane_scan_bytes: self.lane_scan_bytes - before.lane_scan_bytes,
            scalar_scan_bytes: self.scalar_scan_bytes - before.scalar_scan_bytes,
            sha256_bytes: self.sha256_bytes - before.sha256_bytes,
        }
    }
}

thread_local! {
    static COUNTS: Cell<CryptoMetrics> = Cell::default();
}

/// The calling thread's counters.
pub fn snapshot() -> CryptoMetrics {
    COUNTS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut CryptoMetrics)) {
    COUNTS.with(|c| {
        let mut m = c.get();
        f(&mut m);
        c.set(m);
    });
}

/// `bytes` scanned by the lane kernel.
pub(crate) fn lane_scanned(bytes: usize) {
    bump(|m| m.lane_scan_bytes += bytes as u64);
}

/// `bytes` scanned by the scalar scanner.
pub(crate) fn scalar_scanned(bytes: usize) {
    if bytes > 0 {
        bump(|m| m.scalar_scan_bytes += bytes as u64);
    }
}

/// One SHA-256 message of `bytes` bytes hashed.
pub(crate) fn hashed(bytes: u64) {
    bump(|m| m.sha256_bytes += bytes);
}
