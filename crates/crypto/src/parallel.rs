//! Batched cid computation over independent inputs.
//!
//! A batched write or a from-scratch build produces many leaf chunks whose
//! cids are independent of one another, so unlike the streaming hash
//! inside one chunk they can be computed in parallel.
//! [`hash_tagged_batch`] hashes `tag ‖ payload` for every input (the
//! chunk-cid preimage of `forkbase-chunk`); [`hash_tagged_parts_batch`]
//! does the same for payloads assembled from multiple spans (a rope), so
//! a leaf stitched together from borrowed runs is hashed without ever
//! being materialized into one buffer.
//!
//! Parallel batches run on the persistent worker pool (`crate::pool`):
//! no thread is spawned per call, but a parked worker still takes tens
//! of microseconds to start, and the thresholds below are set by that.
//! Small batches — and machines that report a single hardware thread —
//! take the serial path, which is bit-for-bit the same computation. A
//! producer that makes its inputs one after another does not have to wait
//! for the last one: it [`spawn`]s what it has every
//! [`ASYNC_BATCH_BYTES`] and hashes only the remainder itself.
//!
//! Splitting is by *bytes*, not by input count: a batch of one 4 MB leaf
//! and a thousand 100 B leaves still balances across workers.
//!
//! # The core budget
//!
//! How far a batch fans out depends on who waits for it. A caller's
//! batch uses every lane: the pool's workers and the caller's own
//! thread. Work on an engine-owned thread that no caller waits on runs
//! inside [`background`], and fans out over one pool worker fewer — at
//! most `lanes() − 2` of them, where `lanes()` is what a caller gets:
//! one core stays with the callers and one is the background thread's
//! own. On a 2-core host a background thread therefore scans and hashes
//! on its own thread, and its batches never wake a worker onto the core
//! a caller is running on. Today those threads are the hot tier's
//! round builds. [`lanes`] reads the budget: the hash batches and the
//! parallel boundary scan split by it, and a producer asks it before it
//! [`spawn`]s.

use crate::digest::Digest;
use crate::pool;
pub use crate::pool::{spawn, Task};
use crate::Sha256;
use std::cell::Cell;

thread_local! {
    /// Whether the calling thread is inside [`background`].
    static BACKGROUND: Cell<bool> = const { Cell::new(false) };
}

/// Lanes a batch submitted from the calling thread may use: the pool's
/// workers plus the thread itself, one worker fewer inside
/// [`background`] (see the module docs), and never fewer than the thread
/// alone. 1 on a host that reports a single hardware thread.
pub fn lanes() -> usize {
    let all = pool::parallelism();
    if BACKGROUND.with(Cell::get) {
        (all - 1).max(1)
    } else {
        all
    }
}

/// Run `f` as work no caller waits on, under the background budget of
/// [`lanes`]. The calling thread's budget is restored when `f` returns
/// or unwinds.
pub fn background<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKGROUND.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BACKGROUND.with(|b| b.replace(true)));
    f()
}

// Both thresholds below come from one measurement, `pool`'s ignored test
// `measure_worker_wake_latency` on the 2-core reference host. When they
// were set (three runs, EXPERIMENTS.md "Block commit") a parked
// worker started a job 45 / 49 / 56 µs (medians; 66 µs inside a block
// commit, where the caches are not the test's) after it was sent, and
// one core hashed 1.44–1.48 GB/s — so **one wake cost what hashing
// 65–82 KB costs**, call it 70 KB. The hand-off itself, a channel send,
// is a few microseconds; the wait for the worker to get going is the
// price. Three runs on the same host later (EXPERIMENTS.md "Core
// budget") read 32 / 37 / 43 µs after 2 ms parked at 1.36–1.46 GB/s,
// 46–62 KB hashed, and showed the wake growing with idle time: 6–8 µs
// within 50 µs of the worker's last job, 14–22 µs after 0.2–1 ms, 36–43
// µs after 5 ms. The thresholds stay where the parked case put them: a
// batch that opens a burst meets a parked worker.

/// Minimum total payload bytes before a batch is split across the worker
/// pool. Split in two, a batch of `T` bytes is done when the worker is:
/// one wake plus `T/2` of hashing, against `T` on one lane — a saving of
/// `T/2 − 70 KB`. That breaks even at 140 KB and reaches a fifth of the
/// batch at 233 KB; 256 KiB is the next power of two. (A 64 KiB page
/// build split in two would wait 70 KB's worth for a lane that takes
/// 32 KB off it.)
pub const PARALLEL_THRESHOLD_BYTES: usize = 256 * 1024;

/// How many bytes of finished inputs a producer collects before it
/// [`spawn`]s their hashing and carries on producing. The worker pays
/// the wake only when it had parked, so the batch must keep it busy for
/// a multiple of the wake or it parks between batches and pays every
/// time (one 7 KB leaf per job did exactly that, and was slower than not
/// overlapping at all). 128 KiB is 1.9 wakes of hashing: the wake is at
/// most a third of the first batch, and a producer that cuts 128 KiB
/// faster than 1.9 wakes — a tree splice does — never lets the worker
/// park again. Twice this is [`PARALLEL_THRESHOLD_BYTES`], so whatever a
/// producer has left at the end is hashed on its own lane.
pub const ASYNC_BATCH_BYTES: usize = 128 * 1024;

/// Most lanes a single batch will use, independent of core count.
const MAX_LANES: usize = 8;

fn hash_tagged(tag: u8, payload: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[tag]);
    h.update(payload);
    h.finalize()
}

fn hash_tagged_parts(tag: u8, parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[tag]);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Shared batching core: hash every input with `hash_one`, splitting the
/// batch into contiguous spans of roughly equal payload bytes (`size`)
/// and fanning the spans out over the worker pool when the total work is
/// large enough. Result order always matches input order.
fn hash_batch_with<T, S, H>(inputs: &[T], size: S, hash_one: H) -> Vec<Digest>
where
    T: Sync,
    S: Fn(&T) -> usize,
    H: Fn(&T) -> Digest + Send + Sync + Copy,
{
    let total: usize = inputs.iter().map(&size).sum();
    // Size gate first: a small batch must not be the thing that
    // materializes the worker pool.
    if total < PARALLEL_THRESHOLD_BYTES || inputs.len() <= 1 {
        return inputs.iter().map(hash_one).collect();
    }
    let lanes = lanes().min(MAX_LANES).min(inputs.len());
    if lanes <= 1 {
        return inputs.iter().map(hash_one).collect();
    }

    let mut out: Vec<Digest> = vec![Digest::ZERO; inputs.len()];
    let per_lane = total / lanes + 1;
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(lanes);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        acc += size(input);
        if acc >= per_lane && i + 1 < inputs.len() {
            spans.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    spans.push((start, inputs.len()));

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(spans.len());
    let mut rest: &mut [Digest] = &mut out;
    let mut offset = 0usize;
    for &(lo, hi) in &spans {
        let (slot, tail) = rest.split_at_mut(hi - offset);
        rest = tail;
        offset = hi;
        let span = &inputs[lo..hi];
        tasks.push(Box::new(move || {
            for (d, input) in slot.iter_mut().zip(span) {
                *d = hash_one(input);
            }
        }));
    }
    pool::run_scoped(tasks);
    out
}

/// Hash `tag ‖ payload` for every input, in order.
///
/// Equivalent to `inputs.iter().map(|(t, p)| hash_parts(&[&[*t], p]))` but
/// free to compute the digests concurrently. The result order always
/// matches the input order.
pub fn hash_tagged_batch(inputs: &[(u8, &[u8])]) -> Vec<Digest> {
    hash_batch_with(inputs, |(_, p)| p.len(), |(t, p)| hash_tagged(*t, p))
}

/// Hash `tag ‖ part₀ ‖ part₁ ‖ …` for every input, in order — the
/// rope-payload variant of [`hash_tagged_batch`]. A chunk assembled from
/// borrowed spans is hashed straight out of those spans; nothing is
/// concatenated first.
pub fn hash_tagged_parts_batch(inputs: &[(u8, &[&[u8]])]) -> Vec<Digest> {
    hash_batch_with(
        inputs,
        |(_, parts)| parts.iter().map(|p| p.len()).sum(),
        |(t, parts)| hash_tagged_parts(*t, parts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_parts;

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
    fn matches_serial_hash_parts() {
        // Mix of sizes crossing the parallel threshold.
        let payloads: Vec<Vec<u8>> = (0..64)
            .map(|i| pseudo_random(if i % 7 == 0 { 50_000 } else { 100 + i }, i as u64))
            .collect();
        let inputs: Vec<(u8, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| ((i % 8) as u8, p.as_slice()))
            .collect();
        let got = hash_tagged_batch(&inputs);
        for ((tag, payload), digest) in inputs.iter().zip(&got) {
            assert_eq!(*digest, hash_parts(&[&[*tag], payload]));
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(hash_tagged_batch(&[]).is_empty());
        let one = hash_tagged_batch(&[(3u8, &b"payload"[..])]);
        assert_eq!(one, vec![hash_parts(&[&[3u8], b"payload"])]);
    }

    #[test]
    fn large_batch_forces_parallel_path() {
        // Enough bytes that multi-core machines take the pooled path;
        // the result must be identical either way.
        let payloads: Vec<Vec<u8>> = (0..40).map(|i| pseudo_random(20_000, 100 + i)).collect();
        let inputs: Vec<(u8, &[u8])> = payloads.iter().map(|p| (4u8, p.as_slice())).collect();
        let got = hash_tagged_batch(&inputs);
        let want: Vec<Digest> = inputs
            .iter()
            .map(|(t, p)| hash_parts(&[&[*t], p]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parts_batch_matches_concatenation() {
        // Each input split into spans at awkward offsets; the rope hash
        // must equal the hash of the concatenation.
        let payloads: Vec<Vec<u8>> = (0..48)
            .map(|i| pseudo_random(3_000 + i * 97, i as u64))
            .collect();
        let parts: Vec<Vec<&[u8]>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let cut1 = (i * 13 + 1) % p.len();
                let cut2 = cut1 + (p.len() - cut1) / 2;
                vec![&p[..cut1], &p[cut1..cut2], &p[cut2..]]
            })
            .collect();
        let inputs: Vec<(u8, &[&[u8]])> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| ((i % 5) as u8, p.as_slice()))
            .collect();
        let got = hash_tagged_parts_batch(&inputs);
        for ((tag, _), (digest, payload)) in inputs.iter().zip(got.iter().zip(&payloads)) {
            assert_eq!(*digest, hash_parts(&[&[*tag], payload]));
        }
    }

    /// Inside `background` a batch over the threshold and a boundary scan
    /// over the scan threshold fan out over one pool worker fewer — on a
    /// 2-lane host over none — and return what they return outside; the
    /// budget comes back when the scope ends, by return or by unwind.
    #[test]
    fn a_background_batch_keeps_to_its_budget() {
        let payloads: Vec<Vec<u8>> = (0..40).map(|i| pseudo_random(20_000, 300 + i)).collect();
        let inputs: Vec<(u8, &[u8])> = payloads.iter().map(|p| (4u8, p.as_slice())).collect();
        assert!(payloads.iter().map(Vec::len).sum::<usize>() > PARALLEL_THRESHOLD_BYTES);
        let scanned = pseudo_random(1 << 20, 7);
        let cfg = crate::ChunkerConfig::default();
        let all = lanes();
        let before = crate::metrics::snapshot();
        let want = hash_tagged_batch(&inputs);
        let cuts = crate::pattern_hits(&scanned, &cfg);
        let caller = crate::metrics::snapshot().since(before);

        let (got, scoped, ran) = background(|| {
            let before = crate::metrics::snapshot();
            let got = hash_tagged_batch(&inputs);
            assert_eq!(crate::pattern_hits(&scanned, &cfg), cuts);
            (got, lanes(), crate::metrics::snapshot().since(before))
        });
        assert_eq!(got, want);
        assert_eq!(scoped, (all - 1).max(1));
        if all > 1 {
            assert!(caller.pool_jobs > 0 && caller.pool_bytes > 0, "{caller:?}");
        }
        // The batch's and the scan's shares past the thread's own.
        assert!(ran.pool_jobs <= 2 * (scoped as u64 - 1), "{ran:?}");
        if all <= 2 {
            assert_eq!((ran.pool_jobs, ran.pool_bytes), (0, 0));
        }
        assert_eq!(lanes(), all, "restored on return");

        let unwound = std::panic::catch_unwind(|| {
            background(|| {
                assert_eq!(lanes(), scoped);
                panic!("boom");
            })
        });
        assert!(unwound.is_err());
        assert_eq!(lanes(), all, "restored on unwind");
    }

    #[test]
    fn parts_batch_handles_empty_spans() {
        let body = pseudo_random(100_000, 9);
        let parts: Vec<&[u8]> = vec![&[], &body[..], &[]];
        let inputs: Vec<(u8, &[&[u8]])> = (0..8).map(|_| (6u8, parts.as_slice())).collect();
        let got = hash_tagged_parts_batch(&inputs);
        for d in got {
            assert_eq!(d, hash_parts(&[&[6u8], &body]));
        }
    }
}
