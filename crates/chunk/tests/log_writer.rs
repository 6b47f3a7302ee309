//! Who leads a [`LogStore`] commit round, and what the writer thread may
//! do beside the callers:
//!
//! 1. **The writer is woken, never polled for** — a put that makes the
//!    backlog due signals it; no `Batch` or `Os` put leads a round; each
//!    `sync` / `sync_root` / `Always` put leads exactly one; close joins
//!    it and loses nothing; its failed round is reported by the next
//!    `sync`.
//! 2. **Compaction against live writers** — puts, the writer thread's
//!    rounds and `compact_retain` in a loop never leave the log pointing
//!    at a deleted segment.
//! 3. **A snapshot written off the commit lock is never ahead of the
//!    data** — crash images taken at random instants reopen to an index
//!    whose every entry reads back, with only the tail replayed.
//! 4. **Write-behind** — under `Batch` a `put_many` of 256 KiB or more is
//!    the writer thread's to write, with no fsync and its writeback
//!    started, and the `sync_root` behind it writes only the tail; under
//!    `Always` nothing changes. A crash after that write and before the
//!    root record reopens to the previous root, whatever part of the
//!    written-ahead bytes reached the disk.
//! 5. **A sync does not chase producers** — it returns once what was
//!    queued when it came in is fsynced, with a producer putting in a
//!    tight loop.

use forkbase_chunk::{Chunk, ChunkStore, ChunkType, Durability, LogConfig, LogStore, PutOutcome};
use forkbase_crypto::fx::FxHashSet;
use forkbase_crypto::Digest;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HOUR: Duration = Duration::from_secs(3600);

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "forkbase-logwriter-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cfg(segment_bytes: u64) -> LogConfig {
    LogConfig {
        segment_bytes,
        snapshot_bytes: u64::MAX,
    }
}

/// Chunk `i` of writer `who`: unique, `len` pseudo-random bytes.
fn chunk_of(who: u32, i: u32, len: usize) -> Chunk {
    let mut payload = vec![0u8; len.max(8)];
    payload[..4].copy_from_slice(&who.to_le_bytes());
    payload[4..8].copy_from_slice(&i.to_le_bytes());
    let mut state = ((who as u64) << 32 | i as u64) + 1;
    for b in payload[8..].iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (state >> 33) as u8;
    }
    Chunk::new(ChunkType::Blob, payload)
}

/// Spin (politely) until `done` holds; false if `limit` passes first.
fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// `Batch { max_records: 8, interval: 1 h }`: the tick is 30 minutes, so
/// when eight puts are fsynced within a second with no further call, only
/// the eighth put's signal can have done it — and when the signal could
/// fall between the writer's check and its wait, some of 200 rounds hangs.
#[test]
fn the_eighth_put_wakes_the_writer() {
    let batch = Durability::Batch {
        max_records: 8,
        interval: HOUR,
    };
    for round in 0..200u32 {
        let dir = temp_dir("woken");
        let store = LogStore::open_with(&dir, cfg(1 << 20), batch).expect("open");
        for i in 0..8 {
            assert_eq!(store.put(chunk_of(round, i, 64)), PutOutcome::Stored);
        }
        assert!(
            wait_until(Duration::from_secs(1), || store.pending_unsynced() == 0),
            "round {round}: {} records still unsynced after a second",
            store.pending_unsynced()
        );
        assert_eq!(store.caller_rounds(), 0, "and no caller led it");
        let start = Instant::now();
        drop(store);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "round {round}: close waited {:?} for the writer",
            start.elapsed()
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn unforced_puts_never_lead_a_round() {
    let busy = Durability::Batch {
        max_records: 64,
        interval: Duration::from_millis(2),
    };
    for durability in [busy, Durability::Os] {
        let dir = temp_dir("unforced");
        let store = LogStore::open_with(&dir, cfg(64 << 10), durability).expect("open");
        let chunks: Vec<Chunk> = (0..10_000).map(|i| chunk_of(0, i, 200)).collect();
        for group in chunks.chunks(5) {
            // Two as a batch, three singly.
            store.put_many(group[..2].to_vec());
            for chunk in &group[2..] {
                store.put(chunk.clone());
            }
        }
        assert_eq!(
            store.caller_rounds(),
            0,
            "{durability:?}: 2 MB of puts crossed every threshold many times"
        );
        for chunk in chunks.iter().step_by(97) {
            assert_eq!(store.get(&chunk.cid()).as_ref(), Some(chunk));
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn every_forced_call_leads_exactly_one_round() {
    let quiet = Durability::Batch {
        max_records: usize::MAX,
        interval: HOUR,
    };
    for durability in [quiet, Durability::Os] {
        let dir = temp_dir("forced");
        let store = LogStore::open_with(&dir, cfg(1 << 20), durability).expect("open");
        store.put(chunk_of(1, 0, 100));
        assert_eq!(store.caller_rounds(), 0);
        store.sync().expect("sync");
        assert_eq!(store.caller_rounds(), 1, "{durability:?}: sync");
        store.sync().expect("sync of nothing");
        assert_eq!(store.caller_rounds(), 1, "nothing to lead");
        store.put(chunk_of(1, 1, 100));
        let root = Chunk::new(ChunkType::Checkpoint, &b"root"[..]);
        store.sync_root(root.clone()).expect("sync_root");
        assert_eq!(store.caller_rounds(), 2, "{durability:?}: sync_root");
        store.sync_root(root).expect("sync_root again");
        assert_eq!(store.caller_rounds(), 3, "the root record alone");
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    let dir = temp_dir("forced-always");
    let store = LogStore::open_with(&dir, cfg(1 << 20), Durability::Always).expect("open");
    for i in 0..5 {
        store.put(chunk_of(2, i, 100));
        assert_eq!(store.caller_rounds(), i as u64 + 1, "Always put {i}");
    }
    store.put_many((5..13).map(|i| chunk_of(2, i, 100)).collect());
    assert_eq!(store.caller_rounds(), 6, "a batch is one round");
    assert_eq!(store.put(chunk_of(2, 0, 100)), PutOutcome::Deduplicated);
    assert_eq!(store.caller_rounds(), 6, "a durable duplicate is none");
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn close_joins_the_writer_and_keeps_the_queue() {
    let quiet = Durability::Batch {
        max_records: usize::MAX,
        interval: HOUR,
    };
    for durability in [quiet, Durability::Os] {
        let dir = temp_dir("close");
        let chunks: Vec<Chunk> = (0..300).map(|i| chunk_of(3, i, 150)).collect();
        {
            let store = LogStore::open_with(&dir, cfg(4096), durability).expect("open");
            store.put_many(chunks.clone());
            assert_eq!(store.pending_unsynced(), 300, "all of it still queued");
        }
        let store = LogStore::open_with(&dir, cfg(4096), durability).expect("reopen");
        let stats = store.reopen_stats();
        assert!(stats.used_snapshot, "{stats:?}");
        assert_eq!((stats.snapshot_chunks, stats.replayed_chunks), (300, 0));
        for chunk in &chunks {
            assert_eq!(store.get(&chunk.cid()).as_ref(), Some(chunk));
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The fourth put makes the backlog due and rotates into segment 1 —
/// whose path is a directory, so the writer thread's round fails with no
/// caller there to see it. The store is poisoned, the round's records are
/// gone, and the next `sync` says so, once.
#[test]
fn a_failed_writer_round_is_reported_by_the_next_sync() {
    let dir = temp_dir("failed");
    let batch = Durability::Batch {
        max_records: 4,
        interval: HOUR,
    };
    let store = LogStore::open_with(&dir, cfg(4096), batch).expect("open");
    std::fs::create_dir(dir.join("seg-000001.log")).expect("block the rotation");
    let lost: Vec<Chunk> = (0..4).map(|i| chunk_of(4, i, 1000)).collect();
    for chunk in &lost {
        assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
    }
    assert!(
        wait_until(Duration::from_secs(5), || store.poisoned()),
        "the writer never ran the round"
    );
    assert!(wait_until(Duration::from_secs(5), || store
        .pending_unsynced()
        == 0));
    assert_eq!(store.stats().io_errors, 1);
    assert_eq!(store.caller_rounds(), 0);
    assert!(store.sync().is_err(), "the sync after a dropped round");
    store.sync().expect("reported once");
    for chunk in &lost {
        assert_eq!(store.get(&chunk.cid()), None, "dropped with its round");
    }
    // Rolled back to where the round began: what still fits goes on.
    let kept = chunk_of(4, 9, 100);
    store.put(kept.clone());
    store.sync().expect("segment 0 still takes records");
    assert_eq!(store.get(&kept.cid()), Some(kept.clone()));
    std::mem::forget(store);
    std::fs::remove_dir(dir.join("seg-000001.log")).expect("unblock");
    let store = LogStore::open_with(&dir, cfg(4096), batch).expect("reopen");
    assert_eq!(store.chunk_count(), 1);
    assert_eq!(store.get(&kept.cid()), Some(kept));
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

/// Four threads put while `compact_retain` runs in a loop, keeping every
/// even-numbered chunk (a putter names those before it puts them).
/// Whatever a round's `live` set names, and whatever is put after the
/// last round returned, must read back byte-exact, in place and after a
/// crash-style reopen. With `max_records: 1` every put has the writer
/// thread start a round, so compaction meets one in flight all the time —
/// it must take the log for itself and compact under one hold of the
/// commit lock, or a round's publish points the writer back at a segment
/// compaction deleted; and it must get the log however fast the putters
/// are, or the loop below never ends.
#[test]
fn compaction_against_live_writers_keeps_every_live_chunk() {
    const PUTTERS: u32 = 4;
    const ROUNDS: u64 = 12;
    let eager = Durability::Batch {
        max_records: 1,
        interval: Duration::from_millis(1),
    };
    for durability in [eager, Durability::Os] {
        let dir = temp_dir("compact-race");
        let store = Arc::new(LogStore::open_with(&dir, cfg(8 << 10), durability).expect("open"));
        let live: Arc<Mutex<FxHashSet<Digest>>> = Arc::default();
        let acked = Arc::new(AtomicU64::new(0));
        // Odd from before a round fixes its `live` set until the round
        // has returned; 2 × ROUNDS once the last one has.
        let epoch = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let putters: Vec<_> = (0..PUTTERS)
            .map(|who| {
                let (store, live, acked) = (store.clone(), live.clone(), acked.clone());
                let (epoch, stop) = (epoch.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut must_hold = Vec::new();
                    let mut after_last = 0;
                    let mut n = 0u32;
                    while !(stop.load(Ordering::SeqCst) && after_last >= 20) {
                        let batch: Vec<Chunk> = (n..n + 1 + n % 3)
                            .map(|n| chunk_of(who, n, 64 + (n as usize * 37) % 900))
                            .collect();
                        let before = epoch.load(Ordering::SeqCst);
                        let even = batch.iter().skip((n % 2) as usize).step_by(2);
                        live.lock().expect("live").extend(even.map(Chunk::cid));
                        if batch.len() == 1 {
                            store.put(batch[0].clone());
                        } else {
                            store.put_many(batch.clone());
                        }
                        acked.fetch_add(batch.len() as u64, Ordering::SeqCst);
                        // Named before any later round fixed its set, and
                        // no round in between to have missed it.
                        let named =
                            before.is_multiple_of(2) && epoch.load(Ordering::SeqCst) == before;
                        let late = before == 2 * ROUNDS;
                        for chunk in batch {
                            if late || (named && n.is_multiple_of(2)) {
                                must_hold.push(chunk);
                            }
                            after_last += late as usize;
                            n += 1;
                        }
                    }
                    must_hold
                })
            })
            .collect();

        let mut dropped = 0;
        for round in 0..ROUNDS {
            // Let the log grow a little between rounds.
            let grown = acked.load(Ordering::SeqCst) + 40;
            assert!(
                wait_until(Duration::from_secs(20), || acked.load(Ordering::SeqCst)
                    >= grown),
                "round {round}: the putters are stuck"
            );
            epoch.fetch_add(1, Ordering::SeqCst);
            let live = live.lock().expect("live").clone();
            dropped += store.compact_retain(&live).expect("compact").dropped_chunks;
            epoch.fetch_add(1, Ordering::SeqCst);
        }
        stop.store(true, Ordering::SeqCst);
        let must_hold: Vec<Chunk> = putters
            .into_iter()
            .flat_map(|putter| putter.join().expect("putter"))
            .collect();
        assert!(dropped > 0, "compaction had something to drop");
        let live = live.lock().expect("live").clone();
        let (named, late): (Vec<_>, Vec<_>) =
            must_hold.iter().partition(|c| live.contains(&c.cid()));
        assert!(
            named.len() > 100 && late.len() >= 20,
            "{} named, {} late",
            named.len(),
            late.len()
        );

        let check = |store: &LogStore, when: &str| {
            for chunk in &must_hold {
                let got = store.get(&chunk.cid());
                assert_eq!(got.as_ref(), Some(chunk), "{durability:?}, {when}");
            }
            assert!(!store.poisoned(), "{durability:?}, {when}");
            assert_eq!(store.stats().io_errors, 0, "{durability:?}, {when}");
        };
        check(&store, "in place");
        store.sync().expect("sync");
        // Crash: no close-time snapshot; the last compaction's, plus the
        // tail behind it, is what a reopen gets.
        let store = Arc::into_inner(store).expect("all threads joined");
        std::mem::forget(store);
        let store = LogStore::open_with(&dir, cfg(8 << 10), durability).expect("reopen");
        check(&store, "after reopen");
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Copy what a crash at this instant would leave: the snapshot first,
/// then the segments from the newest down — the log only grows, and a
/// segment is whole before the next exists, so every file copied later is
/// at least as complete as the files copied before need it to be.
fn crash_image(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    let _ = std::fs::copy(src.join("snapshot.idx"), dst.join("snapshot.idx"));
    let mut segs: Vec<PathBuf> = std::fs::read_dir(src)
        .expect("ls")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort();
    for seg in segs.iter().rev() {
        std::fs::copy(seg, dst.join(seg.file_name().expect("name"))).expect("copy");
    }
}

/// Two putters and a syncer (`sync` / `sync_root`) keep rounds coming;
/// with 2 KiB of appends between snapshots the writer thread is writing
/// one almost all the time, its file I/O outside the commit lock. Crash
/// images are taken at random instants, mid-snapshot included. Each must
/// reopen to an index that is exactly snapshot + tail (an entry past the
/// covered position would be replayed a second time), whose every chunk
/// reads back from where the snapshot says it is, with a root the log
/// holds.
#[test]
fn a_snapshot_written_off_the_lock_is_never_ahead_of_the_data() {
    const IMAGES: usize = 24;
    let dir = temp_dir("snap-race");
    let cfg = LogConfig {
        segment_bytes: 4096,
        snapshot_bytes: 2048,
    };
    let batch = Durability::Batch {
        max_records: 16,
        interval: Duration::from_millis(1),
    };
    let store = Arc::new(LogStore::open_with(&dir, cfg, batch).expect("open"));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for who in 0..2u32 {
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        threads.push(std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                store.put(chunk_of(who, i, 40 + (i as usize * 53) % 400));
                i += 1;
                // Paced: the images, not the log's size, are the test.
                std::thread::sleep(Duration::from_micros(100));
            }
        }));
    }
    {
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        threads.push(std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::SeqCst) {
                if i.is_multiple_of(3) {
                    store.sync().expect("sync");
                } else {
                    let root = Chunk::new(ChunkType::Checkpoint, i.to_le_bytes().to_vec());
                    store.sync_root(root).expect("sync_root");
                }
                i += 1;
            }
        }));
    }

    let mut gap = 0x9E37_79B9_7F4A_7C15u64;
    let images: Vec<PathBuf> = (0..IMAGES)
        .map(|n| {
            gap = gap
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            std::thread::sleep(Duration::from_micros(gap >> 52)); // 0–4 ms
            let image = temp_dir(&format!("snap-image{n}"));
            crash_image(&dir, &image);
            image
        })
        .collect();
    stop.store(true, Ordering::SeqCst);
    for thread in threads {
        thread.join().expect("no panics");
    }
    assert!(!store.poisoned());
    drop(store);

    let mut from_snapshot = 0;
    for image in images.iter().chain([&dir]) {
        let store = LogStore::open_with(image, cfg, batch).expect("reopen");
        let stats = store.reopen_stats();
        from_snapshot += stats.used_snapshot as usize;
        assert_eq!(
            stats.snapshot_chunks + stats.replayed_chunks,
            store.chunk_count() as u64,
            "the tail starts where the snapshot ends: {stats:?}"
        );
        // Every chunk a thread put, up to its first that is absent (each
        // thread's puts land in order): together they are the whole index,
        // so every entry's record reads back from where the entry says.
        let mut found = 0;
        for who in 0..2u32 {
            for i in 0.. {
                let chunk = chunk_of(who, i, 40 + (i as usize * 53) % 400);
                match store.get(&chunk.cid()) {
                    Some(got) => assert_eq!(got, chunk),
                    None => break,
                }
                found += 1;
            }
        }
        for i in (0u32..).filter(|i| !i.is_multiple_of(3)) {
            let chunk = Chunk::new(ChunkType::Checkpoint, i.to_le_bytes().to_vec());
            if store.get(&chunk.cid()).is_none() {
                break;
            }
            found += 1;
        }
        assert_eq!(found, store.chunk_count(), "an entry nobody put");
        if let Some(root) = store.root() {
            let chunk = store.get(&root).expect("the root's chunk is in the log");
            assert_eq!(chunk.ty(), ChunkType::Checkpoint);
        }
        assert!(!store.poisoned());
        assert_eq!(
            store.stats().io_errors,
            0,
            "no entry points at a wrong place"
        );
        drop(store);
        std::fs::remove_dir_all(image).ok();
    }
    assert!(
        from_snapshot > IMAGES / 2,
        "only {from_snapshot} of {IMAGES} images held a periodic snapshot"
    );
}

/// Record framing: magic, length, type tag, trailing cid.
const FRAME: u64 = 4 + 4 + 1 + 32;

/// Record bytes `chunks` take in the log.
fn record_bytes(chunks: &[Chunk]) -> u64 {
    chunks.iter().map(|c| FRAME + c.len() as u64).sum()
}

/// Record bytes `sync_root(root)` appends for a chunk the store does not
/// hold: the chunk, then the root record naming its cid.
fn root_bytes(root: &Chunk) -> u64 {
    FRAME + root.len() as u64 + FRAME + 32
}

/// A block's leaves: 64 chunks of 8 KiB, over the 256 KiB that make a
/// `put_many` the writer thread's to write ahead.
fn block_leaves(who: u32) -> Vec<Chunk> {
    let leaves: Vec<Chunk> = (0..64).map(|i| chunk_of(who, i, 8 << 10)).collect();
    assert!(record_bytes(&leaves) >= 256 << 10);
    leaves
}

#[test]
fn a_large_put_many_is_written_ahead_and_the_checkpoint_writes_the_tail() {
    let quiet = Durability::Batch {
        max_records: usize::MAX,
        interval: HOUR,
    };
    let dir = temp_dir("ahead");
    let store = LogStore::open_with(&dir, cfg(64 << 20), quiet).expect("open");
    // Under 256 KiB: queued for the forced round, which writes it all.
    let small: Vec<Chunk> = (0..8).map(|i| chunk_of(5, i, 4 << 10)).collect();
    store.put_many(small.clone());
    let root = Chunk::new(ChunkType::Checkpoint, &b"root 1"[..]);
    let fsyncs = store.fsync_count();
    store.sync_root(root.clone()).expect("sync_root");
    assert_eq!(store.fsync_count() - fsyncs, 1);
    assert_eq!(store.writer_bytes_written(), 0, "nothing written ahead");
    assert_eq!(
        store.caller_bytes_written(),
        record_bytes(&small) + root_bytes(&root)
    );

    let leaves = block_leaves(6);
    let (fsyncs, caller_bytes) = (store.fsync_count(), store.caller_bytes_written());
    store.put_many(leaves.clone());
    assert!(
        wait_until(Duration::from_secs(5), || store.writer_bytes_written()
            == record_bytes(&leaves)),
        "the writer thread never wrote the leaves ({} bytes)",
        store.writer_bytes_written()
    );
    assert_eq!(store.fsync_count(), fsyncs, "written, not fsynced");
    assert_eq!(store.pending_unsynced(), 64);
    assert_eq!(store.caller_rounds(), 1, "only the first sync_root's");
    assert_eq!(
        store.writeback_starts(),
        cfg!(target_os = "linux") as u64,
        "its writeback started where the platform can"
    );

    // The index above the leaves and the checkpoint: the forced round
    // writes only these, and one fsync covers the leaves too.
    let index: Vec<Chunk> = (0..3).map(|i| chunk_of(7, i, 2000)).collect();
    store.put_many(index.clone());
    let root = Chunk::new(ChunkType::Checkpoint, &b"root 2"[..]);
    store.sync_root(root.clone()).expect("sync_root");
    assert_eq!(store.fsync_count() - fsyncs, 1, "one fsync for the block");
    assert_eq!(
        store.caller_bytes_written() - caller_bytes,
        record_bytes(&index) + root_bytes(&root),
        "the checkpoint wrote the tail only"
    );
    assert_eq!(store.writer_bytes_written(), record_bytes(&leaves));
    assert_eq!(store.pending_unsynced(), 0);
    assert_eq!(store.caller_rounds(), 2);

    std::mem::forget(store); // crash: no close-time snapshot
    let store = LogStore::open_with(&dir, cfg(64 << 20), quiet).expect("reopen");
    assert_eq!(store.root(), Some(root.cid()));
    for chunk in small.iter().chain(&leaves).chain(&index) {
        assert_eq!(store.get(&chunk.cid()).as_ref(), Some(chunk));
    }
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn under_always_a_large_put_many_is_its_callers_fsynced_round() {
    let dir = temp_dir("ahead-always");
    let store = LogStore::open_with(&dir, cfg(64 << 20), Durability::Always).expect("open");
    let leaves = block_leaves(11);
    let fsyncs = store.fsync_count();
    store.put_many(leaves.clone());
    assert_eq!(store.fsync_count() - fsyncs, 1);
    assert_eq!(store.pending_unsynced(), 0);
    assert_eq!(store.caller_rounds(), 1);
    assert_eq!(store.caller_bytes_written(), record_bytes(&leaves));
    assert_eq!(store.writer_bytes_written(), 0);
    assert_eq!(store.writeback_starts(), 0);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

/// Root A is durable; then a block's leaves are written ahead and a crash
/// image is taken before the block's root record. On a real crash the
/// disk may hold any part of the written-ahead bytes: the image is
/// reopened cut at offsets across them and with a byte flipped among
/// them. Each reopens to root A with every chunk it covers, and with each
/// leaf either absent or intact — all of them up to the cut.
#[test]
fn a_crash_between_the_write_ahead_round_and_the_root_keeps_the_previous_root() {
    let quiet = Durability::Batch {
        max_records: usize::MAX,
        interval: HOUR,
    };
    let dir = temp_dir("ahead-crash");
    let store = LogStore::open_with(&dir, cfg(64 << 20), quiet).expect("open");
    let covered: Vec<Chunk> = (0..20).map(|i| chunk_of(8, i, 3000)).collect();
    store.put_many(covered.clone());
    let root_a = Chunk::new(ChunkType::Checkpoint, &b"root A"[..]);
    store.sync_root(root_a.clone()).expect("sync_root");
    let synced = record_bytes(&covered) + root_bytes(&root_a);

    let leaves = block_leaves(9);
    store.put_many(leaves.clone());
    assert!(wait_until(Duration::from_secs(5), || store
        .writer_bytes_written()
        == record_bytes(&leaves)));
    let image = temp_dir("ahead-crash-image");
    crash_image(&dir, &image);
    // The block goes on after the crash instant: its index, its root.
    store.put_many((0..3).map(|i| chunk_of(10, i, 2000)).collect());
    store
        .sync_root(Chunk::new(ChunkType::Checkpoint, &b"root B"[..]))
        .expect("sync_root");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let seg = "seg-000000.log";
    let full = std::fs::metadata(image.join(seg)).expect("segment").len();
    assert_eq!(full, synced + record_bytes(&leaves), "leaves, no root B");
    let leaf_ends: Vec<u64> = leaves
        .iter()
        .scan(synced, |end, c| {
            *end += FRAME + c.len() as u64;
            Some(*end)
        })
        .collect();
    let cuts = (synced..=full)
        .step_by(4093)
        .chain([synced + 1, full - 1, full]);
    let damages = cuts
        .map(|cut| (cut, None))
        .chain([(full, Some(synced + 20_000)), (full, Some(full - 100))]);
    for (cut, flip) in damages {
        let scratch = temp_dir("ahead-crash-cut");
        std::fs::create_dir_all(&scratch).expect("mkdir");
        let mut bytes = std::fs::read(image.join(seg)).expect("read");
        bytes.truncate(cut as usize);
        if let Some(at) = flip {
            bytes[at as usize] ^= 0x01;
        }
        std::fs::write(scratch.join(seg), bytes).expect("write");
        let what = format!("cut at {cut} of {full}, flip at {flip:?}");
        let store = LogStore::open_with(&scratch, cfg(64 << 20), quiet).expect("reopen");
        assert_eq!(store.root(), Some(root_a.cid()), "{what}");
        for chunk in covered.iter().chain([&root_a]) {
            assert_eq!(store.get(&chunk.cid()).as_ref(), Some(chunk), "{what}");
        }
        let intact = flip.unwrap_or(cut);
        for (leaf, end) in leaves.iter().zip(&leaf_ends) {
            let got = store.get(&leaf.cid());
            assert!(got.is_none() || got.as_ref() == Some(leaf), "{what}");
            if *end <= intact {
                assert!(got.is_some(), "{what}: a leaf before the damage");
            }
        }
        assert!(!store.poisoned(), "{what}");
        drop(store);
        std::fs::remove_dir_all(scratch).ok();
    }
    std::fs::remove_dir_all(image).ok();
}

/// A producer puts in a tight loop, so the queue never empties; `sync`
/// must still return after a round or two of its own. One that drained
/// until the queue was empty would lead a round per refill — each one
/// fsync, hundreds of them while the producer outruns the disk — and
/// return only when the producer gives up, after 10 s or 200,000 puts.
/// The writer thread's rounds while the sync waits are a few fsyncs more.
/// Everything acknowledged before the call survives a crash right after.
#[test]
fn sync_returns_while_a_producer_keeps_putting() {
    let dir = temp_dir("no-chase");
    let store =
        Arc::new(LogStore::open_with(&dir, cfg(64 << 20), Durability::default()).expect("open"));
    let (stop, done) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let acked = Arc::new(AtomicU64::new(0));
    let producer = {
        let (store, stop, done, acked) = (store.clone(), stop.clone(), done.clone(), acked.clone());
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) && i < 200_000 && Instant::now() < deadline {
                store.put(chunk_of(12, i, 256));
                i += 1;
                acked.store(i as u64, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    assert!(wait_until(Duration::from_secs(10), || acked
        .load(Ordering::SeqCst)
        >= 2000));
    let (rounds, fsyncs) = (store.caller_rounds(), store.fsync_count());
    let before = acked.load(Ordering::SeqCst) as u32;
    store.sync().expect("sync");
    let producing = !done.load(Ordering::SeqCst);
    let led = store.caller_rounds() - rounds;
    let fsyncs = store.fsync_count() - fsyncs;
    stop.store(true, Ordering::SeqCst);
    producer.join().expect("producer");
    assert!(
        producing,
        "sync returned only once the producer had stopped"
    );
    assert!(led <= 2, "sync led {led} rounds");
    assert!(fsyncs <= 8, "{fsyncs} fsyncs while sync ran");
    assert!(!store.poisoned());

    let store = Arc::into_inner(store).expect("producer joined");
    std::mem::forget(store); // crash right after the sync
    let store = LogStore::open_with(&dir, cfg(64 << 20), Durability::default()).expect("reopen");
    for i in 0..before {
        let chunk = chunk_of(12, i, 256);
        assert_eq!(store.get(&chunk.cid()), Some(chunk), "put {i} of {before}");
    }
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}
