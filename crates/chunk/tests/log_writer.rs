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
