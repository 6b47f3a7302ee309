//! `LogStore::get_many` sorts its disk misses by log position and fetches
//! each run of adjacent records with one positioned read. It must stay
//! what it replaces — `get` mapped over the request, answer for answer
//! and counter for counter — over any layout: runs that end at a segment
//! rotation, gaps left by another writer, duplicate and absent cids,
//! chunks still in the pending map; and a damaged byte in the middle of a
//! run must cost exactly the chunk it sits in.

use forkbase_chunk::{Chunk, ChunkStore, ChunkType, Durability, LogConfig, LogStore};
use forkbase_crypto::Digest;
use proptest::prelude::*;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// magic + len + type tag in front of a payload, cid behind it.
const REC_FRONT: u64 = 9;
const REC_OVERHEAD: u64 = REC_FRONT + 32;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "forkbase-getmany-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Never fsyncs or drains on its own: what is on disk and what is pending
/// is the test's choice.
fn quiet() -> Durability {
    Durability::Batch {
        max_records: usize::MAX,
        interval: Duration::from_secs(3600),
    }
}

fn chunk_of(who: u8, i: u16, len: usize) -> Chunk {
    let mut payload = vec![who; len.max(3)];
    payload[1..3].copy_from_slice(&i.to_le_bytes());
    for (j, b) in payload.iter_mut().enumerate().skip(3) {
        *b = (i as usize * 31 + j * 7 + who as usize) as u8;
    }
    Chunk::new(ChunkType::Blob, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn get_many_is_get_mapped(
        lens in prop::collection::vec(0usize..700, 1..60),
        // Batch sizes the chunks are put in (1 = `put`).
        groups in prop::collection::vec(1usize..9, 1..30),
        // How many of the chunks are synced to disk; the rest stay queued.
        synced in 0usize..60,
        // The request: indices into chunks ++ noise ++ absent, repeats allowed.
        request in prop::collection::vec(0usize..140, 0..80),
    ) {
        let dir = temp_dir("prop");
        let cfg = LogConfig { segment_bytes: 2048, snapshot_bytes: u64::MAX };
        let store = LogStore::open_with(&dir, cfg, quiet()).expect("open");
        let mine: Vec<Chunk> = lens.iter().enumerate().map(|(i, &len)| chunk_of(1, i as u16, len)).collect();
        let noise: Vec<Chunk> = (0..40).map(|i| chunk_of(2, i, 30 + i as usize * 11)).collect();
        let synced = synced.min(mine.len());

        // A second writer interleaves its records with ours: gaps.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for chunk in &noise {
                    store.put(chunk.clone());
                }
            });
            let mut rest = &mine[..synced];
            for &n in groups.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(n.min(rest.len()));
                rest = tail;
                if batch.len() == 1 {
                    store.put(batch[0].clone());
                } else {
                    store.put_many(batch.to_vec());
                }
            }
        });
        store.sync().expect("sync");
        store.put_many(mine[synced..].to_vec());
        prop_assert_eq!(store.pending_unsynced() as usize, mine.len() - synced);

        let absent: Vec<Digest> = (0..40).map(|i| chunk_of(3, i, 20).cid()).collect();
        let known: Vec<&Chunk> = mine.iter().chain(&noise).collect();
        let expect: Vec<Option<Chunk>> = request
            .iter()
            .map(|&r| known.get(r % (known.len() + absent.len())).map(|&c| c.clone()))
            .collect();
        let cids: Vec<Digest> = request
            .iter()
            .map(|&r| {
                let r = r % (known.len() + absent.len());
                known.get(r).map_or_else(|| absent[r - known.len()], |c| c.cid())
            })
            .collect();

        let before = store.stats();
        let batched = store.get_many(&cids);
        let after_batched = store.stats();
        let singly: Vec<Option<Chunk>> = cids.iter().map(|cid| store.get(cid)).collect();
        let after_singly = store.stats();
        prop_assert_eq!(&batched, &expect);
        prop_assert_eq!(&singly, &expect);
        prop_assert_eq!(
            (after_batched.gets - before.gets, after_batched.get_hits - before.get_hits),
            (after_singly.gets - after_batched.gets, after_singly.get_hits - after_batched.get_hits)
        );
        prop_assert_eq!(after_singly.io_errors, 0);
        prop_assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The sixteen 4 KiB leaves of a from-scratch 64 KiB blob reach the log
/// in one `put_many`, so they are adjacent there.
fn blob_leaves(who: u8) -> Vec<Chunk> {
    (0..16).map(|i| chunk_of(who, i, 4096)).collect()
}

#[test]
fn a_blobs_leaves_are_one_positioned_read() {
    let dir = temp_dir("one-read");
    let store = LogStore::open_with(&dir, LogConfig::default(), quiet()).expect("open");
    store.put(chunk_of(9, 0, 100)); // not at offset 0
    let leaves = blob_leaves(1);
    store.put_many(leaves.clone());
    store.sync().expect("sync");
    let cids: Vec<Digest> = leaves.iter().map(Chunk::cid).collect();

    let reads = store.read_count();
    let got = store.get_many(&cids);
    assert_eq!(store.read_count() - reads, 1, "sixteen adjacent records");
    assert_eq!(got, leaves.iter().cloned().map(Some).collect::<Vec<_>>());

    // Asked for backwards, with one leaf left out: two runs.
    let mut some: Vec<Digest> = cids.iter().rev().copied().collect();
    some.remove(5);
    let reads = store.read_count();
    let got = store.get_many(&some);
    assert_eq!(store.read_count() - reads, 2, "a gap ends a run");
    for (cid, chunk) in some.iter().zip(got) {
        assert_eq!(chunk.expect("present").cid(), *cid);
    }
    assert_eq!(store.get(&cids[3]).as_ref(), Some(&leaves[3]));

    // A run is cut at 1 MiB, so its buffer stays small whatever is asked.
    let long: Vec<Chunk> = (100..400).map(|i| chunk_of(1, i, 4096)).collect();
    store.put_many(long.clone());
    store.sync().expect("sync");
    let cids: Vec<Digest> = long.iter().map(Chunk::cid).collect();
    let reads = store.read_count();
    let got = store.get_many(&cids);
    assert_eq!(store.read_count() - reads, 2, "1.2 MB of adjacent records");
    assert_eq!(got, long.into_iter().map(Some).collect::<Vec<_>>());
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_run_ends_where_its_segment_does() {
    let dir = temp_dir("rotation");
    let cfg = LogConfig {
        segment_bytes: 40 << 10,
        snapshot_bytes: u64::MAX,
    };
    let store = LogStore::open_with(&dir, cfg, quiet()).expect("open");
    let leaves = blob_leaves(2); // 16 × 4137 B: nine fit, seven rotate
    store.put_many(leaves.clone());
    store.sync().expect("sync");
    let cids: Vec<Digest> = leaves.iter().map(Chunk::cid).collect();
    let reads = store.read_count();
    let got = store.get_many(&cids);
    assert_eq!(store.read_count() - reads, 2, "one per segment");
    assert_eq!(got, leaves.into_iter().map(Some).collect::<Vec<_>>());
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_flipped_byte_costs_only_its_own_chunk() {
    let dir = temp_dir("flip");
    let store = LogStore::open_with(&dir, LogConfig::default(), quiet()).expect("open");
    let leaves = blob_leaves(3);
    store.put_many(leaves.clone());
    store.sync().expect("sync");
    // Middle of the eighth record's payload.
    let at = 7 * (REC_OVERHEAD + 4096) + REC_FRONT + 2000;
    let seg = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("seg-000000.log"))
        .expect("segment");
    let mut byte = [0u8];
    seg.read_exact_at(&mut byte, at).expect("read");
    assert_eq!(byte[0], leaves[7].payload()[2000]);
    seg.write_all_at(&[byte[0] ^ 0x40], at).expect("flip");

    let cids: Vec<Digest> = leaves.iter().map(Chunk::cid).collect();
    let reads = store.read_count();
    let got = store.get_many(&cids);
    assert_eq!(store.read_count() - reads, 1, "still one run");
    for (i, (chunk, leaf)) in got.iter().zip(&leaves).enumerate() {
        if i == 7 {
            assert_eq!(*chunk, None, "the damaged chunk is never served");
        } else {
            assert_eq!(chunk.as_ref(), Some(leaf), "neighbour {i}");
        }
    }
    assert_eq!(store.stats().io_errors, 1);
    assert!(store.poisoned());
    assert_eq!(store.get(&cids[7]), None);
    assert_eq!(store.stats().io_errors, 2, "`get` counts it the same way");
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}
