//! On-disk bytes, pinned: a fixed-seed run with one writer leaves the
//! same files, byte for byte, on every build that keeps the formats.
//!
//! Each leg writes a durable instance into an empty directory, closes it
//! cleanly, and hashes every file the directory then holds (`seg-*.log`,
//! `snapshot.idx` and whatever else is there; root records live inside
//! the segments). The digests below were taken on the build before the
//! hot tier could journal its edits, so a pass also proves that a
//! checkpoint without a journal list encodes as it always has.
//!
//! * **Tier off** — puts, a map batch, a blob, a fork and an untagged
//!   head, with two `commit_checkpoint`s.
//! * **Tier on** — a preload and ten blocks through `hot_put_many` and
//!   `flush_hot`. `publish_batch` is huge, so no writer seals a round:
//!   every round is a flush's. (No clock cuts a round either way.)

use bytes::Bytes;
use forkbase_chunk::{CacheConfig, Durability};
use forkbase_core::{ChunkerConfig, ForkBase, HotTierConfig, Value, WriteBatch};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "forkbase-disk-pin-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &Path, hot: HotTierConfig) -> ForkBase {
    ForkBase::open_with(
        dir,
        ChunkerConfig::default(),
        Durability::Always,
        CacheConfig::default(),
        hot,
    )
    .expect("open")
}

/// A fixed-seed byte stream (an LCG), so every run writes the same data.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| b'a' + (self.next() % 26) as u8).collect()
    }
}

/// `name  sha256` of every file in `dir`, sorted by name.
fn digests(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("ls")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("read");
            format!("{name}  {}", forkbase_crypto::hash_bytes(&bytes).to_hex())
        })
        .collect()
}

fn assert_pinned(dir: &Path, want: &[&str]) {
    let got = digests(dir);
    assert_eq!(got, want, "on-disk bytes moved; got:\n{}", got.join("\n"));
}

#[test]
fn tier_off_puts_and_checkpoints_write_pinned_bytes() {
    let dir = temp_dir("off");
    let mut rng = Lcg(1);
    {
        let db = open(&dir, HotTierConfig::disabled());
        for i in 0..120u64 {
            let key = format!("key-{:02}", rng.next() % 12);
            let value = String::from_utf8(rng.bytes(40 + (i as usize % 90))).expect("ascii");
            db.put(key, None, Value::String(value)).expect("put");
        }
        let mut batch = WriteBatch::new();
        for _ in 0..300 {
            batch.put(format!("field-{:05}", rng.next() % 5000), rng.bytes(60));
        }
        db.commit_map_batch("map", None, batch).expect("map");
        db.put("blob", None, Value::Blob(db.new_blob(&rng.bytes(100_000))))
            .expect("blob");
        db.fork("key-03", "master", "draft").expect("fork");
        db.commit_checkpoint().expect("checkpoint");
        db.put("key-03", Some("draft"), Value::Int(7)).expect("put");
        let genesis = db
            .put_conflict("chain", None, Value::String("genesis".into()))
            .expect("genesis");
        db.put_conflict("chain", Some(genesis), Value::Int(1))
            .expect("untagged");
        db.commit_checkpoint().expect("checkpoint");
    }
    assert_pinned(&dir, TIER_OFF);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tier_on_flushes_write_pinned_bytes() {
    let dir = temp_dir("on");
    let mut rng = Lcg(2);
    {
        let db = open(
            &dir,
            HotTierConfig {
                enabled: true,
                publish_batch: 1 << 20,
                ..HotTierConfig::on()
            },
        );
        let account = |a: u64| Bytes::from(format!("acct{a:06}"));
        let preload: Vec<_> = (0..2_000)
            .map(|a| (account(a), Some(Bytes::from(rng.bytes(100)))))
            .collect();
        db.hot_put_many("state", preload).expect("preload");
        db.flush_hot().expect("flush");
        let mut tip = db
            .put_conflict("blocks", None, Value::String("genesis".into()))
            .expect("genesis");
        for block in 0..10 {
            let updates: Vec<_> = (0..64)
                .map(|_| {
                    let a = rng.next() % 2_000;
                    let value = (!a.is_multiple_of(9)).then(|| Bytes::from(rng.bytes(100)));
                    (account(a), value)
                })
                .collect();
            db.hot_put_many("state", updates).expect("updates");
            db.flush_hot().expect("flush");
            let body = db.new_blob(&[block as u8; 4096]);
            tip = db
                .put_conflict("blocks", Some(tip), Value::Blob(body))
                .expect("block");
        }
    }
    assert_pinned(&dir, TIER_ON);
    std::fs::remove_dir_all(&dir).ok();
}

const TIER_OFF: &[&str] = &[
    "seg-000000.log  9e03926c34224ff744a34d222217d332f34edb762965cf3d4ba8ac92a6a76ca5",
    "snapshot.idx  064de095e48d971410f42cc8cc37b0292f0c820a91064c796bbf405d02d3cb8e",
];

const TIER_ON: &[&str] = &[
    "seg-000000.log  2b6bf24df819907ea825896a614bfec100e6b8d09f2022b522b177b4f157c442",
    "snapshot.idx  f6192382354eb27d8d74ab28913a69aa8475318885281a9e331743efa3298912",
];
