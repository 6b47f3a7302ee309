//! The native ForkBase port of Hyperledger's data structures
//! (Figure 7(b)).
//!
//! The Merkle tree and state delta are replaced by ForkBase objects:
//!
//! * each state value lives in its own fork-on-conflict lineage of Blob
//!   FObjects (`s/<contract>/<key>`) — its uid chain *is* the value
//!   history;
//! * a second-level `Map` per contract maps data key → latest value-blob
//!   uid (`m/<contract>`);
//! * a first-level `Map` maps contract id → second-level map uid
//!   (`ledger/state`); the uid of this map's FObject replaces the state
//!   hash in the block header.
//!
//! Benefits reproduced from the paper: tamper evidence comes for free
//! (uids are hash-chained), the commit writes only changed chunks, and
//! both analytical queries follow version pointers instead of scanning
//! the chain.

use crate::backend::StateBackend;
use crate::types::Block;
use bytes::Bytes;
use forkbase_core::{Commit, FbError, ForkBase, Payload, Value, WriteBatch};
use forkbase_crypto::fx::FxHashMap;
use forkbase_crypto::Digest;
use std::collections::BTreeMap;

fn value_key(contract: &str, key: &[u8]) -> Bytes {
    let mut k = Vec::with_capacity(2 + contract.len() + 1 + key.len());
    k.extend_from_slice(b"s/");
    k.extend_from_slice(contract.as_bytes());
    k.push(0);
    k.extend_from_slice(key);
    Bytes::from(k)
}

fn map_key(contract: &str) -> Bytes {
    Bytes::from(format!("m/{contract}"))
}

const STATE_KEY: &[u8] = b"ledger/state";

fn block_key(height: u64) -> Bytes {
    Bytes::from(format!("block/{height:016}"))
}

/// Hyperledger state natively on ForkBase.
pub struct ForkBaseBackend {
    db: ForkBase,
    staged: BTreeMap<(String, Bytes), Bytes>,
    /// Latest value-FObject uid per state key (the branch-table view).
    latest_value: FxHashMap<(String, Bytes), Digest>,
    /// Latest second-level map FObject uid per contract.
    latest_map: FxHashMap<String, Digest>,
    /// Latest first-level map FObject uid.
    latest_state: Option<Digest>,
}

impl ForkBaseBackend {
    /// Over a fresh in-memory ForkBase, with a ledger-tuned chunking
    /// configuration: state-map entries are tiny (key + 32-byte uid), so
    /// smaller leaf chunks cut the per-commit write amplification — the
    /// paper's "it is beneficial to configure type-specific chunk sizes"
    /// (§4.3.3).
    pub fn in_memory() -> Self {
        let cfg = forkbase_crypto::ChunkerConfig::with_leaf_bits(10);
        Self::new(ForkBase::with_store(
            std::sync::Arc::new(forkbase_chunk::MemStore::new()),
            cfg,
        ))
    }

    /// Over a durable ForkBase in directory `path` (segmented
    /// [`LogStore`](forkbase_chunk::LogStore)), with the same
    /// ledger-tuned chunking as [`in_memory`](Self::in_memory). The
    /// default group-commit durability batches fsyncs across a block's
    /// writes; pass [`Durability::Always`](forkbase_chunk::Durability)
    /// to fsync every chunk. Reads go through the engine's default
    /// sharded chunk cache — block verification re-reads hot state-map
    /// chunks constantly, so the ledger picks the read tier up for free.
    pub fn open_durable(path: impl AsRef<std::path::Path>) -> forkbase_core::Result<Self> {
        Self::open_durable_with(path, forkbase_chunk::Durability::default())
    }

    /// [`open_durable`](Self::open_durable) with an explicit durability
    /// policy.
    pub fn open_durable_with(
        path: impl AsRef<std::path::Path>,
        durability: forkbase_chunk::Durability,
    ) -> forkbase_core::Result<Self> {
        let cfg = forkbase_crypto::ChunkerConfig::with_leaf_bits(10);
        Ok(Self::new(ForkBase::open_with(
            path,
            cfg,
            durability,
            forkbase_chunk::CacheConfig::default(),
            forkbase_core::HotTierConfig::default(),
        )?))
    }

    /// Over an existing ForkBase instance.
    pub fn new(db: ForkBase) -> Self {
        ForkBaseBackend {
            db,
            staged: BTreeMap::new(),
            latest_value: FxHashMap::default(),
            latest_map: FxHashMap::default(),
            latest_state: None,
        }
    }

    /// The underlying engine (for verification in tests/benches).
    pub fn db(&self) -> &ForkBase {
        &self.db
    }

    /// Latest state reference (first-level map uid).
    pub fn state_uid(&self) -> Option<Digest> {
        self.latest_state
    }

    fn read_blob_version(&self, key: &Bytes, uid: Digest) -> Option<Bytes> {
        let obj = self.db.get_version(key.clone(), uid).ok()?;
        let blob = obj.value(self.db.store()).ok()?.as_blob().ok()?;
        blob.read_all(self.db.store()).map(Bytes::from)
    }
}

impl StateBackend for ForkBaseBackend {
    fn read(&self, contract: &str, key: &[u8]) -> Option<Bytes> {
        let ck = (contract.to_string(), Bytes::copy_from_slice(key));
        let uid = *self.latest_value.get(&ck)?;
        self.read_blob_version(&value_key(contract, key), uid)
    }

    fn stage(&mut self, contract: &str, key: &[u8], value: Bytes) {
        self.staged
            .insert((contract.to_string(), Bytes::copy_from_slice(key)), value);
    }

    fn commit(&mut self, height: u64) -> Bytes {
        let _ = height;
        let staged = std::mem::take(&mut self.staged);
        // Group per contract for the second-level map updates.
        let mut per_contract: BTreeMap<String, Vec<(Bytes, Digest)>> = BTreeMap::new();

        // Value-level versions for the whole block go through one
        // batched FoC round: every blob is encoded up front and the
        // store sees a single `put_many` instead of per-value commits.
        let mut pending: Vec<(String, Bytes)> = Vec::with_capacity(staged.len());
        let commits: Vec<Commit<'_>> = staged
            .into_iter()
            .map(|((contract, key), value)| {
                let vk = value_key(&contract, &key);
                let base = self
                    .latest_value
                    .get(&(contract.clone(), key.clone()))
                    .copied();
                let blob = self.db.new_blob_bytes(value);
                pending.push((contract, key));
                Commit::untagged(vk, base, Payload::Value(Value::Blob(blob)))
            })
            .collect();
        let uids = self.db.commit_all(&commits).expect("value commits");
        for ((contract, key), uid) in pending.into_iter().zip(uids) {
            self.latest_value
                .insert((contract.clone(), key.clone()), uid);
            per_contract.entry(contract).or_default().push((key, uid));
        }

        // Second-level maps: key -> value uid. All of a contract's state
        // writes for the block land in one WriteBatch, applied as a
        // single multi-range splice over the contract map.
        let mut first_batch = WriteBatch::new();
        for (contract, entries) in per_contract {
            let mk = map_key(&contract);
            let prev_uid = self.latest_map.get(&contract).copied();
            let map = match prev_uid {
                Some(uid) => self
                    .db
                    .get_version(mk.clone(), uid)
                    .and_then(|o| o.value(self.db.store()))
                    .and_then(|v| v.as_map())
                    .expect("previous map intact"),
                None => self.db.new_map(std::iter::empty::<(Bytes, Bytes)>()),
            };
            let mut batch = WriteBatch::with_capacity(entries.len());
            for (key, uid) in entries {
                batch.put(key, Bytes::copy_from_slice(uid.as_bytes()));
            }
            let map = map
                .apply(self.db.store(), self.db.cfg(), batch)
                .expect("contract map chunk missing");
            let map_uid = self
                .db
                .put_conflict(mk, prev_uid, Value::Map(map))
                .expect("map commit");
            self.latest_map.insert(contract.clone(), map_uid);
            first_batch.put(
                Bytes::from(contract),
                Bytes::copy_from_slice(map_uid.as_bytes()),
            );
        }

        // First-level map: contract -> map uid, again one batch splice.
        let prev_state = self.latest_state;
        let first = match prev_state {
            Some(uid) => self
                .db
                .get_version(Bytes::from_static(STATE_KEY), uid)
                .and_then(|o| o.value(self.db.store()))
                .and_then(|v| v.as_map())
                .expect("previous state map intact"),
            None => self.db.new_map(std::iter::empty::<(Bytes, Bytes)>()),
        };
        let first = first
            .apply(self.db.store(), self.db.cfg(), first_batch)
            .expect("state map chunk missing");
        let state_uid = self
            .db
            .put_conflict(Bytes::from_static(STATE_KEY), prev_state, Value::Map(first))
            .expect("state commit");
        self.latest_state = Some(state_uid);
        Bytes::copy_from_slice(state_uid.as_bytes())
    }

    fn store_block(&mut self, block: &Block) {
        let blob = self.db.new_blob_bytes(block.encode());
        self.db
            .put(block_key(block.header.height), None, Value::Blob(blob))
            .expect("block commit");
    }

    fn load_block(&self, height: u64) -> Option<Block> {
        let obj = self.db.get(block_key(height), None).ok()?;
        let blob = obj.value(self.db.store()).ok()?.as_blob().ok()?;
        Block::decode(&blob.read_all(self.db.store())?)
    }

    fn state_scan(&mut self, contract: &str, key: &[u8]) -> Vec<Bytes> {
        // "For state scan query, we simply follow the version number …
        // From there, we follow base version to retrieve the previous
        // values" — no chain scan, no index build.
        let ck = (contract.to_string(), Bytes::copy_from_slice(key));
        let Some(mut uid) = self.latest_value.get(&ck).copied() else {
            return Vec::new();
        };
        let vk = value_key(contract, key);
        let mut out = Vec::new();
        while let Ok(obj) = self.db.get_version(vk.clone(), uid) {
            if let Some(v) = self.read_blob_version(&vk, uid) {
                out.push(v);
            }
            match obj.base() {
                Some(base) => uid = base,
                None => break,
            }
        }
        out
    }

    fn block_scan(&mut self, contract: &str, height: u64) -> Vec<(Bytes, Bytes)> {
        // Follow the state reference in the requested block through the
        // two map levels.
        let Some(block) = self.load_block(height) else {
            return Vec::new();
        };
        let Some(state_uid) = Digest::from_slice(&block.header.state_ref) else {
            return Vec::new();
        };
        let first = self
            .db
            .get_version(Bytes::from_static(STATE_KEY), state_uid)
            .and_then(|o| o.value(self.db.store()))
            .and_then(|v| v.as_map());
        let Ok(first) = first else {
            return Vec::new();
        };
        let Some(map_uid_bytes) = first.get(self.db.store(), contract.as_bytes()) else {
            return Vec::new();
        };
        let Some(map_uid) = Digest::from_slice(&map_uid_bytes) else {
            return Vec::new();
        };
        let second = self
            .db
            .get_version(map_key(contract), map_uid)
            .and_then(|o| o.value(self.db.store()))
            .and_then(|v| v.as_map());
        let Ok(second) = second else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (key, value_uid_bytes) in second.iter(self.db.store()) {
            let Some(value_uid) = Digest::from_slice(&value_uid_bytes) else {
                continue;
            };
            let vk = value_key(contract, &key);
            if let Some(v) = self.read_blob_version(&vk, value_uid) {
                out.push((key, v));
            }
        }
        out
    }

    fn label(&self) -> String {
        "ForkBase".to_string()
    }
}

/// Verify the tamper evidence of the whole committed state: every value
/// lineage from the current state map down to genesis.
pub fn verify_state(backend: &ForkBaseBackend) -> Result<usize, FbError> {
    let Some(state_uid) = backend.state_uid() else {
        return Ok(0);
    };
    let report = forkbase_core::verify_history(backend.db().store(), state_uid)?;
    Ok(report.verified_versions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Transaction;

    fn commit_block(
        backend: &mut ForkBaseBackend,
        h: u64,
        prev: Digest,
        writes: &[(&str, &str)],
    ) -> Block {
        let txns: Vec<Transaction> = writes
            .iter()
            .map(|(k, v)| Transaction::put("kv", k.to_string(), v.to_string()))
            .collect();
        for t in &txns {
            for op in &t.ops {
                if let crate::types::TxOp::Put(k, v) = op {
                    backend.stage(&t.contract, k, v.clone());
                }
            }
        }
        let state_ref = backend.commit(h);
        let block = Block::new(h, prev, state_ref, txns);
        backend.store_block(&block);
        block
    }

    #[test]
    fn durable_ledger_blocks_survive_restart() {
        let dir = std::env::temp_dir().join(format!(
            "ledgerlite-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let (hash0, hash1) = {
            let mut b =
                ForkBaseBackend::open_durable_with(&dir, forkbase_chunk::Durability::Always)
                    .expect("open");
            let blk0 = commit_block(&mut b, 0, Digest::ZERO, &[("a", "1"), ("b", "2")]);
            let blk1 = commit_block(&mut b, 1, blk0.hash(), &[("a", "3")]);
            b.db().commit_checkpoint().expect("checkpoint");
            (blk0.hash(), blk1.hash())
        }; // ledger node restarts here

        let b = ForkBaseBackend::open_durable(&dir).expect("reopen");
        let blk0 = b.load_block(0).expect("block 0 durable");
        let blk1 = b.load_block(1).expect("block 1 durable");
        assert_eq!(blk0.hash(), hash0);
        assert_eq!(blk1.hash(), hash1);
        assert!(
            Block::verify_chain(&[blk0, blk1]).is_none(),
            "hash chain intact after restart"
        );
        drop(b);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn staged_then_committed_reads() {
        let mut b = ForkBaseBackend::in_memory();
        b.stage("kv", b"k", Bytes::from("v1"));
        assert_eq!(b.read("kv", b"k"), None);
        b.commit(0);
        assert_eq!(b.read("kv", b"k"), Some(Bytes::from("v1")));
        b.stage("kv", b"k", Bytes::from("v2"));
        b.commit(1);
        assert_eq!(b.read("kv", b"k"), Some(Bytes::from("v2")));
    }

    #[test]
    fn state_scan_follows_version_chain() {
        let mut b = ForkBaseBackend::in_memory();
        let mut prev = Digest::ZERO;
        for h in 0..6u64 {
            let v = format!("value-{h}");
            let block = commit_block(&mut b, h, prev, &[("hot", &v)]);
            prev = block.hash();
        }
        let history = b.state_scan("kv", b"hot");
        assert_eq!(history.len(), 6);
        assert_eq!(history[0].as_ref(), b"value-5", "newest first");
        assert_eq!(history[5].as_ref(), b"value-0");
        assert_eq!(b.state_scan("kv", b"missing"), Vec::<Bytes>::new());
    }

    #[test]
    fn block_scan_reads_historical_state() {
        let mut b = ForkBaseBackend::in_memory();
        let mut prev = Digest::ZERO;
        let b0 = commit_block(&mut b, 0, prev, &[("a", "a0"), ("b", "b0")]);
        prev = b0.hash();
        let b1 = commit_block(&mut b, 1, prev, &[("a", "a1"), ("c", "c1")]);
        prev = b1.hash();
        commit_block(&mut b, 2, prev, &[("a", "a2")]);

        let at_0 = b.block_scan("kv", 0);
        assert_eq!(at_0.len(), 2);
        assert!(at_0.contains(&(Bytes::from("a"), Bytes::from("a0"))));

        let at_1 = b.block_scan("kv", 1);
        assert_eq!(at_1.len(), 3);
        assert!(at_1.contains(&(Bytes::from("a"), Bytes::from("a1"))));
        assert!(
            at_1.contains(&(Bytes::from("b"), Bytes::from("b0"))),
            "b carried forward"
        );

        let at_2 = b.block_scan("kv", 2);
        assert!(at_2.contains(&(Bytes::from("a"), Bytes::from("a2"))));
        assert_eq!(at_2.len(), 3);
    }

    #[test]
    fn state_is_tamper_evident() {
        let mut b = ForkBaseBackend::in_memory();
        let mut prev = Digest::ZERO;
        for h in 0..3u64 {
            let block = commit_block(&mut b, h, prev, &[("k", "v"), ("k2", "w")]);
            prev = block.hash();
        }
        let versions = verify_state(&b).expect("verifies");
        assert!(versions >= 3, "state map history verified: {versions}");
    }

    #[test]
    fn multiple_contracts_isolated() {
        let mut b = ForkBaseBackend::in_memory();
        b.stage("alpha", b"k", Bytes::from("from-alpha"));
        b.stage("beta", b"k", Bytes::from("from-beta"));
        b.commit(0);
        assert_eq!(b.read("alpha", b"k"), Some(Bytes::from("from-alpha")));
        assert_eq!(b.read("beta", b"k"), Some(Bytes::from("from-beta")));
    }
}
