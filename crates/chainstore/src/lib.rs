//! # chainstore — block-chain storage on the ForkBase version DAG
//!
//! The paper's headline claim is that *one* engine serves
//! blockchain-shaped workloads — append-only history, fork tracking,
//! pruning — while beating purpose-built stores. This crate is that
//! scenario, modeled on jormungandr's `chain-storage` surface
//! (`put_block` / `get_block` / iterate / prune), mapped onto ForkBase
//! primitives instead of a bespoke on-disk format:
//!
//! * **a block is an FObject version** of one key (`chain/blocks`): its
//!   body is a [`Blob`](forkbase_pos::Blob) (chunked, deduplicated,
//!   tamper-evident), its application header fields ride the FObject
//!   `context`, its parent link is the version's `bases` entry, and its
//!   height is the version `depth`. The block id **is** the meta-chunk
//!   cid, so headers are content-addressed and parent-linked for free —
//!   the uid hash chain of §3.2 is exactly a block-header hash chain;
//! * **chain tips are fork-on-conflict heads** (§3.3.2): appending a
//!   block retires its parent from the UB-table and surfaces the child,
//!   so [`tips`](ChainStore::tips) is `list_untagged_branches` and a
//!   side chain is nothing more than a second head — no tip bookkeeping
//!   of our own;
//! * **long-history reads ride the batched read path**:
//!   [`follow_parents`](ChainStore::follow_parents) and
//!   [`iter_range`](ChainStore::iter_range) are the level-batched
//!   derivation-graph walk (one `get_many` per BFS frontier, PR 6), and
//!   block bodies fetch all covering leaves in one batched round;
//! * **pruning is head retirement + GC**:
//!   [`prune_side_chains`](ChainStore::prune_side_chains) retires every
//!   tip not retained and lets
//!   [`gc::compact_in_place`]
//!   reclaim the side chains' exclusive chunks — anything reachable
//!   from a retained tip (shared ancestors included) survives by
//!   construction, because liveness is computed from the heads;
//! * **tip state can ride the hot tier** (PR 9): the
//!   [`state_put`](ChainStore::state_put)/[`state_get`](ChainStore::state_get)
//!   surface keeps latest chain state (account balances, UTXO sets,
//!   `"tip"` pointers) in the flat hot-state index at hash-map speed
//!   when [`ChainConfig::hot`] is enabled, falling back to synchronous
//!   POS-Tree map commits when it is not.
//!
//! Durable instances ([`ChainStore::open`]) get the full PR-4/5 stack:
//! group-commit log segments, auto-restore from the log's last root
//! record (tips survive a reopen via the branch snapshot it names), and
//! the sharded chunk cache in front of reads.
//!
//! ```
//! use chainstore::ChainStore;
//!
//! let chain = ChainStore::in_memory();
//! let g = chain.append_block(None, b"genesis", "slot-0").unwrap();
//! let a1 = chain.append_block(Some(g), b"block a1", "slot-1").unwrap();
//! let b1 = chain.append_block(Some(g), b"block b1", "slot-1'").unwrap();
//! assert_eq!(chain.tips().len(), 2, "a fork: two tips");
//!
//! // Walk a1's ancestry (batched get_many under the hood).
//! let chain_a = chain.follow_parents(a1, 10).unwrap();
//! assert_eq!(chain_a.len(), 2);
//! assert_eq!(chain_a[1].id, g);
//!
//! // Drop the b-side chain; a1's history is untouched.
//! let report = chain.prune_side_chains(&[a1]).unwrap();
//! assert_eq!(report.tips_retired, 1);
//! assert_eq!(chain.tips(), vec![a1]);
//! assert_eq!(chain.body(b1).is_ok(), true, "in-memory: no GC ran yet");
//! ```

use bytes::Bytes;
use forkbase_chunk::{CacheConfig, Durability};
use forkbase_core::{gc, FbError, ForkBase, GcReport, HotTierConfig, Result, Value};
use forkbase_crypto::{ChunkerConfig, Digest};
use std::path::Path;

/// A block identifier: the cid of the block's meta chunk, which hashes
/// the body's tree root, the parent link, the height and the header
/// metadata — a content-addressed block header.
pub type BlockId = Digest;

/// The key whose version DAG is the block DAG.
const BLOCKS_KEY: &str = "chain/blocks";
/// The key holding latest chain state (the hot-tier-fronted surface).
const STATE_KEY: &str = "chain/state";

/// How to open a [`ChainStore`].
#[derive(Clone, Debug, Default)]
pub struct ChainConfig {
    /// Chunking parameters for block bodies.
    pub chunker: ChunkerConfig,
    /// Commit durability of the backing log (durable opens only).
    pub durability: Durability,
    /// Read-tier chunk cache sizing.
    pub cache: CacheConfig,
    /// Hot-state tier for the [`state_get`](ChainStore::state_get) /
    /// [`state_put`](ChainStore::state_put) surface. Disabled by
    /// default; enable for hash-map-speed tip state with a bounded
    /// publish window.
    pub hot: HotTierConfig,
}

/// A decoded block header (everything but the body bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Content-addressed id (meta-chunk cid).
    pub id: BlockId,
    /// Parent link (`None` for a genesis block).
    pub parent: Option<BlockId>,
    /// Distance from the lineage's genesis block.
    pub height: u64,
    /// Application header fields, verbatim (the FObject context).
    pub meta: Bytes,
    /// Body size in bytes (logical blob length).
    pub body_len: u64,
}

/// A full block: header plus materialized body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// What [`ChainStore::prune_side_chains`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Tips retired from the UB-table.
    pub tips_retired: usize,
    /// The compaction report when the instance is durable (`None` for
    /// in-memory instances, whose unreachable chunks are reclaimed by a
    /// caller-driven [`gc::compact_into`] instead).
    pub gc: Option<GcReport>,
}

/// A block store on a [`ForkBase`] instance. See the crate docs for the
/// mapping onto engine primitives.
pub struct ChainStore {
    db: ForkBase,
}

impl ChainStore {
    /// In-memory instance (no durability, no hot tier).
    pub fn in_memory() -> ChainStore {
        ChainStore {
            db: ForkBase::in_memory(),
        }
    }

    /// In-memory instance with the hot-state tier enabled for the
    /// `state_*` surface.
    pub fn in_memory_hot(hot: HotTierConfig) -> ChainStore {
        ChainStore {
            db: ForkBase::in_memory_hot(hot),
        }
    }

    /// Open (or create) a durable instance with default configuration.
    /// Reopening restores every tip recorded by the last
    /// [`checkpoint`](Self::checkpoint).
    pub fn open(path: impl AsRef<Path>) -> Result<ChainStore> {
        Self::open_with(path, ChainConfig::default())
    }

    /// [`open`](Self::open) with explicit chunking, durability, cache
    /// and hot-tier configuration.
    pub fn open_with(path: impl AsRef<Path>, cfg: ChainConfig) -> Result<ChainStore> {
        let db = ForkBase::open_with(path, cfg.chunker, cfg.durability, cfg.cache, cfg.hot)?;
        Ok(ChainStore { db })
    }

    /// Wrap an existing handle (shares its store, branches and tiers).
    pub fn from_db(db: ForkBase) -> ChainStore {
        ChainStore { db }
    }

    /// The underlying engine handle — escape hatch for checkpointing
    /// policy, stats, GC, or co-hosting other keys next to the chain.
    pub fn db(&self) -> &ForkBase {
        &self.db
    }

    // ---- Append ----------------------------------------------------------

    /// Append one block. `parent = None` starts a new lineage (genesis).
    /// The body lands as a chunked, deduplicated Blob; `meta` carries
    /// application header fields into the FObject context, so the
    /// returned id commits to body, parent, height and metadata alike.
    pub fn append_block(
        &self,
        parent: Option<BlockId>,
        body: &[u8],
        meta: impl Into<Bytes>,
    ) -> Result<BlockId> {
        let blob = self.db.new_blob(body);
        self.db
            .put_conflict_with_context(BLOCKS_KEY, parent, Value::Blob(blob), meta)
    }

    /// Append a run of blocks as one parent-linked chain — block *i+1*'s
    /// parent is block *i*, the first links to `parent`. The whole
    /// batch's meta chunks land with a single group-commit round
    /// ([`ForkBase::append_chain`]),
    /// so bulk sync pays one fsync wait per batch instead of per block.
    /// Returns ids in block order.
    pub fn append_batch(
        &self,
        parent: Option<BlockId>,
        blocks: impl IntoIterator<Item = (Vec<u8>, Bytes)>,
    ) -> Result<Vec<BlockId>> {
        let items: Vec<(Value, Bytes)> = blocks
            .into_iter()
            .map(|(body, meta)| (Value::Blob(self.db.new_blob_bytes(body)), meta))
            .collect();
        self.db.append_chain(BLOCKS_KEY, parent, items)
    }

    // ---- Read ------------------------------------------------------------

    /// The header of `id`. Fails with
    /// [`FbError::VersionNotFound`] for unknown ids and with
    /// [`FbError::Corrupt`] when the stored chunk does not hash to `id`.
    pub fn header(&self, id: BlockId) -> Result<BlockHeader> {
        let obj = self.db.get_version(BLOCKS_KEY, id)?;
        let blob = obj.value(self.db.store())?.as_blob()?;
        Ok(BlockHeader {
            id,
            parent: obj.base(),
            height: obj.depth,
            meta: obj.context,
            body_len: blob.len(self.db.store()),
        })
    }

    /// The body bytes of `id`. All covering tree leaves are fetched in
    /// one batched `get_many` round.
    pub fn body(&self, id: BlockId) -> Result<Vec<u8>> {
        let obj = self.db.get_version(BLOCKS_KEY, id)?;
        let blob = obj.value(self.db.store())?.as_blob()?;
        blob.read_all(self.db.store()).ok_or(FbError::KeyNotFound)
    }

    /// Header plus body.
    pub fn block(&self, id: BlockId) -> Result<Block> {
        let obj = self.db.get_version(BLOCKS_KEY, id)?;
        let blob = obj.value(self.db.store())?.as_blob()?;
        let body = blob.read_all(self.db.store()).ok_or(FbError::KeyNotFound)?;
        Ok(Block {
            header: BlockHeader {
                id,
                parent: obj.base(),
                height: obj.depth,
                meta: obj.context,
                body_len: body.len() as u64,
            },
            body,
        })
    }

    /// Every current chain tip. One entry means no fork; an empty store
    /// has no tips.
    pub fn tips(&self) -> Vec<BlockId> {
        self.db
            .list_untagged_branches(BLOCKS_KEY)
            .unwrap_or_default()
    }

    /// The longest-chain tip: maximum height, ties broken by smallest
    /// id for determinism. `None` for an empty store.
    pub fn best_tip(&self) -> Result<Option<BlockId>> {
        let mut best: Option<(u64, BlockId)> = None;
        for tip in self.tips() {
            let h = self.db.get_version(BLOCKS_KEY, tip)?.depth;
            best = match best {
                Some((bh, bid)) if (bh, std::cmp::Reverse(bid)) >= (h, std::cmp::Reverse(tip)) => {
                    Some((bh, bid))
                }
                _ => Some((h, tip)),
            };
        }
        Ok(best.map(|(_, id)| id))
    }

    /// Walk parent links from `from` (inclusive), newest first, for at
    /// most `max_blocks` headers. The walk is level-batched: each hop
    /// fetches its meta chunk through `get_many`, so a durable or
    /// remote store answers a long history in batched rounds rather
    /// than one round trip per block.
    pub fn follow_parents(&self, from: BlockId, max_blocks: usize) -> Result<Vec<BlockHeader>> {
        if max_blocks == 0 {
            return Ok(Vec::new());
        }
        let tracked = self
            .db
            .track_version(BLOCKS_KEY, from, 0, (max_blocks - 1) as u64)?;
        tracked
            .into_iter()
            .map(|tv| {
                let blob = tv.object.value(self.db.store())?.as_blob()?;
                Ok(BlockHeader {
                    id: tv.uid,
                    parent: tv.object.base(),
                    height: tv.object.depth,
                    meta: tv.object.context,
                    body_len: blob.len(self.db.store()),
                })
            })
            .collect()
    }

    /// Headers of the blocks on `tip`'s chain whose height lies in
    /// `[lo_height, hi_height]`, ascending by height. `hi_height` is
    /// clamped to the tip's own height; an empty range yields an empty
    /// vec.
    pub fn iter_range(
        &self,
        tip: BlockId,
        lo_height: u64,
        hi_height: u64,
    ) -> Result<Vec<BlockHeader>> {
        let tip_height = self.db.get_version(BLOCKS_KEY, tip)?.depth;
        let hi = hi_height.min(tip_height);
        if lo_height > hi {
            return Ok(Vec::new());
        }
        // Heights map 1:1 onto walk distances on a single-parent chain:
        // height h sits tip_height - h hops from the tip.
        let mut headers =
            self.follow_parents_range(tip, tip_height - hi, tip_height - lo_height)?;
        headers.reverse();
        Ok(headers)
    }

    fn follow_parents_range(
        &self,
        from: BlockId,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<BlockHeader>> {
        let tracked = self
            .db
            .track_version(BLOCKS_KEY, from, min_dist, max_dist)?;
        tracked
            .into_iter()
            .map(|tv| {
                let blob = tv.object.value(self.db.store())?.as_blob()?;
                Ok(BlockHeader {
                    id: tv.uid,
                    parent: tv.object.base(),
                    height: tv.object.depth,
                    meta: tv.object.context,
                    body_len: blob.len(self.db.store()),
                })
            })
            .collect()
    }

    // ---- Prune & durability ----------------------------------------------

    /// Checkpoint the branch tables (tips included) into the store and
    /// make it the recovery point — after this, [`open`](Self::open) of
    /// the same directory restores every tip. Durable instances only.
    pub fn checkpoint(&self) -> Result<Digest> {
        self.db.commit_checkpoint()
    }

    /// Retire every tip **not** in `retain` and, on a durable instance,
    /// compact the store in place so the retired side chains' exclusive
    /// chunks are reclaimed from disk. Every chunk reachable from a
    /// retained tip — including ancestors shared with pruned side
    /// chains — survives by construction: the GC live set is computed
    /// from the remaining heads, and history links keep shared prefixes
    /// alive.
    ///
    /// On durable instances this runs an offline-style repack
    /// (checkpoint → live walk → segment rewrite): quiesce concurrent
    /// writers first, exactly as for
    /// [`gc::compact_in_place`]. In-memory instances only retire tips
    /// (`gc: None`); reclaim by copying into a fresh store with
    /// [`gc::compact_into`] if needed.
    pub fn prune_side_chains(&self, retain: &[BlockId]) -> Result<PruneReport> {
        let doomed: Vec<BlockId> = self
            .tips()
            .into_iter()
            .filter(|t| !retain.contains(t))
            .collect();
        if doomed.is_empty() {
            return Ok(PruneReport::default());
        }
        let tips_retired = self.db.retire_untagged_heads(BLOCKS_KEY, &doomed)?;
        let gc = if self.db.durable_store().is_some() {
            Some(gc::compact_in_place(&self.db)?)
        } else {
            None
        };
        Ok(PruneReport { tips_retired, gc })
    }

    // ---- Tip state (hot-tier front) ---------------------------------------

    /// Latest chain-state value for `subkey` (e.g. an account balance or
    /// the canonical `"tip"` pointer). Served from the flat hot-state
    /// index when the tier is on; a committed POS-Tree map read
    /// otherwise.
    pub fn state_get(&self, subkey: &[u8]) -> Result<Option<Bytes>> {
        self.db.hot_get(STATE_KEY, subkey)
    }

    /// Write one chain-state entry. With the hot tier on this is a flat
    /// index write drained to the tree by the background publisher;
    /// with the tier off it is a synchronous one-edit map commit.
    pub fn state_put(&self, subkey: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        self.db.hot_put(STATE_KEY, subkey, value)
    }

    /// Batched [`state_put`](Self::state_put); `None` values delete.
    pub fn state_put_many(
        &self,
        entries: impl IntoIterator<Item = (Bytes, Option<Bytes>)>,
    ) -> Result<()> {
        self.db.hot_put_many(STATE_KEY, entries)
    }

    /// Publish pending hot-state edits into the committed tree (and
    /// checkpoint on durable instances). The commit barrier to call at
    /// block boundaries before trusting [`checkpoint`](Self::checkpoint)
    /// to cover state written through the hot tier.
    pub fn flush_state(&self) -> Result<()> {
        self.db.flush_hot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(i: u64) -> Vec<u8> {
        format!("block body {i} {}", "x".repeat(64)).into_bytes()
    }

    #[test]
    fn append_and_read_linear_chain() {
        let chain = ChainStore::in_memory();
        let mut parent = None;
        let mut ids = Vec::new();
        for i in 0..10u64 {
            let id = chain
                .append_block(parent, &body(i), format!("meta-{i}"))
                .expect("append");
            ids.push(id);
            parent = Some(id);
        }
        assert_eq!(chain.tips(), vec![ids[9]], "single tip, no fork");

        let h = chain.header(ids[4]).expect("header");
        assert_eq!(h.height, 4);
        assert_eq!(h.parent, Some(ids[3]));
        assert_eq!(h.meta, Bytes::from("meta-4"));
        assert_eq!(h.body_len as usize, body(4).len());
        assert_eq!(chain.body(ids[4]).expect("body"), body(4));

        let walked = chain.follow_parents(ids[9], 100).expect("walk");
        assert_eq!(walked.len(), 10);
        for (back, h) in walked.iter().enumerate() {
            assert_eq!(h.id, ids[9 - back]);
            assert_eq!(h.height, (9 - back) as u64);
        }
    }

    #[test]
    fn append_batch_matches_sequential() {
        let one = ChainStore::in_memory();
        let many = ChainStore::in_memory();
        let g1 = one.append_block(None, &body(0), "g").expect("genesis");
        let g2 = many.append_block(None, &body(0), "g").expect("genesis");
        assert_eq!(g1, g2, "content addressing: same genesis, same id");

        let mut parent = Some(g1);
        let mut seq_ids = Vec::new();
        for i in 1..=20u64 {
            let id = one
                .append_block(parent, &body(i), format!("m{i}"))
                .expect("append");
            seq_ids.push(id);
            parent = Some(id);
        }
        let batch_ids = many
            .append_batch(
                Some(g2),
                (1..=20u64).map(|i| (body(i), Bytes::from(format!("m{i}")))),
            )
            .expect("batch");
        assert_eq!(batch_ids, seq_ids, "batched chain is uid-identical");
        assert_eq!(many.tips(), vec![batch_ids[19]]);
    }

    #[test]
    fn forks_make_tips_and_best_tip_prefers_height() {
        let chain = ChainStore::in_memory();
        let g = chain.append_block(None, &body(0), "g").expect("g");
        let a1 = chain.append_block(Some(g), &body(1), "a1").expect("a1");
        let a2 = chain.append_block(Some(a1), &body(2), "a2").expect("a2");
        let b1 = chain.append_block(Some(g), &body(3), "b1").expect("b1");

        let mut tips = chain.tips();
        tips.sort();
        let mut expect = vec![a2, b1];
        expect.sort();
        assert_eq!(tips, expect);
        assert_eq!(chain.best_tip().expect("best"), Some(a2), "a2 is higher");
    }

    #[test]
    fn iter_range_is_ascending_and_clamped() {
        let chain = ChainStore::in_memory();
        let mut parent = None;
        let mut ids = Vec::new();
        for i in 0..8u64 {
            let id = chain.append_block(parent, &body(i), "").expect("append");
            ids.push(id);
            parent = Some(id);
        }
        let r = chain.iter_range(ids[7], 2, 5).expect("range");
        assert_eq!(
            r.iter().map(|h| h.id).collect::<Vec<_>>(),
            ids[2..=5].to_vec()
        );
        let clamped = chain.iter_range(ids[7], 6, 100).expect("range");
        assert_eq!(clamped.len(), 2, "clamped to tip height");
        assert!(chain.iter_range(ids[7], 5, 2).expect("range").is_empty());
    }

    #[test]
    fn prune_retires_tips_in_memory() {
        let chain = ChainStore::in_memory();
        let g = chain.append_block(None, &body(0), "g").expect("g");
        let a1 = chain.append_block(Some(g), &body(1), "a1").expect("a1");
        let _b1 = chain.append_block(Some(g), &body(2), "b1").expect("b1");
        let _c1 = chain.append_block(Some(g), &body(3), "c1").expect("c1");

        let report = chain.prune_side_chains(&[a1]).expect("prune");
        assert_eq!(report.tips_retired, 2);
        assert_eq!(report.gc, None, "in-memory: no compaction");
        assert_eq!(chain.tips(), vec![a1]);
        // Retained chain fully readable.
        assert_eq!(chain.body(a1).expect("body"), body(1));
        assert_eq!(chain.body(g).expect("body"), body(0));
    }

    #[test]
    fn state_surface_works_with_tier_off_and_on() {
        for chain in [
            ChainStore::in_memory(),
            ChainStore::in_memory_hot(HotTierConfig::on()),
        ] {
            let g = chain.append_block(None, &body(0), "g").expect("g");
            chain.state_put("tip", g.as_bytes().to_vec()).expect("put");
            chain.state_put("balance/alice", "100").expect("put");
            assert_eq!(
                chain.state_get(b"tip").expect("get"),
                Some(Bytes::copy_from_slice(g.as_bytes()))
            );
            chain.flush_state().expect("flush");
            assert_eq!(
                chain.state_get(b"balance/alice").expect("get"),
                Some(Bytes::from("100"))
            );
        }
    }

    #[test]
    fn unknown_block_errors() {
        let chain = ChainStore::in_memory();
        chain.append_block(None, &body(0), "").expect("g");
        let bogus = forkbase_crypto::hash_bytes(b"no such block");
        assert!(chain.header(bogus).is_err());
        assert!(chain.body(bogus).is_err());
        assert!(chain.follow_parents(bogus, 5).is_err());
    }
}
