//! `ledger_blocks`: one client runs a state database's block loop on a
//! durable `ChainStore` with the hot tier on.
//!
//! Per transaction two `state_get`s (reads); per block of 64 transactions
//! `state_put_many(64)` + `flush_state()` + `append_block(tip, 4 KiB)` —
//! one block commit (a write). Every 64th block a sibling block forks the
//! previous tip (fork-on-conflict). The map batches of `pos`, the core's
//! hot tier, publisher and checkpoint, and the chunk layer's write volume
//! dominate: every block rewrites a leaf and its index path for each of
//! its 64 scattered accounts, which is why this workload stores far more
//! bytes than the client hands it.

use super::{
    content_hash, durable_counters, fold_hash, open_durable, rng_for, timed, versioned_value,
    Durable, Extras, Mode, OracleOut, Scale, SegmentOut, Tiers, Workload,
};
use crate::trace::{self, Kind};
use bytes::Bytes;
use chainstore::{BlockId, ChainConfig, ChainStore};
use forkbase_chunk::LogStore;
use forkbase_core::{verify_history, ForkBase, HotTierConfig};
use rand::Rng;
use std::path::Path;

const ACCOUNTS: u64 = 50_000;
const VALUE_LEN: usize = 100;
const TXNS_PER_BLOCK: usize = 64;
const BODY_LEN: usize = 4 << 10;
const FORK_EVERY: u64 = 64;
/// Blocks per segment (about 0.2 s on the 2-core host).
const SEGMENT_BLOCKS: u64 = 40;
/// A round is 320 blocks (about 1.7 s), which append 0.22 GB to the log;
/// five rounds give the block commits 1 600 latency samples.
pub const ROUNDS: u64 = 5;
/// The engine configuration this workload pins, for the result file.
pub const CONFIG: &str = "ChainStore::open_with(ChainConfig{hot: HotTierConfig::on() with publish_interval 1s, ..default}): Durability::Batch{512,10ms}, 64MiB cache, default chunker";
const SAMPLE_EVERY: u64 = 4;

struct Txn {
    /// The two accounts read, and the value the model expects of each.
    reads: [(usize, Bytes); 2],
}

struct Block {
    number: u64,
    txns: Vec<Txn>,
    /// The block's state updates, in transaction order.
    updates: Vec<(Bytes, Option<Bytes>)>,
    body: String,
    /// Append a sibling of this block to the same parent afterwards.
    fork: bool,
}

/// The chain store plus the handles the counters come from.
struct Ledger {
    chain: ChainStore,
    tiers: Tiers,
}

pub struct LedgerBlocks {
    seed: u64,
    scale: Scale,
    subkeys: Vec<Bytes>,
    /// The model: the latest version of each account, ...
    versions: Vec<u64>,
    /// ... the main chain's tip and height, and the side tips forked off.
    tip: Option<BlockId>,
    height: u64,
    side_tips: u64,
    blocks_done: u64,
    user_bytes: u64,
    ledger: Option<Ledger>,
    dir: std::path::PathBuf,
    traced: bool,
}

impl LedgerBlocks {
    pub fn new(seed: u64, scale: Scale) -> LedgerBlocks {
        let n = scale.of(ACCOUNTS);
        LedgerBlocks {
            seed,
            scale,
            subkeys: (0..n).map(|a| Bytes::from(format!("acct{a:08}"))).collect(),
            versions: vec![0; n as usize],
            tip: None,
            height: 0,
            side_tips: 0,
            blocks_done: 0,
            user_bytes: 0,
            ledger: None,
            dir: Default::default(),
            traced: false,
        }
    }

    fn value(&self, account: usize) -> Bytes {
        Bytes::from(versioned_value(
            account as u64,
            self.versions[account],
            VALUE_LEN,
        ))
    }

    fn generate(&mut self, idx: u64) -> Vec<Block> {
        let mut rng = rng_for(self.seed, idx);
        let n = self.subkeys.len();
        let blocks = self.scale.of(SEGMENT_BLOCKS);
        (0..blocks)
            .map(|b| {
                let number = idx * blocks + b + 1;
                let mut txns = Vec::with_capacity(TXNS_PER_BLOCK);
                let mut touched = Vec::with_capacity(TXNS_PER_BLOCK);
                for _ in 0..TXNS_PER_BLOCK {
                    // Reads see the state as of the previous block: this
                    // block's updates land together at its end.
                    let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    txns.push(Txn {
                        reads: [(from, self.value(from)), (to, self.value(to))],
                    });
                    touched.push(from);
                }
                let updates = touched
                    .into_iter()
                    .map(|a| {
                        self.versions[a] += 1;
                        self.user_bytes += (self.subkeys[a].len() + VALUE_LEN) as u64;
                        (self.subkeys[a].clone(), Some(self.value(a)))
                    })
                    .collect();
                let body = versioned_value(number, 0, BODY_LEN);
                let fork = number.is_multiple_of(FORK_EVERY);
                self.user_bytes +=
                    (BODY_LEN + meta(number, false).len()) as u64 * if fork { 2 } else { 1 };
                Block {
                    number,
                    txns,
                    updates,
                    body,
                    fork,
                }
            })
            .collect()
    }

    /// Compare the state of `accounts` with the model.
    fn check_accounts(
        &self,
        chain: &ChainStore,
        accounts: impl Iterator<Item = usize>,
        out: &mut OracleOut,
    ) {
        for a in accounts {
            let got = chain.state_get(&self.subkeys[a]);
            out.check(matches!(got, Ok(Some(v)) if v == self.value(a)));
        }
    }

    /// Whether the main chain is the longest (a sibling of its last block
    /// may tie with it), every fork left a side tip, and the last 256
    /// headers step down one height at a time.
    fn chain_ok(&self, chain: &ChainStore) -> bool {
        let (tip, height) = (self.tip.expect("genesis appended"), self.height);
        let best = chain
            .best_tip()
            .ok()
            .flatten()
            .and_then(|id| chain.header(id).ok());
        best.is_some_and(|h| h.height == height)
            && chain.tips().contains(&tip)
            && chain.tips().len() as u64 == self.side_tips + 1
            && matches!(chain.follow_parents(tip, 256), Ok(headers)
                if headers.len() as u64 == (height + 1).min(256)
                    && headers.iter().enumerate().all(|(i, h)| h.height == height - i as u64))
    }

    fn open(&self) -> Result<Ledger, String> {
        if !self.traced {
            let chain = ChainStore::open_with(
                &self.dir,
                ChainConfig {
                    hot: hot_tier(),
                    ..ChainConfig::default()
                },
            )
            .map_err(|e| format!("open {}: {e}", self.dir.display()))?;
            let tiers = Tiers::of(chain.db());
            return Ok(Ledger { chain, tiers });
        }
        // The traced stack cannot go through `ChainStore::open_with`;
        // `from_db` over the hand-assembled engine is the same store.
        let Durable { db, tiers } = open_durable(&self.dir, hot_tier(), true)?;
        Ok(Ledger {
            chain: ChainStore::from_db(db),
            tiers,
        })
    }
}

/// `HotTierConfig::on()` with its publish timer slowed from 20 ms to 1 s.
/// Every block ends in `flush_state`, so the timer has nothing to do here
/// — except, once in a few thousand blocks, to fire between
/// `state_put_many` and `flush_state` and split a block's batch into two
/// commits, after which the stored bytes of one seed no longer repeat
/// exactly. (Not slower still: the publisher can miss its stop signal and
/// then sleeps one interval before it exits.)
fn hot_tier() -> HotTierConfig {
    HotTierConfig {
        publish_interval: std::time::Duration::from_secs(1),
        ..HotTierConfig::on()
    }
}

fn schedule_hash(blocks: &[Block]) -> u64 {
    blocks.iter().fold(0, |acc, block| {
        let acc = fold_hash(acc, block.number ^ (block.fork as u64) << 63);
        let acc = block
            .txns
            .iter()
            .flat_map(|t| &t.reads)
            .fold(acc, |acc, (a, _)| fold_hash(acc, *a as u64));
        block
            .updates
            .iter()
            .fold(acc, |acc, (k, _)| fold_hash(acc, content_hash(k)))
    })
}

/// The steps of `Engine::commit_checkpoint` — checkpoint chunk, log
/// fsync, `HEAD` written through a synced temporary and renamed — for the
/// traced handle, which cannot take them itself. Without them a traced
/// block commit would cost two thirds of a real one.
fn commit_checkpoint_by_hand(db: &ForkBase, log: &LogStore) -> std::io::Result<()> {
    use std::io::Write;
    let cid = db.checkpoint();
    log.sync()?;
    let tmp = log.dir().join("HEAD.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(cid.to_hex().as_bytes())?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, log.dir().join("HEAD"))?;
    if let Ok(dir) = std::fs::File::open(log.dir()) {
        let _ = dir.sync_data(); // as the engine: not every filesystem can
    }
    Ok(())
}

fn meta(number: u64, side: bool) -> String {
    format!("slot-{number}{}", if side { "'" } else { "" })
}

impl Workload for LedgerBlocks {
    fn load(&mut self, dir: &Path, mode: Mode) -> Result<(), String> {
        assert_eq!(self.blocks_done, 0, "load comes before the first segment");
        self.dir = dir.to_path_buf();
        self.traced = mode.traced;
        let ledger = self.open()?;
        // One batch: the publisher thread and `flush_state` race for what
        // is queued, and whichever wins must find the same thing, or the
        // map's history — and the bytes stored — would differ run to run.
        let entries: Vec<(Bytes, Option<Bytes>)> = (0..self.subkeys.len())
            .map(|a| (self.subkeys[a].clone(), Some(self.value(a))))
            .collect();
        self.user_bytes = entries
            .iter()
            .map(|(k, _)| (k.len() + VALUE_LEN) as u64)
            .sum();
        let _s = trace::span(Kind::CoreCommit);
        ledger
            .chain
            .state_put_many(entries)
            .and_then(|()| ledger.chain.flush_state())
            .map_err(|e| format!("preload: {e}"))?;
        let genesis = ledger
            .chain
            .append_block(None, b"genesis", meta(0, false))
            .map_err(|e| format!("genesis: {e}"))?;
        self.user_bytes += (7 + meta(0, false).len()) as u64;
        self.tip = Some(genesis);
        self.height = 0;
        self.ledger = Some(ledger);
        Ok(())
    }

    fn segment(&mut self, idx: u64) -> SegmentOut {
        let (blocks, gen_ns) = timed(|| self.generate(idx));
        let ledger = self.ledger.as_ref().expect("loaded");
        let chain = &ledger.chain;
        let mut out = SegmentOut {
            gen_ns,
            schedule_hash: schedule_hash(&blocks),
            ..SegmentOut::default()
        };
        let mut tip = self.tip.expect("genesis appended");
        let mut side_tips = 0;
        let ((), wall_ns) = timed(|| {
            for block in &blocks {
                let _root = trace::op(block.number, SAMPLE_EVERY);
                for txn in &block.txns {
                    for (account, expect) in &txn.reads {
                        let (got, ns) = timed(|| {
                            let _s = trace::span(Kind::CoreRead);
                            chain.state_get(&self.subkeys[*account])
                        });
                        out.record(true, ns, matches!(&got, Ok(Some(v)) if v == expect));
                    }
                }
                let parent = tip;
                let updates = block.updates.clone();
                let (committed, ns) = timed(|| {
                    let _s = trace::span(Kind::CoreCommit);
                    chain.state_put_many(updates)?;
                    chain.flush_state()?;
                    if self.traced {
                        // `flush_state` checkpoints only a handle that
                        // knows it is durable; the traced one does not.
                        commit_checkpoint_by_hand(chain.db(), &ledger.tiers.log)?;
                    }
                    chain.append_block(
                        Some(parent),
                        block.body.as_bytes(),
                        meta(block.number, false),
                    )
                });
                out.record(false, ns, committed.is_ok());
                if let Ok(id) = committed {
                    tip = id;
                }
                if block.fork {
                    let mut body = block.body.clone().into_bytes();
                    body[BODY_LEN - 1] = b'\'';
                    let (side, ns) = timed(|| {
                        let _s = trace::span(Kind::CoreCommit);
                        chain.append_block(Some(parent), &body, meta(block.number, true))
                    });
                    out.record(false, ns, side.is_ok());
                    side_tips += 1;
                }
            }
        });
        self.tip = Some(tip);
        self.height += blocks.len() as u64;
        self.side_tips += side_tips;
        self.blocks_done += blocks.len() as u64;
        out.single_client(wall_ns);
        out
    }

    fn bytes(&self) -> (u64, u64) {
        let ledger = self.ledger.as_ref().expect("loaded");
        (ledger.chain.db().store().stored_bytes(), self.user_bytes)
    }

    fn verify(&mut self, reopen: bool) -> Result<OracleOut, String> {
        let mut out = OracleOut::default();
        let n = self.subkeys.len();
        let ledger = self.ledger.take().expect("loaded");
        self.check_accounts(&ledger.chain, 0..n, &mut out);
        out.check(self.chain_ok(&ledger.chain));
        if !reopen {
            self.ledger = Some(ledger);
            return Ok(out);
        }
        ledger
            .chain
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        drop(ledger);
        let (ledger, reopen_ns) = timed(|| self.open());
        let ledger = ledger?;
        out.reopen_ms = reopen_ns as f64 / 1e6;
        out.reopen_replayed_chunks = ledger.tiers.log.reopen_stats().replayed_chunks;
        let mut rng = rng_for(self.seed, u64::MAX);
        let sample = (0..(n / 100).max(1)).map(|_| rng.gen_range(0..n));
        self.check_accounts(&ledger.chain, sample, &mut out);
        out.check(self.chain_ok(&ledger.chain));
        // The block chain's own hash chain, from the 100th-last block down.
        let tip = self.tip.expect("genesis appended");
        let recent = ledger.chain.follow_parents(tip, 100).unwrap_or_default();
        let store = ledger.chain.db().store();
        out.check(
            recent.len() as u64 == (self.height + 1).min(100)
                && recent
                    .last()
                    .is_some_and(|oldest| verify_history(store, oldest.id).is_ok()),
        );
        self.ledger = Some(ledger);
        Ok(out)
    }

    fn counters(&mut self, out: &mut Extras) {
        let ledger = self.ledger.as_ref().expect("loaded");
        let db = ledger.chain.db();
        durable_counters(db, &ledger.tiers, self.user_bytes, out);
        if let Some(hot) = db.hot_stats() {
            out.insert("hot.hits", hot.hits as f64);
            out.insert("hot.misses", hot.misses as f64);
            out.insert("hot.writes", hot.writes as f64);
            out.insert("hot.published", hot.published as f64);
            out.insert("hot.publish_rounds", hot.publish_rounds as f64);
        }
    }

    fn maintenance(&mut self, out: &mut Extras) {
        let ledger = self.ledger.as_ref().expect("loaded");
        let tip = self.tip.expect("genesis appended");
        let (report, ns) = timed(|| ledger.chain.prune_side_chains(&[tip]));
        out.insert("core.gc_prune_ms", ns as f64 / 1e6);
        if let Ok(Some(gc)) = report.map(|r| r.gc) {
            out.insert("core.gc_dropped_chunks", gc.dropped_chunks as f64);
        }
    }

    fn corrupt_model(&mut self) {
        self.versions[0] += 1;
    }
}
