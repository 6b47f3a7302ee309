//! `collab_fork_merge`: one client forks, edits, diffs and merges a
//! 200 000-record dataset (row layout) on an **in-memory** engine.
//!
//! One cycle is `fork(master → b)`, a `commit_map_batch` of a contiguous
//! 200-record modification on `b` and of a disjoint 100-record one on
//! `master` (two writes), `Dataset::diff_versions(head(b), head(master))`
//! (the read), `merge_branches(master, b, Resolver::Fail)` (a write) and
//! `remove_branch(b)`. Fork-on-demand and the POS-Tree's diff and
//! three-way merge are exercised by no other workload. There is no
//! `LogStore` or cache here, so a change to either must leave this
//! workload's numbers where they were.

use super::{
    content_hash, fold_hash, mix64, timed, Extras, Mode, OracleOut, Scale, SegmentOut, Workload,
};
use crate::trace::{self, Kind, TracedStore};
use bytes::Bytes;
use fb_collab::{Dataset, Layout};
use fb_workload::{DatasetGen, Record};
use forkbase_chunk::MemStore;
use forkbase_core::{ChunkerConfig, Digest, FbError, ForkBase, Resolver, WriteBatch};
use forkbase_pos::{merge3_sorted, TreeType};
use std::path::Path;
use std::sync::Arc;

const RECORDS: u64 = 200_000;
const BRANCH_EDITS: usize = 200;
const MASTER_EDITS: usize = 100;
/// Cycles per segment (about 0.25 s on the 2-core host).
const SEGMENT_CYCLES: u64 = 40;
/// A round is 320 cycles (about 1.9 s); the store stays under 0.2 GB.
/// This workload is bound by memory latency and feels the host's other
/// tenants most: six rounds, 1 920 diffs.
pub const ROUNDS: u64 = 6;
/// The engine configuration this workload pins, for the result file.
pub const CONFIG: &str = "ForkBase::in_memory(): MemStore, ChunkerConfig::default(), hot tier off";
const SAMPLE_EVERY: u64 = 16;
const NAME: &str = "dataset";
const BRANCH: &str = "b";

struct Cycle {
    on_branch: WriteBatch,
    on_master: WriteBatch,
    /// Records that differ between the two heads once both are committed.
    expect_diff: usize,
}

pub struct CollabForkMerge {
    seed: u64,
    scale: Scale,
    initial: Vec<Record>,
    /// The model: master's current encoding of every record.
    rows: Vec<Bytes>,
    user_bytes: u64,
    cycles_done: u64,
    db: Option<ForkBase>,
    dataset: Option<Dataset>,
}

impl CollabForkMerge {
    pub fn new(seed: u64, scale: Scale) -> CollabForkMerge {
        let initial = DatasetGen::new(seed).records(scale.of(RECORDS) as usize);
        CollabForkMerge {
            seed,
            scale,
            rows: initial.iter().map(Record::encode).collect(),
            initial,
            user_bytes: 0,
            cycles_done: 0,
            db: None,
            dataset: None,
        }
    }

    fn generate(&mut self, idx: u64) -> Vec<Cycle> {
        let n = self.rows.len();
        let mut gen = DatasetGen::new(mix64(self.seed ^ mix64(idx)));
        (0..self.scale.of(SEGMENT_CYCLES))
            .map(|_| {
                let branch = gen.modifications_range(n, BRANCH_EDITS.min(n / 4));
                let taken = branch[0].0..branch[0].0 + branch.len();
                let master = loop {
                    let m = gen.modifications_range(n, MASTER_EDITS.min(n / 4));
                    if m[0].0 >= taken.end || m[0].0 + m.len() <= taken.start {
                        break m;
                    }
                };
                let mut cycle = Cycle {
                    on_branch: WriteBatch::with_capacity(branch.len()),
                    on_master: WriteBatch::with_capacity(master.len()),
                    expect_diff: 0,
                };
                // The ranges are disjoint, so a record changed on either
                // side differs between the heads, and the merge keeps both.
                for (side, mods) in [
                    (&mut cycle.on_branch, branch),
                    (&mut cycle.on_master, master),
                ] {
                    for (row, rec) in mods {
                        let new = rec.encode();
                        self.user_bytes += (rec.pk.len() + new.len()) as u64;
                        cycle.expect_diff += usize::from(new != self.rows[row]);
                        side.put(rec.pk, new.clone());
                        self.rows[row] = new;
                    }
                }
                cycle
            })
            .collect()
    }
}

fn schedule_hash(cycles: &[Cycle]) -> u64 {
    cycles.iter().fold(0, |acc, cycle| {
        let acc = fold_hash(acc, cycle.expect_diff as u64);
        cycle
            .on_branch
            .iter()
            .chain(cycle.on_master.iter())
            .fold(acc, |acc, edit| {
                fold_hash(acc, content_hash(format!("{edit:?}").as_bytes()))
            })
    })
}

fn map_root(db: &ForkBase, uid: Digest) -> Result<Digest, FbError> {
    let obj = db.get_version(NAME, uid)?;
    Ok(obj.value(db.store())?.as_map()?.root())
}

impl Workload for CollabForkMerge {
    fn load(&mut self, _dir: &Path, mode: Mode) -> Result<(), String> {
        assert_eq!(self.cycles_done, 0, "load comes before the first segment");
        let db = if mode.traced {
            ForkBase::with_store(
                TracedStore::wrap(Arc::new(MemStore::new())),
                ChunkerConfig::default(),
            )
        } else {
            ForkBase::in_memory()
        };
        let dataset = {
            let _s = trace::span(Kind::PosBuild);
            Dataset::import(&db, NAME, Layout::Row, &self.initial)
                .map_err(|e| format!("import: {e}"))?
        };
        self.user_bytes = self
            .initial
            .iter()
            .zip(&self.rows)
            .map(|(rec, row)| (rec.pk.len() + row.len()) as u64)
            .sum();
        self.db = Some(db);
        self.dataset = Some(dataset);
        Ok(())
    }

    fn segment(&mut self, idx: u64) -> SegmentOut {
        let (cycles, gen_ns) = timed(|| self.generate(idx));
        let db = self.db.as_ref().expect("loaded");
        let dataset = self.dataset.as_ref().expect("loaded");
        let n_cycles = cycles.len() as u64;
        let schedule_hash = schedule_hash(&cycles);
        let mut out = SegmentOut {
            gen_ns,
            schedule_hash,
            ..SegmentOut::default()
        };
        let ((), wall_ns) = timed(|| {
            for (i, cycle) in cycles.into_iter().enumerate() {
                let _root = trace::op(self.cycles_done + i as u64, SAMPLE_EVERY);
                let base = db.head(NAME, None);
                let forked = {
                    let _s = trace::span(Kind::CoreCommit);
                    db.fork(NAME, "master", BRANCH)
                };
                let (theirs, ns) = timed(|| {
                    let _s = trace::span(Kind::CoreCommit);
                    db.commit_map_batch(NAME, Some(BRANCH), cycle.on_branch)
                });
                out.record(false, ns, forked.is_ok() && theirs.is_ok());
                let (ours, ns) = timed(|| {
                    let _s = trace::span(Kind::CoreCommit);
                    db.commit_map_batch(NAME, None, cycle.on_master)
                });
                out.record(false, ns, ours.is_ok());
                let (Ok(base), Ok(theirs), Ok(ours)) = (base, theirs, ours) else {
                    out.failed += 2; // the diff and the merge cannot run
                    continue;
                };
                let (diff, ns) = timed(|| {
                    let _s = trace::span(Kind::PosDiff);
                    dataset.diff_versions(db, theirs, ours)
                });
                out.record(true, ns, matches!(diff, Ok(d) if d == cycle.expect_diff));
                let (merged, ns) = timed(|| {
                    let _s = trace::span(Kind::CoreMerge);
                    db.merge_branches(NAME, "master", BRANCH, &Resolver::Fail)
                });
                let removed = {
                    let _s = trace::span(Kind::CoreCommit);
                    db.remove_branch(NAME, BRANCH)
                };
                out.record(false, ns, merged.is_ok() && removed.is_ok());
                if trace::sampled() {
                    // The merge's POS-Tree share, which `merge_branches`
                    // hides: the same three-way merge run again on the
                    // same roots (its chunks all deduplicate).
                    if let (Ok(b), Ok(o), Ok(t)) =
                        (map_root(db, base), map_root(db, ours), map_root(db, theirs))
                    {
                        let _s = trace::span(Kind::PosMerge);
                        let _ = std::hint::black_box(merge3_sorted(
                            db.store(),
                            db.cfg(),
                            TreeType::Map,
                            b,
                            o,
                            t,
                            &Resolver::Fail,
                        ));
                    }
                }
            }
        });
        self.cycles_done += n_cycles;
        out.single_client(wall_ns);
        out
    }

    fn bytes(&self) -> (u64, u64) {
        let db = self.db.as_ref().expect("loaded");
        (db.store().stored_bytes(), self.user_bytes)
    }

    fn verify(&mut self, _reopen: bool) -> Result<OracleOut, String> {
        let db = self.db.as_ref().expect("loaded");
        let map = db
            .get_value(NAME, None)
            .and_then(|v| v.as_map())
            .map_err(|e| format!("read dataset: {e}"))?;
        let mut out = OracleOut::default();
        let mut stored = map.iter(db.store());
        for (i, row) in self.rows.iter().enumerate() {
            let pk = DatasetGen::pk(i);
            out.check(matches!(stored.next(), Some((k, v)) if k == pk.as_bytes() && v == *row));
        }
        out.check(stored.next().is_none()); // and not a record more
        Ok(out)
    }

    fn counters(&mut self, out: &mut Extras) {
        let s = self.db.as_ref().expect("loaded").store().stats();
        super::store_counters(&s, out);
    }

    fn corrupt_model(&mut self) {
        self.rows[0] = Bytes::from_static(b"not the record");
    }
}
