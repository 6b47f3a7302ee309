//! `wiki_edit`: one client edits 64 KiB pages in place and reads old
//! versions back, on a durable engine whose cache holds half the pages.
//!
//! 80 % of operations are an edit — `get`, `Blob::splice`/`insert` of
//! 64–256 bytes, `put`, as `ForkBaseWiki::edit_page` does (a write) — and
//! 20 % read a whole version `back` steps old, `back` uniform in 0..16,
//! as `ForkBaseWiki::read_version` does (a read). Pages are chosen
//! zipf(0.99). The POS-Tree (incremental update, tree reads), chunking
//! and hashing of the re-chunked span, and the chunk layer's **read**
//! path (cache misses become `LogStore` preads) do the work; the core
//! does little. It is the paper's deduplication claim: a 64 KiB version
//! costs a few KiB of storage.

use super::{
    content_hash, durable_counters, fold_hash, open_durable, rng_for, timed, Durable, Extras, Mode,
    OracleOut, Scale, SegmentOut, Skew, Workload,
};
use crate::trace::{self, Kind};
use bytes::Bytes;
use fb_workload::{EditKind, PageEditGen};
use forkbase_core::{verify_history, FbError, ForkBase, HotTierConfig, Value};
use rand::Rng;
use std::collections::VecDeque;
use std::path::Path;

const PAGES: u64 = 2_048;
const PAGE_BYTES: usize = 64 << 10;
/// Operations per segment (about 0.2 s on the 2-core host).
const SEGMENT_OPS: u64 = 4_000;
/// A round is 32 000 operations (about 1.8 s): the log grows to 0.4 GB on
/// top of 0.3 GB of pages, model and cache.
pub const ROUNDS: u64 = 3;
/// Versions a read may go back (0 = latest).
const MAX_BACK: u64 = 16;
const SAMPLE_EVERY: u64 = 8;
/// Share of edits that replace text in place; the rest insert.
const IN_PLACE_RATIO: f64 = 0.9;
const EDIT_SIZES: [usize; 4] = [64, 128, 192, 256];

enum WikiOp {
    Edit {
        page: usize,
        edit: EditKind,
    },
    Read {
        page: usize,
        back: u64,
        /// `(content hash, length)` of the version the model expects.
        expect: (u64, usize),
    },
}

pub struct WikiEdit {
    seed: u64,
    scale: Scale,
    titles: Vec<Bytes>,
    skew: Skew,
    /// The model: every page's current text, ...
    pages: Vec<String>,
    /// ... the `(hash, length)` of its last `MAX_BACK` versions, newest
    /// first, ...
    recent: Vec<VecDeque<(u64, usize)>>,
    /// ... and how many times it was edited.
    edits: Vec<u64>,
    user_bytes: u64,
    ops_done: u64,
    eng: Option<Durable>,
}

impl WikiEdit {
    pub fn new(seed: u64, scale: Scale) -> WikiEdit {
        let n = scale.of(PAGES);
        let mut text = PageEditGen::new(seed, IN_PLACE_RATIO, EDIT_SIZES[0]);
        let pages: Vec<String> = (0..n).map(|_| text.initial_page(PAGE_BYTES)).collect();
        WikiEdit {
            seed,
            scale,
            titles: (0..n).map(|p| Bytes::from(format!("page{p:05}"))).collect(),
            skew: Skew::new(n, 0.99),
            recent: pages
                .iter()
                .map(|p| VecDeque::from([(content_hash(p.as_bytes()), p.len())]))
                .collect(),
            edits: vec![0; n as usize],
            pages,
            user_bytes: 0,
            ops_done: 0,
            eng: None,
        }
    }

    fn generate(&mut self, idx: u64) -> Vec<WikiOp> {
        let mut rng = rng_for(self.seed, idx);
        // One text generator per edit size, reseeded per segment so a
        // segment's operations depend only on the seed and its index.
        let mut texts: Vec<PageEditGen> = EDIT_SIZES
            .iter()
            .map(|&size| PageEditGen::new(rng.gen(), IN_PLACE_RATIO, size))
            .collect();
        (0..self.scale.of(SEGMENT_OPS))
            .map(|_| {
                let page = self.skew.sample(&mut rng) as usize;
                if rng.gen_bool(0.8) {
                    let size = rng.gen_range(0..EDIT_SIZES.len());
                    let edit = texts[size].next_edit(self.pages[page].len());
                    let text = &mut self.pages[page];
                    PageEditGen::apply(text, &edit);
                    let recent = &mut self.recent[page];
                    recent.push_front((content_hash(text.as_bytes()), text.len()));
                    recent.truncate(MAX_BACK as usize);
                    self.edits[page] += 1;
                    self.user_bytes += text.len() as u64;
                    WikiOp::Edit { page, edit }
                } else {
                    let recent = &self.recent[page];
                    let back = rng.gen_range(0..MAX_BACK).min(recent.len() as u64 - 1);
                    WikiOp::Read {
                        page,
                        back,
                        expect: recent[back as usize],
                    }
                }
            })
            .collect()
    }

    /// Compare the latest text of `pages` with the model.
    fn verify_pages(&self, db: &ForkBase, pages: impl Iterator<Item = usize>, out: &mut OracleOut) {
        for p in pages {
            let text = read_version(db, &self.titles[p], 0);
            out.check(matches!(text, Ok(text) if text == self.pages[p].as_bytes()));
        }
    }
}

fn schedule_hash(ops: &[WikiOp]) -> u64 {
    ops.iter().fold(0, |acc, op| match op {
        WikiOp::Edit { page, edit } => {
            let (EditKind::InPlace { at, text } | EditKind::Insert { at, text }) = edit;
            fold_hash(
                fold_hash(acc, *page as u64 ^ (*at as u64) << 32),
                content_hash(text.as_bytes()),
            )
        }
        WikiOp::Read { page, back, expect } => {
            fold_hash(fold_hash(acc, *page as u64 ^ back << 32), expect.0)
        }
    })
}

/// `ForkBaseWiki::edit_page`, with a span per layer entered.
fn edit_page(db: &ForkBase, title: &Bytes, edit: &EditKind) -> Result<(), FbError> {
    let obj = {
        let _s = trace::span(Kind::CoreRead);
        db.get(title.clone(), None)?
    };
    let blob = obj.value(db.store())?.as_blob()?;
    let edited = {
        let _s = trace::span(Kind::PosUpdate);
        match edit {
            EditKind::InPlace { at, text } => blob.splice(
                db.store(),
                db.cfg(),
                *at as u64,
                text.len() as u64,
                text.as_bytes(),
            ),
            EditKind::Insert { at, text } => {
                blob.insert(db.store(), db.cfg(), *at as u64, text.as_bytes())
            }
        }
        .map_err(|e| FbError::Corrupt(format!("splice: {e}")))?
    };
    let _s = trace::span(Kind::CoreCommit);
    db.put(title.clone(), None, Value::Blob(edited)).map(|_| ())
}

/// `ForkBaseWiki::read_version`, with a span per layer entered.
fn read_version(db: &ForkBase, title: &Bytes, back: u64) -> Result<Vec<u8>, FbError> {
    let versions = {
        let _s = trace::span(Kind::CoreRead);
        db.track(title.clone(), None, back, back)?
    };
    let obj = &versions.first().ok_or(FbError::KeyNotFound)?.object;
    let blob = obj.value(db.store())?.as_blob()?;
    let _s = trace::span(Kind::PosRead);
    blob.read_all(db.store()).ok_or(FbError::KeyNotFound)
}

impl Workload for WikiEdit {
    fn load(&mut self, dir: &Path, mode: Mode) -> Result<(), String> {
        assert_eq!(self.ops_done, 0, "load comes before the first segment");
        let eng = open_durable(dir, HotTierConfig::default(), mode.traced)?;
        for (title, page) in self.titles.iter().zip(&self.pages) {
            let blob = {
                let _s = trace::span(Kind::PosBuild);
                eng.db.new_blob(page.as_bytes())
            };
            let _s = trace::span(Kind::CoreCommit);
            eng.db
                .put(title.clone(), None, Value::Blob(blob))
                .map_err(|e| format!("create page: {e}"))?;
        }
        self.user_bytes = self.pages.iter().map(|p| p.len() as u64).sum();
        self.eng = Some(eng);
        Ok(())
    }

    fn segment(&mut self, idx: u64) -> SegmentOut {
        let (ops, gen_ns) = timed(|| self.generate(idx));
        let db = &self.eng.as_ref().expect("loaded").db;
        let mut out = SegmentOut {
            gen_ns,
            schedule_hash: schedule_hash(&ops),
            ..SegmentOut::default()
        };
        let ((), wall_ns) = timed(|| {
            for (i, op) in ops.iter().enumerate() {
                let _root = trace::op(self.ops_done + i as u64, SAMPLE_EVERY);
                match op {
                    WikiOp::Edit { page, edit } => {
                        let (r, ns) = timed(|| edit_page(db, &self.titles[*page], edit));
                        out.record(false, ns, r.is_ok());
                    }
                    WikiOp::Read { page, back, expect } => {
                        let (r, ns) = timed(|| read_version(db, &self.titles[*page], *back));
                        let ok =
                            matches!(&r, Ok(text) if (content_hash(text), text.len()) == *expect);
                        out.record(true, ns, ok);
                    }
                }
            }
        });
        self.ops_done += ops.len() as u64;
        out.single_client(wall_ns);
        out
    }

    fn bytes(&self) -> (u64, u64) {
        let eng = self.eng.as_ref().expect("loaded");
        (eng.db.store().stored_bytes(), self.user_bytes)
    }

    fn verify(&mut self, reopen: bool) -> Result<OracleOut, String> {
        let mut out = OracleOut::default();
        let n = self.pages.len();
        let eng = self.eng.take().expect("loaded");
        self.verify_pages(&eng.db, 0..n, &mut out);
        if !reopen {
            self.eng = Some(eng);
            return Ok(out);
        }
        eng.db
            .commit_checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let dir = eng.tiers.log.dir().to_path_buf();
        drop(eng);
        let (eng, reopen_ns) = timed(|| open_durable(&dir, HotTierConfig::default(), false));
        let eng = eng?;
        out.reopen_ms = reopen_ns as f64 / 1e6;
        out.reopen_replayed_chunks = eng.tiers.log.reopen_stats().replayed_chunks;
        // A 1 % sample of pages (at least 20), and the whole hash chain —
        // every version's tree — of up to 100 of them.
        let mut rng = rng_for(self.seed, u64::MAX);
        let sample: Vec<usize> = (0..(n / 100).max(20))
            .map(|_| rng.gen_range(0..n))
            .collect();
        self.verify_pages(&eng.db, sample.iter().copied(), &mut out);
        for &p in sample.iter().take(100) {
            out.checked += 1;
            let chain = eng
                .db
                .head(self.titles[p].clone(), None)
                .and_then(|uid| verify_history(eng.db.store(), uid));
            if !matches!(chain, Ok(ev) if ev.verified_versions as u64 == self.edits[p] + 1) {
                out.failed += 1;
            }
        }
        self.eng = Some(eng);
        Ok(out)
    }

    fn counters(&mut self, out: &mut Extras) {
        let eng = self.eng.as_ref().expect("loaded");
        durable_counters(&eng.db, &eng.tiers, self.user_bytes, out);
    }

    fn corrupt_model(&mut self) {
        self.pages[0].replace_range(0..1, "#");
    }
}
