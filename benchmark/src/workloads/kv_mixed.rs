//! `kv_mixed`: two clients, 50 % `get_value` / 50 % `put` of 256-byte
//! strings over a zipf(0.99) choice of preloaded keys, on a durable engine.
//!
//! Values are primitives, so chunking and the POS-Tree do almost nothing:
//! the time is the core commit pipeline (sharded branch map, FObject
//! encode + hash) and the chunk layer's group commit and cache-hit reads.
//! The working set (about 40 MB of meta chunks at full size) fits the
//! 64 MiB cache. The two clients follow [`two_client`](super::two_client).

use super::two_client::{schedule_hash, VersionedKeys, VersionedOp};
use super::{
    durable_counters, open_durable, rng_for, timed, Durable, Extras, Mode, OracleOut, Scale,
    SegmentOut, Skew, Workload,
};
use crate::trace::{self, Kind};
use bytes::Bytes;
use forkbase_core::{verify_history, ForkBase, HotTierConfig, Value};
use rand::Rng;
use std::path::Path;

const KEYS: u64 = 100_000;
const VALUE_LEN: usize = 256;
/// Operations per client per segment (about 0.3 s on the 2-core host).
const SEGMENT_OPS: u64 = 40_000;
/// A round is 640 000 operations (about 2.3 s), which store 0.15 GB of
/// meta chunks.
pub const ROUNDS: u64 = 3;
const PRELOAD_BATCH: usize = 1_000;
const SAMPLE_EVERY: u64 = 64;

pub struct KvMixed {
    seed: u64,
    scale: Scale,
    model: VersionedKeys,
    skew: Skew,
    eng: Option<Durable>,
}

impl KvMixed {
    pub fn new(seed: u64, scale: Scale) -> KvMixed {
        let model = VersionedKeys::new("user", scale.of(KEYS), VALUE_LEN);
        KvMixed {
            seed,
            scale,
            skew: Skew::new(model.len(), 0.99),
            model,
            eng: None,
        }
    }

    fn generate(&mut self, idx: u64) -> Vec<Vec<VersionedOp>> {
        let skew = &self.skew;
        self.model
            .generate(self.seed, idx, self.scale.of(SEGMENT_OPS), |rng| {
                skew.sample(rng)
            })
    }

    fn verify_keys(&self, db: &ForkBase, keys: impl Iterator<Item = u64>, out: &mut OracleOut) {
        for k in keys {
            let got = get(db, self.model.names[k as usize].clone());
            out.check(matches!(got, Some(v) if self.model.accepts_current(k, &v)));
        }
    }
}

fn get(db: &ForkBase, key: Bytes) -> Option<Vec<u8>> {
    match db.get_value(key, None) {
        Ok(Value::String(s)) => Some(s.into_bytes()),
        _ => None,
    }
}

impl Workload for KvMixed {
    fn load(&mut self, dir: &Path, mode: Mode) -> Result<(), String> {
        assert_eq!(
            self.model.ops_done, 0,
            "load comes before the first segment"
        );
        let eng = open_durable(dir, HotTierConfig::default(), mode.traced)?;
        let n = self.model.len();
        for start in (0..n).step_by(PRELOAD_BATCH) {
            let entries: Vec<(Bytes, Value)> = (start..(start + PRELOAD_BATCH as u64).min(n))
                .map(|k| {
                    (
                        self.model.names[k as usize].clone(),
                        Value::String(self.model.current(k)),
                    )
                })
                .collect();
            let _s = trace::span(Kind::CoreCommit);
            eng.db
                .put_many(None, entries)
                .map_err(|e| format!("preload: {e}"))?;
        }
        self.model.count_preload();
        self.eng = Some(eng);
        Ok(())
    }

    fn segment(&mut self, idx: u64) -> SegmentOut {
        let (plans, gen_ns) = timed(|| self.generate(idx));
        let db = &self.eng.as_ref().expect("loaded").db;
        let mut out = self.model.run(
            &plans,
            SAMPLE_EVERY,
            (Kind::CoreRead, |key| get(db, key)),
            (Kind::CoreCommit, |key, value: &str| {
                db.put(key, None, Value::String(value.to_owned())).is_ok()
            }),
        );
        out.gen_ns = gen_ns;
        out.schedule_hash = schedule_hash(&plans);
        out
    }

    fn bytes(&self) -> (u64, u64) {
        let eng = self.eng.as_ref().expect("loaded");
        (eng.db.store().stored_bytes(), self.model.user_bytes)
    }

    fn verify(&mut self, reopen: bool) -> Result<OracleOut, String> {
        let mut out = OracleOut::default();
        let n = self.model.len();
        let eng = self.eng.take().expect("loaded");
        self.verify_keys(&eng.db, 0..n, &mut out);
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
        // A 1 % sample of keys, and the whole hash chain of 100 of them.
        let mut rng = rng_for(self.seed, u64::MAX);
        let sample: Vec<u64> = (0..(n / 100).max(1)).map(|_| rng.gen_range(0..n)).collect();
        self.verify_keys(&eng.db, sample.iter().copied(), &mut out);
        for &k in sample.iter().take(100) {
            let chain = eng
                .db
                .head(self.model.names[k as usize].clone(), None)
                .and_then(|uid| verify_history(eng.db.store(), uid));
            // Version v is the (v+1)-th link of the key's chain.
            let links = self.model.versions[k as usize] + 1;
            out.check(matches!(chain, Ok(ev) if ev.verified_versions as u64 == links));
        }
        self.eng = Some(eng);
        Ok(out)
    }

    fn counters(&mut self, out: &mut Extras) {
        let eng = self.eng.as_ref().expect("loaded");
        durable_counters(&eng.db, &eng.tiers, self.model.user_bytes, out);
    }

    fn corrupt_model(&mut self) {
        self.model.versions[0] += 1;
    }
}
