//! What `kv_mixed` and `cluster_tcp` share: two closed-loop clients doing
//! 50 % gets / 50 % puts of versioned values, with an exact model.
//!
//! Client `c` writes only keys with `key % 2 == c`, so the version every
//! key holds is known exactly. A client reading its own key must get the
//! version it last wrote; reading the *other* client's key it may get any
//! version that client writes during the segment.

use super::{
    content_hash, fold_hash, parse_versioned, rng_for, timed, versioned_value, SegmentOut,
};
use crate::trace::{self, Kind};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

pub const CLIENTS: u64 = 2;

pub struct VersionedOp {
    pub key: u64,
    /// `Some(value)` for a put.
    pub write: Option<String>,
    /// For a get: the versions of `key` the model allows it to return.
    lo: u64,
    hi: u64,
}

/// The model: named keys and the latest version written to each.
pub struct VersionedKeys {
    pub names: Vec<Bytes>,
    pub versions: Vec<u64>,
    pub value_len: usize,
    /// Key and value bytes handed to the engine so far.
    pub user_bytes: u64,
    pub ops_done: u64,
}

impl VersionedKeys {
    /// `n` keys (rounded down to even, so each client owns half) named
    /// `{prefix}{index}`, all at version 0.
    pub fn new(prefix: &str, n: u64, value_len: usize) -> VersionedKeys {
        let n = n & !1;
        VersionedKeys {
            names: (0..n)
                .map(|k| Bytes::from(format!("{prefix}{k:08}")))
                .collect(),
            versions: vec![0; n as usize],
            value_len,
            user_bytes: 0,
            ops_done: 0,
        }
    }

    pub fn len(&self) -> u64 {
        self.names.len() as u64
    }

    /// The value the model holds for `key` now.
    pub fn current(&self, key: u64) -> String {
        versioned_value(key, self.versions[key as usize], self.value_len)
    }

    /// Count the preload (every key at version 0) as handed to the engine.
    pub fn count_preload(&mut self) {
        self.user_bytes = self
            .names
            .iter()
            .map(|k| (k.len() + self.value_len) as u64)
            .sum();
    }

    /// Both clients' operations for segment `idx`, `per_client` each;
    /// `pick` draws the key an operation addresses.
    pub fn generate(
        &mut self,
        seed: u64,
        idx: u64,
        per_client: u64,
        pick: impl Fn(&mut StdRng) -> u64,
    ) -> Vec<Vec<VersionedOp>> {
        // The version each key written in this segment had before it.
        let mut before: HashMap<u64, u64> = HashMap::new();
        let mut plans: Vec<Vec<VersionedOp>> = (0..CLIENTS)
            .map(|c| {
                let mut rng = rng_for(seed, idx * CLIENTS + c);
                (0..per_client)
                    .map(|_| {
                        let mut key = pick(&mut rng);
                        if rng.gen_bool(0.5) {
                            key = (key & !1) + c; // a key this client owns
                            let v = &mut self.versions[key as usize];
                            before.entry(key).or_insert(*v);
                            *v += 1;
                            self.user_bytes +=
                                (self.names[key as usize].len() + self.value_len) as u64;
                            VersionedOp {
                                key,
                                write: Some(self.current(key)),
                                lo: 0,
                                hi: 0,
                            }
                        } else {
                            // Exact for this client's own keys; widened
                            // below for the other client's.
                            let v = self.versions[key as usize];
                            VersionedOp {
                                key,
                                write: None,
                                lo: v,
                                hi: v,
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        for (c, ops) in plans.iter_mut().enumerate() {
            for op in ops.iter_mut().filter(|o| o.write.is_none()) {
                if op.key % CLIENTS != c as u64 {
                    op.hi = self.versions[op.key as usize];
                    op.lo = *before.get(&op.key).unwrap_or(&op.hi);
                }
            }
        }
        plans
    }

    /// Whether `value` is `key` at a version in `lo..=hi`.
    pub fn accepts(key: u64, value: &[u8], lo: u64, hi: u64) -> bool {
        matches!(parse_versioned(value), Some((k, v)) if k == key && (lo..=hi).contains(&v))
    }

    /// Whether `value` is what the model holds for `key` now.
    pub fn accepts_current(&self, key: u64, value: &[u8]) -> bool {
        let v = self.versions[key as usize];
        Self::accepts(key, value, v, v)
    }

    /// Run one segment's plans, one thread per client, each waiting for
    /// every reply before its next request. `get` returns the value read,
    /// `put` whether the write was acknowledged; both run inside the
    /// operation's latency window, under a span of the given kind.
    pub fn run(
        &mut self,
        plans: &[Vec<VersionedOp>],
        sample_every: u64,
        (get_kind, get): (Kind, impl Fn(Bytes) -> Option<Vec<u8>> + Sync),
        (put_kind, put): (Kind, impl Fn(Bytes, &str) -> bool + Sync),
    ) -> SegmentOut {
        let first_op = self.ops_done;
        let per_client = plans[0].len() as u64;
        self.ops_done += per_client * CLIENTS;
        let names = &self.names;
        let (get, put) = (&get, &put);

        let (results, wall_ns) = timed(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = plans
                    .iter()
                    .enumerate()
                    .map(|(c, ops)| {
                        s.spawn(move || {
                            let mut got = Vec::with_capacity(ops.len());
                            let ((), loop_ns) = timed(|| {
                                for (i, op) in ops.iter().enumerate() {
                                    let op_id = first_op + c as u64 * per_client + i as u64;
                                    let _root = trace::op(op_id, sample_every);
                                    let name = names[op.key as usize].clone();
                                    got.push(match &op.write {
                                        None => timed(|| {
                                            let _s = trace::span(get_kind);
                                            get(name)
                                        }),
                                        Some(value) => timed(|| {
                                            let _s = trace::span(put_kind);
                                            put(name, value).then(Vec::new)
                                        }),
                                    });
                                }
                            });
                            (got, loop_ns)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Vec<_>>()
            })
        });

        // Results are checked here, outside the timed window.
        let mut out = SegmentOut {
            wall_ns,
            ..SegmentOut::default()
        };
        for (ops, (got, loop_ns)) in plans.iter().zip(results) {
            out.client_ns += loop_ns;
            for (op, (reply, ns)) in ops.iter().zip(got) {
                let ok = match (&op.write, &reply) {
                    (Some(_), Some(_)) => true,
                    (None, Some(value)) => Self::accepts(op.key, value, op.lo, op.hi),
                    _ => false,
                };
                out.record(op.write.is_none(), ns, ok);
            }
        }
        out
    }
}

pub fn schedule_hash(plans: &[Vec<VersionedOp>]) -> u64 {
    plans.iter().flatten().fold(0, |acc, op| {
        let v = op
            .write
            .as_deref()
            .map_or(op.lo, |v| content_hash(v.as_bytes()));
        fold_hash(fold_hash(acc, op.key), v)
    })
}
