//! **redislite** — a Redis-style object store with `String` and `List`
//! types, the baseline the paper's wiki engine is compared against
//! (§5.2, §6.3) — servable in-process *or* over a real TCP wire speaking
//! the RESP2 protocol ([`RespServer`]/[`RespClient`], [`resp`]).
//!
//! The paper implements a multi-versioned wiki over Redis by storing each
//! page as a list and RPUSH-ing every new revision — full copies, no
//! structural sharing. The behaviours that matter for the comparison and
//! are preserved here:
//!
//! * very fast in-memory reads/writes (no chunking, no hashing), and
//! * memory consumption proportional to the sum of all version sizes
//!   (Fig. 13(b): ForkBase's deduplication halves storage relative to
//!   Redis).
//!
//! Memory accounting tracks the payload bytes of every stored object, the
//! metric plotted in Fig. 13(b) and Fig. 15.
//!
//! # One command surface
//!
//! Every operation is a [`Cmd`] executed by [`RedisLite::execute`], which
//! returns a [`Reply`]. The typed reads and `rpush` the baselines call
//! (`get`/`rpush`/`lindex`/…) are thin wrappers, [`pipeline`](RedisLite::pipeline) is an execute loop
//! under one lock hold with one batched AOF append, AOF replay re-enters
//! through the same dispatch, and the RESP server exposes it verbatim —
//! wire semantics and in-process semantics are one code path.
//!
//! List indices follow Redis everywhere: they are `i64`, negative values
//! count from the tail (`-1` = last element), `LRANGE` clamps
//! out-of-range bounds to the list, `LINDEX` answers nil and `LSET`
//! errors when the index falls outside it.
//!
//! # Durable mode
//!
//! [`RedisLite::open_durable`] attaches a Redis-style **append-only
//! file** (AOF): every mutation (`SET`/`RPUSH`/`LSET`/`DEL`, including
//! batched/pipelined forms) is appended as a checksummed record and
//! replayed on open; a torn tail is truncated. With
//! [`AofFsync::Buffered`] (the `open_durable` default) appends sit in a
//! write buffer until [`sync`](RedisLite::sync) or drop, matching Redis's
//! `appendfsync everysec`-ish default; [`AofFsync::Always`]
//! (`open_durable_with`) flushes and fsyncs before the mutation is
//! acknowledged, so a reply that reached the client survives a kill.

use bytes::Bytes;
use forkbase_crypto::fx::FxHashMap;
use parking_lot::{Mutex, RwLock};
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

mod client;
pub mod resp;
mod server;

pub use client::RespClient;
pub use server::RespServer;

/// A stored object: string or list.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RObject {
    Str(Bytes),
    List(Vec<Bytes>),
}

impl RObject {
    fn bytes(&self) -> u64 {
        match self {
            RObject::Str(s) => s.len() as u64,
            RObject::List(l) => l.iter().map(|e| e.len() as u64).sum(),
        }
    }
}

/// The canonical command algebra: everything the store can do, whether
/// called in-process, pipelined, replayed from the AOF, or received over
/// the RESP wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cmd {
    /// PING.
    Ping,
    /// SET key value.
    Set(Bytes, Bytes),
    /// GET key.
    Get(Bytes),
    /// MSET (key, value) pairs — applied atomically under one lock hold.
    MSet(Vec<(Bytes, Bytes)>),
    /// RPUSH key elem.
    Rpush(Bytes, Bytes),
    /// LINDEX key idx (negative = from the tail).
    Lindex(Bytes, i64),
    /// LLEN key.
    Llen(Bytes),
    /// LSET key idx elem (negative idx = from the tail).
    Lset(Bytes, i64, Bytes),
    /// LRANGE key start stop (inclusive; negatives from the tail,
    /// out-of-range bounds clamped).
    Lrange(Bytes, i64, i64),
    /// DEL key.
    Del(Bytes),
    /// DBSIZE.
    DbSize,
}

impl Cmd {
    /// Commands that never mutate run under the shared read lock.
    fn is_read(&self) -> bool {
        matches!(
            self,
            Cmd::Ping
                | Cmd::Get(_)
                | Cmd::Lindex(..)
                | Cmd::Llen(_)
                | Cmd::Lrange(..)
                | Cmd::DbSize
        )
    }
}

/// Reply to one command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Write acknowledged.
    Ok,
    /// PING answered.
    Pong,
    /// Key missing or wrong type.
    Nil,
    /// A value.
    Value(Bytes),
    /// A length/count (RPUSH, DEL, LLEN, DBSIZE).
    Len(usize),
    /// A list of values (LRANGE).
    Multi(Vec<Bytes>),
    /// Command-level failure (wrong index, wrong type, …); the
    /// connection survives, only the command fails.
    Err(String),
}

/// When AOF appends reach disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AofFsync {
    /// Appends sit in a write buffer until [`sync`](RedisLite::sync) or
    /// drop — Redis's `appendfsync everysec`-ish default.
    #[default]
    Buffered,
    /// Flush + fsync after every logged batch, before the mutation is
    /// acknowledged — Redis's `appendfsync always`. An acknowledged
    /// write survives a kill.
    Always,
}

/// An in-memory multi-type key-value store, optionally backed by an
/// append-only file and servable over RESP2 ([`RespServer`]).
#[derive(Default)]
pub struct RedisLite {
    map: RwLock<FxHashMap<Bytes, RObject>>,
    mem_bytes: AtomicU64,
    /// Append-only persistence log (durable mode only).
    aof: Option<Mutex<BufWriter<File>>>,
    /// When appends reach disk (durable mode only).
    aof_fsync: AofFsync,
    /// Latched on the first failed append: a partial record may sit at
    /// the log tail, so appending past it would write records that
    /// replay can never reach. Once set, appends stop and
    /// [`sync`](RedisLite::sync) errors.
    aof_poisoned: std::sync::atomic::AtomicBool,
}

/// AOF record op tags.
const AOF_SET: u8 = 0;
const AOF_RPUSH: u8 = 1;
const AOF_DEL: u8 = 2;
const AOF_LSET: u8 = 3;

fn aof_checksum(body: &[u8]) -> u32 {
    let mut h = forkbase_crypto::fx::FxHasher::default();
    h.write(body);
    h.finish() as u32
}

/// `[check u32][op u8][klen u32][vlen u32][idx u64][key][value]`; the
/// check is an FxHash of everything after it, truncated to 32 bits —
/// enough to detect a torn tail.
fn encode_aof(out: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8], idx: u64) {
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]);
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let check = aof_checksum(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&check.to_le_bytes());
}

/// Resolve a Redis list index (negative = from the tail) against `len`
/// elements; `None` when it falls outside the list on either side.
fn resolve_index(idx: i64, len: usize) -> Option<usize> {
    let i = if idx < 0 {
        idx.checked_add(len as i64)?
    } else {
        idx
    };
    (0..len as i64).contains(&i).then_some(i as usize)
}

/// Resolve an LRANGE window: negatives count from the tail, then both
/// bounds clamp to the list; `None` = the range is empty.
fn resolve_range(start: i64, stop: i64, len: usize) -> Option<(usize, usize)> {
    if len == 0 {
        return None;
    }
    let norm = |i: i64| {
        if i < 0 {
            i.saturating_add(len as i64)
        } else {
            i
        }
    };
    let s = norm(start).max(0);
    let e = norm(stop).min(len as i64 - 1);
    (s <= e).then_some((s as usize, e as usize))
}

impl RedisLite {
    /// Empty store.
    pub fn new() -> RedisLite {
        RedisLite::default()
    }

    /// Open a durable store with buffered appends ([`AofFsync::Buffered`]).
    pub fn open_durable(path: impl AsRef<Path>) -> std::io::Result<RedisLite> {
        Self::open_durable_with(path, AofFsync::Buffered)
    }

    /// Open a durable store: replay the append-only file at `path`
    /// (creating it when missing, truncating a torn tail) and log every
    /// further mutation to it under the chosen fsync policy. The replay
    /// streams one record at a time through a reusable buffer — memory
    /// is bounded by the largest record, not the log size — and applies
    /// each record through the same [`Cmd`] dispatch every other entry
    /// point uses.
    pub fn open_durable_with(
        path: impl AsRef<Path>,
        fsync: AofFsync,
    ) -> std::io::Result<RedisLite> {
        let path = path.as_ref();
        let db = RedisLite::new();
        if path.exists() {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            let mut reader = std::io::BufReader::new(file);
            let mut header = [0u8; 21];
            let mut body = Vec::new();
            let mut pos = 0u64;
            let mut valid_end = 0u64;
            // Replay sink: `db.aof` is still `None`, so nothing encodes
            // or logs — the records only re-apply.
            let mut sink = Vec::new();
            let mut sunk = 0u64;
            while len - pos >= 21 {
                reader.read_exact(&mut header)?;
                let check = u32::from_le_bytes(header[0..4].try_into().expect("4"));
                let op = header[4];
                let klen = u32::from_le_bytes(header[5..9].try_into().expect("4")) as usize;
                let vlen = u32::from_le_bytes(header[9..13].try_into().expect("4")) as usize;
                let idx = u64::from_le_bytes(header[13..21].try_into().expect("8"));
                if len - pos < 21 + (klen + vlen) as u64 {
                    break; // torn tail
                }
                body.resize(klen + vlen, 0);
                reader.read_exact(&mut body)?;
                let mut checked = header[4..].to_vec();
                checked.extend_from_slice(&body);
                if aof_checksum(&checked) != check {
                    break;
                }
                let key = Bytes::copy_from_slice(&body[..klen]);
                let value = Bytes::copy_from_slice(&body[klen..]);
                // Logged LSET indices are already tail-resolved.
                let cmd = match op {
                    AOF_SET => Cmd::Set(key, value),
                    AOF_RPUSH => Cmd::Rpush(key, value),
                    AOF_DEL => Cmd::Del(key),
                    AOF_LSET => Cmd::Lset(key, idx as i64, value),
                    _ => break, // unknown op: stop at the intact prefix
                };
                let mut map = db.map.write();
                db.apply_locked(&mut map, cmd, &mut sink, &mut sunk);
                drop(map);
                pos += 21 + (klen + vlen) as u64;
                valid_end = pos;
            }
            if valid_end < len {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(valid_end)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(RedisLite {
            aof: Some(Mutex::new(BufWriter::new(file))),
            aof_fsync: fsync,
            ..db
        })
    }

    /// Flush buffered AOF appends and fsync them. Errors if any earlier
    /// append failed — from that point the log tail is unreliable and
    /// pretending the store is durable would silently lose every later
    /// mutation at replay.
    pub fn sync(&self) -> std::io::Result<()> {
        if self.aof_poisoned.load(Ordering::Relaxed) {
            return Err(std::io::Error::other(
                "append-only file poisoned by an earlier write error",
            ));
        }
        if let Some(aof) = &self.aof {
            let mut w = aof.lock();
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Append a pre-encoded run of `records` AOF records in one lock
    /// hold and one `write_all` (plus one flush+fsync under
    /// [`AofFsync::Always`]). Called with the map lock held so the log
    /// order matches the apply order; batched entry points pay the log
    /// lock and write syscall once for the whole batch. After a failed
    /// append the log is poisoned: a partial record may sit at the tail,
    /// so later records would be unreachable at replay — stop appending;
    /// [`sync`](Self::sync) reports it.
    fn log_batch(&self, buf: &[u8], records: u64) {
        let Some(aof) = &self.aof else { return };
        if records == 0 {
            return;
        }
        if self.aof_poisoned.load(Ordering::Relaxed) {
            return;
        }
        let mut w = aof.lock();
        let wrote = w.write_all(buf).and_then(|()| {
            if self.aof_fsync == AofFsync::Always {
                w.flush()?;
                w.get_ref().sync_data()?;
            }
            Ok(())
        });
        if let Err(e) = wrote {
            // A torn tail makes every record of the batch unreachable at
            // replay: poison.
            if !self.aof_poisoned.swap(true, Ordering::Relaxed) {
                eprintln!("redislite: AOF batch append failed (log poisoned): {e}");
            }
        }
    }

    fn account(&self, old: Option<&RObject>, new: Option<&RObject>) {
        let old_b = old.map(|o| o.bytes()).unwrap_or(0);
        let new_b = new.map(|o| o.bytes()).unwrap_or(0);
        if new_b >= old_b {
            self.mem_bytes.fetch_add(new_b - old_b, Ordering::Relaxed);
        } else {
            self.mem_bytes.fetch_sub(old_b - new_b, Ordering::Relaxed);
        }
    }

    // Locked op bodies, shared between every dispatch path so the
    // accounting logic exists exactly once.

    fn set_locked(&self, map: &mut FxHashMap<Bytes, RObject>, key: Bytes, value: Bytes) {
        let new = RObject::Str(value);
        let old = map.get(&key).cloned();
        self.account(old.as_ref(), Some(&new));
        map.insert(key, new);
    }

    fn rpush_locked(&self, map: &mut FxHashMap<Bytes, RObject>, key: Bytes, elem: Bytes) -> usize {
        let entry = map.entry(key).or_insert_with(|| RObject::List(Vec::new()));
        match entry {
            RObject::List(l) => {
                self.mem_bytes
                    .fetch_add(elem.len() as u64, Ordering::Relaxed);
                l.push(elem);
                l.len()
            }
            RObject::Str(_) => {
                // WRONGTYPE in Redis; here we overwrite for simplicity.
                let old_bytes = entry.bytes();
                self.mem_bytes.fetch_sub(old_bytes, Ordering::Relaxed);
                self.mem_bytes
                    .fetch_add(elem.len() as u64, Ordering::Relaxed);
                *entry = RObject::List(vec![elem]);
                1
            }
        }
    }

    fn del_locked(&self, map: &mut FxHashMap<Bytes, RObject>, key: &[u8]) -> bool {
        match map.remove(key) {
            Some(obj) => {
                self.mem_bytes.fetch_sub(obj.bytes(), Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Replace the element at the (already tail-resolved) `idx`.
    fn lset_locked(
        &self,
        map: &mut FxHashMap<Bytes, RObject>,
        key: &[u8],
        idx: usize,
        elem: Bytes,
    ) {
        let Some(RObject::List(l)) = map.get_mut(key) else {
            return;
        };
        if let Some(slot) = l.get_mut(idx) {
            let old_len = slot.len() as u64;
            if elem.len() as u64 >= old_len {
                self.mem_bytes
                    .fetch_add(elem.len() as u64 - old_len, Ordering::Relaxed);
            } else {
                self.mem_bytes
                    .fetch_sub(old_len - elem.len() as u64, Ordering::Relaxed);
            }
            *slot = elem;
        }
    }

    /// Serve a read-only command against the (read- or write-) locked map.
    fn read_locked(map: &FxHashMap<Bytes, RObject>, cmd: &Cmd) -> Reply {
        match cmd {
            Cmd::Ping => Reply::Pong,
            Cmd::DbSize => Reply::Len(map.len()),
            Cmd::Get(key) => match map.get(key) {
                Some(RObject::Str(s)) => Reply::Value(s.clone()),
                _ => Reply::Nil,
            },
            Cmd::Lindex(key, idx) => match map.get(key) {
                Some(RObject::List(l)) => match resolve_index(*idx, l.len()) {
                    Some(i) => Reply::Value(l[i].clone()),
                    None => Reply::Nil,
                },
                _ => Reply::Nil,
            },
            Cmd::Llen(key) => match map.get(key) {
                Some(RObject::List(l)) => Reply::Len(l.len()),
                _ => Reply::Len(0),
            },
            Cmd::Lrange(key, start, stop) => match map.get(key) {
                Some(RObject::List(l)) => match resolve_range(*start, *stop, l.len()) {
                    Some((s, e)) => Reply::Multi(l[s..=e].to_vec()),
                    None => Reply::Multi(Vec::new()),
                },
                _ => Reply::Multi(Vec::new()),
            },
            _ => unreachable!("write command dispatched to the read path"),
        }
    }

    /// Apply one command to the write-locked map, appending the AOF
    /// record of every mutation to `aof` (with list indices already
    /// tail-resolved, so replay is position-exact). The caller flushes
    /// `aof` with [`log_batch`](Self::log_batch) under the same lock
    /// hold, which keeps log order equal to apply order; records are
    /// only encoded when an AOF is attached.
    fn apply_locked(
        &self,
        map: &mut FxHashMap<Bytes, RObject>,
        cmd: Cmd,
        aof: &mut Vec<u8>,
        records: &mut u64,
    ) -> Reply {
        let log = self.aof.is_some();
        match cmd {
            Cmd::Set(key, value) => {
                if log {
                    encode_aof(aof, AOF_SET, &key, &value, 0);
                    *records += 1;
                }
                self.set_locked(map, key, value);
                Reply::Ok
            }
            Cmd::MSet(pairs) => {
                for (key, value) in pairs {
                    if log {
                        encode_aof(aof, AOF_SET, &key, &value, 0);
                        *records += 1;
                    }
                    self.set_locked(map, key, value);
                }
                Reply::Ok
            }
            Cmd::Rpush(key, elem) => {
                if log {
                    encode_aof(aof, AOF_RPUSH, &key, &elem, 0);
                    *records += 1;
                }
                Reply::Len(self.rpush_locked(map, key, elem))
            }
            Cmd::Del(key) => {
                if log {
                    encode_aof(aof, AOF_DEL, &key, &[], 0);
                    *records += 1;
                }
                Reply::Len(usize::from(self.del_locked(map, &key)))
            }
            Cmd::Lset(key, idx, elem) => {
                let resolved = match map.get(&key) {
                    Some(RObject::List(l)) => match resolve_index(idx, l.len()) {
                        Some(i) => i,
                        None => return Reply::Err("ERR index out of range".into()),
                    },
                    _ => return Reply::Err("ERR no such key".into()),
                };
                if log {
                    encode_aof(aof, AOF_LSET, &key, &elem, resolved as u64);
                    *records += 1;
                }
                self.lset_locked(map, &key, resolved, elem);
                Reply::Ok
            }
            read => Self::read_locked(map, &read),
        }
    }

    /// Execute one command — THE semantic entry point. Reads run under
    /// the shared lock; writes take the exclusive lock, apply, and land
    /// their AOF record in the same lock hold.
    pub fn execute(&self, cmd: Cmd) -> Reply {
        if cmd.is_read() {
            Self::read_locked(&self.map.read(), &cmd)
        } else {
            let mut buf = Vec::new();
            let mut records = 0u64;
            let mut map = self.map.write();
            let reply = self.apply_locked(&mut map, cmd, &mut buf, &mut records);
            self.log_batch(&buf, records);
            reply
        }
    }

    /// Execute a command pipeline: all commands run back-to-back under
    /// one lock hold (readers see none or all of it), the AOF sees one
    /// contiguous append for the whole batch, and the replies come back
    /// in order — the Redis pipelining model the paper's baselines rely
    /// on for write-heavy workloads.
    pub fn pipeline(&self, cmds: Vec<Cmd>) -> Vec<Reply> {
        let mut buf = Vec::new();
        let mut records = 0u64;
        let mut map = self.map.write();
        let replies = cmds
            .into_iter()
            .map(|cmd| self.apply_locked(&mut map, cmd, &mut buf, &mut records))
            .collect();
        self.log_batch(&buf, records);
        replies
    }

    /// GET: read a string value. `None` if missing or of another type.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        match self.execute(Cmd::Get(Bytes::copy_from_slice(key))) {
            Reply::Value(v) => Some(v),
            _ => None,
        }
    }

    /// RPUSH: append an element to the list at `key` (creating it),
    /// returning the new length.
    pub fn rpush(&self, key: impl Into<Bytes>, elem: impl Into<Bytes>) -> usize {
        match self.execute(Cmd::Rpush(key.into(), elem.into())) {
            Reply::Len(n) => n,
            reply => unreachable!("RPUSH replies Len, got {reply:?}"),
        }
    }

    /// LINDEX: element at `idx` (negative = from the tail, like Redis).
    pub fn lindex(&self, key: &[u8], idx: i64) -> Option<Bytes> {
        match self.execute(Cmd::Lindex(Bytes::copy_from_slice(key), idx)) {
            Reply::Value(v) => Some(v),
            _ => None,
        }
    }

    /// LLEN: list length (0 for missing keys, like Redis).
    pub fn llen(&self, key: &[u8]) -> usize {
        match self.execute(Cmd::Llen(Bytes::copy_from_slice(key))) {
            Reply::Len(n) => n,
            reply => unreachable!("LLEN replies Len, got {reply:?}"),
        }
    }

    /// LRANGE: elements in `[start, stop]` (inclusive; negatives count
    /// from the tail, out-of-range bounds clamp, like Redis).
    pub fn lrange(&self, key: &[u8], start: i64, stop: i64) -> Vec<Bytes> {
        match self.execute(Cmd::Lrange(Bytes::copy_from_slice(key), start, stop)) {
            Reply::Multi(v) => v,
            reply => unreachable!("LRANGE replies Multi, got {reply:?}"),
        }
    }

    /// Total payload bytes held — the storage-consumption metric of
    /// Fig. 13(b).
    pub fn memory_bytes(&self) -> u64 {
        self.mem_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed calls these tests make, as the commands they are.
    trait Typed {
        fn set(&self, key: &str, value: impl Into<Bytes>);
        fn mset(&self, pairs: &[(&str, &str)]);
        fn lset(&self, key: &str, idx: i64, elem: &str) -> bool;
        fn del(&self, key: &str) -> bool;
        fn dbsize(&self) -> Reply;
    }

    impl Typed for RedisLite {
        fn set(&self, key: &str, value: impl Into<Bytes>) {
            self.execute(Cmd::Set(Bytes::from(key), value.into()));
        }
        fn mset(&self, pairs: &[(&str, &str)]) {
            let pairs = pairs
                .iter()
                .map(|&(k, v)| (Bytes::from(k), Bytes::from(v)))
                .collect();
            self.execute(Cmd::MSet(pairs));
        }
        fn lset(&self, key: &str, idx: i64, elem: &str) -> bool {
            self.execute(Cmd::Lset(Bytes::from(key), idx, Bytes::from(elem))) == Reply::Ok
        }
        fn del(&self, key: &str) -> bool {
            self.execute(Cmd::Del(Bytes::from(key))) == Reply::Len(1)
        }
        fn dbsize(&self) -> Reply {
            self.execute(Cmd::DbSize)
        }
    }

    fn temp_aof(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "redislite-aof-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ))
    }

    #[test]
    fn aof_replays_all_mutation_kinds() {
        let path = temp_aof("replay");
        {
            let db = RedisLite::open_durable(&path).expect("open");
            db.set("s", "v1");
            db.set("gone", "x");
            db.del("gone");
            for i in 0..3 {
                db.rpush("page", format!("rev {i}"));
            }
            db.lset("page", 1, "rev 1 edited");
            db.lset("page", -1, "rev 2 edited");
            db.pipeline(vec![
                Cmd::Set(Bytes::from("p"), Bytes::from("pipelined")),
                Cmd::Rpush(Bytes::from("page"), Bytes::from("rev 3")),
            ]);
            db.sync().expect("sync: no append failed");
        }
        let db = RedisLite::open_durable(&path).expect("reopen");
        assert_eq!(db.get(b"s"), Some(Bytes::from("v1")));
        assert_eq!(db.get(b"gone"), None);
        assert_eq!(db.get(b"p"), Some(Bytes::from("pipelined")));
        assert_eq!(db.llen(b"page"), 4);
        assert_eq!(db.lindex(b"page", 1), Some(Bytes::from("rev 1 edited")));
        assert_eq!(db.lindex(b"page", 2), Some(Bytes::from("rev 2 edited")));
        assert_eq!(db.lindex(b"page", -1), Some(Bytes::from("rev 3")));
        // Memory accounting was rebuilt by the replay.
        assert!(db.memory_bytes() > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn aof_torn_tail_truncated() {
        let path = temp_aof("torn");
        {
            let db = RedisLite::open_durable(&path).expect("open");
            db.set("k", "v");
            db.sync().expect("sync");
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("raw");
            f.write_all(&[9, 9, 9, 9, 9]).expect("garbage");
        }
        let db = RedisLite::open_durable(&path).expect("recover");
        assert_eq!(db.get(b"k"), Some(Bytes::from("v")));
        // Appendable after recovery.
        db.set("k2", "v2");
        db.sync().expect("sync");
        drop(db);
        let db = RedisLite::open_durable(&path).expect("reopen");
        assert_eq!(db.dbsize(), Reply::Len(2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn aof_always_lands_without_sync() {
        // Under AofFsync::Always every acknowledged mutation is on disk
        // the moment execute returns: a reopen that never saw sync() or
        // a drop-flush must still recover everything.
        let path = temp_aof("always");
        let db = RedisLite::open_durable_with(&path, AofFsync::Always).expect("open");
        db.set("a", "1");
        db.pipeline(vec![
            Cmd::Set(Bytes::from("b"), Bytes::from("2")),
            Cmd::Rpush(Bytes::from("l"), Bytes::from("x")),
        ]);
        // Simulate a kill: leak the instance so nothing flushes.
        std::mem::forget(db);
        let db = RedisLite::open_durable(&path).expect("reopen");
        assert_eq!(db.get(b"a"), Some(Bytes::from("1")));
        assert_eq!(db.get(b"b"), Some(Bytes::from("2")));
        assert_eq!(db.llen(b"l"), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn string_ops() {
        let db = RedisLite::new();
        db.set("k", "v1");
        assert_eq!(db.get(b"k"), Some(Bytes::from("v1")));
        db.set("k", "v2");
        assert_eq!(db.get(b"k"), Some(Bytes::from("v2")));
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn list_versioning_pattern() {
        // The wiki pattern: every revision RPUSHed, LINDEX -1 = latest.
        let db = RedisLite::new();
        for i in 0..5 {
            db.rpush("page", format!("revision {i}"));
        }
        assert_eq!(db.llen(b"page"), 5);
        assert_eq!(db.lindex(b"page", -1), Some(Bytes::from("revision 4")));
        assert_eq!(db.lindex(b"page", 0), Some(Bytes::from("revision 0")));
        assert_eq!(db.lindex(b"page", -2), Some(Bytes::from("revision 3")));
        assert_eq!(db.lindex(b"page", 99), None);
        assert_eq!(db.lindex(b"page", -6), None);
    }

    #[test]
    fn lrange_redis_index_semantics() {
        let db = RedisLite::new();
        for i in 0..4 {
            db.rpush("l", format!("{i}"));
        }
        assert_eq!(db.lrange(b"l", 1, 2).len(), 2);
        assert_eq!(db.lrange(b"l", 0, 100).len(), 4, "stop clamps");
        assert_eq!(db.lrange(b"l", 5, 10).len(), 0);
        // Negative indices count from the tail.
        assert_eq!(
            db.lrange(b"l", -2, -1),
            vec![Bytes::from("2"), Bytes::from("3")]
        );
        assert_eq!(db.lrange(b"l", 0, -1).len(), 4, "the canonical full range");
        assert_eq!(db.lrange(b"l", -100, 0).len(), 1, "start clamps to head");
        assert_eq!(db.lrange(b"l", -1, -2).len(), 0, "inverted after resolve");
        assert_eq!(db.lrange(b"missing", 0, -1).len(), 0);
    }

    #[test]
    fn memory_accounting_sums_all_versions() {
        let db = RedisLite::new();
        db.rpush("page", vec![0u8; 1000]);
        db.rpush("page", vec![0u8; 1000]);
        assert_eq!(db.memory_bytes(), 2000, "no dedup: every version counted");
        db.set("s", vec![0u8; 500]);
        assert_eq!(db.memory_bytes(), 2500);
        db.set("s", vec![0u8; 100]);
        assert_eq!(db.memory_bytes(), 2100, "overwrite reclaims");
        db.del("page");
        assert_eq!(db.memory_bytes(), 100);
    }

    #[test]
    fn lset_replaces_in_place() {
        let db = RedisLite::new();
        db.rpush("l", "aaa");
        db.rpush("l", "bbb");
        assert!(db.lset("l", 0, "XXXXX"));
        assert_eq!(db.lindex(b"l", 0), Some(Bytes::from("XXXXX")));
        assert!(db.lset("l", -1, "YY"), "negative index from the tail");
        assert_eq!(db.lindex(b"l", 1), Some(Bytes::from("YY")));
        assert!(!db.lset("l", 9, "nope"));
        assert!(!db.lset("l", -3, "nope"));
        assert_eq!(db.memory_bytes(), 7);
        // The Cmd form distinguishes the two failure modes.
        assert_eq!(
            db.execute(Cmd::Lset(Bytes::from("l"), 9, Bytes::from("x"))),
            Reply::Err("ERR index out of range".into())
        );
        assert_eq!(
            db.execute(Cmd::Lset(Bytes::from("ghost"), 0, Bytes::from("x"))),
            Reply::Err("ERR no such key".into())
        );
    }

    #[test]
    fn mset_matches_sequential_sets() {
        let db = RedisLite::new();
        db.set("a", "old");
        db.mset(&[("a", "1"), ("b", "2"), ("c", "3")]);
        assert_eq!(db.get(b"a"), Some(Bytes::from("1")));
        assert_eq!(db.get(b"c"), Some(Bytes::from("3")));
        assert_eq!(db.dbsize(), Reply::Len(3));
        assert_eq!(db.memory_bytes(), 3, "overwrite accounted like SET");
    }

    #[test]
    fn pipeline_replies_in_order() {
        let db = RedisLite::new();
        let replies = db.pipeline(vec![
            Cmd::Set(Bytes::from("k"), Bytes::from("v")),
            Cmd::Get(Bytes::from("k")),
            Cmd::Rpush(Bytes::from("l"), Bytes::from("e1")),
            Cmd::Rpush(Bytes::from("l"), Bytes::from("e2")),
            Cmd::Del(Bytes::from("k")),
            Cmd::Get(Bytes::from("k")),
            Cmd::Lrange(Bytes::from("l"), 0, -1),
        ]);
        assert_eq!(
            replies,
            vec![
                Reply::Ok,
                Reply::Value(Bytes::from("v")),
                Reply::Len(1),
                Reply::Len(2),
                Reply::Len(1),
                Reply::Nil,
                Reply::Multi(vec![Bytes::from("e1"), Bytes::from("e2")]),
            ]
        );
        assert_eq!(db.llen(b"l"), 2);
        assert_eq!(db.memory_bytes(), 4, "k reclaimed, e1+e2 counted");
    }

    #[test]
    fn execute_covers_the_read_algebra() {
        let db = RedisLite::new();
        assert_eq!(db.execute(Cmd::Ping), Reply::Pong);
        assert_eq!(db.execute(Cmd::DbSize), Reply::Len(0));
        db.set("k", "v");
        assert_eq!(db.execute(Cmd::DbSize), Reply::Len(1));
        assert_eq!(
            db.execute(Cmd::Get(Bytes::from("k"))),
            Reply::Value(Bytes::from("v"))
        );
        assert_eq!(db.execute(Cmd::Llen(Bytes::from("k"))), Reply::Len(0));
    }

    #[test]
    fn del_missing_returns_false() {
        let db = RedisLite::new();
        assert!(!db.del("ghost"));
        db.set("real", "x");
        assert!(db.del("real"));
        assert_eq!(db.dbsize(), Reply::Len(0));
    }
}
