//! Layer attribution from outside the engine.
//!
//! The workloads wrap every call into a layer's public API in a span, and
//! [`TracedStore`] wraps the chunk store the engine writes through, so a
//! span tree `workload.op → core.* / pos.* → chunk.*` exists for every
//! operation without touching the crates. A span's **self time** is its
//! duration minus the time its child spans cover; self times are summed
//! per span kind for every operation, while full span records
//! (`name, layer, op_id, parent, start_ns, end_ns`) are kept in memory
//! for a sample of operations only and written out after the run.
//!
//! Everything here is a no-op (one relaxed load) until [`enable`] is
//! called, which only the traced pass of `--trace 1` does.

use forkbase_chunk::{Chunk, ChunkStore, PutOutcome, StoreStats};
use forkbase_crypto::{sha256, split_positions, ChunkerConfig, Digest};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every kind of span the benchmark records. The name's prefix is the
/// layer, which is the crate the call enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One client operation, engine calls and the harness's own checks.
    Op,
    /// `put`, `put_many`, `commit_map_batch`, `append_block`,
    /// `state_put_many`, `flush_state`, `fork`, `remove_branch`.
    CoreCommit,
    /// `get`, `get_value`, `track`, `state_get`.
    CoreRead,
    /// `merge_branches` (its POS-Tree merge is not separable from
    /// outside; `PosMerge` estimates that share by replay).
    CoreMerge,
    /// `new_blob`, `Dataset::import`.
    PosBuild,
    /// `Blob::splice` / `Blob::insert`.
    PosUpdate,
    /// `Blob::read_all`.
    PosRead,
    /// `Dataset::diff_versions`.
    PosDiff,
    /// `merge3_sorted` replayed on a sampled merge's three roots.
    PosMerge,
    /// `Cluster::get_blob`.
    ClusterGet,
    /// `Cluster::put_blob`.
    ClusterPut,
    /// `ChunkStore::get` / `get_many` under a client span.
    ChunkGet,
    /// `ChunkStore::put` / `put_many` under a client span.
    ChunkPut,
    /// Chunk reads on threads the engine owns (cluster server threads).
    ChunkGetBg,
    /// Chunk writes on threads the engine owns (hot-tier publisher,
    /// cluster server threads).
    ChunkPutBg,
}

/// Every kind, in declaration order.
pub const KINDS: [Kind; 15] = [
    Kind::Op,
    Kind::CoreCommit,
    Kind::CoreRead,
    Kind::CoreMerge,
    Kind::PosBuild,
    Kind::PosUpdate,
    Kind::PosRead,
    Kind::PosDiff,
    Kind::PosMerge,
    Kind::ClusterGet,
    Kind::ClusterPut,
    Kind::ChunkGet,
    Kind::ChunkPut,
    Kind::ChunkGetBg,
    Kind::ChunkPutBg,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "workload.op",
            Kind::CoreCommit => "core.commit",
            Kind::CoreRead => "core.read",
            Kind::CoreMerge => "core.merge",
            Kind::PosBuild => "pos.build",
            Kind::PosUpdate => "pos.update",
            Kind::PosRead => "pos.read",
            Kind::PosDiff => "pos.diff",
            Kind::PosMerge => "pos.merge_replay",
            Kind::ClusterGet => "cluster.get",
            Kind::ClusterPut => "cluster.put",
            Kind::ChunkGet => "chunk.get",
            Kind::ChunkPut => "chunk.put",
            Kind::ChunkGetBg => "chunk.get_bg",
            Kind::ChunkPutBg => "chunk.put_bg",
        }
    }

    pub fn layer(self) -> &'static str {
        self.name()
            .split('.')
            .next()
            .expect("names have a layer prefix")
    }

    /// Spans on engine-owned threads: outside every client's wall time.
    pub fn is_background(self) -> bool {
        matches!(self, Kind::ChunkGetBg | Kind::ChunkPutBg)
    }
}

/// Totals of one span kind over a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Chunk spans: chunks the calls moved. Other spans: chunks fetched
    /// by `chunk.get` spans nested anywhere below them.
    pub chunks: u64,
}

impl KindTotals {
    pub fn self_us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

#[derive(Default)]
struct Agg {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    chunks: AtomicU64,
}

struct SpanRec {
    id: u64,
    parent: u64,
    op_id: u64,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
}

/// Span records kept per pass; sampled operations beyond it still count
/// in the totals but leave no record.
const MAX_SPAN_RECORDS: usize = 200_000;
/// Payload bytes kept for the crypto replay.
const MAX_REPLAY_BYTES: usize = 64 << 20;

struct Tracer {
    enabled: AtomicBool,
    epoch: Mutex<Option<Instant>>,
    next_id: AtomicU64,
    agg: [Agg; KINDS.len()],
    spans: Mutex<Vec<SpanRec>>,
    replay: Mutex<(Vec<Chunk>, usize)>,
    sampling: AtomicBool,
    sampled_ops: AtomicU64,
}

static TRACER: Tracer = Tracer {
    enabled: AtomicBool::new(false),
    epoch: Mutex::new(None),
    next_id: AtomicU64::new(1),
    agg: [const {
        Agg {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        }
    }; KINDS.len()],
    spans: Mutex::new(Vec::new()),
    replay: Mutex::new((Vec::new(), 0)),
    sampling: AtomicBool::new(false),
    sampled_ops: AtomicU64::new(0),
};

#[derive(Clone, Copy, Default)]
struct Tls {
    /// Open spans on this thread.
    depth: u32,
    /// Record id of the innermost open span (0 when not sampled).
    cur_id: u64,
    op_id: u64,
    sampled: bool,
    /// Time covered by closed children of the innermost open span.
    child_ns: u64,
    /// Chunks fetched below the innermost open span.
    child_gets: u64,
}

thread_local! {
    static TLS: Cell<Tls> = const { Cell::new(Tls {
        depth: 0, cur_id: 0, op_id: 0, sampled: false, child_ns: 0, child_gets: 0,
    }) };
}

/// A kind's slot in the totals: [`KINDS`] lists them in declaration order.
fn idx(kind: Kind) -> usize {
    kind as usize
}

/// Start recording, with all totals and records cleared.
pub fn enable() {
    for a in &TRACER.agg {
        a.calls.store(0, Ordering::Relaxed);
        a.total_ns.store(0, Ordering::Relaxed);
        a.self_ns.store(0, Ordering::Relaxed);
        a.chunks.store(0, Ordering::Relaxed);
    }
    TRACER.spans.lock().expect("span lock").clear();
    *TRACER.replay.lock().expect("replay lock") = (Vec::new(), 0);
    TRACER.sampled_ops.store(0, Ordering::Relaxed);
    TRACER.sampling.store(false, Ordering::Relaxed);
    *TRACER.epoch.lock().expect("epoch lock") = Some(Instant::now());
    TRACER.enabled.store(true, Ordering::SeqCst);
}

fn disable() {
    TRACER.enabled.store(false, Ordering::SeqCst);
}

/// Keep span records and chunk payloads for sampled operations from now
/// on (off after [`enable`], so set-up and warm-up leave only totals).
pub fn start_sampling() {
    TRACER.sampling.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    TRACER.enabled.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    kind: Kind,
    start: Instant,
    id: u64,
    /// The enclosing span's state, restored (plus this span's time) on close.
    outer: Tls,
    /// Chunks this span itself moved (chunk kinds only).
    own_chunks: u64,
}

/// Open the root span of client operation `op_id`; every `sample_every`th
/// operation also keeps its span records and chunk payloads.
pub fn op(op_id: u64, sample_every: u64) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    let sampled = TRACER.sampling.load(Ordering::Relaxed) && op_id.is_multiple_of(sample_every);
    if sampled {
        TRACER.sampled_ops.fetch_add(1, Ordering::Relaxed);
    }
    TLS.with(|t| {
        let mut s = t.get();
        s.op_id = op_id;
        s.sampled = sampled;
        t.set(s);
    });
    open(Kind::Op, 0)
}

/// Whether the operation open on this thread keeps its span records.
pub fn sampled() -> bool {
    TLS.with(Cell::get).sampled
}

/// Open a span around a call into a layer.
pub fn span(kind: Kind) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    open(kind, 0)
}

fn open(kind: Kind, own_chunks: u64) -> Span {
    let outer = TLS.with(Cell::get);
    let id = if outer.sampled {
        TRACER.next_id.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    TLS.with(|t| {
        t.set(Tls {
            depth: outer.depth + 1,
            cur_id: id,
            child_ns: 0,
            child_gets: 0,
            ..outer
        })
    });
    Span {
        live: Some(LiveSpan {
            kind,
            start: Instant::now(),
            id,
            outer,
            own_chunks,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end = Instant::now();
        let dur = end.duration_since(live.start).as_nanos() as u64;
        let inner = TLS.with(Cell::get);
        let is_get = matches!(live.kind, Kind::ChunkGet | Kind::ChunkGetBg);
        let gets_below = inner.child_gets + if is_get { live.own_chunks } else { 0 };
        let a = &TRACER.agg[idx(live.kind)];
        a.calls.fetch_add(1, Ordering::Relaxed);
        a.total_ns.fetch_add(dur, Ordering::Relaxed);
        a.self_ns
            .fetch_add(dur.saturating_sub(inner.child_ns), Ordering::Relaxed);
        let chunks = if live.own_chunks > 0 {
            live.own_chunks
        } else {
            inner.child_gets
        };
        a.chunks.fetch_add(chunks, Ordering::Relaxed);

        if live.outer.sampled {
            let epoch = TRACER
                .epoch
                .lock()
                .expect("epoch lock")
                .expect("enabled sets the epoch");
            let mut spans = TRACER.spans.lock().expect("span lock");
            if spans.len() < MAX_SPAN_RECORDS {
                spans.push(SpanRec {
                    id: live.id,
                    parent: live.outer.cur_id,
                    op_id: live.outer.op_id,
                    kind: live.kind,
                    start_ns: live.start.duration_since(epoch).as_nanos() as u64,
                    end_ns: end.duration_since(epoch).as_nanos() as u64,
                });
            }
        }

        let mut outer = live.outer;
        outer.child_ns += dur;
        outer.child_gets += gets_below;
        if outer.depth == 0 {
            // Closing a root: the next operation starts clean.
            outer = Tls::default();
        }
        TLS.with(|t| t.set(outer));
    }
}

/// A [`ChunkStore`] that records a `chunk.*` span around every call into
/// the store it wraps — the only way to time the chunk layer without
/// editing it. Injected between the engine and its cache + log.
pub struct TracedStore {
    inner: Arc<dyn ChunkStore>,
}

impl TracedStore {
    pub fn wrap(inner: Arc<dyn ChunkStore>) -> Arc<dyn ChunkStore> {
        Arc::new(TracedStore { inner })
    }

    fn open(&self, get: bool, chunks: usize) -> Span {
        if !enabled() {
            return Span { live: None };
        }
        let client = TLS.with(Cell::get).depth > 0;
        let kind = match (get, client) {
            (true, true) => Kind::ChunkGet,
            (true, false) => Kind::ChunkGetBg,
            (false, true) => Kind::ChunkPut,
            (false, false) => Kind::ChunkPutBg,
        };
        open(kind, chunks as u64)
    }

    fn keep_for_replay(&self, chunks: &[Chunk]) {
        if !enabled() || !TLS.with(Cell::get).sampled {
            return;
        }
        let mut kept = TRACER.replay.lock().expect("replay lock");
        for c in chunks {
            if kept.1 + c.len() > MAX_REPLAY_BYTES {
                break;
            }
            kept.1 += c.len();
            kept.0.push(c.clone());
        }
    }
}

impl ChunkStore for TracedStore {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        let _s = self.open(true, 1);
        self.inner.get(cid)
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        let _s = self.open(true, cids.len());
        self.inner.get_many(cids)
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.keep_for_replay(std::slice::from_ref(&chunk));
        let _s = self.open(false, 1);
        self.inner.put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        self.keep_for_replay(&chunks);
        let _s = self.open(false, chunks.len());
        self.inner.put_many(chunks)
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.inner.contains(cid)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Per-kind totals at one moment of a traced pass.
#[derive(Clone)]
pub struct Totals(Vec<(Kind, KindTotals)>);

impl Totals {
    pub fn get(&self, kind: Kind) -> KindTotals {
        self.0[idx(kind)].1
    }

    /// What was recorded after `earlier` was taken.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|(&(k, now), &(_, then))| {
                    (
                        k,
                        KindTotals {
                            calls: now.calls - then.calls,
                            total_ns: now.total_ns - then.total_ns,
                            self_ns: now.self_ns - then.self_ns,
                            chunks: now.chunks - then.chunks,
                        },
                    )
                })
                .collect(),
        )
    }

    /// Sum of self times on client threads — compared with the clients'
    /// wall time to show the spans cover it.
    pub fn client_self_ns(&self) -> u64 {
        self.0
            .iter()
            .filter(|(k, _)| !k.is_background())
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// The self-time table, one row per span kind that occurred.
    pub fn table(&self, client_wall_ns: u64) -> String {
        let mut out = format!(
            "{:<18} {:>10} {:>12} {:>12} {:>13} {:>7}\n",
            "span", "calls", "total_ms", "self_ms", "self_us/call", "wall%"
        );
        for (kind, t) in self.0.iter().filter(|(_, t)| t.calls > 0) {
            let share = if kind.is_background() {
                "bg".to_string()
            } else {
                format!(
                    "{:.1}",
                    100.0 * t.self_ns as f64 / client_wall_ns.max(1) as f64
                )
            };
            out.push_str(&format!(
                "{:<18} {:>10} {:>12.2} {:>12.2} {:>13.2} {:>7}\n",
                kind.name(),
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_us_per_call(),
                share
            ));
        }
        out
    }
}

/// The totals recorded so far.
pub fn totals() -> Totals {
    Totals(
        KINDS
            .iter()
            .map(|&k| {
                let a = &TRACER.agg[idx(k)];
                (
                    k,
                    KindTotals {
                        calls: a.calls.load(Ordering::Relaxed),
                        total_ns: a.total_ns.load(Ordering::Relaxed),
                        self_ns: a.self_ns.load(Ordering::Relaxed),
                        chunks: a.chunks.load(Ordering::Relaxed),
                    },
                )
            })
            .collect(),
    )
}

/// What the sampled operations of a traced pass left behind.
pub struct Sampled {
    pub ops: u64,
    pub span_records: usize,
    /// Time to re-run boundary detection and SHA-256 over the chunks the
    /// sampled operations stored — an **estimate** of the crypto layer's
    /// share, made outside the engine.
    pub crypto_replay_ns: u64,
    pub crypto_replay_bytes: u64,
}

/// Stop recording; write the sampled span records to `jsonl` and replay
/// the sampled chunks through the crypto layer.
pub fn finish(cfg: &ChunkerConfig, jsonl: &Path) -> std::io::Result<Sampled> {
    disable();
    let spans = std::mem::take(&mut *TRACER.spans.lock().expect("span lock"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(jsonl)?);
    for s in &spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.op_id,
            s.kind.name(),
            s.kind.layer(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()?;
    let (kept, kept_bytes) = std::mem::take(&mut *TRACER.replay.lock().expect("replay lock"));
    let start = Instant::now();
    for c in &kept {
        std::hint::black_box(sha256(std::hint::black_box(c.payload())));
        if c.ty().is_leaf() {
            std::hint::black_box(split_positions(c.payload(), cfg));
        }
    }
    Ok(Sampled {
        ops: TRACER.sampled_ops.load(Ordering::Relaxed),
        span_records: spans.len(),
        crypto_replay_ns: start.elapsed().as_nanos() as u64,
        crypto_replay_bytes: kept_bytes as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::{ChunkType, MemStore};

    /// Tracing state is process-global, so the trace tests share one test.
    #[test]
    fn self_time_excludes_children_and_spans_are_linked() {
        let _alone = crate::tests::exclusive();
        assert!(KINDS.iter().enumerate().all(|(i, k)| idx(*k) == i));
        let store = TracedStore::wrap(Arc::new(MemStore::new()));
        // Disabled: calls pass through and nothing is counted.
        store.put(Chunk::new(ChunkType::Blob, &b"before"[..]));
        enable();
        start_sampling();
        {
            let _op = op(0, 1);
            let _core = span(Kind::CoreCommit);
            std::thread::sleep(std::time::Duration::from_millis(2));
            store.put(Chunk::new(ChunkType::Blob, vec![7u8; 5000]));
            store.get_many(&[Digest::from_bytes([0; 32]), Digest::from_bytes([1; 32])]);
        }
        // No client span open: the same call counts as background.
        store.put(Chunk::new(ChunkType::Blob, &b"bg"[..]));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("t.jsonl");
        let report = totals();
        let sampled = finish(&ChunkerConfig::default(), &path).expect("finish");

        let core = report.get(Kind::CoreCommit);
        let put = report.get(Kind::ChunkPut);
        let get = report.get(Kind::ChunkGet);
        assert_eq!((core.calls, put.calls, get.calls), (1, 1, 1));
        assert_eq!((put.chunks, get.chunks), (1, 2));
        assert_eq!(core.chunks, 2, "chunks fetched below the core span");
        assert_eq!(core.self_ns, core.total_ns - put.total_ns - get.total_ns);
        assert!(core.self_ns >= 2_000_000);
        assert_eq!(report.get(Kind::ChunkPutBg).calls, 1);
        let op_t = report.get(Kind::Op);
        assert_eq!(
            report.client_self_ns(),
            op_t.total_ns,
            "self times sum to the root"
        );
        assert_eq!((sampled.ops, sampled.span_records), (1, 4));
        assert_eq!(sampled.crypto_replay_bytes, 5000);
        assert_eq!(report.since(&report).client_self_ns(), 0);

        let text = std::fs::read_to_string(&path).expect("jsonl");
        let lines: Vec<crate::json::Json> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).expect("valid json line"))
            .collect();
        assert_eq!(lines.len(), 4, "op, core, put, get");
        let root = lines
            .iter()
            .find(|l| l.get("name").and_then(|n| n.as_str()) == Some("workload.op"))
            .expect("root span");
        let core_line = lines
            .iter()
            .find(|l| l.get("name").and_then(|n| n.as_str()) == Some("core.commit"))
            .expect("core span");
        assert_eq!(core_line.get("parent"), root.get("id"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
