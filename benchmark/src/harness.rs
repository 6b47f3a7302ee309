//! Running one workload: a few rounds of load phase, discarded warm-up
//! segment, measured segments and oracle, pooled into one result — and,
//! for `--trace 1`, the passes that attribute time to layers.

use crate::stats::{highest_supported_percentile, median, percentile, segment_median_ops_per_s};
use crate::trace::{self, Kind, Totals};
use crate::workloads::{self, Extras, Mode, Scale, Workload};
use forkbase_core::ChunkerConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured segments of a round at `--seconds 10` and at least, after
/// which `stored_bytes_per_user_byte` is taken: a fixed operation count,
/// so the ratio repeats exactly for a seed however fast the host is.
pub const FIXED_SEGMENTS: u64 = 8;

/// Name, unit and direction of every end-to-end metric, in report order.
/// The gated tail is p90: on the shared 2-core host p99 of the same code
/// differs between runs by up to a quarter (a millisecond-scale operation's
/// p99 is the host's hiccups), so p99 is reported ungated, as
/// `tail.*_p99_us` among the per-layer metrics and in every run's output.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_p90_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("write_p90_us", "us", "lower"),
    ("stored_bytes_per_user_byte", "B/B", "lower"),
    ("setup_s", "s", "lower"),
];

/// Name, unit and direction of every per-layer metric. A workload that
/// does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("tail.read_p99_us", "us", "lower"),
    ("tail.write_p99_us", "us", "lower"),
    ("core.commit_self_us", "us", "lower"),
    ("core.read_self_us", "us", "lower"),
    ("core.merge_self_us", "us", "lower"),
    ("core.hot_hits", "1/kop", "higher"),
    ("core.hot_misses", "1/kop", "lower"),
    ("core.hot_writes", "1/kop", "lower"),
    ("core.hot_published", "1/kop", "lower"),
    ("core.hot_publish_rounds", "1/kop", "lower"),
    ("core.gc_prune_ms", "ms", "lower"),
    ("core.gc_dropped_chunks", "count", "higher"),
    ("pos.build_self_us", "us", "lower"),
    ("pos.update_self_us", "us", "lower"),
    ("pos.read_self_us", "us", "lower"),
    ("pos.chunks_per_read", "count", "lower"),
    ("pos.diff_self_us", "us", "lower"),
    ("pos.merge_self_us", "us", "lower"),
    ("chunk.put_busy_us", "us/op", "lower"),
    ("chunk.get_busy_us", "us/op", "lower"),
    ("chunk.bg_busy_us", "us/op", "lower"),
    ("chunk.puts", "1/op", "lower"),
    ("chunk.gets", "1/op", "lower"),
    ("chunk.dedup_ratio", "ratio", "higher"),
    ("chunk.cache_hit_rate", "ratio", "higher"),
    ("chunk.cache_evictions", "1/kop", "lower"),
    ("chunk.log_bytes_per_user_byte", "B/B", "lower"),
    ("chunk.io_errors", "count", "lower"),
    ("chunk.reopen_ms", "ms", "lower"),
    ("chunk.reopen_replayed_chunks", "count", "lower"),
    ("crypto.replay_us_per_op", "us", "lower"),
    ("cluster.wire_tax_us", "us", "lower"),
    ("cluster.remote_gets", "1/kop", "lower"),
    ("cluster.remote_cache_hit_rate", "ratio", "higher"),
    ("workload.gen_us_per_op", "us", "lower"),
    ("workload.self_us_per_op", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.attributed_pct", "%", "higher"),
];

#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// How long a run's measured phases should last in all: converted to
    /// an operation count at the reference host's speed, never timed.
    pub seconds: f64,
    pub scale: Scale,
    /// Corrupt one model value before the oracle runs, which must then fail.
    pub self_test: bool,
}

/// Scratch space under the benchmark's own `out/` directory, removed when
/// the run ends — also when it ends by error or panic.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new(out_dir: &Path) -> Result<Scratch, String> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh empty directory; the previous one is deleted first, so a
    /// run never holds more than one store on disk.
    fn fresh(&mut self) -> Result<PathBuf, String> {
        let _ = std::fs::remove_dir_all(self.root.join(self.next.to_string()));
        self.next += 1;
        let dir = self.root.join(self.next.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one or more rounds over a workload measured, pooled.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each round's load phase.
    pub setup_s: Vec<f64>,
    /// `(operations, wall ns)` of each measured segment.
    pub segments: Vec<(u64, u64)>,
    /// Latencies of the measured phases, ascending.
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    /// Operations and oracle comparisons.
    pub attempted: u64,
    pub failed: u64,
    pub oracle_checked: u64,
    pub oracle_failed: u64,
    /// Each round's stored ÷ user bytes after [`FIXED_SEGMENTS`] segments.
    pub stored_per_user_byte: Vec<f64>,
    pub gen_ns: u64,
    /// Hash of the operations of every round's first [`FIXED_SEGMENTS`]
    /// segments: equal hashes, equal inputs.
    pub schedule_hash: u64,
    /// Sum over segments and clients of the time spent in operation loops.
    pub client_ns: u64,
    /// The last round's engine counters, reopen time included.
    pub extras: Extras,
    pub config: &'static str,
    /// Traced rounds: totals of the load phase and of the measured phase.
    pub traced: Option<(Totals, Totals)>,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.0).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        segment_median_ops_per_s(&self.segments)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Pool another round into this one (the latencies are left unsorted).
    fn absorb(&mut self, round: Pass) {
        self.setup_s.extend(round.setup_s);
        self.segments.extend(round.segments);
        self.reads_ns.extend(round.reads_ns);
        self.writes_ns.extend(round.writes_ns);
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.oracle_checked += round.oracle_checked;
        self.oracle_failed += round.oracle_failed;
        self.stored_per_user_byte.extend(round.stored_per_user_byte);
        self.gen_ns += round.gen_ns;
        self.schedule_hash = workloads::fold_hash(self.schedule_hash, round.schedule_hash);
        self.client_ns += round.client_ns;
        self.extras = round.extras;
        self.config = round.config;
        self.traced = round.traced;
    }

    /// Every end-to-end metric, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let values = [
            self.ops_per_s(),
            percentile_us(&self.reads_ns, 50.0),
            percentile_us(&self.reads_ns, 90.0),
            percentile_us(&self.writes_ns, 50.0),
            percentile_us(&self.writes_ns, 90.0),
            median(&self.stored_per_user_byte),
            median(&self.setup_s),
        ];
        END_TO_END.iter().map(|m| m.0).zip(values).collect()
    }

    /// Ungated context for the latency metrics: sample counts, p99, and
    /// the highest percentile each class of operation supports.
    pub fn tails(&self) -> String {
        let class = |name: &str, sorted: &[u64]| {
            let mut text = format!(
                "{name}: {} samples, p99 = {:.1} us",
                sorted.len(),
                percentile_us(sorted, 99.0)
            );
            match highest_supported_percentile(sorted.len()) {
                Some(p) if p > 99.0 => {
                    text.push_str(&format!(", p{p} = {:.1} us", percentile_us(sorted, p)))
                }
                Some(p) if p < 99.0 => {
                    text.push_str(&format!(" (fewer than 10 samples beyond it; p{p} has 10)"))
                }
                Some(_) => {}
                None => text.push_str(" (too few samples for any percentile)"),
            }
            text
        };
        format!(
            "{}; {}",
            class("read", &self.reads_ns),
            class("write", &self.writes_ns)
        )
    }
}

/// Percentile `p` of ascending nanosecond samples, in µs (0 for none).
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p) as f64 / 1e3
    }
}

/// One round of workload `name`: load, warm up, measure `segments`
/// segments, verify. Returns the workload still loaded.
fn run_round(
    name: &str,
    opts: RunOpts,
    segments: u64,
    mode: Mode,
    scratch: &mut Scratch,
) -> Result<(Pass, Box<dyn Workload>), String> {
    let mut w = workloads::build(name, opts.seed, opts.scale)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if mode.traced {
        trace::enable();
    }
    let dir = scratch.fresh()?;
    let t = Instant::now();
    w.load(&dir, mode)?;
    let mut pass = Pass {
        setup_s: vec![t.elapsed().as_secs_f64()],
        config: workloads::config(name),
        ..Pass::default()
    };
    let after_load = trace::totals();

    w.segment(0); // warm-up: caches fill, lazy set-up finishes
    let after_warm_up = trace::totals();
    let mut counters_before = Extras::new();
    w.counters(&mut counters_before);
    trace::start_sampling();

    for idx in 1..=segments.max(FIXED_SEGMENTS) {
        let seg = w.segment(idx);
        let done = (seg.reads_ns.len() + seg.writes_ns.len()) as u64;
        pass.segments.push((done, seg.wall_ns));
        pass.attempted += done + seg.failed;
        pass.failed += seg.failed;
        pass.gen_ns += seg.gen_ns;
        pass.client_ns += seg.client_ns;
        pass.reads_ns.extend(seg.reads_ns);
        pass.writes_ns.extend(seg.writes_ns);
        if idx <= FIXED_SEGMENTS {
            pass.schedule_hash = workloads::fold_hash(pass.schedule_hash, seg.schedule_hash);
        }
        if idx == FIXED_SEGMENTS {
            let (stored, user) = w.bytes();
            pass.stored_per_user_byte = vec![stored as f64 / user.max(1) as f64];
        }
    }
    pass.reads_ns.sort_unstable();
    pass.writes_ns.sort_unstable();
    if mode.traced {
        pass.traced = Some((after_load, trace::totals().since(&after_warm_up)));
    }

    w.counters(&mut pass.extras);
    for (name, v) in &mut pass.extras {
        if !name.starts_with("gauge.") {
            *v -= counters_before[name];
        }
    }
    if opts.self_test {
        w.corrupt_model();
    }
    let oracle = w.verify(!mode.traced)?;
    pass.extras.insert("gauge.reopen_ms", oracle.reopen_ms);
    pass.extras.insert(
        "gauge.reopen_replayed_chunks",
        oracle.reopen_replayed_chunks as f64,
    );
    pass.oracle_checked = oracle.checked;
    pass.oracle_failed = oracle.failed;
    pass.attempted += oracle.checked;
    pass.failed += oracle.failed;
    Ok((pass, w))
}

/// A round's measured phase is a fixed number of operations — its share
/// of `--seconds` at the reference host's speed — so that both sides of a
/// comparison do the same work on the same data.
fn segments_per_round(seconds: f64) -> u64 {
    (FIXED_SEGMENTS as f64 * seconds / 10.0).round() as u64
}

/// An untraced run: [`workloads::rounds`] rounds, each with a sub-seed of
/// `--seed`.
pub fn run(name: &str, opts: RunOpts, scratch: &mut Scratch) -> Result<Pass, String> {
    let rounds = workloads::rounds(name);
    let segments = segments_per_round(opts.seconds);
    let mut pooled = Pass::default();
    for round in 0..rounds {
        let round_opts = RunOpts {
            seed: opts.seed * rounds + round,
            ..opts
        };
        let (pass, _) = run_round(name, round_opts, segments, Mode::default(), scratch)?;
        pooled.absorb(pass);
    }
    pooled.reads_ns.sort_unstable();
    pooled.writes_ns.sort_unstable();
    Ok(pooled)
}

/// What a traced run found.
pub struct Traced {
    /// The traced round, with the other rounds' failures counted in.
    pub pass: Pass,
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The self-time tables, for a person to read.
    pub table: String,
}

/// `--trace 1`: an untraced reference round and a traced round of half the
/// time each (plus, for `cluster_tcp`, the same schedule in process), and
/// every per-layer metric worked out from them. Writes the sampled spans
/// to `out_dir/trace-<workload>.jsonl`.
pub fn run_traced(name: &str, opts: RunOpts, out_dir: &Path) -> Result<Traced, String> {
    let mut scratch = Scratch::new(out_dir)?;
    let half = RunOpts {
        seconds: opts.seconds / 2.0,
        ..opts
    };
    let segments = segments_per_round(half.seconds);
    let (reference, mut ref_workload) =
        run_round(name, half, segments, Mode::default(), &mut scratch)?;
    let mut extras = Extras::new();
    ref_workload.maintenance(&mut extras);
    drop(ref_workload);

    let traced_mode = Mode {
        traced: true,
        ..Mode::default()
    };
    let (traced, traced_workload) = run_round(name, half, segments, traced_mode, &mut scratch)?;
    let jsonl = out_dir.join(format!("trace-{name}.jsonl"));
    let sampled = trace::finish(&ChunkerConfig::default(), &jsonl)
        .map_err(|e| format!("write {}: {e}", jsonl.display()))?;
    drop(traced_workload);

    let (load, run) = traced.traced.as_ref().expect("traced round has totals");
    let ops = traced.ops().max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / 1e3 / ops;
    let self_us = |kind: Kind| run.get(kind).self_us_per_call();

    // Engine counters over the measured phase of the traced round (whose
    // store stack is the one the spans describe), as ratios or per 1 000
    // operations; reopen and prune from the reference round, the only one
    // that is a real durable instance.
    let counter = |name: &str| traced.extras.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let per_kop = |name: &str| counter(name) * 1e3 / ops;
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    let (remote_hits, remote_misses) = (counter("remote.hits"), counter("remote.misses"));
    extras.extend([
        ("core.hot_hits", per_kop("hot.hits")),
        ("core.hot_misses", per_kop("hot.misses")),
        ("core.hot_writes", per_kop("hot.writes")),
        ("core.hot_published", per_kop("hot.published")),
        ("core.hot_publish_rounds", per_kop("hot.publish_rounds")),
        (
            "chunk.dedup_ratio",
            ratio(counter("store.dedup_hits"), counter("store.puts")),
        ),
        ("chunk.cache_hit_rate", ratio(hits, hits + misses)),
        ("chunk.cache_evictions", per_kop("cache.evictions")),
        (
            "chunk.log_bytes_per_user_byte",
            counter("gauge.log_bytes_per_user_byte"),
        ),
        ("chunk.io_errors", counter("store.io_errors")),
        ("chunk.reopen_ms", reference.extras["gauge.reopen_ms"]),
        (
            "chunk.reopen_replayed_chunks",
            reference.extras["gauge.reopen_replayed_chunks"],
        ),
        (
            "cluster.remote_gets",
            (remote_hits + remote_misses) * 1e3 / ops,
        ),
        (
            "cluster.remote_cache_hit_rate",
            ratio(remote_hits, remote_hits + remote_misses),
        ),
    ]);

    extras.insert("tail.read_p99_us", percentile_us(&reference.reads_ns, 99.0));
    extras.insert(
        "tail.write_p99_us",
        percentile_us(&reference.writes_ns, 99.0),
    );
    extras.insert("core.commit_self_us", self_us(Kind::CoreCommit));
    extras.insert("core.read_self_us", self_us(Kind::CoreRead));
    extras.insert("core.merge_self_us", self_us(Kind::CoreMerge));
    extras.insert(
        "pos.build_self_us",
        load.get(Kind::PosBuild).self_us_per_call(),
    );
    extras.insert("pos.update_self_us", self_us(Kind::PosUpdate));
    extras.insert("pos.read_self_us", self_us(Kind::PosRead));
    let reads = run.get(Kind::PosRead);
    extras.insert(
        "pos.chunks_per_read",
        reads.chunks as f64 / reads.calls.max(1) as f64,
    );
    extras.insert("pos.diff_self_us", self_us(Kind::PosDiff));
    extras.insert("pos.merge_self_us", self_us(Kind::PosMerge));
    let (put, get) = (run.get(Kind::ChunkPut), run.get(Kind::ChunkGet));
    let (put_bg, get_bg) = (run.get(Kind::ChunkPutBg), run.get(Kind::ChunkGetBg));
    extras.insert("chunk.put_busy_us", per_op_us(put.total_ns));
    extras.insert("chunk.get_busy_us", per_op_us(get.total_ns));
    extras.insert(
        "chunk.bg_busy_us",
        per_op_us(put_bg.total_ns + get_bg.total_ns),
    );
    extras.insert("chunk.puts", (put.chunks + put_bg.chunks) as f64 / ops);
    extras.insert("chunk.gets", (get.chunks + get_bg.chunks) as f64 / ops);
    extras.insert(
        "crypto.replay_us_per_op",
        sampled.crypto_replay_ns as f64 / 1e3 / sampled.ops.max(1) as f64,
    );
    extras.insert("workload.gen_us_per_op", per_op_us(traced.gen_ns));
    extras.insert(
        "workload.self_us_per_op",
        per_op_us(run.get(Kind::Op).self_ns),
    );
    extras.insert(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ops_per_s() / reference.ops_per_s()),
    );
    let attributed = 100.0 * run.client_self_ns() as f64 / traced.client_ns.max(1) as f64;
    extras.insert("trace.attributed_pct", attributed);

    let mut failed = reference.failed + traced.failed;
    let mut attempted = reference.attempted + traced.attempted;
    if name == "cluster_tcp" {
        let inproc = Mode {
            inproc: true,
            ..Mode::default()
        };
        let (local, _) = run_round(name, half, segments, inproc, &mut scratch)?;
        let p50 = |p: &Pass| {
            let mut all: Vec<u64> = p.reads_ns.iter().chain(&p.writes_ns).copied().collect();
            all.sort_unstable();
            percentile(&all, 50.0) as f64 / 1e3
        };
        extras.insert("cluster.wire_tax_us", p50(&reference) - p50(&local));
        failed += local.failed;
        attempted += local.attempted;
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.0, extras.get(m.0).copied().unwrap_or(0.0)))
        .collect();
    let table = format!(
        "load phase ({:.1} ms)\n{}measured phase: {} ops, {} sampled with {} span records -> {}\n{}\
         client wall {:.1} ms, attributed {attributed:.1} %; crypto replay of {} sampled bytes (estimated)\n",
        traced.setup_s[0] * 1e3,
        load.table((traced.setup_s[0] * 1e9) as u64),
        traced.ops(),
        sampled.ops,
        sampled.span_records,
        jsonl.display(),
        run.table(traced.client_ns),
        traced.client_ns as f64 / 1e6,
        sampled.crypto_replay_bytes,
    );
    // A failure in any round fails the run.
    let pass = Pass {
        attempted,
        failed,
        ..traced
    };
    Ok(Traced {
        pass,
        metrics,
        table,
    })
}
