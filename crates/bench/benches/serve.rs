//! RESP serving benchmark: YCSB closed loops against a live loopback
//! TCP server vs the same schedules dispatched in-process.
//!
//! A `RespServer` fronts one `RedisLite`; 64/256/512 client connections
//! (one closed loop each, dialed before the start barrier so connection
//! setup never pollutes the window) drive YCSB-A/B/C (50/95/100% reads,
//! zipf 0.99) through the wire. The in-process baseline runs the same
//! schedules straight into `RedisLite::execute` — the identical dispatch
//! path minus the socket — so the delta is the pure serving tax: RESP
//! framing, syscalls, and per-connection threads.
//!
//! Each cell takes [`SAMPLES`] samples. A sample runs its closed loops
//! for `CRITERION_SAMPLE_MS` (default 300) of wall time, replaying each
//! loop's pre-generated schedule as often as that takes, so a cell is
//! timed over whole scheduling quanta rather than a few hundred
//! microseconds of thread start-up. The cell reports its median sample
//! and the spread of all of them.
//!
//! Results append to `$CRITERION_JSON`: the median sample's per-op cost,
//! ops/s and `p50_ns`/`p95_ns`/`p99_ns`/`max_ns` latencies, then
//! `samples` and the lowest and highest ops/s, so `scripts/bench.sh` can
//! assemble `BENCH_serve.json` with tail latencies included.

use bytes::Bytes;
use fb_bench::*;
use fb_workload::{run_closed_loop_for, DriverReport, Op, YcsbConfig, YcsbGen};
use redislite::{Cmd, RedisLite, RespClient, RespServer};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const N_KEYS: usize = 10_000;
const VALUE_SIZE: usize = 100;
const ZIPF: f64 = 0.99;
const CONNS: [usize; 3] = [64, 256, 512];
const WORKLOADS: [(&str, f64); 3] = [("a", 0.5), ("b", 0.95), ("c", 1.0)];
/// Samples per cell.
const SAMPLES: usize = 3;

/// One sample's wall time.
fn sample_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    Duration::from_millis(ms)
}

/// A cell's samples, sorted by throughput.
struct Cell(Vec<DriverReport>);

impl Cell {
    fn sample(mut run: impl FnMut() -> DriverReport) -> Cell {
        let mut samples: Vec<DriverReport> = (0..SAMPLES).map(|_| run()).collect();
        samples.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
        Cell(samples)
    }

    fn median(&self) -> &DriverReport {
        &self.0[self.0.len() / 2]
    }

    /// Highest over lowest throughput.
    fn spread(&self) -> f64 {
        self.0[self.0.len() - 1].ops_per_sec / self.0[0].ops_per_sec
    }
}

/// Pre-generate one closed loop's command schedule so RNG cost stays
/// out of the measured window. Seeds differ per worker, so connections
/// don't lockstep over the same keys.
fn schedule(read_ratio: f64, worker: usize, ops: usize) -> Vec<Cmd> {
    let mut gen = YcsbGen::new(YcsbConfig {
        n_keys: N_KEYS,
        read_ratio,
        value_size: VALUE_SIZE,
        zipf: ZIPF,
        seed: 0x5e17e + worker as u64,
    });
    (0..ops)
        .map(|_| match gen.next_op() {
            Op::Read(k) => Cmd::Get(k),
            Op::Write(k, v) => Cmd::Set(k, v),
        })
        .collect()
}

/// Preload every key so YCSB-B/C reads hit instead of returning nil.
fn preload(db: &RedisLite) {
    let mut gen = YcsbGen::new(YcsbConfig {
        n_keys: N_KEYS,
        value_size: VALUE_SIZE,
        ..YcsbConfig::default()
    });
    for chunk_start in (0..N_KEYS).step_by(1024) {
        let pairs: Vec<(Bytes, Bytes)> = (chunk_start..(chunk_start + 1024).min(N_KEYS))
            .map(|i| (YcsbGen::key(i), gen.value()))
            .collect();
        db.execute(Cmd::MSet(pairs));
    }
}

fn emit(id: &str, cell: &Cell) {
    let r = cell.median();
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                file,
                concat!(
                    "{{\"bench\":\"{}\",\"median_ns_per_iter\":{:.1},",
                    "\"ops_per_sec\":{:.1},\"unit\":\"elements\",\"units_per_iter\":1,",
                    "\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},",
                    "\"samples\":{},\"min_ops_per_sec\":{:.1},\"max_ops_per_sec\":{:.1}}}"
                ),
                id,
                r.ns_per_op(),
                r.ops_per_sec,
                r.p50_ns,
                r.p95_ns,
                r.p99_ns,
                r.max_ns,
                cell.0.len(),
                cell.0[0].ops_per_sec,
                cell.0[cell.0.len() - 1].ops_per_sec,
            );
        }
    }
}

fn report_row(wl: &str, conns: usize, transport: &str, cell: &Cell) {
    let r = cell.median();
    row(&[
        format!("ycsb-{}", wl.to_uppercase()),
        conns.to_string(),
        transport.to_string(),
        format!("{:.0}", r.ops_per_sec),
        format!("×{:.2}", cell.spread()),
        format!("{}", r.p50_ns / 1000),
        format!("{}", r.p99_ns / 1000),
        format!("{}", r.max_ns / 1000),
    ]);
}

fn main() {
    banner(
        "resp serve",
        "YCSB-A/B/C closed loops over loopback RESP vs in-process dispatch",
    );
    // Each loop replays a schedule of this many commands.
    let schedule_len = scaled(128);
    let budget = sample_budget();
    header(&[
        "workload",
        "conns",
        "transport",
        "ops/s",
        "spread",
        "p50 us",
        "p99 us",
        "max us",
    ]);
    for (wl, read_ratio) in WORKLOADS {
        let db = Arc::new(RedisLite::new());
        preload(&db);
        let server = RespServer::bind("127.0.0.1:0", Arc::clone(&db)).expect("bind");
        let addr = server.addr();

        // In-process baseline: the same schedules, the same execute()
        // entry point, no wire. 64 loops matches the smallest conn
        // sweep so the two 64-way cells are directly comparable.
        let inproc_workers = 64;
        let schedules: Vec<Vec<Cmd>> = (0..inproc_workers)
            .map(|t| schedule(read_ratio, t, schedule_len))
            .collect();
        let cell = Cell::sample(|| {
            run_closed_loop_for(
                inproc_workers,
                budget,
                |_| (),
                |(), t, i| {
                    db.execute(schedules[t][i % schedule_len].clone());
                },
            )
        });
        report_row(wl, inproc_workers, "inproc", &cell);
        emit(
            &format!("resp_serve/{wl}_inproc_conns{inproc_workers}"),
            &cell,
        );

        for conns in CONNS {
            let schedules: Vec<Vec<Cmd>> = (0..conns)
                .map(|t| schedule(read_ratio, t, schedule_len))
                .collect();
            let cell = Cell::sample(|| {
                run_closed_loop_for(
                    conns,
                    budget,
                    |_| {
                        let mut client = RespClient::connect(addr).expect("dial");
                        // One round trip warms the connection (and the
                        // server's handler thread) before the barrier.
                        client.execute(&Cmd::Ping).expect("ping");
                        client
                    },
                    |client, t, i| {
                        client
                            .execute(&schedules[t][i % schedule_len])
                            .expect("wire op");
                    },
                )
            });
            report_row(wl, conns, "tcp", &cell);
            emit(&format!("resp_serve/{wl}_conns{conns}"), &cell);
        }
        drop(server);
    }
    println!(
        "\npaper shape check: the wire tax (tcp vs inproc per-op median) is paid once per\n\
         round trip, so read-heavy YCSB-C shows the largest relative gap (its in-process\n\
         ops are cheapest); p99 grows with connection count as closed loops queue on the\n\
         shared store and the accept-side threads contend for cores."
    );
}
