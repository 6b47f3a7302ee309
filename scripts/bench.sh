#!/usr/bin/env bash
# Run the micro benches and assemble one result file per area:
#
# * BENCH_chunking.json — raw criterion results (ops/s, MB/s per bench)
#   plus derived speedups of each optimized phase over its in-process
#   reference oracle (rolling scan, SHA-256, end-to-end chunking).
# * BENCH_map_batch.json — the batched write path: per-edit cost of
#   pos_map_100k/put_batch_{10,1k,100k} vs the sequential put_one loop,
#   with derived per-edit speedups.
# * BENCH_build.json — from-scratch builds: the run-scanning copy-free
#   path vs the retained element-at-a-time path, for Blob/Map/Set.
# * BENCH_store.json — the durable chunk store: group-commit LogStore
#   put/get/reopen vs MemStore and vs fsync-per-put, the group-commit
#   batch sweep, and snapshot-vs-full-scan reopen.
# * BENCH_read.json — the read tier: YCSB-C zipfian reads on MemStore vs
#   bare LogStore vs the sharded-cache LogStore, plus the cache-capacity
#   sweep.
# * BENCH_write_scaling.json — the concurrent commit pipeline: YCSB-A
#   closed loops (50/50 read/update, zipfian) on one shared instance,
#   1 → 8 client threads, with derived thread-N/thread-1 scaling factors.
# * BENCH_net.json — the cluster wire: the closed-loop blob workload on
#   1/2/4-node clusters at 8/64 connections, in-process chunk routing vs
#   loopback TCP, with per-op p50/p99 latency and derived tcp/inproc
#   slowdown ratios.
# * BENCH_serve.json — the RESP serving surface: YCSB-A/B/C closed loops
#   through a live loopback RespServer at 64/256/512 connections vs the
#   same schedules dispatched in-process, with p50/p95/p99 per-op
#   latency and derived wire-tax ratios.
# * BENCH_hot.json — the flat hot-state tier: YCSB-C/A zipfian point
#   ops through the hot_get/hot_put engine surface with the tier on
#   (flat hash map + call-cut publish rounds) vs off (cached POS-Tree reads,
#   synchronous commits), with derived hot-vs-tree speedups.
#
# Paper tier: `scripts/bench.sh --paper [prefix]` runs the paper-figure
# benches (fig8/fig14/fig15/fig17, table3/table4, plus the chainstore
# chain_gc scenario) with the fb_bench JSON emitter enabled and
# assembles one BENCH JSON per figure:
#
# * <prefix>fig8.json      (kind paper_fig8)      — servlet scaling
# * <prefix>fig14.json     (kind paper_fig14)     — version-read tput
#                            (ForkBase vs Redis vs chainstore walks)
# * <prefix>fig15.json     (kind paper_fig15)     — partitioning skew
# * <prefix>fig17.json     (kind paper_fig17)     — diff + aggregation
# * <prefix>table3.json    (kind paper_table3)    — per-op tput/latency
# * <prefix>table4.json    (kind paper_table4)    — Put phase breakdown
# * <prefix>chain_gc.json  (kind paper_chain_gc)  — block append /
#                            history walks / prune-under-retention
#
# <prefix> defaults to BENCH_paper_ (the committed reference files); CI
# smoke passes a bench-smoke-paper- prefix and FB_SCALE to shrink the
# workloads. Knob: FB_SCALE (default 1.0).
#
# Usage: scripts/bench.sh [chunking.json] [map_batch.json] [build.json] [store.json] [read.json] [write_scaling.json] [net.json] [serve.json] [hot.json]
# Knobs: CRITERION_SAMPLE_MS (per-bench budget, default 300).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--paper" ]; then
    prefix="${2:-BENCH_paper_}"
    paper_json="$(mktemp)"
    trap 'rm -f "$paper_json"' EXIT

    echo "== paper tier: fig8 fig14 fig15 fig17 table3 table4 chain_gc (FB_SCALE=${FB_SCALE:-1.0})" >&2
    for bench in fig8_scalability fig14_read_versions fig15_skew fig17_diff_agg \
                 table3_ops table4_breakdown chain_gc; do
        echo "== paper bench: $bench" >&2
        FB_BENCH_JSON="$paper_json" cargo bench -q -p fb-bench --bench "$bench"
    done

    # Join the raw lines whose id starts with "$2/" into a JSON array body.
    paper_raw() {
        grep -F "\"bench\":\"$1/" "$paper_json" \
            | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
            | sed 's/^/    /'
    }

    # Assemble one per-figure file: kind tag paper_<fig>, shared
    # provenance fields, a figure-specific note, and the raw lines.
    paper_file() {
        local fig="$1" out="${prefix}$2" note="$3"
        if ! grep -qF "\"bench\":\"$fig/" "$paper_json"; then
            echo "FAIL: paper tier produced no '$fig/' results" >&2
            exit 1
        fi
        {
            echo '{'
            echo "  \"bench\": \"paper_${fig}\","
            echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
            echo "  \"host\": \"$(uname -srm)\","
            echo "  \"host_cores\": $(nproc),"
            echo "  \"rustc\": \"$(rustc --version)\","
            echo "  \"fb_scale\": ${FB_SCALE:-1.0},"
            echo "  \"note\": \"${note}\","
            echo '  "raw": ['
            paper_raw "$fig"
            echo '  ]'
            echo '}'
        } > "$out"
        echo "wrote $out" >&2
    }

    paper_file fig8 fig8.json "Figure 8 reproduction: aggregate Put/Get ops/s for 1..16 servlets at 256B/2560B values, two-layer partitioning. Single-CPU host: parallel cluster time is simulated as max per-servlet busy time (the paper's linearity rests on even key spread — req_skew_milli — and size-independent per-request cost, both measured). ops_per_sec is the simulated aggregate throughput; EXPERIMENTS.md has paper-vs-reproduction tables."
    paper_file fig14 fig14.json "Figure 14 reproduction: throughput of reading 1..6 consecutive page versions per exploration — ForkBase wiki (client chunk cache, structural sharing) vs RedisWiki (full copies) vs the same pattern as chainstore follow_parents walks reading headers+bodies. Paper shape: Redis wins at 1 version, ForkBase overtakes as explorations deepen."
    paper_file fig15 fig15.json "Figure 15 reproduction: per-node storage balance under a zipf-0.5 wiki edit workload on 16 nodes. imbalance_max_over_mean_milli is the figure's metric (1000 = perfectly even): one-layer piles hot pages onto home servlets, two-layer spreads chunks by cid. The timed metric is ingest cost per put, which must not regress for the balance win."
    paper_file fig17 fig17.json "Figure 17 reproduction: (a) version-diff latency vs fraction of differing records (ForkBase POS-Tree diff grows from near-zero; OrpheusDB full-vector compare is flat) and (b) aggregation-sum latency for FB-COL/FB-ROW/OrpheusDB at 25k/50k/100k nominal records (labels are pre-FB_SCALE sizes)."
    paper_file table3 table3.json "Table 3 reproduction: throughput and mean latency of individual ForkBase ops at 1KB/20KB values, embedded servlet (paper latencies are network-dominated; these are compute-side). Shape under test: Put(primitive) beats Put(chunkable); Get-Meta/Track/Fork are size-independent; Get-Full scales with size."
    paper_file table4 table4.json "Table 4 reproduction: Put phase breakdown (serialization, deserialization, crypto hash, rolling hash, persistence) for String/Blob at 1KB/20KB. Shape under test: the rolling hash is the dominant extra cost of chunkable Puts; crypto hash and persistence scale ~linearly with size."
    paper_file chain_gc chain_gc.json "Chainstore scenario (not a paper figure): block append via append_batch, fork churn, follow_parents/iter_range long-history reads, then prune_side_chains under retention on a durable store — the blockchain-workload claim of Sec 2/6.1 measured end to end. prune_compact carries reclaimed_bytes/live_chunks from the in-place GC."

    exit 0
fi

out="${1:-BENCH_chunking.json}"
batch_out="${2:-BENCH_map_batch.json}"
build_out="${3:-BENCH_build.json}"
store_out="${4:-BENCH_store.json}"
read_out="${5:-BENCH_read.json}"
write_scaling_out="${6:-BENCH_write_scaling.json}"
net_out="${7:-BENCH_net.json}"
serve_out="${8:-BENCH_serve.json}"
hot_out="${9:-BENCH_hot.json}"
opt_json="$(mktemp)"
trap 'rm -f "$opt_json"' EXIT

export CRITERION_SAMPLE_MS="${CRITERION_SAMPLE_MS:-300}"

echo "== micro benches: crypto_micro + pos_micro + pos_build + store + read + write_scaling + net + serve + hot" >&2
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench crypto_micro
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench pos_micro
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench pos_build
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench store
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench read
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench write_scaling
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench net
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench serve
CRITERION_JSON="$opt_json" cargo bench -q -p fb-bench --bench hot

# Median ns/iter for one bench name in one results file.
median() {
    grep -F "\"bench\":\"$2\"" "$1" | head -1 \
        | sed 's/.*"median_ns_per_iter":\([0-9.]*\).*/\1/'
}

# a/b as a fixed-point ratio, or null when either side is missing.
ratio() {
    awk -v a="${1:-0}" -v b="${2:-0}" \
        'BEGIN { if (a > 0 && b > 0) printf "%.2f", a / b; else printf "null" }'
}

# Join JSON-object lines into a JSON array body.
array_body() {
    awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' "$1"
}

scan_naive=$(median "$opt_json" "rolling_scan/dyn_per_byte/CyclicPoly")
scan_block=$(median "$opt_json" "rolling_scan/block/CyclicPoly")
split_naive=$(median "$opt_json" "chunker_split/naive_dyn")
split_block=$(median "$opt_json" "chunker_split/block")
sha_naive=$(median "$opt_json" "sha256_compress/naive")
sha_opt=$(median "$opt_json" "sha256_compress/optimized")

{
    echo '{'
    echo '  "bench": "chunking",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "derived_speedups": {'
    echo "    \"rolling_scan_cyclic_poly\": $(ratio "$scan_naive" "$scan_block"),"
    echo "    \"chunker_split_end_to_end\": $(ratio "$split_naive" "$split_block"),"
    echo "    \"sha256_compress\": $(ratio "$sha_naive" "$sha_opt")"
    echo '  },'
    echo '  "optimized": ['
    array_body "$opt_json" | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$out"

echo "wrote $out" >&2
grep -A5 'derived_speedups' "$out" >&2

# ---- BENCH_map_batch.json: batched vs sequential map writes ------------

put_one=$(median "$opt_json" "pos_map_100k/put_one")
batch_10=$(median "$opt_json" "pos_map_100k/put_batch_10")
batch_1k=$(median "$opt_json" "pos_map_100k/put_batch_1k")
batch_100k=$(median "$opt_json" "pos_map_100k/put_batch_100k")

# Per-edit ns for a batch bench: median ns/iter divided by batch size.
per_edit() {
    awk -v ns="${1:-0}" -v n="$2" \
        'BEGIN { if (ns > 0) printf "%.1f", ns / n; else printf "null" }'
}

pe_10=$(per_edit "$batch_10" 10)
pe_1k=$(per_edit "$batch_1k" 1000)
pe_100k=$(per_edit "$batch_100k" 100000)

{
    echo '{'
    echo '  "bench": "map_batch",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "map_entries": 100000,'
    echo "  \"put_one_ns\": ${put_one:-null},"
    echo '  "per_edit_ns": {'
    echo "    \"put_one\": ${put_one:-null},"
    echo "    \"put_batch_10\": ${pe_10},"
    echo "    \"put_batch_1k\": ${pe_1k},"
    echo "    \"put_batch_100k\": ${pe_100k}"
    echo '  },'
    echo '  "derived_speedups_per_edit": {'
    echo "    \"put_batch_10\": $(ratio "$put_one" "$pe_10"),"
    echo "    \"put_batch_1k\": $(ratio "$put_one" "$pe_1k"),"
    echo "    \"put_batch_100k\": $(ratio "$put_one" "$pe_100k")"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"pos_map_100k/put' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$batch_out"

echo "wrote $batch_out" >&2
grep -A4 'derived_speedups_per_edit' "$batch_out" >&2

# ---- BENCH_build.json: run-scanning vs element-at-a-time builds --------

blob_rs=$(median "$opt_json" "pos_build_scratch_blob_8MB/run_scan")
blob_iw=$(median "$opt_json" "pos_build_scratch_blob_8MB/itemwise")
map_rs=$(median "$opt_json" "pos_build_scratch_map_100k/run_scan")
map_iw=$(median "$opt_json" "pos_build_scratch_map_100k/itemwise")
set_rs=$(median "$opt_json" "pos_build_scratch_set_100k/run_scan")
set_iw=$(median "$opt_json" "pos_build_scratch_set_100k/itemwise")

{
    echo '{'
    echo '  "bench": "build",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"host_cores\": $(nproc),"
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "note": "itemwise = the retained element-at-a-time build path (the PR-2 technique) benched in the current tree. It also gained from this PR'"'"'s roll() and hashing improvements, so the vs_itemwise ratios understate the total gain over the committed PR-2 tree; EXPERIMENTS.md records the direct A/B against a PR-2 checkout. The boundary-scan and leaf-cid fan-outs are inert on single-core hosts (see host_cores).",'
    echo '  "derived_speedups_vs_itemwise": {'
    echo "    \"blob_8mb\": $(ratio "$blob_iw" "$blob_rs"),"
    echo "    \"map_100k\": $(ratio "$map_iw" "$map_rs"),"
    echo "    \"set_100k\": $(ratio "$set_iw" "$set_rs")"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"pos_build_scratch' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$build_out"

echo "wrote $build_out" >&2
grep -A4 'derived_speedups_vs_itemwise' "$build_out" >&2

# ---- BENCH_store.json: the durable chunk store -------------------------

mem_put=$(median "$opt_json" "store_put_256x1k/memstore")
gc_put=$(median "$opt_json" "store_put_256x1k/logstore_group_commit")
fsync_put=$(median "$opt_json" "store_put_256x1k/logstore_fsync_each")
os_put=$(median "$opt_json" "store_put_256x1k/logstore_os")
reopen_full=$(median "$opt_json" "store_reopen_4k_chunks/full_scan")
reopen_snap=$(median "$opt_json" "store_reopen_4k_chunks/snapshot")
mem_get=$(median "$opt_json" "store_get_1k/memstore")
log_get=$(median "$opt_json" "store_get_1k/logstore")

{
    echo '{'
    echo '  "bench": "store",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "put_batch": 256,'
    echo '  "payload_bytes": 1024,'
    echo '  "note": "put variants open a fresh store per iteration and end fully fsynced; logstore_fsync_each is the pre-segmented per-put-fsync policy (Durability::Always, single writer), logstore_group_commit is Durability::Batch(512, 10ms). The acceptance metric is group_commit_vs_fsync_each (MemStore-relative ratios divide out the common per-iteration overhead).",'
    echo '  "derived": {'
    echo "    \"group_commit_vs_fsync_each\": $(ratio "$fsync_put" "$gc_put"),"
    echo "    \"memstore_cost_ratio_group_commit\": $(ratio "$gc_put" "$mem_put"),"
    echo "    \"memstore_cost_ratio_fsync_each\": $(ratio "$fsync_put" "$mem_put"),"
    echo "    \"os_vs_group_commit\": $(ratio "$gc_put" "$os_put"),"
    echo "    \"reopen_snapshot_vs_full_scan\": $(ratio "$reopen_full" "$reopen_snap"),"
    echo "    \"get_memstore_vs_logstore\": $(ratio "$log_get" "$mem_get")"
    echo '  },'
    echo '  "raw": ['
    grep -E '"bench":"(store_put_256x1k|group_commit_sweep|store_get_1k|store_reopen_4k_chunks)/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$store_out"

echo "wrote $store_out" >&2
grep -A6 '"derived"' "$store_out" >&2

# ---- BENCH_read.json: the cached read tier (YCSB-C zipfian) ------------

read_mem=$(median "$opt_json" "ycsbc_zipf_10k/memstore")
read_log=$(median "$opt_json" "ycsbc_zipf_10k/logstore")
read_cached=$(median "$opt_json" "ycsbc_zipf_10k/logstore_cached")
read_cached_many=$(median "$opt_json" "ycsbc_zipf_10k/logstore_cached_get_many")

{
    echo '{'
    echo '  "bench": "read",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "n_keys": 10000,'
    echo '  "payload_bytes": 1024,'
    echo '  "reads_per_iter": 8192,'
    echo '  "zipf_s": 0.99,'
    echo '  "note": "YCSB-C (100% reads), one shared zipfian cid schedule per variant; logstore_cached is the default ShardedCache (sharded clock, 64 MiB) over a fully synced LogStore, warmed by one schedule pass. The acceptance metric is cached_vs_bare_logstore (>= 8). The capacity sweep sizes the cache to 10/35/100% of the ~10 MB working set; steady-state hit rates are printed by the bench and recorded in EXPERIMENTS.md.",'
    echo '  "derived_speedups": {'
    echo "    \"cached_vs_bare_logstore\": $(ratio "$read_log" "$read_cached"),"
    echo "    \"bare_logstore_vs_memstore_slowdown\": $(ratio "$read_log" "$read_mem"),"
    echo "    \"cached_vs_memstore\": $(ratio "$read_mem" "$read_cached"),"
    echo "    \"get_many_vs_sequential_cached\": $(ratio "$read_cached" "$read_cached_many")"
    echo '  },'
    echo '  "raw": ['
    grep -E '"bench":"(ycsbc_zipf_10k|read_cache_capacity_sweep)/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$read_out"

echo "wrote $read_out" >&2
grep -A4 '"derived_speedups"' "$read_out" >&2

# ---- BENCH_write_scaling.json: the concurrent commit pipeline ----------

ws_1=$(median "$opt_json" "ycsba_write_scaling/threads_1")
ws_2=$(median "$opt_json" "ycsba_write_scaling/threads_2")
ws_4=$(median "$opt_json" "ycsba_write_scaling/threads_4")
ws_8=$(median "$opt_json" "ycsba_write_scaling/threads_8")

# Aggregate-throughput scaling factor vs the 1-thread loop: each iter of
# threads_N completes N*2048 ops, so the factor is N * t1_ns / tN_ns.
scaling() {
    awk -v n="$1" -v t1="${ws_1:-0}" -v tn="${2:-0}" \
        'BEGIN { if (t1 > 0 && tn > 0) printf "%.2f", n * t1 / tn; else printf "null" }'
}

{
    echo '{'
    echo '  "bench": "write_scaling",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"host_cores\": $(nproc),"
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "n_keys": 4096,'
    echo '  "value_bytes": 128,'
    echo '  "ops_per_thread": 2048,'
    echo '  "read_ratio": 0.5,'
    echo '  "zipf_s": 0.99,'
    echo '  "note": "YCSB-A closed loops over one shared in-memory ForkBase instance; every update is an M3 commit through the sharded branch map. scaling_vs_1_thread is aggregate ops/s relative to the 1-thread loop; the >= 2.5x @ 8 threads acceptance target applies to multi-core hosts only — on a single-core host (see host_cores) the sweep necessarily flattens to ~1x and the CI gate checks structure, not the ratio.",'
    echo '  "scaling_vs_1_thread": {'
    echo "    \"threads_2\": $(scaling 2 "$ws_2"),"
    echo "    \"threads_4\": $(scaling 4 "$ws_4"),"
    echo "    \"threads_8\": $(scaling 8 "$ws_8")"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"ycsba_write_scaling/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$write_scaling_out"

echo "wrote $write_scaling_out" >&2
grep -A4 'scaling_vs_1_thread' "$write_scaling_out" >&2

# ---- BENCH_net.json: in-process vs loopback-TCP chunk routing ----------

# tcp/inproc per-op slowdown for one (nodes, conns) cell.
net_slowdown() {
    local inproc tcp
    inproc=$(median "$opt_json" "cluster_net/inproc_nodes$1_conns$2")
    tcp=$(median "$opt_json" "cluster_net/tcp_nodes$1_conns$2")
    ratio "$tcp" "$inproc"
}

{
    echo '{'
    echo '  "bench": "net",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"host_cores\": $(nproc),"
    echo "  \"rustc\": \"$(rustc --version)\","
    echo '  "keys": 32,'
    echo '  "blob_bytes": 4096,'
    echo '  "note": "Closed-loop 50/50 blob read/new-version workload on 1/2/4-node clusters at 8/64 concurrent connections, two-layer partitioning, identical schedules per transport; tcp routes every cross-node chunk over loopback TCP frames (pooled, pipelined sockets), inproc is the zero-cost in-process baseline. p50_ns/p99_ns in the raw lines are per-op latency percentiles from the closed loops. tcp_vs_inproc_slowdown is per-op median tcp/inproc (1.0 = free wire); 1-node cells isolate pure transport overhead (nothing routes remotely). Absolute numbers are meaningless under the CI smoke budget — the committed file records a full run.",'
    echo '  "tcp_vs_inproc_slowdown": {'
    echo "    \"nodes1_conns8\": $(net_slowdown 1 8),"
    echo "    \"nodes1_conns64\": $(net_slowdown 1 64),"
    echo "    \"nodes2_conns8\": $(net_slowdown 2 8),"
    echo "    \"nodes2_conns64\": $(net_slowdown 2 64),"
    echo "    \"nodes4_conns8\": $(net_slowdown 4 8),"
    echo "    \"nodes4_conns64\": $(net_slowdown 4 64)"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"cluster_net/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$net_out"

echo "wrote $net_out" >&2
grep -A7 'tcp_vs_inproc_slowdown' "$net_out" >&2

# ---- BENCH_serve.json: the RESP serving surface ------------------------

# Wire tax for one workload: per-op median at 64 tcp connections over
# the 64-loop in-process baseline (same schedules, same execute path).
serve_tax() {
    local inproc tcp
    inproc=$(median "$opt_json" "resp_serve/$1_inproc_conns64")
    tcp=$(median "$opt_json" "resp_serve/$1_conns64")
    ratio "$tcp" "$inproc"
}

# Aggregate ops/s for one bench id (first match).
serve_ops() {
    grep -F "\"bench\":\"resp_serve/$1\"" "$opt_json" | head -1 \
        | sed 's/.*"ops_per_sec":\([0-9.]*\).*/\1/'
}

{
    echo '{'
    echo '  "bench": "serve",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"host_cores\": $(nproc),"
    echo "  \"rustc\": \"$(rustc --version)\","
    echo '  "n_keys": 10000,'
    echo '  "value_bytes": 100,'
    echo '  "zipf_s": 0.99,'
    echo '  "note": "YCSB-A/B/C (50/95/100% reads, zipf 0.99) closed loops against one RedisLite behind a loopback RespServer at 64/256/512 connections (one blocking RESP round trip per op), vs the same pre-generated schedules dispatched straight into RedisLite::execute by 64 in-process loops. Every op crosses the full server path: RESP decode, the unified execute() dispatch, RESP encode, one reply write. wire_tax_64conns is per-op median tcp/inproc at 64 loops each — the cost of framing + syscalls + thread-per-connection scheduling; on a single-core host (see host_cores) it also absorbs all client/server context switching, so multi-core hosts will sit well below it. aggregate_ops_per_sec records the throughput sweep; closed loops mean more connections raise offered load only until the store or the core saturates.",'
    echo '  "wire_tax_64conns": {'
    echo "    \"ycsb_a\": $(serve_tax a),"
    echo "    \"ycsb_b\": $(serve_tax b),"
    echo "    \"ycsb_c\": $(serve_tax c)"
    echo '  },'
    echo '  "aggregate_ops_per_sec": {'
    echo "    \"a_inproc_conns64\": $(serve_ops a_inproc_conns64),"
    echo "    \"a_conns64\": $(serve_ops a_conns64),"
    echo "    \"a_conns256\": $(serve_ops a_conns256),"
    echo "    \"a_conns512\": $(serve_ops a_conns512),"
    echo "    \"b_inproc_conns64\": $(serve_ops b_inproc_conns64),"
    echo "    \"b_conns64\": $(serve_ops b_conns64),"
    echo "    \"b_conns256\": $(serve_ops b_conns256),"
    echo "    \"b_conns512\": $(serve_ops b_conns512),"
    echo "    \"c_inproc_conns64\": $(serve_ops c_inproc_conns64),"
    echo "    \"c_conns64\": $(serve_ops c_conns64),"
    echo "    \"c_conns256\": $(serve_ops c_conns256),"
    echo "    \"c_conns512\": $(serve_ops c_conns512)"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"resp_serve/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$serve_out"

echo "wrote $serve_out" >&2
grep -A4 'wire_tax_64conns' "$serve_out" >&2

# ---- BENCH_hot.json: the flat hot-state tier ---------------------------

hot_c_tree=$(median "$opt_json" "hot_tier/ycsbc_tree_cached")
hot_c_hot=$(median "$opt_json" "hot_tier/ycsbc_hot")
hot_a_tree=$(median "$opt_json" "hot_tier/ycsba_tree_cached")
hot_a_hot=$(median "$opt_json" "hot_tier/ycsba_hot")

{
    echo '{'
    echo '  "bench": "hot",'
    echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -srm)\","
    echo "  \"host_cores\": $(nproc),"
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"sample_ms\": ${CRITERION_SAMPLE_MS},"
    echo '  "n_keys": 10000,'
    echo '  "value_bytes": 100,'
    echo '  "zipf_s": 0.99,'
    echo '  "note": "YCSB-C (100% reads) and YCSB-A (50/50 read/update), zipf 0.99, through the same hot_get/hot_put engine surface over a durable LogStore with the default chunk cache. tree_cached = tier off (every read a committed POS-Tree map lookup over the PR-5 sharded cache, every update a synchronous commit_map_batch); hot = tier on (flat hash-map reads, updates published in rounds the calls cut: a writer that finds the queue full seals it). The acceptance targets are hot_vs_tree_cached ycsb_c >= 5 and ycsb_a >= 3 at equal working set; the committed file records a full run (CI smoke budgets make absolute numbers meaningless there).",'
    echo '  "derived_speedups_hot_vs_tree_cached": {'
    echo "    \"ycsb_c\": $(ratio "$hot_c_tree" "$hot_c_hot"),"
    echo "    \"ycsb_a\": $(ratio "$hot_a_tree" "$hot_a_hot")"
    echo '  },'
    echo '  "raw": ['
    grep -F '"bench":"hot_tier/' "$opt_json" \
        | awk 'NR > 1 { print prev "," } { prev = $0 } END { if (NR) print prev }' \
        | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$hot_out"

echo "wrote $hot_out" >&2
grep -A3 'derived_speedups_hot_vs_tree_cached' "$hot_out" >&2
