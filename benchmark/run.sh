#!/usr/bin/env bash
# Build fbmark offline, measure every workload for each seed given
# (default: 1), then trace every workload once with the first seed.
# Leaves benchmark/out/result-<seed>.json and benchmark/out/trace-*.jsonl.
#
#   benchmark/run.sh [seed ...]
#   REPEAT=5 benchmark/run.sh 1     # five runs per workload in one file
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1)

fbmark() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

cargo build --release --offline --manifest-path "$here/Cargo.toml"
for seed in "${seeds[@]}"; do
    fbmark run --seed "$seed" --repeat "${REPEAT:-1}"
done
fbmark trace --seed "${seeds[0]}"
