#!/usr/bin/env bash
# Run every workload of the benchmark once untraced (end-to-end metrics)
# and once traced (per-layer metrics), printing each report.
#
#   bash mxbench/run_all.sh [seed] [seconds]
#
# Run from the repository root. Reports, Chrome traces and stamps are
# also written under mxbench/out/.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-10}"
cargo build --quiet --release --manifest-path mxbench/Cargo.toml
for workload in study-snapshot delta-churn serve-mixed; do
    for trace in 0 1; do
        cargo run --quiet --release --manifest-path mxbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
