#!/usr/bin/env bash
# Build the benchmark and run all four workloads, end to end and traced.
#
#   benchmark/run.sh            full runs (run_seconds from BENCHMARK.json)
#   benchmark/run.sh --quick    smoke: one block, one set-up, 2 s per run
#   benchmark/run.sh --agree    self-check: every workload twice, budgets close
#
# SEED=<n> picks the input seed (default 1). Exits non-zero on the first run
# whose outputs are incorrect.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${SEED:-1}"
bin=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

if [[ "${1:-}" == "--agree" ]]; then
    exec "${bin[@]}" --agree --seed "$seed"
fi

for workload in serve_steady serve_churn train_geant onboard_uscarrier; do
    for trace in 0 1; do
        "${bin[@]}" --workload "$workload" --seed "$seed" --trace "$trace" "$@"
    done
done
