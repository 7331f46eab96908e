#!/usr/bin/env bash
# Builds `divide` and the benchmark binary, then runs the benchmark from
# the repository root.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]   # every workload, untraced then traced
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); results and
# Chrome traces to benchmark/out/. Build output goes to stderr, so the
# last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p divide-cli >&2
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/divide-benchmark"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done
for workload in all-warm fig2-cold orbit-survey qoe-sweep; do
  for trace in 0 1; do
    "$bin" --workload "$workload" --trace "$trace" "$@"
  done
done
