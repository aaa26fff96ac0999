#!/usr/bin/env bash
# Regenerate BENCH_train.json: training-step time on one recycled tape
# with the buffer pool vs a fresh unpooled tape per step.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p dc-bench --bin bench_train
