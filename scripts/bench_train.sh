#!/usr/bin/env bash
# Regenerate BENCH_train.json: training-step time with the tape buffer
# pool + fused elementwise chains vs a fresh unpooled tape, fusion off.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p dc-bench --bin bench_train
