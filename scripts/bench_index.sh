#!/usr/bin/env bash
# Regenerate BENCH_index.json: the seed HashMap LSH bucketer vs the
# dc-index banded blocker at n ∈ {1k, 10k}, pair sets asserted equal at
# 1k before timing. Honors DC_THREADS for the pool-backed signatures.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -p dc-bench --bin bench_index
