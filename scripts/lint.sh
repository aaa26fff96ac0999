#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy (warnings are errors), and the
# dc-check self-test (static checks + FD audit of every autograd op).
#
# `--deep` additionally runs scripts/sanitize.sh (DC_CHECK poison sweep,
# pool schedule model, and the Miri/TSan lanes where installed).
set -euo pipefail
cd "$(dirname "$0")/.."

deep=0
for arg in "$@"; do
    case "$arg" in
    --deep) deep=1 ;;
    *)
        echo "usage: $0 [--deep]" >&2
        exit 2
        ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings, every unsafe block documented) =="
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented-unsafe-blocks

echo "== dc-obs selftest + unit/property tests =="
cargo run -q -p dc-obs --bin dc-obs-selftest
cargo test -q -p dc-obs

echo "== dc-check selftest =="
cargo run -q -p dc-check --bin dc-check-selftest

echo "== kernel equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-tensor --test kernel_equiv
DC_THREADS=2 cargo test -q -p dc-tensor --test kernel_equiv
cargo test -q -p dc-tensor --test kernel_equiv

echo "== dc-index selftest =="
cargo run -q -p dc-index --bin dc-index-selftest

echo "== retrieval equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-index --test index_equiv
DC_THREADS=2 cargo test -q -p dc-index --test index_equiv
cargo test -q -p dc-index --test index_equiv
DC_THREADS=1 cargo test -q -p dc-er --test blocking_equiv
DC_THREADS=2 cargo test -q -p dc-er --test blocking_equiv
cargo test -q -p dc-er --test blocking_equiv

echo "== filter-verify matcher, slice SGNS loop, pipeline vs seed match loop under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-er --test rule_matcher_equiv
DC_THREADS=2 cargo test -q -p dc-er --test rule_matcher_equiv
cargo test -q -p dc-er --test rule_matcher_equiv
# SGNS never enters the kernel pool: one run covers the bitwise loop
# test and the negative-sampler exactness tests.
cargo test -q -p dc-embed --lib
# Release: each run replays the seed pipeline over three 1000-row lakes
# and holds Pipeline::run to its recorded counts and curated-table hash.
DC_THREADS=1 cargo test -q --release --test pipeline_match_equiv --test pipeline_golden
DC_THREADS=2 cargo test -q --release --test pipeline_match_equiv --test pipeline_golden
cargo test -q --release --test pipeline_match_equiv --test pipeline_golden

echo "== quantized funnel equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-tensor --test i8_dot_equiv
DC_THREADS=2 cargo test -q -p dc-tensor --test i8_dot_equiv
cargo test -q -p dc-tensor --test i8_dot_equiv
DC_THREADS=1 cargo test -q -p dc-index --test quant_equiv
DC_THREADS=2 cargo test -q -p dc-index --test quant_equiv
cargo test -q -p dc-index --test quant_equiv

echo "== Trainer migration (unified run_epochs loop) =="
cargo test -q -p dc-nn --test trainer_migration

echo "== chunked-store + CSR equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-data --test chunk_equiv
DC_THREADS=2 cargo test -q -p dc-data --test chunk_equiv
cargo test -q -p dc-data --test chunk_equiv
DC_THREADS=1 cargo test -q -p dc-data --test csr_equiv
DC_THREADS=2 cargo test -q -p dc-data --test csr_equiv
cargo test -q -p dc-data --test csr_equiv

echo "== out-of-core training equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-nn --test data_equiv
DC_THREADS=2 cargo test -q -p dc-nn --test data_equiv
cargo test -q -p dc-nn --test data_equiv

echo "== pool/fusion bitwise equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-tensor --test pool_equiv
DC_THREADS=2 cargo test -q -p dc-tensor --test pool_equiv
cargo test -q -p dc-tensor --test pool_equiv

echo "== fused-LSTM equivalence (DC_LSTM_FUSED paths) under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-nn --test lstm_fused_equiv
DC_THREADS=2 cargo test -q -p dc-nn --test lstm_fused_equiv
cargo test -q -p dc-nn --test lstm_fused_equiv

echo "== pool leak guard (high-water stable after epoch 1) =="
cargo test -q -p dc-nn --test pool_leak

echo "== pool job-slot handoff model (exhaustive schedule permutation) =="
cargo test -q -p dc-tensor --test pool_model

echo "== memory-safety diagnostics (poison regression + liveness forecast parity) =="
cargo test -q -p dc-check --test memsafe_regression
cargo test -q -p dc-nn --test liveness_parity

echo "== training benchmark smoke (equivalence + pool warmup, no wall-clock gate) =="
cargo run -q --release -p dc-bench --bin bench_train -- --smoke

echo "== index benchmark smoke (funnel-vs-exact equality, no wall-clock gate) =="
cargo run -q --release -p dc-bench --bin bench_index -- --smoke

echo "== data benchmark smoke (streamed-vs-resident bitwise, zero warm allocs, no wall-clock gate) =="
cargo run -q --release -p dc-bench --bin bench_data -- --smoke

echo "== observability is observational (bitwise weights) under DC_THREADS=1, =2 =="
DC_THREADS=1 cargo test -q -p dc-er --test obs_equiv
DC_THREADS=2 cargo test -q -p dc-er --test obs_equiv

echo "== incremental LSH index vs full rebuild (proptest pair-set equality) =="
cargo test -q -p dc-index --test inc_equiv

echo "== dc-serve selftest (endpoints, errors, hot reload over a live socket) =="
cargo run -q -p dc-serve --bin dc-serve-selftest

echo "== micro-batch bitwise equivalence under DC_THREADS=1, =2, default =="
DC_THREADS=1 cargo test -q -p dc-serve --test microbatch_equiv
DC_THREADS=2 cargo test -q -p dc-serve --test microbatch_equiv
cargo test -q -p dc-serve --test microbatch_equiv

echo "== serve smoke (concurrent clients, malformed traffic stays non-fatal) =="
cargo test -q -p dc-serve --test server_smoke

echo "== serving benchmark smoke (open-loop clients, every response well-formed) =="
cargo run -q --release -p dc-bench --bin bench_serve -- --smoke

echo "== end-to-end ledger: bench/ unit tests + smoke (every check, both passes, no wall-clock gate) =="
# bench/Cargo.lock predates dc-er's direct dc-obs dependency, so cargo
# rewrites it in place here until a benchmark PR commits the refresh.
(cd bench && cargo test -q --offline)
bash bench/run.sh --smoke

if [ "$deep" = 1 ]; then
    echo "== deep: sanitizer/race gates (scripts/sanitize.sh) =="
    scripts/sanitize.sh
fi

echo "lint: all gates passed"
