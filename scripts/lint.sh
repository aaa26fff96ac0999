#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy (warnings are errors), the
# equivalence and golden suites, and the bench smokes.
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

# The gate manifest, run top to bottom by the one loop below. Entries:
#   "== <text>"                         section header
#   "run <command>"                     a command, as written
#   "pool <package>:<test>[:release]"   an integration-test suite (or, as
#       <test> = lib, the package's unit tests) whose subject takes a
#       thread-count-dependent path: run under DC_THREADS=1, =2 and the
#       default
#   "once <package>:<test>[:release]"   a suite that never does: one run
gates=(
    "== cargo fmt --check"
    "run cargo fmt --all -- --check"

    "== cargo clippy (deny warnings, every unsafe block documented)"
    "run cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented-unsafe-blocks"

    "== dc-obs unit/property tests"
    "run cargo test -q -p dc-obs"

    "== kernel equivalence"
    "pool dc-tensor:kernel_equiv"

    "== retrieval equivalence + banded-LSH golden pair sets"
    "pool dc-index:index_equiv"
    "pool dc-er:blocking_equiv"
    "once dc-index:lsh_golden"

    "== filter-verify matcher, draw-ahead SGNS, pipeline vs seed match loop"
    # RuleMatcher never enters the kernel pool: one run. SGNS does not
    # either, but it draws its negatives on a helper thread at
    # DC_THREADS >= 2 and on the caller at 1, so the dc-embed unit tests
    # (both schedules against the seed loop, concurrent trainings, the
    # negative-sampler exactness tests) and the draw counter run under
    # all three.
    "once dc-er:rule_matcher_equiv"
    "pool dc-embed:lib"
    "pool dc-embed:sgns_obs"
    # Release: each run replays the seed pipeline over three 1000-row lakes
    # and holds Pipeline::run to its recorded counts and curated-table hash.
    "pool autodc:pipeline_match_equiv:release"
    "pool autodc:pipeline_golden:release"

    "== Trainer migration (unified run_epochs loop)"
    "once dc-nn:trainer_migration"

    "== chunked-store + CSR equivalence"
    "pool dc-data:chunk_equiv"
    "pool dc-data:csr_equiv"

    "== out-of-core training equivalence"
    "pool dc-nn:data_equiv"

    "== pool/fusion bitwise equivalence"
    "pool dc-tensor:pool_equiv"

    "== fused-LSTM equivalence (per-gate oracle, pooled vs fresh tape) + DeepER-LSTM golden run"
    "pool dc-nn:lstm_fused_equiv"
    "pool dc-er:deeper_lstm_golden"

    "== pool leak guard (high-water stable after epoch 1)"
    "once dc-nn:pool_leak"

    "== pool job-slot handoff model (exhaustive schedule permutation)"
    "once dc-tensor:pool_model"

    "== memory-safety diagnostics (poison regression + liveness forecast parity)"
    "once dc-check:memsafe_regression"
    "once dc-nn:liveness_parity"

    "== training benchmark smoke (equivalence + pool warmup, no wall-clock gate)"
    "run cargo run -q --release -p dc-bench --bin bench_train -- --smoke"

    "== index benchmark smoke (indexed vs seed blocking pair sets, no wall-clock gate)"
    "run cargo run -q --release -p dc-bench --bin bench_index -- --smoke"

    "== data benchmark smoke (streamed-vs-resident bitwise, zero warm allocs, no wall-clock gate)"
    "run cargo run -q --release -p dc-bench --bin bench_data -- --smoke"

    "== observability is observational (bitwise weights)"
    "pool dc-er:obs_equiv"

    "== mutated LSH index (bulk-built or empty, then insert/delete/compact) vs full rebuild (proptest pair-set equality)"
    "once dc-index:inc_equiv"

    "== dc-serve unit tests (batch-while-busy batcher, poisoned locks, connection loop)"
    "run cargo test -q -p dc-serve --lib"

    "== micro-batch bitwise equivalence"
    "pool dc-serve:microbatch_equiv"

    "== dc-serve batches while busy, not on a timer (no window knob, no timed wait)"
    "run if git grep -nE 'wait_timeout|batch_window' -- crates/serve/src; then exit 1; fi"

    "== serve smoke (concurrent clients, malformed traffic stays non-fatal, every endpoint + hot reload over a live socket, 50 keep-alive requests on one connection in < 1 s)"
    "once dc-serve:server_smoke"

    "== dc-serve hands each response over in one write (no cloned socket handle, no formatting straight onto a stream)"
    # Responses are framed with `buf.write_fmt` into the connection's
    # buffer; any other formatted write could reach the socket piecemeal.
    "run if git grep -nE 'try_clone|write(ln)?![(]|write_fmt' -- crates/serve/src | grep -v 'buf[.]write_fmt[(]'; then exit 1; fi"

    "== serving benchmark smoke (open-loop clients, every response well-formed)"
    "run cargo run -q --release -p dc-bench --bin bench_serve -- --smoke"

    "== end-to-end ledger: bench/ unit tests + smoke (every check, both passes, no wall-clock gate)"
    # bench/Cargo.lock predates dc-er's direct dc-obs dependency, so cargo
    # rewrites it in place here until a benchmark PR commits the refresh.
    "run (cd bench && cargo test -q --offline)"
    "run bash bench/run.sh --smoke"
)

for gate in "${gates[@]}"; do
    kind=${gate%% *}
    spec=${gate#* }
    case "$kind" in
    ==) echo "== $spec ==" ;;
    run) eval "$spec" ;;
    pool | once)
        IFS=: read -r package suite profile <<<"$spec"
        target=(--test "$suite")
        if [ "$suite" = lib ]; then target=(--lib); fi
        cmd=(cargo test -q ${profile:+--release} -p "$package" "${target[@]}")
        if [ "$kind" = pool ]; then
            DC_THREADS=1 "${cmd[@]}"
            DC_THREADS=2 "${cmd[@]}"
        fi
        "${cmd[@]}"
        ;;
    esac
done

if [ "$deep" = 1 ]; then
    echo "== deep: sanitizer/race gates (scripts/sanitize.sh) =="
    scripts/sanitize.sh
fi

echo "lint: all gates passed"
