#!/usr/bin/env bash
# Build bench/ in release and hand every argument to the benchmark binary.
#
#   bench/run.sh                       all six workloads, end to end
#   bench/run.sh --trace               ... plus the per-layer pass and trace files
#   bench/run.sh --smoke               tiny sizes, every check, both passes, no files
#   bench/run.sh --aa [--workload W]   two sets of ten runs; fails outside a bound
#   bench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                      one workload; last stdout line is the result JSON
#
# Works from any directory. Exits non-zero when the build fails (as it
# does when the repository's sources are not beside bench/).
set -euo pipefail

# A relative CARGO_TARGET_DIR means relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$(dirname "${BASH_SOURCE[0]}")"
# Build output goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet 1>&2
# Unset, .cargo/config.toml points cargo at the root workspace's target/.
exec "${CARGO_TARGET_DIR:-../target}/release/autodc-bench" "$@"
