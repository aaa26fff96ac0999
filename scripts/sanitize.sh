#!/usr/bin/env bash
# Deep memory-/concurrency-safety gate (ISSUE 6): DC_CHECK poison sweep,
# the schedule-permutation pool model, and — where the toolchain allows —
# Miri on the scalar paths and a ThreadSanitizer build of the pool tests.
#
# Miri and TSan need nightly components (miri, rust-src) that are not
# baked into every image, so those lanes detect their prerequisites and
# SKIP with a message instead of failing: the portable lanes (poison
# sweep, pool model, pool leak guard) must always pass, the sanitizer
# lanes run wherever the nightly components exist (e.g. the scheduled CI
# job installs them; see .github/workflows/ci.yml).
#
# Coverage map (see DESIGN.md §13): Miri interprets MIR, so the
# `#[target_feature(enable = "avx2,fma")]` wrappers in kernel.rs are
# compiled out under `cfg(miri)` and only the scalar `$body::<false>`
# builds are interpreted. TSan covers the pthread side (mutex/condvar
# handoff, chunk stealing) at DC_THREADS=2 and the default count, and
# the SGNS draw-ahead chunk hand-off (caller ↔ helper thread over two
# bounded channels) at DC_THREADS=2.
set -euo pipefail
cd "$(dirname "$0")/.."

skip() { echo "SKIP: $*"; }

echo "== DC_CHECK poison sweep (use-after-recycle + double-recycle diagnostics) =="
DC_CHECK=1 DC_THREADS=1 cargo test -q -p dc-tensor --lib
DC_CHECK=1 DC_THREADS=1 cargo test -q -p dc-tensor --test pool_equiv
DC_CHECK=1 cargo test -q -p dc-check
DC_CHECK=1 cargo test -q -p dc-nn --test pool_leak

echo "== pool job-slot handoff model (exhaustive schedule permutation) =="
cargo test -q -p dc-tensor --test pool_model

echo "== Miri (scalar kernels + pool accounting, DC_THREADS=1 and 2) =="
if cargo +nightly miri --version >/dev/null 2>&1; then
    # Scalar lane only: cfg(miri) compiles the AVX2 wrappers out. The
    # kernel worker threads are real pthreads, which Miri supports, but
    # keep thread counts tiny so interpretation stays tractable.
    export MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}"
    DC_THREADS=1 cargo +nightly miri test -q -p dc-tensor --lib
    DC_THREADS=2 cargo +nightly miri test -q -p dc-tensor --lib kernel
else
    skip "cargo +nightly miri not installed (rustup +nightly component add miri)"
fi

echo "== ThreadSanitizer (worker pool under DC_THREADS=2 and default, SGNS chunk hand-off) =="
host="$(rustc -vV | sed -n 's/^host: //p')"
if rustc +nightly --version >/dev/null 2>&1 \
    && [ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]; then
    # TSan instruments the runtime too, so std must be rebuilt
    # (-Zbuild-std needs the rust-src component).
    export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-Zsanitizer=thread"
    DC_THREADS=2 cargo +nightly test -Zbuild-std --target "$host" \
        -q -p dc-tensor --test kernel_equiv
    DC_THREADS=2 cargo +nightly test -Zbuild-std --target "$host" \
        -q -p dc-tensor --test pool_equiv
    cargo +nightly test -Zbuild-std --target "$host" \
        -q -p dc-tensor --test kernel_equiv
    DC_THREADS=2 cargo +nightly test -Zbuild-std --target "$host" \
        -q -p dc-embed --lib
else
    skip "nightly rust-src not installed (rustup +nightly component add rust-src)"
fi

echo "sanitize: all available lanes passed"
