#!/usr/bin/env bash
# Builds the release `pimsim` binary and the benchmark harness into one
# target directory, then runs the harness with the given arguments:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds T] [--trace [0|1]]
#   benchmark/run.sh --selftest
#   benchmark/run.sh aa-check
#   benchmark/run.sh compare --parent P1.json .. --change C1.json ..
#
# See benchmark/README.md. Build output goes to stderr; stdout is the
# harness's JSON alone.
set -euo pipefail

invoked_from=$PWD
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# One target directory for both builds, so the harness finds `pimsim`
# next to itself. A relative CARGO_TARGET_DIR means relative to where the
# caller stands.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
    /*) ;;
    *) target=$invoked_from/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --manifest-path "$root/Cargo.toml" -p pimsim-cli >&2
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2

PIMSIM_BENCH_GIT_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PIMSIM_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
export PIMSIM_BENCH_GIT_COMMIT PIMSIM_BENCH_RUSTC

# Not `exec`: the harness reads its children's peak memory from
# RUSAGE_CHILDREN, and a process that replaced this shell would inherit
# cargo and rustc as already-waited children.
"$target/release/bench-harness" "$@"
