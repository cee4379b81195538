#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments given:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is the result
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0] [--smoke]
#       all six workloads, untraced then traced, as one JSON document
#       (also written to benchmark/out/results-seed<N>.json)
#   benchmark/run.sh compare A.json B.json
#       judges document B against baseline A; exits non-zero on any "worse"
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$here/../crates/core/Cargo.toml" ]; then
    echo "benchmark/run.sh: $here/../crates is missing; the benchmark builds the repository's crates from source" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
# Cargo's progress goes to standard error; standard output is the benchmark's.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

export BENCH_OUT_DIR="$here/out"
BENCH_RUSTC="$(rustc -V)"
BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT
exec "$target/release/benchmark" "$@"
