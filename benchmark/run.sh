#!/usr/bin/env bash
# The performance ledger's one command: build the benchmark from source,
# then hand every argument to it.
#
#   benchmark/run.sh                         every workload, one process each
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace [0|1]]
#   benchmark/run.sh --aa [--workload W]     A/A self-check (A, B, A, B)
#   benchmark/run.sh --list                  names and units, nothing runs
#
# Builds offline into $CARGO_TARGET_DIR if set (relative paths resolve
# against the caller's directory), else into <repo>/target; everything a
# run writes goes under <repo>/target/benchmark/. Exits non-zero when the
# build fails — as it does in a directory that holds the benchmark alone,
# without the crates it measures.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

cargo build --quiet --release --offline \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$target"

FEDVAL_BENCH_RUSTC="$(rustc --version)"
export FEDVAL_BENCH_RUSTC
exec "$target/release/fedval-benchmark" --out-dir "$root/target/benchmark" "$@"
