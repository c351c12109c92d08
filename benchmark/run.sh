#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#   benchmark/run.sh --verify
#
# Without --workload every workload of BENCHMARK.json runs, each in its
# own process. The last line of each run's standard output is the result
# object BENCHMARK.json's contract describes; documents and span files go
# to benchmark/out/. Exits non-zero if any operation failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from; pin it so the executable is where we look for it.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/voltron-benchmark"

case " $* " in
    *" --workload "* | *" --verify "* | *" --list "* | *" --list-exact "*)
        exec "$bin" --out "$here/out" "$@"
        ;;
esac
status=0
for workload in $("$bin" --list); do
    "$bin" --out "$here/out" --workload "$workload" "$@" || status=1
done
exit "$status"
