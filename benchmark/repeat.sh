#!/usr/bin/env bash
# Repeatability harness: run the full benchmark twice, back to back, on
# the same build (the second set in reverse workload order), and compare.
#
#   benchmark/repeat.sh [--seed N]
#
# Prints, per workload and end-to-end metric, the two values and their
# relative difference against the metric's bound, as a markdown table.
# Fails if a difference exceeds its bound, or if any deterministic
# per-layer metric (see `run.sh --list-exact`) differs at all.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
if [ "${1:-}" = "--seed" ]; then
    seed="$2"
fi
out="$here/out/repeat"
mkdir -p "$out"

workloads=$("$here/run.sh" --list)
reversed=$(echo "$workloads" | tac)
"$here/run.sh" --list-exact > "$out/exact.txt"

run_set() {
    local set_no=$1
    shift
    for workload in "$@"; do
        for trace in 0 1; do
            echo "repeat: set $set_no: $workload --trace $trace" >&2
            "$here/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" |
                tail -n 1 > "$out/set$set_no-$workload-trace$trace.json"
        done
    done
}
# shellcheck disable=SC2086
run_set 1 $workloads
# shellcheck disable=SC2086
run_set 2 $reversed

python3 - "$here/../BENCHMARK.json" "$out" <<'PY'
import json, sys

contract = json.load(open(sys.argv[1]))
out = sys.argv[2]
exact = set(open(f"{out}/exact.txt").read().split())
failed = False


def load(set_no, workload, trace):
    return json.load(open(f"{out}/set{set_no}-{workload}-trace{trace}.json"))["metrics"]


print("| workload | metric | set 1 | set 2 | difference | bound | |")
print("|---|---|---:|---:|---:|---:|---|")
for w in (w["name"] for w in contract["workloads"]):
    a, b = load(1, w, 0), load(2, w, 0)
    for m in contract["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        diff = abs(y - x) / x
        ok = diff <= m["bound"]
        failed |= not ok
        print(
            f"| {w} | {m['name']} | {x:.6g} | {y:.6g} | {diff * 100:.2f}% "
            f"| {m['bound'] * 100:.0f}% | {'ok' if ok else 'EXCEEDS'} |"
        )
print()
for w in (w["name"] for w in contract["workloads"]):
    a, b = load(1, w, 1), load(2, w, 1)
    differing = [n for n in sorted(exact) if a[n]["value"] != b[n]["value"]]
    failed |= bool(differing)
    fp = a["sim.stats_fingerprint"]["value"]
    print(
        f"{w}: {len(exact)} deterministic per-layer metrics, "
        f"{len(differing)} differ{': ' + ', '.join(differing) if differing else ''}; "
        f"sim.stats_fingerprint {fp:.0f}"
    )
sys.exit(1 if failed else 0)
PY
