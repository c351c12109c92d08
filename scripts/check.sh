#!/bin/sh
# Local pre-commit gate: formatting, lints, and the tier-1 suite.
# Mirrors what CI runs; keep it fast enough to run on every commit.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== tier-1: release build + tests"
# Every crate's unit, integration and doc tests (the root manifest's
# default-members), in the dev profile: the simulation crates optimised,
# debug assertions and overflow checks on.
cargo build --release
cargo test -q

# Every smoke below drives the one `voltron` binary (crates/bench/src/cli.rs).
voltron() {
    cargo run --release -q -p voltron-bench --bin voltron -- "$@"
}

echo "== 16-core smoke on both coherence backends"
# A real workload end to end (compile, simulate, validate outputs) on
# meshes up to 8x8 under snooping AND directory coherence: the scaling
# figure sweeps 1-64 cores x all strategies x both backends, and a
# figure command on the directory backend exercises the --backend flag.
voltron scaling --test --bench 164.gzip > /dev/null
voltron fig13 --test --bench 164.gzip --backend directory > /dev/null

echo "== traced smoke run"
# End-to-end: a real workload traced through the CLI flag must emit
# Chrome trace JSON that parses and has events on every live core.
mkdir -p target/smoke
voltron bench_one 164.gzip \
    --trace-out target/smoke/trace.json --probes-out target/smoke/probes.json \
    > /dev/null
voltron trace_check target/smoke/trace.json 4

echo "== serve smoke: stdin burst, result cache, typed rows"
# The daemon must absorb an identical repeat from its result cache and
# survive faulted, what-if and directory requests on the same connection
# (DESIGN.md §12). One worker, so the burst is served in order: with two,
# the identical requests 1 and 2 run concurrently and both miss. That
# requests 1 and 5 equal the one-shot sidecar's hybrid/4 records on
# snooping and on the directory is tier-1's job
# (crates/bench/tests/serve.rs, read through RunRecord::from_json).
printf '%s\n' \
    '{"id":1,"workload":"164.gzip","strategy":"hybrid","cores":4}' \
    '{"id":2,"workload":"164.gzip","strategy":"hybrid","cores":4}' \
    '{"id":3,"workload":"164.gzip","strategy":"hybrid","cores":4,"faults":"seed=7,rate=0.002"}' \
    '{"id":4,"workload":"164.gzip","strategy":"hybrid","cores":4,"whatif":true}' \
    '{"id":5,"workload":"164.gzip","strategy":"hybrid","cores":4,"backend":"directory"}' \
    | voltron serve --stdin --workers 1 \
    > target/smoke/serve.ndjson
if grep -q '"ok":0' target/smoke/serve.ndjson; then
    echo "serve smoke returned an error row:" >&2
    cat target/smoke/serve.ndjson >&2
    exit 1
fi
test "$(wc -l < target/smoke/serve.ndjson)" -eq 5 || {
    echo "serve smoke expected 5 response rows" >&2
    exit 1
}
grep '"id":2,' target/smoke/serve.ndjson | grep -q '"result":"hit"' || {
    echo "repeat request was not served from the result cache" >&2
    exit 1
}

echo "== serve smoke: two workers on one queue"
# Two workers pop one FIFO: a burst of repeats, fresh runs, a what-if and
# a directory request comes back as one good row per request, each id once.
printf '%s\n' \
    '{"id":1,"workload":"rawcaudio","strategy":"hybrid","cores":4}' \
    '{"id":2,"workload":"rawcaudio","strategy":"hybrid","cores":4}' \
    '{"id":3,"workload":"rawcaudio","strategy":"hybrid","cores":4,"fresh":true}' \
    '{"id":4,"workload":"rawcaudio","strategy":"llp","cores":2}' \
    '{"id":5,"workload":"rawcaudio","strategy":"llp","cores":2,"fresh":true}' \
    '{"id":6,"workload":"rawcaudio","strategy":"hybrid","cores":4,"whatif":true}' \
    '{"id":7,"workload":"164.gzip","strategy":"hybrid","cores":4,"backend":"directory"}' \
    '{"id":8,"workload":"rawcaudio","strategy":"llp","cores":2}' \
    | voltron serve --stdin --workers 2 \
    > target/smoke/serve2.ndjson
if grep -q '"ok":0' target/smoke/serve2.ndjson; then
    echo "two-worker serve smoke returned an error row:" >&2
    cat target/smoke/serve2.ndjson >&2
    exit 1
fi
test "$(wc -l < target/smoke/serve2.ndjson)" -eq 8 || {
    echo "two-worker serve smoke expected 8 response rows" >&2
    exit 1
}
ids=$(sed 's/^{"id":\([0-9]*\),.*/\1/' target/smoke/serve2.ndjson | sort -n | tr '\n' ' ')
test "$ids" = "1 2 3 4 5 6 7 8 " || {
    echo "two-worker serve smoke expected ids 1-8 once each, got: $ids" >&2
    exit 1
}

echo "== chaos smoke: fixed-seed fault plan + retries, no hard failures"
# The whole figure path under fire (DESIGN.md §10): a seeded fault plan
# across every site, failed workloads retried under reseeded plans. Any
# hard failure (a workload no retry could save) fails the gate; the
# chaos suite proper (tests/fault_recovery.rs) runs with tier-1 above.
voltron fig13 --test --bench 164.gzip --faults seed=7,rate=0.002 --retries 2 > /dev/null
grep -q '"hard":0' BENCH_fig13.json || {
    echo "chaos smoke left hard failures in BENCH_fig13.json" >&2
    exit 1
}

echo "== workspace tests (release)"
# The tier-1 suites again, in release mode.
cargo test --workspace --release -q

echo "== benchmark package: its own tests + one quick pass per workload"
# The pipeline measures every change with benchmark/ (BENCHMARK.json);
# it is a package of its own, so nothing above builds it. Output
# verification only -- per-pass digests, golden checks, staged-vs-direct
# cycle equality -- no timing gate: a simulator change that breaks the
# benchmark's correctness checks is caught here, not after the fact.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick > /dev/null

echo "all checks passed"
