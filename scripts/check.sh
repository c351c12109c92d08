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
# Includes tests/sim_engine.rs, which pulls in the simulator-engine suites
# of crates/sim/tests (accounting, fast-forward, reset, machine edge
# cases, decode) and the validator's seeded-broken-program corpus
# (crates/sim/tests/validate.rs: every seeded corruption must be rejected
# with coordinates, and with the identical Result the validator's oracle
# gives, common/validate_oracle.rs), so that suite has no step of its own;
# the workspace run below repeats it in release mode; and
# tests/validate_oracle.rs holds validate() to the same oracle on compiler
# output for every workload at 4, 16 and 64 cores. The run cache and the
# machine pool live in crates/core/src/cache.rs; Experiment and the serve
# engine are two views of them. tests/serve_engine.rs pulls in the serve
# daemon's in-process suite (crates/bench/tests/serve.rs: served == direct
# Experiment results, bit for bit, on the whole cycle-golden matrix, and
# the cache rules as one table driven through both views), and
# tests/shared_runs.rs holds Experiment's cached, shared and pooled
# simulations to run_configuration, which shares nothing, on both
# coherence backends. tests/figure_golden.rs
# pins the figure table's output to a committed `figall --test` transcript,
# tests/run_record.rs the sidecar document `bench_one --whatif` writes,
# tests/cli.rs the command line's usage errors, and tests/docs.rs every
# path, item and command the documents name. cycle_golden,
# scaling_golden and the accounting suite each run their matrix in all
# four {fast-forward on, off} x {plain, tracer + probes} corners
# in-process (DESIGN.md §6, §8).
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
