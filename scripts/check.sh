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
# with coordinates), so that suite has no step of its own; the workspace
# run below repeats it in release mode. Likewise tests/serve_engine.rs
# pulls in the serve daemon's in-process suite (crates/bench/tests/serve.rs:
# served == direct Experiment results, bit for bit), and
# tests/shared_runs.rs holds Experiment's shared simulations to fresh ones.
cargo build --release
cargo test -q

echo "== cycle-golden matrix with fast-forward disabled"
# The pinned fingerprints must be identical with the skip engine off;
# together with the default (fast-forward on) run above, this is the
# end-to-end equivalence check of DESIGN.md §6.
CYCLE_GOLDEN_FF=off cargo test --release -q --test cycle_golden

echo "== cycle-golden matrix with observers attached"
# Same fingerprints again with the ChromeTracer and interval probes
# recording, in both fast-forward modes: the observability layer must
# not perturb one architectural number (DESIGN.md §8).
CYCLE_GOLDEN_OBS=1 cargo test --release -q --test cycle_golden
CYCLE_GOLDEN_OBS=1 CYCLE_GOLDEN_FF=off cargo test --release -q --test cycle_golden
# The accounting suite (exact sums per core and per region over both
# golden matrices) sweeps fast-forward and the probes itself in every
# run, tier-1 included; this corner adds the tracer.
CYCLE_GOLDEN_OBS=1 cargo test --release -q --test sim_engine accounting

echo "== scaled-machine golden matrix (8/16 cores, both backends), four corners"
# Same architectural-invisibility contract on the scaled meshes and on
# the banked directory backend (DESIGN.md §9).
CYCLE_GOLDEN_FF=off cargo test --release -q --test scaling_golden
CYCLE_GOLDEN_OBS=1 cargo test --release -q --test scaling_golden
CYCLE_GOLDEN_OBS=1 CYCLE_GOLDEN_FF=off cargo test --release -q --test scaling_golden

echo "== 16-core smoke on both coherence backends"
# A real workload end to end (compile, simulate, validate outputs) on
# meshes up to 8x8 under snooping AND directory coherence: the scaling
# figure sweeps 1-64 cores x all strategies x both backends, and a
# figure binary on the directory backend exercises the --backend flag.
cargo run --release -q -p voltron-bench --bin scaling -- --test --bench 164.gzip \
    > /dev/null
cargo run --release -q -p voltron-bench --bin fig13 -- --test --bench 164.gzip \
    --backend directory > /dev/null

echo "== traced smoke run"
# End-to-end: a real workload traced through the CLI flag must emit
# Chrome trace JSON that parses and has events on every live core.
mkdir -p target/smoke
cargo run --release -q -p voltron-bench --bin bench_one -- 164.gzip \
    --trace-out target/smoke/trace.json --probes-out target/smoke/probes.json \
    > /dev/null
cargo run --release -q -p voltron-bench --bin trace_check -- target/smoke/trace.json 4

echo "== bench_diff regression gate: same-build sweeps compare clean"
# Two sweeps of the same build must be cycle-identical (simulated cycles
# are deterministic), so the gate passes on the honest pair -- and a
# sidecar doctored to claim fewer cycles must trip it (DESIGN.md §11.3).
cp BENCH_bench_one.json target/smoke/bench_old.json
cargo run --release -q -p voltron-bench --bin bench_one -- 164.gzip > /dev/null
cargo run --release -q -p voltron-bench --bin bench_diff -- \
    target/smoke/bench_old.json BENCH_bench_one.json
sed 's/"cycles":[0-9][0-9]*/"cycles":1/g' BENCH_bench_one.json \
    > target/smoke/bench_doctored.json
if cargo run --release -q -p voltron-bench --bin bench_diff -- \
    target/smoke/bench_doctored.json BENCH_bench_one.json \
    > /dev/null 2>&1; then
    echo "bench_diff passed a sidecar with seeded cycle regressions" >&2
    exit 1
fi

echo "== serve smoke: stdin burst, result cache, one-shot fingerprint equality"
# The daemon must produce byte-identical architectural numbers to the
# one-shot path (same BENCH_bench_one.json the bench_diff gate just
# regenerated), absorb an identical repeat from its result cache, and
# survive faulted and what-if requests on the same connection
# (DESIGN.md §12). One worker, so the burst is served in order: with two,
# the identical requests 1 and 2 run concurrently and both miss.
printf '%s\n' \
    '{"id":1,"workload":"164.gzip","strategy":"hybrid","cores":4}' \
    '{"id":2,"workload":"164.gzip","strategy":"hybrid","cores":4}' \
    '{"id":3,"workload":"164.gzip","strategy":"hybrid","cores":4,"faults":"seed=7,rate=0.002"}' \
    '{"id":4,"workload":"164.gzip","strategy":"hybrid","cores":4,"whatif":true}' \
    | cargo run --release -q -p voltron-bench --bin serve -- --stdin --workers 1 \
    > target/smoke/serve.ndjson
if grep -q '"ok":0' target/smoke/serve.ndjson; then
    echo "serve smoke returned an error row:" >&2
    cat target/smoke/serve.ndjson >&2
    exit 1
fi
test "$(wc -l < target/smoke/serve.ndjson)" -eq 4 || {
    echo "serve smoke expected 4 response rows" >&2
    exit 1
}
grep '"id":2,' target/smoke/serve.ndjson | grep -q '"result":"hit"' || {
    echo "repeat request was not served from the result cache" >&2
    exit 1
}
served=$(grep '"id":1,' target/smoke/serve.ndjson \
    | sed -n 's/.*"cycles":\([0-9][0-9]*\).*/\1/p')
oneshot=$(sed -n \
    's/.*"strategy":"hybrid","cores":4,"backend":"snooping","cycles":\([0-9][0-9]*\).*/\1/p' \
    BENCH_bench_one.json)
if [ -z "$served" ] || [ "$served" != "$oneshot" ]; then
    echo "served cycles (${served:-none}) != one-shot cycles (${oneshot:-none})" >&2
    exit 1
fi

echo "== serve_bench: saturation throughput, warm cache, served golden matrix"
# The standing heavy-traffic benchmark: enforces >= 2x saturation
# throughput vs amortized one-shot runs and >= 5x warm-over-cold repeat
# latency, re-checks the served golden matrix against the direct path,
# and appends a git-rev-stamped row to BENCH_history.ndjson so
# bench_diff guards serving throughput too.
cargo run --release -q -p voltron-bench --bin serve_bench > /dev/null
grep -q '"golden_match":1' BENCH_serve.json || {
    echo "serve_bench golden matrix diverged from the direct path" >&2
    exit 1
}
grep -q '"failures":0' BENCH_serve.json || {
    echo "serve_bench recorded request failures" >&2
    exit 1
}

echo "== chaos smoke: fixed-seed fault plan + retries, no hard failures"
# The whole figure path under fire (DESIGN.md §10): a seeded fault plan
# across every site, failed workloads retried under reseeded plans. Any
# hard failure (a workload no retry could save) fails the gate; the
# chaos suite proper (tests/fault_recovery.rs) runs with tier-1 above.
cargo run --release -q -p voltron-bench --bin fig13 -- --test --bench 164.gzip \
    --faults seed=7,rate=0.002 --retries 2 > /dev/null
grep -q '"hard":0' BENCH_fig13.json || {
    echo "chaos smoke left hard failures in BENCH_fig13.json" >&2
    exit 1
}

echo "== fault-off golden matrix: the compiled-in chaos layer is invisible"
# The fingerprints above already ran with faults=None; re-run the full
# matrix once more after the chaos smoke to pin that nothing the fault
# layer touched (stats plumbing, watchdog wiring, trace tracks) moved an
# architectural number in any {obs, ff} corner.
cargo test --release -q --test cycle_golden
CYCLE_GOLDEN_OBS=1 CYCLE_GOLDEN_FF=off cargo test --release -q --test cycle_golden

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
