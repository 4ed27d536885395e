#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run before every push.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one test binary filtered to exactly one test name and fails when
# the filter matched nothing: a renamed test must not turn a step into a
# silent no-op. Usage: run_one_test <cargo test args...> -- <test name>
run_one_test() {
    local out
    out=$(cargo test "$@" --exact 2>&1) || { echo "$out"; return 1; }
    echo "$out"
    if ! grep -q "test result: ok\. 1 passed" <<<"$out"; then
        echo "ci: '${*: -1}' matched no test" >&2
        return 1
    fi
}

echo "=== cargo build --release ==="
cargo build --release --workspace

echo "=== cargo test ==="
cargo test -q --workspace

echo "=== fault-injection suite ==="
cargo test -q -p membit-nn --test fault_injection
cargo test -q -p membit-core --test resilience

echo "=== engine determinism suite ==="
# parallel-execution determinism must hold under any test scheduling:
# run the suite serialized and with concurrent test threads
cargo test -q -p membit-xbar --test proptest_determinism -- --test-threads=1
cargo test -q -p membit-xbar --test proptest_determinism -- --test-threads=4

echo "=== MVM inner-loop differential suite ==="
# the engine's delta, popcount and cached loops vs the reference oracle,
# plus cache/plane staleness fuzzing across all mutators
cargo test -q -p membit-xbar --test proptest_kernels

echo "=== release-mode float determinism (tensor, encoding, kernel suites, forward goldens) ==="
# the bitwise contracts must hold under optimized codegen too: release
# builds changed vectorization/libm behavior have broken these before
# (1-ULP sin divergence in results_identical_for_any_chunking, PR 8)
cargo test -q --release -p membit-tensor
cargo test -q --release -p membit-xbar --test proptest_kernels
cargo test -q --release -p membit-xbar --test proptest_determinism
# count-backed encoding equivalence and the forward-pass goldens
cargo test -q --release -p membit-encoding
cargo test -q --release -p membit-core --test forward_golden

echo "=== analytic MemSE suite (engine-variance identity + bitwise scores) ==="
# closed-form walk vs paired-MC engine variance, thread-count bitwise
# invariance of scores/selections — in both profiles, since the lane
# loops vectorize under release codegen
cargo test -q -p membit-core --test proptest_memse
cargo test -q --release -p membit-core --test proptest_memse
cargo test -q --release -p membit-nn moments

echo "=== guard suite (stats merge algebra + checksum fuzzing) ==="
cargo test -q -p membit-xbar --test proptest_stats
run_one_test -q -p membit-xbar --test proptest_kernels -- engine_never_masks_guard_violations

echo "=== non-ideality suite (IR drop, temperature, guard silence) ==="
cargo test -q -p membit-xbar --test proptest_nonideal

echo "=== serve suite (queue invariants + threaded chaos replay) ==="
# conservation, admission monotonicity, zero silent drops, bitwise replay
# — in both profiles, like the shard suite below
cargo test -q -p membit-serve --test proptest_serve
cargo test -q --release -p membit-serve --test proptest_serve
# live threaded serving over DeviceVgg: chaos + guard escalations must
# replay bitwise at 1 and 4 engine threads; kill + overload typed
cargo test -q -p membit-serve --test serve_replay

echo "=== shard suite (cross-shard conservation + chaos-script campaigns) ==="
# cross-shard accounting under arbitrary chaos scripts, deterministic
# routing reruns, sharded kill-and-replay bitwise at 1 and 4 threads —
# in both profiles to match the release-determinism gates (PR 8)
cargo test -q -p membit-serve --test proptest_shard
cargo test -q --release -p membit-serve --test proptest_shard
cargo test -q --release -p membit-serve --test serve_replay

# Smoke runs write under target/bench-smoke so they never overwrite the
# committed full-size results/BENCH_*.json baselines.

echo "=== bench_engine smoke (BENCH_engine.json + BENCH_mvm.json) ==="
# times the engine against the reference oracle and aborts on any
# disagreement
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/bench_engine --smoke
test -s target/bench-smoke/BENCH_engine.json
test -s target/bench-smoke/BENCH_mvm.json

echo "=== ablation_guard smoke (BENCH_guard.json + ablation_guard.csv) ==="
# asserts gap recovery, false-positive bound, determinism, and the
# analytic checksum overhead accounting
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/ablation_guard --smoke
test -s target/bench-smoke/BENCH_guard.json
test -s target/bench-smoke/ablation_guard.csv

echo "=== ablation_nonideal smoke (BENCH_nonideal.json + ablation_nonideal.csv) ==="
# asserts SAF gap recovery by the ECC + remap + guard stack, zero false
# escalations on fault-free scenarios, and per-scenario thread determinism
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/ablation_nonideal --smoke
test -s target/bench-smoke/BENCH_nonideal.json
test -s target/bench-smoke/ablation_nonideal.csv

echo "=== bench_serve smoke (BENCH_serve.json) ==="
# load × chaos sweep cells assert accounting, typed backpressure,
# health shedding, and bitwise log replay; the shard campaign pair
# asserts failover under a mid-run kill, a live reconfiguration, and
# strictly higher 3-shard admitted throughput under the same script
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/bench_serve --smoke
test -s target/bench-smoke/BENCH_serve.json

echo "=== bench_memse smoke (BENCH_memse.json) ==="
# analytic-vs-MC validation cells, search speedup + fidelity gates,
# tile-allocation non-regression, reconfiguration bitwise replay
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/bench_memse --smoke
test -s target/bench-smoke/BENCH_memse.json

echo "=== cargo clippy (-D warnings) ==="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "ci: all checks passed"
