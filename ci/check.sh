#!/usr/bin/env bash
# Offline tier-1 gate: build, full test suite, lints, formatting.
#
# Everything runs with --offline — the workspace vendors all external
# dependencies under vendor/, so no registry access is needed (or
# possible) in CI containers.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test -q --workspace --release --offline

echo "==> resilience + conformance + serve chaos suites under the thread matrix"
# These read their pool size from CHIRON_THREADS. The determinism, SIMD
# and zero-alloc suites set it in-process (1/4/8), so the plain test run
# above already covers them.
for t in 1 4 8; do
    echo "    CHIRON_THREADS=$t"
    CHIRON_THREADS=$t cargo test -q --release --offline \
        --test failure_injection --test resilience \
        --test mechanism_conformance --test serve
done

echo "==> kernel + determinism suites on the pinned scalar tier"
# CHIRON_SIMD=0 pins the scalar dispatch tier; the default run above uses
# the best detected one (AVX2/NEON). Both must be bitwise-identical —
# tests/simd.rs compares against the pinned scalar reference explicitly,
# and tests/cnn_bits.rs pins the CNNs' output bits to the same constants
# on every tier.
CHIRON_SIMD=0 cargo test -q --release --offline --test simd --test parallel_determinism \
    --test cnn_bits
CHIRON_SIMD=0 cargo test -q --release --offline -p chiron-tensor kernel
# The direct conv kernels' unit tests compare each tier against an
# element-at-a-time reference fold.
CHIRON_SIMD=0 cargo test -q --release --offline -p chiron-tensor conv

echo "==> tournament smoke: bitwise-identical leaderboard at 1/4/8 threads"
# The closed-form / non-learning corner of the zoo, one episode and one
# seed over all five scenarios; the emitted JSON must not depend on
# thread count.
smoke_grid=(CHIRON_TOURNAMENT_MECHS=static,lemma-oracle,fmore,stackelberg
    CHIRON_EPISODES=1 CHIRON_SEEDS=1)
tourn_ref="$(mktemp -d)"
env "${smoke_grid[@]}" CHIRON_BENCH_OUT="$tourn_ref" CHIRON_THREADS=1 \
    cargo run -q --release --offline -p chiron-bench --bin bench_tournament >/dev/null
for t in 4 8; do
    tourn_alt="$(mktemp -d)"
    env "${smoke_grid[@]}" CHIRON_BENCH_OUT="$tourn_alt" CHIRON_THREADS=$t \
        cargo run -q --release --offline -p chiron-bench --bin bench_tournament >/dev/null
    diff "$tourn_ref/BENCH_tournament.json" "$tourn_alt/BENCH_tournament.json" \
        || { echo "tournament leaderboard differs at CHIRON_THREADS=$t"; exit 1; }
    rm -rf "$tourn_alt"
done
# Keep the smoke output when the caller asked for it (CI publishes the
# leaderboard as a workflow artifact); the scratch dir is removed.
if [ -n "${CHIRON_BENCH_SMOKE_OUT:-}" ]; then
    mkdir -p "$CHIRON_BENCH_SMOKE_OUT"
    cp "$tourn_ref"/BENCH_tournament.json "$tourn_ref"/BENCH_tournament.md "$CHIRON_BENCH_SMOKE_OUT"/
fi
rm -rf "$tourn_ref"

echo "==> serve daemon smoke (submit, poll, drain-shutdown) under the thread matrix"
for t in 1 4; do
    echo "    CHIRON_THREADS=$t"
    serve_log="$(mktemp)"
    serve_state="$(mktemp -d)"
    CHIRON_THREADS=$t cargo run -q --release --offline -p chiron-cli -- serve \
        --addr 127.0.0.1:0 --workers 1 --state-dir "$serve_state" >"$serve_log" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 100); do
        serve_addr="$(sed -n 's/^serve: listening on //p' "$serve_log")"
        [ -n "$serve_addr" ] && break
        sleep 0.1
    done
    if [ -z "$serve_addr" ]; then
        echo "serve daemon did not report a listening address"; cat "$serve_log"
        kill "$serve_pid" 2>/dev/null || true; exit 1
    fi
    curl -sf -X POST "http://$serve_addr/jobs" \
        -d '{"kind":"Eval","dataset":"tiny","nodes":3,"budget":20.0}' | grep -q '"id":1'
    job_state=""
    for _ in $(seq 1 600); do
        job_state="$(curl -sf "http://$serve_addr/jobs/1")"
        case "$job_state" in
            *Completed*) break ;;
            *Failed* | *Cancelled*) echo "serve smoke job failed: $job_state"; exit 1 ;;
        esac
        sleep 0.1
    done
    case "$job_state" in
        *Completed*) ;;
        *) echo "serve smoke job did not complete: $job_state"
           kill "$serve_pid" 2>/dev/null || true; exit 1 ;;
    esac
    curl -sf "http://$serve_addr/healthz" | grep -q '"status":"ok"'
    curl -sf "http://$serve_addr/metrics" | grep -q '^serve_admitted_total 1$'
    curl -sf -X POST "http://$serve_addr/shutdown" >/dev/null
    wait "$serve_pid"
    rm -rf "$serve_log" "$serve_state"
done

echo "==> end-to-end benchmark tests (smoke run of each workload, serve-result check)"
# The benchmark is a workspace of its own (e2ebench/Cargo.toml); a crate
# change that breaks it fails here rather than at the benchmark gate.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo doc --no-deps (warnings are errors; own crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet \
    -p chiron-telemetry -p chiron-tensor -p chiron-nn -p chiron-data \
    -p chiron-fedsim -p chiron-drl -p chiron -p chiron-baselines \
    -p chiron-bench -p chiron-cli -p chiron-repro -p chiron-serve

echo "==> public API snapshot is current (ci/public_api.sh --update to refresh)"
ci/public_api.sh | diff -u docs/public-api.txt - \
    || { echo "public API surface changed; run ci/public_api.sh --update and review the diff"; exit 1; }

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "All checks passed."
