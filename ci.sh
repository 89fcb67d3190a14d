#!/usr/bin/env bash
# Workspace CI: build, test, lint, format. Mirrors what the tier-1 driver
# runs (build + root-package tests) and extends it to every crate.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace, trace-dump-on-failure armed)"
# SELETH_TRACE_ON_FAIL points the first-divergence diagnostics at a
# scratch dir: when a bit-identity suite trips, the failure message
# carries the first divergent event and both event traces land there
# as JSON lines for offline diffing.
SELETH_TRACE_ON_FAIL="$(mktemp -d)" cargo test --workspace -q

echo "==> perfbench build + harness tests"
# The benchmark is a package of its own, outside the workspace, that
# calls the simulators and the classify/accounting APIs directly: build
# it here so an API change that breaks it fails CI, not the benchmark.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# perfbench is outside the workspace, so the workspace lint and format
# checks do not reach it.
cargo clippy --release --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> policy artifact-compat audit (legality + byte-identical re-save)"
# Loads every committed results/policies/*.json through the v2 API:
# unreadable, illegal or non-byte-stable tables fail the build. No
# solving, no simulation, no network.
SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_sim -- --audit

echo "==> optimal_sim agreement gate (fast settings)"
# Small runs/blocks/truncation keep this under a minute; results go to a
# scratch dir so the committed full-size artifacts aren't overwritten.
SELETH_RESULTS="$(mktemp -d)" SELETH_RUNS=4 SELETH_BLOCKS=20000 SELETH_MDP_LEN=24 \
    cargo run --release -q -p seleth-bench --bin optimal_sim

echo "==> optimal_delay smoke gate (strategic delay path)"
# Replays a committed artifact through the strategic delay engine: one
# Bitcoin point, two delays, small budgets. Output goes to a scratch dir;
# the committed artifacts are read via SELETH_POLICIES.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_delay -- --smoke

echo "==> optimal_closed_loop smoke gate (race-window artifacts vs the zero-delay optimum)"
# Replays the committed truncation-200 delay-aware artifact against the
# zero-delay baseline at its design delay, small budgets, loosened
# tolerance. Reads committed artifacts (no solving in CI); output goes to
# a scratch dir.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_closed_loop -- --smoke

echo "==> strategy_zoo smoke gate (zoo tournament + multi-strategist matchups)"
# One (α, γ) point, duopoly split, two delays, one matchup cell, small
# budgets; gates SM1 against its closed form and the optimal artifact
# against every hand-written family.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin strategy_zoo -- --smoke

echo "==> chaos_study smoke gate (deterministic fault injection)"
# Zero-delay anchor plus a handful of fault cells (loss, churn +
# partition) under small budgets; gates the anchor against the
# artifact's rho*. Output goes to a scratch dir, which the perf_report
# gate below then renders: a fresh study JSON (with trace) must flow
# through the profiler end to end.
CHAOS_SCRATCH="$(mktemp -d)"
SELETH_RESULTS="$CHAOS_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin chaos_study -- --smoke \
    --trace "$CHAOS_SCRATCH/chaos_trace.jsonl"

echo "==> topology_study smoke gate (peer-graph gossip propagation)"
# Uniform anchor, the bit-identity-gated complete graph, and the
# hub/leaf attacker-position pair under small budgets; gates the
# complete graph bitwise against the uniform engine and the positional
# revenue spread against the smoke noise floor.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin topology_study -- --smoke

echo "==> perf_report smoke gate (telemetry renders end to end)"
# The fresh smoke output and every committed study JSON must render;
# the trace file must be non-empty JSON lines.
cargo run --release -q -p seleth-bench --bin perf_report -- \
    "$CHAOS_SCRATCH/chaos_study_smoke.json" > /dev/null
test -s "$CHAOS_SCRATCH/chaos_trace.jsonl"
SELETH_RESULTS=results \
    cargo run --release -q -p seleth-bench --bin perf_report > /dev/null

echo "==> perf_trend regression gate (smoke: first-run ledger tolerated)"
# Compares the latest BENCH_history.jsonl row per bench bin against the
# most recent earlier row from a comparable host and fails on
# noise-banded regressions; --smoke passes when the ledger is still
# seeding (absent or fewer than two comparable rows).
SELETH_RESULTS=results \
    cargo run --release -q -p seleth-bench --bin perf_report -- --trend --smoke

echo "CI OK"
