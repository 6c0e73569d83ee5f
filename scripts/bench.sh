#!/usr/bin/env bash
# Regenerates the machine-readable perf snapshots at the repo root:
#
#   BENCH_substrate.json — dense message plane vs the reference loop, on
#                          all-table systems and on a link-shaped system
#                          with a replay node
#   BENCH_refuters.json  — run-reuse engine (adaptive dispatch, warm run
#                          cache) vs the cold sequential baseline, plus
#                          certificate encode/decode/verify throughput
#                          (the three legs flm-audit runs per file)
#   BENCH_runcache.json  — each engine layer isolated: warm vs cold cache,
#                          adaptive vs naive pool dispatch
#   BENCH_serve.json     — FLMC-RPC round trips against an in-process
#                          flm-serve server: ping floor, refute requests
#                          warm vs cold, mixed-load generator throughput,
#                          plus the sharded plane: router-hop overhead vs
#                          a direct warm RPC, shard-local warm hit vs a
#                          cold simulate through the router, and a
#                          1000-socket wave against the router front
#   BENCH_campaign.json  — a trimmed fixed-seed chaos campaign (sweep +
#                          shrink + certify), parallel vs forced
#                          sequential, plus the deterministic mean shrink
#                          ratio in nodes
#
# Timings are ns/op (min/median/mean); the "speedups" arrays carry the
# headline ratios, computed over the minima — the noise-floor estimator —
# (scripts/check.sh --bench-gate fails on a >25% regression against them).
# Usage: scripts/bench.sh [samples]   (default 25)
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES="${1:-25}"

echo "==> cargo build --release -p flm-bench"
cargo build --release -p flm-bench

echo "==> substrate suite (${SAMPLES} samples)"
./target/release/regen --bench substrate --samples "$SAMPLES" --out BENCH_substrate.json

echo "==> refuter suite (${SAMPLES} samples)"
./target/release/regen --bench refuters --samples "$SAMPLES" --out BENCH_refuters.json

echo "==> runcache suite (${SAMPLES} samples)"
./target/release/regen --bench runcache --samples "$SAMPLES" --out BENCH_runcache.json

echo "==> serve suite (${SAMPLES} samples)"
./target/release/regen --bench serve --samples "$SAMPLES" --out BENCH_serve.json

echo "==> campaign suite (${SAMPLES} samples)"
./target/release/regen --bench campaign --samples "$SAMPLES" --out BENCH_campaign.json

echo "Wrote BENCH_substrate.json, BENCH_refuters.json, BENCH_runcache.json, BENCH_serve.json, and BENCH_campaign.json."
