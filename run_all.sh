#!/usr/bin/env bash
# Regenerate every table and figure of the evaluation (EXPERIMENTS.md).
set -euo pipefail

# Observability: DHDL_OBS=summary prints a span/counter table per
# experiment, =json writes results/obs/<experiment>.obs.json, =chrome
# writes results/obs/<experiment>.trace.json (load in chrome://tracing
# or Perfetto).
# Off by default; recording never changes any result (sweeps are
# byte-identical either way).
export DHDL_OBS="${DHDL_OBS:-off}"

cargo build --release --workspace

# Differential-conformance gate: fuzz randomly generated DHDL designs
# through the sim/estimator/synth/CPU oracle stack before trusting the
# toolchain to regenerate results. Deterministic for the fixed seed;
# shrunk counterexamples (if any) land in tests/corpus/ for replay.
# Set DHDL_FUZZ_DESIGNS=0 to skip.
DHDL_FUZZ_DESIGNS="${DHDL_FUZZ_DESIGNS:-500}"
if [ "$DHDL_FUZZ_DESIGNS" -gt 0 ]; then
  echo "=== conformance fuzz ($DHDL_FUZZ_DESIGNS designs) ==="
  cargo run -q -p dhdl-conformance --bin dhdl-fuzz --release -- \
    --designs "$DHDL_FUZZ_DESIGNS" --seed 0
fi

for b in table2 table3 table4 fig5 fig6 energy ablations; do
  echo "=== $b ==="
  cargo run -q -p dhdl-bench --bin dhdl --release -- "$b"
done

# DNN workload frontier: conv2d + attention swept, the best designs
# simulated under both simulator backends with a bit-exact cross-check,
# and modeled speedups vs. the CPU model (results/BENCH_dnn.json,
# byte-identical across re-runs and thread counts). Set
# DHDL_DNN_POINTS=0 to skip.
DHDL_DNN_POINTS="${DHDL_DNN_POINTS:-2000}"
if [ "$DHDL_DNN_POINTS" -gt 0 ]; then
  echo "=== dnnbench ==="
  DHDL_DNN_POINTS="$DHDL_DNN_POINTS" \
    cargo run -q -p dhdl-bench --bin dhdl --release -- dnnbench
fi

# Multi-FPGA partitioning axis: gemm/gda/conv2d swept at K=1,2,4
# devices (results/BENCH_part.json, byte-identical across thread
# counts). partbench exits nonzero — failing this script loudly —
# unless some configuration that is infeasible on one device becomes
# valid at K>1. Set DHDL_PART_POINTS=0 to skip.
DHDL_PART_POINTS="${DHDL_PART_POINTS:-800}"
if [ "$DHDL_PART_POINTS" -gt 0 ]; then
  echo "=== partbench (K=1,2,4 @ $DHDL_PART_POINTS points) ==="
  DHDL_PART_POINTS="$DHDL_PART_POINTS" \
    cargo run -q -p dhdl-bench --bin dhdl --release -- partbench
fi

# DSE-as-a-service smoke: a few seconds of Zipf-skewed multi-tenant
# traffic against a live dhdl-serve instance, recording throughput and
# hit/miss latency percentiles (results/BENCH_serve.json). The load
# generator exits nonzero on any protocol violation, then drains the
# server via the shutdown op; `wait` propagates the server's exit code.
# Set DHDL_LOADGEN_SECS=0 to skip.
DHDL_LOADGEN_SECS="${DHDL_LOADGEN_SECS:-5}"
if [ "$DHDL_LOADGEN_SECS" -gt 0 ]; then
  echo "=== serve smoke (${DHDL_LOADGEN_SECS}s) ==="
  SERVE_ADDR="${DHDL_SERVE_ADDR:-127.0.0.1:7561}"
  DHDL_SERVE_ADDR="$SERVE_ADDR" target/release/dhdl-serve &
  SERVE_PID=$!
  for _ in $(seq 1 120); do
    if (exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR#*:}") 2>/dev/null; then
      break
    fi
    sleep 0.5
  done
  DHDL_SERVE_ADDR="$SERVE_ADDR" DHDL_LOADGEN_SECS="$DHDL_LOADGEN_SECS" \
    DHDL_LOADGEN_SHUTDOWN=1 target/release/dhdl-loadgen
  wait "$SERVE_PID"
fi
