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
# byte-identical across re-runs and thread counts).
echo "=== dnnbench ==="
cargo run -q -p dhdl-bench --bin dhdl --release -- dnnbench

# Multi-FPGA partitioning axis: gemm/gda/conv2d swept once to K=4, read at K=1,2,4
# devices (results/BENCH_part.json, byte-identical across thread
# counts). partbench exits nonzero — failing this script loudly —
# unless some configuration that is infeasible on one device becomes
# valid at K>1.
echo "=== partbench (K=1,2,4) ==="
cargo run -q -p dhdl-bench --bin dhdl --release -- partbench

# DSE-as-a-service smoke: the benchmark's two serve workloads, two
# seconds each, against a `dhdl-serve` child. Each exits nonzero on any
# response that is not `ok`, carries the wrong `cached` flag, or differs
# by a bit from the in-process estimate.
echo "=== serve smoke ==="
bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 2 --trace 0
bash benchmark/run.sh --workload serve_cold --seed 1 --seconds 2 --trace 0
