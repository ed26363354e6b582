#!/bin/bash
# Regenerates bench_output.txt: every experiment binary at full dataset scale.
#
# SIMT_THREADS sets the simulator's host threads, on which service drains
# record queries ahead (see src/simt/exec_pool.h); defaults to the host core
# count. The simulated metrics are thread-count invariant, only host wall
# clock changes.
cd "$(dirname "$0")"
export SIMT_THREADS="${SIMT_THREADS:-$(nproc)}"
mkdir -p results

# Binaries that archive a diffable artifact under results/, one row each:
#   binary|extra arguments|file the output is tee'd to (empty: none)
# Every other binary in build/bench runs without arguments.
ARCHIVED=(
  # Simulator cost per launch and per traced event (name / real_time /
  # items_per_second).
  "micro_simt|--benchmark_out=results/BENCH_simt.json --benchmark_out_format=json|"
  # The adaptive runtime's decision trace and counter registry.
  "table4_adaptive|--trace-out=results/TRACE_table4_adaptive.jsonl --trace-format=jsonl --metrics-out=results/METRICS_table4_adaptive.json|"
  # Fused MS-BFS throughput, makespan vs stream concurrency.
  "ext_service||results/BENCH_service.txt"
  # Fault overhead, dead-device degradation.
  "ext_resilience||results/BENCH_resilience.txt"
  # Warm/cold speedup, hit rates on Zipfian streams.
  "ext_cache||results/BENCH_cache.txt"
  # Incremental patch vs replace-everything steady-state QPS.
  "ext_dynamic||results/BENCH_dynamic.txt"
  # Push vs pull vs DO times, pull-iteration counts, DO/push speedups.
  "ext_direction|--json-out=results/BENCH_direction.json|"
)

{
  echo "###### config: SIMT_THREADS=${SIMT_THREADS}"
  echo
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    name=$(basename "$b")
    args="" artifact=""
    for row in "${ARCHIVED[@]}"; do
      IFS='|' read -r bin extra file <<< "$row"
      if [ "$bin" = "$name" ]; then args=$extra artifact=$file; fi
    done
    echo "###### $name"
    # $args is split on purpose: it holds several flags, none with spaces.
    if [ -n "$artifact" ]; then
      "$b" $args | tee "$artifact"
    else
      "$b" $args
    fi
    echo
  done
} 2>&1
