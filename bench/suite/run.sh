#!/usr/bin/env bash
# Builds the benchmark suite into build/bench-suite/ and runs it.
#
#   bench/suite/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in its own process; prints every metric as
#       "<workload> <metric> <value> <unit>" and writes one JSON result file,
#       build/bench-suite/results/set-seed<N>[-traced].json
#   bench/suite/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON result
#   bench/suite/run.sh --check
#       smoke check in well under 20 s: every workload at a few ops, every
#       metric of BENCHMARK.json printed with its unit, no wrong answer, no
#       CPU fallback, and identical modeled output at one simulator thread
#
# --seconds sets the repetition count, max(3, S / 3); --trace 1 adds the
# per-layer breakdown. Any mode exits non-zero when an answer is wrong, an op
# fell back to the CPU, or a modeled result does not repeat. Build output
# goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/bench-suite"
bin="$build/bench_suite"
results="$build/results"

workload="" seed=1 seconds=20 trace=0 check=0
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift ;;
    --seed) seed="$2"; shift ;;
    --seconds) seconds="$2"; shift ;;
    --trace) trace="$2"; shift ;;
    --check) check=1 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
mkdir -p "$results"

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out-dir "$results"
fi

if ((check)); then
  dir="$build/check"
  rm -rf "$dir"
  mkdir -p "$dir"
  for w in $("$bin" --list); do
    for t in 0 1; do
      "$bin" --workload "$w" --check --seconds 0.1 --trace "$t" > "$dir/$w-trace$t.out"
    done
  done
  w="communities-mutate"
  "$bin" --workload "$w" --check --seconds 0.1 --sim-threads 1 > "$dir/$w-threads1.out"
  exec python3 "$here/check.py" "$root/BENCHMARK.json" "$dir"
fi

suffix=""
((trace)) && suffix="-traced"
out="$results/set-seed$seed$suffix.json"
parts=() status=0
for w in $("$bin" --list); do
  part="$results/$w-seed$seed$suffix.json"
  rm -f "$part"
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out-dir "$results" | grep -v '^{' || status=1
  [[ -f "$part" ]] && parts+=("$part")
done
if ((${#parts[@]} == 0)); then
  echo "run.sh: no workload wrote a result" >&2
  exit 1
fi
{
  printf '{"seed":%s,"traced":%s,"workloads":[' "$seed" "$( ((trace)) && echo true || echo false)"
  cat "${parts[@]}" | paste -sd, -
  printf ']}\n'
} > "$out"
echo "result: $out"
exit "$status"
