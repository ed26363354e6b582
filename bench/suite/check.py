#!/usr/bin/env python3
"""Checks the outputs of `run.sh --check` against BENCHMARK.json.

usage: check.py BENCHMARK.json DIR

DIR holds <workload>-trace0.out and <workload>-trace1.out for every workload,
plus communities-mutate-threads1.out. Each workload must print every metric
BENCHMARK.json names, with its unit, both as a text line and in the JSON last
line, and must have answered everything correctly (error_rate 0) without a
CPU fallback (degraded 0). The single-thread run must repeat the modeled
output exactly.
"""
import json
import pathlib
import sys

MODELED = ("modeled_qps", "modeled_p50_ms", "modeled_p90_ms", "checksum")


def parse(path):
    """Returns ({metric: (value, unit)} from the text lines, the JSON result)."""
    lines = path.read_text().splitlines()
    text = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4:
            text[fields[1]] = (fields[2], fields[3])
    return text, json.loads(lines[-1])


def check_run(path, expected, problems):
    text, result = parse(path)
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{path.name}: {result['failed']} of {result['attempted']} ops failed")
    for name in ("error_rate", "degraded"):
        if text.get(name, ("?",))[0] != "0":
            problems.append(f"{path.name}: {name} is {text.get(name)}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"{path.name}: JSON metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        if text.get(name, (None, None))[1] != unit:
            problems.append(f"{path.name}: no '{name} <value> {unit}' line")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{path.name}: JSON metric {name} lacks unit {unit}")
    return text


def main():
    bench = json.loads(pathlib.Path(sys.argv[1]).read_text())
    out = pathlib.Path(sys.argv[2])
    kinds = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    runs = 0
    for trace, expected in kinds.items():
        for path in sorted(out.glob(f"*-trace{trace}.out")):
            check_run(path, expected, problems)
            runs += 1
    if runs != 2 * len(bench["workloads"]):
        problems.append(f"expected {2 * len(bench['workloads'])} runs, found {runs}")

    base, _ = parse(out / "communities-mutate-trace0.out")
    single, _ = parse(out / "communities-mutate-threads1.out")
    for name in MODELED:
        if base.get(name) != single.get(name):
            problems.append(f"--sim-threads=1 changed {name}: {base.get(name)} vs {single.get(name)}")

    for p in problems:
        print("FAIL", p)
    print(f"check: {runs} runs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
