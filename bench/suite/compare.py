#!/usr/bin/env python3
"""Compares benchmark result sets against the bounds in BENCHMARK.json.

usage: compare.py BASE.json NEW.json
       compare.py --base B1.json B2.json ... --new N1.json N2.json ...
       [--benchmark PATH]   (default: BENCHMARK.json at the repository root)

Each file is a result set written by run.sh: every workload of one run. The
report has one row per workload and end-to-end metric, with the base and new
medians, the change (positive = better), and a verdict:

  worse         the new median is worse than the base median by more than
                the metric's bound;
  unresolved    the base runs' own spread exceeds the bound, so the bound
                cannot be checked (unless every new run beats every base run);
  better        with >= 10 files per side: the new run wins >= 9/10 of the
                pairs (ties count for neither) and the medians differ by more
                than the base's interquartile distance; with fewer files: the
                gain exceeds the bound;
  identical     the values are equal (modeled metrics repeat exactly);
  within bound  none of the above.

A base's spread is the interquartile distance over its median across its
files; one file has no spread, so its metrics are never unresolved. Two
more rows per workload compare error_rate and the payload checksum. The exit
status is 1 when any row is worse, an error rate rose, a checksum of the
same seed differs, or the files were run with different repetition counts
(the host metrics are minima over repetitions, so they are not comparable).
"""
import argparse
import json
import pathlib
import statistics
import sys


def load(path):
    data = json.loads(pathlib.Path(path).read_text())
    return {w["workload"]: w for w in data["workloads"]}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, bound, higher):
    """base/new: a metric's values, one per result file."""
    sign = 1 if higher else -1
    mb, mn = statistics.median(base["values"]), statistics.median(new["values"])
    gain = sign * (mn - mb) / mb
    if base["values"] == new["values"]:
        return gain, "identical"
    beats_all = all(sign * (n - b) > 0 for n in new["values"] for b in base["values"])
    if base["spread"] > bound:
        return gain, "better" if beats_all else "unresolved"
    if gain < -bound:
        return gain, "worse"
    if base["files"] >= 10 and new["files"] >= 10:
        pairs = list(zip(base["values"], new["values"]))
        wins = sum(sign * (n - b) > 0 for b, n in pairs)
        q = statistics.quantiles(base["values"], n=4)
        if gain > 0 and wins >= 0.9 * len(pairs) and abs(mn - mb) > q[2] - q[0]:
            return gain, "better"
        return gain, "within bound"
    return gain, "better" if gain > bound else "within bound"


def side(sets, workload, name):
    values = [s[workload]["metrics"][name]["value"] for s in sets]
    return {"values": values, "spread": spread(values), "files": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    parser.add_argument("--benchmark",
                        default=pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json")
    args = parser.parse_args()
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give BASE.json NEW.json, or --base ... --new ...")
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not args.base or not args.new:
        parser.error("need base and new result files")

    bench = json.loads(pathlib.Path(args.benchmark).read_text())
    base_sets = [load(p) for p in args.base]
    new_sets = [load(p) for p in args.new]
    for workload in base_sets[0]:
        counts = {s[workload]["repetitions"] for s in base_sets + new_sets if workload in s}
        if len(counts) > 1:
            sys.exit(f"compare.py: {workload} was run with {sorted(counts)} repetitions; "
                     "host metrics are minima over repetitions, so run every set "
                     "with the same --seconds")
    failed = False
    print(f"{'workload':20} {'metric':16} {'base':>13} {'new':>13} {'change':>8}  verdict")
    for workload in base_sets[0]:
        if any(workload not in s for s in base_sets + new_sets):
            print(f"{workload:20} missing from some files")
            failed = True
            continue
        for m in bench["end_to_end"]:
            b = side(base_sets, workload, m["name"])
            n = side(new_sets, workload, m["name"])
            gain, v = verdict(b, n, m["bound"], m["better"] == "higher")
            failed |= v == "worse"
            print(f"{workload:20} {m['name']:16} {statistics.median(b['values']):13.6g} "
                  f"{statistics.median(n['values']):13.6g} {100 * gain:+7.2f}%  {v}")
        be = max(s[workload]["error_rate"] for s in base_sets)
        ne = max(s[workload]["error_rate"] for s in new_sets)
        v = "identical" if be == ne else ("worse" if ne > be else "better")
        failed |= ne > be
        print(f"{workload:20} {'error_rate':16} {be:13.6g} {ne:13.6g} {'':8}  {v}")
        pairs = [(b[workload], n[workload]) for b, n in zip(base_sets, new_sets)]
        if all(b["seed"] == n["seed"] for b, n in pairs):
            same = all(b["checksum"] == n["checksum"] for b, n in pairs)
            failed |= not same
            v = "identical" if same else "differs"
        else:
            v = "n/a (seeds differ)"
        print(f"{workload:20} {'checksum':16} {pairs[0][0]['checksum']:>13} "
              f"{pairs[0][1]['checksum']:>13} {'':8}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
