#!/usr/bin/env python3
"""Compare two benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py .bench_out/results/A.json .bench_out/results/B.json

Refuses (exit 2) to compare results from different hosts, workloads,
trace modes or scales. Otherwise prints each metric of the second result
against the first; an end-to-end metric that got worse by more than its
bound in BENCHMARK.json is a regression (exit 1).
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Refused(Exception):
    pass


def comparable(base, new):
    """Raise Refused unless the two records were measured alike."""
    if base["host"]["host_id"] != new["host"]["host_id"]:
        raise Refused(f"results come from different hosts ({base['host']} vs {new['host']})")
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            raise Refused(f"results differ in {key}: {base[key]} vs {new[key]}")
    if base["provenance"]["scale"] != new["provenance"]["scale"]:
        raise Refused("results were measured at different scales")


def compare(base, new, spec):
    """Rows of (metric, base value, new value, change, verdict)."""
    comparable(base, new)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name, b in base["result"]["metrics"].items():
        if name not in new["result"]["metrics"]:
            continue
        bv, nv = b["value"], new["result"]["metrics"][name]["value"]
        change = (nv - bv) / bv if bv else 0.0
        worse = change if better.get(name, "lower") == "lower" else -change
        verdict = ""
        if name in bounds:
            verdict = "regression" if worse > bounds[name]["bound"] else "within bound"
        rows.append((name, bv, nv, change, verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as f:
            records.append(json.load(f))
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        rows = compare(records[0], records[1], spec)
    except Refused as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    for name, bv, nv, change, verdict in rows:
        print(f"{name:32} {bv:14.6g} {nv:14.6g} {change:+8.2%} {verdict}")
    return 1 if any(r[4] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
