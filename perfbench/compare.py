#!/usr/bin/env python3
"""Compare two sets of benchmark records, e.g. the parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records that ``run.py --record`` (or
``repeat.py --out``) wrote.  The comparison is refused (exit 2) when the
records' environments differ in anything but the program itself: core count,
CPU, Python/numpy/scipy, BLAS library and its thread setting, or the
benchmark's own files.  Otherwise, for every workload and metric it prints
each side's median and quartiles and a verdict:

- ``gain``: the change wins at least 9 of 10 seed-matched pairs and the
  medians differ by more than the base's quartile spread;
- ``regression``: the change's median is worse than the base's by more than
  the bound BENCHMARK.json fixes for the metric;
- ``unresolved``: the base's own spread is wider than the bound and the
  change does not beat every base run;
- ``within bound`` otherwise (``no gain`` for metrics without a bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Differences here are what a comparison measures; any other difference refuses it.
PROGRAM_KEYS = {"commit", "program_sha256"}


def load_records(directory: Path) -> list:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            rec = json.load(f)
        if "env" in rec and "metrics" in rec:
            records.append(rec)
    return records


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def bounds() -> dict:
    return {m["name"]: m["bound"] for m in spec()["end_to_end"]}


def lower_is_better() -> set:
    """Metrics where a smaller value is better; per-scheme rates are not listed and are higher."""
    s = spec()
    return {m["name"] for m in s["end_to_end"] + s["per_layer"] if m["better"] == "lower"} | {
        "failed_frac"}


def quartiles(values) -> tuple:
    """(q1, median, q3); with fewer than two values all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def env_differences(records) -> dict:
    """Environment keys whose values differ between records, with the values seen."""
    seen = defaultdict(set)
    for rec in records:
        for key, value in rec["env"].items():
            if key not in PROGRAM_KEYS:
                seen[key].add(json.dumps(value))
        seen["seconds"].add(json.dumps(rec["seconds"]))
    return {k: sorted(v) for k, v in seen.items() if len(v) > 1}


def judge(base, change, bound, lower) -> str:
    sign = -1.0 if lower else 1.0
    b_q1, b_med, b_q3 = quartiles([v for _, v in base])
    c_med = statistics.median(v for _, v in change)
    base_by_seed = dict(base)
    pairs = [(base_by_seed[s], v) for s, v in change if s in base_by_seed]
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        return f"gain ({wins}/{len(pairs)} pairs)"
    if bound is None:
        return "no gain"
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "regression"
    all_better = (min(v for _, v in change) > max(v for _, v in base) if not lower
                  else max(v for _, v in change) < min(v for _, v in base))
    if spread([v for _, v in base]) > bound and not all_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    base, change = load_records(args.base), load_records(args.change)
    if not base or not change:
        sys.exit("compare: both directories need benchmark records")
    diff = env_differences(base + change)
    if diff:
        for key, values in diff.items():
            print(f"compare: environment differs in {key}: {', '.join(values)}", file=sys.stderr)
        print("compare: refusing to compare results from different environments", file=sys.stderr)
        return 2
    limits, lower = bounds(), lower_is_better()

    def kind(r):
        return r["workload"], r.get("trace", 0)

    for wl, trace in sorted({kind(r) for r in base} & {kind(r) for r in change}):
        print(f"{wl} (trace {trace})")
        b = [r for r in base if kind(r) == (wl, trace)]
        c = [r for r in change if kind(r) == (wl, trace)]
        for name in sorted(set(b[0]["metrics"]) & set(c[0]["metrics"])):
            bv = [(r["seed"], r["metrics"][name]) for r in b if name in r["metrics"]]
            cv = [(r["seed"], r["metrics"][name]) for r in c if name in r["metrics"]]
            bq, cq = quartiles([v for _, v in bv]), quartiles([v for _, v in cv])
            print(f"  {name:28s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(bv)}  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(cv)}  "
                  f"{judge(bv, cv, limits.get(name), name in lower)}")
        failed = sum(r["verdict"]["failed"] for r in c) - sum(r["verdict"]["failed"] for r in b)
        if failed > 0:
            print(f"  the change fails {failed} more trials than the base: no gain counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
