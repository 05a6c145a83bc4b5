#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report the spread.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/base

Prints, for every workload and metric, the median and quartiles over the
runs, the quartile spread as a share of the median, and for bounded
end-to-end metrics whether that spread is below a third of the bound.  Each
run's record goes to ``--out`` for ``compare.py``.  ``--seeds 0 --trace 0``
prints every end-to-end metric of every workload with the correctness
verdict in one command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import bounds, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,1")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "results" / "repeat")
    args = p.parse_args(argv)
    limits = bounds()
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for wl in args.workloads:
        values, units, verdicts = {}, {}, []
        for seed in seed_list(args.seeds):
            record = args.out / f"{wl}-seed{seed}-trace{args.trace}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--record", str(record)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(record) as f:
                full = json.load(f)
            verdicts.append(f"seed {seed}: correct={result['correct']} "
                            f"{result['failed']}/{result['attempted']} failed")
            status |= not result["correct"]
            units.update(full["units"])
            for name, value in full["metrics"].items():
                values.setdefault(name, []).append(value)
        print(f"{wl}")
        for line in verdicts:
            print(f"  {line}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            bound = limits.get(name)
            note = ""
            if bound is not None and len(vals) > 1:
                note = f"bound {bound}: {'steady' if spread(vals) < bound / 3 else 'NOT steady'}"
            print(f"  {name:28s} {units[name]:9s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread(vals) if len(vals) > 1 else 0.0:.4f} {note}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
