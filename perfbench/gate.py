"""Correctness gate: every trial the benchmark times is checked here.

Checks that hold for any seed:
- every mse is finite and non-negative, PCSI's is exactly 0, and ser/rate
  are present and in range exactly when the workload has a data phase;
- the CSV and JSON that the sweep wrote read back equal to the rows and the
  summary, and the summary's cell medians and counts match the rows;
- the CRB floors in the summary equal the committed floors (orthogonal
  pilots make them independent of the seed) and keep the pi/2 ratio;
- NQ is efficient: its mean MSE per cell is within 6 standard errors of the
  unquantized CRB floor.

For a seed with a committed reference (``reference/<workload>.json``) the
outputs are also compared with the reference: NQ, OQ, RQ and PCSI per trial,
AQ and FQ by cell median.  AQ's separable-antenna reset amplifies rounding,
and FQ's estimates sit on the solver's norm cap, so a change that only moves
rounding can move single AQ/FQ trials a long way.

A trial that breaks a check counts as failed; a cell-level or round-level
failure fails every trial of that cell or round.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from collections import defaultdict

TRIAL_RTOL = 1e-6      # per-trial mse/ser/rate for NQ, OQ, RQ, PCSI
MEDIAN_RTOL = 0.25     # cell medians for AQ and FQ
FLOOR_RTOL = 1e-9      # CRB floors
NQ_SIGMAS = 6.0        # NQ mean MSE against its floor, in standard errors
PER_TRIAL = ("NQ", "OQ", "RQ", "PCSI")
FIELDS = ("mse", "ser", "rate")


def trial_key(block: int, row) -> str:
    return f"{block}/{row.scheme}/{row.L}/{row.snr_db!r}/{row.trial}"


def _close(a, b, rtol, atol=0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * abs(b)


# The CSV cell format the package documents, rebuilt here so that the check
# does not reuse the writer's own code.
def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def value_problem(row, n_frames: int, rate_cap: float) -> str | None:
    """Why a single row is invalid on its own, or None."""
    if not (math.isfinite(row.mse) and row.mse >= 0.0):
        return f"mse={row.mse!r}"
    if row.scheme == "PCSI" and row.mse != 0.0:
        return f"PCSI mse={row.mse!r} (perfect CSI must give 0)"
    if n_frames == 0:
        if row.ser is not None or row.rate is not None:
            return "ser/rate present without a data phase"
        return None
    if row.ser is None or not 0.0 <= row.ser <= 1.0:
        return f"ser={row.ser!r}"
    if row.rate is None or not (math.isfinite(row.rate) and 0.0 <= row.rate <= rate_cap):
        return f"rate={row.rate!r}"
    return None


def round_problem(rows, summary, csv_path, json_path, floors) -> str | None:
    """Checks on one round's written outputs and summary, or None when all pass."""
    with open(csv_path, newline="") as f:
        lines = list(csv.reader(f))
    header, body = lines[0], lines[1:]
    if len(body) != len(rows):
        return f"sweep.csv has {len(body)} rows for {len(rows)} trials"
    for line, row in zip(body, rows):
        if line != [_fmt(getattr(row, c)) for c in header]:
            return f"sweep.csv row {line} does not match trial {row}"
    with open(json_path) as f:
        if json.load(f) != json.loads(json.dumps(summary)):
            return "sweep.json does not read back equal to the summary"
    by_cell = defaultdict(list)
    for row in rows:
        by_cell[(row.scheme, row.L, row.snr_db)].append(row.mse)
    for cell in summary["cells"]:
        mses = by_cell.pop((cell["scheme"], cell["L"], cell["snr_db"]), [])
        if cell["n"] != len(mses) or not _close(cell["median_mse"], statistics.median(mses), 1e-12):
            return f"summary cell {cell['scheme']} L={cell['L']} disagrees with its rows"
    if by_cell:
        return f"summary misses cells {sorted(by_cell)}"
    for ref in summary["crb"]:
        want = floors.get(f"{ref['L']}/{ref['snr_db']!r}")
        if want is None:
            return f"no committed CRB floor for L={ref['L']} snr={ref['snr_db']}"
        for name in ("crb_oq_per_coeff", "crb_nq_per_coeff"):
            if not _close(ref[name], want[name], FLOOR_RTOL):
                return f"{name} at L={ref['L']} is {ref[name]!r}, committed {want[name]!r}"
        if not _close(ref["ratio_oq_nq"], math.pi / 2, FLOOR_RTOL):
            return f"CRB ratio oq/nq at L={ref['L']} is {ref['ratio_oq_nq']!r}, not pi/2"
    return None


def check_trials(trials, reference: dict, seed: int, M: int, K: int,
                 n_frames: int, rate_cap: float):
    """Return (indices of failed trials, problems, name of the gate that ran).

    ``trials`` is a list of (block, TrialResult); ``reference`` is the
    workload's committed reference file.
    """
    bad, problems = set(), []

    def fail(indices, message):
        bad.update(indices)
        if len(problems) < 20:
            problems.append(message)

    for i, (block, row) in enumerate(trials):
        why = value_problem(row, n_frames, rate_cap)
        if why:
            fail([i], f"{trial_key(block, row)}: {why}")

    nq = defaultdict(dict)
    for i, (block, row) in enumerate(trials):
        if row.scheme == "NQ":
            nq[(row.L, row.snr_db)][trial_key(block, row)] = (i, row.mse)
    for (L, snr), cell in nq.items():
        committed = reference["crb"].get(f"{L}/{snr!r}")
        if committed is None:
            fail([i for i, _ in cell.values()], f"NQ L={L}: no committed CRB floor")
            continue
        floor = committed["crb_nq_per_coeff"]
        mean = statistics.fmean(m for _, m in cell.values())
        # per-trial NQ mse is floor * chi2(2MK) / 2MK
        sigma = math.sqrt(2.0 / (2 * M * K * len(cell)))
        if abs(mean / floor - 1.0) > NQ_SIGMAS * sigma:
            fail([i for i, _ in cell.values()],
                 f"NQ L={L}: mean MSE {mean:.4g} vs floor {floor:.4g} over {len(cell)} trials")

    entry = reference["seeds"].get(str(seed))
    if entry is None:
        return bad, problems, "seed-free checks (no committed reference for this seed)"
    table = entry["trials"]
    cells = defaultdict(list)
    for i, (block, row) in enumerate(trials):
        key = trial_key(block, row)
        want = table.get(key)
        if want is None:
            fail([i], f"{key}: not in the reference")
        elif row.scheme in PER_TRIAL:
            got = [getattr(row, f) for f in FIELDS]
            if not all(_close(g, w, TRIAL_RTOL, 1e-300) for g, w in zip(got, want)):
                fail([i], f"{key}: {got} vs reference {want}")
        else:
            cells[(row.scheme, row.L, row.snr_db)].append((i, row, want))
    for (scheme, L, snr), items in cells.items():
        for j, field in enumerate(FIELDS):
            got = [getattr(row, field) for _, row, _ in items]
            if got[0] is None:
                continue
            med, ref_med = statistics.median(got), statistics.median(w[j] for *_, w in items)
            if not _close(med, ref_med, MEDIAN_RTOL, 1e-12):
                fail([i for i, _, _ in items],
                     f"{scheme} L={L}: median {field} {med:.4g} vs reference {ref_med:.4g}")
    return bad, problems, f"reference for seed {seed} plus seed-free checks"


def reference_entry(trials, blocks: int) -> dict:
    return {"blocks": blocks,
            "trials": {trial_key(block, row): [getattr(row, f) for f in FIELDS]
                       for block, row in trials}}


def floors_of(summary) -> dict:
    return {f"{ref['L']}/{ref['snr_db']!r}": {"crb_oq_per_coeff": ref["crb_oq_per_coeff"],
                                               "crb_nq_per_coeff": ref["crb_nq_per_coeff"]}
            for ref in summary["crb"]}
