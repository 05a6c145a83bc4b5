#!/usr/bin/env python3
"""onebit-mimo benchmark: Monte Carlo sweep throughput through the public API.

    python3 perfbench/run.py --workload pilot_sweep --seed 0 --seconds 30 --trace 0

Each round runs the workload's ``experiments.run_sweep`` calls, then
``summarize``, ``write_trials_csv`` and ``write_json``, as ``onebit-mimo
sweep`` does.  ``--trace 0`` repeats rounds for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of rounds untraced and
then traced, and prints the per-layer metrics.  The last stdout line is the
result object; progress and a readable summary go to stderr, and the full
record (environment, every metric, gate report) to ``--record``; a traced
run writes its spans beside it as ``*.spans.jsonl``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import gate
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = HERE / "out"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_PROBES = 5
MIN_ROUNDS = 3
# Warm-up inputs are the same for every --seed, so that setup_s times the same work in
# every run; 999 is no measured master seed (1000 * seed + block, block < blocks).
WARMUP_SEED = 999
WARMUP_FRAMES = 8
PROGRESS_EVERY_S = 3.0
CAL_NOMINAL_S = 0.040  # one calibration pass at the host's usual speed (2-vCPU Xeon VM)

END_TO_END = {"norm_trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "experiments.trials": "count", "experiments.seed_s": "s",
    "experiments.trial_self_s": "s", "experiments.summarize_s": "s",
    "experiments.write_s": "s", "experiments.pool_busy_frac": "ratio",
    "experiments.pool_trials_per_s": "trials/s",
    "model.draw_calls": "count", "model.draw_s": "s",
    "model.observe_calls": "count", "model.observe_s": "s",
    "quant.threshold_s": "s", "quant.quantize_calls": "count", "quant.quantize_s": "s",
    "schemes.self_s": "s", "schemes.nq_trials_per_s": "trials/s",
    "mle.solve_calls": "count", "mle.solve_s": "s", "mle.newton_iters": "count",
    "mle.s_per_newton_iter": "s/iter", "mle.terms": "count",
    "mle.antenna_converged_frac": "ratio", "mle.nq_s": "s",
    "crb.calls": "count", "crb.s": "s",
    "detect.simulate_s": "s", "detect.detect_calls": "count", "detect.frames": "count",
    "detect.detect_s": "s", "detect.score_gflop": "GFLOP", "detect.score_gflops": "GFLOP/s",
    "detect.rate_s": "s",
    "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
}
NOT_MEASURED = {
    "mle Newton split (likelihood terms, Hessian, linear solve, line search)":
        "all four run inside one solve_ml call; needs spans inside mle",
    "detect split (log-Phi tables vs frame scoring)":
        "both run inside one detect_frames call; needs spans inside detect",
    "gauss kernels (norm_logcdf, mills_ratio)":
        "called through names bound inside mle, crb and detect on every Newton step; "
        "wrapping them from outside would cost more than they do",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict       # ExperimentConfig fields shared by every call
    calls: tuple       # scheme groups in order, one run_sweep call each
    blocks: int        # distinct inputs before rounds repeat them; the reference covers these
    trace_rounds: int  # rounds in each phase of the traced run
    trace_threads: int = 1  # run_sweep threads in the traced run; above 1 it takes the pool path


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("pilot_sweep",
             dict(M=16, K=8, L=[32, 256], snr_db=[15.0], i_max=5, n_frames=0, threads=1, trials=1),
             (("NQ",), ("OQ",), ("AQ",), ("RQ",), ("FQ",)), blocks=4, trace_rounds=8),
    Workload("data_phase",
             dict(M=16, K=8, L=[32], snr_db=[15.0], i_max=5, n_frames=1500, threads=1, trials=1),
             (("PCSI",), ("AQ",)), blocks=2, trace_rounds=4),
    Workload("small_trials",
             dict(M=4, K=8, L=[32], snr_db=[15.0], i_max=3, n_frames=0, threads=1, trials=24),
             (("NQ", "OQ", "AQ", "RQ", "FQ"),), blocks=2, trace_rounds=16, trace_threads=2),
]}


@dataclass
class Round:
    block: int
    wall: float
    calls: list        # (schemes, trials, seconds) per run_sweep call
    rows: list
    problem: str | None
    cal: float | None  # seconds of one calibration pass, mean of the passes before and after


class Calibration:
    """A fixed numpy/scipy loop shaped like the package's two hot paths.

    The first half is a small Newton step (log_ndtr and erfcx on a 16 x 256
    block, a weighted 16 x 16 Gram matrix and a solve), as in ``mle``; the
    second scores 2048 columns against 256 rows with log_ndtr, as in
    ``detect``, 512 columns at a time so that it adds little to peak RSS.
    On a shared host each vCPU has slow spells of tens of seconds, longer
    than a run, in which the program and this loop both take up to ~1.8x
    longer; a round's time divided by the loop's time around it stays steady
    where the round's time alone does not.  The loop is the benchmark's own
    code, so a change to the program does not move it.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import erfcx, log_ndtr

        self.np, self.erfcx, self.log_ndtr = np, erfcx, log_ndtr
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 256))
        a = rng.standard_normal((16, 16))
        self.a = a @ a.T + 16.0 * np.eye(16)
        self.w = rng.standard_normal((256, 64))
        self.y = [rng.standard_normal((64, 512)) for _ in range(4)]

    def __call__(self) -> float:
        """Seconds of one pass."""
        np, x = self.np, self.x
        start = time.perf_counter()
        for _ in range(40):
            z = 0.7 * x + 0.1
            grad = self.log_ndtr(z).sum(axis=1)
            mills = 0.7978845608028654 / self.erfcx(-z / 1.4142135623730951)
            np.linalg.solve((x * mills) @ x.T + self.a, grad)
        for y in self.y:
            self.log_ndtr(self.w @ y).sum(axis=0).argmax()
        return time.perf_counter() - start


def master_seed(seed: int, block: int) -> int:
    return 1000 * seed + block


def make_configs(ex, wl: Workload, master: int, warm: bool = False):
    """Validated per-call configs plus the all-scheme config that summarize reads."""
    base = dict(wl.config, seed=master)
    if warm:
        base.update(trials=1, n_frames=min(base["n_frames"], WARMUP_FRAMES))
    calls = [ex.ExperimentConfig.from_dict(dict(base, schemes=list(s))).validate() for s in wl.calls]
    schemes = [s for group in wl.calls for s in group]
    return calls, ex.ExperimentConfig.from_dict(dict(base, schemes=schemes)).validate()


def expected_trials(cfg) -> int:
    return len(cfg.L) * len(cfg.snr_db) * len(cfg.schemes) * cfg.trials


def run_round(ex, configs, summary_cfg, out_dir: Path):
    """One timed pass: every run_sweep call, then summarize and the two writes."""
    rows, calls = [], []
    start = time.perf_counter()
    for cfg in configs:
        t0 = time.perf_counter()
        part = ex.run_sweep(cfg)
        calls.append((cfg.schemes, len(part), time.perf_counter() - t0))
        rows.extend(part)
    summary = ex.summarize(summary_cfg, rows)
    ex.write_trials_csv(rows, out_dir / "sweep.csv")
    ex.write_json(summary, out_dir / "sweep.json")
    return time.perf_counter() - start, calls, rows, summary


def load_package():
    """Import the package from this checkout's src/, or exit with an error."""
    if not (SRC / "onebit_mimo" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'onebit_mimo'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    ex = importlib.import_module("onebit_mimo.experiments")
    if Path(ex.__file__).resolve().parent != (SRC / "onebit_mimo").resolve():
        sys.exit(f"perfbench: imported {ex.__file__}, not the checkout's src/")
    return ex


def set_up(wl: Workload):
    """Import, validate configs and run one warm-up round; returns (module, seconds)."""
    start = time.perf_counter()
    ex = load_package()
    configs, summary_cfg = make_configs(ex, wl, WARMUP_SEED, warm=True)
    out = OUT / wl.name / "warmup"
    run_round(ex, configs, summary_cfg, out)
    return ex, time.perf_counter() - start


def probe_setup(wl: Workload) -> list:
    """Set-up and calibration seconds of fresh processes, which pay imports and first-call
    costs again."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Progress:
    def __init__(self, label: str):
        self.label = label
        self.start = self.last = time.perf_counter()

    def __call__(self, message: str, force: bool = False):
        now = time.perf_counter()
        if force or now - self.last >= PROGRESS_EVERY_S:
            self.last = now
            print(f"perfbench {self.label} [{now - self.start:6.1f} s] {message}",
                  file=sys.stderr, flush=True)


def run_phase(ex, wl: Workload, seed: int, floors: dict, progress, seconds=None, n_rounds=None,
              tracer=None, calibrate=None):
    """Rounds over blocks 0, 1, ... (wrapping at wl.blocks), for seconds or n_rounds.

    A timed phase runs every block at least once.  With ``calibrate``, a
    calibration pass runs right before and right after every round.
    """
    rounds, lost = [], 0
    start = time.perf_counter()
    out = OUT / wl.name
    for r in itertools.count():
        if n_rounds is not None and r >= n_rounds:
            break
        if (seconds is not None and r >= max(MIN_ROUNDS, wl.blocks)
                and time.perf_counter() - start >= seconds):
            break
        block = r % wl.blocks
        configs, summary_cfg = make_configs(ex, wl, master_seed(seed, block))
        cal = calibrate() if calibrate is not None else None
        try:
            wall, calls, rows, summary = run_round(ex, configs, summary_cfg, out)
        except Exception:
            traceback.print_exc()
            lost += sum(expected_trials(c) for c in configs)
            continue
        if tracer is not None:
            tracer.collect(rows)
        problem = gate.round_problem(rows, summary, out / "sweep.csv", out / "sweep.json", floors)
        if calibrate is not None:
            cal = (cal + calibrate()) / 2.0
        rounds.append(Round(block, wall, calls, rows, problem, cal))
        progress(f"round {r + 1}: {len(rows)} trials in {wall:.2f} s")
    return rounds, lost


def reference_path(wl: Workload) -> Path:
    return REFERENCE / f"{wl.name}.json"


def load_reference(wl: Workload) -> dict:
    path = reference_path(wl)
    if not path.is_file():
        return {"workload": wl.name, "crb": {}, "seeds": {}}
    with open(path) as f:
        return json.load(f)


def verdict(ex, wl: Workload, seed: int, reference: dict, rounds: list, lost: int) -> dict:
    """Gate every trial of the measured rounds; counts feed attempted/failed."""
    trials = [(rd.block, row) for rd in rounds for row in rd.rows]
    cfg = wl.config
    bad, problems, which = gate.check_trials(trials, reference, seed, cfg["M"], cfg["K"],
                                             cfg["n_frames"], ex.ExperimentConfig().rate_cap)
    offset = 0
    for rd in rounds:
        if rd.problem:
            bad.update(range(offset, offset + len(rd.rows)))
            problems.append(f"round {rd.block}: {rd.problem}")
        offset += len(rd.rows)
    if lost:
        problems.append(f"{lost} trials lost to exceptions (traceback on stderr)")
    attempted = len(trials) + lost
    failed = len(bad) + lost
    return {"gate": which, "attempted": attempted, "failed": failed,
            "correct": attempted > 0 and failed == 0, "problems": problems}


def rate(rounds, index=None, normalize=False) -> float:
    """Trials per second over one pass of every block, each block at the mean of its rounds.

    Covers the whole round, or one call of it.  With ``normalize``, each
    round's time is scaled by CAL_NOMINAL_S / its calibration time, which
    gives the rate at the host's usual speed.  Over two sets of runs, the
    mean of calibrated rounds spread less from run to run than their median.
    """
    by_block = defaultdict(list)
    for rd in rounds:
        trials, wall = (len(rd.rows), rd.wall) if index is None else rd.calls[index][1:]
        by_block[rd.block].append((trials, wall * CAL_NOMINAL_S / rd.cal if normalize else wall))
    return (sum(v[0][0] for v in by_block.values())
            / sum(statistics.fmean(t for _, t in v) for v in by_block.values()))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def pin_blas_threads() -> bool:
    """Use one OpenBLAS thread unless the caller chose; True if this function chose.

    Threaded OpenBLAS on these small matrices makes timings depend on what else
    the cores run.  Must run before numpy is imported; the setting reaches only
    this process and the processes it starts.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return True


def environment(blas_threads_set_by_benchmark: bool) -> dict:
    """What must match before two results may be compared (commit and program excepted)."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "program_sha256": _digest(sorted(SRC.rglob("*.py"))),
        "benchmark_sha256": _digest(sorted(HERE.glob("*.py")) + sorted(REFERENCE.glob("*.json"))),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_set_by_benchmark": blas_threads_set_by_benchmark,
    }


def end_to_end(ex, wl: Workload, seed: int, floors: dict, seconds: float, progress) -> tuple:
    rounds, lost = run_phase(ex, wl, seed, floors, progress, seconds=seconds,
                             calibrate=Calibration())
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rounds:
        metrics["norm_trials_per_s"] = rate(rounds, normalize=True)
        metrics["trials_per_s"] = rate(rounds)
        metrics["calibration_s"] = statistics.median(rd.cal for rd in rounds)
        for j, schemes in enumerate(wl.calls):
            if len(schemes) == 1:
                metrics[f"norm_{schemes[0].lower()}_trials_per_s"] = rate(rounds, j, normalize=True)
    progress("set-up probes", force=True)
    samples = probe_setup(wl)
    metrics["setup_s"] = statistics.median(p["setup_s"] * CAL_NOMINAL_S / p["cal_s"]
                                           for p in samples)
    metrics["raw_setup_s"] = statistics.median(p["setup_s"] for p in samples)
    extra = {"rounds": [(rd.block, len(rd.rows), rd.wall, rd.cal, rd.calls) for rd in rounds],
             "setup_samples": samples}
    return rounds, lost, metrics, extra


def per_layer(ex, wl: Workload, seed: int, floors: dict, progress) -> tuple:
    wl = dataclasses.replace(wl, config=dict(wl.config, threads=wl.trace_threads))
    plain, lost = run_phase(ex, wl, seed, floors, progress, n_rounds=wl.trace_rounds)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced, lost_traced = run_phase(ex, wl, seed, floors, progress, n_rounds=wl.trace_rounds,
                                        tracer=tr)
    extra = {"spans": tr.spans, "not_measured": NOT_MEASURED}
    if not plain or not traced:
        return plain + traced, lost + lost_traced, {}, extra
    wall = sum(rd.wall for rd in traced)
    metrics = tracing.layer_metrics(tr.spans, wall, wl.config["threads"])
    plain_rate = sum(len(rd.rows) for rd in plain) / sum(rd.wall for rd in plain)
    metrics["trace.overhead_frac"] = 1.0 - sum(len(rd.rows) for rd in traced) / wall / plain_rate
    nq = [j for j, s in enumerate(wl.calls) if s == ("NQ",)]
    metrics["experiments.pool_trials_per_s"] = rate(plain) if wl.trace_threads > 1 else 0.0
    metrics["schemes.nq_trials_per_s"] = (
        sum(rd.calls[nq[0]][1] for rd in plain) / sum(rd.calls[nq[0]][2] for rd in plain)
        if nq else 0.0)
    return plain + traced, lost + lost_traced, metrics, extra


def write_reference(ex, wl: Workload, seed: int, blas_pinned: bool, progress) -> int:
    """Record every block's outputs for this seed at the current program."""
    ref = load_reference(wl)
    ref["seeds"].pop(str(seed), None)
    _, summary_cfg = make_configs(ex, wl, master_seed(seed, 0))
    ref["crb"] = gate.floors_of(ex.summarize(summary_cfg, []))
    rounds, lost = run_phase(ex, wl, seed, ref["crb"], progress, n_rounds=wl.blocks)
    result = verdict(ex, wl, seed, ref, rounds, lost)
    if not result["correct"]:
        print("\n".join(result["problems"]), file=sys.stderr)
        return 1
    env = environment(blas_pinned)
    ref.update(workload=wl.name, commit=env["commit"], program_sha256=env["program_sha256"])
    ref["seeds"][str(seed)] = gate.reference_entry(
        [(rd.block, row) for rd in rounds for row in rd.rows], wl.blocks)
    REFERENCE.mkdir(parents=True, exist_ok=True)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per trial: [mse, ser, rate]
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + ", ".join(
        v.strip() for v in m.group(1).split(",")) + "]", text)
    reference_path(wl).write_text(text + "\n")
    progress(f"wrote {reference_path(wl)} for seed {seed}", force=True)
    return 0


def write_record(path: Path, record: dict, spans) -> None:
    """The full record as JSON; a traced run's spans go beside it, one per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        record["spans_file"] = str(path.with_suffix(".spans.jsonl"))
        with open(record["spans_file"], "w") as f:
            for span in spans:
                f.write(json.dumps(span._asdict()) + "\n")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def print_summary(record: dict, path: Path) -> None:
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {record['units'][name]}", file=sys.stderr)
    for what, why in record.get("not_measured", {}).items():
        print(f"  not measured: {what}: {why}", file=sys.stderr)
    result = record["verdict"]
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} gate: {result['gate']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, help="where to write the full JSON record")
    p.add_argument("--write-reference", action="store_true",
                   help="record this seed's outputs as the committed reference")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    wl = WORKLOADS[args.workload]
    blas_pinned = pin_blas_threads()

    if args.setup_probe:
        _, seconds = set_up(wl)
        calibrate = Calibration()
        print(json.dumps({"setup_s": seconds,
                          "cal_s": statistics.median(calibrate() for _ in range(3))}))
        return 0

    progress = Progress(wl.name)
    progress("set-up", force=True)
    ex, _ = set_up(wl)
    if args.write_reference:
        return write_reference(ex, wl, args.seed, blas_pinned, progress)
    reference = load_reference(wl)
    if args.trace:
        rounds, lost, metrics, extra = per_layer(ex, wl, args.seed, reference["crb"], progress)
        names = PER_LAYER
    else:
        rounds, lost, metrics, extra = end_to_end(ex, wl, args.seed, reference["crb"],
                                                  args.seconds, progress)
        names = END_TO_END
    result = verdict(ex, wl, args.seed, reference, rounds, lost)
    metrics["failed_frac"] = result["failed"] / max(result["attempted"], 1)

    path = args.record or RESULTS / (f"{wl.name}-seed{args.seed}-trace{args.trace}-"
                                     f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S%f}.json")
    units = dict(PER_LAYER, **END_TO_END, failed_frac="ratio", trials_per_s="trials/s",
                 calibration_s="s", raw_setup_s="s",
                 **{f"norm_{s.lower()}_trials_per_s": "trials/s" for s in ex.SCHEME_IDS})
    spans = extra.pop("spans", None)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "config": wl.config, "calls": wl.calls, "env": environment(blas_pinned),
              "verdict": result, "metrics": metrics,
              "units": {n: units[n] for n in metrics}, **extra}
    write_record(path, record, spans)
    print_summary(record, path)

    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
