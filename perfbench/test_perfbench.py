"""The benchmark's own tests: spec agreement, the gate, exact counts, refusals.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import gate
import run
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ["experiments.trials", "mle.solve_calls", "mle.newton_iters", "mle.terms",
          "detect.frames", "detect.score_gflop"]


@pytest.fixture(scope="module")
def ex():
    return run.load_package()


def quiet(_message, force=False):
    pass


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_references_cover_default_and_held_out_seed():
    for wl in run.WORKLOADS.values():
        ref = run.load_reference(wl)
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            entry = ref["seeds"][str(seed)]
            assert entry["blocks"] == wl.blocks
            assert len(entry["trials"]) == wl.blocks * sum(
                len(wl.config["L"]) * len(g) * wl.config["trials"] for g in wl.calls)


def _phase(ex, wl, n_rounds, tracer=None):
    floors = run.load_reference(wl)["crb"]
    rounds, lost = run.run_phase(ex, wl, run.DEFAULT_SEED, floors, quiet, n_rounds=n_rounds,
                                 tracer=tracer)
    assert lost == 0 and all(rd.problem is None for rd in rounds)
    return rounds


def _check(ex, wl, rounds, reference):
    trials = [(rd.block, row) for rd in rounds for row in rd.rows]
    cfg = wl.config
    bad, problems, _ = gate.check_trials(trials, reference, run.DEFAULT_SEED, cfg["M"], cfg["K"],
                                         cfg["n_frames"], ex.ExperimentConfig().rate_cap)
    return trials, bad, problems


def test_gate_passes_committed_reference_and_fails_perturbed_one(ex):
    wl = run.WORKLOADS["small_trials"]
    rounds = _phase(ex, wl, 1)
    reference = run.load_reference(wl)
    trials, bad, problems = _check(ex, wl, rounds, reference)
    assert not bad, problems

    # one per-trial scheme: a relative change of 1e-4 in one OQ trial fails that trial
    ref = copy.deepcopy(reference)
    key = next(gate.trial_key(b, r) for b, r in trials if r.scheme == "OQ")
    ref["seeds"][str(run.DEFAULT_SEED)]["trials"][key][0] *= 1 + 1e-4
    _, bad, problems = _check(ex, wl, rounds, ref)
    assert len(bad) == 1 and key in problems[0]

    # a median scheme: doubling AQ's reference MSEs fails the whole AQ cell
    ref = copy.deepcopy(reference)
    for b, r in trials:
        if r.scheme == "AQ":
            ref["seeds"][str(run.DEFAULT_SEED)]["trials"][gate.trial_key(b, r)][0] *= 2.0
    _, bad, problems = _check(ex, wl, rounds, ref)
    assert len(bad) == sum(r.scheme == "AQ" for _, r in trials)
    assert "median mse" in problems[0]

    # a CRB floor off by 1e-6 fails the round's output check
    floors = copy.deepcopy(reference["crb"])
    next(iter(floors.values()))["crb_oq_per_coeff"] *= 1 + 1e-6
    out = run.OUT / wl.name
    assert "crb_oq_per_coeff" in gate.round_problem(rounds[0].rows, ex.summarize(
        run.make_configs(ex, wl, run.master_seed(run.DEFAULT_SEED, 0))[1], rounds[0].rows),
        out / "sweep.csv", out / "sweep.json", floors)


def test_value_checks_catch_bad_rows(ex):
    row = ex.TrialResult(scheme="OQ", M=4, K=8, L=32, snr_db=15.0, trial=0, seed=1,
                         mse=float("nan"), converged=True, iters=3)
    assert gate.value_problem(row, 0, 20.0)
    row.mse = 0.1
    assert gate.value_problem(row, 0, 20.0) is None
    assert gate.value_problem(row, 10, 20.0) == "ser=None"
    row.scheme = "PCSI"
    assert "PCSI" in gate.value_problem(row, 0, 20.0)


@pytest.mark.parametrize("name", ["data_phase", "small_trials"])
def test_counts_repeat_exactly(ex, name):
    wl = run.WORKLOADS[name]
    wl = dataclasses.replace(wl, config=dict(wl.config, threads=wl.trace_threads))
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tracing.installed(tr):
            rounds = _phase(ex, wl, 1, tracer=tr)
        metrics = tracing.layer_metrics(tr.spans, sum(rd.wall for rd in rounds),
                                        wl.config["threads"])
        counts.append({k: metrics[k] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["experiments.trials"] == len(rounds[0].rows)
    if name == "data_phase":
        assert counts[0]["detect.frames"] == 2 * wl.config["n_frames"]
    else:
        # the trials ran in pool workers; their spans came home with the rows
        assert counts[0]["mle.solve_calls"] > 0


def test_installed_restores_every_attribute(ex):
    before = {(m, a): getattr(sys.modules[f"onebit_mimo.{m}"], a) for m, a, _ in tracing.TARGETS}
    with tracing.installed(tracing.Tracer()):
        assert ex.run_trial.__wrapped__ is not None
    after = {(m, a): getattr(sys.modules[f"onebit_mimo.{m}"], a) for m, a, _ in tracing.TARGETS}
    assert before == after and not hasattr(ex.run_trial, "__wrapped__")


def test_compare_refuses_different_environment(tmp_path, capsys):
    rec = {"workload": "pilot_sweep", "seed": 1, "seconds": 20.0, "verdict": {"failed": 0},
           "metrics": {"trials_per_s": 10.0},
           "env": {"commit": "a", "program_sha256": "x", "nproc": 2, "blas_threads": "1"}}
    for side, threads in (("base", "1"), ("change", "2")):
        (tmp_path / side).mkdir()
        r = copy.deepcopy(rec)
        r["env"]["blas_threads"] = threads
        (tmp_path / side / "r.json").write_text(json.dumps(r))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 2
    assert "blas_threads" in capsys.readouterr().err

    r = copy.deepcopy(rec)
    r["env"].update(commit="b", program_sha256="y")
    (tmp_path / "change" / "r.json").write_text(json.dumps(r))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 0


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pilot_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
