import csv
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import onebit_mimo as om
from onebit_mimo import cli, experiments
from onebit_mimo.experiments import (AQ_AGG_COLUMNS, AQ_TRACE_COLUMNS, CSV_COLUMNS,
                                     ExperimentConfig, run_aq_trace, run_sweep,
                                     summarize, trial_seed_seq, write_dict_csv,
                                     write_trials_csv)


def tiny_config(**over):
    base = dict(M=2, K=2, L=[4], snr_db=[5.0], schemes=["NQ", "FQ"],
                trials=3, seed=7, i_max=2)
    base.update(over)
    return ExperimentConfig.from_dict(base)


def test_config_validation_messages():
    with pytest.raises(om.ConfigError, match="schemes"):
        tiny_config(schemes=[]).validate()
    with pytest.raises(om.ConfigError, match="L"):
        tiny_config(L=[1]).validate()
    with pytest.raises(om.ConfigError, match="trials"):
        tiny_config(trials=0).validate()
    with pytest.raises(om.ConfigError, match="unknown config field"):
        ExperimentConfig.from_dict({"M": 2, "bogus": 1})
    with pytest.raises(om.ConfigError, match="unknown config field"):
        ExperimentConfig.from_dict({1: 2, "M": 2})
    with pytest.raises(om.ConfigError, match="schemes"):
        tiny_config(schemes=["XX"]).validate()
    with pytest.raises(om.ConfigError, match="seed"):
        tiny_config(seed=-1).validate()


@pytest.mark.parametrize("field,value", [
    ("L", [4, 4]), ("schemes", ["NQ", "nq"]), ("snr_db", [5.0, 5.0004]),
])
def test_config_rejects_entries_that_share_trial_seeds(tmp_path, capsys, field, value):
    # a repeat reruns the same seeded trials; SNRs within 0.001 dB share every draw
    with pytest.raises(om.ConfigError, match=f"^{field}:"):
        tiny_config(**{field: value}).validate()
    data = dict(M=2, K=2, L=[4], snr_db=[5.0], schemes=["NQ"], trials=2, seed=1)
    cfg_path = write_yaml(tmp_path, dict(data, **{field: value}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")
    assert not out.exists()
    tiny_config(L=[4, 5], snr_db=[5.0, 5.001]).validate()


def test_config_normalization():
    cfg = ExperimentConfig.from_dict(dict(L=8, snr_db=3, schemes="nq, fq"))
    assert cfg.L == [8] and cfg.snr_db == [3.0] and cfg.schemes == ["NQ", "FQ"]


def test_trial_seeds_stable_against_scheme_list_changes():
    a = run_sweep(tiny_config(schemes=["FQ"]).validate())
    b = run_sweep(tiny_config(schemes=["NQ", "FQ"]).validate())
    fq_a = [r for r in a if r.scheme == "FQ"]
    fq_b = [r for r in b if r.scheme == "FQ"]
    assert [(r.seed, r.mse) for r in fq_a] == [(r.seed, r.mse) for r in fq_b]


def test_sweep_rows_deterministic_and_csv_byte_identical(tmp_path):
    cfg = tiny_config().validate()
    rows1 = run_sweep(cfg)
    rows2 = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(rows1, p1)
    write_trials_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_thread_count_does_not_change_results(tmp_path):
    cfg1 = tiny_config(threads=1).validate()
    cfg2 = tiny_config(threads=2).validate()
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    write_trials_csv(run_sweep(cfg1), p1)
    write_trials_csv(run_sweep(cfg2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def aq_trace(cfg):
    rows = run_sweep(cfg)
    return run_aq_trace(cfg, rows, summarize(cfg, rows)["crb"])


def test_aq_trace_thread_count_does_not_change_results(tmp_path):
    for threads in (1, 2):
        cli.cmd_sweep(tiny_config(schemes=["AQ"], threads=threads).validate(),
                      tmp_path / f"t{threads}")
    for name in ("aq_trace.csv", "aq_trace_trials.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_detection_thread_count_does_not_change_results(tmp_path):
    # criterion 11 runs no data phase; this sweep detects K=8 frames, through
    # the float32 screen and the float64 confirm pass, in one process and in
    # a pool of two
    cfg = dict(M=16, K=8, L=[32], schemes=["PCSI", "RQ"], trials=2, n_frames=300)
    for threads in (1, 2):
        cli.cmd_sweep(ExperimentConfig.from_dict(dict(cfg, threads=threads)).validate(),
                      tmp_path / f"t{threads}")
    assert (tmp_path / "t1" / "sweep.csv").read_bytes() == (tmp_path / "t2" / "sweep.csv").read_bytes()


def test_csv_columns(tmp_path):
    cfg = tiny_config().validate()
    path = tmp_path / "sweep.csv"
    write_trials_csv(run_sweep(cfg), path)
    with open(path) as f:
        header = next(csv.reader(f))
    assert header == CSV_COLUMNS


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("trials,threads,workers", [(1, 3, 1), (2, 3, 2), (3, 2, 2), (4, 64, 2)])
def test_pool_never_outnumbers_tasks(monkeypatch, trials, threads, workers):
    # nor the cores, here two on any host
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    rows = run_sweep(tiny_config(schemes=["NQ"], trials=trials, threads=threads).validate())
    assert len(rows) == trials
    assert RecordingPool.sizes == [workers]


def test_summary_aggregates_recomputable_from_csv(tmp_path):
    cfg = tiny_config(trials=5).validate()
    rows = run_sweep(cfg)
    summary = summarize(cfg, rows)
    path = tmp_path / "sweep.csv"
    write_trials_csv(rows, path)
    with open(path) as f:
        parsed = list(csv.DictReader(f))
    for cell in summary["cells"]:
        sel = [float(r["mse"]) for r in parsed
               if r["scheme"] == cell["scheme"] and int(r["L"]) == cell["L"]
               and float(r["snr_db"]) == cell["snr_db"]]
        assert cell["n"] == len(sel)
        assert cell["median_mse"] == float(np.median(sel))
        assert cell["mean_mse"] == float(np.mean(sel))
    ref = summary["crb"][0]
    assert abs(ref["ratio_oq_nq"] - np.pi / 2) < 1e-12


def test_sweep_json_counts_users_at_the_rate_cap(tmp_path):
    # perfect CSI at 40 dB detects every frame of M=8, K=2 without error, so
    # achievable_rate sets every user's rate to RATE_CAP; at -10 dB none.
    # The count rides on the trial and reaches sweep.json, not sweep.csv
    cfg = tiny_config(M=8, K=2, snr_db=[-10.0, 40.0], schemes=["PCSI", "NQ"],
                      n_frames=200).validate()
    cli.cmd_sweep(cfg, tmp_path)
    cells = {(c["scheme"], c["snr_db"]): c
             for c in json.loads((tmp_path / "sweep.json").read_text())["cells"]}
    rows = run_sweep(cfg)
    high = [r for r in rows if r.snr_db == 40.0 and r.scheme == "PCSI"]
    assert [r.rate_capped for r in high] == [2, 2, 2]
    assert all(r.ser == 0.0 and r.rate == experiments.RATE_CAP for r in high)
    assert cells[("PCSI", 40.0)]["n_rate_capped"] == cells[("PCSI", 40.0)]["n_rate_users"] == 6
    assert cells[("PCSI", -10.0)]["n_rate_capped"] == 0
    assert cells[("PCSI", -10.0)]["n_rate_users"] == 6
    assert sum(r.rate_capped for r in rows) == sum(c["n_rate_capped"] for c in cells.values())
    assert "rate_capped" not in CSV_COLUMNS
    with open(tmp_path / "sweep.csv") as f:
        assert next(csv.reader(f)) == CSV_COLUMNS
    no_frames = summarize(tiny_config().validate(), run_sweep(tiny_config().validate()))
    assert not any("n_rate_capped" in c for c in no_frames["cells"])


def test_detect_metrics_populated_when_frames_requested():
    cfg = tiny_config(schemes=["PCSI"], n_frames=200, trials=2).validate()
    rows = run_sweep(cfg)
    assert all(r.ser is not None and r.rate is not None for r in rows)
    assert all(r.mse == 0.0 for r in rows)


def test_trial_seed_rejects_unknown_scheme(monkeypatch):
    # only "REF" names the reference stream; any other unknown name is an error
    ref = trial_seed_seq(0, "REF", 2, 2, 4, 5.0, 0)
    assert ref.entropy == (0, experiments._REF_ID, 2, 2, 4, 5000 + 2**31, 0)
    with pytest.raises(om.ConfigError, match="XX"):
        trial_seed_seq(0, "XX", 2, 2, 4, 5.0, 0)
    monkeypatch.setattr(experiments, "generate_pilots_orthogonal",
                        lambda *a, **k: pytest.fail("pilots drawn"))
    monkeypatch.setattr(experiments, "generate_channel", lambda *a, **k: pytest.fail("channel drawn"))
    for scheme in ("XX", "REF"):
        with pytest.raises(om.ConfigError, match=scheme):
            experiments.run_trial(scheme, 2, 2, 4, 5.0, 0, master_seed=0)


def test_scheme_seed_ids_are_frozen():
    # every trial's random stream is keyed on these ids: renumbering reseeds every trial
    ids = {name: sid for name, (sid, _) in experiments.SCHEMES.items()}
    assert ids == {"FQ": 0, "RQ": 1, "AQ": 2, "OQ": 3, "NQ": 4, "PCSI": 5}
    assert experiments._REF_ID == 9
    assert trial_seed_seq(3, "AQ", 8, 4, 16, 10.0, 5).entropy == (3, 2, 8, 4, 16, 10000 + 2**31, 5)


def test_aq_trace_first_iteration_is_fixed_quantization():
    # benign regime (low SNR, enough pilots) so round 1 converges and the
    # adaptive run is exactly a fixed-threshold run
    cfg = tiny_config(schemes=["AQ"], i_max=1, L=[16], snr_db=[0.0], trials=4).validate()
    trial_rows, agg = aq_trace(cfg)
    assert all(r["converged"] for r in trial_rows)
    assert all(r["iteration"] == 1 for r in trial_rows)
    for r in trial_rows:
        ss = trial_seed_seq(cfg.seed, "AQ", cfg.M, cfg.K, r["L"], r["snr_db"], r["trial"])
        model, ch, rng = experiments.draw_instance(ss, cfg.M, cfg.K, r["L"], r["snr_db"])
        fq = om.run_fq(model, ch.h, rng)
        assert om.channel_mse(fq.h_hat, ch.h) == r["mse"]
    assert agg[0]["n"] == 4
    assert abs(agg[0]["crb_oq_per_coeff"] / agg[0]["crb_nq_per_coeff"] - np.pi / 2) < 1e-12


def write_yaml(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_cli_sweep_round_trip(tmp_path):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["NQ"], trials=2, seed=3))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["config"]["seed"] == 3
    # rerun is byte-identical
    before = (out / "sweep.csv").read_bytes()
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == before


def test_cli_crb_outputs_pi_half_ratio(tmp_path):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["NQ", "OQ", "RQ"], trials=1, seed=1))
    out = tmp_path / "out"
    assert cli.main(["crb", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    data = json.loads((out / "crb.json").read_text())
    entry = data["entries"][0]
    assert abs(entry["ratio_oq_nq"] - np.pi / 2) < 1e-12
    P = om.power_for_snr(5.0, 2, 4)
    expected = np.pi * 2 * 4 / P
    assert abs(entry["policies"]["OQ"]["trace"] - expected) < 1e-10 * expected
    assert "RQ" in entry["policies"]


def test_cli_aq_trace(tmp_path):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[6], snr_db=[5.0],
                                         schemes=["AQ"], trials=2, seed=2, i_max=2))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "aq_trace.csv").exists()
    assert (out / "aq_trace_trials.csv").exists()


def test_cli_sweep_trace_files_match_an_aq_only_sweep(tmp_path):
    # AQ's seeds depend on its scheme id only and its data phase runs after
    # the rounds, so other schemes and frames leave its trace as it is
    data = dict(M=2, K=2, L=[4, 6], snr_db=[5.0], schemes=["NQ", "AQ", "FQ"],
                trials=3, seed=5, i_max=2, n_frames=8)
    cfg_path, out = write_yaml(tmp_path, data), tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    trial_rows, agg_rows = aq_trace(
        ExperimentConfig.from_dict(dict(data, schemes=["AQ"], n_frames=0)).validate())
    assert [r["n"] for r in agg_rows] == [3] * 4
    write_dict_csv(agg_rows, AQ_AGG_COLUMNS, tmp_path / "aq_trace.csv")
    write_dict_csv(trial_rows, AQ_TRACE_COLUMNS, tmp_path / "aq_trace_trials.csv")
    for name in ("aq_trace.csv", "aq_trace_trials.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    no_aq = tmp_path / "no_aq"
    assert cli.main(["sweep", "--config", str(cfg_path), "--schemes", "NQ,FQ",
                     "--out-dir", str(no_aq)]) == 0
    assert sorted(p.name for p in no_aq.iterdir()) == ["sweep.csv", "sweep.json"]


def test_cli_sweep_computes_reference_floors_once_per_cell(tmp_path, monkeypatch):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4, 6], snr_db=[5.0, 8.0],
                                         schemes=["AQ", "NQ"], trials=1, seed=1, i_max=2))
    calls = Counter()
    original = experiments.reference_floors

    def counted(cfg, L, snr_db, *args, **kwargs):
        calls[(L, snr_db)] += 1
        return original(cfg, L, snr_db, *args, **kwargs)

    monkeypatch.setattr(experiments, "reference_floors", counted)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "aq_trace.csv").exists()
    assert calls == {(L, snr): 1 for L in (4, 6) for snr in (5.0, 8.0)}


def test_cli_has_sweep_and_crb_only(capsys):
    assert set(cli.COMMANDS) == {"sweep", "crb"}
    for command in ("detect-ser", "rate", "aq-trace"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[1], schemes=["NQ"]))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    cfg_path2 = write_yaml(tmp_path, dict(M=2, K=2, L=[4], schemes=[]))
    assert cli.main(["sweep", "--config", str(cfg_path2)]) == 2


@pytest.mark.parametrize("field,value", [
    ("L", "abc"), ("M", "x"), ("K", 2.5), ("threads", 2.5), ("L", [[1]]),
    ("schemes", 5), ("snr_db", "abc"), ("i_max", None), ("n_frames", 1.5), ("seed", 1.5),
    ("snr_db", float("inf")), ("trials", "3"), ("M", True), ("i_max", 2.0),
    ("snr_db", [-4000.0]), ("snr_db", [4000.0]),
])
def test_cli_wrong_typed_config_value_exits_2(tmp_path, capsys, field, value):
    data = dict(M=2, K=2, L=[4], snr_db=[5.0], schemes=["NQ"], trials=1, seed=1)
    cfg_path = write_yaml(tmp_path, dict(data, **{field: value}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert not out.exists()


def test_cli_unreadable_config_file_exits_2(tmp_path, capsys):
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("M: [1\n")
    not_utf8 = tmp_path / "not_utf8.yaml"
    not_utf8.write_bytes(b"M: \xff\n")
    out = tmp_path / "out"
    for path in (malformed, not_utf8, tmp_path / "missing.yaml"):
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {path}:")
    assert not out.exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    # fixed zero thresholds 40 dB above the noise floor: Fisher weights
    # vanish and the CRB solve must refuse
    cfg_path = write_yaml(tmp_path, dict(M=2, K=4, L=[8], snr_db=[40.0],
                                         schemes=["FQ"], trials=1, seed=1))
    out = tmp_path / "out"
    assert cli.main(["crb", "--config", str(cfg_path), "--out-dir", str(out)]) == 3


def test_cli_singular_newton_system_exits_3(tmp_path, capsys, monkeypatch):
    # a Newton system that stays singular even after the ridge
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["OQ"], trials=1, seed=1))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: Newton system")


@pytest.mark.parametrize("seed", [1, 4])
def test_cli_sweep_at_200_db_keeps_the_curvature(tmp_path, seed):
    # margins near -1e9 used to cancel lam (s + lam) to noise, leaving a
    # Newton system singular after the ridge (exit 3)
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[200.0],
                                         schemes=["OQ"], trials=1, seed=seed))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").read_text().count("\n") == 2


def test_cli_crb_draws_each_reference_instance_once(tmp_path, monkeypatch):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4, 6], snr_db=[5.0],
                                         schemes=["OQ", "NQ", "FQ", "RQ"], trials=1, seed=1))
    draws = []
    original = experiments.generate_channel

    def counted(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate_channel", counted)
    assert cli.main(["crb", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(draws) == 2


def test_cli_rejects_timing(tmp_path, capsys):
    out = tmp_path / "out"
    # deleted fields; the sweep fixes noise and channel prior variance at 1,
    # and detect fixes a perfect detection's rate
    for field, value in (("timing", True), ("pilot_method", "qr"), ("sigma2", 1.0),
                         ("sigma_h2", 1.0), ("rate_cap", 20.0)):
        cfg_path = write_yaml(tmp_path, {"M": 2, "K": 2, "L": [4], "snr_db": [5.0],
                                         "schemes": ["NQ"], "trials": 1, "seed": 1, field: value})
        assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config field(s): {field}\n"
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0], schemes=["NQ"],
                                         trials=1, seed=1))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out), "--timing"])
    assert exc.value.code == 2
    assert "--timing" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unusable_out_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["NQ", "FQ"], trials=1, seed=1))
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(experiments, "run_trial", lambda *a, **k: pytest.fail("a trial ran"))
    monkeypatch.setattr(cli, "reference_instance", lambda *a, **k: pytest.fail("a CRB ran"))
    for command, out in (("sweep", afile / "sub"), ("crb", afile)):
        assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: out_dir: ")
    assert afile.read_text() == ""


def test_cli_failed_output_write_exits_2(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0], schemes=["NQ", "AQ"],
                                         trials=1, seed=1, i_max=2))
    for blocked in ("sweep.csv", "aq_trace.csv"):
        out = tmp_path / blocked
        (out / blocked).mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: ") and blocked in err
        assert err.count("\n") == 1


def test_cli_env_var_out_dir(tmp_path, monkeypatch):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["NQ"], trials=1, seed=1))
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.ENV_OUT, str(target))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (target / "sweep.csv").exists()


def test_cli_detect_rejects_k_beyond_exhaustive_search(tmp_path, capsys, monkeypatch):
    data = dict(M=2, K=9, L=[9], snr_db=[5.0], schemes=["OQ"], trials=1, seed=1, n_frames=8)
    cfg_path = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "run_sweep", lambda cfg: pytest.fail("estimation ran"))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()
    monkeypatch.undo()
    # without a data phase K=9 is an ordinary estimation sweep
    cfg_path = write_yaml(tmp_path, dict(data, n_frames=0))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").exists()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs_one_trial(path, tmp_path):
    # each config's first line is the command that runs it
    words = path.read_text().splitlines()[0].split()
    assert words[:2] == ["#", "onebit-mimo"]
    assert words[3:] == ["--config", f"configs/{path.name}"]
    ExperimentConfig.from_yaml(path).validate()
    out = tmp_path / "out"
    assert cli.main([words[2], "--config", str(path), "--trials", "1",
                     "--out-dir", str(out)]) == 0
    assert any(out.glob("*.csv"))


def test_docs_name_only_real_commands():
    # README.md and each config's first line may advertise only commands the CLI has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = [readme] + [path.read_text().splitlines()[0] for path in CONFIGS]
    named = {name for text in texts for name in re.findall(r"onebit-mimo ([\w-]+)", text)}
    assert "sweep" in named and named <= set(cli.COMMANDS), named - set(cli.COMMANDS)


def test_readme_example_config_is_valid():
    # the README's example YAML may list only fields the config still has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    ExperimentConfig.from_dict(yaml.safe_load(block)).validate()


def test_readme_library_sketch_runs():
    # the README's library sketch must run against the current API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_flag_overrides(tmp_path):
    cfg_path = write_yaml(tmp_path, dict(M=2, K=2, L=[4], snr_db=[5.0],
                                         schemes=["NQ", "FQ"], trials=4, seed=1))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out),
                     "--trials", "2", "--schemes", "NQ", "--seed", "9"])
    assert code == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert {r["scheme"] for r in rows} == {"NQ"}


def test_benchmark_tracer_still_finds_its_targets(tmp_path):
    # perfbench/tracer.py wraps functions at their callers' module attributes;
    # a refactor that rebinds one of them, or stops calling it through that
    # module, must fail here rather than leave a per-layer metric at zero
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(importlib.import_module(f"onebit_mimo.{mod}"), attr)
               for mod, attr, _ in tracing.TARGETS]
    expected = {tracing.span_name(getattr(module, attr)) for module, attr in targets}
    cfg = tiny_config(schemes=["FQ", "RQ", "AQ", "OQ", "NQ"], trials=1, n_frames=8).validate()
    calls = Counter()

    def counting(key, wrapper):
        def shim(*args, **kwargs):
            calls[key] += 1
            return wrapper(*args, **kwargs)
        return shim

    # the shims sit over the installed wrappers and come off before the tracer's restore
    with tracing.installed(tracing.Tracer()) as tracer, pytest.MonkeyPatch.context() as mp:
        for module, attr in targets:
            mp.setattr(module, attr, counting((module.__name__, attr), getattr(module, attr)))
        rows = run_sweep(cfg)
        # called through the module, whose attributes the tracer replaced
        experiments.write_trials_csv(rows, tmp_path / "sweep.csv")
        experiments.write_json(experiments.summarize(cfg, rows), tmp_path / "sweep.json")
    uncalled = [key for key in ((m.__name__, attr) for m, attr in targets) if not calls[key]]
    assert not uncalled, uncalled
    names = {span.name for span in tracer.spans}
    assert expected | {"experiments.run_trial"} <= names, sorted(expected - names)
