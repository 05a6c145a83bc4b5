"""The CLI contract: any config exits 0, 2 (config error) or 3 (numerical failure),
and a 2 or a 3 prints exactly one line on stderr."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import onebit_mimo as om
from onebit_mimo import cli, experiments
from onebit_mimo.experiments import SCHEMES, ExperimentConfig

COMMANDS = ("sweep", "crb")


def run_cli(command, data, root):
    """cli.main on a YAML config of data under root: (exit code, stderr lines, warnings)."""
    path = Path(root) / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(path), "--out-dir", str(Path(root) / "out")])
    return code, err.getvalue().splitlines(), caught


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("snr", [1.0e308, -1.0e308])
def test_cli_snr_beyond_any_pilot_power_exits_2(command, snr, tmp_path):
    # the duplicate-seed check rounded snr_db * 1000 to an int before the
    # pilot-power check ran, and 1e308 dB overflowed there (exit 1)
    data = dict(M=2, K=1, L=[2], snr_db=[snr], trials=1, schemes=["FQ"])
    code, err, caught = run_cli(command, data, tmp_path)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error: snr_db:")
    assert not caught
    assert not (tmp_path / "out").exists()


def test_size_rule_names_the_fields_of_the_array_too_large():
    # L = 2^31 at K=8 once asked pilot generation for 128 GiB (MemoryError)
    cases = [(dict(M=2, K=8, L=[2**31], schemes=["AQ"]), "L, M, i_max"),
             (dict(M=2**31, K=1, L=[2], schemes=["FQ", "AQ"]), "L, M, i_max"),
             (dict(M=2, K=1, L=[2], i_max=2**31, schemes=["AQ"]), "L, M, i_max"),
             (dict(M=1, K=2**10, L=[2**10], i_max=1), "L, K"),
             (dict(M=2**12, K=4, L=[2**12], i_max=1), "L, M, K"),
             (dict(M=8192, K=8, L=[8], n_frames=1, schemes=["PCSI"]), "M, K"),
             (dict(M=2, K=8, L=[8], n_frames=2**31), "n_frames, M"),
             (dict(M=1, K=7, L=[7], n_frames=2**24, schemes=["PCSI"]), "n_frames, K")]
    for fields, names in cases:
        cfg = ExperimentConfig.from_dict(dict(dict(trials=1, schemes=["FQ"]), **fields))
        with pytest.raises(om.ConfigError, match=f"^{names}: .* more than the 2\\^27 allowed"):
            cfg.validate()


def test_size_rule_counts_each_array_only_where_a_trial_allocates_it():
    # detection's quarter table D, 4^(K-1) 2M floats, exists only in the
    # data phase; AQ's data over all rounds only when AQ runs.  Checked by
    # validate() alone; the admitted configs are never run
    quarter = dict(M=8192, K=8, L=[8], trials=1, schemes=["PCSI"])
    assert 4 ** 7 * 2 * quarter["M"] == 2 * experiments.MAX_TRIAL_ARRAY
    ExperimentConfig.from_dict(dict(quarter, n_frames=0)).validate()
    with pytest.raises(om.ConfigError, match="^M, K: .* 2\\^28 floats"):
        ExperimentConfig.from_dict(dict(quarter, n_frames=1)).validate()
    rounds = dict(M=2**20, K=2, L=[2], i_max=256, trials=1)
    ExperimentConfig.from_dict(dict(rounds, schemes=["FQ"])).validate()
    with pytest.raises(om.ConfigError, match="^L, M, i_max: .* 2\\^30 floats"):
        ExperimentConfig.from_dict(dict(rounds, schemes=["FQ", "AQ"])).validate()


def test_size_rule_counts_each_per_frame_array_on_its_own():
    # the largest per-frame array here is the frames' float64 signal, 2^17
    # frames x 2M = 2^22 floats; summing the widths of several arrays, or
    # counting a table of block maxima per frame, once refused it at about
    # 2^27.  Checked by validate() alone; the config is never run
    cfg = dict(M=16, K=8, L=[32], n_frames=131072, trials=1, schemes=["PCSI"])
    ExperimentConfig.from_dict(cfg).validate()
    with pytest.raises(om.ConfigError, match="^n_frames, M: .* 2\\^27 floats"):
        ExperimentConfig.from_dict(dict(cfg, n_frames=2**22 + 1)).validate()


def test_size_rule_admits_an_array_of_exactly_2_to_the_27():
    # AQ's data over all rounds, i_max * M * 2L, at the bound and one L past it
    at = dict(M=2**12, K=1, L=[2**13], i_max=2, trials=1, schemes=["AQ"])
    assert at["i_max"] * at["M"] * 2 * at["L"][0] == experiments.MAX_TRIAL_ARRAY == 2**27
    ExperimentConfig.from_dict(at).validate()
    with pytest.raises(om.ConfigError, match="^L, M, i_max:"):
        ExperimentConfig.from_dict(dict(at, L=[2**13 + 1])).validate()


# A config is drawn field by field: each field takes a value that keeps a
# valid config tiny, then up to two fields take an extreme instead.  trials
# is never huge: a valid config with 2^31 trials would run for years, which
# the contract allows.
EXTREMES = [1.0e308, -1.0e308, 2**31, math.nan, True, False, [], "XX"]
VALID = {
    "M": [1, 2, 3],
    "K": [1, 2],
    "L": [[2], [4], [2, 6], [1, 4]],
    "snr_db": [[-5.0], [0.0], [15.0], [5.0, 200.0]],
    "schemes": [[name] for name in SCHEMES] + [["AQ", "fq"], ["NQ", "RQ", "PCSI"]],
    "i_max": [1, 2],
    "trials": [1, 2],
    "seed": [0, 7, 2**31],
    "n_frames": [0, 0, 3],
}
EXTREME = dict({name: EXTREMES for name in VALID},
               L=EXTREMES + [[2**31], [4, 4], [math.nan]],
               snr_db=EXTREMES + [[1.0e308], [-1.0e308], [5.0, 5.0004], [math.inf]],
               schemes=EXTREMES + [["XX"], ["NQ", "nq"], [1]],
               trials=[0, -1, 1.0e308, math.nan, True, [], "XX"],
               seed=[-1, 1.0e308, math.nan, True, [], "XX"])


@st.composite
def configs(draw):
    data = {name: draw(st.sampled_from(values)) for name, values in VALID.items()}
    for name in draw(st.lists(st.sampled_from(list(VALID)), max_size=2, unique=True)):
        data[name] = draw(st.sampled_from(EXTREME[name]))
    return dict(data, threads=1)


@settings(max_examples=100, deadline=None)
@given(data=configs())
@example(data=dict(M=2, K=1, L=[2], snr_db=[1.0e308], trials=1, schemes=["FQ"], threads=1))
@example(data=dict(M=2, K=8, L=[2147483648], trials=1, threads=1))
@example(data=dict(M=2, K=1, L=[2, 4], snr_db=[5.0], schemes=["AQ", "RQ"], i_max=2, trials=2,
                   seed=1, n_frames=3, threads=2))
def test_any_config_exits_0_2_or_3_with_one_line_on_failure(data):
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as root:
            code, err, caught = run_cli(command, data, root)
        assert code in (0, 2, 3), (command, data)
        if code:
            assert len(err) == 1 and not caught, (command, data, err, caught)
