"""Monte Carlo sweep engine: trial seeding, execution, aggregation, output.

Per-trial seeds are derived from (master seed, scheme id, M, K, L, SNR,
trial) through numpy's SeedSequence, so every trial is a pure function
of its cell coordinates: adding a scheme or reordering sweep lists never
perturbs another scheme's random stream, and results are identical for
any --threads value.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .crb import crb_nq_trace, crb_trace
from .detect import K_MAX, QPSK, RATE_CAP, achievable_rate, detect_frames, simulate_frames
from .errors import ConfigError
from .mle import ChannelEstimate
from .model import (RealModel, channel_mse, generate_channel, generate_pilots_orthogonal,
                    power_for_snr, real_to_channel, realify)
from .quant import thresholds_oracle
from .schemes import run_aq, run_fq, run_nq, run_oq, run_rq


def _perfect_csi(model, h, rng, i_max):
    """The true channel as the estimate: the data phase's perfect-CSI reference."""
    return ChannelEstimate(h_hat=h.copy(), iterations=0, grad_norm=0.0, objective=np.nan,
                           antenna_converged=np.ones(model.M, dtype=bool)), None


# name -> (stable seed id, runner).  Seed derivation depends on the ids, never
# on list order.  A runner maps (model, h, rng, i_max) to (estimate, AQ rounds
# or None); the lambdas look run_* up at call time.
SCHEMES = {
    "FQ": (0, lambda model, h, rng, i_max: (run_fq(model, h, rng), None)),
    "RQ": (1, lambda model, h, rng, i_max: (run_rq(model, h, rng_seed=rng), None)),
    "AQ": (2, lambda model, h, rng, i_max: run_aq(model, h, i_max, rng)),
    "OQ": (3, lambda model, h, rng, i_max: (run_oq(model, h, rng), None)),
    "NQ": (4, lambda model, h, rng, i_max: (run_nq(model, h, rng), None)),
    "PCSI": (5, _perfect_csi),
}
SCHEME_IDS = {name: sid for name, (sid, _) in SCHEMES.items()}  # read by perfbench/run.py
_REF_ID = 9  # pseudo-scheme id for CRB reference models

AQ_TRACE_COLUMNS = ["M", "K", "L", "snr_db", "trial", "seed", "iteration",
                    "mse", "converged", "threshold_rel_err"]

AQ_AGG_COLUMNS = ["M", "K", "L", "snr_db", "iteration", "n", "median_mse",
                  "mean_mse", "crb_oq_per_coeff", "crb_nq_per_coeff"]


# The size rule: no array of one trial may exceed this many floats (1 GiB of
# float64).  The largest are AQ's one-bit data over all rounds (i_max x M x 2L,
# only when AQ runs), the random thresholds' draws (M x 2L x 2K), the pilots'
# outer-product table (2L x K(2K+1)), and in the data phase detection's quarter
# table D (4^(K-1) x 2M), the frames' signal and noise (n_frames x 2M) and
# their complex symbols (n_frames x K, 2K floats a frame).  The screen's
# (tiles x frames) bool mask takes 4^K/512 bytes a frame, never more than the
# symbols' 16K bytes for K <= K_MAX.
MAX_TRIAL_ARRAY = 2**27

# What a config value may be, by field annotation; bool never passes for a number.
_ACCEPTS = {
    "int": ("an integer", (int, np.integer)),
    "float": ("a finite number", (int, float, np.integer, np.floating)),
    "str": ("a string", (str,)),
    "str | None": ("a string", (str, type(None))),
}


def _checked(name: str, value, annotation: str):
    what, types = _ACCEPTS[annotation]
    if (not isinstance(value, types) or (isinstance(value, bool) and bool not in types)
            or (annotation == "float" and not np.isfinite(value))):
        raise ConfigError(f"{name}: must be {what} (got {value!r})")
    return value


@dataclass
class ExperimentConfig:
    """Declarative sweep description (YAML file and/or CLI flags).

    Noise and channel prior have unit variance, so SNR alone sets the pilot power.
    """

    M: int = 16
    K: int = 8
    L: list = field(default_factory=lambda: [32])
    snr_db: list = field(default_factory=lambda: [15.0])
    schemes: list = field(default_factory=lambda: ["NQ", "OQ", "AQ", "RQ", "FQ"])
    i_max: int = 5
    trials: int = 100
    seed: int = 0
    n_frames: int = 0       # data-phase frames per trial; 0 skips SER/rate
    threads: int = 1
    out_dir: str | None = None
    rate_cap = RATE_CAP     # not a field: a perfect detection's rate, fixed by detect

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(map(str, unknown)))}")
        cfg = cls(**data)
        cfg.normalize()
        return cfg

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        import yaml

        try:
            with open(path, "rb") as f:  # bytes: the parser reports bad encodings as YAMLError
                data = yaml.safe_load(f) or {}
        except (OSError, yaml.YAMLError) as e:
            raise ConfigError(f"config file {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        return cls.from_dict(data)

    def normalize(self):
        for f in fields(self):
            if f.type in _ACCEPTS:
                _checked(f.name, getattr(self, f.name), f.type)
        if isinstance(self.schemes, str):
            self.schemes = [s.strip() for s in self.schemes.split(",") if s.strip()]
        for name, kind, cast in (("L", "int", int), ("snr_db", "float", float),
                                 ("schemes", "str", str.upper)):
            value = getattr(self, name)
            values = value if isinstance(value, (list, tuple)) else [value]
            setattr(self, name, [cast(_checked(name, v, kind)) for v in values])

    def validate(self):
        self.normalize()
        if self.M < 1:
            raise ConfigError("M: must be >= 1")
        if self.K < 1:
            raise ConfigError("K: must be >= 1")
        if not self.L:
            raise ConfigError("L: sweep list is empty")
        for L in self.L:
            if L < self.K:
                raise ConfigError(f"L: every value must be >= K (got L={L} < K={self.K})")
        if not self.snr_db:
            raise ConfigError("snr_db: sweep list is empty")
        if not self.schemes:
            raise ConfigError("schemes: list is empty")
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad:
            raise ConfigError(f"schemes: unknown {', '.join(bad)} (choose from {', '.join(SCHEMES)})")
        if self.i_max < 1:
            raise ConfigError("i_max: must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")
        M, K, L, i_max, n_frames = map(int, (self.M, self.K, max(self.L), self.i_max, self.n_frames))
        aq_data = i_max * M * 2 * L if "AQ" in self.schemes else 0
        quarter = 4 ** (min(K, K_MAX) - 1) * 2 * M if n_frames > 0 else 0
        for names, floats in (("L, M, i_max", aq_data), ("L, M, K", M * 2 * L * 2 * K),
                              ("L, K", 2 * L * K * (2 * K + 1)), ("M, K", quarter),
                              ("n_frames, M", n_frames * 2 * M), ("n_frames, K", n_frames * 2 * K)):
            if floats > MAX_TRIAL_ARRAY:
                raise ConfigError(f"{names}: one trial would allocate an array of about "
                                  f"2^{floats.bit_length() - 1} floats, more than the "
                                  f"2^{MAX_TRIAL_ARRAY.bit_length() - 1} allowed")
        tiny = np.finfo(float).tiny  # pilot powers must be positive, finite, normal floats
        for L in self.L:
            for snr in self.snr_db:
                try:
                    P = power_for_snr(snr, self.K, L)
                except OverflowError:
                    P = np.inf
                if not tiny <= P < np.inf:
                    raise ConfigError(f"snr_db: pilot power {P:g} at L={L}, snr_db={snr:g} "
                                      "is not a positive normal float")
        # after the pilot-power check, which bounds every SNR that snr_key rounds
        for name, key in (("L", int), ("snr_db", snr_key), ("schemes", str)):
            keys = [key(v) for v in getattr(self, name)]
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name}: entries of {getattr(self, name)} share trial seeds, "
                                  "so they would rerun the same trials")
        if self.n_frames < 0:
            raise ConfigError("n_frames: must be non-negative")
        if self.n_frames > 0 and self.K > K_MAX:
            raise ConfigError(f"K: one-bit detection in the data phase allows "
                              f"K <= {K_MAX} (got K={self.K})")
        if self.threads < 1:
            raise ConfigError("threads: must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialResult:
    """One scheme run on one random instance; every field but rounds and
    rate_capped is a CSV column."""

    scheme: str
    M: int
    K: int
    L: int
    snr_db: float
    trial: int
    seed: int
    mse: float
    converged: bool
    iters: int
    ser: float | None = None
    rate: float | None = None
    rounds: list | None = None  # AQ only: one AqIterate per adaptive round
    rate_capped: int | None = None  # users whose rate is RATE_CAP (data phase only)


CSV_COLUMNS = [f.name for f in fields(TrialResult) if f.name not in ("rounds", "rate_capped")]


def snr_key(snr_db: float) -> int:
    """SNR seed entropy: values that round to one 0.001 dB step share every draw."""
    return int(round(snr_db * 1000.0)) + 2**31


def trial_seed_seq(master: int, scheme: str, M: int, K: int, L: int,
                   snr_db: float, trial: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed; cell values (not indices) enter the entropy.

    ``scheme`` is a name in SCHEMES or "REF" for a cell's reference instance.
    """
    if scheme not in SCHEMES and scheme != "REF":
        raise ConfigError(f"schemes: unknown scheme {scheme!r}")
    scheme_id = SCHEMES[scheme][0] if scheme in SCHEMES else _REF_ID
    return np.random.SeedSequence(
        entropy=(int(master), scheme_id, int(M), int(K), int(L), snr_key(snr_db), int(trial))
    )


def pilot_model(M: int, K: int, L: int, snr_db: float, rng) -> RealModel:
    """Orthogonal pilots at the power the SNR implies, in real block form.

    ``rng`` is a Generator (the pilots are its next draw) or a seed.
    """
    X = generate_pilots_orthogonal(K, L, power_for_snr(snr_db, K, L), rng_seed=rng)
    return realify(X, M)


def draw_instance(ss: np.random.SeedSequence, M: int, K: int, L: int, snr_db: float):
    """A seeded instance: (pilot model, unit-variance channel, generator after both draws)."""
    rng = np.random.default_rng(ss)
    model = pilot_model(M, K, L, snr_db, rng)
    return model, generate_channel(M, K, rng_seed=rng), rng


def run_trial(scheme: str, M: int, K: int, L: int, snr_db: float, trial: int,
              master_seed: int, i_max: int = 5, n_frames: int = 0) -> TrialResult:
    """Draw pilots + channel, run one scheme, optionally run the data phase."""
    if scheme not in SCHEMES:  # "REF" seeds reference instances but runs no scheme
        raise ConfigError(f"schemes: unknown scheme {scheme!r}")
    ss = trial_seed_seq(master_seed, scheme, M, K, L, snr_db, trial)
    model, ch, rng = draw_instance(ss, M, K, L, snr_db)

    est, rounds = SCHEMES[scheme][1](model, ch.h, rng, i_max)

    ser = rate = rate_capped = None
    if n_frames > 0:
        ser, rates = data_phase(ch.H, real_to_channel(est.h_hat, M, K),
                                power_for_snr(snr_db, 1, 1), n_frames, rng)
        rate = float(rates.mean())
        # an uncapped rate equals RATE_CAP only at a SINR of exactly 2^20 - 1
        rate_capped = int(np.count_nonzero(rates == RATE_CAP))

    return TrialResult(
        scheme=scheme, M=M, K=K, L=L, snr_db=snr_db, trial=trial,
        seed=int(ss.generate_state(1)[0]),
        mse=channel_mse(est.h_hat, ch.h), converged=est.converged,
        iters=int(est.iterations), ser=ser, rate=rate, rounds=rounds,
        rate_capped=rate_capped,
    )


def data_phase(H: np.ndarray, H_est: np.ndarray, symbol_power: float, n_frames: int,
               rng_seed=None) -> tuple[float, np.ndarray]:
    """Send frames through the true channel H, detect them with H_est; (SER, rates).

    SER is the error share over all frames and users; rates holds each
    user's achievable rate, shape (K,).
    """
    s_idx, b = simulate_frames(H, symbol_power, n_frames, rng_seed)
    det = detect_frames(H_est, b, symbol_power=symbol_power)
    rates = achievable_rate(QPSK[s_idx], QPSK[det])
    return float((det != s_idx).mean()), rates


def _trial_worker(kwargs: dict) -> TrialResult:
    return run_trial(**kwargs)


def sweep_tasks(cfg: ExperimentConfig) -> list:
    """Deterministic cell order: L (outer), SNR, scheme, trial (inner)."""
    tasks = []
    for L in cfg.L:
        for snr in cfg.snr_db:
            for scheme in cfg.schemes:
                for trial in range(cfg.trials):
                    tasks.append(dict(
                        scheme=scheme, M=cfg.M, K=cfg.K, L=L, snr_db=snr,
                        trial=trial, master_seed=cfg.seed, i_max=cfg.i_max, n_frames=cfg.n_frames,
                    ))
    return tasks


def run_sweep(cfg: ExperimentConfig) -> list:
    """Run every (scheme x L x SNR x trial) cell; rows come back in task order."""
    tasks = sweep_tasks(cfg)
    if cfg.threads <= 1:
        return [run_trial(**t) for t in tasks]
    # the pool forks every worker up front: no more than there are tasks or cores
    workers = min(cfg.threads, len(tasks), os.cpu_count() or 1)
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_worker, tasks, chunksize=chunk))


def reference_instance(cfg: ExperimentConfig, L: int, snr_db: float):
    """The cell's seeded reference instance: (pilot model, channel, generator after both draws)."""
    ss = trial_seed_seq(cfg.seed, "REF", cfg.M, cfg.K, L, snr_db, 0)
    return draw_instance(ss, cfg.M, cfg.K, L, snr_db)


def reference_floors(cfg: ExperimentConfig, L: int, snr_db: float, instance=None) -> dict:
    """Per-coefficient CRB floors for the quantized-oracle and unquantized cases.

    Orthogonal pilots make both traces pilot-independent, and oracle
    thresholds make every offset a_n^T h - tau_n zero, so the OQ trace
    does not depend on the channel either: the reference instance
    represents the whole cell.  Pass that instance if it is already drawn.
    """
    model, ch, _ = instance or reference_instance(cfg, L, snr_db)
    oq = crb_trace(model, thresholds_oracle(model, ch.h), ch.h)
    nq = crb_nq_trace(model)
    denom = cfg.M * cfg.K
    return {"L": L, "snr_db": snr_db, "crb_oq_trace": oq, "crb_nq_trace": nq,
            "crb_oq_per_coeff": oq / denom, "crb_nq_per_coeff": nq / denom,
            "ratio_oq_nq": oq / nq}


def _median_mean(name: str, values) -> dict:
    """median_<name> and mean_<name> of the values, in that key order."""
    values = np.asarray(values, dtype=float)
    return {f"median_{name}": float(np.median(values)), f"mean_{name}": float(values.mean())}


def summarize(cfg: ExperimentConfig, rows: list) -> dict:
    """Aggregate medians/means per cell plus the CRB reference curves.

    Every median and mean is recomputable from the CSV rows alone.  A cell
    with a data phase also counts its users whose rate is RATE_CAP
    (n_rate_capped) beside its number of users (n_rate_users).
    """
    cells = []
    for L in cfg.L:
        for snr in cfg.snr_db:
            for scheme in cfg.schemes:
                sel = [r for r in rows if r.scheme == scheme and r.L == L and r.snr_db == snr]
                if not sel:
                    continue
                cell = {
                    "scheme": scheme, "M": cfg.M, "K": cfg.K, "L": L, "snr_db": snr,
                    "n": len(sel), **_median_mean("mse", [r.mse for r in sel]),
                    "n_converged": int(sum(r.converged for r in sel)),
                }
                for metric in ("ser", "rate"):
                    values = [getattr(r, metric) for r in sel if getattr(r, metric) is not None]
                    if values:
                        cell.update(_median_mean(metric, values))
                capped = [r.rate_capped for r in sel if r.rate_capped is not None]
                if capped:
                    cell["n_rate_capped"] = sum(capped)
                    cell["n_rate_users"] = cfg.K * len(capped)
                cells.append(cell)
    refs = [reference_floors(cfg, L, snr) for L in cfg.L for snr in cfg.snr_db]
    return {"config": cfg.to_dict(), "cells": cells, "crb": refs}


def run_aq_trace(cfg: ExperimentConfig, rows: list, floors: list):
    """Per-round rows of a sweep's AQ trials and per-round aggregates per AQ cell.

    ``floors`` is the summary's ``crb`` list; no AQ rows give two empty lists.
    """
    rows = [r for r in rows if r.scheme == "AQ"]
    trial_rows = [{"M": r.M, "K": r.K, "L": r.L, "snr_db": r.snr_db, "trial": r.trial,
                   "seed": r.seed, "iteration": it.index, "mse": it.mse,
                   "converged": it.converged, "threshold_rel_err": it.threshold_rel_err}
                  for r in rows for it in r.rounds]
    agg_rows = []
    for ref in floors:
        cell = [r.rounds for r in rows if r.L == ref["L"] and r.snr_db == ref["snr_db"]]
        for i in range(cfg.i_max if cell else 0):
            agg_rows.append({
                "M": cfg.M, "K": cfg.K, "L": ref["L"], "snr_db": ref["snr_db"],
                "iteration": i + 1, "n": len(cell),
                **_median_mean("mse", [rounds[i].mse for rounds in cell]),
                "crb_oq_per_coeff": ref["crb_oq_per_coeff"],
                "crb_nq_per_coeff": ref["crb_nq_per_coeff"],
            })
    return trial_rows, agg_rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trials_csv(rows: list, path) -> None:
    """One row per trial, stable column order, shortest-roundtrip floats."""
    write_dict_csv([vars(r) for r in rows], CSV_COLUMNS, path)


def write_dict_csv(rows: list, columns: list, path) -> None:
    """Rows as mappings; a missing or None value is an empty cell."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r.get(c)) for c in columns])


def write_json(obj: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
