"""Command-line front end.

Subcommands: sweep (all trials: sweep.csv/.json, AQ trace CSVs) and crb (crb.json).
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Default output directory: --out-dir flag, else config, else $ONEBIT_MIMO_OUT,
else ./results.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .crb import crb_trace
from .errors import ConfigError, NumericalError
from .experiments import (AQ_AGG_COLUMNS, AQ_TRACE_COLUMNS, ExperimentConfig,
                          reference_floors, reference_instance, run_aq_trace,
                          run_sweep, summarize, write_dict_csv, write_json,
                          write_trials_csv)
from .quant import thresholds_fixed, thresholds_random

ENV_OUT = "ONEBIT_MIMO_OUT"
OVERRIDES = ("seed", "trials", "schemes", "threads", "out_dir")  # flags that replace config fields


def _add_common(sp):
    sp.add_argument("--config", type=Path, help="YAML experiment config")
    sp.add_argument("--out-dir", type=Path, help="output directory")
    sp.add_argument("--seed", type=int, help="master seed override")
    sp.add_argument("--trials", type=int, help="trials per cell override")
    sp.add_argument("--schemes", type=str, help="comma-separated scheme list override")
    sp.add_argument("--threads", type=int, help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="onebit-mimo",
        description="One-bit ADC massive MIMO channel estimation experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (desc, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=desc))
    return p


def load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, name) for name in OVERRIDES
                 if getattr(args, name) is not None}
    if "out_dir" in overrides:
        overrides["out_dir"] = str(overrides["out_dir"])
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


@contextmanager
def writing_outputs():
    """Turn a failed output write into a configuration error of out_dir (exit 2)."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"out_dir: {e}") from e


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    """Run the sweep once; write sweep.csv, sweep.json and, with AQ rows, the AQ traces."""
    rows = run_sweep(cfg)
    summary = summarize(cfg, rows)
    trial_rows, agg_rows = run_aq_trace(cfg, rows, summary["crb"])
    paths = [out / "sweep.csv", out / "sweep.json"]
    with writing_outputs():
        write_trials_csv(rows, paths[0])
        write_json(summary, paths[1])
        if trial_rows:
            paths += [out / "aq_trace.csv", out / "aq_trace_trials.csv"]
            write_dict_csv(agg_rows, AQ_AGG_COLUMNS, paths[2])
            write_dict_csv(trial_rows, AQ_TRACE_COLUMNS, paths[3])
    for cell in summary["cells"]:
        data = "".join(f"  {m} {cell['median_' + m]:.4g}"
                       for m in ("ser", "rate") if "median_" + m in cell)
        print(f"{cell['scheme']:>4s}  L={cell['L']:<4d} snr={cell['snr_db']:g} dB  median mse "
              f"{cell['median_mse']:.4g}{data}  ({cell['n_converged']}/{cell['n']} converged)")
    for r in agg_rows:
        print(f"  AQ  L={r['L']:<4d} snr={r['snr_db']:g} dB  iter {r['iteration']}: "
              f"median MSE {r['median_mse']:.4g} (floor {r['crb_oq_per_coeff']:.4g})")
    print(f"wrote {', '.join(map(str, paths))}")
    return 0


def cmd_crb(cfg: ExperimentConfig, out: Path) -> int:
    """CRB traces per policy on the reference instance of each cell.

    The quantized-oracle and unquantized traces are the cell's reference
    floors; the fixed/random-threshold traces are evaluated at the
    reference instance's channel draw.
    """
    denom = cfg.M * cfg.K
    entries = []
    for L in cfg.L:
        for snr in cfg.snr_db:
            model, ch, rng = instance = reference_instance(cfg, L, snr)
            ref = reference_floors(cfg, L, snr, instance)
            policies = {"OQ": {"trace": ref["crb_oq_trace"], "per_coeff": ref["crb_oq_per_coeff"]},
                        "NQ": {"trace": ref["crb_nq_trace"], "per_coeff": ref["crb_nq_per_coeff"]}}
            if "FQ" in cfg.schemes:
                fq = crb_trace(model, thresholds_fixed(model.N), ch.h)
                policies["FQ"] = {"trace": fq, "per_coeff": fq / denom}
            if "RQ" in cfg.schemes:
                rq = crb_trace(model, thresholds_random(model, 1.0, rng), ch.h)
                policies["RQ"] = {"trace": rq, "per_coeff": rq / denom}
            entries.append({"M": cfg.M, "K": cfg.K, "L": L, "snr_db": snr,
                            "policies": policies, "ratio_oq_nq": ref["ratio_oq_nq"]})
            print(f"L={L:<4d} snr={snr:g} dB  tr(CRB_OQ)={ref['crb_oq_trace']:.6g}  "
                  f"tr(CRB_NQ)={ref['crb_nq_trace']:.6g}  ratio={ref['ratio_oq_nq']:.12f}")
    with writing_outputs():
        write_json({"config": cfg.to_dict(), "entries": entries}, out / "crb.json")
    print(f"wrote {out / 'crb.json'}")
    return 0


# name -> (help, handler(cfg, out_dir))
COMMANDS = {
    "sweep": ("Monte Carlo sweep over (scheme, L, SNR, trial): MSE, SER/rate, AQ rounds",
              cmd_sweep),
    "crb": ("CRB traces per threshold policy and the quantized/ideal ratio", cmd_crb),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        out = Path(cfg.out_dir or os.environ.get(ENV_OUT) or "results")
        with writing_outputs():  # before any trial runs, so a bad directory costs no work
            out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command][1](cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
