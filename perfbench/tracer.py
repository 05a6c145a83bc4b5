"""Spans around the package's public functions, recorded from outside the program.

Each wrapper replaces a function at the module attribute its caller looks up
(``onebit_mimo.schemes.solve_ml``, ``onebit_mimo.experiments.detect_frames``,
...), so no source file changes.  A span is named after the module that
defines the function, so ``thresholds_oracle`` is ``quant.thresholds_oracle``
whether ``schemes`` or ``experiments`` called it.

Spans stay in memory.  In a pool worker, ``run_trial`` hands the spans of its
trial back to the parent as an attribute of the returned row, and
``Tracer.collect`` moves them into the parent's list.  ``time.perf_counter``
reads the system-wide monotonic clock on Linux, so worker and parent times
share one axis.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

SPANS_ATTR = "_perfbench_spans"


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    trial: str | None
    info: tuple | None


# The callers pass the problem and the frames positionally.
def _solve_info(args, est):
    prob = args[0]
    ok = est.antenna_converged
    return (est.iterations, ok.size, int(ok.sum()), len(prob.batches) * prob.model.N)


def _detect_info(args, _out):
    H_hat, frames = args[0], args[1]
    M, K = H_hat.shape
    return (len(frames), M, K)


# (module whose attribute is replaced, attribute, extra info taken from the call)
TARGETS = [
    ("experiments", "trial_seed_seq", None),
    ("experiments", "generate_pilots_orthogonal", None),
    ("experiments", "realify", None),
    ("experiments", "generate_channel", None),
    ("experiments", "run_fq", None),
    ("experiments", "run_rq", None),
    ("experiments", "run_aq", None),
    ("experiments", "run_oq", None),
    ("experiments", "run_nq", None),
    ("experiments", "simulate_frames", None),
    ("experiments", "detect_frames", _detect_info),
    ("experiments", "achievable_rate", None),
    ("experiments", "crb_trace", None),
    ("experiments", "crb_nq_trace", None),
    ("experiments", "thresholds_oracle", None),
    ("experiments", "summarize", None),
    ("experiments", "write_trials_csv", None),
    ("experiments", "write_json", None),
    ("schemes", "generate_noisy_observation", None),
    ("schemes", "thresholds_fixed", None),
    ("schemes", "thresholds_random", None),
    ("schemes", "thresholds_oracle", None),
    ("schemes", "quantize", None),
    ("schemes", "solve_ml", _solve_info),
    ("schemes", "solve_nq", None),
]


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, trial."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.trial: str | None = None
        self.pid = os.getpid()
        self._ids = itertools.count(1)

    def wrap(self, fn, info=None):
        name = span_name(fn)

        def traced(*args, **kwargs):
            sid = (os.getpid() << 32) | next(self._ids)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            note = info(args, out) if info else None
            self.spans.append(Span(sid, parent, name, start, end, self.trial, note))
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_trial(self, fn):
        inner = self.wrap(fn)

        def traced_trial(**kwargs):
            self.trial = "{scheme}/L{L}/snr{snr_db:g}/seed{master_seed}/t{trial}".format(**kwargs)
            first = len(self.spans)
            try:
                row = inner(**kwargs)
            finally:
                self.trial = None
            if os.getpid() != self.pid:
                row.__dict__[SPANS_ATTR] = self.spans[first:]
                del self.spans[first:]
            return row

        traced_trial.__wrapped__ = fn
        return traced_trial

    def collect(self, rows) -> None:
        """Move spans that pool workers attached to rows into this tracer."""
        for row in rows:
            self.spans.extend(row.__dict__.pop(SPANS_ATTR, ()))


@contextmanager
def installed(tracer: Tracer):
    """Replace every target (and ``experiments.run_trial``) while the block runs."""
    saved = []
    try:
        for mod_name, attr, info in TARGETS:
            module = importlib.import_module(f"onebit_mimo.{mod_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, info))
        experiments = importlib.import_module("onebit_mimo.experiments")
        saved.append((experiments, "run_trial", experiments.run_trial))
        experiments.run_trial = tracer.wrap_trial(experiments.run_trial)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, wall: float, threads: int) -> dict:
    """Per-layer counts and seconds from the spans of one traced phase.

    ``wall`` is the traced phase's timed wall time.  Seconds named ``*_s``
    are summed span time; ``self`` variants subtract the child spans.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - child[s.sid]
        calls[s.name] += 1

    def tot(*names):
        return sum(total[n] for n in names)

    def count(*names):
        return sum(calls[n] for n in names)

    solves = [s.info for s in spans if s.name == "mle.solve_ml"]
    iters = sum(i[0] for i in solves)
    antennas = sum(i[1] for i in solves)
    detects = [s.info for s in spans if s.name == "detect.detect_frames"]
    gflop = sum(2.0 * F * 2 * M * 4.0 ** K for F, M, K in detects) / 1e9
    schemes = ["schemes.run_fq", "schemes.run_rq", "schemes.run_aq", "schemes.run_oq",
               "schemes.run_nq"]
    draw = ["model.generate_pilots_orthogonal", "model.realify", "model.generate_channel"]
    thresholds = ["quant.thresholds_fixed", "quant.thresholds_random", "quant.thresholds_oracle"]
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return {
        "experiments.trials": count("experiments.run_trial"),
        "experiments.seed_s": tot("experiments.trial_seed_seq"),
        "experiments.trial_self_s": own["experiments.run_trial"],
        "experiments.summarize_s": tot("experiments.summarize"),
        "experiments.write_s": tot("experiments.write_trials_csv", "experiments.write_json"),
        "experiments.pool_busy_frac": tot("experiments.run_trial") / (threads * wall),
        "model.draw_calls": count(*draw),
        "model.draw_s": tot(*draw),
        "model.observe_calls": count("model.generate_noisy_observation"),
        "model.observe_s": tot("model.generate_noisy_observation"),
        "quant.threshold_s": tot(*thresholds),
        "quant.quantize_calls": count("quant.quantize"),
        "quant.quantize_s": tot("quant.quantize"),
        "schemes.self_s": sum(own[n] for n in schemes),
        "mle.solve_calls": len(solves),
        "mle.solve_s": tot("mle.solve_ml"),
        "mle.newton_iters": iters,
        "mle.s_per_newton_iter": tot("mle.solve_ml") / iters if iters else 0.0,
        "mle.terms": sum(i[3] for i in solves),
        "mle.antenna_converged_frac": sum(i[2] for i in solves) / antennas if antennas else 0.0,
        "mle.nq_s": tot("mle.solve_nq"),
        "crb.calls": count("crb.crb_trace", "crb.crb_nq_trace"),
        "crb.s": tot("crb.crb_trace", "crb.crb_nq_trace"),
        "detect.simulate_s": tot("detect.simulate_frames"),
        "detect.detect_calls": len(detects),
        "detect.frames": sum(F for F, _, _ in detects),
        "detect.detect_s": tot("detect.detect_frames"),
        "detect.score_gflop": gflop,
        "detect.score_gflops": gflop / tot("detect.detect_frames") if detects else 0.0,
        "detect.rate_s": tot("detect.achievable_rate"),
        "trace.coverage": _union_length(top) / wall,
    }
