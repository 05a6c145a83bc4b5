"""End-to-end estimation policies: FQ, RQ, AQ, OQ (oracle), NQ (unquantized).

Each run_* draws its own pilot-phase noise from the supplied seed and
returns a ChannelEstimate; run_aq additionally returns one AqIterate
snapshot per adaptive round.  Runs are pure functions of (model, h, seed),
so trials parallelize freely.

Fairness note: an adaptive run with i_max rounds of L pilot symbols
spends i_max * L symbols and consumes i_max * N binary measurements,
versus L symbols and N measurements for the single-shot schemes.  Its
final estimate is fitted on the batches of all i_max rounds, so compare
an AQ row at L with single-shot rows at i_max * L.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mle import ChannelEstimate, LikelihoodProblem, solve_ml, solve_nq
from .model import RealModel, channel_mse, generate_noisy_observation
from .quant import quantize, thresholds_fixed, thresholds_oracle, thresholds_random


@dataclass
class AqIterate:
    """Snapshot after one adaptive round."""

    index: int
    mse: float
    converged: bool
    threshold_rel_err: float  # ||tau_new - A h|| / ||A h||


def _single_shot(model: RealModel, h: np.ndarray, tau: np.ndarray, rng) -> ChannelEstimate:
    """One noisy observation, quantized at tau, then one-bit ML."""
    y = generate_noisy_observation(model, h, rng)
    return solve_ml(LikelihoodProblem([quantize(y, tau)], model))


def run_fq(model: RealModel, h: np.ndarray, rng_seed=None) -> ChannelEstimate:
    """Zero threshold on every comparator: the conventional one-bit ADC."""
    return _single_shot(model, h, thresholds_fixed(model.N), np.random.default_rng(rng_seed))


def run_rq(model: RealModel, h: np.ndarray, rng_seed=None) -> ChannelEstimate:
    """Random thresholds drawn from the channel prior (before the noise), then one-shot ML."""
    rng = np.random.default_rng(rng_seed)
    return _single_shot(model, h, thresholds_random(model, rng), rng)


def run_oq(model: RealModel, h: np.ndarray, rng_seed=None) -> ChannelEstimate:
    """Thresholds set on the true noiseless signal (testing benchmark only)."""
    return _single_shot(model, h, thresholds_oracle(model, h), np.random.default_rng(rng_seed))


def run_nq(model: RealModel, h: np.ndarray, rng_seed=None) -> ChannelEstimate:
    """Unquantized observations, closed-form least squares."""
    rng = np.random.default_rng(rng_seed)
    y = generate_noisy_observation(model, h, rng)
    return solve_nq(model, y)


def run_aq(model: RealModel, h: np.ndarray, i_max: int,
           rng_seed=None) -> tuple[ChannelEstimate, list]:
    """Adaptive thresholds: quantize, refit, move thresholds to A h_hat.

    Starts from zero thresholds.  Every round draws fresh noise, appends
    the new batch, and refits the ML estimate on all accumulated batches
    (the rounds are independent, so their log-likelihood terms add).

    Identifiability fallback: an antenna whose accumulated sign data are
    still separable has its likelihood supremum at infinity along a ray;
    any radius on that ray fits the data equally well, so the working
    estimate keeps the fitted direction but is pulled back to the
    prior-typical radius sqrt(K).  That keeps the next round's
    thresholds near the plausible signal range, which is what lets new
    batches pin the amplitude down.  Such a round's AqIterate has
    converged=False.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    rng = np.random.default_rng(rng_seed)

    batches, rounds = [], []
    tau = np.zeros(model.N)
    ah_true = model.apply(h)
    ah_norm = float(np.linalg.norm(ah_true))
    radius = np.sqrt(model.K)

    cur = np.zeros((model.M, 2 * model.K))
    for i in range(1, i_max + 1):
        y = generate_noisy_observation(model, h, rng)
        batches.append(quantize(y, tau))
        attempt = solve_ml(LikelihoodProblem(list(batches), model),
                           h0=cur.reshape(-1))
        cur = attempt.h_hat.reshape(model.M, 2 * model.K).copy()
        bad = ~attempt.antenna_converged
        if bad.any():
            norms = np.linalg.norm(cur[bad], axis=1)
            shrink = np.where(norms > radius, radius / np.maximum(norms, 1e-30), 1.0)
            cur[bad] *= shrink[:, None]

        h_hat = cur.reshape(-1)
        tau = model.apply(h_hat)
        rel_err = float(np.linalg.norm(tau - ah_true)) / ah_norm if ah_norm > 0 else np.nan
        rounds.append(AqIterate(
            index=i,
            mse=channel_mse(h_hat, h),
            converged=attempt.converged,
            threshold_rel_err=rel_err,
        ))
    return replace(attempt, h_hat=h_hat), rounds
