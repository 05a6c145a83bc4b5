"""Fisher information, Cramer-Rao bounds, and the threshold-design laws.

Everything is computed per antenna block (2K x 2K) -- block diagonality
of A makes that exact, and it keeps the cost linear in M.  Ill-conditioned
blocks raise instead of being silently regularized: a pseudo-inverted
"bound" is not a bound.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import NumericalError
from .gauss import SQRT_2, mills_ratio
from .model import RealModel, block_gram

COND_LIMIT = 1e12


def g_weight(u):
    """Fisher weight f^2 / (F (1-F)) of one sign measurement at offset u.

    u is the gap between the noiseless signal and the threshold.  The
    weight peaks at u = 0 with value 2/pi and decays roughly as
    exp(-(1 - 2/pi) u^2); evaluating it as a product of two inverse Mills
    ratios keeps both tails finite and positive.
    """
    t = np.asarray(u, dtype=float)
    return mills_ratio(t) * mills_ratio(-t)


def fim(model: RealModel, tau, h: np.ndarray) -> np.ndarray:
    """Fisher information sum_n g(u_n) a_n a_n^T as (M, 2K, 2K) per-antenna blocks."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (model.N,):
        raise ValueError("tau length does not match the model's N")
    u = (model.apply(h) - tau).reshape(model.M, 2 * model.L)
    return block_gram(model.A_tilde, g_weight(u))


def crb_trace(model: RealModel, tau, h: np.ndarray) -> float:
    """Trace of the CRB matrix for the given thresholds at channel h."""
    blocks = fim(model, tau, h)
    conds = np.linalg.cond(blocks)
    worst = int(np.argmax(conds))
    if not np.isfinite(conds[worst]) or conds[worst] > COND_LIMIT:
        raise NumericalError(
            f"FIM block {worst} has condition number {conds[worst]:.3g} (limit "
            f"{COND_LIMIT:g}); the CRB is unreliable -- check pilots (need L >= K) "
            "and threshold offsets"
        )
    inv = np.linalg.inv(blocks)
    return float(np.diagonal(inv, axis1=1, axis2=2).sum())


def crb_nq_trace(model: RealModel) -> float:
    """CRB trace with unquantized observations: tr((A^T A)^{-1})."""
    AtA = model.gram()
    cond = float(np.linalg.cond(AtA))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(
            f"A_tilde^T A_tilde has condition number {cond:.3g} "
            f"(limit {COND_LIMIT:g}); need L >= K with independent pilot rows"
        )
    return model.M * float(np.trace(np.linalg.inv(AtA)))


def gaussian_cdf_bound(x):
    """Standard normal half-CDF Phi(x) - 1/2 and its closed-form upper bound.

    The bound is (1/2) sqrt(1 - exp(-2 x^2 / pi)); equality holds at x = 0
    and both sides tend to 1/2 as x grows.  Defined for x >= 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be non-negative")
    fbar = 0.5 * erf(x / SQRT_2)
    bound = 0.5 * np.sqrt(-np.expm1(-2.0 * x * x / np.pi))
    return fbar, bound


def g_bar_bound(x):
    """Fisher weight and its bound (2/pi) exp(-(1 - 2/pi) x^2)."""
    x = np.asarray(x, dtype=float)
    gbar = g_weight(x)
    bound = (2.0 / np.pi) * np.exp(-(1.0 - 2.0 / np.pi) * x * x)
    return gbar, bound
