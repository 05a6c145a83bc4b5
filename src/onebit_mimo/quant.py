"""One-bit quantization against threshold vectors, and the threshold policies.

A threshold vector is a plain float array of length N, one level per comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RealModel


def _read_only(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantizedBatch:
    """Sign observations b in {-1,+1}^N together with the thresholds tau that made them."""

    b: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        b = _read_only(self.b, np.int8)
        tau = _read_only(self.tau, float)
        if b.shape != tau.shape:
            raise ValueError("b and tau must have the same length")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tau", tau)


def quantize(y: np.ndarray, tau: np.ndarray) -> QuantizedBatch:
    """b_n = +1 iff y_n >= tau_n, else -1.

    Sign of an exact tie is +1, so the outcome is deterministic even on
    the measure-zero boundary.
    """
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if y.shape != tau.shape:
        raise ValueError(f"length mismatch: y has {y.shape}, tau has {tau.shape}")
    return QuantizedBatch(b=np.where(y >= tau, 1, -1), tau=tau)


def thresholds_fixed(N: int, c: float = 0.0) -> np.ndarray:
    """Constant threshold c on every comparator (c=0 is the conventional ADC)."""
    return np.full(N, float(c))


def thresholds_oracle(model: RealModel, h: np.ndarray) -> np.ndarray:
    """tau_n = a_n^T h: each comparator sits exactly on its noiseless signal.

    Requires the true channel, so this is a benchmarking/testing policy.
    """
    return model.apply(h)


def thresholds_random(model: RealModel, sigma_h2: float, rng_seed=None) -> np.ndarray:
    """tau_n = a_n^T htilde_n with a fresh channel draw per measurement.

    Draws only the 2K real coordinates each row actually touches, so the
    cost is O(N*K) regardless of M.
    """
    if sigma_h2 < 0.0:
        raise ValueError("sigma_h2 must be non-negative")
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(sigma_h2 / 2.0)
    draws = rng.normal(0.0, 1.0, size=(model.M, 2 * model.L, 2 * model.K)) * scale
    return np.einsum("mrk,rk->mr", draws, model.A_tilde).reshape(-1)
