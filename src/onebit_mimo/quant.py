"""One-bit quantization against threshold vectors, and the threshold policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RealModel, as_rng


@dataclass(frozen=True)
class ThresholdVector:
    """Per-measurement comparison levels plus a tag recording their origin."""

    tau: np.ndarray
    policy: str  # "fixed" | "random" | "oracle" | "adaptive"
    iteration: int | None = None  # set when policy == "adaptive"

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class QuantizedBatch:
    """Sign observations b in {-1,+1}^N together with the thresholds that made them."""

    b: np.ndarray
    tau: ThresholdVector

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.int8)
        if b.shape != self.tau.tau.shape:
            raise ValueError("b and tau must have the same length")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


def quantize(y: np.ndarray, tau) -> QuantizedBatch:
    """b_n = +1 iff y_n >= tau_n, else -1.

    Sign of an exact tie is +1, so the outcome is deterministic even on
    the measure-zero boundary.
    """
    tv = tau if isinstance(tau, ThresholdVector) else ThresholdVector(np.asarray(tau, dtype=float), "fixed")
    y = np.asarray(y, dtype=float)
    if y.shape != tv.tau.shape:
        raise ValueError(f"length mismatch: y has {y.shape}, tau has {tv.tau.shape}")
    b = np.where(y >= tv.tau, 1, -1).astype(np.int8)
    return QuantizedBatch(b=b, tau=tv)


def thresholds_fixed(N: int, c: float = 0.0) -> ThresholdVector:
    """Constant threshold c on every comparator (c=0 is the conventional ADC)."""
    return ThresholdVector(np.full(N, float(c)), "fixed")


def thresholds_oracle(model: RealModel, h: np.ndarray) -> ThresholdVector:
    """tau_n = a_n^T h: each comparator sits exactly on its noiseless signal.

    Requires the true channel, so this is a benchmarking/testing policy.
    """
    return ThresholdVector(model.apply(h), "oracle")


def thresholds_random(model: RealModel, sigma_h2: float, rng_seed=None) -> ThresholdVector:
    """tau_n = a_n^T htilde_n with a fresh channel draw per measurement.

    Draws only the 2K real coordinates each row actually touches, so the
    cost is O(N*K) regardless of M.
    """
    if sigma_h2 < 0.0:
        raise ValueError("sigma_h2 must be non-negative")
    rng = as_rng(rng_seed)
    scale = np.sqrt(sigma_h2 / 2.0)
    draws = rng.normal(0.0, 1.0, size=(model.M, 2 * model.L, 2 * model.K)) * scale
    tau = np.einsum("mrk,rk->mr", draws, model.A_tilde).reshape(-1)
    return ThresholdVector(tau, "random")
