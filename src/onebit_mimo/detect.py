"""One-bit QPSK detection, frame simulation, and the correlation-based
achievable-rate metric.

The data phase quantizes with zero thresholds (the comparators have no
side information about payload symbols).  Detection is exhaustive ML
over all 4^K QPSK hypotheses; per channel estimate the per-measurement
log Phi tables are precomputed once (the table for the negated signs is
the first one read backwards).  Frames are then scored in cache-sized
tiles of FRAME_CHUNK frames by HYP_CHUNK hypotheses, one matrix product
per tile, keeping a running best per frame, so the full frames-by-
hypotheses score array is never built.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .gauss import norm_logcdf
from .model import as_rng

# Fixed constellation order; ties in the likelihood resolve to the first
# (lexicographically smallest) hypothesis under this indexing.
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
K_MAX = 8  # largest K whose 4^K hypotheses detection searches
FRAME_CHUNK = 256  # frames per score tile
HYP_CHUNK = 512    # hypotheses per score tile (256 x 512 float64 = 1 MB)


@cache
def hypothesis_indices(K: int) -> np.ndarray:
    """All 4^K constellation index tuples, in lexicographic order."""
    idx = np.ascontiguousarray(np.indices((4,) * K, dtype=np.uint8).reshape(K, -1).T)
    idx.setflags(write=False)
    return idx


def _loglik_tables(H_hat: np.ndarray, sigma2: float, symbol_power: float):
    """log Phi(+u/sigma) and log Phi(-u/sigma) for every hypothesis.

    u stacks [Re, Im] of H_hat @ s over the 2M comparators: (4^K, 2M).
    Negating every symbol maps constellation index d to 3 - d, which sends
    hypothesis row i to row 4^K - 1 - i and u to -u exactly (IEEE negation
    is exact), so the second table is the first one reversed.
    """
    K = H_hat.shape[1]
    S = QPSK[hypothesis_indices(K)] * np.sqrt(symbol_power)  # (4^K, K)
    R = S @ H_hat.T                                          # (4^K, M)
    U = np.concatenate([R.real, R.imag], axis=1) / np.sqrt(sigma2)
    log_pos = norm_logcdf(U)
    return log_pos, log_pos[::-1]


def detect_frames(H_hat: np.ndarray, b_frames: np.ndarray, sigma2: float,
                  symbol_power: float = 1.0) -> np.ndarray:
    """Exhaustive one-bit ML detection of many frames against one channel.

    b_frames is (F, 2M) of signs with the [Re block, Im block] comparator
    order.  Returns (F, K) constellation indices.
    """
    H_hat = np.asarray(H_hat, dtype=complex)
    if not np.isfinite(H_hat).all():
        raise ValueError("H_hat must be finite")
    for name, value in (("sigma2", sigma2), ("symbol_power", symbol_power)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value}")
    M, K = H_hat.shape
    if K > K_MAX:
        raise ValueError(
            f"K={K} needs 4^{K} hypotheses, beyond the exhaustive-search "
            f"limit K <= {K_MAX}; reduce the number of users"
        )
    b_frames = np.atleast_2d(np.asarray(b_frames))
    if b_frames.shape[1] != 2 * M:
        raise ValueError(f"frames must have 2M={2 * M} sign entries")

    log_pos, log_neg = _loglik_tables(H_hat, sigma2, symbol_power)
    base = log_neg.sum(axis=1)      # score if every sign were -1
    delta = log_pos - log_neg       # added when a sign is +1
    return _score_frames(base, delta, b_frames, hypothesis_indices(K))


def _score_frames(base: np.ndarray, delta: np.ndarray, b_frames: np.ndarray,
                  hyp: np.ndarray) -> np.ndarray:
    """Best hypothesis per frame by score base + (b > 0) @ delta.T.

    Scores FRAME_CHUNK x HYP_CHUNK tiles and keeps a running best per frame.
    A later tile replaces a frame's best only on a strictly higher score, so
    ties go to the lexicographically first hypothesis, as with one argmax.
    """
    best = np.empty(b_frames.shape[0], dtype=np.intp)
    for lo in range(0, b_frames.shape[0], FRAME_CHUNK):
        sl = slice(lo, lo + FRAME_CHUNK)
        pos_mask = (b_frames[sl] > 0).astype(float)
        rows = np.arange(pos_mask.shape[0])
        best_score = np.full(pos_mask.shape[0], -np.inf)
        best_idx = np.zeros(pos_mask.shape[0], dtype=np.intp)
        for h in range(0, delta.shape[0], HYP_CHUNK):
            scores = pos_mask @ delta[h:h + HYP_CHUNK].T   # (f, HYP_CHUNK)
            scores += base[h:h + HYP_CHUNK]
            arg = np.argmax(scores, axis=1)
            score = scores[rows, arg]
            better = score > best_score
            best_score[better] = score[better]
            best_idx[better] = arg[better] + h
        best[sl] = best_idx
    return hyp[best]


def simulate_frames(H: np.ndarray, sigma2: float, symbol_power: float,
                    n_frames: int, rng_seed=None):
    """Draw QPSK frames, pass them through H with AWGN, quantize at zero.

    Returns (constellation indices (F, K), one-bit data (F, 2M)).
    """
    rng = as_rng(rng_seed)
    H = np.asarray(H, dtype=complex)
    M, K = H.shape
    idx = rng.integers(0, 4, size=(n_frames, K))
    S = QPSK[idx] * np.sqrt(symbol_power)
    noise = rng.normal(0.0, np.sqrt(sigma2), size=(n_frames, M)) \
        + 1j * rng.normal(0.0, np.sqrt(sigma2), size=(n_frames, M))
    R = S @ H.T + noise
    b = np.where(np.concatenate([R.real, R.imag], axis=1) >= 0.0, 1, -1).astype(np.int8)
    return idx, b


def achievable_rate(s: np.ndarray, s_hat: np.ndarray, cap: float = 20.0) -> np.ndarray:
    """Per-user rates log2(1 + |E[s* s_hat]|^2 / (E[|s_hat|^2] - |E[s* s_hat]|^2)), shape (K,).

    Expectations are sample means over the T rows of the paired (T, K)
    sequences.  A non-positive denominator means perfect correlation; that
    user's rate is the configured cap.
    """
    s = np.asarray(s, dtype=complex)
    s_hat = np.asarray(s_hat, dtype=complex)
    if s.size == 0:
        raise ValueError("empty sample sequences")
    if s.shape != s_hat.shape:
        raise ValueError("s and s_hat must have matching shapes")
    corr = (np.conj(s) * s_hat).mean(axis=0)
    num = np.abs(corr) ** 2
    power = (np.abs(s_hat) ** 2).mean(axis=0)
    den = power - num
    # den is a difference of O(power) quantities; below rounding noise it
    # means perfect correlation, not an astronomically large SINR
    capped = den <= 1e-12 * power
    safe = np.where(capped, 1.0, den)
    return np.where(capped, float(cap), np.log2(1.0 + num / safe))
