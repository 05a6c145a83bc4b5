"""One-bit QPSK detection, frame simulation, and the correlation-based
achievable-rate metric.

The data phase quantizes with zero thresholds (the comparators have no
side information about payload symbols) and has unit noise, as in model.
Frames and hypotheses reach the 2M comparators through one real product
with model.complex_block (_received).  Detection is exhaustive ML over all
4^K QPSK hypotheses; per channel estimate the log Phi tables are
precomputed once (the negated-sign table is the first one read backwards)
and folded into a score base + (b > 0) @ delta.T per hypothesis.

Frames are scored in two passes.  A float32 screen scores every
hypothesis and keeps, per frame, the blocks of SCREEN_BLOCK hypotheses
whose float32 maximum lies within a rigorous rounding bound of the best;
the confirm pass rescores only those contender blocks with the float64
matrix product, in groups of frames, and takes the first maximum.  Every
hypothesis that could win is scored in float64 exactly as a full
FRAME_CHUNK x HYP_CHUNK tile scores it, so decisions and lexicographic
ties are those of one argmax over the full score array, which is never
built.  Below SCREEN_MIN_HYP hypotheses (K < 7), or when the bound is not
finite, every block is a contender and the screen is skipped.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .gauss import norm_logcdf
from .model import complex_block

# Fixed constellation order; ties in the likelihood resolve to the first
# (lexicographically smallest) hypothesis under this indexing.
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
K_MAX = 8  # largest K whose 4^K hypotheses detection searches
RATE_CAP = 20.0  # bits per user reported for a perfectly correlated detection
FRAME_CHUNK = 256   # frames per score tile
HYP_CHUNK = 512     # hypotheses per score tile (256 x 512 float64 = 1 MB)
SCREEN_BLOCK = 64   # hypotheses per float32 screen block
# Fewest hypotheses the screen runs for.  Below it a 32-frame group's
# contenders cover most blocks and the screen costs more than it saves (at
# M=16 and 1,500 frames: K=5 7.9 -> 15.5 ms, K=6 30 -> 38 ms, but K=7
# 108 -> 94 ms).
SCREEN_MIN_HYP = 4 ** 7
CONFIRM_FRAMES = 32  # most frames per float64 confirm group
F32_EPS = 2.0 ** -24  # float32 unit roundoff
F32_SAFE = 2.0 ** 126  # largest score magnitude the float32 screen takes


@cache
def hypothesis_indices(K: int) -> np.ndarray:
    """All 4^K constellation index tuples, in lexicographic order."""
    idx = np.ascontiguousarray(np.indices((4,) * K, dtype=np.uint8).reshape(K, -1).T)
    idx.setflags(write=False)
    return idx


def _received(idx: np.ndarray, H: np.ndarray, symbol_power: float) -> np.ndarray:
    """[Re, Im] of (QPSK[idx] * sqrt(symbol_power)) @ H.T, as one real product: (F, 2M)."""
    S = QPSK[idx] * np.sqrt(symbol_power)
    return np.concatenate([S.real, S.imag], axis=1) @ complex_block(H.T)


def _loglik_tables(H_hat: np.ndarray, symbol_power: float):
    """log Phi(+u) and log Phi(-u) for the (4^K, 2M) inputs u = _received of every hypothesis.

    Negating every symbol maps index d to 3 - d, hypothesis row i to row
    4^K - 1 - i and u to -u exactly, so the second table is the first one reversed.
    """
    log_pos = norm_logcdf(_received(hypothesis_indices(H_hat.shape[1]), H_hat, symbol_power))
    return log_pos, log_pos[::-1]


def detect_frames(H_hat: np.ndarray, b_frames: np.ndarray,
                  symbol_power: float = 1.0) -> np.ndarray:
    """Exhaustive one-bit ML detection of many frames against one channel.

    b_frames is (F, 2M) of signs with the [Re block, Im block] comparator
    order.  Returns (F, K) constellation indices.
    """
    H_hat = np.asarray(H_hat, dtype=complex)
    if not np.isfinite(H_hat).all():
        raise ValueError("H_hat must be finite")
    if not (np.isfinite(symbol_power) and symbol_power > 0):
        raise ValueError(f"symbol_power must be a positive finite number, got {symbol_power}")
    M, K = H_hat.shape
    if K > K_MAX:
        raise ValueError(
            f"K={K} needs 4^{K} hypotheses, beyond the exhaustive-search "
            f"limit K <= {K_MAX}; reduce the number of users"
        )
    b_frames = np.atleast_2d(np.asarray(b_frames))
    if b_frames.shape[1] != 2 * M:
        raise ValueError(f"frames must have 2M={2 * M} sign entries")

    log_pos, log_neg = _loglik_tables(H_hat, symbol_power)
    base = log_neg.sum(axis=1)      # score if every sign were -1
    delta = log_pos - log_neg       # added when a sign is +1
    del log_pos, log_neg            # free the log-Phi table before scoring
    return _score_frames(base, delta, b_frames, hypothesis_indices(K))


def _even_slices(n: int, most: int) -> list:
    """range(n) in ceil(n / most) contiguous slices whose sizes differ by at most one."""
    parts = -(-n // most)
    edges = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _score_frames(base: np.ndarray, delta: np.ndarray, b_frames: np.ndarray,
                  hyp: np.ndarray) -> np.ndarray:
    """Best hypothesis per frame by score base + (b > 0) @ delta.T.

    Pass 1 (the screen) bounds each SCREEN_BLOCK's best float32 score
    within err_k of its float64 one (_screen_table).  A block whose float32
    maximum plus err_k falls below some block's float32 maximum minus its
    err_j holds no hypothesis that can match that block's float64 best, so
    it cannot hold the first maximum; every other block is a contender.
    Pass 2 (confirm) scores the union of a frame group's contender blocks
    with the float64 product and takes the first maximum (_first_best).

    Every float64 product has the shape of an exhaustive-scoring tile,
    which makes its scores that tile's bit for bit: HYP_CHUNK columns
    (contender unions are padded with further blocks to whole tiles) and
    the rows of one FRAME_CHUNK chunk, split evenly into groups of at most
    CONFIRM_FRAMES, so a group has at least 3 frames unless its chunk does.
    OpenBLAS picks its kernel, and with it the summation order, from the
    shape: on x86-64 a product over one row, or (for 2M >= 32) over at most
    about 1,200 rows x columns, takes another kernel and can differ in the
    last bit (3 x 256 and 17 x 64 do; 3 x 512 and 19 x 64 do not).
    """
    n_hyp = delta.shape[0]
    pos_all = b_frames > 0
    best = np.empty(b_frames.shape[0], dtype=np.intp)
    # one score buffer per call: a fresh 1 MB array per tile costs page
    # faults that doubled the time at K=5
    out = np.empty(FRAME_CHUNK * HYP_CHUNK)
    table = err = None
    if n_hyp >= SCREEN_MIN_HYP:  # 4^K, so a whole number of HYP_CHUNK tiles
        table, err = _screen_table(base, delta)
        out32 = np.empty(HYP_CHUNK * FRAME_CHUNK, dtype=np.float32)
    per_tile = HYP_CHUNK // SCREEN_BLOCK
    block_cols = np.arange(SCREEN_BLOCK)
    for lo in range(0, b_frames.shape[0], FRAME_CHUNK):
        pos = pos_all[lo:lo + FRAME_CHUNK]
        if err is None:
            best[lo:lo + pos.shape[0]] = _first_best(pos.astype(float), base, delta, None, out)
            continue
        contender = _contenders(table, err, pos, out32)
        for grp in _even_slices(pos.shape[0], CONFIRM_FRAMES):
            keep = contender[:, grp].any(axis=1)
            pad = -np.count_nonzero(keep) % per_tile
            keep[np.flatnonzero(~keep)[:pad]] = True
            cols = (np.flatnonzero(keep)[:, None] * SCREEN_BLOCK + block_cols).ravel()
            best[lo + grp.start:lo + grp.stop] = _first_best(
                pos[grp].astype(float), base, delta, cols, out)
    return hyp[best]


def _screen_table(base: np.ndarray, delta: np.ndarray):
    """Float32 table [delta | base] and per-SCREEN_BLOCK error bounds err.

    A float32 score sums 2M+1 rounded terms, so for any summation order it
    is within (gamma + u) * max_h(|base_h| + sum_c |delta_hc|) of the float64
    score, with u = 2^-24 and gamma = (2M+2)u / (1 - (2M+2)u) (gamma also
    covers the float64 score's own rounding).  err is twice that, leaving
    room for the float64 comparisons.  err is None when the bound is not
    finite or float32 could overflow; then every block is a contender.
    """
    n_hyp, n_cols = delta.shape
    table = np.empty((n_hyp, n_cols + 1), dtype=np.float32)
    mag = np.empty(n_hyp // SCREEN_BLOCK)
    per_tile = HYP_CHUNK // SCREEN_BLOCK
    for h in range(0, n_hyp, HYP_CHUNK):
        rows = slice(h, h + HYP_CHUNK)
        table[rows, :n_cols] = delta[rows]
        table[rows, n_cols] = base[rows]
        size = np.abs(delta[rows]).sum(axis=1)
        size += np.abs(base[rows])
        k = h // SCREEN_BLOCK
        mag[k:k + per_tile] = size.reshape(per_tile, SCREEN_BLOCK).max(axis=1)
    if not mag.max() <= F32_SAFE:
        return table, None
    n = n_cols + 2
    gamma = n * F32_EPS / (1.0 - n * F32_EPS)
    return table, 2.0 * (gamma + F32_EPS) * mag


def _contenders(table: np.ndarray, err: np.ndarray, pos: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """(blocks, frames) mask: block k can hold frame f's first maximum.

    One sgemm per HYP_CHUNK tile into the float32 buffer out, in the
    (hypotheses x frames) layout, where the max over each SCREEN_BLOCK of
    rows is a contiguous reduction.
    """
    n_frames = pos.shape[0]
    signs = np.ones((table.shape[1], n_frames), dtype=np.float32)
    signs[:-1] = pos.T
    bmax = np.empty((err.size, n_frames), dtype=np.float32)
    per_tile = HYP_CHUNK // SCREEN_BLOCK
    scores = out[:HYP_CHUNK * n_frames].reshape(HYP_CHUNK, n_frames)
    for h in range(0, table.shape[0], HYP_CHUNK):
        np.matmul(table[h:h + HYP_CHUNK], signs, out=scores)
        k = h // SCREEN_BLOCK
        np.max(scores.reshape(per_tile, SCREEN_BLOCK, n_frames), axis=1,
               out=bmax[k:k + per_tile])
    bmax = bmax.astype(float)
    floor = (bmax - err[:, None]).max(axis=0)
    bmax += err[:, None]
    return bmax >= floor


def _first_best(pos_mask: np.ndarray, base: np.ndarray, delta: np.ndarray,
                cols, out: np.ndarray) -> np.ndarray:
    """Index of each frame's first maximum of base + pos_mask @ delta.T over
    the ascending hypothesis indices cols (None: all of them).

    Scores HYP_CHUNK hypotheses per product, into the buffer out, and keeps a
    running best per frame.  A later tile replaces a frame's best only on a
    strictly higher score, so ties go to the lexicographically first
    hypothesis, as with one argmax.
    """
    n_frames = pos_mask.shape[0]
    rows = np.arange(n_frames)
    best_score = np.full(n_frames, -np.inf)
    best_idx = np.zeros(n_frames, dtype=np.intp)
    for h in range(0, delta.shape[0] if cols is None else cols.size, HYP_CHUNK):
        tile = slice(h, h + HYP_CHUNK) if cols is None else cols[h:h + HYP_CHUNK]
        part = delta[tile]
        scores = np.matmul(pos_mask, part.T,
                           out=out[:n_frames * part.shape[0]].reshape(n_frames, -1))
        scores += base[tile]
        arg = np.argmax(scores, axis=1)
        score = scores[rows, arg]
        better = score > best_score
        best_score[better] = score[better]
        best_idx[better] = arg[better] + h if cols is None else tile[arg[better]]
    return best_idx


def simulate_frames(H: np.ndarray, symbol_power: float, n_frames: int, rng_seed=None):
    """Draw QPSK frames, pass them through H with unit AWGN, quantize at zero.

    Returns (constellation indices (F, K), one-bit data (F, 2M)).
    """
    rng = np.random.default_rng(rng_seed)
    H = np.asarray(H, dtype=complex)
    M, K = H.shape
    idx = rng.integers(0, 4, size=(n_frames, K))
    noise = np.hstack(rng.standard_normal((2, n_frames, M)))  # the Re block, then the Im block
    b = np.where(_received(idx, H, symbol_power) + noise >= 0.0, 1, -1).astype(np.int8)
    return idx, b


def achievable_rate(s: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Per-user rates log2(1 + |E[s* s_hat]|^2 / (E[|s_hat|^2] - |E[s* s_hat]|^2)), shape (K,).

    Expectations are sample means over the T rows of the paired (T, K)
    sequences.  A non-positive denominator means perfect correlation; that
    user's rate is RATE_CAP.
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
    return np.where(capped, RATE_CAP, np.log2(1.0 + num / safe))
