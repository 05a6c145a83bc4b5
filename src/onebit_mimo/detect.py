"""One-bit QPSK detection, frame simulation, and the correlation-based
achievable-rate metric.

The data phase quantizes with zero thresholds (the comparators have no
side information about payload symbols) and has unit noise, as in model.
Frames reach the 2M comparators through one real product with
model.complex_block.  Detection is exhaustive ML over all 4^K QPSK
hypotheses, scored as base + (b > 0) @ delta.T.  Per channel estimate,
_score_terms sums each hypothesis' comparator inputs user by user from
written-out per-user [Re, Im] products, so multiplying every symbol by j,
or negating them, maps the inputs onto another hypothesis' exactly.  log
Phi is then evaluated only on the quarter of hypotheses whose first symbol
is index 0, at 4^K M points instead of 4^K 2M, and the other three quarters
of base and delta are read from it.

Frames are scored in two passes.  A float32 screen scores every
hypothesis from a table over the same quarter: in the signs b = +-1 a
score is m + b . delta / 2, and m is the same for a hypothesis and its images
under j and negation, so one product against each frame's signs and their
j-rotation scores two quarters, and 2m minus those scores the other two.
It keeps, per frame, the blocks of SCREEN_BLOCK hypotheses whose float32
maximum lies within a rigorous rounding bound of the best; the confirm
pass rescores only those contender blocks with the float64 matrix product,
in groups of frames, and takes the first maximum.  Every hypothesis that
could win is scored in float64 exactly as a full FRAME_CHUNK x HYP_CHUNK
tile scores it, so decisions are those of one argmax over the full score
array, which is never built.  Ties go to the lexicographically first
hypothesis only where those float64 scores are exactly equal.  At high SNR,
or at M <= 5, many hypotheses score within a few u sum|terms| of each other
(u = 2^-53); there the winner follows the summation order of the confirm
pass's dgemm, which OpenBLAS picks per CPU, so it can differ between
machines.  Below SCREEN_MIN_HYP hypotheses (K < 7), or when the bound is
not finite, every block is a contender and the screen is skipped.  At M=16,
K=8 and 1,500 frames on one core the screen takes 67-73 ms instead of
93-103 ms over all 4^K hypotheses, a detection call 127-140 ms instead of
165-173 ms, and the benchmark's data_phase peaks at 92.6 MB RSS instead of
100.7 MB (BENCH_20.json).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .gauss import norm_logcdf
from .model import complex_block

# Fixed constellation order; exact ties in the computed float64 scores
# resolve to the first (lexicographically smallest) hypothesis under this
# indexing.
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
ROT = np.array([2, 0, 3, 1])  # QPSK[ROT[d]] = j QPSK[d]; QPSK[3 - d] = -QPSK[d]
K_MAX = 8  # largest K whose 4^K hypotheses detection searches
RATE_CAP = 20.0  # bits per user reported for a perfectly correlated detection
FRAME_CHUNK = 256   # frames per score tile
HYP_CHUNK = 512     # hypotheses per score tile (256 x 512 float64 = 1 MB)
SCREEN_BLOCK = 64   # hypotheses per float32 screen block
# Fewest hypotheses the screen runs for.  Below it a 32-frame group's
# contenders cover most blocks and the screen costs more than it saves (at
# M=16 and 1,500 frames, without -> with the quarter screen: K=5 3.0-3.3 ->
# 7.7-10.2 ms, K=6 12.1-14.2 -> 15.4-22.8 ms, but K=7 50-76 -> 30-36 ms).
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


def _rot_rows(n: int) -> np.ndarray:
    """For n = 4^k: the row of ROT[d] (every digit mapped) among the k-digit
    index tuples in lexicographic order, for each such tuple d."""
    rows = np.zeros(1, dtype=np.intp)
    while rows.size < n:
        rows = (4 * rows[:, None] + ROT).reshape(-1)
    return rows


def _score_terms(H_hat: np.ndarray, symbol_power: float):
    """Score terms of every hypothesis: base (4^K,), the sum of log Phi(-u),
    and delta (4^K, 2M) = log Phi(u) - log Phi(-u), for the comparator inputs u.

    u is summed over the users in order from c_k[d] = [Re, Im] of
    QPSK[d] sqrt(symbol_power) h_k, each entry a written-out two-term real
    sum.  Addition commutes and negation is exact, so multiplying every
    symbol by j (d -> ROT[d]) maps u = [R, I] to [-I, R] and negating them
    (d -> 3 - d) maps u to -u, bit for bit.  So log Phi is evaluated on the
    d_0 = 0 quarter U only, at +U and -U.  The d_0 = 1 block is U rotated by
    -j, read through a digit-wise ROT row map; the d_0 = 2 and 3 blocks are
    the d_0 = 1 and 0 blocks negated, whose rows run backwards.  base sums
    the Re and the Im half of each row apart.
    """
    M, K = H_hat.shape
    hr, hi = H_hat.real.T, H_hat.imag.T
    amp = np.sqrt(symbol_power)
    sr, si = QPSK.real[:, None] * amp, QPSK.imag[:, None] * amp
    c = [np.hstack([sr * hr[k] - si * hi[k], sr * hi[k] + si * hr[k]]) for k in range(K)]
    U = c[0][:1]
    for k in range(1, K):
        U = (U[:, None] + c[k][None]).reshape(-1, 2 * M)
    rows = _rot_rows(U.shape[0])  # quarter row of each d_0 = 1 hypothesis
    log_pos = norm_logcdf(U)
    log_neg = norm_logcdf(np.negative(U, out=U))
    del U
    pos_re, pos_im = log_pos[:, :M].sum(axis=1), log_pos[:, M:].sum(axis=1)
    neg_re, neg_im = log_neg[:, :M].sum(axis=1), log_neg[:, M:].sum(axis=1)
    delta = np.empty((4, *log_pos.shape))
    D = np.subtract(log_pos, log_neg, out=delta[0])
    del log_pos, log_neg
    G = D[rows]
    delta[1, :, :M] = G[:, M:]
    np.negative(G[:, :M], out=delta[1, :, M:])
    np.negative(delta[1, ::-1], out=delta[2])
    np.negative(D[::-1], out=delta[3])
    base = np.concatenate([neg_re + neg_im, (neg_im + pos_re)[rows],
                           (pos_im + neg_re)[rows][::-1], (pos_re + pos_im)[::-1]])
    return base, delta.reshape(-1, 2 * M)


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

    base, delta = _score_terms(H_hat, symbol_power)
    return _score_frames(base, delta, b_frames, hypothesis_indices(K))


def _even_slices(n: int, most: int) -> list:
    """range(n) in ceil(n / most) contiguous slices whose sizes differ by at most one."""
    parts = -(-n // most)
    edges = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _score_frames(base: np.ndarray, delta: np.ndarray, b_frames: np.ndarray,
                  hyp: np.ndarray) -> np.ndarray:
    """Best hypothesis per frame by score base + (b > 0) @ delta.T, for
    _score_terms' tables.

    Pass 1 (the screen) scores every hypothesis in float32 from a table
    over the d_0 = 0 quarter (_screen_table): one sgemm gives each quarter
    row's score and that of its image under j, and 2m minus those give the
    negated two (_contenders).  Each SCREEN_BLOCK's best float32 score is
    within err_k / 2 of its float64 one.  A block whose float32
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
    err = None
    if n_hyp >= SCREEN_MIN_HYP:  # a quarter of 4^K is a whole number of HYP_CHUNK tiles
        table, order, err = _screen_table(base, delta)
        out32 = np.empty(HYP_CHUNK * 2 * FRAME_CHUNK, dtype=np.float32)
    per_tile = HYP_CHUNK // SCREEN_BLOCK
    block_cols = np.arange(SCREEN_BLOCK)
    for lo in range(0, b_frames.shape[0], FRAME_CHUNK):
        pos = pos_all[lo:lo + FRAME_CHUNK]
        if err is None:
            best[lo:lo + pos.shape[0]] = _first_best(pos.astype(float), base, delta, None, out)
            continue
        contender = _contenders(table, order, err, pos, out32)
        for grp in _even_slices(pos.shape[0], CONFIRM_FRAMES):
            keep = contender[:, grp].any(axis=1)
            pad = -np.count_nonzero(keep) % per_tile
            keep[np.flatnonzero(~keep)[:pad]] = True
            cols = (np.flatnonzero(keep)[:, None] * SCREEN_BLOCK + block_cols).ravel()
            best[lo + grp.start:lo + grp.stop] = _first_best(
                pos[grp].astype(float), base, delta, cols, out)
    return hyp[best]


def _screen_table(base: np.ndarray, delta: np.ndarray):
    """Float32 screen table [D/2 | m] over the d_0 = 0 quarter, the quarter
    block each SCREEN_BLOCK of hypotheses reads, and per-block error bounds:
    (table, order, err).

    Valid only for _score_terms' tables, whose quarters hold one set of terms
    rotated.  With b = 2 pos - 1, a score base_h + pos . delta_h is
    m + b . delta_h / 2, where m = (sum log Phi(u) + sum log Phi(-u)) / 2 is
    the same for a quarter row r and its images under j and negation.  So
    with D = delta of the quarter, its four orientations score
      q0 (d_0 = 0, row r):        P = m_r + b . D_r / 2,
      q1 (d_0 = 1, rotated by j): P' = m_r + b' . D_r / 2, b' = [-b_Im, b_Re],
      q2, q3 (q1, q0 negated):    2 m_r - P' and 2 m_r - P,
    and m_r = (base_r + base_{4^K-1-r}) / 2, the halved sum of the row's
    sums of log Phi(-u) and log Phi(u).  order[j] is the quarter block that
    hypothesis block j scores: q0's blocks as they are, q1's through the
    ROT row map (a SCREEN_BLOCK of 4^3 rows maps onto one block), q2's and
    q3's those of q1 and q0 backwards.

    Bound, with u = 2^-24, gamma_n = n u / (1 - n u) and per quarter row
    mag = |m| + sum|D| / 2, which bounds every orientation's |score|:
    - float32: P sums 2M+1 terms, each rounded once to float32, so it is
      within ((1 + u) gamma_2M + u) mag <= gamma_{2M+1} mag of its value
      from the float64 terms; 2 m - P is within the same distance before
      its one subtraction rounds, so every orientation is within
      gamma_{2M+2} mag.  Underflow adds at most 2^-150 per term, nothing
      beside u mag, as |m| >= 2M ln 2.
    - float64: m + b . delta_h / 2 differs from base_h + pos . delta_h by the
      rounding of base, of D and of m, at most 4 gamma64_{2M+1} |m|, since
      sum|log Phi(u)| + sum|log Phi(-u)| = 2|m|; the confirm pass's own
      product adds at most gamma64_{2M+1} (|base_h| + sum|delta_h|), about
      4 gamma64_{2M+1} |m|.  Both together stay below u mag for M < 2^20.
    So each float32 screen score is within (gamma_{2M+2} + u) mag of the
    confirm pass's float64 score; err is twice that, maximized over the
    block, leaving room for _contenders' float64 comparisons.  err is None
    when mag is not finite or float32 could overflow; then every block is
    a contender.
    """
    n_hyp, n_cols = delta.shape
    n = n_hyp // 4
    m = 0.5 * (base[:n] + base[::-1][:n])
    table = np.empty((n, n_cols + 1), dtype=np.float32)
    table[:, n_cols] = m
    size = np.abs(m)
    for h in range(0, n, HYP_CHUNK):
        half = 0.5 * delta[h:h + HYP_CHUNK]
        table[h:h + HYP_CHUNK, :n_cols] = half
        size[h:h + HYP_CHUNK] += np.abs(half, out=half).sum(axis=1)
    mag = size.reshape(-1, SCREEN_BLOCK).max(axis=1)
    if not mag.max() <= F32_SAFE:
        return table, None, None
    blocks = np.arange(mag.size)
    turned = _rot_rows(n)[::SCREEN_BLOCK] // SCREEN_BLOCK
    order = np.concatenate([blocks, turned, turned[::-1], blocks[::-1]])
    k = n_cols + 2
    gamma = k * F32_EPS / (1.0 - k * F32_EPS)
    return table, order, 2.0 * (gamma + F32_EPS) * mag[order]


def _contenders(table: np.ndarray, order: np.ndarray, err: np.ndarray,
                pos: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(blocks, frames) mask: block k can hold frame f's first maximum.

    One sgemm per HYP_CHUNK rows of the quarter table into the float32
    buffer out, against [[b, b'], [1, 1]], scores q0 and q1 of every frame;
    2 m - P turns them into q3 and q2 in place.  The scores sit in the
    (rows x 2 frames) layout, where the max over each SCREEN_BLOCK of rows
    is a contiguous reduction; top holds the block maxima by quarter block
    and d_0, and order picks each hypothesis block's.
    """
    n_frames = pos.shape[0]
    half = (table.shape[1] - 1) // 2
    b = 2.0 * pos.T - 1.0
    signs = np.ones((table.shape[1], 2, n_frames), dtype=np.float32)
    signs[:-1, 0] = b
    signs[:half, 1] = -b[half:]
    signs[half:-1, 1] = b[:half]
    signs = signs.reshape(table.shape[1], 2 * n_frames)
    twice_m = 2 * table[:, -1]
    top = np.empty((table.shape[0] // SCREEN_BLOCK, 4, n_frames), dtype=np.float32)
    scores = out[:HYP_CHUNK * 2 * n_frames].reshape(HYP_CHUNK, 2 * n_frames)
    blocks = scores.reshape(-1, SCREEN_BLOCK, 2, n_frames)
    for h in range(0, table.shape[0], HYP_CHUNK):
        k = slice(h // SCREEN_BLOCK, (h + HYP_CHUNK) // SCREEN_BLOCK)
        np.matmul(table[h:h + HYP_CHUNK], signs, out=scores)
        np.max(blocks, axis=1, out=top[k, :2])
        np.subtract(twice_m[h:h + HYP_CHUNK, None], scores, out=scores)
        np.max(blocks, axis=1, out=top[k, :1:-1])
    bmax = top[order, np.arange(order.size) // (order.size // 4)].astype(float)
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
    S = QPSK[idx] * np.sqrt(symbol_power)
    received = np.concatenate([S.real, S.imag], axis=1) @ complex_block(H.T)
    b = np.where(received + noise >= 0.0, 1, -1).astype(np.int8)
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
