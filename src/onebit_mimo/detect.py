"""One-bit QPSK detection, frame simulation, and the correlation-based
achievable-rate metric.

The data phase quantizes with zero thresholds (the comparators have no
side information about payload symbols) and has unit noise, as in model.
Frames reach the 2M comparators through one real product with
model.complex_block.  Detection is exhaustive ML over all 4^K QPSK
hypotheses, scored as base + (b > 0) @ delta.T.  Per channel estimate,
_score_terms sums each hypothesis' comparator inputs user by user from
written-out per-user [Re, Im] products, so multiplying every symbol by j,
or negating them, maps the inputs onto another hypothesis' exactly.  So
only the quarter of hypotheses whose first symbol is index 0 is kept: the
float64 D = log Phi(u) - log Phi(-u) (4^(K-1) x 2M), in a mapping of its
own, and base (4^K).  D is built in cache-sized row blocks, and
gauss.norm_logcdf_pair gives log Phi(u) and log Phi(-u) from one erfcx per
input, at 4^(K-1) 2M points.  No 4^K x 2M table is built: _delta_rows
reads any hypothesis' delta row from D.

Frames are scored in two passes.  A float32 screen scores every
hypothesis from the same quarter: in the signs b = +-1 a score is
m + b . delta / 2, and m is the same for a hypothesis and its images under
j and negation, so one product against each frame's signs and their
j-rotation scores two quarters, and 2m minus those scores the other two.
Each SCREEN_ROWS piece of the quarter is rounded to float32 [D/2 | m] in
one tile buffer just before its product; no float32 copy of the quarter
is kept.
It names, per aligned HYP_CHUNK tile of hypotheses, the frames with a
block of SCREEN_BLOCK hypotheses in it whose float32 maximum lies within a
rigorous rounding bound of the best.  The quarter is screened in groups of
SCREEN_GROUP rows whose four orientations fill whole tiles, so per chunk of
frames it keeps one group's block maxima and one maximum per tile, not a
table of every block's maxima.
The confirm pass visits those tiles once each, in ascending order, reads a
tile's rows from D once, rescores it against its frames alone with the
float64 matrix product, and keeps the first maximum.  Every hypothesis that
could win is scored in float64 exactly as a full FRAME_CHUNK x HYP_CHUNK
tile scores it, so decisions are those of one argmax over the full score
array, which is never built.  Ties go to the lexicographically first
hypothesis only where those float64 scores are exactly equal.  At high SNR,
or at M <= 5, many hypotheses score within a few u sum|terms| of each other
(u = 2^-53); there the winner follows the summation order of the confirm
pass's dgemm, which OpenBLAS picks per CPU, so it can differ between
machines.  Below SCREEN_MIN_HYP hypotheses (K < 7), or when the bound is
not finite, every frame is confirmed in every tile.
"""

from __future__ import annotations

import mmap
from functools import cache

import numpy as np

from .gauss import norm_logcdf_pair
from .model import complex_block

# Fixed constellation order; exact ties in the computed float64 scores
# resolve to the first (lexicographically smallest) hypothesis under this
# indexing.
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
ROT = np.array([2, 0, 3, 1])  # QPSK[ROT[d]] = j QPSK[d]; QPSK[3 - d] = -QPSK[d]
K_MAX = 8  # largest K whose 4^K hypotheses detection searches
RATE_CAP = 20.0  # bits per user reported for a perfectly correlated detection
FRAME_CHUNK = 256   # frames per score tile
HYP_CHUNK = 512     # hypotheses per confirm tile (256 x 512 float64 = 1 MB)
SCREEN_ROWS = 256   # quarter rows per float32 screen piece (256 x 512 float32 = 512 KB)
TERMS_BLOCK = 2 ** 16  # bytes of comparator inputs per log-Phi block (256 rows at M=16)
SCREEN_BLOCK = 64   # hypotheses per float32 screen block
SCREEN_GROUP = 4 ** 5  # quarter rows per screen group, whose images are whole confirm tiles
# Fewest hypotheses the screen runs for; below it, it costs more than the
# float64 scoring it saves (at M=16 and 1,500 frames, without -> with the
# quarter screen: K=5 3.0-3.3 -> 7.7-10.2 ms, K=6 12.1-14.2 -> 15.4-22.8 ms,
# but K=7 50-76 -> 30-36 ms).
SCREEN_MIN_HYP = 4 ** 7
F32_EPS = 2.0 ** -24  # float32 unit roundoff
F32_SAFE = 2.0 ** 126  # largest score magnitude the float32 screen takes


@cache
def _rot_rows(n: int) -> np.ndarray:
    """For n = 4^k: the row of ROT[d] (every digit mapped) among the k-digit
    index tuples in lexicographic order, for each such tuple d."""
    rows = np.zeros(1, dtype=np.intp)
    while rows.size < n:
        rows = (4 * rows[:, None] + ROT).reshape(-1)
    rows.setflags(write=False)
    return rows


def _mapped(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array in an anonymous mapping of its own.

    For the quarter D, the one large array that lives through a whole
    detection call; freeing it unmaps its pages.  On the heap, where glibc's
    malloc serves D once its dynamic mmap threshold has risen past D's
    size, D's place depended on what else the process held, and a 30-s
    data_phase run's peak RSS varied with it by up to 2 MB.  MAP_POPULATE
    faults the pages in with the mapping; tracemalloc does not trace them.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):  # no POSIX mmap flags (Windows)
        return np.empty(shape)
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape)), flags=flags)).reshape(shape)


def _score_terms(H_hat: np.ndarray, symbol_power: float):
    """Score terms: base (4^K,), the sum of log Phi(-u) of every hypothesis,
    and D (4^(K-1), 2M) = log Phi(u) - log Phi(-u) of the d_0 = 0 quarter,
    for the comparator inputs u.

    u is summed over the users in order from c_k[d] = [Re, Im] of
    QPSK[d] sqrt(symbol_power) h_k, each entry a written-out two-term real
    sum.  Addition commutes and negation is exact, so multiplying every
    symbol by j (d -> ROT[d]) maps u = [R, I] to [-I, R] and negating them
    (d -> 3 - d) maps u to -u, bit for bit; _delta_rows reads the other
    three quarters' rows of delta from D.  The quarter is built in blocks of
    4^t rows, about TERMS_BLOCK bytes each: one prefix row of the leading
    users' sums, with the t tail users added in the same order, so every
    input keeps its bits.  Per block, norm_logcdf_pair gives log Phi(+-u)
    from one erfcx per input.  base sums the Re and the Im half of each
    row apart: the d_0 = 1 block is the quarter rotated by -j, read through
    a digit-wise ROT row map, and the d_0 = 2 and 3 blocks are the d_0 = 1
    and 0 blocks negated, whose rows run backwards.  It is filled in place,
    quarter by quarter, the last quarter holding each row map's source
    until its own turn.
    """
    M, K = H_hat.shape
    hr, hi = H_hat.real.T, H_hat.imag.T
    amp = np.sqrt(symbol_power)
    sr, si = QPSK.real[:, None] * amp, QPSK.imag[:, None] * amp
    c = [np.hstack([sr * hr[k] - si * hi[k], sr * hi[k] + si * hr[k]]) for k in range(K)]
    tail = 0
    while tail < K - 1 and 4 ** (tail + 1) * 2 * M * 8 <= TERMS_BLOCK:
        tail += 1
    prefix = c[0][:1]
    for k in range(1, K - tail):
        prefix = (prefix[:, None] + c[k][None]).reshape(-1, 2 * M)
    n, size = 4 ** (K - 1), 4 ** tail
    D = _mapped((n, 2 * M))
    pos, neg = np.empty((2, n, 2))  # per quarter row, the sums over the Re and the Im half
    for i, row in enumerate(prefix):
        U = row[None]
        for k in range(K - tail, K):
            U = (U[:, None] + c[k][None]).reshape(-1, 2 * M)
        log_pos, log_neg = norm_logcdf_pair(U)
        blk = slice(i * size, (i + 1) * size)
        np.subtract(log_pos, log_neg, out=D[blk])
        np.sum(log_pos.reshape(size, 2, M), axis=2, out=pos[blk])
        np.sum(log_neg.reshape(size, 2, M), axis=2, out=neg[blk])
    (pos_re, pos_im), (neg_re, neg_im) = pos.T, neg.T
    rows = _rot_rows(n)  # quarter row of each d_0 = 1 hypothesis
    base = np.empty(4 * n)
    q0, q1, q2, q3 = base[:n], base[n:2 * n], base[2 * n:3 * n], base[3 * n:]
    np.add(neg_re, neg_im, out=q0)
    np.add(neg_im, pos_re, out=q3)  # q3 holds each row map's source until it is filled
    np.take(q3, rows, out=q1, mode="clip")  # clip: no buffered copy of out
    np.add(pos_im, neg_re, out=q3)
    np.take(q3, rows[::-1], out=q2, mode="clip")
    np.add(pos_re[::-1], pos_im[::-1], out=q3)
    return base, D


def _delta_rows(D: np.ndarray, hyps: np.ndarray) -> np.ndarray:
    """Rows delta_h = log Phi(u_h) - log Phi(-u_h) of the ascending
    hypothesis indices hyps, read from the d_0 = 0 quarter D.

    With [R, I] a row of D: q0 is D itself, q1 is [I, -R] of the ROT row,
    q2 and q3 are q1 and q0 negated with their rows reversed.  Copies and
    negations only, so every row is bit for bit the one the quarter's
    hypothesis has.  The rows are gathered into a new array.
    """
    n, two_m = D.shape
    M = two_m // 2
    rows = _rot_rows(n)
    e1, e2, e3 = np.searchsorted(hyps, (n, 2 * n, 3 * n))
    src = hyps % n  # the quarter row each hypothesis reads
    src[e1:e2] = rows[src[e1:e2]]
    src[e2:e3] = rows[n - 1 - src[e2:e3]]
    np.subtract(n - 1, src[e3:], out=src[e3:])
    out = np.take(D, src, axis=0)
    q1, q2, q3 = out[e1:e2], out[e2:e3], out[e3:]
    re = q1[:, :M].copy()
    q1[:, :M] = q1[:, M:]
    np.negative(re, out=q1[:, M:])
    re = q2[:, :M].copy()
    np.negative(q2[:, M:], out=q2[:, :M])
    q2[:, M:] = re
    np.negative(q3, out=q3)
    return out


def _checked(H: np.ndarray, symbol_power: float, name: str) -> np.ndarray:
    """H as a complex array, once it and symbol_power are finite and the power positive."""
    H = np.asarray(H, dtype=complex)
    if not np.isfinite(H).all():
        raise ValueError(f"{name} must be finite")
    if not (np.isfinite(symbol_power) and symbol_power > 0):
        raise ValueError(f"symbol_power must be a positive finite number, got {symbol_power}")
    return H


def detect_frames(H_hat: np.ndarray, b_frames: np.ndarray,
                  symbol_power: float = 1.0) -> np.ndarray:
    """Exhaustive one-bit ML detection of many frames against one channel.

    b_frames is (F, 2M) of signs with the [Re block, Im block] comparator
    order.  Returns (F, K) constellation indices as uint8.
    """
    H_hat = _checked(H_hat, symbol_power, "H_hat")
    M, K = H_hat.shape
    if K > K_MAX:
        raise ValueError(
            f"K={K} needs 4^{K} hypotheses, beyond the exhaustive-search "
            f"limit K <= {K_MAX}; reduce the number of users"
        )
    b_frames = np.atleast_2d(np.asarray(b_frames))
    if b_frames.shape[1] != 2 * M:
        raise ValueError(f"frames must have 2M={2 * M} sign entries")

    base, D = _score_terms(H_hat, symbol_power)
    return _score_frames(base, D, b_frames)


def _score_frames(base: np.ndarray, D: np.ndarray, b_frames: np.ndarray) -> np.ndarray:
    """Best hypothesis per frame by score base + (b > 0) @ delta.T, for
    _score_terms' base and quarter D, from which _delta_rows reads delta,
    as (F, K) uint8 constellation indices: the base-4 digits of the
    hypothesis' index, most significant first (lexicographic order).

    Pass 1 (the screen, _screened_tiles) scores every hypothesis in float32
    and names, per aligned HYP_CHUNK tile of hypotheses, the frames with a
    contender block in it; without it (K < 7, or a bound that is not
    finite) every frame is in every tile.  Pass 2 (the confirm, _first_best)
    scores each named tile once, against its frames alone, in float64.

    Every float64 product has the shape of an exhaustive-scoring tile, which
    makes its scores that tile's bit for bit: HYP_CHUNK columns over 3 to
    FRAME_CHUNK rows, or one row in a one-frame call, whose full score array
    is itself one row.  OpenBLAS picks its kernel, and with it the summation
    order, from the shape: on x86-64 a product over one row, or (for 2M >=
    32) over at most about 1,200 rows x columns, takes another kernel and
    can differ in the last bit (2 x 512, 3 x 256 and 17 x 64 do; 3 x 512
    and 19 x 64 do not).
    """
    pos = b_frames > 0
    visits = _screened_tiles(base, D, pos) if base.size >= SCREEN_MIN_HYP else None
    if visits is None:
        every = np.arange(pos.shape[0])
        visits = [(h, every) for h in range(0, base.size, HYP_CHUNK)]
    best = _first_best(pos, base, D, visits)
    K = (base.size.bit_length() - 1) // 2  # base.size = 4^K
    return (best[:, None] >> 2 * np.arange(K - 1, -1, -1) & 3).astype(np.uint8)


def _screened_tiles(base: np.ndarray, D: np.ndarray, pos: np.ndarray):
    """The float32 screen: ascending (first hypothesis, frames) pairs, one
    per aligned HYP_CHUNK tile that holds a contender block of some frame,
    with those frames ascending; None when the bound is not finite.

    _contenders scores each FRAME_CHUNK chunk of frames against the quarter,
    SCREEN_ROWS rows at a time, from D and _screen_table's m, and marks per
    tile the chunk's frames for which it holds a contender block.  Each
    SCREEN_BLOCK's best float32 score is within err_k / 2 of its float64
    one.  A block whose float32 maximum plus err_k falls below some block's
    float32 maximum minus its err_j holds no hypothesis that can match that
    block's float64 best, so it cannot hold the first maximum; every other
    block is a contender, and a tile with one is visited.
    """
    m, gather, tiles, err = _screen_table(base, D)
    if err is None:
        return None
    out = np.empty(SCREEN_ROWS * 2 * FRAME_CHUNK, dtype=np.float32)
    # hits[t, f]: tile t holds a contender block of frame f
    hits = np.empty((tiles.size, pos.shape[0]), dtype=bool)
    for lo in range(0, pos.shape[0], FRAME_CHUNK):
        hits[:, lo:lo + FRAME_CHUNK] = _contenders(D, m, gather, tiles, err,
                                                   pos[lo:lo + FRAME_CHUNK], out)
    return [(t * HYP_CHUNK, np.flatnonzero(row)) for t, row in enumerate(hits) if row.any()]


def _screen_table(base: np.ndarray, D: np.ndarray):
    """What the float32 screen needs from a pass over the whole d_0 = 0
    quarter: the float32 m of each quarter row, the map from screen groups
    to tiles, and per-quarter-block error bounds: (m, gather, tiles, err).

    Valid only for _score_terms' tables, whose quarters hold one set of terms
    rotated.  With b = 2 pos - 1, a score base_h + pos . delta_h is
    m + b . delta_h / 2, where m = (sum log Phi(u) + sum log Phi(-u)) / 2 is
    the same for a quarter row r and its images under j and negation.  So
    with D = delta of the quarter, its four orientations score
      q0 (d_0 = 0, row r):        P = m_r + b . D_r / 2,
      q1 (d_0 = 1, rotated by j): P' = m_r + b' . D_r / 2, b' = [-b_Im, b_Re],
      q2, q3 (q1, q0 negated):    2 m_r - P' and 2 m_r - P,
    and m_r = (base_r + base_{4^K-1-r}) / 2, the halved sum of the row's
    sums of log Phi(-u) and log Phi(u).  _contenders writes each piece of
    SCREEN_ROWS quarter rows [D/2 | m], rounded to float32, into one tile
    buffer and scores it there, so no float32 copy of the whole quarter is
    kept.

    The quarter is screened in groups of SCREEN_GROUP rows (the whole
    quarter when it is shorter, K = 5).  Aligned ranges of 4^k rows map
    onto aligned ranges of 4^k rows under the ROT row map and under
    reversal, so a group's four orientations cover whole HYP_CHUNK tiles
    (at K = 5, whose quarter is half a tile, two tiles of two orientations
    each).  A group's block maxima sit by (quarter block, d_0), flattened;
    gather[g] lists group g's entries sorted by the tile they fall in, so
    each HYP_CHUNK / SCREEN_BLOCK of them make one tile, and tiles[g] names
    those tiles in turn.  Hypothesis block j of q0 is quarter block j,
    q1's read the quarter through the ROT row map (a SCREEN_BLOCK of 4^3
    rows maps onto one block), and q2's and q3's are those of q1 and q0
    backwards.

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
    confirm pass's float64 score; err, per quarter block, is twice that,
    maximized over the block, leaving room for the rounding of _contenders'
    float64 sums and differences of a block maximum and its err.  err is
    None when mag is not finite or float32 could overflow; then every block
    is a contender.
    """
    n, n_cols = D.shape
    m = 0.5 * (base[:n] + base[::-1][:n])
    size = np.abs(m)
    for h in range(0, n, SCREEN_ROWS):
        size[h:h + SCREEN_ROWS] += np.abs(0.5 * D[h:h + SCREEN_ROWS]).sum(axis=1)
    mag = size.reshape(-1, SCREEN_BLOCK).max(axis=1)
    if not mag.max() <= F32_SAFE:
        return None, None, None, None
    n_q = mag.size
    blocks = np.arange(n_q)
    turned = _rot_rows(n)[::SCREEN_BLOCK] // SCREEN_BLOCK  # quarter block of each q1 block
    hyp = np.empty((n_q, 4), dtype=np.intp)  # hypothesis block of each quarter block, by d_0
    hyp[:, 0] = blocks
    hyp[turned, 1] = n_q + blocks
    hyp[turned, 2] = 3 * n_q - 1 - blocks
    hyp[:, 3] = 4 * n_q - 1 - blocks
    per_tile = HYP_CHUNK // SCREEN_BLOCK
    tile = hyp.reshape(-1, 4 * min(n, SCREEN_GROUP) // SCREEN_BLOCK) // per_tile
    gather = np.argsort(tile, axis=1, kind="stable")
    tiles = np.take_along_axis(tile, gather, axis=1)[:, ::per_tile]
    k = n_cols + 2
    gamma = k * F32_EPS / (1.0 - k * F32_EPS)
    return m.astype(np.float32), gather, tiles, 2.0 * (gamma + F32_EPS) * mag


def _contenders(D: np.ndarray, m: np.ndarray, gather: np.ndarray, tiles: np.ndarray,
                err: np.ndarray, pos: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(tiles, frames) mask: tile t holds a block that can hold frame f's
    first maximum.

    Per SCREEN_ROWS rows of the quarter (4^(K-1) rows, a whole number of
    pieces for K >= 5), the piece's float32 rows [D/2 | m] go into one
    buffer, and one sgemm into the float32 buffer out, against
    [[b, b'], [1, 1]], scores q0 and q1 of every frame; 2 m - P turns them
    into q3 and q2 in place.  The scores sit in the (rows x 2 frames)
    layout, where the max over each SCREEN_BLOCK of rows is a contiguous
    reduction into the group's block maxima top, by quarter block and d_0.
    After each group, top is gathered in tile order: top - err folds into
    each frame's floor, the max over every block of top - err, and top + err
    reduces to one maximum per (tile, frame).  All of it is float64, where
    a max is exact and rounding x -+ e is non-decreasing in x, so
    tile_max >= floor holds iff one of the tile's blocks has
    top + err >= floor: a block whose float32 maximum plus its err reaches
    the best block maximum minus that block's err.
    """
    n_frames = pos.shape[0]
    n, n_cols = D.shape
    half = n_cols // 2
    b = 2.0 * pos.T - 1.0
    signs = np.ones((n_cols + 1, 2, n_frames), dtype=np.float32)
    signs[:-1, 0] = b
    signs[:half, 1] = -b[half:]
    signs[half:-1, 1] = b[:half]
    signs = signs.reshape(n_cols + 1, 2 * n_frames)
    twice_m = 2 * m
    piece = np.empty((SCREEN_ROWS, n_cols + 1), dtype=np.float32)
    scores = out[:SCREEN_ROWS * 2 * n_frames].reshape(SCREEN_ROWS, 2 * n_frames)
    blocks = scores.reshape(-1, SCREEN_BLOCK, 2, n_frames)
    per_piece = SCREEN_ROWS // SCREEN_BLOCK
    n_groups, per_group = gather.shape[0], gather.shape[1] // 4  # quarter blocks per group
    err_ranked = err.reshape(n_groups, per_group)[np.arange(n_groups)[:, None], gather // 4, None]
    top = np.empty((per_group, 4, n_frames), dtype=np.float32)
    ranked = np.empty((4 * per_group, n_frames), dtype=np.float32)
    wide = np.empty((4 * per_group, n_frames))
    tile_max = np.empty((tiles.size, n_frames))
    floor = np.full(n_frames, -np.inf)
    for g in range(n_groups):
        for i in range(0, per_group, per_piece):
            h = (g * per_group + i) * SCREEN_BLOCK
            np.multiply(D[h:h + SCREEN_ROWS], 0.5, out=piece[:, :-1], casting="same_kind")
            piece[:, -1] = m[h:h + SCREEN_ROWS]
            np.matmul(piece, signs, out=scores)
            np.max(blocks, axis=1, out=top[i:i + per_piece, :2])
            np.subtract(twice_m[h:h + SCREEN_ROWS, None], scores, out=scores)
            np.max(blocks, axis=1, out=top[i:i + per_piece, :1:-1])
        np.take(top.reshape(-1, n_frames), gather[g], axis=0, out=ranked, mode="clip")
        np.subtract(ranked, err_ranked[g], out=wide)
        np.maximum(floor, wide.max(axis=0), out=floor)
        np.add(ranked, err_ranked[g], out=wide)
        t = slice(g * tiles.shape[1], (g + 1) * tiles.shape[1])
        np.max(wide.reshape(tiles.shape[1], -1, n_frames), axis=1, out=tile_max[t])
    hits = np.empty(tile_max.shape, dtype=bool)
    hits[tiles.reshape(-1)] = tile_max >= floor
    return hits


def _first_best(pos: np.ndarray, base: np.ndarray, D: np.ndarray, visits) -> np.ndarray:
    """Index of each frame's first maximum of base + pos @ delta.T, for the
    frames' masks pos (b > 0), over the ascending (first hypothesis, frames)
    tile visits.

    Reads each tile's delta rows from D once (_delta_rows) and scores its
    frames in pieces of at most FRAME_CHUNK rows, one product each into one
    buffer; a piece is padded to 3 rows (1 in a one-frame call) by repeating
    its rows.  Only a strictly higher score replaces a frame's running best,
    so ties go to the lexicographically first hypothesis, as with one argmax.
    """
    n_frames = pos.shape[0]
    least = 3 if n_frames > 1 else 1
    out = np.empty(FRAME_CHUNK * HYP_CHUNK)  # fresh arrays per tile doubled the time at K=5
    best_score = np.full(n_frames, -np.inf)
    best_idx = np.zeros(n_frames, dtype=np.intp)
    for h, frames in visits:
        tile = slice(h, min(h + HYP_CHUNK, base.size))
        delta = _delta_rows(D, np.arange(tile.start, tile.stop))
        for f in range(0, frames.size, FRAME_CHUNK):
            piece = frames[f:f + FRAME_CHUNK]
            rows = np.resize(piece, max(piece.size, least))
            scores = np.matmul(pos[rows].astype(float), delta.T,
                               out=out[:rows.size * delta.shape[0]].reshape(rows.size, -1))
            scores += base[tile]
            arg = np.argmax(scores[:piece.size], axis=1)
            score = scores[np.arange(piece.size), arg]
            better = score > best_score[piece]
            best_score[piece[better]] = score[better]
            best_idx[piece[better]] = h + arg[better]
    return best_idx


def simulate_frames(H: np.ndarray, symbol_power: float, n_frames: int, rng_seed=None):
    """Draw QPSK frames, pass them through H with unit AWGN, quantize at zero.

    Returns (constellation indices (F, K), one-bit data (F, 2M)).
    """
    H = _checked(H, symbol_power, "H")
    rng = np.random.default_rng(rng_seed)
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
