import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import onebit_mimo as om
from onebit_mimo import detect
from onebit_mimo.detect import QPSK, hypothesis_indices
from onebit_mimo.gauss import norm_logcdf, norm_logcdf_pair


def brute_force_detect(H, b, symbol_power):
    """Independent reference: plain loops, scipy logcdf, no shared tables."""
    M, K = H.shape
    best_idx, best_ll = None, -np.inf
    for flat in range(4 ** K):
        digits = []
        v = flat
        for _ in range(K):
            digits.append(v % 4)
            v //= 4
        idx = tuple(reversed(digits))  # lexicographic order
        s = QPSK[list(idx)] * np.sqrt(symbol_power)
        r = H @ s
        u = np.concatenate([r.real, r.imag])
        ll = float(norm.logcdf(b * u).sum())
        if ll > best_ll + 1e-12:
            best_ll, best_idx = ll, idx
    return np.array(best_idx)


def test_single_user_noiseless_perfect_csi():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
    for k in range(4):
        s = QPSK[[k]] * 1e6  # effectively noiseless
        r = H @ s
        b = np.where(np.concatenate([r.real, r.imag]) >= 0, 1, -1)
        out = om.detect_frames(H, b[None, :], symbol_power=1e12)
        assert np.array_equal(out, [[k]])


def test_exhaustive_search_matches_independent_brute_force():
    rng = np.random.default_rng(1)
    M, K = 4, 2
    H = rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))
    p = 2.0
    idx_true, b = om.simulate_frames(H, p, 40, rng_seed=5)
    ours = om.detect_frames(H, b, symbol_power=p)
    for f in range(40):
        ref = brute_force_detect(H, b[f].astype(float), p)
        assert np.array_equal(ours[f], ref)


def test_tie_break_is_lexicographic():
    # zero channel scores every hypothesis identically
    H = np.zeros((3, 2), dtype=complex)
    b = np.ones(6)
    out = om.detect_frames(H, b)
    assert np.array_equal(out[0], [0, 0])


def _channel(M, K, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))


def _full_matrix_decisions(H, b, symbol_power):
    """Reference: the whole frames-by-hypotheses score array and one argmax."""
    base, D = detect._score_terms(H, symbol_power)
    scores = base + (b > 0).astype(float) @ _full_delta(D).T
    return hypothesis_indices(H.shape[1])[np.argmax(scores, axis=1)]


@pytest.mark.parametrize("M, K, n_frames, snr_db, zero_user", [
    # K=8: 300 frames is not a multiple of FRAME_CHUNK; K=3: 64 hypotheses
    # fit in less than one tile
    pytest.param(16, 8, 300, 10.0, False, id="16-8-300"),
    pytest.param(4, 3, 40, 10.0, False, id="4-3-40"),
    # K=8 runs the float32 screen; K <= 2 scores every hypothesis directly.
    # A zero column makes hypotheses that differ in user 0 tie exactly.
    pytest.param(1, 8, 300, -5.0, False, id="1-8-300--5dB"),
    pytest.param(2, 8, 130, 45.0, False, id="2-8-130-45dB"),
    pytest.param(3, 8, 260, 20.0, True, id="3-8-260-20dB-zero"),
    pytest.param(5, 8, 300, 30.0, False, id="5-8-300-30dB"),
    pytest.param(5, 8, 2, 0.0, False, id="5-8-2-0dB"),
    pytest.param(1, 1, 20, 45.0, False, id="1-1-20-45dB"),
    pytest.param(2, 1, 30, -5.0, True, id="2-1-30--5dB-zero"),
    pytest.param(3, 2, 50, 0.0, False, id="3-2-50-0dB"),
    pytest.param(5, 2, 40, 45.0, True, id="5-2-40-45dB-zero"),
    # calls of 1, 2, 257 and 258 frames: the screened confirm at K=7 and the
    # unscreened one at K=4 score pieces of 1 or 2 frames, which are padded;
    # at 45 dB and M <= 5, a lone 257th frame scored by a one-row product
    # is decided otherwise than by the full array
    pytest.param(16, 7, 1, 15.0, False, id="16-7-1"),
    pytest.param(16, 7, 2, 15.0, False, id="16-7-2"),
    pytest.param(3, 7, 257, 45.0, True, id="3-7-257-45dB-zero"),
    pytest.param(16, 7, 258, 15.0, False, id="16-7-258"),
    pytest.param(16, 4, 1, 45.0, False, id="16-4-1-45dB"),
    pytest.param(16, 4, 2, 45.0, False, id="16-4-2-45dB"),
    pytest.param(5, 4, 257, 45.0, False, id="5-4-257-45dB"),
    pytest.param(4, 4, 258, 45.0, True, id="4-4-258-45dB-zero"),
])
def test_tiled_scorer_matches_full_matrix(M, K, n_frames, snr_db, zero_user):
    H = _channel(M, K, 12)
    if zero_user:
        H[:, 0] = 0.0
    p = 10 ** (snr_db / 10)
    _, b = om.simulate_frames(H, p, n_frames, rng_seed=13)
    base, D = detect._score_terms(H, p)
    ours = detect._score_frames(base, D, b, hypothesis_indices(K))
    assert np.array_equal(ours, _full_matrix_decisions(H, b, p))


def test_two_frame_call_scores_like_the_full_matrix():
    # user 1 is user 0 times j, so many hypotheses score within rounding of
    # each other and the last bit decides.  A 2 x 512 product at 2M = 32 can
    # take another OpenBLAS kernel than the call's full 2-row array, so the
    # confirm pads both frames' pieces to 3 rows
    H = _channel(16, 7, 5)
    H[:, 1] = 1j * H[:, 0]
    p = 10 ** 4.5
    _, b = om.simulate_frames(H, p, 2, rng_seed=6)
    assert np.array_equal(om.detect_frames(H, b, symbol_power=p), _full_matrix_decisions(H, b, p))


@pytest.mark.parametrize("K", [4, 7])
def test_zero_frames_give_an_empty_decision_array(K):
    # K=7 runs the screen, K=4 scores every hypothesis; with no frames both
    # return (0, K) and name no tile
    out = om.detect_frames(_channel(5, K, 3), np.empty((0, 10)), symbol_power=2.0)
    assert out.shape == (0, K)


def _expand_quarter(D, neg_re, neg_im):
    """(base, delta) of all 4^K hypotheses from the d_0 = 0 quarter's
    D = log Phi(u) - log Phi(-u) (4^(K-1), 2M) and its sums of log Phi(-u)
    over the Re and the Im half, laid out as _score_terms lays them out.

    t ROT steps take hypothesis h's digits into the quarter, so its inputs
    are j^-t times that row's: [R, I], [I, -R], [-R, -I], [-I, R] for
    t = 0, 1, 2, 3.
    """
    M = D.shape[1] // 2
    K = int(round(np.log(D.shape[0]) / np.log(4))) + 1
    pos_re, pos_im = neg_re + D[:, :M].sum(axis=1), neg_im + D[:, M:].sum(axis=1)
    digits = hypothesis_indices(K).astype(np.intp)
    turns = np.zeros(len(digits), dtype=np.intp)
    for _ in range(3):
        off = digits[:, 0] != 0
        digits[off] = detect.ROT[digits[off]]
        turns += off
    r = digits[:, 1:] @ 4 ** np.arange(K - 2, -1, -1)
    re, im = D[r, :M], D[r, M:]
    delta = np.choose(turns[:, None], [np.hstack([re, im]), np.hstack([im, -re]),
                                       np.hstack([-re, -im]), np.hstack([-im, re])])
    base = np.choose(turns, [neg_re[r] + neg_im[r], neg_im[r] + pos_re[r],
                             pos_re[r] + pos_im[r], pos_im[r] + neg_re[r]])
    return base, delta


def _full_delta(D):
    """delta of all 4^K hypotheses from the quarter D."""
    n = D.shape[0]
    return _expand_quarter(D, np.zeros(n), np.zeros(n))[1]


def _two_rows(a, b, d_a=0.0, d_b=0.0):
    """Symmetric table over 4^7 hypotheses (enough for the screen), M = 1,
    where only quarter rows 3 and 700, in different screen blocks, and their
    images under j and negation can win: their sums of log Phi(-u) are a and
    b, their D = [d_a, 0] and [d_b, 0]; every other row has -50 and D = 0.
    Returns base over all 4^7 hypotheses and the quarter D."""
    assert 4 ** 7 >= detect.SCREEN_MIN_HYP
    n = 4 ** 6
    D = np.zeros((n, 2))
    neg_re = np.full(n, -50.0)
    neg_re[3], neg_re[700] = a, b
    D[3, 0], D[700, 0] = d_a, d_b
    assert 3 // detect.SCREEN_BLOCK != 700 // detect.SCREEN_BLOCK
    return _expand_quarter(D, neg_re, np.zeros(n))[0], D


def test_float32_tie_goes_to_the_float64_winner():
    # 3 and 700 score the same in float32, as do their images; only the
    # float64 confirm pass sees that 700 is higher
    base, D = _two_rows(-1.0, -1.0 + 1e-12)
    assert np.float32(base[3]) == np.float32(base[700])
    hyp = hypothesis_indices(7)
    out = detect._score_frames(base, D, np.ones((5, 2)), hyp)
    assert np.array_equal(out, np.repeat(hyp[[700]], 5, axis=0))


def test_float32_reversal_goes_to_the_float64_winner():
    # on all-positive frames a quarter row scores m + D_Re / 2 in float64,
    # and in float32 fl(fl(m) + D_Re / 2), rounded once more if negated.
    # With e = 2^-23, 3 has m = 1 + 0.49e and D_Re = 0.8e: 1 + 0.89e in
    # float64 and 1 in float32.  700 has m = 1 + 0.51e and D_Re = -0.6e: at
    # most 1 + 0.81e in float64 and 1 + e in float32 in every orientation.
    # The screen ranks 700 first, the bound keeps 3
    e = 2.0 ** -23
    base, D = _two_rows(1.0 + 0.09 * e, 1.0 + 0.81 * e, 0.8 * e, -0.6 * e)
    table = detect._screen_table(base, D)[0]
    s32 = table[[3, 700]] @ np.ones(3, dtype=np.float32)
    s64 = base + _full_delta(D).sum(axis=1)
    assert s32[0] < s32[1] and s64[3] > s64[700]
    assert np.argmax(s64) == 3
    hyp = hypothesis_indices(7)
    out = detect._score_frames(base, D, np.ones((5, 2)), hyp)
    assert np.array_equal(out, np.repeat(hyp[[3]], 5, axis=0))


def test_confirm_products_have_full_tile_shapes(monkeypatch):
    # each aligned HYP_CHUNK tile's delta rows are read once, in ascending
    # order, and every float64 product scores a whole tile over 3 to
    # FRAME_CHUNK frames (1 in a one-frame call): the shapes whose scores are
    # those of exhaustive tiled scoring bit for bit.  K=7 runs the screen,
    # K=5 confirms every frame in every tile
    reads, products = [], []
    delta_rows, matmul = detect._delta_rows, np.matmul

    def spy_rows(D, hyps):
        reads.append(hyps)
        return delta_rows(D, hyps)

    def spy_matmul(a, b, **kw):
        if a.dtype == np.float64:
            products.append((a.shape[0], b.shape[1]))
        return matmul(a, b, **kw)

    monkeypatch.setattr(detect, "_delta_rows", spy_rows)
    monkeypatch.setattr(detect.np, "matmul", spy_matmul)
    for K, n_frames in [(7, 258), (7, 2), (7, 1), (5, 257)]:
        reads.clear()
        products.clear()
        H = _channel(16, K, 40)
        _, b = om.simulate_frames(H, 10.0, n_frames, rng_seed=41)
        om.detect_frames(H, b, symbol_power=10.0)
        starts = [int(hyps[0]) for hyps in reads]
        assert starts == sorted(set(starts))
        for h, hyps in zip(starts, reads):
            assert h % detect.HYP_CHUNK == 0
            assert np.array_equal(hyps, np.arange(h, h + detect.HYP_CHUNK))
        assert len(products) >= len(reads) > 0
        least = 3 if n_frames > 1 else 1
        assert all(least <= r <= detect.FRAME_CHUNK and c == detect.HYP_CHUNK
                   for r, c in products)
        if K == 5:  # every tile scores 256 frames and the padded last one
            assert len(reads) == 4 ** K // detect.HYP_CHUNK
            assert [r for r, _ in products] == [detect.FRAME_CHUNK, 3] * len(reads)


@pytest.mark.parametrize("K", [5, 6])
def test_screen_takes_a_partial_last_tile(monkeypatch, K):
    # with the screen lowered to 4^5 hypotheses, the K=5 quarter (256 rows)
    # is less than one HYP_CHUNK tile; decisions still equal one argmax
    monkeypatch.setattr(detect, "SCREEN_MIN_HYP", 4 ** 5)
    for M in (3, 16):
        for snr_db in (15.0, 45.0):
            H = _channel(M, K, 60 + M)
            p = 10 ** (snr_db / 10)
            _, b = om.simulate_frames(H, p, 300, rng_seed=61)
            assert np.array_equal(om.detect_frames(H, b, symbol_power=p),
                                  _full_matrix_decisions(H, b, p))


@pytest.mark.parametrize("K", [1, 2, 4, 7])
def test_delta_rows_are_the_full_table_rows(K):
    # ascending index sets that cross all three quarter boundaries, and the
    # whole range: every row bit for bit that of the expanded table
    rng = np.random.default_rng(80 + K)
    D = detect._score_terms(_channel(5, K, 81), 2.0)[1]
    full = _full_delta(D)
    n = 4 ** (K - 1)
    edges = n * np.arange(1, 4)
    sets = [np.arange(4 * n), np.union1d(edges - 1, edges)]
    for frac in (0.05, 0.3, 0.8):
        sets.append(np.union1d(np.flatnonzero(rng.random(4 * n) < frac), edges))
    for hyps in sets:
        rows = detect._delta_rows(D, hyps)
        assert np.array_equal(rows.view(np.int64), full[hyps].view(np.int64))


@pytest.mark.parametrize("M, K", [(1, 1), (5, 3), (16, 6), (16, 8), (3, 8)])
@pytest.mark.parametrize("block", ["default", "one row"])
def test_blocked_terms_move_no_float(monkeypatch, M, K, block):
    # log_ndtr's two calls run in the blocked quarter layout give bit for
    # bit the terms of every hypothesis computed from the full input table
    def scipy_pair(t):
        return norm_logcdf(t), norm_logcdf(-t)

    monkeypatch.setattr(detect, "norm_logcdf_pair", scipy_pair)
    if block == "one row":
        monkeypatch.setattr(detect, "TERMS_BLOCK", 2 * M * 8)
    H = _channel(M, K, 90 + K)
    full_base, full_delta = _full_terms(_inputs(H, 7.0), scipy_pair)
    base, D = detect._score_terms(H, 7.0)
    assert np.array_equal(base.view(np.int64), full_base.view(np.int64))
    assert np.array_equal(_full_delta(D).view(np.int64), full_delta.view(np.int64))


def _screen_scores(table, pos):
    """Float32 screen scores (4^K, F) of every hypothesis in index order,
    from the quarter table in its four orientations; one sgemm per HYP_CHUNK
    rows of the quarter, the shapes _contenders scores, so the bits match."""
    n, F = table.shape[0], pos.shape[0]
    M = (table.shape[1] - 1) // 2
    K = round(np.log(4 * n) / np.log(4))
    # quarter row of each d_0 = 1 hypothesis: its digits turned by ROT
    turned = detect.ROT[hypothesis_indices(K)[n:2 * n, 1:]] @ 4 ** np.arange(K - 2, -1, -1)
    b = 2.0 * pos - 1.0
    signs = np.ones((2 * M + 1, 2 * F), dtype=np.float32)
    signs[:-1, :F] = b.T
    signs[:-1, F:] = np.hstack([-b[:, M:], b[:, :M]]).T  # b' = [-b_Im, b_Re]
    P = np.concatenate([table[h:h + detect.HYP_CHUNK] @ signs
                        for h in range(0, n, detect.HYP_CHUNK)])
    Q = 2 * table[:, -1:] - P
    return np.concatenate([P[:, :F], P[turned, F:], Q[turned[::-1], F:], Q[::-1, :F]])


@pytest.mark.parametrize("M, K, snr_db, zero_user", [
    pytest.param(1, 7, -5.0, False, id="1-7--5.0"),
    pytest.param(3, 7, 15.0, False, id="3-7-15.0"),
    pytest.param(8, 7, 45.0, False, id="8-7-45.0"),
    pytest.param(5, 8, 45.0, False, id="5-8-45.0"),
    pytest.param(2, 7, 60.0, False, id="2-7-60.0"),
    pytest.param(4, 7, 15.0, True, id="4-7-15.0-zero"),
])
def test_screen_bound_covers_float32_rounding(M, K, snr_db, zero_user):
    # random channels and random sign patterns: every hypothesis' float32
    # screen score, rebuilt from the quarter table in its orientation, is
    # within err_k / 2 of the float64 score the confirm pass uses, in every
    # block k
    rng = np.random.default_rng(30 + K + M)
    F = 40
    for _ in range(3):
        H = rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))
        if zero_user:
            H[:, 0] = 0.0
        base, D = detect._score_terms(H, 10 ** (snr_db / 10))
        delta = _full_delta(D)
        table, order, err = detect._screen_table(base, D)
        pos = rng.random((F, 2 * M)) < 0.5
        s32 = _screen_scores(table, pos)
        s64 = (pos.astype(float) @ delta.T + base).T
        gap = np.abs(s32.astype(float) - s64).reshape(-1, detect.SCREEN_BLOCK, F).max(axis=(1, 2))
        assert gap.max() > 0
        assert (gap <= err / 2).all()


@pytest.mark.parametrize("M, K, snr_db, zero_user", [
    pytest.param(16, 8, 15.0, False, id="16-8-15.0"),
    pytest.param(5, 8, 45.0, False, id="5-8-45.0"),
    pytest.param(3, 7, 15.0, False, id="3-7-15.0"),
    pytest.param(4, 7, 15.0, True, id="4-7-15.0-zero"),
    pytest.param(16, 5, 15.0, False, id="16-5-15.0"),
    pytest.param(3, 5, 45.0, True, id="3-5-45.0-zero"),
])
def test_contenders_are_the_blocks_within_the_bound_of_the_best(monkeypatch, M, K, snr_db,
                                                                 zero_user):
    # every mask _contenders hands the confirm pass, over a whole chunk and
    # the short last one, is the rule written out in hypothesis order: block
    # k contends for frame f iff its float32 maximum plus err_k reaches the
    # best block maximum minus its err.  At K=5 the screen is lowered to run
    # on a quarter shorter than one HYP_CHUNK tile; a zero user makes
    # blocks tie exactly
    monkeypatch.setattr(detect, "SCREEN_MIN_HYP", 4 ** 5)
    seen = []
    contenders = detect._contenders

    def spy(table, order, err, pos, out):
        mask = contenders(table, order, err, pos, out)
        seen.append((table, err, pos, mask))
        return mask

    monkeypatch.setattr(detect, "_contenders", spy)
    H = _channel(M, K, 100 + M + K)
    if zero_user:
        H[:, 0] = 0.0
    p = 10 ** (snr_db / 10)
    _, b = om.simulate_frames(H, p, 300, rng_seed=101)
    om.detect_frames(H, b, symbol_power=p)
    assert [s[2].shape[0] for s in seen] == [detect.FRAME_CHUNK, 300 - detect.FRAME_CHUNK]
    for table, err, pos, mask in seen:
        bmax = _screen_scores(table, pos).reshape(-1, detect.SCREEN_BLOCK, pos.shape[0])
        bmax = bmax.max(axis=1).astype(float)
        want = bmax + err[:, None] >= (bmax - err[:, None]).max(axis=0)
        assert mask.dtype == bool and np.array_equal(mask, want)
        if zero_user:  # the four images of the best block under user 0 tie
            assert (mask.sum(axis=0) >= 4).all()


def test_screened_scoring_peak_memory_is_its_buffers(monkeypatch):
    # one call at M=16, K=8 and 1,500 frames peaks within the buffers its
    # shapes imply: per chunk of frames, no float64 copy of the block
    # maxima, and the confirm's score buffer only once the screen's are
    # freed.  With a zero channel every block of every frame contends
    M, K, F = 16, 8, 1500
    H = _channel(M, K, 19)
    _, b = om.simulate_frames(H, 10 ** 1.5, F, rng_seed=20)
    hyp = hypothesis_indices(K)  # cached, so built outside the trace
    pairs = []
    screened_tiles = detect._screened_tiles

    def spy(base, D, pos):
        visits = screened_tiles(base, D, pos)
        pairs.append(sum(frames.size for _, frames in visits))
        return visits

    monkeypatch.setattr(detect, "_screened_tiles", spy)
    n, n_blocks = 4 ** (K - 1), 4 ** K // detect.SCREEN_BLOCK
    screen = (n * (2 * M + 1) * 4                                    # screen table
              + detect.HYP_CHUNK * 2 * detect.FRAME_CHUNK * 4           # float32 tile
              + n_blocks * detect.FRAME_CHUNK * 4                       # block maxima
              + n_blocks // 4 * detect.FRAME_CHUNK * 8                  # one d_0 slab
              + 3 * n_blocks * detect.FRAME_CHUNK)  # a chunk's bool masks: d_0 slabs, gathered, last
    confirm = (detect.FRAME_CHUNK * detect.HYP_CHUNK * 8                # score buffer
               + detect.HYP_CHUNK * 2 * M * 8)                          # a tile's delta rows
    # besides: the (tiles, frames) contender mask, each tile's frame indices,
    # and 0.5 MiB for the frames' sign matrices, 2m and pos
    hits = n_blocks * detect.SCREEN_BLOCK // detect.HYP_CHUNK * F
    for channel in (H, np.zeros_like(H)):
        base, D = detect._score_terms(channel, 10 ** 1.5)
        pairs.clear()
        tracemalloc.start()
        try:
            detect._score_frames(base, D, b, hyp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(screen, confirm) + hits + 8 * pairs[0] + 2 ** 19


def test_tie_break_is_lexicographic_across_tiles():
    b = np.where(np.random.default_rng(14).normal(size=(300, 32)) >= 0, 1, -1)
    out = om.detect_frames(np.zeros((16, 8), dtype=complex), b)
    assert not out.any()
    # user 0 unseen: hypotheses differing only in its symbol tie, and they
    # sit 4^7 rows apart, in different tiles
    H = _channel(16, 8, 15)
    H[:, 0] = 0.0
    _, b = om.simulate_frames(H, 10.0, 300, rng_seed=16)
    out = om.detect_frames(H, b, symbol_power=10.0)
    assert not out[:, 0].any()
    assert np.array_equal(out, _full_matrix_decisions(H, b, 10.0))


def _inputs(H, symbol_power):
    """The slow way: the comparator inputs U of all 4^K hypotheses, summed
    over the users in order from written-out per-user [Re, Im] products."""
    M, K = H.shape
    amp = np.sqrt(symbol_power)
    sr, si = (QPSK.real * amp)[:, None], (QPSK.imag * amp)[:, None]
    for k in range(K):
        hr, hi = H[:, k].real, H[:, k].imag
        c = np.hstack([sr * hr - si * hi, sr * hi + si * hr])
        U = (U[:, None] + c[None]).reshape(-1, 2 * M) if k else c
    return U


def _full_terms(U, pair):
    """base and delta of all 4^K hypotheses from their inputs U, with
    (log Phi(U), log Phi(-U)) = pair(U)."""
    M = U.shape[1] // 2
    log_pos, log_neg = pair(U)
    return log_neg[:, :M].sum(axis=1) + log_neg[:, M:].sum(axis=1), log_pos - log_neg


@pytest.mark.parametrize("K", range(1, 9))
def test_negated_table_is_first_table_reversed(K):
    for M in (1, 5, 16):
        H = _channel(M, K, 20 + K)
        U = _inputs(H, 3.0)
        # negating every symbol (d -> 3 - d) reverses the rows and negates U;
        # multiplying them by j (d -> ROT[d]) maps [Re, Im] to [-Im, Re]
        assert np.array_equal(U[::-1], -U)
        idx = hypothesis_indices(K)
        rotated = (detect.ROT[idx] * 4 ** np.arange(K - 1, -1, -1)).sum(axis=1)
        assert np.array_equal(U[rotated], np.hstack([-U[:, M:], U[:, :M]]))
        full_base, full_delta = _full_terms(U, norm_logcdf_pair)
        base, D = detect._score_terms(H, 3.0)
        assert np.array_equal(base, full_base)
        assert np.array_equal(_full_delta(D), full_delta)
        # [Re, Im] of the complex product, to within the rounding of 2K-term sums
        S = QPSK[idx] * np.sqrt(3.0)
        R = S @ H.T
        Hr, Hi = H.T.real, H.T.imag
        size = np.abs(np.hstack([S.real, S.imag])) @ np.abs(np.block([[Hr, Hi], [-Hi, Hr]]))
        assert np.all(np.abs(U - np.hstack([R.real, R.imag])) <= 8 * K * 2.0 ** -53 * size)


@pytest.mark.parametrize("M, K", [(1, 1), (3, 2), (5, 4), (16, 8)])
def test_simulated_signs_match_complex_reference(M, K):
    # the complex model S @ H.T + noise, with the real noise block drawn
    # before the imaginary one, gives the same symbols and signs
    H = _channel(M, K, 50 + K)
    for snr_db in (-5.0, 15.0, 45.0):
        p = 10 ** (snr_db / 10)
        idx, b = om.simulate_frames(H, p, 500, rng_seed=M + K)
        rng = np.random.default_rng(M + K)
        ref_idx = rng.integers(0, 4, size=(500, K))
        noise = rng.standard_normal((500, M)) + 1j * rng.standard_normal((500, M))
        R = QPSK[ref_idx] * np.sqrt(p) @ H.T + noise
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(b, np.where(np.hstack([R.real, R.imag]) >= 0, 1, -1))


def test_detection_evaluates_log_phi_once_and_stays_small(monkeypatch):
    H = _channel(16, 8, 17)
    quarter = _inputs(H, 10.0)[:4 ** 7]
    calls = []

    def counting(t):
        # the inputs arrive in quarter row order, each row once
        start = sum(calls)
        assert np.array_equal(t, quarter[start:start + t.shape[0]])
        calls.append(t.shape[0])
        return norm_logcdf_pair(t)

    tables = []
    screen_table = detect._screen_table

    def spy(base, delta):
        out = screen_table(base, delta)
        tables.append(out[0].shape)
        return out

    monkeypatch.setattr(detect, "norm_logcdf_pair", counting)
    monkeypatch.setattr(detect, "_screen_table", spy)
    _, b = om.simulate_frames(H, 10.0, 600, rng_seed=18)
    tracemalloc.start()
    try:
        om.detect_frames(H, b, symbol_power=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # log Phi(+-u) once per input of the d_0 = 0 quarter: 4^(K-1) 2M points
    assert sum(calls) == 4 ** 7
    # the float32 screen table [D / 2 | m] covers the same quarter
    assert tables == [(4 ** 7, 33)]
    # less than a (4^K, 2M) float64 delta table, which is never built
    assert peak < 1.0 * 4 ** 8 * 32 * 8


@pytest.mark.parametrize("H_bad, symbol_power, name", [
    (np.nan, 1.0, "H_hat"),
    (None, np.inf, "symbol_power"),
])
def test_non_finite_inputs_raise(H_bad, symbol_power, name):
    H = _channel(4, 2, 19)
    if H_bad is not None:
        H[1, 1] = H_bad
    with pytest.raises(ValueError, match=name):
        om.detect_frames(H, np.ones((3, 8)), symbol_power=symbol_power)


@pytest.mark.parametrize("H_bad, symbol_power, name", [
    (None, -1.0, "symbol_power"),
    (None, 0.0, "symbol_power"),
    (None, np.nan, "symbol_power"),
    (None, np.inf, "symbol_power"),
    (np.nan, 1.0, "H"),
    (np.inf, 1.0, "H"),
])
def test_simulate_frames_rejects_bad_inputs(H_bad, symbol_power, name):
    # before the check, these gave all -1 signs with at most a RuntimeWarning
    H = _channel(4, 2, 19)
    if H_bad is not None:
        H[1, 1] = H_bad
    with pytest.raises(ValueError, match=name):
        om.simulate_frames(H, symbol_power, 5, rng_seed=0)


def test_k_max_guard():
    H = np.zeros((4, 9), dtype=complex)
    with pytest.raises(ValueError, match="reduce"):
        om.detect_frames(H, np.ones(8))


def test_detection_deterministic():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    _, b = om.simulate_frames(H, 3.0, 64, rng_seed=3)
    a = om.detect_frames(H, b, symbol_power=3.0)
    c = om.detect_frames(H, b, symbol_power=3.0)
    assert np.array_equal(a, c)


def test_perfect_csi_and_high_power_zero_errors():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    ser, _ = om.data_phase(H, H, symbol_power=1e8, n_frames=500, rng_seed=6)
    assert ser == 0.0


def test_perfect_csi_no_worse_than_estimated_csi():
    rng = np.random.default_rng(7)
    M, K = 4, 2
    H = rng.normal(scale=np.sqrt(0.5), size=(M, K)) + 1j * rng.normal(scale=np.sqrt(0.5), size=(M, K))
    H_bad = H + 0.5 * (rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K)))
    p = 4.0
    perfect, _ = om.data_phase(H, H, p, n_frames=10_000, rng_seed=8)
    estimated, _ = om.data_phase(H, H_bad, p, n_frames=10_000, rng_seed=8)
    assert perfect <= estimated


def test_ser_improves_with_more_pilots():
    # channel estimated by random thresholds with growing L
    sers = []
    for L in [16, 48, 144]:
        vals = []
        for t in range(8):
            model = om.pilot_model(4, 2, L, 10.0, 700 + t)
            ch = om.generate_channel(4, 2, 700 + t)
            est = om.run_rq(model, ch.h, 800 + t)
            H_est = om.real_to_channel(est.h_hat, 4, 2)
            ser, _ = om.data_phase(ch.H, H_est, 10 ** 1.0, n_frames=3000, rng_seed=900 + t)
            vals.append(ser)
        sers.append(np.median(vals))
    assert sers[0] >= sers[1] >= sers[2]


def test_rate_independent_symbols_near_zero():
    rng = np.random.default_rng(9)
    s = QPSK[rng.integers(0, 4, size=(100_000, 1))]
    s_hat = QPSK[rng.integers(0, 4, size=(100_000, 1))]
    rate = om.achievable_rate(s, s_hat)
    assert rate.shape == (1,)
    assert rate[0] < 0.02


def test_rate_perfect_correlation_capped():
    s = QPSK[np.random.default_rng(10).integers(0, 4, size=(2000, 1))]
    rate = om.achievable_rate(s, s.copy())
    assert rate == detect.RATE_CAP == 20.0


def test_rate_phase_invariance():
    rng = np.random.default_rng(11)
    s = QPSK[rng.integers(0, 4, size=(5000, 2))]
    flips = rng.integers(0, 4, size=(5000, 2))
    s_hat = s * np.exp(0.2j * flips)  # imperfect detections
    base = om.achievable_rate(s, s_hat)
    theta = np.exp(1.234j)
    rotated = om.achievable_rate(s * theta, s_hat * theta)
    assert np.allclose(base, rotated, rtol=1e-9)


def test_rate_empty_raises():
    with pytest.raises(ValueError):
        om.achievable_rate(np.empty((0, 1)), np.empty((0, 1)))


def test_hypothesis_enumeration_lexicographic():
    idx = hypothesis_indices(2)
    assert idx.shape == (16, 2)
    assert np.array_equal(idx[:5], [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]])


@pytest.mark.slow
def test_ser_level_full_scale_random_thresholds():
    # K=8, M=64, SNR 5 dB, L=60 pilots estimated with random thresholds:
    # average SER lands near 1e-3 (checked within half a decade)
    K, M, L, snr = 8, 64, 60, 5.0
    snr_lin = 10 ** (snr / 10)
    sers = []
    for t in range(5):
        model = om.pilot_model(M, K, L, snr, 2000 + t)
        ch = om.generate_channel(M, K, 2000 + t)
        est = om.run_rq(model, ch.h, 2100 + t)
        H_est = om.real_to_channel(est.h_hat, M, K)
        ser, _ = om.data_phase(ch.H, H_est, snr_lin, n_frames=20_000, rng_seed=2200 + t)
        sers.append(ser)
    level = np.mean(sers)
    assert 10 ** -3.5 <= level <= 10 ** -2.5


@pytest.mark.slow
@pytest.mark.parametrize("K", [7, 8])
def test_screened_decisions_match_full_matrix_audit(K):
    # K=7 and 8 run the float32 screen.  In each cell a channel is estimated
    # with added error, or user 0 is unseen in both, and every screened
    # decision equals one argmax over the whole score array, built for 64
    # frames at a time
    rng = np.random.default_rng(70 + K)
    for M in (2, 5, 16):
        for snr_db in (-5.0, 15.0, 45.0):
            for zero_user in (False, True):
                H = rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))
                H_hat = H + 0.3 * (rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K)))
                if zero_user:
                    H[:, 0] = H_hat[:, 0] = 0.0
                p = 10 ** (snr_db / 10)
                _, b = om.simulate_frames(H, p, 300, rng_seed=int(rng.integers(2 ** 31)))
                ours = om.detect_frames(H_hat, b, symbol_power=p)
                for lo in range(0, b.shape[0], 64):
                    grp = slice(lo, lo + 64)
                    assert np.array_equal(ours[grp], _full_matrix_decisions(H_hat, b[grp], p))
