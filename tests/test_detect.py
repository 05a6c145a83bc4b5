import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import onebit_mimo as om
from onebit_mimo import detect
from onebit_mimo.detect import QPSK, hypothesis_indices
from onebit_mimo.gauss import norm_logcdf


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
    base, delta = detect._score_terms(H, symbol_power)
    scores = base + (b > 0).astype(float) @ delta.T
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
])
def test_tiled_scorer_matches_full_matrix(M, K, n_frames, snr_db, zero_user):
    H = _channel(M, K, 12)
    if zero_user:
        H[:, 0] = 0.0
    p = 10 ** (snr_db / 10)
    _, b = om.simulate_frames(H, p, n_frames, rng_seed=13)
    base, delta = detect._score_terms(H, p)
    ours = detect._score_frames(base, delta, b, hypothesis_indices(K))
    assert np.array_equal(ours, _full_matrix_decisions(H, b, p))


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


def _two_rows(a, b, d_a=0.0, d_b=0.0):
    """Symmetric table over 4^7 hypotheses (enough for the screen), M = 1,
    where only quarter rows 3 and 700, in different screen blocks, and their
    images under j and negation can win: their sums of log Phi(-u) are a and
    b, their D = [d_a, 0] and [d_b, 0]; every other row has -50 and D = 0."""
    assert 4 ** 7 >= detect.SCREEN_MIN_HYP
    n = 4 ** 6
    D = np.zeros((n, 2))
    neg_re = np.full(n, -50.0)
    neg_re[3], neg_re[700] = a, b
    D[3, 0], D[700, 0] = d_a, d_b
    assert 3 // detect.SCREEN_BLOCK != 700 // detect.SCREEN_BLOCK
    return _expand_quarter(D, neg_re, np.zeros(n))


def test_float32_tie_goes_to_the_float64_winner():
    # 3 and 700 score the same in float32, as do their images; only the
    # float64 confirm pass sees that 700 is higher
    base, delta = _two_rows(-1.0, -1.0 + 1e-12)
    assert np.float32(base[3]) == np.float32(base[700])
    hyp = hypothesis_indices(7)
    out = detect._score_frames(base, delta, np.ones((5, 2)), hyp)
    assert np.array_equal(out, np.repeat(hyp[[700]], 5, axis=0))


def test_float32_reversal_goes_to_the_float64_winner():
    # on all-positive frames a quarter row scores m + D_Re / 2 in float64,
    # and in float32 fl(fl(m) + D_Re / 2), rounded once more if negated.
    # With e = 2^-23, 3 has m = 1 + 0.49e and D_Re = 0.8e: 1 + 0.89e in
    # float64 and 1 in float32.  700 has m = 1 + 0.51e and D_Re = -0.6e: at
    # most 1 + 0.81e in float64 and 1 + e in float32 in every orientation.
    # The screen ranks 700 first, the bound keeps 3
    e = 2.0 ** -23
    base, delta = _two_rows(1.0 + 0.09 * e, 1.0 + 0.81 * e, 0.8 * e, -0.6 * e)
    table = detect._screen_table(base, delta)[0]
    s32 = table[[3, 700]] @ np.ones(3, dtype=np.float32)
    s64 = base + delta.sum(axis=1)
    assert s32[0] < s32[1] and s64[3] > s64[700]
    assert np.argmax(s64) == 3
    hyp = hypothesis_indices(7)
    out = detect._score_frames(base, delta, np.ones((5, 2)), hyp)
    assert np.array_equal(out, np.repeat(hyp[[3]], 5, axis=0))


def test_confirm_products_have_full_tile_shapes(monkeypatch):
    # whole HYP_CHUNK tiles over >= 3 frames, or over the call's own 1- or
    # 2-frame last chunk: the shapes whose float64 scores are those of
    # exhaustive tiled scoring bit for bit
    seen = []
    first_best = detect._first_best

    def spy(pos_mask, base, delta, cols, out):
        seen.append((pos_mask.shape[0], cols.size))
        return first_best(pos_mask, base, delta, cols, out)

    monkeypatch.setattr(detect, "_first_best", spy)
    H = _channel(16, 7, 40)
    _, b = om.simulate_frames(H, 10.0, 258, rng_seed=41)
    om.detect_frames(H, b, symbol_power=10.0)
    rows = [r for r, _ in seen]
    assert sum(rows) == 258 and max(rows) <= detect.CONFIRM_FRAMES
    assert [r for r in rows if r < 3] == [2]
    assert all(c % detect.HYP_CHUNK == 0 for _, c in seen)


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
    n, F = 4 ** (K - 1), 40
    idx = hypothesis_indices(K)
    # quarter row of each d_0 = 1 hypothesis: its digits turned by ROT
    turned = detect.ROT[idx[n:2 * n, 1:]] @ 4 ** np.arange(K - 2, -1, -1)
    for _ in range(3):
        H = rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))
        if zero_user:
            H[:, 0] = 0.0
        base, delta = detect._score_terms(H, 10 ** (snr_db / 10))
        # the test helper lays a quarter out as _score_terms does
        assert np.array_equal(_expand_quarter(delta[:n], base[:n], np.zeros(n))[1], delta)
        table, order, err = detect._screen_table(base, delta)
        pos = rng.random((F, 2 * M)) < 0.5
        b = 2.0 * pos - 1.0
        signs = np.ones((2 * M + 1, 2 * F), dtype=np.float32)
        signs[:-1, :F] = b.T
        signs[:-1, F:] = np.hstack([-b[:, M:], b[:, :M]]).T  # b' = [-b_Im, b_Re]
        P = table @ signs
        Q = 2 * table[:, -1:] - P
        s32 = np.concatenate([P[:, :F], P[turned, F:], Q[turned[::-1], F:], Q[::-1, :F]])
        s64 = (pos.astype(float) @ delta.T + base).T
        gap = np.abs(s32.astype(float) - s64).reshape(-1, detect.SCREEN_BLOCK, F).max(axis=(1, 2))
        assert gap.max() > 0
        assert (gap <= err / 2).all()


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


@pytest.mark.parametrize("K", range(1, 9))
def test_negated_table_is_first_table_reversed(K):
    # the slow way: the comparator inputs U of all 4^K hypotheses, summed over
    # the users in order from written-out per-user [Re, Im] products
    for M in (1, 5, 16):
        H = _channel(M, K, 20 + K)
        sr, si = (QPSK.real * np.sqrt(3.0))[:, None], (QPSK.imag * np.sqrt(3.0))[:, None]
        for k in range(K):
            hr, hi = H[:, k].real, H[:, k].imag
            c = np.hstack([sr * hr - si * hi, sr * hi + si * hr])
            U = (U[:, None] + c[None]).reshape(-1, 2 * M) if k else c
        # negating every symbol (d -> 3 - d) reverses the rows and negates U;
        # multiplying them by j (d -> ROT[d]) maps [Re, Im] to [-Im, Re]
        assert np.array_equal(U[::-1], -U)
        idx = hypothesis_indices(K)
        rotated = (detect.ROT[idx] * 4 ** np.arange(K - 1, -1, -1)).sum(axis=1)
        assert np.array_equal(U[rotated], np.hstack([-U[:, M:], U[:, :M]]))
        log_pos, log_neg = norm_logcdf(U), norm_logcdf(-U)
        base, delta = detect._score_terms(H, 3.0)
        assert np.array_equal(base, log_neg[:, :M].sum(axis=1) + log_neg[:, M:].sum(axis=1))
        assert np.array_equal(delta, log_pos - log_neg)
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
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return norm_logcdf(t)

    tables = []
    screen_table = detect._screen_table

    def spy(base, delta):
        out = screen_table(base, delta)
        tables.append(out[0].shape)
        return out

    monkeypatch.setattr(detect, "norm_logcdf", counting)
    monkeypatch.setattr(detect, "_screen_table", spy)
    H = _channel(16, 8, 17)
    _, b = om.simulate_frames(H, 10.0, 600, rng_seed=18)
    tracemalloc.start()
    try:
        om.detect_frames(H, b, symbol_power=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # log Phi(+U) and log Phi(-U) on the d_0 = 0 quarter: 4^K M evaluations
    assert calls == [(4 ** 7, 32)] * 2
    # the float32 screen table [D / 2 | m] covers the same quarter
    assert tables == [(4 ** 7, 33)]
    # 1.75 times the (4^K, 2M) float64 delta table
    assert peak < 1.75 * 4 ** 8 * 32 * 8


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
                for grp in detect._even_slices(b.shape[0], 64):
                    assert np.array_equal(ours[grp], _full_matrix_decisions(H_hat, b[grp], p))
