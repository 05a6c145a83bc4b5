import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import onebit_mimo as om
from onebit_mimo import detect
from onebit_mimo.detect import QPSK, hypothesis_indices
from onebit_mimo.gauss import norm_logcdf


def brute_force_detect(H, b, sigma2, symbol_power):
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
        ll = float(norm.logcdf(b * u / np.sqrt(sigma2)).sum())
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
        out = om.detect_frames(H, b[None, :], sigma2=1.0, symbol_power=1e12)
        assert np.array_equal(out, [[k]])


def test_exhaustive_search_matches_independent_brute_force():
    rng = np.random.default_rng(1)
    M, K = 4, 2
    H = rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))
    p = 2.0
    idx_true, b = om.simulate_frames(H, 1.0, p, 40, rng_seed=5)
    ours = om.detect_frames(H, b, 1.0, symbol_power=p)
    for f in range(40):
        ref = brute_force_detect(H, b[f].astype(float), 1.0, p)
        assert np.array_equal(ours[f], ref)


def test_tie_break_is_lexicographic():
    # zero channel scores every hypothesis identically
    H = np.zeros((3, 2), dtype=complex)
    b = np.ones(6)
    out = om.detect_frames(H, b, 1.0)
    assert np.array_equal(out[0], [0, 0])


def _channel(M, K, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K))


def _full_matrix_decisions(H, b, sigma2, symbol_power):
    """Reference: the whole frames-by-hypotheses score array and one argmax."""
    log_pos, log_neg = detect._loglik_tables(H, sigma2, symbol_power)
    scores = log_neg.sum(axis=1) + (b > 0).astype(float) @ (log_pos - log_neg).T
    return hypothesis_indices(H.shape[1])[np.argmax(scores, axis=1)]


@pytest.mark.parametrize("M, K, n_frames", [(16, 8, 300), (4, 3, 40)])
def test_tiled_scorer_matches_full_matrix(M, K, n_frames):
    # K=8: 300 frames is not a multiple of FRAME_CHUNK; K=3: 64 hypotheses
    # fit in less than one tile
    H = _channel(M, K, 12)
    _, b = om.simulate_frames(H, 1.0, 10.0, n_frames, rng_seed=13)
    log_pos, log_neg = detect._loglik_tables(H, 1.0, 10.0)
    ours = detect._score_frames(log_neg.sum(axis=1), log_pos - log_neg, b, hypothesis_indices(K))
    assert np.array_equal(ours, _full_matrix_decisions(H, b, 1.0, 10.0))


def test_tie_break_is_lexicographic_across_tiles():
    b = np.where(np.random.default_rng(14).normal(size=(300, 32)) >= 0, 1, -1)
    out = om.detect_frames(np.zeros((16, 8), dtype=complex), b, 1.0)
    assert not out.any()
    # user 0 unseen: hypotheses differing only in its symbol tie, and they
    # sit 4^7 rows apart, in different tiles
    H = _channel(16, 8, 15)
    H[:, 0] = 0.0
    _, b = om.simulate_frames(H, 1.0, 10.0, 300, rng_seed=16)
    out = om.detect_frames(H, b, 1.0, symbol_power=10.0)
    assert not out[:, 0].any()
    assert np.array_equal(out, _full_matrix_decisions(H, b, 1.0, 10.0))


@pytest.mark.parametrize("K", range(1, 9))
def test_negated_table_is_first_table_reversed(K):
    H = _channel(6, K, 20 + K)
    S = QPSK[hypothesis_indices(K)] * np.sqrt(3.0)
    R = S @ H.T
    U = np.concatenate([R.real, R.imag], axis=1) / np.sqrt(0.7)
    log_pos, log_neg = detect._loglik_tables(H, 0.7, 3.0)
    assert np.array_equal(log_pos, norm_logcdf(U))
    assert np.array_equal(log_neg, norm_logcdf(-U))


def test_detection_evaluates_log_phi_once_and_stays_small(monkeypatch):
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return norm_logcdf(t)

    monkeypatch.setattr(detect, "norm_logcdf", counting)
    H = _channel(16, 8, 17)
    _, b = om.simulate_frames(H, 1.0, 10.0, 600, rng_seed=18)
    tracemalloc.start()
    try:
        om.detect_frames(H, b, 1.0, symbol_power=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [(4 ** 8, 32)]
    # less than one FRAME_CHUNK x 4^K float64 score block
    assert peak < detect.FRAME_CHUNK * 4 ** 8 * 8


@pytest.mark.parametrize("H_bad, sigma2, symbol_power, name", [
    (np.nan, 1.0, 1.0, "H_hat"),
    (None, 0.0, 1.0, "sigma2"),
    (None, 1.0, np.inf, "symbol_power"),
])
def test_non_finite_inputs_raise(H_bad, sigma2, symbol_power, name):
    H = _channel(4, 2, 19)
    if H_bad is not None:
        H[1, 1] = H_bad
    with pytest.raises(ValueError, match=name):
        om.detect_frames(H, np.ones((3, 8)), sigma2, symbol_power=symbol_power)


def test_k_max_guard():
    H = np.zeros((4, 9), dtype=complex)
    with pytest.raises(ValueError, match="reduce"):
        om.detect_frames(H, np.ones(8), 1.0)


def test_detection_deterministic():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    _, b = om.simulate_frames(H, 1.0, 3.0, 64, rng_seed=3)
    a = om.detect_frames(H, b, 1.0, symbol_power=3.0)
    c = om.detect_frames(H, b, 1.0, symbol_power=3.0)
    assert np.array_equal(a, c)


def test_perfect_csi_and_high_power_zero_errors():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    ser, _ = om.data_phase(H, H, sigma2=1.0, symbol_power=1e8, n_frames=500, rng_seed=6)
    assert ser == 0.0


def test_perfect_csi_no_worse_than_estimated_csi():
    rng = np.random.default_rng(7)
    M, K = 4, 2
    H = rng.normal(scale=np.sqrt(0.5), size=(M, K)) + 1j * rng.normal(scale=np.sqrt(0.5), size=(M, K))
    H_bad = H + 0.5 * (rng.normal(size=(M, K)) + 1j * rng.normal(size=(M, K)))
    p = 4.0
    perfect, _ = om.data_phase(H, H, 1.0, p, n_frames=10_000, rng_seed=8)
    estimated, _ = om.data_phase(H, H_bad, 1.0, p, n_frames=10_000, rng_seed=8)
    assert perfect <= estimated


def test_ser_improves_with_more_pilots():
    # channel estimated by random thresholds with growing L
    sers = []
    for L in [16, 48, 144]:
        vals = []
        for t in range(8):
            model = om.pilot_model(4, 2, L, 10.0, 700 + t)
            ch = om.generate_channel(4, 2, 1.0, 700 + t)
            est = om.run_rq(model, ch.h, 1.0, 800 + t)
            H_est = om.real_to_channel(est.h_hat, 4, 2)
            ser, _ = om.data_phase(ch.H, H_est, 1.0, 10 ** 1.0, n_frames=3000, rng_seed=900 + t)
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
    rate = om.achievable_rate(s, s.copy(), cap=20.0)
    assert rate == 20.0


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
        ch = om.generate_channel(M, K, 1.0, 2000 + t)
        est = om.run_rq(model, ch.h, 1.0, 2100 + t)
        H_est = om.real_to_channel(est.h_hat, M, K)
        ser, _ = om.data_phase(ch.H, H_est, 1.0, snr_lin, n_frames=20_000, rng_seed=2200 + t)
        sers.append(ser)
    level = np.mean(sers)
    assert 10 ** -3.5 <= level <= 10 ** -2.5
